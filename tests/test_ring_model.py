import pytest
from hypothesis import given, settings, strategies as st

from gdg_sim.ring_model import (
    AC,
    BRE,
    COT,
    RE,
    ST,
    DynClass,
    EvolvingRing,
    Schedule,
    edge_present,
    eventual_underlying,
    footprint,
    left_edge_of,
    remove_edge_interval,
    right_edge_of,
    ring_from_json,
    ring_to_json,
    splice,
    static_ring,
    step_right,
    verify_class,
)


def ring_of(n, prefix, cycle):
    return EvolvingRing(n, Schedule(tuple(map(tuple, prefix)), tuple(map(tuple, cycle))))


class TestEdgePresent:
    def test_static_ring_always_present(self):
        ring = static_ring(4)
        for e in range(4):
            for t in (0, 1, 7, 100):
                assert edge_present(ring, e, t)

    def test_prefix_then_cycle(self):
        ring = ring_of(4, [[0, 1, 1, 1]], [[1, 1, 1, 1]])
        assert not edge_present(ring, 0, 0)
        assert edge_present(ring, 0, 1)

    def test_cycle_indexing(self):
        # round 5 maps to cycle slot 5 mod 2 = 1, where e2 is absent
        ring = ring_of(4, [], [[1, 1, 1, 1], [1, 1, 0, 1]])
        assert not edge_present(ring, 2, 5)
        assert edge_present(ring, 2, 4)


class TestGeometry:
    def test_edges_of_node_zero(self):
        assert right_edge_of(0, 4) == 0
        assert left_edge_of(0, 4) == 3

    def test_edges_of_last_node(self):
        assert right_edge_of(3, 4) == 3
        assert left_edge_of(3, 4) == 2

    def test_right_move_wraps(self):
        assert step_right(3, 4) == 0


class TestRemoveEdgeInterval:
    def test_remove_forever_from_static(self):
        ring = remove_edge_interval(static_ring(4), 0, 0, None)
        assert all(not edge_present(ring, 0, t) for t in range(10))
        assert all(edge_present(ring, e, t) for e in (1, 2, 3) for t in range(10))

    def test_empty_interval_is_identity(self):
        ring = static_ring(4)
        out = remove_edge_interval(ring, 1, 5, 4) if False else None
        with pytest.raises(ValueError):
            remove_edge_interval(ring, 1, 5, 4)

    def test_finite_interval_unrolls_prefix(self):
        base = ring_of(4, [], [[1, 1, 1, 1], [1, 1, 1, 0]])
        out = remove_edge_interval(base, 1, 0, 2)
        assert len(out.schedule.prefix) == 3
        for t in range(3):
            assert not edge_present(out, 1, t)
        # everything else matches the original unrolled schedule
        for t in range(12):
            for e in (0, 2, 3):
                assert edge_present(out, e, t) == edge_present(base, e, t)
        assert edge_present(out, 1, 3) == edge_present(base, 1, 3)


class TestSplice:
    def test_idempotent(self):
        x = ring_of(4, [[0, 1, 1, 1]], [[1, 1, 1, 1], [1, 0, 1, 1]])
        out = splice(x, 3, x)
        for t in range(12):
            for e in range(4):
                assert edge_present(out, e, t) == edge_present(x, e, t)

    def test_static_then_missing_edge(self):
        missing = remove_edge_interval(static_ring(4), 0, 0, None)
        out = splice(static_ring(4), 0, missing)
        assert edge_present(out, 0, 0)
        assert all(not edge_present(out, 0, t) for t in range(1, 8))

    def test_two_period_one_rings(self):
        a = ring_of(4, [], [[1, 1, 1, 1]])
        b = ring_of(4, [], [[0, 1, 1, 1]])
        out = splice(a, 3, b)
        assert len(out.schedule.prefix) == 4
        for t in range(5):
            assert edge_present(out, 0, t) == (t <= 3)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            splice(static_ring(4), 0, static_ring(5))


class TestVerifyClass:
    def test_static_is_in_every_class(self):
        ring = static_ring(5)
        for c in (DynClass(ST), DynClass(AC), DynClass(RE), DynClass(COT), DynClass(BRE, 1)):
            assert verify_class(ring, c)

    def test_eventual_missing_edge(self):
        # e0 never in the cycle: connected-over-time but not recurrent-edges
        ring = ring_of(4, [[1, 1, 1, 1]], [[0, 1, 1, 1]])
        assert verify_class(ring, DynClass(COT))
        assert not verify_class(ring, DynClass(RE))
        assert verify_class(ring, DynClass(AC))

    def test_alternating_missing_edge(self):
        ring = ring_of(4, [], [[0, 1, 1, 1], [1, 0, 1, 1]])
        assert verify_class(ring, DynClass(AC))
        assert not verify_class(ring, DynClass(ST))
        assert verify_class(ring, DynClass(BRE, 2))
        assert not verify_class(ring, DynClass(BRE, 1))

    def test_two_absent_edges_break_ac(self):
        ring = ring_of(4, [], [[0, 0, 1, 1]])
        assert not verify_class(ring, DynClass(AC))
        assert not verify_class(ring, DynClass(COT))


class TestFootprints:
    def test_prefix_only_edge(self):
        ring = ring_of(4, [[1, 1, 1, 1]], [[1, 1, 0, 1]])
        assert 2 in footprint(ring)
        assert 2 not in eventual_underlying(ring)


class TestScheduleBits:
    @pytest.mark.parametrize("bit", [2, -1])
    def test_ring_rejects_non_binary_bits(self, bit):
        with pytest.raises(ValueError):
            ring_of(4, [[1, 1, 1, 1]], [[1, bit, 1, 1]])

    @pytest.mark.parametrize("bit", [2, -1, 0.5, '"1"'])
    def test_json_rejects_non_binary_bits(self, bit):
        text = f'{{"n": 4, "prefix": [[1, 1, {bit}, 1]], "cycle": [[1, 1, 1, 1]]}}'
        with pytest.raises(ValueError):
            ring_from_json(text)


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

snapshots = st.integers(4, 8).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(*[st.integers(0, 1)] * n).map(tuple), max_size=4),
        st.lists(st.tuples(*[st.integers(0, 1)] * n).map(tuple), min_size=1, max_size=4),
    )
)


@st.composite
def rings(draw):
    n = draw(st.integers(4, 8))
    bit_row = st.lists(st.integers(0, 1), min_size=n, max_size=n).map(tuple)
    prefix = tuple(draw(st.lists(bit_row, max_size=4)))
    cycle = tuple(draw(st.lists(bit_row, min_size=1, max_size=4)))
    return EvolvingRing(n, Schedule(prefix, cycle))


@settings(max_examples=200)
@given(rings())
def test_class_inclusion_chain(ring):
    if verify_class(ring, DynClass(ST)):
        assert verify_class(ring, DynClass(BRE, 1))
        assert verify_class(ring, DynClass(AC))
    if verify_class(ring, DynClass(BRE, 1)):
        assert verify_class(ring, DynClass(RE))
    # RE is footprint-relative, so RE implies COT only under the model's
    # standing assumption that the footprint is the whole ring.
    if verify_class(ring, DynClass(RE)) and len(footprint(ring)) == ring.n:
        assert verify_class(ring, DynClass(COT))
    if verify_class(ring, DynClass(AC)):
        assert verify_class(ring, DynClass(COT))


@settings(max_examples=100)
@given(rings(), rings(), st.integers(0, 10))
def test_splice_pointwise(a, b, t):
    if a.n != b.n:
        return
    out = splice(a, t, b)
    span = len(out.schedule.prefix) + 2 * len(out.schedule.cycle)
    for s in range(span):
        src = a if s <= t else b
        for e in range(a.n):
            assert edge_present(out, e, s) == edge_present(src, e, s)


@settings(max_examples=100)
@given(rings(), st.integers(0, 6), st.integers(0, 6))
def test_remove_interval_pointwise(ring, t_start, length):
    e = 0
    t_end = t_start + length
    out = remove_edge_interval(ring, e, t_start, t_end)
    span = len(out.schedule.prefix) + 2 * len(out.schedule.cycle)
    for s in range(span):
        if t_start <= s <= t_end:
            assert not edge_present(out, e, s)
        else:
            assert edge_present(out, e, s) == edge_present(ring, e, s)
        for other in range(1, ring.n):
            assert edge_present(out, other, s) == edge_present(ring, other, s)


@settings(max_examples=100)
@given(rings())
def test_json_round_trip(ring):
    assert ring_from_json(ring_to_json(ring)) == ring


@settings(max_examples=100)
@given(rings())
def test_cot_iff_at_most_one_cycle_absent_edge(ring):
    absent = ring.n - len(eventual_underlying(ring))
    assert verify_class(ring, DynClass(COT)) == (absent <= 1)
