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
    eventual_underlying,
    footprint,
    remove_edge_interval,
    ring_from_json,
    ring_to_json,
    static_ring,
    verify_class,
)

from spec import left_edge_of, right_edge_of, ring_of, rings, step_right


class TestEdgePresent:
    def test_static_ring_always_present(self):
        ring = static_ring(4)
        for e in range(4):
            for t in (0, 1, 7, 100):
                assert ring.snapshot(t)[e]

    def test_prefix_then_cycle(self):
        ring = ring_of(4, [[0, 1, 1, 1]], [[1, 1, 1, 1]])
        assert not ring.snapshot(0)[0]
        assert ring.snapshot(1)[0]

    def test_cycle_indexing(self):
        # round 5 maps to cycle slot 5 mod 2 = 1, where e2 is absent
        ring = ring_of(4, [], [[1, 1, 1, 1], [1, 1, 0, 1]])
        assert not ring.snapshot(5)[2]
        assert ring.snapshot(4)[2]

    @pytest.mark.parametrize(
        "prefix",
        [[], [[0, 1, 1, 1], [1, 0, 1, 1]]],
        ids=["empty-prefix", "prefix"],
    )
    def test_snapshot_is_the_phase_of_prefix_plus_cycle(self, prefix):
        # Every snapshot differs, so a wrong index shows.
        ring = ring_of(4, prefix, [[1, 1, 0, 1], [1, 1, 1, 0], [1, 1, 1, 1]])
        sched = ring.schedule
        unrolled = sched.prefix + sched.cycle
        for t in range(len(sched.prefix) + 3 * len(sched.cycle)):
            assert ring.snapshot(t) == unrolled[ring.phase(t)]


# The spec's edge convention, which the engine's inline indexing is tested
# against: edge i joins node i and node i + 1.
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
    def test_start_after_end_raises(self):
        with pytest.raises(ValueError):
            remove_edge_interval(static_ring(4), 1, 5, 4)

    def test_finite_interval_unrolls_prefix(self):
        base = ring_of(4, [], [[1, 1, 1, 1], [1, 1, 1, 0]])
        out = remove_edge_interval(base, 1, 0, 2)
        assert len(out.schedule.prefix) == 3
        for t in range(3):
            assert not out.snapshot(t)[1]
        # everything else matches the original unrolled schedule
        for t in range(12):
            for e in (0, 2, 3):
                assert out.snapshot(t)[e] == base.snapshot(t)[e]
        assert out.snapshot(3)[1] == base.snapshot(3)[1]


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

    @pytest.mark.parametrize(
        "prefix, cycle",
        [
            # Each snapshot misses only edge 3, which never shows: a chain.
            ([], [[1, 1, 1, 0]]),
            # Edge 1 never shows; every other edge recurs within 7 rounds.
            (
                [[0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 0, 1, 0]],
                [[0, 0, 0, 1], [0, 0, 1, 0], [0, 0, 1, 0], [1, 0, 0, 0], [0, 0, 1, 0]],
            ),
        ],
        ids=["static-chain", "lasso"],
    )
    def test_a_never_present_edge_fails_every_class(self, prefix, cycle):
        ring = ring_of(4, prefix, cycle)
        assert len(footprint(ring)) == 3
        classes = [DynClass(tag) for tag in (ST, AC, RE, COT)]
        for c in classes + [DynClass(BRE, delta) for delta in range(1, 13)]:
            assert not verify_class(ring, c)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: DynClass("xx"), "unknown dynamics class"),
        (lambda: DynClass(BRE), "BRE requires delta >= 1"),
        (lambda: DynClass(BRE, 0), "BRE requires delta >= 1"),
        (lambda: DynClass(BRE, 2.5), "BRE requires delta >= 1, an int"),
        (lambda: DynClass(BRE, True), "BRE requires delta >= 1, an int"),
        (lambda: DynClass(ST, 3), "delta is only meaningful for BRE"),
        (lambda: Schedule((), ()), "cycle must be non-empty"),
        (lambda: ring_of(3, [], [[1, 1, 1]]), "ring size must be >= 4"),
        (lambda: ring_of(4.0, [], [[1, 1, 1, 1]]), "ring size must be an int"),
        (lambda: ring_of("4", [], [[1, 1, 1, 1]]), "ring size must be an int"),
        (lambda: ring_of(4, [], [[1, 1, 1]]), "snapshot length must equal ring size"),
        (lambda: static_ring(4).phase(-1), "round index must be >= 0"),
        (lambda: remove_edge_interval(static_ring(4), 0, -1, 2), "interval start must be >= 0"),
        (lambda: remove_edge_interval(static_ring(4), 4, 0, 2), "edge out of range"),
        (lambda: remove_edge_interval(static_ring(4), -1, 0, 2), "edge out of range"),
    ],
    ids=[
        "unknown-tag", "bre-no-delta", "bre-delta-0", "bre-delta-2.5", "bre-delta-true",
        "st-with-delta", "empty-cycle", "n-3", "n-4.0", "n-a-string", "short-snapshot",
        "negative-round", "negative-start", "edge-4", "edge-minus-1",
    ],
)
def test_bad_input_is_rejected(build, message):
    with pytest.raises(ValueError, match=message):
        build()


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

    @pytest.mark.parametrize("bit", [True, False, 1.0, 0.0])
    def test_ring_rejects_bits_that_are_not_exactly_ints(self, bit):
        # Each equals a bit, but a trace would write it as true, false, 1.0
        # or 0.0. A set of the bits hides it: {1, True} is {1}.
        with pytest.raises(ValueError, match="0 or 1"):
            ring_of(4, [], [[1, bit, 1, 1]])

    @pytest.mark.parametrize("bit", [2, -1, 0.5, '"1"', "true", "1.0", "[1]", "{}"])
    def test_json_rejects_non_binary_bits(self, bit):
        text = f'{{"n": 4, "prefix": [[1, 1, {bit}, 1]], "cycle": [[1, 1, 1, 1]]}}'
        with pytest.raises(ValueError, match="0 or 1"):
            ring_from_json(text)


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

@settings(max_examples=200)
@given(rings())
def test_class_inclusion_chain(ring):
    if verify_class(ring, DynClass(ST)):
        assert verify_class(ring, DynClass(BRE, 1))
        assert verify_class(ring, DynClass(AC))
    if verify_class(ring, DynClass(BRE, 1)):
        assert verify_class(ring, DynClass(RE))
    if verify_class(ring, DynClass(RE)):
        assert verify_class(ring, DynClass(COT))
    if verify_class(ring, DynClass(AC)):
        assert verify_class(ring, DynClass(COT))


@settings(max_examples=100)
@given(rings(), st.integers(0, 6), st.integers(0, 6))
def test_remove_interval_pointwise(ring, t_start, length):
    e = 0
    t_end = t_start + length
    out = remove_edge_interval(ring, e, t_start, t_end)
    span = len(out.schedule.prefix) + 2 * len(out.schedule.cycle)
    for s in range(span):
        if t_start <= s <= t_end:
            assert not out.snapshot(s)[e]
        else:
            assert out.snapshot(s)[e] == ring.snapshot(s)[e]
        for other in range(1, ring.n):
            assert out.snapshot(s)[other] == ring.snapshot(s)[other]


@settings(max_examples=100)
@given(rings())
def test_json_round_trip(ring):
    assert ring_from_json(ring_to_json(ring)) == ring


@settings(max_examples=100)
@given(rings())
def test_cot_iff_at_most_one_cycle_absent_edge(ring):
    # Every edge shows at least once, and at most one stops recurring.
    whole = footprint(ring) == set(range(ring.n))
    absent = ring.n - len(eventual_underlying(ring))
    assert verify_class(ring, DynClass(COT)) == (whole and absent <= 1)


def connects_the_ring(n, snaps):
    """BFS oracle: do the edges present in some snapshot of snaps connect all
    n nodes of the ring? Edge i joins node i and node i + 1 mod n."""
    edges = {e for snap in snaps for e in range(n) if snap[e]}
    reached, todo = {0}, [0]
    while todo:
        v = todo.pop()
        for e, w in ((v, (v + 1) % n), ((v - 1) % n, (v - 1) % n)):
            if e in edges and w not in reached:
                reached.add(w)
                todo.append(w)
    return len(reached) == n


def whole_footprint(ring):
    snaps = ring.schedule.prefix + ring.schedule.cycle
    return all(any(snap[e] for snap in snaps) for e in range(ring.n))


@settings(max_examples=300)
@given(rings())
def test_ac_iff_every_snapshot_connects_the_ring(ring):
    snaps = ring.schedule.prefix + ring.schedule.cycle
    each = all(connects_the_ring(ring.n, [snap]) for snap in snaps)
    assert verify_class(ring, DynClass(AC)) == (whole_footprint(ring) and each)


@settings(max_examples=300)
@given(rings())
def test_cot_iff_the_cycle_edges_connect_the_ring(ring):
    recurrent = connects_the_ring(ring.n, ring.schedule.cycle)
    assert verify_class(ring, DynClass(COT)) == (whole_footprint(ring) and recurrent)


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("full_prefix", [False, True], ids=["static", "after-full"])
def test_ac_on_every_snapshot(n, full_prefix):
    # The static ring of each snapshot, and the ring that shows every edge
    # once and then keeps that snapshot forever.
    for bits in range(2**n):
        snap = tuple(bits >> e & 1 for e in range(n))
        prefix = ((1,) * n,) if full_prefix else ()
        ring = EvolvingRing(n, Schedule(prefix, (snap,)))
        expected = whole_footprint(ring) and connects_the_ring(n, [snap])
        assert verify_class(ring, DynClass(AC)) == expected


@settings(max_examples=300)
@given(st.data())
def test_bre_equals_a_check_of_every_window(data):
    # Windows starting past prefix + cycle repeat earlier ones, so checking
    # every window over prefix + cycle * (delta + 3) decides BRE(delta). The
    # schedules are short, so many are shorter than delta.
    n = data.draw(st.integers(4, 6))
    delta = data.draw(st.integers(1, 12))
    row = st.tuples(*[st.integers(0, 1)] * n)
    prefix = data.draw(st.lists(row, max_size=2))
    cycle = data.draw(st.lists(row, min_size=1, max_size=3))
    ring = EvolvingRing(n, Schedule(tuple(prefix), tuple(cycle)))
    unrolled = prefix + cycle * (delta + 3)
    every_window = all(
        any(snap[e] for snap in unrolled[start : start + delta])
        for start in range(len(unrolled) - delta + 1)
        for e in range(n)
    )
    assert verify_class(ring, DynClass(BRE, delta)) == every_window
