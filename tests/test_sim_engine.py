import json
import operator
import random

import pytest
from hypothesis import given, settings, strategies as st

from gdg_sim import adversary, sim_engine
from gdg_sim.adversary import GeneratorSpec, adaptive_ac_adversary, generate
from gdg_sim.checkers import _termination_info
from gdg_sim.gdg_protocol import BOT, DIRECTIONS, LEFT, RIGHT, RobotVars, View
from gdg_sim.ring_model import (
    AC,
    BRE,
    COT,
    RE,
    ST,
    DynClass,
    static_ring,
)
from gdg_sim.sim_engine import (
    RobotRecord,
    Stop,
    Trace,
    TraceEvent,
    build_view,
    initial_configuration,
    run,
    step,
    trace_from_jsonl,
    trace_to_jsonl,
)

import spec
from spec import (
    DUEL_CYCLES, DUELS, left_edge_of, never_move, rec, right_edge_of, ring_of, step_left,
    step_right, trace_of,
)

PLACEMENT = {1: 0, 2: 1, 3: 2, 4: 3}
FULL = (1, 1, 1, 1)
# Edge e0 vanishes after round 0: robots 1-3 terminate at round 10 and
# robot 4 stays stranded, so later events mix terminated and active robots.
STRANDED_RING = ring_of(4, [[1, 1, 1, 1]], [[0, 1, 1, 1]])
STRANDED = {1: 0, 2: 2, 3: 2, 4: 3}
GAP = (0, 1, 1, 1)
# Periodic RE: e0 is absent for 8 rounds of every 9, so from STRANDED the
# robots wait at the gap, with configurations that stay fixed for rounds.
PERIODIC_RE_RING = ring_of(4, [FULL], [GAP] * 8 + [FULL])


class RecordingSource:
    """A snapshot source that hands out a ring's snapshots as new objects and
    records each request as (round, the configuration's last snapshot)."""

    def __init__(self, ring):
        self.ring, self.n = ring, ring.n
        self.asked, self.emitted = [], []

    def next_snapshot(self, config):
        self.asked.append((config.round, config.last_snap))
        self.emitted.append(tuple(list(self.ring.snapshot(config.round))))
        return self.emitted[-1]

    def phase(self, t):
        return self.ring.phase(t)


def dump(doc):
    return json.dumps(doc, separators=(",", ":"))


def positions(config):
    """Robot id -> node, read from the configuration's records."""
    return {rid: rec.position for rid, rec in config.robots.items()}


def check_views_against_spec(ring, placement, horizon):
    """Step a run round by round, checking every computing robot's view and
    every configuration's towers against the spec's; return the largest
    tower seen."""
    config = initial_configuration(placement, ring.n)
    largest = 0
    for t in range(horizon):
        assert config.towers == spec.towers(config)
        largest = max(largest, *map(len, config.towers.values()))
        snap = ring.snapshot(t)
        for rid, vars in config.vars.items():
            if not vars.terminated:
                view = build_view(config, snap, rid)
                # A plain tuple of the same fields compares equal to a View.
                assert type(view) is View
                assert view == spec.build_view(config, snap, rid)
        config = step(config, snap)
        if all(v.terminated for v in config.vars.values()):
            break
    assert config.towers == spec.towers(config)
    return largest


def check_against_spec(ring, placement, horizon, compute_fn=None):
    """Check that `run` equals the spec's run, which steps every round: the
    same events, the robots dict handed on exactly when the records repeat,
    and a stop that the spec bears out. Return the stop. With no compute_fn,
    run computes with gdg_protocol's and the spec with its own."""
    trace, stop = run(ring, placement, horizon, compute_fn or sim_engine.compute)
    expected, last = spec.run(ring, placement, horizon, compute_fn or spec.compute)
    events = expected.events
    assert trace.events == events
    assert spec.shares(trace.events) == [b.robots == a.robots for a, b in zip(events, events[1:])]
    spec.check_stop(stop, expected, last)
    return stop


class TestBuildView:
    def test_round_zero_has_no_history(self):
        config = initial_configuration(PLACEMENT, 4)
        view = build_view(config, FULL, 1)
        assert view.mates == ()
        assert not view.edge_left_previous
        assert not view.has_moved
        assert (view.n, view.R) == (4, 4)

    def test_mates_sorted_by_id(self):
        config = initial_configuration({1: 0, 2: 0, 3: 0, 4: 2}, 4)
        view = build_view(config, FULL, 2)
        assert [m.id for m in view.mates] == [1, 3]

    def test_mates_sorted_by_id_from_unsorted_placement(self):
        config = initial_configuration({3: 0, 4: 2, 2: 0, 1: 0}, 4)
        view = build_view(config, FULL, 2)
        assert [m.id for m in view.mates] == [1, 3]

    def test_edges_from_current_snapshot(self):
        config = initial_configuration(PLACEMENT, 4)
        view = build_view(config, (0, 1, 1, 1), 1)  # node 0: right edge e0
        assert not view.edge_right_current
        assert build_view(config, (0, 1, 1, 1), 2).edge_right_current  # node 1: e1

    def test_edges_from_previous_snapshot(self):
        config = step(initial_configuration(PLACEMENT, 4), FULL)
        config = config._replace(last_snap=(1, 1, 1, 0))
        view = build_view(config, FULL, 4)  # node 0: left edge e3
        assert not view.edge_left_previous
        assert build_view(config, FULL, 1).edge_left_previous  # node 1: e0

    def test_has_moved_reads_the_last_round(self):
        config = initial_configuration(PLACEMENT, 4)
        assert not any(build_view(config, FULL, rid).has_moved for rid in PLACEMENT)
        # e0 is absent in round 0, so robot 1 at node 0 cannot step right.
        config = step(config, (0, 1, 1, 1))
        moved = {rid: build_view(config, FULL, rid).has_moved for rid in PLACEMENT}
        assert moved == {1: False, 2: True, 3: True, 4: True}

    def test_unknown_robot(self):
        config = initial_configuration(PLACEMENT, 4)
        with pytest.raises(KeyError):
            build_view(config, FULL, 9)

    @pytest.mark.parametrize(
        "n, node, absent", [(n, v, e) for n in (4, 5) for v in range(n) for e in range(n)]
    )
    def test_edge_flags_follow_ring_model(self, n, node, absent):
        # build_view indexes the snapshot with node and node - 1 itself.
        full = (1,) * n
        gap = tuple(int(e != absent) for e in range(n))
        config = initial_configuration({1: node, 2: 0, 3: 1, 4: 2}, n)
        expected = (bool(gap[right_edge_of(node, n)]), bool(gap[left_edge_of(node, n)]))
        now = build_view(config._replace(last_snap=full), gap, 1)
        before = build_view(config._replace(last_snap=gap), full, 1)
        assert (now.edge_right_current, before.edge_left_previous) == expected
        assert now.edge_left_previous and before.edge_right_current

    @pytest.mark.parametrize(
        "dyn, seed", [(DynClass(ST), 7016), (DynClass(BRE, 3), 7022), (DynClass(AC), 7002)]
    )
    def test_views_equal_the_reference_on_large_towers(self, dyn, seed):
        # Runs with n=32 and R=16, drawn as the benchmark's crowd draws them;
        # these seeds gather within 260 rounds, so the cap of 300 keeps each
        # case short and still reaches the tower of all 16 robots.
        rng = random.Random(seed)
        ids = sorted(rng.sample(range(1, 65), 16))
        placement = {rid: rng.randrange(32) for rid in ids}
        largest = check_views_against_spec(
            generate(GeneratorSpec(dyn, 32, seed)), placement, horizon=300
        )
        assert largest == 16

    def test_views_equal_the_reference_on_a_stranded_run(self):
        # From round 12 on the records repeat, and the towers are regrouped.
        assert check_views_against_spec(STRANDED_RING, STRANDED, horizon=40) == 3


class TestStep:
    def test_spread_righters_rotate(self):
        config = initial_configuration(PLACEMENT, 4)
        config = step(config, FULL)
        assert positions(config) == {1: 1, 2: 2, 3: 3, 4: 0}
        assert all(rec.rule == "M8" and rec.moved for rec in config.robots.values())

    def test_missing_edge_blocks_move(self):
        config = initial_configuration(PLACEMENT, 4)
        config = step(config, (0, 1, 1, 1))
        assert positions(config)[1] == 0
        assert not config.robots[1].moved
        # the robot keeps trying: direction right, no step counted
        assert config.robots[1].dir == "right"

    def test_all_colocated_terminate_in_place(self):
        config = initial_configuration({1: 2, 2: 2, 3: 2, 4: 2}, 4)
        config = step(config, FULL)
        assert all(rec.rule == "Term1" for rec in config.robots.values())
        assert all(v.terminated for v in config.vars.values())
        assert positions(config) == {1: 2, 2: 2, 3: 2, 4: 2}

    def test_terminated_robots_stay_frozen(self):
        config = initial_configuration({1: 2, 2: 2, 3: 2, 4: 2}, 4)
        config = step(config, FULL)
        frozen = dict(config.vars)
        config = step(config, FULL)
        assert config.vars == frozen
        assert all(rec.rule == "terminated" for rec in config.robots.values())
        assert all(not rec.moved for rec in config.robots.values())

    def test_dicts_stay_in_id_order(self):
        config = initial_configuration({4: 0, 1: 1, 3: 2, 2: 3}, 4)
        for t in range(3):
            for d in (config.robots, config.vars):
                assert list(d) == [1, 2, 3, 4]
            config = step(config, FULL)
            assert list(config.robots) == [1, 2, 3, 4]

    def test_builds_one_view_per_computing_robot(self, monkeypatch):
        calls = []
        build = sim_engine.build_view

        def spy(config, snap, robot_id):
            calls.append((config.round, robot_id))
            return build(config, snap, robot_id)

        monkeypatch.setattr(sim_engine, "build_view", spy)
        trace, _ = run(STRANDED_RING, STRANDED, horizon=15)
        # Round 12 hands on the robots dict, leaves the vars equal, and round
        # 13 repeats its key, so rounds 13 and 14 (robot 4 still running) are
        # copies and build no view.
        copied = {13, 14}
        assert all(trace.events[t].robots[4].rule != "terminated" for t in copied)
        assert calls == [
            (ev.round, rid)
            for ev in trace.events
            if ev.round not in copied
            for rid, rec in ev.robots.items()
            if rec.rule != "terminated"
        ]
        assert calls[-1] == (12, 4) and len(calls) == 11 * 4 + 2

    @pytest.mark.parametrize("present", [True, False], ids=["present", "absent"])
    @pytest.mark.parametrize("dir", DIRECTIONS)
    @pytest.mark.parametrize("n, node", [(n, v) for n in (4, 5, 6) for v in range(n)])
    def test_move_follows_ring_model(self, n, node, dir, present):
        # step indexes the snapshot and wraps around the ring itself. The
        # snapshot holds only the edge the robot's direction needs, or every
        # edge but that one (a parked robot gets all edges, or none), so
        # reading another edge moves a robot wrongly either way.
        if dir == RIGHT:
            edge, moved_to = right_edge_of(node, n), step_right(node, n)
        elif dir == LEFT:
            edge, moved_to = left_edge_of(node, n), step_left(node, n)
        else:
            edge, moved_to = None, node
        if edge is None:
            snap = (int(present),) * n
        else:
            snap = tuple(int((e == edge) == present) for e in range(n))
        expected = moved_to if present else node

        def set_dir(view):
            return view.self_vars._replace(dir=dir), "set"

        config = initial_configuration({1: node, 2: 0, 3: 1, 4: 2}, n)
        # The adversary and tests hand step raw tuples, which it does not
        # validate; a snapshot of bools must move robots as its 0/1 twin does.
        for bits in (snap, tuple(map(bool, snap))):
            rec = step(config, bits, set_dir).robots[1]
            assert (rec.position, rec.moved) == (expected, expected != node)
            assert rec.dir == dir

    def test_equal_records_are_shared(self):
        trace, _ = run(STRANDED_RING, STRANDED, horizon=40)
        first, last = trace.events[11].robots, trace.events[-1].robots
        assert first[1].rule == "terminated"
        assert all(first[rid] is last[rid] for rid in (1, 2, 3))

    def test_repeated_round_shares_the_previous_dicts(self):
        trace, _ = run(STRANDED_RING, STRANDED, horizon=40)
        events = trace.events
        # Consecutive events share their robots dict exactly when their
        # records are equal; from round 12 on only robot 4 waits at its gap.
        shared = spec.shares(events)
        assert shared == [b.robots == a.robots for a, b in zip(events, events[1:])]
        assert shared.index(True) == 11 and all(shared[11:])
        config = initial_configuration(STRANDED, 4)
        for t in range(14):
            before = config
            config = step(config, STRANDED_RING.snapshot(t))
        assert config.robots is before.robots
        assert config.vars == before.vars

    def test_changed_vars_are_not_shared_under_equal_records(self):
        # A counter the records do not show: equal records, new vars.
        def count(view):
            me = view.self_vars
            return me._replace(dir=BOT, walk_steps=me.walk_steps + 1), "idle"

        config = initial_configuration(PLACEMENT, 4)
        before = step(config, FULL, count)
        config = step(before, FULL, count)
        assert config.robots is before.robots
        assert config.vars != before.vars
        assert [v.walk_steps for v in config.vars.values()] == [2, 2, 2, 2]

    def test_equal_records_that_are_not_shared_are_not_handed_on(self):
        # step tells repeated records by identity: a hand-built configuration
        # whose records equal the interned ones, as other objects, gets the
        # interned records and a dict of its own.
        config = step(initial_configuration(PLACEMENT, 4), FULL, never_move)
        interned = step(config, FULL, never_move)
        assert interned.robots is config.robots
        copied = config._replace(robots={
            rid: RobotRecord(rec.position, rec.state, rec.dir, rec.rule, rec.moved)
            for rid, rec in config.robots.items()
        })
        assert copied.robots == config.robots
        again = step(copied, FULL, never_move)
        assert again.robots is not copied.robots
        assert again == interned
        assert all(map(operator.is_, again.robots.values(), interned.robots.values()))
        assert again.towers == spec.towers(again)

    def test_towers_follow_vars_changed_under_equal_records(self):
        def count(view):
            me = view.self_vars
            return me._replace(dir=BOT, walk_steps=me.walk_steps + 1), "idle"

        config = initial_configuration({1: 0, 2: 0, 3: 1, 4: 1}, 4)
        before = step(config, FULL, count)
        config = step(before, FULL, count)
        assert config.robots is before.robots
        assert config.towers != before.towers
        assert config.towers == spec.towers(config)
        assert build_view(config, FULL, 1).mates == (config.vars[2],)

    @pytest.mark.parametrize("snap, prev_snap", [((1,) * 6, (1, 1, 1, 0)), (FULL, (1, 1, 1))])
    def test_prev_snapshot_must_match_snapshot_length(self, snap, prev_snap):
        # The previous snapshot is the configuration's last one.
        config = step(initial_configuration(PLACEMENT, 4), FULL)
        with pytest.raises(ValueError):
            step(config._replace(last_snap=prev_snap), snap)

    @pytest.mark.parametrize("node", [-1, 4])
    def test_placement_node_must_be_on_the_ring(self, node):
        with pytest.raises(ValueError, match="placement node out of range"):
            initial_configuration({1: 0, 2: 1, 3: 2, 4: node}, 4)

    @pytest.mark.parametrize(
        "placement",
        [{True: 0, 2: 1, 3: 2, 4: 3}, {1.0: 0, 2: 1, 3: 2, 4: 3},
         {1: True, 2: 2, 3: 3, 4: 0}, {1: 1.0, 2: 2, 3: 3, 4: 0}],
        ids=["id-a-bool", "id-a-float", "node-a-bool", "node-a-float"],
    )
    def test_ids_and_nodes_must_be_exactly_ints(self, placement):
        # Each equals an int the checks accept, but a trace would write it as
        # true or 1.0, which the decoder rejects. On a ring without edge 1,
        # robot 1 placed on True never moves, so its record keeps the bool.
        with pytest.raises(ValueError, match="must be ints"):
            initial_configuration(placement, 4)
        with pytest.raises(ValueError, match="must be ints"):
            run(ring_of(4, [], [[1, 0, 1, 1]]), placement, 5)

    def test_snapshot_must_match_the_ring(self):
        config = step(initial_configuration(PLACEMENT, 4), FULL)
        with pytest.raises(ValueError, match="4-ring"):
            step(config, (1,) * 6)


class TestFixed:
    """Runs whose configuration rounds hand on unchanged: `run` proves that
    they cycle and copies the cycle, and must equal stepping every round."""

    def test_stranded_run_equals_the_reference(self):
        stop = check_against_spec(STRANDED_RING, STRANDED, horizon=200)
        assert stop == Stop("cycle", 12, 1)

    def test_periodic_re_run_equals_the_reference(self):
        # The robots wait at the gap in rounds of eight distinct phases, so
        # no key repeats before they gather.
        stop = check_against_spec(PERIODIC_RE_RING, STRANDED, horizon=400)
        assert stop == Stop("all_terminated")

    @pytest.mark.parametrize(
        "n, placement, r1, r2, cycle",
        [(*duel, cycle) for duel, cycle in zip(DUELS, DUEL_CYCLES)],
        ids=["n4", "n6", "n8"],
    )
    def test_duels_equal_the_reference(self, n, placement, r1, r2, cycle):
        source = adversary._Adversary(n, r1, r2, sim_engine.compute)
        assert check_against_spec(source, placement, horizon=2000) == cycle
        res = adaptive_ac_adversary(n, len(placement), placement, r1, r2, 2000)
        assert (res.trace, res.stop) == run(source, placement, 2000, class_claim=AC)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_small_periodic_rings_equal_the_reference(self, data):
        n = data.draw(st.integers(4, 6))
        snapshot = st.tuples(*[st.integers(0, 1)] * n)
        prefix = data.draw(st.lists(snapshot, max_size=2))
        cycle = data.draw(st.lists(snapshot, min_size=1, max_size=3))
        placement = {rid: data.draw(st.integers(0, n - 1)) for rid in (1, 2, 3, 4)}
        ring = ring_of(n, prefix, cycle)
        stop = check_against_spec(ring, placement, horizon=60)
        # Only rounds of one phase share a key, and the first repeat comes
        # one cycle after its round.
        assert stop.reason != "cycle" or stop.period == len(cycle)

    def test_a_cycle_that_waits_then_moves_is_not_cut_short(self):
        # Robots head right from node 0. Under A their edge e0 is missing, so
        # they wait and the second A round hands the dicts on; under C they
        # move. That round repeats last snapshot A, but the phase differs.
        A, C = GAP, FULL

        def head_right(view):
            return view.self_vars._replace(dir=RIGHT), "head"

        ring = ring_of(4, [], [A, A, C])
        stop = check_against_spec(ring, {1: 0, 2: 0, 3: 0, 4: 0}, 60, head_right)
        assert stop == Stop("horizon")

    def test_the_round_after_the_prefix_is_not_taken_for_its_cycle_twin(self):
        # Robots at node 1 head right only if their left edge e0 was there
        # the round before. Round 1 follows the prefix's GAP, so they wait
        # and hand the dicts on; round 2 has the same phase but follows FULL,
        # so they move.
        def follow_last_round(view):
            dir = RIGHT if view.edge_left_previous else BOT
            return view.self_vars._replace(dir=dir), "follow"

        ring = ring_of(4, [GAP], [FULL])
        stop = check_against_spec(ring, {1: 1, 2: 1, 3: 1, 4: 1}, 20, follow_last_round)
        assert stop == Stop("horizon")

    def test_fixed_follows_changes_under_equal_records(self):
        # Robots park at node 0 and count the rounds their right edge e0 is
        # missing, which changes their vars but not their records, and they
        # terminate on the third. The records never change, yet no
        # configuration repeats, so no round may be copied.
        def park_and_count_gaps(view):
            me = view.self_vars
            gaps = me.walk_steps + (not view.edge_right_current)
            return me._replace(dir=BOT, walk_steps=gaps, terminated=gaps == 3), "idle"

        ring = ring_of(4, [], [FULL, GAP])
        stop = check_against_spec(ring, {1: 0, 2: 0, 3: 0, 4: 0}, 40, park_and_count_gaps)
        assert stop == Stop("all_terminated")


class TestRun:
    def test_gathers_on_static_ring(self):
        trace, stop = run(static_ring(4), PLACEMENT, horizon=200, seed=0)
        assert stop == Stop("all_terminated")
        assert len({rec.position for rec in trace.events[-1].robots.values()}) == 1
        assert set(_termination_info(trace)[0]) == set(PLACEMENT)

    def test_immediate_gathering(self):
        trace, outcome = run(static_ring(4), {1: 2, 2: 2, 3: 2, 4: 2}, horizon=10)
        assert _termination_info(trace)[0] == {1: 0, 2: 0, 3: 0, 4: 0}
        assert len(trace.events) == 1

    def test_horizon_halt(self):
        trace, stop = run(static_ring(4), PLACEMENT, horizon=3)
        assert stop == Stop("horizon")
        assert len(trace.events) == 3

    def test_stops_once_every_robot_terminated_under_any_label(self):
        def halt(view):
            return RobotVars(id=view.self_vars.id, terminated=True), "halt"

        trace, stop = run(static_ring(4), PLACEMENT, horizon=10, compute_fn=halt)
        assert len(trace.events) == 1
        assert stop == Stop("all_terminated")
        # only Term1/Term2 count as terminations of the algorithm
        assert _termination_info(trace)[0] == {}

    def test_stops_when_robots_terminate_under_their_previous_label(self):
        # Each robot parks, then terminates on its third compute under the
        # same label, so that round's records equal the round before's. The
        # count lives in the robot's vars, as a compute_fn must be pure.
        def park_then_halt(view):
            me = view.self_vars
            steps = me.walk_steps + 1
            return me._replace(dir=BOT, walk_steps=steps, terminated=steps == 3), "idle"

        trace, stop = run(static_ring(4), PLACEMENT, horizon=10, compute_fn=park_then_halt)
        assert trace.events[2].robots is trace.events[1].robots
        assert len(trace.events) == 3
        assert stop == Stop("all_terminated")

    @pytest.mark.parametrize("field, value", [("state", "sleeper"), ("dir", "up")])
    def test_compute_fn_outside_the_vocabulary_is_rejected(self, field, value):
        # Its trace would not decode, so the first record that holds the
        # value raises, in round 0, before the robot moves.
        calls = []

        def off_vocabulary(view):
            calls.append(view.self_vars.id)
            return view.self_vars._replace(**{field: value}), "odd"

        with pytest.raises(ValueError, match=f"not a robot state and a direction: .*{value}"):
            run(static_ring(4), PLACEMENT, 3, off_vocabulary)
        assert calls == [1]

    def test_bad_horizon(self):
        with pytest.raises(ValueError):
            run(static_ring(4), PLACEMENT, horizon=0)

    @pytest.mark.parametrize(
        "values, field",
        [({"horizon": 3.5}, "horizon"), ({"horizon": True}, "horizon"), ({"seed": True}, "seed"),
         ({"seed": 2.0}, "seed"), ({"class_claim": 7}, "class_claim")],
        ids=["horizon-a-float", "horizon-a-bool", "seed-a-bool", "seed-a-float",
             "class-an-int"],
    )
    def test_header_values_the_decoder_rejects_are_rejected(self, values, field):
        # Each would write a trace header that trace_from_jsonl refuses.
        with pytest.raises(ValueError, match=f"^{field} must be "):
            run(static_ring(6), PLACEMENT, **{"horizon": 3, **values})

    def test_too_few_robots(self):
        with pytest.raises(ValueError):
            run(static_ring(4), {1: 0, 2: 1, 3: 2}, horizon=5)

    def test_steps_get_the_previous_snapshot(self, monkeypatch):
        calls = []
        step = sim_engine.step

        def spy(config, snap, compute_fn):
            calls.append((config.round, snap, config.last_snap))
            return step(config, snap, compute_fn)

        monkeypatch.setattr(sim_engine, "step", spy)
        ring = ring_of(4, [[1, 1, 1, 1], [0, 1, 1, 1]], [[1, 0, 1, 1], [1, 1, 0, 1]])
        run(ring, PLACEMENT, horizon=6)
        assert [t for t, _, _ in calls] == list(range(6))
        for t, snap, last_snap in calls:
            assert snap == ring.snapshot(t)
            assert last_snap == (ring.snapshot(t - 1) if t else (0, 0, 0, 0))

    @pytest.mark.parametrize(
        "ring, horizon, reason",
        [
            (ring_of(4, [[1, 1, 1, 1], [0, 1, 1, 1]], [[1, 0, 1, 1], [1, 1, 0, 1]]), 6, "horizon"),
            (static_ring(4), 200, "all_terminated"),
        ],
        ids=["horizon", "terminated"],
    )
    def test_source_is_asked_once_per_round(self, ring, horizon, reason):
        source = RecordingSource(ring)
        trace, stop = run(source, PLACEMENT, horizon)
        assert stop == Stop(reason)
        rounds = len(trace.events)
        assert rounds == horizon if reason == "horizon" else rounds < horizon
        # Asked in round order, and never again once every robot terminated.
        assert [t for t, _ in source.asked] == list(range(rounds))
        assert [ev.snapshot for ev in trace.events] == source.emitted
        # Each request carries the very snapshot emitted the round before.
        assert source.asked[0][1] == (0, 0, 0, 0)
        assert all(prev is source.emitted[t - 1] for t, prev in source.asked[1:])

    def test_source_is_not_asked_after_the_proof(self):
        source = RecordingSource(STRANDED_RING)
        trace, stop = run(source, STRANDED, horizon=200)
        assert stop == Stop("cycle", 12, 1)
        assert [t for t, _ in source.asked] == list(range(13))
        # The copies run to the horizon with the cycle's very snapshot.
        assert len(trace.events) == 200
        assert all(ev.snapshot is source.emitted[12] for ev in trace.events[12:])

    @pytest.mark.parametrize(
        "cycle, period",
        [([GAP, (0, 1, 1, 0)], 2), ([GAP, (0, 1, 0, 1), (0, 0, 1, 1)], 3)],
        ids=["period-2", "period-3"],
    )
    def test_copies_reuse_the_events_of_the_cycle(self, cycle, period):
        # The source emits a new snapshot object every round, so a copy that
        # shares its twin's snapshot took it from the event, not the ring.
        source = RecordingSource(ring_of(4, [FULL], cycle))
        trace, stop = run(source, STRANDED, horizon=60)
        assert stop.reason == "cycle" and stop.period == period
        stepped = stop.start + period
        assert len(source.asked) == stepped
        assert all(type(ev) is TraceEvent for ev in trace.events)
        assert [ev.round for ev in trace.events] == list(range(60))
        for ev in trace.events[stepped:]:
            twin = trace.events[ev.round - period]
            assert ev.robots is twin.robots and ev.snapshot is twin.snapshot
        check_against_spec(ring_of(4, [FULL], cycle), STRANDED, 60)

    def test_permanent_gap_funnels_everyone(self):
        # e0 vanishes permanently after round 0. Rightbound robots pile up
        # against the gap at node 0 and gather there.
        ring = ring_of(4, [[1, 1, 1, 1]], [[0, 1, 1, 1]])
        trace, stop = run(ring, PLACEMENT, horizon=400)
        assert stop == Stop("all_terminated")
        assert {rec.position for rec in trace.events[-1].robots.values()} == {0}


def renamed_robot(old, new):
    """An edit of an event line that renames robot key old to new, or drops
    robot old when new is None."""
    def change(doc):
        robots = dict(doc["robots"])
        rec = robots.pop(old)
        if new is not None:
            robots[new] = rec
        return {**doc, "robots": robots}

    return change


def with_record(**values):
    """An edit of an event line that gives robot 1's record these values."""
    def change(doc):
        robots = doc["robots"]
        return {**doc, "robots": {**robots, "1": {**robots["1"], **values}}}

    return change


class TestTraceSerialization:
    def test_round_trip(self):
        trace, _ = run(static_ring(4), PLACEMENT, horizon=100, class_claim="st", seed=7)
        text = trace_to_jsonl(trace)
        assert trace_from_jsonl(text) == trace

    def test_robots_listed_out_of_id_order_decode_in_id_order(self):
        trace, _ = run(static_ring(4), PLACEMENT, horizon=5, seed=7)
        text = trace_to_jsonl(trace)
        header, *lines = text.splitlines(keepends=True)
        reversed_lines = []
        for ln in lines:
            doc = json.loads(ln)
            doc["robots"] = dict(reversed(doc["robots"].items()))
            reversed_lines.append(json.dumps(doc, separators=(",", ":")) + "\n")
        assert reversed_lines != lines
        decoded = trace_from_jsonl(header + "".join(reversed_lines))
        assert all(list(ev.robots) == list(trace.ids) for ev in decoded.events)
        assert trace_to_jsonl(decoded) == text

    def test_replay_is_byte_identical(self):
        a, _ = run(static_ring(4), PLACEMENT, horizon=100, class_claim="st", seed=7)
        b, _ = run(static_ring(4), PLACEMENT, horizon=100, class_claim="st", seed=7)
        assert trace_to_jsonl(a) == trace_to_jsonl(b)

    @pytest.mark.parametrize("ring", [static_ring(4), STRANDED_RING], ids=["st", "stranded"])
    def test_unsorted_placement_gives_the_same_trace(self, ring):
        shuffled = {4: 3, 2: 2, 1: 0, 3: 2}
        sorted_trace, _ = run(ring, dict(sorted(shuffled.items())), horizon=30, seed=1)
        trace, _ = run(ring, shuffled, horizon=30, seed=1)
        assert trace == sorted_trace
        assert trace_to_jsonl(trace) == trace_to_jsonl(sorted_trace)
        assert all(list(ev.robots) == sorted(ev.robots) for ev in trace.events)

    @pytest.mark.parametrize(
        "ring, placement, compute_fn",
        [
            (STRANDED_RING, STRANDED, sim_engine.compute),
            (static_ring(4), PLACEMENT, never_move),  # "idle" is not a GDG rule
        ],
        ids=["terminated", "never_move"],
    )
    def test_encoder_equals_reference(self, ring, placement, compute_fn):
        trace, _ = run(ring, placement, horizon=40, compute_fn=compute_fn, class_claim="x", seed=5)
        rules = {rec.rule for ev in trace.events for rec in ev.robots.values()}
        assert "terminated" in rules or rules == {"idle"}
        text = trace_to_jsonl(trace)
        assert text == spec.jsonl(trace)
        assert trace_from_jsonl(text) == trace

    def test_unshared_equal_records(self):
        # Records built outside step are equal by value but distinct objects.
        trace = trace_of([
            TraceEvent(t, {rid: rec((rid + t) % 4, moved=True) for rid in (1, 2, 3, 4)}, FULL)
            for t in range(6)
        ])
        text = trace_to_jsonl(trace)
        assert text == spec.jsonl(trace)
        loaded = trace_from_jsonl(text)
        assert loaded == trace
        assert loaded.events[0].robots[2] is loaded.events[1].robots[1]

    def test_records_shared_across_robots(self):
        # One record object held by two robots in one event and by other
        # robots in the next, and a robots dict out of id order.
        a = RobotRecord(position=1, state="righter", dir="right", rule="M8", moved=True)
        b = RobotRecord(position=2, state="dumbSearcher", dir="left", rule="M11", moved=False)
        events = (
            TraceEvent(0, {1: a, 2: a, 3: b, 4: b}, FULL),
            TraceEvent(1, {4: a, 3: a, 1: b, 2: a}, GAP),
            TraceEvent(2, {1: b, 2: b, 3: a, 4: b}, FULL),
        )
        trace = Trace(n=4, R=4, ids=(1, 2, 3, 4), class_claim="st", seed=2, horizon=3,
                      events=events)
        text = trace_to_jsonl(trace)
        assert text == spec.jsonl(trace)
        assert '"robots":{"4":' in text.splitlines()[2]
        assert trace_from_jsonl(text) == trace

    def test_a_robot_outside_the_ids_is_not_encoded(self):
        # The decoder refuses robot keys that are not the header's ids, so
        # the encoder writes no line with one.
        trace = trace_of([TraceEvent(0, {1: rec(0), 2: rec(1), 3: rec(2), 5: rec(3)}, FULL)])
        with pytest.raises(KeyError):
            trace_to_jsonl(trace)

    @pytest.mark.parametrize(
        "ring, placement, compute_fn",
        [
            (STRANDED_RING, STRANDED, sim_engine.compute),
            (static_ring(4), PLACEMENT, never_move),
            (generate(GeneratorSpec(DynClass(AC), n=8, seed=3)), {1: 0, 2: 2, 5: 3, 7: 6},
             sim_engine.compute),
        ],
        ids=["stranded", "never_move", "ac"],
    )
    def test_only_the_header_goes_through_json_dumps(self, monkeypatch, ring, placement,
                                                     compute_fn):
        trace, _ = run(ring, placement, horizon=40, compute_fn=compute_fn, seed=1)
        expected = spec.jsonl(trace)
        dumped = []
        dumps = json.dumps

        def counting_dumps(obj, **kwargs):
            dumped.append(obj)
            return dumps(obj, **kwargs)

        monkeypatch.setattr(json, "dumps", counting_dumps)
        assert trace_to_jsonl(trace) == expected
        assert len(dumped) == 1 and list(dumped[0]["ids"]) == sorted(placement)

    def test_decoded_records_are_shared(self):
        trace, _ = run(STRANDED_RING, STRANDED, horizon=40)
        loaded = trace_from_jsonl(trace_to_jsonl(trace))
        assert loaded == trace
        assert all(
            a is b
            for ev, again in zip(trace.events, loaded.events)
            for a, b in zip(ev.robots.values(), again.robots.values())
        )
        # Equal snapshots decode to one object too: the ring's two snapshots.
        assert len({id(ev.snapshot) for ev in loaded.events}) == 2
        # And consecutive events share a robots dict as the run's do.
        assert spec.shares(loaded.events) == spec.shares(trace.events)
        assert any(spec.shares(trace.events))

    @pytest.mark.parametrize("order", [("robots", "snapshot", "round"),
                                       ("round", "robots", "snapshot")])
    def test_decodes_lines_in_another_key_order(self, order):
        # Each line is one JSON object, so its key order does not matter.
        trace, _ = run(STRANDED_RING, STRANDED, horizon=20)
        header, *lines = trace_to_jsonl(trace).splitlines()
        docs = [json.loads(ln) for ln in lines]
        text = "\n".join([header] + [dump({key: doc[key] for key in order}) for doc in docs])
        assert trace_from_jsonl(text) == trace

    def test_header_fields(self):
        trace, _ = run(static_ring(4), PLACEMENT, horizon=5, class_claim="st", seed=3)
        header = trace_to_jsonl(trace).splitlines()[0]
        assert '"n":4' in header
        assert '"seed":3' in header

    @pytest.mark.parametrize("text", ["", "\n\n"], ids=["empty", "blank-lines"])
    def test_text_without_a_header_is_rejected(self, text):
        with pytest.raises(ValueError, match="needs a header line"):
            trace_from_jsonl(text)

    @pytest.mark.parametrize("key", ["n", "R", "ids", "class", "seed", "horizon"])
    def test_header_without_a_key_is_rejected(self, key):
        trace, _ = run(static_ring(4), PLACEMENT, horizon=3)
        header, *lines = trace_to_jsonl(trace).splitlines()
        doc = json.loads(header)
        del doc[key]
        with pytest.raises(ValueError, match=f"header lacks the keys {key}$"):
            trace_from_jsonl("\n".join([dump(doc)] + lines))

    @pytest.mark.parametrize(
        "values, key",
        [({"n": "x"}, "n"), ({"R": True}, "R"), ({"horizon": None}, "horizon"),
         ({"ids": 5}, "ids"), ({"ids": [1, 2, "3", 4]}, "ids"), ({"class": 5}, "class"),
         ({"seed": "x"}, "seed"), ({"seed": 1.5}, "seed"), ({"R": 7}, "R"),
         ({"ids": [1, 2, 2, 3]}, "ids"), ({"horizon": 0}, "horizon"),
         ({"horizon": 2}, "horizon"),
         # Values no run writes: a ring below 4 nodes, fewer than 4 robots,
         # and an id below 1.
         ({"n": 3}, "n"), ({"R": 3, "ids": [1, 2, 3]}, "R"), ({"ids": [0, 2, 3, 4]}, "ids"),
         ({"ids": [-5, 2, 3, 4]}, "ids")],
        ids=["n-a-string", "R-a-bool", "horizon-null", "ids-an-int", "id-a-string",
             "class-an-int", "seed-a-string", "seed-a-float", "R-not-the-id-count",
             "ids-repeated", "horizon-0", "horizon-below-the-3-events", "n-below-4",
             "R-below-4", "id-0", "id-negative"],
    )
    def test_header_with_a_wrong_value_is_rejected(self, values, key):
        trace, _ = run(static_ring(4), PLACEMENT, horizon=3)
        header, *lines = trace_to_jsonl(trace).splitlines()
        doc = {**json.loads(header), **values}
        with pytest.raises(ValueError, match=f"header has a wrong value for {key}$"):
            trace_from_jsonl("\n".join([dump(doc)] + lines))

    def test_event_line_without_robots_is_rejected(self):
        trace, _ = run(static_ring(4), PLACEMENT, horizon=3)
        header, *lines = trace_to_jsonl(trace).splitlines()
        doc = json.loads(lines[1])
        del doc["robots"]
        lines[1] = dump(doc)
        with pytest.raises(ValueError, match="line 3 lacks the key robots$"):
            trace_from_jsonl("\n".join([header] + lines))

    @pytest.mark.parametrize(
        "change",
        [
            lambda doc: [1],
            lambda doc: {**doc, "robots": {**doc["robots"], "2": 5}},
            lambda doc: {**doc, "snapshot": 5},
            lambda doc: {**doc, "robots": [1]},
            lambda doc: {**doc, "robots": {"x": doc["robots"]["1"]}},
            lambda doc: {**doc, "round": "x"},
            lambda doc: {**doc, "round": True},
            lambda doc: {**doc, "snapshot": "0101"},
            lambda doc: {**doc, "snapshot": [2, 0, 0, 0]},
            lambda doc: {**doc, "snapshot": [1, 1, 1]},
            lambda doc: {**doc, "snapshot": [1, 1, 1, 1, 1]},
            lambda doc: {**doc, "snapshot": [True, 1, 1, 1]},
            lambda doc: {**doc, "snapshot": [1.0, 1, 1, 1]},
            with_record(pos="x", state="nonsense", moved=7),
            with_record(pos="x"),
            with_record(pos=True),
            with_record(pos=1.0),
            with_record(pos=-1),
            with_record(pos=4),
            with_record(state="nonsense"),
            with_record(state="RIGHTER"),
            with_record(dir="up"),
            with_record(dir=None),
            with_record(rule=5),
            with_record(rule=None),
            with_record(moved=7),
            with_record(moved=1),
            with_record(moved="true"),
            renamed_robot("4", "9"),
            renamed_robot("2", " +2"),
            renamed_robot("2", "02"),
            renamed_robot("2", "\u0662"),
            renamed_robot("4", None),
            lambda doc: {**doc, "robots": {**doc["robots"], "5": doc["robots"]["1"]}},
            lambda doc: {**doc, "round": 0},
            lambda doc: {**doc, "round": 2},
            # A blank and a whitespace-only line first: the bad round is on
            # line 5 of the text.
            lambda doc: "\n  \n" + dump({**doc, "round": "x"}),
        ],
        ids=["line-not-an-object", "record-not-an-object", "snapshot-not-a-list",
             "robots-not-an-object", "robot-key-not-an-int", "round-a-string",
             "round-a-bool", "snapshot-a-string", "snapshot-bit-2", "snapshot-too-short",
             "snapshot-too-long", "snapshot-bit-a-bool", "snapshot-bit-a-float",
             "record-edited", "pos-a-string", "pos-a-bool", "pos-a-float", "pos-negative",
             "pos-off-the-ring", "state-unknown", "state-a-member-name", "dir-unknown",
             "dir-null", "rule-an-int", "rule-null", "moved-an-int", "moved-1",
             "moved-a-string", "robot-renamed", "robot-key-signed", "robot-key-zero-padded",
             "robot-key-arabic-indic-digit", "robot-missing", "robot-extra",
             "round-repeated", "round-skipped", "after-blank-lines"],
    )
    def test_malformed_event_line_is_rejected(self, change):
        trace, _ = run(static_ring(4), PLACEMENT, horizon=3)
        header, *lines = trace_to_jsonl(trace).splitlines()
        changed = change(json.loads(lines[1]))
        lines[1] = changed if type(changed) is str else dump(changed)
        # The error counts every line of the text, blank ones too, so it
        # names the last line of lines[1].
        number = 3 + lines[1].count("\n")
        with pytest.raises(ValueError, match=f"trace line {number} "):
            trace_from_jsonl("\n".join([header] + lines))


SNAPSHOTS = st.tuples(*[st.integers(0, 1)] * 4)
RECORDS = st.builds(
    RobotRecord,
    position=st.integers(0, 3),
    state=st.sampled_from(("righter", "dumbSearcher", "minWaitingWalker")),
    dir=st.sampled_from(("right", "left", "bot")),
    rule=st.sampled_from(("M8", "M11", "Term1", "terminated")),
    moved=st.booleans(),
)


# Plain values mixed with the odd values a record can still hold: strings
# that json escapes or that are not ASCII letters and digits, and int
# positions off the ring. The decoder rejects them, so the property that
# uses them only encodes.
ODD_TEXTS = st.sampled_from(("righter", "M8", "", '"', "\\", "a b", "\x00", "\n", "\x7f",
                             "é", "²", "\u2028", "\ud800")) | st.text(max_size=4)
ODD_RECORDS = st.builds(
    RobotRecord,
    position=st.integers(-2, 5),
    state=ODD_TEXTS,
    dir=ODD_TEXTS,
    rule=ODD_TEXTS,
    moved=st.booleans(),
)


@st.composite
def shared_traces(draw, records=RECORDS, snapshot_bits=SNAPSHOTS,
                  robot_ids=st.integers(1, 10**6)):
    """Blocks of events that share one robots dict, drawn from a small pool so
    that a dict recurs after another one. Inside a block each event's
    snapshot is a pooled object, which other events and blocks share, or an
    equal but distinct tuple; pooled snapshots may differ in their bits.
    The header draws every field of its own: ids, class, seed and horizon.
    records, snapshot_bits and robot_ids are the strategies for the values."""
    ids = tuple(sorted(draw(st.sets(robot_ids, min_size=4, max_size=6))))
    snapshots = draw(st.lists(snapshot_bits, min_size=1, max_size=3))
    dicts = draw(st.lists(st.fixed_dictionaries({rid: records for rid in ids}),
                          min_size=1, max_size=3))
    events = []
    for _ in range(draw(st.integers(1, 6))):
        robots = draw(st.sampled_from(dicts))
        for _ in range(draw(st.integers(1, 5))):
            snap = draw(st.sampled_from(snapshots))
            if draw(st.booleans()):
                snap = tuple(list(snap))
            events.append(TraceEvent(len(events), robots, snap))
    class_claim = draw(st.none() | st.sampled_from((ST, BRE, RE, AC, COT)))
    seed = draw(st.none() | st.integers(-(2**63), 2**63))
    horizon = len(events) + draw(st.integers(0, 10**6))
    return Trace(n=4, R=len(ids), ids=ids, class_claim=class_claim, seed=seed,
                 horizon=horizon, events=tuple(events))


@settings(max_examples=200, deadline=None)
@given(shared_traces())
def test_encoder_text_caches_equal_the_reference(trace):
    text = trace_to_jsonl(trace)
    assert text == spec.jsonl(trace)
    assert trace_from_jsonl(text) == trace


@settings(max_examples=300, deadline=None)
@given(shared_traces(ODD_RECORDS))
def test_encoder_equals_the_reference_on_odd_strings_and_positions(trace):
    assert trace_to_jsonl(trace) == spec.jsonl(trace)
