from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from gdg_sim import checkers
from gdg_sim.checkers import (
    MIN_STATE_NAMES,
    RIGHTWARD_NAMES,
    WAITING_NAMES,
    BoundParams,
    bound_for,
    check_safety,
    check_variant,
    experiment,
    monitor_invariants,
)
from gdg_sim.gdg_protocol import MIN_STATES, WAITING_STATES, RobotState
from gdg_sim.ring_model import AC, BRE, COT, RE, ST, DynClass, static_ring
from gdg_sim.sim_engine import RobotRecord, Trace, TraceEvent, run, trace_to_jsonl


def rec(pos, state="righter", dir="right", rule="M8", moved=False):
    return RobotRecord(position=pos, state=state, dir=dir, rule=rule, moved=moved)


def trace_of(events, R=4, n=4):
    return Trace(
        n=n,
        R=R,
        ids=(1, 2, 3, 4) if R == 4 else tuple(range(1, R + 1)),
        class_claim=None,
        seed=None,
        horizon=len(events),
        events=tuple(events),
    )


class TestBoundFor:
    def test_ac_formula(self):
        p = BoundParams(DynClass(AC), n=4, R=4, id_rmin=1)
        assert bound_for(p) == 16 * 1 * 16 + 3 * 4 * 4 + 12 * 16 == 496

    def test_st_is_bre_with_unit_window(self):
        p = BoundParams(DynClass(ST), n=4, R=4, id_rmin=1)
        assert bound_for(p) == 96
        assert bound_for(p) == bound_for(BoundParams(DynClass(BRE, 1), n=4, R=4, id_rmin=1))

    def test_bre_scales_with_delta(self):
        base = bound_for(BoundParams(DynClass(BRE, 1), n=6, R=5, id_rmin=2))
        doubled = bound_for(BoundParams(DynClass(BRE, 2), n=6, R=5, id_rmin=2))
        assert doubled == 2 * base == 372

    @pytest.mark.parametrize("tag", [COT, RE])
    def test_unbounded_classes_refuse(self, tag):
        assert bound_for(BoundParams(DynClass(tag), n=4, R=4, id_rmin=1)) is None


class TestSafetyAndVariants:
    def _terminating_trace(self, rounds_nodes):
        """rounds_nodes: {robot: (termination round, node)}; one event per round."""
        horizon = max(r for r, _ in rounds_nodes.values()) + 1
        events = []
        for t in range(horizon):
            robots = {}
            for rid in (1, 2, 3, 4):
                done_round, node = rounds_nodes.get(rid, (None, 0))
                if done_round is None:
                    robots[rid] = rec(0, rule="M8")
                elif t < done_round:
                    robots[rid] = rec(node, rule="M8")
                elif t == done_round:
                    robots[rid] = rec(node, rule="Term1", dir="bot")
                else:
                    robots[rid] = rec(node, rule="terminated", dir="bot")
            events.append(TraceEvent(round=t, robots=robots, snapshot=(1, 1, 1, 1)))
        return trace_of(events)

    def test_safety_holds_on_common_node(self):
        trace = self._terminating_trace({1: (2, 3), 2: (2, 3), 3: (2, 3), 4: (5, 3)})
        assert check_safety(trace)

    def test_safety_fails_on_split_termination(self):
        trace = self._terminating_trace({1: (2, 3), 2: (2, 1), 3: (2, 3), 4: (2, 3)})
        assert not check_safety(trace)
        verdict = check_variant(trace, horizon=10)
        assert verdict.variants == frozenset()
        assert not verdict.safety_ok

    @pytest.mark.parametrize("split", [False, True])
    def test_check_variant_scans_the_trace_once(self, split, monkeypatch):
        node_of_2 = 1 if split else 3
        trace = self._terminating_trace({1: (2, 3), 2: (2, node_of_2), 3: (2, 3), 4: (5, 3)})
        scans = []
        real = checkers._termination_info

        def counted(t):
            scans.append(t)
            return real(t)

        monkeypatch.setattr(checkers, "_termination_info", counted)
        assert check_variant(trace, horizon=10).safety_ok is not split
        assert len(scans) == 1

    def test_full_gathering_within_bound(self):
        trace = self._terminating_trace({1: (2, 3), 2: (2, 3), 3: (2, 3), 4: (5, 3)})
        v = check_variant(trace, horizon=10, bound=100)
        assert v.variants == frozenset({"G", "G_E", "G_W", "G_EW"})
        assert v.termination_round == 5
        assert v.bound_ok

    def test_full_gathering_after_bound(self):
        trace = self._terminating_trace({1: (2, 3), 2: (2, 3), 3: (2, 3), 4: (7, 3)})
        v = check_variant(trace, horizon=10, bound=5)
        assert v.variants == frozenset({"G_E", "G_EW", "G_W"})
        assert v.bound_ok is not None
        assert "G" not in v.variants

    def test_partial_gathering(self):
        trace = self._terminating_trace({1: (2, 3), 2: (2, 3), 3: (4, 3)})
        v = check_variant(trace, horizon=10, bound=100)
        assert v.variants == frozenset({"G_W", "G_EW"})

    def test_partial_gathering_unbounded(self):
        trace = self._terminating_trace({1: (2, 3), 2: (2, 3), 3: (4, 3)})
        v = check_variant(trace, horizon=10)
        assert v.variants == frozenset({"G_EW"})
        assert v.bound_ok is None

    def test_too_few_terminations(self):
        trace = self._terminating_trace({1: (2, 3), 2: (2, 3)})
        assert check_variant(trace, horizon=10).variants == frozenset()


class TestMonitors:
    def test_state_names_are_the_protocols(self):
        # The monitors define their state groups by name, independently of
        # gdg_protocol; a renamed state would leave them checking nothing.
        assert MIN_STATE_NAMES == {state.value for state in MIN_STATES}
        assert WAITING_NAMES == {state.value for state in WAITING_STATES}
        assert RIGHTWARD_NAMES <= {state.value for state in RobotState}

    def test_clean_run_has_no_violations(self):
        trace, _ = run(static_ring(4), {1: 0, 2: 1, 3: 2, 4: 3}, horizon=200)
        assert monitor_invariants(trace) == []

    def test_flags_moved_waiting_walker(self):
        events = [
            TraceEvent(
                round=0,
                robots={
                    1: rec(0, "minWaitingWalker", "bot", "M1"),
                    2: rec(1, "waitingWalker", "bot", "K3", moved=True),
                    3: rec(2),
                    4: rec(3),
                },
                snapshot=(1, 1, 1, 1),
            )
        ]
        hits = monitor_invariants(trace_of(events))
        assert ("waiting-still", 0) in hits

    def test_flags_wrong_id_min(self):
        events = [
            TraceEvent(
                round=0,
                robots={
                    1: rec(0),
                    2: rec(1, "minWaitingWalker", "bot", "M1"),
                    3: rec(2),
                    4: rec(3),
                },
                snapshot=(1, 1, 1, 1),
            )
        ]
        hits = monitor_invariants(trace_of(events))
        assert ("min-id", 0) in hits

    def test_flags_second_tower_episode(self):
        def tower(t, present):
            waiting_state = "waitingWalker" if present else "awareSearcher"
            return TraceEvent(
                round=t,
                robots={
                    1: rec(0, "minWaitingWalker", "bot", "K2"),
                    2: rec(0, waiting_state, "bot", "K2"),
                    3: rec(1),
                    4: rec(2),
                },
                snapshot=(1, 1, 1, 1),
            )

        events = [tower(0, True), tower(1, False), tower(2, True)]
        hits = monitor_invariants(trace_of(events))
        assert ("tower-min", 2) in hits

    def test_flags_min_state_abandoned(self):
        events = [
            TraceEvent(
                round=0,
                robots={
                    1: rec(0, "minWaitingWalker", "bot", "M1"),
                    2: rec(1),
                    3: rec(2),
                    4: rec(3),
                },
                snapshot=(1, 1, 1, 1),
            ),
            TraceEvent(
                round=1,
                robots={
                    1: rec(0, "righter", "right", "M8"),
                    2: rec(1),
                    3: rec(2),
                    4: rec(3),
                },
                snapshot=(1, 1, 1, 1),
            ),
        ]
        hits = monitor_invariants(trace_of(events))
        assert ("min-closed", 1) in hits
        assert ("no-reentry", 1) in hits

    def test_flags_backward_righter(self):
        events = [
            TraceEvent(
                round=0,
                robots={
                    1: rec(0, "righter", "left", "M8", moved=True),
                    2: rec(1),
                    3: rec(2),
                    4: rec(3),
                },
                snapshot=(1, 1, 1, 1),
            )
        ]
        hits = monitor_invariants(trace_of(events))
        assert ("dir-right", 0) in hits


class TestExperiment:
    PLACEMENT = {1: 0, 2: 1, 3: 2, 4: 3}

    def test_bounded_class_runs_through_its_bound(self):
        exp = experiment(static_ring(4), self.PLACEMENT, DynClass(ST), seed=3)
        assert exp.bound == bound_for(BoundParams(DynClass(ST), 4, 4, 1))
        assert exp.trace.horizon == exp.bound + 1
        assert (exp.trace.class_claim, exp.trace.seed) == (ST, 3)
        assert "G" in exp.verdict.variants and exp.violations == [] and exp.ok

    def test_missed_variant_is_not_ok(self):
        exp = experiment(static_ring(4), self.PLACEMENT, DynClass(ST), horizon=1)
        assert "G" not in exp.verdict.variants and not exp.ok

    def test_unbounded_class_has_no_bound(self):
        exp = experiment(static_ring(4), self.PLACEMENT, DynClass(COT))
        assert exp.bound is None and exp.ok

    def test_run_without_class_is_ok(self):
        exp = experiment(static_ring(4), self.PLACEMENT, None, horizon=1)
        assert (exp.bound, exp.trace.horizon, exp.trace.class_claim) == (None, 1, None)
        assert exp.ok


# Traces whose repeated rounds share one robots dict, as step's do, built
# from blocks of (robots, repeats); the unshared copy gives every event a
# fresh dict of fresh records.
def shared_trace(blocks):
    events = []
    for robots, repeats in blocks:
        events += [TraceEvent(len(events) + k, robots, (1, 1, 1, 1)) for k in range(repeats)]
    return trace_of(events)


def unshared(trace):
    events = tuple(
        TraceEvent(
            ev.round,
            {rid: RobotRecord(r.position, r.state, r.dir, r.rule, r.moved)
             for rid, r in ev.robots.items()},
            ev.snapshot,
        )
        for ev in trace.events
    )
    return Trace(trace.n, trace.R, trace.ids, trace.class_claim, trace.seed, trace.horizon, events)


STATES = ("righter", "potentialMin", "dumbSearcher", "waitingWalker", "minWaitingWalker",
          "headWalker")
records = st.builds(
    rec,
    pos=st.integers(0, 1),
    state=st.sampled_from(STATES),
    dir=st.sampled_from(("right", "left", "bot")),
    rule=st.sampled_from(("M8", "K2", "Term1", "Term2", "terminated")),
    moved=st.booleans(),
)
blocks = st.lists(
    st.tuples(st.fixed_dictionaries({rid: records for rid in (1, 2, 3, 4)}), st.integers(1, 4)),
    min_size=1,
    max_size=8,
)

# Each block list holds a violation for at least three repeated events.
MIN_WAITING = rec(0, "minWaitingWalker", "bot", "K2")
STANDING = {
    "min-id": [({1: rec(1), 2: MIN_WAITING, 3: rec(2), 4: rec(3)}, 4)],
    "dir-right": [({1: rec(0, dir="left"), 2: rec(1), 3: rec(2), 4: rec(3)}, 4)],
    "waiting-still": [
        ({1: MIN_WAITING, 2: rec(0, "waitingWalker", "bot", "K2", moved=True),
          3: rec(2), 4: rec(3)}, 4),
    ],
    "no-reentry": [
        ({1: rec(0), 2: rec(1), 3: rec(2), 4: rec(3)}, 1),
        ({1: rec(0, "dumbSearcher", "left", "M11"), 2: rec(1), 3: rec(2), 4: rec(3)}, 1),
        ({1: rec(0), 2: rec(1), 3: rec(2), 4: rec(3)}, 4),
    ],
}


def assert_same_on_unshared(trace):
    copy = unshared(trace)
    assert all(a.robots is not b.robots for a, b in zip(copy.events, copy.events[1:]))
    assert monitor_invariants(trace) == monitor_invariants(copy)
    for bound in (None, 2, 6):
        assert check_variant(trace, trace.horizon, bound) == check_variant(
            copy, copy.horizon, bound
        )
    assert trace_to_jsonl(trace) == trace_to_jsonl(copy)


class TestRepeatedRounds:
    @settings(max_examples=300, deadline=None)
    @given(blocks)
    def test_shared_trace_judged_as_its_unshared_copy(self, blocks):
        assert_same_on_unshared(shared_trace(blocks))

    @pytest.mark.parametrize("name", sorted(STANDING))
    def test_standing_violation_repeats_every_round(self, name):
        trace = shared_trace(STANDING[name])
        assert_same_on_unshared(trace)
        last = trace.events[-1].round
        hits = {t for found, t in monitor_invariants(trace) if found == name}
        assert set(range(last - 3, last + 1)) <= hits


# ---------------------------------------------------------------------------
# The one-pass monitor against the five-pass monitor it replaced
# ---------------------------------------------------------------------------


def reference_monitor(trace):
    """monitor_invariants as it was before it took one pass per event:
    five scans of each event's records and per-event states/positions dicts."""
    rmin = min(trace.ids)
    violations: list[tuple[str, int]] = []
    prev_states: dict[int, str] = {rid: "righter" for rid in trace.ids}
    left_righter: set[int] = set()
    left_rightward: set[int] = set()
    left_waiting: set[int] = set()
    dir_history_ok: dict[int, bool] = {rid: True for rid in trace.ids}
    tower_episodes = 0
    in_tower = False
    last = None
    repeats = 0
    start = end = 0  # violations[start:end] came from the last event checked in full

    for ev in trace.events:
        if ev.robots is last:
            repeats += 1
            if repeats > 1:
                violations.extend((name, ev.round) for name, _ in violations[start:end])
                continue
        else:
            last, repeats = ev.robots, 0
        start = len(violations)
        states = {rid: rec.state for rid, rec in ev.robots.items()}
        positions = {rid: rec.position for rid, rec in ev.robots.items()}

        for rid, st in states.items():
            if st in MIN_STATE_NAMES and rid != rmin:
                violations.append(("min-id", ev.round))
            if prev_states[rid] in MIN_STATE_NAMES and st not in MIN_STATE_NAMES:
                violations.append(("min-closed", ev.round))
            if st == "righter" and rid in left_righter:
                violations.append(("no-reentry", ev.round))
            if st in RIGHTWARD_NAMES and rid in left_rightward:
                violations.append(("no-reentry", ev.round))
            if st in WAITING_NAMES and rid in left_waiting:
                violations.append(("no-reentry", ev.round))

        # While a robot remains righter/potentialMin it
        # must have chosen right at every Move phase so far.
        for rid, rec in ev.robots.items():
            if rec.rule == "terminated":
                continue
            if states[rid] in RIGHTWARD_NAMES:
                if rec.dir != "right" or not dir_history_ok[rid]:
                    violations.append(("dir-right", ev.round))
            if rec.dir != "right":
                dir_history_ok[rid] = False

        # Waiting robots stay parked next to the min.
        min_waiting = [rid for rid, st in states.items() if st == "minWaitingWalker"]
        for rid, st in states.items():
            if st != "waitingWalker":
                continue
            rec = ev.robots[rid]
            if rec.moved:
                violations.append(("waiting-still", ev.round))
            if min_waiting:
                anchor = min_waiting[0]
                if positions[rid] != positions[anchor] or ev.robots[anchor].moved:
                    violations.append(("waiting-still", ev.round))

        # Tower-min detection: minWaitingWalker plus R-3 waitingWalkers
        # together on one node.
        tower_now = False
        if min_waiting:
            anchor = min_waiting[0]
            waiting_here = [
                rid
                for rid, st in states.items()
                if st == "waitingWalker" and positions[rid] == positions[anchor]
            ]
            tower_now = len(waiting_here) == trace.R - 3
        if tower_now and not in_tower:
            tower_episodes += 1
            if tower_episodes > 1:
                violations.append(("tower-min", ev.round))
        in_tower = tower_now

        for rid, st in states.items():
            if prev_states[rid] == "righter" and st != "righter":
                left_righter.add(rid)
            if prev_states[rid] in RIGHTWARD_NAMES and st not in RIGHTWARD_NAMES:
                left_rightward.add(rid)
            if prev_states[rid] in WAITING_NAMES and st not in WAITING_NAMES:
                left_waiting.add(rid)
        prev_states = states
        end = len(violations)

    return violations


all_records = st.builds(
    rec,
    pos=st.integers(0, 2),
    state=st.sampled_from([s.value for s in RobotState]),
    dir=st.sampled_from(("right", "left", "bot")),
    rule=st.sampled_from(("M8", "K2", "Term1", "terminated")),
    moved=st.booleans(),
)


@st.composite
def monitored_traces(draw):
    """R = 4-6 robots over 1-8 blocks of 1-4 events sharing one robots dict."""
    R = draw(st.integers(4, 6))
    rounds = st.fixed_dictionaries({rid: all_records for rid in range(1, R + 1)})
    runs = draw(st.lists(st.tuples(rounds, st.integers(1, 4)), min_size=1, max_size=8))
    events = []
    for robots, repeats in runs:
        events += [TraceEvent(len(events) + k, robots, (1, 1, 1, 1)) for k in range(repeats)]
    return trace_of(events, R=R)


class TestOnePassMonitor:
    @settings(max_examples=300, deadline=None)
    @given(monitored_traces())
    def test_same_violations_per_round_as_the_reference(self, trace):
        hits = monitor_invariants(trace)
        assert Counter(hits) == Counter(reference_monitor(trace))
        rounds = [t for _, t in hits]
        assert rounds == sorted(rounds)

    def test_tower_counts_while_its_min_moves(self):
        # The first episode forms in a round its minWaitingWalker moved in;
        # it is still an episode, so the second one is flagged.
        def event(t, waiting, anchor_moved=False):
            robots = {1: rec(0, "minWaitingWalker", "bot", "M1", moved=anchor_moved)}
            for rid in (2, 3, 4):
                robots[rid] = (
                    rec(0, "waitingWalker", "bot", "K3")
                    if rid == waiting
                    else rec(1, "awareSearcher", "left", "M2")
                )
            return TraceEvent(t, robots, (1, 1, 1, 1))

        trace = trace_of([event(0, 2, anchor_moved=True), event(1, None), event(2, 3)])
        hits = monitor_invariants(trace)
        assert ("tower-min", 2) in hits
        assert Counter(hits) == Counter(reference_monitor(trace))

    def test_terminated_robot_direction_is_not_checked(self):
        robots = {1: rec(0, dir="bot", rule="terminated"), 2: rec(1), 3: rec(2), 4: rec(3)}
        events = [TraceEvent(t, robots, (1, 1, 1, 1)) for t in range(2)]
        assert monitor_invariants(trace_of(events)) == []

    def test_violations_listed_robot_by_robot(self):
        robots = {
            1: rec(1, "waitingWalker", "bot", "K2", moved=True),
            2: rec(0, "minWaitingWalker", "left", "M1"),
            3: rec(2),
            4: rec(3),
        }
        hits = monitor_invariants(trace_of([TraceEvent(0, robots, (1, 1, 1, 1))]))
        assert hits == [("waiting-still", 0), ("waiting-still", 0), ("min-id", 0)]
