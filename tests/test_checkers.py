import pytest
from hypothesis import given, settings, strategies as st

from gdg_sim import checkers
from gdg_sim.checkers import (
    BoundParams,
    bound_for,
    check_safety,
    check_variant,
    experiment,
    monitor_invariants,
)
from gdg_sim.gdg_protocol import ALL_STATES, DIRECTIONS
from gdg_sim.ring_model import AC, BRE, COT, RE, ST, DynClass, static_ring
from gdg_sim.sim_engine import TraceEvent, run, trace_to_jsonl

import spec
from spec import FAULTS, rec, ring_of, trace_of


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
    def test_clean_run_has_no_violations(self):
        trace, _ = run(static_ring(4), {1: 0, 2: 1, 3: 2, 4: 3}, horizon=200)
        assert monitor_invariants(trace) == []

    def test_flags_moved_waiting_walker(self):
        assert flagged("moved-waiting-walker")

    def test_flags_wrong_id_min(self):
        assert flagged("wrong-id-min")

    def test_flags_second_tower_episode(self):
        assert flagged("second-tower-episode")

    def test_flags_min_state_abandoned(self):
        assert flagged("min-state-abandoned")

    def test_flags_backward_righter(self):
        assert flagged("backward-righter")


def flagged(fault):
    """Does the monitor report the violations of this spec.FAULTS trace?"""
    trace, hits = FAULTS[fault]
    return hits <= set(monitor_invariants(trace))


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

    # The default horizons: rounds 0..bound for a bounded class (ST's is
    # checked above), four BRE bounds of the cycle length past the prefix for
    # RE and COT, and 10,000 rounds without a class.
    @pytest.mark.parametrize("dyn", [DynClass(BRE, 2), DynClass(AC)], ids=[BRE, AC])
    def test_bounded_class_default_horizon_is_bound_plus_one(self, dyn):
        exp = experiment(static_ring(4), self.PLACEMENT, dyn)
        assert exp.trace.horizon == bound_for(BoundParams(dyn, 4, 4, 1)) + 1

    @pytest.mark.parametrize("tag", [RE, COT])
    def test_unbounded_class_default_horizon_follows_the_cycle(self, tag):
        full = [1, 1, 1, 1]
        exp = experiment(ring_of(4, [full] * 2, [full] * 3), self.PLACEMENT, DynClass(tag))
        assert bound_for(BoundParams(DynClass(BRE, 3), 4, 4, 1)) == 288
        assert exp.trace.horizon == 4 * 288 + 2

    def test_run_without_class_defaults_to_10000_rounds(self):
        assert experiment(static_ring(4), self.PLACEMENT, None).trace.horizon == 10_000


# Traces whose repeated rounds share one robots dict, as step's do, built
# from blocks of (robots, repeats). The spec judges every event in full, as
# if no two events shared a dict.
def shared_trace(blocks):
    events = []
    for robots, repeats in blocks:
        events += [TraceEvent(len(events) + k, robots, (1, 1, 1, 1)) for k in range(repeats)]
    return trace_of(events, R=len(blocks[0][0]))


records = st.builds(
    rec,
    pos=st.integers(0, 2),
    state=st.sampled_from(ALL_STATES),
    dir=st.sampled_from(DIRECTIONS),
    rule=st.sampled_from(("M8", "K2", "Term1", "Term2", "terminated")),
    moved=st.booleans(),
)


@st.composite
def shared_traces(draw):
    """R = 4-6 robots over 1-8 blocks of 1-4 events sharing one robots dict."""
    R = draw(st.integers(4, 6))
    robots = st.fixed_dictionaries({rid: records for rid in range(1, R + 1)})
    return shared_trace(draw(st.lists(st.tuples(robots, st.integers(1, 4)), min_size=1,
                                      max_size=8)))


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


def assert_judged_as_the_spec_judges(trace):
    assert monitor_invariants(trace) == spec.monitor(trace)
    for bound in (None, 2, 6):
        assert check_variant(trace, trace.horizon, bound) == spec.verdict(trace, bound)
    assert trace_to_jsonl(trace) == spec.jsonl(trace)


class TestRepeatedRounds:
    @settings(max_examples=300, deadline=None)
    @given(shared_traces())
    def test_shared_trace_judged_as_its_unshared_copy(self, trace):
        assert_judged_as_the_spec_judges(trace)

    @pytest.mark.parametrize("name", sorted(STANDING))
    def test_standing_violation_repeats_every_round(self, name):
        trace = shared_trace(STANDING[name])
        assert_judged_as_the_spec_judges(trace)
        last = trace.events[-1].round
        hits = {t for found, t in monitor_invariants(trace) if found == name}
        assert set(range(last - 3, last + 1)) <= hits


# ---------------------------------------------------------------------------
# The one-pass monitor against the spec's, which checks every event in full
# ---------------------------------------------------------------------------


class TestOnePassMonitor:
    @settings(max_examples=300, deadline=None)
    @given(shared_traces())
    def test_same_violations_per_round_as_the_reference(self, trace):
        hits = monitor_invariants(trace)
        assert hits == spec.monitor(trace)
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
        assert hits == spec.monitor(trace)

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
