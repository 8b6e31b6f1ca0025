"""The 15-round oracle: a run on a scripted schedule, verified by hand
against every rule guard and action and frozen in spec (RING, PLACEMENT,
SCRIPT and EXPECTED, with the script's story). The simulator must
reproduce it event for event.
"""

from gdg_sim.checkers import _termination_info
from gdg_sim.sim_engine import Stop, run

import spec
from spec import EXPECTED, PLACEMENT, RING, SCRIPT


def test_simulator_matches_hand_trace():
    trace, stop = run(RING, PLACEMENT, horizon=15)
    assert len(trace.events) == len(EXPECTED) == 15
    assert [(ev.round, ev.snapshot) for ev in trace.events] == list(enumerate(SCRIPT))
    # Every record, each as (round, robot) if it differs.
    assert spec.oracle_mismatches(trace) == []
    assert _termination_info(trace)[0] == {1: 14, 3: 14, 4: 14}
    assert stop == Stop("horizon")


def test_spec_reproduces_the_hand_trace_too():
    trace, _ = spec.run(RING, PLACEMENT, 15)
    assert len(trace.events) == 15
    assert spec.oracle_mismatches(trace) == []


def test_hand_trace_internal_counters():
    trace, _ = run(RING, PLACEMENT, horizon=15)
    # Independently tracked step counters at the moment of min discovery:
    # robot 1 was blocked for rounds 0-3 and 10, so 6 counted steps by
    # round 9; robot 2 was blocked for rounds 2-3 and 11, so 9 by round 10.
    # Neither reaches its full-lap threshold (16 and 32).
    final = trace.events[-1]
    assert final.robots[1].state == "minWaitingWalker"
    assert final.robots[2].state == "awareSearcher"
