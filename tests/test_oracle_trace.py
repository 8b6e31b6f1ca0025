"""A 15-round run on a scripted schedule, verified by hand against every
rule guard and action, then frozen here. The simulator must reproduce it
event for event.

Setup: 4 nodes, robots 1..4 starting on nodes 0..3. Script:

    rounds 0-1    e0 absent
    rounds 2-3    e0 and e3 absent
    rounds 4-9    all edges present
    rounds 10-11  e2 absent
    rounds 12-14  all edges present

The run walks through discovery (three righters pile against the e0 gap
and split into candidate and searchers), a long rightward chase, the min
revelation when righter 2 catches candidate 1 on node 2, recruitment of
the searchers, and partial termination: robots 1, 3, 4 terminate on node
2 at round 14 while robot 2 is still out searching.
"""

from gdg_sim.checkers import _termination_info
from gdg_sim.ring_model import EvolvingRing, Schedule
from gdg_sim.sim_engine import Stop, run

ABSENT_E0 = (0, 1, 1, 1)
ABSENT_E0_E3 = (0, 1, 1, 0)
ABSENT_E2 = (1, 1, 0, 1)
FULL = (1, 1, 1, 1)

SCRIPT = (
    ABSENT_E0, ABSENT_E0,
    ABSENT_E0_E3, ABSENT_E0_E3,
    FULL, FULL, FULL, FULL, FULL, FULL,
    ABSENT_E2, ABSENT_E2,
    FULL, FULL, FULL,
)

RING = EvolvingRing(4, Schedule(SCRIPT, (FULL,)))
PLACEMENT = {1: 0, 2: 1, 3: 2, 4: 3}

# Per round, per robot: (end-of-round node, state, dir, fired rule, moved).
EXPECTED = [
    {  # round 0: everyone heads right; robot 1 is blocked by the e0 gap
        1: (0, "righter", "right", "M8", False),
        2: (2, "righter", "right", "M8", True),
        3: (3, "righter", "right", "M8", True),
        4: (0, "righter", "right", "M8", True),
    },
    {  # round 1: robots 3 and 4 pile up behind the gap with robot 1
        1: (0, "righter", "right", "M8", False),
        2: (3, "righter", "right", "M8", True),
        3: (0, "righter", "right", "M8", True),
        4: (0, "righter", "right", "M8", False),
    },
    {  # round 2: three righters on node 0 split; 1 is the smallest id
        1: (0, "potentialMin", "right", "M6", False),
        2: (3, "righter", "right", "M8", False),
        3: (0, "dumbSearcher", "right", "M6", False),
        4: (0, "dumbSearcher", "right", "M6", False),
    },
    {  # round 3: searchers split around the candidate; all still blocked
        1: (0, "potentialMin", "right", "M8", False),
        2: (3, "righter", "right", "M8", False),
        3: (0, "dumbSearcher", "right", "M11", False),
        4: (0, "dumbSearcher", "left", "M11", False),
    },
    {  # round 4: ring heals; robots 2 and 4 swap across e3
        1: (1, "potentialMin", "right", "M8", True),
        2: (0, "righter", "right", "M8", True),
        3: (1, "dumbSearcher", "right", "M11", True),
        4: (3, "dumbSearcher", "left", "M11", True),
    },
    {  # round 5
        1: (2, "potentialMin", "right", "M8", True),
        2: (1, "righter", "right", "M8", True),
        3: (0, "dumbSearcher", "left", "M11", True),
        4: (2, "dumbSearcher", "left", "M11", True),
    },
    {  # round 6
        1: (3, "potentialMin", "right", "M8", True),
        2: (2, "righter", "right", "M8", True),
        3: (3, "dumbSearcher", "left", "M11", True),
        4: (1, "dumbSearcher", "left", "M11", True),
    },
    {  # round 7
        1: (0, "potentialMin", "right", "M8", True),
        2: (3, "righter", "right", "M8", True),
        3: (2, "dumbSearcher", "left", "M11", True),
        4: (0, "dumbSearcher", "left", "M11", True),
    },
    {  # round 8
        1: (1, "potentialMin", "right", "M8", True),
        2: (0, "righter", "right", "M8", True),
        3: (1, "dumbSearcher", "left", "M11", True),
        4: (3, "dumbSearcher", "left", "M11", True),
    },
    {  # round 9: the chase is periodic; robot 2 trails robot 1 by one node
        1: (2, "potentialMin", "right", "M8", True),
        2: (1, "righter", "right", "M8", True),
        3: (0, "dumbSearcher", "left", "M11", True),
        4: (2, "dumbSearcher", "left", "M11", True),
    },
    {  # round 10: e2 gap pins robot 1 on node 2; robot 2 closes in
        1: (2, "potentialMin", "right", "M8", False),
        2: (2, "righter", "right", "M8", True),
        3: (3, "dumbSearcher", "left", "M11", True),
        4: (1, "dumbSearcher", "left", "M11", True),
    },
    {  # round 11: righter 2 outranks candidate 1, which becomes the min
        1: (2, "minWaitingWalker", "bot", "M1", False),
        2: (2, "righter", "right", "M8", False),
        3: (3, "dumbSearcher", "left", "M11", False),
        4: (0, "dumbSearcher", "left", "M11", True),
    },
    {  # round 12: robot 2 learns the min and leaves rightward to spread it
        1: (2, "minWaitingWalker", "bot", "K2", False),
        2: (3, "awareSearcher", "right", "K4", True),
        3: (2, "dumbSearcher", "left", "M11", True),
        4: (3, "dumbSearcher", "left", "M11", True),
    },
    {  # round 13: robot 3 joins the min; robot 4 learns it from robot 2
        1: (2, "minWaitingWalker", "bot", "K2", False),
        2: (0, "awareSearcher", "right", "M11", True),
        3: (2, "waitingWalker", "bot", "K3", False),
        4: (2, "awareSearcher", "left", "M10", True),
    },
    {  # round 14: robots 1, 3, 4 terminate on node 2; robot 2 roams on
        1: (2, "minWaitingWalker", "bot", "Term2", False),
        2: (1, "awareSearcher", "right", "M11", True),
        3: (2, "waitingWalker", "bot", "Term2", False),
        4: (2, "awareSearcher", "left", "Term2", False),
    },
]


def test_simulator_matches_hand_trace():
    trace, stop = run(RING, PLACEMENT, horizon=15)
    assert len(trace.events) == 15
    for t, (event, expected) in enumerate(zip(trace.events, EXPECTED)):
        assert event.round == t
        assert event.snapshot == SCRIPT[t]
        for rid, (pos, state, dir, rule, moved) in expected.items():
            got = event.robots[rid]
            assert (
                got.position,
                got.state,
                got.dir,
                got.rule,
                got.moved,
            ) == (pos, state, dir, rule, moved), f"round {t}, robot {rid}: {got}"
    assert _termination_info(trace)[0] == {1: 14, 3: 14, 4: 14}
    assert stop == Stop("horizon")


def test_hand_trace_internal_counters():
    trace, _ = run(RING, PLACEMENT, horizon=15)
    # Independently tracked step counters at the moment of min discovery:
    # robot 1 was blocked for rounds 0-3 and 10, so 6 counted steps by
    # round 9; robot 2 was blocked for rounds 2-3 and 11, so 9 by round 10.
    # Neither reaches its full-lap threshold (16 and 32).
    final = trace.events[-1]
    assert final.robots[1].state == "minWaitingWalker"
    assert final.robots[2].state == "awareSearcher"
