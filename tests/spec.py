"""The executable spec: the naive Look-Compute-Move pipeline that every
optimisation in the package is checked against, and the fixtures the test
modules share.

Pytest does not collect this module; the test modules import it as
``spec``, and no test module imports another. Each function here is the
plainest reading of its part of the package, with none of its shortcuts:

- dispatch  walks the rules in the paper's order and tests each guard as
            the paper states it; the actions are RULES' own.
- view      finds a robot's mates by scanning every robot's position.
- step      computes and moves every robot and builds each record with
            RobotRecord(...): no towers, no record cache, no sharing.
- run       steps every round until every robot terminated or the horizon;
            no repeat key, no copied rounds.
- jsonl     one json.dumps per line.
- monitor   the six invariants, checked on every event in full.
- verdict   termination rounds from a scan of every event, and the four
            variants as checkers' docstring defines them.
"""

import importlib.util
import json
import sys
from pathlib import Path
from typing import NamedTuple

from hypothesis import strategies as st

from gdg_sim.adversary import GeneratorSpec, generate
from gdg_sim.checkers import Verdict
from gdg_sim.gdg_protocol import (
    BOT,
    DUMB_SEARCHER,
    LEFT,
    MIN_STATES,
    MIN_WAITING_WALKER,
    POTENTIAL_MIN,
    RIGHT,
    RIGHTER,
    RIGHTWARD,
    RULES,
    WAITING_STATES,
    WAITING_WALKER,
    RobotVars,
    View,
)
from gdg_sim.ring_model import AC, BRE, COT, RE, ST, DynClass, EvolvingRing, Schedule
from gdg_sim.sim_engine import RobotRecord, Stop, Trace, TraceEvent

# ---------------------------------------------------------------------------
# Geometry: edge i joins node i and node i + 1
# ---------------------------------------------------------------------------


def right_edge_of(v, n):
    return v


def left_edge_of(v, n):
    return (v - 1) % n


def step_right(v, n):
    return (v + 1) % n


def step_left(v, n):
    return (v - 1) % n


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

BY_NAME = {rule.name: rule for rule in RULES}

# The paper's rule order, which RULES reorders.
PAPER_ORDER = (
    "Term1", "Term2", "T1", "T2", "T3", "W1", "K1", "K2", "K3", "K4",
    "M1", "M2", "M3", "M4", "M5", "M6", "M7", "M8", "M9", "M10", "M11",
)


def min_discovery(view):
    """min_discovery as three separate scans of the mates."""
    me = view.self_vars
    return (
        (me.state == POTENTIAL_MIN
         and any(m.state == RIGHTER and me.id < m.id for m in view.mates))
        or any(m.id_min == me.id for m in view.mates)
        or any(
            m.state in (DUMB_SEARCHER, POTENTIAL_MIN)
            and me.id < m.id_potential_min
            for m in view.mates
        )
        or me.right_steps == 4 * me.id * view.n
    )


def dispatch(view):
    """The name of the first rule of the paper's order whose state, witness
    and condition all hold, or None. Term1 and Term2 are decided by the
    paper's two gathering predicates (all R robots here; all but one here,
    one of them in a min state), M1 by min_discovery above, and the tower
    sizes of M6 (all robots but one here) and K1 (all but two) are spelled
    out rather than read from the rules."""
    here = (view.self_vars,) + view.mates
    gathered = {
        "Term1": len(here) == view.R,
        "Term2": len(here) == view.R - 1 and any(r.state in MIN_STATES for r in here),
    }
    tower = {"M6": view.R - 2, "K1": view.R - 3}
    for rule in (BY_NAME[name] for name in PAPER_ORDER):
        if view.self_vars.state not in rule.states:
            continue
        if rule.witness and not any(m.state in rule.witness for m in view.mates):
            continue
        if rule.name in gathered:
            enabled = gathered[rule.name]
        elif rule.name == "M1":
            enabled = min_discovery(view)
        elif rule.name in tower:
            enabled = len(view.mates) == tower[rule.name] and rule.condition(view)
        else:
            enabled = rule.condition is None or rule.condition(view)
        if enabled:
            return rule.name
    return None


def compute(view):
    """One Compute phase: the dispatched rule's action from RULES, given the
    smallest-id mate in one of the rule's witness states, if it has any."""
    rule = BY_NAME[dispatch(view)]
    witnesses = [m for m in view.mates if m.state in rule.witness]
    witness = min(witnesses, key=lambda m: m.id) if witnesses else None
    return rule.action(view.self_vars, view, witness), rule.name


def never_move(view):
    """Trivial algorithm under test: robots park forever."""
    return view.self_vars._replace(dir=BOT), "idle"


# ---------------------------------------------------------------------------
# View, step and run
# ---------------------------------------------------------------------------


class Configuration(NamedTuple):
    """A round's start: the round, each robot's vars and last record (its
    node and whether it moved), and the last snapshot, all-absent at round
    0. Dicts are keyed in increasing robot id."""

    round: int
    vars: dict
    robots: dict
    last_snap: tuple

    @property
    def towers(self):
        """Node -> vars of the robots on it, in id order. The spec never
        reads it: it is here for a snapshot source that forks a round with
        sim_engine.step, as the adaptive adversary does."""
        return towers(self)


def towers(config):
    """Node -> vars of the robots on it, in id order, from positions and vars."""
    grouped = {}
    for rid, rec in sorted(config.robots.items()):
        grouped.setdefault(rec.position, []).append(config.vars[rid])
    return {node: tuple(tower) for node, tower in grouped.items()}


def build_view(config, snap, robot_id):
    """What a robot sees: the robots at its node, found by a scan of every
    robot's position, its right edge in snap and its left edge last round."""
    n = len(snap)
    node = config.robots[robot_id].position
    mates = tuple(
        config.vars[rid]
        for rid, rec in config.robots.items()
        if rec.position == node and rid != robot_id
    )
    return View(
        self_vars=config.vars[robot_id],
        mates=mates,
        edge_right_current=bool(snap[right_edge_of(node, n)]),
        edge_left_previous=bool(config.last_snap[left_edge_of(node, n)]),
        has_moved=config.robots[robot_id].moved,
        n=n,
        R=len(config.vars),
    )


def step(config, snap, compute_fn=compute):
    """One round: every robot that has not terminated computes on its view
    and, unless it terminated now, moves over the edge its dir names if snap
    holds it. A terminated robot stays and records the rule "terminated"."""
    n = len(snap)
    new_vars, robots = {}, {}
    for rid, me in config.vars.items():
        node = target = config.robots[rid].position
        if me.terminated:
            rule = "terminated"
        else:
            me, rule = compute_fn(build_view(config, snap, rid))
            if not me.terminated:
                if me.dir == RIGHT and snap[right_edge_of(node, n)]:
                    target = step_right(node, n)
                elif me.dir == LEFT and snap[left_edge_of(node, n)]:
                    target = step_left(node, n)
        new_vars[rid] = me
        robots[rid] = RobotRecord(target, me.state, me.dir, rule, target != node)
    return Configuration(config.round + 1, new_vars, robots, snap)


def run(ring, placement, horizon, compute_fn=compute, class_claim=None, seed=None):
    """Step every round, asking the source for each snapshot, until every
    robot terminated or the horizon. Return the trace and the last
    configuration. Round 0 starts with every robot a righter on its node,
    heading right, and the all-absent snapshot."""
    ids = sorted(placement)
    config = Configuration(
        0,
        {rid: RobotVars(id=rid) for rid in ids},
        {rid: RobotRecord(placement[rid], RIGHTER, RIGHT, "placed", False) for rid in ids},
        (0,) * ring.n,
    )
    events = []
    while config.round < horizon and not all(v.terminated for v in config.vars.values()):
        t = config.round
        config = step(config, ring.next_snapshot(config), compute_fn)
        events.append(TraceEvent(t, config.robots, config.last_snap))
    trace = Trace(ring.n, len(ids), tuple(ids), class_claim, seed, horizon, tuple(events))
    return trace, config


def shares(events):
    """For each event after the first: is its robots dict the previous one's?"""
    return [b.robots is a.robots for a, b in zip(events, events[1:])]


def check_stop(stop, trace, config):
    """Assert that run's stop is borne out by the spec's stepped trace and
    last configuration: a cycle's events repeat with its period from its
    start to the horizon, and any other stop is why the stepping ended."""
    running = not all(v.terminated for v in config.vars.values())
    if stop.reason == "cycle":
        assert running and len(trace.events) == trace.horizon and stop.period >= 1
        for ev in trace.events[stop.start + stop.period :]:
            twin = trace.events[ev.round - stop.period]
            assert (ev.robots, ev.snapshot) == (twin.robots, twin.snapshot)
    else:
        assert stop == Stop("horizon" if running else "all_terminated")


# ---------------------------------------------------------------------------
# JSONL, monitor and verdict
# ---------------------------------------------------------------------------


def jsonl(trace):
    """trace_to_jsonl as one json.dumps per line."""
    header = {
        "n": trace.n, "R": trace.R, "ids": list(trace.ids), "class": trace.class_claim,
        "seed": trace.seed, "horizon": trace.horizon,
    }
    docs = [header] + [
        {
            "round": ev.round,
            "snapshot": list(ev.snapshot),
            "robots": {
                str(rid): {"pos": r.position, "state": r.state, "dir": r.dir, "rule": r.rule,
                           "moved": r.moved}
                for rid, r in ev.robots.items()
            },
        }
        for ev in trace.events
    ]
    return "".join(json.dumps(doc, separators=(",", ":")) + "\n" for doc in docs)


# The no-reentry groups: a robot that left one may not be in it again.
REENTRY_GROUPS = ((RIGHTER,), RIGHTWARD, WAITING_STATES)


def monitor(trace):
    """monitor_invariants with every event checked in full. Its violations
    come round by round, robot by robot in id order, each robot's in the
    order min-id, min-closed, no-reentry, dir-right, waiting-still, and
    then the round's tower-min."""
    rmin = min(trace.ids)
    found = []
    state = {rid: RIGHTER for rid in trace.ids}  # in the event before, placed as righters
    left = [set() for _ in REENTRY_GROUPS]  # the robots that left each group
    turned = set()  # robots that ever chose a direction other than right
    episodes, in_tower = 0, False
    for ev in trace.events:
        t = ev.round
        anchor = next((r for r in ev.robots.values() if r.state == MIN_WAITING_WALKER), None)
        for rid, rec in ev.robots.items():
            now, was = rec.state, state[rid]
            if now in MIN_STATES and rid != rmin:
                found.append(("min-id", t))
            if was in MIN_STATES and now not in MIN_STATES:
                found.append(("min-closed", t))
            for group, gone in zip(REENTRY_GROUPS, left):
                if now in group and rid in gone:
                    found.append(("no-reentry", t))
            if rec.rule != "terminated":  # a terminated robot chooses no direction
                if now in RIGHTWARD and (rec.dir != RIGHT or rid in turned):
                    found.append(("dir-right", t))
                if rec.dir != RIGHT:
                    turned.add(rid)
            if now == WAITING_WALKER:
                if rec.moved:
                    found.append(("waiting-still", t))
                if anchor is not None and (rec.position != anchor.position or anchor.moved):
                    found.append(("waiting-still", t))
            for group, gone in zip(REENTRY_GROUPS, left):
                if was in group and now not in group:
                    gone.add(rid)
            state[rid] = now
        # A tower: the anchor and R - 3 waiting walkers on its node.
        tower = anchor is not None and trace.R - 3 == sum(
            r.state == WAITING_WALKER and r.position == anchor.position
            for r in ev.robots.values()
        )
        if tower and not in_tower:
            episodes += 1
            if episodes > 1:
                found.append(("tower-min", t))
        in_tower = tower
    return found


def verdict(trace, bound=None):
    """check_variant by the definitions: a robot terminates in the first
    event whose record fired Term1 or Term2; safety holds when every robot
    that terminates does so on one node; G and G_E need all R robots
    terminated safely, G_W and G_EW all but at most one, and G and G_W
    each of them by round bound."""
    done = {}  # robot -> (termination round, node)
    for ev in trace.events:
        for rid, rec in ev.robots.items():
            if rec.rule in ("Term1", "Term2"):
                done.setdefault(rid, (ev.round, rec.position))
    safety = len({node for _, node in done.values()}) <= 1
    rounds = [t for t, _ in done.values()]

    def gathered(spare, by=None):  # all robots but `spare` terminated safely, by round `by`
        return safety and sum(by is None or t <= by for t in rounds) >= trace.R - spare

    variants = {"G_E"} if gathered(0) else set()
    variants |= {"G_EW"} if gathered(1) else set()
    if bound is not None:
        variants |= {"G"} if gathered(0, bound) else set()
        variants |= {"G_W"} if gathered(1, bound) else set()
    return Verdict(
        safety_ok=safety,
        variants=frozenset(variants),
        termination_round=max(rounds, default=None),
        bound_ok=bool(variants & {"G", "G_W"}) if bound is not None else None,
    )


# ---------------------------------------------------------------------------
# Shared fixtures
# ---------------------------------------------------------------------------


def ring_of(n, prefix, cycle):
    return EvolvingRing(n, Schedule(tuple(map(tuple, prefix)), tuple(map(tuple, cycle))))


@st.composite
def rings(draw):
    n = draw(st.integers(4, 8))
    bit_row = st.lists(st.integers(0, 1), min_size=n, max_size=n).map(tuple)
    prefix = tuple(draw(st.lists(bit_row, max_size=4)))
    cycle = tuple(draw(st.lists(bit_row, min_size=1, max_size=4)))
    return EvolvingRing(n, Schedule(prefix, cycle))


CLASSES = (DynClass(ST), DynClass(BRE, 1), DynClass(BRE, 2), DynClass(BRE, 3), DynClass(AC),
           DynClass(RE), DynClass(COT), None)


@st.composite
def runs(draw):
    """The differential property's draws, as (class or None, ring,
    placement, horizon)."""
    dyn = draw(st.sampled_from(CLASSES))
    if dyn is None:
        ring = draw(rings())
    else:
        ring = generate(GeneratorSpec(dyn, draw(st.integers(4, 8)), draw(st.integers(0, 2**16))))
    ids = draw(st.lists(st.integers(1, 32), min_size=4, max_size=6, unique=True))
    placement = {rid: draw(st.integers(0, ring.n - 1)) for rid in ids}
    return dyn, ring, placement, draw(st.integers(1, 400))


def rec(pos, state="righter", dir="right", rule="M8", moved=False):
    return RobotRecord(position=pos, state=state, dir=dir, rule=rule, moved=moved)


def trace_of(events, R=4, n=4):
    return Trace(
        n=n,
        R=R,
        ids=tuple(range(1, R + 1)),
        class_claim=None,
        seed=None,
        horizon=len(events),
        events=tuple(events),
    )


def _rounds(*robots):
    """A trace of one event per robots dict, every edge present."""
    return trace_of([TraceEvent(t, recs, (1, 1, 1, 1)) for t, recs in enumerate(robots)])


def _tower(formed):
    """The min on node 0 with robot 2, which waits with it if formed."""
    return {1: rec(0, "minWaitingWalker", "bot", "K2"),
            2: rec(0, "waitingWalker" if formed else "awareSearcher", "bot", "K2"),
            3: rec(1), 4: rec(2)}


# Traces with one injected fault each, and the violations the monitor must
# report on them, among any others.
FAULTS = {
    "moved-waiting-walker": (_rounds({1: rec(0, "minWaitingWalker", "bot", "M1"),
                                      2: rec(1, "waitingWalker", "bot", "K3", moved=True),
                                      3: rec(2), 4: rec(3)}),
                             {("waiting-still", 0)}),
    "wrong-id-min": (_rounds({1: rec(0), 2: rec(1, "minWaitingWalker", "bot", "M1"),
                              3: rec(2), 4: rec(3)}),
                     {("min-id", 0)}),
    "second-tower-episode": (_rounds(_tower(True), _tower(False), _tower(True)),
                             {("tower-min", 2)}),
    "min-state-abandoned": (_rounds({1: rec(0, "minWaitingWalker", "bot", "M1"),
                                     2: rec(1), 3: rec(2), 4: rec(3)},
                                    {1: rec(0), 2: rec(1), 3: rec(2), 4: rec(3)}),
                            {("min-closed", 1), ("no-reentry", 1)}),
    "backward-righter": (_rounds({1: rec(0, dir="left", moved=True),
                                  2: rec(1), 3: rec(2), 4: rec(3)}),
                         {("dir-right", 0)}),
}


# The benchmark's inputs, from perfbench/workloads.py, loaded by file path so
# that no other benchmark module becomes importable here.
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
_loader = importlib.util.spec_from_file_location("workloads", PERFBENCH / "workloads.py")
workloads = importlib.util.module_from_spec(_loader)
sys.modules["workloads"] = workloads  # its dataclasses look their module up there
_loader.loader.exec_module(workloads)

# The three 10,000-round duels: n, placement and the two targets.
DUELS = workloads.DUELS
# The cycle each duel is proven to repeat from its state after round start.
DUEL_CYCLES = [Stop("cycle", 21, 1), Stop("cycle", 60, 1), Stop("cycle", 48, 1)]


# ---------------------------------------------------------------------------
# The 15-round oracle
# ---------------------------------------------------------------------------
# A run on a scripted schedule, verified by hand against every rule guard and
# action, then frozen here. 4 nodes, robots 1..4 starting on nodes 0..3:
#
#     rounds 0-1    e0 absent
#     rounds 2-3    e0 and e3 absent
#     rounds 4-9    all edges present
#     rounds 10-11  e2 absent
#     rounds 12-14  all edges present
#
# The run walks through discovery (three righters pile against the e0 gap
# and split into candidate and searchers), a long rightward chase, the min
# revelation when righter 2 catches candidate 1 on node 2, recruitment of
# the searchers, and partial termination: robots 1, 3, 4 terminate on node
# 2 at round 14 while robot 2 is still out searching.

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


def oracle_mismatches(trace):
    """(round, robot) of each of the trace's first 15 records that is not EXPECTED."""
    return [
        (t, rid)
        for t, (ev, expected) in enumerate(zip(trace.events, EXPECTED))
        for rid, (pos, state, dir, rule, moved) in expected.items()
        if ev.robots[rid] != RobotRecord(pos, state, dir, rule, moved)
    ]
