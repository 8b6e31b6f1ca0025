"""Verdicts on traces: gathering variants, round bounds, invariant monitors.

The four variants, strongest first:

    G     all robots terminate on one node within a bound
    G_E   all robots terminate on one node, eventually
    G_W   all but at most one terminate on one node within a bound
    G_EW  all but at most one terminate on one node, eventually

Verdicts are downward-closed: G implies G_E and G_W, each of which
implies G_EW.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

from .gdg_protocol import (
    ALL_STATES, MIN_STATES, MIN_WAITING_WALKER, RIGHT, RIGHTER, RIGHTWARD, WAITING_STATES,
    WAITING_WALKER,
)
from .ring_model import AC, BRE, COT, RE, ST, DynClass, EvolvingRing
from .sim_engine import Stop, Trace, run

# The variant each dynamics class guarantees (arXiv 1805.05137).
EXPECTED_VARIANT = {ST: "G", BRE: "G", RE: "G_E", AC: "G_W", COT: "G_EW"}

# Bound constants (c1, c2, c3), validated empirically.
AC_DEFAULTS = (16, 3, 12)
BRE_DEFAULTS = (4, 3, 8)


class BoundParams(NamedTuple):
    dyn_class: DynClass
    n: int
    R: int
    id_rmin: int


@dataclass(frozen=True, slots=True)
class Verdict:
    safety_ok: bool
    variants: frozenset[str]
    termination_round: Optional[int]
    bound_ok: Optional[bool]


def bound_for(p: BoundParams) -> Optional[int]:
    """Explicit round bound for the bounded variants in AC, BRE, and ST;
    None for RE and COT, which admit no bounded-variant round bound."""
    tag = p.dyn_class.tag
    if tag == AC:
        c1, c2, c3 = AC_DEFAULTS
        return c1 * p.id_rmin * p.n * p.n + c2 * p.R * p.n + c3 * p.n * p.n
    if tag in (BRE, ST):
        delta = p.dyn_class.delta if tag == BRE else 1
        assert delta is not None
        c1, c2, c3 = BRE_DEFAULTS
        return c1 * p.n * delta * p.id_rmin + c2 * p.n * delta * p.R + c3 * p.n * delta
    return None


def default_horizon(ring: EvolvingRing, dyn: DynClass, R: int, id_rmin: int) -> int:
    """bound + 1 (rounds 0..bound) for bounded classes; for RE and COT, four
    times the BRE bound of the cycle length, past the prefix."""
    bound = bound_for(BoundParams(dyn, ring.n, R, id_rmin))
    if bound is not None:
        return bound + 1
    delta = max(1, len(ring.schedule.cycle))
    base = bound_for(BoundParams(DynClass(BRE, delta), ring.n, R, id_rmin))
    return 4 * base + len(ring.schedule.prefix)


def _termination_info(trace: Trace) -> tuple[dict[int, int], dict[int, int]]:
    """(termination round, final node) per robot that fired Term1/Term2."""
    rounds: dict[int, int] = {}
    nodes: dict[int, int] = {}
    last = None
    for ev in trace.events:
        if ev.robots is last:  # a repeated round fires no rule for the first time
            continue
        last = ev.robots
        for rid, rec in last.items():
            if rec.rule in ("Term1", "Term2") and rid not in rounds:
                rounds[rid] = ev.round
                nodes[rid] = rec.position
    return rounds, nodes


def check_safety(trace: Trace) -> bool:
    """All robots that terminate do so on the same node."""
    return check_variant(trace, trace.horizon).safety_ok


def check_variant(trace: Trace, horizon: int, bound: Optional[int] = None) -> Verdict:
    rounds, nodes = _termination_info(trace)
    safety = len(set(nodes.values())) <= 1  # all terminated robots on one node
    done = sorted(rounds.values())
    variants: set[str] = set()
    if safety and len(done) >= trace.R - 1:
        variants.add("G_EW")
        if len(done) == trace.R:
            variants.add("G_E")
        if bound is not None and done[trace.R - 2] <= bound:
            variants.add("G_W")
        if "G_E" in variants and bound is not None and done[-1] <= bound:
            variants.add("G")
    bound_ok = bool(variants & {"G", "G_W"}) if bound is not None else None
    return Verdict(
        safety_ok=safety,
        variants=frozenset(variants),
        termination_round=done[-1] if done else None,
        bound_ok=bound_ok,
    )


class Experiment(NamedTuple):
    trace: Trace
    stop: Stop
    bound: Optional[int]
    verdict: Verdict
    violations: list[tuple[str, int]]
    ok: bool  # expected variant reached and no monitor fired; True without a class


def experiment(
    ring: EvolvingRing,
    placement: dict[int, int],
    dyn: Optional[DynClass],
    seed: Optional[int] = None,
    horizon: Optional[int] = None,
) -> Experiment:
    """Run the protocol on the ring and judge the run against its class."""
    R, id_rmin = len(placement), min(placement)
    bound = bound_for(BoundParams(dyn, ring.n, R, id_rmin)) if dyn else None
    if horizon is None:  # a run with no class claim gets 10,000 rounds
        horizon = 10_000 if dyn is None else default_horizon(ring, dyn, R, id_rmin)
    trace, stop = run(ring, placement, horizon, class_claim=dyn.tag if dyn else None, seed=seed)
    verdict = check_variant(trace, horizon, bound)
    violations = monitor_invariants(trace)
    ok = dyn is None or (EXPECTED_VARIANT[dyn.tag] in verdict.variants and not violations)
    return Experiment(trace, stop, bound, verdict, violations, ok)


# ---------------------------------------------------------------------------
# Invariant monitors
# ---------------------------------------------------------------------------

# The no-reentry groups: righter, righter/potentialMin and the waiting states.
_GROUPS = ((RIGHTER,), RIGHTWARD, WAITING_STATES)
# Each state's groups, group i as bit 1 << i, so that the groups a robot has
# left are one int and the ones it re-enters one AND.
_REENTRY = {st: sum(1 << i for i, group in enumerate(_GROUPS) if st in group) for st in ALL_STATES}


def monitor_invariants(trace: Trace) -> list[tuple[str, int]]:
    """Check GDG execution invariants round by round; returns violations.

    Monitored properties, in the order each robot is checked:
      min-id        a robot in a min state carries the minimum identifier
      min-closed    min states are never left
      no-reentry    righter, righter/potentialMin, and waiting states are
                    not re-entered once left
      dir-right     righter/potentialMin robots have always headed right
      waiting-still every waitingWalker sits with the minWaitingWalker and
                    neither moves
      tower-min     at most one maximal tower-min episode (R-2 co-located
                    waiting robots around the min) in the whole run

    Each event is checked in one pass over its records, so a round lists its
    violations robot by robot in id order, in the order above, then tower-min.
    A robot's left groups are one bitmask, which gains the groups of its
    previous state that its current state is not in; re-entering k groups
    at once, as a dumbSearcher that turns righter again does, is k
    no-reentry violations. The states must be gdg_protocol's, as step and
    trace_from_jsonl make them: another state raises a KeyError.

    An event whose robots dict is the previous event's repeats its round,
    and the monitors' state is a fixed point after one such repeat: no state
    is left or entered, the tower-min flag already holds this round's value,
    and the direction history only records again what it recorded. So from
    the second repeat in a row on, an event yields exactly the violations of
    the event before, which are copied with the new round; an event that
    repeats one without violations costs one identity test.
    """
    rmin = min(trace.ids)
    violations: list[tuple[str, int]] = []
    prev: dict[int, str] = {rid: RIGHTER for rid in trace.ids}
    left = dict.fromkeys(trace.ids, 0)  # per robot, the _REENTRY bits of the groups it left
    turned: set[int] = set()  # robots that have chosen a direction other than right
    tower_seen = False
    in_tower = False
    last = None
    repeats = 0
    start = end = 0  # violations[start:end] came from the last event checked in full

    for ev in trace.events:
        robots = ev.robots  # by name, the one field a repeated event needs
        if robots is last:
            repeats += 1
            if repeats > 1:
                if start != end:
                    violations.extend((name, ev.round) for name, _ in violations[start:end])
                continue
        else:
            last, repeats = robots, 0
        t = ev.round
        start = len(violations)
        # The first minWaitingWalker, found before the loop: smaller ids are checked against it.
        anchor = next((rec for rec in robots.values() if rec.state == MIN_WAITING_WALKER), None)
        waiting_here = 0

        for rid, rec in robots.items():
            st, was = rec.state, prev[rid]
            if st in MIN_STATES and rid != rmin:
                violations.append(("min-id", t))
            if was in MIN_STATES and st not in MIN_STATES:
                violations.append(("min-closed", t))
            groups = _REENTRY[st]
            again = groups & left[rid]
            if again:  # one violation per group re-entered
                violations += [("no-reentry", t)] * again.bit_count()

            # A terminated robot has no Move phase, so no direction to choose.
            if rec.rule != "terminated":
                if st in RIGHTWARD and (rec.dir != RIGHT or rid in turned):
                    violations.append(("dir-right", t))
                if rec.dir != RIGHT:
                    turned.add(rid)

            if st == WAITING_WALKER:
                if rec.moved:
                    violations.append(("waiting-still", t))
                if anchor is not None:
                    together = rec.position == anchor.position
                    waiting_here += together
                    if not together or anchor.moved:
                        violations.append(("waiting-still", t))

            left[rid] |= _REENTRY[was] & ~groups
            prev[rid] = st

        # A tower: the anchor plus R-3 waitingWalkers on its node.
        tower_now = anchor is not None and waiting_here == trace.R - 3
        if tower_now and not in_tower and tower_seen:  # a second episode begins
            violations.append(("tower-min", t))
        tower_seen |= tower_now
        in_tower = tower_now
        end = len(violations)

    return violations
