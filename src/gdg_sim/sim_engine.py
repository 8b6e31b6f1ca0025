"""Synchronous Look-Compute-Move execution producing replayable traces.

All robots compute against the same frozen configuration, then move
simultaneously. A configuration is the round that produced it, so
``step(config, snap)`` and a snapshot source's ``next_snapshot(config)``
read nothing else of the past. Identical inputs yield bit-identical traces:
robots are always processed in id order and every decision is deterministic.

Id order is an invariant, not a per-round sort: ``initial_configuration``
keys every dict in increasing robot id and ``step`` keeps that order, so
nothing sorts again. RobotRecords are immutable and shared: ``step`` and
``trace_from_jsonl`` take equal records from one table, bounded by the
number of distinct records rather than by the horizon.

A round that repeats the last one shares its robots dict: when every
record a round produces equals the previous round's, ``step`` returns the
previous round's ``robots`` dict itself, so ``ev.robots is prev.robots``
holds for consecutive events exactly when their records are equal. ``run``,
the only code that knows about repeats, reads this sharing and compares the
vars by value to prove that a run cycles, and then copies the cycle's
events instead of stepping them. Consumers of a trace (the checkers, the
JSONL encoder) skip their per-robot work on a repeated event. A decoded
trace shares records, not robots dicts: ``trace_from_jsonl`` builds each
line's dict anew, and those consumers do the full work on every event.

The Look phase reads a per-node grouping: each configuration's ``towers``
maps every occupied node to the vars of the robots on it, built once per
configuration, so ``build_view`` finds a robot's mates in its own tower
instead of scanning every position.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

from .gdg_protocol import Direction, RobotVars, View, compute
from .ring_model import EvolvingRing, Snapshot

# A pluggable per-robot algorithm: View -> (updated vars, fired-rule label).
# It must be a pure function of its View: run copies the rounds it proves
# repeat instead of stepping them, so a compute_fn that keeps state of its
# own is not called on every round.
ComputeFn = Callable[[View], tuple[RobotVars, str]]


class Configuration(NamedTuple):
    """A round's start, held as the round that produced it. Its dicts are
    keyed in increasing robot id and never mutated, so iterating one visits
    robots in id order and a later configuration may share its robots dict
    with an earlier one.

    robots holds that round's records, and last_snap its snapshot: what
    ``run`` puts in the round's TraceEvent. At round 0 they are one
    placement record per robot and the all-absent snapshot. A record
    gives the robot's node and says whether it moved, which ``build_view``
    reports as ``has_moved``. ``step`` compares the next round's records
    with it, and when all are equal it hands on this very dict. The ring's
    size is len(last_snap); ``step`` rejects a snapshot of another length.

    towers maps each occupied node to the vars of the robots on it, in id
    order; ``build_view`` takes a robot's mates from it.

    A NamedTuple, like RobotVars: ``step`` builds one every round, and a
    tuple builds in half the time of a frozen dataclass."""

    round: int
    vars: dict[int, RobotVars]
    robots: dict[int, RobotRecord]
    towers: dict[int, tuple[RobotVars, ...]]  # node -> vars of its robots
    last_snap: Snapshot


@dataclass(frozen=True, slots=True)
class RobotRecord:
    position: int  # node occupied at the end of the round
    state: str
    dir: str
    rule: str  # fired rule, "terminated" for terminated robots, "placed" before round 0
    moved: bool


# The shared records, keyed by their fields.
_RECORDS: dict[tuple[int, str, str, str, bool], RobotRecord] = {}


def _record(position: int, state: str, dir: str, rule: str, moved: bool) -> RobotRecord:
    key = (position, state, dir, rule, moved)
    rec = _RECORDS.get(key)
    if rec is None:
        rec = _RECORDS[key] = RobotRecord(position, state, dir, rule, moved)
    return rec


@dataclass(frozen=True, slots=True)
class TraceEvent:
    round: int
    robots: dict[int, RobotRecord]
    snapshot: Snapshot


@dataclass(frozen=True, slots=True)
class Trace:
    n: int
    R: int
    ids: tuple[int, ...]
    class_claim: Optional[str]
    seed: Optional[int]
    horizon: int
    events: tuple[TraceEvent, ...] = ()


class Stop(NamedTuple):
    """Why a run ended. A "cycle" proves that from round start on the run
    repeats with this period forever."""

    reason: str  # "all_terminated", "horizon" or "cycle"
    start: Optional[int] = None
    period: Optional[int] = None


def _towers(
    robots: dict[int, RobotRecord], vars: dict[int, RobotVars]
) -> dict[int, tuple[RobotVars, ...]]:
    """Group the robots by node. Both dicts are keyed in the same id order,
    so zipping their values pairs each robot's record with its vars and
    every tower comes out in id order."""
    towers: dict[int, list[RobotVars]] = {}
    for rec, me in zip(robots.values(), vars.values()):
        tower = towers.get(rec.position)
        if tower is None:
            towers[rec.position] = [me]
        else:
            tower.append(me)
    return {node: tuple(tower) for node, tower in towers.items()}


def initial_configuration(placement: dict[int, int], n: int) -> Configuration:
    if any(not 0 <= node < n for node in placement.values()):
        raise ValueError("placement node out of range")
    if any(rid <= 0 for rid in placement):  # UNSET is -1, so an id is >= 1
        raise ValueError("robot ids must be strictly positive")
    ids = sorted(placement)
    robots = {rid: _record(placement[rid], "righter", "right", "placed", False) for rid in ids}
    vars = {rid: RobotVars(id=rid) for rid in ids}
    return Configuration(0, vars, robots, _towers(robots, vars), (0,) * n)


def build_view(config: Configuration, snap: Snapshot, robot_id: int) -> View:
    """What one robot looks at: this round's snapshot and the last one.

    At round 0 the last snapshot is all-absent and no placement record has
    moved: the view of a robot with no history, in which no edge was present
    and no robot moved. So round 0 needs no case of its own, in build_view
    or in run's repeat key.
    """
    me = config.vars[robot_id]
    rec = config.robots[robot_id]
    node = rec.position
    tower = config.towers[node]
    if len(tower) == 1:
        mates: tuple[RobotVars, ...] = ()
    else:
        i = tower.index(me)  # ids differ, so only this robot's vars match
        mates = tower[:i] + tower[i + 1 :]
    # Edge i joins node i and node i + 1, so the right edge is snap[node]
    # and the left one snap[node - 1], which wraps to edge n - 1 at node 0.
    # tuple.__new__ builds the View in one C call, skipping the NamedTuple's
    # Python-level __new__; the tuple is in View's field order.
    last_snap = config.last_snap
    return tuple.__new__(
        View,
        (
            me,
            mates,
            bool(snap[node]),
            bool(snap[node - 1]),
            bool(last_snap[node]),
            bool(last_snap[node - 1]),
            rec.moved,
            len(snap),
            len(config.vars),
        ),
    )


def step(
    config: Configuration, snap: Snapshot, compute_fn: ComputeFn = compute
) -> Configuration:
    """One full Look-Compute-Move round. snap is the snapshot of round
    config.round, and nothing else of the schedule is read, so a caller can
    choose each snapshot as the run goes. The result's robots and last_snap
    are the round's records and snapshot."""
    n = len(config.last_snap)
    if len(snap) != n:
        raise ValueError(f"snap must have one edge per node of the {n}-ring")
    last = config.robots
    new_vars: dict[int, RobotVars] = {}
    robots: dict[int, RobotRecord] = {}
    for (rid, vars), rec in zip(config.vars.items(), last.values()):
        node = target = rec.position
        if vars.terminated:
            rule = "terminated"  # no Compute and no Move, so the record is fixed
        else:
            vars, rule = compute_fn(build_view(config, snap, rid))
            # Move, with the edges indexed as in build_view; a step wraps
            # n - 1 -> 0 and 0 -> n - 1.
            if not vars.terminated:
                if vars.dir is Direction.RIGHT:
                    if snap[node]:
                        target = node + 1 if node + 1 < n else 0
                elif vars.dir is Direction.LEFT and snap[node - 1]:
                    target = node - 1 if node else n - 1
        new_vars[rid] = vars
        # Enum's _value_ is the plain attribute behind its slower .value.
        robots[rid] = _record(target, vars.state._value_, vars.dir._value_, rule, target != node)
    # Dict equality tests each value by identity first, and equal records
    # are one object, so a repeated round costs one C-level pass here.
    if robots == last:
        robots = last
    return Configuration(config.round + 1, new_vars, robots, _towers(robots, new_vars), snap)


def run(
    ring: EvolvingRing,
    placement: dict[int, int],
    horizon: int,
    compute_fn: ComputeFn = compute,
    class_claim: Optional[str] = None,
    seed: Optional[int] = None,
) -> tuple[Trace, Stop]:
    """Iterate rounds until all robots terminated or the horizon is reached.

    ring may be any snapshot source with a size n, a
    ``next_snapshot(config)`` that run asks in round order, and a
    ``phase(t)``: all the snapshot reads besides the configuration, each
    phase having one next phase. An EvolvingRing's phase is the round's
    place in its schedule; the adaptive adversary's is None.

    As compute_fn is a pure function of its View, a round is then a function
    of the configuration's dicts and the key (phase, config.last_snap). So
    while rounds hand on the ``robots`` dict and leave the vars equal, a
    round whose key equals that of round start proves that the run repeats
    the rounds from start on forever. run then stops stepping and asking the
    source, and copies those rounds' events up to the horizon.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if len(placement) < 4:
        raise ValueError("at least 4 robots are required")
    config = initial_configuration(placement, ring.n)
    events: list[TraceEvent] = []
    running = len(placement)
    # Key -> round, for the rounds since a step last changed a record or a vars.
    seen: dict[tuple[object, Snapshot], int] = {}
    stop = Stop("horizon")
    while running and config.round < horizon:
        t = config.round
        key = (ring.phase(t), config.last_snap)
        start = seen.get(key)
        if start is not None:
            stop = Stop("cycle", start, t - start)
            # Round r repeats round r - period; every copy shares its robots dict.
            for r in range(t, horizon):
                ev = events[r - stop.period]
                events.append(TraceEvent(r, ev.robots, ev.snapshot))
            break
        last = config
        config = step(config, ring.next_snapshot(config), compute_fn)
        events.append(TraceEvent(t, config.robots, config.last_snap))
        if config.robots is last.robots and config.vars == last.vars:
            seen[key] = t
        else:
            seen.clear()
            running = sum(not v.terminated for v in config.vars.values())
    if not running:
        stop = Stop("all_terminated")
    trace = Trace(
        n=ring.n,
        R=len(placement),
        ids=tuple(sorted(placement)),
        class_claim=class_claim,
        seed=seed,
        horizon=horizon,
        events=tuple(events),
    )
    return trace, stop


# ---------------------------------------------------------------------------
# JSON-lines trace format: one header object, then one object per round.
# ---------------------------------------------------------------------------


def _dumps(obj: object) -> str:
    return json.dumps(obj, separators=(",", ":"))


def trace_to_jsonl(trace: Trace) -> str:
    """Encode a trace. Each line equals _dumps of the same dicts, but is
    assembled from fragments that encode each distinct snapshot and each
    distinct record once per trace, and each robot's id once, and an event
    that shares the previous event's robots dict shares its text."""
    lines = [
        _dumps(
            {
                "n": trace.n,
                "R": trace.R,
                "ids": list(trace.ids),
                "class": trace.class_claim,
                "seed": trace.seed,
                "horizon": trace.horizon,
            }
        )
    ]
    snapshots: dict[Snapshot, str] = {}
    # '"rid":', the key of a robot's entry, by robot id.
    keys: dict[int, str] = {}
    # A record's '{"pos":...}', keyed by record identity, which hashes faster
    # than the record's fields: equal records from step or trace_from_jsonl
    # are one object, and the trace keeps every record alive while it is
    # encoded. The body names no robot, so robots sharing a record share it.
    bodies: dict[int, str] = {}
    last, robots = None, ""
    for ev in trace.events:
        snap = snapshots.get(ev.snapshot)
        if snap is None:
            snap = snapshots[ev.snapshot] = _dumps(list(ev.snapshot))
        if ev.robots is not last:  # a repeated round repeats the text of the last
            last, parts = ev.robots, []
            for rid, rec in last.items():
                key = keys.get(rid)
                if key is None:
                    key = keys[rid] = _dumps(str(rid)) + ":"
                body = bodies.get(id(rec))
                if body is None:
                    body = bodies[id(rec)] = _dumps(
                        {
                            "pos": rec.position,
                            "state": rec.state,
                            "dir": rec.dir,
                            "rule": rec.rule,
                            "moved": rec.moved,
                        }
                    )
                parts.append(key + body)
            robots = ",".join(parts)
        lines.append('{"round":%d,"snapshot":%s,"robots":{%s}}' % (ev.round, snap, robots))
    return "\n".join(lines) + "\n"


def trace_from_jsonl(text: str) -> Trace:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    header = json.loads(lines[0])
    events = []
    for ln in lines[1:]:
        doc = json.loads(ln)
        robots = {
            int(rid): _record(rec["pos"], rec["state"], rec["dir"], rec["rule"], rec["moved"])
            for rid, rec in doc["robots"].items()
        }
        events.append(TraceEvent(doc["round"], robots, tuple(doc["snapshot"])))
    return Trace(
        n=header["n"],
        R=header["R"],
        ids=tuple(header["ids"]),
        class_claim=header["class"],
        seed=header["seed"],
        horizon=header["horizon"],
        events=tuple(events),
    )
