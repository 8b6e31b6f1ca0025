"""Synchronous Look-Compute-Move execution producing replayable traces.

All robots compute against the same frozen configuration, then move
simultaneously. A configuration is the round that produced it, so
``step(config, snap)`` and a snapshot source's ``next_snapshot(config)``
read nothing else of the past. Identical inputs yield bit-identical traces:
robots are always processed in id order and every decision is deterministic.

Id order is an invariant, not a per-round sort: ``initial_configuration``
keys every dict in increasing robot id and ``step`` keeps that order, so
nothing sorts again. ``step`` groups the next round's towers in the pass
that builds its records, so every tower lists its robots in id order too.

A trace shares equal parts as one object. Four places create the sharing:
- ``_record`` gives equal records as one object, to ``step`` and
  ``trace_from_jsonl``, from a cache bounded by the number of distinct
  records rather than by the horizon. A record's state and dir are checked
  on the cache's miss path, so once per distinct record, never per round.
- ``step`` returns the previous round's ``robots`` dict itself when every
  record it produces is that round's record object. Records from
  ``_record`` are equal exactly when they are one object, so this is
  record equality. A hand-built configuration whose records are equal but
  not interned gets the interned records in a dict of its own.
- ``run``'s copies after a proven cycle take the cycle's one ``robots`` dict
  and the snapshot objects of its rounds.
- ``trace_from_jsonl`` hands on the previous event's ``robots`` dict when
  the event's records equal it.
So in every trace that ``run`` or ``trace_from_jsonl`` makes,
``ev.robots is prev.robots`` holds for consecutive events exactly when
their records are equal. Four places read it, and skip work on an event
that repeats the last:
- ``run`` keeps its repeat key only while rounds hand on the ``robots``
  dict, and compares the vars by value to prove that a run cycles.
- ``_termination_info`` skips the event, as it fires no rule anew.
- ``monitor_invariants`` copies the violations of the event before.
- ``trace_to_jsonl`` reuses the robots text it built for the same
  ``robots`` dict and the snapshot text it built for the same snapshot
  object, which it keys by identity, and builds no line tail.
"""

from __future__ import annotations

import functools
import itertools
import json
import operator
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _string
from typing import Callable, NamedTuple, Optional

from .gdg_protocol import BIT, DIRECTIONS, LEFT, RIGHT, RIGHTER, RobotVars, View, compute
from .ring_model import EvolvingRing, Snapshot

# A pluggable per-robot algorithm: View -> (updated vars, fired-rule label).
# It must be a pure function of its View: run copies the rounds it proves
# repeat instead of stepping them, so a compute_fn that keeps state of its
# own is not called on every round. Its vars' state and dir must be
# gdg_protocol's strings: step's _record raises a ValueError on any other.
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
    with it by identity, and when all are the same objects it hands on this
    very dict. The ring's size is len(last_snap); ``step`` rejects a
    snapshot of another length.

    towers maps each occupied node to the vars of the robots on it, in id
    order; ``build_view`` takes a robot's mates from it. ``step`` groups
    them while it builds the records, in the same pass.

    A NamedTuple, like RobotVars: ``step`` builds one every round, and a
    tuple builds in half the time of a frozen dataclass. ``step`` builds it
    with ``tuple.__new__``, as ``build_view`` builds a View, which skips
    the NamedTuple's Python-level __new__; ``run`` builds its TraceEvents
    the same way."""

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


def _new_record(position: int, state: str, dir: str, rule: str, moved: bool) -> RobotRecord:
    """A record that is not in the cache yet. Its state and dir must be
    gdg_protocol's, as the decoder reads them back: a compute_fn's other
    strings would write a trace that trace_from_jsonl rejects."""
    # BIT's keys are the states, and a dict finds one by hash.
    if not (state in BIT and dir in DIRECTIONS):
        raise ValueError(f"not a robot state and a direction: {state!r}, {dir!r}")
    return RobotRecord(position, state, dir, rule, moved)


# The shared records: every caller passes the five fields positionally, so
# equal fields hit one cache entry and give one object.
_record = functools.cache(_new_record)

# run recounts its running robots with it, in C.
_TERMINATED = operator.attrgetter("terminated")


class TraceEvent(NamedTuple):
    """One round of a trace: its number, its records and its snapshot.

    A NamedTuple, like Configuration: a run of 10,000 rounds builds 10,000
    events, and a tuple builds in half the time of a frozen dataclass. A
    field reads faster by name than by unpacking the event, which CPython
    does not specialise for tuple subclasses, so a loop that reads one field
    of most events reads it by name."""

    round: int
    robots: dict[int, RobotRecord]
    snapshot: Snapshot


class Trace(NamedTuple):
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
        towers.setdefault(rec.position, []).append(me)
    return {node: tuple(tower) for node, tower in towers.items()}


def initial_configuration(placement: dict[int, int], n: int) -> Configuration:
    """Round 0 of a run on the n-ring. placement maps each robot id, an int
    >= 1, to its node, an int in range(n). Both must be exactly ints: a bool
    or a float equal to one would enter the trace as true or 1.0."""
    if not {int}.issuperset(map(type, itertools.chain(placement, placement.values()))):
        raise ValueError("robot ids and placement nodes must be ints, not bools or floats")
    if any(not 0 <= node < n for node in placement.values()):
        raise ValueError("placement node out of range")
    if any(rid <= 0 for rid in placement):  # UNSET is -1, so an id is >= 1
        raise ValueError("robot ids must be strictly positive")
    ids = sorted(placement)
    robots = {rid: _record(placement[rid], RIGHTER, RIGHT, "placed", False) for rid in ids}
    vars = {rid: RobotVars(id=rid) for rid in ids}
    return Configuration(0, vars, robots, _towers(robots, vars), (0,) * n)


def build_view(config: Configuration, snap: Snapshot, robot_id: int) -> View:
    """What one robot looks at: its right edge this round, its left edge last.

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
    # and the left one last_snap[node - 1], which wraps to edge n - 1 at
    # node 0. tuple.__new__ builds the View in one C call, skipping the
    # NamedTuple's Python-level __new__; the tuple is in View's field order.
    return tuple.__new__(
        View,
        (
            me,
            mates,
            bool(snap[node]),
            bool(config.last_snap[node - 1]),
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
    are the round's records and snapshot. A record holds its robot's state
    and dir as the robot's vars do: the strings of gdg_protocol, which are
    the text a trace writes."""
    n = len(config.last_snap)
    if len(snap) != n:
        raise ValueError(f"snap must have one edge per node of the {n}-ring")
    last = config.robots
    new_vars: dict[int, RobotVars] = {}
    robots: dict[int, RobotRecord] = {}
    grouped: dict[int, list[RobotVars]] = {}  # node -> vars, as in _towers
    for (rid, vars), rec in zip(config.vars.items(), last.values()):
        node = target = rec.position
        if vars.terminated:
            rule = "terminated"  # no Compute and no Move, so the record is fixed
        else:
            vars, rule = compute_fn(build_view(config, snap, rid))
            # Move, with the edges indexed as in build_view; a step wraps
            # n - 1 -> 0 and 0 -> n - 1.
            if not vars.terminated:
                if vars.dir == RIGHT:
                    if snap[node]:
                        target = node + 1 if node + 1 < n else 0
                elif vars.dir == LEFT and snap[node - 1]:
                    target = node - 1 if node else n - 1
        new_vars[rid] = vars
        robots[rid] = _record(target, vars.state, vars.dir, rule, target != node)
        grouped.setdefault(target, []).append(vars)
    # Records from _record are equal exactly when they are one object, so in
    # a run this identity test is record equality. Dict equality would call
    # RobotRecord's Python-level __eq__ on the first pair that differs; map
    # and operator.is_ stay in C.
    if all(map(operator.is_, robots.values(), last.values())):
        robots = last
    towers = {node: tuple(tower) for node, tower in grouped.items()}
    return tuple.__new__(Configuration, (config.round + 1, new_vars, robots, towers, snap))


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
    # The placement first: a bad id can make a caller's horizon bad too. Then
    # the values the trace header records, by the decoder's own tests in
    # _HEADER, so that every trace run writes decodes.
    config = initial_configuration(placement, ring.n)
    if not _VALID["horizon"](horizon):
        raise ValueError(f"horizon must be >= 1 and an int, not {horizon!r}")
    for field, value, kind in (("class_claim", class_claim, "a str"), ("seed", seed, "an int")):
        if not _VALID[field](value):
            raise ValueError(f"{field} must be None or {kind}, not {value!r}")
    if len(placement) < 4:
        raise ValueError("at least 4 robots are required")
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
            # Every round of the cycle handed on config.robots, so every copy
            # shares it, and round r shares round r - period's snapshot object.
            # map, zip and itertools build the copies in C, each by one
            # tuple.__new__ call.
            snapshots = itertools.cycle([ev.snapshot for ev in events[start:]])
            copies = zip(range(t, horizon), itertools.repeat(config.robots), snapshots)
            events += map(tuple.__new__, itertools.repeat(TraceEvent), copies)
            break
        last = config
        config = step(config, ring.next_snapshot(config), compute_fn)
        events.append(tuple.__new__(TraceEvent, (t, config.robots, config.last_snap)))
        if config.robots is last.robots and config.vars == last.vars:
            seen[key] = t
        else:
            seen.clear()
            running = sum(map(operator.not_, map(_TERMINATED, config.vars.values())))
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


def _at_least(low: int) -> Callable[[object], bool]:
    # type, not isinstance: a bool, which JSON's true and false decode to, is no int here.
    return lambda value: type(value) is int and value >= low


# The layout: the header line's keys for a Trace, as (JSON key, field, test of
# the decoded value) triples, and each robot's keys in an event line, in
# RobotRecord's field order, as _record_text writes them. A header holds only
# values a run writes: a ring of n >= 4 nodes (EvolvingRing's floor), R >= 4
# robots (run's) and distinct ids >= 1 (initial_configuration's).
_HEADER = (
    ("n", "n", _at_least(4)),
    ("R", "R", _at_least(4)),
    ("ids", "ids", lambda value: type(value) is list and all(map(_at_least(1), value))
     and len(set(value)) == len(value)),
    ("class", "class_claim", lambda value: value is None or type(value) is str),
    ("seed", "seed", lambda value: value is None or type(value) is int),
    ("horizon", "horizon", _at_least(1)),
)
# Each Trace field's test, for run, which checks the values it writes.
_VALID = {field: valid for _, field, valid in _HEADER}
_RECORD = ("pos", "state", "dir", "rule", "moved")


def _record_text(rec: RobotRecord) -> str:
    """The text json.dumps gives a record's object, keyed as in _RECORD."""
    moved = "true" if rec.moved else "false"
    return (f'{{"pos":{rec.position},"state":{_string(rec.state)},"dir":{_string(rec.dir)},'
            f'"rule":{_string(rec.rule)},"moved":{moved}}}')


def trace_to_jsonl(trace: Trace) -> str:
    """Encode a trace. Each line equals json.dumps of the same dicts, with
    separators (",", ":"), plus a newline, but is built as three appends:
    its round head '{"round":t', its snapshot's text ',"snapshot":[...],'
    and its robots dict's text '"robots":{...}}\n', and all lines are
    joined once.

    The robots text is built once per stretch of events that share one
    robots dict, from fragments that encode each distinct record once per
    trace; each robot's key is built once, from trace.ids, so a robot whose
    id is not in trace.ids raises a KeyError. The snapshot text is built
    once per snapshot object and reused with no lookup while consecutive
    events hold that object, so a repeated round costs one format and three
    appends. Snapshot text and records are keyed by identity, which hashes
    faster than their fields: the trace keeps every snapshot and record
    alive while it is encoded, so no id is reused. Equal records from step
    or trace_from_jsonl are one object; equal snapshots that are distinct
    objects are encoded apart.

    Each value has one path, as it is exact where it enters a run:
    initial_configuration takes only int ids and nodes, EvolvingRing only
    the int bits 0 and 1, and step writes int positions and bool moved
    flags. So an id, a position and a bit are written as their str, and a
    string (state, dir, rule) through json's own escaper. json.dumps is
    called once per trace, for the header: given separators it builds a new
    JSONEncoder on every call, which on a shared 2-core Xeon host with
    Python 3.11.7 took 4.4 us for a record, 1.3 us for a robot's key and
    3.4 us for an 8-bit snapshot, where a format took 0.9, 0.1 and 1.4 us."""
    header = {key: getattr(trace, field) for key, field, _ in _HEADER}
    out = [json.dumps(header, separators=(",", ":")) + "\n"]
    append = out.append
    keys = {rid: f'"{rid}":' for rid in trace.ids}  # the key of a robot's entry
    # A record's '{"pos":...}', by id(record). The body names no robot, so
    # robots sharing a record share it.
    bodies: dict[int, str] = {}
    snapshots: dict[int, str] = {}  # id(snapshot) -> its text
    last = last_snap = None  # no event holds None, so the first builds both texts
    for t, robots, snap in trace.events:
        if robots is not last:
            last, parts = robots, []
            for rid, rec in robots.items():
                body = bodies.get(id(rec))
                if body is None:
                    body = bodies[id(rec)] = _record_text(rec)
                parts.append(keys[rid] + body)
            robots_text = '"robots":{%s}}\n' % ",".join(parts)
        if snap is not last_snap:
            last_snap, snap_text = snap, snapshots.get(id(snap))
            if snap_text is None:
                snap_text = snapshots[id(snap)] = f',"snapshot":{list(snap)},'.replace(" ", "")
        append(f'{{"round":{t}')  # an f-string formats an int faster than %d
        append(snap_text)
        append(robots_text)
    return "".join(out)


def trace_from_jsonl(text: str) -> Trace:
    """Decode a trace. Equal records and equal snapshots are shared objects,
    and an event whose records equal the previous event's shares its robots
    dict, as in a run.
    Text without a header line, a header that is not an object, lacks one of
    its six keys or holds a value of the wrong type, and an event line that
    lacks a key or is malformed raise a ValueError naming what is wrong, and
    an event line's error gives its line number in the text, blank lines
    counted. n, R, horizon, each id, a round and each snapshot bit must be
    ints, not bools. As a run writes them, n and R are at least 4, the ids
    are distinct and at least 1 and R counts them; the horizon is at least 1
    and at least the number of event lines, and event line i (from 0) holds
    round i; a snapshot holds n bits, each 0 or 1. An event's robot keys are
    the header's ids, each written as str(id), in any order; the decoded
    robots dict is in the header's id order. A record's pos
    is an int in range(n), not a bool; its state is one of
    gdg_protocol.ALL_STATES and its dir one of DIRECTIONS; its rule is any
    string, since compute_fn may label its rules as it likes; and its moved
    is a bool."""
    # Numbered before the blank lines are dropped, so that an error names its
    # line as the text counts it.
    lines = [(number, ln) for number, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not lines:
        raise ValueError("a trace needs a header line")
    header = json.loads(lines[0][1])
    if not isinstance(header, dict):
        raise ValueError("a trace header must be a JSON object")
    missing = [key for key, _, _ in _HEADER if key not in header]
    if missing:
        raise ValueError(f"the trace header lacks the keys {', '.join(missing)}")
    wrong = [key for key, _, valid in _HEADER if not valid(header[key])]
    if not wrong and header["R"] != len(header["ids"]):
        wrong.append("R")
    # run writes at most horizon events.
    if not wrong and header["horizon"] < len(lines) - 1:
        wrong.append("horizon")
    if wrong:
        raise ValueError(f"the trace header has a wrong value for {', '.join(wrong)}")
    fields = {field: header[key] for key, field, _ in _HEADER}
    ids = fields["ids"] = tuple(fields["ids"])
    n = fields["n"]
    names = {str(rid): rid for rid in ids}  # robot key -> id, as trace_to_jsonl writes it
    record_fields = operator.itemgetter(*_RECORD)
    events = []
    # Equal snapshots become one object, as equal records do, so that
    # trace_to_jsonl, which keys snapshot text by identity, encodes each once.
    snapshots: dict[Snapshot, Snapshot] = {}
    for number, ln in lines[1:]:
        try:
            doc = json.loads(ln)
            robots, entries = {}, doc["robots"]
            if entries.keys() != names.keys():
                raise ValueError(f"the robot keys {list(entries)} are not the ids {ids}")
            # In the header's id order, whatever order the line lists them in.
            for name, rid in names.items():
                rec = entries[name]
                pos, _, _, rule, moved = values = record_fields(rec)
                # Checked before the cache, which keys 1 and True alike;
                # _record checks the state and dir.
                if not (type(pos) is int and 0 <= pos < n and type(rule) is str
                        and type(moved) is bool):
                    raise ValueError(
                        f"the record {rec!r} needs a node of the {n}-ring, a rule string "
                        "and a bool moved"
                    )
                robots[rid] = _record(*values)
            if events and robots == events[-1].robots:
                robots = events[-1].robots  # shared, as run shares equal rounds
            t, snap = doc["round"], doc["snapshot"]
            if not (type(t) is int and t == len(events)):
                raise ValueError(f"the round {t!r} is not the event's position {len(events)}")
            # Both tests run in C; equal values alone would let true and 1.0 in.
            if not (type(snap) is list and len(snap) == n and {0, 1}.issuperset(snap)
                    and {int}.issuperset(map(type, snap))):
                raise ValueError(f"the snapshot {snap!r} is not a list of {n} bits 0 or 1")
            snap = tuple(snap)
            events.append(TraceEvent(t, robots, snapshots.setdefault(snap, snap)))
        except KeyError as key:
            raise ValueError(f"trace line {number} lacks the key {key.args[0]}") from None
        except (AttributeError, TypeError, ValueError) as exc:
            # Not JSON, not an object (the line, its robots or a record), robot
            # keys that are not the ids, a record with a wrong value, a
            # round that is not the event's position, or a snapshot that is
            # not a list of n bits.
            raise ValueError(f"trace line {number} is malformed: {exc}") from None
    return Trace(**fields, events=tuple(events))
