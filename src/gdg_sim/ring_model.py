"""Dynamic rings as eventually-periodic evolving graphs.

A ring on n nodes has edges indexed 0..n-1, edge i joining node i and
node (i+1) mod n. "Right" is the direction of increasing node index;
robots share this orientation but never read the indices themselves.

The infinite presence schedule is stored as a finite prefix plus a
repeating cycle, which makes recurrence and window properties decidable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

Snapshot = tuple[int, ...]  # present[i] == 1 iff edge i exists this round

# Inclusion order: ST < BRE < RE < COT and ST < AC < COT.
COT = "cot"
RE = "re"
BRE = "bre"
AC = "ac"
ST = "st"
CLASS_TAGS = (COT, RE, BRE, AC, ST)


@dataclass(frozen=True, slots=True)
class DynClass:
    """One of the five dynamics classes; delta only applies to BRE."""

    tag: str
    delta: Optional[int] = None

    def __post_init__(self) -> None:
        if self.tag not in CLASS_TAGS:
            raise ValueError(f"unknown dynamics class {self.tag!r}")
        if self.tag == BRE:
            if self.delta is None or self.delta < 1:
                raise ValueError("BRE requires delta >= 1")
        elif self.delta is not None:
            raise ValueError(f"delta is only meaningful for BRE, not {self.tag}")


@dataclass(frozen=True, slots=True)
class Schedule:
    prefix: tuple[Snapshot, ...]
    cycle: tuple[Snapshot, ...]

    def __post_init__(self) -> None:
        if not self.cycle:
            raise ValueError("cycle must be non-empty")

    def at(self, t: int) -> Snapshot:
        if t < 0:
            raise ValueError("round index must be >= 0")
        if t < len(self.prefix):
            return self.prefix[t]
        return self.cycle[(t - len(self.prefix)) % len(self.cycle)]


@dataclass(frozen=True, slots=True)
class EvolvingRing:
    n: int
    schedule: Schedule

    def __post_init__(self) -> None:
        if self.n < 4:
            raise ValueError("ring size must be >= 4")
        snaps = self.schedule.prefix + self.schedule.cycle
        for snap in snaps:
            if len(snap) != self.n:
                raise ValueError("snapshot length must equal ring size")
        if not set().union(*snaps) <= {0, 1}:
            raise ValueError("schedule bits must be 0 or 1")

    def snapshot(self, t: int) -> Snapshot:
        return self.schedule.at(t)


def static_ring(n: int) -> EvolvingRing:
    """The ring whose every snapshot is the full footprint."""
    return EvolvingRing(n, Schedule(prefix=(), cycle=((1,) * n,)))


def edge_present(ring: EvolvingRing, e: int, t: int) -> bool:
    return bool(ring.snapshot(t)[e])


def right_edge_of(v: int, n: int) -> int:
    return v


def left_edge_of(v: int, n: int) -> int:
    return (v - 1) % n


def step_right(v: int, n: int) -> int:
    return (v + 1) % n


def step_left(v: int, n: int) -> int:
    return (v - 1) % n


def footprint(ring: EvolvingRing) -> set[int]:
    """Edges present at least once anywhere in the schedule."""
    present: set[int] = set()
    for snap in ring.schedule.prefix + ring.schedule.cycle:
        present.update(e for e, bit in enumerate(snap) if bit)
    return present


def eventual_underlying(ring: EvolvingRing) -> set[int]:
    """Edges present at least once per cycle, i.e. the recurrent edges."""
    present: set[int] = set()
    for snap in ring.schedule.cycle:
        present.update(e for e, bit in enumerate(snap) if bit)
    return present


def _mask_edge(snap: Snapshot, e: int) -> Snapshot:
    return snap[:e] + (0,) + snap[e + 1 :]


def _unroll(ring: EvolvingRing, upto: int) -> list[Snapshot]:
    return [ring.snapshot(t) for t in range(upto)]


def remove_edge_interval(
    ring: EvolvingRing, e: int, t_start: int, t_end: Optional[int]
) -> EvolvingRing:
    """Copy of the ring with edge e forced absent on [t_start, t_end].

    t_end=None means "forever": the cycle is re-baked with e masked and the
    prefix extended to t_start so the representation stays closed.
    """
    if t_start < 0:
        raise ValueError("interval start must be >= 0")
    if t_end is not None and t_start > t_end:
        raise ValueError("invalid interval: start > end")
    sched = ring.schedule
    if t_end is None:
        # Extend the prefix to t_start, mask e from there on, and re-bake the
        # cycle with e absent; the cycle phase at t_start is preserved.
        cut = max(t_start, len(sched.prefix))
        prefix = list(_unroll(ring, cut))
        for t in range(t_start, cut):
            prefix[t] = _mask_edge(prefix[t], e)
        shift = (cut - len(sched.prefix)) % len(sched.cycle)
        cycle = sched.cycle[shift:] + sched.cycle[:shift]
        cycle = tuple(_mask_edge(s, e) for s in cycle)
        return EvolvingRing(ring.n, Schedule(tuple(prefix), cycle))
    # Finite interval: unroll far enough that the masked region sits in the
    # prefix, then keep the original cycle with its phase realigned.
    horizon = max(t_end + 1, len(sched.prefix))
    prefix = list(_unroll(ring, horizon))
    for t in range(t_start, t_end + 1):
        prefix[t] = _mask_edge(prefix[t], e)
    shift = (horizon - len(sched.prefix)) % len(sched.cycle)
    cycle = sched.cycle[shift:] + sched.cycle[:shift]
    return EvolvingRing(ring.n, Schedule(tuple(prefix), cycle))


def splice(a: EvolvingRing, t: int, b: EvolvingRing) -> EvolvingRing:
    """Ring equal to a up to round t and to b strictly after."""
    if a.n != b.n:
        raise ValueError("cannot splice rings of different sizes")
    cut = max(t + 1, len(b.schedule.prefix))
    prefix = tuple(_unroll(a, t + 1)) + tuple(
        b.snapshot(s) for s in range(t + 1, cut)
    )
    shift = (cut - len(b.schedule.prefix)) % len(b.schedule.cycle)
    cycle = b.schedule.cycle[shift:] + b.schedule.cycle[:shift]
    return EvolvingRing(a.n, Schedule(prefix, cycle))


def _ring_connected_with_edges(n: int, edges: set[int]) -> bool:
    # A subgraph of a ring is connected on all n nodes iff at most one ring
    # edge is missing.
    return n - len(edges) <= 1


def verify_class(ring: EvolvingRing, c: DynClass) -> bool:
    """Decide membership of the ring in a dynamics class."""
    n = ring.n
    snaps = ring.schedule.prefix + ring.schedule.cycle
    # ST and AC test each snapshot alone, so each distinct one is tested once.
    if c.tag == ST:
        return all(all(snap) for snap in set(snaps))
    if c.tag == AC:
        return all(
            _ring_connected_with_edges(n, {e for e, b in enumerate(s) if b}) for s in set(snaps)
        )
    fp = footprint(ring)
    recurrent = eventual_underlying(ring)
    if c.tag == RE:
        return fp <= recurrent
    if c.tag == COT:
        return _ring_connected_with_edges(n, recurrent)
    # BRE(delta): every footprint edge occurs in every delta-window of the
    # schedule unrolled over the prefix plus two full cycles (windows can
    # straddle the prefix/cycle seam).
    assert c.tag == BRE and c.delta is not None
    delta = c.delta
    if not fp <= recurrent:
        return False
    unrolled = list(ring.schedule.prefix) + list(ring.schedule.cycle) * 2
    if len(unrolled) < delta:
        unrolled = list(ring.schedule.prefix) + list(ring.schedule.cycle) * (
            2 + -(-delta // len(ring.schedule.cycle))
        )
    for start in range(len(unrolled) - delta + 1):
        window = unrolled[start : start + delta]
        for e in fp:
            if not any(snap[e] for snap in window):
                return False
    return True


def ring_to_json(ring: EvolvingRing) -> str:
    doc = {
        "n": ring.n,
        "prefix": [list(s) for s in ring.schedule.prefix],
        "cycle": [list(s) for s in ring.schedule.cycle],
    }
    return json.dumps(doc, separators=(",", ":"))


def _snapshot_from_json(row: list) -> Snapshot:
    snap = tuple(int(b) for b in row)
    if snap != tuple(row):  # int() would turn 0.5 into a valid-looking 0
        raise ValueError("schedule bits must be 0 or 1")
    return snap


def ring_from_json(text: str) -> EvolvingRing:
    doc = json.loads(text)
    prefix = tuple(_snapshot_from_json(row) for row in doc["prefix"])
    cycle = tuple(_snapshot_from_json(row) for row in doc["cycle"])
    return EvolvingRing(int(doc["n"]), Schedule(prefix, cycle))
