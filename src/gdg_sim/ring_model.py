"""Dynamic rings as eventually-periodic evolving graphs.

A ring on n nodes has edges indexed 0..n-1, edge i joining node i and
node (i+1) mod n. "Right" is the direction of increasing node index;
robots share this orientation but never read the indices themselves.

The infinite presence schedule is stored as a finite prefix plus a
repeating cycle, which makes recurrence and window properties decidable.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:
    from .sim_engine import Configuration

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
    """One of the five dynamics classes; delta only applies to BRE, and is
    exactly an int there: 2.5 and True are refused."""

    tag: str
    delta: Optional[int] = None

    def __post_init__(self) -> None:
        if self.tag not in CLASS_TAGS:
            raise ValueError(f"unknown dynamics class {self.tag!r}")
        if self.tag == BRE:
            if type(self.delta) is not int or self.delta < 1:
                raise ValueError(f"BRE requires delta >= 1, an int, not {self.delta!r}")
        elif self.delta is not None:
            raise ValueError(f"delta is only meaningful for BRE, not {self.tag}")


@dataclass(frozen=True, slots=True)
class Schedule:
    prefix: tuple[Snapshot, ...]
    cycle: tuple[Snapshot, ...]

    def __post_init__(self) -> None:
        if not self.cycle:
            raise ValueError("cycle must be non-empty")


@dataclass(frozen=True, slots=True)
class EvolvingRing:
    """A ring of n >= 4 nodes and its schedule. n is exactly an int, and
    every snapshot holds n bits, each exactly the int 0 or 1: True, False,
    1.0 and 0.0 equal a bit but are refused, as a trace would write them as
    true, false, 1.0 and 0.0."""

    n: int
    schedule: Schedule

    def __post_init__(self) -> None:
        if type(self.n) is not int:  # 4.0, "4" and True are refused
            raise ValueError(f"ring size must be an int, not {self.n!r}")
        if self.n < 4:
            raise ValueError("ring size must be >= 4")
        snaps = self.schedule.prefix + self.schedule.cycle
        for snap in snaps:
            if len(snap) != self.n:
                raise ValueError("snapshot length must equal ring size")
        # Types first, so the union sees only hashable ints; both tests run in C.
        if not ({int}.issuperset(map(type, itertools.chain.from_iterable(snaps)))
                and set().union(*snaps) <= {0, 1}):
            raise ValueError("schedule bits must be the ints 0 or 1")

    def phase(self, t: int) -> int:
        """Round t's place in prefix + cycle; rounds of one phase get one snapshot."""
        if t < 0:
            raise ValueError("round index must be >= 0")
        p = len(self.schedule.prefix)
        return t if t < p else p + (t - p) % len(self.schedule.cycle)

    def snapshot(self, t: int) -> Snapshot:
        prefix = self.schedule.prefix
        p = self.phase(t)
        return prefix[p] if p < len(prefix) else self.schedule.cycle[p - len(prefix)]

    def next_snapshot(self, config: Configuration) -> Snapshot:
        return self.snapshot(config.round)


def static_ring(n: int) -> EvolvingRing:
    """The ring whose every snapshot is the full footprint."""
    return EvolvingRing(n, Schedule(prefix=(), cycle=((1,) * n,)))


def _present(snaps: tuple[Snapshot, ...]) -> set[int]:
    """Edges present in at least one of the snapshots."""
    return {e for snap in snaps for e, bit in enumerate(snap) if bit}


def footprint(ring: EvolvingRing) -> set[int]:
    """Edges present at least once anywhere in the schedule."""
    return _present(ring.schedule.prefix + ring.schedule.cycle)


def eventual_underlying(ring: EvolvingRing) -> set[int]:
    """Edges present at least once per cycle, i.e. the recurrent edges."""
    return _present(ring.schedule.cycle)


def remove_edge_interval(ring: EvolvingRing, e: int, t_start: int, t_end: int) -> EvolvingRing:
    """Copy of the ring with edge e forced absent on [t_start, t_end].

    The schedule is unrolled far enough that the masked rounds sit in the
    prefix, and the original cycle is kept with its phase realigned.
    """
    if not 0 <= e < ring.n:
        raise ValueError("edge out of range")
    if t_start < 0:
        raise ValueError("interval start must be >= 0")
    if t_start > t_end:
        raise ValueError("invalid interval: start > end")
    sched = ring.schedule
    horizon = max(t_end + 1, len(sched.prefix))
    prefix = [ring.snapshot(t) for t in range(horizon)]
    for t in range(t_start, t_end + 1):
        prefix[t] = prefix[t][:e] + (0,) + prefix[t][e + 1 :]
    shift = (horizon - len(sched.prefix)) % len(sched.cycle)
    cycle = sched.cycle[shift:] + sched.cycle[:shift]
    return EvolvingRing(ring.n, Schedule(tuple(prefix), cycle))


def verify_class(ring: EvolvingRing, c: DynClass) -> bool:
    """Decide membership of the ring in a dynamics class. Every class needs
    the whole ring: if some edge is never present, the footprint is a chain
    and the ring is in no class."""
    n = ring.n
    snaps = ring.schedule.prefix + ring.schedule.cycle
    # ST and AC test each snapshot alone, so each distinct one is tested once
    # (for AC, once the footprint is known to be whole).
    if c.tag == ST:
        return all(all(snap) for snap in set(snaps))
    if len(footprint(ring)) < n:
        return False
    # A subgraph of a ring is connected on all n nodes iff at most one ring
    # edge is missing: AC asks it of every snapshot, COT of the recurrent edges.
    if c.tag == AC:
        return all(snap.count(0) <= 1 for snap in set(snaps))
    recurrent = eventual_underlying(ring)
    if c.tag == RE:
        return len(recurrent) == n
    if c.tag == COT:
        return len(recurrent) >= n - 1
    # BRE(delta): every edge occurs in every delta-window of the schedule
    # unrolled over the prefix plus two full cycles (windows can straddle
    # the prefix/cycle seam). Once every edge recurs, a window longer than
    # that contains a whole cycle and so every edge: there the window loop
    # is empty and the ring is BRE.
    assert c.tag == BRE and c.delta is not None
    delta = c.delta
    if len(recurrent) < n:
        return False
    unrolled = list(ring.schedule.prefix) + list(ring.schedule.cycle) * 2
    for start in range(len(unrolled) - delta + 1):
        window = unrolled[start : start + delta]
        for e in range(n):
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


def _snapshots_from_json(rows: object) -> tuple[Snapshot, ...]:
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise ValueError("prefix and cycle must be lists of snapshots")
    return tuple(tuple(row) for row in rows)


def ring_from_json(text: str) -> EvolvingRing:
    doc = json.loads(text)
    if not isinstance(doc, dict) or set(doc) != {"n", "prefix", "cycle"}:
        raise ValueError('a schedule must be an object with the keys "n", "prefix" and "cycle"')
    prefix = _snapshots_from_json(doc["prefix"])
    cycle = _snapshots_from_json(doc["cycle"])
    return EvolvingRing(doc["n"], Schedule(prefix, cycle))
