"""Seeded ring generators per dynamics class, plus the adaptive adversary.

The adaptive adversary targets two robots of a deterministic algorithm on
an always-connected ring. It is a snapshot source that ``sim_engine.run``
drives like a ring: each round it withholds the edge between the targets
when they are adjacent, and at distance two forks the execution one round
ahead to decide whether a single edge removal is needed. Every snapshot
misses at most one edge, so every round is connected by construction, and
the only ring built is the schedule it emits.
"""

from __future__ import annotations

import random
from typing import NamedTuple, Optional

from .ring_model import (
    AC,
    BRE,
    COT,
    RE,
    ST,
    DynClass,
    EvolvingRing,
    Schedule,
    Snapshot,
    static_ring,
    verify_class,
)
from . import sim_engine
from .sim_engine import ComputeFn, Configuration, Stop, Trace, compute


# Longest cycle, and longest RE prefix, that generate draws.
CYCLE_BUDGET = 8
PREFIX_BUDGET = 6


class GeneratorSpec(NamedTuple):
    dyn_class: DynClass
    n: int
    seed: int


def _absent_one(n: int, e: int) -> Snapshot:
    """The snapshot of an n-ring that misses edge e alone."""
    return tuple(0 if i == e else 1 for i in range(n))


def _recurrent_cycle(
    rng: random.Random, n: int, length: int, dead: Optional[int] = None
) -> tuple[Snapshot, ...]:
    """`length` random rows of n edge bits in which every edge but `dead`
    recurs: in edge order, `dead` is zeroed in every row and an edge in no
    row gets one random slot."""
    rows = [[rng.randint(0, 1) for _ in range(n)] for _ in range(length)]
    for e in range(n):
        if e == dead:
            for row in rows:
                row[e] = 0
        elif not any(row[e] for row in rows):
            rows[rng.randrange(length)][e] = 1
    return tuple(tuple(row) for row in rows)


def generate(spec: GeneratorSpec) -> EvolvingRing:
    """Build a ring in the requested class; the result is post-checked."""
    n = spec.n
    if n < 4:  # before a draw divides by n or picks from range(n)
        raise ValueError("ring size must be >= 4")
    rng = random.Random(spec.seed)
    tag = spec.dyn_class.tag

    if tag == ST:
        ring = static_ring(n)
    elif tag == AC:
        length = rng.randint(2, CYCLE_BUDGET)
        snaps = tuple(_absent_one(n, i % n) for i in range(length))
        ring = EvolvingRing(n, Schedule((), snaps))
    elif tag == BRE:
        delta = spec.dyn_class.delta
        assert delta is not None and delta >= 1
        length = delta * rng.randint(1, max(1, CYCLE_BUDGET // delta))
        # Each edge gets one guaranteed slot per delta-aligned block, so any
        # window of delta consecutive rounds hits it; other slots are random.
        phases = [rng.randrange(delta) for _ in range(n)]
        snaps = []
        for t in range(length):
            snaps.append(
                tuple(
                    1 if t % delta == phases[e] else rng.randint(0, 1)
                    for e in range(n)
                )
            )
        ring = EvolvingRing(n, Schedule((), tuple(snaps)))
    elif tag == RE:
        cycle = _recurrent_cycle(rng, n, rng.randint(1, CYCLE_BUDGET))
        prefix_len = rng.randint(0, PREFIX_BUDGET)
        prefix = tuple(tuple(rng.randint(0, 1) for _ in range(n)) for _ in range(prefix_len))
        ring = EvolvingRing(n, Schedule(prefix, cycle))
    elif tag == COT:
        e = rng.randrange(n)
        # The edge exists in at least one round before it dies for good.
        prefix = ((1,) * n,) * rng.randint(1, 20)
        cycle = _recurrent_cycle(rng, n, rng.randint(1, CYCLE_BUDGET), dead=e)
        ring = EvolvingRing(n, Schedule(prefix, cycle))
    else:
        raise ValueError(f"unknown dynamics class {tag}")

    if not verify_class(ring, spec.dyn_class):
        raise AssertionError(f"generated ring failed {tag} verification")
    return ring


class AdversaryResult(NamedTuple):
    """ring is the emitted schedule, closed by the proven cycle: the emitted
    prefix plus that cycle, on which plain ``run`` repeats the duel forever.
    It is None unless stop.reason is "cycle": a horizon too short for the
    proof (below 23, 62 and 50 on the acceptance duels, n=4, 6 and 8) leaves
    no schedule that is known to keep the targets apart. Each snapshot misses
    at most one edge, yet ring is AC only if every edge shows in some round:
    a duel that withholds one edge in every round closes a ring in no class."""

    ring: Optional[EvolvingRing]
    trace: Trace
    defeated_at: Optional[int]  # round at which the targets met, if ever
    stop: Stop


def _ring_distance(a: int, b: int, n: int) -> int:
    d = (b - a) % n
    return min(d, n - d)


def _edge_between(a: int, b: int, n: int) -> int:
    """Edge joining two adjacent nodes."""
    if (a + 1) % n == b:
        return a
    if (b + 1) % n == a:
        return b
    raise ValueError("nodes are not adjacent")


class _Adversary(NamedTuple):
    n: int
    r1: int
    r2: int
    compute_fn: ComputeFn

    def phase(self, t: int) -> None:
        return None  # the choice reads only the configuration

    def next_snapshot(self, config: Configuration) -> Snapshot:
        n = self.n
        p1, p2 = config.robots[self.r1].position, config.robots[self.r2].position
        d = _ring_distance(p1, p2, n)
        if d == 1:
            return _absent_one(n, _edge_between(p1, p2, n))
        snap = (1,) * n
        if d == 2:
            # One-round fork under the all-present continuation: only if the
            # targets would meet do we withhold the edge they meet across.
            fork = sim_engine.step(config, snap, self.compute_fn)
            meeting = fork.robots[self.r1].position
            if meeting == fork.robots[self.r2].position:
                # Robots move at most one edge a round, so targets two apart
                # meet only on a node next to both, one edge from each.
                return _absent_one(n, _edge_between(p1, meeting, n))
        return snap


def adaptive_ac_adversary(
    n: int,
    R: int,
    placement: dict[int, int],
    r1: int,
    r2: int,
    horizon: int,
    compute_fn: ComputeFn = compute,
) -> AdversaryResult:
    """Keep robots r1 and r2 apart for `horizon` rounds on an AC schedule.

    R is the number of robots and must equal len(placement).
    """
    if R != len(placement):
        raise ValueError(f"R={R} but the placement has {len(placement)} robots")
    for target in (r1, r2):
        if target not in placement:
            raise ValueError(f"target {target} is not a robot of the placement")
    if r1 == r2 or placement[r1] == placement[r2]:
        raise ValueError("targets must be distinct robots on distinct nodes")
    if n < 4:
        raise ValueError("ring size must be >= 4")
    source = _Adversary(n, r1, r2, compute_fn)
    trace, stop = sim_engine.run(source, placement, horizon, compute_fn, class_claim=AC)
    events, ring = trace.events, None
    if stop.reason == "cycle":
        # Every later event copies one of events[start:start + period], so
        # the duel and its schedule are read from those rounds and before.
        events = events[: stop.start + stop.period]
        snapshots = tuple(snap for _, _, snap in events)
        ring = EvolvingRing(n, Schedule(snapshots[: stop.start], snapshots[stop.start :]))
    defeated = next(
        (t for t, robots, _ in events if robots[r1].position == robots[r2].position), None
    )
    return AdversaryResult(ring, trace, defeated, stop)
