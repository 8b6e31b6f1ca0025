"""Inputs, pipeline and correctness gate of the benchmark's three workloads.

corpus  the acceptance suite's 252-run recipe (same seeds, draws, RE prefix
        masking and horizon caps), copied here so that the benchmark does
        not depend on the test files. Two thirds of its rounds come from
        stranded COT runs with about one computing robot per round.
crowd   30 bounded-class runs (ST, BRE delta=3, AC) with n=32 and R=16, so
        every robot computes in almost every round and rule dispatch and
        view building dominate.
duel    the acceptance suite's three 10,000-round adaptive AC duels, where
        rebuilding the ring every round dominates.

Seed 0 reproduces the acceptance recipe. Any other seed s shifts every base
seed of corpus and crowd by s * SEED_STRIDE, so a claim can be re-checked on
inputs not used while writing it. The duels have no seed in the acceptance
suite and stay fixed.

Every call into the package goes through a module attribute
(``sim_engine.run``, not a name imported from it), so that the tracer can
wrap each call from outside the package.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from gdg_sim import adversary, checkers, gdg_protocol, ring_model, sim_engine
from gdg_sim.ring_model import AC, BRE, COT, RE, ST, DynClass, EvolvingRing

DEFAULT_SEED = 0
SEED_STRIDE = 10_000
DUEL_HORIZON = 10_000

# The gate's expectations are written here rather than read from the package,
# so that a change to the package cannot also change what counts as correct.
EXPECTED_VARIANT = {ST: "G", BRE: "G", RE: "G_E", AC: "G_W", COT: "G_EW"}

# The acceptance suite's duels: (n, placement, target r1, target r2).
DUELS = (
    (4, {1: 0, 2: 1, 3: 2, 4: 3}, 3, 4),
    (6, {2: 0, 5: 2, 9: 4, 11: 1}, 9, 11),
    (8, {1: 0, 3: 2, 7: 4, 12: 6, 20: 1}, 12, 20),
)


@dataclass(frozen=True)
class Result:
    """What one experiment produced; the gate judges it after timing stops."""

    trace: sim_engine.Trace
    verdict: checkers.Verdict
    violations: list
    jsonl: str
    roundtrip_ok: bool = True
    defeated_at: Optional[int] = None
    always_connected: bool = True


@dataclass(frozen=True)
class RunInput:
    """One simulated run on a generated ring, checked against its class."""

    dyn: DynClass
    seed: int
    placement: dict[int, int]
    ring: EvolvingRing
    bound: Optional[int]
    horizon: int

    @property
    def label(self) -> str:
        return self.dyn.tag

    def simulate(self, roundtrip: bool = False) -> Result:
        trace, _ = sim_engine.run(
            self.ring,
            self.placement,
            self.horizon,
            compute_fn=gdg_protocol.compute,
            class_claim=self.dyn.tag,
            seed=self.seed,
        )
        jsonl = sim_engine.trace_to_jsonl(trace)
        return Result(
            trace=trace,
            verdict=checkers.check_variant(trace, self.horizon, self.bound),
            violations=checkers.monitor_invariants(trace),
            jsonl=jsonl,
            roundtrip_ok=not roundtrip or sim_engine.trace_from_jsonl(jsonl) == trace,
        )

    def judge(self, result: Result) -> list[str]:
        problems = _common_problems(result)
        expected = EXPECTED_VARIANT[self.dyn.tag]
        if expected not in result.verdict.variants:
            problems.append(
                f"{self.dyn.tag} run {self.seed} missed {expected}: "
                f"{sorted(result.verdict.variants)}"
            )
        return problems


@dataclass(frozen=True)
class DuelInput:
    """One adaptive-adversary duel that must keep robots r1 and r2 apart."""

    n: int
    placement: dict[int, int]
    r1: int
    r2: int
    horizon: int = DUEL_HORIZON

    label = "duel"

    def simulate(self, roundtrip: bool = False) -> Result:
        duel = adversary.adaptive_ac_adversary(
            self.n,
            len(self.placement),
            self.placement,
            self.r1,
            self.r2,
            self.horizon,
            compute_fn=gdg_protocol.compute,
        )
        trace = duel.trace
        jsonl = sim_engine.trace_to_jsonl(trace)
        return Result(
            trace=trace,
            verdict=checkers.check_variant(trace, self.horizon),
            violations=checkers.monitor_invariants(trace),
            jsonl=jsonl,
            roundtrip_ok=not roundtrip or sim_engine.trace_from_jsonl(jsonl) == trace,
            defeated_at=duel.defeated_at,
            always_connected=ring_model.verify_class(duel.ring, DynClass(AC)),
        )

    def judge(self, result: Result) -> list[str]:
        problems = _common_problems(result)
        rounds = len(result.trace.events)
        if result.defeated_at is not None or rounds != self.horizon:
            problems.append(
                f"duel n={self.n} defeated at {result.defeated_at} after {rounds} rounds"
            )
        if not result.always_connected:
            problems.append(f"duel n={self.n} emitted a snapshot missing two edges")
        # The targets never meet, so the checker must not see every robot
        # terminate on one node.
        if "G_E" in result.verdict.variants:
            problems.append(f"duel n={self.n} reached G_E although its targets never met")
        return problems


def _common_problems(result: Result) -> list[str]:
    problems = []
    if not result.verdict.safety_ok:
        problems.append("robots terminated on different nodes")
    if result.violations:
        problems.append(f"monitor violations: {result.violations[:3]}")
    if not result.roundtrip_ok:
        problems.append("JSONL round-trip changed the trace")
    return problems


def count_work(trace: sim_engine.Trace) -> tuple[int, int, int]:
    """(robot computes, rounds with at most one computing robot, guard evaluations).

    A compute that fires the k-th rule of RULE_ORDER evaluated k guards,
    because dispatch stops at the first enabled rule.
    """
    guards_for = {rule: k + 1 for k, rule in enumerate(gdg_protocol.RULE_ORDER)}
    computes = idle = guards = 0
    for event in trace.events:
        active = [rec.rule for rec in event.robots.values() if rec.rule != "terminated"]
        computes += len(active)
        idle += len(active) <= 1
        guards += sum(guards_for[rule] for rule in active)
    return computes, idle, guards


# ---------------------------------------------------------------------------
# Input recipes
# ---------------------------------------------------------------------------


def _horizon_for(ring: EvolvingRing, R: int, id_rmin: int, bound: Optional[int]) -> int:
    if bound is not None:
        return min(bound + 1, 8000)
    delta = max(1, len(ring.schedule.cycle))
    heuristic = 4 * checkers.bound_for(
        checkers.BoundParams(DynClass(BRE, delta), ring.n, R, id_rmin)
    ) + len(ring.schedule.prefix)
    return min(heuristic, 5000)


def _corpus_run(dyn: DynClass, seed: int) -> RunInput:
    rng = random.Random(seed)
    n = rng.randint(4, 12)
    R = rng.randint(4, 8)
    ids = tuple(sorted(rng.sample(range(1, 33), R)))
    placement = {rid: rng.randrange(n) for rid in ids}
    ring = adversary.generate(adversary.GeneratorSpec(dyn, n, seed))
    if dyn.tag == RE:
        # Some edge is absent throughout a nonempty prefix but recurs later.
        mask = random.Random(seed ^ 0x5EED)
        e = mask.randrange(n)
        ring = ring_model.remove_edge_interval(ring, e, 0, mask.randint(2, 10))
        if not ring_model.verify_class(ring, dyn):
            raise RuntimeError(f"masked ring of seed {seed} left class RE")
    id_rmin = min(ids)
    bound = (
        checkers.bound_for(checkers.BoundParams(dyn, n, R, id_rmin))
        if dyn.tag in (ST, BRE, AC)
        else None
    )
    return RunInput(dyn, seed, placement, ring, bound, _horizon_for(ring, R, id_rmin, bound))


def _crowd_run(dyn: DynClass, seed: int, n: int = 32, R: int = 16) -> RunInput:
    rng = random.Random(seed)
    ids = tuple(sorted(rng.sample(range(1, 2 * n + 1), R)))
    placement = {rid: rng.randrange(n) for rid in ids}
    ring = adversary.generate(adversary.GeneratorSpec(dyn, n, seed))
    bound = checkers.bound_for(checkers.BoundParams(dyn, n, R, min(ids)))
    return RunInput(dyn, seed, placement, ring, bound, bound + 1)


def build(workload: str, seed: int) -> list:
    """The workload's inputs; corpus runs come in acceptance-fixture order
    (st, ac, re, cot, bre), which the reference digest depends on."""
    shift = seed * SEED_STRIDE
    if workload == "corpus":
        plan = [(DynClass(tag), base + s) for tag, base in
                ((ST, 1000), (AC, 2000), (RE, 3000), (COT, 4000)) for s in range(50)]
        plan += [(DynClass(BRE, delta), 5000 + 100 * delta + s)
                 for delta in (1, 2, 3, 5) for s in range(13)]
        return [_corpus_run(dyn, base + shift) for dyn, base in plan]
    if workload == "crowd":
        classes = (DynClass(ST), DynClass(BRE, 3), DynClass(AC))
        return [_crowd_run(classes[i % 3], 7000 + i + shift) for i in range(30)]
    if workload == "duel":
        return [DuelInput(n, dict(placement), r1, r2) for n, placement, r1, r2 in DUELS]
    raise ValueError(f"unknown workload {workload!r}")
