"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The corpus of seeded runs is built once and shared: the safety, variant,
monitor, and replay criteria all inspect the same executions, and replays
regenerate everything from the recorded seeds.
"""

import hashlib
import json
import operator
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import pytest

from gdg_sim import sim_engine
from gdg_sim.adversary import GeneratorSpec, adaptive_ac_adversary, generate
from gdg_sim.checkers import (
    _termination_info,
    check_safety,
    default_horizon,
    experiment,
    monitor_invariants,
)
from gdg_sim.ring_model import (
    AC,
    BRE,
    COT,
    RE,
    ST,
    DynClass,
    EvolvingRing,
    remove_edge_interval,
    verify_class,
)
from gdg_sim.sim_engine import (
    RobotRecord,
    Stop,
    Trace,
    TraceEvent,
    run,
    trace_to_jsonl,
)

import test_oracle_trace as oracle

# The benchmark's reference sha256 digests of concatenated JSONL traces.
DIGESTS = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "digests.json").read_text()
)


@dataclass
class RunRec:
    dyn: DynClass
    n: int
    R: int
    ids: tuple
    placement: dict
    seed: int
    horizon: int
    bound: Optional[int]
    ring: EvolvingRing
    trace: Trace
    stop: Stop
    verdict: object
    violations: list
    termination_rounds: dict
    jsonl: str


def _build_ring(dyn: DynClass, n: int, seed: int) -> EvolvingRing:
    ring = generate(GeneratorSpec(dyn, n, seed))
    if dyn.tag == RE:
        # Force an eventually-periodic shape: some edge absent throughout a
        # nonempty prefix while staying recurrent in the cycle.
        rng = random.Random(seed ^ 0x5EED)
        e = rng.randrange(n)
        ring = remove_edge_interval(ring, e, 0, rng.randint(2, 10))
        assert verify_class(ring, DynClass(RE))
    return ring


def _make_run(dyn: DynClass, seed: int) -> RunRec:
    rng = random.Random(seed)
    n = rng.randint(4, 12)
    R = rng.randint(4, 8)
    ids = tuple(sorted(rng.sample(range(1, 33), R)))
    placement = {rid: rng.randrange(n) for rid in ids}
    ring = _build_ring(dyn, n, seed)
    cap = 5000 if dyn.tag in (RE, COT) else 8000
    horizon = min(default_horizon(ring, dyn, R, min(ids)), cap)
    exp = experiment(ring, placement, dyn, seed, horizon)
    return RunRec(
        dyn=dyn,
        n=n,
        R=R,
        ids=ids,
        placement=placement,
        seed=seed,
        horizon=exp.trace.horizon,
        bound=exp.bound,
        ring=ring,
        trace=exp.trace,
        stop=exp.stop,
        verdict=exp.verdict,
        violations=exp.violations,
        termination_rounds=_termination_info(exp.trace)[0],
        jsonl=trace_to_jsonl(exp.trace),
    )


@pytest.fixture(scope="module")
def corpus():
    runs = {
        ST: [_make_run(DynClass(ST), 1000 + s) for s in range(50)],
        AC: [_make_run(DynClass(AC), 2000 + s) for s in range(50)],
        RE: [_make_run(DynClass(RE), 3000 + s) for s in range(50)],
        COT: [_make_run(DynClass(COT), 4000 + s) for s in range(50)],
        BRE: [
            _make_run(DynClass(BRE, delta), 5000 + 100 * delta + s)
            for delta in (1, 2, 3, 5)
            for s in range(13)
        ],
    }
    return runs


# The three 10,000-round duels: n, placement and the two targets.
DUELS = [
    (4, {1: 0, 2: 1, 3: 2, 4: 3}, 3, 4),
    (6, {2: 0, 5: 2, 9: 4, 11: 1}, 9, 11),
    (8, {1: 0, 3: 2, 7: 4, 12: 6, 20: 1}, 12, 20),
]
# The cycle each duel is proven to repeat from its state after round start.
DUEL_CYCLES = [Stop("cycle", 21, 1), Stop("cycle", 60, 1), Stop("cycle", 48, 1)]


@pytest.fixture(scope="module")
def adversary_runs():
    return [
        (n, placement, r1, r2, adaptive_ac_adversary(n, len(placement), placement, r1, r2, 10_000))
        for n, placement, r1, r2 in DUELS
    ]


def report(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"\ncriterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def _all_runs(corpus):
    return [rec for recs in corpus.values() for rec in recs]


def test_criterion_1_safety(corpus, capsys):
    runs = _all_runs(corpus)
    unsafe = [r.seed for r in runs if not check_safety(r.trace)]
    ok = len(runs) >= 200 and len(corpus) == 5 and not unsafe
    report(
        capsys, 1, ok,
        f"{len(runs)} seeded runs over {len(corpus)} classes, "
        f"{len(unsafe)} safety violations",
    )


def test_criterion_2_st_bounded_gathering(corpus, capsys):
    bad = [
        r.seed
        for r in corpus[ST]
        if "G" not in r.verdict.variants or r.verdict.termination_round > r.bound
    ]
    ok = len(corpus[ST]) >= 50 and not bad
    report(
        capsys, 2, ok,
        f"{len(corpus[ST])} ST runs, all G within bound_for(ST); failures: {bad}",
    )


def test_criterion_3_bre_bounded_gathering(corpus, capsys):
    deltas = sorted({r.dyn.delta for r in corpus[BRE]})
    bad = [
        r.seed
        for r in corpus[BRE]
        if "G" not in r.verdict.variants or r.verdict.termination_round > r.bound
    ]
    ok = deltas == [1, 2, 3, 5] and len(corpus[BRE]) >= 50 and not bad
    report(
        capsys, 3, ok,
        f"{len(corpus[BRE])} BRE runs over deltas {deltas}, "
        f"all G within bound_for(BRE); failures: {bad}",
    )


def test_criterion_4_re_eventual_gathering(corpus, capsys):
    bad = [r.seed for r in corpus[RE] if "G_E" not in r.verdict.variants]
    shapes_ok = all(
        any(
            not r.ring.snapshot(0)[e]
            and any(r.ring.snapshot(len(r.ring.schedule.prefix) + k)[e]
                    for k in range(len(r.ring.schedule.cycle)))
            for e in range(r.n)
        )
        for r in corpus[RE]
    )
    ok = len(corpus[RE]) >= 50 and shapes_ok and not bad
    report(
        capsys, 4, ok,
        f"{len(corpus[RE])} RE rings (edge absent in prefix, recurrent in "
        f"cycle), all G_E within horizon; failures: {bad}",
    )


def test_criterion_5_cot_degraded_gathering(corpus, capsys):
    bad = [r.seed for r in corpus[COT] if "G_EW" not in r.verdict.variants]
    stranded = [
        r.seed
        for r in corpus[COT]
        if len(r.termination_rounds) == r.R - 1
    ]
    ok = len(corpus[COT]) >= 50 and not bad and len(stranded) >= 1
    report(
        capsys, 5, ok,
        f"{len(corpus[COT])} COT rings, all G_EW; "
        f"{len(stranded)} runs with exactly R-1 terminated; failures: {bad}",
    )


def test_criterion_6_ac_bounded_weak_gathering(corpus, capsys):
    bad = [r.seed for r in corpus[AC] if "G_W" not in r.verdict.variants]
    ok = len(corpus[AC]) >= 50 and not bad
    report(
        capsys, 6, ok,
        f"{len(corpus[AC])} AC runs, all G_W within bound_for(AC); failures: {bad}",
    )


def test_criterion_7_adversary(adversary_runs, capsys):
    problems = []
    for (n, placement, r1, r2, res), cycle in zip(adversary_runs, DUEL_CYCLES):
        if res.defeated_at is not None:
            problems.append(f"n={n} defeated at {res.defeated_at}")
        if res.stop != cycle:
            problems.append(f"n={n} stopped with {res.stop}, not {cycle}")
        if len(res.trace.events) != 10_000:
            problems.append(f"n={n} ran {len(res.trace.events)} rounds")
        for ev in res.trace.events:
            if ev.robots[r1].position == ev.robots[r2].position:
                problems.append(f"n={n} targets met at round {ev.round}")
                break
            if sum(1 for bit in ev.snapshot if not bit) > 1:
                problems.append(f"n={n} snapshot not AC at round {ev.round}")
                break
    ok = not problems
    report(
        capsys, 7, ok,
        f"adaptive adversary on n in (4, 6, 8) for 10000 rounds; "
        f"problems: {problems or 'none'}",
    )


def _fault_trace(events):
    return Trace(
        n=4, R=4, ids=(1, 2, 3, 4), class_claim=None, seed=None,
        horizon=len(events), events=tuple(events),
    )


def _rec(pos, state="righter", dir="right", rule="M8", moved=False):
    return RobotRecord(position=pos, state=state, dir=dir, rule=rule, moved=moved)


def test_criterion_8_monitors(corpus, capsys):
    dirty = [r.seed for r in _all_runs(corpus) if r.violations]

    moved_waiting = _fault_trace([
        TraceEvent(0, {
            1: _rec(0, "minWaitingWalker", "bot", "M1"),
            2: _rec(1, "waitingWalker", "bot", "K3", moved=True),
            3: _rec(2), 4: _rec(3),
        }, (1, 1, 1, 1)),
    ])
    wrong_min = _fault_trace([
        TraceEvent(0, {
            1: _rec(0),
            2: _rec(1, "minWaitingWalker", "bot", "M1"),
            3: _rec(2), 4: _rec(3),
        }, (1, 1, 1, 1)),
    ])

    def tower(t, formed):
        return TraceEvent(t, {
            1: _rec(0, "minWaitingWalker", "bot", "K2"),
            2: _rec(0, "waitingWalker" if formed else "awareSearcher", "bot", "K2"),
            3: _rec(1), 4: _rec(2),
        }, (1, 1, 1, 1))

    second_tower = _fault_trace([tower(0, True), tower(1, False), tower(2, True)])

    flagged = [
        ("waiting-still", 0) in monitor_invariants(moved_waiting),
        ("min-id", 0) in monitor_invariants(wrong_min),
        ("tower-min", 2) in monitor_invariants(second_tower),
    ]
    ok = not dirty and all(flagged)
    report(
        capsys, 8, ok,
        f"zero invariant violations over {len(_all_runs(corpus))} runs "
        f"(dirty: {dirty or 'none'}); 3/3 injected faults flagged: {flagged}",
    )


def test_criterion_9_oracle_trace(capsys):
    trace, stop = run(oracle.RING, oracle.PLACEMENT, horizon=15)
    mismatches = []
    for t, (event, expected) in enumerate(zip(trace.events, oracle.EXPECTED)):
        for rid, (pos, state, dir, rule, moved) in expected.items():
            got = event.robots[rid]
            if (got.position, got.state, got.dir, got.rule, got.moved) != (
                pos, state, dir, rule, moved,
            ):
                mismatches.append((t, rid))
    ok = len(trace.events) == 15 and stop == Stop("horizon") and not mismatches
    report(
        capsys, 9, ok,
        f"15-round hand-derived trace reproduced event for event; "
        f"mismatches: {mismatches or 'none'}",
    )


def test_criterion_10_replay_determinism(corpus, adversary_runs, capsys):
    drift = []
    for rec in _all_runs(corpus):
        ring = _build_ring(rec.dyn, rec.n, rec.seed)
        if ring != rec.ring:
            drift.append(("ring", rec.seed))
            continue
        trace, _ = run(
            ring, rec.placement, rec.horizon, class_claim=rec.dyn.tag, seed=rec.seed
        )
        if trace_to_jsonl(trace) != rec.jsonl:
            drift.append(("trace", rec.seed))
    for n, placement, r1, r2, res in adversary_runs:
        again = adaptive_ac_adversary(n, len(placement), placement, r1, r2, 10_000)
        if trace_to_jsonl(again.trace) != trace_to_jsonl(res.trace):
            drift.append(("adversary", n))
    ok = not drift
    report(
        capsys, 10, ok,
        f"replayed {len(_all_runs(corpus))} runs and {len(adversary_runs)} "
        f"adversary schedules byte-identically; drift: {drift or 'none'}",
    )


def _sha256(texts):
    digest = hashlib.sha256()
    for text in texts:
        digest.update(text.encode())
    return digest.hexdigest()


def test_corpus_jsonl_bytes_match_reference_digest(corpus):
    # Fixture order (st, ac, re, cot, bre), as the benchmark concatenates them.
    assert _sha256(rec.jsonl for rec in _all_runs(corpus)) == DIGESTS["corpus"]


def test_duel_jsonl_bytes_match_reference_digest(adversary_runs):
    traces = (trace_to_jsonl(res.trace) for *_, res in adversary_runs)
    assert _sha256(traces) == DIGESTS["duel"]


def _repeats(trace, same):
    """Events whose robots are the previous event's, by the test `same`."""
    return sum(same(b.robots, a.robots) for a, b in zip(trace.events, trace.events[1:]))


# The expected numbers are the events whose records all equal the round
# before's, counted by record equality before step shared such dicts.
@pytest.mark.parametrize("which, expected", [("duel", 29_871), ("cot", 70_702)])
def test_repeated_rounds_share_one_robots_dict(corpus, adversary_runs, which, expected):
    if which == "duel":
        traces = [res.trace for *_, res in adversary_runs]
    else:
        traces = [rec.trace for rec in corpus[COT]]
    shared = sum(_repeats(trace, operator.is_) for trace in traces)
    equal = sum(_repeats(trace, operator.eq) for trace in traces)
    assert shared == equal == expected


# Step calls, copied rounds and all rounds of the traces. The duels' forks
# are step calls too, and every round not stepped is a copy of a proven
# cycle. The corpus is re-run and must give the same traces.
@pytest.mark.parametrize("which, expected", [("duel", (153, 29_868, 30_000)),
                                             ("corpus", (37_879, 70_573, 108_452))])
def test_fixed_configurations_skip_compute(corpus, monkeypatch, which, expected):
    steps = 0
    step = sim_engine.step

    def counting_step(*args):
        nonlocal steps
        steps += 1
        return step(*args)

    monkeypatch.setattr(sim_engine, "step", counting_step)
    runs = []
    if which == "duel":
        for n, placement, r1, r2 in DUELS:
            res = adaptive_ac_adversary(n, len(placement), placement, r1, r2, 10_000)
            runs.append((res.trace, res.stop))
    else:
        for rec in _all_runs(corpus):
            trace, stop = run(rec.ring, rec.placement, rec.horizon, class_claim=rec.dyn.tag,
                              seed=rec.seed)
            assert (trace, stop) == (rec.trace, rec.stop)
            runs.append((trace, stop))
    copied = sum(
        len(trace.events) - stop.start - stop.period for trace, stop in runs if stop.reason == "cycle"
    )
    assert (steps, copied, sum(len(trace.events) for trace, _ in runs)) == expected


def test_stop_reasons(corpus, adversary_runs):
    # Every stranded COT run is proven to cycle; every other run gathers.
    reasons = Counter((rec.dyn.tag, rec.stop.reason) for rec in _all_runs(corpus))
    assert reasons == {
        (ST, "all_terminated"): 50, (AC, "all_terminated"): 50, (RE, "all_terminated"): 50,
        (COT, "all_terminated"): 33, (COT, "cycle"): 17, (BRE, "all_terminated"): 52,
    }
    stranded = [rec for rec in corpus[COT] if len(rec.termination_rounds) < rec.R]
    assert all(rec.stop.reason == "cycle" for rec in stranded) and len(stranded) == 17
    assert [res.stop for *_, res in adversary_runs] == DUEL_CYCLES
