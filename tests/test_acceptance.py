"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The inputs are the benchmark's own: the corpus is the 252 runs of
``build("corpus", 0)`` and the duels are ``DUELS``, both from
perfbench/workloads.py, which spec loads. Each corpus input is judged
through ``checkers.experiment`` with the input's ring, placement, class,
seed and horizon. The corpus is built once and shared: the safety,
variant, monitor, and replay criteria all inspect the same executions, and
replays rebuild the rings from a second ``build`` call.
"""

import hashlib
import json
import operator
from collections import Counter
from dataclasses import dataclass
from typing import Optional

import pytest

from gdg_sim import sim_engine
from gdg_sim.adversary import adaptive_ac_adversary
from gdg_sim.checkers import _termination_info, check_safety, experiment, monitor_invariants
from gdg_sim.gdg_protocol import ALL_STATES, DIRECTIONS
from gdg_sim.ring_model import AC, BRE, COT, RE, ST, DynClass, EvolvingRing
from gdg_sim.sim_engine import Stop, Trace, run, trace_from_jsonl, trace_to_jsonl

import spec
from spec import DUEL_CYCLES, DUELS, FAULTS, workloads

# The benchmark's reference sha256 digests of concatenated JSONL traces.
DIGESTS = json.loads((spec.PERFBENCH / "digests.json").read_text())


@dataclass
class RunRec:
    dyn: DynClass
    n: int
    R: int
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


@pytest.fixture(scope="module")
def corpus():
    # Inputs come in the benchmark's order (st, ac, re, cot, bre), which the
    # corpus digest depends on.
    runs = {}
    for inp in workloads.build("corpus", 0):
        exp = experiment(inp.ring, inp.placement, inp.dyn, inp.seed, inp.horizon)
        runs.setdefault(inp.dyn.tag, []).append(RunRec(
            dyn=inp.dyn,
            n=inp.ring.n,
            R=exp.trace.R,
            placement=inp.placement,
            seed=inp.seed,
            horizon=exp.trace.horizon,
            bound=exp.bound,
            ring=inp.ring,
            trace=exp.trace,
            stop=exp.stop,
            verdict=exp.verdict,
            violations=exp.violations,
            termination_rounds=_termination_info(exp.trace)[0],
            jsonl=trace_to_jsonl(exp.trace),
        ))
    return runs


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


def test_criterion_8_monitors(corpus, capsys):
    dirty = [r.seed for r in _all_runs(corpus) if r.violations]
    flagged = [hits <= set(monitor_invariants(trace)) for trace, hits in FAULTS.values()]
    ok = not dirty and all(flagged)
    report(
        capsys, 8, ok,
        f"zero invariant violations over {len(_all_runs(corpus))} runs "
        f"(dirty: {dirty or 'none'}); {sum(flagged)}/{len(flagged)} injected faults flagged: "
        f"{flagged}",
    )


def test_criterion_9_oracle_trace(capsys):
    trace, stop = run(spec.RING, spec.PLACEMENT, horizon=15)
    mismatches = spec.oracle_mismatches(trace)
    ok = len(trace.events) == 15 and stop == Stop("horizon") and not mismatches
    report(
        capsys, 9, ok,
        f"15-round hand-derived trace reproduced event for event; "
        f"mismatches: {mismatches or 'none'}",
    )


def test_criterion_10_replay_determinism(corpus, adversary_runs, capsys):
    drift = []
    for rec, inp in zip(_all_runs(corpus), workloads.build("corpus", 0)):
        if inp.ring != rec.ring:
            drift.append(("ring", rec.seed))
            continue
        trace, _ = run(
            inp.ring, rec.placement, rec.horizon, class_claim=rec.dyn.tag, seed=rec.seed
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


def test_records_speak_the_protocols_vocabulary(corpus):
    # Every state and dir the corpus writes is one of gdg_protocol's, and the
    # decoder takes exactly those: each of them, and none of the other
    # strings tried, the other field's values and other spellings included.
    written = [
        (rec.state, rec.dir)
        for run_rec in _all_runs(corpus)
        for robots in {id(ev.robots): ev.robots for ev in run_rec.trace.events}.values()
        for rec in robots.values()
    ]
    assert {state for state, _ in written} <= set(ALL_STATES)
    assert {dir for _, dir in written} <= set(DIRECTIONS)

    header, line = corpus[ST][0].jsonl.splitlines()[:2]
    event = json.loads(line)
    first = next(iter(event["robots"]))

    def decodes(field, value):
        robots = {**event["robots"], first: {**event["robots"][first], field: value}}
        try:
            trace_from_jsonl(header + "\n" + json.dumps({**event, "robots": robots}))
        except ValueError:
            return False
        return True

    words = [*ALL_STATES, *DIRECTIONS, "nonsense", ""]
    words += [word.upper() for word in words] + [word.capitalize() for word in words]
    assert {word for word in words if decodes("state", word)} == set(ALL_STATES)
    assert {word for word in words if decodes("dir", word)} == set(DIRECTIONS)


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


def test_decoded_traces_share_as_run_traces(corpus, adversary_runs):
    # A decoded event hands on the previous event's robots dict exactly when
    # the run's event does, so the readers' repeat paths serve both.
    traces = [(rec.trace, rec.jsonl) for rec in _all_runs(corpus)]
    traces += [(res.trace, trace_to_jsonl(res.trace)) for *_, res in adversary_runs]
    assert all(
        spec.shares(trace_from_jsonl(text).events) == spec.shares(trace.events)
        for trace, text in traces
    )


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
