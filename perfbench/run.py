#!/usr/bin/env python3
"""Benchmark of gdg-sim: one workload per process, every output checked.

Run from the repository root:

    python3 perfbench/run.py --workload corpus --seed 0 --seconds 20 --trace 0

The workloads (corpus, crowd, duel) are described in workloads.py. Set-up
imports the package from ./src and builds every input; it is repeated
SETUP_REPEATS times and its median is reported. Then whole passes over the
inputs run until the next pass would end after --seconds, with at least
MIN_PASSES passes; an experiment's time is its fastest over the passes,
because jitter only adds time and the p95 tail is made of experiments of a
few milliseconds. All times are scaled to a reference host speed
(hostspeed.py), because other tenants of a shared host change its speed by
up to 1.75 times.

The last line of standard output is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
The line before it holds details: environment, trace digest, exact counts,
per-class times and unscaled pass times. Exit code 2 means the benchmark
could not start.

--trace 0 reports the end-to-end metrics:
  computes_per_s      robot computes (one robot's Compute phase in one
                      round) simulated per second over the whole workload
  robot_round_us_p50  median over experiments of microseconds per robot
  robot_round_us_p90  per round (R robots for as many rounds as the trace
                      has), and its 90th percentile; an experiment's time
                      covers run, check_variant, monitor_invariants and
                      JSONL encoding (for a duel: the adversary, the checks
                      and verify_class of its schedule)
  setup_s             median set-up time
Work-normalised times are used because the amount of work a seed draws
varies by up to a fifth between seeds, while the cost per unit does not.
Over a whole workload the cost per compute is the steadier unit, and per
experiment the cost per robot-round is. For the same reason peak memory,
set by the largest run a seed draws, is reported with the per-layer metrics
(process.peak_rss_mb) rather than bounded, and the tail is the 90th rather
than the 95th percentile: on corpus the 95th is set by the few
millisecond-long runs a seed happens to draw.

--trace 1 runs one untraced pass, then builds the inputs and runs one pass
again with spans around the calls into each module (tracing.py) and a JSONL
round-trip of every trace, and reports the per-layer metrics. Their times
are totals over the traced build and pass. <module>.self_s leaves out time
in nested spans, so the five self times and the harness make up
trace.wall_s; trace.coverage is the share of it spent inside the package.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

from hostspeed import HostSpeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
MIN_PASSES = 2


def load_inputs(workload: str, seed: int):
    """Import the package and the recipes afresh, then build every input."""
    for name in list(sys.modules):
        if name in ("gdg_sim", "workloads") or name.startswith("gdg_sim."):
            del sys.modules[name]
    workloads = importlib.import_module("workloads")
    return workloads, workloads.build(workload, seed)


class Pass:
    """One pass over the inputs: per-experiment intervals, counts, failures."""

    def __init__(self, workloads, inputs, roundtrip: bool = False) -> None:
        gc.collect()
        digest = hashlib.sha256()
        self.intervals: list[tuple[float, float]] = []
        self.computes: list[int] = []
        self.robot_rounds: list[int] = []
        self.counts: Counter[str] = Counter()
        self.problems: list[str] = []
        self.failed = 0
        for exp in inputs:
            start = time.perf_counter()
            try:
                result = exp.simulate(roundtrip)
                end = time.perf_counter()
                problems = exp.judge(result)
                computes, idle, guards = workloads.count_work(result.trace)
            except Exception as exc:  # an experiment that raises fails alone
                traceback.print_exc(file=sys.stderr)
                self.intervals.append((start, time.perf_counter()))
                self.computes.append(0)
                self.robot_rounds.append(0)
                self._fail([f"{exp.label} raised {exc!r}"])
                continue
            self.intervals.append((start, end))
            data = result.jsonl.encode()
            digest.update(data)
            rounds = len(result.trace.events)
            self.computes.append(computes)
            self.robot_rounds.append(rounds * result.trace.R)
            self.counts.update({
                "rounds": rounds, "computes": computes, "idle_rounds": idle,
                "guards": guards, "jsonl_bytes": len(data), f"{exp.label}.rounds": rounds,
            })
            if problems:
                self._fail(problems)
        self.digest = digest.hexdigest()

    def _fail(self, problems: list[str]) -> None:
        self.failed += 1
        self.problems.extend(problems)


def count_failed(passes: list[Pass], expected: str, experiments: int) -> int:
    """Failed experiments over all passes. A pass whose trace digest differs
    from the expected one fails whole: its output changed, so none of its
    experiments is trusted."""
    failed = 0
    for p in passes:
        if p.digest != expected:
            p.failed = experiments
            p.problems.append(f"trace digest {p.digest[:16]} differs from {expected[:16]}")
        failed += p.failed
    return failed


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    return loose.read_text().strip() if loose.is_file() else None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "gdg_sim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(times: list[float], one_pass: Pass, setup_s: float) -> dict:
    done = [(s, c, r) for s, c, r in zip(times, one_pass.computes, one_pass.robot_rounds) if c]
    per = [1e6 * s / r for s, _, r in done]
    return {
        "computes_per_s": (sum(c for _, c, _ in done) / sum(s for s, _, _ in done), "1/s"),
        "robot_round_us_p50": (statistics.median(per), "us"),
        "robot_round_us_p90": (statistics.quantiles(per, n=10)[-1], "us"),
        "setup_s": (setup_s, "s"),
    }


def per_layer(tracer, untraced: list[float], untraced_counts: Counter, counts: Counter,
              traced_s: float, build_s: float, traced_raw: float, rss_mb: float) -> dict:
    """Per-layer metrics. The traced build and pass took traced_s seconds at
    the reference host speed and traced_raw seconds unscaled; span times are
    scaled by their ratio."""
    from tracing import MODULES

    scale = traced_s / traced_raw
    total = Counter({name: t * scale for name, t in tracer.total.items()})
    rounds, computes, wall = counts["rounds"], counts["computes"], sum(untraced)
    decode = total["sim_engine.trace_from_jsonl"]
    return {
        "workload.wall_s": (wall, "s"),
        "workload.run_p50_ms": (1e3 * statistics.median(untraced), "ms"),
        "workload.run_p95_ms": (1e3 * statistics.quantiles(untraced, n=20)[-1], "ms"),
        "process.peak_rss_mb": (rss_mb, "MB"),
        "ring_model.ring_builds": (tracer.calls["ring_model.ring_init"], "count"),
        "ring_model.ring_init_s": (total["ring_model.ring_init"], "s"),
        "ring_model.verify_class_s": (total["ring_model.verify_class"], "s"),
        "ring_model.snapshot_calls": (tracer.calls["ring_model.snapshot"], "count"),
        "adversary.steps_per_round": (tracer.calls["sim_engine.step"] / rounds, "steps/round"),
        "gdg_protocol.compute_s": (total["gdg_protocol.compute"], "s"),
        "gdg_protocol.dispatch_s": (total["gdg_protocol.first_enabled_rule"], "s"),
        "gdg_protocol.apply_s": (total["gdg_protocol.apply_rule"], "s"),
        "gdg_protocol.guards_per_compute": (counts["guards"] / computes, "guards/compute"),
        "sim_engine.build_view_s": (total["sim_engine.build_view"], "s"),
        "sim_engine.step_self_s": (tracer.own["sim_engine.step"] * scale, "s"),
        "sim_engine.rounds": (rounds, "count"),
        "sim_engine.computes": (computes, "count"),
        "sim_engine.rounds_per_s": (untraced_counts["rounds"] / wall, "1/s"),
        "sim_engine.computes_per_s": (untraced_counts["computes"] / wall, "1/s"),
        "sim_engine.idle_round_share": (counts["idle_rounds"] / rounds, "share"),
        "sim_engine.jsonl_encode_s": (total["sim_engine.trace_to_jsonl"], "s"),
        "sim_engine.jsonl_bytes": (counts["jsonl_bytes"], "bytes"),
        "sim_engine.jsonl_decode_s": (decode, "s"),
        "checkers.check_variant_s": (total["checkers.check_variant"], "s"),
        "checkers.monitor_s": (total["checkers.monitor_invariants"], "s"),
        **{f"{module}.self_s": (tracer.module_self(module) * scale, "s") for module in MODULES},
        "trace.wall_s": (traced_s, "s"),
        # The untraced pass has neither the build nor the JSONL round-trip.
        "trace.overhead_s": (traced_s - build_s - decode - wall, "s"),
        "trace.coverage": (tracer.covered / traced_raw, "share"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("corpus", "crowd", "duel"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gdg_sim" / "__init__.py").is_file():
        print(f"error: no gdg_sim package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    host = HostSpeed()
    host.start()
    try:
        setup = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            workloads, inputs = load_inputs(args.workload, args.seed)
            setup.append((start, time.perf_counter()))

        passes: list[Pass] = []
        start = time.perf_counter()
        while True:
            passes.append(Pass(workloads, inputs))
            elapsed = time.perf_counter() - start
            if args.trace or (
                len(passes) >= MIN_PASSES
                and elapsed * (len(passes) + 1) / len(passes) > args.seconds
            ):
                break
        rss_mb = peak_rss_mb()

        if args.trace:
            from tracing import Tracer

            with Tracer() as tracer:
                traced_start = time.perf_counter()
                traced_inputs = workloads.build(args.workload, args.seed)
                build_end = time.perf_counter()
                passes.append(Pass(workloads, traced_inputs, roundtrip=True))
    finally:
        host.stop()

    seconds = [[host.scaled(*iv) for iv in p.intervals] for p in passes]
    untraced = seconds[:1] if args.trace else seconds
    fastest = [min(times) for times in zip(*untraced)]
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "experiments": len(inputs),
        "passes": len(untraced),
        "pass_wall_s": [sum(times) for times in untraced],
        "pass_unscaled_s": [sum(b - a for a, b in p.intervals) for p in passes[:len(untraced)]],
        "setup_s": [host.scaled(*iv) for iv in setup],
        "peak_rss_mb": rss_mb,
        "counts": dict(passes[0].counts),
        "class_wall_s": {},
        "experiment_s": fastest,
        "robot_rounds": passes[0].robot_rounds,
    }
    for exp, s in zip(inputs, fastest):
        detail["class_wall_s"][exp.label] = detail["class_wall_s"].get(exp.label, 0.0) + s

    if args.trace:
        build_s = host.scaled(traced_start, build_end)
        traced_raw = build_end - traced_start + sum(b - a for a, b in passes[-1].intervals)
        metrics = per_layer(
            tracer, untraced[0], passes[0].counts, passes[-1].counts,
            build_s + sum(seconds[-1]), build_s, traced_raw, rss_mb,
        )
        detail["spans"] = {
            name: [tracer.calls[name], tracer.total[name], tracer.own[name]]
            for name in sorted(tracer.calls)
        }
    else:
        metrics = end_to_end(fastest, passes[0], statistics.median(detail["setup_s"]))

    if args.seed == workloads.DEFAULT_SEED:
        expected = json.loads((HERE / "digests.json").read_text())[args.workload]
    else:
        expected = passes[0].digest
    failed = count_failed(passes, expected, len(inputs))
    detail["digest"] = passes[0].digest
    detail["problems"] = [q for p in passes for q in p.problems][:10]
    print(json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(inputs) * len(passes),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
