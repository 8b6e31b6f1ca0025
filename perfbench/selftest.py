#!/usr/bin/env python3
"""Self-test of the benchmark's correctness gate and guard count.

Run from the repository root:

    python3 perfbench/selftest.py

It checks that the gate counts a corrupted verdict, a defeated duel, an
experiment that raises and a changed trace digest as failures, and that
guards derived from each fired rule's position in RULE_ORDER equal a
profiler's count of ``_guard`` calls.
Exits 1 if any check fails.
"""

from __future__ import annotations

import cProfile
import pstats
import sys
from dataclasses import replace

import run


class _Raises:
    """An experiment whose simulation raises."""

    label = "raises"

    def simulate(self, roundtrip: bool = False):
        raise RuntimeError("injected failure")


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    workloads, inputs = run.load_inputs("corpus", 0)
    st_run = inputs[0]
    result = st_run.simulate()
    duel = workloads.DuelInput(4, {1: 0, 2: 1, 3: 2, 4: 3}, 3, 4, horizon=50)
    duel_result = duel.simulate()
    stripped = replace(result.verdict, variants=frozenset())
    unsafe = replace(result.verdict, safety_ok=False)

    one_pass = run.Pass(workloads, [st_run])
    after_raise = run.Pass(workloads, [_Raises(), st_run])
    checks = {
        "a good run passes the gate": st_run.judge(result) == [],
        "a good duel passes the gate": duel.judge(duel_result) == [],
        "a corrupted verdict fails": bool(st_run.judge(replace(result, verdict=stripped))),
        "an unsafe verdict fails": bool(st_run.judge(replace(result, verdict=unsafe))),
        "a monitor violation fails": bool(st_run.judge(replace(result, violations=[("min-id", 3)]))),
        "a defeated duel fails": bool(duel.judge(replace(duel_result, defeated_at=7))),
        "a non-AC duel schedule fails": bool(duel.judge(replace(duel_result, always_connected=False))),
        "a raising experiment fails alone": after_raise.failed == 1 and after_raise.computes[1] > 0,
        "a matching digest counts no failure": run.count_failed([one_pass], one_pass.digest, 1) == 0,
        "a changed digest counts as failed": run.count_failed([run.Pass(workloads, [st_run])], "0" * 64, 1) == 1,
    }

    profiler = cProfile.Profile()
    profiler.enable()
    profiled = st_run.simulate()
    profiler.disable()
    guard_calls = sum(
        calls for (_, _, func), (_, calls, *_) in pstats.Stats(profiler).stats.items()
        if func == "_guard"
    )
    _, _, guards = workloads.count_work(profiled.trace)
    checks[f"derived guards {guards} equal profiled _guard calls {guard_calls}"] = guards == guard_calls

    for name, ok in checks.items():
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
    return 0 if all(checks.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
