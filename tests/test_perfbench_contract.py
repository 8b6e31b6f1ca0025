"""The package API that the benchmark in perfbench/ calls must keep working,
and the benchmark's crowd workload must keep its recorded trace digest.

Every check runs in a subprocess, as the benchmark does, so that the
tracer's attribute wrapping cannot leak into other tests.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _python(*args):
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, capture_output=True, text=True, timeout=120
    )


def test_selftest_passes():
    done = _python("perfbench/selftest.py")
    assert done.returncode == 0, done.stdout + done.stderr
    assert "FAIL" not in done.stdout


def test_tracer_finds_every_wrapped_attribute():
    # Entering the tracer looks up every module attribute it wraps.
    script = (
        "import sys; sys.path[:0] = ['perfbench', 'src']\n"
        "from tracing import Tracer\n"
        "from gdg_sim import sim_engine\n"
        "run = sim_engine.run\n"
        "with Tracer() as tracer:\n"
        "    print(len(tracer._undo), sim_engine.run is run)\n"
        "print(len(tracer._undo), sim_engine.run is run)\n"
    )
    done = _python("-c", script)
    assert done.returncode == 0, done.stderr
    inside, after = done.stdout.split("\n")[:2]
    assert int(inside.split()[0]) > 0 and inside.endswith("False")
    assert after == "0 True"


def test_crowd_jsonl_bytes_match_reference_digest():
    # The corpus and duel digests are checked in the acceptance suite, which
    # judges the same recipe's inputs in process; crowd is built here.
    script = (
        "import hashlib, sys; sys.path[:0] = ['perfbench', 'src']\n"
        "import workloads\n"
        "digest = hashlib.sha256()\n"
        "for exp in workloads.build('crowd', 0):\n"
        "    digest.update(exp.simulate().jsonl.encode())\n"
        "print(digest.hexdigest())\n"
    )
    done = _python("-c", script)
    assert done.returncode == 0, done.stderr
    expected = json.loads((ROOT / "perfbench" / "digests.json").read_text())["crowd"]
    assert done.stdout.strip() == expected


def test_trace_mode_reports_every_per_layer_metric():
    # --trace 1 wraps package functions by name, so a rename that breaks the
    # per-layer mode shows here, not only when someone next traces a run.
    done = _python("perfbench/run.py", "--workload", "duel", "--seconds", "0", "--trace", "1")
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert {metric["name"] for metric in declared} <= set(result["metrics"])
