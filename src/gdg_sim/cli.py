"""Command-line entry point for reproducible gathering experiments.

Exit codes:
    0  success
    1  verdict failure: a run missed its class's expected variant or fired
       an invariant monitor, the adversary was defeated, or a batch entry
       failed or was rejected
    2  usage or configuration error
    3  internal error: a generator's failed post-check, a ProtocolViolation
       or another bug aborts the command, batch included, and its traceback
       goes to stderr

All randomness flows from a single seed through random.Random (Mersenne
Twister), so identical configs replay byte-identically.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import random
import sys
import traceback
from pathlib import Path
from typing import Optional

from . import adversary as adv
from .checkers import Experiment, experiment
from .ring_model import (
    BRE,
    CLASS_TAGS,
    DynClass,
    ring_from_json,
    ring_to_json,
    verify_class,
)
from .sim_engine import trace_to_jsonl

USAGE_ERROR = 2
VERDICT_FAILURE = 1
INTERNAL_ERROR = 3


class CliError(Exception):
    pass


def _parse_ids(text: str) -> list[int]:
    try:
        ids = [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise CliError(f"bad --ids value {text!r}")
    if len(ids) != len(set(ids)):  # initial_configuration rejects an id below 1
        raise CliError("ids must be distinct")
    if len(ids) < 4:
        raise CliError("at least 4 robots are required")
    return ids


def _resolve_seed(value: Optional[int]) -> int:
    if value is not None:
        return value
    env = os.environ.get("GDG_SEED")
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError:
        raise CliError(f"bad GDG_SEED value {env!r}")


def _placement_for(
    ids: list[int], n: int, placement: Optional[str], rng: random.Random
) -> dict[int, int]:
    if placement is None or placement == "random":
        return {rid: rng.randrange(n) for rid in sorted(ids)}
    try:
        nodes = [int(x) for x in placement.split(",") if x.strip()]
    except ValueError:
        raise CliError(f"bad --placement value {placement!r}")
    if len(nodes) != len(ids):
        raise CliError("--placement must list one node per id")
    return dict(zip(sorted(ids), nodes))  # initial_configuration checks the range


def _dyn_class(tag: Optional[str], delta: Optional[int]) -> Optional[DynClass]:
    if tag is None:
        if delta is not None:
            raise CliError("--delta requires --class bre")
        return None
    if tag == BRE and delta is None:
        raise CliError("--class bre requires --delta")
    return DynClass(tag, delta)  # rejects a delta for any class but bre


def _experiment(args: argparse.Namespace) -> Experiment:
    """ids -> seed -> class -> ring -> placement -> judged run."""
    ids = _parse_ids(args.ids)
    seed = _resolve_seed(args.seed)
    rng = random.Random(seed)
    dyn = _dyn_class(args.dyn_class, args.delta)

    if args.schedule:
        ring = ring_from_json(Path(args.schedule).read_text())
        if dyn is not None and not verify_class(ring, dyn):
            raise CliError(f"schedule does not satisfy class {dyn.tag}")
    else:
        if dyn is None:
            raise CliError("either --class or --schedule is required")
        if args.n < 4:  # generate's own check, worded for the flag
            raise ValueError(f"ring size must be >= 4 to generate a ring, got --n {args.n}")
        ring = adv.generate(adv.GeneratorSpec(dyn, args.n, seed))
    if args.n and ring.n != args.n:
        raise CliError("--n disagrees with the schedule")

    placement = _placement_for(ids, ring.n, args.placement, rng)
    return experiment(ring, placement, dyn, seed, args.horizon)


def _verdict_doc(exp: Experiment) -> dict:
    verdict = dataclasses.asdict(exp.verdict)
    verdict["variants"] = sorted(verdict["variants"])
    violations = [list(v) for v in exp.violations]
    return {**verdict, "violations": violations, "stop": exp.stop._asdict()}


def cmd_run(args: argparse.Namespace) -> int:
    exp = _experiment(args)
    doc = _verdict_doc(exp)
    doc["final_positions"] = {rid: rec.position for rid, rec in exp.trace.events[-1].robots.items()}

    if args.trace_out:
        Path(args.trace_out).write_text(trace_to_jsonl(exp.trace))
    if args.verdict_out:
        Path(args.verdict_out).write_text(json.dumps(doc, indent=2) + "\n")
    print(json.dumps(doc))
    return 0 if exp.ok else VERDICT_FAILURE


def cmd_adversary(args: argparse.Namespace) -> int:
    n = args.n
    if n < 4:  # before the placement draws nodes from range(n)
        raise CliError("--n must be >= 4")
    ids = _parse_ids(args.ids)
    seed = _resolve_seed(args.seed)
    rng = random.Random(seed)
    *_, second, top = sorted(ids)
    # An unset target takes its default, the largest id for r1 and the second
    # largest for r2, or the other of the two if the other target holds it.
    r1 = args.r1 if args.r1 is not None else next(i for i in (top, second) if i != args.r2)
    r2 = args.r2 if args.r2 is not None else next(i for i in (second, top) if i != r1)
    if r1 == r2 or r1 not in ids or r2 not in ids:
        raise CliError("--r1 and --r2 must be two distinct ids from --ids")
    placement = _placement_for(ids, n, args.placement, rng)
    # A random draw that puts the targets on one node is drawn again; an
    # explicit one is adaptive_ac_adversary's to reject.
    if placement[r1] == placement[r2] and args.placement in (None, "random"):
        placement[r2] = (placement[r1] + 1 + rng.randrange(n - 1)) % n

    result = adv.adaptive_ac_adversary(n, len(ids), placement, r1, r2, args.horizon)
    if args.schedule_out:
        if result.ring is None:  # no cycle proven, so no schedule repeats the duel
            raise CliError(
                f"no cycle was proven within --horizon {args.horizon}, so --schedule-out "
                "has no schedule to write; raise --horizon"
            )
        Path(args.schedule_out).write_text(ring_to_json(result.ring) + "\n")
    if args.trace_out:
        Path(args.trace_out).write_text(trace_to_jsonl(result.trace))
    rounds = len(result.trace.events)
    stop = result.stop._asdict()
    print(json.dumps({"defeated_at": result.defeated_at, "rounds": rounds, "stop": stop}))
    return 0 if result.defeated_at is None else VERDICT_FAILURE


def cmd_batch(args: argparse.Namespace) -> int:
    entries = json.loads(Path(args.spec).read_text())
    if not isinstance(entries, list):
        raise CliError("a batch spec must be a JSON list of entries")
    report = {"runs": [], "matrix": {}}
    per_class: dict[str, list[set[str]]] = {}
    for i, entry in enumerate(entries):
        try:
            exp = _experiment(_run_namespace(entry))
        except (CliError, ValueError) as exc:  # a bad entry; internal errors abort
            report["runs"].append(
                {"index": i, "ok": False, "error": str(exc), "error_type": type(exc).__name__}
            )
            continue
        tag = exp.trace.class_claim
        report["runs"].append(
            {"index": i, "class": tag, "seed": exp.trace.seed, "ok": exp.ok, **_verdict_doc(exp)}
        )
        per_class.setdefault(tag, []).append(set(exp.verdict.variants))
    for tag, variant_sets in per_class.items():
        report["matrix"][tag] = sorted(set.intersection(*variant_sets))
    print(json.dumps(report, indent=2))
    if args.report_out:
        Path(args.report_out).write_text(json.dumps(report, indent=2) + "\n")
    # Exit 1 if any entry was rejected, missed its expected variant or fired a monitor.
    return 0 if all(r["ok"] for r in report["runs"]) else VERDICT_FAILURE


_ENTRY_TYPES = {
    "n": int, "ids": str, "class": str, "delta": int,
    "placement": str, "seed": int, "horizon": int,
}


def _run_namespace(entry: object) -> argparse.Namespace:
    """The `run` arguments of one batch entry, after checking its keys and types."""
    if not isinstance(entry, dict):
        raise CliError("a batch entry must be a JSON object")
    for key, value in entry.items():
        kind = _ENTRY_TYPES.get(key)
        if kind is None:
            raise CliError(f"unknown batch entry key {key!r}")
        if not isinstance(value, kind) or isinstance(value, bool):
            raise CliError(f"batch entry key {key!r} must be {kind.__name__}")
    args = build_parser().parse_args(["run", "--ids", ""])  # run's own defaults
    for key, value in entry.items():
        setattr(args, "dyn_class" if key == "class" else key, value)
    return args


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gdg-sim")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate one gathering run")
    p_run.add_argument("--n", type=int, default=0)
    p_run.add_argument("--ids", required=True)
    p_run.add_argument("--class", dest="dyn_class", choices=CLASS_TAGS)
    p_run.add_argument("--delta", type=int)
    p_run.add_argument("--schedule")
    p_run.add_argument("--placement")
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--horizon", type=int)
    p_run.add_argument("--trace-out")
    p_run.add_argument("--verdict-out")
    p_run.set_defaults(func=cmd_run)

    p_adv = sub.add_parser("adversary", help="run the adaptive AC adversary")
    p_adv.add_argument("--n", type=int, required=True)
    p_adv.add_argument("--ids", required=True)
    p_adv.add_argument("--r1", type=int)
    p_adv.add_argument("--r2", type=int)
    p_adv.add_argument("--placement")
    p_adv.add_argument("--seed", type=int)
    p_adv.add_argument("--horizon", type=int, required=True)
    p_adv.add_argument("--schedule-out")
    p_adv.add_argument("--trace-out")
    p_adv.set_defaults(func=cmd_adversary)

    p_batch = sub.add_parser("batch", help="run a list of configs and aggregate")
    p_batch.add_argument("--spec", required=True)
    p_batch.add_argument("--report-out")
    p_batch.set_defaults(func=cmd_batch)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    # JSONDecodeError is a ValueError; OSError covers a missing file and a directory.
    except (CliError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except Exception:  # an internal error, not a bad input
        traceback.print_exc()
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
