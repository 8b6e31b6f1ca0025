import json

import pytest

from gdg_sim import adversary, checkers, gdg_protocol
from gdg_sim.checkers import BoundParams, bound_for
from gdg_sim.cli import main
from gdg_sim.ring_model import ST, DynClass
from gdg_sim.ring_model import ring_from_json
from gdg_sim.sim_engine import trace_from_jsonl


def test_run_st_succeeds(tmp_path, capsys):
    trace_out = tmp_path / "trace.jsonl"
    verdict_out = tmp_path / "verdict.json"
    code = main(
        [
            "run", "--n", "4", "--ids", "1,2,3,4", "--class", "st",
            "--seed", "7",
            "--trace-out", str(trace_out),
            "--verdict-out", str(verdict_out),
        ]
    )
    assert code == 0
    doc = json.loads(verdict_out.read_text())
    assert "G" in doc["variants"]
    assert doc["violations"] == []
    assert doc["stop"] == {"reason": "all_terminated", "start": None, "period": None}
    assert len(set(doc["final_positions"].values())) == 1
    trace = trace_from_jsonl(trace_out.read_text())
    assert trace.seed == 7


def test_run_explicit_placement(capsys):
    code = main(
        [
            "run", "--n", "4", "--ids", "1,2,3,4", "--class", "st",
            "--placement", "0,1,2,3", "--seed", "0",
        ]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert doc["safety_ok"]


def test_run_cot_reports_partial_gathering(capsys):
    code = main(
        ["run", "--n", "6", "--ids", "1,2,3,4,5", "--class", "cot", "--seed", "5"]
    )
    out = capsys.readouterr().out.strip().splitlines()[-1]
    doc = json.loads(out)
    assert "G_EW" in doc["variants"]
    assert code == 0


def test_bre_without_delta_is_usage_error(capsys):
    assert main(["run", "--n", "4", "--ids", "1,2,3,4", "--class", "bre"]) == 2
    assert capsys.readouterr().err == "error: --class bre requires --delta\n"


@pytest.mark.parametrize(
    "args, message",
    [
        (["--class", "st", "--delta", "3"], "delta is only meaningful for BRE, not st"),
        (["--class", "ac", "--delta", "0"], "delta is only meaningful for BRE, not ac"),
        (["--class", "cot", "--delta", "2"], "delta is only meaningful for BRE, not cot"),
        (["--class", "re", "--delta", "1"], "delta is only meaningful for BRE, not re"),
        (["--delta", "3"], "--delta requires --class bre"),
    ],
    ids=["st", "ac", "cot", "re", "without-class"],
)
def test_delta_applies_only_to_bre(capsys, args, message):
    assert main(["run", "--n", "6", "--ids", "1,2,3,4", "--seed", "1", *args]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_duplicate_ids_usage_error(capsys):
    assert main(["run", "--n", "4", "--ids", "1,1,3,4", "--class", "st"]) == 2


def test_missing_schedule_file_usage_error(capsys):
    assert (
        main(["run", "--n", "4", "--ids", "1,2,3,4", "--schedule", "/no/such.json"])
        == 2
    )


@pytest.mark.parametrize(
    "args",
    [
        ["run", "--ids", "1,2,3,4", "--schedule"],
        ["batch", "--spec"],
        ["run", "--ids", "1,2,3,4", "--class", "st", "--n", "4", "--trace-out"],
    ],
    ids=["schedule", "spec", "trace-out"],
)
def test_directory_path_is_usage_error(tmp_path, capsys, args):
    # Reading or writing a directory raises IsADirectoryError, an OSError.
    assert main([*args, str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_schedule_class_mismatch_usage_error(tmp_path, capsys):
    sched = tmp_path / "ring.json"
    sched.write_text(
        json.dumps({"n": 4, "prefix": [], "cycle": [[0, 0, 1, 1]]})
    )
    code = main(
        [
            "run", "--n", "4", "--ids", "1,2,3,4", "--class", "ac",
            "--schedule", str(sched),
        ]
    )
    assert code == 2


@pytest.mark.parametrize("tag", ["re", "cot", "bre"])
def test_schedule_missing_an_edge_throughout_is_in_no_class(tmp_path, capsys, tag):
    # Edge 1 is never present, so the footprint is a chain, not the ring.
    prefix = [[0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 0, 1, 0]]
    cycle = [[0, 0, 0, 1], [0, 0, 1, 0], [0, 0, 1, 0], [1, 0, 0, 0], [0, 0, 1, 0]]
    sched = tmp_path / "ring.json"
    sched.write_text(json.dumps({"n": 4, "prefix": prefix, "cycle": cycle}))
    delta = ["--delta", "7"] if tag == "bre" else []
    args = ["--ids", "1,2,3,4", "--placement", "0,1,1,1", "--class", tag, *delta]
    assert main(["run", *args, "--schedule", str(sched)]) == 2
    assert capsys.readouterr().err == f"error: schedule does not satisfy class {tag}\n"


# "-100,1,2,3" gives st a negative round bound, so the ids are checked
# before the horizon derived from them.
@pytest.mark.parametrize("ids", ["0,1,2,3", "-1,1,2,3", "1,2,0,3", "-100,1,2,3"])
def test_non_positive_ids_are_usage_errors(tmp_path, capsys, ids):
    assert main(["run", "--n", "4", f"--ids={ids}", "--class", "st"]) == 2
    assert capsys.readouterr().err == "error: robot ids must be strictly positive\n"
    assert _batch(tmp_path, [GOOD_ENTRY, {**GOOD_ENTRY, "ids": ids}]) == 1
    good, bad = json.loads(capsys.readouterr().out)["runs"]
    assert good["ok"]
    assert (bad["index"], bad["ok"], bad["error_type"]) == (1, False, "ValueError")
    assert bad["error"] == "robot ids must be strictly positive"


@pytest.mark.parametrize("bit", [2, -1])
def test_schedule_with_non_binary_bits_usage_error(tmp_path, capsys, bit):
    sched = tmp_path / "ring.json"
    sched.write_text(json.dumps({"n": 4, "prefix": [], "cycle": [[1, bit, 1, 1]]}))
    code = main(["run", "--ids", "1,2,3,4", "--schedule", str(sched)])
    assert code == 2
    assert "0 or 1" in capsys.readouterr().err


CYCLE = [[1, 1, 1, 1]]


@pytest.mark.parametrize(
    "doc",
    [
        [4, [], CYCLE],
        {"n": 4, "prefix": []},
        {"n": 4, "prefix": [], "cycle": CYCLE, "delta": 2},
        {"n": 4.9, "prefix": [], "cycle": CYCLE},
        {"n": "4", "prefix": [], "cycle": CYCLE},
        {"n": True, "prefix": [], "cycle": CYCLE},
        {"n": 4, "prefix": [], "cycle": [[1, True, 1, 1]]},
        {"n": 4, "prefix": [], "cycle": [[1, 0.5, 1, 1]]},
        {"n": 4, "prefix": [], "cycle": [1, 1, 1, 1]},
        {"n": 4, "prefix": 0, "cycle": CYCLE},
    ],
    ids=[
        "list", "no-cycle", "unknown-key", "float-n", "string-n", "bool-n", "bool-bit",
        "float-bit", "flat-cycle", "int-prefix",
    ],
)
def test_malformed_schedule_usage_error(tmp_path, capsys, doc):
    sched = tmp_path / "ring.json"
    sched.write_text(json.dumps(doc))
    code = main(["run", "--ids", "1,2,3,4", "--schedule", str(sched)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_seed_env_fallback(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("GDG_SEED", "99")
    out_a = tmp_path / "a.jsonl"
    main(["run", "--n", "4", "--ids", "1,2,3,4", "--class", "st", "--trace-out", str(out_a)])
    out_b = tmp_path / "b.jsonl"
    main(
        [
            "run", "--n", "4", "--ids", "1,2,3,4", "--class", "st",
            "--seed", "99", "--trace-out", str(out_b),
        ]
    )
    assert out_a.read_text() == out_b.read_text()


@pytest.mark.parametrize(
    "env, args, message",
    [
        ({"GDG_SEED": "abc"}, [], "bad GDG_SEED value 'abc'"),
        ({}, ["--placement", "0,1,x,2"], "bad --placement value '0,1,x,2'"),
    ],
    ids=["seed-env", "placement"],
)
@pytest.mark.parametrize("command", ["run", "adversary"])
def test_bad_integer_input_is_named(capsys, monkeypatch, command, env, args, message):
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    common = ["--n", "4", "--ids", "1,2,3,4"]
    extra = ["--class", "st"] if command == "run" else ["--horizon", "10"]
    assert main([command, *common, *extra, *args]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "args, message",
    [
        (["--ids", "1,2,x,4"], "bad --ids value '1,2,x,4'"),
        (["--ids", "1,2,3"], "at least 4 robots are required"),
        (["--ids", "1,2,3,4", "--placement", "0,1,2"], "--placement must list one node per id"),
        (["--ids", "1,2,3,4", "--placement", "0,1,2,4"], "placement node out of range"),
        (["--ids", "1,2,3,4", "--n", "5"], "--n disagrees with the schedule"),
        (["--ids", "1,2,3,4", "--delta", "2"], "--delta requires --class bre"),
    ],
    ids=[
        "ids-not-integer", "three-ids", "placement-count", "placement-node", "n-vs-schedule",
        "delta-without-class",
    ],
)
def test_run_input_is_checked(tmp_path, capsys, args, message):
    sched = tmp_path / "ring.json"
    sched.write_text(json.dumps({"n": 4, "prefix": [], "cycle": [[1, 1, 1, 1]]}))
    assert main(["run", "--schedule", str(sched), *args]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_run_bre_with_delta(tmp_path, capsys):
    trace_out = tmp_path / "trace.jsonl"
    code = main(
        [
            "run", "--n", "6", "--ids", "1,2,3,4", "--class", "bre", "--delta", "3",
            "--trace-out", str(trace_out),
        ]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert "G" in doc["variants"] and doc["bound_ok"]
    assert doc["stop"]["reason"] == "all_terminated"
    assert trace_from_jsonl(trace_out.read_text()).class_claim == "bre"


def test_adversary_trace_out(tmp_path, capsys):
    trace_out = tmp_path / "trace.jsonl"
    code = main(
        [
            "adversary", "--n", "4", "--ids", "1,2,3,4", "--horizon", "40",
            "--trace-out", str(trace_out),
        ]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    trace = trace_from_jsonl(trace_out.read_text())
    assert (trace.n, trace.ids, trace.class_claim) == (4, (1, 2, 3, 4), "ac")
    assert len(trace.events) == doc["rounds"] == 40


@pytest.fixture
def adversary_calls(monkeypatch):
    """The (placement, r1, r2) of each call the CLI makes to the adaptive adversary."""
    seen = []
    real = adversary.adaptive_ac_adversary

    def spy(n, R, placement, r1, r2, horizon):
        seen.append((dict(placement), r1, r2))
        return real(n, R, placement, r1, r2, horizon)

    monkeypatch.setattr(adversary, "adaptive_ac_adversary", spy)
    return seen


def test_adversary_random_placement_redraws_colocated_targets(capsys, adversary_calls):
    code = main(["adversary", "--n", "4", "--ids", "1,2,3,4", "--horizon", "5", "--seed", "13"])
    assert code == 0
    # Seed 13 draws nodes 2, 2, 1, 1, so targets 4 and 3 meet on node 1, and
    # the next draw moves target 3 to node 0.
    assert adversary_calls == [({1: 2, 2: 2, 3: 0, 4: 1}, 4, 3)]


def test_adversary_never_defeated(tmp_path, capsys):
    sched = tmp_path / "sched.json"
    code = main(
        [
            "adversary", "--n", "4", "--ids", "1,2,3,4",
            "--horizon", "200", "--seed", "3",
            "--schedule-out", str(sched),
        ]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert doc["defeated_at"] is None
    assert doc["rounds"] == 200
    assert doc["stop"] == {"reason": "cycle", "start": 10, "period": 1}
    # The schedule closes with the proven cycle.
    ring = ring_from_json(sched.read_text())
    assert ring.n == 4
    assert (len(ring.schedule.prefix), len(ring.schedule.cycle)) == (10, 1)


@pytest.mark.parametrize("horizon", [11, 12])
def test_adversary_writes_a_schedule_only_for_a_proven_cycle(tmp_path, capsys, horizon):
    # This duel proves its cycle at horizon 12, not at 11. Without the proof
    # the closed ring repeats the last snapshot, which may let the targets meet.
    sched = tmp_path / "sched.json"
    code = main(
        [
            "adversary", "--n", "4", "--ids", "1,2,3,4",
            "--horizon", str(horizon), "--seed", "3",
            "--schedule-out", str(sched),
        ]
    )
    if horizon == 11:
        assert code == 2
        assert not sched.exists()
        assert "--horizon 11" in capsys.readouterr().err
    else:
        assert code == 0
        ring = ring_from_json(sched.read_text())
        assert (len(ring.schedule.prefix), len(ring.schedule.cycle)) == (10, 1)


@pytest.mark.parametrize("n", [0, 1, 3])
def test_adversary_small_ring_is_usage_error(capsys, n):
    code = main(["adversary", "--n", str(n), "--ids", "1,2,3,4", "--horizon", "10"])
    assert code == 2
    assert capsys.readouterr().err == "error: --n must be >= 4\n"


@pytest.mark.parametrize("targets", [["--r1", "99"], ["--r2", "0"], ["--r1", "2", "--r2", "2"]])
def test_adversary_bad_targets_are_usage_errors(capsys, targets):
    code = main(["adversary", "--n", "4", "--ids", "1,2,3,4", "--horizon", "10", *targets])
    assert code == 2
    assert "--r1 and --r2 must be two distinct ids" in capsys.readouterr().err


@pytest.mark.parametrize("target", [["--r1", "3"], ["--r2", "4"]], ids=["r1-3", "r2-4"])
def test_adversary_unset_target_takes_the_other_default(capsys, adversary_calls, target):
    # r1 defaults to the largest id and r2 to the second largest. A set target
    # holding the other's default leaves that one the other of the two ids.
    code = main(["adversary", "--n", "6", "--ids", "1,2,3,4", "--horizon", "5", *target])
    assert code == 0
    assert [(r1, r2) for _, r1, r2 in adversary_calls] == [(3, 4)]


def test_adversary_explicit_placement_with_colocated_targets_is_usage_error(
    tmp_path, capsys
):
    trace_out = tmp_path / "trace.jsonl"
    code = main(
        [
            "adversary", "--n", "6", "--ids", "1,2,3,4", "--placement", "0,0,0,0",
            "--horizon", "5", "--trace-out", str(trace_out),
        ]
    )
    assert code == 2
    assert "targets must be distinct robots on distinct nodes" in capsys.readouterr().err
    assert not trace_out.exists()


def test_adversary_explicit_placement_is_kept(capsys, adversary_calls):
    code = main(
        [
            "adversary", "--n", "6", "--ids", "1,2,3,4", "--placement", "0,0,0,3",
            "--horizon", "5",
        ]
    )
    assert code == 0
    assert adversary_calls == [({1: 0, 2: 0, 3: 0, 4: 3}, 4, 3)]


def test_batch_aggregates(tmp_path, capsys):
    spec = tmp_path / "batch.json"
    spec.write_text(
        json.dumps(
            [
                {"n": 4, "ids": "1,2,3,4", "class": "st", "seed": 1},
                {"n": 4, "ids": "1,2,3,4", "class": "st", "seed": 2},
                {"n": 4, "ids": "1,1,3,4", "class": "st", "seed": 3},
            ]
        )
    )
    code = main(["batch", "--spec", str(spec)])
    assert code == 1  # the bad entry fails the batch
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["runs"]) == 3
    assert "error" in doc["runs"][2]  # bad entry recorded, batch keeps going
    assert [r["stop"]["reason"] for r in doc["runs"][:2]] == ["all_terminated"] * 2
    assert doc["matrix"]["st"] == ["G", "G_E", "G_EW", "G_W"]


def _batch(tmp_path, entries):
    spec = tmp_path / "batch.json"
    spec.write_text(json.dumps(entries))
    return main(["batch", "--spec", str(spec)])


def test_batch_report_out_equals_stdout(tmp_path, capsys):
    spec, report = tmp_path / "batch.json", tmp_path / "report.json"
    spec.write_text(json.dumps([{"n": 4, "ids": "1,2,3,4", "class": "st", "seed": 1}]))
    assert main(["batch", "--spec", str(spec), "--report-out", str(report)]) == 0
    assert report.read_text() == capsys.readouterr().out
    assert json.loads(report.read_text())["matrix"] == {"st": ["G", "G_E", "G_EW", "G_W"]}


def test_batch_all_ok_exits_zero(tmp_path, capsys):
    code = _batch(tmp_path, [{"n": 4, "ids": "1,2,3,4", "class": "st", "seed": s} for s in (1, 2)])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert [r["ok"] for r in doc["runs"]] == [True, True]


def test_batch_bad_entry_exits_one(tmp_path, capsys):
    code = _batch(
        tmp_path,
        [
            {"n": 4, "ids": "1,2,3,4", "class": "st", "seed": 1},
            {"n": 2, "ids": "1,2,3,4", "class": "st", "seed": 1},
        ],
    )
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["runs"][0]["ok"]
    bad = doc["runs"][1]
    assert (bad["index"], bad["ok"], bad["error_type"]) == (1, False, "ValueError")
    assert "ring size" in bad["error"]


@pytest.mark.parametrize("n", [None, 0, 3])
@pytest.mark.parametrize("tag", ["ac", "cot", "st"])
def test_generated_ring_needs_n_of_at_least_four(capsys, tag, n):
    # Without a usable --n, ac divided by zero and cot drew from an empty range.
    size = [] if n is None else ["--n", str(n)]
    code = main(["run", *size, "--ids", "1,2,3,4", "--class", tag, "--seed", "1"])
    assert code == 2
    assert "--n" in capsys.readouterr().err


def test_batch_entry_without_n_is_error_row(tmp_path, capsys):
    code = _batch(
        tmp_path,
        [
            {"ids": "1,2,3,4", "class": "ac", "seed": 1},
            {"n": 4, "ids": "1,2,3,4", "class": "st", "seed": 1},
        ],
    )
    assert code == 1
    bad, good = json.loads(capsys.readouterr().out)["runs"]
    assert (bad["index"], bad["ok"], bad["error_type"]) == (0, False, "ValueError")
    assert "--n" in bad["error"]
    assert (good["index"], good["ok"]) == (1, True)


def test_batch_missed_variant_exits_one(tmp_path, capsys):
    # One round is too short for four spread robots to gather.
    code = _batch(tmp_path, [{"n": 4, "ids": "1,2,3,4", "class": "st", "seed": 1, "horizon": 1}])
    assert code == 1
    run = json.loads(capsys.readouterr().out)["runs"][0]
    assert not run["ok"]
    assert "G" not in run["variants"]


def test_run_zero_horizon_is_usage_error(capsys):
    code = main(
        ["run", "--n", "4", "--ids", "1,2,3,4", "--class", "st", "--seed", "1", "--horizon", "0"]
    )
    assert code == 2
    assert "horizon must be >= 1" in capsys.readouterr().err


def test_batch_zero_horizon_is_error_row(tmp_path, capsys):
    code = _batch(tmp_path, [{"n": 4, "ids": "1,2,3,4", "class": "st", "seed": 1, "horizon": 0}])
    assert code == 1
    row = json.loads(capsys.readouterr().out)["runs"][0]
    assert (row["ok"], row["error_type"]) == (False, "ValueError")
    assert "horizon must be >= 1" in row["error"]


def test_run_default_horizon_covers_the_bound(tmp_path, capsys):
    trace_out = tmp_path / "trace.jsonl"
    code = main(
        [
            "run", "--n", "4", "--ids", "1,2,3,4", "--class", "st", "--seed", "1",
            "--trace-out", str(trace_out),
        ]
    )
    assert code == 0
    bound = bound_for(BoundParams(DynClass(ST), 4, 4, 1))
    assert trace_from_jsonl(trace_out.read_text()).horizon == bound + 1


GOOD_ENTRY = {"n": 4, "ids": "1,2,3,4", "class": "st", "seed": 1}


@pytest.mark.parametrize(
    "entry, message",
    [
        ([4, "1,2,3,4", "st"], "JSON object"),
        ("st", "JSON object"),
        ({**GOOD_ENTRY, "sed": 3}, "unknown batch entry key 'sed'"),
        ({**GOOD_ENTRY, "seed": "x"}, "'seed' must be int"),
        ({**GOOD_ENTRY, "seed": None}, "'seed' must be int"),
        ({**GOOD_ENTRY, "ids": 1234}, "'ids' must be str"),
        ({**GOOD_ENTRY, "class": 3}, "'class' must be str"),
        ({**GOOD_ENTRY, "n": True}, "'n' must be int"),
        ({**GOOD_ENTRY, "horizon": 1.5}, "'horizon' must be int"),
        ({**GOOD_ENTRY, "placement": [0, 1, 2, 3]}, "'placement' must be str"),
        ({**GOOD_ENTRY, "placement": "0,1,x,2"}, "bad --placement value '0,1,x,2'"),
    ],
)
def test_batch_rejects_malformed_entry(tmp_path, capsys, entry, message):
    code = _batch(tmp_path, [GOOD_ENTRY, entry])
    assert code == 1
    good, bad = json.loads(capsys.readouterr().out)["runs"]
    assert good["ok"]
    assert (bad["index"], bad["ok"], bad["error_type"]) == (1, False, "CliError")
    assert message in bad["error"]


@pytest.mark.parametrize(
    "extra, error_type, message",
    [
        ({"class": "cot", "delta": 2}, "ValueError", "delta is only meaningful for BRE, not cot"),
        ({"class": "st", "delta": 3}, "ValueError", "delta is only meaningful for BRE, not st"),
        ({"class": "ac", "delta": 0}, "ValueError", "delta is only meaningful for BRE, not ac"),
        ({"delta": 2}, "CliError", "--delta requires --class bre"),
    ],
    ids=["cot", "st", "ac", "without-class"],
)
def test_batch_delta_outside_bre_is_error_row(tmp_path, capsys, extra, error_type, message):
    entry = {"n": 6, "ids": "1,2,3,4", "seed": 1, **extra}
    code = _batch(tmp_path, [GOOD_ENTRY, entry])
    assert code == 1
    good, bad = json.loads(capsys.readouterr().out)["runs"]
    assert good["ok"]
    assert (bad["index"], bad["ok"], bad["error_type"]) == (1, False, error_type)
    assert bad["error"] == message


def test_batch_spec_must_be_a_list(tmp_path, capsys):
    assert _batch(tmp_path, GOOD_ENTRY) == 2


def test_batch_internal_error_aborts(tmp_path, capsys, monkeypatch):
    def broken(spec):
        raise AssertionError("generated ring failed st verification")

    monkeypatch.setattr(adversary, "generate", broken)
    assert _batch(tmp_path, [GOOD_ENTRY]) == 3
    out, err = capsys.readouterr()
    assert out == ""  # aborted before any report
    assert err.startswith("Traceback")
    assert "AssertionError: generated ring failed st verification" in err


def test_protocol_violation_is_internal_error(capsys, monkeypatch):
    def stuck(view):
        raise gdg_protocol.ProtocolViolation("no rule enabled")

    monkeypatch.setattr(gdg_protocol, "first_enabled_rule", stuck)
    code = main(["run", "--n", "4", "--ids", "1,2,3,4", "--class", "st"])
    assert code == 3
    assert "ProtocolViolation: no rule enabled" in capsys.readouterr().err


def test_batch_reports_monitor_violations(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(checkers, "monitor_invariants", lambda trace: [("min-id", 0)])
    code = _batch(tmp_path, [GOOD_ENTRY])
    assert code == 1
    row = json.loads(capsys.readouterr().out)["runs"][0]
    assert "G" in row["variants"]
    assert (row["ok"], row["violations"]) == (False, [["min-id", 0]])


def test_r_flag_is_gone(capsys):
    with pytest.raises(SystemExit):
        main(["run", "--r", "4", "--ids", "1,2,3,4", "--class", "st"])
