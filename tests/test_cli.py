"""CLI plumbing: exponent fits, grids, runners, and reproducible outputs."""

import argparse
import json
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import joinlab
from joinlab import cli, f2core, joins, qsim, reductions
from joinlab.cli import FitResult, build_parser, derive_seed, fit_exponent, main, parse_grid, scaling_points
from joinlab.f2core import BitMatrix
from joinlab.ledger import A_TO_B, BITS
from joinlab.qsim import CostModel


def test_fit_exact_power_law():
    pts = [(x, x**0.75) for x in (2, 4, 8, 16, 32, 64)]
    fit = fit_exponent(pts, n_boot=50)
    assert abs(fit.slope - 0.75) < 1e-9


def test_fit_constant_cost():
    pts = [(x, 5.0) for x in (2, 4, 8, 16)]
    fit = fit_exponent(pts, n_boot=50)
    assert abs(fit.slope) < 1e-9


def test_fit_x_log_x():
    pts = [(2.0**k, 2.0**k * k) for k in range(8, 21)]
    fit = fit_exponent(pts, n_boot=50)
    assert 1.0 < fit.slope < 1.2


def test_fit_rejects_degenerate_inputs():
    with pytest.raises(ValueError):
        fit_exponent([(1, 1), (2, 2)])
    with pytest.raises(ValueError):
        fit_exponent([(1, 1), (1, 2), (1, 3), (1, 4)])
    with pytest.raises(ValueError):
        fit_exponent([(1, 0), (2, 1), (3, 1), (4, 1)])


def test_fit_bootstrap_interval_brackets_slope():
    rng = random.Random(12)
    pts = []
    for x in (4, 8, 16, 32, 64):
        for _ in range(10):
            pts.append((x, x**0.5 * rng.uniform(0.9, 1.1)))
    fit = fit_exponent(pts, n_boot=200)
    assert fit.ci_low <= fit.slope <= fit.ci_high
    assert fit.ci_high - fit.ci_low < 0.3


def test_parse_grid():
    assert parse_grid("64,128,256") == [64, 128, 256]
    assert parse_grid("4..32") == [4, 8, 16, 32]
    assert parse_grid("7") == [7]
    with pytest.raises(ValueError):
        parse_grid("")
    with pytest.raises(ValueError):
        parse_grid("8,0")
    with pytest.raises(ValueError, match="repeated value 64 in '64,128,064'"):
        parse_grid("64,128,064")


def test_derive_seed_stable_and_distinct():
    assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)
    assert derive_seed(1, "a", 2) != derive_seed(1, "a", 3)
    assert derive_seed(1, "a", 2) != derive_seed(2, "a", 2)


def test_run_mmf2_writes_outputs(tmp_path):
    out = tmp_path / "mmf2"
    code = main(
        [
            "run-mmf2",
            "--n", "64",
            "--ell", "16",
            "--trials", "100",
            "--seed", "1",
            "--out", str(out),
            "--min-success", "0.9",
        ]
    )
    assert code == 0
    rows = (out.with_suffix(".csv")).read_text().strip().splitlines()
    assert rows[0] == "n,m,ell,mode,seed,success,classical_bits,qubits,rounds,wall_time_ms"
    assert len(rows) == 101
    summary = json.loads((tmp_path / "mmf2.summary.json").read_text())
    cell = summary["cells"]["n=64 m=64 ell=16"]
    assert cell["trials"] == 100
    assert cell["success_rate"] >= 0.9


def test_run_mmf2_on_one_by_one(tmp_path):
    out = tmp_path / "one"
    argv = ["run-mmf2", "--n", "1", "--ell", "1", "--trials", "3", "--seed", "1", "--out", str(out)]
    assert main(argv) == 0
    summary = json.loads((tmp_path / "one.summary.json").read_text())
    assert summary["cells"]["n=1 m=1 ell=1"]["success_rate"] == 1.0


def test_summary_recomputable_from_csv(tmp_path):
    import csv as csvmod

    out = tmp_path / "redo"
    assert main(["run-disj", "--n", "32", "--trials", "25", "--seed", "6", "--out", str(out)]) == 0
    with open(out.with_suffix(".csv")) as fh:
        rows = list(csvmod.DictReader(fh))
    rate = sum(int(r["success"]) for r in rows) / len(rows)
    mean_bits = sum(int(r["classical_bits"]) for r in rows) / len(rows)
    summary = json.loads((tmp_path / "redo.summary.json").read_text())
    cell = summary["cells"]["n=32 m=32 ell=1"]
    assert cell["success_rate"] == rate
    assert cell["mean_classical_bits"] == mean_bits


def test_run_disj_exact_mode(tmp_path):
    out = tmp_path / "disj"
    code = main(
        [
            "run-disj",
            "--n", "64",
            "--trials", "20",
            "--seed", "3",
            "--mode", "exact",
            "--out", str(out),
            "--min-success", "0.66",
        ]
    )
    assert code == 0


def test_run_disj_exact_mode_past_two_to_the_twenty(tmp_path):
    # exact disj draws from the closed-form state, so no domain cap stops it at n = 2**21
    out = tmp_path / "disj"
    assert main(["run-disj", "--n", "2097152", "--trials", "2", "--mode", "exact", "--out", str(out)]) == 0
    cells = json.loads((tmp_path / "disj.summary.json").read_text())["cells"]
    assert [cell["success_rate"] for cell in cells.values()] == [1.0]


def test_run_bmm_exact_small(tmp_path):
    out = tmp_path / "bmm"
    code = main(
        [
            "run-bmm",
            "--n", "16",
            "--ell", "8",
            "--trials", "10",
            "--seed", "2",
            "--out", str(out),
            "--min-success", "0.8",
        ]
    )
    assert code == 0


def test_run_gc_cost_model():
    code = main(
        [
            "run-gc",
            "--n", "32",
            "--trials", "15",
            "--seed", "4",
            "--mode", "cost-model",
            "--min-success", "0.66",
        ]
    )
    assert code == 0


def test_byte_identical_outputs(tmp_path):
    args = [
        "run-mmf2",
        "--n", "32",
        "--ell", "8",
        "--trials", "5",
        "--seed", "11",
    ]
    csvs = []
    for name in ("one", "two"):
        out = tmp_path / name
        assert main(args + ["--out", str(out)]) == 0
        csvs.append((out.with_suffix(".csv")).read_bytes())
    assert csvs[0] == csvs[1]


def test_scaling_disj_cost(tmp_path, capsys):
    out = tmp_path / "scal"
    code = main(
        [
            "scaling",
            "--protocol", "disj-cost",
            "--n", "1024..16384",
            "--trials", "2",
            "--seed", "5",
            "--divide-log",
            "--out", str(out),
            "--expect-slope", "0.25",
            "--slope-tol", "0.15",
        ]
    )
    assert code == 0
    summary = json.loads((tmp_path / "scal.summary.json").read_text())
    assert "fit" in summary and summary["fit"]["divide_log"] is True


@pytest.mark.parametrize(
    "protocol, module, target, answer",
    [
        ("bmm-cost", joins, "bmm_cost_model", lambda inst: joins.BmmTrace(product=BitMatrix(64, 64, [0] * 64))),
        ("disj-cost", qsim, "disj", lambda a: None),  # every sweep pair intersects
        ("disj-cost", qsim, "disj", lambda a: next(i for i in range(a.n) if not a[i])),
    ],
)
def test_scaling_rows_check_answers(protocol, module, target, answer, monkeypatch):
    model = CostModel.cost_model()
    _, rows = scaling_points(protocol, [64], [16], 2, 1, model, False)
    assert [row["success"] for row in rows] == [1, 1]
    monkeypatch.setattr(module, target, lambda first, *rest: answer(first))
    _, rows = scaling_points(protocol, [64], [16], 2, 1, model, False)
    assert [row["success"] for row in rows] == [0, 0]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--protocol", "bmm-cost", "--n", "8192", "--trials", "3"], "need at least 4 points"),
        (["--protocol", "disj-cost", "--n", "1024", "--trials", "3"], "need at least 4 points"),
        (["--protocol", "bmm-cost", "--n", "64", "--ell", "16", "--trials", "4"], "need at least two distinct x values"),
        (["--protocol", "bmm-cost", "--n", "64", "--trials", "4"], "need at least two distinct x values"),
        (["--protocol", "disj-cost", "--n", "1024", "--trials", "4"], "need at least two distinct x values"),
        (["--protocol", "bmm-cost", "--n", "256,1024", "--ell", "16,64", "--trials", "1"], "a bmm-cost sweep varies --n or --ell, not both"),
    ],
)
def test_scaling_rejects_an_unfittable_sweep_before_any_trial(argv, message, monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("an instance was built")

    monkeypatch.setattr(joins, "gen_hard_instance", refuse)
    monkeypatch.setattr(cli, "_disj_pair", refuse)
    assert main(["scaling", *argv]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_validate_reductions_command(capsys):
    code = main(["validate-reductions", "--trials", "20", "--seed", "1", "--n", "16"])
    assert code == 0
    printed = capsys.readouterr().out
    assert "disj-family: 20/20" in printed
    assert "ip-f2: 20/20" in printed


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["run-disj", "--n", "0"], "--n"),
        (["run-gc", "--n", "0"], "--n"),
        (["run-disj", "--n", "-4"], "--n"),
        (["run-disj", "--n", "0..8"], "--n"),
        (["run-bmm", "--n", "8,0", "--ell", "4"], "--n"),
        (["run-mmf2", "--n", "16", "--ell", "-1"], "--ell"),
        (["scaling", "--protocol", "disj-cost", "--n", "64,-64"], "--n"),
        (["validate-reductions", "--n", "0"], "--n"),
        (["validate-reductions", "--n", "-2"], "--n"),
        (["run-disj", "--n", "8", "--trials", "0"], "--trials"),
    ],
)
def test_size_below_one_rejected(argv, flag, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: must be at least 1" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, flag, text",
    [
        (["run-bmm", "--n", "512..64", "--ell", "4"], "--n", "512..64"),
        (["run-mmf2", "--n", "64", "--ell", "16..4"], "--ell", "16..4"),
    ],
)
def test_descending_range_rejected(argv, flag, text, capsys):
    assert main(argv + ["--min-success", "0"]) == 2
    assert capsys.readouterr().err.endswith(f"error: argument {flag}: bad range '{text}'\n")


def test_scaling_cost_sizes_match_plain_sampling_and_scan(monkeypatch):
    """The benchmark's own disj and bmm cost cells, which the cli digest stops short of, give the
    same rows with the bulk sampler and the two-level scan swapped for rng.sample and a byte scan."""

    def byte_scan(word):
        buf = np.frombuffer(word.to_bytes((word.bit_length() + 7) // 8, "little"), dtype=np.uint8)
        return np.flatnonzero(np.unpackbits(buf, bitorder="little")).tolist()

    def sweep():
        return (
            scaling_points("disj-cost", [1 << 18, 1 << 22], [1], 2, 5, CostModel.cost_model(), False),
            scaling_points("bmm-cost", [8192], [256], 2, 5, CostModel.cost_model(), False),
        )

    fast = sweep()
    assert all(row["success"] for _, rows in fast for row in rows)
    monkeypatch.setattr(cli, "_sample", lambda n, k, rng: rng.sample(range(n), k))
    monkeypatch.setattr(f2core, "_scan_bits", byte_scan)
    assert sweep() == fast


def test_scaling_points_rejects_an_unknown_protocol():
    with pytest.raises(ValueError) as raised:
        scaling_points("mm-cost", [64], [16], 1, 0, CostModel.cost_model(), False)
    assert str(raised.value) == "unknown scaling protocol 'mm-cost'"


def test_usage_error_exit_code():
    assert main(["run-bmm", "--ell", "8"]) == 2  # missing --n
    assert main(["scaling", "--protocol", "nope", "--n", "8"]) == 2
    assert main(["run-disj", "--n", "8", "--trials", "0"]) == 2


@pytest.mark.parametrize(
    "argv, runner",
    [
        (["run-bmm", "--n", "8", "--ell", "4", "--mode", "cost-model"], "run_bmm_trials"),
        (["run-mmf2", "--n", "8", "--ell", "4"], "run_mmf2_trials"),
        (["run-disj", "--n", "8"], "run_disj_trials"),
        (["run-gc", "--n", "8", "--timing"], "run_gc_trials"),
    ],
)
def test_run_that_keeps_nothing_rejected_before_any_trial(argv, runner, monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(cli, runner, refuse)
    assert main(argv + ["--trials", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {argv[0]} would keep nothing of its trials: give --out, --min-success or both\n"


MISSING = ("{tmp}/missing/x", "directory '{tmp}/missing' does not exist")
NO_FILE = ["run-bmm", "--n", "4", "--ell", "4", "--min-success", "0"]


# an empty prefix, a directory and "." name no file: unchecked, "" wrote nothing and exited 0,
# and "{tmp}/" wrote {tmp}/.csv and {tmp}/.summary.json
@pytest.mark.parametrize(
    "argv, out, message",
    [
        (["run-bmm", "--n", "8", "--ell", "4"], *MISSING),
        (["run-mmf2", "--n", "8", "--ell", "4"], *MISSING),
        (["scaling", "--protocol", "bmm-cost", "--n", "64", "--ell", "16,64"], *MISSING),
        (["validate-reductions", "--n", "8"], *MISSING),
        (NO_FILE, "", "prefix '' names no file"),
        (NO_FILE, "{tmp}/", "prefix '{tmp}/' names no file"),
        (NO_FILE, ".", "prefix '.' names no file"),
    ],
    ids=["argv0", "argv1", "argv2", "argv3", "empty-prefix", "directory-prefix", "dot-prefix"],
)
def test_out_in_a_missing_directory_rejected_before_any_trial(argv, out, message, tmp_path, monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("an instance was built")

    monkeypatch.setattr(cli, "gen_promise_instance", refuse)
    monkeypatch.setattr(joins, "gen_hard_instance", refuse)
    monkeypatch.setattr(reductions, "embed_disj_family", refuse)
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--trials", "2", "--out", out.format(tmp=tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"argument --out: {message.format(tmp=tmp_path)}" in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        # flags a subcommand does not read are not registered
        ["run-mmf2", "--n", "16", "--ell", "4", "--mode", "exact"],
        ["scaling", "--protocol", "disj-cost", "--n", "64..512", "--mode", "cost-model"],
        ["scaling", "--protocol", "disj-cost", "--n", "64..512", "--timing"],
        ["scaling", "--protocol", "disj-cost", "--n", "64..512", "--min-success", "0.5"],
        ["validate-reductions", "--n", "8", "--timing"],
        ["validate-reductions", "--n", "8", "--min-success", "0.5"],
        # no subcommand takes a cost constant, whatever the mode or the value
        ["validate-reductions", "--n", "8", "--c-round", "2"],
        ["run-bmm", "--n", "16", "--ell", "8", "--c-shuttle", "2"],
        ["run-bmm", "--n", "16", "--ell", "8", "--mode", "cost-model", "--c-shuttle", "2"],
        ["run-bmm", "--n", "16", "--ell", "8", "--mode", "exact", "--c-shuttle", "1"],
        ["run-gc", "--n", "16", "--c-round", "2"],
        ["run-gc", "--n", "16", "--mode", "cost-model", "--c-shuttle", "5"],
        ["run-disj", "--n", "64", "--mode", "cost-model", "--c-shuttle", "5"],
        ["run-disj", "--n", "64", "--c-round", "1.0"],
        ["scaling", "--protocol", "disj-cost", "--n", "64..512", "--c-shuttle", "5"],
        ["scaling", "--protocol", "disj-cost", "--n", "1024,2048", "--c-shuttle", "1"],
        ["scaling", "--protocol", "disj-cost", "--n", "1024,2048", "--c-shuttle", "1.0"],
        ["scaling", "--protocol", "bmm-cost", "--n", "64,128", "--ell", "16", "--c-round", "2"],
        # the disj sweep has no ell, and a tolerance means nothing without a slope
        ["scaling", "--protocol", "disj-cost", "--n", "64..512", "--ell", "16"],
        ["scaling", "--protocol", "disj-cost", "--n", "64..512", "--slope-tol", "0.2"],
        # cost-model mode injects no error, so no subcommand takes --epsilon
        ["run-mmf2", "--n", "16", "--ell", "4", "--epsilon", "0.05"],
        ["run-disj", "--n", "64", "--mode", "exact", "--epsilon", "0.05"],
        ["run-disj", "--n", "64", "--mode", "cost-model", "--epsilon", "0.05"],
        ["run-gc", "--n", "16", "--mode", "cost-model", "--epsilon", "0.05"],
        ["run-gc", "--n", "16", "--epsilon", "0"],
        ["run-bmm", "--n", "16", "--ell", "8", "--mode", "cost-model", "--epsilon", "0.05"],
        ["scaling", "--protocol", "bmm-cost", "--n", "64", "--ell", "16", "--epsilon", "0.05"],
        ["scaling", "--protocol", "disj-cost", "--n", "64..512", "--epsilon", "0.05"],
        ["validate-reductions", "--n", "8", "--epsilon", "0.05"],
    ],
)
def test_unused_flag_rejected(argv, capsys):
    assert main(argv + ["--trials", "2"]) == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["scaling", "--protocol", "disj-cost", "--n", "64..512", "--slope-tol", "-1"], "--slope-tol"),
        (["scaling", "--protocol", "disj-cost", "--n", "64..512", "--slope-tol", "inf"], "--slope-tol"),
        (["scaling", "--protocol", "disj-cost", "--n", "64..512", "--expect-slope", "inf"], "--expect-slope"),
        (["run-gc", "--n", "16", "--min-success", "inf"], "--min-success"),
        (["run-disj", "--n", "64", "--min-success", "nan"], "--min-success"),
        (["run-mmf2", "--n", "16", "--ell", "4", "--min-success", "1.5"], "--min-success"),
        (["run-bmm", "--n", "16", "--ell", "8", "--min-success", "-0.1"], "--min-success"),
        (["scaling", "--protocol", "disj-cost", "--n", "64..512", "--expect-slope", "nan"], "--expect-slope"),
    ],
)
def test_out_of_range_number_rejected(argv, flag, capsys):
    assert main(argv + ["--trials", "2"]) == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: must be finite and in" in err
    assert "Traceback" not in err


def _csv_rows(prefix):
    import csv as csvmod

    with open(str(prefix) + ".csv") as fh:
        return list(csvmod.DictReader(fh))


@pytest.mark.parametrize(
    "command, target, error",
    [
        ("run-bmm", "bmm_with_trace", qsim.ProtocolError),
        ("run-bmm", "bmm_with_trace", joins.PromiseViolationError),
        ("run-mmf2", "mm_f2", joins.DecodeBudgetError),
        ("run-mmf2", "mm_f2", joins.PromiseViolationError),
    ],
)
def test_protocol_error_is_a_failed_trial(command, target, error, monkeypatch, tmp_path, capsys):
    def failing(*args, **kwargs):
        ledger = kwargs.get("ledger") or next(a for a in args if hasattr(a, "charge"))
        ledger.charge(A_TO_B, BITS, 7, "before-failure")
        raise error("injected failure")

    monkeypatch.setattr(joins, target, failing)
    out = tmp_path / "fail"
    argv = [command, "--n", "16", "--ell", "8", "--trials", "3", "--seed", "1", "--out", str(out)]
    assert main(argv + ["--min-success", "0.5"]) == 1
    assert "Traceback" not in capsys.readouterr().err
    rows = _csv_rows(out)
    assert len(rows) == 3
    for row in rows:
        assert row["success"] == "0"
        assert row["classical_bits"] == "7" and row["qubits"] == "0"
        assert row["rounds"] == ("0" if command == "run-bmm" else "3")


@pytest.mark.parametrize(
    "argv",
    [
        ["run-bmm", "--n", "16", "--ell", "4,8", "--mode", "exact"],
        ["run-bmm", "--n", "16,32", "--ell", "8", "--mode", "cost-model"],
        ["run-mmf2", "--n", "32", "--ell", "8"],
        ["run-disj", "--n", "64,256"],
        ["run-gc", "--n", "16", "--mode", "cost-model"],
    ],
)
def test_timing_changes_only_wall_time(argv, tmp_path):
    argv = argv + ["--trials", "4", "--seed", "9"]
    assert main(argv + ["--out", str(tmp_path / "plain")]) == 0
    assert main(argv + ["--timing", "--out", str(tmp_path / "timed")]) == 0
    plain, timed = _csv_rows(tmp_path / "plain"), _csv_rows(tmp_path / "timed")
    assert len(plain) == len(timed) > 0
    for a, b in zip(plain, timed):
        assert a["wall_time_ms"] == "0"
        assert b["wall_time_ms"].isdigit()
        assert {**a, "wall_time_ms": None} == {**b, "wall_time_ms": None}


def test_console_entry_point():
    # the child imports the joinlab this process imported, installed or not
    path = [str(Path(joinlab.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, "-m", "joinlab.cli", "validate-reductions", "--trials", "3", "--n", "8"],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
    )
    assert proc.returncode == 0
    assert "or-blocks: 3/3" in proc.stdout


def test_package_runs_as_a_module(tmp_path):
    # python -m joinlab works from a source checkout, and runs the same main as the console script
    path = [str(Path(joinlab.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    argv = ["run-bmm", "--n", "8", "--ell", "4", "--trials", "1"]
    proc = subprocess.run(
        [sys.executable, "-m", "joinlab", *argv, "--out", str(tmp_path / "module")],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ""  # run-bmm writes its results only under --out
    assert main([*argv, "--out", str(tmp_path / "main")]) == 0
    for suffix in (".csv", ".summary.json"):
        assert (tmp_path / f"module{suffix}").read_bytes() == (tmp_path / f"main{suffix}").read_bytes()


def test_readme_flag_table_matches_the_parser():
    # README's "Each subcommand accepts only the flags it reads" table, row by row
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    table = readme.split("| Subcommand | Flags |", 1)[1].split("\n\n", 1)[0]
    documented = {}
    for row in table.splitlines()[2:]:
        commands, flags = row.strip("|").split("|")
        for command in re.findall(r"`([a-z0-9-]+)`", commands):
            documented[command] = re.findall(r"`(--[a-z0-9-]+)`", flags)
    (sub,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    actual = {
        command: sorted(o for a in p._actions for o in a.option_strings if o.startswith("--") and o != "--help")
        for command, p in sub.choices.items()
    }
    assert {command: sorted(flags) for command, flags in documented.items()} == actual
