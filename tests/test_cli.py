"""CLI plumbing: exponent fits, grids, runners, and reproducible outputs."""

import json
import math
import random
import subprocess
import sys

import pytest

from joinlab import joins, qsim
from joinlab.cli import FitResult, derive_seed, fit_exponent, main, parse_grid
from joinlab.ledger import A_TO_B, BITS


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


def test_usage_error_exit_code():
    assert main(["run-bmm", "--ell", "8"]) == 2  # missing --n
    assert main(["scaling", "--protocol", "nope", "--n", "8"]) == 2
    assert main(["run-disj", "--n", "8", "--trials", "0"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        # flags a subcommand does not read are not registered
        ["run-mmf2", "--n", "16", "--ell", "4", "--mode", "exact"],
        ["run-mmf2", "--n", "16", "--ell", "4", "--epsilon", "0.05"],
        ["scaling", "--protocol", "disj-cost", "--n", "64..512", "--mode", "cost-model"],
        ["scaling", "--protocol", "disj-cost", "--n", "64..512", "--timing"],
        ["scaling", "--protocol", "disj-cost", "--n", "64..512", "--min-success", "0.5"],
        ["validate-reductions", "--n", "8", "--c-round", "2"],
        ["validate-reductions", "--n", "8", "--timing"],
        ["validate-reductions", "--n", "8", "--min-success", "0.5"],
        # cost constants only mean something in cost-model mode
        ["run-bmm", "--n", "16", "--ell", "8", "--c-shuttle", "2"],
        ["run-disj", "--n", "64", "--mode", "exact", "--epsilon", "0.05"],
        ["run-gc", "--n", "16", "--c-round", "2"],
        # the bmm replay never reads epsilon
        ["run-bmm", "--n", "16", "--ell", "8", "--mode", "cost-model", "--epsilon", "0.05"],
        ["scaling", "--protocol", "bmm-cost", "--n", "64", "--ell", "16", "--epsilon", "0.05"],
    ],
)
def test_unused_flag_rejected(argv, capsys):
    assert main(argv + ["--trials", "2"]) == 2
    assert "Traceback" not in capsys.readouterr().err


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
        if command == "run-bmm":
            assert row["rounds"] == "0"


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "joinlab.cli", "validate-reductions", "--trials", "3", "--n", "8"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert "or-blocks: 3/3" in proc.stdout
