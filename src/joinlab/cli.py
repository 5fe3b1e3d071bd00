"""Batch experiment runner: protocol grids, reduction checks, scaling fits.

Each run writes one CSV row per (cell, trial) plus a JSON summary.  Seeds
are derived per (cell, trial) from the base seed with a stable hash, so a
given config reproduces its outputs byte for byte (timing defaults to 0 for
that reason; pass --timing to record real wall times).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import random
import sys
import time
from dataclasses import dataclass

import numpy as np

from joinlab import joins, qsim, reductions
from joinlab.f2core import BitVector, gen_promise_instance
from joinlab.ledger import CommLedger
from joinlab.qsim import CostModel

__all__ = [
    "main",
    "fit_exponent",
    "FitResult",
    "derive_seed",
    "parse_grid",
]

CSV_FIELDS = (
    "n",
    "m",
    "ell",
    "mode",
    "seed",
    "success",
    "classical_bits",
    "qubits",
    "rounds",
    "wall_time_ms",
)


def derive_seed(base: int, *parts) -> int:
    """Stable per-trial seed from the base seed and cell coordinates."""
    text = ":".join([str(base)] + [str(p) for p in parts])
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def _at_least_one(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError(f"must be at least 1, got {value}")
    return value


def parse_grid(text: str) -> list[int]:
    """Parse '64,128,256' lists or '256..4096' doubling ranges of sizes >= 1."""
    if ".." in text:
        lo, hi = (_at_least_one(tok) for tok in text.split("..", 1))
        if hi < lo:
            raise ValueError(f"bad range {text!r}")
        out = []
        v = lo
        while v <= hi:
            out.append(v)
            v *= 2
        return out
    values = [_at_least_one(tok) for tok in text.split(",") if tok.strip()]
    if not values:
        raise ValueError(f"empty grid {text!r}")
    return values


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    ci_low: float
    ci_high: float


def fit_exponent(points, n_boot: int = 200, seed: int = 0) -> FitResult:
    """Least squares on (log x, log cost) with a bootstrap interval over trials.

    Points may repeat x values (one per trial); the bootstrap resamples
    within each x group before refitting.
    """
    points = [(float(x), float(c)) for x, c in points]
    if len(points) < 4:
        raise ValueError("need at least 4 points")
    if any(x <= 0 or c <= 0 for x, c in points):
        raise ValueError("points must be positive for a log-log fit")
    xs = sorted({x for x, _ in points})
    if len(xs) < 2:
        raise ValueError("need at least two distinct x values")
    log_x = np.log([x for x, _ in points])
    log_c = np.log([c for _, c in points])
    slope, intercept = np.polyfit(log_x, log_c, 1)

    groups: dict[float, list[float]] = {}
    for x, c in points:
        groups.setdefault(x, []).append(c)
    rng = random.Random(seed)
    boot = []
    for _ in range(n_boot):
        bx, bc = [], []
        for x in xs:
            vals = groups[x]
            for _ in vals:
                bx.append(math.log(x))
                bc.append(math.log(vals[rng.randrange(len(vals))]))
        boot.append(float(np.polyfit(bx, bc, 1)[0]))
    boot.sort()
    lo = boot[max(0, int(0.025 * n_boot) - 1)] if n_boot else slope
    hi = boot[min(n_boot - 1, int(0.975 * n_boot))] if n_boot else slope
    return FitResult(float(slope), float(intercept), lo, hi)


# ---------------------------------------------------------------------------
# cell runners
# ---------------------------------------------------------------------------


def _costs_of(args) -> CostModel:
    return CostModel.cost_model(args.c_shuttle, args.c_round, args.epsilon)


def _mode_of(args) -> CostModel:
    model = _costs_of(args)
    if args.mode == "cost-model":
        return model
    if model != CostModel.cost_model():
        raise ValueError("--c-shuttle, --c-round and --epsilon need --mode cost-model")
    return CostModel.exact_mode()


def _row(n, m, ell, mode, seed, success, ledger, rounds, elapsed_ms):
    return {
        "n": n,
        "m": m,
        "ell": ell,
        "mode": mode,
        "seed": seed,
        "success": int(success),
        "classical_bits": ledger.bits,
        "qubits": ledger.qubits,
        "rounds": rounds,
        "wall_time_ms": elapsed_ms,
    }


def _timer(enabled: bool):
    start = time.perf_counter()

    def stop() -> int:
        return int(round((time.perf_counter() - start) * 1000)) if enabled else 0

    return stop


def run_bmm_trials(n, ell, trials, base_seed, model, timing=False):
    rows = []
    for trial in range(trials):
        seed = derive_seed(base_seed, "bmm", n, ell, trial)
        rng = random.Random(seed)
        instance = gen_promise_instance(n, n, ell, seed, "bool")
        ledger = CommLedger()
        stop = _timer(timing)
        try:
            if model.exact:
                out, trace = joins.bmm_with_trace(instance, model, ledger, rng)
            else:
                trace = joins.bmm_cost_model(instance, model, ledger, rng)
                out = trace.product
            ok, rounds = out == instance.oracle_product, trace.t
        except qsim.ProtocolError:
            ok, rounds = False, 0
        rows.append(_row(n, n, ell, model.mode, seed, ok, ledger, rounds, stop()))
    return rows


def run_mmf2_trials(n, ell, trials, base_seed, timing=False):
    rows = []
    for trial in range(trials):
        seed = derive_seed(base_seed, "mmf2", n, ell, trial)
        rng = random.Random(seed)
        instance = gen_promise_instance(n, n, ell, seed, "f2")
        ledger = CommLedger()
        stop = _timer(timing)
        try:
            out = joins.mm_f2(instance, ledger, rng)
            ok = out == instance.oracle_product
        except qsim.ProtocolError:
            ok = False
        rows.append(_row(n, n, ell, "classical", seed, ok, ledger, 3, stop()))
    return rows


def _disj_pair(n, seed) -> tuple[BitVector, BitVector]:
    """Both sides of weight ~sqrt(n) sharing exactly one element."""
    rng = random.Random(seed)
    w = max(1, math.isqrt(n))
    chosen = rng.sample(range(n), 2 * w - 1)
    shared = chosen[0]
    a = BitVector.from_indices(n, chosen[:w])
    b = BitVector.from_indices(n, [shared] + chosen[w:])
    return a, b


def run_disj_trials(n, trials, base_seed, model, timing=False):
    rows = []
    for trial in range(trials):
        seed = derive_seed(base_seed, "disj", n, trial)
        rng = random.Random(seed)
        a, b = _disj_pair(n, seed)
        ledger = CommLedger()
        stop = _timer(timing)
        witness = qsim.disj(a, b, ledger, model, rng)
        ok = witness is not None and a[witness] == 1 and b[witness] == 1
        rows.append(_row(n, n, 1, model.mode, seed, ok, ledger, 1, stop()))
    return rows


def run_gc_trials(n, trials, base_seed, model, timing=False):
    rows = []
    for trial in range(trials):
        seed = derive_seed(base_seed, "gc", n, trial)
        rng = random.Random(seed)
        graph = qsim.BipartiteGraph.random(n, n, 0.5, rng)
        f_a = BitVector.random_weight(n, max(1, n // 8), rng)
        f_b = BitVector.random_weight(n, max(1, n // 8), rng)
        truth = any(
            graph.has_edge(i, j) for i in f_a.indices() for j in f_b.indices()
        )
        ledger = CommLedger()
        stop = _timer(timing)
        edge = qsim.graph_collision(graph, f_a, f_b, ledger, model, rng)
        if edge is None:
            ok = not truth
        else:
            i, j = edge
            ok = graph.has_edge(i, j) and f_a[i] == 1 and f_b[j] == 1
        rows.append(_row(n, n, 0, model.mode, seed, ok, ledger, 1, stop()))
    return rows


# ---------------------------------------------------------------------------
# scaling sweeps
# ---------------------------------------------------------------------------


def scaling_points(protocol, n_grid, ell_grid, trials, base_seed, model, divide_log):
    """(x, cost) samples for the requested sweep, one point per trial."""
    points = []
    rows = []
    if protocol == "bmm-cost":
        sweep_ell = len(ell_grid) > 1
        cells = [(n, ell) for n in n_grid for ell in ell_grid]
        for n, ell in cells:
            for trial in range(trials):
                seed = derive_seed(base_seed, "scale-bmm", n, ell, trial)
                rng = random.Random(seed)
                instance = joins.gen_hard_instance(n, ell, seed)
                ledger = CommLedger()
                trace = joins.bmm_cost_model(instance, model, ledger, rng)
                cost = ledger.total()
                if divide_log:
                    cost /= max(1.0, math.log2(n))
                x = ell if sweep_ell else n
                points.append((x, cost))
                rows.append(_row(n, n, ell, model.mode, seed, True, ledger, trace.t, 0))
    elif protocol == "disj-cost":
        for n in n_grid:
            for trial in range(trials):
                seed = derive_seed(base_seed, "scale-disj", n, trial)
                rng = random.Random(seed)
                a, b = _disj_pair(n, seed)
                ledger = CommLedger()
                qsim.disj(a, b, ledger, model, rng)
                cost = ledger.total()
                if divide_log:
                    cost /= max(1.0, math.log2(n))
                points.append((n, cost))
                rows.append(_row(n, n, 1, model.mode, seed, True, ledger, 1, 0))
    else:
        raise ValueError(f"unknown scaling protocol {protocol!r}")
    return points, rows


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------


def _write_csv(path, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_FIELDS)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _summarize(rows):
    cells: dict[tuple, dict] = {}
    for row in rows:
        key = (row["n"], row["m"], row["ell"])
        cell = cells.setdefault(
            key, {"trials": 0, "successes": 0, "classical_bits": 0, "qubits": 0}
        )
        cell["trials"] += 1
        cell["successes"] += row["success"]
        cell["classical_bits"] += row["classical_bits"]
        cell["qubits"] += row["qubits"]
    out = {}
    for key in sorted(cells):
        cell = cells[key]
        label = f"n={key[0]} m={key[1]} ell={key[2]}"
        out[label] = {
            "trials": cell["trials"],
            "success_rate": cell["successes"] / cell["trials"],
            "mean_classical_bits": cell["classical_bits"] / cell["trials"],
            "mean_qubits": cell["qubits"] / cell["trials"],
        }
    return out


def _emit(args, rows, extra=None) -> dict:
    summary = {"cells": _summarize(rows)}
    if extra:
        summary.update(extra)
    if args.out:
        _write_csv(args.out + ".csv", rows)
        _write_json(args.out + ".summary.json", summary)
    return summary


def _check_success(summary, minimum) -> int:
    if minimum is None:
        return 0
    worst = min(cell["success_rate"] for cell in summary["cells"].values())
    return 0 if worst >= minimum else 1


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------


def _flag_type(parse):
    """argparse type that reports ``parse``'s ValueError message under the flag's name."""

    def convert(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return convert


_GRID = _flag_type(parse_grid)
_POSITIVE = _flag_type(_at_least_one)


def _add_common(parser):
    parser.add_argument("--trials", type=_POSITIVE, default=100)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=str, default=None, help="path prefix for CSV/JSON outputs")


def _add_costs(parser):
    parser.add_argument("--c-shuttle", type=float, default=1.0)
    parser.add_argument("--c-round", type=float, default=1.0)
    parser.add_argument("--epsilon", type=float, default=0.0)


def _add_model(parser):
    parser.add_argument("--mode", choices=["exact", "cost-model"], default="exact")
    _add_costs(parser)


def _add_trial_checks(parser):
    parser.add_argument("--timing", action="store_true", help="record real wall times (breaks byte-identical output)")
    parser.add_argument("--min-success", type=float, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="joinlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run-bmm", help="Boolean product protocol over a grid")
    p.add_argument("--n", type=_GRID, required=True)
    p.add_argument("--ell", type=_GRID, required=True)
    _add_common(p)
    _add_model(p)
    _add_trial_checks(p)

    p = sub.add_parser("run-mmf2", help="F2 product protocol over a grid")
    p.add_argument("--n", type=_GRID, required=True)
    p.add_argument("--ell", type=_GRID, required=True)
    _add_common(p)
    _add_trial_checks(p)

    p = sub.add_parser("run-disj", help="set disjointness with planted witness")
    p.add_argument("--n", type=_GRID, required=True)
    _add_common(p)
    _add_model(p)
    _add_trial_checks(p)

    p = sub.add_parser("run-gc", help="graph collision on random graphs")
    p.add_argument("--n", type=_GRID, required=True)
    _add_common(p)
    _add_model(p)
    _add_trial_checks(p)

    p = sub.add_parser(
        "scaling",
        help="cost-model sweeps with a log-log exponent fit (always runs in cost-model mode)",
    )
    p.add_argument("--protocol", choices=["bmm-cost", "disj-cost"], required=True)
    p.add_argument("--n", type=_GRID, required=True)
    p.add_argument("--ell", type=_GRID, default=[256])
    p.add_argument("--divide-log", action="store_true", help="divide costs by log2(n) before fitting")
    p.add_argument("--expect-slope", type=float, default=None)
    p.add_argument("--slope-tol", type=float, default=0.1)
    _add_common(p)
    _add_costs(p)

    p = sub.add_parser("validate-reductions", help="random checks of the embedding identities")
    p.add_argument("--n", type=_POSITIVE, default=32)
    _add_common(p)

    return parser


def _cmd_run_bmm(args) -> int:
    model = _mode_of(args)
    rows = []
    for n in args.n:
        for ell in args.ell:
            rows.extend(run_bmm_trials(n, ell, args.trials, args.seed, model, args.timing))
    summary = _emit(args, rows)
    return _check_success(summary, args.min_success)


def _cmd_run_mmf2(args) -> int:
    rows = []
    for n in args.n:
        for ell in args.ell:
            rows.extend(run_mmf2_trials(n, ell, args.trials, args.seed, args.timing))
    summary = _emit(args, rows)
    return _check_success(summary, args.min_success)


def _cmd_run_disj(args) -> int:
    model = _mode_of(args)
    rows = []
    for n in args.n:
        rows.extend(run_disj_trials(n, args.trials, args.seed, model, args.timing))
    summary = _emit(args, rows)
    return _check_success(summary, args.min_success)


def _cmd_run_gc(args) -> int:
    model = _mode_of(args)
    rows = []
    for n in args.n:
        rows.extend(run_gc_trials(n, args.trials, args.seed, model, args.timing))
    summary = _emit(args, rows)
    return _check_success(summary, args.min_success)


def _cmd_scaling(args) -> int:
    model = _costs_of(args)
    points, rows = scaling_points(
        args.protocol, args.n, args.ell, args.trials, args.seed, model, args.divide_log
    )
    fit = fit_exponent(points, seed=args.seed)
    extra = {
        "fit": {
            "slope": fit.slope,
            "intercept": fit.intercept,
            "ci95": [fit.ci_low, fit.ci_high],
            "points": len(points),
            "divide_log": bool(args.divide_log),
        }
    }
    summary = _emit(args, rows, extra)
    print(json.dumps(summary["fit"], sort_keys=True))
    if args.expect_slope is not None:
        return 0 if abs(fit.slope - args.expect_slope) <= args.slope_tol else 1
    return 0


def _random_vectors(n, count, rng):
    return [BitVector.random(n, rng.uniform(0.1, 0.5), rng) for _ in range(count)]


def _cmd_validate_reductions(args) -> int:
    n = args.n
    counts = {}
    for name in ("disj-family", "inner-product", "or-blocks", "ip-f2"):
        passed = 0
        for trial in range(args.trials):
            rng = random.Random(derive_seed(args.seed, name, trial))
            if name == "disj-family":
                k = rng.randint(1, max(1, math.isqrt(n)))
                emb = reductions.embed_disj_family(
                    _random_vectors(n, k, rng), _random_vectors(n, k, rng), n
                )
            elif name == "inner-product":
                ell = rng.randint(1, n * n)
                a = BitVector.random(ell, 0.4, rng)
                b = BitVector.random(ell, 0.4, rng)
                emb = reductions.embed_inner_product(a, b, n)
            elif name == "or-blocks":
                s = rng.randint(1, max(1, math.isqrt(n)))
                k = rng.randint(1, n // s)
                from joinlab.f2core import BitMatrix

                blocks = [
                    (
                        BitMatrix.random(s, s, 0.4, rng),
                        BitMatrix.random(s, s, 0.4, rng),
                    )
                    for _ in range(k)
                ]
                emb = reductions.embed_or_blocks(blocks, n)
            else:
                k = rng.randint(1, max(1, math.isqrt(n)))
                emb = reductions.embed_ip_f2(
                    _random_vectors(n, k, rng), _random_vectors(n, k, rng), n
                )
            passed += emb.validate()
        counts[name] = passed
        print(f"{name}: {passed}/{args.trials}")
    if args.out:
        _write_json(args.out + ".summary.json", {"validations": counts, "trials": args.trials})
    return 0 if all(c == args.trials for c in counts.values()) else 1


_COMMANDS = {
    "run-bmm": _cmd_run_bmm,
    "run-mmf2": _cmd_run_mmf2,
    "run-disj": _cmd_run_disj,
    "run-gc": _cmd_run_gc,
    "scaling": _cmd_scaling,
    "validate-reductions": _cmd_validate_reductions,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
