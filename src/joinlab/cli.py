"""Batch experiment runner: protocol grids, reduction checks, scaling fits.

Every runner and sweep shares one seeded trial loop, which writes one CSV
row per (cell, trial); each run also writes a JSON summary.  Seeds are
derived per (cell, trial) from the base seed with a stable hash, so a given
config reproduces its outputs byte for byte (timing defaults to 0 for that
reason; pass --timing to record the protocol call's wall time).  A protocol
error is a failed trial: success 0, the costs charged up to the error, and
rounds 0 for run-bmm.  run-mmf2's rounds is the constant 3 in every trial;
it counts no messages.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import random
import sys
import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from joinlab import joins, qsim, reductions
from joinlab.f2core import BitMatrix, BitVector, _sample, gen_promise_instance
from joinlab.ledger import CommLedger
from joinlab.qsim import CostModel

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
    """Parse '64,128,256' lists of distinct sizes >= 1, or '256..4096' doubling ranges."""
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
    for i, value in enumerate(values):
        if value in values[:i]:
            raise ValueError(f"repeated value {value} in {text!r}")
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


def _trials(key, cell, trials, base_seed, timing, build, play, failed_rounds=0):
    """The seeded trial loop behind every runner: one CSV row per trial.

    ``cell`` is the row's ``(n, m, ell, mode)``; trial ``t`` is seeded by
    ``derive_seed(base_seed, *key, t)``.  ``build(seed, rng)`` makes the input
    untimed; ``play(input, ledger, rng)`` runs the protocol on a fresh ledger,
    timed, and returns ``(success, rounds)``.  A ``ProtocolError`` is a failed
    trial with the costs charged up to it and ``failed_rounds``.
    """
    rows = []
    for trial in range(trials):
        seed = derive_seed(base_seed, *key, trial)
        rng = random.Random(seed)
        inp = build(seed, rng)
        ledger = CommLedger()
        start = time.perf_counter()
        try:
            ok, rounds = play(inp, ledger, rng)
        except qsim.ProtocolError:
            ok, rounds = False, failed_rounds
        elapsed_ms = int(round((time.perf_counter() - start) * 1000)) if timing else 0
        values = (*cell, seed, int(ok), ledger.bits, ledger.qubits, rounds, elapsed_ms)
        rows.append(dict(zip(CSV_FIELDS, values)))
    return rows


def run_bmm_trials(n, ell, trials, base_seed, model, timing=False):
    def play(instance, ledger, rng):
        out, trace = joins.bmm_with_trace(instance, model, ledger, rng)
        return out == instance.oracle_product, trace.t

    return _trials(
        ("bmm", n, ell), (n, n, ell, model.mode), trials, base_seed, timing,
        lambda seed, rng: gen_promise_instance(n, n, ell, seed, "bool"), play,
    )


def run_mmf2_trials(n, ell, trials, base_seed, timing=False):
    def play(instance, ledger, rng):
        return joins.mm_f2(instance, ledger, rng) == instance.oracle_product, 3

    return _trials(
        ("mmf2", n, ell), (n, n, ell, "classical"), trials, base_seed, timing,
        lambda seed, rng: gen_promise_instance(n, n, ell, seed, "f2"), play, failed_rounds=3,
    )


def _disj_pair(n, seed) -> tuple[BitVector, BitVector]:
    """Both sides of weight ~sqrt(n) sharing exactly one element."""
    rng = random.Random(seed)
    w = max(1, math.isqrt(n))
    chosen = _sample(n, 2 * w - 1, rng)
    shared = chosen[0]
    a = BitVector.from_indices(n, chosen[:w])
    b = BitVector.from_indices(n, [shared] + chosen[w:])
    return a, b


def _play_disj(model, pair, ledger, rng):
    """disj succeeds when it finds no witness exactly when the sets are disjoint, else one in both."""
    a, b = pair
    witness = qsim.disj(a, b, ledger, model, rng)
    if witness is None:
        return (a & b).is_zero(), 1
    return a[witness] == 1 and b[witness] == 1, 1


def run_disj_trials(n, trials, base_seed, model, timing=False):
    return _trials(
        ("disj", n), (n, n, 1, model.mode), trials, base_seed, timing,
        lambda seed, rng: _disj_pair(n, seed), partial(_play_disj, model),
    )


def run_gc_trials(n, trials, base_seed, model, timing=False):
    def build(seed, rng):
        graph = qsim.BipartiteGraph.random(n, n, 0.5, rng)
        f_a = BitVector.random_weight(n, max(1, n // 8), rng)
        f_b = BitVector.random_weight(n, max(1, n // 8), rng)
        truth = any(graph.has_edge(i, j) for i in f_a.indices() for j in f_b.indices())
        return graph, f_a, f_b, truth

    def play(inp, ledger, rng):
        graph, f_a, f_b, truth = inp
        edge = qsim.graph_collision(graph, f_a, f_b, ledger, model, rng)
        if edge is None:
            return not truth, 1
        i, j = edge
        return graph.has_edge(i, j) and f_a[i] == 1 and f_b[j] == 1, 1

    return _trials(("gc", n), (n, n, 0, model.mode), trials, base_seed, timing, build, play)


# ---------------------------------------------------------------------------
# scaling sweeps
# ---------------------------------------------------------------------------


def scaling_points(protocol, n_grid, ell_grid, trials, base_seed, model, divide_log):
    """(x, cost) samples for the requested sweep, one point per trial, and the rows."""
    rows = []
    if protocol == "bmm-cost":

        def play(instance, ledger, rng):
            trace = joins.bmm_cost_model(instance, model, ledger, rng)
            return trace.product == instance.oracle_product, trace.t

        for n in n_grid:
            for ell in ell_grid:
                rows += _trials(
                    ("scale-bmm", n, ell), (n, n, ell, model.mode), trials, base_seed, False,
                    lambda seed, rng: joins.gen_hard_instance(n, ell, seed), play,
                )
    elif protocol == "disj-cost":
        for n in n_grid:
            rows += _trials(
                ("scale-disj", n), (n, n, 1, model.mode), trials, base_seed, False,
                lambda seed, rng: _disj_pair(n, seed), partial(_play_disj, model),
            )
    else:
        raise ValueError(f"unknown scaling protocol {protocol!r}")
    sweep_ell = protocol == "bmm-cost" and len(ell_grid) > 1
    points = []
    for row in rows:
        cost = row["classical_bits"] + row["qubits"]
        if divide_log:
            cost /= max(1.0, math.log2(row["n"]))
        points.append((row["ell"] if sweep_ell else row["n"], cost))
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
    cells: dict[tuple, list] = {}
    for row in rows:
        cells.setdefault((row["n"], row["m"], row["ell"]), []).append(row)
    out = {}
    for (n, m, ell), group in sorted(cells.items()):
        trials = len(group)
        out[f"n={n} m={m} ell={ell}"] = {
            "trials": trials,
            "success_rate": sum(r["success"] for r in group) / trials,
            "mean_classical_bits": sum(r["classical_bits"] for r in group) / trials,
            "mean_qubits": sum(r["qubits"] for r in group) / trials,
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


def _out_prefix(text: str) -> str:
    if os.path.basename(text) in ("", ".", ".."):
        raise ValueError(f"prefix {text!r} names no file; give one, as in runs/bmm")
    folder = os.path.dirname(text)
    if folder and not os.path.isdir(folder):
        raise ValueError(f"directory {folder!r} does not exist; create it first")
    return text


_GRID = _flag_type(parse_grid)
_POSITIVE = _flag_type(_at_least_one)
_OUT = _flag_type(_out_prefix)


def _float_in(lo: float, hi: float = math.inf):
    def parse(text: str) -> float:
        value = float(text)
        if math.isfinite(value) and lo <= value <= hi:
            return value
        raise ValueError(f"must be finite and in [{lo:g}, {hi:g}], got {text}")

    return _flag_type(parse)


def _add_common(parser):
    parser.add_argument("--trials", type=_POSITIVE, default=100)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=_OUT, default=None, help="path prefix for CSV/JSON outputs")


# each run-* command: its help, the flags it reads besides --n and the flags every run takes, its runner
_GRIDS = {
    "run-bmm": ("Boolean product protocol over a grid", ("--ell", "--mode"),
                lambda a, n, ell: run_bmm_trials(n, ell, a.trials, a.seed, CostModel(a.mode), a.timing)),
    "run-mmf2": ("F2 product protocol over a grid", ("--ell",),
                 lambda a, n, ell: run_mmf2_trials(n, ell, a.trials, a.seed, a.timing)),
    "run-disj": ("set disjointness with planted witness", ("--mode",),
                 lambda a, n, ell: run_disj_trials(n, a.trials, a.seed, CostModel(a.mode), a.timing)),
    "run-gc": ("graph collision on random graphs", ("--mode",),
               lambda a, n, ell: run_gc_trials(n, a.trials, a.seed, CostModel(a.mode), a.timing)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="joinlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    for command, (text, reads, _) in _GRIDS.items():
        p = sub.add_parser(command, help=text)
        p.add_argument("--n", type=_GRID, required=True)
        if "--ell" in reads:
            p.add_argument("--ell", type=_GRID, required=True)
        _add_common(p)
        if "--mode" in reads:
            p.add_argument("--mode", choices=["exact", "cost-model"], default="exact")
        p.add_argument("--timing", action="store_true", help="record real wall times (breaks byte-identical output)")
        p.add_argument("--min-success", type=_float_in(0.0, 1.0), default=None)

    p = sub.add_parser(
        "scaling",
        help="cost-model sweeps with a log-log exponent fit (always runs in cost-model mode)",
    )
    p.add_argument("--protocol", choices=["bmm-cost", "disj-cost"], required=True)
    p.add_argument("--n", type=_GRID, required=True)
    p.add_argument("--ell", type=_GRID, default=None, help="bmm-cost only (default 256)")
    p.add_argument("--divide-log", action="store_true", help="divide costs by log2(n) before fitting")
    p.add_argument("--expect-slope", type=_float_in(-math.inf), default=None)
    p.add_argument("--slope-tol", type=_float_in(0.0), default=None, help="needs --expect-slope (default 0.1)")
    _add_common(p)

    p = sub.add_parser("validate-reductions", help="random checks of the embedding identities")
    p.add_argument("--n", type=_POSITIVE, default=32)
    _add_common(p)

    return parser


def _cmd_grid(args) -> int:
    """One runner call per (n, ell) cell, or per n for a command that reads no --ell."""
    if not args.out and args.min_success is None:
        raise ValueError(f"{args.command} would keep nothing of its trials: give --out, --min-success or both")
    _, reads, run = _GRIDS[args.command]
    ells = args.ell if "--ell" in reads else [None]
    summary = _emit(args, [row for n in args.n for ell in ells for row in run(args, n, ell)])
    if args.min_success is None:
        return 0
    worst = min(cell["success_rate"] for cell in summary["cells"].values())
    return 0 if worst >= args.min_success else 1


def _cmd_scaling(args) -> int:
    if args.protocol == "disj-cost" and args.ell is not None:
        raise ValueError("--protocol disj-cost reads no --ell")
    if args.slope_tol is not None and args.expect_slope is None:
        raise ValueError("--slope-tol needs --expect-slope")
    # fit_exponent's own checks, made from the grids before any instance is built
    ells = args.ell or [256]
    sweep_ell = args.protocol == "bmm-cost" and len(ells) > 1
    if sweep_ell and len(args.n) > 1:
        raise ValueError("a bmm-cost sweep varies --n or --ell, not both")
    if len(args.n) * len(ells) * args.trials < 4:
        raise ValueError("need at least 4 points")
    if len(ells if sweep_ell else args.n) < 2:
        raise ValueError("need at least two distinct x values")
    points, rows = scaling_points(
        args.protocol, args.n, ells, args.trials, args.seed, CostModel.cost_model(), args.divide_log
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
        tol = 0.1 if args.slope_tol is None else args.slope_tol
        return 0 if abs(fit.slope - args.expect_slope) <= tol else 1
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
            if name in ("disj-family", "ip-f2"):
                k = rng.randint(1, max(1, math.isqrt(n)))
                embed = reductions.embed_disj_family if name == "disj-family" else reductions.embed_ip_f2
                emb = embed(_random_vectors(n, k, rng), _random_vectors(n, k, rng), n)
            elif name == "inner-product":
                ell = rng.randint(1, n * n)
                a = BitVector.random(ell, 0.4, rng)
                b = BitVector.random(ell, 0.4, rng)
                emb = reductions.embed_inner_product(a, b, n)
            else:
                s = rng.randint(1, max(1, math.isqrt(n)))
                k = rng.randint(1, n // s)
                blocks = [
                    (
                        BitMatrix.random(s, s, 0.4, rng),
                        BitMatrix.random(s, s, 0.4, rng),
                    )
                    for _ in range(k)
                ]
                emb = reductions.embed_or_blocks(blocks, n)
            passed += emb.validate()
        counts[name] = passed
        print(f"{name}: {passed}/{args.trials}")
    if args.out:
        _write_json(args.out + ".summary.json", {"validations": counts, "trials": args.trials})
    return 0 if all(c == args.trials for c in counts.values()) else 1


_COMMANDS = {
    **dict.fromkeys(_GRIDS, _cmd_grid),
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
