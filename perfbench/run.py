"""joinlab benchmark: seeded protocol trials, end to end or traced per layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload bmm-exact --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Each workload runs in its own fresh process (``perfbench/worker.py``), one
trial after another.  ``--trace 0`` reports the end-to-end metrics of
BENCHMARK.json; ``--trace 1`` splits ``--seconds`` between an untraced
process and a traced one and reports the per-layer metrics.  The last line
of standard output is one JSON object; the detail (which tail percentile,
trial counts, failure causes, the behaviour fingerprint, the machine) goes
to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import calibrate, stats  # noqa: E402
from perfbench.tracing import LAYER_METRICS  # noqa: E402

OUT = ROOT / "perfbench" / "out"
# run.py never imports joinlab (a checkout may lack it); a test keeps this
# list in step with perfbench.workloads.WORKLOADS
WORKLOAD_NAMES = ("bmm-exact", "mmf2", "scaling-cost")

# set-up probes, each paired with a cold-start baseline process
SETUP_PROBES = 7
WORKER_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "trials_per_s": "1/s",
    "trial_ms_p50": "ms",
    "trial_ms_tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
    "bits_per_trial": "bits",
    "comm_per_trial": "count",
}


class BenchError(RuntimeError):
    """The benchmark could not run or a worker failed."""


def _spawn(mode, workload, seed, seconds, min_cycles=None, spans=None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    cmd = [
        sys.executable, "-m", "perfbench.worker",
        "--mode", mode, "--workload", workload, "--seed", str(seed),
        "--seconds", repr(seconds),
    ]
    if min_cycles is not None:
        cmd += ["--min-cycles", str(min_cycles)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    cmd += ["--t0", repr(time.monotonic())]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} {mode} worker exceeded {WORKER_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} {mode} worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def _git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _machine() -> dict:
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "loadavg_at_start": list(os.getloadavg()),
    }


def _setup_pair(workload: str, seed: int) -> tuple[float, float]:
    """(cold-start baseline, set-up) times of two processes spawned back to back."""
    base = _spawn("baseline", workload, seed, 0)["setup_s"]
    return base, _spawn("setup", workload, seed, 0)["setup_s"]


def end_to_end(workload: str, seed: int, seconds: float):
    """Set-up probes plus one timed run; returns (result line, detail)."""
    machine = _machine()
    pairs = [_setup_pair(workload, seed) for _ in range(SETUP_PROBES)]
    run = _spawn("run", workload, seed, seconds)
    min_trials = run["min_trials"]
    records = run["records"]
    fixed = records[:min_trials]
    failed = sum(not r["ok"] for r in records)
    tail_p = stats.tail_percentile(min_trials)

    def timings(ms_key):
        times = sorted(r[ms_key] for r in records)
        return {
            "trials_per_s": len(records) / (sum(times) / 1000.0),
            "trial_ms_p50": statistics.median(times),
            "trial_ms_tail": stats.nearest_rank(times, tail_p),
        }

    values = {
        **timings("ms_scaled"),
        "setup_s": statistics.median(
            s * calibrate.NOMINAL_COLD_START_S / base for base, s in pairs
        ),
        "peak_rss_mb": run["peak_rss_kb"] / 1024.0,
        "success_rate": 1.0 - failed / len(records),
        "bits_per_trial": statistics.fmean(r["bits"] for r in fixed),
        "comm_per_trial": statistics.fmean(r["bits"] + r["qubits"] for r in fixed),
    }
    result = {
        "correct": not run["violations"],
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()},
    }
    by_cell: dict[str, list[float]] = {}
    for r in records:
        by_cell.setdefault(r["cell"], []).append(r["ms_scaled"])
    detail = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "result": result,
        "failure_rate": failed / len(records),
        "qubits_per_trial": statistics.fmean(r["qubits"] for r in fixed),
        "tail_percentile": tail_p,
        "trials": len(records),
        "fixed_trials": len(fixed),
        "wall_clock": {**timings("ms"), "setup_s": statistics.median(s for _, s in pairs)},
        "reference_ms_p50": statistics.median(r["ref_ms"] for r in records),
        "setup_pairs_s": pairs,
        "failure_causes": dict(Counter(r["cause"] for r in records if r["cause"])),
        "violations": run["violations"][:20],
        "cell_ms_p50": {c: statistics.median(v) for c, v in sorted(by_cell.items())},
        "records": records,
        "fingerprint": stats.fingerprint(fixed),
        "machine": machine,
    }
    return result, detail


def traced(workload: str, seed: int, seconds: float):
    """Untraced and traced halves of ``seconds``; returns (result line, detail)."""
    base = _spawn("run", workload, seed, seconds / 2, min_cycles=1)
    spans = OUT / f"{workload}.spans.npz"  # one file per workload, the latest traced run
    run = _spawn("trace", workload, seed, seconds / 2, min_cycles=1, spans=spans)
    common = min(len(base["records"]), len(run["records"]))
    untraced_s = sum(r["ms_scaled"] for r in base["records"][:common])
    traced_s = sum(r["ms_scaled"] for r in run["records"][:common])
    layers = dict(run["layers"])
    layers["trace.overhead_frac"] = 1.0 - untraced_s / traced_s
    records = run["records"]
    result = {
        "correct": not (base["violations"] or run["violations"]),
        "attempted": len(records),
        "failed": sum(not r["ok"] for r in records),
        "metrics": {name: {"value": layers[name], "unit": unit} for name, unit in LAYER_METRICS},
    }
    detail = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "result": result,
        "traced_trials": len(records),
        "untraced_trials": len(base["records"]),
        "overhead_common_trials": common,
        "patched_bindings": run["patched"],
        "spans_file": str(spans.relative_to(ROOT)),
        "machine": _machine(),
    }
    return result, detail


def _print_table(workload, result, detail, trace):
    print(f"== {workload} (seed {detail['seed']}, {result['attempted']} trials, "
          f"{result['failed']} failed, correct={result['correct']})")
    for name, m in result["metrics"].items():
        print(f"  {name:34s} {m['value']:>16.6g} {m['unit']}")
    if not trace:
        print(f"  {'failure_rate':34s} {detail['failure_rate']:>16.6g} ratio")
        print(f"  {'qubits_per_trial':34s} {detail['qubits_per_trial']:>16.6g} qubits")
        for name, value in detail["wall_clock"].items():  # unscaled
            print(f"  {name + ' (wall clock)':34s} {value:>16.6g} {END_TO_END_UNITS[name]}")
        print(f"  trial_ms_tail is p{detail['tail_percentile']:g} of {detail['trials']} trials; "
              f"fingerprint {detail['fingerprint'][:16]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "joinlab" / "__init__.py").is_file():
        print(f"error: no joinlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            if args.trace:
                result, detail = traced(name, args.seed, args.seconds)
            else:
                result, detail = end_to_end(name, args.seed, args.seconds)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        kind = "trace" if args.trace else "e2e"
        with open(OUT / f"{name}-seed{args.seed}.{kind}.json", "w") as fh:
            json.dump(detail, fh, indent=2)
            fh.write("\n")
        _print_table(name, result, detail, args.trace)
        results[name] = result
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
