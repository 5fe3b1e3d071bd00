"""Run one workload in this process and print one JSON line.

Started by ``perfbench/run.py`` as ``python -m perfbench.worker`` with
``PYTHONPATH`` set to the checkout's ``src``.  ``--t0`` is the spawning
process's ``time.monotonic()`` just before the spawn (the clock is shared
by all processes on the machine), so set-up time covers interpreter start
and ``import joinlab``.

Modes: ``baseline`` stops right after ``import numpy`` (the cold-start
reference for set-up time); ``setup`` reports the set-up time and stops
where the first timed trial would start; ``run`` times trials with
nothing but the result taps installed; ``trace`` also installs the span
wrappers and reports per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _loop(workload, seed, seconds, min_trials, taps, tracer, kernel):
    """Whole cycles of trials until both ``min_trials`` and ``seconds`` are reached.

    The reference kernel runs before the first trial and after each one; a
    trial's ``ms_scaled`` is its wall time at the kernel's nominal speed.
    """
    from perfbench import workloads

    cycle = len(workload.cells)
    records, violations = [], []
    start = time.perf_counter()
    ref_before = kernel.time_ms()
    for i, cell, tseed in workloads.trials(workload, seed):
        if i >= min_trials and i % cycle == 0 and time.perf_counter() - start >= seconds:
            break
        if tracer is not None:
            tracer.current_trial = i
            sid = tracer.open("bench.trial")
        elapsed, outcome = workloads.run_trial(cell, tseed, taps, violations)
        if tracer is not None:
            tracer.close(sid)
        ref_after = kernel.time_ms()
        ref_ms = (ref_before + ref_after) / 2.0
        ref_before = ref_after
        rec = outcome.record()
        ms = elapsed * 1000.0
        rec.update(i=i, cell=cell.label, ms=ms, ref_ms=ref_ms, ms_scaled=ms * kernel.scale(ref_ms))
        records.append(rec)
    return records, violations


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--min-cycles", type=int, default=None, help="default: the workload's own")
    parser.add_argument("--mode", choices=("baseline", "setup", "run", "trace"), default="run")
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--spans", default=None, help="where the traced run writes its spans (.npz)")
    args = parser.parse_args(argv)
    if args.mode == "baseline":
        import numpy  # noqa: F401

        print(json.dumps({"setup_s": time.monotonic() - args.t0}))
        return 0

    import joinlab

    src = (ROOT / "src").resolve()
    if src not in Path(joinlab.__file__).resolve().parents:
        print(f"error: imported joinlab from {joinlab.__file__}, not from {src}", file=sys.stderr)
        return 2
    from perfbench import calibrate, workloads

    workload = workloads.WORKLOADS[args.workload]
    tracer = patches = None
    if args.mode == "trace":
        from perfbench import tracing

        tracer = tracing.Tracer(workloads.EXPECTED_ERRORS)
        patches = tracing.install(tracer)
    min_cycles = workload.min_cycles if args.min_cycles is None else args.min_cycles
    min_trials = min_cycles * len(workload.cells)
    taps = workloads.Taps(workload.taps)
    taps.install()
    kernel = calibrate.Kernel(workload.kernel)
    setup_s = time.monotonic() - args.t0
    try:
        if args.mode == "setup":
            print(json.dumps({"setup_s": setup_s}))
            return 0
        records, violations = _loop(
            workload, args.seed, args.seconds, min_trials, taps, tracer, kernel
        )
    finally:
        taps.restore()
        restored = patches.restore() if patches is not None else []
    left = [f"{getattr(o, '__name__', o)}.{n}" for o, n, orig in restored if vars(o)[n] is not orig]
    if left:
        print(f"error: attributes not restored: {left}", file=sys.stderr)
        return 2
    out = {
        "min_trials": min_trials,
        "records": records,
        "violations": violations,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        tracer.counts["ledger.records"] = sum(r["records"] for r in records)
        out["layers"] = tracer.layer_metrics()
        out["patched"] = len(restored)
        if args.spans:
            tracer.dump(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
