"""Summary statistics for trial timings and the behaviour fingerprint."""

from __future__ import annotations

import hashlib
import json
import math

# percentiles the tail metric may report, lowest first
TAIL_LADDER = (50.0, 75.0, 80.0, 90.0, 95.0, 99.0, 99.5, 99.9)

# a tail percentile must leave at least this many trials above it
TAIL_MIN_BEYOND = 10


def _rank(count: int, p: float) -> int:
    # round first so that, e.g., 99.9% of 10000 is rank 9990, not 9991
    return max(1, math.ceil(round(p * count / 100.0, 9)))


def nearest_rank(sorted_values, p: float):
    """Nearest-rank percentile: the smallest value with p% of samples at or below it."""
    if not sorted_values:
        raise ValueError("no samples")
    return sorted_values[_rank(len(sorted_values), p) - 1]


def beyond(count: int, p: float) -> int:
    """Samples strictly above the nearest-rank p-th percentile of ``count`` samples."""
    return count - _rank(count, p)


def tail_percentile(count: int) -> float:
    """Highest ladder percentile that leaves at least TAIL_MIN_BEYOND of ``count`` above it.

    The benchmark passes the guaranteed minimum trial count of a workload,
    not the realized one, so the chosen percentile does not change from run
    to run (or when a faster commit completes more trials).
    """
    eligible = [p for p in TAIL_LADDER if beyond(count, p) >= TAIL_MIN_BEYOND]
    if not eligible:
        raise ValueError(f"{count} samples leave no percentile with {TAIL_MIN_BEYOND} beyond it")
    return eligible[-1]


def fingerprint(records) -> str:
    """SHA-256 over the ordered (seed, success, bits, qubits, rounds) tuples."""
    h = hashlib.sha256()
    for rec in records:
        row = [rec["seed"], bool(rec["ok"]), rec["bits"], rec["qubits"], rec["rounds"]]
        h.update(json.dumps(row).encode())
        h.update(b"\n")
    return h.hexdigest()
