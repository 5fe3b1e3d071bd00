"""Fixed reference kernels that track the machine's current speed.

The benchmark runs on a shared virtual machine whose speed drifts by 25%
and more over tens of seconds, and whole 30-second runs differ by as much
(measured with a fixed loop: the same work took 26 to 53 ms, and process
CPU time drifted with wall time, so it is not preemption).  A worker times
one of these kernels before its first trial and after every trial, and
each trial's time is scaled by ``nominal / (mean of the kernel times just
before and after it)``.  That turns wall time into milliseconds at a fixed
nominal speed, which is what stays comparable across runs, seeds and
commits.  Raw wall times are reported next to the scaled ones.

Each workload names the kernel that resembles its own work: ``python``
(integer arithmetic, a seeded RNG and a dict, like the exact protocols and
the sketch) or ``mixed``, the geometric mean of ``python`` and a memory
part (dense unpack, strided transpose and shifts of a 512 KB int, like the
wide packed-bit operations; alone it tracked them less well than mixed).
The nominal times are the parts' typical times on the 2-core machine the
benchmark was written on; they set the scale only, and no result depends
on them being exact.
"""

from __future__ import annotations

import math
import random
import time

import numpy as np

NOMINAL_MS = {"python": 3.0, "memory": 45.0}

# Set-up is a cold start, which the kernels above (timed in a warm process)
# track poorly.  Its reference is a bare cold start instead: a worker that
# exits right after ``import numpy`` (``worker.py --mode baseline``), spawned
# just before each set-up probe.  This is its typical time.
NOMINAL_COLD_START_S = 0.1


def _python_kernel(_state):
    rng = random.Random(12345)
    acc = 0
    seen = {}
    for _ in range(8000):
        x = rng.getrandbits(64)
        acc ^= x * 3
        seen[x & 1023] = acc
    return acc


def _memory_state():
    packed = np.random.default_rng(3).integers(0, 256, (2048, 256), dtype=np.uint8)
    return packed, random.Random(5).getrandbits(1 << 22)


def _memory_kernel(state):
    packed, big = state
    dense = np.unpackbits(packed, axis=1, bitorder="little")
    back = np.packbits((dense.T != 0).astype(np.uint8), axis=1, bitorder="little")
    acc = 0
    for i in range(64):
        acc |= big >> (i * 8)
    return int(back[0, 0]) ^ (acc & 1)


_PARTS = {"python": (_python_kernel, lambda: None), "memory": (_memory_kernel, _memory_state)}

KERNELS = {"python": ("python",), "mixed": ("python", "memory")}


def _geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


class Kernel:
    """A reference kernel: its parts run back to back, timed separately, and
    combined by geometric mean."""

    def __init__(self, name: str):
        parts = KERNELS[name]
        self.nominal_ms = _geomean(NOMINAL_MS[p] for p in parts)
        self._parts = [(_PARTS[p][0], _PARTS[p][1]()) for p in parts]

    def time_ms(self) -> float:
        times = []
        for fn, state in self._parts:
            start = time.perf_counter()
            fn(state)
            times.append((time.perf_counter() - start) * 1000.0)
        return _geomean(times)

    def scale(self, ref_ms: float) -> float:
        """Factor that converts a wall time measured at ``ref_ms`` to nominal speed."""
        return self.nominal_ms / ref_ms
