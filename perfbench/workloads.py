"""Workload plans, one timed trial per plan entry, and the oracle checks.

A workload is a fixed cycle of cells.  Trial ``i`` runs cell ``i % len(cells)``
with a seed derived from the workload seed and ``i``, so a seed fixes the
whole trial sequence.  Planted trials go through the public runners in
``joinlab.cli`` with ``trials=1``; embedded trials build a
``joinlab.reductions`` instance and hand it to the protocol directly, since
the runners only plant their own instances.  Either way the timed region
is instance generation plus the protocol run, as in the CLI.

The runners keep their protocol outputs to themselves, so the checks read
them through :class:`Taps`: pass-throughs on the one or two protocol entry
points each runner calls, installed in every run (one extra call frame per
trial).  The span wrappers of :mod:`perfbench.tracing` are separate and
only ever installed in the traced run.
"""

from __future__ import annotations

import hashlib
import inspect
import itertools
import math
import random
import time
from dataclasses import asdict, dataclass

import numpy as np

from joinlab import cli, joins, qsim, reductions
from joinlab.f2core import BitVector
from joinlab.ledger import CommLedger
from joinlab.qsim import CostModel
from perfbench.tracing import Patches

EXACT = CostModel.exact_mode()
COST = CostModel.cost_model()

# protocol failures a trial may end in; any other exception aborts the run
EXPECTED_ERRORS = (qsim.ProtocolError, joins.PromiseViolationError, joins.DecodeBudgetError)


class CheckError(RuntimeError):
    """A correctness check could not run (the oracle inputs were not observed)."""


@dataclass(frozen=True)
class Cell:
    """One trial shape.  ``size`` is ell for planted and cost-model cells and
    the family size k (so ell = k^2) for embedded ones."""

    kind: str
    n: int
    size: int

    @property
    def label(self) -> str:
        key = "k" if self.kind in ("bmm-disj", "mmf2-ip") else "ell"
        return f"{self.kind}:n={self.n}:{key}={self.size}"


@dataclass(frozen=True)
class Workload:
    name: str
    cells: tuple[Cell, ...]
    min_cycles: int  # whole cycles an untraced run completes, however long they take
    taps: tuple[tuple[str, str], ...]  # (module, function) the runners call
    kernel: str  # reference kernel of perfbench.calibrate that tracks this work's speed


def _bmm_exact_cells():
    cells = []
    for n in (32, 64, 128):
        cells += [Cell("bmm", n, ell) for ell in (n // 2, n, 2 * n)]
        cells.append(Cell("bmm-disj", n, math.isqrt(n)))
    # n = ell = 64 twice: with 12 slots the median fell between this cell
    # and the next slower one; 13 put it inside this cell
    return tuple(cells) + (Cell("bmm", 64, 64),)


def _mmf2_cells():
    cells = []
    for n in (128, 256, 512):
        cells += [Cell("mmf2", n, ell) for ell in (16, 64)]
        cells.append(Cell("mmf2-ip", n, 8))
    return tuple(cells)


# bmm-cost at n = 4096 appears twice so the seven-slot cycle puts the median
# inside one cell's time range instead of on the gap between two cells;
# eight cycles let the tail be p80, near the middle of the disj-cost 2^22
# cell's trials rather than at its second-fastest
_SCALING_CELLS = (
    Cell("bmm-cost", 2048, 256),
    Cell("bmm-cost", 4096, 256),
    Cell("bmm-cost", 8192, 256),
    Cell("bmm-cost", 4096, 256),
    Cell("disj-cost", 1 << 18, 1),
    Cell("disj-cost", 1 << 20, 1),
    Cell("disj-cost", 1 << 22, 1),
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload("bmm-exact", _bmm_exact_cells(), 20, (("joins", "bmm_with_trace"),), "python"),
        Workload("mmf2", _mmf2_cells(), 25, (("joins", "mm_f2"),), "python"),
        Workload(
            "scaling-cost",
            _SCALING_CELLS,
            8,
            (("joins", "bmm_cost_model"), ("qsim", "disj")),
            "mixed",
        ),
    )
}

_MODULES = {"joins": joins, "qsim": qsim}


def trial_seed(seed: int, workload: str, index: int) -> int:
    """Seed of trial ``index``: a stable hash of the workload seed and position."""
    digest = hashlib.sha256(f"{seed}:{workload}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def trials(workload: Workload, seed: int):
    """The workload's endless trial sequence of (index, cell, trial seed)."""
    cells = workload.cells
    for i in itertools.count():
        yield i, cells[i % len(cells)], trial_seed(seed, workload.name, i)


# ---------------------------------------------------------------------------
# result taps
# ---------------------------------------------------------------------------


class Taps:
    """Pass-throughs that keep each call's arguments and its result or error."""

    def __init__(self, targets):
        self.targets = tuple(targets)
        self.calls: list[dict] = []
        self._patches = Patches()

    def install(self):
        for mod_name, fn_name in self.targets:
            module = _MODULES[mod_name]
            self._patches.replace(module, fn_name, self._tap(fn_name, getattr(module, fn_name)))

    def _tap(self, name, original):
        calls = self.calls

        def tap(*args, **kwargs):
            call = {"fn": name, "original": original, "args": args, "kwargs": kwargs}
            calls.append(call)
            try:
                call["result"] = original(*args, **kwargs)
            except BaseException as exc:
                call["error"] = exc
                raise
            return call["result"]

        return tap

    def restore(self):
        self._patches.restore()

    def take(self, name: str) -> tuple[dict, dict]:
        """The single recorded call to ``name`` this trial, with bound arguments."""
        found = [c for c in self.calls if c["fn"] == name]
        if len(found) != 1:
            raise CheckError(f"expected one call to {name}, saw {len(found)}")
        call = found[0]
        bound = inspect.signature(call["original"]).bind(*call["args"], **call["kwargs"])
        return call, bound.arguments


# ---------------------------------------------------------------------------
# brute-force oracles
# ---------------------------------------------------------------------------


def _unpack(words, width: int) -> np.ndarray:
    nbytes = max(1, (width + 7) // 8)
    buf = b"".join(w.to_bytes(nbytes, "little") for w in words)
    arr = np.frombuffer(buf, dtype=np.uint8).reshape(len(words), nbytes)
    return np.unpackbits(arr, axis=1, bitorder="little")[:, :width]


def brute_force_matches(A, B, product, kind: str) -> bool:
    """Whether ``product`` equals A*B computed densely with numpy.

    Only rows of A and inner indices that carry ones take part, which keeps
    the dense product small for the sparse instances of every workload.
    """
    rows = [i for i, r in enumerate(A.data) if r]
    inner = [k for k, r in enumerate(B.data) if r]
    active = set(rows) if inner else set()
    if any(r for i, r in enumerate(product.data) if i not in active):
        return False
    if not active:
        return True
    a = _unpack([A.data[i] for i in rows], A.cols)[:, inner].astype(np.int64)
    b = _unpack([B.data[k] for k in inner], B.cols).astype(np.int64)
    dense = a @ b
    want = dense > 0 if kind == "bool" else (dense & 1).astype(bool)
    got = _unpack([product.data[i] for i in rows], product.cols).astype(bool)
    return bool(np.array_equal(want, got))


def _check_product(instance, out, violations: list) -> bool:
    """Output against the instance oracle, and the oracle against brute force."""
    oracle = instance.oracle_product
    if not brute_force_matches(instance.A, instance.B, oracle, instance.kind):
        violations.append("oracle_product differs from the brute-force product")
    if out is None:
        return False
    if instance.kind == "bool" and any(o & ~q for o, q in zip(out.data, oracle.data)):
        # every one bmm reports is a verified collision
        violations.append("bmm output has a one outside the product")
    return out == oracle


def _check_row(row, ok, ledger, rounds, violations: list, check_success=True):
    seen = (row["classical_bits"], row["qubits"], row["rounds"])
    if seen != (ledger.bits, ledger.qubits, rounds):
        violations.append(f"runner row {seen} disagrees with its ledger and trace")
    if check_success and bool(row["success"]) != ok:
        violations.append("runner success flag disagrees with the oracle check")


# ---------------------------------------------------------------------------
# trials
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    seed: int
    ok: bool
    cause: str | None
    bits: int
    qubits: int
    rounds: int
    records: int  # len(ledger) at the end of the trial

    def record(self) -> dict:
        return asdict(self)


def _cause(ok: bool, error) -> str | None:
    if error is not None:
        return type(error).__name__
    return None if ok else "wrong-output"


def _outcome(seed, ok, error, ledger, rounds) -> Outcome:
    return Outcome(seed, ok, _cause(ok, error), ledger.bits, ledger.qubits, rounds, len(ledger))


def _timed(fn):
    start = time.perf_counter()
    try:
        value, error = fn(), None
    except EXPECTED_ERRORS as exc:
        value, error = None, exc
    return time.perf_counter() - start, value, error


def _random_family(n: int, k: int, density: float, rng: random.Random):
    return [BitVector.random(n, density, rng) for _ in range(k)]


def _planted(cell: Cell, seed: int, taps: Taps, violations: list):
    if cell.kind == "bmm":
        fn = "bmm_with_trace"
        elapsed, rows, error = _timed(lambda: cli.run_bmm_trials(cell.n, cell.size, 1, seed, EXACT))
    else:
        fn = "mm_f2"
        elapsed, rows, error = _timed(lambda: cli.run_mmf2_trials(cell.n, cell.size, 1, seed))
    call, arguments = taps.take(fn)
    instance, ledger = arguments["instance"], arguments["ledger"]
    result = call.get("result")
    if cell.kind == "bmm":
        out, rounds = (result[0], result[1].t) if result is not None else (None, 0)
    else:
        out, rounds = result, 3  # mm_f2 runs its three steps
    error = error or call.get("error")
    ok = _check_product(instance, out, violations) and error is None
    if rows is not None:
        _check_row(rows[0], ok, ledger, rounds, violations)
    run_seed = rows[0]["seed"] if rows else instance.seed
    return elapsed, _outcome(run_seed, ok, error, ledger, rounds)


def _embedded(cell: Cell, seed: int, violations: list):
    state = {}

    def trial():
        rng = random.Random(seed)
        state["ledger"] = ledger = CommLedger()
        # at density 0.3 nearly every pair intersects, so the disjointness
        # family's output is one dense k x k block
        left = _random_family(cell.n, cell.size, 0.3, rng)
        right = _random_family(cell.n, cell.size, 0.3, rng)
        if cell.kind == "bmm-disj":
            state["emb"] = emb = reductions.embed_disj_family(left, right, cell.n)
            out, trace = joins.bmm_with_trace(emb.instance, EXACT, ledger, rng)
            state["rounds"] = trace.t
            return out
        state["emb"] = emb = reductions.embed_ip_f2(left, right, cell.n)
        state["rounds"] = 3
        return joins.mm_f2(emb.instance, ledger, rng)

    elapsed, out, error = _timed(trial)
    emb = state.get("emb")
    if emb is None:
        raise CheckError(f"{cell.label}: the embedding was not built")
    if not emb.validate():
        violations.append(f"{cell.label}: embedding failed its validator")
    ok = _check_product(emb.instance, out, violations) and error is None
    ledger = state["ledger"]
    rounds = state.get("rounds", 0)
    return elapsed, _outcome(seed, ok, error, ledger, rounds)


def _cost_model(cell: Cell, seed: int, taps: Taps, violations: list):
    elapsed, result, error = _timed(
        lambda: cli.scaling_points(cell.kind, [cell.n], [cell.size], 1, seed, COST, False)
    )
    if cell.kind == "bmm-cost":
        call, arguments = taps.take("bmm_cost_model")
        trace = call.get("result")
        out = trace.product if trace is not None else None
        ok = _check_product(arguments["instance"], out, violations)
        rounds = trace.t if trace is not None else 0
    else:
        call, arguments = taps.take("disj")
        a, b, witness = arguments["a"], arguments["b"], call.get("result")
        truth = a.bits & b.bits
        if witness is not None and not ((a.bits >> witness) & 1 and (b.bits >> witness) & 1):
            violations.append(f"{cell.label}: witness {witness} is not in both sets")
        ok = witness is not None if truth else witness is None
        rounds = 1
    ledger = arguments["ledger"]
    error = error or call.get("error")
    ok = ok and error is None
    run_seed = seed
    if result is not None:
        points, rows = result
        _check_row(rows[0], ok, ledger, rounds, violations, check_success=False)
        if points[0][1] != ledger.total():
            violations.append(f"{cell.label}: cost point disagrees with the ledger total")
        run_seed = rows[0]["seed"]
    return elapsed, _outcome(run_seed, ok, error, ledger, rounds)


def run_trial(cell: Cell, seed: int, taps: Taps, violations: list) -> tuple[float, Outcome]:
    """Run and check one trial; returns (seconds in the timed region, outcome)."""
    taps.calls.clear()
    if cell.kind in ("bmm", "mmf2"):
        return _planted(cell, seed, taps, violations)
    if cell.kind in ("bmm-disj", "mmf2-ip"):
        return _embedded(cell, seed, violations)
    return _cost_model(cell, seed, taps, violations)
