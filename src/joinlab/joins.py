"""Two-party protocols for output-sensitive Boolean and F2 matrix products.

`bmm` runs the search-and-collect protocol: repeatedly find an inner index
whose column/row pair still collides on the complement of the accumulated
output, then harvest all of its collisions.  `mm_f2` classifies output
columns into dense and sparse, ships dense columns verbatim, and recovers
sparse ones from linear parity sketches.  Both charge every modeled message
to the ledger.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from joinlab.f2core import (
    BitMatrix,
    BitVector,
    DimensionError,
    InstanceError,
    JoinInstance,
    _iter_bits,
    bool_product,
    f2_product,
)
from joinlab.ledger import (
    A_TO_B,
    B_TO_A,
    BITS,
    QUBITS,
    CommLedger,
    index_qubits,
)
from joinlab.qsim import (
    BipartiteGraph,
    CostModel,
    ProtocolError,
    SimulationCapError,
    graph_collision_all,
    instance_search,
)

__all__ = [
    "PromiseViolationError",
    "DecodeBudgetError",
    "BmmRound",
    "BmmTrace",
    "bmm",
    "bmm_with_trace",
    "bmm_cost_model",
    "gen_hard_instance",
    "freivalds_round",
    "freivalds_columns",
    "SensingSketch",
    "ColumnClassification",
    "classify_columns",
    "mm_f2",
    "BMM_EXACT_CAP",
]

# exact bmm keeps the instance-search register simulable
BMM_EXACT_CAP = 1 << 10


class PromiseViolationError(ProtocolError):
    """More output ones were found than the promise bound allows."""


class DecodeBudgetError(ProtocolError):
    """Sparse-column recovery failed past the repetition budget."""


# ---------------------------------------------------------------------------
# Boolean matrix multiplication
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BmmRound:
    witness: int
    collisions: int
    min_weight: int


@dataclass
class BmmTrace:
    """Per-round record of the search-and-collect loop."""

    rounds: list[BmmRound] = field(default_factory=list)
    product: BitMatrix | None = None

    @property
    def t(self) -> int:
        return len(self.rounds)

    @property
    def lambdas(self) -> list[int]:
        return [r.collisions for r in self.rounds]

    def total_ones(self) -> int:
        return sum(self.lambdas)


def _inner_iterations(w: int, c_round: float) -> int:
    """Grover rounds of a nested collision search whose smaller side has weight w."""
    return max(1, math.ceil(c_round * math.sqrt(w))) if w else 1


def _search_and_collect(
    instance: JoinInstance,
    model: CostModel,
    ledger: CommLedger,
    rng: random.Random,
    none_repeats: int | None = None,
) -> BmmTrace:
    """The search-and-collect loop of the Boolean product protocol, in either mode.

    ``uncovered[k]`` counts the collisions of column k of A and row k of B
    that are not yet in the output, so index k is a live witness while it is
    positive.  Each round finds and pays for one live witness, adds all of
    its uncovered collisions to the output, and takes them off the counts.
    Exact mode finds the witness with the nested instance search and
    collects with graph collision on the complement of the output;
    cost-model mode replays the protocol as :func:`bmm_cost_model` describes.
    """
    A, B = instance.A, instance.B
    if A.cols != B.rows or A.rows != B.cols:
        raise DimensionError("expected A of shape m x n and B of shape n x m")
    if model.epsilon:
        raise ValueError("the bmm protocol does not model injected error; use epsilon = 0")
    m, n = A.rows, A.cols
    if model.exact and max(m, n) > BMM_EXACT_CAP:
        raise SimulationCapError(f"exact bmm caps dimensions at {BMM_EXACT_CAP}")
    if none_repeats is None:
        none_repeats = max(1, math.ceil(math.log(100.0 * (instance.ell + 2)) / math.log(3.0)))
    a_t, b_t = A.transpose(), B.transpose()
    weights = [(col.bit_count(), row.bit_count()) for col, row in zip(a_t.data, B.data)]
    min_w = [min(w) for w in weights]
    uncovered = [wa * wb for wa, wb in weights]
    width = index_qubits(m)
    # Grover budget of the nested collision search, uniform over branches
    inner_budget = _inner_iterations(max(min_w, default=0), model.c_round)
    inner_cost = inner_budget * 2 * width
    marked = range(n)  # cost-model mode: live witnesses in ascending order

    def pay(amount: int, phase: str):
        ledger.charge(A_TO_B, QUBITS, amount, phase)
        ledger.charge(B_TO_A, QUBITS, amount, phase)

    out_rows = [0] * m
    ones = 0
    trace = BmmTrace()
    while True:
        if model.exact:
            answers = [u > 0 for u in uncovered]
            k = None
            for _ in range(none_repeats):
                k = instance_search(answers, ledger, model, rng, inner_cost_qubits=inner_cost)
                if k is not None:
                    break
            if k is None:
                break
            graph = BipartiteGraph.complement_of(BitMatrix(m, m, out_rows))
            f_a, f_b = BitVector(m, a_t.data[k]), BitVector(m, B.data[k])
            for _ in range(100):
                cells = graph_collision_all(graph, f_a, f_b, ledger, model, rng)
                if cells:
                    break
            else:
                raise ProtocolError("collision collection stalled on a verified witness")
        else:
            marked = [kk for kk in marked if uncovered[kk]]
            if not marked:
                pay(math.ceil(model.c_shuttle * math.sqrt(n)) * inner_budget * width, "final-search")
                break
            t_cur = len(marked)
            k = marked[rng.randrange(t_cur)]
            row = B.data[k]
            cells = [(i, j) for i in _iter_bits(a_t.data[k]) for j in _iter_bits(row & ~out_rows[i])]
            inner = _inner_iterations(min_w[k], model.c_round)
            pay(math.ceil(model.c_shuttle * math.sqrt(n / t_cur)) * inner * width, "search")
            collect = max(1, math.ceil(model.c_round * math.sqrt(len(cells) * min_w[k])))
            pay(collect * width, "collect")
        # every collected cell is new to the output
        for i, j in cells:
            out_rows[i] |= 1 << j
            for kk in _iter_bits(A.data[i] & b_t.data[j]):
                uncovered[kk] -= 1
        ones += len(cells)
        if ones > instance.ell:
            raise PromiseViolationError(f"found {ones} ones, promise allows {instance.ell}")
        trace.rounds.append(BmmRound(k, len(cells), min_w[k]))
    trace.product = BitMatrix(m, m, out_rows)
    return trace


def bmm_with_trace(
    instance: JoinInstance,
    model: CostModel,
    ledger: CommLedger,
    rng: random.Random,
    none_repeats: int | None = None,
) -> tuple[BitMatrix, BmmTrace]:
    """Boolean product protocol returning the accumulated output and its trace.

    Every edge entering the output is a verified collision, so spurious ones
    are impossible; protocol error is confined to stopping before all ones
    are found.  ``none_repeats`` boosts each round's search so the union
    bound over at most ell+1 rounds keeps the end-to-end error small.  A
    cost-model ``model`` runs the replay of :func:`bmm_cost_model` instead.
    """
    trace = _search_and_collect(instance, model, ledger, rng, none_repeats)
    return trace.product, trace


def bmm(
    instance: JoinInstance,
    model: CostModel,
    ledger: CommLedger,
    rng: random.Random,
    none_repeats: int | None = None,
) -> BitMatrix:
    return _search_and_collect(instance, model, ledger, rng, none_repeats).product


def bmm_cost_model(
    instance: JoinInstance,
    model: CostModel,
    ledger: CommLedger,
    rng: random.Random,
) -> BmmTrace:
    """Classical replay of the protocol charged at the analytical per-round cost.

    The witness discovery order is the seeded uniform choice among inner
    indices that still have an uncovered collision.  With t_cur marked
    witnesses remaining, a round charges (per direction, in qubits)

        ceil(c_shuttle * sqrt(n / t_cur)) * ceil(c_round * sqrt(w_k)) * ceil(log2 m)

    for the search and ``ceil(c_round * sqrt(lambda * w_k)) * ceil(log2 m)``
    for the collect step, where w_k = min(|A[.,k]|, |B[k,.]|) and lambda is
    the number of fresh ones the round contributes.  A final failed search
    at the worst-case inner budget closes the run.  An exact ``model`` runs
    the simulated protocol of :func:`bmm_with_trace` instead.
    """
    return _search_and_collect(instance, model, ledger, rng)


def gen_hard_instance(n: int, ell: int, seed: int) -> JoinInstance:
    """Instance family that keeps the search phase busy with balanced witnesses.

    All witness column/row pairs share a common core of w-1 rows and w-1
    columns and extend it by one pooled row and one pooled column, a
    distinct pair per witness.  The pooled corner cell of each witness is
    covered by no other witness, so every one of the p^2 witnesses must be
    discovered no matter the order, each with min-weight w on both sides.
    With w = p = floor(sqrt(ell)/2) the product stays within the promise
    while the per-round search costs stack to the worst case of the bound.
    """
    if n < 1:
        raise InstanceError("dimension must be positive")
    if not 4 <= ell <= n * n:
        raise InstanceError("need 4 <= ell <= n^2 for the hard family")
    w = max(1, math.isqrt(ell) // 2)
    p = w
    while p * p > n:
        p -= 1
    if p < 1:
        raise InstanceError("n too small to host the witness pool")
    rng = random.Random(seed)
    rows_needed = (w - 1) + p
    cols_needed = (w - 1) + p
    if rows_needed > n or cols_needed > n:
        raise InstanceError("n too small for the core plus pools")
    row_ids = rng.sample(range(n), rows_needed)
    col_ids = rng.sample(range(n), cols_needed)
    core_rows, pool_rows = row_ids[: w - 1], row_ids[w - 1 :]
    core_cols, pool_cols = col_ids[: w - 1], col_ids[w - 1 :]
    witness_ids = rng.sample(range(n), p * p)

    a_data = [0] * n
    b_data = [0] * n
    for idx, k in enumerate(witness_ids):
        r_extra = pool_rows[idx // p]
        c_extra = pool_cols[idx % p]
        for i in core_rows + [r_extra]:
            a_data[i] |= 1 << k
        mask = 0
        for j in core_cols + [c_extra]:
            mask |= 1 << j
        b_data[k] = mask
    A = BitMatrix(n, n, a_data)
    B = BitMatrix(n, n, b_data)
    instance = JoinInstance.build(A, B, ell, seed, "bool")
    if instance.oracle_product.weight() > ell:
        raise InstanceError("hard instance construction violated its own promise")
    return instance


# ---------------------------------------------------------------------------
# Freivalds-style nonzero-column detection
# ---------------------------------------------------------------------------


def freivalds_round(a_side: BitMatrix, b_side: BitMatrix, v: BitVector, ledger: CommLedger) -> BitVector:
    """One probe round: returns v^T (A B) as a length-n row, charging 2n bits.

    The result bit of column j is zero whenever column j of the product is
    zero, so detection is one-sided: a nonzero column is missed only when v
    lands in its orthogonal half-space.
    """
    if a_side.cols != b_side.rows:
        raise DimensionError("inner dimensions disagree")
    if v.n != a_side.rows:
        raise DimensionError("probe vector must match the row count of A")
    u = 0
    for i in v.indices():
        u ^= a_side.data[i]
    n_out = b_side.cols
    ledger.charge(A_TO_B, BITS, max(1, b_side.rows), "freivalds")
    acc = 0
    for k in _iter_bits(u):
        acc ^= b_side.data[k]
    ledger.charge(B_TO_A, BITS, max(1, n_out), "freivalds")
    return BitVector(n_out, acc)


def freivalds_columns(
    a_side: BitMatrix,
    b_side: BitMatrix,
    repetitions: int,
    ledger: CommLedger,
    rng: random.Random,
) -> set[int]:
    """Indices of product columns seen nonzero in any of the probe rounds."""
    if repetitions < 1:
        raise ValueError("need at least one repetition")
    detected: set[int] = set()
    for _ in range(repetitions):
        v = BitVector.random(a_side.rows, 0.5, rng)
        detected.update(freivalds_round(a_side, b_side, v, ledger).indices())
    return detected


# ---------------------------------------------------------------------------
# Sparse recovery over F2
# ---------------------------------------------------------------------------


class SensingSketch:
    """Linear parity sketch with bucketed index checksums and a peeling decoder.

    Each of ``d`` levels hashes coordinates into ``2 * kappa`` buckets; a
    bucket stores one parity bit plus ceil(log2 n) checksum bits holding the
    XOR of a seeded per-level coordinate code.  The sketch is linear over
    F2 by construction.  Decoding peels buckets whose checksum names a
    single coordinate consistent with the bucket, preferring candidates
    confirmed by a second level, and only accepts a result whose residual
    cancels exactly.
    """

    def __init__(self, n: int, kappa: int, seed: int, levels: int | None = None):
        if n < 2:
            raise ValueError("sketch needs a domain of at least 2")
        if kappa < 1:
            raise ValueError("sparsity bound must be positive")
        self.n = n
        self.kappa = kappa
        self.seed = seed
        self.levels = levels if levels is not None else max(1, math.ceil(math.log2(100.0 * kappa)))
        self.buckets = 2 * kappa
        self.code_bits = max(1, (n - 1).bit_length())
        rng = random.Random(seed)
        self.bucket_of = []
        self.code_of = []
        self._code_inv = []
        space = 1 << self.code_bits
        for _ in range(self.levels):
            self.bucket_of.append([rng.randrange(self.buckets) for _ in range(n)])
            codes = rng.sample(range(1, space), n) if space > n else rng.sample(range(space), n)
            self.code_of.append(codes)
            self._code_inv.append({c: i for i, c in enumerate(codes)})

    @property
    def measurement_len(self) -> int:
        return self.levels * self.buckets * (1 + self.code_bits)

    def _offset(self, level: int, bucket: int) -> int:
        return (level * self.buckets + bucket) * (1 + self.code_bits)

    def encode(self, x: BitVector) -> BitVector:
        if x.n != self.n:
            raise DimensionError(f"expected length {self.n}, got {x.n}")
        meas = 0
        for i in x.indices():
            for level in range(self.levels):
                off = self._offset(level, self.bucket_of[level][i])
                meas ^= 1 << off
                meas ^= self.code_of[level][i] << (off + 1)
        return BitVector(self.measurement_len, meas)

    def _parse(self, measurement: BitVector):
        parity = [[0] * self.buckets for _ in range(self.levels)]
        chks = [[0] * self.buckets for _ in range(self.levels)]
        bits = measurement.bits
        mask = (1 << self.code_bits) - 1
        for level in range(self.levels):
            for bucket in range(self.buckets):
                off = self._offset(level, bucket)
                parity[level][bucket] = (bits >> off) & 1
                chks[level][bucket] = (bits >> (off + 1)) & mask
        return parity, chks

    def _candidate(self, parity, chks, level: int, bucket: int):
        if parity[level][bucket] != 1:
            return None
        i = self._code_inv[level].get(chks[level][bucket])
        if i is None or self.bucket_of[level][i] != bucket:
            return None
        return i

    def _confirmed(self, parity, chks, level: int, i: int) -> bool:
        for other in range(self.levels):
            if other == level:
                continue
            bucket = self.bucket_of[other][i]
            if parity[other][bucket] == 1 and chks[other][bucket] == self.code_of[other][i]:
                return True
        return False

    def _peel(self, parity, chks, i: int):
        for level in range(self.levels):
            bucket = self.bucket_of[level][i]
            parity[level][bucket] ^= 1
            chks[level][bucket] ^= self.code_of[level][i]

    def decode(self, measurement: BitVector) -> BitVector | None:
        """Recover x from its sketch, or None when peeling cannot finish."""
        if measurement.n != self.measurement_len:
            raise DimensionError("measurement length mismatch")
        parity, chks = self._parse(measurement)
        recovered = 0
        budget = 8 * self.kappa + 8
        while budget > 0:
            if all(p == 0 and c == 0 for lp, lc in zip(parity, chks) for p, c in zip(lp, lc)):
                return BitVector(self.n, recovered)
            budget -= 1
            fallback = None
            chosen = None
            for level in range(self.levels):
                for bucket in range(self.buckets):
                    i = self._candidate(parity, chks, level, bucket)
                    if i is None:
                        continue
                    if self._confirmed(parity, chks, level, i):
                        chosen = i
                        break
                    if fallback is None:
                        fallback = i
                if chosen is not None:
                    break
            if chosen is None:
                chosen = fallback
            if chosen is None:
                return None
            self._peel(parity, chks, chosen)
            recovered ^= 1 << chosen
        return None


# ---------------------------------------------------------------------------
# F2 matrix multiplication
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ColumnClassification:
    """Indices put on the dense side, with the band thresholds used."""

    dense: frozenset[int]
    lo: float
    hi: float


# a column flagged in at least this fraction of the sampling rounds is dense
_DENSE_VOTE = 0.63


def classify_columns(
    instance: JoinInstance,
    ledger: CommLedger,
    rng: random.Random,
    r1: int,
    r_freivalds: int,
) -> ColumnClassification:
    """Row-sampled probing that separates dense from sparse product columns.

    Each round samples ~n/sqrt(ell) rows of A and probes which columns of
    the sampled product are nonzero; columns flagged in a clear majority of
    rounds are declared dense.  Columns of weight at least 1.1*sqrt(ell)
    are caught, and declared-dense columns have at least 0.9*sqrt(ell)
    ones, each with high probability; the band between may go either way.
    """
    n = instance.A.rows
    sqrt_ell = math.sqrt(instance.ell)
    sample_rows = min(n, max(1, math.ceil(n / sqrt_ell)))
    votes = [0] * n
    for _ in range(r1):
        chosen = sorted(rng.sample(range(n), sample_rows))
        sub = BitMatrix(sample_rows, instance.A.cols, [instance.A.data[i] for i in chosen])
        for j in freivalds_columns(sub, instance.B, r_freivalds, ledger, rng):
            votes[j] += 1
    threshold = _DENSE_VOTE * r1
    dense = frozenset(j for j in range(n) if votes[j] >= threshold)
    return ColumnClassification(dense, 0.9 * sqrt_ell, 1.1 * sqrt_ell)


def mm_f2(
    instance: JoinInstance,
    ledger: CommLedger,
    rng: random.Random,
    r1: int | None = None,
    r_freivalds: int | None = None,
    r3: int | None = None,
) -> BitMatrix:
    """Full F2 product under the sparse-output promise.

    Step 1 classifies columns (classical probing).  Step 2 ships the dense
    columns of B so their product columns are computed exactly.  Step 3
    streams r3 batches of per-column sketches of A; the sparse product
    columns are decoded from sketch linearity.  The sketch batches are
    charged for all repetitions (a one-way stream), which keeps the cost of
    a run a deterministic function of (n, ell).
    """
    A, B = instance.A, instance.B
    if instance.kind != "f2":
        raise ValueError("mm_f2 expects an instance with an F2 promise")
    if A.rows != A.cols or B.rows != B.cols or A.cols != B.rows:
        raise DimensionError("mm_f2 handles square n x n operands")
    n = A.rows
    if r1 is None:
        r1 = max(1, math.ceil(3 * math.log2(n)))
    if r_freivalds is None:
        r_freivalds = max(1, math.ceil(math.log2(100.0 * n)))
    if r3 is None:
        r3 = max(1, math.ceil(math.log2(100.0 * n)))

    classification = classify_columns(instance, ledger, rng, r1, r_freivalds)
    dense = sorted(classification.dense)

    a_t = A.transpose()
    b_t = B.transpose()

    out_cols: dict[int, int] = {}
    if dense:
        ledger.charge(B_TO_A, BITS, len(dense) * n, "dense-transfer")
        for j in dense:
            acc = 0
            for i in _iter_bits(b_t.data[j]):
                acc ^= a_t.data[i]
            out_cols[j] = acc

    sparse = [j for j in range(n) if j not in classification.dense]
    kappa = math.ceil(1.1 * math.sqrt(instance.ell))
    unresolved = set(sparse)
    for rep in range(r3):
        sketch = SensingSketch(n, kappa, seed=rng.getrandbits(32))
        ledger.charge(A_TO_B, BITS, sketch.measurement_len * n, "sketch-transfer")
        if not unresolved:
            continue
        col_sketches = [sketch.encode(BitVector(n, a_t.data[i])).bits for i in range(n)]
        for j in sorted(unresolved):
            meas = 0
            for i in _iter_bits(b_t.data[j]):
                meas ^= col_sketches[i]
            decoded = sketch.decode(BitVector(sketch.measurement_len, meas))
            if decoded is not None:
                out_cols[j] = decoded.bits
                unresolved.discard(j)
    if unresolved:
        raise DecodeBudgetError(
            f"{len(unresolved)} columns undecoded after {r3} sketch rounds"
        )

    data = [0] * n
    for j, colbits in out_cols.items():
        for i in _iter_bits(colbits):
            data[i] |= 1 << j
    result = BitMatrix(n, n, data)
    if result.weight() > instance.ell:
        raise PromiseViolationError(
            f"recovered {result.weight()} ones, promise allows {instance.ell}"
        )
    return result
