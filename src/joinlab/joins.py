"""Two-party protocols for output-sensitive Boolean and F2 matrix products.

`bmm_with_trace` runs the search-and-collect protocol: repeatedly find an
inner index whose column/row pair still collides on the complement of the
accumulated output, then harvest all of its collisions.  `mm_f2` classifies
output columns into dense and sparse, ships dense columns verbatim, and
recovers sparse ones from linear parity sketches.  Both charge every
modeled message to the ledger.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import compress
from operator import or_, xor

import numpy as np

from joinlab.f2core import (
    BitMatrix,
    BitVector,
    DimensionError,
    InstanceError,
    JoinInstance,
    _fold,
    _iter_bits,
    bool_product,  # unused here, like f2_product; perfbench's tracing test checks both bindings
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

# run time bounds exact bmm: one planted trial at n = ell = 2**12 (seed 5)
# takes 0.14-0.21 s of CPU time on a 2-core VM
BMM_EXACT_CAP = 1 << 12


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
) -> BmmTrace:
    """The search-and-collect loop of the Boolean product protocol, in either mode.

    Only an active inner index k, where column k of A and row k of B both
    hold ones, can collide.  The state lives in compact coordinates, each
    numbered in ascending order, so no word in it is n bits wide: positions
    p of the active indices, the nonzero rows r of A and the columns c of the
    active rows of B.  ``a_cols[p]`` lists the rows of column k of A,
    ``b_rows[p]`` is row k of B, ``a_rows[r]`` and ``b_cols[c]`` are the
    positions a row and a column meet, and ``out[r]`` is the output so far.
    A round pays for one live witness and adds its collisions not yet in the
    output; a position those cells touch dies once every row of its A column
    holds all of its B row.  Both modes keep ``live``, the live inner indices
    in ascending order.  Exact mode finds the witness by instance search over
    [n], marked at ``live``, and collects by graph collision on the m x m
    complement of the output.  Cost-model mode draws a uniform entry of
    ``live`` and replays the protocol as :func:`bmm_cost_model` describes.
    """
    A, B = instance.A, instance.B
    if model.epsilon:
        raise ValueError("the bmm protocol does not model injected error; use epsilon = 0")
    m, n = A.rows, A.cols
    if model.exact and max(m, n) > BMM_EXACT_CAP:
        raise SimulationCapError(f"exact bmm caps dimensions at {BMM_EXACT_CAP}")
    # an exact search misses with probability at most 1/3, so a round ends the run by mistake with
    # probability at most 1/(100 (ell + 2)), and the union bound covers the at most ell + 1 rounds
    none_repeats = math.ceil(math.log(100.0 * (instance.ell + 2)) / math.log(3.0))
    rows = list(compress(range(m), A.data))
    active = [k for k in _iter_bits(reduce(or_, (A.data[i] for i in rows), 0)) if B.data[k]]
    position = {k: p for p, k in enumerate(active)}
    a_rows, a_cols = [0] * len(rows), [[] for _ in active]
    for r, i in enumerate(rows):
        for p in (position[k] for k in _iter_bits(A.data[i]) if k in position):
            a_rows[r] |= 1 << p
            a_cols[p].append(r)
    col_of = {j: c for c, j in enumerate(_iter_bits(reduce(or_, (B.data[k] for k in active), 0)))}
    b_rows, b_cols = [0] * len(active), [0] * len(col_of)
    for p, k in enumerate(active):
        for c in map(col_of.__getitem__, _iter_bits(B.data[k])):
            b_rows[p] |= 1 << c
            b_cols[c] |= 1 << p
    min_w = [min(len(col), row.bit_count()) for col, row in zip(a_cols, b_rows)]
    live = list(active)
    width = index_qubits(m)
    # Grover budget of the nested collision search, uniform over branches
    inner_budget = _inner_iterations(max(min_w, default=0), model.c_round)
    inner_cost = inner_budget * 2 * width

    def pay(amount: int, phase: str):
        ledger.charge(A_TO_B, QUBITS, amount, phase)
        ledger.charge(B_TO_A, QUBITS, amount, phase)

    if model.exact:
        # graph collision works at full width: each A column over [m], and the cells not yet collected,
        # from which graph_collision_all removes the cells it finds
        uncollected = BipartiteGraph.complete(m, m)
    out = [0] * len(rows)
    ones = 0
    trace = BmmTrace()
    while True:
        if model.exact:
            for _ in range(none_repeats):
                k = instance_search(range(n), live, ledger, model, rng, inner_cost_qubits=inner_cost)
                if k is not None:
                    break
            else:
                break
            p = position[k]
            f_a, f_b = BitVector(m, sum(1 << rows[r] for r in a_cols[p])), BitVector(m, B.data[k])
            for _ in range(100):
                found = graph_collision_all(uncollected, f_a, f_b, ledger, model, rng)
                if found:
                    break
            else:
                raise ProtocolError("collision collection stalled on a verified witness")
            cells = [(bisect_left(rows, i), col_of[j]) for i, j in found]
        else:
            t_cur = len(live)
            if not t_cur:
                pay(math.ceil(model.c_shuttle * math.sqrt(n)) * inner_budget * width, "final-search")
                break
            k = live[rng.randrange(t_cur)]
            p = position[k]
            cells = [(r, c) for r in a_cols[p] for c in _iter_bits(b_rows[p] & ~out[r])]
            inner = _inner_iterations(min_w[p], model.c_round)
            pay(math.ceil(model.c_shuttle * math.sqrt(n / t_cur)) * inner * width, "search")
            collect = max(1, math.ceil(model.c_round * math.sqrt(len(cells) * min_w[p])))
            pay(collect * width, "collect")
        # every collected cell is new to the output, so only live positions are touched
        touched = 0
        for r, c in cells:
            out[r] |= 1 << c
            touched |= a_rows[r] & b_cols[c]
        for q in _iter_bits(touched):
            for r in a_cols[q]:
                if b_rows[q] & ~out[r]:
                    break
            else:
                del live[bisect_left(live, active[q])]
        ones += len(cells)
        if ones > instance.ell:
            raise PromiseViolationError(f"found {ones} ones, promise allows {instance.ell}")
        trace.rounds.append(BmmRound(k, len(cells), min_w[p]))
    product, col_bits = [0] * m, [1 << j for j in col_of]
    for i, word in zip(rows, out):
        product[i] = _fold(or_, col_bits, word)
    trace.product = BitMatrix(m, m, product)
    return trace


def bmm_with_trace(
    instance: JoinInstance,
    model: CostModel,
    ledger: CommLedger,
    rng: random.Random,
) -> tuple[BitMatrix, BmmTrace]:
    """Boolean product protocol returning the accumulated output and its trace.

    Every edge entering the output is a verified collision, so spurious ones
    are impossible; protocol error is confined to stopping before all ones
    are found.  The run ends only after ceil(log3(100 (ell+2))) searches in
    a row find no witness, so the union bound over at most ell+1 rounds
    keeps the end-to-end error small.  A cost-model ``model`` runs the
    replay of :func:`bmm_cost_model` instead.
    """
    trace = _search_and_collect(instance, model, ledger, rng)
    return trace.product, trace


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
    at the worst-case inner budget closes the run, charging
    ``ceil(c_shuttle * sqrt(n)) * ceil(c_round * sqrt(w_max)) * ceil(log2 m)``
    with w_max the largest w_k; the middle factor is 1 when no inner index
    is active.  An exact ``model`` runs the simulated protocol of
    :func:`bmm_with_trace` instead.
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
    # 4 <= ell <= n^2 gives 1 <= w <= n/2 and 1 <= p <= sqrt(n), so the core plus a pool fit in [n]
    w = math.isqrt(ell) // 2
    p = min(w, math.isqrt(n))
    rng = random.Random(seed)
    row_ids = rng.sample(range(n), w - 1 + p)
    col_ids = rng.sample(range(n), w - 1 + p)
    core_rows, pool_rows = row_ids[: w - 1], row_ids[w - 1 :]
    core_cols, pool_cols = col_ids[: w - 1], col_ids[w - 1 :]
    witness_ids = rng.sample(range(n), p * p)

    a_data = [0] * n
    b_data = [0] * n
    witnesses = sum(1 << k for k in witness_ids)
    for i in core_rows:
        a_data[i] = witnesses
    core = sum(1 << j for j in core_cols)
    for idx, k in enumerate(witness_ids):
        a_data[pool_rows[idx // p]] |= 1 << k
        b_data[k] = core | 1 << pool_cols[idx % p]
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
    u = _fold(xor, a_side.data, v.bits)
    ledger.charge(A_TO_B, BITS, max(1, b_side.rows), "freivalds")
    acc = _fold(xor, b_side.data, u)
    ledger.charge(B_TO_A, BITS, max(1, b_side.cols), "freivalds")
    return BitVector(b_side.cols, acc)


# ---------------------------------------------------------------------------
# Sparse recovery over F2
# ---------------------------------------------------------------------------


class SensingSketch:
    """Linear parity sketch with bucketed index checksums and a peeling decoder.

    Each of ``levels = ceil(log2(100 kappa))`` levels hashes coordinates into
    ``2 * kappa`` buckets; a bucket is one packed field, ``parity | code << 1``,
    holding the parity and the XOR of the per-level codes of the coordinates
    in it.  ``sketch[i]`` is coordinate i's measurement word, the image of the
    unit vector e_i, with its own field at one bucket per level, so the
    sketch is linear over F2.  Decoding peels that same word off the residual
    measurement for a coordinate named by a pure bucket, preferring one
    confirmed by a second level, and only accepts a result whose residual
    cancels exactly.

    Level l puts coordinate i in bucket ``h * buckets >> 32`` of the
    multiply-shift hash ``h = ((a*i + b) mod 2**64) >> 32`` (Dietzfelbinger
    et al. 1997) and gives it code ``(c2 * s(c1*i) + d) mod 2**code_bits``,
    with c1, c2 odd and ``s(x) = x ^ x >> ceil(code_bits / 2)``.
    ``random.Random(seed)`` draws only a, b, c1, c2 and d per level.  Each
    step is a bijection, so :meth:`_coordinate` inverts the code by
    arithmetic.  Without the xorshift s, the XOR of the codes of three
    coordinates sharing a bucket names a fourth coordinate of that bucket
    about three times as often as with random codes, and sketches with few
    levels peel those false candidates.  When codes outnumber coordinates, d
    puts the preimage of code 0 at or above n, so no coordinate has code 0.

    Construction only fixes the sizes.  The tables are computed on first
    use, for all coordinates and levels in one numpy pass, and a
    coordinate's word the first time it is read, so a sketch that only
    reports ``measurement_len``, or only sees zero vectors and zero
    measurements, computes neither.
    """

    def __init__(self, n: int, kappa: int, seed: int):
        if n < 1:
            raise ValueError("sketch needs a domain of at least 1")
        if kappa < 1:
            raise ValueError("sparsity bound must be positive")
        self.n = n
        self.kappa = kappa
        self.seed = seed
        self.levels = math.ceil(math.log2(100.0 * kappa))
        self.buckets = 2 * kappa
        self.code_bits = max(1, (n - 1).bit_length())
        self.measurement_len = self.levels * self.buckets * (1 + self.code_bits)
        self._shift = (self.code_bits + 1) // 2
        self._words: dict[int, int] = {}

    @cached_property
    def _tables(self) -> tuple[list[list[int]], list[list[int]], list[tuple[int, int, int]]]:
        """Per level: each coordinate's bucket, each coordinate's code, and (d, c2^-1, c1^-1)."""
        rng = random.Random(self.seed)
        n, bits, shift = self.n, self.code_bits, self._shift
        space = 1 << bits
        params = []
        for _ in range(self.levels):
            a, b = rng.getrandbits(64), rng.getrandbits(64)
            c1, c2 = rng.getrandbits(bits) | 1, rng.getrandbits(bits) | 1
            if space > n:
                x = c1 * rng.randrange(n, space) % space
                d = -c2 * (x ^ x >> shift) % space
            else:
                d = rng.getrandbits(bits)
            params.append((a, b, c1, c2, d))
        a, b, c1, c2, d = (np.array(col, dtype=np.uint64)[:, None] for col in zip(*params))
        i, mask = np.arange(n, dtype=np.uint64), np.uint64(space - 1)
        buckets = ((a * i + b) >> np.uint64(32)) * np.uint64(self.buckets) >> np.uint64(32)
        x = c1 * i & mask
        codes = c2 * (x ^ x >> np.uint64(shift)) + d & mask
        inverse = [(d, pow(c2, -1, space), pow(c1, -1, space)) for _, _, c1, c2, d in params]
        return buckets.tolist(), codes.tolist(), inverse

    def _coordinate(self, level: int, code: int) -> int | None:
        """The coordinate with this code at this level, or None when no coordinate below n has it."""
        d, c2_inv, c1_inv = self._tables[2][level]
        mask = (1 << self.code_bits) - 1
        x = (code - d) * c2_inv & mask
        i = (x ^ x >> self._shift) * c1_inv & mask
        return i if i < self.n else None

    def _offset(self, level: int, bucket: int) -> int:
        """Bit position of the field of this bucket at this level in a measurement."""
        return (level * self.buckets + bucket) * (1 + self.code_bits)

    def __getitem__(self, i: int) -> int:
        """Coordinate i's measurement word, computed the first time it is read."""
        word = self._words.get(i)
        if word is None:
            bucket_of, code_of, _ = self._tables
            word = 0
            for level in range(self.levels):
                word |= (1 | code_of[level][i] << 1) << self._offset(level, bucket_of[level][i])
            self._words[i] = word
        return word

    def encode(self, x: BitVector) -> BitVector:
        if x.n != self.n:
            raise DimensionError(f"expected length {self.n}, got {x.n}")
        return BitVector(self.measurement_len, _fold(xor, self, x.bits))

    def decode(self, measurement: BitVector) -> BitVector | None:
        """Recover x from its sketch, or None when peeling cannot finish.

        Each step scans the buckets of the residual level by level for a pure
        one: parity 1 and a code naming a coordinate hashed to that bucket.
        The first such coordinate whose bucket at another level holds exactly
        its own field is peeled, else the first one found; the peel XORs the
        coordinate's word out of the residual.  At most 8 kappa + 8 peels.
        """
        if measurement.n != self.measurement_len:
            raise DimensionError("measurement length mismatch")
        residual = measurement.bits
        if not residual:
            return BitVector(self.n)
        bucket_of, code_of, _ = self._tables
        coordinate, levels, offset = self._coordinate, range(self.levels), self._offset
        mask = (1 << (1 + self.code_bits)) - 1
        recovered = 0
        for _ in range(8 * self.kappa + 8):
            if not residual:
                return BitVector(self.n, recovered)
            chosen = fallback = None
            for level in levels:
                for bucket in range(self.buckets):
                    field = (residual >> offset(level, bucket)) & mask
                    i = coordinate(level, field >> 1) if field & 1 else None
                    if i is None or bucket_of[level][i] != bucket:
                        continue
                    if any(
                        (residual >> offset(other, bucket_of[other][i])) & mask == 1 | code_of[other][i] << 1
                        for other in levels
                        if other != level
                    ):
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
            residual ^= self[chosen]
            recovered ^= 1 << chosen
        return None


# ---------------------------------------------------------------------------
# F2 matrix multiplication
# ---------------------------------------------------------------------------


# a column flagged in at least this fraction of the sampling rounds is dense
_DENSE_VOTE = 0.63


def _probe_rounds(instance: JoinInstance, ledger: CommLedger, rng: random.Random, r1: int, r_freivalds: int):
    """Yield each round's sampled nonzero rows of A, its probe word and the answers v^T (A_S B).

    Alice's coins are a private generator seeded by one shared
    ``getrandbits(64)``.  A round keeps k of the n rows by selection sampling
    (Knuth, Algorithm S) over [n] ordered with A's nonzero rows first, so the
    kept rows are a uniform k-subset intersected with them; zero rows of A
    add nothing to v^T A_S.  Bit ``t * r_freivalds + p`` of the round's word
    is probe p's bit for ``chosen[t]``.  An answer is what
    :func:`freivalds_round` returns on the kept rows, and is charged as one:
    the XOR of the product rows (A B)[i] its probe picks, read from the
    ``oracle_product`` of an F2 instance, the product ``mm_f2`` also reads.
    """
    B = instance.B
    n = instance.A.rows
    product = instance.oracle_product.data
    sample_rows = min(n, max(1, math.ceil(n / math.sqrt(instance.ell))))
    # each probe is charged as one freivalds_round: v out to B's side, v^T (A_S B) back
    probe = [(A_TO_B, BITS, max(1, B.rows), "freivalds"), (B_TO_A, BITS, max(1, B.cols), "freivalds")]
    coins = random.Random(rng.getrandbits(64))
    randrange, getrandbits = coins.randrange, coins.getrandbits
    support, mask = list(compress(range(n), instance.A.data)), (1 << r_freivalds) - 1
    for _ in range(r1):
        chosen, left = [], sample_rows
        for t, i in enumerate(support):
            if randrange(n - t) < left:
                chosen.append(i)
                left -= 1
                if not left:
                    break
        word, answers = getrandbits(r_freivalds * len(chosen)), [0] * r_freivalds
        for t, i in enumerate(chosen):
            if product[i]:
                for p in _iter_bits(word >> t * r_freivalds & mask):
                    answers[p] ^= product[i]
        ledger._log(probe, r_freivalds)
        yield chosen, word, answers


def classify_columns(instance: JoinInstance, ledger: CommLedger, rng: random.Random) -> frozenset[int]:
    """Row-sampled probing that returns the columns of the product declared dense.

    Each round samples ~n/sqrt(ell) rows of A and probes which columns of
    the sampled product are nonzero; columns flagged in a clear majority of
    rounds are declared dense.  There are r1 = max(1, ceil(3 log2 n))
    rounds of r_freivalds = ceil(log2(100 n)) probes each.  Columns of
    weight at least 1.1*sqrt(ell) are caught, and declared-dense columns
    have at least 0.9*sqrt(ell) ones, each with high probability; the band
    between may go either way.  Samples and probes are Alice's private
    coins, seeded by one ``rng.getrandbits(64)`` (see :func:`_probe_rounds`).
    ``instance`` is an F2 instance: the answers read its ``oracle_product``.
    """
    n = instance.A.rows
    r1, r_freivalds = max(1, math.ceil(3 * math.log2(n))), math.ceil(math.log2(100.0 * n))
    votes = [0] * n
    for _, _, answers in _probe_rounds(instance, ledger, rng, r1, r_freivalds):
        for j in _iter_bits(reduce(or_, answers, 0)):
            votes[j] += 1
    threshold = _DENSE_VOTE * r1
    return frozenset(j for j in range(n) if votes[j] >= threshold)


def mm_f2(instance: JoinInstance, ledger: CommLedger, rng: random.Random) -> BitMatrix:
    """Full F2 product under the sparse-output promise.

    Step 1 classifies columns (classical probing).  Step 2 ships the dense
    columns of B so their product columns are computed exactly.  Step 3
    streams r3 = ceil(log2(100 n)) batches of sketches of A's columns, and
    Bob decodes each sparse column of the product from his measurement: by
    linearity, the sketches folded through column j of B are the sketch of
    column j of AB, so the simulation encodes that column directly.  A zero
    column has the zero measurement, which decodes to zero at once, so only
    the nonzero sparse columns are encoded and decoded.  Every batch is
    charged (a one-way stream), so the bits are the (n, ell)-determined
    sketch and probe charges plus n for each dense column.  Classification
    and step 3 read ``oracle_product``, the F2 product of an F2 instance.
    """
    A = instance.A
    if instance.kind != "f2":
        raise ValueError("mm_f2 expects an instance with an F2 promise")
    # JoinInstance already holds A as m x n against B as n x m
    if A.rows != A.cols:
        raise DimensionError("mm_f2 handles square n x n operands")
    n = A.rows
    r3 = math.ceil(math.log2(100.0 * n))

    dense = classify_columns(instance, ledger, rng)
    # the columns of the product whose rows classification probed; under the promise the transpose
    # scatters at most ell ones
    columns = instance.oracle_product.transpose().data

    out_cols = {j: columns[j] for j in dense}
    if dense:
        ledger.charge(B_TO_A, BITS, len(dense) * n, "dense-transfer")

    kappa = math.ceil(1.1 * math.sqrt(instance.ell))
    unresolved = {j for j in range(n) if columns[j] and j not in dense}
    for _ in range(r3):
        sketch = SensingSketch(n, kappa, seed=rng.getrandbits(32))
        ledger.charge(A_TO_B, BITS, sketch.measurement_len * n, "sketch-transfer")
        for j in sorted(unresolved):
            decoded = sketch.decode(sketch.encode(BitVector(n, columns[j])))
            if decoded is not None:
                out_cols[j] = decoded.bits
                unresolved.discard(j)
    if unresolved:
        raise DecodeBudgetError(
            f"{len(unresolved)} columns undecoded after {r3} sketch rounds"
        )

    result = BitMatrix(n, n, [out_cols.get(j, 0) for j in range(n)]).transpose()
    if result.weight() > instance.ell:
        raise PromiseViolationError(
            f"recovered {result.weight()} ones, promise allows {instance.ell}"
        )
    return result
