"""Two-party protocols for output-sensitive Boolean and F2 matrix products.

`bmm_with_trace` runs the search-and-collect protocol: repeatedly find an
inner index whose column/row pair still collides on the complement of the
accumulated output, then harvest all of its collisions.  `mm_f2` sends one
batch of linear parity sketches, decodes every nonzero output column from
it, and ships each column that does not decode verbatim.  Both charge
every modeled message to the ledger.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import compress
from operator import or_, xor

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
    integer_bits,
)
from joinlab.qsim import (
    BipartiteGraph,
    CostModel,
    GroverPlan,
    ProtocolError,
    graph_collision_all,
    instance_search,
)


class PromiseViolationError(ProtocolError):
    """More output ones were found than the promise bound allows."""


class DecodeBudgetError(ProtocolError):
    """Sparse-column recovery failed past its budget.

    No protocol raises it any more: ``mm_f2`` ships a column it cannot
    decode dense.  It stays for callers that list the protocol errors.
    """


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


def _inner_iterations(w: int) -> int:
    """Grover rounds of a nested collision search whose smaller side has weight w."""
    return max(1, math.ceil(math.sqrt(w)))


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
    m, n = A.rows, A.cols
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
    inner_budget = _inner_iterations(max(min_w, default=0))
    inner_cost = inner_budget * 2 * width

    def pay(amount: int, phase: str):
        ledger.charge(A_TO_B, QUBITS, amount, phase)
        ledger.charge(B_TO_A, QUBITS, amount, phase)

    if model.exact:
        # a round's passes, whose certificate misses with probability at most 1/(10^4 (ell + 2))
        plans = GroverPlan.certified(n, 1 / (10_000 * (instance.ell + 2)))
        # graph collision works at full width: each A column over [m], and the cells not yet collected,
        # from which graph_collision_all removes the cells it finds.  A searched cover can hold zero rows
        # of A and unused columns, so compact numbers, which move them, would change the draws
        uncollected = BipartiteGraph(m, m)
    out = [0] * len(rows)
    ones = 0
    trace = BmmTrace()
    while True:
        if model.exact:
            for plan in plans:
                k = instance_search(range(n), live, ledger, rng, inner_cost, plan)
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
                pay(math.ceil(math.sqrt(n)) * inner_budget * width, "final-search")
                break
            k = live[rng.randrange(t_cur)]
            p = position[k]
            cells = [(r, c) for r in a_cols[p] for c in _iter_bits(b_rows[p] & ~out[r])]
            inner = _inner_iterations(min_w[p])
            pay(math.ceil(math.sqrt(n / t_cur)) * inner * width, "search")
            pay(max(1, math.ceil(math.sqrt(len(cells) * min_w[p]))) * width, "collect")
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
    are found.  A round searches in the passes of
    ``GroverPlan.certified(n, 1/(10^4 (ell+2)))``: the default plan's growth
    caps, then a fixed-point certificate that misses a live witness with
    probability at most 1/(10^4 (ell+2)) whatever their count, and whose
    miss ends the run.  The union bound over at most ell+1 rounds keeps the
    chance of ending early below 1/10^4, inside the protocol's 1/100 budget.
    Each inner call is boosted ceil(log2(100 r)) times, r the coherent run
    it is part of: the growth pass's largest cap for its rounds, r = 1 for
    the verification of one of its measurements, and the certificate's l
    rounds, run in one go, for its rounds and its verification, which are
    charged under ``certify`` and ``certify-verify``.  A
    round collects its witness's cells with
    :func:`joinlab.qsim.graph_collision_all`, which can stop early.  That
    costs a round, not an output: the witness stays live until the output
    holds every cell it covers, so a later round finds it again, and the
    collision's own failure target takes no part in the union bound.  A
    cost-model ``model`` runs the replay of :func:`bmm_cost_model` instead.
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

        ceil(sqrt(n / t_cur)) * ceil(sqrt(w_k)) * ceil(log2 m)

    for the search and ``ceil(sqrt(lambda * w_k)) * ceil(log2 m)`` for the
    collect step, where w_k = min(|A[.,k]|, |B[k,.]|) and lambda is the
    number of fresh ones the round contributes.  A final failed search at the
    worst-case inner budget closes the run, charging
    ``ceil(sqrt(n)) * ceil(sqrt(w_max)) * ceil(log2 m)`` with w_max the
    largest w_k; the middle factor is 1 when no inner index is active.  An
    exact ``model`` runs the simulated protocol of :func:`bmm_with_trace`
    instead.
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
    instance = JoinInstance(A, B, ell, seed, "bool")
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

    Each of ``levels = 5`` levels hashes coordinates into
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

    The sizes are set for vectors of at most kappa ones.  As long as no
    false candidate is peeled, peeling stops early only on a stopping set
    (Goodrich and Mitzenmacher, Invertible Bloom Lookup Tables, 2011): a
    set S of s >= 2 of the vector's w ones such that at every level no
    bucket holds exactly one member of S.  Under independent uniform
    buckets, a vector of w <= kappa ones fails to decode with probability
    at most ``sum(C(w, s) * p_s(2 kappa) ** levels for s in 2..w)``, where
    p_s(B) is the chance that s balls in B bins leave no bin with exactly
    one.  The sum grows with w.  ``levels = 5`` keeps it at w = kappa
    within 1/(100 kappa^2) for every kappa, and no fewer levels do for any
    kappa >= 2:

    * p_2(B) = 1/B, so the s = 2 term is (kappa - 1)/(64 kappa^4), at most
      1.57/kappa of the target; with 4 levels it is (kappa - 1)/(32 kappa^3),
      over the target for every kappa >= 2.  At kappa = 1 the sum is empty.
    * For kappa <= 40 the tests sum the bound exactly; its largest ratio to
      the target is 0.39, at kappa = 2.
    * For kappa > 40: the s = 3 term is C(kappa, 3) (2 kappa)^-10.  For
      s >= 4, s balls with no bin to themselves fill at most s/2 bins, so
      p_s(2 kappa) <= (e s / (4 kappa))^(s/2), and with
      C(kappa, s) <= (e kappa/s)^s e^(-s^2 / (2 kappa)) the term is at most
      r^s, r = 1.035 (s/kappa)^1.5 e^(-s/(2 kappa)).  From s = 4 these
      bounds at least halve per step while (s + 1)/kappa <= 1/5, so they sum
      to at most twice the s = 4 one, below 9400 kappa^-6; past that, s log r
      being convex in s, each is below e^(2.5 - 0.465 kappa).  The sum is
      then at most (kappa - 1)/(64 kappa^4) + C(kappa, 3) (2 kappa)^-10
      + 9400 kappa^-6 + kappa e^(2.5 - 0.465 kappa), 0.82 of the target at
      kappa = 41 and a falling share of it beyond.

    The target is per vector so that it covers a batch: one
    :func:`classify_columns` batch holds at most ell < kappa^2 nonzero
    columns, so by the union bound its columns of at most kappa ones all
    decode with probability at least 99/100.  A bucket holding three
    or more coordinates can name a fourth coordinate hashed to it, and
    confirmation at a second level keeps those out.  Past the sparsity,
    decode returns None; it returns a wrong vector only when that vector's
    measurement equals the input's.

    Construction only fixes the sizes.  The per-level parameters are drawn
    on first use, and a coordinate is placed (its word and its field at each
    level) the first time it is read, so a sketch that only reports
    ``measurement_len``, or only sees zero vectors and zero measurements,
    draws nothing, and encoding x places only x's ones.
    """

    def __init__(self, n: int, kappa: int, seed: int):
        if n < 1:
            raise ValueError("sketch needs a domain of at least 1")
        if kappa < 1:
            raise ValueError("sparsity bound must be positive")
        self.n = n
        self.kappa = kappa
        self.seed = seed
        self.levels = 5
        self.buckets = 2 * kappa
        self.code_bits = max(1, (n - 1).bit_length())
        self.measurement_len = self.levels * self.buckets * (1 + self.code_bits)
        self._shift = (self.code_bits + 1) // 2
        self._placed: dict[int, tuple[int, list[int]]] = {}

    @cached_property
    def _params(self) -> list[tuple[int, int, int, int, int, int, int]]:
        """Per level: (a, b, c1, c2, d, c2^-1, c1^-1), the inverses modulo 2**code_bits."""
        rng = random.Random(self.seed)
        n, bits = self.n, self.code_bits
        space = 1 << bits
        params = []
        for _ in range(self.levels):
            a, b = rng.getrandbits(64), rng.getrandbits(64)
            c1, c2 = rng.getrandbits(bits) | 1, rng.getrandbits(bits) | 1
            if space > n:
                x = c1 * rng.randrange(n, space) % space
                d = -c2 * (x ^ x >> self._shift) % space
            else:
                d = rng.getrandbits(bits)
            params.append((a, b, c1, c2, d, pow(c2, -1, space), pow(c1, -1, space)))
        return params

    def _coordinate(self, level: int, code: int) -> int | None:
        """The coordinate with this code at this level, or None when no coordinate below n has it."""
        _, _, _, _, d, c2_inv, c1_inv = self._params[level]
        mask = (1 << self.code_bits) - 1
        x = (code - d) * c2_inv & mask
        i = (x ^ x >> self._shift) * c1_inv & mask
        return i if i < self.n else None

    def _place(self, i: int) -> tuple[int, list[int]]:
        """Coordinate i's measurement word and the bit position of its field at each level, computed once."""
        placed = self._placed.get(i)
        if placed is None:
            mask, width = (1 << self.code_bits) - 1, 1 + self.code_bits
            word, offsets = 0, []
            for level, (a, b, c1, c2, d, _, _) in enumerate(self._params):
                x = c1 * i & mask
                code = c2 * (x ^ x >> self._shift) + d & mask
                bucket = ((a * i + b) % 2**64 >> 32) * self.buckets >> 32
                offset = (level * self.buckets + bucket) * width
                word |= (1 | code << 1) << offset
                offsets.append(offset)
            placed = self._placed[i] = word, offsets
        return placed

    def __getitem__(self, i: int) -> int:
        """Coordinate i's measurement word."""
        return self._place(i)[0]

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
        coordinate, place, levels = self._coordinate, self._place, range(self.levels)
        width = 1 + self.code_bits
        mask, span = (1 << width) - 1, self.buckets * width
        recovered = 0
        for _ in range(8 * self.kappa + 8):
            if not residual:
                return BitVector(self.n, recovered)
            chosen = fallback = None
            for level in levels:
                for at in range(level * span, (level + 1) * span, width):
                    field = residual >> at & mask
                    i = coordinate(level, field >> 1) if field & 1 else None
                    if i is None:
                        continue
                    word, offsets = place(i)
                    if offsets[level] != at:
                        continue
                    if any(
                        not (residual ^ word) >> offsets[other] & mask for other in levels if other != level
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
            residual ^= place(chosen)[0]
            recovered ^= 1 << chosen
        return None


# ---------------------------------------------------------------------------
# F2 matrix multiplication
# ---------------------------------------------------------------------------


def classify_columns(
    instance: JoinInstance, columns: list[int], ledger: CommLedger, rng: random.Random
) -> dict[int, int]:
    """Step 1 of :func:`mm_f2`: one sketch batch, and the nonzero product columns it decodes.

    ``columns[j]`` is column j of the product.  Alice sends a sketch of each
    column of A, ``measurement_len * n`` bits A->B, all from one seed of the
    shared ``rng`` (public coin), each sized for kappa = ceil(1.1 sqrt(ell))
    ones.  Bob folds them through column j of B; the sketch is linear, so
    that is the sketch of column j of AB, and the simulation encodes the
    column directly.  The result maps each nonzero column that decodes to
    its decoded bits.  A nonzero column missing from it goes dense: decode
    returned None, which it does past the sketch's sparsity in place of a
    wrong vector.  The batch holds at most ell < kappa^2 nonzero columns,
    so its columns of at most kappa ones all decode with probability at
    least 99/100 (the union bound in :class:`SensingSketch`).
    """
    n = instance.A.rows
    sketch = SensingSketch(n, math.ceil(1.1 * math.sqrt(instance.ell)), seed=rng.getrandbits(32))
    ledger.charge(A_TO_B, BITS, sketch.measurement_len * n, "sketch-transfer")
    decoded = {}
    for j, column in enumerate(columns):
        if column:
            got = sketch.decode(sketch.encode(BitVector(n, column)))
            if got is not None:
                decoded[j] = got.bits
    return decoded


def mm_f2(instance: JoinInstance, ledger: CommLedger, rng: random.Random) -> BitMatrix:
    """Full F2 product under the sparse-output promise, in O(n sqrt(ell) log n) bits.

    Step 1 (:func:`classify_columns`) sends one sketch batch, and Bob
    decodes every nonzero column of the product from it.  Step 2: Bob
    replies, B->A, with the count of the columns that did not decode and,
    for each, its index and column j of B, so Alice computes that column
    exactly.  The reply is one ``dense-transfer`` charge: ``integer_bits(n)``
    bits for the count, sent even when it is 0, plus ``index_qubits(n) + n``
    bits per such column.  Sparse columns end at Bob and dense ones at
    Alice.  The batch is ``measurement_len * n`` bits, 5 levels of 2 kappa
    fields of 1 + ceil(log2 n) bits per column of A, so O(n sqrt(ell) log n).
    At most ell / kappa < sqrt(ell) columns hold more than kappa ones, so
    the reply stays within n sqrt(ell) bits plus what decoding misses below
    kappa.  A second batch would cost ``measurement_len * n`` bits to save
    at most n + log n bits per column the first one missed.  Under the
    batch bound in :class:`SensingSketch` the first batch misses fewer than
    1/100 columns of at most kappa ones in expectation, so a second one
    would save under (n + log n) / 100 bits in expectation, far less than
    it costs, and one batch is sent.
    Both steps read ``oracle_product``, the F2 product of an F2 instance.
    """
    A = instance.A
    if instance.kind != "f2":
        raise ValueError("mm_f2 expects an instance with an F2 promise")
    # JoinInstance already holds A as m x n against B as n x m
    if A.rows != A.cols:
        raise DimensionError("mm_f2 handles square n x n operands")
    n = A.rows
    columns = instance.oracle_product.transpose().data
    decoded = classify_columns(instance, columns, ledger, rng)
    dense = sum(1 for j, column in enumerate(columns) if column and j not in decoded)
    ledger.charge(B_TO_A, BITS, integer_bits(n) + dense * (index_qubits(n) + n), "dense-transfer")

    result = BitMatrix(n, n, [decoded.get(j, column) for j, column in enumerate(columns)]).transpose()
    if result.weight() > instance.ell:
        raise PromiseViolationError(
            f"recovered {result.weight()} ones, promise allows {instance.ell}"
        )
    return result
