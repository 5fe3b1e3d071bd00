"""Two-party protocols for output-sensitive Boolean and F2 matrix products.

`bmm_with_trace` runs the search-and-collect protocol: repeatedly find an
inner index whose column/row pair still collides on the complement of the
accumulated output, then harvest all of its collisions.  `mm_f2` sends one
batch of linear syndrome sketches, decodes every nonzero output column from
it, and ships each column that does not decode verbatim.  Both charge
every modeled message to the ledger.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cache, lru_cache, reduce
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

    No protocol raises it: ``mm_f2``'s sketch decodes every column of at
    most kappa ones, and ``mm_f2`` ships every column it does not decode
    dense.  It stays for callers that list the protocol errors.
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

    def total_ones(self) -> int:
        return sum(r.collisions for r in self.rounds)


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
                found = graph_collision_all(uncollected, f_a, f_b, ledger, rng)
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


@cache
def _field(m: int) -> tuple[list[int], list[int], np.ndarray]:
    """Exp and log tables of GF(2^m), alpha a root of the least primitive polynomial of degree m.

    With q = 2^m - 1, ``log[a]`` is the k < q with alpha^k = a, and ``log[0]`` is 2q.  ``exp[k]``
    is alpha^k for k < 2q and 0 from 2q to 4q, so ``exp[log[a] + log[b]]`` is the product a b
    for every a and b, 0 included; the third entry is ``exp`` as an array.  A polynomial is
    primitive when the powers of x first return to 1 after q steps.
    """
    q = (1 << m) - 1
    for poly in range(1 << m | 1, 2 << m, 2):
        powers, x = [1], 1
        for _ in range(q - 1):
            x <<= 1
            if x >> m:
                x ^= poly
            if x == 1:
                break
            powers.append(x)
        else:
            log = [2 * q] * (q + 1)
            for k, a in enumerate(powers):
                log[a] = k
            exp = powers + powers + [0] * (2 * q + 1)
            return exp, log, np.array(exp)


@lru_cache(maxsize=32)  # bounded, so a sweep over many sizes keeps only the recent sizes' words
def _tables(n: int, kappa: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """Each code position's sketch word, and for k <= kappa the exponents k (p + 1) mod q of position p.

    Word p packs S_j(e_p) = alpha^((p+1) j) for the odd j = 1, 3, ..., 4 kappa - 1, m bits each, S_1
    lowest; the words are an object array, so a sketch permutes them in one indexing step.
    """
    m = (n + 1).bit_length()
    q = (1 << m) - 1
    exp = _field(m)[0]
    words = np.empty(n, dtype=object)
    for p in range(n):
        word = 0
        for power in range((4 * kappa - 1) * (p + 1), 0, -2 * (p + 1)):
            word = word << m | exp[power % q]
        words[p] = word
    return words, list(np.arange(kappa + 1)[:, None] * np.arange(1, n + 1) % q)


class SensingSketch:
    """Linear sketch of a length-n F2 vector: 2 kappa odd power-sum syndromes over GF(2^m), coordinates shuffled.

    With m = ``(n + 1).bit_length()``, the least m with n < 2^m - 1, code position p stands for
    X_p = alpha^(p+1), a distinct element other than 0 and 1.  The syndrome of a vector z over the
    positions is S_j = sum of X_p^j over its ones, for the odd j = 1, 3, ..., 4 kappa - 1, so
    ``measurement_len = 2 kappa m``: z's syndrome in the binary BCH code of designed distance
    4 kappa + 1, as in PinSketch (Dodis, Ostrovsky, Reyzin and Smith 2004) and in set reconciliation
    (Minsky, Trachtenberg and Zippel 2003).  ``seed`` places the coordinates: ``random.Random(seed)``
    draws a 64-bit key per coordinate, and code position p holds the coordinate of the p-th smallest
    key, so the sketch of x is the syndrome of its image pi(x).  The sketch is linear over F2:
    ``encode`` XORs the words of x's ones, each the sketch of a unit vector.  The position words are
    built once per (n, kappa); a sketch only permutes them.

    ``decode(encode(x))`` is x when x has at most kappa ones and None when it has kappa + 1 to
    3 kappa, whatever the seed: decode returns only a vector of at most kappa ones with the input's
    sketch, and two vectors with one sketch differ in 4 kappa + 1 places or more.  Past 3 kappa ones
    it returns None or a wrong vector: one of at most kappa ones with x's sketch, which exists
    exactly when pi(x) lies within kappa ones of a nonzero codeword (a vector of sketch 0).  For a
    uniform pi, pi(x) is a uniform vector of x's weight w, so for every x the chance of a wrong
    vector is the share eps_w of weight-w vectors that lie so near a codeword, the code's
    decoder-error rate at weight w.  The keys are taken as uniform; two coincide with chance below
    n^2 / 2^65.  Only the V = sum of C(n, i) over i <= kappa vectors of at most kappa ones have a
    decodable sketch, so when the sketches of weight-w vectors spread about evenly over the
    2^(2 kappa m) words, eps_w is about V / 2^(2 kappa m) < 2 / (kappa! n^kappa) for n >= 3 kappa.
    That is an estimate, not a proof; exhaustively at n = 15 and 16 with kappa = 1, eps_w is at most
    1.6 times it at every weight.  The shuffle is what makes eps_w the law: without it a chosen x
    near a codeword decodes wrong every time.  Leaving X = 1 out keeps the all-ones vector out of the
    code (its S_1 is alpha (alpha^n - 1) / (alpha - 1), not 0); at n = 2^m - 1 it is a codeword,
    which no shuffle moves, and a column of n ones would decode to the zero vector.
    """

    def __init__(self, n: int, kappa: int, seed: int):
        if n < 1:
            raise ValueError("sketch needs a domain of at least 1")
        if kappa < 1:
            raise ValueError("sparsity bound must be positive")
        self.n = n
        self.kappa = kappa
        self.m = (n + 1).bit_length()
        self.measurement_len = 2 * kappa * self.m
        words, self._powers = _tables(n, kappa)
        keys = np.frombuffer(random.Random(seed).randbytes(8 * n), dtype="<u8")
        self._coordinate = np.argsort(keys, kind="stable")  # the coordinate at each code position
        placed = np.empty(n, dtype=object)
        placed[self._coordinate] = words
        self._words = placed.tolist()  # coordinate i's word

    def encode(self, x: BitVector) -> BitVector:
        if x.n != self.n:
            raise DimensionError(f"expected length {self.n}, got {x.n}")
        return BitVector(self.measurement_len, _fold(xor, self._words, x.bits))

    def decode(self, measurement: BitVector) -> BitVector | None:
        """The vector of at most kappa ones with this sketch, or None when there is none.

        Berlekamp-Massey over S_1 .. S_(2 kappa), the even ones squares (S_2j = S_j^2), finds
        their shortest linear recurrence, of length L.  When some y of at most kappa ones has
        this sketch, that recurrence is the locator Lambda(z) = prod (1 - X_p z) over the code
        positions of y's ones, since 2 kappa terms fix a recurrence of length kappa or less.  With
        S_2j = S_j^2 every even step's discrepancy is zero, so only odd steps compute one, and L
        never falls, so decoding stops once it passes kappa.  The candidate holds the coordinate
        at every position p whose X_p is a root of z^L Lambda(1/z), found by evaluating it at all
        n positions, and it is returned only when its sketch, all 2 kappa fields, equals the input.
        """
        if measurement.n != self.measurement_len:
            raise DimensionError("measurement length mismatch")
        bits, n, m, kappa = measurement.bits, self.n, self.m, self.kappa
        exp, log, exp_array = _field(m)
        q = (1 << m) - 1
        s = [0] * (2 * kappa + 1)
        for j in range(1, 2 * kappa, 2):
            s[j] = bits & q
            bits >>= m
        for j in range(1, kappa + 1):
            s[2 * j] = exp[2 * log[s[j]]]
        logs = [log[a] for a in s]
        # the locator c, its length L, the locator b before the last length change, its length,
        # the log of that step's discrepancy and how many steps back it was
        c, b = [1] + [0] * kappa, [1] + [0] * kappa
        L = L_b = log_b = 0
        shift = 1
        for r in range(1, 2 * kappa, 2):
            d = s[r]
            for a, e in zip(c[1 : L + 1], reversed(logs[r - L : r])):
                d ^= exp[log[a] + e]
            if not d:
                shift += 2
                continue
            grow = 2 * L < r
            if grow and r - L > kappa:
                return None
            scale = (log[d] - log_b) % q
            new = c[:] if grow else c
            for k in range(L_b + 1):
                new[k + shift] ^= exp[scale + log[b[k]]]
            if grow:
                L, L_b, b, log_b, shift = r - L, L, c, log[d], 2
            else:
                shift += 2
            c = new
        powers = self._powers
        values = exp_array.take(powers[L])  # c[0] is 1
        for k in range(1, L + 1):
            values ^= exp_array[log[c[k]] :].take(powers[L - k])
        ones = self._coordinate[values == 0].tolist()
        if reduce(xor, map(self._words.__getitem__, ones), 0) != measurement.bits:
            return None
        return BitVector.from_indices(n, ones)


# ---------------------------------------------------------------------------
# F2 matrix multiplication
# ---------------------------------------------------------------------------


def classify_columns(
    instance: JoinInstance, columns: list[int], ledger: CommLedger, rng: random.Random
) -> dict[int, int]:
    """Step 1 of :func:`mm_f2`: one sketch batch, and the nonzero product columns it decodes.

    ``columns[j]`` is column j of the product.  Alice sends a sketch of each
    column of A, ``measurement_len * n`` bits A->B, all placed by one seed of
    the shared ``rng`` (public coin), each sized for kappa = ceil(1.1 sqrt(ell))
    ones.  Bob folds them through column j of B; the sketch is linear, so
    that is the sketch of column j of AB, and the simulation encodes the
    column directly.  The result maps each nonzero column that decodes to
    its decoded bits.  A nonzero column missing from it goes dense.  By the
    sketch's distance law (:class:`SensingSketch`) every column of at most
    kappa ones decodes and every column of kappa + 1 to 3 kappa ones goes
    dense, whatever the seed.  A column of w > 3 kappa ones goes dense
    unless it decodes to a wrong vector, which for each column happens with
    chance eps_w over the seed.
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
    Alice.  The batch is ``measurement_len * n`` bits, 2 kappa fields of
    ``(n + 1).bit_length()`` bits per column of A, so O(n sqrt(ell) log n).  Every
    column of at most kappa ones decodes, and at most ell / kappa < sqrt(ell)
    columns hold more, so the reply stays within sqrt(ell) (n + log n) bits
    plus the count.  The sketch's seed is one 32-bit draw from ``rng``, and
    nothing else is drawn.  The result is wrong only when a column of w >
    3 kappa ones decodes to a wrong vector, with chance eps_w over the seed
    for each of the at most ell / (3 kappa) such columns (:class:`SensingSketch`).
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
