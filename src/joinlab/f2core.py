"""Bit-packed vectors and matrices over F2 with Boolean and field products.

A :class:`BitMatrix` doubles as a Boolean 0/1 matrix: :func:`bool_product`
folds shared witnesses with OR, :func:`f2_product` with XOR.  Promise
instances for the join protocols are planted here, together with the
plain-loop oracles that the tests compare against.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import compress
from operator import or_, xor

import numpy as np


class DimensionError(ValueError):
    """Operand shapes do not conform."""


class InstanceError(ValueError):
    """Promise-instance parameters are infeasible or sampling failed."""


# Set-bit iteration picks its method from the word's width L and weight k.
# The int loop pays for a copy of the whole word per set bit, roughly
# k * (L + 4096) units; the numpy scan pays per byte plus a fixed call
# overhead, roughly 1.75 * L + 2**18 units.  Words over _SCAN_LIMB_BYTES
# skip their zero 64-bit limbs first, which pays from about 2**15 bits on
# when the word is sparse.  Fewest ones at which the loop is slower
# (Python 3.11, numpy 2.4, 2-core VM, random words; none at 64 bits), and
# where this rule starts to scan:
#   width     128  256  512  1024  4096  8192  2**14  2**15  2**16  2**17  2**18  2**19  2**20-2**22
#   measured   64   72   72    56    28    14     14     10      7      5      5      4            2
#   rule       63   61   58    52    33    23     15      9      6      4      3      3            2
_SCAN_WIDTH_PAD = 4096
_SCAN_FIXED = 1 << 18
_SCAN_LIMB_BYTES = 4096

# BitVector.from_indices scatters this many indices or more with numpy, and sets fewer in a
# plain loop: numpy's fixed cost is about 8 us a call, and from n = 64 to 2**18 bits the loop
# was faster or level up to about 128 indices and slower from 192 on (BENCH_27.json).
_NUMPY_INDICES = 128


def _scan_bits(word: int) -> list[int]:
    """Set-bit positions of a nonnegative int through numpy passes over its bytes.

    A word wider than ``_SCAN_LIMB_BYTES`` first drops its zero 64-bit limbs,
    so a sparse wide word looks at the bytes of its nonzero limbs only.
    """
    nbytes = (word.bit_length() + 63) // 64 * 8
    buf = np.frombuffer(word.to_bytes(nbytes, "little"), dtype=np.uint8)
    if nbytes > _SCAN_LIMB_BYTES:
        limbs = buf.view("<u8")
        hot = np.flatnonzero(limbs)
        nonzero = np.flatnonzero(limbs[hot].view(np.uint8))
        at = hot[nonzero >> 3] * 8 + (nonzero & 7)
    else:
        at = np.flatnonzero(buf)
    rows, offs = np.nonzero(np.unpackbits(buf[at, None], axis=1, bitorder="little"))
    return (at[rows] * 8 + offs).tolist()


def _bernoulli(count: int, n: int, density: float, rng: random.Random) -> np.ndarray:
    """A count x n boolean array of ``rng.random() < density``, drawn row by row in one call.

    ``random()`` is ``((a >> 5) * 2**26 + (b >> 6)) / 2**53`` for the next two
    32-bit outputs a, b, and ``getrandbits(64 * k)`` holds the next 2k outputs
    as its 32-bit limbs, lowest first: same bits, same generator state after.
    """
    words = np.frombuffer(rng.getrandbits(64 * count * n).to_bytes(8 * count * n, "little"), dtype="<u4")
    u = ((words[0::2] >> 5) * 67108864.0 + (words[1::2] >> 6)) * (1.0 / 9007199254740992.0)
    return (u < density).reshape(count, n)


def _sample(n: int, k: int, rng: random.Random) -> list[int]:
    """``rng.sample(range(n), k)``: the same list, and the same generator state after.

    Above its pool size ``sample`` draws each pick as the top ``n.bit_length()``
    bits of the next 32-bit output, redrawn while it is at least n or already
    picked, so the picks are the first k distinct outputs below n.  Every
    pick still owed takes at least one output, so drawing that many in one
    ``getrandbits`` call never draws past where ``sample`` stops.  Meant for
    large k: at a handful of picks the numpy round trip costs more than
    ``sample`` itself.
    """
    setsize = 21  # random.Random.sample's own rule for switching from a pool list to a set
    if k > 5:
        setsize += 4 ** math.ceil(math.log(k * 3, 4))
    if not 0 <= k <= n or n <= setsize or n >> 32:
        return rng.sample(range(n), k)
    shift = 32 - n.bit_length()
    picked = {}
    while len(picked) < k:
        owed = k - len(picked)
        words = np.frombuffer(rng.getrandbits(32 * owed).to_bytes(4 * owed, "little"), dtype="<u4") >> shift
        picked.update(dict.fromkeys(words[words < n].tolist()))
    return list(picked)


def _iter_bits(word: int):
    """Yield the positions of set bits in ascending order, as Python ints."""
    width = word.bit_length()
    if word.bit_count() * (width + _SCAN_WIDTH_PAD) > 7 * width // 4 + _SCAN_FIXED:
        yield from _scan_bits(word)
        return
    while word:
        low = word & -word
        yield low.bit_length() - 1
        word ^= low


def _fold(op, rows, word: int, start: int = 0) -> int:
    """``start`` combined by ``op`` with ``rows[k]`` for each set bit k of ``word``, k ascending.

    The one row combination behind both products and the protocols: OR for
    the Boolean product, XOR over F2, AND from the full mask for a graph
    cover.  A zero word returns ``start`` without starting the iterator.
    """
    if not word:
        return start
    for k in _iter_bits(word):
        start = op(start, rows[k])
    return start


class BitVector:
    """Fixed-length bit vector packed into a single int (bit ``i`` = entry ``i``)."""

    __slots__ = ("n", "bits")

    def __init__(self, n: int, bits: int = 0):
        if n < 0:
            raise ValueError("length must be nonnegative")
        if bits < 0 or bits >> n:
            raise ValueError("bits fall outside the declared length")
        self.n = n
        self.bits = bits

    @classmethod
    def from_indices(cls, n: int, indices) -> "BitVector":
        indices = list(indices)
        if len(indices) >= _NUMPY_INDICES:
            idx = np.asarray(indices)
            if idx.ndim == 1 and idx.dtype.kind in "iu":
                bad = (idx < 0) | (idx >= n)
                if bad.any():
                    raise ValueError(f"index {idx[bad.argmax()]} outside [0, {n})")
                buf = np.zeros((n + 7) // 8, dtype=np.uint8)
                np.bitwise_or.at(buf, idx >> 3, (1 << (idx & 7)).astype(np.uint8))
                return cls(n, int.from_bytes(buf.tobytes(), "little"))
        # few indices, a non-int (TypeError) or an int past 64 bits: a plain loop over the originals
        buf = bytearray((n + 7) // 8)
        for i in indices:
            if not 0 <= i < n:
                raise ValueError(f"index {i} outside [0, {n})")
            buf[i >> 3] |= 1 << (i & 7)
        return cls(n, int.from_bytes(buf, "little"))

    @classmethod
    def random(cls, n: int, density: float, rng: random.Random) -> "BitVector":
        return cls(n, BitMatrix.random(1, n, density, rng).data[0])

    @classmethod
    def random_weight(cls, n: int, w: int, rng: random.Random) -> "BitVector":
        return cls.from_indices(n, rng.sample(range(n), w))

    def weight(self) -> int:
        return self.bits.bit_count()

    def indices(self) -> list[int]:
        return list(_iter_bits(self.bits))

    def is_zero(self) -> bool:
        return self.bits == 0

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise IndexError(i)
        return (self.bits >> i) & 1

    def _check_len(self, other: "BitVector"):
        if self.n != other.n:
            raise DimensionError(f"length mismatch: {self.n} vs {other.n}")

    def __and__(self, other: "BitVector") -> "BitVector":
        self._check_len(other)
        return BitVector(self.n, self.bits & other.bits)

    def __xor__(self, other: "BitVector") -> "BitVector":
        self._check_len(other)
        return BitVector(self.n, self.bits ^ other.bits)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BitVector)
            and self.n == other.n
            and self.bits == other.bits
        )

    def __hash__(self) -> int:
        return hash((self.n, self.bits))

    def __repr__(self) -> str:
        if self.n <= 64:
            cells = "".join("1" if (self.bits >> i) & 1 else "0" for i in range(self.n))
            return f"BitVector({cells!r})"
        return f"BitVector(n={self.n}, weight={self.weight()})"


# Transpose scatters set bits while at most one cell in 80 is set, and
# unpacks through a dense numpy array above that.  Measured crossover
# density (Python 3.11, numpy 2.4, 2-core VM): 1/66 at 256x256, 1/80 at
# 1024x1024 and 4096x4096, 1/45 at 64x4096, 1/120 at 4096x64.  At
# density 0.5 the dense path is about 15x faster (0.66 vs 9.9 ms at
# 256x256, 7.9 vs 118 ms at 1024x1024).
_SCATTER_CELLS_PER_ONE = 80


class BitMatrix:
    """Row-major packed bit matrix; rows are ints with bit ``j`` = column ``j``."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data):
        if rows < 0 or cols < 0:
            raise ValueError("shape must be nonnegative")
        data = tuple(data)
        if len(data) != rows:
            raise ValueError("row count does not match data")
        for r in filter(None, data):
            if r < 0 or r >> cols:
                raise ValueError("row bits fall outside the declared width")
        self.rows = rows
        self.cols = cols
        self.data = data

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        return cls(n, n, [1 << i for i in range(n)])

    @classmethod
    def random(cls, rows: int, cols: int, density: float, rng: random.Random) -> "BitMatrix":
        return cls.from_numpy(_bernoulli(rows, cols, density, rng))

    def weight(self) -> int:
        return sum(map(int.bit_count, filter(None, self.data)))

    def to_numpy(self) -> np.ndarray:
        nbytes = (self.cols + 7) // 8 if self.cols else 1
        buf = b"".join(r.to_bytes(nbytes, "little") for r in self.data)
        arr = np.frombuffer(buf, dtype=np.uint8).reshape(self.rows, nbytes)
        return np.unpackbits(arr, axis=1, bitorder="little")[:, : self.cols]

    @classmethod
    def from_numpy(cls, arr) -> "BitMatrix":
        arr = (np.asarray(arr) != 0).astype(np.uint8)
        if arr.ndim != 2:
            raise ValueError("expected a 2-d array")
        packed = np.packbits(arr, axis=1, bitorder="little")
        rows = [int.from_bytes(packed[i].tobytes(), "little") for i in range(arr.shape[0])]
        return cls(arr.shape[0], arr.shape[1], rows)

    def transpose(self) -> "BitMatrix":
        if self.weight() * _SCATTER_CELLS_PER_ONE > self.rows * self.cols:
            return BitMatrix.from_numpy(self.to_numpy().T)
        out = [0] * self.cols
        for i, r in enumerate(self.data):
            if r:
                bit = 1 << i
                for j in _iter_bits(r):
                    out[j] |= bit
        return BitMatrix(self.cols, self.rows, out)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BitMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.data))

    def __repr__(self) -> str:
        return f"BitMatrix({self.rows}x{self.cols}, weight={self.weight()})"


def _product(op, a: BitMatrix, b: BitMatrix) -> BitMatrix:
    """Rows of ``b`` chosen by each nonzero row of ``a``, combined by ``op``; zero rows stay 0."""
    if a.cols != b.rows:
        raise DimensionError(f"inner dimensions disagree: {a.rows}x{a.cols} times {b.rows}x{b.cols}")
    out = [0] * a.rows
    for i in compress(range(a.rows), a.data):
        out[i] = _fold(op, b.data, a.data[i])
    return BitMatrix(a.rows, b.cols, out)


def bool_product(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    """Boolean semiring product: OR-accumulate rows of ``b`` chosen by rows of ``a``."""
    return _product(or_, a, b)


def f2_product(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    """Product over F2: XOR-accumulate rows of ``b`` chosen by rows of ``a``."""
    return _product(xor, a, b)


@dataclass(frozen=True)
class JoinInstance:
    """A promise instance (A, B, ell) with its brute-force product cached.

    ``kind`` selects the semiring the promise refers to: "bool" bounds
    ``weight(A * B)`` (Boolean product), "f2" bounds ``weight(AB)`` over F2.
    """

    A: BitMatrix
    B: BitMatrix
    ell: int
    seed: int
    kind: str = "bool"
    oracle_product: BitMatrix = None

    def __post_init__(self):
        if self.kind not in ("bool", "f2"):
            raise ValueError(f"unknown instance kind {self.kind!r}")
        if self.A.cols != self.B.rows or self.B.cols != self.A.rows:
            raise DimensionError("expected A of shape m x n against B of shape n x m")
        if self.ell < 1:
            raise InstanceError(f"ell must be at least 1, got {self.ell}")

    @classmethod
    def build(cls, A: BitMatrix, B: BitMatrix, ell: int, seed: int = 0, kind: str = "bool") -> "JoinInstance":
        product = bool_product(A, B) if kind == "bool" else f2_product(A, B)
        return cls(A, B, ell, seed, kind, product)


_MAX_PLANT_ATTEMPTS = 100


def _entry_density(q: float, n: int, kind: str) -> float:
    """Per-entry fill probability so a planted product entry is one with probability ~q."""
    if kind == "bool":
        q = min(q, 0.95)
        return math.sqrt(1.0 - (1.0 - q) ** (1.0 / n))
    # Over F2 an entry is the parity of the per-witness matches, which caps
    # just below 1/2 for independent fills; clamp and let retries absorb it.
    q = min(q, 0.495)
    return math.sqrt((1.0 - (1.0 - 2.0 * q) ** (1.0 / n)) / 2.0)


def gen_promise_instance(m: int, n: int, ell: int, seed: int, kind: str = "bool") -> JoinInstance:
    """Plant an instance with ``weight(product)`` in [ell/2, ell] when feasible.

    Chooses ~sqrt(ell) active rows of A and columns of B, fills them with a
    tuned density, and rejection-samples the product weight into the target
    band.  Deterministic in ``seed``; raises InstanceError after 100 retries.
    """
    if m < 1 or n < 1:
        raise InstanceError("matrix dimensions must be positive")
    if not 1 <= ell <= m * m:
        raise InstanceError(f"ell={ell} outside [1, m^2={m * m}]")
    rng = random.Random(seed)
    k = max(1, math.isqrt(ell - 1) + 1)  # ceil(sqrt(ell)) <= m since ell <= m^2
    active_rows = sorted(rng.sample(range(m), k))
    active_cols = sorted(rng.sample(range(m), k))
    lo = (ell + 1) // 2
    target = max(lo, min(ell, round(0.75 * ell)))
    q = target / (k * k)
    for _ in range(_MAX_PLANT_ATTEMPTS):
        p = _entry_density(q, n, kind)
        # one draw in the per-bit order: A's active rows, then B row by row over its active columns
        fill = _bernoulli(2 * k, n, p, rng)
        a_data, b_data = [0] * m, [0] * n
        for r, j in np.argwhere(fill[:k]).tolist():
            a_data[active_rows[r]] |= 1 << j
        for i, t in np.argwhere(fill[k:].reshape(n, k)).tolist():
            b_data[i] |= 1 << active_cols[t]
        instance = JoinInstance.build(BitMatrix(m, n, a_data), BitMatrix(n, m, b_data), ell, seed, kind)
        got = instance.oracle_product.weight()
        if lo <= got <= ell:
            return instance
        # steer the fill density toward the band before retrying
        if got < lo:
            q = min(q * 1.2 + 1e-3, 0.95 if kind == "bool" else 0.495)
        else:
            q = max(q / 1.2, 1e-4)
    raise InstanceError(
        f"could not plant weight in [{lo}, {ell}] after {_MAX_PLANT_ATTEMPTS} attempts"
    )
