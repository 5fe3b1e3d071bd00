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

import numpy as np

__all__ = [
    "BitVector",
    "BitMatrix",
    "JoinInstance",
    "DimensionError",
    "InstanceError",
    "bool_product",
    "f2_product",
    "gen_promise_instance",
    "validate_promise",
]


class DimensionError(ValueError):
    """Operand shapes do not conform."""


class InstanceError(ValueError):
    """Promise-instance parameters are infeasible or sampling failed."""


# Set-bit iteration picks its method from the word's width L and weight k.
# The int loop pays for a copy of the whole word per set bit, roughly
# k * (L + 4096) units; the numpy scan pays once per byte plus a fixed
# call overhead, roughly 6 * L + 2**18 units.  Measured crossover (Python
# 3.11, numpy 2.4, 2-core VM, loop vs scan on random words): about 60
# ones up to 1024 bits, 24 at 8192, 14 at 16384, 8 at 65536, 6 at 2**18
# to 2**20; this rule cuts at 52, 25, 18, 9 and 6.
_SCAN_WIDTH_PAD = 4096
_SCAN_FIXED = 1 << 18


def _scan_bits(word: int) -> list[int]:
    """Set-bit positions of a nonnegative int through one numpy pass over its bytes."""
    buf = np.frombuffer(word.to_bytes((word.bit_length() + 7) // 8, "little"), dtype=np.uint8)
    nonzero = np.flatnonzero(buf)
    rows, offs = np.nonzero(np.unpackbits(buf[nonzero, None], axis=1, bitorder="little"))
    return (nonzero[rows] * 8 + offs).tolist()


def _iter_bits(word: int):
    """Yield the positions of set bits in ascending order, as Python ints."""
    width = word.bit_length()
    if word.bit_count() * (width + _SCAN_WIDTH_PAD) > 6 * width + _SCAN_FIXED:
        yield from _scan_bits(word)
        return
    while word:
        low = word & -word
        yield low.bit_length() - 1
        word ^= low


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
    def from_bits(cls, values) -> "BitVector":
        values = list(values)
        acc = 0
        for i, v in enumerate(values):
            if v not in (0, 1, True, False):
                raise ValueError("entries must be 0 or 1")
            if v:
                acc |= 1 << i
        return cls(len(values), acc)

    @classmethod
    def from_string(cls, text: str) -> "BitVector":
        return cls.from_bits(int(c) for c in text.strip())

    @classmethod
    def from_indices(cls, n: int, indices) -> "BitVector":
        # set bits in a byte buffer: `acc |= 1 << i` would copy a growing int per index
        buf = bytearray((n + 7) // 8)
        for i in indices:
            if not 0 <= i < n:
                raise ValueError(f"index {i} outside [0, {n})")
            buf[i >> 3] |= 1 << (i & 7)
        return cls(n, int.from_bytes(buf, "little"))

    @classmethod
    def random(cls, n: int, density: float, rng: random.Random) -> "BitVector":
        acc = 0
        for i in range(n):
            if rng.random() < density:
                acc |= 1 << i
        return cls(n, acc)

    @classmethod
    def random_weight(cls, n: int, w: int, rng: random.Random) -> "BitVector":
        return cls.from_indices(n, rng.sample(range(n), w))

    def weight(self) -> int:
        return self.bits.bit_count()

    def indices(self) -> list[int]:
        return list(_iter_bits(self.bits))

    def is_zero(self) -> bool:
        return self.bits == 0

    def with_bit(self, i: int, value: int) -> "BitVector":
        if not 0 <= i < self.n:
            raise ValueError(f"index {i} outside [0, {self.n})")
        if value:
            return BitVector(self.n, self.bits | (1 << i))
        return BitVector(self.n, self.bits & ~(1 << i))

    def to01(self) -> str:
        return "".join("1" if (self.bits >> i) & 1 else "0" for i in range(self.n))

    def __len__(self) -> int:
        return self.n

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

    def __or__(self, other: "BitVector") -> "BitVector":
        self._check_len(other)
        return BitVector(self.n, self.bits | other.bits)

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
            return f"BitVector({self.to01()!r})"
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
        for r in data:
            if r < 0 or r >> cols:
                raise ValueError("row bits fall outside the declared width")
        self.rows = rows
        self.cols = cols
        self.data = data

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "BitMatrix":
        return cls(rows, cols, [0] * rows)

    @classmethod
    def ones(cls, rows: int, cols: int) -> "BitMatrix":
        full = (1 << cols) - 1
        return cls(rows, cols, [full] * rows)

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        return cls(n, n, [1 << i for i in range(n)])

    @classmethod
    def from_rows(cls, rows) -> "BitMatrix":
        vecs = [r if isinstance(r, BitVector) else BitVector.from_bits(r) for r in rows]
        if not vecs:
            raise ValueError("need at least one row")
        cols = vecs[0].n
        if any(v.n != cols for v in vecs):
            raise DimensionError("rows have unequal lengths")
        return cls(len(vecs), cols, [v.bits for v in vecs])

    @classmethod
    def random(cls, rows: int, cols: int, density: float, rng: random.Random) -> "BitMatrix":
        return cls(rows, cols, [BitVector.random(cols, density, rng).bits for _ in range(rows)])

    def get(self, i: int, j: int) -> int:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError((i, j))
        return (self.data[i] >> j) & 1

    def row(self, i: int) -> BitVector:
        return BitVector(self.cols, self.data[i])

    def col(self, j: int) -> BitVector:
        if not 0 <= j < self.cols:
            raise IndexError(j)
        acc = 0
        for i, r in enumerate(self.data):
            acc |= ((r >> j) & 1) << i
        return BitVector(self.rows, acc)

    def weight(self) -> int:
        return sum(r.bit_count() for r in self.data)

    def is_zero(self) -> bool:
        return all(r == 0 for r in self.data)

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

    def with_ones(self, cells) -> "BitMatrix":
        """New matrix with the given (i, j) cells additionally set."""
        data = list(self.data)
        for i, j in cells:
            if not (0 <= i < self.rows and 0 <= j < self.cols):
                raise IndexError((i, j))
            data[i] |= 1 << j
        return BitMatrix(self.rows, self.cols, data)

    def to_text(self) -> str:
        head = f"{self.rows} {self.cols}"
        body = "\n".join(self.row(i).to01() for i in range(self.rows))
        return head + ("\n" + body if body else "") + "\n"

    @classmethod
    def from_text(cls, text: str) -> "BitMatrix":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ValueError("empty matrix text")
        rows, cols = (int(tok) for tok in lines[0].split())
        if len(lines) - 1 != rows:
            raise ValueError("row count does not match header")
        vecs = []
        for ln in lines[1:]:
            if len(ln.strip()) != cols:
                raise ValueError("row width does not match header")
            vecs.append(BitVector.from_string(ln).bits)
        return cls(rows, cols, vecs)

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


def _check_product_shapes(a: BitMatrix, b: BitMatrix):
    if a.cols != b.rows:
        raise DimensionError(f"inner dimensions disagree: {a.rows}x{a.cols} times {b.rows}x{b.cols}")


def bool_product(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    """Boolean semiring product: OR-accumulate rows of ``b`` chosen by rows of ``a``."""
    _check_product_shapes(a, b)
    out = []
    for r in a.data:
        acc = 0
        for k in _iter_bits(r):
            acc |= b.data[k]
        out.append(acc)
    return BitMatrix(a.rows, b.cols, out)


def f2_product(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    """Product over F2: XOR-accumulate rows of ``b`` chosen by rows of ``a``."""
    _check_product_shapes(a, b)
    out = []
    for r in a.data:
        acc = 0
        for k in _iter_bits(r):
            acc ^= b.data[k]
        out.append(acc)
    return BitMatrix(a.rows, b.cols, out)


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

    @classmethod
    def build(cls, A: BitMatrix, B: BitMatrix, ell: int, seed: int = 0, kind: str = "bool") -> "JoinInstance":
        product = bool_product(A, B) if kind == "bool" else f2_product(A, B)
        return cls(A, B, ell, seed, kind, product)


def validate_promise(instance: JoinInstance) -> bool:
    """Recompute the product with the matching oracle and check the promise bound."""
    product = (
        bool_product(instance.A, instance.B)
        if instance.kind == "bool"
        else f2_product(instance.A, instance.B)
    )
    return product == instance.oracle_product and product.weight() <= instance.ell


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
        a_data = [0] * m
        for i in active_rows:
            a_data[i] = BitVector.random(n, p, rng).bits
        b_data = [0] * n
        col_mask_bits = [1 << j for j in active_cols]
        for i in range(n):
            acc = 0
            for mask in col_mask_bits:
                if rng.random() < p:
                    acc |= mask
            b_data[i] = acc
        A = BitMatrix(m, n, a_data)
        B = BitMatrix(n, m, b_data)
        product = bool_product(A, B) if kind == "bool" else f2_product(A, B)
        got = product.weight()
        if lo <= got <= ell:
            return JoinInstance(A, B, ell, seed, kind, product)
        # steer the fill density toward the band before retrying
        if got < lo:
            q = min(q * 1.2 + 1e-3, 0.95 if kind == "bool" else 0.495)
        else:
            q = max(q / 1.2, 1e-4)
    raise InstanceError(
        f"could not plant weight in [{lo}, {ell}] after {_MAX_PLANT_ATTEMPTS} attempts"
    )
