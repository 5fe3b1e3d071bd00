"""Builders and validators for instances that embed source problems in joins.

Each constructor packs the inputs of a simpler communication problem into a
promise instance so that the join output determines the source answer; the
validator checks the defining identity exactly against the brute-force
product that ``JoinInstance`` cached, independent of any protocol.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import or_

from joinlab.f2core import (
    BitMatrix,
    BitVector,
    JoinInstance,
    bool_product,
    f2_product,  # not called here; perfbench's tracer test reads this module's binding of both products
)


@dataclass(frozen=True)
class Embedding:
    """A produced instance, the encoded source inputs, and its identity check."""

    name: str
    instance: JoinInstance
    payload: dict

    def validate(self) -> bool:
        return _VALIDATORS[self.name](self)


def _embed_diagonal(name: str, kind: str, a_vectors, b_vectors, n: int) -> Embedding:
    """Row i of A carries the i-th left input and column i of B the i-th right input, i < k <= n.

    The payload keeps both families as ``a`` and ``b`` and their size ``k``.
    """
    a_vectors = list(a_vectors)
    b_vectors = list(b_vectors)
    k = len(a_vectors)
    if k == 0 or len(b_vectors) != k:
        raise ValueError("need matching nonempty input families")
    if k > n:
        raise ValueError(f"family size {k} exceeds n={n}")
    if any(v.n != n for v in a_vectors + b_vectors):
        raise ValueError("all vectors must have length n")
    pad = [0] * (n - k)
    A = BitMatrix(n, n, [v.bits for v in a_vectors] + pad)
    B = BitMatrix(n, n, [v.bits for v in b_vectors] + pad).transpose()
    instance = JoinInstance(A, B, ell=k * k, kind=kind)
    return Embedding(name, instance, {"a": a_vectors, "b": b_vectors, "k": k})


def _round_trip(emb: Embedding) -> bool:
    """The carried inputs are readable off the matrices: row i of A and column i of B."""
    inst, payload = emb.instance, emb.payload
    k = payload["k"]
    return (
        inst.A.data[:k] == tuple(v.bits for v in payload["a"])
        and inst.B.transpose().data[:k] == tuple(v.bits for v in payload["b"])
    )


def embed_disj_family(a_vectors, b_vectors, n: int) -> Embedding:
    """Diagonal embedding of k disjointness instances, k <= n, each length n.

    Row i of A carries the i-th left input, column i of B the i-th right
    input; diagonal entry (i, i) of the Boolean product answers instance i.
    """
    return _embed_diagonal("disj-family", "bool", a_vectors, b_vectors, n)


def _validate_disj_family(emb: Embedding) -> bool:
    inst, payload = emb.instance, emb.payload
    product = inst.oracle_product
    answers = [bool(a.bits & b.bits) for a, b in zip(payload["a"], payload["b"])]
    diagonal = [bool(row >> i & 1) for i, row in enumerate(product.data[: len(answers)])]
    return product.weight() <= inst.ell and diagonal == answers and _round_trip(emb)


def embed_inner_product(a: BitVector, b: BitVector, n: int) -> Embedding:
    """Identity-matrix embedding computing a parity: B = I, A carries the bits.

    The first len(a) cells of A in row-major order hold the left input, so
    the product simply reproduces A and the right party can read off the
    inner product parity locally.
    """
    ell = a.n
    if b.n != ell:
        raise ValueError("both inputs must have the same length")
    if ell > n * n:
        raise ValueError(f"input length {ell} exceeds n^2={n * n}")
    if ell == 0:
        raise ValueError("inputs must be nonempty")
    a_data = [0] * n
    for pos in a.indices():
        a_data[pos // n] |= 1 << (pos % n)
    instance = JoinInstance(BitMatrix(n, n, a_data), BitMatrix.identity(n), ell=ell, kind="bool")
    return Embedding("inner-product", instance, {"a": a, "b": b})


def _validate_inner_product(emb: Embedding) -> bool:
    """B = I reproduces A, and A's row-major word starts with the left input.

    The right party then reads the left input, so the parity of ``a & b`` follows.
    """
    inst, a = emb.instance, emb.payload["a"]
    n = inst.A.cols
    row_major = sum(row << (i * n) for i, row in enumerate(inst.A.data))
    return inst.oracle_product == inst.A and row_major & ((1 << a.n) - 1) == a.bits


def embed_or_blocks(block_pairs, n: int) -> Embedding:
    """Block-row against block-column layout whose product ORs the block products.

    Each of the k square blocks sits on the same top-left output window, so
    the Boolean product accumulates their entrywise OR there.
    """
    block_pairs = list(block_pairs)
    if not block_pairs:
        raise ValueError("need at least one block pair")
    s = block_pairs[0][0].rows
    for left, right in block_pairs:
        if left.rows != s or left.cols != s or right.rows != s or right.cols != s:
            raise ValueError("all blocks must be square of equal size")
    if s < 1:
        raise ValueError(f"blocks must have side at least 1, got {s}")
    k = len(block_pairs)
    if k * s > n:
        raise ValueError(f"{k} blocks of side {s} overflow n={n}")
    a_data = [0] * n
    for i in range(s):
        acc = 0
        for idx, (left, _) in enumerate(block_pairs):
            acc |= left.data[i] << (idx * s)
        a_data[i] = acc
    b_data = [0] * n
    for idx, (_, right) in enumerate(block_pairs):
        for i in range(s):
            b_data[idx * s + i] = right.data[i]
    instance = JoinInstance(BitMatrix(n, n, a_data), BitMatrix(n, n, b_data), ell=s * s, kind="bool")
    return Embedding("or-blocks", instance, {"blocks": block_pairs, "side": s})


def _validate_or_blocks(emb: Embedding) -> bool:
    inst = emb.instance
    product = inst.oracle_product
    if product.weight() > inst.ell:
        return False
    s = emb.payload["side"]
    blocks = (bool_product(left, right).data for left, right in emb.payload["blocks"])
    union = reduce(lambda acc, rows: tuple(map(or_, acc, rows)), blocks, (0,) * s)
    # whole rows, so a one right of the window fails too
    return product.data[:s] == union and not any(product.data[s:])


def embed_ip_f2(x_vectors, y_vectors, n: int) -> Embedding:
    """Diagonal F2 embedding whose output-diagonal parity is the inner product.

    Row i of A is the i-th left vector and column i of B the i-th right
    vector; the parity of the product's diagonal equals the inner product
    of the concatenated inputs over F2.
    """
    return _embed_diagonal("ip-f2", "f2", x_vectors, y_vectors, n)


def _validate_ip_f2(emb: Embedding) -> bool:
    inst, payload = emb.instance, emb.payload
    product = inst.oracle_product
    parity = sum(row >> i & 1 for i, row in enumerate(product.data)) % 2
    expected = sum((a & b).weight() for a, b in zip(payload["a"], payload["b"])) % 2
    return product.weight() <= inst.ell and parity == expected and _round_trip(emb)


_VALIDATORS = {
    "disj-family": _validate_disj_family,
    "inner-product": _validate_inner_product,
    "or-blocks": _validate_or_blocks,
    "ip-f2": _validate_ip_f2,
}

