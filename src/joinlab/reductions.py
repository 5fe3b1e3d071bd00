"""Builders and validators for instances that embed source problems in joins.

Each constructor packs the inputs of a simpler communication problem into a
promise instance so that the join output determines the source answer; the
validator checks the defining identity exactly with the brute-force
products, independent of any protocol.
"""

from __future__ import annotations

from dataclasses import dataclass

from joinlab.f2core import (
    BitMatrix,
    BitVector,
    JoinInstance,
    bool_product,
    f2_product,
)

__all__ = [
    "Embedding",
    "embed_disj_family",
    "embed_inner_product",
    "embed_or_blocks",
    "embed_ip_f2",
]


@dataclass(frozen=True)
class Embedding:
    """A produced instance, the encoded source inputs, and its identity check."""

    name: str
    instance: JoinInstance
    payload: dict

    def validate(self) -> bool:
        return _VALIDATORS[self.name](self)


def _disj_bit(a: BitVector, b: BitVector) -> int:
    return 0 if (a & b).is_zero() else 1


def embed_disj_family(a_vectors, b_vectors, n: int) -> Embedding:
    """Diagonal embedding of k disjointness instances, k <= n, each length n.

    Row i of A carries the i-th left input, column i of B the i-th right
    input; diagonal entry (i, i) of the Boolean product answers instance i.
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
    a_data = [a_vectors[i].bits for i in range(k)] + [0] * (n - k)
    b_data = [0] * n
    for i in range(k):
        for pos in b_vectors[i].indices():
            b_data[pos] |= 1 << i
    instance = JoinInstance.build(
        BitMatrix(n, n, a_data), BitMatrix(n, n, b_data), ell=k * k, kind="bool"
    )
    payload = {"a": a_vectors, "b": b_vectors, "k": k}
    return Embedding("disj-family", instance, payload)


def _validate_disj_family(emb: Embedding) -> bool:
    inst = emb.instance
    product = bool_product(inst.A, inst.B)
    if product.weight() > inst.ell:
        return False
    k = emb.payload["k"]
    for i in range(k):
        if product.get(i, i) != _disj_bit(emb.payload["a"][i], emb.payload["b"][i]):
            return False
        # round trip: the carried inputs are readable off the matrices
        if inst.A.row(i) != emb.payload["a"][i] or inst.B.col(i) != emb.payload["b"][i]:
            return False
    return True


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
    instance = JoinInstance.build(
        BitMatrix(n, n, a_data), BitMatrix.identity(n), ell=max(1, ell), kind="bool"
    )
    payload = {"a": a, "b": b, "layout": "row-major from (0, 0)"}
    return Embedding("inner-product", instance, payload)


def _validate_inner_product(emb: Embedding) -> bool:
    inst = emb.instance
    product = bool_product(inst.A, inst.B)
    if product != inst.A:
        return False
    a, b = emb.payload["a"], emb.payload["b"]
    n = inst.A.cols
    decoded = BitVector.from_bits(
        inst.A.get(pos // n, pos % n) for pos in range(a.n)
    )
    if decoded != a:
        return False
    expected = (a & b).weight() % 2
    recovered = (decoded & b).weight() % 2
    return recovered == expected


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
    instance = JoinInstance.build(
        BitMatrix(n, n, a_data), BitMatrix(n, n, b_data), ell=s * s, kind="bool"
    )
    payload = {"blocks": block_pairs, "side": s, "k": k}
    return Embedding("or-blocks", instance, payload)


def _validate_or_blocks(emb: Embedding) -> bool:
    inst = emb.instance
    product = bool_product(inst.A, inst.B)
    if product.weight() > inst.ell:
        return False
    s = emb.payload["side"]
    union = BitMatrix.zeros(s, s)
    for left, right in emb.payload["blocks"]:
        block = bool_product(left, right)
        union = BitMatrix(s, s, [u | v for u, v in zip(union.data, block.data)])
    mask = (1 << s) - 1
    for i in range(s):
        if product.data[i] & mask != union.data[i]:
            return False
    for i in range(s, inst.A.rows):
        if product.data[i]:
            return False
    return True


def embed_ip_f2(x_vectors, y_vectors, n: int) -> Embedding:
    """Diagonal F2 embedding whose output-diagonal parity is the inner product.

    Row i of A is the i-th left vector and column i of B the i-th right
    vector; the parity of the product's diagonal equals the inner product
    of the concatenated inputs over F2.
    """
    x_vectors = list(x_vectors)
    y_vectors = list(y_vectors)
    k = len(x_vectors)
    if k == 0 or len(y_vectors) != k:
        raise ValueError("need matching nonempty input families")
    if k > n:
        raise ValueError(f"family size {k} exceeds n={n}")
    if any(v.n != n for v in x_vectors + y_vectors):
        raise ValueError("all vectors must have length n")
    a_data = [x_vectors[i].bits for i in range(k)] + [0] * (n - k)
    b_data = [0] * n
    for i in range(k):
        for pos in y_vectors[i].indices():
            b_data[pos] |= 1 << i
    instance = JoinInstance.build(
        BitMatrix(n, n, a_data), BitMatrix(n, n, b_data), ell=k * k, kind="f2"
    )
    payload = {"x": x_vectors, "y": y_vectors, "k": k}
    return Embedding("ip-f2", instance, payload)


def _validate_ip_f2(emb: Embedding) -> bool:
    inst = emb.instance
    product = f2_product(inst.A, inst.B)
    if product.weight() > inst.ell:
        return False
    diag_parity = sum(product.get(i, i) for i in range(product.rows)) % 2
    expected = 0
    for x, y in zip(emb.payload["x"], emb.payload["y"]):
        expected ^= (x & y).weight() % 2
    if diag_parity != expected:
        return False
    k = emb.payload["k"]
    for i in range(k):
        if inst.A.row(i) != emb.payload["x"][i] or inst.B.col(i) != emb.payload["y"][i]:
            return False
    return True


_VALIDATORS = {
    "disj-family": _validate_disj_family,
    "inner-product": _validate_inner_product,
    "or-blocks": _validate_or_blocks,
    "ip-f2": _validate_ip_f2,
}

