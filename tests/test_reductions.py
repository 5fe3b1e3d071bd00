"""Embedding constructions: exact identities checked by the oracles."""

import random

import pytest

from joinlab.f2core import BitMatrix, BitVector, bool_product, f2_product
from joinlab.reductions import (
    embed_disj_family,
    embed_inner_product,
    embed_ip_f2,
    embed_or_blocks,
)


def _vectors(n, k, rng, density=0.3):
    return [BitVector.random(n, density, rng) for _ in range(k)]


def test_disj_family_all_disjoint_gives_zero_diagonal():
    n = 8
    a = [BitVector.from_indices(n, [0]), BitVector.from_indices(n, [1])]
    b = [BitVector.from_indices(n, [2]), BitVector.from_indices(n, [3])]
    emb = embed_disj_family(a, b, n)
    product = bool_product(emb.instance.A, emb.instance.B)
    assert all(product.get(i, i) == 0 for i in range(2))
    assert emb.validate()


def test_disj_family_mixed_diagonal():
    n = 8
    a = [BitVector.from_indices(n, [0, 1]), BitVector.from_indices(n, [2])]
    b = [BitVector.from_indices(n, [1, 5]), BitVector.from_indices(n, [3])]
    emb = embed_disj_family(a, b, n)
    product = bool_product(emb.instance.A, emb.instance.B)
    assert product.get(0, 0) == 1 and product.get(1, 1) == 0
    assert emb.validate()


def test_disj_family_random_validations():
    n = 32
    for tr in range(100):
        rng = random.Random(100 + tr)
        k = rng.randint(1, 4)
        emb = embed_disj_family(_vectors(n, k, rng), _vectors(n, k, rng), n)
        assert emb.validate()
        assert emb.instance.oracle_product.weight() <= k * k


def test_disj_family_rejects_oversized():
    n = 4
    with pytest.raises(ValueError):
        embed_disj_family(_vectors(n, 5, random.Random(0)), _vectors(n, 5, random.Random(1)), n)


def test_inner_product_zero_input():
    emb = embed_inner_product(BitVector(4), BitVector(4), n=4)
    assert emb.instance.oracle_product.is_zero()
    assert emb.validate()


def test_inner_product_parity_of_four():
    ones = BitVector(4, 0b1111)
    emb = embed_inner_product(ones, ones, n=4)
    assert emb.validate()
    # parity of four aligned ones is zero
    a, b = emb.payload["a"], emb.payload["b"]
    assert (a & b).weight() % 2 == 0


def test_inner_product_random_validations():
    n = 8
    for tr in range(100):
        rng = random.Random(300 + tr)
        ell = rng.randint(1, 30)
        a = BitVector.random(ell, 0.5, rng)
        b = BitVector.random(ell, 0.5, rng)
        emb = embed_inner_product(a, b, n)
        assert emb.validate()
        decoded = BitVector.from_bits(
            emb.instance.A.get(p // n, p % n) for p in range(ell)
        )
        assert decoded == a  # round trip
        assert (decoded & b).weight() % 2 == (a & b).weight() % 2
    with pytest.raises(ValueError):
        embed_inner_product(BitVector(65), BitVector(65), n=8)


def test_or_blocks_zero_blocks():
    blocks = [(BitMatrix.zeros(2, 2), BitMatrix.zeros(2, 2))] * 3
    emb = embed_or_blocks(blocks, n=8)
    assert emb.instance.oracle_product.is_zero()
    assert emb.validate()


def test_or_blocks_disjoint_union():
    left1 = BitMatrix.from_rows([[1, 0], [0, 0]])
    right1 = BitMatrix.from_rows([[1, 0], [0, 0]])
    left2 = BitMatrix.from_rows([[0, 0], [0, 1]])
    right2 = BitMatrix.from_rows([[0, 0], [0, 1]])
    emb = embed_or_blocks([(left1, right1), (left2, right2)], n=4)
    assert emb.validate()
    product = bool_product(emb.instance.A, emb.instance.B)
    assert product.get(0, 0) == 1 and product.get(1, 1) == 1
    assert product.get(0, 1) == 0


def test_or_blocks_random_validations():
    n = 16
    for tr in range(100):
        rng = random.Random(500 + tr)
        s = 4
        k = rng.randint(1, n // s)
        blocks = [
            (BitMatrix.random(s, s, 0.3, rng), BitMatrix.random(s, s, 0.3, rng))
            for _ in range(k)
        ]
        emb = embed_or_blocks(blocks, n)
        assert emb.validate()
    with pytest.raises(ValueError):
        ones = BitMatrix(5, 5, [0b11111] * 5)
        embed_or_blocks([(ones, ones)] * 4, n=16)


def test_ip_f2_zero_vectors():
    n = 8
    zero = [BitVector(n)]
    emb = embed_ip_f2(zero, zero, n)
    assert emb.instance.oracle_product.is_zero()
    assert emb.validate()


def test_ip_f2_single_coordinate():
    n = 8
    e1 = [BitVector.from_indices(n, [0])]
    emb = embed_ip_f2(e1, e1, n)
    product = f2_product(emb.instance.A, emb.instance.B)
    assert product.get(0, 0) == 1
    assert emb.validate()


def test_ip_f2_random_validations():
    n = 16
    for tr in range(100):
        rng = random.Random(700 + tr)
        k = rng.randint(1, 3)
        xs = _vectors(n, k, rng, 0.5)
        ys = _vectors(n, k, rng, 0.5)
        emb = embed_ip_f2(xs, ys, n)
        assert emb.validate()
        parity = 0
        for x, y in zip(xs, ys):
            parity ^= (x & y).weight() % 2
        product = f2_product(emb.instance.A, emb.instance.B)
        assert sum(product.get(i, i) for i in range(n)) % 2 == parity
