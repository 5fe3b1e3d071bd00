"""Embedding constructions: exact identities checked by the oracles."""

import dataclasses
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from joinlab.f2core import BitMatrix, BitVector, JoinInstance, bool_product, f2_product
from joinlab.reductions import (
    embed_disj_family,
    embed_inner_product,
    embed_ip_f2,
    embed_or_blocks,
)


def _vectors(n, k, rng, density=0.3):
    return [BitVector.random(n, density, rng) for _ in range(k)]


def _cell(m: BitMatrix, i: int, j: int) -> int:
    return (m.data[i] >> j) & 1


def test_disj_family_all_disjoint_gives_zero_diagonal():
    n = 8
    a = [BitVector.from_indices(n, [0]), BitVector.from_indices(n, [1])]
    b = [BitVector.from_indices(n, [2]), BitVector.from_indices(n, [3])]
    emb = embed_disj_family(a, b, n)
    product = bool_product(emb.instance.A, emb.instance.B)
    assert all(_cell(product, i, i) == 0 for i in range(2))
    assert emb.validate()


def test_disj_family_mixed_diagonal():
    n = 8
    a = [BitVector.from_indices(n, [0, 1]), BitVector.from_indices(n, [2])]
    b = [BitVector.from_indices(n, [1, 5]), BitVector.from_indices(n, [3])]
    emb = embed_disj_family(a, b, n)
    product = bool_product(emb.instance.A, emb.instance.B)
    assert _cell(product, 0, 0) == 1 and _cell(product, 1, 1) == 0
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
    assert emb.instance.oracle_product.weight() == 0
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
        decoded = BitVector.from_indices(ell, [p for p in range(ell) if _cell(emb.instance.A, p // n, p % n)])
        assert decoded == a  # round trip
        assert (decoded & b).weight() % 2 == (a & b).weight() % 2
    with pytest.raises(ValueError):
        embed_inner_product(BitVector(65), BitVector(65), n=8)


def test_or_blocks_zero_blocks():
    blocks = [(BitMatrix(2, 2, [0, 0]), BitMatrix(2, 2, [0, 0]))] * 3
    emb = embed_or_blocks(blocks, n=8)
    assert emb.instance.oracle_product.weight() == 0
    assert emb.validate()


def test_or_blocks_disjoint_union():
    left1 = BitMatrix.from_numpy([[1, 0], [0, 0]])
    right1 = BitMatrix.from_numpy([[1, 0], [0, 0]])
    left2 = BitMatrix.from_numpy([[0, 0], [0, 1]])
    right2 = BitMatrix.from_numpy([[0, 0], [0, 1]])
    emb = embed_or_blocks([(left1, right1), (left2, right2)], n=4)
    assert emb.validate()
    product = bool_product(emb.instance.A, emb.instance.B)
    assert _cell(product, 0, 0) == 1 and _cell(product, 1, 1) == 1
    assert _cell(product, 0, 1) == 0


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
    assert emb.instance.oracle_product.weight() == 0
    assert emb.validate()


def test_ip_f2_single_coordinate():
    n = 8
    e1 = [BitVector.from_indices(n, [0])]
    emb = embed_ip_f2(e1, e1, n)
    product = f2_product(emb.instance.A, emb.instance.B)
    assert _cell(product, 0, 0) == 1
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
        assert sum(_cell(product, i, i) for i in range(n)) % 2 == parity


# ---------------------------------------------------------------------------
# the validators against cell-by-cell references
# ---------------------------------------------------------------------------


def _reference_round_trip(emb) -> bool:
    """Row i of A and column i of B hold the i-th carried inputs, compared cell by cell."""
    inst, payload = emb.instance, emb.payload
    return all(
        _cell(inst.A, i, j) == payload["a"][i][j] and _cell(inst.B, j, i) == payload["b"][i][j]
        for i in range(payload["k"])
        for j in range(inst.A.cols)
    )


def _reference_disj_family(emb) -> bool:
    inst, payload = emb.instance, emb.payload
    product = bool_product(inst.A, inst.B)
    answers = [0 if (a & b).weight() == 0 else 1 for a, b in zip(payload["a"], payload["b"])]
    diagonal = [_cell(product, i, i) for i in range(len(answers))]
    return product.weight() <= inst.ell and diagonal == answers and _reference_round_trip(emb)


def _reference_inner_product(emb) -> bool:
    inst, a, b = emb.instance, emb.payload["a"], emb.payload["b"]
    if bool_product(inst.A, inst.B) != inst.A:
        return False
    n = inst.A.cols
    decoded = BitVector.from_indices(a.n, [pos for pos in range(a.n) if _cell(inst.A, pos // n, pos % n)])
    if decoded != a:
        return False
    return (decoded & b).weight() % 2 == (a & b).weight() % 2


def _reference_or_blocks(emb) -> bool:
    inst = emb.instance
    product = bool_product(inst.A, inst.B)
    if product.weight() > inst.ell:
        return False
    s = emb.payload["side"]
    union = [[0] * s for _ in range(s)]
    for left, right in emb.payload["blocks"]:
        block = bool_product(left, right)
        for i in range(s):
            for j in range(s):
                union[i][j] |= _cell(block, i, j)
    # the window rows hold the union and nothing right of it
    window = all(
        _cell(product, i, j) == (union[i][j] if j < s else 0) for i in range(s) for j in range(product.cols)
    )
    below = all(_cell(product, i, j) == 0 for i in range(s, product.rows) for j in range(product.cols))
    return window and below


def _reference_ip_f2(emb) -> bool:
    inst, payload = emb.instance, emb.payload
    product = f2_product(inst.A, inst.B)
    parity = sum(_cell(product, i, i) for i in range(product.rows)) % 2
    expected = sum((a & b).weight() for a, b in zip(payload["a"], payload["b"])) % 2
    return product.weight() <= inst.ell and parity == expected and _reference_round_trip(emb)


REFERENCES = {
    "disj-family": _reference_disj_family,
    "inner-product": _reference_inner_product,
    "or-blocks": _reference_or_blocks,
    "ip-f2": _reference_ip_f2,
}


def _bits(draw, n):
    return BitVector(n, draw(st.integers(0, (1 << n) - 1)))


@st.composite
def embeddings(draw):
    name = draw(st.sampled_from(sorted(REFERENCES)))
    if name in ("disj-family", "ip-f2"):
        n = draw(st.integers(1, 12))
        k = draw(st.integers(1, n))
        a, b = ([_bits(draw, n) for _ in range(k)] for _ in range(2))
        return (embed_disj_family if name == "disj-family" else embed_ip_f2)(a, b, n)
    if name == "inner-product":
        n = draw(st.integers(1, 8))
        length = draw(st.integers(1, n * n))
        return embed_inner_product(_bits(draw, length), _bits(draw, length), n)
    s = draw(st.integers(1, 4))
    k = draw(st.integers(1, 3))
    n = k * s + draw(st.integers(0, 3))
    square = st.lists(st.integers(0, (1 << s) - 1), min_size=s, max_size=s).map(lambda rows: BitMatrix(s, s, rows))
    blocks = [(draw(square), draw(square)) for _ in range(k)]
    return embed_or_blocks(blocks, n)


def _flipped(emb, side: str, i: int, j: int):
    """The embedding with cell (i, j) of A or B flipped and the oracle product rebuilt."""
    inst = emb.instance
    mats = {"A": inst.A, "B": inst.B}
    m = mats[side]
    mats[side] = BitMatrix(m.rows, m.cols, [r ^ (1 << j) if row == i else r for row, r in enumerate(m.data)])
    tampered = JoinInstance(mats["A"], mats["B"], inst.ell, inst.seed, inst.kind)
    return dataclasses.replace(emb, instance=tampered)


@st.composite
def tamper_cases(draw):
    """An embedding, untouched or with one cell of A or B flipped anywhere, carried region or not."""
    emb = draw(embeddings())
    flip = draw(st.none() | st.tuples(st.sampled_from("AB"), st.integers(0, 2**16), st.integers(0, 2**16)))
    if flip is None:
        return emb
    side, i, j = flip
    n = emb.instance.A.rows
    return _flipped(emb, side, i % n, j % n)


# a cell of A past the carried input: the product still reproduces A, and the input still reads back
_PAST_INPUT = _flipped(embed_inner_product(BitVector(5, 0b10110), BitVector(5, 0b00111), 3), "A", 2, 2)
_ONE = [BitVector(2, 0b01)]
_CORNER = BitMatrix(2, 2, [0b01, 0])


@given(tamper_cases())
@example(_PAST_INPUT)
# a row of A below the carried ones picks up a row of B: only the weight bound notices
@example(_flipped(embed_disj_family(_ONE, _ONE, 2), "A", 1, 0))
@example(_flipped(embed_ip_f2(_ONE, _ONE, 2), "A", 1, 0))
# the same below the or-blocks window, with the weight still inside the bound
@example(_flipped(embed_or_blocks([(_CORNER, _CORNER)], 3), "A", 2, 0))
# right of the or-blocks window in its rows, past the weight bound
@example(_flipped(embed_or_blocks([(BitMatrix(1, 1, [1]),) * 2], 2), "B", 0, 1))
# right of the or-blocks window in its rows, within the weight bound
@example(_flipped(embed_or_blocks([(_CORNER, _CORNER)], 3), "B", 0, 2))
def test_validators_match_cell_by_cell_references(emb):
    assert emb.validate() == REFERENCES[emb.name](emb)


def test_or_blocks_rejects_stray_ones_right_of_the_window():
    # B's cell (0, 2) puts a one at product cell (0, 2), right of the 2x2 window;
    # the product weight 2 stays within ell = 4, so only the window rows can tell
    emb = _flipped(embed_or_blocks([(_CORNER, _CORNER)], 3), "B", 0, 2)
    assert bool_product(emb.instance.A, emb.instance.B).data[0] == 0b101
    assert emb.instance.oracle_product.weight() <= emb.instance.ell
    assert not emb.validate()


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(
            lambda: embed_disj_family([], [], 4), "need matching nonempty input families", id="diagonal-empty"
        ),
        pytest.param(
            lambda: embed_ip_f2([BitVector(4)], [], 4), "need matching nonempty input families", id="diagonal-unmatched"
        ),
        pytest.param(
            lambda: embed_disj_family([BitVector(4)] * 5, [BitVector(4)] * 5, 4),
            "family size 5 exceeds n=4",
            id="diagonal-oversized",
        ),
        pytest.param(
            lambda: embed_ip_f2([BitVector(3)], [BitVector(4)], 4),
            "all vectors must have length n",
            id="diagonal-length",
        ),
        pytest.param(
            lambda: embed_inner_product(BitVector(3), BitVector(4), 4),
            "both inputs must have the same length",
            id="inner-product-lengths",
        ),
        pytest.param(
            lambda: embed_inner_product(BitVector(17), BitVector(17), 4),
            "input length 17 exceeds n^2=16",
            id="inner-product-oversized",
        ),
        pytest.param(
            lambda: embed_inner_product(BitVector(0), BitVector(0), 4),
            "inputs must be nonempty",
            id="inner-product-empty",
        ),
        pytest.param(lambda: embed_or_blocks([], 4), "need at least one block pair", id="or-blocks-none"),
        pytest.param(
            lambda: embed_or_blocks([(BitMatrix.identity(2), BitMatrix.identity(3))], 8),
            "all blocks must be square of equal size",
            id="or-blocks-unequal",
        ),
        pytest.param(
            lambda: embed_or_blocks([(BitMatrix(2, 3, [0, 0]),) * 2], 8),
            "all blocks must be square of equal size",
            id="or-blocks-not-square",
        ),
        pytest.param(
            lambda: embed_or_blocks([(BitMatrix.identity(3),) * 2] * 2, 5),
            "2 blocks of side 3 overflow n=5",
            id="or-blocks-overflow",
        ),
        # 0 x 0 blocks pass the shape checks; the instance they would build has no room for a one
        pytest.param(
            lambda: embed_or_blocks([(BitMatrix(0, 0, []),) * 2], 8),
            "blocks must have side at least 1, got 0",
            id="or-blocks-empty",
        ),
    ],
)
def test_input_checks_reject_with_their_message(call, message):
    with pytest.raises(ValueError) as raised:
        call()
    assert raised.type is ValueError and str(raised.value) == message
