"""Packed linear algebra against plain-loop and numpy oracles."""

import random

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from joinlab import f2core
from joinlab.f2core import (
    BitMatrix,
    BitVector,
    DimensionError,
    InstanceError,
    JoinInstance,
    bool_product,
    f2_product,
    gen_promise_instance,
    validate_promise,
)


def triple_loop_bool(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    out = [[0] * b.cols for _ in range(a.rows)]
    for i in range(a.rows):
        for j in range(b.cols):
            for k in range(a.cols):
                if a.get(i, k) and b.get(k, j):
                    out[i][j] = 1
                    break
    return BitMatrix.from_rows(out)


def triple_loop_f2(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    out = [[0] * b.cols for _ in range(a.rows)]
    for i in range(a.rows):
        for j in range(b.cols):
            acc = 0
            for k in range(a.cols):
                acc ^= a.get(i, k) & b.get(k, j)
            out[i][j] = acc
    return BitMatrix.from_rows(out)


def test_bool_product_identity_selects_rows():
    b = BitMatrix.from_rows([[0, 1], [1, 0]])
    assert bool_product(BitMatrix.identity(2), b) == b


def test_bool_product_all_ones():
    ones = BitMatrix.ones(2, 2)
    assert bool_product(ones, ones) == ones


def test_bool_product_matches_triple_loop_8x8():
    rng = random.Random(11)
    for _ in range(10):
        a = BitMatrix.random(8, 8, 0.4, rng)
        b = BitMatrix.random(8, 8, 0.4, rng)
        assert bool_product(a, b) == triple_loop_bool(a, b)


def test_f2_product_identity():
    rng = random.Random(5)
    b = BitMatrix.random(4, 4, 0.5, rng)
    assert f2_product(BitMatrix.identity(4), b) == b


def test_f2_product_cancellation():
    a = BitMatrix.from_rows([[1, 1]])
    b = BitMatrix.from_rows([[1], [1]])
    assert f2_product(a, b) == BitMatrix.from_rows([[0]])


def test_f2_product_matches_triple_loop_8x8():
    rng = random.Random(12)
    for _ in range(10):
        a = BitMatrix.random(8, 8, 0.4, rng)
        b = BitMatrix.random(8, 8, 0.4, rng)
        assert f2_product(a, b) == triple_loop_f2(a, b)


def test_products_match_numpy_oracle_on_random_shapes():
    rng = random.Random(2024)
    for _ in range(1000):
        m = rng.randint(1, 64)
        n = rng.randint(1, 64)
        p = rng.randint(1, 64)
        a = BitMatrix.random(m, n, rng.uniform(0.05, 0.6), rng)
        b = BitMatrix.random(n, p, rng.uniform(0.05, 0.6), rng)
        an, bn = a.to_numpy().astype(np.int64), b.to_numpy().astype(np.int64)
        counts = an @ bn
        assert bool_product(a, b).to_numpy().tolist() == (counts > 0).astype(int).tolist()
        assert f2_product(a, b).to_numpy().tolist() == (counts % 2).tolist()


def test_f2_ones_dominated_by_bool_ones():
    rng = random.Random(77)
    for _ in range(200):
        m = rng.randint(1, 32)
        n = rng.randint(1, 32)
        a = BitMatrix.random(m, n, 0.4, rng)
        b = BitMatrix.random(n, m, 0.4, rng)
        field = f2_product(a, b)
        semiring = bool_product(a, b)
        for fr, br in zip(field.data, semiring.data):
            assert fr & ~br == 0


def test_product_dimension_mismatch():
    with pytest.raises(DimensionError):
        bool_product(BitMatrix.zeros(2, 3), BitMatrix.zeros(2, 3))
    with pytest.raises(DimensionError):
        f2_product(BitMatrix.zeros(2, 3), BitMatrix.zeros(4, 2))


def test_weight_examples():
    assert BitVector(16).weight() == 0
    assert BitVector(64, (1 << 64) - 1).weight() == 64
    rng = random.Random(8)
    m = BitMatrix.random(9, 13, 0.5, rng)
    naive = sum(m.get(i, j) for i in range(9) for j in range(13))
    assert m.weight() == naive


def test_transpose_involution_and_weight():
    rng = random.Random(21)
    for _ in range(50):
        m = BitMatrix.random(rng.randint(1, 40), rng.randint(1, 40), 0.5, rng)
        t = m.transpose()
        assert t.transpose() == m
        assert t.weight() == m.weight()
        i = rng.randrange(m.rows)
        j = rng.randrange(m.cols)
        assert m.get(i, j) == t.get(j, i)


def test_bitvector_basics():
    v = BitVector.from_string("0110")
    assert v.indices() == [1, 2]
    assert v[0] == 0 and v[1] == 1
    assert (v & BitVector.from_string("0010")).weight() == 1
    assert v.with_bit(0, 1).to01() == "1110"
    assert v.with_bit(1, 0).to01() == "0010"
    with pytest.raises(ValueError):
        BitVector(3, 8)


def test_matrix_text_round_trip():
    rng = random.Random(33)
    m = BitMatrix.random(5, 9, 0.4, rng)
    again = BitMatrix.from_text(m.to_text())
    assert again == m
    assert m.to_text().splitlines()[0] == "5 9"


def test_gen_promise_instance_floor():
    inst = gen_promise_instance(4, 3, 1, seed=5)
    assert inst.oracle_product.weight() == 1
    assert validate_promise(inst)


def test_gen_promise_instance_band_and_validator():
    inst = gen_promise_instance(32, 32, 64, seed=7)
    got = inst.oracle_product.weight()
    assert 32 <= got <= 64
    assert validate_promise(inst)


def test_gen_promise_instance_deterministic():
    one = gen_promise_instance(16, 16, 20, seed=42)
    two = gen_promise_instance(16, 16, 20, seed=42)
    assert one.A == two.A and one.B == two.B
    assert one.oracle_product == two.oracle_product


def test_gen_promise_instance_f2_kind():
    rng = random.Random(0)
    for seed in range(20):
        inst = gen_promise_instance(24, 24, 16, seed=seed, kind="f2")
        assert inst.oracle_product == f2_product(inst.A, inst.B)
        assert (16 + 1) // 2 <= inst.oracle_product.weight() <= 16


def test_gen_promise_instance_rejects_bad_params():
    with pytest.raises(InstanceError):
        gen_promise_instance(4, 4, 0, seed=1)
    with pytest.raises(InstanceError):
        gen_promise_instance(4, 4, 17, seed=1)
    with pytest.raises(InstanceError):
        gen_promise_instance(0, 4, 1, seed=1)


def test_instance_band_across_grid():
    rng = random.Random(1)
    for _ in range(40):
        m = rng.randint(2, 32)
        ell = rng.randint(1, m * m)
        inst = gen_promise_instance(m, rng.randint(1, 32), ell, seed=rng.randrange(10**6))
        assert inst.oracle_product.weight() <= ell
        assert validate_promise(inst)


def test_join_instance_build_rejects_bad_kind():
    a = BitMatrix.identity(2)
    with pytest.raises(ValueError):
        JoinInstance(a, a, 1, 0, kind="weird")


# ---------------------------------------------------------------------------
# fast paths against the dense numpy oracle, on both sides of each switch
# ---------------------------------------------------------------------------

# A few ones stay on the int loop at every width; at 2**20 bits more than
# about six ones go to the numpy scan, at 64 bits only a full word does.
WIDTHS = (1, 8, 63, 64, 65, 1000, 8192, 1 << 16, 1 << 20)


def _dense_word(n: int, indices) -> int:
    """Packed int with the given bits set, built through a dense uint8 array."""
    arr = np.zeros(n, dtype=np.uint8)
    arr[list(indices)] = 1
    return int.from_bytes(np.packbits(arr, bitorder="little").tobytes(), "little")


def _dense_positions(n: int, word: int) -> list[int]:
    buf = np.frombuffer(word.to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
    return np.flatnonzero(np.unpackbits(buf, bitorder="little")).tolist()


@st.composite
def words(draw):
    n = draw(st.sampled_from(WIDTHS))
    ones = draw(st.sets(st.integers(0, n - 1), max_size=min(n, 300)))
    if draw(st.booleans()):
        ones.add(n - 1)
    return n, sorted(ones)


@given(words())
@example((64, []))
@example((1 << 20, []))
@example((1 << 20, [(1 << 20) - 1]))
@example((64, list(range(64))))
def test_set_bits_match_dense_oracle(case):
    n, ones = case
    word = _dense_word(n, ones)
    assert _dense_positions(n, word) == ones
    for got in (BitVector(n, word).indices(), f2core._scan_bits(word)):
        assert got == ones  # ascending
        assert all(type(i) is int for i in got)


@pytest.mark.parametrize(
    "n, k, scans",
    [
        (512, 4, False),
        (512, 256, True),
        (8192, 8, False),  # a gen_hard_instance row of A at n = 8192
        (8192, 64, True),
        (1 << 22, 1, False),
        (1 << 22, 2048, True),  # a disj-cost operand at n = 2**22
    ],
)
def test_set_bit_switch_sides(n, k, scans, monkeypatch):
    scanned = []
    scan = f2core._scan_bits
    monkeypatch.setattr(f2core, "_scan_bits", lambda word: scanned.append(word) or scan(word))
    ones = sorted(random.Random(n + k).sample(range(n - 1), k - 1) + [n - 1])
    assert BitVector(n, _dense_word(n, ones)).indices() == ones
    assert bool(scanned) == scans


@given(
    st.sampled_from(WIDTHS).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(st.integers(0, n - 1), max_size=300))
    )
)
@example((0, []))
@example((1 << 20, [(1 << 20) - 1, 0, (1 << 20) - 1]))
def test_from_indices_matches_dense_oracle(case):
    n, indices = case
    v = BitVector.from_indices(n, indices)
    assert v.n == n and v.bits == _dense_word(n, indices)


@pytest.mark.parametrize(
    "n, indices, bad",
    [(8, [3, 8], 8), (8, [-1, 9], -1), (0, [0], 0), (1 << 20, [5, 1 << 20, -3], 1 << 20)],
)
def test_from_indices_rejects_out_of_range(n, indices, bad):
    with pytest.raises(ValueError) as info:
        BitVector.from_indices(n, indices)
    assert info.value.args == (f"index {bad} outside [0, {n})",)


def _check_transpose(m: BitMatrix):
    t = m.transpose()
    assert (t.rows, t.cols) == (m.cols, m.rows)
    assert np.array_equal(t.to_numpy(), m.to_numpy().T)


@st.composite
def sparse_matrices(draw):
    rows, cols = draw(st.integers(0, 200)), draw(st.integers(0, 200))
    limit = rows * cols // f2core._SCATTER_CELLS_PER_ONE
    cell = st.tuples(st.integers(0, max(rows - 1, 0)), st.integers(0, max(cols - 1, 0)))
    cells = draw(st.lists(cell, max_size=limit))
    return BitMatrix.zeros(rows, cols).with_ones(cells)


@given(sparse_matrices())
@example(BitMatrix.zeros(0, 0))
@example(BitMatrix.zeros(0, 7))
@example(BitMatrix.zeros(7, 0))
@example(BitMatrix.zeros(9, 9).with_ones([(8, 0)]))
def test_transpose_scatter_side_matches_dense_oracle(m):
    assert m.weight() * f2core._SCATTER_CELLS_PER_ONE <= m.rows * m.cols
    _check_transpose(m)


@st.composite
def dense_matrices(draw):
    rows, cols = draw(st.integers(1, 48)), draw(st.integers(1, 48))
    data = draw(st.lists(st.integers(0, (1 << cols) - 1), min_size=rows, max_size=rows))
    return BitMatrix(rows, cols, data)


@given(dense_matrices())
@example(BitMatrix.ones(3, 70))
@example(BitMatrix.identity(1))
def test_transpose_dense_side_matches_dense_oracle(m):
    assume(m.weight() * f2core._SCATTER_CELLS_PER_ONE > m.rows * m.cols)
    _check_transpose(m)
