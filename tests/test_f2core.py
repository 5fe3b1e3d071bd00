"""Packed linear algebra against plain-loop and numpy oracles."""

import math
import random
from operator import and_, or_, xor
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given
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
)


def _dense(m: BitMatrix) -> np.ndarray:
    """The rows x cols 0/1 array of ``m``, unpacked from its packed rows."""
    nbytes = (m.cols + 7) // 8
    buf = b"".join(r.to_bytes(nbytes, "little") for r in m.data)
    packed = np.frombuffer(buf, dtype=np.uint8).reshape(m.rows, nbytes)
    return np.unpackbits(packed, axis=1, bitorder="little")[:, : m.cols]


def triple_loop_bool(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    out = [[0] * b.cols for _ in range(a.rows)]
    for i in range(a.rows):
        for j in range(b.cols):
            for k in range(a.cols):
                if (a.data[i] >> k) & 1 and (b.data[k] >> j) & 1:
                    out[i][j] = 1
                    break
    return BitMatrix.from_numpy(out)


def triple_loop_f2(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    out = [[0] * b.cols for _ in range(a.rows)]
    for i in range(a.rows):
        for j in range(b.cols):
            acc = 0
            for k in range(a.cols):
                acc ^= (a.data[i] >> k) & (b.data[k] >> j) & 1
            out[i][j] = acc
    return BitMatrix.from_numpy(out)


def test_bool_product_identity_selects_rows():
    b = BitMatrix.from_numpy([[0, 1], [1, 0]])
    assert bool_product(BitMatrix.identity(2), b) == b


def test_bool_product_all_ones():
    ones = BitMatrix(2, 2, [0b11, 0b11])
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
    a = BitMatrix.from_numpy([[1, 1]])
    b = BitMatrix.from_numpy([[1], [1]])
    assert f2_product(a, b) == BitMatrix.from_numpy([[0]])


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
        an, bn = _dense(a).astype(np.int64), _dense(b).astype(np.int64)
        counts = an @ bn
        assert _dense(bool_product(a, b)).tolist() == (counts > 0).astype(int).tolist()
        assert _dense(f2_product(a, b)).tolist() == (counts % 2).tolist()


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
        bool_product(BitMatrix(2, 3, [0] * 2), BitMatrix(2, 3, [0] * 2))
    with pytest.raises(DimensionError):
        f2_product(BitMatrix(2, 3, [0] * 2), BitMatrix(4, 2, [0] * 4))


def test_weight_examples():
    assert BitVector(16).weight() == 0
    assert BitVector(64, (1 << 64) - 1).weight() == 64
    rng = random.Random(8)
    m = BitMatrix.random(9, 13, 0.5, rng)
    naive = sum((m.data[i] >> j) & 1 for i in range(9) for j in range(13))
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
        assert (m.data[i] >> j) & 1 == (t.data[j] >> i) & 1


def test_bitvector_basics():
    v = BitVector(4, 0b0110)
    assert v.indices() == [1, 2]
    assert v[0] == 0 and v[1] == 1
    assert repr(v) == "BitVector('0110')"
    assert repr(BitVector(0)) == "BitVector('')"
    assert (v & BitVector.from_indices(4, [2])).weight() == 1
    with pytest.raises(ValueError):
        BitVector(3, 8)


def test_gen_promise_instance_floor():
    inst = gen_promise_instance(4, 3, 1, seed=5)
    assert inst.oracle_product == bool_product(inst.A, inst.B)
    assert inst.oracle_product.weight() == 1


def test_gen_promise_instance_band_and_validator():
    inst = gen_promise_instance(32, 32, 64, seed=7)
    got = inst.oracle_product.weight()
    assert 32 <= got <= 64
    assert inst.oracle_product == bool_product(inst.A, inst.B)


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
        assert inst.oracle_product == bool_product(inst.A, inst.B)
        assert inst.oracle_product.weight() <= ell


def test_join_instance_build_rejects_bad_kind():
    a = BitMatrix.identity(2)
    with pytest.raises(ValueError):
        JoinInstance(a, a, 1, 0, kind="weird")


# ---------------------------------------------------------------------------
# fast paths against the dense numpy oracle, on both sides of each switch
# ---------------------------------------------------------------------------

# A few ones stay on the int loop at every width; at 2**20 bits two ones
# go to the numpy scan, at 64 bits only a full word does.  Past 2**15 bits
# the scan skips zero 64-bit limbs first.
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
        (1 << 18, 2, False),
        (1 << 18, 3, True),
        (1 << 22, 1, False),
        (1 << 22, 2, True),
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


def _dense_rows(rows, width: int) -> np.ndarray:
    """Each packed row as a bool array of ``width`` columns."""
    nbytes = (width + 7) // 8
    buf = np.frombuffer(b"".join(r.to_bytes(nbytes, "little") for r in rows), dtype=np.uint8)
    return np.unpackbits(buf.reshape(len(rows), nbytes), axis=1, bitorder="little")[:, :width].astype(bool)


@given(words(), st.integers(1, 130), st.integers(0, 2**32 - 1))
@example((64, []), 9, 0)
@example((1 << 20, [5]), 70, 1)
@example((8192, [3, 4100, 8191]), 64, 2)  # few ones: the int loop
@example((8192, list(range(0, 8192, 128))), 64, 3)  # 64 ones: the numpy scan
def test_fold_matches_plain_loop_and_dense_oracle(case, width, seed):
    n, ones = case
    rng = random.Random(seed)
    rows = {k: rng.getrandbits(width) for k in ones}
    full = (1 << width) - 1
    picked = _dense_rows([rows[k] for k in ones], width)
    oracles = (
        (or_, 0, picked.any(axis=0)),
        (xor, 0, picked.sum(axis=0) % 2 == 1),
        (and_, full, picked.all(axis=0)),
    )
    for op, start, dense in oracles:
        loop = start
        for k in ones:
            loop = op(loop, rows[k])
        assert f2core._fold(op, rows, _dense_word(n, ones), start) == loop
        assert loop == _dense_word(width, np.flatnonzero(dense))


def test_fold_returns_start_on_a_zero_word_without_iterating(monkeypatch):
    monkeypatch.setattr(f2core, "_iter_bits", lambda word: pytest.fail("iterated a zero word"))
    full = (1 << 300) - 1
    assert f2core._fold(and_, None, 0, full) is full
    assert f2core._fold(xor, None, 0) == 0


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
    [
        (8, [3, 8], 8),
        (8, [-1, 9], -1),
        (0, [0], 0),
        (1 << 20, [5, 1 << 20, -3], 1 << 20),
        (64, [3, 1 << 70], 1 << 70),
        (64, [5, (1 << 64) - 1], (1 << 64) - 1),
        (64, [1 << 63], 1 << 63),
        (64, [-1, 1 << 63], -1),
    ],
)
def test_from_indices_rejects_out_of_range(n, indices, bad):
    with pytest.raises(ValueError) as info:
        BitVector.from_indices(n, indices)
    assert info.value.args == (f"index {bad} outside [0, {n})",)


@given(
    st.integers(0, 24),
    st.integers(0, 24),
    st.integers(0, 24),
    st.sampled_from((0.0, 0.5, 1.0)),
    st.integers(0, 2**32 - 1),
)
@example(0, 5, 5, 0.0, 0)
@example(5, 0, 5, 0.0, 1)
@example(5, 5, 0, 0.0, 2)
@example(6, 6, 6, 1.0, 3)
def test_products_with_zero_rows_match_dense_oracle(m, n, p, zero_share, seed):
    gen = np.random.default_rng(seed)
    a = gen.random((m, n)) < 0.4
    a[gen.random(m) < zero_share] = False
    b = gen.random((n, p)) < 0.4
    counts = a.astype(np.int64) @ b.astype(np.int64)
    A, B = BitMatrix.from_numpy(a), BitMatrix.from_numpy(b)
    for product, dense in ((bool_product, counts > 0), (f2_product, counts % 2 == 1)):
        got = product(A, B)
        assert (got.rows, got.cols) == (m, p)
        assert _dense(got).astype(bool).tolist() == dense.tolist()
        assert got.weight() == int(dense.sum())


# the sizes at which random.Random.sample switches from a pool list to a set, at k <= 5, 6..21,
# 22..85, 86..341 and 342..1365, and either side of them
SAMPLE_SWITCHES = (21, 22, 85, 86, 277, 278, 1045, 1046, 4117, 4118)


@given(
    st.one_of(
        st.integers(0, 10),
        st.sampled_from(SAMPLE_SWITCHES),
        st.integers(0, 1 << 13),
        st.sampled_from((1 << 18, 1 << 22, 2**32 - 1, 1 << 32, 1 << 40)),
        st.integers(0, 2**32 - 1),
    ),
    st.one_of(st.sampled_from((-1, 0, 1, 5, 6, 7, 21, 22, 85, 86, 341, 342)), st.integers(-3, 400)),
    st.integers(0, 2**32 - 1),
)
@example(1 << 22, 4095, 0)  # a disj-cost pair at n = 2**22
@example(2**32 - 1, 4095, 1)
@example(10, 11, 2)
@example(100, -1, 3)
@example(0, 0, 4)
def test_bulk_sample_matches_random_sample(n, k, seed):
    runs = []
    for sample in (lambda rng: rng.sample(range(n), k), lambda rng: f2core._sample(n, k, rng)):
        rng = random.Random(seed)
        try:
            got = sample(rng)
        except ValueError as exc:
            got = exc.args
        runs.append((got, rng.getstate()))
    assert runs[0] == runs[1]


@st.composite
def sparse_matrices(draw):
    """Up to 200 x 200, with at most one cell in 80 set."""
    rows, cols = draw(st.integers(0, 200)), draw(st.integers(0, 200))
    cell = st.tuples(st.integers(0, max(rows - 1, 0)), st.integers(0, max(cols - 1, 0)))
    data = [0] * rows
    for i, j in draw(st.lists(cell, max_size=rows * cols // 80)):
        data[i] |= 1 << j
    return BitMatrix(rows, cols, data)


@st.composite
def dense_matrices(draw):
    rows, cols = draw(st.integers(1, 48)), draw(st.integers(1, 48))
    data = draw(st.lists(st.integers(0, (1 << cols) - 1), min_size=rows, max_size=rows))
    return BitMatrix(rows, cols, data)


def _diagonal_stack(n: int) -> BitMatrix:
    """k = isqrt(n) rows of density 0.3 over n zero-padded rows, as ``_embed_diagonal`` stacks B's inputs."""
    k = math.isqrt(n)
    return BitMatrix(n, n, BitMatrix.random(k, n, 0.3, random.Random(n)).data + (0,) * (n - k))


def _check_transpose(m: BitMatrix):
    t = m.transpose()
    assert (t.rows, t.cols) == (m.cols, m.rows)
    assert np.array_equal(_dense(t), _dense(m).T)


@given(sparse_matrices())
@example(BitMatrix(0, 0, []))
@example(BitMatrix(0, 7, []))
@example(BitMatrix(7, 0, [0] * 7))
@example(BitMatrix(9, 9, [0] * 8 + [1]))
def test_transpose_scatter_side_matches_dense_oracle(m):
    """Sparse inputs, at most one cell in 80 set, including empty shapes."""
    _check_transpose(m)


@given(dense_matrices())
@example(BitMatrix(3, 70, [(1 << 70) - 1] * 3))
@example(BitMatrix.identity(1))
@example(_diagonal_stack(32))  # the embedding shapes that the benchmark transposes
@example(_diagonal_stack(128))
def test_transpose_dense_side_matches_dense_oracle(m):
    """Dense inputs, and the embedding stacks with k <= sqrt(n) nonzero rows."""
    _check_transpose(m)


# ---------------------------------------------------------------------------
# batched Bernoulli draws against the per-bit loop they replace
# ---------------------------------------------------------------------------

DENSITIES = st.one_of(
    st.sampled_from((0.0, 1.0, 0.5, 1e-9, 5e-324, 1 - 2**-53, 2.0, -1.0, float("nan"))),
    st.floats(0.0, 1.0),
)


def _loop_row(n: int, density: float, rng: random.Random) -> int:
    """One row drawn bit by bit, ``rng.random() < density`` per bit, lowest bit first."""
    acc = 0
    for i in range(n):
        if rng.random() < density:
            acc |= 1 << i
    return acc


# chunk is the number of cells per getrandbits call: a draw wider than one chunk takes several calls
@given(st.integers(0, 4), st.integers(0, 300), DENSITIES, st.integers(0, 2**32 - 1), st.integers(1, 8))
@example(0, 7, 0.5, 1, 3)
@example(3, 0, 0.5, 1, 1)
@example(4, 300, float("nan"), 2, 7)
@example(4, 300, 0.5, 3, f2core._BERNOULLI_CHUNK)
def test_batched_draws_match_per_bit_loop(count, n, density, seed, chunk):
    fast, slow = random.Random(seed), random.Random(seed)
    with patch.object(f2core, "_BERNOULLI_CHUNK", chunk):
        bits = f2core._bernoulli(count, n, density, fast)
        loop = [[slow.random() < density for _ in range(n)] for _ in range(count)]
        assert bits.dtype == bool and bits.shape == (count, n)
        assert bits.tolist() == loop
        assert fast.getrandbits(32) == slow.getrandbits(32)

        expected = BitMatrix(count, n, [_loop_row(n, density, slow) for _ in range(count)])
        assert BitMatrix.random(count, n, density, fast) == expected
        assert fast.getrandbits(32) == slow.getrandbits(32)
        assert BitVector.random(n, density, fast) == BitVector(n, _loop_row(n, density, slow))
        assert fast.getrandbits(32) == slow.getrandbits(32)


@pytest.mark.parametrize("seed", range(4))
def test_batched_draws_split_at_the_drawn_float(seed):
    # a density equal to a drawn value, or one ulp either side of it, decides
    # that draw by its last bit
    stream = random.Random(seed)
    drawn = [stream.random() for _ in range(16)]
    for j, edge in enumerate(drawn):
        for density in (math.nextafter(edge, 0.0), edge, math.nextafter(edge, 1.0)):
            bits = f2core._bernoulli(1, 16, density, random.Random(seed))
            assert bits[0, j] == (edge < density)
            assert bits.tolist() == [[u < density for u in drawn]]


def _loop_promise_instance(m: int, n: int, ell: int, seed: int, kind: str):
    """(A, B) of gen_promise_instance with every fill drawn bit by bit, or None where it gives up."""
    rng = random.Random(seed)
    k = max(1, math.isqrt(ell - 1) + 1)
    active_rows = sorted(rng.sample(range(m), k))
    active_cols = sorted(rng.sample(range(m), k))
    lo = (ell + 1) // 2
    q = max(lo, min(ell, round(0.75 * ell))) / (k * k)
    product = bool_product if kind == "bool" else f2_product
    for _ in range(f2core._MAX_PLANT_ATTEMPTS):
        p = f2core._entry_density(q, n, kind)
        a_data = [0] * m
        for i in active_rows:
            a_data[i] = _loop_row(n, p, rng)
        b_data = []
        for _ in range(n):
            acc = 0
            for j in active_cols:
                if rng.random() < p:
                    acc |= 1 << j
            b_data.append(acc)
        A, B = BitMatrix(m, n, a_data), BitMatrix(n, m, b_data)
        got = product(A, B).weight()
        if lo <= got <= ell:
            return A, B
        if got < lo:
            q = min(q * 1.2 + 1e-3, 0.95 if kind == "bool" else 0.495)
        else:
            q = max(q / 1.2, 1e-4)
    return None


def _planted(m: int, n: int, ell: int, seed: int, kind: str):
    try:
        inst = gen_promise_instance(m, n, ell, seed, kind)
    except InstanceError:
        return None
    return inst.A, inst.B


@given(
    st.integers(1, 24).flatmap(lambda m: st.tuples(st.just(m), st.integers(1, 24), st.integers(1, m * m))),
    st.integers(0, 2**32 - 1),
    st.sampled_from(("bool", "f2")),
)
@example((1, 1, 1), 0, "f2")
@example((24, 3, 576), 5, "bool")
@example((16, 16, 256), 6, "f2")
def test_promise_instance_matches_per_bit_loop(shape, seed, kind):
    assert _planted(*shape, seed, kind) == _loop_promise_instance(*shape, seed, kind)


def test_promise_instance_gives_up_where_per_bit_loop_does(monkeypatch):
    monkeypatch.setattr(f2core, "_MAX_PLANT_ATTEMPTS", 1)
    outcomes = []
    for seed in range(20):
        expected = _loop_promise_instance(16, 16, 64, seed, "f2")
        assert _planted(16, 16, 64, seed, "f2") == expected
        outcomes.append(expected is None)
    assert any(outcomes) and not all(outcomes)


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(lambda: BitVector(-1), ValueError, "length must be nonnegative", id="vector-length"),
        pytest.param(lambda: BitMatrix(-1, 2, []), ValueError, "shape must be nonnegative", id="matrix-shape"),
        pytest.param(lambda: BitMatrix(2, 2, [0]), ValueError, "row count does not match data", id="matrix-rows"),
        pytest.param(
            lambda: BitMatrix(2, 2, [0, 4]), ValueError, "row bits fall outside the declared width", id="matrix-width"
        ),
        # only nonzero rows are checked, so a bad row among zero rows must still be caught
        pytest.param(
            lambda: BitMatrix(4, 4, [0, 0, -1, 0]),
            ValueError,
            "row bits fall outside the declared width",
            id="matrix-negative-among-zeros",
        ),
        pytest.param(
            lambda: BitMatrix(4, 4, [0, 0, 0, 1 << 90]),
            ValueError,
            "row bits fall outside the declared width",
            id="matrix-width-among-zeros",
        ),
        pytest.param(lambda: BitMatrix.from_numpy(np.zeros(3)), ValueError, "expected a 2-d array", id="from-numpy-1d"),
        # a float index raises; it is never truncated to an int
        pytest.param(
            lambda: BitVector.from_indices(64, [3.7]),
            TypeError,
            "unsupported operand type(s) for >>: 'float' and 'int'",
            id="from-indices-float",
        ),
        pytest.param(
            lambda: BitVector.from_indices(64, [1, 2.0]),
            TypeError,
            "unsupported operand type(s) for >>: 'float' and 'int'",
            id="from-indices-float-after-int",
        ),
        pytest.param(lambda: BitVector(2) & BitVector(3), DimensionError, "length mismatch: 2 vs 3", id="and-lengths"),
        pytest.param(lambda: BitVector(2)[2], IndexError, "2", id="getitem-past-end"),
        pytest.param(lambda: BitVector(2)[-1], IndexError, "-1", id="getitem-negative"),
        pytest.param(
            lambda: JoinInstance(BitMatrix(2, 3, [0, 0]), BitMatrix(2, 2, [0, 0]), 1, 0),
            DimensionError,
            "expected A of shape m x n against B of shape n x m",
            id="instance-inner",
        ),
        pytest.param(
            lambda: JoinInstance(BitMatrix(2, 3, [0, 0]), BitMatrix(3, 3, [0, 0, 0]), 1, 0),
            DimensionError,
            "expected A of shape m x n against B of shape n x m",
            id="instance-outer",
        ),
    ],
)
def test_input_checks_reject_with_their_message(call, error, message):
    with pytest.raises(error) as raised:
        call()
    assert raised.type is error and str(raised.value) == message
