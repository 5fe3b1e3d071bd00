"""Join protocols against the brute-force products, plus cost-model checks."""

import math
import random

import pytest

from joinlab.f2core import (
    BitMatrix,
    BitVector,
    JoinInstance,
    bool_product,
    f2_product,
    gen_promise_instance,
)
from joinlab.joins import (
    DecodeBudgetError,
    PromiseViolationError,
    SensingSketch,
    bmm,
    bmm_cost_model,
    bmm_with_trace,
    classify_columns,
    freivalds_columns,
    freivalds_round,
    gen_hard_instance,
    mm_f2,
)
from joinlab.ledger import CommLedger, InertLedger, index_qubits
from joinlab.qsim import CostModel

EXACT = CostModel.exact_mode()


# ---------------------------------------------------------------------------
# bmm
# ---------------------------------------------------------------------------


def test_bmm_zero_input():
    inst = JoinInstance.build(BitMatrix.zeros(6, 6), BitMatrix.zeros(6, 6), ell=4)
    led = CommLedger()
    out = bmm(inst, EXACT, led, random.Random(0))
    assert out.is_zero()
    assert led.total() > 0  # the terminating search is still paid for


def test_bmm_identity_b():
    rng = random.Random(9)
    a = BitMatrix.random(8, 8, 0.2, rng)
    inst = JoinInstance.build(a, BitMatrix.identity(8), ell=a.weight() + 1)
    out = bmm(inst, EXACT, CommLedger(), random.Random(1))
    assert out == a


def test_bmm_matches_oracle_and_never_spurious():
    trials = 30
    good = 0
    for tr in range(trials):
        seed = 91000 + 97 * tr
        inst = gen_promise_instance(32, 32, 32, seed)
        out, trace = bmm_with_trace(inst, EXACT, CommLedger(), random.Random(seed))
        good += out == inst.oracle_product
        for mine, truth in zip(out.data, inst.oracle_product.data):
            assert mine & ~truth == 0
        assert sum(trace.lambdas) == out.weight()
        assert trace.t <= min(inst.A.cols, inst.ell + 1)
    assert good >= int(0.8 * trials)


def test_bmm_promise_violation_detected():
    ones = BitMatrix.ones(6, 6)
    inst = JoinInstance(ones, ones, ell=4, seed=0, kind="bool", oracle_product=bool_product(ones, ones))
    with pytest.raises(PromiseViolationError):
        bmm(inst, EXACT, CommLedger(), random.Random(0))


def test_bmm_inert_ledger_same_output():
    inst = gen_promise_instance(16, 16, 8, seed=123)
    a = bmm(inst, EXACT, CommLedger(), random.Random(5))
    b = bmm(inst, EXACT, InertLedger(), random.Random(5))
    assert a == b


def test_bmm_exact_mode_size_cap():
    big = BitMatrix.zeros(1 << 10 | 1, 8)
    inst = JoinInstance.build(big, big.transpose(), ell=1)
    with pytest.raises(Exception):
        bmm(inst, EXACT, CommLedger(), random.Random(0))


def test_bmm_witness_weight_bound_under_promise():
    # any witness pair certifies a block of output ones, so its min weight
    # cannot exceed sqrt(ell)
    for seed in range(25):
        inst = gen_promise_instance(24, 24, 36, seed=seed)
        _, trace = bmm_with_trace(inst, EXACT, CommLedger(), random.Random(seed))
        for rnd in trace.rounds:
            assert rnd.min_weight <= math.sqrt(inst.ell)


# ---------------------------------------------------------------------------
# bmm cost model
# ---------------------------------------------------------------------------


def test_cost_model_zero_instance_single_failed_search():
    inst = JoinInstance.build(BitMatrix.zeros(16, 16), BitMatrix.zeros(16, 16), ell=4)
    led = CommLedger()
    trace = bmm_cost_model(inst, CostModel.cost_model(), led, random.Random(0))
    assert trace.t == 0
    assert trace.product.is_zero()
    expected = math.ceil(math.sqrt(16)) * 1 * index_qubits(16)
    assert led.qubits == 2 * expected
    assert led.phase_total("final-search") == led.total()


def test_cost_model_single_witness_formula():
    # one witness column/row pair, one collision cell
    n = 16
    a = BitMatrix.zeros(n, n).with_ones([(3, 5)])
    b = BitMatrix.zeros(n, n).with_ones([(5, 7)])
    inst = JoinInstance.build(a, b, ell=1)
    led = CommLedger()
    model = CostModel.cost_model()
    trace = bmm_cost_model(inst, model, led, random.Random(0))
    assert trace.t == 1 and trace.lambdas == [1]
    width = index_qubits(n)
    search = math.ceil(math.sqrt(n / 1)) * math.ceil(math.sqrt(1)) * width
    collect = math.ceil(math.sqrt(1 * 1)) * width
    final = math.ceil(math.sqrt(n)) * math.ceil(math.sqrt(1)) * width
    assert led.qubits == 2 * (search + collect + final)


def test_cost_model_product_matches_oracle():
    for seed in range(15):
        inst = gen_promise_instance(24, 24, 24, seed=seed)
        trace = bmm_cost_model(inst, CostModel.cost_model(), CommLedger(), random.Random(seed))
        assert trace.product == inst.oracle_product
        assert sum(trace.lambdas) == inst.oracle_product.weight()
        assert trace.t <= min(24, inst.ell + 1)


def test_cost_model_discovery_order_seeded():
    inst = gen_promise_instance(24, 24, 24, seed=5)
    t1 = bmm_cost_model(inst, CostModel.cost_model(), CommLedger(), random.Random(8))
    t2 = bmm_cost_model(inst, CostModel.cost_model(), CommLedger(), random.Random(8))
    assert [r.witness for r in t1.rounds] == [r.witness for r in t2.rounds]


def test_hard_instance_structure():
    inst = gen_hard_instance(128, 144, seed=3)
    w = math.isqrt(144) // 2
    assert inst.oracle_product.weight() <= 144
    trace = bmm_cost_model(inst, CostModel.cost_model(), CommLedger(), random.Random(1))
    # every pooled corner forces its own round, min weight w on both sides
    assert trace.t == w * w
    assert all(r.min_weight == w for r in trace.rounds)
    assert trace.product == inst.oracle_product


# ---------------------------------------------------------------------------
# freivalds
# ---------------------------------------------------------------------------


def test_freivalds_zero_product_never_flags():
    rng = random.Random(2)
    a = BitMatrix.zeros(5, 7)
    b = BitMatrix.random(7, 7, 0.5, rng)
    assert freivalds_columns(a, b, 10, CommLedger(), rng) == set()


def test_freivalds_single_column_detection_is_half():
    # one nonzero product column; every probe vector enumerated
    a = BitMatrix.from_rows([[1, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0]])
    b = BitMatrix.from_rows([[0, 0, 1, 0], [0] * 4, [0] * 4, [0] * 4])
    assert f2_product(a, b).col(2).weight() > 0
    detections = 0
    for vbits in range(8):
        res = freivalds_round(a, b, BitVector(3, vbits), InertLedger())
        detections += res[2]
        assert res.with_bit(2, 0).is_zero()  # other columns stay silent
    assert detections == 4


def test_freivalds_round_charges_2n():
    rng = random.Random(0)
    a = BitMatrix.random(6, 9, 0.5, rng)
    b = BitMatrix.random(9, 9, 0.5, rng)
    led = CommLedger()
    freivalds_round(a, b, BitVector.random(6, 0.5, rng), led)
    assert led.bits == 18 and led.qubits == 0


def test_freivalds_finds_nonzero_columns():
    n = 32
    good = 0
    trials = 100
    reps = max(1, math.ceil(math.log2(100 * n)))
    for tr in range(trials):
        rng = random.Random(700 + tr)
        a = BitMatrix.random(n, n, 0.1, rng)
        b = BitMatrix.random(n, n, 0.1, rng)
        product = f2_product(a, b)
        truth = {j for j in range(n) if product.col(j).weight() > 0}
        got = freivalds_columns(a, b, reps, InertLedger(), rng)
        good += got == truth
    assert good >= 99


# ---------------------------------------------------------------------------
# sensing sketch
# ---------------------------------------------------------------------------


def test_sketch_zero_vector():
    sk = SensingSketch(64, 4, seed=1)
    meas = sk.encode(BitVector(64))
    assert meas.is_zero()
    assert sk.decode(meas) == BitVector(64)


def test_sketch_single_coordinate():
    sk = SensingSketch(64, 4, seed=2)
    x = BitVector.from_indices(64, [17])
    meas = sk.encode(x)
    # level-0 bucket of 17 carries its parity and its code word
    bucket = sk.bucket_of[0][17]
    off = sk._offset(0, bucket)
    assert (meas.bits >> off) & 1 == 1
    mask = (1 << sk.code_bits) - 1
    assert (meas.bits >> (off + 1)) & mask == sk.code_of[0][17]
    assert sk.decode(meas) == x


def test_sketch_linearity_exact():
    sk = SensingSketch(128, 6, seed=3)
    rng = random.Random(4)
    for _ in range(200):
        x = BitVector.random(128, 0.1, rng)
        y = BitVector.random(128, 0.1, rng)
        assert sk.encode(x ^ y) == sk.encode(x) ^ sk.encode(y)


def test_sketch_measurement_length():
    sk = SensingSketch(256, 8, seed=0)
    assert sk.measurement_len == sk.levels * 2 * 8 * (1 + 8)
    assert sk.levels == math.ceil(math.log2(100 * 8))


def test_sketch_recovery_rate_quick():
    good = 0
    trials = 300
    for tr in range(trials):
        rng = random.Random(777000 + tr)
        sk = SensingSketch(256, 8, seed=rng.getrandbits(32))
        x = BitVector.random_weight(256, rng.randint(0, 8), rng)
        good += sk.decode(sk.encode(x)) == x
    assert good / trials > 0.98


def test_sketch_decode_failure_is_reported():
    # overload far past the sparsity budget; decode must fail loudly (None),
    # never return a wrong vector silently
    sk = SensingSketch(128, 2, seed=9)
    rng = random.Random(10)
    outcomes = {"ok": 0, "fail": 0}
    for _ in range(50):
        x = BitVector.random_weight(128, 40, rng)
        got = sk.decode(sk.encode(x))
        if got is None:
            outcomes["fail"] += 1
        else:
            assert got == x
            outcomes["ok"] += 1
    assert outcomes["fail"] > 0


# ---------------------------------------------------------------------------
# mm_f2
# ---------------------------------------------------------------------------


def test_mm_f2_zero_b():
    a = BitMatrix.random(16, 16, 0.3, random.Random(1))
    inst = JoinInstance.build(a, BitMatrix.zeros(16, 16), ell=4, kind="f2")
    led = CommLedger()
    out = mm_f2(inst, led, random.Random(2))
    assert out.is_zero()
    assert led.phase_total("dense-transfer") == 0  # no column looks dense


def test_mm_f2_identity_a():
    rng = random.Random(3)
    b = BitMatrix.random(16, 16, 0.1, rng)
    inst = JoinInstance.build(BitMatrix.identity(16), b, ell=b.weight() + 1, kind="f2")
    out = mm_f2(inst, CommLedger(), random.Random(4))
    assert out == b


def test_mm_f2_requires_f2_kind():
    inst = gen_promise_instance(16, 16, 8, seed=0, kind="bool")
    with pytest.raises(ValueError):
        mm_f2(inst, CommLedger(), random.Random(0))


def test_mm_f2_matches_oracle():
    good = 0
    trials = 30
    for tr in range(trials):
        seed = 5200 + 31 * tr
        inst = gen_promise_instance(64, 64, 16, seed, kind="f2")
        out = mm_f2(inst, CommLedger(), random.Random(seed))
        good += out == inst.oracle_product
    assert good >= int(0.9 * trials)


def test_mm_f2_cost_deterministic_in_n_ell():
    costs = set()
    for seed in (1, 2, 3):
        inst = gen_promise_instance(64, 64, 16, seed, kind="f2")
        led = CommLedger()
        mm_f2(inst, led, random.Random(seed))
        costs.add(led.bits)
    assert len(costs) <= 2  # dense-transfer may add |S| * n for flagged cells


def test_classification_captures_clearly_dense_columns():
    n, ell = 64, 16
    captured = 0
    pure = 0
    trials = 100
    for tr in range(trials):
        rng = random.Random(40000 + tr)
        j_star = rng.randrange(n)
        rows = set(rng.sample(range(n), ell))
        a = BitMatrix(n, n, [1 if i in rows else 0 for i in range(n)])
        b = BitMatrix(n, n, [(1 << j_star) if k == 0 else 0 for k in range(n)])
        inst = JoinInstance.build(a, b, ell, tr, "f2")
        cls = classify_columns(inst, InertLedger(), rng, 19, 13)
        captured += j_star in cls.dense
        pure += all(inst.oracle_product.col(j).weight() >= cls.lo for j in cls.dense)
    assert captured / trials >= 0.95
    assert pure / trials >= 0.95


def test_classification_leaves_scattered_columns_sparse():
    # ell ones in ell distinct columns: every column sits far below the
    # dense threshold and must stay out of S (band columns may go either way,
    # but these are weight-1 columns)
    n, ell = 64, 16
    clean = 0
    trials = 100
    for tr in range(trials):
        rng = random.Random(52000 + tr)
        cols = rng.sample(range(n), ell)
        rows = rng.sample(range(n), ell)
        a = BitMatrix.identity(n)
        b = BitMatrix.zeros(n, n).with_ones(zip(rows, cols))
        inst = JoinInstance.build(a, b, ell, tr, "f2")
        cls = classify_columns(inst, InertLedger(), rng, 19, 13)
        clean += len(cls.dense) == 0
    assert clean / trials >= 0.95


def test_classification_size_bound():
    for tr in range(50):
        seed = 61000 + tr
        inst = gen_promise_instance(64, 64, 36, seed, kind="f2")
        cls = classify_columns(inst, InertLedger(), random.Random(seed), 19, 13)
        assert len(cls.dense) <= math.ceil(inst.ell / (0.9 * math.sqrt(inst.ell)))
