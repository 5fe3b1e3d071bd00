"""Join protocols against the brute-force products, plus cost-model checks."""

import gc
import itertools
import math
import random
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from joinlab import f2core, joins
from joinlab.f2core import (
    BitMatrix,
    BitVector,
    DimensionError,
    InstanceError,
    JoinInstance,
    _iter_bits,
    bool_product,
    f2_product,
    gen_promise_instance,
)
from joinlab.joins import (
    BmmRound,
    BmmTrace,
    DecodeBudgetError,
    PromiseViolationError,
    SensingSketch,
    _inner_iterations,
    _probe_rounds,
    bmm_cost_model,
    bmm_with_trace,
    classify_columns,
    freivalds_round,
    gen_hard_instance,
    mm_f2,
)
from joinlab.ledger import A_TO_B, B_TO_A, BITS, QUBITS, CommLedger, index_qubits
from joinlab.qsim import (
    BipartiteGraph,
    CostModel,
    GroverPlan,
    ProtocolError,
    SimulationCapError,
    graph_collision_all,
    instance_search,
)
from joinlab.reductions import embed_ip_f2

EXACT = CostModel.exact_mode()


# ---------------------------------------------------------------------------
# bmm
# ---------------------------------------------------------------------------


def test_bmm_zero_input():
    inst = JoinInstance.build(BitMatrix(6, 6, [0] * 6), BitMatrix(6, 6, [0] * 6), ell=4)
    led = CommLedger()
    out = bmm_with_trace(inst, EXACT, led, random.Random(0))[0]
    assert out.weight() == 0
    assert led.total() > 0  # the terminating search is still paid for


def test_bmm_identity_b():
    rng = random.Random(9)
    a = BitMatrix.random(8, 8, 0.2, rng)
    inst = JoinInstance.build(a, BitMatrix.identity(8), ell=a.weight() + 1)
    out = bmm_with_trace(inst, EXACT, CommLedger(), random.Random(1))[0]
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
    ones = BitMatrix(6, 6, [0b111111] * 6)
    inst = JoinInstance(ones, ones, ell=4, seed=0, kind="bool", oracle_product=bool_product(ones, ones))
    with pytest.raises(PromiseViolationError):
        bmm_with_trace(inst, EXACT, CommLedger(), random.Random(0))


def test_bmm_output_does_not_read_the_ledger():
    inst = gen_promise_instance(16, 16, 8, seed=123)
    fresh, used = CommLedger(), CommLedger()
    used.charge(A_TO_B, BITS, 3, "earlier")
    a = bmm_with_trace(inst, EXACT, fresh, random.Random(5))[0]
    b = bmm_with_trace(inst, EXACT, used, random.Random(5))[0]
    assert a == b == inst.oracle_product
    assert used.amounts == {(A_TO_B, BITS, "earlier"): 3, **fresh.amounts} and len(used) == len(fresh) + 1


def test_bmm_exact_mode_size_cap():
    inst = gen_promise_instance(1 << 12, 1 << 12, 4, seed=12)
    assert bmm_with_trace(inst, EXACT, CommLedger(), random.Random(12))[0] == inst.oracle_product
    big = BitMatrix(1 << 12 | 1, 8, [0] * (1 << 12 | 1))
    inst = JoinInstance.build(big, big.transpose(), ell=1)
    with pytest.raises(SimulationCapError):
        bmm_with_trace(inst, EXACT, CommLedger(), random.Random(0))


def test_bmm_witness_weight_bound_under_promise():
    # any witness pair certifies a block of output ones, so its min weight
    # cannot exceed sqrt(ell)
    for seed in range(25):
        inst = gen_promise_instance(24, 24, 36, seed=seed)
        _, trace = bmm_with_trace(inst, EXACT, CommLedger(), random.Random(seed))
        for rnd in trace.rounds:
            assert rnd.min_weight <= math.sqrt(inst.ell)


def _spied_searches(monkeypatch, stop_after=None):
    """Route joins' instance searches through the real one, recording each result and the ledger
    total it added; past ``stop_after`` witnesses every search reports None (still charged)."""
    calls = []

    def search(instances, answers, ledger, *args, **kwargs):
        before = ledger.total()
        k = instance_search(instances, answers, ledger, *args, **kwargs)
        if stop_after is not None and sum(c is not None for c, _ in calls) == stop_after:
            k = None
        calls.append((k, ledger.total() - before))
        return k

    monkeypatch.setattr(joins, "instance_search", search)
    return calls


def test_exact_bmm_that_stops_early_keeps_its_verified_rounds(monkeypatch):
    inst = gen_promise_instance(32, 32, 32, seed=6)
    calls = _spied_searches(monkeypatch, stop_after=2)
    led = CommLedger()
    out, trace = bmm_with_trace(inst, EXACT, led, random.Random(6))
    assert trace.t == 2 and [r.witness for r in trace.rounds] == [k for k, _ in calls if k is not None]
    truth = inst.oracle_product
    assert out != truth and all(mine & ~row == 0 for mine, row in zip(out.data, truth.data))
    assert sum(trace.lambdas) == out.weight()
    # every search the run made, the ones told to miss included, is on the run's ledger
    assert calls[-1][0] is None and all(charged > 0 for _, charged in calls)


def _search_miss_probability(big_n: int) -> np.ndarray:
    """Exact chance, for each marked count t in [1, big_n], that one exact instance search over
    big_n entries under ``GroverPlan.default`` finds nothing: the product over its caps of
    1 - mean over k < cap of sin^2((2k + 1) asin(sqrt(t / big_n)))."""
    theta = np.arcsin(np.sqrt(np.arange(1, big_n + 1) / big_n))
    miss = np.ones(big_n)
    for cap in GroverPlan.default(big_n).caps:
        miss *= 1 - np.mean(np.sin(np.outer(theta, 2 * np.arange(cap) + 1)) ** 2, axis=1)
    return miss


def test_final_searches_meet_the_per_round_bound_by_the_exact_miss_probability(monkeypatch):
    # premise of the base-3 count: one search misses with probability at most 1/3 for every (N, t)
    worst = {big_n: _search_miss_probability(big_n).max() for big_n in (*range(1, 65), 256, 1000, 1024, 4096)}
    assert max(worst.values()) <= 1 / 3
    zero = BitMatrix(32, 32, [0] * 32)
    cases = [
        gen_promise_instance(8, 8, 1, seed=3),
        gen_promise_instance(16, 16, 16, seed=4),
        gen_promise_instance(32, 32, 64, seed=5),
        gen_hard_instance(64, 64, seed=6),
        JoinInstance.build(zero, zero, ell=1024),
    ]
    for inst in cases:
        calls = _spied_searches(monkeypatch)
        out = bmm_with_trace(inst, EXACT, CommLedger(), random.Random(inst.ell))[0]
        assert out == inst.oracle_product
        # the searches after the last witness are the round that ended the run
        final = len(calls) - 1 - max((i for i, (k, _) in enumerate(calls) if k is not None), default=-1)
        bound = 1 / (100 * (inst.ell + 2))
        assert (1 / 3) ** final <= bound
        assert worst[inst.A.cols] ** final <= bound


# ---------------------------------------------------------------------------
# bmm cost model
# ---------------------------------------------------------------------------


def test_cost_model_zero_instance_single_failed_search():
    inst = JoinInstance.build(BitMatrix(16, 16, [0] * 16), BitMatrix(16, 16, [0] * 16), ell=4)
    led = CommLedger()
    trace = bmm_cost_model(inst, CostModel.cost_model(), led, random.Random(0))
    assert trace.t == 0
    assert trace.product.weight() == 0
    expected = math.ceil(math.sqrt(16)) * 1 * index_qubits(16)
    assert led.qubits == 2 * expected
    assert sum(led.report()["phases"]["final-search"].values()) == led.total()


def test_cost_model_single_witness_formula():
    # one witness column/row pair, one collision cell
    n = 16
    a = BitMatrix(n, n, [1 << 5 if i == 3 else 0 for i in range(n)])
    b = BitMatrix(n, n, [1 << 7 if i == 5 else 0 for i in range(n)])
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


def _replay_charges_by_formula(inst, model, trace) -> dict:
    """``bmm_cost_model``'s charges from its docstring's formulas, with t_cur, lambda and w_k of each
    round recomputed by brute force from A, B and the cells earlier rounds collected."""
    A = np.array([[x >> j & 1 for j in range(inst.A.cols)] for x in inst.A.data], dtype=np.int64)
    B = np.array([[x >> j & 1 for j in range(inst.B.cols)] for x in inst.B.data], dtype=np.int64)
    (m, n), width = A.shape, math.ceil(math.log2(A.shape[0]))
    weights = np.minimum(A.sum(axis=0), B.sum(axis=1))
    collected = np.zeros((m, m), dtype=np.int64)
    totals = {"search": 0, "collect": 0}
    for rnd in trace.rounds:
        # inner index k is live while some cell of A[., k] x B[k, .] is not yet collected
        live = np.flatnonzero(((A.T @ (1 - collected)) * B).sum(axis=1))
        assert rnd.witness in live
        k = rnd.witness
        cells = np.outer(A[:, k], B[k]) & (1 - collected)
        lam, w = int(cells.sum()), int(weights[k])
        assert (rnd.collisions, rnd.min_weight) == (lam, w)
        outer = math.ceil(model.c_shuttle * math.sqrt(n / len(live)))
        totals["search"] += outer * math.ceil(model.c_round * math.sqrt(w)) * width
        totals["collect"] += math.ceil(model.c_round * math.sqrt(lam * w)) * width
        collected |= cells
    assert not ((A.T @ (1 - collected)) * B).any()  # the run ends with t_cur = 0
    assert trace.product == BitMatrix(m, m, [sum(int(b) << j for j, b in enumerate(row)) for row in collected])
    w_max = int(weights.max())
    inner = math.ceil(model.c_round * math.sqrt(w_max)) if w_max else 1
    totals["final-search"] = math.ceil(model.c_shuttle * math.sqrt(n)) * inner * width
    return {(way, QUBITS, phase): amount for phase, amount in totals.items() if amount for way in (A_TO_B, B_TO_A)}


REPLAY_LAW_INSTANCES = [
    *(("planted", n, ell, seed) for n in (16, 32) for ell in (n // 2, n, 2 * n) for seed in range(3)),
    *(("hard", n, ell, 0) for n, ell in ((16, 16), (64, 36), (64, 64))),
]


@pytest.mark.parametrize("model", [CostModel.cost_model(), CostModel.cost_model(c_shuttle=1.5, c_round=2.0)])
@pytest.mark.parametrize("family, n, ell, seed", REPLAY_LAW_INSTANCES)
def test_replay_charges_follow_the_per_round_formulas(family, n, ell, seed, model):
    if family == "planted":
        inst = gen_promise_instance(n, n, ell, seed)
    else:
        inst = gen_hard_instance(n, ell, seed)
    led = CommLedger()
    trace = bmm_cost_model(inst, model, led, random.Random(100 + seed))
    assert trace.t >= 1
    assert led.amounts == _replay_charges_by_formula(inst, model, trace)


@st.composite
def bmm_cases(draw):
    """A planted, hard-family or all-zero Boolean instance, a cost model and an rng seed."""
    family = draw(st.sampled_from(("planted", "hard", "zero")))
    n = draw(st.sampled_from((4, 12, 32)))
    seed = draw(st.integers(0, 2**32 - 1))
    if family == "planted":
        inst = gen_promise_instance(n, n, draw(st.integers(1, 2 * n)), seed, "bool")
    elif family == "hard":
        inst = gen_hard_instance(n, draw(st.integers(4, 2 * n)), seed)
    else:
        inst = JoinInstance.build(BitMatrix(n, n, [0] * n), BitMatrix(n, n, [0] * n), draw(st.integers(1, n)))
    model = draw(st.sampled_from((EXACT, CostModel.cost_model(), CostModel.cost_model(2.0, 1.5))))
    return inst, model, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=60)
@given(bmm_cases())
@example((gen_hard_instance(32, 36, 5), EXACT, 1))
@example((gen_promise_instance(12, 12, 24, 3, "bool"), CostModel.cost_model(), 2))
def test_bmm_entry_points_run_one_loop(case):
    """bmm_with_trace and bmm_cost_model give the same run for either cost model."""
    inst, model, seed = case
    runs = []
    for run in (lambda *a: bmm_with_trace(*a)[1], bmm_cost_model):
        rng, led = random.Random(seed), CommLedger()
        trace = run(inst, model, led, rng)
        runs.append((trace.product, trace.rounds, led.amounts, len(led), rng.getrandbits(32)))
    assert runs[0] == runs[1]
    assert runs[0][0] == inst.oracle_product or model.exact


def _reference_search_and_collect(instance, model, ledger, rng) -> BmmTrace:
    """The search-and-collect loop over all n inner indices, through full transposes.

    It keeps per-index state for every k in [n] and picks cost-model
    witnesses from ``np.flatnonzero`` of an n-long live mask: the slow form
    that the active-index set-up of ``_search_and_collect`` must match.
    """
    A, B = instance.A, instance.B
    m, n = A.rows, A.cols
    none_repeats = max(1, math.ceil(math.log(100.0 * (instance.ell + 2)) / math.log(3.0)))
    a_t, b_t = A.transpose(), B.transpose()
    weights = [(col.bit_count(), row.bit_count()) for col, row in zip(a_t.data, B.data)]
    min_w = [min(w) for w in weights]
    uncovered = [wa * wb for wa, wb in weights]
    live = np.array(uncovered, dtype=bool)
    width = index_qubits(m)
    inner_budget = _inner_iterations(max(min_w, default=0), model.c_round)

    def pay(amount, phase):
        ledger.charge(A_TO_B, QUBITS, amount, phase)
        ledger.charge(B_TO_A, QUBITS, amount, phase)

    uncollected = BipartiteGraph.complete(m, m)
    out_rows = uncollected.missing_rows
    ones, trace = 0, BmmTrace()
    while True:
        if model.exact:
            k = None
            for _ in range(none_repeats):
                k = instance_search(range(n), np.flatnonzero(live).tolist(), ledger, model, rng,
                                    inner_cost_qubits=inner_budget * 2 * width)
                if k is not None:
                    break
            if k is None:
                break
            f_a, f_b = BitVector(m, a_t.data[k]), BitVector(m, B.data[k])
            for _ in range(100):
                cells = graph_collision_all(uncollected, f_a, f_b, ledger, model, rng)
                if cells:
                    break
            else:
                raise ProtocolError("collision collection stalled on a verified witness")
        else:
            marked = np.flatnonzero(live)
            t_cur = len(marked)
            if not t_cur:
                pay(math.ceil(model.c_shuttle * math.sqrt(n)) * inner_budget * width, "final-search")
                break
            k = int(marked[rng.randrange(t_cur)])
            cells = [(i, j) for i in _iter_bits(a_t.data[k]) for j in _iter_bits(B.data[k] & ~out_rows[i])]
            inner = _inner_iterations(min_w[k], model.c_round)
            pay(math.ceil(model.c_shuttle * math.sqrt(n / t_cur)) * inner * width, "search")
            pay(max(1, math.ceil(model.c_round * math.sqrt(len(cells) * min_w[k]))) * width, "collect")
        for i, j in cells:
            uncollected.remove_edge(i, j)
            for kk in _iter_bits(A.data[i] & b_t.data[j]):
                uncovered[kk] -= 1
                if not uncovered[kk]:
                    live[kk] = False
        ones += len(cells)
        if ones > instance.ell:
            raise PromiseViolationError(f"found {ones} ones, promise allows {instance.ell}")
        trace.rounds.append(BmmRound(k, len(cells), min_w[k]))
    trace.product = BitMatrix(m, m, out_rows)
    return trace


def _sparse_rows(count, width, seed, density, zero_rows):
    rng = random.Random(seed)
    return [
        0 if rng.random() < zero_rows else sum(1 << j for j in range(width) if rng.random() < density)
        for _ in range(count)
    ]


@st.composite
def sparse_bool_cases(draw):
    """A sparse m x n by n x m instance, m and n free, with zero rows on either side, and a promise."""
    m, n = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    a_rows = _sparse_rows(m, n, draw(st.integers(0, 2**32 - 1)), draw(st.floats(0.0, 0.5)), draw(st.floats(0.0, 0.9)))
    b_rows = _sparse_rows(n, m, draw(st.integers(0, 2**32 - 1)), draw(st.floats(0.0, 0.5)), draw(st.floats(0.0, 0.9)))
    weight = bool_product(BitMatrix(m, n, a_rows), BitMatrix(n, m, b_rows)).weight()
    # an ell just below the weight breaks the promise mid-run
    ell = draw(st.integers(max(1, weight - 1), max(1, weight + 2)))
    return a_rows, b_rows, ell


class _BoundedRandom(random.Random):
    """``random.Random`` that raises on its 10,001st ``randrange``, so a run that never ends fails instead."""

    calls = 0

    def randrange(self, *args):
        self.calls += 1
        if self.calls > 10_000:
            raise RuntimeError("the run drew 10,000 ranges without ending")
        return super().randrange(*args)


def _bmm_outcome(run, inst, model, seed):
    rng, led = _BoundedRandom(seed), CommLedger()
    try:
        trace = run(inst, model, led, rng)
        result = ([(r.witness, r.collisions, r.min_weight) for r in trace.rounds], trace.product)
    except PromiseViolationError:
        result = "promise-violation"
    return result, dict(led.amounts), len(led), rng.getstate()


@settings(max_examples=200, deadline=None)
@given(
    sparse_bool_cases(),
    st.sampled_from((EXACT, CostModel.cost_model(), CostModel.cost_model(1.5, 2.0))),
    st.integers(0, 2**32 - 1),
)
# A's rows name the inner indices out of order, and index 1 has a column of A but no row of B
@example(([0b0100, 0b1011, 0b0010], [0b101, 0, 0b011, 0b110], 9), CostModel.cost_model(), 3)
@example(([0b0100, 0b1011, 0b0010], [0b101, 0, 0b011, 0b110], 9), EXACT, 3)
# every inner index is one-sided, so the product is empty
@example(([0b011, 0, 0b001, 0b010], [0, 0, 0b1111], 1), CostModel.cost_model(), 0)
@example(([0b011, 0, 0b001, 0b010], [0, 0, 0b1111], 1), EXACT, 0)
def test_bmm_active_index_setup_matches_full_transpose_reference(case, model, seed):
    a_rows, b_rows, ell = case
    m, n = len(a_rows), len(b_rows)
    inst = JoinInstance.build(BitMatrix(m, n, a_rows), BitMatrix(n, m, b_rows), ell)
    want = _bmm_outcome(_reference_search_and_collect, inst, model, seed)
    assert _bmm_outcome(lambda *a: bmm_with_trace(*a)[1], inst, model, seed) == want
    assert _bmm_outcome(bmm_cost_model, inst, model, seed) == want
    if want[0] != "promise-violation":
        assert want[0][1] == inst.oracle_product or model.exact


# words the 12 x 12 cases above never make: n-bit rows and columns, position masks of
# several 30-bit limbs, and a round that touches enough positions to go through _scan_bits
WIDE_BMM_CASES = {
    "hard-2048-cost": (lambda: gen_hard_instance(2048, 256, 3), CostModel.cost_model()),
    "hard-2048-cost-1.5-2": (lambda: gen_hard_instance(2048, 256, 4), CostModel.cost_model(1.5, 2.0)),
    "hard-8192-cost": (lambda: gen_hard_instance(8192, 256, 5), CostModel.cost_model()),
    "hard-8192-cost-1.5-2": (lambda: gen_hard_instance(8192, 256, 6), CostModel.cost_model(1.5, 2.0)),
    "planted-4096-cost": (lambda: gen_promise_instance(4096, 4096, 64, 4096), CostModel.cost_model()),
    "hard-1024-exact": (lambda: gen_hard_instance(1024, 256, 7), EXACT),
}


@pytest.mark.parametrize("case", WIDE_BMM_CASES)
def test_bmm_wide_words_match_per_cell_count_reference(case):
    build, model = WIDE_BMM_CASES[case]
    inst = build()
    want = _bmm_outcome(_reference_search_and_collect, inst, model, 11)
    assert _bmm_outcome(lambda *a: bmm_with_trace(*a)[1], inst, model, 11) == want
    assert _bmm_outcome(bmm_cost_model, inst, model, 11) == want
    assert want[0][1] == inst.oracle_product


def test_bmm_cost_model_never_transposes(monkeypatch):
    inst = gen_hard_instance(1 << 14, 256, seed=11)

    def refuse(self):
        raise AssertionError("the bmm replay transposed a matrix")

    monkeypatch.setattr(BitMatrix, "transpose", refuse)
    trace = bmm_cost_model(inst, CostModel.cost_model(), CommLedger(), random.Random(11))
    assert trace.product == inst.oracle_product
    assert trace.t == (math.isqrt(256) // 2) ** 2


@given(st.integers(2, 64).flatmap(lambda n: st.tuples(st.just(n), st.integers(4, n * n), st.integers(0, 2**32))))
@example((2, 4, 0))
@example((64, 64 * 64, 1))
def test_hard_instance_fits_every_allowed_size(case):
    # every 4 <= ell <= n^2 builds: the product is the full square on the core plus both pools
    n, ell, seed = case
    w = math.isqrt(ell) // 2
    p = min(w, math.isqrt(n))
    inst = gen_hard_instance(n, ell, seed)
    assert inst.oracle_product.weight() == (w - 1 + p) ** 2 <= ell


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


def _reference_columns(a_side, b_side, repetitions, ledger, rng) -> set[int]:
    """Product columns seen nonzero by any of ``repetitions`` probes, each drawn bit by bit."""
    if repetitions < 1:
        raise ValueError("need at least one repetition")
    detected: set[int] = set()
    for _ in range(repetitions):
        v = 0
        for i in range(a_side.rows):
            if rng.random() < 0.5:
                v |= 1 << i
        detected.update(freivalds_round(a_side, b_side, BitVector(a_side.rows, v), ledger).indices())
    return detected


def test_freivalds_zero_product_never_flags():
    rng = random.Random(2)
    a = BitMatrix(5, 7, [0] * 5)
    b = BitMatrix.random(7, 7, 0.5, rng)
    assert _reference_columns(a, b, 10, CommLedger(), rng) == set()


def test_freivalds_single_column_detection_is_half():
    # one nonzero product column; every probe vector enumerated
    a = BitMatrix.from_numpy([[1, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0]])
    b = BitMatrix.from_numpy([[0, 0, 1, 0], [0] * 4, [0] * 4, [0] * 4])
    assert f2_product(a, b).transpose().data[2].bit_count() > 0
    detections = 0
    for vbits in range(8):
        res = freivalds_round(a, b, BitVector(3, vbits), CommLedger())
        detections += res[2]
        assert res.bits & ~(1 << 2) == 0  # other columns stay silent
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
        columns = product.transpose().data
        truth = {j for j in range(n) if columns[j].bit_count() > 0}
        got = _reference_columns(a, b, reps, CommLedger(), rng)
        good += got == truth
    assert good >= 99


# ---------------------------------------------------------------------------
# sensing sketch
# ---------------------------------------------------------------------------


def _field_offset(sk: SensingSketch, level: int, bucket: int) -> int:
    """Bit position of a bucket's field: 1 + code_bits bits per bucket, level after level."""
    return (level * sk.buckets + bucket) * (1 + sk.code_bits)


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
    bucket_of, code_of, _ = sk._tables
    off = _field_offset(sk, 0, bucket_of[0][17])
    assert (meas.bits >> off) & 1 == 1
    mask = (1 << sk.code_bits) - 1
    assert (meas.bits >> (off + 1)) & mask == code_of[0][17]
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


@pytest.mark.parametrize("n, kappa, word", [(0, 4, "domain"), (64, 0, "sparsity")])
def test_sketch_rejects_bad_sizes(n, kappa, word):
    with pytest.raises(ValueError, match=word):
        SensingSketch(n, kappa, seed=1)


def test_sketch_draws_no_tables_it_does_not_use():
    sk = SensingSketch(256, 8, seed=5)
    assert sk.measurement_len == sk.levels * sk.buckets * (1 + sk.code_bits)
    assert sk.encode(BitVector(256)).is_zero()
    assert sk.decode(BitVector(sk.measurement_len)) == BitVector(256)
    assert "_tables" not in vars(sk) and not sk._words
    sk.encode(BitVector.from_indices(256, [3]))
    assert "_tables" in vars(sk) and list(sk._words) == [3]


def test_sketch_words_do_not_tie_the_sketch_into_a_cycle():
    sk = SensingSketch(64, 4, seed=6)
    sk.decode(sk.encode(BitVector.from_indices(64, [5, 9])))
    ref = weakref.ref(sk)
    gc.disable()
    try:
        del sk
        assert ref() is None
    finally:
        gc.enable()


def _reference_tables(sk: SensingSketch) -> tuple[list[list[int]], list[list[int]]]:
    """Buckets and codes per level with Python ints, from the same parameter draws as the sketch."""
    rng = random.Random(sk.seed)
    bits = sk.code_bits
    space, shift = 1 << bits, (bits + 1) // 2

    def mix(x):
        return x ^ x >> shift

    bucket_of, code_of = [], []
    for _ in range(sk.levels):
        a, b = rng.getrandbits(64), rng.getrandbits(64)
        c1, c2 = rng.getrandbits(bits) | 1, rng.getrandbits(bits) | 1
        d = -c2 * mix(c1 * rng.randrange(sk.n, space) % space) if space > sk.n else rng.getrandbits(bits)
        bucket_of.append([((a * i + b) % 2**64 >> 32) * sk.buckets >> 32 for i in range(sk.n)])
        code_of.append([(c2 * mix(c1 * i % space) + d) % space for i in range(sk.n)])
    return bucket_of, code_of


@settings(max_examples=150)
@given(st.sampled_from((1, 2, 3, 17, 64, 257, 1024)), st.integers(1, 8), st.integers(0, 2**32 - 1))
@example(1, 1, 0)
@example(1024, 8, 2**32 - 1)
def test_sketch_hashes_are_invertible_codes_and_in_range_buckets(n, kappa, seed):
    sk = SensingSketch(n, kappa, seed)
    bucket_of, code_of, _ = sk._tables
    space = 1 << sk.code_bits
    assert (bucket_of, code_of) == _reference_tables(sk)
    for level in range(sk.levels):
        codes = code_of[level]
        assert len(set(codes)) == n
        assert all(0 <= c < space for c in codes)
        if space > n:
            assert 0 not in codes
        owner = dict(zip(codes, range(n)))
        for code in range(space):
            assert sk._coordinate(level, code) == owner.get(code)
        assert all(0 <= b < 2 * kappa for b in bucket_of[level])


def _reference_encode(sk: SensingSketch, x: BitVector) -> int:
    """The measurement built field by field: parity bit and code of each set coordinate, per level."""
    bucket_of, code_of, _ = sk._tables
    meas = 0
    for i in x.indices():
        for level in range(sk.levels):
            off = _field_offset(sk, level, bucket_of[level][i])
            meas ^= 1 << off
            meas ^= code_of[level][i] << (off + 1)
    return meas


@st.composite
def sketch_cases(draw):
    n = draw(st.sampled_from((1, 2, 3, 17, 64, 257)))
    kappa = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2**32 - 1))
    support = st.sets(st.integers(0, n - 1), max_size=min(n, 3 * kappa))
    return n, kappa, seed, draw(support), draw(support)


@given(sketch_cases())
@example((1, 1, 0, set(), {0}))
@example((257, 6, 7, {256}, {0, 256}))
@example((64, 1, 3058970982, {7, 9, 39}, {59, 61}))
def test_sketch_encode_matches_field_by_field_reference(case):
    n, kappa, seed, xs, ys = case
    sk = SensingSketch(n, kappa, seed)
    x, y = BitVector.from_indices(n, xs), BitVector.from_indices(n, ys)
    for v in (BitVector(n), x, y, BitVector.from_indices(n, [0]), BitVector.from_indices(n, [n - 1])):
        meas = sk.encode(v)
        assert meas.n == sk.measurement_len
        assert meas.bits == _reference_encode(sk, v)
    assert all(sk[i] == sk.encode(BitVector.from_indices(n, [i])).bits for i in xs | ys | {0, n - 1})
    assert sk.encode(x ^ y) == sk.encode(x) ^ sk.encode(y)
    assert SensingSketch(n, kappa, seed).encode(y) == sk.encode(y)
    assert sk.decode(BitVector(sk.measurement_len)) == BitVector(n)
    # decode only returns a vector whose measurement cancels the input's; past
    # the sparsity bound that could be x plus a kernel vector of the sketch (the
    # third example's {7, 9, 39} decodes to None and {59, 61} to itself), and
    # within the bound it is None or x
    for v in (x, y, x ^ y):
        d = sk.decode(sk.encode(v))
        assert d is None or sk.encode(d) == sk.encode(v)
        if v.weight() <= kappa:
            assert d in (None, v)


def _reference_decode(sk: SensingSketch, measurement: BitVector) -> BitVector | None:
    """The peeling decoder on parallel lists of parity bits and checksums, one pair per bucket.

    Codes are inverted through a dict built from the code table, not by the sketch's arithmetic.
    """
    bucket_of, code_of, _ = sk._tables
    code_inv = [{c: i for i, c in enumerate(codes)} for codes in code_of]

    def parse():
        parity = [[0] * sk.buckets for _ in range(sk.levels)]
        chks = [[0] * sk.buckets for _ in range(sk.levels)]
        bits = measurement.bits
        mask = (1 << sk.code_bits) - 1
        for level in range(sk.levels):
            for bucket in range(sk.buckets):
                off = _field_offset(sk, level, bucket)
                parity[level][bucket] = (bits >> off) & 1
                chks[level][bucket] = (bits >> (off + 1)) & mask
        return parity, chks

    def candidate(level, bucket):
        if parity[level][bucket] != 1:
            return None
        i = code_inv[level].get(chks[level][bucket])
        if i is None or bucket_of[level][i] != bucket:
            return None
        return i

    def confirmed(level, i):
        for other in range(sk.levels):
            if other == level:
                continue
            bucket = bucket_of[other][i]
            if parity[other][bucket] == 1 and chks[other][bucket] == code_of[other][i]:
                return True
        return False

    def peel(i):
        for level in range(sk.levels):
            bucket = bucket_of[level][i]
            parity[level][bucket] ^= 1
            chks[level][bucket] ^= code_of[level][i]

    if measurement.is_zero():
        return BitVector(sk.n)
    parity, chks = parse()
    recovered = 0
    budget = 8 * sk.kappa + 8
    while budget > 0:
        if all(p == 0 and c == 0 for lp, lc in zip(parity, chks) for p, c in zip(lp, lc)):
            return BitVector(sk.n, recovered)
        budget -= 1
        fallback = None
        chosen = None
        for level in range(sk.levels):
            for bucket in range(sk.buckets):
                i = candidate(level, bucket)
                if i is None:
                    continue
                if confirmed(level, i):
                    chosen = i
                    break
                if fallback is None:
                    fallback = i
            if chosen is not None:
                break
        if chosen is None:
            chosen = fallback
        if chosen is None:
            return None
        peel(chosen)
        recovered ^= 1 << chosen
    return None


@st.composite
def decode_cases(draw):
    """Sketch sizes and a measurement: the encoding of up to 6 kappa ones XOR nothing, a few bits or a random word."""
    n = draw(st.sampled_from((1, 2, 3, 17, 64, 257)))
    kappa = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2**32 - 1))
    length = SensingSketch(n, kappa, seed).measurement_len
    support = draw(st.sets(st.integers(0, n - 1), max_size=min(n, 6 * kappa)))
    noise = draw(
        st.one_of(
            st.just(0),
            st.builds(lambda ps: sum(1 << p for p in ps), st.sets(st.integers(0, length - 1), max_size=8)),
            st.integers(0, (1 << length) - 1),
        )
    )
    return n, kappa, seed, support, noise


@settings(max_examples=400)
@given(decode_cases())
@example((1, 1, 0, {0}, 0))
@example((1, 1, 5, set(), 0b11))
@example((64, 1, 3058970982, {7, 9, 39}, 0))
def test_sketch_decode_matches_reference_decoder(case):
    n, kappa, seed, support, noise = case
    sk = SensingSketch(n, kappa, seed)
    meas = sk.encode(BitVector.from_indices(n, support)) ^ BitVector(sk.measurement_len, noise)
    got = sk.decode(meas)
    # a fresh sketch decodes the same way as one whose tables and words are drawn
    assert got == _reference_decode(sk, meas) == SensingSketch(n, kappa, seed).decode(meas)


# ---------------------------------------------------------------------------
# mm_f2
# ---------------------------------------------------------------------------


def test_mm_f2_zero_b():
    a = BitMatrix.random(16, 16, 0.3, random.Random(1))
    inst = JoinInstance.build(a, BitMatrix(16, 16, [0] * 16), ell=4, kind="f2")
    led = CommLedger()
    out = mm_f2(inst, led, random.Random(2))
    assert out.weight() == 0
    assert "dense-transfer" not in led.report()["phases"]  # no column looks dense


def test_mm_f2_identity_a():
    rng = random.Random(3)
    b = BitMatrix.random(16, 16, 0.1, rng)
    inst = JoinInstance.build(BitMatrix.identity(16), b, ell=b.weight() + 1, kind="f2")
    out = mm_f2(inst, CommLedger(), random.Random(4))
    assert out == b


def test_mm_f2_one_by_one_matches_oracle():
    for seed in range(50):
        inst = gen_promise_instance(1, 1, 1, seed, kind="f2")
        assert mm_f2(inst, CommLedger(), random.Random(seed)) == inst.oracle_product


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
        dense = classify_columns(inst, CommLedger(), rng)
        captured += j_star in dense
        product_t = inst.oracle_product.transpose()
        pure += all(product_t.data[j].bit_count() >= 0.9 * math.sqrt(ell) for j in dense)
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
        data = [0] * n
        for i, j in zip(rows, cols):
            data[i] |= 1 << j
        b = BitMatrix(n, n, data)
        inst = JoinInstance.build(a, b, ell, tr, "f2")
        clean += not classify_columns(inst, CommLedger(), rng)
    assert clean / trials >= 0.95


def test_classification_size_bound():
    for tr in range(50):
        seed = 61000 + tr
        inst = gen_promise_instance(64, 64, 36, seed, kind="f2")
        dense = classify_columns(inst, CommLedger(), random.Random(seed))
        assert len(dense) <= math.ceil(inst.ell / (0.9 * math.sqrt(inst.ell)))


def _reference_classify(instance, ledger, rng):
    """classify_columns draw for draw, by plain loops: one 64-bit seed from ``rng`` for Alice's
    coins, then per round Algorithm S over A's nonzero rows, each probe's bits read one at a time
    from one word, and one :func:`freivalds_round` per probe on the sampled sub-matrix."""
    A, n = instance.A, instance.A.rows
    r1, r_freivalds = max(1, math.ceil(3 * math.log2(n))), math.ceil(math.log2(100 * n))
    sample_rows = min(n, max(1, math.ceil(n / math.sqrt(instance.ell))))
    coins = random.Random(rng.getrandbits(64))
    nonzero = [i for i in range(n) if A.data[i]]
    votes = [0] * n
    for _ in range(r1):
        chosen, left = [], sample_rows
        for t, i in enumerate(nonzero):
            if left == 0:
                break
            if coins.randrange(n - t) < left:
                chosen.append(i)
                left -= 1
        c = len(chosen)
        word = coins.getrandbits(r_freivalds * c)
        sub = BitMatrix(c, A.cols, [A.data[i] for i in chosen])
        seen = set()
        for p in range(r_freivalds):
            v = 0
            for t in range(c):
                if word >> (t * r_freivalds + p) & 1:
                    v |= 1 << t
            seen.update(freivalds_round(sub, instance.B, BitVector(c, v), ledger).indices())
        for j in seen:
            votes[j] += 1
    return frozenset(j for j in range(n) if votes[j] >= 0.63 * r1)


@st.composite
def classify_cases(draw):
    """An F2 instance (planted, inner-product embedding, zero A, density-0.5 A or 1x1) and an rng seed."""
    family = draw(st.sampled_from(("planted", "ip", "zero-a", "half-a", "one")))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = random.Random(seed)
    n = draw(st.sampled_from((8, 24, 64)))
    if family == "planted":
        inst = gen_promise_instance(n, n, draw(st.sampled_from((4, n // 2, 2 * n))), seed, "f2")
    elif family == "ip":
        k = draw(st.integers(1, math.isqrt(n)))
        left = [BitVector.random(n, 0.5, rng) for _ in range(k)]
        right = [BitVector.random(n, 0.5, rng) for _ in range(k)]
        inst = embed_ip_f2(left, right, n).instance
    else:
        if family == "one":
            n = 1
        a = BitMatrix(n, n, [0] * n) if family == "zero-a" else BitMatrix.random(n, n, 0.5, rng)
        inst = JoinInstance.build(a, BitMatrix.random(n, n, 0.5, rng), draw(st.integers(1, n * n)), kind="f2")
    return inst, seed


@settings(max_examples=150)
@given(classify_cases())
@example((gen_promise_instance(64, 64, 128, 3, "f2"), 3))
@example((JoinInstance.build(BitMatrix(8, 8, [0] * 8), BitMatrix.identity(8), 4, kind="f2"), 1))
@example((JoinInstance.build(BitMatrix.identity(1), BitMatrix.identity(1), 1, kind="f2"), 5))
def test_classify_columns_matches_per_round_reference(case):
    inst, seed = case
    runs = []
    for classify in (classify_columns, _reference_classify):
        rng, led = random.Random(seed), CommLedger()
        got = classify(inst, led, rng)
        runs.append((got, led.amounts, len(led), rng.getrandbits(32)))
    assert runs[0] == runs[1]


@settings(max_examples=60)
@given(classify_cases(), st.integers(0, 6), st.integers(1, 5))
@example((embed_ip_f2([BitVector(16, 0b1011)] * 2, [BitVector(16, 0b0110)] * 2, 16).instance, 2), 3, 4)
def test_probe_answers_match_freivalds_round(case, r1, r):
    inst, seed = case
    A, B = inst.A, inst.B
    for chosen, word, answers in _probe_rounds(inst, CommLedger(), random.Random(seed), r1, r):
        assert chosen == sorted(set(chosen)) and all(A.data[i] for i in chosen)
        assert word >> r * len(chosen) == 0 and len(answers) == r
        sub = BitMatrix(len(chosen), A.cols, [A.data[i] for i in chosen])
        for p, answer in enumerate(answers):
            # probe p picks chosen[t] when bit t * r + p of the round's word is set
            v = sum((word >> (t * r + p) & 1) << t for t in range(len(chosen)))
            assert answer == freivalds_round(sub, B, BitVector(len(chosen), v), CommLedger()).bits


def test_probe_rounds_sample_rows_and_probe_bits_with_the_uniform_law():
    # k = ceil(10 / sqrt(7)) = 4 of n = 10 rows, three of them nonzero in A: a uniform 4-subset of
    # [10] meets S in T with probability C(7, 4 - |T|) / C(10, 4), and each probe bit is fair
    n, ell, support = 10, 7, (2, 5, 7)
    a = BitMatrix(n, n, [1 << i if i in support else 0 for i in range(n)])
    inst = JoinInstance.build(a, BitMatrix.identity(n), ell, kind="f2")
    rounds, r_freivalds = 20_000, 2
    subsets, ones, kept = {}, {}, dict.fromkeys(support, 0)
    for chosen, word, _ in _probe_rounds(inst, CommLedger(), random.Random(2024), rounds, r_freivalds):
        subsets[frozenset(chosen)] = subsets.get(frozenset(chosen), 0) + 1
        for t, i in enumerate(chosen):
            kept[i] += 1
            for p in range(r_freivalds):
                ones[i, p] = ones.get((i, p), 0) + (word >> (t * r_freivalds + p) & 1)
    assert set(subsets) <= {frozenset(c) for r in range(4) for c in itertools.combinations(support, r)}
    for size in range(4):
        for subset in itertools.combinations(support, size):
            q = math.comb(n - 3, 4 - size) / math.comb(n, 4)
            assert abs(subsets.get(frozenset(subset), 0) / rounds - q) <= 5 * math.sqrt(q * (1 - q) / rounds)
    for i in support:
        for p in range(r_freivalds):
            assert abs(ones[i, p] / kept[i] - 0.5) <= 5 * math.sqrt(0.25 / kept[i])


def test_classification_takes_one_64_bit_draw_from_the_shared_stream_whatever_a_holds():
    n = 64
    b = BitMatrix.identity(n)
    instances = (
        JoinInstance.build(BitMatrix(n, n, [0] * n), b, 16, kind="f2"),
        JoinInstance.build(BitMatrix.identity(n), b, n, kind="f2"),
        gen_promise_instance(n, n, 16, 9, "f2"),
    )
    after_seed = random.Random(31)
    after_seed.getrandbits(64)
    for inst in instances:
        rng = random.Random(31)
        classify_columns(inst, CommLedger(), rng)
        assert rng.getstate() == after_seed.getstate()


def _xor_selected(rows, word: int) -> int:
    """XOR of rows[k] over the set bits k of word, by a plain loop."""
    acc = 0
    for k, row in enumerate(rows):
        if word >> k & 1:
            acc ^= row
    return acc


def _reference_mm_f2(instance, ledger, rng):
    """mm_f2 with step 3 as it was: both operands transposed, a sketch of every column of A,
    and each sparse column's measurement folded from those sketches through the column of B."""
    n = instance.A.rows
    r3 = math.ceil(math.log2(100 * n))
    dense = classify_columns(instance, ledger, rng)
    a_t, b_t = instance.A.transpose(), instance.B.transpose()
    out_cols = {}
    if dense:
        ledger.charge(B_TO_A, BITS, len(dense) * n, "dense-transfer")
        for j in sorted(dense):
            out_cols[j] = _xor_selected(a_t.data, b_t.data[j])
    kappa = math.ceil(1.1 * math.sqrt(instance.ell))
    unresolved = {j for j in range(n) if j not in dense}
    for _ in range(r3):
        sketch = SensingSketch(n, kappa, seed=rng.getrandbits(32))
        ledger.charge(A_TO_B, BITS, sketch.measurement_len * n, "sketch-transfer")
        if not unresolved:
            continue
        col_sketches = [sketch.encode(BitVector(n, a_t.data[i])).bits for i in range(n)]
        for j in sorted(unresolved):
            meas = _xor_selected(col_sketches, b_t.data[j])
            decoded = sketch.decode(BitVector(sketch.measurement_len, meas))
            if decoded is not None:
                out_cols[j] = decoded.bits
                unresolved.discard(j)
    if unresolved:
        raise DecodeBudgetError(f"{len(unresolved)} columns undecoded after {r3} sketch rounds")
    result = BitMatrix(n, n, [out_cols.get(j, 0) for j in range(n)]).transpose()
    if result.weight() > instance.ell:
        raise PromiseViolationError(f"recovered {result.weight()} ones, promise allows {instance.ell}")
    return result


def _column_three_on_even_rows():
    b = BitMatrix(64, 64, [1 << 3 if i % 2 == 0 else 0 for i in range(64)])
    return JoinInstance.build(BitMatrix.identity(64), b, 1, kind="f2")


def _compare_with_full_sketch_reference(inst, seed):
    """Run mm_f2 and _reference_mm_f2 alike; return mm_f2's result or error, checking what it encoded."""
    encoded = []
    real_encode = SensingSketch.encode

    def spy(self, x):
        encoded.append(x.bits)
        return real_encode(self, x)

    runs = []
    for run, spied in ((mm_f2, True), (_reference_mm_f2, False)):
        rng, led = random.Random(seed), CommLedger()
        with mock.patch.object(SensingSketch, "encode", spy if spied else real_encode):
            try:
                got = run(inst, led, rng)
            except ProtocolError as exc:
                got = type(exc), exc.args
        runs.append((got, led.amounts, len(led), rng.getrandbits(32)))
    assert runs[0] == runs[1]
    columns = inst.oracle_product.transpose().data
    dense = classify_columns(inst, CommLedger(), random.Random(seed))
    sparse = [columns[j] for j in range(inst.A.rows) if columns[j] and j not in dense]
    # the first batch encodes each nonzero sparse column once, in column order; later ones a subset
    assert encoded[: len(sparse)] == sparse
    assert 0 not in encoded and set(encoded) <= set(sparse)
    return runs[0][0]


@settings(max_examples=120, deadline=None)
@given(classify_cases())
@example((JoinInstance.build(BitMatrix.identity(1), BitMatrix.identity(1), 1, kind="f2"), 5))
@example((JoinInstance.build(BitMatrix(8, 8, [0] * 8), BitMatrix.identity(8), 4, kind="f2"), 1))
@example((JoinInstance.build(BitMatrix.identity(8), BitMatrix(8, 8, [0] * 8), 4, kind="f2"), 1))
@example((gen_promise_instance(64, 64, 16, 5, "f2"), 5))
def test_mm_f2_sketches_only_nonzero_sparse_columns_like_the_full_sketch_reference(case):
    _compare_with_full_sketch_reference(*case)


def test_mm_f2_ends_in_the_reference_errors(monkeypatch):
    inst = _column_three_on_even_rows()
    # the weight-32 column is dense, and shipping it breaks the promise of one
    assert _compare_with_full_sketch_reference(inst, 0)[0] is PromiseViolationError
    # with no vote high enough, it stays sparse and overloads every sketch
    monkeypatch.setattr(joins, "_DENSE_VOTE", 2.0)
    got = _compare_with_full_sketch_reference(inst, 2)
    assert got == (DecodeBudgetError, ("1 columns undecoded after 13 sketch rounds",))


def test_mm_f2_transposes_neither_operand(monkeypatch):
    inst = gen_promise_instance(64, 64, 16, 5, "f2")
    transposed = []
    real_transpose = BitMatrix.transpose

    def spy(self):
        transposed.append(self)
        return real_transpose(self)

    monkeypatch.setattr(BitMatrix, "transpose", spy)
    assert mm_f2(inst, CommLedger(), random.Random(5)) == inst.oracle_product
    assert not any(m is inst.A or m is inst.B for m in transposed)
    # one transpose reads the product's columns, one turns the recovered columns into rows
    assert len(transposed) == 2


def test_f2_protocols_read_the_instance_product_and_compute_none(monkeypatch):
    rng = random.Random(8)
    b = BitMatrix.random(16, 16, 0.1, rng)
    instances = [
        gen_promise_instance(64, 64, 16, 5, "f2"),
        gen_promise_instance(32, 32, 64, 6, "f2"),
        embed_ip_f2(*([BitVector.random(16, 0.5, rng) for _ in range(3)] for _ in range(2)), 16).instance,
        JoinInstance.build(BitMatrix.identity(16), b, ell=b.weight() + 1, kind="f2"),
    ]
    dense = [_reference_classify(inst, CommLedger(), random.Random(seed)) for seed, inst in enumerate(instances)]
    # every instance is built, so its product is computed, before the spy goes in
    calls = []
    real_product = f2core._product
    monkeypatch.setattr(f2core, "_product", lambda *args: calls.append(args) or real_product(*args))
    for seed, inst in enumerate(instances):
        assert classify_columns(inst, CommLedger(), random.Random(seed)) == dense[seed]
        assert mm_f2(inst, CommLedger(), random.Random(seed)) == inst.oracle_product
    assert calls == []


@pytest.mark.parametrize("kind", ["bool", "f2"])
@pytest.mark.parametrize("ell", [0, -1, -16])
def test_instances_with_ell_below_one_are_rejected(kind, ell):
    zero = BitMatrix(8, 8, [0] * 8)
    with pytest.raises(InstanceError, match=f"^ell must be at least 1, got {ell}$"):
        JoinInstance.build(zero, zero, ell, kind=kind)
    with pytest.raises(InstanceError, match="ell"):
        JoinInstance(zero, zero, ell, 0, kind, f2_product(zero, zero))


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(
            lambda: bmm_with_trace(
                gen_promise_instance(8, 8, 4, seed=1),
                CostModel.cost_model(epsilon=0.05),
                CommLedger(),
                random.Random(0),
            ),
            ValueError,
            "the bmm protocol does not model injected error; use epsilon = 0",
            id="bmm-epsilon",
        ),
        pytest.param(lambda: gen_hard_instance(0, 4, 1), InstanceError, "dimension must be positive", id="hard-n"),
        pytest.param(
            lambda: gen_hard_instance(8, 3, 1), InstanceError, "need 4 <= ell <= n^2 for the hard family", id="hard-ell"
        ),
        pytest.param(
            lambda: freivalds_round(BitMatrix(2, 3, [0, 0]), BitMatrix(2, 2, [0, 0]), BitVector(2), CommLedger()),
            DimensionError,
            "inner dimensions disagree",
            id="freivalds-inner",
        ),
        pytest.param(
            lambda: freivalds_round(BitMatrix(2, 2, [0, 0]), BitMatrix(2, 2, [0, 0]), BitVector(3), CommLedger()),
            DimensionError,
            "probe vector must match the row count of A",
            id="freivalds-probe",
        ),
        pytest.param(
            lambda: SensingSketch(8, 2, seed=1).encode(BitVector(7)),
            DimensionError,
            "expected length 8, got 7",
            id="sketch-encode",
        ),
        pytest.param(
            lambda: SensingSketch(8, 2, seed=1).decode(BitVector(7)),
            DimensionError,
            "measurement length mismatch",
            id="sketch-decode",
        ),
        pytest.param(
            lambda: mm_f2(
                JoinInstance.build(BitMatrix(2, 3, [0, 0]), BitMatrix(3, 2, [0, 0, 0]), 1, kind="f2"),
                CommLedger(),
                random.Random(0),
            ),
            DimensionError,
            "mm_f2 handles square n x n operands",
            id="mm-f2-square",
        ),
    ],
)
def test_input_checks_reject_with_their_message(call, error, message):
    with pytest.raises(error) as raised:
        call()
    assert raised.type is error and str(raised.value) == message
