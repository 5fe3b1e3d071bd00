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

from joinlab import f2core, joins, qsim
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
    PromiseViolationError,
    SensingSketch,
    _inner_iterations,
    bmm_cost_model,
    bmm_with_trace,
    classify_columns,
    freivalds_round,
    gen_hard_instance,
    mm_f2,
)
from joinlab.ledger import A_TO_B, B_TO_A, BITS, QUBITS, CommLedger, index_qubits, integer_bits
from joinlab.qsim import (
    BipartiteGraph,
    CostModel,
    GroverPlan,
    ProtocolError,
    graph_collision_all,
    instance_search,
)
from joinlab.reductions import embed_ip_f2

EXACT = CostModel.exact_mode()


# ---------------------------------------------------------------------------
# bmm
# ---------------------------------------------------------------------------


def test_bmm_zero_input():
    inst = JoinInstance(BitMatrix(6, 6, [0] * 6), BitMatrix(6, 6, [0] * 6), ell=4)
    led = CommLedger()
    out = bmm_with_trace(inst, EXACT, led, random.Random(0))[0]
    assert out.weight() == 0
    assert led.total() > 0  # the terminating search is still paid for


def test_bmm_identity_b():
    rng = random.Random(9)
    a = BitMatrix.random(8, 8, 0.2, rng)
    inst = JoinInstance(a, BitMatrix.identity(8), ell=a.weight() + 1)
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
        assert trace.total_ones() == out.weight()
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


def test_bmm_witness_weight_bound_under_promise():
    # any witness pair certifies a block of output ones, so its min weight
    # cannot exceed sqrt(ell)
    for seed in range(25):
        inst = gen_promise_instance(24, 24, 36, seed=seed)
        _, trace = bmm_with_trace(inst, EXACT, CommLedger(), random.Random(seed))
        for rnd in trace.rounds:
            assert rnd.min_weight <= math.sqrt(inst.ell)


def _spied_searches(monkeypatch, stop_after=None):
    """Route joins' instance searches through the real one, recording each result, the ledger total
    it added and its plan; past ``stop_after`` witnesses every search reports None (still charged)."""
    calls = []

    def search(instances, answers, ledger, rng, inner_cost_qubits, plan):
        before = ledger.total()
        k = instance_search(instances, answers, ledger, rng, inner_cost_qubits, plan)
        if stop_after is not None and sum(c is not None for c, _, _ in calls) == stop_after:
            k = None
        calls.append((k, ledger.total() - before, plan))
        return k

    monkeypatch.setattr(joins, "instance_search", search)
    return calls


def test_exact_bmm_that_stops_early_keeps_its_verified_rounds(monkeypatch):
    inst = gen_promise_instance(32, 32, 32, seed=6)
    calls = _spied_searches(monkeypatch, stop_after=2)
    led = CommLedger()
    out, trace = bmm_with_trace(inst, EXACT, led, random.Random(6))
    assert trace.t == 2 and [r.witness for r in trace.rounds] == [k for k, _, _ in calls if k is not None]
    truth = inst.oracle_product
    assert out != truth and all(mine & ~row == 0 for mine, row in zip(out.data, truth.data))
    assert trace.total_ones() == out.weight()
    # every search the run made, the ones told to miss included, is on the run's ledger
    assert all(charged > 0 for _, charged, _ in calls)
    # the round told to miss is the growth pass and then the certificate, and its miss ends the run
    certificate = GroverPlan.fixed_point(32, 1 / (10_000 * (inst.ell + 2)))
    assert [(k, plan) for k, _, plan in calls[-2:]] == [(None, GroverPlan.growth(32)), (None, certificate)]


def test_exact_bmm_collects_a_cell_its_collision_missed_in_one_more_round_on_the_same_witness(monkeypatch):
    # two witnesses, each the only one for its 2 x 2 block of output cells
    a_rows, b_rows = [0] * 16, [0] * 16
    for k, rows, cols in ((3, (1, 5), (2, 7)), (9, (0, 8), (4, 11))):
        for i in rows:
            a_rows[i] |= 1 << k
        b_rows[k] = sum(1 << j for j in cols)
    inst = JoinInstance(BitMatrix(16, 16, a_rows), BitMatrix(16, 16, b_rows), ell=8)
    dropped = []

    def collect(graph, f_a, f_b, ledger, rng):
        found = graph_collision_all(graph, f_a, f_b, ledger, rng)
        if not dropped:
            # the first call misses one of the edges it found: the edge stays in the graph
            assert len(found) == 4
            i, j = dropped[:] = min(found)
            graph.missing_rows[i] &= ~(1 << j)
            graph.missing_cols[j] &= ~(1 << i)
            return found - {(i, j)}
        return found

    monkeypatch.setattr(joins, "graph_collision_all", collect)
    out, trace = bmm_with_trace(inst, EXACT, CommLedger(), random.Random(5))
    assert out == inst.oracle_product
    first = trace.rounds[0].witness
    assert [(r.witness, r.collisions) for r in trace.rounds if r.witness == first] == [(first, 3), (first, 1)]
    assert len(trace.rounds) == 3 and trace.total_ones() == 8


def _search_miss_probability(big_n: int) -> np.ndarray:
    """Exact chance, for each marked count t in [1, big_n], that one exact instance search over
    big_n entries under ``GroverPlan.default`` finds nothing: the product over its caps of
    1 - mean over k < cap of sin^2((2k + 1) asin(sqrt(t / big_n)))."""
    theta = np.arcsin(np.sqrt(np.arange(1, big_n + 1) / big_n))
    miss = np.ones(big_n)
    for cap in GroverPlan.default(big_n).caps:
        miss *= 1 - np.mean(np.sin(np.outer(theta, 2 * np.arange(cap) + 1)) ** 2, axis=1)
    return miss


def _closed_form_miss_probability(big_n: int) -> np.ndarray:
    """The same chance for each t in [1, big_n - 1] in Boyer, Brassard, Hoyer and Tapp's closed form
    (1998, Lemma 2): the product over the caps m of 1/2 + sin(4 m theta) / (4 m sin 2 theta)."""
    theta = np.arcsin(np.sqrt(np.arange(1, big_n) / big_n))
    miss = np.ones(big_n - 1)
    for cap in GroverPlan.default(big_n).caps:
        miss *= 0.5 + np.sin(4 * cap * theta) / (4 * cap * np.sin(2 * theta))
    return miss


def test_default_plan_ends_in_twelve_ceiling_caps():
    # the ceiling h is the least integer with 4 h^2 (N - 1) >= N^2, h = 1 at N = 1; integers only
    for big_n in range(1, (1 << 16) + 1):
        caps = GroverPlan.default(big_n).caps
        hard = caps[-1]
        assert caps[-12:] == (hard,) * 12 and max(caps) == hard, big_n
        assert hard >= 1 and (big_n == 1 or 4 * hard * hard * (big_n - 1) >= big_n * big_n), big_n
        assert hard == 1 or 4 * (hard - 1) ** 2 * (big_n - 1) < big_n * big_n, big_n


def test_ceiling_cap_reaches_one_over_sin_two_theta_for_every_marked_count():
    # Lemma 2's 1/4 needs cap >= 1 / sin(2 theta); over 1 <= t <= N - 1 that is largest at t = 1 and t = N - 1
    for big_n in range(2, 257):
        theta = np.arcsin(np.sqrt(np.arange(1, big_n) / big_n))
        assert np.all(1 / np.sin(2 * theta) <= big_n / (2 * math.sqrt(big_n - 1)) * (1 + 1e-12))
    # so the ceiling h must reach N / (2 sqrt(N - 1)), and h - 1 must not: exact in int64 for every N < 2^22
    big_n = np.arange(2, 1 << 22, dtype=np.int64)
    hard = np.fromiter(map(qsim._ceiling, range(2, 1 << 22)), dtype=np.int64, count=len(big_n))
    assert np.all(4 * hard * hard * (big_n - 1) >= big_n * big_n)
    assert not np.any(4 * (hard - 1) ** 2 * (big_n - 1) >= big_n * big_n)


def test_one_default_plan_search_misses_with_probability_at_most_three_quarters_to_the_twelfth():
    for big_n in range(2, 64):
        explicit = _search_miss_probability(big_n)
        assert np.abs(_closed_form_miss_probability(big_n) - explicit[:-1]).max() < 1e-15
        assert explicit[-1] < 1e-15  # with every entry marked, every measurement hits
    # every N up to 256, and every N of criterion 3's exact searches
    grid = (*range(2, 257), 512, 1024, 2048, 4096, 8192, 16384)
    assert max(_closed_form_miss_probability(big_n).max() for big_n in grid) <= 0.75**12


def _covers_one_marked_entry(length: int, big_n: int, failure: float) -> bool:
    """1 - gamma_L^2 <= 1/N, gamma_L = 1 / cosh(arccosh(1/delta) / L): the fixed-point search of length L
    then misses with probability at most delta^2 for every marked fraction of at least 1/N."""
    gamma = 1 / math.cosh(math.acosh(1 / math.sqrt(failure)) / length)
    return 1 - gamma**2 <= 1 / big_n


# 1/(10^4 (ell + 2)) at ell = 1, 16, 256 and 1024, and 1/(100 (ell + 2)) at ell = 1 and 1024
CERTIFICATE_FAILURES = (1 / 300, 1 / 102600, 1 / 30_000, 1 / 180_000, 1 / 2_580_000, 1 / 10_260_000)
# every N up to 256, and every N of criterion 3's exact searches
CERTIFICATE_SIZES = (*range(1, 257), 512, 1024, 2048, 4096, 8192, 16384)


def test_certificate_length_is_the_least_odd_that_covers_one_marked_entry():
    for failure in CERTIFICATE_FAILURES:
        for big_n in CERTIFICATE_SIZES:
            plan = GroverPlan.fixed_point(big_n, failure)
            assert (plan.randomize, plan.failure, len(plan.caps)) == (False, failure, 1)
            length = 2 * plan.caps[0] + 1
            assert _covers_one_marked_entry(length, big_n, failure), (big_n, failure)
            assert length == 1 or not _covers_one_marked_entry(length - 2, big_n, failure), (big_n, failure)


def test_certificate_misses_with_probability_at_most_its_failure_for_every_marked_count():
    for failure in CERTIFICATE_FAILURES:
        for big_n in CERTIFICATE_SIZES:
            plan = GroverPlan.fixed_point(big_n, failure)
            (rounds,) = plan.caps
            length = 2 * rounds + 1
            # the closed form, vectorised over every t in [0, N]: miss = delta^2 T_L(x)^2, x = sqrt(1 - t/N) / gamma
            t = np.arange(big_n + 1)
            x = np.sqrt(1 - t / big_n) * np.cosh(np.arccosh(1 / np.sqrt(failure)) / length)
            chebyshev = np.where(x <= 1, np.cos(length * np.arccos(np.minimum(x, 1))),
                                 np.cosh(length * np.arccosh(np.maximum(x, 1))))
            miss = failure * chebyshev**2
            assert np.all(miss[1:] <= failure), (big_n, failure)
            assert abs(miss[0] - 1) < 1e-9 and miss[-1] < 1e-20  # T_L(1/gamma) = 1/delta, T_L(0) = 0
            # the law the plan samples spreads the same hit mass over the marked entries
            law = np.array([plan.probabilities(big_n, k, rounds) for k in range(big_n + 1)])
            # t = 0 never hits, and t = N always does
            assert tuple(law[0]) == (0.0, 1 / big_n) and tuple(law[-1]) == (1 / big_n, 0.0)
            hit = law[1:, 0] * t[1:]
            assert np.all(np.abs(hit - (1 - miss[1:])) <= 1e-12)
            assert np.all(law[1:-1, 1] * (big_n - t[1:-1]) <= failure * (1 + 1e-12))


@pytest.mark.parametrize("inst", [
    gen_promise_instance(8, 8, 1, seed=3),
    gen_promise_instance(16, 16, 16, seed=4),
    gen_promise_instance(32, 32, 64, seed=5),
    gen_hard_instance(64, 64, seed=6),
    JoinInstance(BitMatrix(2, 2, [0b01, 0b10]), BitMatrix(2, 2, [0b10, 0b01]), ell=2),
    JoinInstance(BitMatrix(32, 32, [0] * 32), BitMatrix(32, 32, [0] * 32), ell=1024),
], ids=["planted-8", "planted-16", "planted-32", "hard-64", "swap-2", "zero-32"])
def test_exact_round_is_the_growth_pass_then_one_certificate(monkeypatch, inst):
    n = inst.A.cols
    calls = _spied_searches(monkeypatch)
    led = CommLedger()
    out = bmm_with_trace(inst, EXACT, led, random.Random(inst.ell))[0]
    assert out == inst.oracle_product
    # per round: the default plan without its 12 ceiling caps, and the certificate only when that misses
    default = GroverPlan.default(n).caps
    growth = GroverPlan(default[:-12]) if len(default) > 12 else None
    failure = 1 / (10_000 * (inst.ell + 2))
    certificate = GroverPlan.fixed_point(n, failure)
    rounds, searches = [], iter(calls)
    for k, _, plan in searches:
        if plan == growth and k is None:
            k, _, plan = next(searches)
        assert plan in (growth, certificate)
        rounds.append((k, plan))
    assert all(k is not None for k, _ in rounds[:-1]) and rounds[-1] == (None, certificate)
    assert len(rounds) <= inst.ell + 1
    # each round ends the run by mistake with probability at most the certificate's failure, so the
    # at most ell + 1 rounds do with probability at most 1/10^4, inside the 1/100 budget
    assert (inst.ell + 1) * failure <= 1 / 10_000
    # the certify phases hold what the certificates charged, and nothing else does
    certified = sum(amount for (_, _, phase), amount in led.amounts.items() if phase.startswith("certify"))
    assert certified == sum(charged for _, charged, plan in calls if plan == certificate) > 0


# ---------------------------------------------------------------------------
# bmm cost model
# ---------------------------------------------------------------------------


def test_cost_model_zero_instance_single_failed_search():
    inst = JoinInstance(BitMatrix(16, 16, [0] * 16), BitMatrix(16, 16, [0] * 16), ell=4)
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
    inst = JoinInstance(a, b, ell=1)
    led = CommLedger()
    model = CostModel.cost_model()
    trace = bmm_cost_model(inst, model, led, random.Random(0))
    assert trace.t == 1 and trace.total_ones() == 1
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
        assert trace.total_ones() == inst.oracle_product.weight()
        assert trace.t <= min(24, inst.ell + 1)


def test_cost_model_discovery_order_seeded():
    inst = gen_promise_instance(24, 24, 24, seed=5)
    t1 = bmm_cost_model(inst, CostModel.cost_model(), CommLedger(), random.Random(8))
    t2 = bmm_cost_model(inst, CostModel.cost_model(), CommLedger(), random.Random(8))
    assert [r.witness for r in t1.rounds] == [r.witness for r in t2.rounds]


def _replay_charges_by_formula(inst, trace) -> dict:
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
        totals["search"] += math.ceil(math.sqrt(n / len(live))) * math.ceil(math.sqrt(w)) * width
        totals["collect"] += math.ceil(math.sqrt(lam * w)) * width
        collected |= cells
    assert not ((A.T @ (1 - collected)) * B).any()  # the run ends with t_cur = 0
    assert trace.product == BitMatrix(m, m, [sum(int(b) << j for j, b in enumerate(row)) for row in collected])
    w_max = int(weights.max())
    inner = math.ceil(math.sqrt(w_max)) if w_max else 1
    totals["final-search"] = math.ceil(math.sqrt(n)) * inner * width
    return {(way, QUBITS, phase): amount for phase, amount in totals.items() if amount for way in (A_TO_B, B_TO_A)}


REPLAY_LAW_INSTANCES = [
    *(("planted", n, ell, seed) for n in (16, 32) for ell in (n // 2, n, 2 * n) for seed in range(3)),
    *(("hard", n, ell, 0) for n, ell in ((16, 16), (64, 36), (64, 64))),
]


@pytest.mark.parametrize("model", [CostModel.cost_model()])
@pytest.mark.parametrize("family, n, ell, seed", REPLAY_LAW_INSTANCES)
def test_replay_charges_follow_the_per_round_formulas(family, n, ell, seed, model):
    if family == "planted":
        inst = gen_promise_instance(n, n, ell, seed)
    else:
        inst = gen_hard_instance(n, ell, seed)
    led = CommLedger()
    trace = bmm_cost_model(inst, model, led, random.Random(100 + seed))
    assert trace.t >= 1
    assert led.amounts == _replay_charges_by_formula(inst, trace)


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
        inst = JoinInstance(BitMatrix(n, n, [0] * n), BitMatrix(n, n, [0] * n), draw(st.integers(1, n)))
    model = draw(st.sampled_from((EXACT, CostModel.cost_model())))
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
    # a round searches under the default plan without its 12 ceiling caps, then certifies a miss
    default = GroverPlan.default(n).caps
    plans = [GroverPlan(default[:-12])] if len(default) > 12 else []
    plans.append(GroverPlan.fixed_point(n, 1 / (10_000 * (instance.ell + 2))))
    a_t, b_t = A.transpose(), B.transpose()
    weights = [(col.bit_count(), row.bit_count()) for col, row in zip(a_t.data, B.data)]
    min_w = [min(w) for w in weights]
    uncovered = [wa * wb for wa, wb in weights]
    live = np.array(uncovered, dtype=bool)
    width = index_qubits(m)
    inner_budget = _inner_iterations(max(min_w, default=0))

    def pay(amount, phase):
        ledger.charge(A_TO_B, QUBITS, amount, phase)
        ledger.charge(B_TO_A, QUBITS, amount, phase)

    uncollected = BipartiteGraph(m, m)
    out_rows = uncollected.missing_rows
    ones, trace = 0, BmmTrace()
    while True:
        if model.exact:
            k = None
            for plan in plans:
                k = instance_search(range(n), np.flatnonzero(live).tolist(), ledger, rng,
                                    inner_cost_qubits=inner_budget * 2 * width, plan=plan)
                if k is not None:
                    break
            if k is None:
                break
            f_a, f_b = BitVector(m, a_t.data[k]), BitVector(m, B.data[k])
            for _ in range(100):
                cells = graph_collision_all(uncollected, f_a, f_b, ledger, rng)
                if cells:
                    break
            else:
                raise ProtocolError("collision collection stalled on a verified witness")
        else:
            marked = np.flatnonzero(live)
            t_cur = len(marked)
            if not t_cur:
                pay(math.ceil(math.sqrt(n)) * inner_budget * width, "final-search")
                break
            k = int(marked[rng.randrange(t_cur)])
            cells = [(i, j) for i in _iter_bits(a_t.data[k]) for j in _iter_bits(B.data[k] & ~out_rows[i])]
            inner = _inner_iterations(min_w[k])
            pay(math.ceil(math.sqrt(n / t_cur)) * inner * width, "search")
            pay(max(1, math.ceil(math.sqrt(len(cells) * min_w[k]))) * width, "collect")
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
    """An m x n by n x m instance, m and n free, with zero rows on either side, and a promise.

    Row densities run up to 1, so dense rows of A sit next to its zero rows and rows of B leave
    columns unused: a searched cover can then hold such vertices between its real ones.
    """
    m, n = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    a_rows = _sparse_rows(m, n, draw(st.integers(0, 2**32 - 1)), draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 0.9)))
    b_rows = _sparse_rows(n, m, draw(st.integers(0, 2**32 - 1)), draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 0.9)))
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
    st.sampled_from((EXACT, CostModel.cost_model())),
    st.integers(0, 2**32 - 1),
)
# A's rows name the inner indices out of order, and index 1 has a column of A but no row of B
@example(([0b0100, 0b1011, 0b0010], [0b101, 0, 0b011, 0b110], 9), CostModel.cost_model(), 3)
@example(([0b0100, 0b1011, 0b0010], [0b101, 0, 0b011, 0b110], 9), EXACT, 3)
# every inner index is one-sided, so the product is empty
@example(([0b011, 0, 0b001, 0b010], [0, 0, 0b1111], 1), CostModel.cost_model(), 0)
@example(([0b011, 0, 0b001, 0b010], [0, 0, 0b1111], 1), EXACT, 0)
# zero rows of A and columns outside B's active rows sit between the real vertices and can land in a
# searched cover, whose draws depend on where they sit; seed 2 finds witness 0 first
@example(([0, 0b11, 0b11, 0b10], [0b0111, 0b0111], 9), EXACT, 2)
def test_bmm_active_index_setup_matches_full_transpose_reference(case, model, seed):
    a_rows, b_rows, ell = case
    m, n = len(a_rows), len(b_rows)
    inst = JoinInstance(BitMatrix(m, n, a_rows), BitMatrix(n, m, b_rows), ell)
    want = _bmm_outcome(_reference_search_and_collect, inst, model, seed)
    assert _bmm_outcome(lambda *a: bmm_with_trace(*a)[1], inst, model, seed) == want
    assert _bmm_outcome(bmm_cost_model, inst, model, seed) == want
    if want[0] != "promise-violation":
        assert want[0][1] == inst.oracle_product or model.exact


# words the 12 x 12 cases above never make: n-bit rows and columns, position masks of
# several 30-bit limbs, and a round that touches enough positions to go through _scan_bits
WIDE_BMM_CASES = {
    "hard-2048-cost": (lambda: gen_hard_instance(2048, 256, 3), CostModel.cost_model()),
    "hard-8192-cost": (lambda: gen_hard_instance(8192, 256, 5), CostModel.cost_model()),
    "planted-4096-cost": (lambda: gen_promise_instance(4096, 4096, 64, 4096), CostModel.cost_model()),
    "hard-1024-exact": (lambda: gen_hard_instance(1024, 256, 7), EXACT),
    "hard-16384-exact": (lambda: gen_hard_instance(1 << 14, 256, 8), EXACT),
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


def _gf_mul(a: int, b: int, poly: int, m: int) -> int:
    """a b in GF(2)[x] modulo poly, of degree m, by shift and add."""
    out = 0
    while b:
        if b & 1:
            out ^= a
        b >>= 1
        a <<= 1
        if a >> m & 1:
            a ^= poly
    return out


def _gf_pow(a: int, e: int, poly: int, m: int) -> int:
    out = 1
    for bit in bin(e)[2:]:
        out = _gf_mul(out, out, poly, m)
        if bit == "1":
            out = _gf_mul(out, a, poly, m)
    return out


def _modulus(m: int) -> int:
    """The sketch field's polynomial, read from alpha^m = x^m mod it."""
    return 1 << m | joins._field(m)[0][m]


def _placement(n: int, seed: int) -> list[int]:
    """Each coordinate's code position: the rank of its key among the n 64-bit keys that
    random.Random(seed) draws as 8 little-endian bytes each, ties going to the lower coordinate."""
    raw = random.Random(seed).randbytes(8 * n)
    keys = [int.from_bytes(raw[8 * i : 8 * i + 8], "little") for i in range(n)]
    position = [0] * n
    for p, i in enumerate(sorted(range(n), key=lambda i: (keys[i], i))):
        position[i] = p
    return position


def _reference_sketch(n: int, kappa: int, positions) -> int:
    """The 2 kappa fields S_j = sum of alpha^((p+1) j) over the code positions p, for odd j, S_1 lowest, by
    carry-less arithmetic modulo the field's polynomial."""
    m = (n + 1).bit_length()
    poly = _modulus(m)
    measurement = 0
    for field, j in enumerate(range(1, 4 * kappa, 2)):
        syndrome = 0
        for p in positions:
            syndrome ^= _gf_pow(2, (p + 1) * j, poly, m)
        measurement |= syndrome << field * m
    return measurement


@pytest.mark.parametrize("m", range(1, 14))
def test_field_tables_follow_the_least_primitive_polynomial(m):
    exp, log, exp_array = joins._field(m)
    q = (1 << m) - 1
    x = 1 if m == 1 else 2
    primes = [p for p in range(2, q + 1) if q % p == 0 and all(p % f for f in range(2, math.isqrt(p) + 1))]

    def primitive(poly):  # x has order q, so the quotient ring has q units: a field, and x generates it
        return _gf_pow(x, q, poly, m) == 1 and all(_gf_pow(x, q // p, poly, m) != 1 for p in primes)

    poly = _modulus(m)
    assert poly >> m == 1 and primitive(poly)
    assert not any(primitive(p) for p in range(1 << m | 1, poly, 2))
    power = 1
    for k in range(2 * q):
        assert exp[k] == power
        power = _gf_mul(power, x, poly, m)
    # past 2q the table is zero, where a product with log[0] = 2q lands
    assert exp[2 * q :] == [0] * (2 * q + 1) and exp_array.tolist() == exp
    assert log[0] == 2 * q and all(log[exp[k]] == k for k in range(q))


def test_sketch_encode_matches_field_by_field_reference():
    # at n = 1, 2^k - 2, 2^k - 1 and 2^k: every unit vector's fields at its code position, then random
    # vectors and linearity
    rng = random.Random(12)
    for n in (1, 2, 3, 4, 6, 7, 8, 14, 15, 16, 31, 32, 254, 255, 256):
        for kappa, seed in ((1, n), (3, 1000 + n)):
            sk, position = SensingSketch(n, kappa, seed), _placement(n, seed)
            assert sorted(position) == list(range(n))
            for i in range(n):
                assert sk.encode(BitVector.from_indices(n, [i])).bits == _reference_sketch(n, kappa, [position[i]])
            for _ in range(10):
                x, y = BitVector.random(n, 0.3, rng), BitVector.random(n, 0.3, rng)
                meas = sk.encode(x)
                assert meas.n == sk.measurement_len
                assert meas.bits == _reference_sketch(n, kappa, [position[i] for i in x.indices()])
                assert sk.encode(x ^ y) == meas ^ sk.encode(y)


def test_sketch_single_coordinate():
    sk = SensingSketch(64, 4, seed=1)
    x = BitVector.from_indices(64, [17])
    meas = sk.encode(x)
    # coordinate 17 sits at code position p, and field f holds S_(2f+1) = alpha^((p+1) (2f+1)), 7 bits each
    # at n = 64
    p, poly = _placement(64, 1)[17], _modulus(7)
    fields = [_gf_pow(2, (p + 1) * (2 * f + 1), poly, 7) for f in range(8)]
    assert [meas.bits >> 7 * f & 127 for f in range(8)] == fields
    assert sk.decode(meas) == x


def test_sketch_measurement_length():
    # 2 kappa fields of the least m with n < 2^m - 1: 2^k - 2 coordinates fit in k bits, 2^k - 1 need k + 1
    cases = ((1, 2), (2, 2), (3, 3), (6, 3), (7, 4), (8, 4), (254, 8), (255, 9), (256, 9), (4094, 12), (4095, 13))
    for n, m in cases:
        for kappa in (1, 5, 9):
            sk = SensingSketch(n, kappa, seed=kappa)
            assert sk.m == m and sk.measurement_len == 2 * kappa * m


def test_sketch_zero_vector():
    sk = SensingSketch(64, 4, seed=2)
    meas = sk.encode(BitVector(64))
    assert meas.is_zero()
    assert sk.decode(meas) == BitVector(64)


def test_sketch_linearity_exact():
    sk = SensingSketch(128, 6, seed=3)
    rng = random.Random(4)
    for _ in range(200):
        x = BitVector.random(128, 0.1, rng)
        y = BitVector.random(128, 0.1, rng)
        assert sk.encode(x ^ y) == sk.encode(x) ^ sk.encode(y)


@pytest.mark.parametrize("kappa", [1, 2, 3])
def test_sketch_decode_law_on_every_vector_of_at_most_three_kappa_ones(kappa):
    # decode(encode(x)) is x up to kappa ones and None from kappa + 1 to 3 kappa, for every such x of every
    # length n <= 16, under any placement
    for n in range(1, 17):
        sk = SensingSketch(n, kappa, seed=100 * kappa + n)
        for w in range(min(n, 3 * kappa) + 1):
            for ones in itertools.combinations(range(n), w):
                x = BitVector.from_indices(n, ones)
                assert sk.decode(sk.encode(x)) == (x if w <= kappa else None), (n, ones)


@pytest.mark.parametrize("n, kappa", [(1, 1), (2, 3), (4, 2), (6, 2), (7, 1), (8, 1), (15, 1), (16, 1)])
def test_sketch_decode_is_the_light_vector_with_that_sketch_for_every_measurement(n, kappa):
    # over every measurement word, not only the images of light vectors: decode names the vector of at most
    # kappa ones with that sketch, or None when no such vector exists
    sk = SensingSketch(n, kappa, seed=n + kappa)
    light = {}
    for w in range(min(n, kappa) + 1):
        for ones in itertools.combinations(range(n), w):
            x = BitVector.from_indices(n, ones)
            assert light.setdefault(sk.encode(x).bits, x) == x  # no two light vectors share a sketch
    for bits in range(1 << sk.measurement_len):
        assert sk.decode(BitVector(sk.measurement_len, bits)) == light.get(bits), bits


@st.composite
def sketch_cases(draw):
    """A sketch size up to n = 4096 and its seed, a vector of up to 4 kappa ones and a measurement word."""
    n = draw(st.sampled_from((1, 2, 3, 5, 16, 17, 127, 128, 1000, 4095, 4096)))
    kappa = draw(st.integers(1, 12))
    weight = draw(st.integers(0, min(n, 4 * kappa)))
    ones = draw(st.lists(st.integers(0, n - 1), min_size=weight, max_size=weight, unique=True))
    noise = draw(st.integers(0, (1 << 2 * kappa * (n + 1).bit_length()) - 1))
    return n, kappa, ones, noise, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=150, deadline=None)
@given(sketch_cases())
@example((4096, 12, list(range(0, 4096, 128)), 0, 0))
@example((4095, 1, [4094], 0, 1))
@example((1, 12, [0], 1, 2))
def test_sketch_decode_law_up_to_n_4096(case):
    n, kappa, ones, noise, seed = case
    sk = SensingSketch(n, kappa, seed)
    x = BitVector.from_indices(n, ones)
    got = sk.decode(sk.encode(x))
    if len(ones) <= kappa:
        assert got == x
    elif len(ones) <= 3 * kappa:
        assert got is None
    # past 3 kappa, and for any measurement word, decode names a light vector with that sketch or nothing
    for meas in (sk.encode(x), BitVector(sk.measurement_len, noise)):
        got = sk.decode(meas)
        assert got is None or (got.weight() <= kappa and sk.encode(got) == meas)


def test_sketch_recovery_rate_quick():
    good = 0
    trials = 300
    for tr in range(trials):
        rng = random.Random(777000 + tr)
        sk = SensingSketch(256, 8, seed=rng.getrandbits(32))
        x = BitVector.random_weight(256, rng.randint(0, 8), rng)
        good += sk.decode(sk.encode(x)) == x
    assert good == trials


@pytest.mark.parametrize("n, kappa", [(256, 8), (512, 9)])
def test_sketch_decodes_its_design_sparsity_within_the_stated_failure_bound(n, kappa):
    # the stated failure bound at the design sparsity is 0, for every seed: every vector of kappa ones
    # decodes, here 1000 random ones at each size, each under its own seed
    for trial in range(1000):
        rng = random.Random(880000 + trial)
        sk = SensingSketch(n, kappa, seed=rng.getrandbits(32))
        x = BitVector.random_weight(n, kappa, rng)
        assert sk.decode(sk.encode(x)) == x


def test_sketch_decode_failure_is_reported():
    # overload far past the sparsity budget: decode reports it with None.  The law lets it return a
    # wrong vector of at most kappa ones with x's sketch with chance eps_w over the seed, about
    # V / 2^(2 kappa m) = 8,257 / 2^32 at n = 128 and kappa = 2, and none of these 50 draws hits one
    sk = SensingSketch(128, 2, seed=9)
    rng = random.Random(10)
    for _ in range(50):
        x = BitVector.random_weight(128, 40, rng)
        assert sk.decode(sk.encode(x)) is None


@pytest.mark.parametrize("n, kappa", [(256, 3), (256, 8)])
def test_sketch_past_eight_kappa_returns_none_or_the_vector(n, kappa):
    # mm_f2 ships every column that does not decode dense, so its output is right as long as a decode
    # past the sparsity is None or x itself.  Past 3 kappa the law allows a wrong vector with chance
    # eps_w over the seed, about 2^-32 at (256, 3) and 2^-101 at (256, 8); none of these draws hits one
    for trial in range(150):
        rng = random.Random(990000 + trial)
        sk = SensingSketch(n, kappa, seed=rng.getrandbits(32))
        x = BitVector.random_weight(n, rng.randint(8 * kappa + 1, 16 * kappa), rng)
        assert sk.decode(sk.encode(x)) in (None, x)


@pytest.mark.parametrize("n, kappa, word", [(0, 4, "domain"), (64, 0, "sparsity")])
def test_sketch_rejects_bad_sizes(n, kappa, word):
    with pytest.raises(ValueError, match=word):
        SensingSketch(n, kappa, seed=0)


def test_sketch_tables_are_built_once_per_size():
    # every sketch of one (n, kappa) permutes the same position words and shares the root-search exponents
    a, b = SensingSketch(256, 8, seed=1), SensingSketch(256, 8, seed=2)
    assert a._powers is b._powers and SensingSketch(256, 9, seed=1)._powers is not a._powers
    assert a._words != b._words and sorted(a._words) == sorted(b._words) == sorted(joins._tables(256, 8)[0])
    assert SensingSketch(256, 8, seed=1)._words == a._words


@pytest.mark.parametrize("n", [15, 16])
def test_sketch_wrong_decodes_past_three_kappa_are_near_the_even_spread_estimate(n):
    # exhaustively at kappa = 1: for each weight w > 3 kappa, the share eps_w of weight-w vectors that decode
    # to a wrong vector is, under a uniform placement, the chance that a fixed x of w ones does.  It stays
    # within 1.6 times the estimate V / 2^(2 kappa m) that the docstring states, at every weight
    sk = SensingSketch(n, 1, seed=0)
    estimate = (1 + n) / 2**sk.measurement_len
    wrong, total = [0] * (n + 1), [0] * (n + 1)
    for bits in range(1 << n):
        w = bits.bit_count()
        if w > 3:
            total[w] += 1
            wrong[w] += sk.decode(sk.encode(BitVector(n, bits))) is not None
    assert all(wrong[w] <= 1.6 * estimate * total[w] for w in range(4, n + 1))
    assert sum(wrong) > 0


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


# ---------------------------------------------------------------------------
# mm_f2
# ---------------------------------------------------------------------------


def test_mm_f2_zero_b():
    a = BitMatrix.random(16, 16, 0.3, random.Random(1))
    inst = JoinInstance(a, BitMatrix(16, 16, [0] * 16), ell=4, kind="f2")
    led = CommLedger()
    out = mm_f2(inst, led, random.Random(2))
    assert out.weight() == 0
    # every column decodes, so Bob's reply holds only the count 0
    assert led.amounts[B_TO_A, BITS, "dense-transfer"] == integer_bits(16)


def test_mm_f2_identity_a():
    rng = random.Random(3)
    b = BitMatrix.random(16, 16, 0.1, rng)
    inst = JoinInstance(BitMatrix.identity(16), b, ell=b.weight() + 1, kind="f2")
    out = mm_f2(inst, CommLedger(), random.Random(4))
    assert out == b


def test_constructed_instance_holds_its_product():
    rng = random.Random(5)
    a, b = BitMatrix.random(12, 12, 0.15, rng), BitMatrix.random(12, 12, 0.15, rng)
    product = f2_product(a, b)
    assert product.weight() > 0 and product != bool_product(a, b)
    assert JoinInstance(a, b, 1, 0).oracle_product == bool_product(a, b)
    inst = JoinInstance(a, b, product.weight(), 7, "f2")
    assert inst.oracle_product == product
    assert mm_f2(inst, CommLedger(), random.Random(6)) == product
    # a product the caller passes is kept as given
    assert JoinInstance(a, b, 1, 0, "bool", product).oracle_product is product


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
    assert len(costs) <= 2  # dense-transfer adds index + n bits for each column that does not decode


def _dense_columns(inst, rng) -> set[int]:
    """The nonzero product columns that classify_columns does not decode, so mm_f2 ships them dense."""
    columns = inst.oracle_product.transpose().data
    decoded = classify_columns(inst, columns, CommLedger(), rng)
    return {j for j, column in enumerate(columns) if column and j not in decoded}


def test_classification_captures_clearly_dense_columns():
    # one product column of 8 kappa + 1 ones, past what the sketch holds, goes dense
    n, ell = 64, 16
    kappa = math.ceil(1.1 * math.sqrt(ell))
    captured = 0
    trials = 100
    for tr in range(trials):
        rng = random.Random(40000 + tr)
        j_star = rng.randrange(n)
        rows = set(rng.sample(range(n), 8 * kappa + 1))
        a = BitMatrix(n, n, [1 if i in rows else 0 for i in range(n)])
        b = BitMatrix(n, n, [(1 << j_star) if k == 0 else 0 for k in range(n)])
        inst = JoinInstance(a, b, ell, tr, "f2")
        captured += _dense_columns(inst, rng) == {j_star}
    assert captured / trials >= 0.95


def test_classification_leaves_scattered_columns_sparse():
    # ell ones in ell distinct columns: every column holds one coordinate, which a sketch
    # always decodes, so none goes dense
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
        inst = JoinInstance(a, b, ell, tr, "f2")
        clean += not _dense_columns(inst, rng)
    assert clean / trials >= 0.95


def test_classification_size_bound():
    for tr in range(50):
        seed = 61000 + tr
        inst = gen_promise_instance(64, 64, 36, seed, kind="f2")
        dense = _dense_columns(inst, random.Random(seed))
        assert len(dense) <= math.ceil(inst.ell / (0.9 * math.sqrt(inst.ell)))


def test_mm_f2_takes_one_32_bit_draw_from_the_shared_stream_whatever_a_holds():
    # the sketch seed is public coin: one shared 32-bit draw, and no other
    n = 64
    b = BitMatrix.identity(n)
    instances = (
        JoinInstance(BitMatrix(n, n, [0] * n), b, 16, kind="f2"),
        JoinInstance(BitMatrix.identity(n), b, n, kind="f2"),
        gen_promise_instance(n, n, 16, 9, "f2"),
        _column_three_on_even_rows(),
    )
    after_seed = random.Random(31)
    after_seed.getrandbits(32)
    for inst in instances:
        rng = random.Random(31)
        try:
            mm_f2(inst, CommLedger(), rng)
        except PromiseViolationError:
            pass
        assert rng.getstate() == after_seed.getstate()


def _column_near_a_codeword(n: int, ell: int) -> tuple[JoinInstance, BitVector, BitVector]:
    """An instance whose one nonzero product column x lies kappa ones from a codeword of the code in
    position order, with the light vector y of kappa ones that shares x's syndrome there.

    The codeword is the first dependency among the position words, by elimination over F2.
    """
    kappa = math.ceil(1.1 * math.sqrt(ell))
    basis = {}
    for p, word in enumerate(joins._tables(n, kappa)[0]):
        combo = 1 << p
        while word and word.bit_length() - 1 in basis:
            pivot, pivot_combo = basis[word.bit_length() - 1]
            word, combo = word ^ pivot, combo ^ pivot_combo
        if not word:
            break
        basis[word.bit_length() - 1] = (word, combo)
    codeword = BitVector(n, combo)
    y = BitVector.from_indices(n, codeword.indices()[:kappa])
    x = codeword ^ y
    b = BitMatrix(n, n, [1 << 7 if x.bits >> i & 1 else 0 for i in range(n)])
    return JoinInstance(BitMatrix.identity(n), b, ell, kind="f2"), x, y


def test_mm_f2_recovers_a_heavy_column_next_to_a_codeword_under_every_seed_tried():
    # a promise-keeping column of 185 ones, 22 = kappa ones from a codeword of weight 207: with the
    # coordinates in position order it decodes to the light vector y, so mm_f2 would return 22 wrong ones
    # without an error.  The seeded placement makes it a uniform vector of 185 ones, which decodes wrong
    # with chance eps_185, so mm_f2 returns the product under every seed here
    n, ell = 512, 400
    inst, x, y = _column_near_a_codeword(n, ell)
    assert x.weight() == 185 <= ell and y.weight() == 22 and inst.oracle_product.weight() == 185
    unshuffled = SensingSketch(n, 22, seed=0)
    unshuffled._words, unshuffled._coordinate = list(joins._tables(n, 22)[0]), np.arange(n)
    assert unshuffled.decode(unshuffled.encode(x)) == y
    for seed in range(20):
        led = CommLedger()
        assert mm_f2(inst, led, random.Random(seed)) == inst.oracle_product
        assert led.amounts[B_TO_A, BITS, "dense-transfer"] == integer_bits(n) + index_qubits(n) + n


def test_mm_f2_recovers_a_column_of_n_ones_at_n_two_to_the_k_minus_one():
    # n = 63 fits in 6-bit positions, but the all-ones vector over all 63 nonzero elements of GF(2^6) is a
    # BCH codeword, so its column would decode to the zero vector under every seed; the sketch leaves
    # the element 1 out and takes 7 bits
    n = 63
    b = BitMatrix(n, n, [1] * n)
    inst = JoinInstance(BitMatrix.identity(n), b, n, kind="f2")
    for seed in range(5):
        assert mm_f2(inst, CommLedger(), random.Random(seed)) == inst.oracle_product


@st.composite
def f2_cases(draw):
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
        inst = JoinInstance(a, BitMatrix.random(n, n, 0.5, rng), draw(st.integers(1, n * n)), kind="f2")
    return inst, seed


def _heavy_and_light_columns(seed):
    """Identity A at n = 256 and a B with one column of 200 ones, more than 3 kappa = 54 at
    ell = 240, and twenty columns of 2 ones: the product is B, with 240 ones."""
    rng = random.Random(seed)
    n, data = 256, [0] * 256
    heavy, *light = rng.sample(range(n), 21)
    for i in rng.sample(range(n), 200):
        data[i] |= 1 << heavy
    for j in light:
        for i in rng.sample(range(n), 2):
            data[i] |= 1 << j
    return JoinInstance(BitMatrix.identity(n), BitMatrix(n, n, data), 240, kind="f2"), heavy


@settings(max_examples=40, deadline=None)
@given(f2_cases())
@example((_heavy_and_light_columns(0)[0], 0))
@example((JoinInstance(BitMatrix.identity(1), BitMatrix.identity(1), 1, kind="f2"), 5))
@example((JoinInstance(BitMatrix(8, 8, [0] * 8), BitMatrix.identity(8), 4, kind="f2"), 1))
def test_mm_f2_charges_follow_the_one_batch_formulas(case):
    # sketch-transfer is 2 kappa (n + 1).bit_length() n bits, kappa = ceil(1.1 sqrt(ell)), and dense-transfer
    # is the count plus index and column for each column of more than kappa ones, which the distance law
    # sends dense up to 3 kappa ones; past that, a wrong vector decodes only with chance eps_w over the seed
    inst, seed = case
    n = inst.A.rows
    led = CommLedger()
    try:
        got = mm_f2(inst, led, random.Random(seed))
    except PromiseViolationError:
        got = None
    kappa = math.ceil(1.1 * math.sqrt(inst.ell))
    failed = [j for j, column in enumerate(inst.oracle_product.transpose().data) if column.bit_count() > kappa]
    assert led.amounts == {
        (A_TO_B, BITS, "sketch-transfer"): 2 * kappa * (n + 1).bit_length() * n,
        (B_TO_A, BITS, "dense-transfer"): integer_bits(n) + len(failed) * (index_qubits(n) + n),
    }
    assert len(led) == 2
    # each column is decoded or shipped, so the output is the product unless it breaks the promise
    if inst.oracle_product.weight() <= inst.ell:
        assert got == inst.oracle_product
    else:
        assert got is None


def test_mm_f2_ships_each_column_past_the_sketch_dense():
    for seed in range(10):
        inst, heavy = _heavy_and_light_columns(seed)
        led = CommLedger()
        assert mm_f2(inst, led, random.Random(seed)) == inst.oracle_product
        dense = _dense_columns(inst, random.Random(seed))
        assert heavy in dense
        assert led.amounts[B_TO_A, BITS, "dense-transfer"] == integer_bits(256) + len(dense) * (8 + 256)


def _xor_selected(rows, word: int) -> int:
    """XOR of rows[k] over the set bits k of word, by a plain loop."""
    acc = 0
    for k, row in enumerate(rows):
        if word >> k & 1:
            acc ^= row
    return acc


def _reference_mm_f2(instance, ledger, rng):
    """mm_f2 by its messages: both operands transposed, one batch with a sketch of every column of
    A, each column's measurement folded from those sketches through the column of B, and each
    column that does not decode computed from the column of B that Bob ships."""
    n = instance.A.rows
    a_t, b_t = instance.A.transpose(), instance.B.transpose()
    sketch = SensingSketch(n, math.ceil(1.1 * math.sqrt(instance.ell)), seed=rng.getrandbits(32))
    ledger.charge(A_TO_B, BITS, sketch.measurement_len * n, "sketch-transfer")
    col_sketches = [sketch.encode(BitVector(n, a_t.data[i])).bits for i in range(n)]
    out_cols, dense = {}, []
    for j in range(n):
        meas = _xor_selected(col_sketches, b_t.data[j])
        decoded = sketch.decode(BitVector(sketch.measurement_len, meas))
        if decoded is None:
            dense.append(j)
            out_cols[j] = _xor_selected(a_t.data, b_t.data[j])
        else:
            out_cols[j] = decoded.bits
    ledger.charge(B_TO_A, BITS, integer_bits(n) + len(dense) * (index_qubits(n) + n), "dense-transfer")
    result = BitMatrix(n, n, [out_cols[j] for j in range(n)]).transpose()
    if result.weight() > instance.ell:
        raise PromiseViolationError(f"recovered {result.weight()} ones, promise allows {instance.ell}")
    return result


def _column_three_on_even_rows():
    b = BitMatrix(64, 64, [1 << 3 if i % 2 == 0 else 0 for i in range(64)])
    return JoinInstance(BitMatrix.identity(64), b, 1, kind="f2")


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
    # the one batch encodes each nonzero column of the product once, in column order
    assert encoded == [column for column in inst.oracle_product.transpose().data if column]
    return runs[0][0]


@settings(max_examples=120, deadline=None)
@given(f2_cases())
@example((JoinInstance(BitMatrix.identity(1), BitMatrix.identity(1), 1, kind="f2"), 5))
@example((JoinInstance(BitMatrix(8, 8, [0] * 8), BitMatrix.identity(8), 4, kind="f2"), 1))
@example((JoinInstance(BitMatrix.identity(8), BitMatrix(8, 8, [0] * 8), 4, kind="f2"), 1))
@example((gen_promise_instance(64, 64, 16, 5, "f2"), 5))
def test_mm_f2_sketches_only_nonzero_sparse_columns_like_the_full_sketch_reference(case):
    _compare_with_full_sketch_reference(*case)


def test_mm_f2_ends_in_the_reference_errors():
    # the weight-32 column is past what a sketch for kappa = 2 holds, so it goes dense, and
    # shipping it breaks the promise of one
    inst = _column_three_on_even_rows()
    assert _compare_with_full_sketch_reference(inst, 0)[0] is PromiseViolationError


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
        JoinInstance(BitMatrix.identity(16), b, ell=b.weight() + 1, kind="f2"),
    ]
    # every instance is built, so its product is computed, before the spy goes in
    calls = []
    real_product = f2core._product
    monkeypatch.setattr(f2core, "_product", lambda *args: calls.append(args) or real_product(*args))
    for seed, inst in enumerate(instances):
        assert mm_f2(inst, CommLedger(), random.Random(seed)) == inst.oracle_product
    assert calls == []


@pytest.mark.parametrize("kind", ["bool", "f2"])
@pytest.mark.parametrize("ell", [0, -1, -16])
def test_instances_with_ell_below_one_are_rejected(kind, ell):
    zero = BitMatrix(8, 8, [0] * 8)
    with pytest.raises(InstanceError, match=f"^ell must be at least 1, got {ell}$"):
        JoinInstance(zero, zero, ell, kind=kind)
    with pytest.raises(InstanceError, match="ell"):
        JoinInstance(zero, zero, ell, 0, kind, f2_product(zero, zero))


@pytest.mark.parametrize(
    "call, error, message",
    [
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
                JoinInstance(BitMatrix(2, 3, [0, 0]), BitMatrix(3, 2, [0, 0, 0]), 1, kind="f2"),
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
