"""Search subroutines: exact amplitudes, witnesses, and charged costs."""

import math
import random
from collections import Counter

import numpy as np
import pytest

from joinlab.f2core import BitMatrix, BitVector
from joinlab.ledger import CommLedger, InertLedger, index_qubits
from joinlab.qsim import (
    BipartiteGraph,
    CostModel,
    GroverPlan,
    disj,
    graph_collision,
    graph_collision_all,
    grover_search,
    grover_success_curve,
    grover_success_curves_batch,
    instance_search,
)

EXACT = CostModel.exact_mode()


def test_cost_model_validation():
    with pytest.raises(ValueError):
        CostModel("fuzzy")
    with pytest.raises(ValueError):
        CostModel.cost_model(c_shuttle=0.5)
    with pytest.raises(ValueError):
        CostModel.cost_model(epsilon=0.2)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            CostModel.cost_model(c_shuttle=bad)
        with pytest.raises(ValueError, match="finite"):
            CostModel.cost_model(c_round=bad)


def test_success_curve_matches_closed_form():
    for m in range(1, 33):
        curves = grover_success_curves_batch(m, 25)
        for t in range(1, m + 1):
            theta = math.asin(math.sqrt(t / m))
            closed = [math.sin((2 * k + 1) * theta) ** 2 for k in range(26)]
            assert np.max(np.abs(curves[t - 1] - closed)) < 1e-9


def test_batch_curves_agree_with_scalar_simulator():
    rng = random.Random(3)
    for _ in range(25):
        m = rng.randint(1, 64)
        t = rng.randint(1, m)
        batch = grover_success_curves_batch(m, 12)[t - 1]
        single = grover_success_curve(m, t, 12)
        assert np.max(np.abs(batch - single)) < 1e-12


def test_success_curve_example_support4():
    # support 4, one marked element: rotation angle asin(1/2)
    theta = math.asin(0.5)
    curve = grover_success_curve(4, 1, 8)
    for k in range(9):
        assert abs(curve[k] - math.sin((2 * k + 1) * theta) ** 2) < 1e-9


def test_grover_no_marked_returns_none():
    led = CommLedger()
    out = grover_search(
        16, range(8), lambda i: False, None, led, EXACT, random.Random(0)
    )
    assert out is None
    assert led.qubits > 0  # the plan ran before giving up


def test_grover_all_marked_trivial_measurement():
    led = CommLedger()
    out = grover_search(
        16,
        range(4),
        lambda i: True,
        GroverPlan((1,), reps_per_stage=1),
        led,
        EXACT,
        random.Random(1),
    )
    assert out in range(4)
    # zero iterations drawn: only the verification round trip is charged
    assert led.phase_total("grover-shuttle") == 0
    assert led.phase_total("grover-shuttle-verify") > 0


def test_grover_empty_support_rejected():
    with pytest.raises(ValueError):
        grover_search(8, [], lambda i: True, None, CommLedger(), EXACT, random.Random(0))


def test_grover_cap_enforced():
    big = 1 << 21
    with pytest.raises(Exception):
        grover_search(big, [0], lambda i: True, None, CommLedger(), EXACT, random.Random(0))


def test_disj_trivial_examples():
    led = CommLedger()
    front = BitVector.from_indices(4, [0, 1])
    assert disj(front, BitVector.from_indices(4, [2, 3]), led, EXACT, random.Random(2)) is None
    # unique shared element sits at position 1 (0-indexed)
    w = disj(front, BitVector.from_indices(4, [1, 2]), led, EXACT, random.Random(2))
    assert w == 1


def test_disj_length_mismatch():
    with pytest.raises(Exception):
        disj(BitVector(4), BitVector(5), CommLedger(), EXACT, random.Random(0))


def test_disj_monte_carlo_success_and_uniformity():
    n = 64
    a = BitVector.from_indices(n, range(8))
    b = BitVector.from_indices(n, [6, 7] + list(range(32, 62)))
    witnesses = Counter()
    hits = 0
    trials = 1000
    for tr in range(trials):
        w = disj(a, b, InertLedger(), EXACT, random.Random(5000 + tr))
        if w is not None:
            assert w in (6, 7)
            hits += 1
            witnesses[w] += 1
    assert hits / trials >= 2 / 3
    tv = 0.5 * sum(abs(witnesses[w] / hits - 0.5) for w in (6, 7))
    assert tv <= 0.1


def test_disj_uniform_at_optimal_iterations():
    n = 64
    for t in (2, 4):
        a = BitVector.from_indices(n, range(16))
        b = BitVector.from_indices(n, list(range(t)) + list(range(30, 46)))
        theta = math.asin(math.sqrt(t / 16))
        k_opt = max(0, round(math.pi / (4 * theta) - 0.5))
        plan = GroverPlan.fixed(k_opt, reps=8)
        counts = Counter()
        hits = 0
        for tr in range(1000):
            w = disj(a, b, InertLedger(), EXACT, random.Random(8000 + tr), plan=plan)
            if w is not None:
                counts[w] += 1
                hits += 1
        assert hits >= 2 * 1000 // 3
        tv = 0.5 * sum(abs(counts[w] / hits - 1 / t) for w in range(t))
        assert tv <= 0.1


def test_disj_cost_model_charges_formula():
    n = 64
    a = BitVector.from_indices(n, range(8))
    b = BitVector.from_indices(n, [0, 1] + list(range(40, 60)))
    model = CostModel.cost_model(c_round=2.0)
    led = CommLedger()
    w = disj(a, b, led, model, random.Random(4))
    assert w in (0, 1)
    iters = math.ceil(2.0 * math.sqrt(8 / 3))
    assert led.phase_total("disj") == iters * 2 * index_qubits(n)


def test_disj_cost_model_epsilon_only_suppresses():
    n = 32
    a = BitVector.from_indices(n, [3])
    b = BitVector.from_indices(n, [3])
    model = CostModel.cost_model(epsilon=0.09)
    outcomes = Counter()
    for tr in range(400):
        outcomes[disj(a, b, CommLedger(), model, random.Random(tr))] += 1
    assert outcomes[3] > 300
    assert outcomes[None] > 0  # injected false negatives
    # disjoint inputs never produce a witness, epsilon or not
    c = BitVector.from_indices(n, [5])
    for tr in range(50):
        assert disj(a, c, CommLedger(), model, random.Random(tr)) is None


def test_graph_collision_trivials():
    g = BipartiteGraph(BitMatrix(4, 4, [0b1111] * 4))
    rng = random.Random(0)
    assert graph_collision(g, BitVector(4), BitVector(4, 0b1111), CommLedger(), EXACT, rng) is None
    e = graph_collision(
        g,
        BitVector.from_indices(4, [0]),
        BitVector.from_indices(4, [1]),
        CommLedger(),
        EXACT,
        rng,
    )
    assert e == (0, 1)


def test_graph_collision_monte_carlo():
    n = 32
    good = 0
    trials = 500
    for tr in range(trials):
        rng = random.Random(600 + tr)
        g = BipartiteGraph.random(n, n, 0.5, rng)
        f_a = BitVector.random_weight(n, 4, rng)
        f_b = BitVector.random_weight(n, 4, rng)
        truth = any(g.has_edge(i, j) for i in f_a.indices() for j in f_b.indices())
        edge = graph_collision(g, f_a, f_b, InertLedger(), EXACT, rng)
        if edge is None:
            good += not truth
        else:
            i, j = edge
            good += g.has_edge(i, j) and f_a[i] == 1 and f_b[j] == 1 and truth
    assert good / trials >= 2 / 3


def test_graph_collision_all_diagonal():
    g = BipartiteGraph(BitMatrix.identity(4))
    full = BitVector(4, 0b1111)
    got = graph_collision_all(g, full, full, CommLedger(), EXACT, random.Random(2))
    assert got == frozenset((i, i) for i in range(4))


def test_graph_collision_all_monte_carlo_with_cost_band():
    n = 32
    good = 0
    trials = 300
    ratios = []
    for tr in range(trials):
        rng = random.Random(1600 + tr)
        g = BipartiteGraph.random(n, n, 0.3, rng)
        f_a = BitVector.random_weight(n, 5, rng)
        f_b = BitVector.random_weight(n, 5, rng)
        truth = frozenset(
            (i, j) for i in f_a.indices() for j in f_b.indices() if g.has_edge(i, j)
        )
        led = CommLedger()
        got = graph_collision_all(g, f_a, f_b, led, EXACT, rng)
        good += got == truth
        lam = len(truth)
        scale = math.sqrt((lam + 1) * 5) * math.log2(n)
        ratios.append(led.total() / scale)
    assert good / trials >= 2 / 3
    # charged cost tracks the sqrt(lambda * min-weight) * log n shape
    mean_ratio = sum(ratios) / len(ratios)
    assert 1.0 <= mean_ratio <= 60.0


def test_instance_search_trivials():
    rng = random.Random(0)
    assert instance_search([False] * 8, CommLedger(), EXACT, rng) is None
    led = CommLedger()
    idx = instance_search([True] * 8, led, EXACT, random.Random(1))
    assert idx in range(8)
    with pytest.raises(ValueError):
        instance_search([], CommLedger(), EXACT, rng)


def test_instance_search_cost_within_factor_two():
    inner_cost = math.ceil(math.sqrt(4)) * 2 * index_qubits(16)
    answers = [False, True, False, False, True, False, False, False]
    totals = []
    found = 0
    trials = 400
    for tr in range(trials):
        led = CommLedger()
        idx = instance_search(
            answers, led, EXACT, random.Random(tr), inner_cost_qubits=inner_cost
        )
        if idx is not None:
            assert answers[idx]
            found += 1
        totals.append(led.qubits)
    assert found / trials >= 2 / 3
    cap = max(1, math.ceil(math.pi / 4 * math.sqrt(8)))
    boost = max(1, math.ceil(math.log2(100 * cap)))
    predicted = math.sqrt(8 / 2) * (2 * boost * inner_cost + 2 * index_qubits(8))
    mean = sum(totals) / len(totals)
    assert predicted / 2 <= mean <= predicted * 2


def test_ledger_entry_sequence_reproducible():
    n = 64
    a = BitVector.from_indices(n, range(6))
    b = BitVector.from_indices(n, [4, 5, 20, 21])
    led1, led2 = CommLedger(), CommLedger()
    w1 = disj(a, b, led1, EXACT, random.Random(77))
    w2 = disj(a, b, led2, EXACT, random.Random(77))
    assert w1 == w2
    assert led1.entries == led2.entries


def test_plan_validation():
    with pytest.raises(ValueError):
        GroverPlan(())
    with pytest.raises(ValueError):
        GroverPlan((0,), randomize=True)
    plan = GroverPlan.default(64)
    assert plan.stage_caps[-1] == math.ceil(math.pi / 4 * 8)
    assert all(c >= 1 for c in plan.stage_caps)
