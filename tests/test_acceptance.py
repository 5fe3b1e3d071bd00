"""Acceptance suite: one test per criterion, run at the stated tolerances.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS line per
criterion with the measured values.
"""

import itertools
import math
import random
import time
from collections import Counter

import numpy as np

from grover_statevector import grover_success_curve, grover_success_curves_batch, statevectors
from joinlab.f2core import (
    BitMatrix,
    BitVector,
    bool_product,
    f2_product,
    gen_promise_instance,
)
from joinlab.joins import (
    SensingSketch,
    bmm_cost_model,
    bmm_with_trace,
    freivalds_round,
    gen_hard_instance,
    mm_f2,
)
from joinlab.cli import _disj_pair, fit_exponent
from joinlab.ledger import A_TO_B, B_TO_A, BITS, QUBITS, CommLedger
from joinlab.qsim import CostModel, GroverPlan, _entry_probabilities, disj, grover_search

EXACT = CostModel.exact_mode()
COST = CostModel.cost_model()


def test_criterion_1_bmm_oracle_correctness():
    """bmm exact mode, n=m=32, ell in {8,32,64}: >=90/100 per cell, no spurious ones."""
    start = time.time()
    report = []
    for ell in (8, 32, 64):
        good = 0
        for trial in range(100):
            seed = 91000 + 97 * trial + ell
            inst = gen_promise_instance(32, 32, ell, seed, "bool")
            out, _ = bmm_with_trace(inst, EXACT, CommLedger(), random.Random(seed))
            good += out == inst.oracle_product
            for mine, truth in zip(out.data, inst.oracle_product.data):
                assert mine & ~truth == 0, "spurious one in the output"
        report.append((ell, good))
        assert good >= 90, f"ell={ell}: only {good}/100 matched the oracle"
    elapsed = time.time() - start
    assert elapsed < 600
    print(f"\nACCEPT-1 PASS bmm exact {report} (elapsed {elapsed:.1f}s)")


def test_criterion_2_mm_f2_correctness_and_cost():
    """mm_f2 grid: >=90/100 per cell; bits <= C n sqrt(ell) log^2 n, C stable within 2x."""
    cs, one_log, goods = {}, {}, {}
    for n in (64, 128, 256):
        for ell in (4, 16, 64):
            good = 0
            bits_total = 0
            trials = 100
            for trial in range(trials):
                seed = 5200 + 31 * trial + 7 * n + ell
                inst = gen_promise_instance(n, n, ell, seed, "f2")
                led = CommLedger()
                try:
                    out = mm_f2(inst, led, random.Random(seed))
                    good += out == inst.oracle_product
                except Exception:
                    pass
                bits_total += led.bits
            c_fit = (bits_total / trials) / (n * math.sqrt(ell) * math.log2(n) ** 2)
            cs[(n, ell)] = c_fit
            one_log[(n, ell)] = c_fit * math.log2(n)
            goods[(n, ell)] = good
            assert good >= 90, f"n={n} ell={ell}: {good}/{trials}"
    spread = max(cs.values()) / min(cs.values())
    assert spread < 2.0, f"constant spread {spread:.2f}"
    pretty = {k: round(v, 2) for k, v in cs.items()}
    worst = min(goods, key=goods.get)
    # ungated: the sketch's bits grow as n sqrt(ell) log n, so C per cell with one log is the flatter fit
    one_log_spread = max(one_log.values()) / min(one_log.values())
    print(
        f"\nACCEPT-2 PASS mm_f2 >=90/100 per cell, worst cell {worst} {goods[worst]}/100; "
        f"C per cell {pretty} spread {spread:.2f}x; "
        f"one-log C per cell {({k: round(v, 2) for k, v in one_log.items()})} spread {one_log_spread:.2f}x (ungated)"
    )


def test_criterion_3_scaling_fits():
    """Cost-model scaling: ell-slope 0.75+-0.1, n-slope 0.5+-0.1, disj slope 0.25+-0.1."""
    pts = []
    for ell in (16, 36, 64, 144, 324, 784):
        for trial in range(3):
            seed = 100 * trial + 7
            inst = gen_hard_instance(4096, ell, seed)
            led = CommLedger()
            bmm_cost_model(inst, COST, led, random.Random(seed))
            pts.append((ell, led.total()))
    ell_fit = fit_exponent(pts, n_boot=100)
    assert abs(ell_fit.slope - 0.75) <= 0.1, f"ell slope {ell_fit.slope:.3f}"

    pts = []
    for n in (256, 512, 1024, 2048, 4096, 8192, 16384):
        for trial in range(3):
            seed = 100 * trial + 13
            inst = gen_hard_instance(n, 256, seed)
            led = CommLedger()
            bmm_cost_model(inst, COST, led, random.Random(seed))
            pts.append((n, led.total()))
    n_fit = fit_exponent(pts, n_boot=100)
    assert abs(n_fit.slope - 0.5) <= 0.1, f"n slope {n_fit.slope:.3f}"

    pts = []
    for exp in range(12, 25, 2):
        n = 1 << exp
        for trial in range(3):
            seed = 50 * trial + 3
            a, b = _disj_pair(n, seed)
            led = CommLedger()
            disj(a, b, led, COST, random.Random(seed))
            pts.append((n, led.total() / math.log2(n)))
    disj_fit = fit_exponent(pts, n_boot=100)
    assert abs(disj_fit.slope - 0.25) <= 0.1, f"disj slope {disj_fit.slope:.3f}"
    print(
        f"\nACCEPT-3 PASS slopes: ell {ell_fit.slope:.3f} (target 0.75), "
        f"n {n_fit.slope:.3f} (target 0.5), disj/log {disj_fit.slope:.3f} (target 0.25)"
    )


def test_exact_bmm_slopes_on_criterion_3_grids():
    """Exact bmm on criterion 3's grids and seeds returns the oracle product; its slopes are reported.

    The ell- and n-slopes are printed with their margins against criterion 3's
    bands, 0.75 +- 0.1 and 0.5 +- 0.1, and are not gated: what exact mode
    should charge for its final searches and its inner boost is still open.
    """
    report = []
    for name, target, grid, build, base in (
        ("ell", 0.75, (16, 36, 64, 144, 324, 784), lambda ell, seed: gen_hard_instance(4096, ell, seed), 7),
        ("n", 0.5, (256, 512, 1024, 2048, 4096, 8192, 16384), lambda n, seed: gen_hard_instance(n, 256, seed), 13),
    ):
        pts = []
        for x in grid:
            for trial in range(3):
                seed = 100 * trial + base
                inst = build(x, seed)
                led = CommLedger()
                out = bmm_with_trace(inst, EXACT, led, random.Random(seed))[0]
                assert out == inst.oracle_product, f"{name} = {x}, seed {seed}"
                pts.append((x, led.total()))
        slope = fit_exponent(pts, n_boot=100).slope
        report.append(f"{name} {slope:.3f} (band {target} +- 0.1, margin {0.1 - abs(slope - target):+.3f})")
    print(f"\nEXACT-3 slopes, not gated: {', '.join(report)}")


def test_criterion_4_exact_grover_and_witness_distribution():
    """Simulated success == sin^2((2k+1) theta) within 1e-9; witness TV <= 0.1."""
    worst = 0.0
    for m in range(1, 257):
        curves = grover_success_curves_batch(m, 50)
        ts = np.arange(1, m + 1)
        theta = np.arcsin(np.sqrt(ts / m))
        ks = np.arange(0, 51)
        closed = np.sin(np.outer(2 * ks + 1, theta)) ** 2
        worst = max(worst, float(np.abs(curves.T - closed).max()))
    assert worst < 1e-9, f"max deviation {worst}"
    # spot check that the batch equals the one-state simulator
    for m, t in ((7, 3), (64, 10), (200, 1)):
        single = grover_success_curve(m, t, 50)
        batch = grover_success_curves_batch(m, 50)[t - 1]
        assert np.max(np.abs(single - batch)) < 1e-12
    # exact draws sample _entry_probabilities: it must match the statevector entry by entry
    worst_entry = 0.0
    for m in (*range(1, 65), 100):
        masks = np.tril(np.ones((m, m), dtype=bool))
        probs = np.array(list(itertools.islice(statevectors(masks), 51))) ** 2
        pairs = np.array([[_entry_probabilities(m, t, k) for t in range(1, m + 1)] for k in range(51)])
        expect = np.where(masks, pairs[:, :, :1], pairs[:, :, 1:])
        worst_entry = max(worst_entry, float(np.abs(probs - expect).max()))
    assert worst_entry < 1e-9, f"entry probabilities off by {worst_entry}"

    n = 64
    tvs = {}
    for t in (2, 4):
        a = BitVector.from_indices(n, range(16))
        b = BitVector.from_indices(n, list(range(t)) + list(range(30, 46)))
        theta = math.asin(math.sqrt(t / 16))
        k_opt = max(0, round(math.pi / (4 * theta) - 0.5))
        plan = GroverPlan((k_opt,) * 8, randomize=False)
        counts = Counter()
        hits = 0
        for trial in range(1000):
            # disj's search under a fixed plan: the lighter side a searches its own set, marked where b has it too
            w = grover_search(n, a.indices(), b.__getitem__, plan, CommLedger(), EXACT, random.Random(8000 + trial))
            if w is not None:
                assert a[w] == 1 and b[w] == 1
                counts[w] += 1
                hits += 1
        tv = 0.5 * sum(abs(counts[w] / hits - 1 / t) for w in range(t))
        tvs[t] = tv
        assert tv <= 0.1, f"t={t} TV {tv:.3f}"
    print(
        f"\nACCEPT-4 PASS grover closed-form max err {worst:.2e}; entry probabilities max err {worst_entry:.2e}; "
        f"witness TV {dict((k, round(v, 3)) for k, v in tvs.items())}"
    )


def test_criterion_5_sparse_recovery():
    """sketch_decode succeeds on > 0.99 of 1000 random x for both parameter sets."""
    rates = {}
    for n, kappa in ((256, 8), (1024, 16)):
        good = 0
        for trial in range(1000):
            rng = random.Random(777000 + trial)
            sketch = SensingSketch(n, kappa, seed=rng.getrandbits(32))
            x = BitVector.random_weight(n, rng.randint(0, kappa), rng)
            good += sketch.decode(sketch.encode(x)) == x
        rates[(n, kappa)] = good / 1000
        assert good / 1000 > 0.99, f"({n},{kappa}): {good}/1000"
    print(f"\nACCEPT-5 PASS sketch recovery {rates}")


def test_criterion_6_freivalds_exactness():
    """m=3, one nonzero product column: exactly 4 of the 8 probe vectors detect it."""
    a = BitMatrix.from_numpy([[1, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0]])
    b = BitMatrix.from_numpy([[0, 0, 1, 0], [0] * 4, [0] * 4, [0] * 4])
    assert f2_product(a, b).transpose().data[2].bit_count() > 0
    detections = 0
    for vbits in range(8):
        result = freivalds_round(a, b, BitVector(3, vbits), CommLedger())
        detections += result[2]
    assert detections == 4
    print("\nACCEPT-6 PASS freivalds single-round detection 4/8 over all probes")


def test_criterion_7_reduction_validators():
    """All four embeddings pass 100/100 random validations at n <= 32."""
    from joinlab.reductions import (
        embed_disj_family,
        embed_inner_product,
        embed_ip_f2,
        embed_or_blocks,
    )

    counts = {}
    n = 32
    for family_idx, name in enumerate(("disj-family", "inner-product", "or-blocks", "ip-f2")):
        passed = 0
        for trial in range(100):
            rng = random.Random(600000 + 1000 * family_idx + trial)
            if name == "disj-family":
                k = rng.randint(1, 5)
                emb = embed_disj_family(
                    [BitVector.random(n, 0.3, rng) for _ in range(k)],
                    [BitVector.random(n, 0.3, rng) for _ in range(k)],
                    n,
                )
            elif name == "inner-product":
                ell = rng.randint(1, n * n)
                emb = embed_inner_product(
                    BitVector.random(ell, 0.4, rng), BitVector.random(ell, 0.4, rng), n
                )
            elif name == "or-blocks":
                s = rng.randint(1, 5)
                k = rng.randint(1, n // s)
                emb = embed_or_blocks(
                    [
                        (BitMatrix.random(s, s, 0.4, rng), BitMatrix.random(s, s, 0.4, rng))
                        for _ in range(k)
                    ],
                    n,
                )
            else:
                k = rng.randint(1, 3)
                emb = embed_ip_f2(
                    [BitVector.random(n, 0.5, rng) for _ in range(k)],
                    [BitVector.random(n, 0.5, rng) for _ in range(k)],
                    n,
                )
            passed += emb.validate()
        counts[name] = passed
        assert passed == 100, f"{name}: {passed}/100"
    print(f"\nACCEPT-7 PASS reduction validators {counts}")


def test_criterion_8_invariant_suite():
    """Trace, ledger, sketch-linearity, and domination invariants over 1000 seeds."""
    # bmm trace invariants: 800 cost-model runs plus 200 exact runs
    for seed in range(800):
        m = 12 + (seed % 13)
        ell = 1 + (seed % (m * m // 2 + 1))
        inst = gen_promise_instance(m, m, ell, 300000 + seed, "bool")
        trace = bmm_cost_model(inst, COST, CommLedger(), random.Random(seed))
        assert trace.total_ones() == trace.product.weight()
        assert trace.t <= min(m, inst.ell + 1)
        for rnd in trace.rounds:
            assert rnd.collisions >= 1
            assert rnd.min_weight <= math.sqrt(inst.ell) + 1e-9
        assert trace.product == inst.oracle_product
    for seed in range(200):
        inst = gen_promise_instance(16, 16, 8, 310000 + seed, "bool")
        out, trace = bmm_with_trace(inst, EXACT, CommLedger(), random.Random(seed))
        assert trace.total_ones() == out.weight()
        assert trace.t <= min(16, inst.ell + 1)
        for rnd in trace.rounds:
            assert rnd.min_weight <= math.sqrt(inst.ell) + 1e-9

    # ledger additivity and monotonicity
    for seed in range(1000):
        rng = random.Random(seed)
        led = CommLedger()
        running_bits = running_qubits = charged = 0
        for _ in range(rng.randint(1, 30)):
            kind = BITS if rng.random() < 0.5 else QUBITS
            amount = rng.randint(1, 50)
            led.charge(rng.choice((A_TO_B, B_TO_A)), kind, amount, rng.choice("xyz"))
            charged += amount
            assert led.bits >= running_bits and led.qubits >= running_qubits
            running_bits, running_qubits = led.bits, led.qubits
        assert led.bits + led.qubits == sum(led.amounts.values()) == charged
        rep = led.report()
        assert rep["total_bits"] == led.bits and rep["total_qubits"] == led.qubits

    # sketch linearity, exactly
    sketch = SensingSketch(128, 6, seed=42)
    for seed in range(1000):
        rng = random.Random(20000 + seed)
        x = BitVector.random(128, 0.08, rng)
        y = BitVector.random(128, 0.08, rng)
        assert sketch.encode(x ^ y) == sketch.encode(x) ^ sketch.encode(y)

    # every F2-product one is a Boolean-product one
    for seed in range(1000):
        rng = random.Random(40000 + seed)
        m = rng.randint(1, 24)
        n = rng.randint(1, 24)
        a = BitMatrix.random(m, n, rng.uniform(0.1, 0.6), rng)
        b = BitMatrix.random(n, m, rng.uniform(0.1, 0.6), rng)
        field = f2_product(a, b)
        semiring = bool_product(a, b)
        for fr, br in zip(field.data, semiring.data):
            assert fr & ~br == 0
    print("\nACCEPT-8 PASS invariant suite over 1000 seeds per family")
