"""Search subroutines: exact amplitudes, witnesses, and charged costs."""

import bisect
import copy
import itertools
import math
import random
import re
from collections import Counter
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from grover_statevector import (
    fixed_point_amplitudes,
    grover_success_curve,
    grover_success_curves_batch,
    statevectors,
)
from joinlab import qsim
from joinlab.f2core import BitMatrix, BitVector, DimensionError
from joinlab.ledger import (
    A_TO_B,
    B_TO_A,
    BITS,
    QUBITS,
    CommLedger,
    index_qubits,
    integer_bits,
    outcome_bits,
)
from joinlab.qsim import (
    BipartiteGraph,
    CostModel,
    GroverPlan,
    _amplify,
    _entry_probabilities,
    _instance_messages,
    _search_messages,
    disj,
    graph_collision,
    graph_collision_all,
    grover_search,
    instance_search,
)

EXACT = CostModel.exact_mode()
COST = CostModel.cost_model()


# ---------------------------------------------------------------------------
# statevector reference for the closed-form exact draw
# ---------------------------------------------------------------------------


def _sample_index(probs: np.ndarray, rng: random.Random) -> int:
    cum = np.cumsum(probs)
    total = float(cum[-1])
    r = rng.random() * total
    return int(min(np.searchsorted(cum, r, side="right"), len(probs) - 1))


def _stdlib_draws(plan, rng):
    """Each measurement's iteration count, drawn lazily by the stdlib: randrange(cap), or the cap of a fixed plan."""
    for cap in plan.caps:
        yield rng.randrange(cap) if plan.randomize else cap


def _reference_amplify(domain, marked_mask, plan, rng):
    """The exact branch of ``_amplify`` as a statevector simulation: the witness and the draws."""
    draws = []
    for iterations in _stdlib_draws(plan, rng):
        amps = next(itertools.islice(statevectors(marked_mask), iterations, None))
        candidate = _sample_index(amps * amps, rng)
        draws.append(iterations)
        if marked_mask[candidate]:
            return domain[candidate], draws
    return None, draws


def _random_mask(m: int, t: int, rng: random.Random) -> np.ndarray:
    mask = np.zeros(m, dtype=bool)
    mask[rng.sample(range(m), t)] = True
    return mask


def test_entry_probabilities_match_statevector():
    rng = random.Random(11)
    cases = [(m, range(m + 1)) for m in range(1, 65)]
    cases += [(m, (0, 1, rng.randint(2, m - 1), m)) for m in rng.sample(range(65, 257), 12)]
    for m, ts in cases:
        masks = np.array([_random_mask(m, t, rng) for t in ts])
        probs = np.array(list(itertools.islice(statevectors(masks), 51))) ** 2
        pairs = [[_entry_probabilities(m, t, k) for t in ts] for k in range(51)]
        marked, unmarked = np.array(pairs).T
        expect = np.where(masks, marked.T[..., None], unmarked.T[..., None])
        assert np.max(np.abs(probs - expect)) < 1e-12, m


@pytest.mark.parametrize("denominator", [300, 102_600, 30_000, 10_260_000])
def test_fixed_point_probabilities_match_statevector(denominator):
    # the certificate's closed form against the generalized iterate, entry by entry, for every N <= 64 and t
    failure = 1 / denominator
    for m in range(1, 65):
        plan = GroverPlan.fixed_point(m, failure)
        (rounds,) = plan.caps
        masks = np.tril(np.ones((m + 1, m), dtype=bool), -1)  # row t marks the first t entries
        probs = np.abs(fixed_point_amplitudes(masks, 2 * rounds + 1, failure)) ** 2
        marked, unmarked = np.array([plan.probabilities(m, t, rounds) for t in range(m + 1)]).T
        expect = np.where(masks, marked[:, None], unmarked[:, None])
        assert np.max(np.abs(probs - expect)) < 1e-12, m


@given(
    st.integers(1, 64).flatmap(lambda m: st.tuples(st.just(m), st.integers(0, m))),
    st.sampled_from((1 / 300, 1 / 102600, 1 / 30_000, 1 / 10_260_000)),
    st.integers(0, 2**32),
)
@example((1, 1), 1 / 300, 0)
@example((64, 1), 1 / 102600, 1)
def test_fixed_point_draw_matches_statevector(case, failure, seed):
    # one unrandomized measurement after the certificate's rounds, sampled from the generalized iterate
    m, t = case
    mask = _random_mask(m, t, random.Random(seed))
    plan = GroverPlan.fixed_point(m, failure)
    (rounds,) = plan.caps
    domain = range(1000, 1000 + m)
    rng_got, rng_want = random.Random(seed), random.Random(seed)
    got = _amplify(domain, np.flatnonzero(mask).tolist(), plan, EXACT, rng_got)
    candidate = _sample_index(np.abs(fixed_point_amplitudes(mask, 2 * rounds + 1, failure)) ** 2, rng_want)
    want = (domain[candidate] if mask[candidate] else None, [rounds])
    assert (got, rng_got.random()) == (want, rng_want.random())


def _fixed_plans(most: int):
    """Plans that run 1 to 3 measurements at one iteration count in [0, most], none randomized."""
    return st.builds(lambda k, reps: GroverPlan((k,) * reps, randomize=False), st.integers(0, most), st.integers(1, 3))


@st.composite
def amplify_cases(draw):
    m = draw(st.integers(1, 256))
    t = draw(st.one_of(st.sampled_from((0, 1, m)), st.integers(0, m)))
    fixed = _fixed_plans(50)
    plan = draw(st.one_of(st.none(), fixed))
    return m, t, plan, draw(st.integers(0, 2**32))


@given(amplify_cases())
@example((1, 1, None, 0))
@example((256, 0, GroverPlan((50,) * 3, randomize=False), 1))
def test_closed_form_draws_match_statevector(case):
    m, t, plan, seed = case
    mask = _random_mask(m, t, random.Random(seed))
    domain = range(1000, 1000 + m)
    rng_got, rng_want = random.Random(seed), random.Random(seed)
    got = _amplify(domain, np.flatnonzero(mask).tolist(), plan, EXACT, rng_got)
    want = _reference_amplify(domain, mask, plan or GroverPlan.default(m), rng_want)
    # same witness, same draws, same generator state afterwards
    assert (got, rng_got.random()) == (want, rng_want.random())


def _reference_bisect_amplify(domain, marked_mask, plan, rng):
    """The exact branch of ``_amplify`` that bisects prefix masses on every draw, whatever t is,
    over a list of the running marked counts built from a bool mask."""
    m = len(domain)
    marked = np.cumsum(marked_mask).tolist()
    t = marked[-1]
    draws = []
    for iterations in _stdlib_draws(plan, rng):
        pm, pu = _entry_probabilities(m, t, iterations)
        r = rng.random() * (pu * (m - t) + pm * t)
        candidate = bisect.bisect_right(
            range(m - 1), r, key=lambda i: pu * (i + 1 - marked[i]) + pm * marked[i]
        )
        draws.append(iterations)
        if marked_mask[candidate]:
            return domain[candidate], draws
    return None, draws


@st.composite
def unmarked_cases(draw):
    n = draw(st.integers(1, 4096))
    domain = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=min(n, 300))))
    fixed = _fixed_plans(60)
    zero = st.builds(GroverPlan, st.lists(st.just(0), min_size=1, max_size=9).map(tuple), st.just(False))
    # the default plan of another support size: a schedule of another length
    default = st.builds(GroverPlan.default, st.integers(1, 4096))
    plan = draw(st.one_of(st.none(), default, fixed, zero))
    return n, domain, plan, draw(st.integers(0, 2**32))


@given(unmarked_cases())
@example((1, [0], None, 0))
@example((4096, list(range(0, 4096, 16)), GroverPlan((0,) * 3, randomize=False), 5))
def test_unmarked_domain_skips_the_bisect_but_not_the_draws(case):
    _, domain, plan, seed = case
    mask = np.zeros(len(domain), dtype=bool)
    rng_got, rng_want = random.Random(seed), random.Random(seed)
    got = _amplify(domain, [], plan, EXACT, rng_got)
    reference_plan = plan or GroverPlan.default(len(domain))
    want = _reference_bisect_amplify(domain, mask, reference_plan, rng_want)
    # no witness, the same draws, the same generator state afterwards
    assert (got, rng_got.random()) == (want, rng_want.random())
    found, draws = got
    assert found is None
    assert len(draws) == len(reference_plan.caps)


@st.composite
def marked_cases(draw):
    m = draw(st.integers(1, 4096))
    t = draw(st.one_of(st.sampled_from((1, m)), st.integers(1, m)))
    seed = draw(st.integers(0, 2**32))
    hits = sorted(random.Random(seed).sample(range(m), t))
    fixed = _fixed_plans(60)
    plan = draw(st.one_of(st.none(), st.builds(GroverPlan.default, st.integers(1, 4096)), fixed))
    return m, hits, plan, seed


@given(marked_cases())
@example((1, [0], None, 0))
@example((4096, list(range(4096)), None, 1))
@example((4096, [4095], None, 2))
@example((4096, [0], None, 3))
@example((4096, [4095], GroverPlan((50,) * 3, randomize=False), 4))
@example((2, [1], GroverPlan((0,) * 3, randomize=False), 5))
def test_marked_domain_matches_the_prefix_count_reference(case):
    # testing the hits picks the candidate the bisect over the running-count list picks
    m, hits, plan, seed = case
    domain = range(1000, 1000 + m)
    mask = np.zeros(m, dtype=bool)
    mask[hits] = True
    rng_got, rng_want = random.Random(seed), random.Random(seed)
    got = _amplify(domain, hits, plan, EXACT, rng_got)
    want = _reference_bisect_amplify(domain, mask, plan or GroverPlan.default(m), rng_want)
    # the same witness, the same draws, the same generator state afterwards
    assert (got, rng_got.random()) == (want, rng_want.random())


class _OnTheMasses(random.Random):
    """A generator whose ``random()`` puts r on a prefix mass of the current draw, or one float step off it.

    It reads the draw's iteration count off its own last ``getrandbits`` (or takes the fixed
    count it was given), and it picks the mass and the step with the base ``random()``, so
    two copies with one seed stay in step whatever the caller does with the values.
    """

    def __init__(self, seed, m, hits, iterations=None):
        self.m, self.hits, self.iterations = m, hits, iterations
        super().__init__(seed)

    def getrandbits(self, k):
        self.iterations = super().getrandbits(k)
        return self.iterations

    def random(self):
        u = super().random()
        m, hits, t = self.m, self.hits, len(self.hits)
        pm, pu = _entry_probabilities(m, t, self.iterations)
        total = pu * (m - t) + pm * t
        # the masses through each hit and through the entry before it, the last entry and a random one
        entries = [h + d for h in hits for d in (-1, 0)] + [m - 1, int(u * m)]
        i = entries[int(u * 7919) % len(entries)]
        c = bisect.bisect_right(hits, i)
        mass = pu * (i + 1 - c) + pm * c
        near = [mass / total]
        for _ in range(2):
            near = [math.nextafter(near[0], 0.0)] + near + [math.nextafter(near[-1], 2.0)]
        on = next((v for v in near if v * total == mass), near[2])
        v = (math.nextafter(on, 0.0), on, math.nextafter(on, 2.0))[int(u * 104729) % 3]
        return min(max(v, 0.0), math.nextafter(1.0, 0.0))


@st.composite
def boundary_cases(draw):
    m = draw(st.integers(1, 64))
    ends = st.sets(st.sampled_from(sorted({0, m - 1})))
    hits = sorted(draw(ends) | draw(st.one_of(st.just(set(range(m))), st.sets(st.integers(0, m - 1)))))
    assume(hits)
    plan = draw(st.one_of(st.none(), st.builds(GroverPlan.default, st.integers(1, 256)), _fixed_plans(12)))
    return m, hits, plan, draw(st.integers(0, 2**32))


@given(boundary_cases())
@example((1, [0], None, 0))
@example((2, [0], None, 1))
@example((2, [1], None, 2))
@example((2, [0, 1], GroverPlan((1,) * 3, randomize=False), 3))
@example((9, [0, 8], None, 4))
@example((64, list(range(64)), None, 5))
def test_hit_test_matches_the_bisect_with_r_on_the_masses(case):
    # r lands on, or one float step beside, the prefix mass through a hit or the entry before it,
    # where the hit test's two comparisons and the bisect's decide
    m, hits, plan, seed = case
    domain = range(1000, 1000 + m)
    mask = np.zeros(m, dtype=bool)
    mask[hits] = True
    fixed = plan.caps[0] if plan is not None and not plan.randomize else None
    rng_got, rng_want = (_OnTheMasses(seed, m, hits, fixed) for _ in range(2))
    got = _amplify(domain, hits, plan, EXACT, rng_got)
    want = _reference_bisect_amplify(domain, mask, plan or GroverPlan.default(m), rng_want)
    assert got == want
    assert rng_got.getstate() == rng_want.getstate()


@given(st.integers(1, 600), st.integers(0, 2**32))
@example(1, 0)
@example(600, 1)
def test_cost_model_search_is_one_analytical_draw(m, seed):
    # one measurement at ceil(sqrt(m / (t + 1)))
    rng = random.Random(seed)
    t = rng.choice((0, 1, m, rng.randint(0, m)))
    mask = _random_mask(m, t, rng)
    domain = range(1000, 1000 + m)
    found, draws = _amplify(domain, np.flatnonzero(mask).tolist(), None, CostModel.cost_model(), rng)
    assert draws == [math.ceil(math.sqrt(m / (t + 1)))]
    assert (found is None) == (t == 0)
    assert found is None or mask[found - 1000]


def _charge_grover_measurements(ledger, draws, n, phase, directions):
    """The charges ``grover_search`` made through ``charge``, one measurement at a time."""
    width, announce = index_qubits(n), outcome_bits(n)
    for iterations in draws:
        if iterations > 0:
            ledger.charge(directions[0], QUBITS, iterations * width, phase)
            ledger.charge(directions[1], QUBITS, iterations * width, phase)
        ledger.charge(directions[0], QUBITS, width, phase + "-verify")
        ledger.charge(directions[1], BITS, announce, phase + "-verify")


def _charge_instance_measurements(ledger, draws, big_n, inner_cost_qubits):
    """The charges ``instance_search`` made through ``charge``, one measurement at a time, under the
    default plan: a round's inner calls boosted for its ceiling h, a verification's for a run of 1."""
    inner = math.ceil(math.log2(100.0 * GroverPlan.default(big_n).caps[-1])) * inner_cost_qubits
    verify = math.ceil(math.log2(100.0)) * inner_cost_qubits
    width = index_qubits(big_n)
    for iterations in draws:
        if iterations > 0:
            ledger.charge(A_TO_B, QUBITS, iterations * width, "instance-shuttle")
            ledger.charge(B_TO_A, QUBITS, iterations * width, "instance-shuttle")
        if inner:
            if iterations > 0:
                ledger.charge(A_TO_B, QUBITS, iterations * inner, "inner-protocol")
                ledger.charge(B_TO_A, QUBITS, iterations * inner, "inner-protocol")
            ledger.charge(A_TO_B, QUBITS, verify, "instance-shuttle-verify")
        ledger.charge(B_TO_A, BITS, outcome_bits(big_n), "instance-shuttle-verify")


def _ledger_state(ledger):
    return ledger.amounts, ledger.bits, ledger.qubits, len(ledger), ledger.report()


@st.composite
def batch_cases(draw):
    n = draw(st.integers(1, 300))
    domain = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=min(n, 40))))
    marked = draw(st.sets(st.sampled_from(domain), max_size=3))
    counts = draw(st.lists(st.integers(0, 12), min_size=1, max_size=20))
    inner = draw(st.sampled_from((0, 1, draw(st.integers(2, 500)))))
    return n, domain, marked, counts, inner, draw(st.integers(0, 2**32))


@given(batch_cases())
@example((1, [0], set(), [0], 0, 0))
@example((64, [3, 9, 40], {9}, [0, 0, 5, 1, 0], 7, 1))
def test_batched_search_charges_match_per_measurement_charges(case):
    # one batch per search logs what one charge call per record used to:
    # zero-iteration measurements pay only their verification
    n, domain, marked, counts, inner, seed = case
    directions = (B_TO_A, A_TO_B) if seed % 2 else (A_TO_B, B_TO_A)
    got, want = CommLedger(), CommLedger()
    for led in (got, want):
        led.charge(A_TO_B, BITS, 3, "earlier")
    # a search stops at its first witness, so it takes a prefix of the counts: the reference's draws
    plan = GroverPlan(tuple(counts), randomize=False)
    grover_search(n, domain, marked.__contains__, plan, got, EXACT, random.Random(seed),
                  phase="probe", directions=directions)
    _, taken = _reference_bisect_amplify(domain, np.isin(domain, list(marked)), plan, random.Random(seed))
    _charge_grover_measurements(want, taken, n, "probe", directions)
    assert _ledger_state(got) == _ledger_state(want)

    def planned(domain, hits, _default, *rest, **kwargs):
        return _amplify(domain, hits, plan, *rest, **kwargs)

    # the plan reaches the draws alone: instance_search was given no plan, so the templates, boosts
    # included, are the default plan's
    with patch("joinlab.qsim._amplify", planned):
        instance_search(range(n), sorted(marked), got, random.Random(seed), inner_cost_qubits=inner)
    _, taken = _reference_bisect_amplify(range(n), np.isin(range(n), list(marked)), plan, random.Random(seed))
    _charge_instance_measurements(want, taken, n, inner)
    assert _ledger_state(got) == _ledger_state(want)


caps_near_powers = st.integers(0, 70).flatmap(
    lambda k: st.sampled_from(sorted({1, 2**k, 2**k + 1, max(1, 2**k - 1)}))
)


@given(st.lists(st.one_of(caps_near_powers, st.integers(1, 10**6)), min_size=1, max_size=30),
       st.integers(0, 2**64))
@example([1, 2, 3, 4, 5, 7, 8, 9, 2**64 - 1, 2**64, 2**64 + 1], 0)
def test_plan_draws_match_randrange(caps, seed):
    # an unmarked exact search draws the same values as randrange over the caps, each followed by
    # its measurement's random(), and leaves the generator in the same state
    got, want = random.Random(seed), random.Random(seed)
    found, draws = _amplify(range(len(caps)), [], GroverPlan(tuple(caps)), EXACT, got)
    expect = []
    for cap in caps:
        expect.append(want.randrange(cap))
        want.random()
    assert (found, draws) == (None, expect)
    assert got.getstate() == want.getstate()


@given(st.lists(st.one_of(caps_near_powers, st.integers(0, 10**6)), min_size=1, max_size=30),
       st.booleans(), st.integers(0, 2**64))
@example([1, 2, 3, 4, 5, 7, 8, 9, 2**64 - 1, 2**64, 2**64 + 1], True, 0)
@example([0, 3, 0], False, 1)
def test_unmarked_draws_match_draws_zipped_with_random(caps, randomize, seed):
    # the plan's draws, each value followed by its measurement's random()
    plan = GroverPlan(tuple(c or 1 for c in caps) if randomize else tuple(caps), randomize)
    got, want = random.Random(seed), random.Random(seed)
    expect = [count for count, _r in zip(_stdlib_draws(plan, want), iter(want.random, None))]
    assert _amplify(range(1 + len(caps)), [], plan, EXACT, got) == (None, expect)
    assert got.getstate() == want.getstate()


@st.composite
def draw_cases(draw):
    caps = draw(st.lists(st.one_of(caps_near_powers, st.integers(0, 10**6)), min_size=1, max_size=30))
    randomize = draw(st.booleans())
    m = draw(st.integers(1, 64))
    t = draw(st.sampled_from((0, 1, m)))
    return caps, randomize, m, t, draw(st.integers(0, 2**64))


@given(draw_cases())
@example(([1, 2, 3, 4, 5, 7, 8, 9, 2**64 - 1, 2**64, 2**64 + 1], True, 1, 0, 0))
@example(([1, 2, 3, 4, 5, 7, 8, 9, 2**64 - 1, 2**64, 2**64 + 1], True, 64, 1, 1))
@example(([1, 2, 3, 4, 5, 7, 8, 9, 2**64 - 1, 2**64, 2**64 + 1], True, 9, 9, 2))
@example(([0, 3, 0], False, 5, 0, 3))
@example(([0, 3, 0], False, 5, 1, 4))
def test_exact_draws_match_randrange(case):
    # each measurement draws randrange(cap), or takes the cap of a fixed plan, then its random()
    caps, randomize, m, t, seed = case
    plan = GroverPlan(tuple(c or 1 for c in caps) if randomize else tuple(caps), randomize)
    hits = sorted(random.Random(seed).sample(range(m), t))
    mask = np.zeros(m, dtype=bool)
    mask[hits] = True
    domain = range(1000, 1000 + m)
    got, want = random.Random(seed), random.Random(seed)
    found, draws = _amplify(domain, hits, plan, EXACT, got)
    assert (found, draws) == _reference_bisect_amplify(domain, mask, plan, want)
    assert got.getstate() == want.getstate()
    assert t or len(draws) == len(caps)


def test_default_plans_are_shared_per_arguments():
    for m in (1, 2, 17, 64, 1000, 1 << 20):
        assert GroverPlan.default(m) is GroverPlan.default(m)
    with pytest.raises(ValueError):
        GroverPlan.default(0)


def test_default_plan_caps():
    # distinct growth caps ceil(2^(s/2)) below the ceiling, the least h with 4 h^2 (m - 1) >= m^2, then
    # four ceiling caps, each three times
    assert GroverPlan.default(64).caps == tuple(c for c in (1, 2, 3, 4, 5, 5, 5, 5) for _ in range(3))
    # at m = 1 the first growth cap is the ceiling, so every cap is the ceiling
    assert GroverPlan.default(1).caps == (1,) * 12
    assert _amplify(range(1), [], None, EXACT, random.Random(0)) == (None, [0] * 12)
    for m in (2, 3, 17, 1000, 1 << 20):
        caps = GroverPlan.default(m).caps
        hard = caps[-1]
        assert 4 * hard * hard * (m - 1) >= m * m > 4 * (hard - 1) ** 2 * (m - 1)
        assert caps[-12:] == (hard,) * 12 and max(caps[:-12], default=0) < hard
        assert caps == tuple(c for c in caps[::3] for _ in range(3))
        assert list(caps[:-12:3]) == sorted(set(caps[:-12]))


def test_cost_model_validation():
    with pytest.raises(ValueError):
        CostModel("fuzzy")


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
        GroverPlan((1,)),
        led,
        EXACT,
        random.Random(1),
    )
    assert out in range(4)
    # zero iterations drawn: only the verification round trip is charged
    phases = led.report()["phases"]
    assert "grover-shuttle" not in phases
    assert sum(phases["grover-shuttle-verify"].values()) > 0


def test_grover_empty_support_rejected():
    with pytest.raises(ValueError):
        grover_search(8, [], lambda i: True, None, CommLedger(), EXACT, random.Random(0))


def test_grover_exact_mode_has_no_domain_cap():
    # the exact draw never builds a statevector, so a domain past 2**20 runs like any other
    big = 1 << 21
    assert grover_search(big, [0, big - 1], lambda i: i == big - 1, None, CommLedger(), EXACT, random.Random(0)) == big - 1


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
        w = disj(a, b, CommLedger(), EXACT, random.Random(5000 + tr))
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
        plan = GroverPlan((k_opt,) * 8, randomize=False)
        counts = Counter()
        hits = 0
        for tr in range(1000):
            w = disj(a, b, CommLedger(), EXACT, random.Random(8000 + tr), plan=plan)
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
    led = CommLedger()
    w = disj(a, b, led, CostModel.cost_model(), random.Random(4))
    assert w in (0, 1)
    iters = math.ceil(math.sqrt(8 / 3))
    assert sum(led.report()["phases"]["disj"].values()) == iters * 2 * index_qubits(n)


def test_disj_cost_model_finds_the_shared_element_and_never_fabricates():
    n = 32
    a = BitVector.from_indices(n, [3])
    b = BitVector.from_indices(n, [3])
    model = CostModel.cost_model()
    for tr in range(400):
        assert disj(a, b, CommLedger(), model, random.Random(tr)) == 3
    c = BitVector.from_indices(n, [5])
    for tr in range(50):
        assert disj(a, c, CommLedger(), model, random.Random(tr)) is None


def _graph(adjacency: BitMatrix) -> BipartiteGraph:
    """The graph with the edges of ``adjacency``: the complete graph less each zero cell."""
    graph = BipartiteGraph(adjacency.rows, adjacency.cols)
    for i, row in enumerate(adjacency.data):
        for j in range(adjacency.cols):
            if not row >> j & 1:
                graph.remove_edge(i, j)
    return graph


def test_graph_collision_trivials():
    g = _graph(BitMatrix(4, 4, [0b1111] * 4))
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


@given(st.integers(0, 40), st.integers(0, 40), st.sampled_from((0.0, 0.3, 1.0)), st.integers(0, 2**32 - 1))
@example(5, 40, 0.3, 0)
@example(40, 5, 0.3, 1)
@example(7, 13, 0.0, 2)
@example(13, 7, 1.0, 3)
@example(0, 6, 0.3, 4)
@example(6, 0, 1.0, 5)
def test_random_graph_is_the_bitmatrix_draw_in_both_orientations(n_left, n_right, density, seed):
    rng, reference = random.Random(seed), random.Random(seed)
    got = BipartiteGraph.random(n_left, n_right, density, rng)
    want = _graph(BitMatrix.random(n_left, n_right, density, reference))
    for field in BipartiteGraph.__slots__:
        assert getattr(got, field) == getattr(want, field), field
    assert rng.getstate() == reference.getstate()


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
        edge = graph_collision(g, f_a, f_b, CommLedger(), EXACT, rng)
        if edge is None:
            good += not truth
        else:
            i, j = edge
            good += g.has_edge(i, j) and f_a[i] == 1 and f_b[j] == 1 and truth
    assert good / trials >= 2 / 3


@pytest.mark.parametrize("model", [EXACT, CostModel.cost_model()], ids=["exact", "cost-model"])
@pytest.mark.parametrize("n_left, n_right", [(5, 40), (40, 5)])
@pytest.mark.parametrize("own_is_left", [True, False])
def test_graph_collision_on_non_square_graphs(own_is_left, n_left, n_right, model):
    # the lighter side keeps its set; the report names a vertex of the other side
    w_a, w_b = (2, 4) if own_is_left else (4, 2)
    partner_n, direction = (n_right, B_TO_A) if own_is_left else (n_left, A_TO_B)
    found = 0
    for tr in range(60):
        rng = random.Random(2600 + tr)
        g = BipartiteGraph.random(n_left, n_right, 0.3, rng)
        f_a = BitVector.random_weight(n_left, w_a, rng)
        f_b = BitVector.random_weight(n_right, w_b, rng)
        led = CommLedger()
        edge = graph_collision(g, f_a, f_b, led, model, rng)
        reports = {key: amount for key, amount in led.amounts.items() if key[2] == "edge-report"}
        if edge is None:
            assert reports == {}
            continue
        i, j = edge
        assert g.has_edge(i, j) and f_a[i] == 1 and f_b[j] == 1
        assert reports == {(direction, BITS, "edge-report"): outcome_bits(partner_n)}
        found += 1
    assert found >= 30


def _reference_graph_collision(graph, f_a, f_b, ledger, model, rng, failure=None):
    """``graph_collision`` spelled out per orientation, with covers read off ``has_edge``.

    The lighter side keeps its set and disjointness runs over that side's
    domain: [n_left] when A keeps f_a, [n_right] when B keeps f_b.  With a
    ``failure`` target it is an attempt of ``graph_collision_all``, which
    asks the disjointness question as :func:`_reference_disj` does.
    """
    if f_a.weight() == 0 or f_b.weight() == 0:
        ledger.charge(A_TO_B, BITS, integer_bits(f_a.n), "handshake")
        ledger.charge(B_TO_A, BITS, integer_bits(f_b.n), "handshake")
        return None
    if f_a.weight() <= f_b.weight():
        cover = [i for i in range(graph.n_left) if any(graph.has_edge(i, j) for j in f_b.indices())]
        i = _reference_disj(f_a, BitVector.from_indices(graph.n_left, cover), ledger, model, rng, failure)
        if i is None:
            return None
        pool = [j for j in f_b.indices() if graph.has_edge(i, j)]
        j = pool[rng.randrange(len(pool))]
        ledger.charge(B_TO_A, BITS, outcome_bits(graph.n_right), "edge-report")
        return i, j
    cover = [j for j in range(graph.n_right) if any(graph.has_edge(i, j) for i in f_a.indices())]
    j = _reference_disj(BitVector.from_indices(graph.n_right, cover), f_b, ledger, model, rng, failure)
    if j is None:
        return None
    pool = [i for i in f_a.indices() if graph.has_edge(i, j)]
    i = pool[rng.randrange(len(pool))]
    ledger.charge(A_TO_B, BITS, outcome_bits(graph.n_left), "edge-report")
    return i, j


@pytest.mark.parametrize("model", [EXACT, CostModel.cost_model()], ids=["exact", "cost-model"])
@pytest.mark.parametrize("n_left, n_right", [(5, 40), (40, 5)])
@pytest.mark.parametrize("own_is_left", [True, False])
def test_graph_collision_matches_reference_on_each_sides_domain(
    own_is_left, n_left, n_right, model
):
    # the two sides need index widths 3 and 6, so a search over the wrong
    # side's domain shows in the handshake, the shuttles and the draws
    w_a, w_b = (2, 4) if own_is_left else (4, 2)
    outcomes = Counter()
    for tr in range(40):
        seed = 7100 + tr
        rng = random.Random(seed)
        g = BipartiteGraph.random(n_left, n_right, (0.05, 0.3, 0.8)[tr % 3], rng)
        f_a = BitVector.random_weight(n_left, w_a, rng)
        f_b = BitVector.random_weight(n_right, w_b, rng)
        got_rng, want_rng = random.Random(seed), random.Random(seed)
        got_led, want_led = CommLedger(), CommLedger()
        edge = graph_collision(g, f_a, f_b, got_led, model, got_rng)
        expect = _reference_graph_collision(g, f_a, f_b, want_led, model, want_rng)
        assert edge == expect
        assert got_led.amounts == want_led.amounts and len(got_led) == len(want_led)
        assert got_rng.getrandbits(32) == want_rng.getrandbits(32)
        outcomes[edge is None] += 1
    assert outcomes[False] >= 10 and outcomes[True] >= 1


def test_graph_collision_all_diagonal():
    g = _graph(BitMatrix.identity(4))
    full = BitVector(4, 0b1111)
    got = graph_collision_all(g, full, full, CommLedger(), EXACT, random.Random(2))
    assert got == frozenset((i, i) for i in range(4))


@pytest.mark.parametrize("left, right", [(3, 4), (4, 3), (5, 5)])
def test_graph_collision_all_rejects_mismatched_vectors_before_any_charge_or_draw(left, right):
    g = _graph(BitMatrix.identity(4))
    led, rng = CommLedger(), random.Random(9)
    state = rng.getstate()
    with pytest.raises(DimensionError):
        graph_collision_all(g, BitVector(left, 1), BitVector(right, 1), led, EXACT, rng)
    assert len(led) == 0 and led.total() == 0
    assert rng.getstate() == state


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


def test_graph_collision_all_ends_in_one_growth_pass_and_then_one_certificate(monkeypatch):
    # an attempt searches its support of s entries under GroverPlan.growth(s) and, when that misses, under
    # one certificate at the call's target 1/(3 (|f_a| |f_b| + 1)); the first attempt whose certificate
    # misses ends the collection
    searches = []
    search = qsim._search

    def spy(domain, hits, messages, model, ledger, rng, plan=None):
        witness, draws = search(domain, hits, messages, model, ledger, rng, plan)
        searches.append((len(domain), plan, messages[0][0][3], witness))
        return witness, draws

    monkeypatch.setattr(qsim, "_search", spy)
    seen = set()
    for seed, (w_a, w_b) in enumerate(((0, 5), (1, 1), (3, 3), (3, 4), (10, 10), (18, 18), (18, 19), (24, 24))):
        rng = random.Random(seed)
        graph = BipartiteGraph.random(24, 24, 0.3, rng)
        f_a, f_b = BitVector.random_weight(24, w_a, rng), BitVector.random_weight(24, w_b, rng)
        truth = frozenset((i, j) for i in f_a.indices() for j in f_b.indices() if graph.has_edge(i, j))
        searches.clear()
        assert graph_collision_all(graph, f_a, f_b, CommLedger(), EXACT, rng) == truth
        target = 1 / (3 * (w_a * w_b + 1))
        attempts, calls = [], iter(searches)
        for size, plan, phase, witness in calls:
            growth, certificate = GroverPlan.growth(size), GroverPlan.fixed_point(size, target)
            if growth is None:
                seen.add("certificate alone")
            else:
                assert (plan, phase) == (growth, "disj")
                if witness is not None:
                    attempts.append(("growth", witness))
                    continue
                size, plan, phase, witness = next(calls)
            assert (plan, phase) == (certificate, "disj-certify") and plan.failure == target
            attempts.append(("certificate", witness))
        # every attempt finds an edge until the last: a certificate that misses, or no search at all once
        # the question is empty (a side without weight, or no cover left)
        found = [witness is not None for _, witness in attempts]
        ending = "certificate missed" if attempts and not found[-1] else "question empty"
        assert found == [True] * len(truth) + [False] * (ending == "certificate missed")
        assert ending == "question empty" or attempts[-1][0] == "certificate"
        seen.update(kind for kind, witness in attempts if witness is not None)
        seen.add(ending)
    assert seen == {"growth", "certificate", "certificate alone", "certificate missed", "question empty"}


def test_collision_certificate_misses_with_probability_at_most_its_target_for_every_marked_count():
    # graph_collision_all's targets 1/(3 (|f_a| |f_b| + 1)) over every support of s <= 256 entries
    for weights in (1, 2, 9, 10, 100, 331, 332, 576, 4096, 65536):
        failure = 1 / (3 * (weights + 1))
        for size in range(1, 257):
            plan = GroverPlan.fixed_point(size, failure)
            (rounds,) = plan.caps
            length = 2 * rounds + 1
            # the closed form over every t in [1, s]: miss = delta^2 T_L(x)^2, x = sqrt(1 - t/s) / gamma_L
            x = np.sqrt(1 - np.arange(1, size + 1) / size) * np.cosh(np.arccosh(1 / np.sqrt(failure)) / length)
            chebyshev = np.where(x <= 1, np.cos(length * np.arccos(np.minimum(x, 1))),
                                 np.cosh(length * np.arccosh(np.maximum(x, 1))))
            assert np.all(failure * chebyshev**2 <= failure * (1 + 1e-12)), (size, failure)
            # and the law the certificate samples, at one marked entry, where x is largest
            assert 1 - plan.probabilities(size, 1, rounds)[0] <= failure * (1 + 1e-12), (size, failure)


def _reference_disj(a, b, ledger, model, rng, failure):
    """``disj`` as an attempt of ``graph_collision_all`` asks it.  With a ``failure`` target, in exact
    mode: the handshake, then ``grover_search`` over the lighter set, marked by the other, under
    ``GroverPlan.growth`` of its weight (when there is one) and, if that misses, under the certificate
    at ``failure``, charged under ``disj-certify``.  Otherwise ``disj`` itself."""
    if failure is None or not model.exact:
        return disj(a, b, ledger, model, rng)
    ledger.charge(A_TO_B, BITS, integer_bits(a.n), "handshake")
    ledger.charge(B_TO_A, BITS, integer_bits(a.n), "handshake")
    if not a.weight() or not b.weight():
        return None
    own, other, directions = (a, b, (A_TO_B, B_TO_A)) if a.weight() <= b.weight() else (b, a, (B_TO_A, A_TO_B))
    size = own.weight()
    for plan, phase in ((GroverPlan.growth(size), "disj"), (GroverPlan.fixed_point(size, failure), "disj-certify")):
        if plan is not None:
            found = grover_search(a.n, own.indices(), other.__getitem__, plan, ledger, model, rng, phase, directions)
            if found is not None:
                return found
    return None


def _reference_graph_collision_all(graph, f_a, f_b, ledger, model, rng):
    """``graph_collision_all`` as one :func:`_reference_graph_collision` call per attempt at its failure
    target, removing found edges, up to the first call that finds none."""
    failure = 1 / (3 * (f_a.weight() * f_b.weight() + 1))
    found = set()
    while (edge := _reference_graph_collision(graph, f_a, f_b, ledger, model, rng, failure)) is not None:
        found.add(edge)
        graph.remove_edge(*edge)
    return frozenset(found)


@st.composite
def collision_cases(draw):
    """A random graph with two sets: square or not, either side lighter, sparse or dense."""
    n_left = draw(st.integers(1, 10))
    n_right = draw(st.one_of(st.just(n_left), st.integers(1, 10)))
    # sparse graphs make witnesses lose their last neighbor, dense ones keep it; with no edge
    # every attempt fails from the start
    density = draw(st.sampled_from((0.0, 0.15, 0.4, 0.8, 1.0)))
    w_a, w_b = draw(st.integers(0, n_left)), draw(st.integers(0, n_right))
    model = draw(st.sampled_from((EXACT, CostModel.cost_model())))
    return n_left, n_right, density, w_a, w_b, model, draw(st.integers(0, 2**32))


@given(collision_cases())
@example((6, 6, 0.15, 3, 5, EXACT, 1))
@example((9, 4, 0.8, 4, 2, EXACT, 2))
@example((7, 5, 0.0, 4, 3, EXACT, 3))
@example((7, 5, 0.0, 4, 3, CostModel.cost_model(), 4))
@example((5, 5, 0.4, 0, 3, EXACT, 5))
@example((8, 8, 0.8, 5, 6, CostModel.cost_model(), 6))
def test_graph_collision_all_matches_a_loop_of_single_calls(case):
    # the question is built once per graph state; the loop builds it for every attempt
    n_left, n_right, density, w_a, w_b, model, seed = case
    rng = random.Random(seed)
    graph = BipartiteGraph.random(n_left, n_right, density, rng)
    f_a, f_b = BitVector.random_weight(n_left, w_a, rng), BitVector.random_weight(n_right, w_b, rng)
    got_rng, want_rng = random.Random(seed), random.Random(seed)
    got_led, want_led = CommLedger(), CommLedger()
    want_graph = copy.deepcopy(graph)
    want = _reference_graph_collision_all(want_graph, f_a, f_b, want_led, model, want_rng)
    got = graph_collision_all(graph, f_a, f_b, got_led, model, got_rng)
    assert got == want
    assert got_led.amounts == want_led.amounts and len(got_led) == len(want_led)
    assert got_rng.getstate() == want_rng.getstate()
    # the found edges leave the caller's graph, and nothing else does
    assert graph.missing_rows == want_graph.missing_rows and graph.missing_cols == want_graph.missing_cols


@pytest.mark.parametrize("i, j", [(1, 9), (-1, 2), (3, 0), (0, 4), (0, -1)])
def test_remove_edge_out_of_range_changes_nothing(i, j):
    graph = BipartiteGraph(3, 4)
    graph.remove_edge(2, 3)
    rows, cols = list(graph.missing_rows), list(graph.missing_cols)
    with pytest.raises(IndexError, match=re.escape(str((i, j)))):
        graph.remove_edge(i, j)
    assert graph.missing_rows == rows and graph.missing_cols == cols


class _AdjacencyGraph:
    """Reference graph: one packed adjacency row per left vertex, each cover a loop over rows."""

    def __init__(self, adj: BitMatrix):
        self.adj = adj

    @classmethod
    def complement_of(cls, mat: BitMatrix) -> "_AdjacencyGraph":
        full = (1 << mat.cols) - 1
        return cls(BitMatrix(mat.rows, mat.cols, [full ^ r for r in mat.data]))

    def has_edge(self, i: int, j: int) -> bool:
        return (self.adj.data[i] >> j) & 1 == 1

    def left_cover(self, f_b: BitVector) -> BitVector:
        acc = 0
        for i, row in enumerate(self.adj.data):
            if row & f_b.bits:
                acc |= 1 << i
        return BitVector(self.adj.rows, acc)

    def right_cover(self, f_a: BitVector) -> BitVector:
        acc = 0
        for i in f_a.indices():
            acc |= self.adj.data[i]
        return BitVector(self.adj.cols, acc)

    def without_edges(self, edges) -> "_AdjacencyGraph":
        data = list(self.adj.data)
        for i, j in edges:
            data[i] &= ~(1 << j)
        return _AdjacencyGraph(BitMatrix(self.adj.rows, self.adj.cols, data))


@st.composite
def outputs(draw):
    """An output matrix with all-zero and all-one rows and columns among its random ones."""
    rows, cols = draw(st.integers(1, 24)), draw(st.integers(1, 24))
    full = (1 << cols) - 1
    row = st.one_of(st.just(0), st.just(full), st.integers(0, full))
    data = draw(st.lists(row, min_size=rows, max_size=rows))
    for j in draw(st.sets(st.integers(0, cols - 1))):
        data = [r | 1 << j for r in data]
    for j in draw(st.sets(st.integers(0, cols - 1))):
        data = [r & ~(1 << j) for r in data]
    f_a = draw(st.one_of(st.just(0), st.integers(0, (1 << rows) - 1)))
    f_b = draw(st.one_of(st.just(full), st.integers(0, full)))
    return BitMatrix(rows, cols, data), BitVector(rows, f_a), BitVector(cols, f_b)


def _same_graph(view: BipartiteGraph, ref: _AdjacencyGraph):
    rows, cols = ref.adj.rows, ref.adj.cols
    assert (view.n_left, view.n_right) == (rows, cols)
    # each partner row and column is the complement of the view's missing edges
    assert view.missing_rows == [((1 << cols) - 1) ^ r for r in ref.adj.data]
    assert view.missing_cols == [((1 << rows) - 1) ^ c for c in ref.adj.transpose().data]
    assert all(view.has_edge(i, j) == ref.has_edge(i, j) for i in range(rows) for j in range(cols))


@given(outputs())
@example((BitMatrix(1, 1, [0]), BitVector(1, 1), BitVector(1, 1)))
@example((BitMatrix(1, 1, [1]), BitVector(1, 1), BitVector(1, 1)))
def test_output_view_matches_adjacency_rows(case):
    out, f_a, f_b = case
    ref = _AdjacencyGraph.complement_of(out)
    # built cell by cell as bmm builds it, and from the complement's adjacency
    view = BipartiteGraph(out.rows, out.cols)
    for i, row in enumerate(out.data):
        for j in BitVector(out.cols, row).indices():
            view.remove_edge(i, j)
    for graph in (view, _graph(ref.adj)):
        _same_graph(graph, ref)
        assert graph.left_cover(f_b) == ref.left_cover(f_b)
        assert graph.right_cover(f_a) == ref.right_cover(f_a)
    edges = [(i, j) for i in range(out.rows) for j in BitVector(out.cols, ref.adj.data[i]).indices()]
    if edges:
        i, j = edges[len(edges) // 2]
        view.remove_edge(i, j)
        _same_graph(view, ref.without_edges([(i, j)]))


def test_instance_search_trivials():
    rng = random.Random(0)
    assert instance_search(range(8), [], CommLedger(), rng) is None
    led = CommLedger()
    idx = instance_search(range(8), list(range(8)), led, random.Random(1))
    assert idx in range(8)
    with pytest.raises(ValueError):
        instance_search([], [], CommLedger(), rng)


@pytest.mark.parametrize("answers", [[8], [3, 8], [-1], [-1, 2], [0, 8], [3, 2], [2, 2]])
def test_instance_search_rejects_answers_outside_the_instances(answers):
    # a position past either end, out of order or repeated is rejected before any draw or charge
    led, rng = CommLedger(), random.Random(5)
    with pytest.raises(ValueError, match=r"positions in \[0, 8\), ascending"):
        instance_search(range(8), answers, led, rng)
    assert (led.amounts, len(led)) == ({}, 0)
    assert rng.random() == random.Random(5).random()


def test_instance_search_cost_within_factor_two():
    inner_cost = math.ceil(math.sqrt(4)) * 2 * index_qubits(16)
    answers = [1, 4]
    totals = []
    found = 0
    trials = 400
    for tr in range(trials):
        led = CommLedger()
        idx = instance_search(
            range(8), answers, led, random.Random(tr), inner_cost_qubits=inner_cost
        )
        if idx is not None:
            assert idx in answers
            found += 1
        totals.append(led.qubits)
    assert found / trials >= 2 / 3
    boost = math.ceil(math.log2(100 * GroverPlan.default(8).caps[-1]))
    predicted = math.sqrt(8 / 2) * (2 * boost * inner_cost + 2 * index_qubits(8))
    mean = sum(totals) / len(totals)
    assert predicted / 2 <= mean <= predicted * 2


def test_inner_boost_is_sized_by_the_coherent_run_of_each_call():
    # a round's inner call is boosted ceil(log2(100 r)) times, r = max(1, the plan's largest cap); a
    # verification is one call outside any run (r = 1, boost 7), except a certificate's, whose miss ends
    # its run, so it keeps the rounds' boost; the certificate charges under certify and certify-verify
    cost = 5
    for big_n in (1, 2, 3, 8, 64, 1000, 4096):
        width, verdict = index_qubits(big_n), outcome_bits(big_n)
        plans = [(None, False), (GroverPlan.default(big_n), False)]
        plans += [(GroverPlan.growth(big_n), False)] if big_n > 2 else []
        plans += [(GroverPlan.fixed_point(big_n, failure), True) for failure in (1 / 300, 1 / 10_260_000)]
        for plan, certificate in plans:
            caps = (plan or GroverPlan.default(big_n)).caps
            inner = math.ceil(math.log2(100 * max(1, max(caps)))) * cost
            verify = inner if certificate else 7 * cost
            shuttle, rounds = ("certify", "certify") if certificate else ("instance-shuttle", "inner-protocol")
            assert _instance_messages(big_n, cost, plan) == (
                (
                    (A_TO_B, QUBITS, width, shuttle), (B_TO_A, QUBITS, width, shuttle),
                    (A_TO_B, QUBITS, inner, rounds), (B_TO_A, QUBITS, inner, rounds),
                ),
                ((A_TO_B, QUBITS, verify, shuttle + "-verify"), (B_TO_A, BITS, verdict, shuttle + "-verify")),
            )
            # without an inner protocol only the index round trip and the verdict are left
            assert _instance_messages(big_n, 0, plan) == (
                ((A_TO_B, QUBITS, width, shuttle), (B_TO_A, QUBITS, width, shuttle)),
                ((B_TO_A, BITS, verdict, shuttle + "-verify"),),
            )
    # at N = 1 the certificate has no rounds (l = 0), and its boost is a run of 1's
    assert GroverPlan.fixed_point(1, 1 / 300).caps == (0,)
    assert _instance_messages(1, cost, GroverPlan.fixed_point(1, 1 / 300))[1][0][2] == 7 * cost
    # the growth pass's runs are shorter than the ceiling's: at N = 8 its caps are 1 against h = 2, so
    # its rounds are boosted 7 times and the default plan's 8; the certificate's l = 5 outruns both (9)
    boosts = [_instance_messages(8, 1, plan)[0][2][2]
              for plan in (GroverPlan.growth(8), None, GroverPlan.fixed_point(8, 1 / 300))]
    assert boosts == [7, 8, 9]


def test_instance_search_templates_are_shared_and_immutable(monkeypatch):
    # one template pair per (instance count, inner cost), shared by every search with those two
    answers = [1, 4]
    templates = _instance_messages(8, 12)
    assert _instance_messages(8, 12) is templates
    assert all(isinstance(part, tuple) for part in templates)
    charges = []
    for _ in range(2):
        led = CommLedger()
        instance_search(range(8), answers, led, random.Random(3), inner_cost_qubits=12)
        charges.append((led.amounts, len(led)))
    assert charges[0] == charges[1]
    # its index round trip and its verdict are the records of the shared search templates
    round_trip, (_, verdict) = _search_messages(8, "instance-shuttle", A_TO_B, B_TO_A)
    for per_round, verify in (templates, _instance_messages(8, 0)):
        assert per_round[0] is round_trip[0] and per_round[1] is round_trip[1] and verify[-1] is verdict
    # grover_search and disj charge from one shared tuple pair per (n, phase, directions)
    charged, log_search = [], CommLedger._log_search
    monkeypatch.setattr(CommLedger, "_log_search", lambda led, draws, *pair: charged.append(pair) or
                        log_search(led, draws, *pair))
    a, b = BitVector.from_indices(16, [1, 4]), BitVector.from_indices(16, [4, 7, 9])
    for _ in range(2):
        grover_search(16, range(8), {3}.__contains__, None, CommLedger(), EXACT, random.Random(0))
        grover_search(16, range(8), {3}.__contains__, None, CommLedger(), EXACT, random.Random(0),
                      phase="probe", directions=(B_TO_A, A_TO_B))
        disj(a, b, CommLedger(), EXACT, random.Random(0))
        disj(b, a, CommLedger(), EXACT, random.Random(0))
    shared = [
        _search_messages(16, "grover-shuttle", A_TO_B, B_TO_A),
        _search_messages(16, "probe", B_TO_A, A_TO_B),
        _search_messages(16, "disj", A_TO_B, B_TO_A),
        _search_messages(16, "disj", B_TO_A, A_TO_B),
    ]
    assert len(charged) == 8 and len({id(pair) for pair in shared}) == 4
    assert all(isinstance(part, tuple) for pair in shared for part in pair)
    assert all(got[0] is want[0] and got[1] is want[1] for got, want in zip(charged, shared * 2))


def test_ledger_entry_sequence_reproducible():
    n = 64
    a = BitVector.from_indices(n, range(6))
    b = BitVector.from_indices(n, [4, 5, 20, 21])
    led1, led2 = CommLedger(), CommLedger()
    w1 = disj(a, b, led1, EXACT, random.Random(77))
    w2 = disj(a, b, led2, EXACT, random.Random(77))
    assert w1 == w2
    assert led1.amounts == led2.amounts and len(led1) == len(led2)


def test_plan_validation():
    with pytest.raises(ValueError):
        GroverPlan(())
    with pytest.raises(ValueError):
        GroverPlan((0,), randomize=True)
    plan = GroverPlan.default(64)
    assert plan.caps[-1] == 5  # the least h with 4 h^2 (64 - 1) >= 64^2
    assert all(c >= 1 for c in plan.caps)


def _untouched(search):
    """Call ``search(ledger, rng)``, which must raise; it leaves the ledger empty and the generator unmoved."""
    led, rng = CommLedger(), random.Random(5)
    try:
        search(led, rng)
    finally:
        assert (led.amounts, len(led)) == ({}, 0)
        assert rng.random() == random.Random(5).random()


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(
            lambda: GroverPlan((1, -1), randomize=False), ValueError, "caps must be nonnegative", id="plan-caps"
        ),
        pytest.param(
            lambda: GroverPlan((1, 2.5)), ValueError, "caps must be integers, got 2.5", id="plan-float-cap"
        ),
        pytest.param(
            lambda: GroverPlan(("3",), randomize=False), ValueError, "caps must be integers, got '3'",
            id="plan-string-cap",
        ),
        pytest.param(
            lambda: _untouched(lambda led, rng: grover_search(4, [0, 4], lambda i: False, None, led, EXACT, rng)),
            ValueError,
            "support outside domain",
            id="support-above",
        ),
        pytest.param(
            lambda: _untouched(lambda led, rng: grover_search(4, [-1, 0], lambda i: False, None, led, EXACT, rng)),
            ValueError,
            "support outside domain",
            id="support-below",
        ),
        pytest.param(
            # seven 3s and nine 5s would search 16 entries with 7 marked, not 2 with 1 marked
            lambda: _untouched(
                lambda led, rng: grover_search(64, [3] * 7 + [5] * 9, lambda i: i == 3, None, led, COST, rng)
            ),
            ValueError,
            "support repeats an entry",
            id="support-repeated",
        ),
        pytest.param(lambda: BipartiteGraph(3, 3).has_edge(3, 0), IndexError, "(3, 0)", id="has-edge"),
        pytest.param(
            lambda: BipartiteGraph(3, 4).left_cover(BitVector(3)),
            DimensionError,
            "right-side vector length mismatch",
            id="left-cover",
        ),
        pytest.param(
            lambda: BipartiteGraph(3, 4).right_cover(BitVector(4)),
            DimensionError,
            "left-side vector length mismatch",
            id="right-cover",
        ),
        pytest.param(
            lambda: instance_search(range(4), [], CommLedger(), random.Random(0), inner_cost_qubits=-1),
            ValueError,
            "inner cost must be nonnegative",
            id="inner-cost",
        ),
    ],
)
def test_input_checks_reject_with_their_message(call, error, message):
    with pytest.raises(error) as raised:
        call()
    assert raised.type is error and str(raised.value) == message
