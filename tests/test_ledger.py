"""Ledger accounting: additivity, reports, validation, and agreement with a per-message log."""

import math
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from joinlab.f2core import BitVector, gen_promise_instance
from joinlab.joins import bmm_cost_model, bmm_with_trace, mm_f2
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
    disj,
    graph_collision_all,
    instance_search,
)


def test_charge_accumulates():
    led = CommLedger()
    led.charge(A_TO_B, QUBITS, 8, "shuttle")
    assert led.qubits == 8 and led.bits == 0
    led.charge(A_TO_B, BITS, 3, "hello")
    led.charge(B_TO_A, BITS, 5, "hello")
    assert led.bits == 8
    assert led.report()["phases"]["hello"] == {BITS: 8, QUBITS: 0}
    assert len(led) == 3
    assert led.amounts == {(A_TO_B, QUBITS, "shuttle"): 8, (A_TO_B, BITS, "hello"): 3, (B_TO_A, BITS, "hello"): 5}


def test_amounts_is_a_copy():
    led = CommLedger()
    led.charge(B_TO_A, QUBITS, 7, "search")
    amounts = led.amounts
    assert type(amounts) is dict
    amounts[B_TO_A, QUBITS, "search"] = 8
    amounts[A_TO_B, BITS, "other"] = 1
    assert led.amounts == {(B_TO_A, QUBITS, "search"): 7} and led.total() == 7


def test_charge_rejects_bad_amounts():
    led = CommLedger()
    for bad in (0, -1, 2.5):
        with pytest.raises(ValueError):
            led.charge(A_TO_B, BITS, bad, "x")
    with pytest.raises(ValueError):
        led.charge("sideways", BITS, 1, "x")
    with pytest.raises(ValueError):
        led.charge(A_TO_B, "bytes", 1, "x")


def test_totals_monotone_under_charges():
    led = CommLedger()
    rng = random.Random(4)
    prev_bits, prev_qubits, charged = 0, 0, 0
    for _ in range(200):
        kind = BITS if rng.random() < 0.5 else QUBITS
        amount = rng.randint(1, 9)
        led.charge(A_TO_B, kind, amount, "p")
        charged += amount
        assert led.bits >= prev_bits and led.qubits >= prev_qubits
        prev_bits, prev_qubits = led.bits, led.qubits
    assert led.bits + led.qubits == led.total() == sum(led.amounts.values()) == charged


def test_report_empty_ledger():
    rep = CommLedger().report()
    assert rep == {"phases": {}, "total_bits": 0, "total_qubits": 0}


def test_report_two_phases():
    led = CommLedger()
    led.charge(A_TO_B, BITS, 2, "alpha")
    led.charge(B_TO_A, QUBITS, 3, "beta")
    rep = led.report()
    assert list(rep["phases"]) == ["alpha", "beta"]
    assert rep["phases"]["alpha"] == {BITS: 2, QUBITS: 0}
    assert rep["phases"]["beta"] == {BITS: 0, QUBITS: 3}


def test_phase_totals_over_interleaved_charges():
    led = CommLedger()
    led.charge(A_TO_B, QUBITS, 4, "search")
    led.charge(B_TO_A, BITS, 1, "announce")
    led.charge(B_TO_A, QUBITS, 4, "search")
    led.charge(A_TO_B, BITS, 7, "search")
    led.charge(A_TO_B, BITS, 2, "announce")
    rep = led.report()
    assert "absent" not in rep["phases"]
    assert list(rep["phases"]) == ["announce", "search"]
    assert rep == {
        "phases": {"announce": {BITS: 3, QUBITS: 0}, "search": {BITS: 7, QUBITS: 8}},
        "total_bits": 10,
        "total_qubits": 8,
    }


def test_conventions():
    assert index_qubits(16) == 4
    assert index_qubits(17) == 5
    assert index_qubits(1) == 1  # clamp keeps amounts positive
    assert integer_bits(16) == 5
    assert outcome_bits(16) == 5


def test_disj_ledger_recomputed_from_schedule():
    # Expected total recomputed from the recorded iteration draws and the
    # stated conventions, independently of the charging code path.
    n = 16
    a = BitVector.from_indices(n, [1, 4, 9, 12])
    b = BitVector.from_indices(n, [0, 4, 7, 8, 13])
    led = CommLedger()
    found = disj(a, b, led, CostModel.exact_mode(), random.Random(3))
    # the lighter side, a, searches its own set; the common element 4 sits at position 1
    witness, drawn = _amplify(a.indices(), [1], None, CostModel.exact_mode(), random.Random(3))
    assert witness == found == 4
    iters, meas = sum(drawn), len(drawn)
    expect_qubits = iters * 2 * index_qubits(n) + meas * index_qubits(n)
    expect_bits = 2 * integer_bits(n) + meas * outcome_bits(n)
    assert led.qubits == expect_qubits
    assert led.bits == expect_bits


@pytest.mark.parametrize("seed", [3, 4, 8])
def test_instance_search_ledger_recomputed_from_schedule(seed):
    # Phase totals recomputed from the iteration counts the plan draws (read
    # from _amplify, which only samples) and the stated conventions,
    # independently of the charging code path.
    big_n, inner_cost = 32, 10
    answers = [6, 21]
    led, plain = CommLedger(), CommLedger()
    plan = GroverPlan.default(big_n)
    found = instance_search(range(big_n), answers, led, random.Random(seed), inner_cost, plan)
    assert found == instance_search(range(big_n), answers, plain, random.Random(seed), inner_cost, plan)
    assert led.amounts == plain.amounts and len(led) == len(plain)  # the same seed gives the same charges
    witness, drawn = _amplify(range(big_n), answers, None, CostModel.exact_mode(), random.Random(seed))
    assert witness == found
    iters, meas = sum(drawn), len(drawn)
    assert iters > 0
    # a round's inner call is boosted for the plan's ceiling h, a verification's for a run of 1
    inner = math.ceil(math.log2(100 * GroverPlan.default(big_n).caps[-1])) * inner_cost
    verify = math.ceil(math.log2(100)) * inner_cost
    assert led.report()["phases"] == {
        "inner-protocol": {BITS: 0, QUBITS: iters * 2 * inner},
        "instance-shuttle": {BITS: 0, QUBITS: iters * 2 * index_qubits(big_n)},
        "instance-shuttle-verify": {BITS: meas * outcome_bits(big_n), QUBITS: meas * verify},
    }
    assert len(led) == 4 * sum(k > 0 for k in drawn) + 2 * meas


@pytest.mark.parametrize("answers", [[], [6, 21]])
def test_certificate_ledger_recomputed_from_its_rounds(answers):
    # one measurement after the certificate's l rounds, charged as a search's are but under certify
    # and certify-verify, with the inner protocol boosted ceil(log2(100 l)) times, verification included
    big_n, inner_cost = 32, 10
    certificate = GroverPlan.fixed_point(big_n, 1 / 180_000)
    (rounds,) = certificate.caps
    led = CommLedger()
    found = instance_search(range(big_n), answers, led, random.Random(5), inner_cost, certificate)
    assert (found is None) == (not answers) and (found is None or found in answers)
    inner = math.ceil(math.log2(100 * rounds)) * inner_cost
    assert led.report()["phases"] == {
        "certify": {BITS: 0, QUBITS: rounds * 2 * (index_qubits(big_n) + inner)},
        "certify-verify": {BITS: outcome_bits(big_n), QUBITS: inner},
    }
    assert len(led) == 4 + 2


def test_prior_charges_do_not_change_outputs():
    n = 48
    rng = random.Random(15)
    a = BitVector.random(n, 0.3, rng)
    b = BitVector.random(n, 0.3, rng)
    fresh, used = CommLedger(), CommLedger()
    used.charge(A_TO_B, BITS, 5, "earlier")
    outs = [disj(a, b, led, CostModel.exact_mode(), random.Random(99)) for led in (fresh, used)]
    assert outs[0] == outs[1]
    assert used.amounts == {(A_TO_B, BITS, "earlier"): 5, **fresh.amounts} and len(used) == len(fresh) + 1


# (direction, kind, amount) that charge rejects, each with _validate's message
BAD_CHARGES = [
    ("sideways", BITS, 1, "unknown direction 'sideways'"),
    (None, QUBITS, 3, "unknown direction None"),
    (A_TO_B, "bytes", 1, "unknown kind 'bytes'"),
    (B_TO_A, None, 2, "unknown kind None"),
    (A_TO_B, BITS, 0, "amount must be a positive integer, got 0"),
    (A_TO_B, QUBITS, -1, "amount must be a positive integer, got -1"),
    (B_TO_A, BITS, 1.0, "amount must be a positive integer, got 1.0"),
    (A_TO_B, BITS, 2.5, "amount must be a positive integer, got 2.5"),
    (A_TO_B, BITS, "3", "amount must be a positive integer, got '3'"),
    (B_TO_A, QUBITS, None, "amount must be a positive integer, got None"),
    (A_TO_B, BITS, False, "amount must be a positive integer, got False"),
    # the first bad field names the error
    ("sideways", "bytes", 0, "unknown direction 'sideways'"),
    (A_TO_B, "bytes", None, "unknown kind 'bytes'"),
]

good_charges = st.tuples(
    st.sampled_from((A_TO_B, B_TO_A)),
    st.sampled_from((BITS, QUBITS)),
    st.one_of(st.integers(1, 2**70), st.just(True)),
    st.text(max_size=6),
)
charges = st.one_of(good_charges, st.sampled_from(range(len(BAD_CHARGES))))


class MessageLog:
    """The per-message reference: one ``(direction, kind, amount, phase)`` record per message.

    A search adds, per measurement, its round messages at ``unit`` times the
    iteration count (none at 0 iterations), then its verification records.
    """

    def __init__(self):
        self.records = []

    def charge(self, direction, kind, amount, phase):
        self.records.append((direction, kind, amount, phase))

    def log_search(self, draws, per_round, verify):
        for iterations in draws:
            if iterations:
                for way, kind, unit, phase in per_round:
                    self.records.append((way, kind, unit * iterations, phase))
            self.records.extend(verify)

    def log(self, messages):
        self.records.extend(messages)

    def assert_matches(self, led: CommLedger):
        """``led`` holds this log's per-key sums, count, totals and report."""
        amounts, phases, totals = {}, {}, {BITS: 0, QUBITS: 0}
        for way, kind, amount, phase in self.records:
            amounts[way, kind, phase] = amounts.get((way, kind, phase), 0) + amount
            phases.setdefault(phase, {BITS: 0, QUBITS: 0})[kind] += amount
            totals[kind] += amount
        assert led.amounts == amounts
        assert len(led) == len(self.records)
        assert (led.bits, led.qubits, led.total()) == (totals[BITS], totals[QUBITS], sum(totals.values()))
        report = led.report()
        assert list(report["phases"]) == sorted(phases)
        assert report == {"phases": phases, "total_bits": totals[BITS], "total_qubits": totals[QUBITS]}


class LoggedLedger(CommLedger):
    """A ledger that also hands every charge and search to a :class:`MessageLog`."""

    def __init__(self):
        super().__init__()
        self.log = MessageLog()

    def charge(self, direction, kind, amount, phase):
        super().charge(direction, kind, amount, phase)
        self.log.charge(direction, kind, amount, phase)

    def _log_search(self, draws, per_round, verify):
        super()._log_search(draws, per_round, verify)
        self.log.log_search(draws, per_round, verify)

    def _log(self, messages):
        super()._log(messages)
        self.log.log(messages)


def _state(led: CommLedger):
    return len(led), led.amounts, led.bits, led.qubits, led.total(), led.report()


@given(st.lists(charges, max_size=24))
def test_charges_sum_by_key_and_rejections_leave_no_trace(ops):
    led = LoggedLedger()
    for op in ops:
        if isinstance(op, int):
            direction, kind, amount, message = BAD_CHARGES[op]
            before = _state(led)
            with pytest.raises(ValueError) as err:
                led.charge(direction, kind, amount, "bad")
            assert str(err.value) == message
            assert _state(led) == before
        else:
            led.charge(*op)
    assert len(led.log.records) == sum(not isinstance(op, int) for op in ops)
    led.log.assert_matches(led)


def test_true_is_a_charge_of_one():
    led = CommLedger()
    led.charge(A_TO_B, BITS, True, "flag")
    assert led.bits == 1 and len(led) == 1
    assert led.amounts == {(A_TO_B, BITS, "flag"): 1}


templates = st.lists(st.tuples(
    st.sampled_from((A_TO_B, B_TO_A)),
    st.sampled_from((BITS, QUBITS)),
    st.integers(1, 2**40),
    st.sampled_from(("round", "verify", "probe")),
), max_size=3)
# draws mix 0 with positive counts; all-zero and empty lists come up too
searches = st.tuples(st.lists(st.sampled_from((0, 0, 1, 2, 7)), max_size=6), templates, templates)
# a fixed set of messages, such as a handshake, in a 1-tuple
handshakes = st.tuples(templates.map(tuple))


@given(st.lists(st.one_of(good_charges, searches, handshakes), max_size=10))
@example([((0, 0), [(A_TO_B, QUBITS, 3, "round")], [(B_TO_A, BITS, 2, "verify")]),
          (A_TO_B, BITS, 1, "earlier"),
          ([0, 4], [(A_TO_B, QUBITS, 3, "round")], []),
          ([], [(A_TO_B, BITS, 5, "probe")], [(B_TO_A, BITS, 5, "probe")]),
          (((A_TO_B, BITS, 4, "probe"), (B_TO_A, BITS, 6, "verify")),)])
def test_search_items_read_back_as_one_charge_per_message(ops):
    # amounts, totals, len and report() match the per-message log, so a search
    # whose draws are all 0 adds no round key and report() shows no round phase
    led = LoggedLedger()
    for op in ops:
        if len(op) == 4:
            led.charge(*op)
        elif len(op) == 1:
            led._log(*op)
        else:
            led._log_search(*(list(part) for part in op))
    led.log.assert_matches(led)


def _run_protocol(name: str, led: CommLedger, rng: random.Random):
    setup = random.Random(21)
    a, b = BitVector.random(40, 0.3, setup), BitVector.random(40, 0.3, setup)
    graph = BipartiteGraph.random(12, 10, 0.3, setup)
    f_a, f_b = BitVector.random(12, 0.5, setup), BitVector.random(10, 0.5, setup)
    exact = CostModel.exact_mode()
    if name.startswith("bmm"):
        model = exact if name == "bmm-exact" else CostModel.cost_model()
        bmm_with_trace(gen_promise_instance(24, 24, 12, seed=5), model, led, rng)
    elif name == "mm_f2":
        mm_f2(gen_promise_instance(32, 32, 8, seed=6, kind="f2"), led, rng)
    elif name == "disj":
        disj(a, b, led, exact, rng)
    elif name == "graph_collision_all":
        graph_collision_all(graph, f_a, f_b, led, rng)
    else:
        marked = 3 if name == "instance_search" else None
        answers = [i for i in range(30) if i % 7 == marked]
        instance_search(range(30), answers, led, rng, 6, GroverPlan.default(30))


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("name", ["bmm-exact", "bmm-cost-model", "mm_f2", "disj", "graph_collision_all",
                                  "instance_search", "instance_search-unmarked"])
def test_protocol_ledgers_count_and_report_their_entries(name, seed):
    led = LoggedLedger()
    _run_protocol(name, led, random.Random(seed))
    assert len(led) > 0
    led.log.assert_matches(led)


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: index_qubits(0), "domain must be nonempty", id="index-qubits"),
        pytest.param(lambda: integer_bits(-1), "range bound must be nonnegative", id="integer-bits"),
    ],
)
def test_input_checks_reject_with_their_message(call, message):
    with pytest.raises(ValueError) as raised:
        call()
    assert raised.type is ValueError and str(raised.value) == message
