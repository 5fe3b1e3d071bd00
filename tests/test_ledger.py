"""Ledger accounting: additivity, reports, CSV rows, inert behaviour."""

import random

import pytest

import joinlab
from joinlab.f2core import BitVector
from joinlab.ledger import (
    A_TO_B,
    B_TO_A,
    BITS,
    QUBITS,
    CommLedger,
    InertLedger,
    MessageRecord,
    index_qubits,
    integer_bits,
    outcome_bits,
)
from joinlab.qsim import CostModel, disj


def test_charge_accumulates():
    led = CommLedger()
    led.charge(A_TO_B, QUBITS, 8, "shuttle")
    assert led.qubits == 8 and led.bits == 0
    led.charge(A_TO_B, BITS, 3, "hello")
    led.charge(B_TO_A, BITS, 5, "hello")
    assert led.bits == 8
    assert led.phase_total("hello") == 8
    assert len(led.entries) == 3


def test_message_records_are_immutable_named_fields():
    led = CommLedger()
    led.charge(B_TO_A, QUBITS, 7, "search")
    (rec,) = led.entries
    assert joinlab.MessageRecord is MessageRecord and isinstance(rec, MessageRecord)
    assert (rec.direction, rec.kind, rec.amount, rec.phase) == (B_TO_A, QUBITS, 7, "search")
    direction, kind, amount, phase = rec
    assert rec == MessageRecord(direction, kind, amount, phase)
    assert hash(rec) == hash(MessageRecord(B_TO_A, QUBITS, 7, "search"))
    with pytest.raises(AttributeError):
        rec.amount = 8
    assert led.entries[0].amount == 7


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
    prev_bits, prev_qubits = 0, 0
    for _ in range(200):
        kind = BITS if rng.random() < 0.5 else QUBITS
        led.charge(A_TO_B, kind, rng.randint(1, 9), "p")
        assert led.bits >= prev_bits and led.qubits >= prev_qubits
        prev_bits, prev_qubits = led.bits, led.qubits
    assert led.bits + led.qubits == sum(e.amount for e in led.entries)


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
    assert led.phase_total("search") == 15 and led.phase_total("search", QUBITS) == 8
    assert led.phase_total("announce", BITS) == 3 and led.phase_total("announce", QUBITS) == 0
    assert led.phase_total("absent") == led.phase_total("absent", BITS) == 0
    rep = led.report()
    assert list(rep["phases"]) == ["announce", "search"]
    assert rep == {
        "phases": {"announce": {BITS: 3, QUBITS: 0}, "search": {BITS: 7, QUBITS: 8}},
        "total_bits": 10,
        "total_qubits": 8,
    }


def test_csv_rows_schema():
    led = CommLedger()
    led.charge(A_TO_B, QUBITS, 4, "grover-shuttle")
    rows = led.to_csv_rows(trial_id=3)
    assert rows == [(3, "grover-shuttle", A_TO_B, QUBITS, 4)]


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
    stats = {}
    disj(a, b, led, CostModel.exact_mode(), random.Random(3), stats=stats)
    iters = sum(stats["iterations"])
    meas = stats["measurements"]
    expect_qubits = iters * 2 * index_qubits(n) + meas * index_qubits(n)
    expect_bits = 2 * integer_bits(n) + meas * outcome_bits(n)
    assert led.qubits == expect_qubits
    assert led.bits == expect_bits


def test_inert_ledger_does_not_change_outputs():
    n = 48
    rng = random.Random(15)
    a = BitVector.random(n, 0.3, rng)
    b = BitVector.random(n, 0.3, rng)
    outs = []
    for ledger in (CommLedger(), InertLedger()):
        outs.append(disj(a, b, ledger, CostModel.exact_mode(), random.Random(99)))
    assert outs[0] == outs[1]
    inert = InertLedger()
    inert.charge(A_TO_B, BITS, 5, "x")
    assert inert.bits == 0 and len(inert.entries) == 0
    assert inert.phase_total("x") == inert.phase_total("x", BITS) == 0
    assert inert.report() == {"phases": {}, "total_bits": 0, "total_qubits": 0}
    with pytest.raises(ValueError):
        inert.charge(A_TO_B, BITS, 0, "x")
