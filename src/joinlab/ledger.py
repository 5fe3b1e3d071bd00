"""Exact accounting of communicated classical bits and qubits.

Every protocol in this package charges the ledger for each message it
models, tagged with a free-form phase label, so that empirical totals can
be compared against the analytical cost forms.

Charging conventions (the analyses leave constants open; these pin them):

* shuttling a search register over domain ``[n]`` one way costs
  ``index_qubits(n) = max(1, ceil(log2 n))`` qubits,
* one distributed reflection is a round trip, ``2 * index_qubits(n)``,
* announcing an integer in ``[0, n]`` costs ``ceil(log2(n+1))`` bits,
* announcing an outcome index plus one bit costs ``index_qubits(n) + 1``.

The ``max(1, .)`` clamp keeps amounts positive for degenerate ``n = 1``.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "A_TO_B",
    "B_TO_A",
    "BITS",
    "QUBITS",
    "MessageRecord",
    "CommLedger",
    "InertLedger",
    "index_qubits",
    "integer_bits",
    "outcome_bits",
]

A_TO_B = "A->B"
B_TO_A = "B->A"
DIRECTIONS = (A_TO_B, B_TO_A)

BITS = "bits"
QUBITS = "qubits"
KINDS = (BITS, QUBITS)

CSV_HEADER = ("trial_id", "phase", "direction", "kind", "amount")


def index_qubits(n: int) -> int:
    """Qubits (or bits) needed to name an element of [n]."""
    if n < 1:
        raise ValueError("domain must be nonempty")
    return max(1, (n - 1).bit_length())


def integer_bits(n: int) -> int:
    """Bits needed to announce an integer in [0, n]."""
    if n < 0:
        raise ValueError("range bound must be nonnegative")
    return max(1, n.bit_length())


def outcome_bits(n: int) -> int:
    """Bits for one outcome index in [n] plus a single answer bit."""
    return index_qubits(n) + 1


@dataclass(frozen=True)
class MessageRecord:
    direction: str
    kind: str
    amount: int
    phase: str


class CommLedger:
    """Append-only account of exchanged resources with cached totals."""

    def __init__(self):
        self.entries: list[MessageRecord] = []
        self._total = {BITS: 0, QUBITS: 0}
        self._by_phase: dict[str, dict[str, int]] = {}

    @staticmethod
    def _validate(direction: str, kind: str, amount: int):
        if direction not in DIRECTIONS:
            raise ValueError(f"unknown direction {direction!r}")
        if kind not in KINDS:
            raise ValueError(f"unknown kind {kind!r}")
        if not isinstance(amount, int) or amount < 1:
            raise ValueError(f"amount must be a positive integer, got {amount!r}")

    def charge(self, direction: str, kind: str, amount: int, phase: str):
        self._validate(direction, kind, amount)
        self.entries.append(MessageRecord(direction, kind, amount, phase))
        self._total[kind] += amount
        bucket = self._by_phase.setdefault(phase, {BITS: 0, QUBITS: 0})
        bucket[kind] += amount

    @property
    def bits(self) -> int:
        return self._total[BITS]

    @property
    def qubits(self) -> int:
        return self._total[QUBITS]

    def total(self) -> int:
        return self.bits + self.qubits

    def phase_total(self, phase: str, kind: str | None = None) -> int:
        bucket = self._by_phase.get(phase, {BITS: 0, QUBITS: 0})
        if kind is None:
            return bucket[BITS] + bucket[QUBITS]
        return bucket[kind]

    def phases(self) -> list[str]:
        return sorted(self._by_phase)

    def report(self) -> dict:
        """Per-phase and grand totals with a stable field order."""
        return {
            "phases": {
                phase: {BITS: self._by_phase[phase][BITS], QUBITS: self._by_phase[phase][QUBITS]}
                for phase in sorted(self._by_phase)
            },
            "total_bits": self.bits,
            "total_qubits": self.qubits,
        }

    def to_csv_rows(self, trial_id) -> list[tuple]:
        return [(trial_id, e.phase, e.direction, e.kind, e.amount) for e in self.entries]

    def __len__(self) -> int:
        return len(self.entries)

    def __repr__(self) -> str:
        return f"CommLedger(bits={self.bits}, qubits={self.qubits}, entries={len(self.entries)})"


class InertLedger(CommLedger):
    """Validates charges but records nothing; protocols must behave identically."""

    def charge(self, direction: str, kind: str, amount: int, phase: str):
        self._validate(direction, kind, amount)
