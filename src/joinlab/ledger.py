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

from typing import NamedTuple

__all__ = [
    "A_TO_B",
    "B_TO_A",
    "BITS",
    "QUBITS",
    "MessageRecord",
    "CommLedger",
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


class MessageRecord(NamedTuple):
    direction: str
    kind: str
    amount: int
    phase: str


class CommLedger:
    """Append-only account of exchanged resources with cached totals.

    ``charge`` logs each message as a plain ``(direction, kind, amount,
    phase)`` tuple; :attr:`entries` builds the :class:`MessageRecord` named
    tuples only when read.
    """

    def __init__(self):
        self._log: list[tuple[str, str, int, str]] = []
        self._total = {BITS: 0, QUBITS: 0}

    @staticmethod
    def _validate(direction: str, kind: str, amount: int):
        if direction not in DIRECTIONS:
            raise ValueError(f"unknown direction {direction!r}")
        if kind not in KINDS:
            raise ValueError(f"unknown kind {kind!r}")
        if not isinstance(amount, int) or amount < 1:
            raise ValueError(f"amount must be a positive integer, got {amount!r}")

    def charge(self, direction: str, kind: str, amount: int, phase: str):
        # one test for the common case; _validate accepts int subclasses and words each rejection
        if not (direction in DIRECTIONS and kind in KINDS and type(amount) is int and amount > 0):
            self._validate(direction, kind, amount)
        self._log.append((direction, kind, amount, phase))
        self._total[kind] += amount

    def _log_batch(self, records: list):
        """Log records as ``charge`` would one by one, unchecked: protocol code builds
        them from known directions and kinds and positive ints.  Totals come from them."""
        self._log += records
        total = self._total
        for _, kind, amount, _ in records:
            total[kind] += amount

    @property
    def entries(self) -> list[MessageRecord]:
        return list(map(MessageRecord._make, self._log))

    @property
    def bits(self) -> int:
        return self._total[BITS]

    @property
    def qubits(self) -> int:
        return self._total[QUBITS]

    def total(self) -> int:
        return self.bits + self.qubits

    def report(self) -> dict:
        """Per-phase and grand totals with a stable field order."""
        phases: dict[str, dict[str, int]] = {}
        for e in self.entries:
            phases.setdefault(e.phase, {BITS: 0, QUBITS: 0})[e.kind] += e.amount
        return {
            "phases": {phase: phases[phase] for phase in sorted(phases)},
            "total_bits": self.bits,
            "total_qubits": self.qubits,
        }

    def __len__(self) -> int:
        return len(self._log)

    def __repr__(self) -> str:
        return f"CommLedger(bits={self.bits}, qubits={self.qubits}, entries={len(self)})"
