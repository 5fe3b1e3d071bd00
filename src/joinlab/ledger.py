"""Exact accounting of communicated classical bits and qubits.

Every protocol in this package charges the ledger for each message it
models, tagged with a free-form phase label, so that empirical totals can
be compared against the analytical cost forms.  The ledger keeps one
running amount per direction, kind and phase, and a count of records; a
Grover search adds all its records at once.

Charging conventions (the analyses leave constants open; these pin them):

* shuttling a search register over domain ``[n]`` one way costs
  ``index_qubits(n) = max(1, ceil(log2 n))`` qubits,
* one distributed reflection is a round trip, ``2 * index_qubits(n)``,
* announcing an integer in ``[0, n]`` costs ``ceil(log2(n+1))`` bits,
* announcing an outcome index plus one bit costs ``index_qubits(n) + 1``.

The ``max(1, .)`` clamp keeps amounts positive for degenerate ``n = 1``.
"""

from __future__ import annotations

from collections import defaultdict

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


class CommLedger:
    """Running totals of exchanged resources, one per ``(direction, kind, phase)``.

    ``charge`` adds one message's amount to its key, :meth:`_log_search` a
    whole search's by arithmetic, and :meth:`_log` a fixed set of messages;
    their order is not kept.  :attr:`amounts` reads the totals back.  ``len``
    counts records, not messages: a search adds one per template per
    measurement, however many Grover rounds the measurement took.
    """

    def __init__(self):
        self._amounts: defaultdict[tuple[str, str, str], int] = defaultdict(int)
        self._records = 0

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
        self._amounts[direction, kind, phase] += amount
        self._records += 1

    def _log_search(self, draws: list, per_round: list, verify: list):
        """Charge a search, unchecked, as one ``charge`` per message would.

        Each of ``draws`` stands for every ``(direction, kind, unit, phase)`` of
        ``per_round`` at ``unit`` times its iteration count (none at 0), then the
        ``verify`` records.  A key gets an amount only when it is positive.
        """
        if not draws:
            return
        amounts, measurements, iterations = self._amounts, len(draws), sum(draws)
        if iterations:
            for way, kind, unit, phase in per_round:
                amounts[way, kind, phase] += unit * iterations
        for way, kind, amount, phase in verify:
            amounts[way, kind, phase] += amount * measurements
        self._records += len(per_round) * (measurements - draws.count(0)) + len(verify) * measurements

    def _log(self, messages):
        """Charge each ``(direction, kind, amount, phase)`` of ``messages`` once, unchecked."""
        amounts = self._amounts
        for way, kind, amount, phase in messages:
            amounts[way, kind, phase] += amount
        self._records += len(messages)

    @property
    def amounts(self) -> dict[tuple[str, str, str], int]:
        """A copy of the totals, keyed by ``(direction, kind, phase)``."""
        return dict(self._amounts)

    @property
    def bits(self) -> int:
        return sum(amount for (_, kind, _), amount in self._amounts.items() if kind == BITS)

    @property
    def qubits(self) -> int:
        return sum(amount for (_, kind, _), amount in self._amounts.items() if kind == QUBITS)

    def total(self) -> int:
        return sum(self._amounts.values())

    def report(self) -> dict:
        """Per-phase and grand totals with a stable field order."""
        phases: dict[str, dict[str, int]] = {}
        for (_, kind, phase), amount in self._amounts.items():
            phases.setdefault(phase, {BITS: 0, QUBITS: 0})[kind] += amount
        return {
            "phases": {phase: phases[phase] for phase in sorted(phases)},
            "total_bits": self.bits,
            "total_qubits": self.qubits,
        }

    def __len__(self) -> int:
        return self._records

    def __repr__(self) -> str:
        return f"CommLedger(bits={self.bits}, qubits={self.qubits}, records={len(self)})"
