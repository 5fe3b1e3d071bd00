"""Exact accounting of communicated classical bits and qubits.

Every protocol in this package charges the ledger for each message it
models, tagged with a free-form phase label, so that empirical totals can
be compared against the analytical cost forms.  A Grover search logs one
item for all its messages, expanded into records only when they are read.

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
    phase)`` tuple, :meth:`_log_search` one ``(draws, per_round, verify)``
    item per search.  :attr:`entries` expands them into :class:`MessageRecord`
    named tuples only when read; ``len`` counts the records, one per message.
    """

    def __init__(self):
        self._log: list[tuple] = []  # charges' 4-tuples and searches' 3-tuples
        self._total = {BITS: 0, QUBITS: 0}
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
        # one test for the common case; _validate accepts int subclasses and words each rejection
        if not (direction in DIRECTIONS and kind in KINDS and type(amount) is int and amount > 0):
            self._validate(direction, kind, amount)
        self._log.append((direction, kind, amount, phase))
        self._total[kind] += amount
        self._records += 1

    def _log_search(self, draws: list, per_round: list, verify: list):
        """Log a search as one unchecked item, priced by arithmetic.

        Each of ``draws`` stands for every ``(direction, kind, unit, phase)`` of
        ``per_round`` at ``unit`` times its iteration count (none at 0), then the
        ``verify`` records: what one ``charge`` per message would log.  The ledger
        keeps the lists it is handed; callers build them fresh and never change them.
        """
        self._log.append((draws, per_round, verify))
        total, measurements, iterations = self._total, len(draws), sum(draws)
        for _, kind, unit, _ in per_round:
            total[kind] += unit * iterations
        for _, kind, amount, _ in verify:
            total[kind] += amount * measurements
        self._records += len(per_round) * (measurements - draws.count(0)) + len(verify) * measurements

    def _expand(self):
        """Yield every logged record as a plain tuple, in log order."""
        for item in self._log:
            if len(item) == 4:
                yield item
                continue
            draws, per_round, verify = item
            for iterations in draws:
                if iterations:
                    for way, kind, unit, phase in per_round:
                        yield way, kind, unit * iterations, phase
                yield from verify

    @property
    def entries(self) -> list[MessageRecord]:
        return list(map(MessageRecord._make, self._expand()))

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
        for _, kind, amount, phase in self._expand():
            phases.setdefault(phase, {BITS: 0, QUBITS: 0})[kind] += amount
        return {
            "phases": {phase: phases[phase] for phase in sorted(phases)},
            "total_bits": self.bits,
            "total_qubits": self.qubits,
        }

    def __len__(self) -> int:
        return self._records

    def __repr__(self) -> str:
        return f"CommLedger(bits={self.bits}, qubits={self.qubits}, entries={len(self)})"
