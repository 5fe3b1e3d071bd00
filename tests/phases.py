"""Opt-in phase split: a ``perfbench`` workload's comm and bits per trial, phase by phase.

Run from anywhere, with the tier-1 test dependencies installed::

    python tests/phases.py                          # bmm-exact, seed 1
    python tests/phases.py mmf2 scaling-cost --seed 2

For each named workload it runs the fixed trials that ``perfbench/run.py``
averages ``bits_per_trial`` and ``comm_per_trial`` over: the first
``min_cycles`` whole cycles of ``workloads.trials``, each through
``workloads.run_trial`` with the workload's ``Taps`` installed and then
restored.  It reads the ledger each tapped call was handed and sums its
``CommLedger.amounts`` by phase once the trial is over.  It prints one
table per workload: each phase's comm (bits plus qubits) and bits per
trial with its share of the total, largest comm first, and then the
totals, which are the benchmark's two metrics.  It exits 1 when a trial
reports a violation or its ledgers do not add up to the trial's own
totals.  It writes nothing and changes no ``perfbench`` file.  Tier-1 does
not run this file, since pytest only collects ``test_*.py``.
"""

from __future__ import annotations

import argparse
import inspect
import itertools
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from joinlab.ledger import BITS  # noqa: E402
from perfbench import workloads  # noqa: E402


def _ledger(call: dict):
    """The ledger a tapped protocol call was handed."""
    return inspect.signature(call["original"]).bind(*call["args"], **call["kwargs"]).arguments["ledger"]


def phase_split(workload, seed: int):
    """``(trials, comm, bits, failed, problems)``: per-phase sums over the workload's fixed trials."""
    comm, bits, failed, problems = defaultdict(int), defaultdict(int), 0, []
    trials = workload.min_cycles * len(workload.cells)
    taps = workloads.Taps(workload.taps)
    taps.install()
    try:
        for index, cell, trial_seed in itertools.islice(workloads.trials(workload, seed), trials):
            _, outcome = workloads.run_trial(cell, trial_seed, taps, problems)
            failed += not outcome.ok
            ledgers = {id(led): led for led in map(_ledger, taps.calls)}.values()
            total = {BITS: 0, "all": 0}
            for led in ledgers:
                for (_, kind, phase), amount in led.amounts.items():
                    comm[phase] += amount
                    total["all"] += amount
                    if kind == BITS:
                        bits[phase] += amount
                        total[BITS] += amount
            if (total[BITS], total["all"]) != (outcome.bits, outcome.bits + outcome.qubits):
                problems.append(f"trial {index} ({cell.label}): its ledgers do not add up to its totals")
    finally:
        taps.restore()
    return trials, comm, bits, failed, problems


def table(trials: int, comm: dict, bits: dict) -> list[str]:
    """Markdown rows: each phase's comm and bits per trial and their shares, then the totals."""
    all_comm, all_bits = sum(comm.values()), sum(bits.values())

    def share(part: int, whole: int) -> str:
        return f"{100 * part / whole:.1f}%" if whole else "-"

    rows = ["| phase | comm per trial | share | bits per trial | share |", "| --- | ---: | ---: | ---: | ---: |"]
    for phase in sorted(comm, key=lambda p: (-comm[p], p)):
        rows.append(f"| `{phase}` | {comm[phase] / trials:,.1f} | {share(comm[phase], all_comm)} | "
                    f"{bits[phase] / trials:,.1f} | {share(bits[phase], all_bits)} |")
    rows.append(f"| total | {all_comm / trials:,.1f} | 100% | {all_bits / trials:,.1f} | 100% |")
    return rows


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="python tests/phases.py", description=__doc__.splitlines()[0])
    parser.add_argument("workload", nargs="*", help=f"of {', '.join(workloads.WORKLOADS)} (default: bmm-exact)")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    for name in args.workload:
        if name not in workloads.WORKLOADS:
            parser.error(f"unknown workload {name!r}")
    problems = []
    for name in args.workload or ["bmm-exact"]:
        trials, comm, bits, failed, found = phase_split(workloads.WORKLOADS[name], args.seed)
        print(f"{name}, seed {args.seed}: {trials} fixed trials, {failed} failed")
        print("\n".join(table(trials, comm, bits)), end="\n\n")
        problems += [f"{name}: {problem}" for problem in found]
    for problem in problems:
        print(f"problem: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
