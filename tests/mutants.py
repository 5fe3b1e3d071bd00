"""Opt-in mutation check: each one-line mutant of ``src/`` against the law tests listed for it.

Run from anywhere, with the tier-1 test dependencies installed::

    python tests/mutants.py            # every mutant, its listed tests only
    python tests/mutants.py --full     # every test under tests/ but the digests

For each mutant the script copies ``src/`` and ``tests/``, with what the
tests read beside them (``perfbench/``, ``README.md``, ``pyproject.toml``),
to a fresh temporary directory, checks that the old text occurs exactly once
in its file, replaces it by the new text and runs pytest there.  It never
runs ``tests/test_pinned_behaviour.py``: the digests pin draws, and the
question here is which checks of a law kill each change.  It prints one row
per mutant (mutant, killed, killed by) and exits 1 when a mutant survives.
It writes nothing in the repository.  Tier-1 does not run this file, since
pytest only collects ``test_*.py``.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

CRITERION_2 = "tests/test_acceptance.py::test_criterion_2_mm_f2_correctness_and_cost"
CRITERION_3 = "tests/test_acceptance.py::test_criterion_3_scaling_fits"
REPLAY_LAW = "tests/test_joins.py::test_replay_charges_follow_the_per_round_formulas"

# (name, file under src/joinlab, old text, new text, tests that must kill it)
MUTANTS = [
    (
        "replay search charge sqrt(n/t) -> sqrt(n)",
        "joins.py",
        "math.sqrt(n / t_cur)",
        "math.sqrt(n)",
        [CRITERION_3, REPLAY_LAW],
    ),
    (
        "r3 = 1",
        "joins.py",
        "r3 = math.ceil(math.log2(100.0 * n))",
        "r3 = 1",
        [CRITERION_2],
    ),
    (
        "_DENSE_VOTE 0.63 -> 0.3",
        "joins.py",
        "_DENSE_VOTE = 0.63",
        "_DENSE_VOTE = 0.3",
        ["tests/test_joins.py::test_classification_leaves_scattered_columns_sparse"],
    ),
    (
        "index_qubits + 1",
        "ledger.py",
        "return max(1, (n - 1).bit_length())",
        "return max(1, (n - 1).bit_length()) + 1",
        ["tests/test_ledger.py::test_conventions"],
    ),
    (
        "Algorithm S with randrange(n)",
        "joins.py",
        "if randrange(n - t) < left:",
        "if randrange(n) < left:",
        ["tests/test_joins.py::test_probe_rounds_sample_rows_and_probe_bits_with_the_uniform_law"],
    ),
    (
        "replay final-search charge dropped",
        "joins.py",
        'pay(math.ceil(model.c_shuttle * math.sqrt(n)) * inner_budget * width, "final-search")',
        "pass",
        [
            "tests/test_joins.py::test_cost_model_zero_instance_single_failed_search",
            "tests/test_joins.py::test_cost_model_single_witness_formula",
            REPLAY_LAW,
        ],
    ),
    (
        "replay collect charge sqrt(lambda w) -> sqrt(lambda)",
        "joins.py",
        "math.sqrt(len(cells) * min_w[p])",
        "math.sqrt(len(cells))",
        [REPLAY_LAW],
    ),
    (
        # no law test states the decode rate at the design sparsity yet; the old-step-3 reference
        # copy is the only non-digest check that kills this one
        "sketch kappa ceil(1.1 sqrt(ell)) -> ceil(0.8 sqrt(ell))",
        "joins.py",
        "kappa = math.ceil(1.1 * math.sqrt(instance.ell))",
        "kappa = math.ceil(0.8 * math.sqrt(instance.ell))",
        ["tests/test_joins.py::test_mm_f2_sketches_only_nonzero_sparse_columns_like_the_full_sketch_reference"],
    ),
    (
        "exact none_repeats base 3 -> 30",
        "joins.py",
        "math.log(3.0)",
        "math.log(30.0)",
        ["tests/test_joins.py::test_final_searches_meet_the_per_round_bound_by_the_exact_miss_probability"],
    ),
]

_FAILED = re.compile(r"^(?:FAILED|ERROR) (\S+?)(?:\[|\s|$)")


def run_mutant(file: str, old: str, new: str, tests: list[str], full: bool) -> list[str]:
    """The tests that fail with the mutant in place, by function, in the order pytest reports them."""
    with tempfile.TemporaryDirectory(prefix="joinlab-mutant-") as tmp:
        work = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache", "out")
        for folder in ("src", "tests", "perfbench"):
            shutil.copytree(ROOT / folder, work / folder, ignore=ignore)
        for name in ("README.md", "pyproject.toml"):
            shutil.copy(ROOT / name, work / name)
        target = work / "src" / "joinlab" / file
        text = target.read_text()
        if text.count(old) != 1:
            raise SystemExit(f"{file}: expected the old text once, found it {text.count(old)} times: {old!r}")
        target.write_text(text.replace(old, new))
        selection = ["tests"] if full else tests
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
             "--ignore=tests/test_pinned_behaviour.py", *selection],
            cwd=work,
            env={**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"},
            capture_output=True,
            text=True,
        )
        if proc.returncode not in (0, 1):
            raise SystemExit(f"pytest could not run the mutant of {file} (exit {proc.returncode}):\n{proc.stdout[-2000:]}")
    killers = []
    for line in proc.stdout.splitlines():
        found = _FAILED.match(line)
        if found and found.group(1) not in killers:
            killers.append(found.group(1))
    return killers


def main(argv: list[str]) -> int:
    if argv not in ([], ["--full"]):
        print("usage: python tests/mutants.py [--full]", file=sys.stderr)
        return 2
    full = bool(argv)
    print("| mutant | killed | killed by |")
    print("| --- | --- | --- |")
    survivors = 0
    for name, file, old, new, tests in MUTANTS:
        killers = run_mutant(file, old, new, tests, full)
        survivors += not killers
        named = ", ".join(f"`{k.split('::')[-1]}`" for k in killers) or "-"
        print(f"| {name} | {'yes' if killers else 'NO'} | {named} |", flush=True)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
