"""Opt-in mutation check: each mutant of ``src/`` against the law tests listed for it.

Run from anywhere, with the tier-1 test dependencies installed::

    python tests/mutants.py            # every mutant, its listed tests only
    python tests/mutants.py --full     # every test under tests/ but the digests

For each mutant the script copies ``src/`` and ``tests/``, with what the
tests read beside them (``perfbench/``, ``README.md``, ``pyproject.toml``),
to a fresh temporary directory, checks that the old text occurs exactly once
in its file, replaces it by the new text and runs pytest there.  Not every
mutant is one line: the old text may be a block of lines, replaced whole.
It never runs ``tests/test_pinned_behaviour.py``: the digests pin draws, and
the question here is which checks of a law kill each change.  It prints one row
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

CRITERION_3 = "tests/test_acceptance.py::test_criterion_3_scaling_fits"
REPLAY_LAW = "tests/test_joins.py::test_replay_charges_follow_the_per_round_formulas"
MM_F2_CHARGES = "tests/test_joins.py::test_mm_f2_charges_follow_the_one_batch_formulas"
MM_F2_DENSE = "tests/test_joins.py::test_mm_f2_ships_each_column_past_the_sketch_dense"
DECODE_LAW = "tests/test_joins.py::test_sketch_decodes_its_design_sparsity_within_the_stated_failure_bound"
LEVELS_LAW = "tests/test_joins.py::test_sketch_levels_are_the_fewest_that_meet_the_batch_bound"
SKETCH_HASHES = "tests/test_joins.py::test_sketch_hashes_are_invertible_codes_and_in_range_buckets"
SKETCH_ENCODE = "tests/test_joins.py::test_sketch_encode_matches_field_by_field_reference"
SKETCH_DECODE = "tests/test_joins.py::test_sketch_decode_matches_reference_decoder"
RANDOM_GRAPH = "tests/test_qsim.py::test_random_graph_is_the_bitmatrix_draw_in_both_orientations"
CERT_LENGTH = "tests/test_joins.py::test_certificate_length_is_the_least_odd_that_covers_one_marked_entry"
CERT_MISS = "tests/test_joins.py::test_certificate_misses_with_probability_at_most_its_failure_for_every_marked_count"
EXACT_ROUND = "tests/test_joins.py::test_exact_round_is_the_growth_pass_then_one_certificate"
BOOST_LAW = "tests/test_qsim.py::test_inner_boost_is_sized_by_the_coherent_run_of_each_call"
CERT_LEDGER = "tests/test_ledger.py::test_certificate_ledger_recomputed_from_its_rounds"
INSTANCE_LEDGER = "tests/test_ledger.py::test_instance_search_ledger_recomputed_from_schedule"
BATCHED_CHARGES = "tests/test_qsim.py::test_batched_search_charges_match_per_measurement_charges"
COLLECT_PASSES = "tests/test_qsim.py::test_graph_collision_all_ends_in_one_growth_pass_and_then_one_certificate"
COLLECT_LOOP = "tests/test_qsim.py::test_graph_collision_all_matches_a_loop_of_single_calls"
CEILING_CAPS = "tests/test_joins.py::test_default_plan_ends_in_twelve_ceiling_caps"
CEILING_LAW = "tests/test_joins.py::test_ceiling_cap_reaches_one_over_sin_two_theta_for_every_marked_count"

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
        "index_qubits + 1",
        "ledger.py",
        "return max(1, (n - 1).bit_length())",
        "return max(1, (n - 1).bit_length()) + 1",
        ["tests/test_ledger.py::test_conventions"],
    ),
    (
        "replay final-search charge dropped",
        "joins.py",
        'pay(math.ceil(math.sqrt(n)) * inner_budget * width, "final-search")',
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
        "sketch kappa ceil(1.1 sqrt(ell)) -> ceil(0.8 sqrt(ell))",
        "joins.py",
        "math.ceil(1.1 * math.sqrt(instance.ell))",
        "math.ceil(0.8 * math.sqrt(instance.ell))",
        [
            MM_F2_CHARGES,
            "tests/test_joins.py::test_mm_f2_sketches_only_nonzero_sparse_columns_like_the_full_sketch_reference",
        ],
    ),
    (
        "undecoded column dropped, not shipped dense",
        "joins.py",
        "[decoded.get(j, column) for j, column in enumerate(columns)]",
        "[decoded.get(j, 0) for j in range(n)]",
        [MM_F2_CHARGES, MM_F2_DENSE],
    ),
    (
        "dense reply charge dropped",
        "joins.py",
        'ledger.charge(B_TO_A, BITS, integer_bits(n) + dense * (index_qubits(n) + n), "dense-transfer")',
        "pass",
        [MM_F2_CHARGES, MM_F2_DENSE, "tests/test_joins.py::test_mm_f2_zero_b"],
    ),
    (
        "Grover ceiling one below Lemma 2's bound",
        "qsim.py",
        "return 1 if n == 1 else math.isqrt(-(-n * n // (4 * (n - 1))) - 1) + 1",
        "return 1 if n <= 2 else math.isqrt(-(-n * n // (4 * (n - 1))) - 1)",
        [CEILING_CAPS, CEILING_LAW],
    ),
    (
        "certificate one step short (L - 2)",
        "qsim.py",
        "return cls((length // 2,), randomize=False, failure=failure)",
        "return cls((max(0, length // 2 - 1),), randomize=False, failure=failure)",
        [CERT_LENGTH, CERT_MISS],
    ),
    (
        "certificate failure target loosened 10x",
        "joins.py",
        "GroverPlan.certified(n, 1 / (10_000 * (instance.ell + 2)))",
        "GroverPlan.certified(n, 1 / (1_000 * (instance.ell + 2)))",
        [EXACT_ROUND, "tests/test_joins.py::test_exact_bmm_that_stops_early_keeps_its_verified_rounds"],
    ),
    (
        "certificate boost sized by h, not its l rounds",
        "qsim.py",
        "max(1, *plan.caps)",
        "max(1, *(GroverPlan.default(big_n) if certificate else plan).caps)",
        [BOOST_LAW, CERT_LEDGER],
    ),
    (
        "verification boosted at the run's r",
        "qsim.py",
        "inner_per_round if certificate else math.ceil(math.log2(100.0)) * inner_cost_qubits",
        "inner_per_round",
        [BOOST_LAW, INSTANCE_LEDGER, BATCHED_CHARGES],
    ),
    (
        "growth rounds boosted at the default ceiling",
        "qsim.py",
        "max(1, *plan.caps)",
        "max(1, *plan.caps, GroverPlan.default(big_n).caps[-1])",
        [BOOST_LAW],
    ),
    (
        "certificate verification at r = 1",
        "qsim.py",
        "inner_per_round if certificate else math.ceil(math.log2(100.0)) * inner_cost_qubits",
        "math.ceil(math.log2(100.0)) * inner_cost_qubits",
        [BOOST_LAW, CERT_LEDGER],
    ),
    (
        "collision certificate target loosened 10x",
        "qsim.py",
        "1 / (3 * (f_a.weight() * f_b.weight() + 1))",
        "10 / (3 * (f_a.weight() * f_b.weight() + 1))",
        [COLLECT_PASSES, COLLECT_LOOP],
    ),
    (
        "collision growth pass skipped",
        "qsim.py",
        "GroverPlan.certified(size, failure)",
        "GroverPlan.certified(size, failure)[-1:]",
        [COLLECT_PASSES, COLLECT_LOOP],
    ),
    (
        "collision certificate dropped: a growth miss ends the collection",
        "qsim.py",
        "GroverPlan.certified(size, failure)",
        "GroverPlan.certified(size, failure)[:1]",
        [COLLECT_PASSES, COLLECT_LOOP],
    ),
    (
        # a block: exact mode's collect step in compact rows and columns, which moves the zero rows of A
        # and the unused columns that a searched cover can hold, and so changes the draws
        "exact collect step in compact coordinates",
        "joins.py",
        """            f_a, f_b = BitVector(m, sum(1 << rows[r] for r in a_cols[p])), BitVector(m, B.data[k])
            for _ in range(100):
                found = graph_collision_all(uncollected, f_a, f_b, ledger, model, rng)
                if found:
                    break
            else:
                raise ProtocolError("collision collection stalled on a verified witness")
            cells = [(bisect_left(rows, i), col_of[j]) for i, j in found]
""",
        """            f_a, f_b = BitVector(m, sum(1 << r for r in a_cols[p])), BitVector(m, b_rows[p])
            for _ in range(100):
                found = graph_collision_all(uncollected, f_a, f_b, ledger, model, rng)
                if found:
                    break
            else:
                raise ProtocolError("collision collection stalled on a verified witness")
            cells = list(found)
""",
        ["tests/test_joins.py::test_bmm_active_index_setup_matches_full_transpose_reference"],
    ),
    (
        "sketch bucket hash without + b",
        "joins.py",
        "((a * i + b) % 2**64 >> 32)",
        "((a * i) % 2**64 >> 32)",
        [SKETCH_HASHES, "tests/test_joins.py::test_sketch_single_coordinate", SKETCH_ENCODE, SKETCH_DECODE],
    ),
    (
        "sketch decode never confirms, always the fallback",
        "joins.py",
        "not (residual ^ word) >> offsets[other] & mask for other in levels",
        "False for other in levels",
        [DECODE_LAW, SKETCH_DECODE],
    ),
    (
        "sketch with four levels",
        "joins.py",
        "self.levels = 5",
        "self.levels = 4",
        [LEVELS_LAW, "tests/test_joins.py::test_sketch_measurement_length"],
    ),
    (
        "sketch code map without the xorshift",
        "joins.py",
        "code = c2 * (x ^ x >> self._shift) + d & mask",
        "code = c2 * x + d & mask",
        [SKETCH_HASHES, "tests/test_joins.py::test_sketch_single_coordinate", SKETCH_ENCODE, SKETCH_DECODE],
    ),
    (
        "instance_search accepts unsorted answers",
        "qsim.py",
        " or not all(map(lt, answers, answers[1:]))",
        "",
        ["tests/test_qsim.py::test_instance_search_rejects_answers_outside_the_instances"],
    ),
    (
        "grover_search accepts repeated support",
        "qsim.py",
        """    if not all(map(lt, sup, sup[1:])):
        raise ValueError("support repeats an entry")
""",
        "",
        ["tests/test_qsim.py::test_input_checks_reject_with_their_message"],
    ),
    (
        "run-mmf2 row reads --mode",
        "cli.py",
        '"F2 product protocol over a grid", ("--ell",),',
        '"F2 product protocol over a grid", ("--ell", "--mode"),',
        ["tests/test_cli.py::test_readme_flag_table_matches_the_parser"],
    ),
    (
        "random graph keeps the edge draw, not its complement",
        "qsim.py",
        "missing = ~_bernoulli(n_left, n_right, density, rng)",
        "missing = _bernoulli(n_left, n_right, density, rng)",
        [RANDOM_GRAPH],
    ),
    (
        "random graph builds its columns from the untransposed draw",
        "qsim.py",
        "BitMatrix.from_numpy(missing.T)",
        "BitMatrix.from_numpy(missing)",
        [RANDOM_GRAPH],
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
