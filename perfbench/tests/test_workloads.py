"""Seeded plans, fingerprints, oracle checks and the benchmark's own manifest."""

import itertools
import json
from pathlib import Path

from joinlab import f2core
from perfbench import run, stats, tracing, workloads

ROOT = Path(__file__).resolve().parents[2]


def _plan(workload, seed, count):
    return list(itertools.islice(workloads.trials(workload, seed), count))


def _run(workload, seed, count):
    taps = workloads.Taps(workload.taps)
    taps.install()
    violations, records = [], []
    try:
        for _i, cell, tseed in _plan(workload, seed, count):
            _elapsed, outcome = workloads.run_trial(cell, tseed, taps, violations)
            records.append(outcome.record())
    finally:
        taps.restore()
    return records, violations


def test_same_seed_same_trials_and_digest():
    workload = workloads.WORKLOADS["bmm-exact"]
    first, v1 = _run(workload, 3, 3)
    second, v2 = _run(workload, 3, 3)
    assert not v1 and not v2
    assert first == second
    assert stats.fingerprint(first) == stats.fingerprint(second)
    assert _plan(workload, 3, 30) == _plan(workload, 3, 30)


def test_different_seed_gives_different_derived_seeds():
    for workload in workloads.WORKLOADS.values():
        a = _plan(workload, 1, 50)
        b = _plan(workload, 2, 50)
        seeds_a = {s for _, _, s in a}
        assert len(seeds_a) == len(a)
        assert not seeds_a & {s for _, _, s in b}
        assert [c for _, c, _ in a] == [c for _, c, _ in b]


def test_every_kind_of_trial_passes_its_checks():
    # one trial of each cheap cell kind, through the same path the worker uses
    cells = [
        workloads.Cell("bmm", 16, 8),
        workloads.Cell("bmm-disj", 16, 4),
        workloads.Cell("mmf2", 64, 16),
        workloads.Cell("mmf2-ip", 64, 4),
        workloads.Cell("bmm-cost", 64, 16),
        workloads.Cell("disj-cost", 1024, 1),
    ]
    taps = workloads.Taps(
        {t for w in workloads.WORKLOADS.values() for t in w.taps}
    )
    taps.install()
    violations = []
    try:
        for i, cell in enumerate(cells):
            elapsed, outcome = workloads.run_trial(cell, 100 + i, taps, violations)
            assert elapsed > 0
            assert outcome.ok, cell
            assert outcome.bits + outcome.qubits > 0
    finally:
        taps.restore()
    assert not violations


def test_brute_force_oracle_catches_a_flipped_bit():
    inst = f2core.gen_promise_instance(32, 32, 16, 7)
    assert workloads.brute_force_matches(inst.A, inst.B, inst.oracle_product, "bool")
    data = list(inst.oracle_product.data)
    data[5] ^= 1 << 3
    wrong = f2core.BitMatrix(32, 32, data)
    assert not workloads.brute_force_matches(inst.A, inst.B, wrong, "bool")
    f2 = f2core.gen_promise_instance(32, 32, 16, 7, "f2")
    assert workloads.brute_force_matches(f2.A, f2.B, f2.oracle_product, "f2")


def test_manifest_matches_the_code():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in manifest["workloads"]] == list(workloads.WORKLOADS)
    assert list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in manifest["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"]) for m in manifest["per_layer"]] == list(tracing.LAYER_METRICS)


def test_minimum_trial_counts_fix_a_tail_percentile():
    for workload in workloads.WORKLOADS.values():
        assert stats.tail_percentile(workload.min_cycles * len(workload.cells)) >= 75.0
