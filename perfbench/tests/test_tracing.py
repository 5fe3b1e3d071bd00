"""Self-time arithmetic, binding coverage and attribute restoration."""

import itertools
import random

import numpy as np
import pytest

from joinlab import cli, f2core, joins, qsim, reductions
from perfbench import tracing, workloads


def test_self_time_on_nested_synthetic_spans():
    # 0: [0, 10] root
    #   1: [1, 4]   child of 0
    #     2: [2, 3] child of 1
    #   3: [5, 9]   child of 0
    # 4: [11, 12] second root
    parent = [-1, 0, 1, 0, -1]
    start = [0.0, 1.0, 2.0, 5.0, 11.0]
    end = [10.0, 4.0, 3.0, 9.0, 12.0]
    got = tracing.self_times(parent, start, end)
    np.testing.assert_allclose(got, [3.0, 2.0, 1.0, 4.0, 1.0])
    assert got.sum() == pytest.approx(11.0)  # self times tile the root intervals


def test_tracer_spans_and_counts_through_wrappers():
    tracer = tracing.Tracer()

    def inner(x):
        return x + 1

    wrapped_inner = tracer.wrap("inner", inner)

    def outer(x):
        return wrapped_inner(x) * 2

    wrapped_outer = tracer.wrap("outer", outer)
    assert wrapped_outer(1) == 4
    assert list(tracer.parent) == [-1, 0]
    assert tracer.names == ["outer", "inner"]
    own = tracing.self_times(tracer.parent, tracer.start, tracer.end)
    assert (own >= 0).all()


def _binding_names(restored):
    return {(getattr(owner, "__name__", ""), name) for owner, name, _ in restored}


def test_traced_run_restores_every_patched_attribute():
    originals = {
        (joins, "bool_product"): joins.bool_product,
        (reductions, "f2_product"): reductions.f2_product,
        (joins, "instance_search"): joins.instance_search,
        (joins, "graph_collision_all"): joins.graph_collision_all,
        (cli, "gen_promise_instance"): cli.gen_promise_instance,
    }
    charge = vars(f2core.BitVector)["from_indices"]
    tracer = tracing.Tracer(workloads.EXPECTED_ERRORS)
    patches = tracing.install(tracer)
    workload = workloads.WORKLOADS["bmm-exact"]
    taps = workloads.Taps(workload.taps)
    taps.install()
    try:
        # names imported with ``from ... import`` are patched where they are looked up
        for (module, name), original in originals.items():
            assert getattr(module, name) is not original
        violations = []
        for _i, cell, seed in itertools.islice(workloads.trials(workload, 5), 4):
            workloads.run_trial(cell, seed, taps, violations)
        assert not violations
    finally:
        taps.restore()
        restored = patches.restore()
    assert restored
    for owner, name, original in restored:
        assert vars(owner)[name] is original
    for (module, name), original in originals.items():
        assert getattr(module, name) is original
    assert vars(f2core.BitVector)["from_indices"] is charge
    bindings = _binding_names(restored)
    for module in ("joinlab.f2core", "joinlab.joins", "joinlab.reductions"):
        assert (module, "bool_product") in bindings
        assert (module, "f2_product") in bindings
    assert ("joinlab.joins", "instance_search") in bindings
    assert ("joinlab.joins", "graph_collision_all") in bindings
    metrics = tracer.layer_metrics()
    assert metrics["joins.bmm.calls"] == 4
    assert metrics["qsim.left_cover.calls"] > 0
    assert metrics["ledger.charge.calls"] > 0
    assert tracer.counts["qsim.grover_search.draws"] >= metrics["qsim.grover_search.calls"]


def test_tracer_counts_rejected_charges_and_protocol_errors():
    tracer = tracing.Tracer(workloads.EXPECTED_ERRORS)
    patches = tracing.install(tracer)
    try:
        from joinlab.ledger import CommLedger

        with pytest.raises(ValueError):
            CommLedger().charge("A->B", "bits", 0, "x")
        inst = f2core.gen_promise_instance(8, 8, 4, 1)
        with pytest.raises(joins.PromiseViolationError):
            joins.bmm_with_trace(
                f2core.JoinInstance(inst.A, inst.B, 1, 0, "bool", inst.oracle_product),
                qsim.CostModel.exact_mode(),
                CommLedger(),
                random.Random(0),
            )
    finally:
        patches.restore()
    assert tracer.counts["ledger.charge.rejected"] == 1
    assert tracer.counts["joins.errors"] == 1
