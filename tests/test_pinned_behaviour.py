"""Pinned behaviour: SHA-256 digests of protocol outputs, RNG use, ledgers and CLI bytes.

Each digest covers, on fixed seeds, everything a refactor must keep:
returned values, trace rounds, every ``(direction, kind, amount, phase)``
ledger entry in order, the exception a run ends in, and a draw from the
generator after each call (so the number of draws a protocol takes is
pinned too).  A change that alters behaviour on purpose updates the digest
here and says why in CHANGES.md.  Run this file as a script to print the
current digests.
"""

import hashlib
import random

from joinlab.cli import main
from joinlab.f2core import BitMatrix, BitVector, JoinInstance, bool_product, gen_promise_instance
from joinlab.joins import bmm_cost_model, bmm_with_trace, gen_hard_instance
from joinlab.ledger import CommLedger
from joinlab.qsim import (
    BipartiteGraph,
    CostModel,
    GroverPlan,
    disj_all,
    graph_collision_all,
    grover_search,
    instance_search,
)
from joinlab.reductions import embed_disj_family

EXACT = CostModel.exact_mode()
COST_MODELS = (
    CostModel.cost_model(),
    CostModel.cost_model(c_shuttle=1.5, c_round=2.0),
)
# the qsim primitives also run with injected error, which the bmm replay rejects
QSIM_MODELS = (EXACT, CostModel.cost_model(), CostModel.cost_model(c_round=2.0, epsilon=0.05))

EXPECTED = {
    "bmm_exact": "4e14031030651ea8d771f24eb579309ec317485a951554cc1b17db70284c335e",
    "bmm_cost_model": "f5044f29493b6a25ce07d04c731a0e915001ead30ef4112328e14a227ffa02e6",
    "qsim": "5e23f7e4a2b5247f64676d531d9aed6cf2572c26d3c302f7b07d0400d248ed77",
    "cli": "864c2e415e5a57eb1f614675c4dbccc4f5fc42eaaf31ee1aa22fbb1e7a4b8d65",
}


class _Digest:
    def __init__(self):
        self._h = hashlib.sha256()

    def add(self, *values):
        self._h.update(repr(values).encode())
        self._h.update(b"\n")

    def ledger(self, led: CommLedger):
        self.add([(e.direction, e.kind, e.amount, e.phase) for e in led.entries])

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def _run(digest: _Digest, fn, rng: random.Random, led: CommLedger):
    """Call ``fn``, then record its result or error, the ledger and the next draw."""
    try:
        digest.add("ok", fn())
    except RuntimeError as exc:
        digest.add("error", type(exc).__name__)
    digest.ledger(led)
    digest.add(rng.getrandbits(32))


def _trace_fields(trace):
    rounds = [(r.witness, r.collisions, r.min_weight) for r in trace.rounds]
    return rounds, trace.product.data


def _bmm_instances():
    for n in (16, 32, 64):
        for ell in (n // 4, n, 2 * n):
            for trial in range(4):
                seed = 7000 + 131 * n + 17 * ell + trial
                yield seed, gen_promise_instance(n, n, ell, seed)
    rng = random.Random(44)
    for k in (2, 3, 4):
        left = [BitVector.random(24, 0.3, rng) for _ in range(k)]
        right = [BitVector.random(24, 0.3, rng) for _ in range(k)]
        yield 400 + k, embed_disj_family(left, right, 24).instance
    for n, ell in ((16, 16), (64, 36), (128, 64)):
        yield ell + n, gen_hard_instance(n, ell, seed=ell + n)


def _promise_breaking_instance():
    ones = BitMatrix.ones(6, 6)
    return JoinInstance(ones, ones, ell=4, seed=0, kind="bool", oracle_product=bool_product(ones, ones))


def bmm_exact_digest() -> str:
    digest = _Digest()
    cases = [(seed, inst, None) for seed, inst in _bmm_instances()]
    # a single search per round often misses, so runs also stop early
    cases += [(seed, inst, 1) for seed, inst in list(_bmm_instances())[::5]]
    cases.append((5, _promise_breaking_instance(), None))
    for seed, inst, none_repeats in cases:
        rng, led = random.Random(seed), CommLedger()

        def call():
            out, trace = bmm_with_trace(inst, EXACT, led, rng, none_repeats)
            return out.data, _trace_fields(trace)

        _run(digest, call, rng, led)
    return digest.hexdigest()


def bmm_cost_model_digest() -> str:
    digest = _Digest()
    instances = list(_bmm_instances())
    for n, ell in ((64, 16), (64, 64), (256, 64), (1024, 256), (4096, 256)):
        instances.append((ell + n, gen_hard_instance(n, ell, seed=ell + n)))
    for model in COST_MODELS:
        for seed, inst in instances:
            rng, led = random.Random(seed), CommLedger()
            _run(digest, lambda: _trace_fields(bmm_cost_model(inst, model, led, rng)), rng, led)
    return digest.hexdigest()


def qsim_digest() -> str:
    digest = _Digest()
    setup = random.Random(2024)
    for model in QSIM_MODELS:
        for case in range(150):
            n = setup.choice((8, 33, 64, 200))
            support = setup.sample(range(n), setup.randint(1, n))
            marked = set(setup.sample(support, min(len(support), setup.choice((0, 1, 2, len(support) // 3)))))
            plan = (None, GroverPlan.fixed(setup.randint(0, 4), reps=2))[case % 2]
            stats: dict = {}
            rng, led = random.Random(case), CommLedger()
            _run(
                digest,
                lambda: grover_search(n, support, marked.__contains__, plan, led, model, rng, stats=stats),
                rng,
                led,
            )
            digest.add(stats)

            size = setup.choice((1, 5, 16, 100))
            answers = [setup.random() < setup.choice((0.0, 0.05, 0.5)) for _ in range(size)]
            inner = setup.choice((0, 3, 40))
            rng, led = random.Random(case), CommLedger()
            _run(digest, lambda: instance_search(answers, led, model, rng, inner_cost_qubits=inner), rng, led)

            n = setup.choice((16, 64))
            a = BitVector.random(n, setup.choice((0.1, 0.4)), setup)
            b = BitVector.random(n, setup.choice((0.1, 0.4)), setup)
            rng, led = random.Random(case), CommLedger()
            _run(digest, lambda: sorted(disj_all(a, b, led, model, rng)), rng, led)

            n = setup.choice((8, 24))
            graph = BipartiteGraph.random(n, n, setup.choice((0.1, 0.5)), setup)
            f_a = BitVector.random(n, 0.3, setup)
            f_b = BitVector.random(n, 0.3, setup)
            rng, led = random.Random(case), CommLedger()
            _run(digest, lambda: sorted(graph_collision_all(graph, f_a, f_b, led, model, rng)), rng, led)
    return digest.hexdigest()


CLI_RUNS = (
    ("run-bmm", "--n", "16,32", "--ell", "8,32", "--trials", "10", "--seed", "3", "--mode", "exact"),
    ("run-bmm", "--n", "16,32", "--ell", "8,32", "--trials", "10", "--seed", "3", "--mode", "cost-model"),
    ("run-mmf2", "--n", "32", "--ell", "16", "--trials", "10", "--seed", "3"),
    ("run-disj", "--n", "64,1024", "--trials", "10", "--seed", "3", "--mode", "exact"),
    ("run-disj", "--n", "64,1024", "--trials", "10", "--seed", "3", "--mode", "cost-model", "--epsilon", "0.05"),
    ("run-gc", "--n", "16,32", "--trials", "10", "--seed", "3", "--mode", "exact"),
    ("run-gc", "--n", "16,32", "--trials", "10", "--seed", "3", "--mode", "cost-model", "--c-round", "2"),
    ("scaling", "--protocol", "bmm-cost", "--n", "64..256", "--ell", "16,64", "--trials", "2", "--seed", "3"),
)


def cli_digest(tmp_dir) -> str:
    digest = _Digest()
    for i, argv in enumerate(CLI_RUNS):
        out = f"{tmp_dir}/run{i}"
        digest.add(argv, main(list(argv) + ["--out", out]))
        for suffix in (".csv", ".summary.json"):
            with open(out + suffix, "rb") as fh:
                digest.add(suffix, fh.read())
    return digest.hexdigest()


def test_bmm_exact_pinned():
    assert bmm_exact_digest() == EXPECTED["bmm_exact"]


def test_bmm_cost_model_pinned():
    assert bmm_cost_model_digest() == EXPECTED["bmm_cost_model"]


def test_qsim_primitives_pinned():
    assert qsim_digest() == EXPECTED["qsim"]


def test_cli_outputs_pinned(tmp_path, capsys):
    assert cli_digest(tmp_path) == EXPECTED["cli"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        print(
            {
                "bmm_exact": bmm_exact_digest(),
                "bmm_cost_model": bmm_cost_model_digest(),
                "qsim": qsim_digest(),
                "cli": cli_digest(tmp),
            }
        )
