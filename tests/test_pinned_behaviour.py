"""Pinned behaviour: SHA-256 digests of protocol outputs, RNG use, ledgers and CLI bytes.

Each digest covers, on fixed seeds, everything a refactor must keep:
returned values, trace rounds, the ledger's amount per ``(direction, kind,
phase)`` and its message count, the exception a run ends in, and a draw from the
generator after each call (so the number of draws a protocol takes is
pinned too).  A change that alters behaviour on purpose updates the digest
here and says why in CHANGES.md.  A re-pin that changes draws but claims
an unchanged law names the law test that shows it.  Run this file as a
script to print the current digests.

A change that edits the cases of a digest, dropping one that no longer
runs or one the program now rejects, proves the edit the same way: run the
edited module against the parent commit, and take each new ``EXPECTED``
value from that run.  The new value then equals the parent's hash for the
same cases, so the edit pins the same behaviour on the cases that remain.
"""

import contextlib
import dataclasses
import hashlib
import io
import os
import random

from joinlab.cli import main
from joinlab.f2core import BitMatrix, BitVector, JoinInstance, bool_product, gen_promise_instance
from joinlab.joins import SensingSketch, bmm_cost_model, bmm_with_trace, gen_hard_instance, mm_f2
from joinlab.ledger import CommLedger
from joinlab.qsim import (
    BipartiteGraph,
    CostModel,
    GroverPlan,
    graph_collision_all,
    grover_search,
    instance_search,
)
from joinlab.reductions import embed_disj_family, embed_inner_product, embed_ip_f2, embed_or_blocks

EXACT = CostModel.exact_mode()
COST_MODELS = (CostModel.cost_model(),)
QSIM_MODELS = (EXACT, CostModel.cost_model())

EXPECTED = {
    "bmm_exact": "f3673c8fe6295ee419196322244517e10285ea8b5bd0069795f559642065f809",
    "bmm_cost_model": "37b54e15b0ed5be92c70f7aacdff991f4d72398a9199ddbb6b73538e03eeabf6",
    "bmm_cost_model_wide": "0ceccd3c9bc58f72b0abd35fd8558946ff4c9d46c2e59a40dd2cc5087676a0cf",
    "qsim": "a849679f0f02b63f807310526a5eb7389f70d93855f7ad1d497bc38ae22b68cb",
    "mm_f2": "1d06f84bcf28909e57292358ed533133cda10e17125a66f1df105c06533301b4",
    "sketch": "6940a86f8c3ead0c427ecf799a1614d790ec4e7ad230f7fa0486cb123278a630",
    "cli": "1a33294a1e6ddeecd620f56633550e843aecde440e3592e18b2a76ee14970d5f",
    "cli_sweeps": "07d166b1c89351cfe8496ba6c02ad20fb6060edec11b4f715b1420a0cd3a796b",
    "reductions": "b3861058dd40e27add3043d8965cecd9e0dc057cd718d3adfe299d38493c10c1",
}


class _Digest:
    def __init__(self):
        self._h = hashlib.sha256()

    def add(self, *values):
        self._h.update(repr(values).encode())
        self._h.update(b"\n")

    def ledger(self, led: CommLedger):
        self.add(sorted(led.amounts.items()), len(led))

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
    ones = BitMatrix(6, 6, [0b111111] * 6)
    return JoinInstance(ones, ones, ell=4, seed=0, kind="bool", oracle_product=bool_product(ones, ones))


def bmm_exact_digest() -> str:
    digest = _Digest()
    cases = [*_bmm_instances(), (5, _promise_breaking_instance())]
    for seed, inst in cases:
        rng, led = random.Random(seed), CommLedger()

        def call():
            out, trace = bmm_with_trace(inst, EXACT, led, rng)
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


def bmm_cost_model_wide_digest() -> str:
    """The replay at the widths the ``scaling-cost`` benchmark runs, where few inner indices hold ones."""
    digest = _Digest()
    instances = [(n + seed, gen_hard_instance(n, 256, seed=n + seed)) for n in (2048, 8192) for seed in (1, 2)]
    instances.append((4096, gen_promise_instance(4096, 4096, 64, seed=4096)))
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
            plan = (None, GroverPlan((setup.randint(0, 4),) * 2, randomize=False))[case % 2]
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
            # instance_search runs exact only; the cost-model pass still takes its setup draws
            if model.exact:
                rng, led = random.Random(case), CommLedger()
                hits = [i for i, answer in enumerate(answers) if answer]
                _run(digest, lambda: instance_search(range(size), hits, led, rng, inner_cost_qubits=inner), rng, led)

            n = setup.choice((8, 24))
            graph = BipartiteGraph.random(n, n, setup.choice((0.1, 0.5)), setup)
            f_a = BitVector.random(n, 0.3, setup)
            f_b = BitVector.random(n, 0.3, setup)
            rng, led = random.Random(case), CommLedger()
            _run(digest, lambda: sorted(graph_collision_all(graph, f_a, f_b, led, model, rng)), rng, led)
    return digest.hexdigest()


def _mm_f2_cases():
    """(seed, instance) pairs for mm_f2, ending in its product or a promise violation.

    The last two cases overflow their promise.  In the first of them 4 of
    the 24 columns, all past kappa = 4 ones, do not decode and go dense;
    in the last, both columns of 40 ones are past what a sketch for
    kappa = 5 holds, so they go dense.  Every other nonzero column here
    holds at most kappa ones and decodes from the one sketch batch.
    """
    for n in (16, 48, 128):
        for ell in (4, n // 2, 2 * n):  # 2n puts up to 12 ones in a column, still within kappa
            for trial in range(2):
                seed = 9000 + 131 * n + 17 * ell + trial
                yield seed, gen_promise_instance(n, n, ell, seed, "f2")
    for n, ell in ((64, 16), (64, 64)):
        seed = 9500 + n + ell
        yield seed, gen_promise_instance(n, n, ell, seed, "f2")
    rng = random.Random(45)
    for n, k in ((16, 3), (64, 8), (128, 8)):
        left = [BitVector.random(n, 0.5, rng) for _ in range(k)]
        right = [BitVector.random(n, 0.5, rng) for _ in range(k)]
        yield 600 + n + k, embed_ip_f2(left, right, n).instance
    # a promise far below the product's weight: every column holds 8 to 16 ones, past kappa = 4;
    # 4 of them go dense (a 121-bit reply), 20 still decode, and the product overflows the promise
    a, b = BitMatrix.random(24, 24, 0.3, rng), BitMatrix.random(24, 24, 0.3, rng)
    yield 7, JoinInstance(a, b, ell=9, kind="f2")
    # two weight-40 columns, far over the promise of 16 ones
    data = [0] * 64
    for j in rng.sample(range(64), 2):
        for i in rng.sample(range(64), 40):
            data[i] |= 1 << j
    inst = JoinInstance(BitMatrix.identity(64), BitMatrix(64, 64, data), ell=16, kind="f2")
    yield 8, inst


def mm_f2_digest() -> str:
    """The protocol runs: outputs, ledger amounts and the draw after each call."""
    digest = _Digest()
    for seed, inst in _mm_f2_cases():
        rng, led = random.Random(seed), CommLedger()
        _run(digest, lambda: mm_f2(inst, led, rng).data, rng, led)
    return digest.hexdigest()


def sketch_digest() -> str:
    """The measurement bytes and the decode of fixed-seed sketches: the realized hash."""
    digest = _Digest()
    rng = random.Random(46)
    for n, kappa, seed in ((2, 1, 5), (64, 4, 1), (100, 3, 7), (1024, 16, 99)):
        sketch = SensingSketch(n, kappa, seed)
        xs = [BitVector(n), BitVector.from_indices(n, [0]), BitVector.from_indices(n, [n - 1])]
        xs += [BitVector.random_weight(n, min(n, w), rng) for w in (kappa, 3 * kappa)]
        for x in xs:
            meas = sketch.encode(x)
            decoded = sketch.decode(meas)
            decoded_bits = None if decoded is None else decoded.bits
            digest.add(meas.n, meas.bits.to_bytes((meas.n + 7) // 8, "little"), decoded_bits)
    return digest.hexdigest()


def _embeddings():
    rng = random.Random(47)
    for n, k in ((8, 1), (16, 3), (24, 8), (12, 12)):
        left = [BitVector.random(n, 0.4, rng) for _ in range(k)]
        right = [BitVector.random(n, 0.4, rng) for _ in range(k)]
        yield embed_disj_family(left, right, n)
        yield embed_ip_f2(left, right, n)
    for n, length in ((4, 1), (4, 16), (8, 29), (16, 200)):
        yield embed_inner_product(BitVector.random(length, 0.5, rng), BitVector.random(length, 0.5, rng), n)
    for n, side, k in ((4, 2, 2), (16, 4, 3), (24, 3, 8)):
        blocks = [(BitMatrix.random(side, side, 0.4, rng), BitMatrix.random(side, side, 0.4, rng)) for _ in range(k)]
        yield embed_or_blocks(blocks, n)


def reductions_digest() -> str:
    """Every embedder's (A, B, ell, kind, product) and ``validate()``, also with one cell of A flipped."""
    digest = _Digest()
    for emb in _embeddings():
        inst = emb.instance
        digest.add(emb.name, inst.A.data, inst.B.data, inst.ell, inst.kind, inst.oracle_product.data)
        flipped = BitMatrix(inst.A.rows, inst.A.cols, [inst.A.data[0] ^ 1, *inst.A.data[1:]])
        tampered = JoinInstance(flipped, inst.B, inst.ell, inst.seed, inst.kind)
        digest.add(emb.validate(), dataclasses.replace(emb, instance=tampered).validate())
    return digest.hexdigest()


CLI_RUNS = (
    ("run-bmm", "--n", "16,32", "--ell", "8,32", "--trials", "10", "--seed", "3", "--mode", "exact"),
    ("run-bmm", "--n", "16,32", "--ell", "8,32", "--trials", "10", "--seed", "3", "--mode", "cost-model"),
    ("run-mmf2", "--n", "32", "--ell", "16", "--trials", "10", "--seed", "3"),
    ("run-disj", "--n", "64,1024", "--trials", "10", "--seed", "3", "--mode", "exact"),
    ("run-disj", "--n", "64,1024", "--trials", "10", "--seed", "3", "--mode", "cost-model"),
    ("run-gc", "--n", "16,32", "--trials", "10", "--seed", "3", "--mode", "exact"),
    ("run-gc", "--n", "16,32", "--trials", "10", "--seed", "3", "--mode", "cost-model"),
    ("scaling", "--protocol", "bmm-cost", "--n", "128", "--ell", "16,64", "--trials", "2", "--seed", "3"),
)


def cli_digest(tmp_dir) -> str:
    digest = _Digest()
    for i, argv in enumerate(CLI_RUNS):
        out = f"{tmp_dir}/run{i}"
        # the digest covers the output files; a summary line on stdout is dropped
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(list(argv) + ["--out", out])
        digest.add(argv, code)
        for suffix in (".csv", ".summary.json"):
            with open(out + suffix, "rb") as fh:
                digest.add(suffix, fh.read())
    return digest.hexdigest()


SWEEP_RUNS = (
    ("scaling", "--protocol", "disj-cost", "--n", "1024..16384", "--trials", "3", "--seed", "5",
     "--divide-log"),
    ("scaling", "--protocol", "bmm-cost", "--n", "64..512", "--ell", "32", "--trials", "2",
     "--seed", "3"),
    ("validate-reductions", "--n", "16", "--trials", "10", "--seed", "2"),
)


def sweep_digest(tmp_dir) -> str:
    """Stdout, CSV and summary of the sweeps and the reduction check."""
    digest = _Digest()
    for i, argv in enumerate(SWEEP_RUNS):
        out = f"{tmp_dir}/sweep{i}"
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(list(argv) + ["--out", out])
        digest.add(argv, code, stdout.getvalue())
        for suffix in (".csv", ".summary.json"):
            path = out + suffix
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    digest.add(suffix, fh.read())
            else:
                digest.add(suffix, None)
    return digest.hexdigest()


def test_bmm_exact_pinned():
    assert bmm_exact_digest() == EXPECTED["bmm_exact"]


def test_bmm_cost_model_pinned():
    assert bmm_cost_model_digest() == EXPECTED["bmm_cost_model"]


def test_bmm_cost_model_wide_pinned():
    assert bmm_cost_model_wide_digest() == EXPECTED["bmm_cost_model_wide"]


def test_qsim_primitives_pinned():
    assert qsim_digest() == EXPECTED["qsim"]


def test_mm_f2_pinned():
    assert mm_f2_digest() == EXPECTED["mm_f2"]


def test_sketch_pinned():
    assert sketch_digest() == EXPECTED["sketch"]


def test_reductions_pinned():
    assert reductions_digest() == EXPECTED["reductions"]


def test_cli_outputs_pinned(tmp_path):
    assert cli_digest(tmp_path) == EXPECTED["cli"]


def test_cli_sweeps_pinned(tmp_path):
    assert sweep_digest(tmp_path) == EXPECTED["cli_sweeps"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        print(
            {
                "bmm_exact": bmm_exact_digest(),
                "bmm_cost_model": bmm_cost_model_digest(),
                "bmm_cost_model_wide": bmm_cost_model_wide_digest(),
                "qsim": qsim_digest(),
                "mm_f2": mm_f2_digest(),
                "sketch": sketch_digest(),
                "cli": cli_digest(tmp),
                "cli_sweeps": sweep_digest(tmp),
                "reductions": reductions_digest(),
            }
        )
