"""Distributed Grover-style subroutines with exact and cost-model execution.

Exact mode simulates the shuttled search register as an amplitude vector and
charges the ledger for every modeled message.  Cost-model mode computes the
correct answer classically, charges the analytical iteration count scaled by
the model constants, and can inject bounded error.  Either way a returned
witness is always verified against its defining predicate, so false
positives are impossible; only false negatives carry protocol error.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from joinlab.f2core import BitMatrix, BitVector, DimensionError
from joinlab.ledger import (
    A_TO_B,
    B_TO_A,
    BITS,
    DIRECTIONS,
    QUBITS,
    CommLedger,
    index_qubits,
    integer_bits,
    outcome_bits,
)

__all__ = [
    "EXACT",
    "COST_MODEL",
    "EXACT_DOMAIN_CAP",
    "CostModel",
    "GroverPlan",
    "BipartiteGraph",
    "SimulationCapError",
    "ProtocolError",
    "grover_search",
    "grover_success_curve",
    "grover_success_curves_batch",
    "disj",
    "disj_all",
    "graph_collision",
    "graph_collision_all",
    "instance_search",
]

EXACT = "exact"
COST_MODEL = "cost-model"

# statevector reach for exact simulation of a search over [n]
EXACT_DOMAIN_CAP = 1 << 20


class SimulationCapError(ValueError):
    """Domain too large for exact statevector simulation."""


class ProtocolError(RuntimeError):
    """A protocol run failed: it exhausted a retry budget or broke its promise."""


@dataclass(frozen=True)
class CostModel:
    """Execution mode plus the constants used when charging modeled costs.

    ``c_shuttle`` scales outer (instance search) iteration counts and
    ``c_round`` scales inner Grover iteration counts.  ``epsilon`` is the
    injected per-call failure probability in cost-model mode; it only ever
    suppresses a found witness (a fabricated one could not be verified).
    """

    mode: str = EXACT
    c_shuttle: float = 1.0
    c_round: float = 1.0
    epsilon: float = 0.0

    def __post_init__(self):
        if self.mode not in (EXACT, COST_MODEL):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.c_shuttle < 1.0 or self.c_round < 1.0:
            raise ValueError("cost constants must be >= 1")
        if not 0.0 <= self.epsilon < 0.1:
            raise ValueError("epsilon must lie in [0, 1/10)")

    @property
    def exact(self) -> bool:
        return self.mode == EXACT

    @classmethod
    def exact_mode(cls) -> "CostModel":
        return cls(EXACT)

    @classmethod
    def cost_model(cls, c_shuttle: float = 1.0, c_round: float = 1.0, epsilon: float = 0.0) -> "CostModel":
        return cls(COST_MODEL, c_shuttle, c_round, epsilon)


def grover_success_curve(support_size: int, marked_count: int, max_iterations: int) -> np.ndarray:
    """Exact simulated success probability after k = 0..max_iterations rounds.

    Runs the two reflections on the support-restricted amplitude vector; the
    closed form sin^2((2k+1) asin(sqrt(t/m))) is the independent check.
    """
    if not 1 <= marked_count <= support_size:
        raise ValueError("need 1 <= marked_count <= support_size")
    amps = np.full(support_size, 1.0 / math.sqrt(support_size))
    marked = np.zeros(support_size, dtype=bool)
    marked[:marked_count] = True
    probs = np.empty(max_iterations + 1)
    probs[0] = float(np.sum(amps[marked] ** 2))
    for k in range(1, max_iterations + 1):
        amps[marked] = -amps[marked]
        amps = 2.0 * amps.mean() - amps
        probs[k] = float(np.sum(amps[marked] ** 2))
    return probs


def grover_success_curves_batch(support_size: int, max_iterations: int) -> np.ndarray:
    """Success-probability curves for every marked count t = 1..support_size.

    Row ``t-1`` holds the exact simulated probabilities after k = 0..max
    rounds, computed with the same two reflections as
    :func:`grover_success_curve` but batched across t for speed.
    """
    m = support_size
    if m < 1:
        raise ValueError("support must be nonempty")
    amps = np.full((m, m), 1.0 / math.sqrt(m))
    mask = np.tril(np.ones((m, m), dtype=bool))
    out = np.empty((m, max_iterations + 1))
    out[:, 0] = np.sum(np.where(mask, amps, 0.0) ** 2, axis=1)
    for k in range(1, max_iterations + 1):
        amps = np.where(mask, -amps, amps)
        amps = 2.0 * amps.mean(axis=1, keepdims=True) - amps
        out[:, k] = np.sum(np.where(mask, amps, 0.0) ** 2, axis=1)
    return out


@dataclass(frozen=True)
class GroverPlan:
    """Iteration schedule for search with unknown marked count.

    Each stage draws (or fixes, when ``randomize`` is off) an iteration
    count bounded by the stage cap and repeats that ``reps_per_stage``
    times.  The default plan grows caps geometrically up to the classic
    ceil(pi/4 sqrt(m)) ceiling and then lingers there, which keeps the
    expected cost at the sqrt(m/(t+1)) scale while bounding the false
    negative rate for any marked count.
    """

    stage_caps: tuple[int, ...]
    reps_per_stage: int = 3
    randomize: bool = True

    def __post_init__(self):
        if not self.stage_caps:
            raise ValueError("plan needs at least one stage")
        if any(c < 0 for c in self.stage_caps):
            raise ValueError("stage caps must be nonnegative")
        if self.randomize and any(c < 1 for c in self.stage_caps):
            raise ValueError("randomized stage caps must be positive")
        if self.reps_per_stage < 1:
            raise ValueError("reps_per_stage must be positive")

    @classmethod
    def default(cls, support_size: int, extra_stages: int = 4) -> "GroverPlan":
        if support_size < 1:
            raise ValueError("support must be nonempty")
        hard = max(1, math.ceil(math.pi / 4.0 * math.sqrt(support_size)))
        caps = []
        s = 0
        while True:
            c = math.ceil(2.0 ** (s / 2.0))
            if c >= hard:
                break
            caps.append(c)
            s += 1
        caps.extend([hard] * extra_stages)
        return cls(tuple(caps))

    @classmethod
    def fixed(cls, iterations: int, reps: int = 1) -> "GroverPlan":
        return cls((iterations,), reps_per_stage=reps, randomize=False)

    def draws(self, rng: random.Random):
        for cap in self.stage_caps:
            for _ in range(self.reps_per_stage):
                yield rng.randrange(cap) if self.randomize else cap

    def max_total_iterations(self) -> int:
        caps = self.stage_caps
        per_stage = [(c - 1 if self.randomize else c) for c in caps]
        return self.reps_per_stage * sum(max(0, c) for c in per_stage)


def _sample_index(probs: np.ndarray, rng: random.Random) -> int:
    cum = np.cumsum(probs)
    total = float(cum[-1])
    r = rng.random() * total
    return int(min(np.searchsorted(cum, r, side="right"), len(probs) - 1))


def _charge_round_trips(ledger, iterations: int, per_round: int, phase: str, directions=DIRECTIONS):
    if iterations <= 0:
        return
    ledger.charge(directions[0], QUBITS, iterations * per_round, phase)
    ledger.charge(directions[1], QUBITS, iterations * per_round, phase)


def _amplify(n: int, domain, marked_mask: np.ndarray, plan, model, rng, charge, outer=False):
    """Measure amplified candidates from ``domain`` (a sequence over [n]) until one is marked.

    The core of :func:`grover_search` and :func:`instance_search`.
    ``marked_mask[i]`` says whether ``domain[i]`` is marked, and
    ``charge(iterations)`` pays for one measurement: the rounds before it
    plus the verification of its outcome.

    Exact mode runs the two reflections on the amplitude vector for each
    iteration count the plan draws and samples one candidate per draw.
    Cost-model mode makes a single measurement at the analytical count
    ceil(c * sqrt(|domain| / d)) for t marked entries: c = c_round and
    d = t + 1 for an inner search, c = c_shuttle and d = max(t, 1) for the
    ``outer`` instance search.  The witness is a seeded uniform pick among
    the marked entries, suppressed with probability epsilon.
    """
    m = len(domain)
    if model.exact:
        if n > EXACT_DOMAIN_CAP:
            raise SimulationCapError(f"exact mode supports n <= {EXACT_DOMAIN_CAP}, got {n}")
        if plan is None:
            plan = GroverPlan.default(m)
        for iterations in plan.draws(rng):
            amps = np.full(m, 1.0 / math.sqrt(m))
            for _ in range(iterations):
                amps[marked_mask] = -amps[marked_mask]
                amps = 2.0 * amps.mean() - amps
            candidate = _sample_index(amps * amps, rng)
            charge(iterations)
            if marked_mask[candidate]:
                return domain[candidate]
        return None

    hits = np.flatnonzero(marked_mask).tolist()
    t = len(hits)
    c, d = (model.c_shuttle, max(t, 1)) if outer else (model.c_round, t + 1)
    iterations = math.ceil(c * math.sqrt(m / d))
    charge(iterations)
    if t == 0:
        return None
    witness = domain[hits[rng.randrange(t)]]
    if model.epsilon and rng.random() < model.epsilon:
        return None
    return witness


def grover_search(
    n: int,
    support,
    marked,
    plan: GroverPlan | None,
    ledger: CommLedger,
    model: CostModel,
    rng: random.Random,
    phase: str = "grover-shuttle",
    directions=(A_TO_B, B_TO_A),
    stats: dict | None = None,
):
    """Search ``support`` (subset of [n]) for an index satisfying ``marked``.

    Returns a marked index with probability >= 2/3 when one exists, else
    None.  Every candidate measurement is verified against the predicate
    (one extra charged round trip), so a returned index is always marked.
    Each Grover round costs one register round trip of 2*ceil(log2 n)
    qubits under the ledger convention.  When ``stats`` is given, the
    realized iteration draws and measurement count are appended to it so
    tests can recompute the expected charges independently.
    """
    sup = sorted(support)
    if not sup:
        raise ValueError("support must be nonempty")
    if any(not 0 <= i < n for i in sup):
        raise ValueError("support outside domain")
    width = index_qubits(n)
    verify_phase = phase + "-verify"

    def charge(iterations: int):
        _charge_round_trips(ledger, iterations, width, phase, directions)
        # one extra round trip: shuttle the candidate register over, announce back
        ledger.charge(directions[0], QUBITS, width, verify_phase)
        ledger.charge(directions[1], BITS, outcome_bits(n), verify_phase)
        if stats is not None:
            stats.setdefault("iterations", []).append(iterations)
            stats["measurements"] = stats.get("measurements", 0) + 1

    marked_mask = np.fromiter((bool(marked(i)) for i in sup), dtype=bool, count=len(sup))
    return _amplify(n, sup, marked_mask, plan, model, rng, charge)


def disj(
    a: BitVector,
    b: BitVector,
    ledger: CommLedger,
    model: CostModel,
    rng: random.Random,
    plan: GroverPlan | None = None,
    stats: dict | None = None,
):
    """Set disjointness with witness: None if a,b look disjoint, else i in a&b.

    Opens with the weight handshake (each side announces its weight), then
    the smaller-weight side drives a distributed search over its own set
    with the other side's membership as the marking predicate.
    """
    if a.n != b.n:
        raise DimensionError(f"length mismatch: {a.n} vs {b.n}")
    n = a.n
    ledger.charge(A_TO_B, BITS, integer_bits(n), "handshake")
    ledger.charge(B_TO_A, BITS, integer_bits(n), "handshake")
    wa, wb = a.weight(), b.weight()
    if min(wa, wb) == 0:
        return None
    if wa <= wb:
        support = a.indices()
        directions = (A_TO_B, B_TO_A)
    else:
        support = b.indices()
        directions = (B_TO_A, A_TO_B)
    # a support element is in the other set iff it is in the intersection;
    # one AND here saves a shift of the whole other word per probe
    common = set((a & b).indices())
    return grover_search(
        n,
        support,
        common.__contains__,
        plan,
        ledger,
        model,
        rng,
        phase="disj",
        directions=directions,
        stats=stats,
    )


def _consecutive_none_budget(bound: int) -> int:
    """Repetitions of a 2/3-correct call so a false 'empty' survives a union bound."""
    return max(1, math.ceil(math.log(3.0 * (bound + 1)) / math.log(3.0)))


def disj_all(
    a: BitVector,
    b: BitVector,
    ledger: CommLedger,
    model: CostModel,
    rng: random.Random,
) -> frozenset[int]:
    """Find the whole intersection by stripping found elements and repeating.

    Each round re-runs the witness search until either a new element shows
    up or enough consecutive misses accumulate to rule one out at the union
    bound over all rounds.
    """
    if a.n != b.n:
        raise DimensionError(f"length mismatch: {a.n} vs {b.n}")
    reps = _consecutive_none_budget(min(a.weight(), b.weight()))
    found: set[int] = set()
    cur_a, cur_b = a, b
    while True:
        hit = None
        for _ in range(reps):
            hit = disj(cur_a, cur_b, ledger, model, rng)
            if hit is not None:
                break
        if hit is None:
            return frozenset(found)
        found.add(hit)
        cur_a = cur_a.with_bit(hit, 0)
        cur_b = cur_b.with_bit(hit, 0)


class BipartiteGraph:
    """Bipartite edge set on [n_left] x [n_right], packed one row per left vertex."""

    __slots__ = ("adj",)

    def __init__(self, adjacency: BitMatrix):
        self.adj = adjacency

    @property
    def n_left(self) -> int:
        return self.adj.rows

    @property
    def n_right(self) -> int:
        return self.adj.cols

    @classmethod
    def complete(cls, n_left: int, n_right: int) -> "BipartiteGraph":
        return cls(BitMatrix.ones(n_left, n_right))

    @classmethod
    def from_edges(cls, n_left: int, n_right: int, edges) -> "BipartiteGraph":
        return cls(BitMatrix.zeros(n_left, n_right).with_ones(edges))

    @classmethod
    def complement_of(cls, mat: BitMatrix) -> "BipartiteGraph":
        full = (1 << mat.cols) - 1
        return cls(BitMatrix(mat.rows, mat.cols, [full ^ r for r in mat.data]))

    @classmethod
    def random(cls, n_left: int, n_right: int, density: float, rng: random.Random) -> "BipartiteGraph":
        return cls(BitMatrix.random(n_left, n_right, density, rng))

    def has_edge(self, i: int, j: int) -> bool:
        return self.adj.get(i, j) == 1

    def left_cover(self, f_b: BitVector) -> BitVector:
        """Left vertices with at least one neighbor inside f_b."""
        if f_b.n != self.n_right:
            raise DimensionError("right-side vector length mismatch")
        acc = 0
        for i, row in enumerate(self.adj.data):
            if row & f_b.bits:
                acc |= 1 << i
        return BitVector(self.n_left, acc)

    def right_cover(self, f_a: BitVector) -> BitVector:
        """Right vertices with at least one neighbor inside f_a."""
        if f_a.n != self.n_left:
            raise DimensionError("left-side vector length mismatch")
        acc = 0
        for i in f_a.indices():
            acc |= self.adj.data[i]
        return BitVector(self.n_right, acc)

    def without_edges(self, edges) -> "BipartiteGraph":
        data = list(self.adj.data)
        for i, j in edges:
            data[i] &= ~(1 << j)
        return BipartiteGraph(BitMatrix(self.n_left, self.n_right, data))


def graph_collision(
    graph: BipartiteGraph,
    f_a: BitVector,
    f_b: BitVector,
    ledger: CommLedger,
    model: CostModel,
    rng: random.Random,
):
    """Find an edge (i, j) of the graph with f_a(i) = f_b(j) = 1, or None.

    The smaller-weight side keeps its own set; the other side maps its set
    through the graph neighborhoods, reducing the question to disjointness.
    The winning side then scans its own neighborhood to report the partner
    endpoint, charged as one outcome announcement.
    """
    if f_a.n != graph.n_left or f_b.n != graph.n_right:
        raise DimensionError("vector lengths do not match the graph sides")
    if f_a.weight() == 0 or f_b.weight() == 0:
        # handshake still happens before anyone can conclude emptiness
        ledger.charge(A_TO_B, BITS, integer_bits(f_a.n), "handshake")
        ledger.charge(B_TO_A, BITS, integer_bits(f_b.n), "handshake")
        return None
    if f_a.weight() <= f_b.weight():
        left_candidates = graph.left_cover(f_b)
        witness = disj(f_a, left_candidates, ledger, model, rng)
        if witness is None:
            return None
        partner_pool = (graph.adj.row(witness) & f_b).indices()
        partner = partner_pool[rng.randrange(len(partner_pool))]
        ledger.charge(B_TO_A, BITS, outcome_bits(graph.n_right), "edge-report")
        return (witness, partner)
    right_candidates = graph.right_cover(f_a)
    witness = disj(right_candidates, f_b, ledger, model, rng)
    if witness is None:
        return None
    partner_pool = [i for i in f_a.indices() if graph.has_edge(i, witness)]
    partner = partner_pool[rng.randrange(len(partner_pool))]
    ledger.charge(A_TO_B, BITS, outcome_bits(graph.n_left), "edge-report")
    return (partner, witness)


def graph_collision_all(
    graph: BipartiteGraph,
    f_a: BitVector,
    f_b: BitVector,
    ledger: CommLedger,
    model: CostModel,
    rng: random.Random,
) -> frozenset[tuple[int, int]]:
    """Collect every colliding edge by excluding found edges and repeating."""
    if f_a.n != graph.n_left or f_b.n != graph.n_right:
        raise DimensionError("vector lengths do not match the graph sides")
    bound = f_a.weight() * f_b.weight()
    reps = _consecutive_none_budget(bound)
    found: set[tuple[int, int]] = set()
    current = graph
    while True:
        edge = None
        for _ in range(reps):
            edge = graph_collision(current, f_a, f_b, ledger, model, rng)
            if edge is not None:
                break
        if edge is None:
            return frozenset(found)
        found.add(edge)
        current = current.without_edges([edge])


def instance_search(
    answers,
    ledger: CommLedger,
    model: CostModel,
    rng: random.Random,
    inner_cost_qubits: int = 0,
    phase: str = "instance-shuttle",
    inner_phase: str = "inner-protocol",
    plan: GroverPlan | None = None,
):
    """Search a list of communication instances for one whose answer is 1.

    ``answers[i]`` is the (deterministically computable) inner answer for
    instance i; exact mode treats it as a perfect phase oracle.  Each
    amplitude-amplification round charges the index register round trip
    plus twice the inner protocol's cost (compute and uncompute), with the
    inner cost multiplied by the repetition factor that boosts a bounded
    error inner protocol for coherent nesting.
    """
    marked_mask = np.array(list(answers), dtype=bool)
    big_n = len(marked_mask)
    if big_n == 0:
        raise ValueError("instance list must be nonempty")
    if inner_cost_qubits < 0:
        raise ValueError("inner cost must be nonnegative")
    cap = max(1, math.ceil(math.pi / 4.0 * math.sqrt(big_n)))
    boost = max(1, math.ceil(math.log2(100.0 * cap)))
    inner_per_call = boost * inner_cost_qubits
    verify_phase = phase + "-verify"

    def charge(iterations: int):
        _charge_round_trips(ledger, iterations, index_qubits(big_n), phase)
        if inner_per_call:
            # compute on the way out, uncompute on the way back
            _charge_round_trips(ledger, iterations, inner_per_call, inner_phase)
            ledger.charge(A_TO_B, QUBITS, inner_per_call, verify_phase)
        ledger.charge(B_TO_A, BITS, outcome_bits(big_n), verify_phase)

    return _amplify(big_n, range(big_n), marked_mask, plan, model, rng, charge, outer=True)
