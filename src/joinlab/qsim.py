"""Distributed Grover-style subroutines with exact and cost-model execution.

Every search samples through :func:`_amplify` and charges through
:func:`_search`.  Exact mode samples the shuttled search register from its
exact state (one amplitude on marked, one on unmarked entries) and charges
the ledger for every modeled message.  Cost-model mode computes the correct
answer classically and charges the analytical iteration count; it has no
``instance_search``, whose outer search the ``bmm`` replay prices itself.
Either way a returned witness is always verified against its defining
predicate, so false positives are impossible; only false negatives carry
protocol error, and only exact mode samples it.
"""

from __future__ import annotations

import bisect
import functools
import math
import random
from dataclasses import dataclass
from operator import and_, lt

from joinlab.f2core import BitMatrix, BitVector, DimensionError, _bernoulli, _fold, _iter_bits
from joinlab.ledger import (
    A_TO_B,
    B_TO_A,
    BITS,
    QUBITS,
    CommLedger,
    index_qubits,
    integer_bits,
    outcome_bits,
)

EXACT = "exact"
COST_MODEL = "cost-model"


class ProtocolError(RuntimeError):
    """A protocol run failed: it exhausted a retry budget or broke its promise."""


@dataclass(frozen=True)
class CostModel:
    """Execution mode: sample the exact search state, or charge the analytical counts."""

    mode: str = EXACT

    def __post_init__(self):
        if self.mode not in (EXACT, COST_MODEL):
            raise ValueError(f"unknown mode {self.mode!r}")

    @property
    def exact(self) -> bool:
        return self.mode == EXACT

    @classmethod
    def exact_mode(cls) -> "CostModel":
        return cls(EXACT)

    @classmethod
    def cost_model(cls) -> "CostModel":
        return cls(COST_MODEL)


def _ceiling(n: int) -> int:
    """The least h >= 1 with 4 h^2 (n - 1) >= n^2, in integers: h^2 >= ceil(n^2 / (4 (n - 1)))."""
    return 1 if n == 1 else math.isqrt(-(-n * n // (4 * (n - 1))) - 1) + 1


@dataclass(frozen=True)
class GroverPlan:
    """Iteration schedule for search with unknown marked count, and the law its measurements follow.

    ``caps`` holds one int cap per measurement, in draw order: each
    measurement draws ``randrange(cap)`` iterations, or takes the cap itself
    when ``randomize`` is off.  :func:`_amplify` makes the draws and samples
    each measurement from :attr:`probabilities`.  With ``failure`` None a
    round is a Grover iterate, whose law is :func:`_entry_probabilities`
    (see :meth:`default`).  With ``failure`` = delta^2 a round is an iterate
    of the fixed-point search of :meth:`fixed_point`, whose law is
    :func:`_fixed_point_probabilities`.
    """

    caps: tuple[int, ...]
    randomize: bool = True
    failure: float | None = None

    def __post_init__(self):
        if not self.caps:
            raise ValueError("plan needs at least one measurement")
        for c in self.caps:
            if not isinstance(c, int):
                raise ValueError(f"caps must be integers, got {c!r}")
        if any(c < 0 for c in self.caps):
            raise ValueError("caps must be nonnegative")
        if self.randomize and any(c < 1 for c in self.caps):
            raise ValueError("randomized caps must be positive")
        if self.failure is not None and not 0 < self.failure < 1:
            raise ValueError(f"failure must lie in (0, 1), got {self.failure!r}")

    @classmethod
    @functools.lru_cache(maxsize=1024)  # plans are frozen, so callers can share one
    def default(cls, support_size: int) -> "GroverPlan":
        """The distinct growth caps below the ceiling, then four ceiling caps, each cap three times.

        So the plan ends in 12 measurements at the ceiling h over N =
        ``support_size`` entries, the least integer with 4 h^2 (N - 1) >= N^2
        (h = 1 at N = 1), and one search under it misses with probability at
        most (3/4)^12 for every N and marked count t >= 1.
        With t = N every measurement hits.  For 1 <= t <= N - 1,
        sin^2 theta = t/N gives sin 2 theta = 2 sqrt(t (N - t)) / N
        >= 2 sqrt(N - 1) / N, so h >= N / (2 sqrt(N - 1)) >= 1 / sin 2 theta.
        A measurement after an iteration count drawn uniformly from [0, h)
        with h >= 1 / sin 2 theta hits with probability at least 1/4 (Boyer,
        Brassard, Hoyer, Tapp 1998, Lemma 2), so each ceiling measurement
        misses with probability at most 3/4, independently of the others.
        """
        if support_size < 1:
            raise ValueError("support must be nonempty")
        hard = _ceiling(support_size)
        growth, s = [], 0
        while (cap := math.ceil(2.0 ** (s / 2.0))) < hard:
            if cap not in growth:
                growth.append(cap)
            s += 1
        return cls(tuple(cap for cap in growth + [hard] * 4 for _ in range(3)))

    @classmethod
    @functools.lru_cache(maxsize=1024)
    def growth(cls, support_size: int) -> "GroverPlan | None":
        """The default plan without its 12 ceiling caps: its growth caps, each three times, or None
        when it has no growth caps (N = 1 and 2)."""
        caps = cls.default(support_size).caps[:-12]
        return cls(caps) if caps else None

    @classmethod
    @functools.lru_cache(maxsize=1024)
    def fixed_point(cls, support_size: int, failure: float) -> "GroverPlan":
        """One unrandomized measurement after l rounds of the fixed-point search of Yoder, Low and
        Chuang (*Fixed-point quantum search with an optimal number of queries*, PRL 113, 2014).

        L = 2l + 1 is the least odd integer with 1 - gamma_L^2 <= 1/N over N =
        ``support_size`` entries, where gamma_L = 1 / cosh(arccosh(1/delta) / L)
        and delta^2 = ``failure``.  Round j applies the oracle phase beta_j and
        then the phase alpha_j about the start state, with alpha_j =
        -beta_(l-j+1) = 2 arccot(tan(2 pi j / L) sqrt(1 - gamma_L^2)), which
        leaves 1 - delta^2 T_L(sqrt(1 - t/N) / gamma_L)^2 on t marked entries
        (T_L the Chebyshev polynomial).  For t >= 1 the argument is at most
        sqrt(1 - 1/N) / gamma_L <= 1, where |T_L| <= 1, so the measurement
        misses with probability at most ``failure``, for every t at once.
        """
        if support_size < 1:
            raise ValueError("support must be nonempty")
        if not 0 < failure < 1:
            raise ValueError(f"failure must lie in (0, 1), got {failure!r}")
        length = 1
        while 1 - _fixed_point_gamma(length, failure) ** 2 > 1 / support_size:
            length += 2
        return cls((length // 2,), randomize=False, failure=failure)

    @classmethod
    def certified(cls, support_size: int, failure: float) -> tuple["GroverPlan", ...]:
        """The passes of a search that stops at its first hit: :meth:`growth`, if any, then :meth:`fixed_point`
        at ``failure``, so it ends empty-handed with probability at most ``failure`` when something is marked."""
        growth, certificate = cls.growth(support_size), cls.fixed_point(support_size, failure)
        return (certificate,) if growth is None else (growth, certificate)

    @functools.cached_property
    def _widths(self) -> tuple[tuple[int, int], ...]:
        return tuple((cap, cap.bit_length()) for cap in self.caps)

    @functools.cached_property
    def probabilities(self):
        """The law ``(m, t, iterations) -> (marked, unmarked)`` of one measurement: the probability of
        each of t marked and of each other of m entries after that many rounds."""
        if self.failure is None:
            return _entry_probabilities
        return functools.partial(_fixed_point_probabilities, failure=self.failure)


def _entry_probabilities(m: int, t: int, iterations: int) -> tuple[float, float]:
    """Probability of each of t marked and each other of m entries after k = ``iterations`` rounds:
    sin^2, cos^2 of (2k+1) asin(sqrt(t/m)), spread evenly (Boyer, Brassard, Hoyer, Tapp 1998)."""
    angle = (2 * iterations + 1) * math.asin(math.sqrt(t / m))
    marked = math.sin(angle) ** 2 / t if t else 0.0
    unmarked = math.cos(angle) ** 2 / (m - t) if t < m else 0.0
    return marked, unmarked


def _fixed_point_gamma(length: int, failure: float) -> float:
    """gamma_L = 1 / T_(1/L)(1/delta) = 1 / cosh(arccosh(1/delta) / L) of a fixed-point search, delta^2 = failure."""
    return 1 / math.cosh(math.acosh(1 / math.sqrt(failure)) / length)


def _fixed_point_probabilities(m: int, t: int, iterations: int, failure: float) -> tuple[float, float]:
    """Probability of each of t marked and each other of m entries after l = ``iterations`` rounds of
    the fixed-point search (see :meth:`GroverPlan.fixed_point`): marked mass
    1 - delta^2 T_L(sqrt(1 - t/m) / gamma_L)^2 with L = 2l + 1 and delta^2 = ``failure``, spread evenly.
    It is 0 at t = 0, where T_L(1/gamma_L) = 1/delta, and 1 at t = m, where T_L(0) = 0."""
    if not t:
        return 0.0, 1 / m
    length = 2 * iterations + 1
    x = math.sqrt(1 - t / m) / _fixed_point_gamma(length, failure)
    chebyshev = math.cos(length * math.acos(x)) if x <= 1 else math.cosh(length * math.acosh(x))
    hit = 1 - failure * chebyshev * chebyshev
    return hit / t, (1 - hit) / (m - t) if t < m else 0.0


def _amplify(domain, hits: list, plan, model, rng):
    """Measure amplified candidates from ``domain`` (a sequence of indices) until one is marked.

    The sampling core of every search here.  ``hits`` lists the positions
    in ``domain`` of its marked entries, ascending, so ``domain[hits[0]]``
    is the first marked entry.  Returns ``(witness, draws)``: the marked
    entry found, or None, and a fresh list of each measurement's iteration
    count in draw order, which :func:`_search` hands to
    :meth:`CommLedger._log_search` with its message templates.

    Exact mode measures once per cap of the plan, as :class:`GroverPlan`
    says, then takes one ``rng.random()``, which with something marked
    picks a candidate by the plan's law, tested on the hits alone.
    Cost-model mode makes a single measurement at the analytical count
    ceil(sqrt(|domain| / (t + 1))) for t marked entries.  The witness is a
    seeded uniform pick among the marked entries.
    """
    m, t = len(domain), len(hits)
    if model.exact:
        if plan is None:
            plan = GroverPlan.default(m)
        getrandbits, random_, randomize, drawn = rng.getrandbits, rng.random, plan.randomize, []
        probabilities = plan.probabilities
        # randrange(cap) is getrandbits(cap.bit_length()) redrawn while the result is >= cap: the
        # same values and generator state, without randrange's two Python frames per draw.
        # The mass through entry i, pu * (i + 1 - c) + pm * c with c hits up to i, sums two
        # non-decreasing rounded products, so masses are sorted.  Through the last entry it is the
        # total, which r (the total times a float below 1) never reaches: no fallback is needed.
        for cap, width in plan._widths:
            iterations = cap
            if randomize:
                iterations = getrandbits(width)
                while iterations >= cap:
                    iterations = getrandbits(width)
            r = random_()
            drawn.append(iterations)
            if t:
                pm, pu = probabilities(m, t, iterations)
                r *= pu * (m - t) + pm * t
                # the first hit whose mass exceeds r is the candidate if the mass before it does not
                j = bisect.bisect_right(range(t), r, key=lambda j: pu * (hits[j] - j) + pm * (j + 1))
                if j < t and pu * (hits[j] - j) + pm * j <= r:
                    return domain[hits[j]], drawn
        return None, drawn

    draws = [math.ceil(math.sqrt(m / (t + 1)))]
    if t == 0:
        return None, draws
    return domain[hits[rng.randrange(t)]], draws


@functools.lru_cache(maxsize=1024)  # tuples, so every search with these arguments can share them
def _search_messages(n: int, phase: str, out: str, back: str) -> tuple[tuple, tuple]:
    """The per-round and verify templates of a search over [n]: a register round trip per Grover
    round, and per measurement the candidate shuttled over and the verdict announced back."""
    width, verify = index_qubits(n), phase + "-verify"
    per_round = ((out, QUBITS, width, phase), (back, QUBITS, width, phase))
    return per_round, ((out, QUBITS, width, verify), (back, BITS, outcome_bits(n), verify))


def _search(domain, hits: list, messages, model: CostModel, ledger: CommLedger, rng: random.Random, plan=None):
    """Sample with :func:`_amplify`, charge the draws to ``messages`` and return ``(witness, draws)``."""
    witness, draws = _amplify(domain, hits, plan, model, rng)
    ledger._log_search(draws, *messages)
    return witness, draws


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
    """Search ``support`` (distinct entries of [n]) for an index satisfying ``marked``.

    Returns a marked index with probability >= 1 - (3/4)^12 under the
    default plan (see :meth:`GroverPlan.default`) when one exists, else
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
    if sup[0] < 0 or sup[-1] >= n:
        raise ValueError("support outside domain")
    if not all(map(lt, sup, sup[1:])):
        raise ValueError("support repeats an entry")
    hits = [p for p, i in enumerate(sup) if marked(i)]
    witness, draws = _search(sup, hits, _search_messages(n, phase, *directions), model, ledger, rng, plan)
    if stats is not None:
        stats.setdefault("iterations", []).extend(draws)
        stats["measurements"] = stats.get("measurements", 0) + len(draws)
    return witness


def _disj_search(a: BitVector, b: BitVector) -> tuple | None:
    """The ``(support, hits, (out, back))`` of :func:`disj`'s search, or None when a or b is empty: the
    smaller-weight side searches its own set, sending ``out``, marked where the other set has it too."""
    if a.n != b.n:
        raise DimensionError(f"length mismatch: {a.n} vs {b.n}")
    wa, wb = a.weight(), b.weight()
    if min(wa, wb) == 0:
        return None
    own, (out, back) = (a, (A_TO_B, B_TO_A)) if wa <= wb else (b, (B_TO_A, A_TO_B))
    support = own.indices()
    # the marked entries are the intersection, which lies inside the support
    hits = [bisect.bisect_left(support, i) for i in _iter_bits(a.bits & b.bits)]
    return support, hits, (out, back)


def disj(
    a: BitVector,
    b: BitVector,
    ledger: CommLedger,
    model: CostModel,
    rng: random.Random,
    plan: GroverPlan | None = None,
):
    """Set disjointness with witness: None if a,b look disjoint, else i in a&b.

    Opens with the weight handshake (each side announces its weight), then
    the smaller-weight side drives a distributed search over its own set
    with the other side's membership as the marking predicate.
    """
    search = _disj_search(a, b)
    ledger._log(_handshake(a.n, a.n))
    if search is None:
        return None
    support, hits, directions = search
    return _search(support, hits, _search_messages(a.n, "disj", *directions), model, ledger, rng, plan)[0]


@functools.lru_cache(maxsize=1024)  # tuples, so every handshake over these domains can share them
def _handshake(n_a: int, n_b: int) -> tuple[tuple, tuple]:
    """Each side announces its weight: A an integer in [0, n_a], B one in [0, n_b]."""
    return (A_TO_B, BITS, integer_bits(n_a), "handshake"), (B_TO_A, BITS, integer_bits(n_b), "handshake")


class BipartiteGraph:
    """Bipartite edge set on [n_left] x [n_right], kept as its missing edges.

    ``missing_rows[i]`` has bit j set, and ``missing_cols[j]`` bit i, when
    (i, j) is not an edge.  ``bmm`` searches the complement of its output,
    so there the two lists are the output in both orientations: a cover is
    one AND per query vertex and removing an edge sets two bits.
    """

    __slots__ = ("n_left", "n_right", "missing_rows", "missing_cols")

    def __init__(self, n_left: int, n_right: int):
        """Every edge present: the collision graph of ``bmm`` before it finds any output."""
        self.n_left, self.n_right = n_left, n_right
        self.missing_rows, self.missing_cols = [0] * n_left, [0] * n_right

    @classmethod
    def random(cls, n_left: int, n_right: int, density: float, rng: random.Random) -> "BipartiteGraph":
        """Each edge present with probability ``density``: the draw of ``BitMatrix.random``, both orientations.

        The complemented draw and its numpy transpose pack into the two lists
        directly, so a dense graph never goes through the scatter transpose.
        """
        missing = ~_bernoulli(n_left, n_right, density, rng)
        graph = cls(n_left, n_right)
        graph.missing_rows[:] = BitMatrix.from_numpy(missing).data
        graph.missing_cols[:] = BitMatrix.from_numpy(missing.T).data
        return graph

    def has_edge(self, i: int, j: int) -> bool:
        if not (0 <= i < self.n_left and 0 <= j < self.n_right):
            raise IndexError((i, j))
        return not (self.missing_rows[i] >> j) & 1

    def remove_edge(self, i: int, j: int):
        if not (0 <= i < self.n_left and 0 <= j < self.n_right):
            raise IndexError((i, j))
        self.missing_rows[i] |= 1 << j
        self.missing_cols[j] |= 1 << i

    def left_cover(self, f_b: BitVector) -> BitVector:
        """Left vertices with at least one neighbor inside f_b."""
        if f_b.n != self.n_right:
            raise DimensionError("right-side vector length mismatch")
        return _cover(self.missing_cols, f_b, self.n_left)

    def right_cover(self, f_a: BitVector) -> BitVector:
        """Right vertices with at least one neighbor inside f_a."""
        if f_a.n != self.n_left:
            raise DimensionError("left-side vector length mismatch")
        return _cover(self.missing_rows, f_a, self.n_right)


def _cover(missing: list, query: BitVector, n: int) -> BitVector:
    """Vertices on the other side (of n) with a neighbor in ``query``: the rest miss all of it."""
    full = (1 << n) - 1
    return BitVector(n, full ^ _fold(and_, missing, query.bits, full))


@functools.lru_cache(maxsize=1024)  # tuples, so every graph state with these arguments can share them
def _disj_passes(n: int, size: int, failure: float | None, out: str, back: str) -> tuple[tuple, ...]:
    """The ``(plan, messages)`` passes of a graph collision attempt over ``size`` entries of [n]: the default
    plan with ``failure`` None, else :meth:`GroverPlan.certified`'s, the certificate's under ``disj-certify``."""
    plans = (None,) if failure is None else GroverPlan.certified(size, failure)
    return tuple((plan, _search_messages(n, "disj-certify" if plan and plan.failure else "disj", out, back))
                 for plan in plans)


class _Collision:
    """Graph collision of f_a and f_b, its disjointness question built once per graph state.

    The smaller-weight side keeps its own set and the other side's set goes
    through ``left_cover`` or ``right_cover``.  Removing a found edge can
    change only the witness's cover bit, so :meth:`remove` rebuilds only then.
    """

    __slots__ = ("graph", "model", "failure", "own_is_left", "own", "other", "cover", "missing", "reporter",
                 "sizes", "search", "passes")

    def __init__(self, graph: BipartiteGraph, f_a: BitVector, f_b: BitVector, model: CostModel, failure=None):
        if f_a.n != graph.n_left or f_b.n != graph.n_right:
            raise DimensionError("vector lengths do not match the graph sides")
        self.graph, self.model, self.failure = graph, model, failure if model.exact else None
        self.own_is_left = f_a.weight() <= f_b.weight()
        # missing[witness] holds the witness's non-neighbors; reporter is the side that names the partner
        if self.own_is_left:
            parts = f_a, f_b, graph.left_cover, graph.missing_rows, B_TO_A
        else:
            parts = f_b, f_a, graph.right_cover, graph.missing_cols, A_TO_B
        self.own, self.other, self.cover, self.missing, self.reporter = parts
        # disj shakes hands over the kept side's domain; with a side empty, before anyone can
        # conclude emptiness, each side announces its weight over its own
        self.sizes, self.passes = (f_a.n, f_b.n), ()
        if f_a.bits and f_b.bits:
            self.sizes = (self.own.n, self.own.n)
            self.rebuild()

    def rebuild(self):
        """Ask the disjointness question of this graph state; with a side of it empty, no pass is left."""
        cover = self.cover(self.other)
        left, right = (self.own, cover) if self.own_is_left else (cover, self.own)
        search, self.passes = _disj_search(left, right), ()
        if search is not None:
            support, hits, directions = search
            self.search = support, hits
            self.passes = _disj_passes(self.own.n, len(support), self.failure, *directions)

    def attempt(self, ledger: CommLedger, rng: random.Random):
        """The handshake, the passes up to the first witness, then the partner pick and its report."""
        ledger._log(_handshake(*self.sizes))
        for plan, messages in self.passes:
            witness = _search(*self.search, messages, self.model, ledger, rng, plan)[0]
            if witness is not None:
                break
        else:
            return None
        partner_pool = list(_iter_bits(self.other.bits & ~self.missing[witness]))
        partner = partner_pool[rng.randrange(len(partner_pool))]
        ledger.charge(self.reporter, BITS, outcome_bits(self.other.n), "edge-report")
        return (witness, partner) if self.own_is_left else (partner, witness)

    def remove(self, i: int, j: int):
        """Remove a found edge; the witness stays covered while it has a neighbor in the other set."""
        self.graph.remove_edge(i, j)
        if not self.other.bits & ~self.missing[i if self.own_is_left else j]:
            self.rebuild()


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
    through the graph neighborhoods, reducing the question to disjointness
    under the default plan.  The winning side then scans its own
    neighborhood to report the partner endpoint, charged as one outcome.
    """
    return _Collision(graph, f_a, f_b, model).attempt(ledger, rng)


def graph_collision_all(
    graph: BipartiteGraph,
    f_a: BitVector,
    f_b: BitVector,
    ledger: CommLedger,
    model: CostModel,
    rng: random.Random,
) -> frozenset[tuple[int, int]]:
    """Collect every colliding edge, removing each from ``graph``, until an attempt finds none.

    An attempt is one :func:`graph_collision`, its question built once per
    graph state.  In exact mode it searches the s entries of the question's
    support in the passes of ``GroverPlan.certified(s, 1/(3 (|f_a| |f_b| +
    1)))``, so it misses a remaining edge with probability at most that
    target; in cost-model mode it is one analytical search.  Mismatched
    vector lengths raise ``DimensionError`` before any charge, draw or removal.
    """
    state = _Collision(graph, f_a, f_b, model, 1 / (3 * (f_a.weight() * f_b.weight() + 1)))
    found: set[tuple[int, int]] = set()
    while (edge := state.attempt(ledger, rng)) is not None:
        found.add(edge)
        state.remove(*edge)
    return frozenset(found)


@functools.lru_cache(maxsize=1024)  # tuples, so every search with these arguments can share them
def _instance_messages(big_n: int, inner_cost_qubits: int, plan: GroverPlan | None = None) -> tuple[tuple, tuple]:
    """The per-round and verify templates of :func:`instance_search` over big_n instances under ``plan``
    (the default plan when None), with the boosts it states and, for a fixed-point plan, its ``certify`` phases."""
    if plan is None:
        plan = GroverPlan.default(big_n)
    certificate = plan.failure is not None
    shuttle, inner = ("certify", "certify") if certificate else ("instance-shuttle", "inner-protocol")
    inner_per_round = math.ceil(math.log2(100.0 * max(1, *plan.caps))) * inner_cost_qubits
    inner_per_verify = inner_per_round if certificate else math.ceil(math.log2(100.0)) * inner_cost_qubits
    # a search's index round trip and verdict; verification runs the inner protocol once in place of
    # shuttling the index
    per_round, (_, verdict) = _search_messages(big_n, shuttle, A_TO_B, B_TO_A)
    verify = (verdict,)
    if inner_cost_qubits:
        # compute on the way out, uncompute on the way back
        per_round += ((A_TO_B, QUBITS, inner_per_round, inner), (B_TO_A, QUBITS, inner_per_round, inner))
        verify = ((A_TO_B, QUBITS, inner_per_verify, shuttle + "-verify"), verdict)
    return per_round, verify


def instance_search(
    instances,
    answers: list,
    ledger: CommLedger,
    rng: random.Random,
    inner_cost_qubits: int = 0,
    plan: GroverPlan | None = None,
):
    """Search a sequence of communication instances for one whose answer is 1, in exact mode.

    ``answers`` lists, strictly ascending, the positions in ``instances``
    whose (deterministically computable) inner answer is 1; the search
    treats them as a perfect phase oracle.  Returns the instance found, or
    None.  Positions outside ``instances``, or out of order or repeated,
    raise ``ValueError`` before any draw or charge.  The ``bmm`` cost-model
    replay prices this search itself, so it has no cost-model mode.  It
    measures under ``plan``, or ``GroverPlan.default(len(instances))``.
    Each round charges the index register round trip plus the inner cost
    twice (compute and uncompute), and each measurement its verdict plus
    one inner call.  A bounded-error inner protocol nested coherently is
    boosted ceil(log2(100 r)) times, r the coherent run the call is part
    of: the plan's largest cap (at least 1) for a round, and 1 for a
    verification, which runs outside any run.  A fixed-point plan
    (:meth:`GroverPlan.fixed_point`) runs its l rounds in one go and its
    miss ends the run, so its verification keeps the rounds' boost; it is
    charged under ``certify`` and ``certify-verify``.
    """
    big_n = len(instances)
    if big_n == 0:
        raise ValueError("instance list must be nonempty")
    if answers and (answers[0] < 0 or answers[-1] >= big_n or not all(map(lt, answers, answers[1:]))):
        raise ValueError(f"answers must be positions in [0, {big_n}), ascending")
    if inner_cost_qubits < 0:
        raise ValueError("inner cost must be nonnegative")
    messages = _instance_messages(big_n, inner_cost_qubits, plan)
    return _search(instances, answers, messages, CostModel.exact_mode(), ledger, rng, plan)[0]
