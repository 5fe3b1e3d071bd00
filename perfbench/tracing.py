"""Spans and counts at joinlab's module boundaries, recorded from outside.

:func:`install` wraps public functions and methods of ``f2core``,
``ledger``, ``qsim``, ``joins``, ``reductions`` and ``cli``.  A function
that other modules import by name (``from joinlab.f2core import
bool_product``) has one binding per importing module; every binding that
holds the original object is replaced, so calls are seen wherever the
name is looked up.  :meth:`Patches.restore` puts every original back.

Spans live in flat arrays (name, parent, trial, start, end) and are
written out once, at the end.  A span's self time is its duration minus
the durations of its direct children; counter updates run after a span
closes, so their cost lands in the caller's self time and in
``trace.overhead_frac``.
"""

from __future__ import annotations

import importlib
import time
from array import array
from collections import Counter

import numpy as np

MODULE_NAMES = ("f2core", "ledger", "qsim", "joins", "reductions", "cli")

# (span name, module, attribute); "Class.method" names a method
SPAN_TARGETS = (
    ("f2core.transpose", "f2core", "BitMatrix.transpose"),
    ("f2core.indices", "f2core", "BitVector.indices"),
    ("f2core.from_indices", "f2core", "BitVector.from_indices"),
    ("f2core.product", "f2core", "bool_product"),
    ("f2core.product", "f2core", "f2_product"),
    ("f2core.random", "f2core", "BitVector.random"),
    ("f2core.random", "f2core", "BitVector.random_weight"),
    ("f2core.gen_instance", "f2core", "gen_promise_instance"),
    ("ledger.charge", "ledger", "CommLedger.charge"),
    ("qsim.grover_search", "qsim", "grover_search"),
    ("qsim.instance_search", "qsim", "instance_search"),
    ("qsim.disj", "qsim", "disj"),
    ("qsim.graph_collision", "qsim", "graph_collision"),
    ("qsim.graph_collision_all", "qsim", "graph_collision_all"),
    ("qsim.left_cover", "qsim", "BipartiteGraph.left_cover"),
    ("joins.bmm", "joins", "bmm_with_trace"),
    ("joins.bmm_cost_model", "joins", "bmm_cost_model"),
    ("joins.gen_hard_instance", "joins", "gen_hard_instance"),
    ("joins.mm_f2", "joins", "mm_f2"),
    ("joins.classify", "joins", "classify_columns"),
    ("joins.freivalds", "joins", "freivalds_round"),
    ("joins.sketch_init", "joins", "SensingSketch.__init__"),
    ("joins.sketch_encode", "joins", "SensingSketch.encode"),
    ("joins.sketch_decode", "joins", "SensingSketch.decode"),
    ("reductions.embed", "reductions", "embed_disj_family"),
    ("reductions.embed", "reductions", "embed_inner_product"),
    ("reductions.embed", "reductions", "embed_or_blocks"),
    ("reductions.embed", "reductions", "embed_ip_f2"),
    ("reductions.validate", "reductions", "Embedding.validate"),
    ("cli.runner", "cli", "run_bmm_trials"),
    ("cli.runner", "cli", "run_mmf2_trials"),
    ("cli.runner", "cli", "run_disj_trials"),
    ("cli.runner", "cli", "run_gc_trials"),
    ("cli.runner", "cli", "scaling_points"),
)

# every per-layer metric the traced run reports, with its unit
LAYER_METRICS = (
    ("f2core.transpose.calls", "count"),
    ("f2core.transpose.s", "s"),
    ("f2core.transpose.cells", "count"),
    ("f2core.transpose.ones", "count"),
    ("f2core.indices.calls", "count"),
    ("f2core.indices.s", "s"),
    ("f2core.indices.width", "count"),
    ("f2core.indices.ones", "count"),
    ("f2core.from_indices.calls", "count"),
    ("f2core.from_indices.s", "s"),
    ("f2core.product.calls", "count"),
    ("f2core.product.s", "s"),
    ("f2core.random.calls", "count"),
    ("f2core.random.s", "s"),
    ("f2core.gen_instance.calls", "count"),
    ("f2core.gen_instance.s", "s"),
    ("ledger.charge.calls", "count"),
    ("ledger.charge.s", "s"),
    ("ledger.charge.rejected", "count"),
    ("ledger.records", "count"),
    ("qsim.grover_search.calls", "count"),
    ("qsim.grover_search.s", "s"),
    ("qsim.grover_search.found", "count"),
    ("qsim.grover_search.draws", "count"),
    ("qsim.grover_search.support", "count"),
    ("qsim.grover_search.amp_updates", "count"),
    ("qsim.instance_search.calls", "count"),
    ("qsim.instance_search.s", "s"),
    ("qsim.instance_search.found", "count"),
    ("qsim.instance_search.domain", "count"),
    ("qsim.disj.calls", "count"),
    ("qsim.disj.s", "s"),
    ("qsim.graph_collision.calls", "count"),
    ("qsim.graph_collision.s", "s"),
    ("qsim.graph_collision_all.calls", "count"),
    ("qsim.graph_collision_all.s", "s"),
    ("qsim.left_cover.calls", "count"),
    ("qsim.left_cover.s", "s"),
    ("joins.bmm.calls", "count"),
    ("joins.bmm.s", "s"),
    ("joins.bmm.rounds", "count"),
    ("joins.bmm.collisions", "count"),
    ("joins.bmm_cost_model.calls", "count"),
    ("joins.bmm_cost_model.s", "s"),
    ("joins.bmm_cost_model.rounds", "count"),
    ("joins.gen_hard_instance.s", "s"),
    ("joins.mm_f2.calls", "count"),
    ("joins.mm_f2.s", "s"),
    ("joins.classify.s", "s"),
    ("joins.freivalds.calls", "count"),
    ("joins.freivalds.s", "s"),
    ("joins.sketch_init.calls", "count"),
    ("joins.sketch_init.s", "s"),
    ("joins.sketch_encode.calls", "count"),
    ("joins.sketch_encode.s", "s"),
    ("joins.sketch_decode.calls", "count"),
    ("joins.sketch_decode.s", "s"),
    ("joins.sketch_decode.failed", "count"),
    ("joins.errors", "count"),
    ("reductions.embed.calls", "count"),
    ("reductions.embed.s", "s"),
    ("reductions.validate.s", "s"),
    ("reductions.validate.failed", "count"),
    ("cli.runner.s", "s"),
    ("trace.overhead_frac", "ratio"),
)


def self_times(parent, start, end) -> np.ndarray:
    """Duration of each span minus the summed durations of its direct children."""
    parent = np.asarray(parent, dtype=np.int64)
    dur = np.asarray(end, dtype=np.float64) - np.asarray(start, dtype=np.float64)
    covered = np.zeros_like(dur)
    child = parent >= 0
    np.add.at(covered, parent[child], dur[child])
    return dur - covered


class Patches:
    """Attribute replacements that remember the raw originals."""

    def __init__(self):
        self.saved: list[tuple[object, str, object]] = []

    def replace(self, owner, name: str, value):
        self.saved.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def restore(self) -> list[tuple[object, str, object]]:
        """Put every original back; returns what was restored, newest first."""
        restored = list(reversed(self.saved))
        for owner, name, original in restored:
            setattr(owner, name, original)
        self.saved.clear()
        return restored


# ---------------------------------------------------------------------------
# counter hooks: (counts, args, kwargs, result, state) after a call returns,
# where state is what the span's prepare hook returned before the call
# ---------------------------------------------------------------------------


def _count_transpose(counts, args, kwargs, result, state):
    counts["f2core.transpose.cells"] += args[0].rows * args[0].cols
    counts["f2core.transpose.ones"] += result.weight()


def _count_indices(counts, args, kwargs, result, state):
    counts["f2core.indices.width"] += args[0].n
    counts["f2core.indices.ones"] += len(result)


_GROVER_STATS_POS = 9  # grover_search(n, support, marked, plan, ledger, model, rng, phase, directions, stats)


def _grover_stats(args, kwargs):
    """Hand grover_search a stats dict when the caller passed none; returns
    (stats, draws already in it)."""
    if len(args) > _GROVER_STATS_POS:
        stats = args[_GROVER_STATS_POS] or {}
    else:
        if kwargs.get("stats") is None:
            kwargs["stats"] = {}
        stats = kwargs["stats"]
    return stats, len(stats.get("iterations", ()))


def _count_grover(counts, args, kwargs, result, state):
    stats, before = state
    draws = stats.get("iterations", [])[before:]
    model = args[5] if len(args) > 5 else kwargs["model"]
    support = len(args[1]) if len(args) > 1 else len(kwargs["support"])
    counts["qsim.grover_search.found"] += result is not None
    counts["qsim.grover_search.draws"] += len(draws)
    counts["qsim.grover_search.support"] += support
    if model.exact:
        counts["qsim.grover_search.amp_updates"] += support * sum(draws)


def _count_instance_search(counts, args, kwargs, result, state):
    counts["qsim.instance_search.found"] += result is not None
    counts["qsim.instance_search.domain"] += len(args[0])


def _count_bmm(counts, args, kwargs, result, state):
    trace = result[1]
    counts["joins.bmm.rounds"] += trace.t
    counts["joins.bmm.collisions"] += trace.total_ones()


def _count_bmm_cost(counts, args, kwargs, result, state):
    counts["joins.bmm_cost_model.rounds"] += result.t


def _count_decode(counts, args, kwargs, result, state):
    counts["joins.sketch_decode.failed"] += result is None


def _count_validate(counts, args, kwargs, result, state):
    counts["reductions.validate.failed"] += not result


_AFTER = {
    "f2core.transpose": _count_transpose,
    "f2core.indices": _count_indices,
    "qsim.grover_search": _count_grover,
    "qsim.instance_search": _count_instance_search,
    "joins.bmm": _count_bmm,
    "joins.bmm_cost_model": _count_bmm_cost,
    "joins.sketch_decode": _count_decode,
    "reductions.validate": _count_validate,
}

_PREPARE = {"qsim.grover_search": _grover_stats}

# spans whose exceptions count as protocol errors
_PROTOCOL_SPANS = ("joins.bmm", "joins.bmm_cost_model", "joins.mm_f2")


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self, protocol_errors=()):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.trial = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self.current_trial = -1
        self._stack = [-1]
        self._protocol_errors = tuple(protocol_errors)

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str) -> int:
        sid = len(self.start)
        self.name.append(self._name_id(name))
        self.parent.append(self._stack[-1])
        self.trial.append(self.current_trial)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(sid)
        return sid

    def close(self, sid: int):
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    def wrap(self, span: str, fn):
        """``fn`` with a span around each call and the span's counter hook after it."""
        prepare = _PREPARE.get(span)
        after = _AFTER.get(span)
        counts = self.counts
        errors = self._protocol_errors if span in _PROTOCOL_SPANS else ()
        rejected = span == "ledger.charge"
        open_, close = self.open, self.close

        def wrapper(*args, **kwargs):
            state = prepare(args, kwargs) if prepare is not None else None
            sid = open_(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                close(sid)
                if errors and isinstance(exc, errors):
                    counts["joins.errors"] += 1
                if rejected and isinstance(exc, ValueError):
                    counts["ledger.charge.rejected"] += 1
                raise
            close(sid)
            if after is not None:
                after(counts, args, kwargs, result, state)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", span)
        return wrapper

    def layer_metrics(self) -> dict[str, float]:
        """Calls, summed self time and counters for every name in LAYER_METRICS."""
        ids = np.asarray(self.name, dtype=np.int64)
        own = self_times(self.parent, self.start, self.end)
        calls = np.bincount(ids, minlength=len(self.names))
        secs = np.bincount(ids, weights=own, minlength=len(self.names))
        out = {}
        for metric, _unit in LAYER_METRICS:
            base, _, field = metric.rpartition(".")
            idx = self._ids.get(base)
            if field == "calls":
                out[metric] = int(calls[idx]) if idx is not None else 0
            elif field == "s":
                out[metric] = float(secs[idx]) if idx is not None else 0.0
            else:
                out[metric] = self.counts.get(metric, 0)
        return out

    def dump(self, path):
        """Write every span (name id, parent, trial, start, end) and the name table."""
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name=np.asarray(self.name, dtype=np.int32),
            parent=np.asarray(self.parent, dtype=np.int32),
            trial=np.asarray(self.trial, dtype=np.int32),
            start=np.asarray(self.start, dtype=np.float64),
            end=np.asarray(self.end, dtype=np.float64),
        )


def _modules():
    pkg = importlib.import_module("joinlab")
    return [pkg] + [importlib.import_module(f"joinlab.{m}") for m in MODULE_NAMES]


def install(tracer: Tracer) -> Patches:
    """Wrap every SPAN_TARGETS entry at each binding that holds it; returns the
    patches to undo."""
    modules = _modules()
    patches = Patches()
    for span, mod_name, attr in SPAN_TARGETS:
        module = importlib.import_module(f"joinlab.{mod_name}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            owner = getattr(module, cls_name)
            raw = vars(owner)[meth]
            if isinstance(raw, classmethod):
                patches.replace(owner, meth, classmethod(tracer.wrap(span, raw.__func__)))
            else:
                patches.replace(owner, meth, tracer.wrap(span, raw))
            continue
        original = getattr(module, attr)
        wrapper = tracer.wrap(span, original)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    patches.replace(mod, name, wrapper)
    return patches
