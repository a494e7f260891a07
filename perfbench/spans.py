"""Outside-in tracing of the feddymem layers.

`install` wraps library functions in every feddymem module that binds
them. Patching only the defining module is not enough: a module that did
`from .client import knn_lookup` holds its own binding, and calls made
through it would go unrecorded. Spans (name, start, end, parent) are kept
in memory by a `Recorder` and written out once the run ends.
`layer_metrics` turns the spans of one or more runs into the per-layer
metrics; a metric whose function no longer exists, or whose size can no
longer be read from the call, is reported as absent, never as zero.
"""

from __future__ import annotations

import functools
import importlib
import math
import pkgutil
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int           # index of the enclosing span, -1 for a root
    work: float | None = None  # a size read from the arguments
    out: float | None = None   # a size read from the return value

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Recorder:
    """Spans of one single-threaded run, in call order."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, work=None, out=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            span = self.spans[idx]
            span.work = _measure(work, args, kwargs)
            span.out = _measure(out, result)
            return result
        return traced

    def to_rows(self) -> list[list]:
        return [[s.name, s.start, s.end, s.parent, s.work, s.out] for s in self.spans]


def spans_from_rows(rows: list[list]) -> list[Span]:
    return [Span(*row) for row in rows]


def _measure(fn, *values) -> float | None:
    """A size for the span; None when the call no longer has that shape."""
    if fn is None:
        return None
    try:
        return float(fn(*values))
    except (AttributeError, IndexError, KeyError, TypeError, ValueError):
        return None


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _pairs(args, kwargs) -> int:
    """P * Q for knn_lookup(patches, bank, k)."""
    return _arg(args, kwargs, 0, "patches").shape[0] * _arg(args, kwargs, 1, "bank").patches.shape[0]


def _diff_bytes(args, kwargs) -> int:
    """P * Q * C * itemsize of the difference tensor of pairwise_dist(a, b)."""
    a, b = _arg(args, kwargs, 0, "a"), _arg(args, kwargs, 1, "b")
    return a.shape[0] * b.shape[0] * a.shape[1] * (a[:1] - b[:1]).dtype.itemsize


def _samples(args, kwargs) -> int:
    """Samples visited by client_update(state, dataset, cfg, ...)."""
    return len(_arg(args, kwargs, 1, "dataset")) * _arg(args, kwargs, 2, "cfg").local_epochs


# (defining module, function, size from the arguments, size from the result).
# The span is named after the function.
TARGETS = [
    ("orchestrator", "initialize", None, None),
    ("orchestrator", "run_round", None, None),
    ("orchestrator", "save_checkpoint", None, None),
    ("orchestrator", "load_checkpoint", None, None),
    ("client", "client_update", _samples, None),
    ("client", "knn_lookup", _pairs, None),
    ("client", "extract_all_memories", None, None),
    ("client", "memory_reduce", None, None),
    ("features", "project_forward", None, None),
    ("features", "project_backward", None, None),
    ("features", "extract_pyramid", None, None),
    ("features", "fuse_pyramid", None, None),
    ("generator", "generator_forward", None, None),
    ("generator", "generator_backward", None, None),
    ("numerics", "adam_step", None, None),
    ("numerics", "pairwise_dist", _diff_bytes, None),
    ("server", "aggregate", None, None),
    ("server", "kmeans", lambda a, k: _arg(a, k, 0, "points").shape[0],
     lambda r: r.n_iterations),
    ("server", "_plusplus_seeding", None, None),
    ("server", "_lloyd_iterations", None, None),
    ("tensorio", "write_tensor", None, lambda r: r),
    ("tensorio", "write_container", None, lambda r: r),
    ("evaluation", "anomaly_map", None, None),
    ("evaluation", "auroc", None, None),
    ("evaluation", "pro", None, None),
]


PACKAGE = "feddymem"


def _package_modules() -> list:
    pkg = importlib.import_module(PACKAGE)
    for info in pkgutil.walk_packages(pkg.__path__, PACKAGE + "."):
        importlib.import_module(info.name)
    return [m for name, m in sys.modules.items()
            if name == PACKAGE or name.startswith(PACKAGE + ".")]


@contextmanager
def install(recorder: Recorder, targets=TARGETS):
    """Wrap every binding of each target in the feddymem modules.

    Yields the set of target function names that do not exist; the patches
    are undone on exit.
    """
    modules = _package_modules()
    patched: list[tuple[object, str, object]] = []
    absent: set[str] = set()
    try:
        for module, name, work, out in targets:
            home = sys.modules.get(f"{PACKAGE}.{module}")
            original = getattr(home, name, None)
            if not callable(original):
                absent.add(name)
                continue
            wrapper = recorder.wrap(name, original, work, out)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        patched.append((mod, key, original))
        yield absent
    finally:
        for mod, key, original in reversed(patched):
            setattr(mod, key, original)


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

# name -> (unit, span names, required ancestor span or None, statistic).
# Statistics: "time" sums durations, "self" sums durations minus the part
# covered by child spans, "calls" counts spans, "work"/"out" sum the sizes.
LAYER_METRICS = {
    "client.update_s": ("s", ("client_update",), None, "time"),
    "client.update_self_s": ("s", ("client_update",), None, "self"),
    "client.update_calls": ("count", ("client_update",), None, "calls"),
    "client.samples_trained": ("count", ("client_update",), None, "work"),
    "client.knn_s": ("s", ("knn_lookup",), "client_update", "time"),
    "client.knn_calls": ("count", ("knn_lookup",), "client_update", "calls"),
    "client.knn_pairs": ("count", ("knn_lookup",), "client_update", "work"),
    "client.forward_s": ("s", ("project_forward", "generator_forward"), "client_update", "time"),
    "client.backward_s": ("s", ("generator_backward", "project_backward"), "client_update", "time"),
    "client.adam_s": ("s", ("adam_step",), "client_update", "time"),
    "client.extract_s": ("s", ("extract_all_memories",), None, "time"),
    "client.reduce_s": ("s", ("memory_reduce",), None, "time"),
    "server.aggregate_s": ("s", ("aggregate",), None, "time"),
    "server.aggregate_self_s": ("s", ("aggregate",), None, "self"),
    "server.aggregate_calls": ("count", ("aggregate",), None, "calls"),
    "server.seed_s": ("s", ("_plusplus_seeding",), None, "time"),
    "server.lloyd_s": ("s", ("_lloyd_iterations",), None, "time"),
    "server.lloyd_iterations": ("count", ("kmeans",), None, "out"),
    "server.pooled_points": ("count", ("kmeans",), None, "work"),
    "numerics.pairwise_dist_s": ("s", ("pairwise_dist",), None, "time"),
    "numerics.pairwise_dist_calls": ("count", ("pairwise_dist",), None, "calls"),
    "numerics.pairwise_dist_bytes": ("B", ("pairwise_dist",), None, "work"),
    "orchestrator.round_self_s": ("s", ("initialize", "run_round"), None, "self"),
    "orchestrator.checkpoint_s": ("s", ("save_checkpoint",), None, "time"),
    "orchestrator.checkpoint_bytes": ("B", ("write_tensor", "write_container"),
                                      "save_checkpoint", "out"),
    "features.extract_s": ("s", ("extract_pyramid", "fuse_pyramid"), None, "time"),
    "features.extract_calls": ("count", ("extract_pyramid",), None, "calls"),
    "evaluation.score_s": ("s", ("anomaly_map",), None, "time"),
    "evaluation.score_self_s": ("s", ("anomaly_map",), None, "self"),
    "evaluation.score_calls": ("count", ("anomaly_map",), None, "calls"),
    "evaluation.knn_s": ("s", ("knn_lookup",), "anomaly_map", "time"),
    "evaluation.auroc_s": ("s", ("auroc",), None, "time"),
    "evaluation.pro_s": ("s", ("pro",), None, "time"),
    "evaluation.load_checkpoint_s": ("s", ("load_checkpoint",), None, "time"),
}

# Round durations are pooled over all traced runs before taking percentiles.
ROUND_SPANS = ("initialize", "run_round")
ROUND_METRICS = {
    "orchestrator.round_s.p50": ("s", 50),
    "orchestrator.round_s.p90": ("s", 90),
    "orchestrator.round_count": ("count", None),
}


def _self_seconds(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append(s)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for c in sorted(children.get(i, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.seconds - covered)
    return out


def _has_ancestor(spans: list[Span], i: int, name: str) -> bool:
    p = spans[i].parent
    while p >= 0:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False


def _statistic(spans: list[Span], selfs: list[float], names, ancestor, stat) -> float | None:
    """The statistic over matching spans; None when a size could not be read."""
    total = 0.0
    for i, s in enumerate(spans):
        if s.name not in names or (ancestor and not _has_ancestor(spans, i, ancestor)):
            continue
        if stat == "time":
            total += s.seconds
        elif stat == "self":
            total += selfs[i]
        elif stat == "calls":
            total += 1
        elif getattr(s, stat) is None:
            return None
        else:
            total += getattr(s, stat)
    return total


def _percentile(values: list[float], p: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(p / 100 * len(ordered)) - 1, 0)]


def layer_metrics(runs: list[list[Span]], absent: set[str]) -> tuple[dict, list[str]]:
    """Per-layer metrics over traced runs: the median over runs of each
    per-run total, and round percentiles over the pooled round spans.

    Returns ({name: {"value", "unit"}}, names of absent metrics).
    """
    metrics: dict[str, dict] = {}
    missing: list[str] = []
    per_run_selfs = [_self_seconds(spans) for spans in runs]
    for name, (unit, names, ancestor, stat) in LAYER_METRICS.items():
        if absent & (set(names) | {ancestor}):
            missing.append(name)
            continue
        values = [_statistic(spans, selfs, names, ancestor, stat)
                  for spans, selfs in zip(runs, per_run_selfs)]
        if None in values:
            missing.append(name)
        else:
            metrics[name] = {"value": statistics.median(values), "unit": unit}
    rounds = [s.seconds for spans in runs for s in spans if s.name in ROUND_SPANS]
    for name, (unit, p) in ROUND_METRICS.items():
        if absent & set(ROUND_SPANS) or not rounds:
            missing.append(name)
        elif p is None:
            metrics[name] = {"value": len(rounds), "unit": unit}
        else:
            metrics[name] = {"value": _percentile(rounds, p), "unit": unit}
    return metrics, missing
