"""In-memory span recording around flowseg's module boundaries.

Spans are recorded from outside the program: ``Instrumented`` swaps the public
names that one flowseg module calls in another (module attributes, plus a
``SpatialIndex`` subclass) for wrappers that time each call, and
``Instrumented.close`` puts the originals back.  A span is
``[name, start, end, parent, op]``: start and end are ``perf_counter``
seconds, ``parent`` is the index of the enclosing span in the same process
(or -1), and ``op`` is the id of the frame pair or sequence the call served.
"""
from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter


class Tracer:
    """Spans and counters of one process, kept in memory until written out."""

    def __init__(self) -> None:
        self.spans = []
        self.counts = defaultdict(float)
        self.op = -1
        self._stack = []

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        idx = len(self.spans)
        span = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1,
                self.op]
        self.spans.append(span)
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            span[2] = perf_counter()

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def take(self):
        """Hand over the spans and counters recorded so far and start afresh."""
        spans, counts = self.spans, dict(self.counts)
        self.spans, self.counts, self._stack = [], defaultdict(float), []
        return spans, counts


def _traced_index_class(tracer, base):
    class TracedSpatialIndex(base):
        def __init__(self, points) -> None:
            tracer.call("geometry.SpatialIndex.build", super().__init__, points)
            tracer.counts["geometry.SpatialIndex.build_points"] += len(self)

        def query(self, queries):
            rows = 1 if getattr(queries, "ndim", 2) == 1 else len(queries)
            tracer.counts["geometry.SpatialIndex.query_points"] += rows
            return tracer.call("geometry.SpatialIndex.query", super().query, queries)

        def query_knn(self, queries, k):
            return tracer.call("geometry.SpatialIndex.query_knn",
                               super().query_knn, queries, k)

    return TracedSpatialIndex


def _traced_kabsch(tracer, fn, degenerate_error):
    def weighted_kabsch(*args, **kwargs):
        try:
            return tracer.call("geometry.weighted_kabsch", fn, *args, **kwargs)
        except degenerate_error:
            tracer.counts["geometry.weighted_kabsch.degenerate"] += 1
            raise
    return weighted_kabsch


# (module, attribute) -> span name; each attribute is a name the module calls
WRAPPED = {
    ("pipeline", "init_flow"): "flow.init_flow",
    ("pipeline", "refine_flow"): "flow.refine_flow",
    ("pipeline", "fit_transforms"): "flow.fit_transforms",
    ("pipeline", "cluster"): "segment.cluster",
    ("pipeline", "cluster_stats"): "segment.cluster_stats",
    ("pipeline", "classify"): "segment.classify",
    ("pipeline", "total_loss"): "losses.total_loss",
    ("pipeline", "initial_mask"): "pipeline.initial_mask",
    ("pipeline", "mask_delta"): "pipeline.mask_delta",
    ("pipeline", "flow_delta"): "pipeline.flow_delta",
    ("losses", "motion_loss"): "losses.motion_loss",
    ("losses", "flow_consistency_loss"): "losses.flow_consistency_loss",
    ("losses", "chamfer_loss"): "losses.chamfer_loss",
    ("cli", "run_pipeline"): "pipeline.run",
    ("cli", "cmd_run"): "cli.cmd_run",
    ("cli", "read_sequence"): "datagen.read_sequence",
    ("cli", "write_frame"): "datagen.write_frame",
    ("cli", "generate"): "datagen.generate",
    ("cli", "ego_motion"): "odometry.ego_motion",
    ("cli", "accumulate"): "odometry.accumulate",
    ("cli", "write_trajectory"): "odometry.write_trajectory",
}
KABSCH_CALLERS = ("pipeline", "flow", "odometry")
INDEX_USERS = ("flow", "geometry")


class Instrumented:
    """Wrappers installed around flowseg's module boundaries; ``close`` undoes them."""

    def __init__(self, tracer: Tracer) -> None:
        import importlib

        from flowseg.errors import DegenerateInput
        from flowseg.geometry import SpatialIndex

        def module(short):
            return importlib.import_module(f"flowseg.{short}")

        self._saved = []
        index_cls = _traced_index_class(tracer, SpatialIndex)
        for short in INDEX_USERS:
            self._swap(module(short), "SpatialIndex", index_cls)
        for short in KABSCH_CALLERS:
            mod = module(short)
            self._swap(mod, "weighted_kabsch",
                       _traced_kabsch(tracer, mod.weighted_kabsch, DegenerateInput))
        for (short, attr), name in WRAPPED.items():
            mod = module(short)
            self._swap(mod, attr, tracer.wrap(name, getattr(mod, attr)))

    def _swap(self, mod, attr, value) -> None:
        self._saved.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, value)

    def close(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved = []


def self_times(spans):
    """Per span, its duration minus the union of its children's intervals.

    ``spans`` is one process's list, so a parent index refers to the same list.
    """
    children = defaultdict(list)
    for i, (_, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(i, ())):
            lo, hi = max(c_start, cursor), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(end - start - covered)
    return out


def summarize(span_lists):
    """Calls, busy time and self time per span name over several span lists."""
    calls = defaultdict(int)
    busy = defaultdict(float)
    own = defaultdict(float)
    for spans in span_lists:
        for (name, start, end, _, _), s in zip(spans, self_times(spans)):
            calls[name] += 1
            busy[name] += end - start
            own[name] += s
    return calls, busy, own


def write_spans(path, span_lists) -> None:
    """Write spans as JSON: one list per process, fields as in the module doc."""
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"fields": ["name", "start", "end", "parent", "op"],
                   "processes": span_lists}, f)
