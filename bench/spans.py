"""Spans around the benchmark's calls into the program, and the
per-layer metrics computed from them.

A span records a name (``layer.function``), start and end in
nanoseconds, the span that caused it, and optional ``tag`` and
``items`` (for example the solver path and the pair count of a
``dist_pairs`` call).  Spans stay in memory and are written out once
when the run ends.
"""

from __future__ import annotations

import contextlib
import statistics
import time


class NullTracer:
    """Tracing off: calls go straight to the program."""

    enabled = False

    def call(self, name, fn, *args, tag=None, items=None, **kwargs):
        return fn(*args, **kwargs)

    def span(self, name, tag=None, items=None):
        return contextlib.nullcontext()


class Tracer:
    enabled = True

    def __init__(self):
        self.spans = []
        self._stack = []

    @contextlib.contextmanager
    def span(self, name, tag=None, items=None):
        sid = len(self.spans)
        record = {"id": sid, "parent": self._stack[-1] if self._stack else None,
                  "name": name, "tag": tag, "items": items, "start": 0, "end": 0}
        self.spans.append(record)
        self._stack.append(sid)
        record["start"] = time.perf_counter_ns()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter_ns()
            self._stack.pop()

    def call(self, name, fn, *args, tag=None, items=None, **kwargs):
        """fn(*args, **kwargs) inside a span; ``items`` may be a function
        of the result when the count is known only afterwards."""
        with self.span(name, tag, None if callable(items) else items) as record:
            out = fn(*args, **kwargs)
            if callable(items):
                record["items"] = items(out)
            return out


def self_times(spans):
    """Span duration minus the time its direct children cover, in ns
    (children of one span run one after another, never overlapping)."""
    child = {}
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] = child.get(s["parent"], 0) + s["end"] - s["start"]
    return {s["id"]: s["end"] - s["start"] - child.get(s["id"], 0) for s in spans}


def _select(spans, name, tag=None):
    """Spans of one call whose tag starts with ``tag``; with no tag, all
    but the set-up calls (tagged "first...")."""
    out = []
    for s in spans:
        label = s["tag"] or ""
        if s["name"] != name:
            continue
        if tag is None and label.startswith("first"):
            continue
        if tag is not None and not label.startswith(tag):
            continue
        out.append(s)
    return out


def _median(spans, selfs, name, tag, scale):
    vals = [selfs[s["id"]] for s in _select(spans, name, tag)]
    return statistics.median(vals) * scale if vals else None


def _per_item(spans, selfs, name, tag, scale):
    sel = _select(spans, name, tag)
    items = sum(s["items"] for s in sel)
    return sum(selfs[s["id"]] for s in sel) / items * scale if items else None


def _per_round(spans, name, tag, value):
    """Median over rounds of the per-round sum of ``value(span)``; spans
    outside any round (set-up) count as one group."""
    by_id = {s["id"]: s for s in spans}
    groups = {}
    for s in _select(spans, name, tag):
        up = s
        while up["parent"] is not None and up["name"] != "bench.round":
            up = by_id[up["parent"]]
        key = up["id"] if up["name"] == "bench.round" else None
        groups[key] = groups.get(key, 0) + value(s)
    return statistics.median(groups.values()) if groups else None


def _total(spans, selfs, name, tag, scale):
    total = _per_round(spans, name, tag, lambda s: selfs[s["id"]])
    return None if total is None else total * scale


def _items(spans, selfs, name, tag, scale):
    return _per_round(spans, name, tag, lambda s: s["items"])


# name -> (unit, statistic, span name, tag prefix, scale from ns)
LAYER_METRICS = {
    "linalg.mat_exp_us": ("us", _median, "linalg.mat_exp", None, 1e-3),
    "linalg.nilpotent_exp_us": ("us", _median, "linalg.nilpotent_exp", None, 1e-3),
    "spectral.rpjf_us": ("us", _median, "spectral.real_part_jordan_form", None, 1e-3),
    "spectral.classify_us": ("us", _median, "spectral.classify", None, 1e-3),
    "metric.space_init_us": ("us", _median, "metric.BoundarySpace", None, 1e-3),
    "metric.general_first_call_s": ("s", _total, "metric.dist_pairs", "first:general", 1e-9),
    "metric.diagonal_us_per_pair": ("us", _per_item, "metric.dist_pairs", "diagonal", 1e-3),
    "metric.single_us_per_pair": ("us", _per_item, "metric.dist_pairs", "single", 1e-3),
    "metric.general_us_per_pair": ("us", _per_item, "metric.dist_pairs", "general", 1e-3),
    "variation.count_cells_jordan_s": ("s", _total, "variation.count_cells", "jordan", 1e-9),
    "variation.count_cells_diag_us": ("us", _median, "variation.count_cells", "diagonal", 1e-3),
    "variation.fit_exponents_ms": ("ms", _median, "variation.fit_exponents", None, 1e-6),
    "variation.cells_counted": ("count", _items, "variation.count_cells", "jordan", None),
    "maps.bound_ms": ("ms", _median, "maps.jordan_family_bound", None, 1e-6),
    "maps.empirical_bilip_s": ("s", _median, "maps.empirical_bilip", None, 1e-9),
    "maps.qs_profile_s": ("s", _median, "maps.qs_profile", None, 1e-9),
    "maps.distortion_profile_s": ("s", _median, "maps.distortion_profile", None, 1e-9),
    "maps.compose_jordan_us": ("us", _median, "maps.compose_jordan", None, 1e-3),
    "maps.eval_map_batch_ns_per_point": ("ns", _per_item, "maps.eval_map_batch", None, 1.0),
    "cli.import_s": ("s", _median, "cli.import", None, 1e-9),
    "cli.dist_s": ("s", _median, "cli.dist", None, 1e-9),
    "cli.dist_general_s": ("s", _median, "cli.dist_general", None, 1e-9),
    "cli.rpjf_s": ("s", _median, "cli.rpjf", None, 1e-9),
    "cli.classify_s": ("s", _median, "cli.classify", None, 1e-9),
    "cli.qvar_s": ("s", _median, "cli.qvar", None, 1e-9),
    "cli.qsmap_verify_s": ("s", _median, "cli.qsmap_verify", None, 1e-9),
    "cli.conformal_probe_s": ("s", _median, "cli.conformal_probe", None, 1e-9),
}

# from the alternating untraced and traced rounds of the chosen workload
OVERHEAD_METRICS = {"trace.overhead_ms": "ms", "trace.overhead_pct": "%"}


def layer_metrics(spans):
    """Every per-layer metric from one traced run's spans."""
    selfs = self_times(spans)
    out = {}
    for name, (unit, stat, span_name, tag, scale) in LAYER_METRICS.items():
        value = stat(spans, selfs, span_name, tag, scale)
        if value is None:
            raise LookupError(f"no spans for {name}")
        out[name] = {"value": value, "unit": unit}
    return out
