"""Spans around the benchmark's calls into tempest, kept in memory.

Every call a workload makes into the program goes through ``Tracer.span``.
Untraced, a span only counts the operation and whether it raised.  Traced,
it also records its name, its group (a set-up repetition or a timed round),
its start and end, the span that encloses it and a work count, and the
per-layer metrics are computed from those records when the run ends.
"""

from __future__ import annotations

import json
import statistics
import time

# Per-layer time metrics: "<span name>_s" is the seconds spent in spans of
# that name per round (per set-up for calls made only in set-up), median
# over the rounds.
TIME_METRICS = (
    "graphs.build",
    "graphs.mean_matrix",
    "spectral.eta",
    "thresholds.search_t1",
    "thresholds.search_t2",
    "thresholds.search_t3",
    "thresholds.search_t4",
    "thresholds.search_static_dt",
    "thresholds.certify_t2",
    "simulate.empirical_threshold",
    "simulate.ct_exact",
    "graphs.sample_graph_path",
    "simulate.propagate_linear",
    "oracle.assemble",
    "oracle.exponential_condition",
    "oracle.expected_certificate",
    "oracle.chung_tail_check",
)

# Per-layer rates: work counted by the spans of one name over their time.
RATE_METRICS = {
    "graphs.mean_matrix_edges_per_s": ("graphs.mean_matrix", "edges/s", "edges"),
    "simulate.dt_edge_steps_per_s": ("simulate.empirical_threshold", "edge-steps/s",
                                     "edge-steps"),
    "simulate.ct_events_per_s": ("simulate.ct_exact", "events/s", "epidemic events"),
    "simulate.propagate_segments_per_s": ("simulate.propagate_linear", "segments/s",
                                          "segments"),
    "oracle.generator_rows_per_s": ("oracle.exponential_condition", "rows/s",
                                    "generator rows"),
}


class Span:
    __slots__ = ("tracer", "name", "count", "start", "parent", "index")

    def __init__(self, tracer: "Tracer", name: str, count: float):
        self.tracer = tracer
        self.name = name
        self.count = count

    def __enter__(self):
        tr = self.tracer
        tr.attempted += tr.counting
        if tr.enabled:
            self.parent = tr.stack[-1] if tr.stack else None
            self.index = len(tr.records)
            tr.records.append(None)
            tr.stack.append(self.index)
            self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        tr = self.tracer
        if exc_type is not None:
            tr.failed += tr.counting
        if tr.enabled:
            end = time.perf_counter()
            tr.stack.pop()
            tr.records[self.index] = {
                "name": self.name, "group": tr.group, "start": self.start, "end": end,
                "parent": self.parent, "count": self.count, "raised": exc_type is not None,
            }
        return False


class Tracer:
    """Counts operations; with ``enabled`` also records one span per call."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.counting = False   # True while the timed rounds run
        self.group = "setup"
        self.attempted = 0
        self.failed = 0
        self.records: list = []
        self.stack: list = []

    def span(self, name: str, count: float = 0) -> Span:
        return Span(self, name, count)

    def per_layer(self):
        """Every per-layer metric; layers this run did not call read 0.

        A layer's time is summed per group, and the median is taken over the
        rounds that called it, or over the set-ups if only set-up did.
        """
        by_name: dict = {}
        for rec in self.records:
            groups = by_name.setdefault(rec["name"], {})
            time_, count = groups.get(rec["group"], (0.0, 0.0))
            groups[rec["group"]] = (time_ + rec["end"] - rec["start"], count + rec["count"])
        metrics, counts = {}, {}
        for name in TIME_METRICS:
            groups = by_name.get(name, {})
            times = ([t for g, (t, _) in groups.items() if g.startswith("round")]
                     or [t for t, _ in groups.values()])
            value = statistics.median(times) if times else 0.0
            metrics[f"{name}_s"] = {"value": value, "unit": "s"}
        for metric, (name, unit, what) in RATE_METRICS.items():
            groups = by_name.get(name, {})
            busy = sum(t for t, _ in groups.values())
            work = sum(c for _, c in groups.values())
            metrics[metric] = {"value": work / busy if busy > 0 else 0.0, "unit": unit}
            counts[metric] = (work, what, busy)
        return metrics, counts

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.records}, fh)
