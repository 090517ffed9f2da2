"""Per-layer metrics from the spans ``traced.py`` writes, one file per job.

A span is (name, start, end, parent index, counters); its self time is its
duration minus the durations of its direct children.  Every metric is a
mean per traced job, so runs of different lengths compare directly.
"""

import json
import statistics

# (metric, span name, what to read): "calls", "total", "self" or a counter.
SPAN_METRICS = [
    ("exchange.parse_table.calls", "exchange.parse_table", "calls"),
    ("exchange.parse_table.self_s", "exchange.parse_table", "self"),
    ("exchange.serialize_table.self_s", "exchange.serialize_table", "self"),
    ("exchange.input_bytes", "exchange.parse_table", "input_bytes"),
    ("diagrams.normalized_diagram.calls", "diagrams.normalized_diagram", "calls"),
    ("diagrams.normalized_diagram.self_s", "diagrams.normalized_diagram", "self"),
    ("diagrams.smallest_integral.self_s", "diagrams.smallest_integral", "self"),
    ("diagrams.is_chain.calls", "diagrams.is_chain", "calls"),
    ("diagrams.is_chain.self_s", "diagrams.is_chain", "self"),
    ("betti_decomposition.decompose.calls", "betti_decomposition.decompose", "calls"),
    ("betti_decomposition.decompose.total_s", "betti_decomposition.decompose", "total"),
    ("betti_decomposition.decompose.self_s", "betti_decomposition.decompose", "self"),
    ("betti_decomposition.decompose.table_cells", "betti_decomposition.decompose",
     "table_cells"),
    ("betti_decomposition.peel.calls", "betti_decomposition.peel", "calls"),
    ("betti_decomposition.peel.self_s", "betti_decomposition.peel", "self"),
    ("tables.subtract_checked.calls", "tables.subtract_checked", "calls"),
    ("tables.subtract_checked.self_s", "tables.subtract_checked", "self"),
    ("tables.subtract_checked.cells", "tables.subtract_checked", "cells"),
    ("tables.scale.self_s", "tables.scale", "self"),
    ("tables.validate.calls", "tables.validate", "calls"),
    ("tables.validate.self_s", "tables.validate", "self"),
    ("tables.validate.window_cells", "tables.validate", "window_cells"),
    ("tables.validate.support", "tables.validate", "support"),
    ("supernatural.supernatural_table.calls", "supernatural.supernatural_table", "calls"),
    ("supernatural.supernatural_table.self_s", "supernatural.supernatural_table", "self"),
    ("supernatural.supernatural_table.window_cells", "supernatural.supernatural_table",
     "window_cells"),
    ("supernatural.corner_roots.self_s", "supernatural.corner_roots", "self"),
    ("coh_decomposition.decompose_cohomology.calls",
     "coh_decomposition.decompose_cohomology", "calls"),
    ("coh_decomposition.decompose_cohomology.total_s",
     "coh_decomposition.decompose_cohomology", "total"),
    ("coh_decomposition.decompose_cohomology.self_s",
     "coh_decomposition.decompose_cohomology", "self"),
    ("coh_decomposition.decompose_cohomology.rejected",
     "coh_decomposition.decompose_cohomology", "rejected"),
    ("coh_decomposition.peel_supernatural.calls", "coh_decomposition.peel_supernatural",
     "calls"),
    ("coh_decomposition.peel_supernatural.self_s", "coh_decomposition.peel_supernatural",
     "self"),
    ("coh_decomposition.p1_oracle.calls", "coh_decomposition.p1_oracle", "calls"),
    ("coh_decomposition.p1_oracle.self_s", "coh_decomposition.p1_oracle", "self"),
    ("extension.enumerate_patterns.calls", "extension.enumerate_patterns", "calls"),
    ("extension.enumerate_patterns.patterns", "extension.enumerate_patterns", "patterns"),
    ("extension.cancellation_bounds.calls", "extension.cancellation_bounds", "calls"),
    ("extension.cancellation_bounds.self_s", "extension.cancellation_bounds", "self"),
    ("extension.apply_cancellation.calls", "extension.apply_cancellation", "calls"),
    ("extension.apply_cancellation.self_s", "extension.apply_cancellation", "self"),
    ("extension.feasible_set.self_s", "extension.feasible_set", "self"),
    ("extension.feasible_set.feasible", "extension.feasible_set", "feasible"),
    ("extension.polytope_vertices.self_s", "extension.polytope_vertices", "self"),
    ("extension.polytope_vertices.points", "extension.polytope_vertices", "points"),
    ("extension.polytope_vertices.vertices", "extension.polytope_vertices", "vertices"),
    ("stillman.scan.calls", "stillman.scan", "calls"),
    ("stillman.scan.self_s", "stillman.scan", "self"),
    ("cli.main.total_s", "cli.main", "total"),
    ("cli.main.self_s", "cli.main", "self"),
]

LAYERS = ["exchange", "diagrams", "betti_decomposition", "tables", "supernatural",
          "coh_decomposition", "extension", "stillman", "cli"]


def unit(metric):
    if metric.endswith("_s"):
        return "s/job"
    if metric.endswith("_ratio") or metric.endswith("_frac"):
        return "ratio"
    if metric.endswith("_bytes"):
        return "B/job"
    return "count/job"


def load_spans(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _job_totals(job):
    """{span name: {"calls", "total", "self", counters...}} for one job."""
    spans = job["spans"]
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    totals = {}
    for k, (name, start, end, _, counters) in enumerate(spans):
        row = totals.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0})
        row["calls"] += 1
        row["total"] += end - start
        row["self"] += end - start - child[k]
        for key, value in counters.items():
            row[key] = row.get(key, 0) + value
    return totals


def per_layer(jobs, plain_times, traced_times):
    """Every per-layer metric, as a mean per traced job."""
    count = len(jobs)
    per_job = [_job_totals(job) for job in jobs]
    values = {}
    for metric, span, field in SPAN_METRICS:
        values[metric] = sum(t.get(span, {}).get(field, 0) for t in per_job) / count
    calls = values["coh_decomposition.decompose_cohomology.calls"]
    rejected = values["coh_decomposition.decompose_cohomology.rejected"]
    values["coh_decomposition.decompose_cohomology.accept_ratio"] = \
        (calls - rejected) / calls if calls else 0.0
    values["cli.import_s"] = sum(job["import_s"] for job in jobs) / count
    plain = statistics.median(plain_times)
    values["trace.overhead_frac"] = (statistics.median(traced_times) - plain) / plain
    return {name: {"value": value, "unit": unit(name)} for name, value in values.items()}


def self_shares(jobs):
    """Each layer's share of the in-process self time, over all traced jobs."""
    totals = dict.fromkeys(LAYERS, 0.0)
    for job in jobs:
        for name, row in _job_totals(job).items():
            layer = name.split(".", 1)[0]
            totals[layer] = totals.get(layer, 0.0) + row["self"]
        totals["cli"] += job["import_s"]
    whole = sum(totals.values()) or 1.0
    return {layer: round(value / whole, 4) for layer, value in totals.items()}
