"""Metric arithmetic shared by the runner and its tests; no ontoflux imports."""

from __future__ import annotations

import re
import statistics

METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")
# a percentile is reported only when at least this many samples lie beyond it
SAMPLES_BEYOND = 10

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p95_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("kb.saturate.calls", "count/op"),
    ("kb.saturate.self_s", "s/op"),
    ("kb.saturate.atoms_out", "count/op"),
    ("kb.saturate.repeat_ratio", "ratio"),
    ("kb.close_class.calls", "count/op"),
    ("kb.close_class.self_s", "s/op"),
    ("kb.is_member.calls", "count/op"),
    ("kb.is_member.self_s", "s/op"),
    ("merging.merge.calls", "count/op"),
    ("merging.merge.self_s", "s/op"),
    ("merging.merge.facts_out", "count/op"),
    ("merging.merge.paths_per_fact", "paths/fact"),
    ("merging.merge.repeat_ratio", "ratio"),
    ("merging.query.self_s", "s/op"),
    ("merging.query.answers", "count/op"),
    ("merging.query.shared_ratio", "ratio"),
    ("merging.query.approx_ratio", "ratio"),
    ("io.parse.calls", "count/op"),
    ("io.parse.self_s", "s/op"),
    ("io.parse.bytes", "B/op"),
    ("cli.main.self_s", "s/op"),
    ("temporal.step_all.self_s", "s/op"),
    ("temporal.step_all.records_scanned", "count/op"),
    ("monitor.tick.self_s", "s/op"),
    ("monitor.tick.log_lines", "count/op"),
    ("simulate.run.self_s", "s/op"),
    ("simulate.demands", "count/op"),
    ("simulate.us_per_demand", "us"),
    ("simulate.rng_calls_per_demand", "1/demand"),
    ("trace.overhead_ratio", "ratio"),
)


class TooFewSamples(ValueError):
    pass


def min_samples(pct: int) -> int:
    """Fewest samples for which ``SAMPLES_BEYOND`` of them lie above the ``pct``-th percentile."""
    return -(-SAMPLES_BEYOND * 100 // (100 - pct))


def percentile(values, pct: int) -> float:
    """The ``pct``-th percentile (linear interpolation), refused on too few samples."""
    if len(values) < min_samples(pct):
        raise TooFewSamples(f"p{pct} needs {min_samples(pct)} samples, got {len(values)}")
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def failed_ratio(flags) -> float:
    """Share of attempted ops whose flag is false (raised or failed its check)."""
    if not flags:
        raise ValueError("no ops attempted")
    return sum(1 for ok in flags if not ok) / len(flags)


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0
