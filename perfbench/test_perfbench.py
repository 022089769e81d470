"""Tests of the benchmark's own logic: percentiles, failure counting,
self times, metric names and the consistency of BENCHMARK.json.

Run from the root of a checkout with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

import metrics
import run
from metrics import END_TO_END, PER_LAYER, METRIC_NAME, TooFewSamples, failed_ratio, percentile
from tracing import Span, Tracer, aggregate, patched, self_times

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def test_p95_needs_200_samples():
    assert metrics.min_samples(95) == 200
    assert metrics.min_samples(50) == 20
    with pytest.raises(TooFewSamples):
        percentile(list(range(199)), 95)
    assert percentile(list(range(200)), 95) == pytest.approx(189.05)


def test_percentile_interpolates():
    values = [float(v) for v in range(1, 1001)]
    assert percentile(values, 50) == pytest.approx(500.5)
    assert percentile(values, 95) == pytest.approx(950.05)


def test_failed_ratio_counts_raised_and_failed_checks():
    phase = run.Phase(Tracer())

    def boom():
        raise RuntimeError("injected failure")

    results = [phase.timer(lambda: 1), phase.timer(boom), phase.timer(lambda: 2)]
    assert results == [1, None, 2]
    assert phase.ops == 3 and len(phase.latencies) == 2
    # op 2 raised; op 3 returned but failed its output check
    flags = [results[0] == 1, results[1] is not None, results[2] == 3]
    assert failed_ratio(flags) == pytest.approx(2 / 3)
    assert failed_ratio([True] * 5) == 0.0
    with pytest.raises(ValueError):
        failed_ratio([])


def _span(name, start, end, parent=None, excluded=0.0):
    s = Span(name, start, parent, op=0)
    s.end = end
    s.excluded = excluded
    return s


def test_self_time_of_nested_spans():
    spans = [
        _span("root", 0.0, 10.0),              # children 1 and 4 cover 3 + 4
        _span("mid", 1.0, 4.0, parent=0, excluded=0.5),  # child 2 covers 1, 0.5 bookkeeping
        _span("leaf", 2.0, 3.0, parent=1),
        _span("other", 11.0, 12.0),
        _span("mid", 5.0, 9.0, parent=0),      # child 5 covers 4 of its 4
        _span("leaf", 5.0, 9.0, parent=4),
    ]
    assert self_times(spans) == pytest.approx([3.0, 1.5, 1.0, 1.0, 0.0, 4.0])
    agg = aggregate(spans)
    assert agg["mid"]["calls"] == 2
    assert agg["mid"]["self_s"] == pytest.approx(1.5)
    assert agg["leaf"]["total_s"] == pytest.approx(5.0)
    only_in_root = aggregate(spans, lambda s: s.name != "root")
    assert "root" not in only_in_root and only_in_root["mid"]["self_s"] == pytest.approx(1.5)


def test_tracer_records_parents_and_restores_patches():
    class Owner:
        @staticmethod
        def inner(x):
            return x + 1

        @staticmethod
        def outer(x):
            return Owner.inner(x) * 2

    tracer = Tracer()
    original = Owner.inner
    counted = []
    with patched([(Owner, "inner", tracer.wrap("inner", Owner.inner,
                                               lambda attrs, args, kwargs, result: counted.append(result))),
                  (Owner, "outer", tracer.wrap("outer", Owner.outer))]):
        assert Owner.outer(1) == 4  # not recording: calls pass straight through
        assert tracer.spans == []
        tracer.recording, tracer.op = True, 7
        assert Owner.outer(1) == 4
    assert Owner.inner is original
    outer, inner = tracer.spans
    assert (outer.name, outer.parent, inner.name, inner.parent) == ("outer", None, "inner", 0)
    assert inner.op == outer.op == 7 and counted == [2]  # hooks run only while recording
    assert outer.start <= inner.start <= inner.end <= outer.end


def test_metric_names():
    names = [name for name, _ in END_TO_END + PER_LAYER]
    assert len(names) == len(set(names))
    assert all(METRIC_NAME.match(name) and len(name) <= 64 for name in names)


def test_layer_metrics_cover_every_per_layer_name():
    import layers

    values = layers.layer_metrics(Tracer(), ops=1, traced_s=1.0, plain_s=1.0)
    assert list(values) == [name for name, _ in PER_LAYER]


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_predictions_name_known_metrics_and_workloads():
    plan = json.loads((Path(__file__).parent / "predictions.json").read_text())
    e2e = {name for name, _ in END_TO_END}
    layer = {name for name, _ in PER_LAYER}
    for row in plan["predictions"]:
        assert set(row["layer_metrics"]) <= layer, row
        assert set(row["moves"]) <= e2e, row
        assert set(row["on"]) | set(row["no_change_on"]) <= set(run.WORKLOADS), row
