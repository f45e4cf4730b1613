"""Tests for the benchmark's own helpers: span arithmetic, order statistics,
output checks and the per-layer metric list in BENCHMARK.json."""

import json
import math
import statistics
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

import pb_stats  # noqa: E402
import pb_trace  # noqa: E402
import pb_workloads  # noqa: E402
from pb_trace import Span  # noqa: E402


def _tree():
    # root [0, 10] holds a [1, 4] (which holds a nested "a" [2, 3]) and b [5, 9]
    return [
        Span("root", "cli", 0.0, 10.0, -1),
        Span("a", "norms", 1.0, 4.0, 0),
        Span("a", "norms", 2.0, 3.0, 1),
        Span("b", "rng", 5.0, 9.0, 0),
    ]


def test_self_times_subtract_direct_children_only():
    spans = _tree()
    assert pb_trace.self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    assert sum(pb_trace.self_times(spans)) == 10.0


def test_busy_time_counts_nested_same_name_once():
    busy = pb_trace.busy_times(_tree())
    assert busy == {"root": 10.0, "a": 3.0, "b": 4.0}


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_layer_self_times_and_uncovered_add_up_to_the_op():
    clock = _Clock()
    tr = pb_trace.Tracer(clock=clock)
    leaf = tr.wrap(lambda: None, "kernels.leaf", "kernels")
    mid = tr.wrap(lambda: leaf(), "norms.mid", "norms")
    boom = tr.wrap(lambda: 1 / 0, "rng.boom", "rng")

    start = clock()
    mid()
    with pytest.raises(ZeroDivisionError):
        boom()
    tr.end_op(clock() - start + 0.5)

    m = pb_trace.layer_metrics(tr)
    layers = sum(m[f"layer.{name}.self_s"]["value"] for name in pb_trace.LAYERS)
    assert m["layer.norms.self_s"]["value"] == 2.0
    assert m["layer.kernels.self_s"]["value"] == 1.0
    assert math.isclose(layers + m["layer.uncovered_s"]["value"], m["trace.op_s"]["value"])
    assert m["rng.errors"]["value"] == 1.0 and m["norms.errors"]["value"] == 0.0
    assert tr.spans == []


def test_quartiles_match_statistics_quantiles():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0, 6.0, 8.0, 10.0]
    assert pb_stats.quartiles(values) == (2.75, 5.5, 8.25)
    assert pb_stats.median(values) == statistics.median(values)
    assert pb_stats.median([2.0]) == 2.0
    assert pb_stats.relative_spread(values) == pytest.approx(5.5 / 5.5)
    with pytest.raises(ValueError):
        pb_stats.quartiles([])


def _ce_doc():
    rows = [
        {"n": n, "l1_expected_vs_limit": 0.5 / n, "l1_sampled_vs_limit": 0.5,
         "cutnorm_sampled_vs_limit": 0.4 / n}
        for n in pb_workloads.CE_NS
    ]
    return {"kind": "counterexample", "incomplete": False, "rows": rows}


def _theorem_doc():
    rows = [
        {"n": n, "l1_expected_vs_limit": 0.03 / n, "l1_sampled_vs_limit": 0.01,
         "cutnorm_sampled_vs_limit": 0.001}
        for n in pb_workloads.THEOREM_NS
    ]
    return {"kind": "theorem", "incomplete": False, "rows": rows}


def test_counterexample_checker_rejects_a_corrupted_row():
    assert pb_workloads.check_counterexample(_ce_doc()) == []
    for field, value in [("l1_sampled_vs_limit", 0.5000000000000001),
                         ("l1_expected_vs_limit", 0.126),
                         ("cutnorm_sampled_vs_limit", 0.0)]:
        doc = _ce_doc()
        doc["rows"][2][field] = value
        assert pb_workloads.check_counterexample(doc), field


def test_theorem_checker_rejects_incomplete_or_non_decreasing_reports():
    assert pb_workloads.check_theorem(_theorem_doc()) == []
    doc = _theorem_doc()
    doc["incomplete"] = True
    assert pb_workloads.check_theorem(doc)
    doc = _theorem_doc()
    doc["rows"][3]["l1_expected_vs_limit"] = doc["rows"][2]["l1_expected_vs_limit"]
    assert pb_workloads.check_theorem(doc)
    doc = _theorem_doc()
    doc["rows"][0]["l1_expected_vs_limit"] = 1.0
    assert pb_workloads.check_theorem(doc)


def test_graph_checker_and_reference_hash():
    n = 8
    a = np.zeros((n, n))
    a[0, 1] = a[1, 0] = 1.0
    edges = 1
    assert not any("symmetric" in p or "diagonal" in p
                   for p in pb_workloads.check_graph(a, edges, n))
    b = a.copy()
    b[2, 2] = 1.0
    assert any("diagonal" in p for p in pb_workloads.check_graph(b, edges, n))
    assert any("edge count" in p for p in pb_workloads.check_graph(a, 2, n))

    reference = {"graph-large": ["aa", "bb"], "ce-exact": [{"csv": "cc"}]}
    assert pb_workloads.check_reference("graph-large", 1, "bb", reference) == []
    assert pb_workloads.check_reference("graph-large", 1, "aa", reference)
    assert pb_workloads.check_reference("graph-large", 5, "zz", reference) == []
    assert pb_workloads.check_reference("ce-exact", 0, {"csv": "dd"}, reference)
    assert pb_workloads.check_reference("theorem-large", 0, {"csv": "cc"}, reference)


def test_benchmark_json_lists_every_reported_metric():
    spec = json.loads((Path(__file__).parent.parent / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert per_layer == pb_trace.PER_LAYER_UNITS
    names = {m["name"] for m in spec["end_to_end"]}
    assert names == {"setup_s", "op_s", "peak_rss_mib"}
    assert {w["name"] for w in spec["workloads"]} == set(pb_workloads.WORKLOADS)
