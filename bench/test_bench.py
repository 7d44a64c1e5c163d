"""Tests of the benchmark's own arithmetic: ``python3 -m pytest bench``."""

from __future__ import annotations

import json
import math
import os
import sys

import numpy as np
import pytest

import run
from stats import elbow_pick, summarize
from tracer import Tracer, instrument, self_times

if run.SRC not in sys.path:
    sys.path.insert(0, run.SRC)


def span(name, start, end, parent=-1):
    return [name, float(start), float(end), parent]


def test_self_time_subtracts_nested_children():
    spans = [
        span("root", 0, 10),
        span("a", 1, 4, 0),
        span("a.inner", 2, 3, 1),
        span("b", 5, 9, 0),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])
    # self times partition the root span
    assert sum(self_times(spans)) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once_and_clips_to_parent():
    spans = [span("root", 0, 10), span("c1", 1, 5, 0), span("c2", 3, 7, 0), span("c3", 8, 12, 0)]
    assert self_times(spans)[0] == pytest.approx(10 - 6 - 2)


def test_instrument_records_parents_through_importing_modules_and_restores():
    from alma import clustering, linalg

    original = linalg.sym_eig_topk
    tracer = Tracer()
    with instrument(tracer, ["clustering.within_layer_labels", "linalg.sym_eig_topk"]):
        assert clustering.sym_eig_topk is not original
        clustering.within_layer_labels(np.eye(6) + np.ones((6, 6)), 2, 0, restarts=2)
    assert linalg.sym_eig_topk is original and clustering.sym_eig_topk is original
    names = [s[0] for s in tracer.spans]
    assert names == ["clustering.within_layer_labels", "linalg.sym_eig_topk"]
    assert tracer.spans[1][3] == 0
    rows = tracer.by_name()
    assert rows["linalg.sym_eig_topk"]["calls"] == 1


def test_mode_product_bytes_from_shapes():
    from alma.tensors import Tensor3

    tracer = Tracer()
    x = Tensor3(np.zeros((2, 3, 3)))
    run._after_mode1(tracer, (x, np.zeros((4, 2))), None)
    assert tracer.counters["mode1_bytes"] == 8 * (18 + 8 + 4 * 9)
    run._after_mode23(tracer, (x, Tensor3(np.zeros((5, 3, 3)))), None)
    assert tracer.counters["mode23_bytes"] == 8 * (18 + 45 + 10)


@pytest.mark.parametrize("objectives, expected", [
    ([10.0, 8.0, 5.0, 4.5, 4.4], 3),
    ([10.0, math.nan, 5.0, 4.0, math.nan], 4),   # only the finite pair (m=3, m=4) counts
    ([10.0, 9.0, 8.0, 7.5, 7.4], 3),             # equal drops: the larger m wins
    ([math.nan] * 5, None),
])
def test_elbow_pick_matches_acceptance_rule(objectives, expected):
    assert elbow_pick([1, 2, 3, 4, 5], objectives) == expected


def test_summary_reports_median_count_and_percentile_with_ten_beyond():
    small = summarize([3.0, 1.0, 2.0])
    assert (small["median"], small["n"], small["pct"]) == (2.0, 3, None)
    hundred = summarize(range(1, 101))
    assert (hundred["median"], hundred["n"]) == (50.5, 100)
    assert (hundred["pct"], hundred["pct_value"]) == (90.0, 90.0)
    thousand = summarize(range(1, 1001))
    assert (thousand["pct"], thousand["pct_value"]) == (99.0, 990.0)
    assert summarize(range(1, 10001))["pct"] == 99.9
    with pytest.raises(ValueError):
        summarize([])


def test_per_layer_metrics_match_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer"]
    assert [(m["name"], m["unit"], m["better"]) for m in declared] == list(run.PER_LAYER)
