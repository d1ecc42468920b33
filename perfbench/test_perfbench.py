"""Tests of the benchmark's own code: span arithmetic, percentiles, output checks, tracer."""

import dataclasses
import json
import types
from pathlib import Path

import numpy as np
import pytest

from gameclust import Clustering, Ds1Config, RunConfig, drivers, generate_ds1

from checks import check_report
from run import END_TO_END_UNITS, percentile, unit_of
from tracing import ROOT, Span, Tracer, TracingError, layer_metrics, self_times
from workloads import WORKLOADS

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def ds1():
    return generate_ds1(Ds1Config(seed=0))


@pytest.fixture(scope="module")
def ns3_report(ds1):
    report = drivers.run_algorithm(ds1, RunConfig(k=4, seed=0, ns=3))
    assert any(r.accepted for r in report.trace)
    return report


def test_self_times_of_nested_spans():
    spans = [
        Span("drivers.run", 0.0, 10.0, None, 0),
        Span("kmeans.lloyd", 1.0, 4.0, 0, 0),
        Span("core.from_assignment", 2.0, 3.0, 1, 0),
        Span("core.from_assignment", 5.0, 5.5, 0, 0),
        Span("drivers.run", 20.0, 21.0, None, 1),
    ]
    calls, own = self_times(spans)
    assert calls == {"drivers.run": 2, "kmeans.lloyd": 1, "core.from_assignment": 2}
    assert own == {"drivers.run": 6.5 + 1.0, "kmeans.lloyd": 2.0, "core.from_assignment": 1.5}
    assert sum(own.values()) == 11.0  # the two root spans


def test_self_times_reject_children_longer_than_parent():
    spans = [Span("a", 0.0, 1.0, None, 0), Span("b", 0.0, 2.0, 0, 0)]
    with pytest.raises(TracingError):
        self_times(spans)


def test_p90_needs_ten_samples_beyond_it():
    assert percentile(range(1, 101), 90) == 90
    assert percentile(range(1, 100), 90) is None
    assert percentile(range(1, 201), 90) == 180
    assert percentile([3.0, 1.0, 2.0], 50, beyond=0) == 2.0


def test_check_accepts_a_real_run(ds1, ns3_report):
    assert check_report(ds1, 4, ns3_report) == []


def test_check_rejects_doctored_sse(ds1, ns3_report):
    final = dataclasses.replace(ns3_report.final, sse=ns3_report.final.sse * (1 + 1e-6))
    problems = check_report(ds1, 4, dataclasses.replace(ns3_report, final=final))
    assert any("final SSE" in p for p in problems)


def test_check_rejects_an_empty_cluster(ds1, ns3_report):
    c = ns3_report.final_clustering
    assignment = np.where(c.assignment == 3, 0, c.assignment)
    loads = np.bincount(assignment, minlength=4)
    doctored = Clustering(assignment=assignment, k=4, centers=c.centers, loads=loads)
    problems = check_report(ds1, 4, dataclasses.replace(ns3_report, final_clustering=doctored))
    assert problems == ["cluster 3 is empty"]


def test_check_rejects_a_bad_accept(ds1, ns3_report):
    trace = list(ns3_report.trace)
    i = next(i for i, r in enumerate(trace) if r.accepted)
    trace[i] = dataclasses.replace(trace[i], reallocation_score=2.0)
    problems = check_report(ds1, 4, dataclasses.replace(ns3_report, trace=tuple(trace)))
    assert problems == [f"iterations [{trace[i].index}] accepted against the acceptance rule"]


def test_tracer_fails_loudly_on_a_missing_name():
    fake = types.SimpleNamespace(**{k: v for k, v in vars(drivers).items() if k != "objectives"})
    with pytest.raises(TracingError, match="objectives"):
        Tracer().install(fake, Clustering)


def traced_run(ds1, config):
    """One run under the tracer; returns the tracer, the report, its counts and its time."""
    tracer = Tracer()
    tracer.install(drivers, Clustering)
    try:
        tracer.run = 0
        report = tracer.wrap(ROOT, drivers.run_algorithm)(ds1, config)
    finally:
        tracer.uninstall()
    assert not hasattr(drivers.objectives, "__wrapped__")
    assert not hasattr(Clustering.from_assignment, "__wrapped__")
    root = tracer.spans[0]
    counts = {"games": report.games_played, "outer_iterations": report.outer_iterations, "budget_runs": 0}
    return tracer, report, counts, root.end - root.start


def test_traced_run_adds_up_and_names_match_benchmark_json(ds1):
    config = RunConfig(k=4, seed=0, ns=3, algorithm="pkgame")
    tracer, report, counts, wall = traced_run(ds1, config)
    metrics, share = layer_metrics(tracer, {0: 4}, [wall], counts, WORKLOADS["n3000-pk"].required_spans)
    metrics["trace.overhead_ratio"] = 1.0
    assert metrics["kmeans.lloyd_full.calls"] == 1
    assert metrics["game_engine.games"] == report.games_played
    assert 0.0 <= share[4] <= 1.0
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {name: unit_of(name) for name in metrics} == declared


def test_tracer_fails_loudly_when_a_required_layer_is_idle(ds1):
    config = RunConfig(k=4, seed=0, ns=3)
    tracer, _, counts, wall = traced_run(ds1, config)
    with pytest.raises(TracingError, match="lloyd_full"):
        layer_metrics(tracer, {0: 4}, [wall], counts, ("kmeans.lloyd_full",))


def test_end_to_end_names_match_benchmark_json():
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert declared == END_TO_END_UNITS
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert all(w["why"] == WORKLOADS[w["name"]].why for w in BENCHMARK["workloads"])


def test_seed_orders_a_fixed_run_set():
    w = WORKLOADS["ds1-full"]
    assert w.runs(1) == w.runs(1)
    assert w.runs(1) != w.runs(2)
    assert sorted(w.runs(1)) == sorted(w.runs(2)) == w.natural_runs()
    assert len(w.natural_runs()) == 100


def test_pass_count_depends_only_on_the_budget():
    w = WORKLOADS["ds1-ns3"]
    assert [w.passes(s) for s in (1, 6, 20, 60)] == [1, 1, 3, 10]
