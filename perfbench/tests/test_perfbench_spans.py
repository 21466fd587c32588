"""Span arithmetic and the wrappers the traced run installs."""

import json
from pathlib import Path

import pytest

import run
from fedbench import metrics, orchestrator, params
from spans import Span, Tracer, self_times, summarize, traced
from workloads import Work


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        Span("root", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("b", 3.0, 6.0, 0, 0),  # overlaps a: the overlap counts once
        Span("c", 8.0, 12.0, 0, 0),  # runs past its parent: clipped at 10
        Span("a.child", 2.0, 3.0, 1, 0),
        Span("b", 6.5, 7.0, -1, 1),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 3.0, 4.0, 1.0, 0.5])
    summary = summarize(spans)
    assert summary["b"]["calls"] == 2
    assert summary["b"]["self_s"] == pytest.approx(3.5)
    assert summary["root"]["durations"] == [10.0]


def test_wrapper_records_parent_and_operation_and_counts_reentry_once():
    tracer = Tracer()

    def inner(x):
        return x + 1

    wrapped_inner = tracer.wrap("inner", inner, outermost_only=True)

    def outer(x):
        return wrapped_inner(wrapped_inner(x))

    wrapped_outer = tracer.wrap("outer", outer)
    assert wrapped_outer(1) == 3
    assert wrapped_inner(0) == 1
    names = [(s.name, s.parent, s.op) for s in tracer.spans]
    assert names == [("outer", -1, 1), ("inner", 0, 1), ("inner", 0, 1), ("inner", -1, 2)]

    nested = tracer.wrap("inner", lambda x: wrapped_inner(x), outermost_only=True)
    tracer.spans.clear()
    assert nested(1) == 2
    assert [s.name for s in tracer.spans] == ["inner"]


def test_traced_restores_every_original():
    before = (orchestrator.model_forward, params.ParamSet.copy, metrics.auroc)
    with traced(Tracer()):
        assert orchestrator.model_forward is not before[0]
        assert params.ParamSet.copy is not before[1]
    assert (orchestrator.model_forward, params.ParamSet.copy, metrics.auroc) == before


def test_benchmark_json_lists_exactly_the_emitted_per_layer_metrics():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    emitted = set(run.layer_metrics(Tracer(), Work(), 0)) | {"cli.import_s", "trace.overhead_share"}
    assert {m["name"] for m in spec["per_layer"]} == emitted
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert all(units[name] == run.unit_of(name) for name in emitted)
