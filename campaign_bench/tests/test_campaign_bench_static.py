"""Benchmark definition: scenario sets, metric catalogue, span arithmetic."""

import json
import pathlib

import pytest

import metrics
import tracing
import workloads

ROOT = pathlib.Path(__file__).resolve().parents[2]


@pytest.mark.parametrize(
    "name, count, experiments",
    [
        ("memload-serial", 22, {"MEMLOAD-VM", "MEMLOAD-SOURCE", "MEMLOAD-TARGET",
                                "CONSOLIDATION-CPU"}),
        ("table7-2w", 42, {"CPULOAD-SOURCE", "CPULOAD-TARGET", "MEMLOAD-VM",
                           "MEMLOAD-SOURCE", "MEMLOAD-TARGET"}),
    ],
)
def test_workload_builds_its_scenario_set(name, count, experiments):
    workload = workloads.WORKLOADS[name]
    scenarios = workloads.scenarios_for(workload)
    assert len(scenarios) == count == workload.expected_scenarios
    assert len({s.label for s in scenarios}) == count
    assert {s.experiment for s in scenarios} == experiments
    assert all(s.family == "m" for s in scenarios)


def test_memload_consolidation_scenarios_are_manager_driven():
    scenarios = workloads.scenarios_for(workloads.WORKLOADS["memload-serial"])
    managed = [s for s in scenarios if s.experiment == "CONSOLIDATION-CPU"]
    assert len(managed) == 4
    assert all(s.driver == "manager" for s in managed)


def test_benchmark_json_matches_the_metric_catalogue():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == [
        tuple(m) for m in metrics.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in metrics.PER_LAYER
    ]
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_layer_metrics_emit_only_catalogued_names():
    names = {name for name, _, _ in metrics.PER_LAYER}
    emitted = tracing.layer_metrics([tracing.SpanRecorder().to_dict()], 1.0, lanes=1)
    assert set(emitted) <= names


def _tree() -> dict:
    """root(a) 0..100 -> b 10..40 -> c 15..25 ; root -> c 50..60 ; lone b 200..210."""
    rec = tracing.SpanRecorder()
    for name in ("a", "b", "c"):
        rec.layer_id(name)
    rows = [  # (layer, start, end, parent)
        (0, 0, 100, -1),
        (1, 10, 40, 0),
        (2, 15, 25, 1),
        (2, 50, 60, 0),
        (1, 200, 210, -1),
    ]
    for layer, start, end, parent in rows:
        rec.layer.append(layer)
        rec.start.append(start * 1_000_000_000)
        rec.end.append(end * 1_000_000_000)
        rec.parent.append(parent)
        rec.run.append(0)
    return rec.to_dict()


def test_self_time_subtracts_direct_children_only():
    own = tracing.self_times(_tree())
    assert own == pytest.approx({"a": 100 - 30 - 10, "b": (30 - 10) + 10, "c": 10 + 10})
    # Self times partition the root spans' wall time.
    assert sum(own.values()) == pytest.approx(100 + 10)


def test_span_totals_count_calls_and_outermost_inclusive_time():
    totals = tracing.span_totals(_tree())
    assert totals["a"] == (1, 1, pytest.approx(100))
    assert totals["b"] == (2, 2, pytest.approx(30 + 10))
    assert totals["c"] == (2, 2, pytest.approx(10 + 10))


def test_span_totals_do_not_count_a_layer_nested_in_itself_twice():
    rec = tracing.SpanRecorder()
    kernels = rec.layer_id("kernels")
    outer = rec.open(kernels)
    inner = rec.open(kernels)
    rec.close(inner)
    rec.close(outer)
    calls, outermost, seconds = tracing.span_totals(rec.to_dict())["kernels"]
    assert (calls, outermost) == (2, 1)
    dump = rec.to_dict()
    assert seconds == pytest.approx((dump["end"][0] - dump["start"][0]) / 1e9)


def test_recorder_nests_spans_and_inherits_run_ids():
    rec = tracing.SpanRecorder()
    outer = rec.open(rec.layer_id("runner"), run="scenario#0")
    inner = rec.open(rec.layer_id("memory"))
    rec.close(inner)
    rec.close(outer)
    after = rec.open(rec.layer_id("memory"))
    rec.close(after)
    dump = rec.to_dict()
    assert dump["parent"] == [-1, 0, -1]
    assert [dump["runs"][i] for i in dump["run"]] == ["scenario#0", "scenario#0", ""]
    assert all(e >= s for s, e in zip(dump["start"], dump["end"]))
