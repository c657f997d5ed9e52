"""Tests of the benchmark itself: output schema, smoke runs, span arithmetic,
and that corrupted outputs count as failures."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import phase  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *map(str, args)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def _check_schema(result: dict, declared: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


def test_spec_names_match_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert SPEC["paths"] == ["perfbench"]
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    derived = spans.layer_metrics([], 1, 0.0, 0.0)
    assert per_layer == set(derived)


def test_end_to_end_output_schema():
    result = _bench("--workload", "n9-completeness", "--seed", 5, "--seconds", 0.01,
                    "--trace", 0)
    _check_schema(result, SPEC["end_to_end"])
    assert result["metrics"]["setup_s"]["value"] > 0


def test_traced_output_schema():
    result = _bench("--workload", "n9-completeness", "--seed", 5, "--seconds", 0.01,
                    "--trace", 1)
    _check_schema(result, SPEC["per_layer"])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["robustize.count_satisfied_calls"] == 2049
    assert metrics["hadamard.path_calls"] == 8
    assert metrics["cli.commands"] == 0


def test_run_fails_without_package_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-roundtrip", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


@pytest.mark.parametrize("name, picks", [
    ("micro-pipeline", [1, 3]),  # one equal-endpoint and one one-move item
    ("n9-completeness", [0]),
    ("cli-roundtrip", [0]),
])
def test_smoke_each_workload(tmp_path, name, picks):
    workload = WORKLOADS[name]
    items = workload.make_items(7, max(picks) + 1, tmp_path)
    for index in picks:
        out, problems, values = phase.attempt(workload, items[index])
        assert problems == []
        assert values
        if hasattr(workload, "cleanup"):
            workload.cleanup(items[index])
    assert list(tmp_path.glob("item*")) == []


def test_run_items_is_deterministic(tmp_path):
    workload = WORKLOADS["n9-completeness"]
    first = phase.run_items(workload, workload.make_items(3, 1, tmp_path), 0.0, 1)
    second = phase.run_items(workload, workload.make_items(3, 1, tmp_path), 0.0, 1)
    assert first["failures"] == [] and len(first["latencies"]) == 1
    assert first["digest"] == second["digest"]


def test_corrupted_stage_is_a_failure(tmp_path):
    from reconfcsp.core import Value

    workload = WORKLOADS["micro-pipeline"]
    item = workload.make_items(2, 1, tmp_path)[0]
    result = workload.execute(item)
    assert workload.check(item, result)[0] == []
    stage = result.stages[2]
    result.stages[2] = type(stage)(**{**vars(stage), "maxmin": Value(0, stage.edges)})
    problems, _ = workload.check(item, result)
    assert problems and "composed-4ary" in problems[0]


def test_corrupted_extraction_is_counted_failed(tmp_path, monkeypatch):
    from reconfcsp import robustize
    from reconfcsp.core import ReconfigSequence

    original = robustize.extract_psi_sequence

    def corrupt(system, sigma_seq):
        return ReconfigSequence(original(system, sigma_seq).steps[:-1])

    monkeypatch.setattr(robustize, "extract_psi_sequence", corrupt)
    workload = WORKLOADS["n9-completeness"]
    run = phase.run_items(workload, workload.make_items(3, 1, tmp_path), 0.0, 1)
    assert len(run["latencies"]) == 1
    assert len(run["failures"]) == 1 and "wrong endpoints" in run["failures"][0]


def test_cli_failure_is_counted(tmp_path):
    workload = WORKLOADS["cli-roundtrip"]
    item = workload.make_items(4, 1, tmp_path)[0]
    item["commands"][1] += ["--budget", "10"]  # solve now refuses the instance
    run = phase.run_items(workload, [item], 0.0, 1)
    assert len(run["failures"]) == 1


def _span(name, start, end, parent=-1, counts=None):
    return (name, start, end, parent, 0, counts)


def test_self_time_arithmetic():
    tree = [
        _span("item", 0.0, 10.0),                              # 0
        _span("compose.full_pipeline", 1.0, 9.0, 0),           # 1
        _span("compose.arity_reduce", 2.0, 5.0, 1,
              {"cells": 900, "accepts": 40}),                  # 2
        _span("compose.stage_maxmin", 5.0, 8.0, 1),            # 3
        _span("solver.maxmin_value", 5.5, 7.5, 3),             # 4
        _span("solver.reachable_at_threshold", 6.0, 7.0, 4, {"states": 64}),  # 5
        _span("core.graph_build", 10.5, 11.0, -1, {"accepts": 40}),           # 6
    ]
    assert spans.self_times(tree) == pytest.approx([2.0, 2.0, 3.0, 1.0, 1.0, 1.0, 0.5])
    metrics = spans.layer_metrics(tree, 2, traced_wall=10.0, untraced_wall=9.0)
    assert metrics["compose.full_pipeline_s"] == pytest.approx(1.0)
    assert metrics["compose.arity_reduce_s"] == pytest.approx(1.5)
    assert metrics["solver.reach_s"] == pytest.approx(0.5)
    assert metrics["solver.bfs_passes"] == 0.5
    assert metrics["solver.states"] == 32
    assert metrics["compose.cell_alphabet_total"] == 450
    assert metrics["core.graph_build_s"] == pytest.approx(0.25)
    assert metrics["trace.unattributed_s"] == pytest.approx(1.0)
    assert metrics["trace.overhead_s"] == pytest.approx(0.5)


def test_self_time_clips_overlapping_children():
    tree = [
        _span("item", 0.0, 4.0),
        _span("cli.main", 1.0, 3.0, 0),
        _span("cli.main", 2.0, 5.0, 0),  # overlaps its sibling and outlives the parent
    ]
    assert spans.self_times(tree)[0] == pytest.approx(1.0)


def test_install_wraps_every_binding_and_restores():
    from reconfcsp import compose, robustize, solver
    from reconfcsp.core import Assignment, ConstraintGraph, ReconfInstance

    graph = ConstraintGraph(q=2, vertices=("u", "w"), edges=(("u", "w"),), alphabet=2,
                            accepts=(frozenset({(0, 0), (1, 1)}),))
    instance = ReconfInstance(graph, Assignment({"u": 0, "w": 0}), Assignment({"u": 1, "w": 1}))
    before = (compose.count_satisfied, robustize.count_satisfied, solver.maxmin_value)
    recorder = spans.SpanRecorder()
    restore = spans.install(recorder)
    try:
        assert compose.count_satisfied is robustize.count_satisfied is not before[0]
        assert solver.maxmin_value(instance).optimum == 0
    finally:
        restore()
    assert (compose.count_satisfied, robustize.count_satisfied, solver.maxmin_value) == before
    names = [span[0] for span in recorder.spans]
    assert names[0] == "solver.maxmin_value"
    assert names[1:] == ["solver.reachable_at_threshold"] * (len(names) - 1)
    assert all(span[3] == 0 and span[5] == {"states": 4} for span in recorder.spans[1:])
