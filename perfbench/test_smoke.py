"""Smoke test of the benchmark on tiny plans.

Run from the repository root: python3 -m pytest -q perfbench
"""

import json
from pathlib import Path

import pytest

import run
import spans

BENCHMARK = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
TINY_LCS = run.Workload("lcs_markov", trials=2,
                        overrides={"schedule": {"start_pow2": 4, "stop_pow2": 6}})
TINY_ENTROPY = run.Workload("entropy_markov", trials=1,
                            overrides={"sample_length": 20_000})


@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_printed_with_its_unit(trace):
    report = run.measure(TINY_LCS, seed=5, seconds=0.0, trace=trace)
    assert report["failed"] == 0
    lines = run.report_lines(report, trace)
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    for metric in declared:
        assert any(line.startswith(f"{metric['name']} ")
                   and f" {metric['unit']}  (" in line for line in lines), metric
    if not trace:
        assert any(line.startswith("fail_frac 0 ratio") for line in lines)
    result = json.loads(run.result_line(report, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert {m["name"]: m["unit"] for m in declared} == {
        name: value["unit"] for name, value in result["metrics"].items()}


def test_corrupted_reference_digest_counts_as_failure():
    reference = {"csv_sha256": "0" * 64, "passed": True}
    report = run.measure(TINY_LCS, seed=5, seconds=0.0, trace=False,
                         reference=reference)
    experiments = [r for r in report["runs"] if not r.get("setup_only")]
    assert report["failed"] == len(experiments) >= 1
    assert json.loads(run.result_line(report, False))["correct"] is False


def test_layer_busy_times_and_self_time_add_up_to_the_traced_wall():
    report = run.measure(TINY_ENTROPY, seed=5, seconds=0.0, trace=True)
    m = report["metrics"]
    assert report["failed"] == 0 and report["unmeasured"] == []
    assert m["entropy.k_evaluated"] > 0 and m["sources.busy_s"] > 0
    top_level = ("sources.busy_s", "encoders.busy_s", "matching.busy_s",
                 "dynamics.busy_s", "geometry.nearest_busy_s",
                 "geometry.dimension_busy_s", "entropy.plateau_busy_s",
                 "harness.self_s")
    assert sum(m[k] for k in top_level) == pytest.approx(m["trace.wall_s"], rel=1e-9)


def test_missing_wrapped_function_leaves_its_layer_unmeasured(monkeypatch):
    monkeypatch.syspath_prepend(str(run.ROOT / "src"))
    import matchdim.matching
    for name, _ in spans.WRAPPED:  # let monkeypatch restore every wrapped attribute
        module_name, *path, attr = name.split(".")
        owner = __import__(f"matchdim.{module_name}", fromlist=["_"])
        for part in path:
            owner = getattr(owner, part)
        monkeypatch.setattr(owner, attr, getattr(owner, attr))
    monkeypatch.delattr(matchdim.matching, "lcs_lengths_over_schedule")
    monkeypatch.delattr(matchdim.matching, "masked_window_lcs")
    recorder = spans.Recorder("test")
    spans.install(recorder)
    assert set(recorder.missing) == {"matching.lcs_lengths_over_schedule",
                                     "matching.masked_window_lcs"}
    assert spans.unmeasured_layers(recorder.missing) == ["matching"]
    matchdim.sources.sample(matchdim.sources.IIDSource([0.5, 0.5]), 10, 1)
    assert [s["name"] for s in recorder.spans] == ["sources.sample"]
    assert recorder.spans[0]["work"] == 10
