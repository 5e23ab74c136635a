"""Tests of the benchmark itself: tiny smoke runs, tracer arithmetic, coverage guard.

    python3 -m pytest -q perfbench/selftest.py

Not collected by the repository's tier-1 run (the file name does not match
``test_*.py``); each smoke run takes a few seconds.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import tracer  # noqa: E402
from run import WORKLOADS, end_to_end, pass_scales, step_profile, tail  # noqa: E402


@pytest.fixture(scope="module")
def bench():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def test_benchmark_json_names_the_workloads_run_py_runs(bench):
    assert tuple(w["name"] for w in bench["workloads"]) == WORKLOADS


def test_self_time_subtracts_children_and_clips_them():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 3.0, 0],
        ["leaf", 1.5, 2.5, 1],
        ["b", 2.5, 5.0, 0],  # overlaps a: the union is [1, 5]
        ["a", 8.0, 12.0, 0],  # clipped to the parent's end
        ["root", 20.0, 21.0, -1],
    ]
    got = tracer.self_times(spans)
    assert got["root"] == pytest.approx(10.0 - 4.0 - 2.0 + 1.0)
    assert got["a"] == pytest.approx((2.0 - 1.0) + 4.0)
    assert got["leaf"] == pytest.approx(1.0)
    assert got["b"] == pytest.approx(2.5)


def test_tail_keeps_ten_samples_beyond_it():
    samples = list(range(100))
    assert tail(samples) == 89
    assert sum(s > tail(samples) for s in samples) == 10
    assert tail([3, 1, 2]) == 3


def test_scale_multiplies_the_workers_times_only():
    report = {
        "walls": [2.0, 4.0, 3.0],
        "steps": [{"a": 0.5, "b": 1.5}, {"a": 1.0, "b": 3.0}, {"a": 1.0, "b": 1.0}],
        "ops": [{"x": 1.0, "y": 1.0}, {"x": 2.0, "y": 2.0}, {"x": 1.5, "y": 1.5}],
        "top": ("x",),
        "peak_rss_kb": 2048,
    }
    one = end_to_end(report, [0.3, 0.1, 0.2], [1.0, 1.0, 1.0])
    half = end_to_end(report, [0.3, 0.1, 0.2], [0.5, 0.5, 0.5])
    assert one["wall_s"][0] == 3.0 and half["wall_s"][0] == 1.5
    assert one["top_op_s"][0] == 1.5 and half["top_op_s"][0] == 0.75
    assert one["step_p50_ms"][0] == pytest.approx(1250.0)  # medians per step: a 1.0, b 1.5
    assert one["checks_per_s"][0] == pytest.approx(1.0)  # per-pass rates 1.0, 0.5, 1.0
    assert half["checks_per_s"][0] == pytest.approx(2.0)
    assert one["setup_s"] == half["setup_s"] == (0.2, "s")
    assert one["peak_rss_mb"] == half["peak_rss_mb"] == (2.0, "MB")
    # each pass takes its own scale: the slow second pass is scaled down to the others
    even = end_to_end(report, [0.3, 0.1, 0.2], [1.5, 0.75, 1.0])
    assert [even[m][0] for m in ("wall_s", "top_op_s")] == [3.0, 1.5]
    assert even["checks_per_s"][0] == pytest.approx(2.0 / 3.0)


def test_step_profile_takes_each_steps_median_over_the_passes():
    steps = [{"a": 1.0, "b": 2.0}, {"a": 3.0, "b": 2.0}, {"a": 2.0, "b": 8.0}]
    assert step_profile(steps, [1.0, 1.0, 1.0]) == [2.0, 2.0]  # the stall in pass 3 is dropped
    assert step_profile(steps, [1.0, 0.5, 1.0]) == [1.5, 2.0]
    assert step_profile([{}, {}], [1.0, 1.0]) == []


def test_pass_scale_pools_the_neighbouring_passes():
    cal = [[1.0], [2.0, 2.0], [4.0], [8.0]]
    assert pass_scales(cal, 2.0) == pytest.approx([1.0, 1.0, 2.0 / 3.0, 1.0 / 3.0])


def test_guard_fails_when_a_binding_site_is_gone(monkeypatch):
    import waveobs.power

    monkeypatch.delattr(waveobs.power, "solve_hum")
    tr = tracer.Tracer()
    with pytest.raises(tracer.CoverageError, match="hum.solve_hum"):
        tr.install()
    import waveobs.hum

    assert not hasattr(waveobs.hum.assemble_gram, "__wrapped__")  # nothing left installed


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_emits_every_metric(bench, workload, trace, kind):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in bench[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    if trace == 0:
        assert all(v["value"] > 0 for v in result["metrics"].values())
