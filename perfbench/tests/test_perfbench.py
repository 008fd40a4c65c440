"""The benchmark's own tests.

    python3 -m pytest perfbench/tests -q

They cover the metric names and units against BENCHMARK.json, the tail
percentile rule, matching requests to batches in FIFO order, the span
self-time rule, failure accounting, and every workload in both modes
with a one-second measuring window.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from collections import deque
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import offline  # noqa: E402
import run as cli  # noqa: E402
import serving  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# ---------------------------------------------------------------------------
# BENCHMARK.json
# ---------------------------------------------------------------------------


def test_spec_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["perfbench"]
    assert SPEC["command"][1] == "perfbench/run.py"
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert [w["name"] for w in SPEC["workloads"]] == list(cli.WORKLOADS)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"])
        assert m["better"] in ("lower", "higher")


def test_setup_metric_has_the_largest_bound():
    e2e = {m["name"]: m for m in SPEC["end_to_end"]}
    setup = e2e["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_select_metrics_rejects_unknown_names_and_units():
    wrong_unit = harness.Result()
    wrong_unit.metric("setup_s", 1.0, "ms")
    with pytest.raises(ValueError):
        cli.select_metrics(wrong_unit, SPEC, trace=True)
    unknown = harness.Result()
    unknown.metric("made.up_metric", 1.0, "s")
    with pytest.raises(KeyError):
        cli.select_metrics(unknown, SPEC, trace=True)
    missing = harness.Result()
    with pytest.raises(KeyError):
        cli.select_metrics(missing, SPEC, trace=False)


# ---------------------------------------------------------------------------
# statistics and spans
# ---------------------------------------------------------------------------


def test_tail_is_eleventh_largest_with_its_percentile():
    value, q, n = harness.tail(list(range(1, 101)))
    assert (value, q, n) == (90.0, 90.0, 100)
    value, q, n = harness.tail(list(range(1000)))
    assert value == 989.0 and q == pytest.approx(99.0)


def test_tail_leaves_exactly_ten_beyond():
    rng = np.random.default_rng(3)
    for n in (11, 57, 1180, 4321):
        x = rng.exponential(size=n)
        value, q, count = harness.tail(x)
        assert count == n and np.sum(x > value) == 10
        # nearest rank at q selects the same sample
        assert np.sort(x)[int(np.ceil(q / 100 * n - 1e-9)) - 1] == value


def test_tail_with_too_few_samples_is_the_maximum():
    assert harness.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    assert harness.tail([]) == (0.0, 0.0, 0)


def test_self_time_subtracts_covered_children_and_laps():
    spans = harness.Spans()
    root = spans.add("parent", 0.0, 10.0)
    spans.add("child", 1.0, 3.0, parent=root)
    spans.add("child", 2.0, 5.0, parent=root)  # overlaps the first
    spans.add("child", 7.0, 8.0, parent=root)
    spans.add("run", 20.0, 24.0, laps={"gemm": 1.5, "op": 0.5})
    st = spans.self_times()
    assert st["parent"] == pytest.approx(10.0 - 5.0)
    assert st["run"] == pytest.approx(2.0)


def test_timed_calls_restores_the_method():
    class Layer:
        def apply(self, x):
            return x + 1

    calls = []
    original = Layer.apply
    with harness.timed_calls(Layer, "apply", calls):
        assert Layer().apply(1) == 2
    assert Layer.apply is original and len(calls) == 1 and calls[0][0] <= calls[0][1]


# ---------------------------------------------------------------------------
# FIFO matching
# ---------------------------------------------------------------------------


def test_fifo_match_small_case():
    assert serving.match_fifo([1, 2, 1, 4, 3, 1], [3, 1, 4, 4]) == [0, 0, 1, 2, 3, 3]
    with pytest.raises(ValueError):
        serving.match_fifo([2, 2], [3, 1])  # second request straddles
    with pytest.raises(ValueError):
        serving.match_fifo([1, 1], [1, 1, 1])  # a batch with no request
    with pytest.raises(ValueError):
        serving.match_fifo([1, 1, 1], [1, 1])


def test_fifo_match_recovers_a_simulated_coalescing_schedule():
    """One worker, FIFO queue, max_batch images per batch, coalescing
    window: the matcher must recover each request's batch from nothing
    but the batch image counts."""
    rng = np.random.default_rng(7)
    n = 2000
    arrivals = np.cumsum(rng.exponential(1 / 300.0, size=n))
    sizes = rng.integers(1, 5, size=n)
    max_batch, window, service = 16, 0.002, 0.004
    queue = deque(range(n))
    truth, runs, t, b = [0] * n, [], 0.0, 0
    while queue:
        head = queue[0]
        t = max(t, arrivals[head])
        close = max(t, arrivals[head] + window)
        images = 0
        members = []
        while queue and arrivals[queue[0]] <= close and images + sizes[queue[0]] <= max_batch:
            images += sizes[queue[0]]
            members.append(queue.popleft())
        for i in members:
            truth[i] = b
        runs.append(images)
        t = close + service
        b += 1
    assert serving.match_fifo(list(sizes), runs) == truth


# ---------------------------------------------------------------------------
# every workload, one-second window
# ---------------------------------------------------------------------------


def _check(res, trace: bool) -> None:
    assert res.correct, (res.failed, res.checks, res.details.get("failures"))
    absent = cli.select_metrics(res, SPEC, trace)
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert [m for m in res.metrics] == [m["name"] for m in wanted]
    if not trace:
        assert not absent
        assert all(m["value"] > 0 for m in res.metrics.values())


@pytest.mark.parametrize("trace", [False, True])
def test_serving_smoke(trace):
    res = serving.run(5, 1.0, trace)
    assert len(res.details["setup_runs_s"]) == (1 if trace else serving.SETUPS)
    if trace:
        assert all(res.checks.values()), res.details["reconciliation"]
        spans = res.details["spans"]
        assert any(s["name"] == "request" for s in spans.items)
        # the proxy's bookkeeping is its own span, outside wait and reply
        assert any(s["name"] == "bench.overhead" for s in spans.items)
        # the closed loop keeps the queue full, so batches coalesce
        assert res.metrics["serve.batching.batch_images"]["value"] > 4.0
    _check(res, trace)


@pytest.mark.parametrize("trace", [False, True])
def test_offline_smoke(trace):
    res = offline.run(5, 1.0, trace)
    # untraced: later set-up rounds are checked against the first
    # round's eager references
    assert len(res.details["setup_runs_s"]) == (1 if trace else offline.SETUPS)
    if trace:
        assert res.checks["laps_within_steps_within_run"], res.checks
        assert res.metrics["quant.kl_search_s"]["value"] > 0
    _check(res, trace)


def test_mismatch_fails_the_run(monkeypatch):
    flips = iter(range(10**6))
    real = serving.bitwise_equal
    monkeypatch.setattr(serving, "bitwise_equal",
                        lambda a, b: real(a, b) and next(flips) % 7 != 3)
    res = serving.run(5, 1.0, False)
    assert res.failed > 0 and not res.correct
    assert res.details["failures"]["mismatch"] == res.failed
    assert res.metrics["completed_frac"]["value"] < 1.0


def test_cli_prints_result_last_and_fails_on_bad_output(monkeypatch, capsys):
    bad = harness.Result()
    bad.attempted, bad.failed = 3, 1
    bad.details.update(inputs_digest="0" * 64, host_probe_us=[1.0], latency_samples=0,
                       latency_tail_percentile=0.0, slo_ms=1.0, setup_runs_s=[1.0])
    for m in SPEC["end_to_end"]:
        bad.metric(m["name"], 1.0, m["unit"])
    monkeypatch.setattr(cli, "run_workload", lambda *a: bad)
    code = cli.main(["--workload", "serve-saturated", "--seed", "1", "--seconds", "1"])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1 and last["correct"] is False
    assert set(last) == {"correct", "attempted", "failed", "metrics"}


def test_cli_end_to_end(tmp_path):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-saturated",
         "--seed", "3", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stderr
    last = json.loads(out.stdout.strip().splitlines()[-1])
    assert last["correct"] and last["attempted"] >= 1 and last["failed"] == 0
    assert list(last["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-saturated",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
