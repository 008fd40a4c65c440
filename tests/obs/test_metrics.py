"""Metrics primitives: counters, gauges, reservoir histograms, registry."""

import threading

import numpy as np
import pytest

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Sample,
    format_metric_name,
    nearest_rank,
)


class TestCounter:
    def test_exact_under_8_threads(self):
        counter = Counter("hits")
        n_threads, per_thread = 8, 10_000
        barrier = threading.Barrier(n_threads)

        def worker():
            barrier.wait()
            for _ in range(per_thread):
                counter.inc()

        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
        assert counter.value == n_threads * per_thread

    def test_negative_increment_rejected(self):
        counter = Counter("hits")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_reset(self):
        counter = Counter("hits")
        counter.inc(5)
        counter.reset()
        assert counter.value == 0


class TestGauge:
    def test_set_and_set_max(self):
        gauge = Gauge("depth")
        gauge.set(3.0)
        gauge.set_max(2.0)
        assert gauge.value == 3.0
        gauge.set_max(7.0)
        assert gauge.value == 7.0

    def test_callback_backed(self):
        state = {"v": 1.0}
        gauge = Gauge("depth", fn=lambda: state["v"])
        assert gauge.value == 1.0
        state["v"] = 9.0
        assert gauge.value == 9.0
        # reset leaves callback gauges alone (they are live views)
        gauge.reset()
        assert gauge.value == 9.0


class TestNearestRank:
    def test_matches_numpy_inverted_cdf_on_random_streams(self):
        rng = np.random.default_rng(7)
        for trial in range(20):
            n = int(rng.integers(1, 400))
            values = rng.normal(size=n) * float(rng.uniform(0.1, 50))
            ordered = sorted(values.tolist())
            for q in (0.0, 1.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0, 100.0):
                expected = float(
                    np.percentile(values, q, method="inverted_cdf")
                )
                assert nearest_rank(ordered, q) == pytest.approx(expected), (
                    f"trial {trial} n={n} q={q}"
                )

    def test_p100_is_max_and_empty_is_zero(self):
        assert nearest_rank([3.0, 1.0, 2.0][:0], 95) == 0.0
        assert nearest_rank(sorted([5.0, 1.0, 9.0]), 100) == 9.0


class TestHistogram:
    def test_exact_aggregates_with_bounded_reservoir(self):
        hist = Histogram("lat", max_samples=64)
        values = [float(i) for i in range(1000)]
        for v in values:
            hist.observe(v)
        assert hist.count == 1000
        assert hist.total == sum(values)
        assert hist.min == 0.0
        assert hist.max == 999.0
        assert len(hist.samples()) == 64

    def test_reservoir_is_seeded_deterministic(self):
        a, b = Histogram("x", seed=5), Histogram("x", seed=5)
        for i in range(5000):
            a.observe(i)
            b.observe(i)
        assert a.samples() == b.samples()

    def test_reservoir_tracks_distribution_shift(self):
        # Algorithm R keeps a uniform sample of the WHOLE stream: after
        # 4x more high-mode samples arrive than the reservoir holds, the
        # percentiles must move off the warmup mode.  (The bug this
        # guards against: first-N retention pins p95 to warmup forever.)
        hist = Histogram("lat", max_samples=256, seed=3)
        for _ in range(1024):
            hist.observe(1.0)
        assert hist.percentile(95) == 1.0
        for _ in range(4096):
            hist.observe(10.0)
        assert hist.percentile(95) == 10.0
        assert hist.percentile(50) == 10.0

    def test_snapshot_consistent_under_concurrent_observes(self):
        hist = Histogram("lat", max_samples=128)
        stop = threading.Event()
        errors = []

        def writer(offset):
            i = 0
            while not stop.is_set():
                hist.observe(float(offset + (i % 100)))
                i += 1

        def reader():
            try:
                while not stop.is_set():
                    snap = hist.snapshot()
                    assert snap["count"] >= 0
                    if snap["count"]:
                        assert snap["min"] <= snap["p50"] <= snap["max"]
                        assert snap["p50"] <= snap["p95"] <= snap["p99"]
                        assert snap["sum"] >= snap["count"] * snap["min"]
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(k,)) for k in range(4)]
        threads.append(threading.Thread(target=reader))
        for t in threads:
            t.start()
        import time

        time.sleep(0.3)
        stop.set()
        for t in threads:
            t.join(timeout=30.0)
        assert not errors
        snap = hist.snapshot()
        assert snap["count"] == hist.count
        assert len(hist.samples()) <= 128


class TestRegistry:
    def test_get_or_create_identity(self):
        reg = MetricsRegistry()
        a = reg.counter("hits", model="m1")
        b = reg.counter("hits", model="m1")
        c = reg.counter("hits", model="m2")
        assert a is b
        assert a is not c

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("hits")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("hits")

    def test_find_looks_up_without_creating(self):
        reg = MetricsRegistry()
        hist = reg.histogram("lat", model="m1")
        assert reg.find("lat", model="m1") is hist
        # A miss returns None and must NOT mint an empty metric.
        assert reg.find("lat", model="m2") is None
        assert reg.find("nope") is None
        assert len(reg.metrics()) == 1

    def test_snapshot_shape_and_collectors(self):
        reg = MetricsRegistry()
        reg.counter("c_total").inc(3)
        reg.gauge("g").set(2.5)
        reg.histogram("h").observe(1.0)
        reg.register_collector(
            lambda: [Sample("ext", 7.0, {"k": "v"}, "counter")]
        )
        snap = reg.snapshot()
        assert snap["counters"]["c_total"] == 3
        assert snap["gauges"]["g"] == 2.5
        assert snap["histograms"]["h"]["count"] == 1
        assert snap["collected"]['ext{k="v"}'] == 7.0

    def test_failing_collector_is_skipped(self):
        reg = MetricsRegistry()

        def broken():
            raise RuntimeError("boom")

        reg.register_collector(broken)
        reg.register_collector(lambda: [Sample("ok", 1.0)])
        assert "ok" in [s.name for s in reg.collect()]

    def test_failing_collector_is_counted_and_logged_once(self, caplog):
        # Regression: collect() used to drop a raising collector with no
        # trace at all -- a broken collector could quietly blank a
        # dashboard.  Failures must count into a registry counter (so
        # they appear in the very snapshot whose rows went missing) and
        # log exactly one traceback.
        import logging

        reg = MetricsRegistry()

        def broken():
            raise RuntimeError("collector exploded")

        reg.register_collector(broken)
        reg.register_collector(lambda: [Sample("ok", 1.0)])
        with caplog.at_level(logging.WARNING, logger="repro.obs.metrics"):
            for _ in range(3):
                reg.collect()
        # snapshot() reads owned metrics before its own collect pass, so
        # it reports the 3 prior failures (its own pass is the 4th).
        snap = reg.snapshot()
        assert snap["counters"]["repro_collector_errors_total"] == 3
        assert reg.counter("repro_collector_errors_total").value == 4
        assert snap["collected"]["ok"] == 1.0  # healthy rows survive
        warned = [
            r for r in caplog.records
            if "repro_collector_errors_total" in r.getMessage()
        ]
        assert len(warned) == 1, "traceback must be logged exactly once"
        assert "collector exploded" in warned[0].getMessage()

    def test_healthy_registry_has_no_error_counter(self):
        # The counter is minted lazily: a registry whose collectors all
        # succeed keeps its historical snapshot shape.
        reg = MetricsRegistry()
        reg.register_collector(lambda: [Sample("ok", 1.0)])
        snap = reg.snapshot()
        assert "repro_collector_errors_total" not in snap["counters"]

    def test_reset_zeroes_owned_metrics(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(2)
        reg.histogram("h").observe(4.0)
        reg.reset()
        assert reg.counter("c").value == 0
        assert reg.histogram("h").count == 0


class TestFormatMetricName:
    def test_sorted_labels_and_escaping(self):
        assert format_metric_name("m", {}) == "m"
        assert (
            format_metric_name("m", {"b": "2", "a": 'x"y\\z'})
            == 'm{a="x\\"y\\\\z",b="2"}'
        )
