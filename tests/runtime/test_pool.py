"""Persistent worker pool: partition semantics, reuse, error paths."""

import threading
import traceback

import numpy as np
import pytest

from repro.gemm import BlockingParams, batched_gemm_blocked, compensation_term
from repro.layout import pack_transformed_filters, pack_transformed_inputs
from repro.parallel.scheduler import StaticSchedule
from repro.runtime.pool import WorkerPool, _Latch, get_pool, shutdown_pool

from tests.rngutil import derive_rng


@pytest.fixture
def pool():
    p = WorkerPool(4)
    yield p
    p.shutdown()


class TestRunPartitioned:
    @pytest.mark.parametrize("tasks,omega", [(16, 4), (7, 3), (1, 4), (0, 2), (5, 8)])
    def test_covers_every_task_once(self, pool, tasks, omega):
        hits = np.zeros(tasks, dtype=np.int64)
        lock = threading.Lock()

        def fn(start, stop):
            with lock:
                hits[start:stop] += 1

        pool.run_partitioned(fn, tasks, omega)
        assert np.all(hits == 1)

    def test_matches_static_schedule_partitions(self, pool):
        """The pool dispatches exactly the static schedule's ranges."""
        seen = []
        lock = threading.Lock()

        def fn(start, stop):
            with lock:
                seen.append((start, stop))

        pool.run_partitioned(fn, 13, 4)
        expected = [
            (p.start, p.stop)
            for p in StaticSchedule.for_tasks(13, 4).partitions
            if p.size > 0
        ]
        assert sorted(seen) == sorted(expected)

    def test_serial_omega_runs_inline(self, pool):
        thread_ids = []
        pool.run_partitioned(lambda s, e: thread_ids.append(threading.get_ident()), 8, 1)
        assert thread_ids == [threading.get_ident()]
        assert pool.stages_run == 0  # inline work is not dispatched

    def test_exception_propagates(self, pool):
        def fn(start, stop):
            if start == 0:
                raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="boom"):
            pool.run_partitioned(fn, 8, 4)
        # The pool survives a failed stage.
        pool.run_partitioned(lambda s, e: None, 8, 4)

    def test_reuse_across_stages(self, pool):
        for _ in range(5):
            pool.run_partitioned(lambda s, e: None, 8, 4)
        assert pool.stages_run == 5
        assert pool.dispatched_ranges == 20
        assert pool.workers == 4  # same threads, no respawn

    def test_closed_pool_falls_back_to_inline(self):
        p = WorkerPool(2)
        p.shutdown()
        hits = []
        p.run_partitioned(lambda s, e: hits.append((s, e)), 4, 2)
        assert len(hits) == 2  # still correct, just serial

    def test_worker_count_validation(self):
        with pytest.raises(ValueError):
            WorkerPool(0)


class TestNestedDispatch:
    def test_worker_thread_call_runs_inline(self, pool):
        """run_partitioned from inside a worker must not re-dispatch:
        nested dispatch waits on workers that are already busy."""
        inner_threads = []
        lock = threading.Lock()

        def inner(start, stop):
            with lock:
                inner_threads.append(threading.get_ident())

        def outer(start, stop):
            pool.run_partitioned(inner, 8, 4)

        # Would deadlock before the inline-detection fix: 4 outer ranges
        # occupy all 4 workers, each waiting on an inner latch no free
        # worker can release.
        pool.run_partitioned(outer, 4, 4)
        # Every nested call ran on the worker thread that made it.
        assert set(inner_threads) <= {t.ident for t in pool._threads}
        # Outer stage (and any pre-registration) only; inner calls were
        # never dispatched as stages.
        assert pool.stages_run == 1

    def test_nested_results_still_correct(self, pool):
        hits = np.zeros(16, dtype=np.int64)
        lock = threading.Lock()

        def inner(start, stop):
            with lock:
                hits[start:stop] += 1

        pool.run_partitioned(lambda s, e: pool.run_partitioned(inner, 16, 4), 2, 2)
        assert np.all(hits == 2)  # once per outer partition


class TestExceptionPropagation:
    def test_original_traceback_surfaced(self, pool):
        def exploding_partition(start, stop):
            raise RuntimeError("partition blew up")

        with pytest.raises(RuntimeError, match="partition blew up") as info:
            pool.run_partitioned(exploding_partition, 8, 4)
        frames = traceback.extract_tb(info.value.__traceback__)
        assert any(f.name == "exploding_partition" for f in frames), (
            "the re-raised error must carry the worker frame that raised"
        )

    def test_multiple_failing_partitions_release_latch(self, pool):
        def fn(start, stop):
            raise ValueError(f"range {start}:{stop}")

        # All four partitions raise; the latch must still count down to
        # zero (no wedge) and surface one of the originals.
        with pytest.raises(ValueError, match="range"):
            pool.run_partitioned(fn, 8, 4)

    def test_pool_serves_next_stage_after_failure(self, pool):
        def fn(start, stop):
            if start == 0:
                raise RuntimeError("boom")

        for _ in range(3):
            with pytest.raises(RuntimeError):
                pool.run_partitioned(fn, 8, 4)
            hits = np.zeros(8, dtype=np.int64)
            lock = threading.Lock()

            def ok(start, stop):
                with lock:
                    hits[start:stop] += 1

            pool.run_partitioned(ok, 8, 4)
            assert np.all(hits == 1)
        assert pool.workers == 4  # no worker died with the stage


class TestDrainShutdown:
    def test_shutdown_waits_for_active_stage(self):
        pool = WorkerPool(2)
        release = threading.Event()
        done = []

        def slow(start, stop):
            release.wait(timeout=10.0)
            done.append((start, stop))

        stage = threading.Thread(
            target=pool.run_partitioned, args=(slow, 4, 2), daemon=True
        )
        stage.start()
        while pool._active == 0 and stage.is_alive():
            pass  # wait until the stage registered
        closer = threading.Thread(target=pool.shutdown, daemon=True)
        closer.start()
        # Drain-shutdown must block while the stage is in flight.
        closer.join(timeout=0.2)
        assert closer.is_alive()
        release.set()
        stage.join(timeout=10.0)
        closer.join(timeout=10.0)
        assert not closer.is_alive()
        assert len(done) == 2  # both partitions completed, none dropped


class TestNonDrainingShutdown:
    def test_latch_bounded_wait(self):
        latch = _Latch(1)
        assert latch.wait(timeout=0.05) is False
        latch.count_down()
        assert latch.wait(timeout=0.05) is True

    def test_shutdown_racing_dispatch_errors_instead_of_hanging(self):
        """shutdown(drain=False) between a caller registering active and
        enqueueing its partitions used to hang the caller forever on the
        latch; it must raise instead."""

        class _HijackQueue:
            """Delegating queue that fires a callback before the first
            stage item lands (sentinels pass through untouched)."""

            def __init__(self, inner, on_first_item):
                self._inner = inner
                self._on_first = on_first_item
                self._fired = False

            def put(self, item):
                if item is not None and not self._fired:
                    self._fired = True
                    self._on_first()
                self._inner.put(item)

            def get(self):
                return self._inner.get()

            def get_nowait(self):
                return self._inner.get_nowait()

        pool = WorkerPool(2)
        pool._queue = _HijackQueue(
            pool._queue, lambda: pool.shutdown(drain=False)
        )
        with pytest.raises(RuntimeError, match="shut down"):
            pool.run_partitioned(lambda s, e: None, tasks=8, omega=2)

    def test_shutdown_fails_partitions_left_behind_sentinels(self):
        """Stage items queued behind the shutdown sentinels are never
        picked up by a worker; shutdown must fail their latch so blocked
        callers wake instead of hanging."""
        pool = WorkerPool(1)
        gate = threading.Event()
        busy = _Latch(1)
        pool._queue.put((lambda s, e: gate.wait(10.0), 0, 1, busy))
        orphan = _Latch(1)
        pool._queue.put(None)  # worker exits here, before the orphan
        pool._queue.put((lambda s, e: None, 1, 2, orphan))
        gate.set()
        pool.shutdown(drain=False)
        with pytest.raises(RuntimeError, match="before executing"):
            orphan.wait(timeout=5.0)
        assert busy.wait(timeout=5.0)  # the in-flight item completed


class TestDefaultPool:
    def test_explicit_nonpositive_workers_rejected(self):
        """get_pool(0) used to fall through ``workers or cpu_count()``
        and silently size the pool to the machine."""
        shutdown_pool()
        with pytest.raises(ValueError, match=">= 1"):
            get_pool(0)
        with pytest.raises(ValueError, match=">= 1"):
            get_pool(-3)
        assert get_pool(2).workers >= 2  # pool still creatable after
        shutdown_pool()

    def test_growth_drains_old_pool_mid_stage(self):
        """Growing the default pool must not shut the old pool down under
        a caller mid-stage (which used to flip it to serial / drop it)."""
        shutdown_pool()
        old = get_pool(2)
        release = threading.Event()
        hits = np.zeros(8, dtype=np.int64)
        lock = threading.Lock()

        def slow(start, stop):
            release.wait(timeout=10.0)
            with lock:
                hits[start:stop] += 1

        stage = threading.Thread(
            target=old.run_partitioned, args=(slow, 8, 2), daemon=True
        )
        stage.start()
        while old._active == 0 and stage.is_alive():
            pass
        new = get_pool(old.workers + 2)  # triggers background retirement
        assert new is not old
        assert not old._closed  # old pool still open: stage in flight
        release.set()
        stage.join(timeout=10.0)
        assert np.all(hits == 1)  # the in-flight stage completed intact
        # Background drain retires the old pool once idle.
        for _ in range(1000):
            if old._closed:
                break
            threading.Event().wait(0.01)
        assert old._closed
        assert get_pool() is new
        shutdown_pool()

    def test_lazy_creation_and_growth(self):
        shutdown_pool()
        p1 = get_pool(2)
        assert p1.workers >= 2
        p2 = get_pool(2)
        assert p2 is p1  # same pool reused
        p3 = get_pool(p1.workers + 2)  # grows, never shrinks
        assert p3.workers == p1.workers + 2
        assert get_pool(1) is p3
        shutdown_pool()

    def test_shutdown_then_recreate(self):
        shutdown_pool()
        p = get_pool(2)
        shutdown_pool()
        assert get_pool(2) is not p
        shutdown_pool()


class TestBlockedGemmOnPool:
    def test_parallel_gemm_exact_and_pool_reused(self):
        """The blocked GEMM's omega > 1 path runs on the persistent pool
        and stays bit-identical to the serial result."""
        shutdown_pool()
        rng = derive_rng(99)
        t, n, c, k = 4, 40, 24, 128
        v = rng.integers(-128, 128, (t, n, c)).astype(np.int8)
        u = rng.integers(-128, 128, (t, c, k)).astype(np.int8)
        params = BlockingParams(n_blk=12, c_blk=8, k_blk=64, row_blk=6, col_blk=4)
        vbar = (v.astype(np.int16) + 128).astype(np.uint8)
        vp = pack_transformed_inputs(vbar, params.n_blk, params.c_blk)
        up = pack_transformed_filters(u, params.c_blk, params.k_blk)
        zbar = compensation_term(u)
        serial = batched_gemm_blocked(vp, up, zbar, params, n, c, k, omega=1)
        parallel = batched_gemm_blocked(vp, up, zbar, params, n, c, k, omega=4)
        assert np.array_equal(serial, parallel)
        pool = get_pool()
        assert pool.stages_run >= 1
        before = pool.stages_run
        batched_gemm_blocked(vp, up, zbar, params, n, c, k, omega=4)
        assert get_pool() is pool and pool.stages_run == before + 1
        shutdown_pool()
