"""Shared-state races: leased scratch, concurrent engines and sessions.

The contract under test (tentpole of the concurrency PR): one compiled
session -- plans, scratch pool, plan cache and all -- may be shared
by any number of threads, and every thread's output is bitwise the
result serial execution would have produced for its input.
"""

import threading

import numpy as np
import pytest

from repro.nn.quantize import quantize_model
from repro.runtime import ExecutionEngine, InferenceSession, PlanCache
from repro.runtime.bench import ModelCase, build_case_model
from repro.runtime.plan import LeaseStats, ScratchPool

pytestmark = pytest.mark.concurrency


def _run_threads(n, fn):
    """Barrier-release ``fn(tid)`` on ``n`` threads; re-raise failures."""
    barrier = threading.Barrier(n)
    errors = []

    def body(tid):
        barrier.wait()
        try:
            fn(tid)
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [
        threading.Thread(target=body, args=(tid,), daemon=True) for tid in range(n)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120.0)
    assert not any(t.is_alive() for t in threads), "worker thread wedged"
    if errors:
        raise errors[0]


class TestScratchPool:
    def test_lease_reuse_single_thread(self):
        pool = ScratchPool()
        with pool.lease() as a:
            a.buf("x", (4, 4), np.float64)
        with pool.lease() as b:
            pass
        assert b is a  # released arena is reused, not reallocated
        assert pool.arenas == 1
        assert pool.stats.grows == 0
        assert pool.stats.acquires == 2 and pool.stats.releases == 2

    def test_grows_under_contention(self):
        pool = ScratchPool()
        a = pool.acquire()
        b = pool.acquire()
        assert a is not b
        assert pool.arenas == 2
        assert pool.stats.grows == 1
        assert pool.stats.in_use == 2 and pool.stats.peak_in_use == 2
        pool.release(a)
        pool.release(b)
        assert pool.stats.in_use == 0

    def test_stats_as_dict(self):
        stats = LeaseStats()
        assert set(stats.as_dict()) == {
            "acquires",
            "releases",
            "grows",
            "in_use",
            "peak_in_use",
        }

    def test_concurrent_leases_are_private(self, make_rng):
        """N threads writing the same buffer name through leases never
        observe each other's data."""
        pool = ScratchPool()
        rng = make_rng()
        payloads = rng.standard_normal((8, 16))

        def worker(tid):
            for _ in range(50):
                with pool.lease() as arena:
                    buf = arena.buf("v", (16,), np.float64)
                    buf[:] = payloads[tid]
                    assert np.array_equal(buf, payloads[tid])

        _run_threads(8, worker)
        assert pool.stats.in_use == 0
        assert pool.arenas <= 8  # at most one arena per peak caller


class TestEngineConcurrency:
    @pytest.fixture
    def engine(self):
        return ExecutionEngine(cache=PlanCache(capacity=64))

    def test_output_never_aliases_scratch(self, engine, make_rng):
        """Outputs must never be views of the leased arena: a later run
        reusing the arena must not rewrite an earlier result."""
        rng = make_rng()
        w = rng.standard_normal((4, 3, 3, 3))
        # Single-tile geometry (m=4, r=3 -> 6x6 input): the assembled
        # output has the transform output's exact extent, so a reshape
        # of scratch would need no copy.
        x1 = rng.standard_normal((1, 3, 6, 6))
        x2 = rng.standard_normal((1, 3, 6, 6))
        y1 = engine.conv2d(x1, w, "lowino", m=4, padding=1)
        snap = y1.copy()
        engine.conv2d(x2, w, "lowino", m=4, padding=1)
        assert np.array_equal(y1, snap)

    @pytest.mark.parametrize("algorithm", ["lowino", "int8_upcast", "int8_downscale"])
    def test_same_plan_same_geometry_bitwise(self, engine, make_rng, algorithm):
        """8 threads hammer one plan + one geometry; each thread's
        outputs are bitwise the serial results for its inputs."""
        rng = make_rng()
        w = rng.standard_normal((8, 4, 3, 3))
        plan = engine.plan_for(w, algorithm, m=2, padding=1)
        inputs = [rng.standard_normal((2, 4, 8, 8)) for _ in range(8)]
        serial = [engine.execute(plan, x) for x in inputs]
        iters = 5
        got = [[None] * iters for _ in range(8)]

        def worker(tid):
            for i in range(iters):
                got[tid][i] = engine.execute(plan, inputs[tid])

        _run_threads(8, worker)
        for tid in range(8):
            for i in range(iters):
                assert np.array_equal(got[tid][i], serial[tid])


class TestSessionConcurrency:
    @pytest.fixture(scope="class")
    def deployed(self):
        """One calibrated quantized model + compiled session, shared."""
        case = ModelCase("vgg", "lowino", hw=16, width=16, m=4)
        model = build_case_model(case)
        rng = np.random.default_rng(7)
        quantize_model(
            model, "lowino", m=4,
            calibration_batches=[rng.standard_normal((2, 3, 16, 16))],
        )
        session = InferenceSession(model, (2, 3, 16, 16))
        return model, session

    def test_eight_threads_bitwise_vs_serial_eager(self, deployed, make_rng):
        """The acceptance criterion: >= 8 threads sharing one session
        (each run leasing scratch) produce outputs bitwise identical to
        serial eager execution of the same inputs."""
        model, session = deployed
        rng = make_rng()
        n_threads, iters = 8, 4
        inputs = [rng.standard_normal((2, 3, 16, 16)) for _ in range(n_threads)]
        expected = [model(x) for x in inputs]
        got = [[None] * iters for _ in range(n_threads)]

        def worker(tid):
            for i in range(iters):
                got[tid][i] = session.run(inputs[tid])

        _run_threads(n_threads, worker)
        for tid in range(n_threads):
            for i in range(iters):
                assert np.array_equal(got[tid][i], expected[tid])

    def test_stats_counters_are_exact_under_races(self, deployed, make_rng):
        model, session = deployed
        session.reset_stats()
        rng = make_rng()
        x = rng.standard_normal((2, 3, 16, 16))
        n_threads, iters = 8, 3

        def worker(tid):
            for _ in range(iters):
                session.run(x)

        _run_threads(n_threads, worker)
        assert session.runs == n_threads * iters
        assert session.images_seen == n_threads * iters * 2
        if session.collect_timings:
            timings = session.layer_timings()
            assert timings and all(v >= 0.0 for v in timings.values())
