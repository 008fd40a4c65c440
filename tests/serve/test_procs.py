"""Process tier: transport, bit-identity, failover, wisdom convergence.

Workers are real spawned processes (the deployment shape the tier
exists for), so these tests lean on one module-scoped server where they
can; each spawn costs an interpreter start plus a model compile.
"""

import os
import threading
import time

import numpy as np
import pytest

from repro.nn.quantize import quantize_model
from repro.runtime.bench import ModelCase, build_case_model
from repro.serve import ProcServer, RemoteExecutionError, ServerOverloaded
from repro.serve.procs import ProcPool, decode_array, encode_array

pytestmark = pytest.mark.concurrency

HW = 8
ITEM = (3, HW, HW)
SHAPE = (2,) + ITEM


@pytest.fixture(scope="module")
def served_model():
    """Calibrated spatial-family model: wisdom swaps can apply to it."""
    case = ModelCase("vgg", "int8_upcast", hw=HW, width=8, m=2)
    model = build_case_model(case)
    rng = np.random.default_rng(11)
    quantize_model(
        model, "int8_upcast", m=2,
        calibration_batches=[rng.standard_normal(SHAPE)],
    )
    return model


@pytest.fixture(scope="module")
def proc_server(served_model):
    server = ProcServer(procs=2, max_batch=8, max_delay_ms=1.0)
    server.add_model("m", served_model, input_shape=SHAPE)
    yield server
    server.close()


#: The memory layouts a tensor may reach the transport in.
LAYOUTS = {
    "c_order": lambda a: a,
    "transposed": lambda a: a.T,
    "strided": lambda a: a[:, ::2, 1::2],
}


class TestArrayTransport:
    @pytest.mark.parametrize("dtype", ["float64", "float32", "int8"])
    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_round_trip_is_a_private_bitwise_copy(self, dtype, layout, make_rng):
        base = (make_rng().standard_normal((2, 6, 5, 4)) * 40).clip(-128, 127)
        x = LAYOUTS[layout](base.astype(dtype))
        assert x.flags.c_contiguous == (layout == "c_order")
        header = encode_array(x)
        assert sorted(header) == ["data", "dtype", "shape"]
        y = decode_array(header)
        assert y.dtype == x.dtype and y.shape == x.shape
        assert y.tobytes() == x.tobytes()  # bitwise, in C order
        assert y.flags.c_contiguous
        assert y.flags.owndata  # a private copy, not a view of the bytes
        assert not np.shares_memory(y, x)


class TestBitIdentity:
    def test_served_outputs_bitwise_vs_eager(self, proc_server, served_model, make_rng):
        rng = make_rng()
        for _ in range(3):
            x = rng.standard_normal(SHAPE)
            got = proc_server.infer("m", x, timeout=120.0)
            assert np.array_equal(got, served_model(x))

    def test_concurrent_clients_stay_exact(self, proc_server, served_model, make_rng):
        rng = make_rng()
        inputs = [rng.standard_normal(SHAPE) for _ in range(8)]
        expected = [served_model(x) for x in inputs]
        futures = [
            proc_server.submit("m", x, timeout=10.0) for x in inputs
        ]
        for fut, want in zip(futures, expected):
            assert np.array_equal(fut.result(timeout=120.0), want)


class TestErrorsAndFailover:
    def test_session_error_propagates_and_worker_survives(
        self, proc_server, served_model, make_rng
    ):
        bad = make_rng().standard_normal((2, ITEM[0] + 1, HW, HW))  # wrong C
        with pytest.raises(Exception) as excinfo:
            proc_server.infer("m", bad, timeout=120.0)
        assert isinstance(excinfo.value, RemoteExecutionError)
        # The failure belonged to the request, not the worker.
        assert proc_server._pool.live_count() == 2
        x = make_rng(1).standard_normal(SHAPE)
        assert np.array_equal(
            proc_server.infer("m", x, timeout=120.0), served_model(x)
        )

    def test_crashed_worker_is_replaced_and_stays_exact(
        self, proc_server, served_model, make_rng
    ):
        victim = proc_server._pool._workers[0]
        victim.proc.terminate()
        victim.proc.join(timeout=30.0)
        x = make_rng().standard_normal(SHAPE)
        # Requests keep succeeding while the pool heals (failover).
        assert np.array_equal(
            proc_server.infer("m", x, timeout=120.0), served_model(x)
        )
        deadline = time.time() + 60.0
        while time.time() < deadline and proc_server._pool.live_count() < 2:
            time.sleep(0.1)
        stats = proc_server.pool_stats()
        assert stats["live"] == 2
        assert stats["restarts"] >= 1
        # The respawned worker was re-deployed and serves identically.
        for _ in range(4):
            assert np.array_equal(
                proc_server.infer("m", x, timeout=120.0), served_model(x)
            )

    def test_zero_live_workers_sheds_instead_of_queueing(self, served_model):
        server = ProcServer(procs=1, max_delay_ms=1.0)
        try:
            server.add_model("m", served_model, input_shape=SHAPE)
            # Slow the health loop so the dead-worker window stays open.
            server._pool.health_interval_s = 60.0
            worker = server._pool._workers[0]
            worker.proc.terminate()
            worker.proc.join(timeout=30.0)
            assert server._pool.live_count() == 0
            with pytest.raises(ServerOverloaded, match="no live worker"):
                server.submit("m", np.zeros(SHAPE))
            assert server.stats()["m"]["rejected"] == 1
        finally:
            server.close()


class _FakeWorker:
    def __init__(self, worker_id):
        self.worker_id = worker_id

    def alive(self):
        return True


def _bare_pool(n):
    """A ProcPool skeleton with fake workers: exercises the checkout
    bookkeeping without paying n process spawns."""
    pool = ProcPool.__new__(ProcPool)
    pool.procs = n
    pool.run_timeout_s = 1.0
    pool._lock = threading.Lock()
    pool._cond = threading.Condition(pool._lock)
    pool._workers = [_FakeWorker(i) for i in range(n)]
    pool._retired = set()
    pool._depth = [0] * n
    pool._dispatched = [0] * n
    pool._closed = threading.Event()
    return pool


class TestDepthWeightedCheckout:
    def test_checkout_picks_min_depth_ties_by_id(self):
        pool = _bare_pool(2)
        # No checkins: depth accumulates, so checkout must alternate
        # (the FIFO free-list this replaces would block after 2).
        order = [pool._checkout().worker_id for _ in range(4)]
        assert order == [0, 1, 0, 1]
        assert pool._depth == [2, 2]
        # Worker 1 drains; it is now strictly the least loaded.
        pool._checkin(pool._workers[1])
        pool._checkin(pool._workers[1])
        assert pool._checkout().worker_id == 1
        assert pool._dispatched == [2, 3]

    def test_retired_worker_is_never_selected(self):
        pool = _bare_pool(2)
        pool._retired.add(0)
        assert [pool._checkout().worker_id for _ in range(3)] == [1, 1, 1]

    def test_stale_checkin_after_respawn_is_ignored(self):
        pool = _bare_pool(2)
        old = pool._checkout()
        # The health loop respawned the slot: new object, depth reset.
        pool._workers[old.worker_id] = _FakeWorker(old.worker_id)
        pool._depth[old.worker_id] = 0
        pool._checkin(old)  # late checkin from before the restart
        assert pool._depth[old.worker_id] == 0  # not driven negative

    def test_slowed_worker_receives_measurably_fewer_runs(
        self, served_model, make_rng
    ):
        # ROADMAP follow-up: checkout used to be FIFO free-list order,
        # which fed a slow worker at the same rate as a fast one.  With
        # depth weighting, a worker that holds batches longer accumulates
        # outstanding depth and absorbs measurably fewer dispatches.
        server = ProcServer(procs=2, max_delay_ms=1.0)
        try:
            server.add_model("m", served_model, input_shape=SHAPE)
            pool = server._pool
            slow = pool._workers[0]
            orig = slow.run

            def slowed(name, x, timeout):
                time.sleep(0.05)
                return orig(name, x, timeout)

            slow.run = slowed
            x = make_rng().standard_normal(SHAPE)
            expected = served_model(x)
            clients, runs = 4, 8
            mismatches = []

            def client():
                for _ in range(runs):
                    if not np.array_equal(pool.run("m", x), expected):
                        mismatches.append(1)

            threads = [
                threading.Thread(target=client) for _ in range(clients)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not mismatches  # slow worker still serves exact bytes
            workers = server.pool_stats()["workers"]
            total = clients * runs
            dispatched = [workers[0]["dispatched"], workers[1]["dispatched"]]
            assert sum(dispatched) == total
            assert dispatched[0] < dispatched[1]
            assert dispatched[0] < total / 2
            assert workers[0]["depth"] == workers[1]["depth"] == 0  # drained
        finally:
            server.close()


class TestWisdomConvergence:
    def test_two_tuning_workers_share_one_file_and_agree(
        self, served_model, tmp_path, make_rng
    ):
        wisdom = str(tmp_path / "wisdom.json")
        server = ProcServer(
            procs=2, wisdom=wisdom, tune_workers=True, max_delay_ms=1.0
        )
        try:
            server.add_model("m", served_model, input_shape=SHAPE)
            assert os.path.exists(wisdom)
            selections = server.selection("m")
            assert sorted(selections) == [0, 1]
            first, second = (selections[i] for i in (0, 1))
            # Non-vacuous convergence: choices were actually applied,
            # and both workers applied the same ones.
            assert first and first == second
            # Serving through tuned workers stays exact against an
            # eager reference with the same wisdom applied.
            from repro.runtime.session import InferenceSession

            ref = InferenceSession(served_model, SHAPE, wisdom=wisdom)
            x = make_rng().standard_normal(SHAPE)
            got = server.infer("m", x, timeout=120.0)
            assert np.array_equal(got, ref.run(x))
        finally:
            server.close()


class TestRemoteSessionSurface:
    def test_parent_counters_and_worker_cache_stats(self, proc_server, make_rng):
        session = proc_server.session("m")
        runs_before = session.runs
        proc_server.infer("m", make_rng().standard_normal(SHAPE), timeout=120.0)
        assert session.runs == runs_before + 1
        assert session.images_seen >= SHAPE[0]
        cache = session.cache_stats()
        assert set(cache) >= {"hits", "misses", "evictions", "bytes", "entries"}
        # Workers piggyback real counters: every worker lowered the model.
        assert cache["misses"] > 0 and cache["entries"] > 0
        assert cache["evictions"] == 0

    def test_per_worker_metrics_exported_by_parent_registry(self, proc_server):
        from repro.obs.export import parse_prometheus_text

        doc = parse_prometheus_text(proc_server.metrics_text())
        assert doc.value("repro_worker_up", worker="0") == 1.0
        assert doc.value("repro_worker_up", worker="1") == 1.0
        assert doc.value("repro_pool_restarts_total") >= 0
        assert (
            doc.value("repro_worker_runs_total", worker="0")
            + doc.value("repro_worker_runs_total", worker="1")
        ) > 0
