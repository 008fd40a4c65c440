"""Regression tests for serving-path accounting fixes.

Three bugs rode in the serving path's shed / drain / latency
accounting, each skewing a number a CI gate trusts:

* ``Server.submit`` counted *any* enqueue failure as a shed, so a
  shutdown racing a submit inflated the reported shed rate;
* ``RequestQueue.next_batch`` anchored its coalescing deadline at
  consumer wake-up, so a request that had already waited in the queue
  paid queue-wait *plus* a full ``max_delay`` again;
* ``ServedModel.close(drain=True)`` silently abandoned workers that
  outlived the join timeout, making "drained clean" and "wedged worker
  still holds requests" indistinguishable.
"""

import threading
import time

import numpy as np
import pytest

from repro.serve import Server, ServerClosed, ServerOverloaded
from repro.serve.batching import Request, RequestQueue

pytestmark = pytest.mark.concurrency

ITEM = (3, 8, 8)


class _BlockingSession:
    """Duck-typed session whose run() parks until released."""

    def __init__(self):
        self.started = threading.Event()
        self.release = threading.Event()
        self.runs = 0
        self.images_seen = 0
        self.input_shape = (2,) + ITEM

    def run(self, x):
        self.started.set()
        assert self.release.wait(timeout=30.0)
        return np.zeros((x.shape[0], 1))

    def cache_stats(self):
        return {}


class TestShedAccounting:
    """Only true backpressure moves the rejected counter."""

    def test_closed_queue_submit_raises_without_counting_a_shed(self):
        server = Server(max_batch=8, max_delay_ms=1.0)
        session = _BlockingSession()
        session.release.set()  # run() returns immediately
        server.add_model("m", session=session)
        # Close the model's queue directly: the shutdown-racing-submit
        # window, without closing the server object itself.
        server._models["m"].queue.close()
        with pytest.raises(ServerClosed):
            server.submit("m", np.zeros((2,) + ITEM))
        assert server.stats()["m"]["rejected"] == 0
        server.close()

    def test_overloaded_submit_still_counts_a_shed(self):
        session = _BlockingSession()
        server = Server(max_batch=1, max_delay_ms=0.5, queue_size=1)
        server.add_model("m", session=session)
        # First request occupies the worker; second fills the queue.
        first = server.submit("m", np.zeros((1,) + ITEM), timeout=None)
        assert session.started.wait(timeout=10.0)
        server.submit("m", np.zeros((1,) + ITEM), timeout=None)
        with pytest.raises(ServerOverloaded):
            server.submit("m", np.zeros((1,) + ITEM), timeout=0.0)
        assert server.stats()["m"]["rejected"] == 1
        session.release.set()
        first.result(timeout=10.0)
        server.close()


class TestCoalescingDeadline:
    """The delay window opens when the first request *arrives*, not
    when a consumer wakes up to look at it."""

    def test_stale_head_of_queue_is_served_without_a_second_delay(self):
        queue = RequestQueue(max_requests=8)
        max_delay = 0.4
        queue.put(Request(images=np.zeros((1,) + ITEM)))
        time.sleep(max_delay + 0.05)  # the request ages past its budget
        t0 = time.perf_counter()
        batch = queue.next_batch(max_batch=8, max_delay=max_delay)
        waited = time.perf_counter() - t0
        assert batch is not None and len(batch) == 1
        # A consumer-anchored deadline would park here for another full
        # max_delay; the enqueue-anchored one returns immediately.
        assert waited < max_delay / 2

    def test_fresh_requests_still_coalesce_within_the_window(self):
        queue = RequestQueue(max_requests=8)
        got = []

        def consume():
            got.append(queue.next_batch(max_batch=8, max_delay=5.0))

        t = threading.Thread(target=consume, daemon=True)
        queue.put(Request(images=np.zeros((1,) + ITEM)))
        t.start()
        time.sleep(0.1)  # well inside the first request's window
        queue.put(Request(images=np.zeros((1,) + ITEM)))
        t.join(timeout=30.0)
        assert not t.is_alive()
        assert len(got) == 1 and len(got[0]) == 2

    def test_straggler_latency_bounded_by_queue_wait_plus_one_delay(self):
        """End-to-end shape of the contract: a request submitted while
        the worker is busy is served promptly once the worker frees up,
        not re-parked for another full coalescing window."""
        max_delay_s = 0.5
        session = _BlockingSession()
        server = Server(max_batch=1, max_delay_ms=max_delay_s * 1e3, queue_size=8)
        server.add_model("m", session=session)
        first = server.submit("m", np.zeros((1,) + ITEM))
        assert session.started.wait(timeout=10.0)
        # The straggler queues behind the in-flight batch and ages past
        # its own delay budget while waiting.
        straggler = server.submit("m", np.zeros((1,) + ITEM))
        time.sleep(max_delay_s + 0.1)
        session.release.set()
        t0 = time.perf_counter()
        straggler.result(timeout=10.0)
        after_release = time.perf_counter() - t0
        first.result(timeout=10.0)
        # Once the worker frees up the aged straggler is served without
        # paying a fresh max_delay window (generous bound for CI noise).
        assert after_release < max_delay_s
        server.close()


class TestDrainLeakReporting:
    """A worker that outlives close()'s join is reported, not ignored."""

    def test_wedged_worker_is_warned_about_and_counted(self):
        session = _BlockingSession()
        server = Server(max_batch=8, max_delay_ms=1.0)
        server.add_model("m", session=session)
        fut = server.submit("m", np.zeros((2,) + ITEM))
        assert session.started.wait(timeout=10.0)  # worker is now parked
        with pytest.warns(RuntimeWarning, match="still running"):
            server.close(drain=True, join_timeout=0.2)
        assert server.stats()["m"]["leaked_workers"] == 1
        # Unblock the stub so the leaked thread finishes and the
        # in-flight future resolves.
        session.release.set()
        fut.result(timeout=10.0)

    def test_clean_drain_reports_no_leak(self):
        session = _BlockingSession()
        session.release.set()
        server = Server(max_batch=8, max_delay_ms=1.0)
        server.add_model("m", session=session)
        server.submit("m", np.zeros((2,) + ITEM)).result(timeout=10.0)
        server.close(drain=True)
        assert server.stats()["m"]["leaked_workers"] == 0
