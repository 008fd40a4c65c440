"""Request queue and future primitives: bounds, coalescing, lifecycle."""

import threading
import time

import numpy as np
import pytest

from repro.serve import (
    InferenceFuture,
    Request,
    RequestQueue,
    ServerClosed,
    ServerOverloaded,
)


def _req(n=1, shape=(3, 4, 4)):
    return Request(images=np.zeros((n,) + shape))


class TestInferenceFuture:
    def test_result_blocks_until_set(self):
        fut = InferenceFuture()
        assert not fut.done()
        with pytest.raises(TimeoutError):
            fut.result(timeout=0.01)
        fut.set_result(np.ones(3))
        assert fut.done()
        assert np.array_equal(fut.result(timeout=0), np.ones(3))

    def test_exception_reraised(self):
        fut = InferenceFuture()
        fut.set_exception(ValueError("bad request"))
        with pytest.raises(ValueError, match="bad request"):
            fut.result()

    def test_every_waiter_wakes(self):
        """Waiters blocked in result() all see the value set by another
        thread: each passes the latch on to the next."""
        fut = InferenceFuture()
        got = []
        waiters = [threading.Thread(target=lambda: got.append(fut.result(timeout=10)))
                   for _ in range(4)]
        for t in waiters:
            t.start()
        time.sleep(0.02)
        threading.Thread(target=fut.set_result, args=(np.arange(3),)).start()
        for t in waiters:
            t.join(timeout=10)
            assert not t.is_alive()
        assert len(got) == 4 and all(np.array_equal(g, np.arange(3)) for g in got)
        assert fut.result(timeout=0) is got[0]


class TestRequestQueue:
    def test_bound_validation(self):
        with pytest.raises(ValueError):
            RequestQueue(max_requests=0)

    def test_full_queue_raises_overloaded(self):
        q = RequestQueue(max_requests=2)
        q.put(_req(), timeout=0)
        q.put(_req(), timeout=0)
        with pytest.raises(ServerOverloaded):
            q.put(_req(), timeout=0)
        assert q.depth == 2

    def test_blocked_put_succeeds_after_pop(self):
        q = RequestQueue(max_requests=1)
        q.put(_req(), timeout=0)
        done = []

        def producer():
            q.put(_req(), timeout=5.0)
            done.append(True)

        t = threading.Thread(target=producer, daemon=True)
        t.start()
        assert q.next_batch(max_batch=8, max_delay=0.0) is not None
        t.join(timeout=5.0)
        assert done == [True]

    def test_put_after_close_raises(self):
        q = RequestQueue(max_requests=2)
        q.close()
        with pytest.raises(ServerClosed):
            q.put(_req(), timeout=0)

    def test_coalesces_contiguous_same_shape_prefix(self):
        q = RequestQueue(max_requests=8)
        a, b = _req(2), _req(2)
        other = _req(1, shape=(3, 8, 8))
        c = _req(2)
        for r in (a, b, other, c):
            q.put(r, timeout=0)
        batch = q.next_batch(max_batch=16, max_delay=0.0)
        # The shape change closes the batch; FIFO order within it.
        assert batch == [a, b]
        assert q.next_batch(max_batch=16, max_delay=0.0) == [other]
        assert q.next_batch(max_batch=16, max_delay=0.0) == [c]

    def test_max_batch_bounds_images_not_requests(self):
        q = RequestQueue(max_requests=8)
        reqs = [_req(3) for _ in range(4)]
        for r in reqs:
            q.put(r, timeout=0)
        batch = q.next_batch(max_batch=6, max_delay=0.0)
        assert batch == reqs[:2]  # 3 + 3 images; a third would overflow

    def test_oversized_request_served_alone(self):
        q = RequestQueue(max_requests=4)
        big = _req(10)
        q.put(big, timeout=0)
        assert q.next_batch(max_batch=4, max_delay=0.0) == [big]

    def test_next_batch_waits_for_stragglers(self):
        q = RequestQueue(max_requests=8)
        first = _req(1)
        q.put(first, timeout=0)
        late = _req(1)

        def producer():
            q.put(late, timeout=5.0)

        t = threading.Thread(target=producer, daemon=True)
        t.start()
        batch = q.next_batch(max_batch=4, max_delay=2.0)
        t.join(timeout=5.0)
        assert first in batch  # late request usually coalesces; first always served

    def test_closed_empty_queue_returns_none(self):
        q = RequestQueue(max_requests=2)
        q.close()
        assert q.next_batch(max_batch=4, max_delay=0.0) is None

    def test_waiting_consumer_never_returns_empty_batch(self):
        """A consumer in the straggler wait whose queue contents are
        drained out from under it (another worker's pop, or a
        non-draining close) must re-wait or return None -- returning
        ``[]`` used to kill serve workers via ``np.concatenate([])``."""
        q = RequestQueue(max_requests=8)
        q.put(_req(1), timeout=0)
        results = []

        def consumer():
            results.append(q.next_batch(max_batch=8, max_delay=30.0))

        t = threading.Thread(target=consumer, daemon=True)
        t.start()
        time.sleep(0.2)  # let the consumer enter the straggler wait
        q.drain_rejected()  # steal the prefix it peeked
        q.close()
        t.join(timeout=10.0)
        assert not t.is_alive()
        assert results == [None]

    def test_two_consumers_one_request_loser_blocks_or_closes(self):
        """Two workers racing one request: exactly one gets it; the
        loser must block for more work (not return ``[]``) and unblock
        with None at close."""
        q = RequestQueue(max_requests=8)
        only = _req(1)
        q.put(only, timeout=0)
        results = []
        lock = threading.Lock()

        def consumer():
            batch = q.next_batch(max_batch=8, max_delay=0.2)
            with lock:
                results.append(batch)

        threads = [threading.Thread(target=consumer, daemon=True) for _ in range(2)]
        for t in threads:
            t.start()
        deadline = time.perf_counter() + 10.0
        while time.perf_counter() < deadline:
            with lock:
                if len(results) == 1:
                    break
            time.sleep(0.01)
        assert results == [[only]]  # winner got the request, loser still waiting
        q.close()
        for t in threads:
            t.join(timeout=10.0)
            assert not t.is_alive()
        assert sorted(results, key=lambda b: b is None) == [[only], None]

    def test_drain_rejected_empties_queue(self):
        q = RequestQueue(max_requests=4)
        reqs = [_req() for _ in range(3)]
        for r in reqs:
            q.put(r, timeout=0)
        q.close()
        assert q.drain_rejected() == reqs
        assert q.depth == 0
