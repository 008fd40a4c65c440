"""Bounded request queue with dynamic micro-batching.

The queue is the heart of the serving layer: clients push
single-request activations, worker threads pull *coalesced batches* --
up to ``max_batch`` images merged along the batch axis, waiting at most
``max_delay`` seconds for stragglers after the first request arrives
(the classic dynamic-batching trade: a little latency for a lot of
whole-tensor efficiency; cf. LANCE's GPU serving shape in PAPERS.md).

Only requests with identical per-image shape ``(C, H, W)`` coalesce --
a batch is one NCHW tensor -- and coalescing takes a contiguous FIFO
prefix, so ordering between compatible requests is preserved and a
shape change simply closes the batch.

Backpressure is the queue bound: ``put`` on a full queue blocks up to
its timeout and then raises :class:`ServerOverloaded`, so a saturated
server sheds load at the edge instead of growing an unbounded backlog.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, List, Optional, Tuple

import numpy as np

__all__ = [
    "ServerClosed",
    "ServerOverloaded",
    "InferenceFuture",
    "Request",
    "RequestQueue",
]


class ServerClosed(RuntimeError):
    """The server (or one of its model queues) has been shut down."""


class ServerOverloaded(RuntimeError):
    """Backpressure: the bounded request queue stayed full past the
    submission timeout."""


class InferenceFuture:
    """Completion handle for one submitted request.

    The latch is a lock held from creation until the request completes:
    a few dozen bytes, where a ``threading.Event`` (a Condition, its lock
    and a waiter deque) costs over a kilobyte -- and callers may keep
    every completed future.  A request is completed once, by the thread
    that ran or rejected it.
    """

    __slots__ = ("_latch", "_done", "_result", "_error")

    def __init__(self) -> None:
        self._latch = threading.Lock()
        self._latch.acquire()
        self._done = False
        self._result: Optional[np.ndarray] = None
        self._error: Optional[BaseException] = None

    def done(self) -> bool:
        return self._done

    def _complete(self) -> None:
        if not self._done:
            self._done = True
            self._latch.release()

    def set_result(self, value: np.ndarray) -> None:
        self._result = value
        self._complete()

    def set_exception(self, error: BaseException) -> None:
        self._error = error
        self._complete()

    def result(self, timeout: Optional[float] = None) -> np.ndarray:
        if not self._done:
            wait = -1 if timeout is None else max(timeout, 0.0)
            if not self._latch.acquire(timeout=wait):
                raise TimeoutError("inference request did not complete in time")
            self._latch.release()  # let other waiters through
        if self._error is not None:
            raise self._error
        return self._result


@dataclass
class Request:
    """One queued inference request (an NCHW activation batch)."""

    images: np.ndarray
    future: InferenceFuture = field(default_factory=InferenceFuture)
    enqueued_at: float = field(default_factory=time.perf_counter)

    @property
    def n_images(self) -> int:
        return int(self.images.shape[0])

    @property
    def item_shape(self) -> Tuple[int, ...]:
        return tuple(self.images.shape[1:])


class RequestQueue:
    """Bounded FIFO of :class:`Request` with batch-coalescing pops."""

    def __init__(self, max_requests: int = 64) -> None:
        if max_requests < 1:
            raise ValueError(f"max_requests must be >= 1, got {max_requests}")
        self.max_requests = max_requests
        self._cond = threading.Condition()
        self._items: Deque[Request] = deque()
        self._closed = False

    def __len__(self) -> int:
        with self._cond:
            return len(self._items)

    @property
    def depth(self) -> int:
        return len(self)

    def put(self, request: Request, timeout: Optional[float] = None) -> None:
        """Enqueue; blocks while full, raising :class:`ServerOverloaded`
        once ``timeout`` (None = wait forever) elapses."""
        deadline = None if timeout is None else time.perf_counter() + timeout
        with self._cond:
            while True:
                if self._closed:
                    raise ServerClosed("request queue is closed")
                if len(self._items) < self.max_requests:
                    self._items.append(request)
                    self._cond.notify_all()
                    return
                remaining = (
                    None if deadline is None else deadline - time.perf_counter()
                )
                if remaining is not None and remaining <= 0:
                    raise ServerOverloaded(
                        f"request queue full ({self.max_requests} requests) "
                        f"for {timeout:.3f}s"
                    )
                self._cond.wait(remaining)

    def next_batch(
        self, max_batch: int, max_delay: float
    ) -> Optional[List[Request]]:
        """Pop the next coalesced batch (None once closed and drained).

        Blocks for the first request; then keeps collecting compatible
        requests until ``max_batch`` images are assembled or
        ``max_delay`` seconds have passed since the batch's first
        request *arrived*.  A request larger than ``max_batch`` on its
        own is served as its own batch rather than rejected.
        """
        with self._cond:
            while True:
                while not self._items:
                    if self._closed:
                        return None
                    self._cond.wait()
                # Anchor the coalescing deadline to the first request's
                # enqueue time, not to when this consumer woke up: a
                # request that already waited in the queue has spent its
                # delay budget, so its latency is bounded by queue-wait
                # plus *one* ``max_delay`` -- a stale head-of-queue
                # request is served immediately rather than paying the
                # full coalescing window again.
                deadline = self._items[0].enqueued_at + max_delay
                while True:
                    batch, images = self._peek_batch(max_batch)
                    if images >= max_batch or self._closed:
                        break
                    remaining = deadline - time.perf_counter()
                    if remaining <= 0:
                        break
                    self._cond.wait(remaining)
                batch, _ = self._peek_batch(max_batch)
                if not batch:
                    # Another consumer popped the prefix (or a close
                    # drained the queue) while we waited; go back to
                    # blocking for fresh work rather than returning [].
                    continue
                for _ in batch:
                    self._items.popleft()
                self._cond.notify_all()  # wake producers blocked on the bound
                return batch

    def _peek_batch(self, max_batch: int) -> Tuple[List[Request], int]:
        """The maximal coalescible FIFO prefix and its image count."""
        batch: List[Request] = []
        images = 0
        shape: Optional[Tuple[int, ...]] = None
        for req in self._items:
            if shape is None:
                shape = req.item_shape
            elif req.item_shape != shape:
                break
            if batch and images + req.n_images > max_batch:
                break
            batch.append(req)
            images += req.n_images
        return batch, images

    def close(self) -> None:
        """Refuse new requests; pending ones may still be drained."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def drain_rejected(self) -> List[Request]:
        """Pop every pending request (used at shutdown to fail them)."""
        with self._cond:
            items = list(self._items)
            self._items.clear()
            self._cond.notify_all()
            return items
