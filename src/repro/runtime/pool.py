"""Persistent worker pool for statically scheduled stages.

On the paper's hardware the thread team lives for the whole inference
run (Section 4.4: tasks are assigned to threads at plan-construction
time), so a parallel stage pays no thread creation.  :class:`WorkerPool`
keeps its threads alive across calls: work arrives as the contiguous
:class:`~repro.parallel.scheduler.Partition` ranges of a
:class:`~repro.parallel.scheduler.StaticSchedule`, each worker executes
its range, and a latch releases the caller -- a fork-join over the
static schedule's decomposition, without a per-stage spawn.

Concurrency contract
--------------------
``run_partitioned`` may be called from any number of threads at once;
in-flight stages are tracked so :meth:`WorkerPool.shutdown` can *drain*
(wait for active stages to join) before closing.  A call made from
inside one of the pool's own worker threads runs its stage inline --
nested dispatch would wait on a latch only the already-occupied workers
could release, i.e. deadlock.

A process-wide default pool is created lazily by :func:`get_pool` and
grown on demand; growth swaps in a larger pool and retires the old one
only after its in-flight stages drain, so callers mid-stage are never
flipped to serial execution.  :func:`shutdown_pool` tears the default
pool down (tests use this to assert clean start-up).
"""

from __future__ import annotations

import os
import queue
import threading
import time
from typing import Callable, List, Optional, Set

from ..parallel.scheduler import StaticSchedule

__all__ = ["WorkerPool", "get_pool", "shutdown_pool"]


class _Latch:
    """Countdown latch: releases :meth:`wait` after ``n`` calls to
    :meth:`count_down`; collects the first raised exception."""

    def __init__(self, n: int) -> None:
        self._remaining = n
        self._cond = threading.Condition()
        self.error: Optional[BaseException] = None

    def count_down(self, error: Optional[BaseException] = None) -> None:
        with self._cond:
            if error is not None and self.error is None:
                self.error = error
            self._remaining -= 1
            if self._remaining <= 0:
                self._cond.notify_all()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until released; with ``timeout``, return False when it
        elapses first (so callers can re-check pool liveness)."""
        with self._cond:
            deadline = None if timeout is None else time.monotonic() + timeout
            while self._remaining > 0:
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return False
                self._cond.wait(remaining)
        if self.error is not None:
            # Re-raise the worker's exception object: its __traceback__
            # still points at the partition frame that raised, so the
            # caller sees the original failure site, not just the latch.
            raise self.error
        return True


class WorkerPool:
    """Long-lived threads executing contiguous partition ranges.

    ``run_partitioned(fn, tasks, omega)`` calls ``fn(start, stop)`` once
    per partition of the static schedule -- disjoint, in thread order --
    and joins, reusing the same worker threads call after call.
    """

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError(f"worker count must be >= 1, got {workers}")
        self._queue: "queue.SimpleQueue" = queue.SimpleQueue()
        self._threads: List[threading.Thread] = []
        self._cond = threading.Condition()
        self._closed = False
        self._active = 0  #: run_partitioned calls currently dispatched
        self._worker_ids: Set[int] = set()
        self.dispatched_ranges = 0  #: partitions executed (observability)
        self.stages_run = 0  #: run_partitioned calls served
        for i in range(workers):
            t = threading.Thread(
                target=self._worker_loop, name=f"repro-runtime-{i}", daemon=True
            )
            t.start()
            self._threads.append(t)

    @property
    def workers(self) -> int:
        return len(self._threads)

    def _worker_loop(self) -> None:
        with self._cond:
            self._worker_ids.add(threading.get_ident())
        while True:
            item = self._queue.get()
            if item is None:  # shutdown sentinel
                return
            fn, start, stop, latch = item
            try:
                fn(start, stop)
            except BaseException as exc:  # propagate to the caller
                latch.count_down(exc)
            else:
                latch.count_down()

    def _in_worker_thread(self) -> bool:
        return threading.get_ident() in self._worker_ids

    def run_partitioned(
        self, fn: Callable[[int, int], object], tasks: int, omega: int
    ) -> None:
        """Execute ``fn`` over the static schedule's partitions and join.

        Serial (``omega == 1`` or a closed pool) runs inline on the
        caller's thread.  Calls from inside one of the pool's own
        workers also run inline: nested dispatch would wait on workers
        that are, by definition, busy.
        """
        schedule = StaticSchedule.for_tasks(tasks, omega)
        schedule.validate()
        nonempty = [p for p in schedule.partitions if p.size > 0]
        inline = omega == 1 or len(nonempty) <= 1 or self._in_worker_thread()
        if not inline:
            # Register as active *before* re-checking closed, so a
            # concurrent drain-shutdown either sees us and waits, or
            # closed first and we fall back to inline execution.
            with self._cond:
                if self._closed:
                    inline = True
                else:
                    self._active += 1
                    self.stages_run += 1
                    self.dispatched_ranges += len(nonempty)
        if inline:
            for p in schedule.partitions:
                fn(p.start, p.stop)
            return
        latch = _Latch(len(nonempty))
        try:
            for p in nonempty:
                self._queue.put((fn, p.start, p.stop, latch))
            # Bounded waits so a non-draining shutdown racing this
            # dispatch (workers exiting on sentinels queued before our
            # items) surfaces as an error instead of a permanent hang.
            while not latch.wait(timeout=0.5):
                with self._cond:
                    closed = self._closed
                if closed and not latch.wait(timeout=0.5):
                    raise RuntimeError(
                        "WorkerPool was shut down (drain=False) while this "
                        "stage was in flight; some partitions may not have "
                        "executed"
                    )
        finally:
            with self._cond:
                self._active -= 1
                if self._active == 0:
                    self._cond.notify_all()

    def shutdown(self, drain: bool = True) -> None:
        """Stop all workers; subsequent calls execute serially.

        ``drain`` (the default) first waits for in-flight
        ``run_partitioned`` calls to complete, so a pool can be retired
        from under concurrent callers without corrupting their stages.
        A non-draining shutdown is only safe when no other thread can be
        mid-stage.
        """
        with self._cond:
            if drain:
                while self._active > 0:
                    self._cond.wait()
            if self._closed:
                return
            self._closed = True
        for _ in self._threads:
            self._queue.put(None)
        for t in self._threads:
            t.join(timeout=5.0)
        # A non-draining shutdown can leave stage items queued behind the
        # sentinels; fail them so blocked callers wake instead of hanging.
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is None:
                continue
            _, _, _, latch = item
            latch.count_down(
                RuntimeError(
                    "WorkerPool shut down before executing a queued partition"
                )
            )


_default_pool: Optional[WorkerPool] = None
_default_lock = threading.Lock()


def get_pool(workers: Optional[int] = None) -> WorkerPool:
    """The process-wide persistent pool, created lazily.

    ``workers`` grows (never shrinks) the default pool when it exceeds
    the current size; ``None`` sizes it to the CPU count on first use.
    An explicit non-positive ``workers`` is an error (it used to fall
    through to the CPU count silently).  Growth swaps a larger pool in
    and drains the old one in the background, so threads mid-stage on
    the old pool finish normally.
    """
    global _default_pool
    if workers is not None and workers < 1:
        raise ValueError(f"worker count must be >= 1, got {workers}")
    with _default_lock:
        want = workers if workers is not None else (os.cpu_count() or 1)
        old = None
        if _default_pool is None or _default_pool._closed:
            _default_pool = WorkerPool(want)
        elif workers is not None and workers > _default_pool.workers:
            old = _default_pool
            _default_pool = WorkerPool(workers)
        pool = _default_pool
    if old is not None:
        threading.Thread(
            target=old.shutdown, kwargs={"drain": True}, daemon=True
        ).start()
    return pool


def shutdown_pool() -> None:
    """Tear down the default pool (it will be re-created on next use)."""
    global _default_pool
    with _default_lock:
        pool, _default_pool = _default_pool, None
    if pool is not None:
        pool.shutdown(drain=True)
