"""Concurrency-safe model server with dynamic micro-batching.

One :class:`Server` owns one compiled
:class:`~repro.runtime.session.InferenceSession` per model (LoWino's
offline/online split at deployment granularity: prepare once, serve
many).  Clients call :meth:`Server.submit` / :meth:`Server.infer` from
any number of threads; requests flow through a bounded
:class:`~repro.serve.batching.RequestQueue`, worker threads coalesce
them into micro-batches (up to ``max_batch`` images or ``max_delay_ms``
of waiting), execute one ``session.run`` per batch, and split the
output rows back to the originating futures.

Guarantees:

* **Correctness under concurrency** -- sessions are thread-safe
  (leased scratch, locked plan cache), so ``workers > 1`` per model is
  sound; results are the session's outputs for the coalesced batch,
  row-sliced per request.
* **Bit-identity** -- for calibrated quantized models the integer
  pipeline is exact under any batch composition, so a served result is
  bitwise the serial eager result for the same request
  (``repro serve-bench`` gates this hard).
* **Backpressure** -- a full queue rejects with
  :class:`~repro.serve.batching.ServerOverloaded` instead of queueing
  unboundedly; per-request latency and queue depth are exported by
  :meth:`Server.stats`.
"""

from __future__ import annotations

import threading
import time
import warnings
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..nn.layers import Layer
from ..obs.export import prometheus_text
from ..obs.metrics import MetricsRegistry, Sample
from ..runtime.session import InferenceSession
from .batching import (
    InferenceFuture,
    Request,
    RequestQueue,
    ServerClosed,
    ServerOverloaded,
)
from .stats import ModelStats

__all__ = ["Server", "ServedModel"]


class ServedModel:
    """One deployed model: session + queue + micro-batching workers."""

    def __init__(
        self,
        name: str,
        session: InferenceSession,
        max_batch: int,
        max_delay_s: float,
        queue_size: int,
        workers: int,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.name = name
        self.session = session
        self.max_batch = max_batch
        self.max_delay_s = max_delay_s
        self.queue = RequestQueue(max_requests=queue_size)
        registry = registry if registry is not None else MetricsRegistry()
        self.stats = ModelStats(registry=registry, model=name)
        # Live views: queue depth reads the queue itself at export time,
        # and the session's cache / run counters come in via a collector
        # (they live under the session's own locks).
        registry.gauge(
            "repro_queue_depth",
            help="requests waiting in the model queue",
            fn=lambda: self.queue.depth,
            model=name,
        )
        registry.register_collector(self._collect)
        self._threads: List[threading.Thread] = []
        for i in range(workers):
            t = threading.Thread(
                target=self._worker_loop, name=f"repro-serve-{name}-{i}", daemon=True
            )
            t.start()
            self._threads.append(t)

    def _worker_loop(self) -> None:
        while True:
            batch = self.queue.next_batch(self.max_batch, self.max_delay_s)
            if batch is None:
                return
            if not batch:  # defensive: never execute an empty batch
                continue
            self._execute(batch)

    def _execute(self, batch: List[Request]) -> None:
        try:
            if len(batch) == 1:
                x = batch[0].images
            else:
                x = np.concatenate([r.images for r in batch], axis=0)
            y = self.session.run(x)
        except BaseException as exc:
            for req in batch:
                req.future.set_exception(exc)
            self.stats.record_error(len(batch))
            return
        self.stats.record_batch(int(x.shape[0]))
        offset = 0
        done = time.perf_counter()
        for req in batch:
            rows = y[offset : offset + req.n_images]
            if len(batch) > 1:
                # Each future must own its rows: a view of the shared
                # coalesced output exposes batch-mates' results through
                # ``.base`` (ascontiguousarray would return the view
                # unchanged, since row slices are already contiguous).
                rows = rows.copy()
            req.future.set_result(rows)
            offset += req.n_images
            self.stats.latency.record(done - req.enqueued_at)

    def close(self, drain: bool = True, join_timeout: float = 10.0) -> None:
        """Stop accepting requests; fail whatever cannot be drained.

        ``drain=True`` lets workers finish the queued backlog before
        they exit; ``drain=False`` rejects the backlog immediately.  A
        worker that is still alive ``join_timeout`` seconds after the
        queue closed is a broken drain promise: it is *reported* (a
        ``RuntimeWarning`` plus the ``leaked_workers`` count in
        :meth:`snapshot` / ``repro_workers_leaked``) rather than
        silently abandoned, so operators can tell "drained clean" from
        "wedged worker still holds requests".
        """
        self.queue.close()
        if not drain:
            for req in self.queue.drain_rejected():
                req.future.set_exception(ServerClosed(f"model {self.name!r} closed"))
        leaked = 0
        for t in self._threads:
            t.join(timeout=join_timeout)
            if t.is_alive():
                leaked += 1
        if leaked:
            self.stats.record_leaked_workers(leaked)
            warnings.warn(
                f"model {self.name!r}: {leaked} worker(s) still running "
                f"{join_timeout:.1f}s after close(drain={drain}); their "
                f"in-flight requests were not drained",
                RuntimeWarning,
                stacklevel=2,
            )
        # Anything still pending after the join (e.g. drain=True racing
        # an already-exited worker) must not leave callers hanging.
        for req in self.queue.drain_rejected():
            req.future.set_exception(ServerClosed(f"model {self.name!r} closed"))

    def snapshot(self) -> Dict[str, object]:
        doc = self.stats.snapshot()
        doc["queue_depth"] = self.queue.depth
        doc["max_batch"] = self.max_batch
        doc["max_delay_ms"] = self.max_delay_s * 1e3
        doc["workers"] = len(self._threads)
        doc["session"] = {
            "runs": self.session.runs,
            "images_seen": self.session.images_seen,
            "cache": self.session.cache_stats(),
        }
        return doc

    def _collect(self):
        """Registry collector: session run/image and plan-cache counters
        for this model, labeled so multi-model exports stay distinct."""
        labels = {"model": self.name}
        yield Sample(
            "repro_session_runs_total",
            self.session.runs,
            dict(labels),
            "counter",
            "run() calls on the model session",
        )
        yield Sample(
            "repro_session_images_total",
            self.session.images_seen,
            dict(labels),
            "counter",
            "images executed by the model session",
        )
        cache = self.session.cache_stats()
        for key in ("hits", "misses", "evictions"):
            yield Sample(
                f"repro_plan_cache_{key}_total",
                cache[key],
                dict(labels),
                "counter",
                f"Plan cache {key}",
            )
        yield Sample("repro_plan_cache_bytes", cache["bytes"], dict(labels))
        yield Sample("repro_plan_cache_entries", cache["entries"], dict(labels))


class Server:
    """Multi-model inference server over compiled sessions.

    Typical use::

        server = Server(max_batch=16, max_delay_ms=2.0)
        server.add_model("resnet", model, input_shape=(8, 3, 32, 32))
        y = server.infer("resnet", images)          # synchronous
        fut = server.submit("resnet", images)       # async handle
        ...
        server.close()

    ``Server`` is itself thread-safe: ``submit`` / ``infer`` may be
    called concurrently with each other and with ``add_model``.
    """

    def __init__(
        self,
        max_batch: int = 16,
        max_delay_ms: float = 2.0,
        queue_size: int = 64,
        workers_per_model: int = 1,
        registry: Optional[MetricsRegistry] = None,
        wisdom: Optional[object] = None,
        tuner_interval_s: float = 0.02,
        background_tuner: bool = True,
    ) -> None:
        self.max_batch = max_batch
        self.max_delay_ms = max_delay_ms
        self.queue_size = queue_size
        self.workers_per_model = workers_per_model
        #: All serving telemetry (per-model counters, latency reservoirs,
        #: live queue depths, session collectors) lands here; export with
        #: :meth:`metrics_text` / :meth:`metrics`.
        self.registry = registry if registry is not None else MetricsRegistry()
        self._models: Dict[str, ServedModel] = {}
        self._lock = threading.Lock()
        self._closed = False
        #: Wisdom-driven planning: with ``wisdom`` (a path or
        #: :class:`~repro.tuning.wisdom.WisdomFile`) every session this
        #: server compiles consults the shared file at lowering time,
        #: and a :class:`~repro.serve.tuner.BackgroundTuner` measures
        #: un-tuned geometries whenever the request queues are idle
        #: (``background_tuner=False`` keeps the selector without the
        #: thread).  N workers pointing at one file converge on the
        #: first persisted choice per geometry.
        self.selector = None
        self.tuner = None
        if wisdom is not None:
            from ..tuning.selector import AlgorithmSelector
            from .tuner import BackgroundTuner

            self.selector = AlgorithmSelector(wisdom=wisdom)
            if background_tuner:
                self.tuner = BackgroundTuner(
                    self, self.selector, interval_s=tuner_interval_s
                )

    # -- deployment -----------------------------------------------------
    def add_model(
        self,
        name: str,
        model: Optional[Layer] = None,
        input_shape: Optional[Tuple[int, ...]] = None,
        session: Optional[InferenceSession] = None,
        workers: Optional[int] = None,
    ) -> InferenceSession:
        """Deploy a model under ``name``; returns its compiled session.

        Pass either a prebuilt ``session`` or a ``model`` +
        ``input_shape`` to compile here.  The model must already be
        quantized/calibrated if quantization is wanted -- deployment
        never mutates it.
        """
        if session is None:
            if model is None or input_shape is None:
                raise ValueError("add_model needs a session, or a model + input_shape")
            # Serving sessions keep hot plans under pressure (LFU fed by
            # the per-plan hit counters) and, when the server has a
            # wisdom file, apply its known algorithm choices at
            # lowering time.
            session = InferenceSession(
                model, input_shape, selector=self.selector, cache_eviction="lfu"
            )
        with self._lock:
            if self._closed:
                raise ServerClosed("server is closed")
            if name in self._models:
                raise ValueError(f"model {name!r} is already deployed")
            self._models[name] = ServedModel(
                name,
                session,
                max_batch=self.max_batch,
                max_delay_s=self.max_delay_ms / 1e3,
                queue_size=self.queue_size,
                workers=workers if workers is not None else self.workers_per_model,
                registry=self.registry,
            )
        return session

    def _entry(self, name: str) -> ServedModel:
        with self._lock:
            if self._closed:
                raise ServerClosed("server is closed")
            try:
                return self._models[name]
            except KeyError:
                raise KeyError(
                    f"unknown model {name!r}; deployed: {sorted(self._models)}"
                ) from None

    @property
    def models(self) -> List[str]:
        with self._lock:
            return sorted(self._models)

    def session(self, name: str) -> InferenceSession:
        """The compiled session serving ``name`` (e.g. for its
        ``input_shape``); raises ``KeyError`` for unknown models."""
        return self._entry(name).session

    # -- request path ---------------------------------------------------
    def submit(
        self, name: str, images: np.ndarray, timeout: Optional[float] = 0.0
    ) -> InferenceFuture:
        """Enqueue one NCHW batch; returns a completion future.

        ``timeout`` bounds how long a full queue may block the caller
        (0 = reject immediately, None = wait indefinitely).  Raises
        :class:`~repro.serve.batching.ServerOverloaded` on rejection.
        """
        entry = self._entry(name)
        images = np.asarray(images, dtype=np.float64)
        if images.ndim != 4:
            raise ValueError(f"expected NCHW images, got shape {images.shape}")
        request = Request(images=images)
        try:
            entry.queue.put(request, timeout=timeout)
        except ServerOverloaded:
            # Only true backpressure counts as a shed.  A closed queue
            # (shutdown racing a submit) raises ServerClosed instead --
            # recording that as a rejection would inflate the shed rate
            # ``ModelStats`` reports.
            entry.stats.record_rejection()
            raise
        entry.stats.record_request(request.n_images)
        return request.future

    def infer(
        self,
        name: str,
        images: np.ndarray,
        timeout: Optional[float] = None,
        submit_timeout: Optional[float] = None,
    ) -> np.ndarray:
        """Synchronous request: submit, wait, return the output rows.

        ``submit_timeout`` defaults to ``timeout`` (block on a full
        queue as long as we would wait for the answer)."""
        future = self.submit(
            name, images, timeout=timeout if submit_timeout is None else submit_timeout
        )
        return future.result(timeout=timeout)

    # -- observability / lifecycle --------------------------------------
    def stats(self) -> Dict[str, Dict[str, object]]:
        """Per-model serving statistics (counters, latency, queue depth)."""
        with self._lock:
            entries = dict(self._models)
        return {name: entry.snapshot() for name, entry in entries.items()}

    def metrics(self) -> Dict[str, Dict[str, object]]:
        """JSON snapshot of the server's metrics registry."""
        return self.registry.snapshot()

    def metrics_text(self) -> str:
        """All serving telemetry in the Prometheus text format."""
        return prometheus_text(self.registry)

    def close(self, drain: bool = True, join_timeout: float = 10.0) -> None:
        """Shut down all model workers (and the tuner); idempotent."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            entries = list(self._models.values())
        if self.tuner is not None:
            self.tuner.stop()
        for entry in entries:
            entry.close(drain=drain, join_timeout=join_timeout)

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
