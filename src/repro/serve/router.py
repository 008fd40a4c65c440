"""Process-sharded serving: the thread tier's front-end over a worker pool.

:class:`ProcServer` keeps everything the thread-based
:class:`~repro.serve.server.Server` already does well -- per-model
bounded :class:`~repro.serve.batching.RequestQueue` backpressure,
dynamic micro-batching, per-model stats and metrics export -- and swaps
the execution layer: instead of a shared in-process
:class:`~repro.runtime.session.InferenceSession`, each coalesced batch
is shipped to one of N worker *processes*
(:class:`~repro.serve.procs.ProcPool`), sidestepping the GIL ceiling
that caps the thread tier no matter how fast one fused step is.

The seam is :class:`RemoteSession`: it duck-types the session surface
the batching machinery consumes (``run`` / ``runs`` / ``images_seen`` /
``cache_stats`` / ``input_shape``), so ``ServedModel`` and all of its
telemetry work unchanged -- dispatcher threads block in
``pool.run(...)`` where they used to block in ``session.run(...)``, and
the GIL releases around the pipe wait, so N dispatchers keep N worker
processes busy concurrently.

Admission control layers on the queue bound: when *zero* workers are
live (crash storm mid-restart), submits shed immediately with
:class:`~repro.serve.batching.ServerOverloaded` instead of queueing
work nobody can execute -- the queue bound alone would accept
``queue_size`` doomed requests first.

Bit-identity survives sharding: each worker compiles the same pickled
model for the same geometry and the integer pipeline is exact, so
which worker served a batch is unobservable in the output bytes.
Cross-process tuner coordination is inherited from the wisdom layer --
pass ``wisdom=`` and every worker session consults one flocked
:class:`~repro.tuning.wisdom.WisdomFile`, converging on the first
persisted algorithm choice per geometry.
"""

from __future__ import annotations

import pickle
import threading
from typing import Dict, Optional, Tuple

import numpy as np

from ..nn.layers import Layer
from ..obs.metrics import MetricsRegistry
from .batching import ServerOverloaded
from .procs import ProcPool
from .server import Server

__all__ = ["ProcServer", "RemoteSession"]


class RemoteSession:
    """Session facade whose ``run`` executes on a pool worker.

    Implements exactly the surface ``ServedModel`` consumes from a
    compiled session.  Counters are parent-side (every ``run`` through
    this facade), while ``cache_stats`` aggregates the plan-cache
    counters the workers piggyback on their replies -- the parent holds
    no plans of its own.
    """

    def __init__(
        self, name: str, pool: ProcPool, input_shape: Tuple[int, ...]
    ) -> None:
        self.name = name
        self.input_shape = tuple(input_shape)
        self._pool = pool
        self._lock = threading.Lock()
        self._runs = 0
        self._images = 0

    def run(self, images: np.ndarray) -> np.ndarray:
        y = self._pool.run(self.name, images)
        with self._lock:
            self._runs += 1
            self._images += int(images.shape[0])
        return y

    @property
    def runs(self) -> int:
        with self._lock:
            return self._runs

    @property
    def images_seen(self) -> int:
        with self._lock:
            return self._images

    def cache_stats(self) -> Dict[str, int]:
        return self._pool.aggregate_cache_stats()


class ProcServer(Server):
    """Multi-process model server: router in the parent, sessions in workers.

    Typical use::

        server = ProcServer(procs=4, wisdom="wisdom.json")
        server.add_model("resnet", model, input_shape=(8, 3, 32, 32))
        y = server.infer("resnet", images)   # bytewise == eager model(x)
        ...
        server.close()

    Differences from :class:`~repro.serve.server.Server`:

    * ``add_model`` requires ``model`` + ``input_shape`` (the model is
      pickled once and each worker compiles its own session; a prebuilt
      local session cannot be sharded).
    * ``workers_per_model`` defaults to ``procs`` so enough dispatcher
      threads exist to keep every worker process busy.
    * ``wisdom`` / ``tune_workers`` configure the *worker* sessions; the
      parent runs no tuner thread (measurement happens where execution
      happens, coordinated through the shared wisdom file).
    * ``close`` additionally stops the worker pool.
    """

    def __init__(
        self,
        procs: int = 2,
        max_batch: int = 16,
        max_delay_ms: float = 2.0,
        queue_size: int = 64,
        workers_per_model: Optional[int] = None,
        registry: Optional[MetricsRegistry] = None,
        wisdom: Optional[object] = None,
        tune_workers: bool = False,
    ) -> None:
        super().__init__(
            max_batch=max_batch,
            max_delay_ms=max_delay_ms,
            queue_size=queue_size,
            workers_per_model=(
                workers_per_model if workers_per_model is not None else procs
            ),
            registry=registry,
            wisdom=None,  # worker sessions own tuning; no parent-side tuner
            background_tuner=False,
        )
        self.procs = procs
        self._pool = ProcPool(
            procs, wisdom=wisdom, tune=tune_workers, registry=self.registry
        )

    # -- deployment -----------------------------------------------------
    def add_model(
        self,
        name: str,
        model: Optional[Layer] = None,
        input_shape: Optional[Tuple[int, ...]] = None,
        session=None,
        workers: Optional[int] = None,
    ):
        """Deploy ``model`` to every worker process under ``name``.

        The model is pickled once here (weights + quantization
        parameters travel; compiled plans do not) and each worker
        compiles its own session -- LoWino's prepare-once applied per
        process.  Returns the parent-side :class:`RemoteSession`.
        """
        if session is not None:
            raise ValueError(
                "ProcServer compiles sessions inside its workers; pass "
                "model + input_shape, not a prebuilt session"
            )
        if model is None or input_shape is None:
            raise ValueError("add_model needs a model + input_shape")
        payload = pickle.dumps(model, protocol=pickle.HIGHEST_PROTOCOL)
        self._pool.deploy(name, payload, tuple(input_shape))
        remote = RemoteSession(name, self._pool, tuple(input_shape))
        return super().add_model(name, session=remote, workers=workers)

    # -- request path ---------------------------------------------------
    def submit(self, name, images, timeout=0.0):
        """As :meth:`Server.submit`, plus pool-level admission control:
        with zero live workers the request is shed immediately (counted
        as a rejection) rather than queued for nobody."""
        entry = self._entry(name)
        if self._pool.live_count() == 0:
            entry.stats.record_rejection()
            raise ServerOverloaded(
                f"model {name!r}: no live worker processes "
                f"(pool restarts: {self._pool.restarts})"
            )
        return super().submit(name, images, timeout=timeout)

    # -- introspection ---------------------------------------------------
    def selection(self, name: str) -> Dict[int, Dict[str, str]]:
        """Per-worker applied algorithm selections for ``name`` -- the
        cross-process wisdom-convergence gate asserts these are
        identical across workers."""
        self._entry(name)  # raise KeyError for unknown models
        return self._pool.selection(name)

    def pool_stats(self) -> Dict[str, object]:
        """Worker-pool snapshot: liveness, restarts, per-worker counters."""
        return self._pool.stats()

    # -- lifecycle -------------------------------------------------------
    def close(self, drain: bool = True, join_timeout: float = 10.0) -> None:
        """Drain the queues, stop dispatchers, then stop the pool."""
        super().close(drain=drain, join_timeout=join_timeout)
        self._pool.stop()
