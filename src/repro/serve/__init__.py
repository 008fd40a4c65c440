"""Concurrency-safe serving layer over compiled inference sessions.

The runtime's offline/online split (prepare plans once, execute many
times) pays off at deployment when one prepared session serves many
concurrent callers.  This package provides that deployment shape:

* :class:`~repro.serve.server.Server` -- one compiled
  :class:`~repro.runtime.session.InferenceSession` per model, worker
  threads, synchronous (:meth:`~repro.serve.server.Server.infer`) and
  asynchronous (:meth:`~repro.serve.server.Server.submit`) request
  paths;
* :mod:`~repro.serve.batching` -- the bounded request queue with
  dynamic micro-batching (coalesce up to ``max_batch`` images or
  ``max_delay_ms``, split results back per request) and the
  backpressure / closed-server error types;
* :mod:`~repro.serve.stats` -- per-model latency distributions, queue
  depth, and batch-coalescing counters;
* :mod:`~repro.serve.bench` -- ``repro serve-bench``: throughput vs
  client-thread count with a hard bit-identity gate against serial
  eager execution;
* :mod:`~repro.serve.workload` -- seeded request traces (which model,
  how many images, which payload seed), with a digest proving two runs
  served the same schedule;
* :mod:`~repro.serve.procs` / :mod:`~repro.serve.router` -- the
  process tier: :class:`~repro.serve.router.ProcServer` shards
  execution across N worker processes (each compiling its own session
  from one pickled model), with raw-byte tensor transport over each
  worker's control pipe, restart-on-crash health checks, and
  cross-process tuner coordination through one shared wisdom file.
  ``repro serve-bench --procs`` sweeps worker counts past the
  single-process GIL ceiling.

Quick use::

    from repro.serve import Server
    server = Server(max_batch=16, max_delay_ms=2.0)
    server.add_model("resnet", quantized_model, input_shape=(8, 3, 32, 32))
    logits = server.infer("resnet", images)
    server.stats()["resnet"]["latency"]
    server.close()
"""

from .batching import InferenceFuture, Request, RequestQueue, ServerClosed, ServerOverloaded
from .procs import ProcPool, RemoteExecutionError, WorkerError
from .router import ProcServer, RemoteSession
from .server import ServedModel, Server
from .stats import LatencyStats, ModelStats
from .workload import (
    FixedSizes,
    ModelWorkload,
    Trace,
    TraceEvent,
    UniformArrivals,
    build_trace,
)

__all__ = [
    "FixedSizes",
    "InferenceFuture",
    "LatencyStats",
    "ModelStats",
    "ModelWorkload",
    "ProcPool",
    "ProcServer",
    "RemoteExecutionError",
    "RemoteSession",
    "Request",
    "RequestQueue",
    "ServedModel",
    "Server",
    "ServerClosed",
    "ServerOverloaded",
    "Trace",
    "TraceEvent",
    "UniformArrivals",
    "WorkerError",
    "build_trace",
]
