"""Worker processes and pickle-free tensor transport for the proc tier.

The thread-based :class:`~repro.serve.server.Server` caps out at the
GIL: however fast one fused step is, one Python process executes one
interpreter instruction stream.  This module supplies the pieces the
process tier (:class:`~repro.serve.router.ProcServer`) is built from:

* :func:`encode_array` / :func:`decode_array` -- the tensor transport.
  Request and response tensors travel over the control pipe as a tiny
  header (shape, dtype) plus their raw C-order bytes -- no pickling of
  array objects on the hot path -- and are decoded into a private copy.
* :class:`WorkerProcess` -- the parent-side handle of one worker: a
  spawned process owning its *own* compiled
  :class:`~repro.runtime.session.InferenceSession` per deployed model
  (LoWino's offline/online split at process granularity: prepare once
  per worker, serve many) and a duplex control pipe.
* :class:`ProcPool` -- N workers behind depth-weighted checkout, with
  health checks and restart-on-crash: a dead or wedged worker is
  terminated, respawned, and re-deployed with every model; its
  in-flight batch fails over to another live worker (the request bytes
  still live in the parent, so failover is a retry, not a loss).

Bit-identity is preserved by construction: every worker compiles the
same pickled model for the same input geometry, and the runtime's
integer pipeline is exact, so a batch served by *any* worker is
bytewise the serial eager result.

Cross-process tuner coordination comes for free from the wisdom layer:
every worker session points at one shared
:class:`~repro.tuning.wisdom.WisdomFile` path, and the flock +
disk-wins merge makes whoever persists a geometry's choice first
decide it for the whole flock -- N processes converge on identical
algorithm selections without any extra protocol.
"""

from __future__ import annotations

import multiprocessing
import pickle
import threading
import time
import warnings
from typing import Dict, List, Optional, Tuple

import numpy as np

__all__ = [
    "ProcPool",
    "RemoteExecutionError",
    "WorkerError",
    "WorkerProcess",
]

#: Control-channel timeouts (seconds).  Deploys compile (and possibly
#: tune) whole models inside the worker, so they get a generous bound.
DEFAULT_RUN_TIMEOUT_S = 60.0
DEFAULT_DEPLOY_TIMEOUT_S = 300.0
#: How often the health loop looks for dead or retired workers.
DEFAULT_HEALTH_INTERVAL_S = 0.5


class WorkerError(RuntimeError):
    """The worker process itself failed (died, hung, or lost its pipe).

    Distinct from :class:`RemoteExecutionError`: a ``WorkerError`` means
    the worker must be restarted; the request may be retried elsewhere.
    """


class RemoteExecutionError(RuntimeError):
    """The deployed session raised inside a healthy worker.

    The worker stays up; the error belongs to the request that caused
    it (bad channel count, non-finite input, ...), mirroring how the
    thread tier propagates session exceptions to the future."""


def encode_array(x: np.ndarray) -> Dict[str, object]:
    """Serialize ``x`` into a transport header: shape, dtype and the raw
    C-order bytes, which ride the control pipe."""
    return {
        "shape": tuple(int(s) for s in x.shape),
        "dtype": str(x.dtype),
        "data": x.tobytes(),
    }


def decode_array(header: Dict[str, object]) -> np.ndarray:
    """Materialize (a private copy of) the tensor behind a header."""
    shape = tuple(header["shape"])  # type: ignore[arg-type]
    dtype = np.dtype(str(header["dtype"]))
    return np.frombuffer(header["data"], dtype=dtype).reshape(shape).copy()


# ---------------------------------------------------------------------------
# worker-side main loop
# ---------------------------------------------------------------------------


def _session_counters(sessions: Dict[str, object]) -> Dict[str, object]:
    """Cumulative per-worker counters piggybacked on every reply."""
    cache = {"hits": 0, "misses": 0, "evictions": 0, "bytes": 0, "entries": 0}
    runs = images = 0
    for session in sessions.values():
        runs += int(getattr(session, "runs", 0))
        images += int(getattr(session, "images_seen", 0))
        try:
            for key, value in session.cache_stats().items():
                if key in cache:
                    cache[key] += int(value)
        except Exception:  # pragma: no cover - duck-typed sessions
            pass
    return {"runs": runs, "images": images, "cache": cache}


def _worker_main(conn, worker_id: int, options: Dict[str, object]) -> None:
    """One worker process: deploy models, serve run/stats/selection.

    Top-level so it is importable under the ``spawn`` start method.
    The loop exits on ``stop``, EOF (parent died), or a broken pipe;
    everything raised while handling a command is reported as an
    ``("err", ...)`` reply instead of killing the worker.
    """
    from ..runtime.session import InferenceSession

    sessions: Dict[str, InferenceSession] = {}
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        cmd = msg[0]
        try:
            if cmd == "deploy":
                _, name, payload, input_shape, kw = msg
                model = pickle.loads(payload)
                sessions[name] = InferenceSession(
                    model,
                    tuple(input_shape),
                    collect_timings=False,
                    wisdom=options.get("wisdom"),
                    tune=bool(kw.get("tune", options.get("tune", False))),
                    cache_eviction="lfu",
                )
                reply = ("ok", None)
            elif cmd == "run":
                _, name, header = msg
                y = sessions[name].run(decode_array(header))
                reply = ("ok", encode_array(y), _session_counters(sessions))
            elif cmd == "selection":
                _, name = msg
                reply = ("ok", dict(sessions[name].selection))
            elif cmd == "refresh_selection":
                _, name = msg
                reply = ("ok", [str(p) for p in sessions[name].refresh_selection()])
            elif cmd == "stats":
                reply = ("ok", _session_counters(sessions))
            elif cmd == "stop":
                try:
                    conn.send(("ok", None))
                finally:
                    break
            else:
                reply = ("err", f"unknown command {cmd!r}")
        except BaseException as exc:
            reply = ("err", f"{type(exc).__name__}: {exc}")
        try:
            conn.send(reply)
        except (OSError, BrokenPipeError):  # parent went away
            break
    conn.close()


# ---------------------------------------------------------------------------
# parent-side handles
# ---------------------------------------------------------------------------


class WorkerProcess:
    """Parent-side handle of one worker: control pipe and liveness.

    Workers always start with ``spawn``: the router's dispatcher and
    health threads are running when a worker (re)starts, and ``fork``
    is unsafe in a process that has threads."""

    def __init__(self, worker_id: int, options: Dict[str, object]) -> None:
        self.worker_id = worker_id
        ctx = multiprocessing.get_context("spawn")
        parent_conn, child_conn = ctx.Pipe()
        self._conn = parent_conn
        self._lock = threading.Lock()
        #: Last counters doc the worker piggybacked on a reply.
        self.last_stats: Dict[str, object] = {}
        self.proc = ctx.Process(
            target=_worker_main,
            args=(child_conn, worker_id, options),
            daemon=True,
            name=f"repro-proc-worker-{worker_id}",
        )
        self.proc.start()
        child_conn.close()

    def alive(self) -> bool:
        return self.proc.is_alive()

    def call(self, msg: tuple, timeout: Optional[float]):
        """One request/reply over the control pipe (serialized per worker).

        Raises :class:`RemoteExecutionError` for in-worker exceptions
        and :class:`WorkerError` when the worker is gone or wedged --
        after a timeout the pipe is desynchronized (a late reply could
        answer the *next* command), so the caller must retire this
        worker rather than reuse it."""
        with self._lock:
            try:
                self._conn.send(msg)
                if not self._conn.poll(timeout):
                    raise WorkerError(
                        f"worker {self.worker_id} timed out after {timeout}s "
                        f"on {msg[0]!r}"
                    )
                reply = self._conn.recv()
            except WorkerError:
                raise
            except (EOFError, OSError, BrokenPipeError) as exc:
                raise WorkerError(
                    f"worker {self.worker_id} connection lost: {exc}"
                ) from exc
        if reply[0] == "err":
            raise RemoteExecutionError(f"worker {self.worker_id}: {reply[1]}")
        return reply[1] if len(reply) == 2 else reply[1:]

    def run(self, name: str, x: np.ndarray, timeout: Optional[float]) -> np.ndarray:
        """Execute one coalesced batch remotely; returns the output rows."""
        out_header, counters = self.call(("run", name, encode_array(x)), timeout)
        self.last_stats = counters
        return decode_array(out_header)

    def stop(self, timeout: float = 5.0) -> None:
        """Graceful stop, escalating to terminate/kill."""
        if self.proc.is_alive():
            try:
                self.call(("stop",), timeout=timeout)
            except (WorkerError, RemoteExecutionError):
                pass
        self.proc.join(timeout=timeout)
        if self.proc.is_alive():  # pragma: no cover - stuck worker
            self.proc.terminate()
            self.proc.join(timeout=timeout)
            if self.proc.is_alive():
                self.proc.kill()
                self.proc.join(timeout=timeout)
        try:
            self._conn.close()
        except OSError:  # pragma: no cover
            pass

    def kill(self) -> None:
        """Immediate termination (health loop / failover path)."""
        if self.proc.is_alive():
            self.proc.terminate()


class ProcPool:
    """N worker processes behind depth-weighted checkout, with
    restart-on-crash.

    ``run`` checks out the live worker with the fewest *outstanding*
    runs (ties broken by lowest id), ships the batch, and checks it back
    in.  Weighting by outstanding depth -- rather than FIFO free-list
    order -- means a slow worker accumulates depth and naturally absorbs
    fewer new batches, while a just-respawned worker (depth 0) picks up
    load immediately; per-worker dispatch counts are exported in
    :meth:`stats` and ``repro_worker_dispatched_total``.  A worker that
    dies or wedges mid-batch is retired (terminated, never reselected)
    and the batch fails over to the next live worker.  A background
    health thread respawns retired or crashed workers and re-deploys
    every model, so capacity recovers without operator action;
    ``restarts`` counts how often.
    """

    def __init__(
        self,
        procs: int,
        wisdom: Optional[object] = None,
        tune: bool = False,
        registry=None,
    ) -> None:
        if procs < 1:
            raise ValueError(f"procs must be >= 1, got {procs}")
        self.procs = procs
        self.run_timeout_s = DEFAULT_RUN_TIMEOUT_S
        self.deploy_timeout_s = DEFAULT_DEPLOY_TIMEOUT_S
        self.health_interval_s = DEFAULT_HEALTH_INTERVAL_S
        self._options = {
            "wisdom": str(wisdom) if wisdom is not None else None,
            "tune": tune,
        }
        self._lock = threading.Lock()
        self._workers: List[WorkerProcess] = [
            WorkerProcess(i, self._options) for i in range(procs)
        ]
        self._retired: set = set()  # worker ids awaiting respawn
        self._deployed: Dict[str, Tuple[bytes, Tuple[int, ...], Dict[str, object]]] = {}
        #: Signalled when checkout candidates may have changed (checkin,
        #: respawn, stop); shares ``_lock`` so depth reads are consistent.
        self._cond = threading.Condition(self._lock)
        #: Outstanding (checked-out, not yet checked-in) runs per worker.
        self._depth: List[int] = [0] * procs
        #: Cumulative batches dispatched per worker slot.
        self._dispatched: List[int] = [0] * procs
        self.restarts = 0
        self._closed = threading.Event()
        self._health = threading.Thread(
            target=self._health_loop, name="repro-proc-health", daemon=True
        )
        self._health.start()
        if registry is not None:
            registry.register_collector(self._collect)

    # -- deployment -----------------------------------------------------
    def deploy(self, name: str, payload: bytes, input_shape: Tuple[int, ...], **kw) -> None:
        """Ship one pickled model to every worker (each compiles its own
        session); remembered for re-deploys after a restart."""
        with self._lock:
            self._deployed[name] = (payload, tuple(input_shape), dict(kw))
            workers = list(self._workers)
        errors = []
        for worker in workers:
            try:
                worker.call(
                    ("deploy", name, payload, tuple(input_shape), dict(kw)),
                    self.deploy_timeout_s,
                )
            except (WorkerError, RemoteExecutionError) as exc:
                errors.append(exc)
        if len(errors) == len(workers):
            raise errors[0]
        if errors:  # partial deploy: health loop will heal the dead ones
            warnings.warn(
                f"model {name!r} deployed to {len(workers) - len(errors)}/"
                f"{len(workers)} workers ({errors[0]}); the health loop will "
                f"restart and re-deploy the rest",
                RuntimeWarning,
                stacklevel=2,
            )

    # -- request path ---------------------------------------------------
    def run(self, name: str, x: np.ndarray) -> np.ndarray:
        """Run one batch on the next free live worker, with failover."""
        attempts = self.procs
        for _ in range(attempts):
            worker = self._checkout()
            try:
                y = worker.run(name, x, self.run_timeout_s)
            except WorkerError:
                self._retire(worker)
                continue
            except RemoteExecutionError:
                self._checkin(worker)
                raise
            self._checkin(worker)
            return y
        raise WorkerError(
            f"no live worker completed the batch after {attempts} attempt(s)"
        )

    def _checkout(self) -> WorkerProcess:
        """The live worker with the fewest outstanding runs.

        Never blocks while any worker is live (runs on one worker
        serialize on its pipe lock, so stacking depth is safe); blocks
        only when *zero* workers are live, waiting for the health loop
        to respawn one within the run deadline.
        """
        deadline = time.perf_counter() + self.run_timeout_s
        with self._cond:
            while True:
                candidates = [
                    w
                    for w in self._workers
                    if w.worker_id not in self._retired and w.alive()
                ]
                if candidates:
                    worker = min(
                        candidates,
                        key=lambda w: (self._depth[w.worker_id], w.worker_id),
                    )
                    self._depth[worker.worker_id] += 1
                    self._dispatched[worker.worker_id] += 1
                    return worker
                if self._closed.is_set():
                    raise WorkerError("worker pool is stopped")
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    raise WorkerError("no live worker became available in time")
                self._cond.wait(timeout=min(remaining, 0.25))

    def _checkin(self, worker: WorkerProcess) -> None:
        with self._cond:
            # Only the still-installed object's depth is live state: a
            # respawn resets the slot's depth, so a late checkin from
            # before the restart must not go negative.
            if self._workers[worker.worker_id] is worker:
                self._depth[worker.worker_id] = max(
                    0, self._depth[worker.worker_id] - 1
                )
            self._cond.notify_all()

    def _retire(self, worker: WorkerProcess) -> None:
        """Take a broken worker out of rotation; the health loop
        respawns it (the dead process cannot serve, but its slot and
        deployments are rebuilt from the parent's records)."""
        with self._lock:
            if worker.worker_id in self._retired:
                return
            self._retired.add(worker.worker_id)
        worker.kill()

    # -- health / restart ----------------------------------------------
    def _health_loop(self) -> None:
        while not self._closed.wait(self.health_interval_s):
            self._heal()

    def _heal(self) -> None:
        with self._lock:
            dead = [
                w.worker_id
                for w in self._workers
                if w.worker_id in self._retired or not w.alive()
            ]
        for worker_id in dead:
            if self._closed.is_set():
                return
            try:
                self._respawn(worker_id)
            except Exception as exc:  # pragma: no cover - spawn failure
                warnings.warn(
                    f"worker {worker_id} respawn failed: {exc}",
                    RuntimeWarning,
                    stacklevel=2,
                )

    def _respawn(self, worker_id: int) -> None:
        with self._lock:
            old = self._workers[worker_id]
            deployed = dict(self._deployed)
        old.stop(timeout=1.0)
        replacement = WorkerProcess(worker_id, self._options)
        for name, (payload, input_shape, kw) in deployed.items():
            replacement.call(
                ("deploy", name, payload, input_shape, kw), self.deploy_timeout_s
            )
        with self._cond:
            self._workers[worker_id] = replacement
            self._retired.discard(worker_id)
            self._depth[worker_id] = 0  # fresh worker starts unloaded
            self.restarts += 1
            self._cond.notify_all()

    # -- introspection --------------------------------------------------
    def live_count(self) -> int:
        with self._lock:
            return sum(
                1
                for w in self._workers
                if w.worker_id not in self._retired and w.alive()
            )

    def selection(self, name: str) -> Dict[int, Dict[str, str]]:
        """Per-worker applied algorithm selections for one model (the
        cross-process wisdom-convergence gate reads this)."""
        out: Dict[int, Dict[str, str]] = {}
        with self._lock:
            workers = [
                w
                for w in self._workers
                if w.worker_id not in self._retired and w.alive()
            ]
        for worker in workers:
            out[worker.worker_id] = worker.call(
                ("selection", name), self.run_timeout_s
            )
        return out

    def stats(self) -> Dict[str, object]:
        """Pool-level snapshot: liveness, restarts, per-worker counters."""
        with self._lock:
            workers = list(self._workers)
            retired = set(self._retired)
            restarts = self.restarts
            depth = list(self._depth)
            dispatched = list(self._dispatched)
        return {
            "procs": self.procs,
            "live": sum(
                1 for w in workers if w.worker_id not in retired and w.alive()
            ),
            "restarts": restarts,
            "workers": {
                w.worker_id: {
                    "alive": w.alive() and w.worker_id not in retired,
                    "depth": depth[w.worker_id],
                    "dispatched": dispatched[w.worker_id],
                    **(w.last_stats or {"runs": 0, "images": 0}),
                }
                for w in workers
            },
        }

    def aggregate_cache_stats(self) -> Dict[str, int]:
        """Summed plan-cache counters across workers (last-seen docs)."""
        total = {"hits": 0, "misses": 0, "evictions": 0, "bytes": 0, "entries": 0}
        with self._lock:
            workers = list(self._workers)
        for worker in workers:
            cache = (worker.last_stats or {}).get("cache", {})
            for key in total:
                total[key] += int(cache.get(key, 0))
        return total

    def _collect(self):
        """Registry collector: per-worker labeled liveness and counters,
        aggregated in the parent's metrics export."""
        from ..obs.metrics import Sample

        with self._lock:
            workers = list(self._workers)
            retired = set(self._retired)
            restarts = self.restarts
            depth = list(self._depth)
            dispatched = list(self._dispatched)
        yield Sample(
            "repro_pool_restarts_total",
            restarts,
            {},
            "counter",
            "worker process restarts (crash + wedge recoveries)",
        )
        for worker in workers:
            labels = {"worker": str(worker.worker_id)}
            stats = worker.last_stats or {}
            yield Sample(
                "repro_worker_up",
                1.0 if (worker.alive() and worker.worker_id not in retired) else 0.0,
                dict(labels),
                "gauge",
                "worker process liveness",
            )
            yield Sample(
                "repro_worker_runs_total",
                int(stats.get("runs", 0)),
                dict(labels),
                "counter",
                "session.run calls executed by this worker",
            )
            yield Sample(
                "repro_worker_images_total",
                int(stats.get("images", 0)),
                dict(labels),
                "counter",
                "images executed by this worker",
            )
            yield Sample(
                "repro_worker_outstanding",
                depth[worker.worker_id],
                dict(labels),
                "gauge",
                "batches checked out to this worker and not yet returned",
            )
            yield Sample(
                "repro_worker_dispatched_total",
                dispatched[worker.worker_id],
                dict(labels),
                "counter",
                "batches dispatched to this worker slot by the router",
            )

    # -- lifecycle ------------------------------------------------------
    def stop(self, timeout: float = 10.0) -> None:
        """Stop the health loop and every worker; idempotent."""
        if self._closed.is_set():
            return
        self._closed.set()
        with self._cond:
            self._cond.notify_all()  # wake checkout waiters to fail fast
        self._health.join(timeout=timeout)
        with self._lock:
            workers = list(self._workers)
        for worker in workers:
            worker.stop(timeout=timeout)

    def __enter__(self) -> "ProcPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
