"""Lightweight per-layer, per-stage wall-clock tracing.

The paper's Figure 10 evidence is a *stage* breakdown -- input
transform, quantize, GEMM, output transform -- and that is exactly what
the runtime's instrumentation records: the engine lap-times its
algorithm bodies (:mod:`repro.runtime.engine`), the compiler records the
fused bias/ReLU epilogue and non-conv ops
(:mod:`repro.runtime.compiler`), and the compiled program sets the
current layer path around each step, so every stage sample lands under
``(layer path, stage)``.  ``repro profile`` renders the resulting
per-layer x per-stage table.

Cost model: tracing must be free when off and cheap when on.  A
disabled tracer (or none attached) costs one attribute check per engine
call -- the hot path contains no timing calls at all.  Enabled, each
conv step pays a handful of ``perf_counter`` laps and dict updates,
microseconds against millisecond-scale whole-tensor stages; the
``repro profile --overhead`` gate measures (and CI enforces) that this
stays within budget.

Thread-safety: the current layer path is thread-local (concurrent
sessions attribute their stages correctly), and so is accumulation:
each recording thread owns one accumulator, taken without a lock, and
the views merge them under the lock that guards their list.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

from .metrics import MetricsRegistry, Sample

__all__ = ["StageTracer", "STAGES"]

#: Canonical stage names, in pipeline order.  ``op`` covers whole-layer
#: calls that have no finer decomposition (pooling, linear, fp32 layers).
STAGES: Tuple[str, ...] = (
    "input_transform",
    "quantize",
    "gemm",
    "output_transform",
    "epilogue",
    "op",
)


class StageTracer:
    """Accumulates ``(layer path, stage) -> (seconds, calls)``.

    The engine and compiler guard every recording call with
    ``tracer.enabled``, so a constructed-but-disabled tracer is as cheap
    as no tracer.  ``registry`` (optional) registers a collector that
    exports the accumulated stage seconds/calls as Prometheus counters
    labeled ``{layer=..., stage=...}``.
    """

    def __init__(
        self, enabled: bool = True, registry: Optional[MetricsRegistry] = None
    ) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        #: One ``(path, stage) -> [seconds, calls]`` dict per recording
        #: thread; only its thread writes it.
        self._shards: List[Dict[Tuple[str, str], List[float]]] = []
        self._tls = threading.local()
        if registry is not None:
            registry.register_collector(self.collect)

    # -- enable / disable ----------------------------------------------
    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    # -- layer-path context --------------------------------------------
    def set_path(self, path: str) -> str:
        """Attribute this thread's later stages to ``path``; returns the
        previous path for the caller to restore."""
        prev = getattr(self._tls, "path", "")
        self._tls.path = path
        return prev

    @contextmanager
    def step(self, path: str) -> Iterator[None]:
        """Attribute stages recorded inside to ``path`` (re-entrant;
        the previous path is restored on exit)."""
        prev = self.set_path(path)
        try:
            yield
        finally:
            self._tls.path = prev

    @property
    def current_path(self) -> str:
        return getattr(self._tls, "path", "")

    # -- recording ------------------------------------------------------
    def record(self, stage: str, seconds: float, path: Optional[str] = None) -> None:
        if not self.enabled:
            return
        tls = self._tls
        shard = getattr(tls, "shard", None)
        if shard is None:
            shard = tls.shard = {}
            with self._lock:
                self._shards.append(shard)
        key = (path if path is not None else getattr(tls, "path", ""), stage)
        entry = shard.get(key)
        if entry is None:
            shard[key] = [seconds, 1]
        else:
            entry[0] += seconds
            entry[1] += 1

    def lap(self, stage: str, t0: float) -> float:
        """Record ``now - t0`` under ``stage`` and return ``now`` --
        consecutive laps tile a function body exactly (no gaps), which
        is what makes the per-layer stage sums agree with the outer
        step timing."""
        t1 = time.perf_counter()
        self.record(stage, t1 - t0)
        return t1

    @contextmanager
    def span(self, stage: str) -> Iterator[None]:
        """Record a whole ``with`` block under ``stage``."""
        if not self.enabled:
            yield
            return
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.record(stage, time.perf_counter() - t0)

    def _items(self) -> List[Tuple[Tuple[str, str], Tuple[float, int]]]:
        """The accumulators merged: ``[((path, stage), (seconds, calls))]``."""
        with self._lock:
            shards = list(self._shards)
        merged: Dict[Tuple[str, str], List[float]] = {}
        for shard in shards:
            for key, (seconds, calls) in list(shard.items()):
                total = merged.setdefault(key, [0.0, 0])
                total[0] += seconds
                total[1] += calls
        return [(key, (seconds, calls)) for key, (seconds, calls) in merged.items()]

    # -- views ----------------------------------------------------------
    def breakdown(self) -> Dict[str, Dict[str, float]]:
        """``{layer path: {stage: cumulative seconds}}``."""
        doc: Dict[str, Dict[str, float]] = {}
        for (path, stage), (seconds, _) in self._items():
            doc.setdefault(path, {})[stage] = seconds
        return doc

    def call_counts(self) -> Dict[str, Dict[str, int]]:
        """``{layer path: {stage: recorded laps}}``."""
        doc: Dict[str, Dict[str, int]] = {}
        for (path, stage), (_, calls) in self._items():
            doc.setdefault(path, {})[stage] = int(calls)
        return doc

    def stage_totals(self) -> Dict[str, float]:
        """Cumulative seconds per stage across all layers."""
        totals: Dict[str, float] = {}
        for stages in self.breakdown().values():
            for stage, seconds in stages.items():
                totals[stage] = totals.get(stage, 0.0) + seconds
        return totals

    def layer_totals(self) -> Dict[str, float]:
        """Cumulative seconds per layer (sum over stages)."""
        return {
            path: sum(stages.values()) for path, stages in self.breakdown().items()
        }

    def total_seconds(self) -> float:
        return sum(self.layer_totals().values())

    def reset(self) -> None:
        with self._lock:
            for shard in self._shards:
                shard.clear()

    # -- registry integration -------------------------------------------
    def collect(self):
        """Collector: stage seconds and call counts as counter samples."""
        for (path, stage), (seconds, calls) in self._items():
            labels = {"layer": path, "stage": stage}
            yield Sample(
                "repro_stage_seconds_total",
                seconds,
                labels=labels,
                kind="counter",
                help="Cumulative wall-clock per (layer, stage)",
            )
            yield Sample(
                "repro_stage_calls_total",
                calls,
                labels=labels,
                kind="counter",
                help="Recorded laps per (layer, stage)",
            )
