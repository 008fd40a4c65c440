"""InferenceSession: the compiled front door for whole-model execution.

A session owns the full compile-then-execute pipeline for one model:
trace to the graph IR, lower every convolution onto the vectorized
runtime (:mod:`repro.runtime.compiler`), and serve ``run(batch)`` with a
private :class:`~repro.runtime.cache.PlanCache` of prepared plans shared
by all layers, resolved once at lowering so a run looks nothing up.
Intermediates live in the engine's scratch pool: one grow-to-fit arena
per concurrent run, sized by the largest call it has served.

Sessions are observable: every run accumulates per-layer wall-clock into
:attr:`timings` (keyed by the stable layer paths from
:func:`repro.nn.model.named_convs`), and :meth:`cache_stats` reports the
aggregated plan-cache hit/miss/eviction counters -- the numbers
``repro bench --cache-stats`` surfaces for model runs.

A session is callable (``session(batch)``), so it drops into any API
written against an eager model, e.g.
:func:`repro.nn.metrics.evaluate_model`.

Sessions are thread-safe: one prepared session can serve ``run`` from
any number of threads (the LoWino deployment shape -- prepare once,
serve many).  Execution shares only immutable plans, the internally
locked :class:`~repro.runtime.cache.PlanCache`, and leases from the
engine's :class:`~repro.runtime.plan.ScratchPool`; the cumulative
statistics are merged under a private lock.  :mod:`repro.serve` builds
a batching server on top of this guarantee.

Typical flow (see README quickstart)::

    model = build_resnet_small()
    quantize_model(model, "auto", calibration_batches=batches)
    session = InferenceSession(model, input_shape=(8, 3, 32, 32))
    logits = session.run(images)          # bit-identical to model(images)

The wrapped model must not be re-quantized after the session is built
(plans capture the prepared engine objects); build a new session
instead -- tracing and lowering cost microseconds next to one batch.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from ..nn.layers import Layer
from ..obs.metrics import MetricsRegistry, Sample
from ..obs.tracer import StageTracer
from .cache import PlanCache
from .compiler import CompiledProgram, compile_model, relower_conv, reselect_conv
from .engine import ExecutionEngine

__all__ = ["InferenceSession"]


class InferenceSession:
    """Compiled, cache-backed execution of one model."""

    def __init__(
        self,
        model: Layer,
        input_shape: Tuple[int, ...],
        cache: Optional[PlanCache] = None,
        engine: Optional[ExecutionEngine] = None,
        collect_timings: bool = True,
        tracer: Optional[StageTracer] = None,
        registry: Optional[MetricsRegistry] = None,
        wisdom: Optional[object] = None,
        selector: Optional[object] = None,
        tune: bool = False,
        cache_eviction: str = "lru",
    ) -> None:
        self.model = model
        self.input_shape = tuple(int(s) for s in input_shape)
        if cache is None:
            # Room for every conv's plan, and for plans re-lowered by
            # wisdom refreshes, without evicting within a run.
            n_convs = sum(1 for _ in _convs(model))
            cache = PlanCache(
                capacity=max(64, 8 * max(1, n_convs)), eviction=cache_eviction
            )
        self.cache = cache
        #: Session-wide telemetry hub.  Private by default so two
        #: sessions never alias counters; pass a shared registry to
        #: aggregate (the serving layer labels per model instead).
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer
        if engine is None:
            engine = ExecutionEngine(cache=cache, tracer=tracer)
        elif tracer is not None:
            engine.tracer = tracer
        self.engine = engine
        if tracer is not None:
            self.registry.register_collector(tracer.collect)
        #: Algorithm selector (wisdom-driven planning).  ``wisdom`` is a
        #: convenience: a path / WisdomFile builds a default selector.
        #: Lazy import keeps plain sessions free of the tuning layer.
        if selector is None and wisdom is not None:
            from ..tuning.selector import AlgorithmSelector

            selector = AlgorithmSelector(wisdom=wisdom)
        self.selector = selector
        #: Bumped by :meth:`refresh_selection` whenever a conv was
        #: re-lowered to a newly landed wisdom choice.
        self.selection_epoch = 0
        self._relower_lock = threading.Lock()
        self.program: CompiledProgram = compile_model(
            model, self.input_shape, cache=self.cache, engine=self.engine,
            selector=selector, tune=tune,
        )
        if self.program.selection:
            # Warm the wisdom-known plans (and the engine's scratch)
            # before the first request hits them; program.run bypasses
            # the session counters so telemetry stays request-only.
            self.program.run(np.zeros(self.input_shape))
        self.collect_timings = collect_timings
        #: Guards the cumulative statistics below; ``run`` itself holds
        #: no lock while executing, so N threads can run concurrently.
        self._stats_lock = threading.Lock()
        #: Cumulative per-layer seconds across all runs, by layer path.
        self.timings: Dict[str, float] = {}
        #: Number of ``run`` calls since construction / ``reset_stats``.
        self._runs = self.registry.counter(
            "repro_session_runs_total", help="run() calls on this session"
        )
        #: Total images pushed through ``run``.
        self._images = self.registry.counter(
            "repro_session_images_total", help="images executed by this session"
        )
        #: Convs re-lowered by :meth:`refresh_selection`.
        self._relowered = self.registry.counter(
            "repro_session_relowered_total",
            help="convs re-lowered to a newly landed wisdom choice",
        )
        self.registry.register_collector(self._collect)

    @property
    def graph(self):
        return self.program.graph

    @property
    def selection(self) -> Dict[str, str]:
        """conv path -> applied algorithm label (wisdom-driven choices)."""
        return dict(self.program.selection)

    def refresh_selection(self) -> list:
        """Epoch-based re-lowering: adopt newly landed wisdom choices.

        Re-consults the selector (``measure=False`` -- a cheap wisdom
        refresh + lookup, never a measurement) for every conv, each
        within its own family (quantized convs among the INT8
        pipelines, full-precision convs among fp32_winograd@m /
        fp32_direct), and, where the persisted choice differs from the
        running engine, swaps ``conv.engine`` and the step's plan in
        place.
        Numerically safe by construction: a swap only applies when it
        preserves the conv's calibrated quantization
        (:func:`~repro.tuning.selector.swap_preserves_calibration`),
        and eager + compiled keep sharing the one rebuilt engine
        object.  New plans are warmed with a zero batch before the
        epoch is published.

        Returns the re-lowered conv paths (empty when nothing changed).
        The background tuner calls this during idle periods only.
        """
        if self.selector is None:
            return []
        changed = []
        with self._relower_lock:
            graph = self.program.graph
            for step in self.program.steps:
                if step.kind != "conv":
                    continue
                outcome = reselect_conv(
                    step.node.layer, graph.in_shape(step.node), self.selector,
                    measure=False,
                )
                if outcome is None:
                    continue
                label, swapped = outcome
                if swapped:
                    relower_conv(step, self.cache)
                    changed.append(step.path)
                self.program.selection[step.path] = label
            if changed:
                self.program.run(np.zeros(self.input_shape))
                self.selection_epoch += 1
                self._relowered.inc(len(changed))
        return changed

    @property
    def runs(self) -> int:
        """Number of ``run`` calls since construction / ``reset_stats``."""
        return int(self._runs.value)

    @property
    def images_seen(self) -> int:
        """Total images pushed through ``run``."""
        return int(self._images.value)

    def run(self, images: np.ndarray) -> np.ndarray:
        """Execute the compiled program on one NCHW batch.

        Safe to call from any number of threads: execution itself is
        lock-free (plans are immutable, scratch is leased per call, the
        plan cache has its own lock), and per-run timings accumulate in
        a thread-local dict merged into :attr:`timings` under
        ``_stats_lock`` afterwards.
        """
        images = np.asarray(images)
        local: Optional[Dict[str, float]] = {} if self.collect_timings else None
        out = self.program.run(images, timings=local)
        if local:
            with self._stats_lock:
                for path, seconds in local.items():
                    self.timings[path] = self.timings.get(path, 0.0) + seconds
        self._runs.inc()
        self._images.inc(int(images.shape[0]))
        return out

    __call__ = run

    def run_batches(self, batches: Iterable[np.ndarray]) -> Iterable[np.ndarray]:
        """Lazily map ``run`` over a stream of batches."""
        return (self.run(b) for b in batches)

    def layer_timings(self) -> Dict[str, float]:
        """Cumulative seconds per layer path, slowest first."""
        with self._stats_lock:
            items = list(self.timings.items())
        return dict(sorted(items, key=lambda kv: -kv[1]))

    def cache_stats(self) -> Dict[str, int]:
        """Aggregated plan-cache counters for this session's cache."""
        return self.cache.stats_dict()

    def scratch_stats(self) -> Dict[str, int]:
        """Lease counters and footprint of the engine's scratch pool."""
        return self.engine.scratch.stats_dict()

    def stats(self) -> Dict[str, object]:
        """One JSON-ready snapshot of everything this session tracks."""
        doc: Dict[str, object] = {
            "runs": self.runs,
            "images_seen": self.images_seen,
            "timings": self.layer_timings(),
            "cache": self.cache_stats(),
            "scratch": self.scratch_stats(),
        }
        if self.selector is not None:
            doc["selection"] = self.selection
            doc["selection_epoch"] = self.selection_epoch
        if self.tracer is not None:
            doc["stages"] = self.tracer.breakdown()
        return doc

    def metrics_text(self) -> str:
        """This session's registry in Prometheus text format."""
        from ..obs.export import prometheus_text

        return prometheus_text(self.registry)

    def reset_stats(self) -> None:
        """Start a fresh statistics epoch: per-layer timings, run/image
        counters, *and* the plan-cache counters (a post-reset snapshot
        must not mix epochs).  Live plans and scratch stay resident."""
        with self._stats_lock:
            self.timings = {}
        self._runs.reset()
        self._images.reset()
        self.cache.reset_stats()
        if self.tracer is not None:
            self.tracer.reset()

    def _collect(self):
        """Registry collector: plan-cache and scratch-pool telemetry."""
        cache = self.cache.stats_dict()
        for key in ("hits", "misses", "evictions"):
            yield Sample(
                f"repro_plan_cache_{key}_total",
                cache[key],
                kind="counter",
                help=f"Plan cache {key}",
            )
        yield Sample(
            "repro_plan_cache_bytes", cache["bytes"], help="Resident plan bytes"
        )
        yield Sample(
            "repro_plan_cache_entries", cache["entries"], help="Resident plan entries"
        )
        scratch = self.scratch_stats()
        for key in ("acquires", "releases", "grows"):
            yield Sample(
                f"repro_scratch_{key}_total",
                scratch[key],
                kind="counter",
                help=f"Scratch pool {key}",
            )
        for key in ("in_use", "peak_in_use", "arenas", "nbytes"):
            yield Sample(
                f"repro_scratch_{key}", scratch[key], help=f"Scratch pool {key}"
            )

    def describe(self) -> str:
        """Human-readable program listing (graph + per-step algorithms)."""
        lines = [
            f"InferenceSession: {len(self.program.steps)} steps, "
            f"input {self.input_shape}"
        ]
        for step in self.program.steps:
            algo = step.plan.algorithm if step.plan is not None else "-"
            fused = "+relu" if step.relu else ""
            lines.append(f"  {step.kind}{fused:6s} {algo:15s} {step.path}")
        return "\n".join(lines)


def _convs(model: Layer):
    from ..nn.model import named_convs

    return (conv for _, conv in named_convs(model))
