"""Vectorized execution of prepared convolution plans.

The online path of every algorithm runs over *all* tiles of a layer at
once -- each Winograd transform as one native pass over the whole
layer (gather + ``B^T d B`` + quantize into the GEMM layout;
dequantize + ``A^T Z A`` + assembly out of it), the batched GEMM as one
call -- with no per-tile or per-task Python loop anywhere.  The
loop-based implementations stay available
(:meth:`repro.core.LoWinoConv2d.reference_forward`,
:func:`repro.gemm.batched_gemm_blocked`) for differential testing.

All six algorithms -- the four quantized pipelines and the two FP32
baselines -- run as fused pipelines (:mod:`repro.runtime.backends`):
the engine builds the call's tile grid, leases a scratch arena from its
own pool, and runs the algorithm's pipeline.  The pipelines run their
transform passes and integer GEMMs in the compiled kernels of
:mod:`repro.native` (``vpdpbusd`` / ``vpdpwssd`` and 8-lane fma where
the CPU has AVX-512 VNNI): the GEMMs' s32 sums wrap exactly as the
reference layers' int32 casts do, and the transforms compute each
element as the fma chains BLAS computes for the reference layers'
per-tile transforms; the FP32 pipelines run one serial ``np.matmul``.
Every pipeline is bitwise identical to its reference layer (see the
bit-identity notes in :mod:`repro.runtime.backends`).
"""

from __future__ import annotations

import time
from typing import Any, Optional

import numpy as np

from ..winograd import tile_grid
from .backends import FUSED_ALGORITHMS, PIPELINES, FusedCall, epilogue
from .cache import PlanCache, default_cache
from .plan import ConvPlan, ScratchPool, get_plan

__all__ = ["ExecutionEngine", "RuntimeLayer", "default_engine"]


class ExecutionEngine:
    """Plan-cached, vectorized convolution executor.

    One engine per process is the intended usage (:func:`default_engine`);
    it shares the process-wide plan cache so repeated ``conv2d`` calls
    and ``make_layer`` objects hit the same prepared state.

    The engine owns one :class:`~repro.runtime.plan.ScratchPool`
    (``scratch``) of *leased* grow-to-fit arenas for the intermediate
    buffers: each ``execute`` call acquires a private arena for its
    duration and releases it on return.  A run's layers execute one
    after another and every output is a fresh array, never a view of
    the lease, so the pool settles at one arena per concurrent run,
    sized by the largest call, and reports contention via its
    :class:`~repro.runtime.plan.LeaseStats`.

    ``tracer`` (a :class:`~repro.obs.tracer.StageTracer`) lap-times the
    fused pipelines per stage -- input transform, quantize, GEMM, output
    transform, epilogue -- consecutive laps tiling each call exactly.
    With no tracer attached (or a disabled one) the hot path pays a
    single attribute check and no timing calls.
    """

    def __init__(
        self,
        cache: Optional[PlanCache] = None,
        tracer: Optional[Any] = None,
    ):
        self.cache = cache if cache is not None else default_cache()
        self.tracer = tracer
        self.scratch = ScratchPool()

    def _active_tracer(self):
        tracer = self.tracer
        return tracer if tracer is not None and tracer.enabled else None

    # -- plan management ------------------------------------------------
    def plan_for(
        self, filters: np.ndarray, algorithm: str, m: int = 2, padding: int = 0, **kwargs
    ) -> ConvPlan:
        return get_plan(algorithm, filters, m=m, padding=padding, cache=self.cache, **kwargs)

    def layer(
        self, filters: np.ndarray, algorithm: str, m: int = 2, padding: int = 0, **kwargs
    ) -> "RuntimeLayer":
        """A persistent layer bound to this engine's cached plan."""
        return RuntimeLayer(self, self.plan_for(filters, algorithm, m=m, padding=padding, **kwargs))

    def conv2d(
        self,
        images: np.ndarray,
        filters: np.ndarray,
        algorithm: str = "lowino",
        m: int = 2,
        padding: int = 0,
        **kwargs,
    ) -> np.ndarray:
        """One-shot convolution; preparation is amortized via the cache."""
        return self.execute(self.plan_for(filters, algorithm, m=m, padding=padding, **kwargs), images)

    # -- execution ------------------------------------------------------
    def execute(
        self,
        plan: ConvPlan,
        images: np.ndarray,
        bias: Optional[np.ndarray] = None,
        relu: bool = False,
    ) -> np.ndarray:
        """Run one plan; ``bias``/``relu`` fuse the compiled graph's
        epilogue into the kernel (in place on the fresh output, bitwise
        ``np.maximum(y + bias, 0.0)``).

        The lap clock starts here, so the call's set-up (tile grid,
        scratch lease) lands in its first lap; the lease goes back
        before the epilogue, which only touches the fresh output.
        """
        tr = self._active_tracer()
        t0 = time.perf_counter() if tr else 0.0
        if plan.algorithm not in FUSED_ALGORITHMS:
            raise ValueError(f"engine cannot execute algorithm {plan.algorithm!r}")
        images = np.asarray(images, dtype=np.float64)
        if any(s % images.itemsize for s in images.strides):
            # The native passes read whole elements (a structured array's
            # float64 field can sit 12 bytes apart); NHWC-backed views
            # keep their zero-copy path.
            images = np.ascontiguousarray(images)
        layer = plan.layer
        if images.ndim != 4 or images.shape[1] != layer.filters_fp32.shape[1]:
            raise ValueError(
                f"input {images.shape} does not match filters {layer.filters_fp32.shape}"
            )
        alg = getattr(layer, "alg", None)
        p = layer.padding
        h, w = images.shape[2] + 2 * p, images.shape[3] + 2 * p
        grid = tile_grid(alg, h, w) if alg is not None else None
        arena = self.scratch.acquire()
        try:
            call = FusedCall(arena, tr, t0)
            out = PIPELINES[plan.algorithm](call, plan, images, grid)
        finally:
            self.scratch.release(arena)
        return epilogue(call, out, bias, relu)


class RuntimeLayer:
    """A callable layer bound to an engine and a cached plan.

    Drop-in replacement for the reference layer objects: calling it runs
    the vectorized engine; ``calibrate``/attribute access delegate to the
    embedded prepared layer (shared through the plan cache).
    """

    def __init__(self, engine: ExecutionEngine, plan: ConvPlan) -> None:
        self.engine = engine
        self.plan = plan

    def __call__(self, images: np.ndarray) -> np.ndarray:
        return self.engine.execute(self.plan, images)

    @property
    def reference(self) -> Any:
        """The embedded loop/reference layer (for differential tests)."""
        return self.plan.layer

    def calibrate(self, batches) -> "RuntimeLayer":
        self.plan.layer.calibrate(batches)
        return self

    def __getattr__(self, name: str) -> Any:
        return getattr(self.plan.layer, name)


_default_engine: Optional[ExecutionEngine] = None


def default_engine() -> ExecutionEngine:
    """The process-wide engine bound to the default plan cache."""
    global _default_engine
    if _default_engine is None:
        _default_engine = ExecutionEngine()
    return _default_engine
