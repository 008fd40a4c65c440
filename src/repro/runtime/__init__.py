"""Vectorized execution runtime: plans, cache, engine.

This package is the online half of the paper's offline/online split
(Section 4): :mod:`~repro.runtime.plan` prepares everything a layer
needs ahead of time, :mod:`~repro.runtime.cache` keeps prepared plans
(and nothing else) in a bounded LRU, :mod:`~repro.runtime.engine`
executes plans as whole-tensor NumPy pipelines with no Python-level
tile or task loops, leasing each call's intermediates from one
grow-to-fit scratch pool per engine; the native kernels split each call
over the host's cores themselves (:mod:`repro.native`).
:mod:`~repro.runtime.bench` measures it all against the loop-based
``*_reference`` paths and gates regressions.

Quick use::

    from repro import runtime
    y = runtime.conv2d(images, filters, algorithm="lowino", m=4, padding=1)
    runtime.cache_stats()   # {'hits': ..., 'misses': ..., 'bytes': ...}
"""

from .cache import CacheStats, PlanCache, cache_stats, clear_cache, default_cache
from .compiler import CompiledProgram, compile_model, lower
from .engine import ExecutionEngine, RuntimeLayer, default_engine
from .plan import (
    ALGORITHMS,
    ConvPlan,
    LeaseStats,
    ScratchArena,
    ScratchPool,
    build_plan,
    filters_digest,
    get_plan,
    plan_key,
)
from .session import InferenceSession

__all__ = [
    "ALGORITHMS",
    "CacheStats",
    "CompiledProgram",
    "ConvPlan",
    "ExecutionEngine",
    "InferenceSession",
    "LeaseStats",
    "PlanCache",
    "RuntimeLayer",
    "ScratchArena",
    "ScratchPool",
    "build_plan",
    "cache_stats",
    "clear_cache",
    "compile_model",
    "conv2d",
    "default_cache",
    "default_engine",
    "filters_digest",
    "get_plan",
    "lower",
    "make_layer",
    "plan_key",
]


def conv2d(images, filters, algorithm: str = "lowino", m: int = 2, padding: int = 0, **kwargs):
    """One-shot convolution through the default engine (plan-cached)."""
    return default_engine().conv2d(images, filters, algorithm=algorithm, m=m, padding=padding, **kwargs)


def make_layer(filters, algorithm: str, m: int = 2, padding: int = 0, **kwargs) -> RuntimeLayer:
    """A persistent vectorized layer bound to the default engine."""
    return default_engine().layer(filters, algorithm, m=m, padding=padding, **kwargs)
