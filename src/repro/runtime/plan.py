"""Execution plans: prepared, cache-resident convolution state.

A plan is everything LoWino prepares *offline* (Section 4.2): the
Cook-Toom transform matrices, the transformed + quantized filters, the
Eq. 9 compensation term -- plus the engine-side operands: the integer
filters packed for the native GEMM kernels (:mod:`repro.native`) with
their compensation as the accumulators' start value.  Building a plan
is the expensive part of a convolution call; executing one is a
handful of whole-tensor NumPy ops and native kernel calls
(:mod:`repro.runtime.engine`).

Plans are keyed by :func:`plan_key` -- ``(algorithm, filter
fingerprint, m, padding, bits, extra kwargs)`` -- and stored in the
process-wide :class:`~repro.runtime.cache.PlanCache`.  A plan holds no
per-input state: the tile grid is rebuilt per call and the online
intermediates live in the engine's :class:`ScratchPool`, whose
grow-to-fit :class:`ScratchArena` serves every plan and batch size.
The prepared state embeds the corresponding *reference layer object*
(:class:`~repro.core.LoWinoConv2d` etc.), so plan construction runs the
exact same offline code path the references use -- the engine cannot
drift from the reference preparation by construction.
"""

from __future__ import annotations

import hashlib
import math
import threading
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Hashable, List, Optional, Tuple

import numpy as np

from .cache import PlanCache, default_cache

__all__ = [
    "ALGORITHMS",
    "ScratchArena",
    "ScratchPool",
    "LeaseStats",
    "ConvPlan",
    "plan_key",
    "filters_digest",
    "get_plan",
    "build_plan",
]

#: Algorithms the runtime can plan and execute.
ALGORITHMS: Tuple[str, ...] = (
    "fp32_direct",
    "fp32_winograd",
    "int8_direct",
    "int8_upcast",
    "int8_downscale",
    "lowino",
)


class ScratchArena:
    """Named, grow-to-fit scratch buffers for one engine call.

    ``buf(name, shape, dtype)`` returns a C-contiguous view at offset 0 of
    the flat backing buffer kept under ``name``.  The backing grows to the
    largest request it has seen and is never shrunk, so one arena serves
    every layer and batch size of a run, and each non-empty view has
    exactly the shape, strides and dtype a fresh ``np.empty`` would
    have.  Views are *uninitialized*; callers fully overwrite them
    (``np.matmul(..., out=...)``).

    An arena belongs to exactly one caller at a time: it is handed out
    as a lease by :class:`ScratchPool` and must not be shared between
    threads.  Nothing a call returns may be a view of an arena buffer:
    the next lease holder overwrites it.
    """

    def __init__(self) -> None:
        self._buffers: Dict[str, np.ndarray] = {}

    def buf(self, name: str, shape: Tuple[int, ...], dtype) -> np.ndarray:
        dtype = np.dtype(dtype)
        nbytes = math.prod(shape) * dtype.itemsize
        flat = self._buffers.get(name)
        if flat is None or flat.nbytes < nbytes:
            flat = np.empty(nbytes, dtype=np.uint8)
            self._buffers[name] = flat
        return np.ndarray(shape, dtype=dtype, buffer=flat)

    @property
    def nbytes(self) -> int:
        # Snapshot first: stats are read from other threads while the
        # lease holder may be adding a buffer name.
        return sum(a.nbytes for a in list(self._buffers.values()))


@dataclass
class LeaseStats:
    """Telemetry for one :class:`ScratchPool`.

    ``grows`` counts acquisitions that found no free arena and had to
    allocate a new one (the contention signal).
    """

    acquires: int = 0
    releases: int = 0
    grows: int = 0
    in_use: int = 0
    peak_in_use: int = 0

    def as_dict(self) -> Dict[str, Any]:
        return asdict(self)


class ScratchPool:
    """Leased pool of :class:`ScratchArena` instances, one pool per engine.

    The engine acquires an arena for the duration of one ``execute``
    call and releases it afterwards, so any number of threads can run
    plans concurrently: each holds a private buffer set.  The pool grows
    on demand -- an acquire that finds every arena leased allocates a
    fresh one (counted in ``stats.grows``) -- so steady-state serving
    settles at one arena per peak-concurrent caller.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._free: List[ScratchArena] = []
        self._arenas: List[ScratchArena] = []  #: every arena ever created
        self.stats = LeaseStats()

    def acquire(self) -> ScratchArena:
        with self._lock:
            self.stats.acquires += 1
            if self._free:
                arena = self._free.pop()
            else:
                arena = ScratchArena()
                self._arenas.append(arena)
                if len(self._arenas) > 1:
                    self.stats.grows += 1
            self.stats.in_use += 1
            self.stats.peak_in_use = max(self.stats.peak_in_use, self.stats.in_use)
            return arena

    def release(self, arena: ScratchArena) -> None:
        with self._lock:
            self.stats.releases += 1
            self.stats.in_use -= 1
            self._free.append(arena)

    @contextmanager
    def lease(self):
        arena = self.acquire()
        try:
            yield arena
        finally:
            self.release(arena)

    @property
    def arenas(self) -> int:
        with self._lock:
            return len(self._arenas)

    def stats_dict(self) -> Dict[str, Any]:
        """Consistent :class:`LeaseStats` snapshot plus arena footprint."""
        with self._lock:
            doc = self.stats.as_dict()
            doc["arenas"] = len(self._arenas)
            doc["nbytes"] = sum(a.nbytes for a in self._arenas)
            return doc


def _distinct_bytes(arrays) -> int:
    """Bytes held by ``arrays``, each underlying buffer counted once: a
    view, or an operand shared with the layer, resolves to the array
    that owns its memory."""
    owners: Dict[int, int] = {}
    for a in arrays:
        while isinstance(a.base, np.ndarray):
            a = a.base
        owners[id(a)] = a.nbytes
    return sum(owners.values())


@dataclass
class ConvPlan:
    """One prepared convolution: reference layer + engine operands."""

    key: Hashable
    algorithm: str
    #: The prepared reference layer object (offline state lives here).
    layer: Any
    #: Engine-side operands (packed integer filters and their
    #: compensation, the FP32 filter matrices, ...), by name; see
    #: :func:`_engine_operands`.
    operands: Dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def nbytes(self) -> int:
        """Bytes the plan holds: the layer's arrays and the operands,
        every buffer once (``fp32_winograd``'s ``u_f64`` *is* the
        layer's ``u``, ``lowino``'s ``init`` its ``zbar``)."""
        arrays = [v for v in vars(self.layer).values() if isinstance(v, np.ndarray)]
        return _distinct_bytes(arrays + list(self.operands.values()))


def filters_digest(filters: np.ndarray) -> str:
    """Content fingerprint of a filter tensor (shape, dtype, bytes)."""
    filters = np.ascontiguousarray(filters)
    h = hashlib.sha1()
    h.update(repr((filters.shape, filters.dtype.str)).encode())
    h.update(filters.tobytes())
    return h.hexdigest()


def _freeze_kwargs(kwargs: Dict[str, Any]) -> Optional[Tuple[Tuple[str, str], ...]]:
    """Deterministic, hashable rendering of layer kwargs.

    Returns ``None`` when a kwarg cannot be rendered reproducibly
    (e.g. an ndarray-valued calibration override) -- such layers bypass
    the cache rather than risking a collision.
    """
    items = []
    for name in sorted(kwargs):
        value = kwargs[name]
        if isinstance(value, np.ndarray) or value.__class__.__module__ not in (
            "builtins",
            "repro.gemm.blocking",
        ):
            return None
        items.append((name, repr(value)))
    return tuple(items)


def plan_key(
    algorithm: str,
    filters: np.ndarray,
    m: int,
    padding: int,
    kwargs: Dict[str, Any],
) -> Optional[Hashable]:
    """Cache key for a prepared layer, or ``None`` if uncacheable."""
    frozen = _freeze_kwargs(kwargs)
    if frozen is None:
        return None
    return (
        "plan",
        algorithm,
        int(m),
        int(padding),
        filters_digest(filters),
        frozen,
    )


def _build_layer(
    algorithm: str, filters: np.ndarray, m: int, padding: int, kwargs: Dict[str, Any]
):
    """Construct the prepared reference layer for ``algorithm``."""
    if algorithm == "int8_direct":
        from ..conv.direct import Int8DirectConv2d

        return Int8DirectConv2d(filters, padding=padding, **kwargs)
    if algorithm == "int8_upcast":
        from ..conv.upcast import UpcastWinogradConv2d

        return UpcastWinogradConv2d(filters, m=m, padding=padding, **kwargs)
    if algorithm == "int8_downscale":
        from ..conv.downscale import DownscaleWinogradConv2d

        return DownscaleWinogradConv2d(filters, m=m, padding=padding, **kwargs)
    if algorithm == "lowino":
        from ..core.lowino import LoWinoConv2d

        return LoWinoConv2d(filters, m=m, padding=padding, **kwargs)
    if algorithm == "fp32_winograd":
        from ..conv.fp32 import Fp32WinogradConv2d

        return Fp32WinogradConv2d(filters, m=m, padding=padding, **kwargs)
    if algorithm == "fp32_direct":
        from ..conv.fp32 import Fp32DirectConv2d

        return Fp32DirectConv2d(filters, padding=padding, **kwargs)
    raise ValueError(f"unknown algorithm {algorithm!r}; known: {ALGORITHMS}")


def _engine_operands(algorithm: str, layer: Any) -> Dict[str, np.ndarray]:
    """The operands the pipelines read besides the layer's own state.

    The quantized pipelines run their GEMM in
    :mod:`repro.native`: ``b_packed`` is the integer filter operand
    packed once for the kernels (:func:`repro.native.pack_b`) and
    ``init`` the ``(T, K)`` s32 start value of every accumulator -- the
    Eq. 9 compensation ``-128 * sum_C U`` wherever the activations carry
    the +128 bias (``lowino``'s ``zbar``, ``int8_downscale``,
    ``int8_direct``), zero for the signed ``int8_upcast`` operands.  The
    spatial Winograd pipelines also read ``bt_f64``, the integer input
    transform as float64 (exact on the integer codes).
    """
    from ..gemm import compensation_term
    from ..native import pack_b

    ops: Dict[str, np.ndarray] = {}
    if algorithm == "lowino":
        ops["b_packed"] = pack_b(layer.u_q)
        ops["init"] = layer.zbar
    elif algorithm == "int8_upcast":
        ops["b_packed"] = pack_b(layer.u_int16)
        ops["init"] = np.zeros(layer.u_int16.shape[::2], dtype=np.int32)
        ops["bt_f64"] = layer.bt_int.astype(np.float64)
    elif algorithm == "int8_downscale":
        ops["b_packed"] = pack_b(layer.u_int8)
        ops["init"] = compensation_term(layer.u_int8)
        ops["bt_f64"] = layer.bt_int.astype(np.float64)
    elif algorithm == "int8_direct":
        if layer.filters_q.dtype != np.int8:
            raise ValueError(f"int8_direct runs a u8 x s8 GEMM; bits={layer.bits} exceeds 8")
        w = layer.filters_q.reshape(layer.filters_q.shape[0], -1).T[None]  # (1, C*r*r, K)
        ops["b_packed"] = pack_b(w)
        ops["init"] = compensation_term(w)
    elif algorithm == "fp32_winograd":
        # Already float64 and contiguous on the layer; shared (not cast)
        # so the fused GEMM contracts the exact bytes the reference does.
        ops["u_f64"] = layer.u
    elif algorithm == "fp32_direct":
        ops["w_f64"] = layer.w_flat
    return ops


def build_plan(
    algorithm: str,
    filters: np.ndarray,
    m: int = 2,
    padding: int = 0,
    key: Hashable = None,
    **kwargs,
) -> ConvPlan:
    """Build an (uncached) plan: offline preparation + engine operands."""
    layer = _build_layer(algorithm, filters, m, padding, kwargs)
    return ConvPlan(
        key=key if key is not None else object(),
        algorithm=algorithm,
        layer=layer,
        operands=_engine_operands(algorithm, layer),
    )


def get_plan(
    algorithm: str,
    filters: np.ndarray,
    m: int = 2,
    padding: int = 0,
    cache: Optional[PlanCache] = None,
    **kwargs,
) -> ConvPlan:
    """Fetch (or build and insert) the plan for a layer configuration.

    Layers whose kwargs cannot be fingerprinted reproducibly are built
    fresh each time and never enter the cache.
    """
    cache = cache if cache is not None else default_cache()
    filters = np.asarray(filters)
    key = plan_key(algorithm, filters, m, padding, kwargs)
    if key is None:
        return build_plan(algorithm, filters, m=m, padding=padding, **kwargs)
    return cache.get_or_build(
        key, lambda: build_plan(algorithm, filters, m=m, padding=padding, key=key, **kwargs)
    )
