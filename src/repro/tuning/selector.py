"""Measured, persistent per-geometry algorithm selection.

The paper's auto-tuner measures instead of modelling; this module
applies that principle to the *algorithm choice itself*.  Where
:mod:`repro.tuning.model_planner` prices direct vs LoWino with an
analytic cost model at quantize time, :class:`AlgorithmSelector` runs a
short seeded measurement of every candidate the Winograd error budget
admits, picks the fastest, and records the choice in the shared
:class:`~repro.tuning.wisdom.WisdomFile` -- so the decision is made
once per geometry on the deployment host and every later session (and
every worker sharing the wisdom file) reuses it.

Candidate admission is budget-gated, not guessed: an F(m, 3) tile is a
candidate only if ``quant_error_model(winograd_algorithm(m, 3))``
predicts at least ``min_snr_db`` of signal-to-noise at 8 bits.  With
the default 6 dB floor that admits F(2,3) (~24 dB) and F(4,3) (~8 dB)
and rejects F(6,3) (~2 dB) -- the paper's Section 2.3 amplification
argument as an executable gate.  Every admitted candidate is an engine
the conformance harness already bitwise-gates against its loop
reference, so switching between them is always numerically safe.

The static analytic choice is *always in the measured set*, which gives
the selector its no-regression property by construction: the selected
time can never exceed the static planner's measured time on the same
host.

Determinism: measurement inputs derive from ``(seed, geometry)`` via
``SeedSequence``, and a wisdom hit short-circuits measurement entirely
-- two workers sharing one wisdom file converge on the first persisted
choice (see :meth:`WisdomFile.store_algorithm`).  That convergence is
deliberately process-agnostic: the flock + disk-wins merge works the
same whether the "workers" are threads in one server or the spawned
worker *processes* of :class:`repro.serve.router.ProcServer`
(``tune_workers=True`` points every worker at one wisdom path and the
proc bench gates that their applied selections are identical).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..perf import CASCADE_LAKE_8C, predict_layer_times
from ..perf import measured as perf_measured
from ..winograd import quant_error_model, winograd_algorithm
from ..workloads import LayerConfig
from .wisdom import KEY_NAMESPACE, WisdomFile

__all__ = [
    "ConvGeometry",
    "SelectionResult",
    "AlgorithmSelector",
    "candidate_algorithms",
    "build_engine_for",
    "swap_preserves_calibration",
    "conv_family",
    "model_geometries",
    "DEFAULT_MIN_SNR_DB",
    "FAMILIES",
]

#: Error-budget floor (dB at 8 bits) for admitting an F(m, 3) tile.
#: Admits F(2,3) and F(4,3); rejects F(6,3) -- see module docstring.
DEFAULT_MIN_SNR_DB = 6.0

#: Default measurement seed (the paper's publication year, like the
#: bench suites).
DEFAULT_SEED = 2021

#: Winograd tile sizes the selector considers.
_TILE_SIZES = (2, 4)

#: Quantized Winograd variants measured per admitted tile size.
_WINOGRAD_ALGOS = ("lowino", "int8_upcast", "int8_downscale")

#: Selection families.  A conv is tuned within its own numerics family:
#: quantized convs choose among the INT8 pipelines, full-precision convs
#: (``engine is None`` or an fp32 engine) choose fp32_winograd@m vs
#: fp32_direct.  Families never mix -- a selection can change *speed*,
#: never a conv's numerics class.
FAMILIES = ("quantized", "fp32")

#: Algorithms belonging to the fp32 family.
_FP32_ALGOS = ("fp32_direct", "fp32_winograd")


def conv_family(conv) -> str:
    """Selection family of a :class:`~repro.nn.layers.Conv2d`.

    ``engine is None`` (the eager FP32-direct fallback) and the prepared
    fp32 engine objects are the ``"fp32"`` family; every quantized
    engine is ``"quantized"``.
    """
    from ..conv.fp32 import Fp32DirectConv2d, Fp32WinogradConv2d

    engine = getattr(conv, "engine", None)
    if engine is None or isinstance(engine, (Fp32DirectConv2d, Fp32WinogradConv2d)):
        return "fp32"
    return "quantized"


@dataclass(frozen=True)
class ConvGeometry:
    """Everything that determines a convolution's runtime cost."""

    batch: int
    c: int
    h: int
    w: int
    k: int
    r: int = 3
    stride: int = 1
    padding: int = 1

    def key(self, family: str = "quantized") -> str:
        """Wisdom key: the namespaced geometry signature.

        The fp32 family gets its own segment so a geometry tuned in both
        families holds two independent entries; quantized keys are
        unchanged from wisdom v2 (no migration needed).
        """
        prefix = KEY_NAMESPACE if family == "quantized" else f"{KEY_NAMESPACE}|{family}"
        return (
            f"{prefix}|b{self.batch}c{self.c}h{self.h}w{self.w}"
            f"k{self.k}r{self.r}s{self.stride}p{self.padding}"
        )

    @property
    def winograd_eligible(self) -> bool:
        return self.stride == 1 and self.r == 3

    @classmethod
    def of_conv(cls, conv, in_shape: Tuple[int, ...]) -> "ConvGeometry":
        """Geometry of a :class:`~repro.nn.layers.Conv2d` fed ``in_shape``."""
        b, c, h, w = (int(s) for s in in_shape)
        return cls(
            batch=b, c=c, h=h, w=w,
            k=int(conv.filters.shape[0]),
            r=int(conv.filters.shape[2]),
            stride=int(conv.stride),
            padding=int(conv.padding),
        )

    def layer_config(self) -> LayerConfig:
        """Cost-model view of this geometry (square HxW assumed; the
        analytic planner prices ``hw = h`` which matches every model in
        the bench suite)."""
        return LayerConfig(
            name=self.key(), batch=self.batch, c=self.c, k=self.k,
            hw=self.h, r=self.r, padding=self.padding,
        )


def _label(algorithm: str, m: int) -> str:
    return f"{algorithm}@{m}"


def _parse_label(label: str) -> Tuple[str, int]:
    algorithm, _, m = label.partition("@")
    return algorithm, int(m)


def candidate_algorithms(
    geom: ConvGeometry,
    min_snr_db: float = DEFAULT_MIN_SNR_DB,
    family: str = "quantized",
) -> List[Tuple[str, int]]:
    """(algorithm, m) candidates the error budget admits for ``geom``.

    Quantized family: direct INT8 is always a candidate; Winograd
    variants require unit stride and r = 3, and each tile size must
    clear the analytic SNR floor -- the budget decides what may even be
    *measured*.

    FP32 family: fp32_direct is always a candidate and every tile size
    is admitted when Winograd applies -- full precision *is* the
    conformance oracle, so there is no quantization error budget to
    gate on.
    """
    if family == "fp32":
        candidates: List[Tuple[str, int]] = [("fp32_direct", 0)]
        if geom.winograd_eligible:
            candidates.extend(("fp32_winograd", m) for m in _TILE_SIZES)
        return candidates
    candidates = [("int8_direct", 0)]
    if not geom.winograd_eligible:
        return candidates
    for m in _TILE_SIZES:
        if quant_error_model(winograd_algorithm(m, geom.r)).snr_db(8) < min_snr_db:
            continue
        candidates.extend((algo, m) for algo in _WINOGRAD_ALGOS)
    return candidates


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of selecting an algorithm for one geometry."""

    geometry: ConvGeometry
    algorithm: str
    m: int
    #: Median seconds over paired rounds per candidate label (empty for
    #: a purely static result).
    measured: Dict[str, float] = field(default_factory=dict)
    #: The analytic planner's choice, as a label.
    static: str = ""
    #: "measured" | "wisdom" | "static"
    source: str = "measured"

    @property
    def label(self) -> str:
        return _label(self.algorithm, self.m)

    @property
    def static_ratio(self) -> float:
        """measured(static) / measured(selected); >= 1.0 when measured
        (the static candidate is always in the measured set)."""
        sel = self.measured.get(self.label)
        sta = self.measured.get(self.static)
        if not sel or not sta:
            return 1.0
        return sta / sel

    def entry(self) -> dict:
        """Wisdom-file representation."""
        return {
            "algorithm": self.algorithm,
            "m": self.m,
            "measured": dict(self.measured),
            "static": self.static,
        }


def swap_preserves_calibration(conv, algorithm: str, m: int) -> bool:
    """True iff rebuilding ``conv.engine`` as ``algorithm@m`` keeps
    *static* activation quantization.

    An engine without calibrated parameters falls back to per-batch
    dynamic quantization -- deterministic for a fixed batch, but
    dependent on batch *composition*, which breaks the serving layer's
    bit-identity under micro-batch coalescing.  So a swap is applicable
    only when the calibration can be carried over:

    * the spatial-threshold family (``int8_direct`` / ``int8_upcast`` /
      ``int8_downscale``) shares one m-independent ``input_threshold``
      -- swaps within it carry the calibrated value;
    * ``lowino`` needs per-tile-position Winograd-domain histograms
      tied to its ``m``, which cannot be rebuilt at swap time -- it is
      only ever "applied" as a no-op (the quantizer installed it).

    The one apply step (:func:`repro.runtime.compiler.reselect_conv`,
    behind both lowering and ``InferenceSession.refresh_selection``)
    skips inapplicable swaps, keeping the current engine -- selection
    never regresses a conv's numerics to reach a faster kernel.
    """
    from ..runtime.compiler import algorithm_of_engine

    old = conv.engine
    if algorithm in _FP32_ALGOS:
        # FP32 engines carry no activation quantization at all, so any
        # swap *within* the fp32 family is trivially calibration-safe;
        # swapping a quantized conv to fp32 (or vice versa) would change
        # its numerics class and is never a selection outcome.
        return conv_family(conv) == "fp32"
    if old is None:
        return False
    current = (algorithm_of_engine(old), int(getattr(old, "m", 0) or 0))
    if current == (algorithm, int(m)):
        return True
    if algorithm == "lowino":
        return False
    return getattr(old, "input_threshold", None) is not None


def build_engine_for(conv, algorithm: str, m: int):
    """A prepared engine running ``algorithm`` on ``conv``'s filters.

    Carries the calibrated activation threshold over from the current
    engine when both sides use one (the spatial engines).  Callers must
    gate on :func:`swap_preserves_calibration` first -- an engine built
    without transferable calibration would silently fall back to
    per-batch dynamic quantization.  Eager and compiled execution share
    the rebuilt object, so the bitwise eager == compiled contract is
    preserved across a swap.
    """
    from ..conv import DownscaleWinogradConv2d, Int8DirectConv2d, UpcastWinogradConv2d
    from ..core import LoWinoConv2d

    if algorithm == "int8_direct":
        engine = Int8DirectConv2d(conv.filters, stride=conv.stride,
                                  padding=conv.padding)
    elif algorithm == "lowino":
        engine = LoWinoConv2d(conv.filters, m=m, padding=conv.padding)
    elif algorithm == "int8_upcast":
        engine = UpcastWinogradConv2d(conv.filters, m=m, padding=conv.padding)
    elif algorithm == "int8_downscale":
        engine = DownscaleWinogradConv2d(conv.filters, m=m, padding=conv.padding)
    elif algorithm == "fp32_direct":
        from ..conv.fp32 import Fp32DirectConv2d

        engine = Fp32DirectConv2d(conv.filters, padding=conv.padding,
                                  stride=conv.stride)
    elif algorithm == "fp32_winograd":
        from ..conv.fp32 import Fp32WinogradConv2d

        engine = Fp32WinogradConv2d(conv.filters, m=m, padding=conv.padding)
    else:
        raise ValueError(f"cannot build an engine for algorithm {algorithm!r}")
    old = conv.engine
    threshold = getattr(old, "input_threshold", None)
    if threshold is not None and hasattr(engine, "input_threshold"):
        engine.input_threshold = threshold
    return engine


def model_geometries(model, input_shape):
    """``(path, conv, geometry)`` for every conv a traced model reaches."""
    from ..nn.graph import trace

    graph = trace(model, tuple(int(s) for s in input_shape))
    return [
        (node.path, node.layer, ConvGeometry.of_conv(node.layer, graph.in_shape(node)))
        for node in graph.conv_nodes()
    ]


class AlgorithmSelector:
    """Measure-once, reuse-everywhere algorithm selection.

    ``select`` answers from wisdom when it can (after a cheap
    :meth:`~repro.tuning.wisdom.WisdomFile.refresh`), measures when
    asked to (``measure=True``) and persists the result, and otherwise
    falls back to the analytic static choice without touching any
    engine state.
    """

    def __init__(
        self,
        wisdom: Optional[WisdomFile | str] = None,
        repeats: int = 3,
        seed: int = DEFAULT_SEED,
        min_snr_db: float = DEFAULT_MIN_SNR_DB,
    ) -> None:
        if wisdom is not None and not isinstance(wisdom, WisdomFile):
            wisdom = WisdomFile(wisdom)
        self.wisdom = wisdom
        self.repeats = max(1, int(repeats))
        self.seed = int(seed)
        self.min_snr_db = float(min_snr_db)
        self._engine = None  # built lazily; measurement only

    def _measure_engine(self):
        if self._engine is None:
            from ..runtime.cache import PlanCache
            from ..runtime.engine import ExecutionEngine

            # Private cache: measurement plans must not evict or alias a
            # serving session's plans.
            self._engine = ExecutionEngine(cache=PlanCache(capacity=256))
        return self._engine

    def static_choice(self, geom: ConvGeometry, family: str = "quantized") -> Tuple[str, int]:
        """The analytic cost model's pick (the planner's behaviour).

        The fp32 family's static choice is ``fp32_direct`` -- the eager
        stack's FP32 fallback (``engine is None`` lowers to it), so the
        no-regression baseline is exactly what un-tuned code runs.
        """
        if family == "fp32":
            return ("fp32_direct", 0)
        if not geom.winograd_eligible:
            return ("int8_direct", 0)
        times = predict_layer_times(
            geom.layer_config(), CASCADE_LAKE_8C,
            impls=["onednn_direct", "lowino_f2", "lowino_f4"],
        )
        best = min(times, key=times.get)
        if best == "onednn_direct":
            return ("int8_direct", 0)
        return ("lowino", int(best[-1]))

    def measure(
        self,
        geom: ConvGeometry,
        abort: Optional[Callable[[], bool]] = None,
        family: str = "quantized",
    ) -> Optional[SelectionResult]:
        """Seeded paired-rounds measurement of every admitted candidate.

        The candidates run interleaved through
        :func:`repro.perf.measured.measure`, ``repeats`` rounds, and the
        one with the least median wins -- so the static candidate's
        median is never below the winner's.  ``abort`` is polled between
        calls (the background tuner passes a queue-idleness probe);
        returns None when aborted so nothing half-measured is ever
        persisted.
        """
        static = self.static_choice(geom, family=family)
        candidates = candidate_algorithms(geom, self.min_snr_db, family=family)
        if static not in candidates:
            candidates.append(static)
        rng = np.random.default_rng(
            [self.seed, geom.batch, geom.c, geom.h, geom.w,
             geom.k, geom.r, geom.stride, geom.padding]
        )
        x = np.abs(rng.standard_normal(
            (geom.batch, geom.c, geom.h, geom.w))).astype(np.float64)
        std = np.sqrt(2.0 / (geom.c * geom.r * geom.r))
        filters = (rng.standard_normal(
            (geom.k, geom.c, geom.r, geom.r)) * std).astype(np.float64)
        engine = self._measure_engine()
        fns = {}
        for algorithm, m in candidates:
            kwargs = (
                {"stride": geom.stride}
                if algorithm in ("int8_direct", "fp32_direct")
                else {}
            )
            layer = engine.layer(filters, algorithm, m=max(m, 2),
                                 padding=geom.padding, **kwargs)
            fns[_label(algorithm, m)] = lambda layer=layer: layer(x)
        timed = perf_measured.measure(fns, self.repeats, abort=abort)
        if timed is None:
            return None
        measured = {label: timed.median(label) for label in fns}
        best_label = min(measured, key=measured.get)
        algorithm, m = _parse_label(best_label)
        return SelectionResult(
            geometry=geom, algorithm=algorithm, m=m, measured=measured,
            static=_label(*static), source="measured",
        )

    def select(
        self,
        geom: ConvGeometry,
        measure: bool = True,
        abort: Optional[Callable[[], bool]] = None,
        family: str = "quantized",
    ) -> SelectionResult:
        """Wisdom hit > fresh measurement > static fallback.

        A persisted entry always wins (first writer decides for every
        worker); with ``measure=False`` and no entry the static choice
        is returned with ``source="static"`` so callers know not to
        disturb existing engine state.  ``family`` namespaces both the
        candidate set and the wisdom key (see :data:`FAMILIES`).
        """
        key = geom.key(family=family)
        if self.wisdom is not None:
            self.wisdom.refresh()
            entry = self.wisdom.lookup_algorithm(key)
            if entry is not None:
                return self._from_entry(geom, entry)
        if not measure:
            algorithm, m = self.static_choice(geom, family=family)
            return SelectionResult(
                geometry=geom, algorithm=algorithm, m=m,
                static=_label(algorithm, m), source="static",
            )
        result = self.measure(geom, abort=abort, family=family)
        if result is None:
            return None
        if self.wisdom is not None:
            won = self.wisdom.store_algorithm(key, result.entry())
            if won.get("algorithm") != result.algorithm or won.get("m") != result.m:
                # Another worker persisted first; adopt its choice.
                return self._from_entry(geom, won)
        return result

    def _from_entry(self, geom: ConvGeometry, entry: dict) -> SelectionResult:
        return SelectionResult(
            geometry=geom, algorithm=str(entry["algorithm"]), m=int(entry["m"]),
            measured={k: float(v) for k, v in entry.get("measured", {}).items()},
            static=str(entry.get("static", "")), source="wisdom",
        )

