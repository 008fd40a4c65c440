"""Lowering: graph IR -> executable program on the vectorized runtime.

:func:`lower` walks a traced :class:`~repro.nn.graph.Graph` and emits a
:class:`CompiledProgram` -- a flat step list in which

* every convolution node becomes a :class:`~repro.runtime.plan.ConvPlan`
  executed by the shared :class:`~repro.runtime.engine.ExecutionEngine`
  (one :class:`~repro.runtime.cache.PlanCache` of plans resolved at
  lowering, plus the engine's scratch pool, whose arena every layer and
  batch size of a run reuses);
* the FP32-mode bias add and a directly following single-consumer ReLU
  are fused into the convolution step's epilogue (likewise the ReLU
  after a residual add), eliminating the intermediate materialization
  the eager path pays;
* intermediates are reference-counted and dropped after their last
  consumer, so peak memory is the widest cut of the graph rather than
  the sum of all activations.

Bitwise contract: a compiled program reuses the *same prepared engine
objects* the eager layers hold (a plan wraps ``conv.engine`` instead of
rebuilding it) and replays the eager op order exactly -- engine call,
``+ bias[None, :, None, None]``, ``np.maximum(., 0.0)`` -- so outputs
are bit-identical to ``model(x)`` for every algorithm.  That identity is
what lets the eager stack remain the conformance reference while all
throughput work happens here.

Quantized engines are captured at lowering time: re-quantizing or
re-calibrating a model invalidates its compiled programs (build a new
session; plans are cheap, the cache persists).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..conv import DownscaleWinogradConv2d, Int8DirectConv2d, UpcastWinogradConv2d
from ..conv.fp32 import Fp32DirectConv2d, Fp32WinogradConv2d
from ..core import LoWinoConv2d
from ..nn.graph import Graph, Node, trace
from ..nn.layers import Conv2d, Layer
from .cache import PlanCache
from .engine import ExecutionEngine
from .plan import ConvPlan, _engine_operands, get_plan

__all__ = [
    "algorithm_of_engine",
    "plan_for_conv",
    "apply_selection",
    "relower_conv",
    "Step",
    "CompiledProgram",
    "lower",
    "compile_model",
]

#: Prepared engine layer type -> runtime algorithm name.
_ENGINE_ALGORITHMS = (
    (LoWinoConv2d, "lowino"),
    (Int8DirectConv2d, "int8_direct"),
    (UpcastWinogradConv2d, "int8_upcast"),
    (DownscaleWinogradConv2d, "int8_downscale"),
    (Fp32WinogradConv2d, "fp32_winograd"),
    (Fp32DirectConv2d, "fp32_direct"),
)


def algorithm_of_engine(engine: Any) -> str:
    """Runtime algorithm name for a prepared engine object."""
    for cls, name in _ENGINE_ALGORITHMS:
        if isinstance(engine, cls):
            return name
    raise TypeError(f"cannot lower engine type {type(engine).__name__}")


def plan_for_conv(conv: Conv2d, cache: PlanCache) -> ConvPlan:
    """The :class:`ConvPlan` executing ``conv``'s current mode.

    FP32 layers (``engine is None``) lower to a cached ``fp32_direct``
    plan built from the filters.  Quantized layers wrap the *existing*
    prepared engine object -- calibration state, packed filters and the
    Eq. 9 compensation are reused, not rebuilt, which both skips the
    offline cost and guarantees the compiled output cannot drift from
    the eager engine.  The wrapping plan is keyed by engine identity;
    the plan holds the engine alive, so a cached key can never be
    re-issued to a different object.
    """
    engine = conv.engine
    if engine is None:
        return get_plan(
            "fp32_direct",
            conv.filters,
            m=0,
            padding=conv.padding,
            cache=cache,
            stride=conv.stride,
        )
    algorithm = algorithm_of_engine(engine)
    key = ("model-engine", algorithm, id(engine))
    return cache.get_or_build(
        key,
        lambda: ConvPlan(
            key=key,
            algorithm=algorithm,
            layer=engine,
            operands=_engine_operands(algorithm, engine),
        ),
    )


def apply_selection(graph: Graph, selector: Any, tune: bool = False) -> Dict[str, str]:
    """Consult an :class:`~repro.tuning.selector.AlgorithmSelector` for
    every conv in ``graph`` and rebuild engines whose wisdom-selected
    algorithm differs from the current one.

    The swap happens on ``conv.engine`` itself -- the eager model and
    the program lowered from this graph keep sharing one prepared
    engine object, so the bitwise eager == compiled contract survives
    re-selection.  Each conv is tuned *within its own family*
    (:func:`~repro.tuning.selector.conv_family`): quantized convs
    choose among the INT8 pipelines, full-precision convs (``engine is
    None`` or an fp32 engine) choose fp32_winograd@m vs fp32_direct.
    An fp32 conv selected to ``fp32_direct`` with no prepared engine is
    left as-is -- ``plan_for_conv`` already lowers ``engine is None``
    to the cached fp32_direct plan.

    With ``tune=False`` (the lowering-time default) only wisdom-known
    geometries are applied; un-tuned ones keep whatever the quantizer
    installed (``source="static"`` answers do not disturb calibrated
    engines).  ``tune=True`` measures the un-tuned geometries first --
    ``repro tune``'s in-process equivalent.

    Returns ``{conv path: selected label}`` for the applied choices.
    """
    applied: Dict[str, str] = {}
    for node in graph.conv_nodes():
        outcome = reselect_conv(node.layer, graph.in_shape(node), selector, measure=tune)
        if outcome is not None:
            applied[node.path] = outcome[0]
    return applied


def reselect_conv(
    conv: Conv2d, in_shape: Tuple[int, ...], selector: Any, measure: bool
) -> Optional[Tuple[str, bool]]:
    """The one reselection step: adopt ``selector``'s choice for one conv.

    Asks the selector for the conv's geometry within the conv's own
    family, measuring un-tuned geometries only when ``measure`` is set.
    A choice that differs from the running engine rebuilds
    ``conv.engine`` in place, unless the swap would lose the conv's
    calibrated quantization (e.g. LoWino histograms cannot seed a
    spatial threshold), in which case the installed engine stays.

    Returns ``(label, swapped)`` for an applied choice, or None when
    nothing applies (a static answer, an aborted measurement, or an
    unsafe swap).
    """
    from ..tuning.selector import (
        ConvGeometry,
        build_engine_for,
        conv_family,
        swap_preserves_calibration,
    )

    geom = ConvGeometry.of_conv(conv, in_shape)
    result = selector.select(geom, measure=measure, family=conv_family(conv))
    if result is None or result.source == "static":
        return None
    if conv.engine is None:
        current = ("fp32_direct", 0)
    else:
        current = (algorithm_of_engine(conv.engine), getattr(conv.engine, "m", 0))
    if (result.algorithm, result.m) == current:
        return result.label, False
    if not swap_preserves_calibration(conv, result.algorithm, result.m):
        return None
    conv.engine = build_engine_for(conv, result.algorithm, result.m)
    return result.label, True


def relower_conv(step: "Step", cache: PlanCache) -> None:
    """Re-lower one conv step after its ``conv.engine`` was swapped.

    The plan swap is a single attribute assignment (atomic under the
    GIL), so in-flight ``run`` calls see either the old or the new plan
    -- both bitwise-correct against the engine object each wraps.  The
    cache key includes the engine's identity, so the old plan can never
    be re-issued for the new engine.
    """
    step.plan = plan_for_conv(step.node.layer, cache)
    step.bias = step.node.layer.bias


@dataclass
class Step:
    """One executable program step (a graph node, possibly with a fused
    ReLU epilogue; conv steps also carry the plan and the bias)."""

    node: Node
    #: Value id the result is stored under (the ReLU node's id when one
    #: was fused, else ``node.id``).
    out_id: int
    plan: Optional[ConvPlan] = None
    bias: Optional[np.ndarray] = None
    relu: bool = False
    #: Dense value-slot indices assigned by :func:`lower` -- the run
    #: loop indexes flat lists instead of hashing node ids per step.
    in_slots: Tuple[int, ...] = ()
    out_slot: int = 0

    @property
    def kind(self) -> str:
        return self.node.op

    @property
    def path(self) -> str:
        return self.node.path


@dataclass
class CompiledProgram:
    """A lowered model: ordered steps over a shared engine + plan cache.

    Per-run bookkeeping is slot-based: :func:`lower` assigns every value
    id a dense index, so ``run`` materializes its liveness state as two
    flat list copies (``[None] * n`` and ``list.copy()`` of the refcount
    template -- C-level allocations) instead of rebuilding dicts keyed
    by node id on every call.  See ``benchmarks/bench_dispatch.py`` for
    the per-step dispatch cost this buys back.
    """

    graph: Graph
    steps: List[Step]
    cache: PlanCache
    engine: ExecutionEngine
    #: conv path -> selected algorithm label, for choices the
    #: :class:`AlgorithmSelector` applied at lowering time (empty when
    #: lowered without a selector).
    selection: Dict[str, str] = field(default_factory=dict)
    #: Remaining-consumer count per value *slot* (output counted once
    #: extra, so it survives the sweep); copied per run.
    _refcounts: List[int] = field(default_factory=list)
    #: value id -> dense slot index.
    _slots: Dict[int, int] = field(default_factory=dict)
    _input_slot: int = 0
    _output_slot: int = 0

    @property
    def output_id(self) -> int:
        return self.graph.output_id

    def run(
        self,
        images: np.ndarray,
        timings: Optional[Dict[str, float]] = None,
    ) -> np.ndarray:
        """Execute the program; optionally accumulate per-step seconds
        into ``timings`` keyed by the step's layer path."""
        x = np.asarray(images, dtype=np.float64)
        values: List[Optional[np.ndarray]] = [None] * len(self._refcounts)
        remaining = self._refcounts.copy()
        values[self._input_slot] = x
        engine = self.engine
        tracer = getattr(engine, "tracer", None)
        tr = tracer if tracer is not None and tracer.enabled else None
        for step in self.steps:
            args = [values[i] for i in step.in_slots]
            # The step's own timing wraps its body only: the tracer's
            # path bookkeeping stays outside, so its laps can tile it.
            prev = tr.set_path(step.path) if tr is not None else None
            try:
                t0 = time.perf_counter() if timings is not None else 0.0
                values[step.out_slot] = _execute_step(step, args, engine, tr)
                if timings is not None:
                    t1 = time.perf_counter()
                    timings[step.path] = timings.get(step.path, 0.0) + (t1 - t0)
            finally:
                if tr is not None:
                    tr.set_path(prev)
            for i in step.in_slots:
                remaining[i] -= 1
                if remaining[i] == 0:
                    values[i] = None
        return values[self._output_slot]

    __call__ = run


def _execute_step(
    step: Step,
    args: List[np.ndarray],
    engine: ExecutionEngine,
    tracer: Optional[Any] = None,
) -> np.ndarray:
    kind = step.kind
    if kind == "conv":
        # Bias + fused ReLU run inside the engine's kernel epilogue (in
        # place on the fresh output -- bitwise ``max(y + bias, 0)``; the
        # backend laps the "epilogue" stage).
        return engine.execute(step.plan, args[0], bias=step.bias, relu=step.relu)
    t0 = time.perf_counter() if tracer is not None else 0.0
    if kind == "add":
        y = args[0] + args[1]
        if step.relu:
            y = np.maximum(y, 0.0)
    elif kind == "relu":
        y = np.maximum(args[0], 0.0)
    elif kind == "concat":
        t, skip = args
        h = min(t.shape[2], skip.shape[2])
        w = min(t.shape[3], skip.shape[3])
        y = np.concatenate([t[:, :, :h, :w], skip[:, :, :h, :w]], axis=1)
    else:
        # maxpool / global_avg_pool / flatten / linear / upsample /
        # opaque: cheap whole-tensor NumPy ops already; call the layer.
        y = step.node.layer(args[0])
    if tracer is not None:
        tracer.record("op", time.perf_counter() - t0)
    return y


def lower(graph: Graph, cache: Optional[PlanCache] = None,
          engine: Optional[ExecutionEngine] = None,
          selector: Optional[Any] = None, tune: bool = False) -> CompiledProgram:
    """Lower a traced graph onto the vectorized runtime.

    With a ``selector``, wisdom-known algorithm choices are applied to
    the quantized convs *before* plans are built (see
    :func:`apply_selection`); ``tune=True`` measures un-tuned
    geometries first.
    """
    cache = cache if cache is not None else PlanCache()
    engine = engine if engine is not None else ExecutionEngine(cache=cache)
    selection = (
        apply_selection(graph, selector, tune=tune) if selector is not None else {}
    )
    consumers = graph.consumers()

    # A ReLU directly after a conv or residual add fuses into that
    # step's epilogue when it is the producer's only consumer (fusing a
    # shared value would change what the other consumers see).
    fused: Dict[int, int] = {}  # producer node id -> fused relu node id
    for node in graph.nodes:
        if node.op != "relu":
            continue
        producer = graph.node(node.inputs[0])
        if producer.op in ("conv", "add") and consumers[producer.id] == [node.id]:
            fused[producer.id] = node.id

    steps: List[Step] = []
    for node in graph.nodes:
        if node.op == "input":
            continue
        if node.id in fused.values():
            continue  # emitted as its producer's epilogue
        relu_id = fused.get(node.id)
        step = Step(node=node, out_id=relu_id if relu_id is not None else node.id,
                    relu=relu_id is not None)
        if node.op == "conv":
            conv = node.layer
            step.plan = plan_for_conv(conv, cache)
            step.bias = conv.bias
        steps.append(step)

    # Dense slot assignment: every live value id (the input, each step's
    # output, each step's inputs) gets a flat index so the run loop's
    # per-call state is two list copies instead of dict rebuilds.
    slots: Dict[int, int] = {}

    def slot(value_id: int) -> int:
        idx = slots.get(value_id)
        if idx is None:
            idx = slots[value_id] = len(slots)
        return idx

    input_slot = slot(graph.nodes[0].id)
    for step in steps:
        step.in_slots = tuple(slot(i) for i in step.node.inputs)
        step.out_slot = slot(step.out_id)
    output_slot = slot(graph.output_id)

    refcounts: List[int] = [0] * len(slots)
    for step in steps:
        for i in step.in_slots:
            refcounts[i] += 1
    refcounts[output_slot] += 1  # the output survives the sweep

    return CompiledProgram(
        graph=graph,
        steps=steps,
        cache=cache,
        engine=engine,
        selection=selection,
        _refcounts=refcounts,
        _slots=slots,
        _input_slot=input_slot,
        _output_slot=output_slot,
    )


def compile_model(
    model: Layer,
    input_shape: Tuple[int, ...],
    cache: Optional[PlanCache] = None,
    engine: Optional[ExecutionEngine] = None,
    selector: Optional[Any] = None,
    tune: bool = False,
) -> CompiledProgram:
    """Trace + lower ``model`` for an NCHW ``input_shape``."""
    return lower(trace(model, input_shape), cache=cache, engine=engine,
                 selector=selector, tune=tune)
