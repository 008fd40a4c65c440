"""Wall-clock benchmarking of the vectorized runtime (``repro bench``).

Times the steady-state (plan-cached) online path of every algorithm on
the Table 2 workloads, scaled to the pure-NumPy substrate (batch capped
at 1, spatial and channel extents capped per profile -- the full
batch-64 layers are ASIC-scale work a single interpreter thread cannot
turn around in benchmark time).  Three families of numbers come out:

* per-layer, per-algorithm wall-clock,
* speedup of each algorithm vs the vectorized ``fp32_direct`` path on
  the same layer (the paper's baseline normalization, Figure 8), and
* the vectorized-engine vs loop-reference ratio for the Winograd INT8
  family (``reference_forward`` + :func:`repro.gemm.batched_gemm_blocked`)
  -- the number that justifies the runtime's existence.

Every number comes from :func:`repro.perf.measured.measure`: one
layer's algorithms and loop references run interleaved in paired
rounds, and a ratio is the median of its per-round ratios.

"Speedup" here is a *relative* claim about two implementations run in
the same process on the same arrays; absolute wall-clock depends on the
host and is never gated.  :func:`check_regression` compares only the
ratio metrics against a checked-in baseline and fails on a >25% drop.

This module is also the one home of what every ``repro`` perf document
shares: the :func:`envelope`, the baseline compat check
(:func:`incompatible`), the baseline-relative floor (:func:`below_floor`)
and JSON persistence.
"""

from __future__ import annotations

import json
import math
import platform
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from ..perf.measured import measure
from ..workloads import BREAKDOWN_LAYERS, TABLE2_LAYERS, LayerConfig, layer_by_name
from .cache import PlanCache
from .engine import ExecutionEngine
from .plan import ALGORITHMS

__all__ = [
    "BenchProfile",
    "ModelCase",
    "FULL_PROFILE",
    "QUICK_PROFILE",
    "PROFILES",
    "REFERENCE_ALGORITHMS",
    "SCHEMA_VERSION",
    "build_case_model",
    "prepare_case_model",
    "scale_layer",
    "run_bench",
    "run_model_bench",
    "check_regression",
    "format_bench",
    "envelope",
    "incompatible",
    "below_floor",
    "load_json",
    "write_json",
]

#: Version of every ``repro`` perf document (bench, profile, tune,
#: serve-bench); bump on breaking schema changes.
SCHEMA_VERSION = 2

#: Default seed for the synthetic activation / filter tensors.
SEED = 2021

#: Algorithms whose layers expose a ``reference_forward`` loop path.
REFERENCE_ALGORITHMS = ("lowino", "int8_upcast", "int8_downscale")


@dataclass(frozen=True)
class ModelCase:
    """One whole-model compiled-vs-eager measurement.

    ``model`` names a builder from :mod:`repro.nn.models` /
    :mod:`repro.nn.unet`; ``algorithm`` is a ``quantize_model`` choice
    (``'auto'`` = the per-layer planner) or ``'fp32'`` for the
    unquantized network.  The eager path runs ``model(x)`` layer by
    layer; the compiled path runs the same prepared engines through an
    :class:`~repro.runtime.session.InferenceSession`, so the ratio
    isolates exactly what whole-model lowering buys.
    """

    model: str
    algorithm: str
    batch: int = 4
    hw: int = 32
    width: int = 32
    m: int = 4

    @property
    def case_name(self) -> str:
        return f"{self.model}/{self.algorithm}"


@dataclass(frozen=True)
class BenchProfile:
    """One named measurement configuration.

    ``hw_cap`` / ``chan_cap`` / ``batch_cap`` shrink each Table 2 layer
    to a tractable size while keeping its *shape character* (the layer
    set still spans hw 7..32 and the full channel spread up to the cap).
    The caps are part of the emitted metadata: a baseline only gates a
    run with identical scaling.  ``model_cases`` adds whole-network
    compiled-vs-eager measurements on the scaled Table 2 model families.
    ``repeats`` is the number of paired rounds behind every number.
    """

    name: str
    layers: tuple
    batch_cap: int = 1
    hw_cap: int = 32
    chan_cap: int = 128
    repeats: int = 5
    m: int = 4
    reference: bool = True
    model_cases: tuple = ()


#: The scaled Table 2 network mix for the full profile: per-layer 'auto'
#: selection on all four families plus single-algorithm VGG cases, so
#: both the planner path and the pure lowino / direct paths are gated.
_FULL_MODEL_CASES = (
    ModelCase("vgg", "auto"),
    ModelCase("resnet", "auto"),
    ModelCase("alexnet", "auto"),
    ModelCase("unet", "auto", batch=2, width=16),
    ModelCase("vgg", "lowino"),
    ModelCase("vgg", "int8_direct"),
)

_QUICK_MODEL_CASES = (
    ModelCase("resnet", "auto", batch=2, hw=16, width=16),
    ModelCase("vgg", "lowino", batch=2, hw=16, width=16),
)

FULL_PROFILE = BenchProfile(
    "full",
    tuple(layer.name for layer in TABLE2_LAYERS),
    model_cases=_FULL_MODEL_CASES,
)
QUICK_PROFILE = BenchProfile(
    "quick",
    tuple(BREAKDOWN_LAYERS),
    hw_cap=16,
    repeats=15,
    model_cases=_QUICK_MODEL_CASES,
)
PROFILES: Dict[str, BenchProfile] = {"full": FULL_PROFILE, "quick": QUICK_PROFILE}


def scale_layer(layer: LayerConfig, profile: BenchProfile) -> LayerConfig:
    """Cap a Table 2 layer's batch / spatial / channel extents."""
    return replace(
        layer,
        batch=min(layer.batch, profile.batch_cap),
        hw=min(layer.hw, profile.hw_cap),
        c=min(layer.c, profile.chan_cap),
        k=min(layer.k, profile.chan_cap),
    )


def _geomean(values: Iterable[float]) -> Optional[float]:
    vals = [v for v in values if v is not None and v > 0]
    if not vals:
        return None
    return float(math.exp(sum(math.log(v) for v in vals) / len(vals)))


def build_case_model(case: ModelCase):
    """Instantiate the (FP32) network for a model case."""
    from ..nn.models import build_alexnet_small, build_resnet_small, build_vgg_small
    from ..nn.unet import build_unet_small

    builders = {
        "vgg": build_vgg_small,
        "resnet": build_resnet_small,
        "alexnet": build_alexnet_small,
        "unet": build_unet_small,
    }
    try:
        builder = builders[case.model]
    except KeyError:
        raise ValueError(
            f"unknown model {case.model!r}; known: {sorted(builders)}"
        ) from None
    return builder(width=case.width)


def prepare_case_model(case: ModelCase, calibration: np.ndarray):
    """The case's network, quantized with ``case.algorithm`` on the one
    ``calibration`` batch (an ``'fp32'`` case stays unquantized)."""
    from ..nn.quantize import quantize_model

    model = build_case_model(case)
    if case.algorithm != "fp32":
        quantize_model(
            model, case.algorithm, m=case.m, calibration_batches=[calibration]
        )
    return model


def run_model_bench(
    profile: BenchProfile = FULL_PROFILE,
    seed: int = SEED,
    wisdom=None,
) -> List[dict]:
    """Whole-model compiled-vs-eager measurements (``model_cases``).

    For each case: build the network, quantize it (streaming calibration
    on the bench input), and time ``model(x)`` (eager, layer-by-layer)
    against ``InferenceSession.run(x)`` (compiled, plan-cached, fused
    epilogues) -- the *same prepared engine objects* either way, so the
    ratio is pure execution-architecture.  Each entry also records
    bitwise equality of the two warm-up outputs (``exact``) and the
    session's plan-cache counters.

    ``wisdom`` (path / :class:`~repro.tuning.wisdom.WisdomFile`) applies
    tuned per-geometry algorithm choices at lowering time; selection
    swaps the shared engine objects, so the eager reference swaps with
    it and ``exact`` still gates bit-identity.
    """
    from .session import InferenceSession

    rng = np.random.default_rng(seed)
    entries: List[dict] = []
    for case in profile.model_cases:
        x = rng.standard_normal((case.batch, 3, case.hw, case.hw))
        model = prepare_case_model(case, x)
        session = InferenceSession(model, x.shape, collect_timings=False, wisdom=wisdom)
        timed = measure(
            {"eager": lambda: model(x), "compiled": lambda: session.run(x)},
            profile.repeats,
        )
        entries.append(
            {
                "name": case.case_name,
                "model": case.model,
                "algorithm": case.algorithm,
                "batch": case.batch,
                "hw": case.hw,
                "width": case.width,
                "m": case.m,
                "eager_s": timed.median("eager"),
                "compiled_s": timed.median("compiled"),
                "compiled_speedup": timed.ratio("eager", "compiled"),
                "exact": bool(
                    np.array_equal(timed.outputs["eager"], timed.outputs["compiled"])
                ),
                "cache_stats": session.cache_stats(),
            }
        )
    return entries


def run_bench(
    profile: BenchProfile = FULL_PROFILE,
    algorithms: Sequence[str] = ALGORITHMS,
    seed: int = SEED,
    engine: Optional[ExecutionEngine] = None,
    models: bool = True,
    wisdom=None,
) -> dict:
    """Run the benchmark and return the ``BENCH_runtime.json`` document.

    A private plan cache is used by default so the emitted
    ``cache_stats`` describe exactly this run: one plan miss per layer
    and algorithm, and no lookups from the timed calls, which take
    their scratch from the engine's pool.  It is sized to hold every
    plan of the full profile at once -- a model's working set is
    resident in steady state, and benchmarking the eviction path would
    just add noise.
    """
    if engine is None:
        engine = ExecutionEngine(cache=PlanCache(capacity=1024))
    rng = np.random.default_rng(seed)
    layer_entries: List[dict] = []
    for name in profile.layers:
        layer_cfg = scale_layer(layer_by_name(name), profile)
        x = layer_cfg.input_tensor(rng, dtype=np.float64)
        w = layer_cfg.filter_tensor(rng, dtype=np.float64)
        fns = {}
        references = []
        for algo in algorithms:
            layer = engine.layer(w, algo, m=profile.m, padding=layer_cfg.padding)
            fns[algo] = lambda layer=layer: layer(x)
            if profile.reference and algo in REFERENCE_ALGORITHMS:
                references.append(algo)
                fns[f"{algo}/reference"] = (
                    lambda ref=layer.reference: ref.reference_forward(x)
                )
        timed = measure(fns, profile.repeats)
        algo_entries = {
            algo: {
                "wall_s": timed.median(algo),
                "speedup_vs_fp32_direct": (
                    timed.ratio("fp32_direct", algo) if "fp32_direct" in fns else None
                ),
            }
            for algo in algorithms
        }
        ref_entries = {
            algo: {
                "wall_s": timed.median(f"{algo}/reference"),
                "vectorized_speedup": timed.ratio(f"{algo}/reference", algo),
            }
            for algo in references
        }
        layer_entries.append(
            {
                "name": layer_cfg.name,
                "batch": layer_cfg.batch,
                "c": layer_cfg.c,
                "k": layer_cfg.k,
                "hw": layer_cfg.hw,
                "algorithms": algo_entries,
                "reference": ref_entries,
            }
        )
    model_entries = (
        run_model_bench(profile, seed=seed, wisdom=wisdom)
        if models
        else []
    )
    return {
        **envelope(asdict(profile)),
        "wisdom": wisdom is not None,
        "seed": seed,
        "layers": layer_entries,
        "models": model_entries,
        "summary": _summarize(layer_entries, algorithms, model_entries),
        "cache_stats": engine.cache.stats_dict(),
    }


def _summarize(
    layer_entries: List[dict],
    algorithms: Sequence[str],
    model_entries: Sequence[dict] = (),
) -> dict:
    speedups = {
        algo: _geomean(
            e["algorithms"][algo]["speedup_vs_fp32_direct"] for e in layer_entries
        )
        for algo in algorithms
    }
    reference = {}
    for algo in REFERENCE_ALGORITHMS:
        ratios = [
            e["reference"][algo]["vectorized_speedup"]
            for e in layer_entries
            if algo in e.get("reference", {})
        ]
        if ratios:
            reference[algo] = {
                "geomean": _geomean(ratios),
                "min": min(ratios),
                "max": max(ratios),
            }
    summary = {"speedup_vs_fp32_direct": speedups, "reference_speedup": reference}
    ratios = [e["compiled_speedup"] for e in model_entries]
    if ratios:
        summary["model_compiled_vs_eager"] = {
            "geomean": _geomean(ratios),
            "min": min(ratios),
            "max": max(ratios),
        }
    return summary


# -- what every perf document shares -------------------------------------

def envelope(config: dict) -> dict:
    """The keys every perf document opens with: its schema, the config
    that produced it, and the host it ran on."""
    return {
        "schema": SCHEMA_VERSION,
        "config": config,
        "numpy": np.__version__,
        "machine": platform.machine(),
    }


def incompatible(current: dict, baseline: dict, keys: Sequence[str]) -> List[str]:
    """Why ``baseline`` cannot gate ``current`` (empty when it can).

    A baseline gates a run only when it has this schema and the same
    value for every ``config`` key in ``keys`` -- each producer's list
    of the fields that shape its numbers.
    """
    if baseline.get("schema") != SCHEMA_VERSION:
        return [
            f"baseline schema {baseline.get('schema')!r} is not this run's "
            f"{SCHEMA_VERSION}; regenerate it with --update-baseline"
        ]
    cur, base = current["config"], baseline.get("config", {})
    differ = [k for k in keys if _norm(cur.get(k)) != _norm(base.get(k))]
    if not differ:
        return []
    return [
        "baseline incompatible with this run (config fields differ: "
        + ", ".join(f"{k}: {base.get(k)!r} -> {cur.get(k)!r}" for k in differ)
        + "); regenerate it with --update-baseline"
    ]


def below_floor(
    what: str, current: Optional[float], base: Optional[float], fraction: float
) -> List[str]:
    """The baseline-relative floor: a violation when ``current`` is below
    ``fraction`` of its ``base`` value (empty when either is missing)."""
    if current is None or not base or current >= base * fraction:
        return []
    return [
        f"{what} regressed: {current:.3f}x < {fraction:.2f} * "
        f"baseline {base:.3f}x"
    ]


def _norm(value):
    # JSON round-trips tuples as lists; compare them structurally.
    return list(value) if isinstance(value, (list, tuple)) else value


#: ``config`` keys that must match for a baseline comparison to be valid.
_COMPAT_KEYS = ("name", "layers", "batch_cap", "hw_cap", "chan_cap", "m", "model_cases")


def check_regression(
    current: dict, baseline: Optional[dict] = None, gate: float = 0.25
) -> List[str]:
    """Bench gate; returns human-readable violations, empty means PASS.

    Every model case's compiled output must be bit-identical to the
    eager model, whatever the host.  Against a ``baseline``, only
    *relative* metrics are compared (speedup-vs-fp32_direct geomeans,
    loop-reference ratios, compiled-vs-eager ratios) -- never absolute
    wall-clock, which varies across hosts.  A metric regresses when it
    drops more than ``gate`` (fraction) below the baseline value.
    """
    violations = [
        f"model {entry['name']}: compiled output is not bit-identical "
        f"to the eager model"
        for entry in current.get("models", [])
        if not entry["exact"]
    ]
    if baseline is None:
        return violations
    refused = incompatible(current, baseline, _COMPAT_KEYS)
    if refused:
        return violations + refused
    floor = 1.0 - gate
    cur_sum, base_sum = current["summary"], baseline["summary"]
    for algo, base_val in base_sum.get("speedup_vs_fp32_direct", {}).items():
        violations += below_floor(
            f"summary speedup_vs_fp32_direct[{algo}]",
            cur_sum.get("speedup_vs_fp32_direct", {}).get(algo), base_val, floor,
        )
    for algo, base_entry in base_sum.get("reference_speedup", {}).items():
        cur_entry = cur_sum.get("reference_speedup", {}).get(algo) or {}
        violations += below_floor(
            f"summary reference_speedup[{algo}].geomean",
            cur_entry.get("geomean"), base_entry.get("geomean"), floor,
        )
    base_layers = {e["name"]: e for e in baseline.get("layers", [])}
    for entry in current.get("layers", []):
        base_ref = base_layers.get(entry["name"], {}).get("reference", {}).get("lowino")
        cur_ref = entry.get("reference", {}).get("lowino")
        if base_ref and cur_ref:
            violations += below_floor(
                f"{entry['name']}: lowino vectorized_speedup",
                cur_ref["vectorized_speedup"], base_ref["vectorized_speedup"], floor,
            )
    violations += below_floor(
        "summary model_compiled_vs_eager.geomean",
        (cur_sum.get("model_compiled_vs_eager") or {}).get("geomean"),
        (base_sum.get("model_compiled_vs_eager") or {}).get("geomean"),
        floor,
    )
    base_cases = {e["name"]: e for e in baseline.get("models", [])}
    for entry in current.get("models", []):
        base_entry = base_cases.get(entry["name"])
        if base_entry is not None:
            violations += below_floor(
                f"model {entry['name']}: compiled_speedup",
                entry["compiled_speedup"], base_entry["compiled_speedup"], floor,
            )
    return violations


def format_bench(doc: dict) -> str:
    """Human-readable table for one benchmark document."""
    algorithms = list(doc["summary"]["speedup_vs_fp32_direct"])
    lines = []
    prof = doc["config"]
    lines.append(
        f"Runtime benchmark -- profile={prof['name']} m={prof['m']} "
        f"caps(batch={prof['batch_cap']}, hw={prof['hw_cap']}, chan={prof['chan_cap']}) "
        f"median of {prof['repeats']} paired rounds"
    )
    header = f"{'layer':14s} {'b':>2s} {'c':>4s} {'k':>4s} {'hw':>3s}"
    for algo in algorithms:
        header += f" {algo[:12]:>13s}"
    header += f" {'lowino ref':>11s}"
    lines.append(header)
    lines.append("-" * len(header))
    for entry in doc["layers"]:
        row = (
            f"{entry['name']:14s} {entry['batch']:2d} {entry['c']:4d} "
            f"{entry['k']:4d} {entry['hw']:3d}"
        )
        for algo in algorithms:
            cell = entry["algorithms"][algo]
            row += f" {cell['wall_s'] * 1e3:8.2f}ms"
            sp = cell["speedup_vs_fp32_direct"]
            row += f"/{sp:4.1f}" if sp is not None else "/  --"
        ref = entry.get("reference", {}).get("lowino")
        row += f" {ref['vectorized_speedup']:10.1f}x" if ref else f" {'--':>11s}"
        lines.append(row)
    lines.append("")
    lines.append("geomean speedup vs fp32_direct: " + "  ".join(
        f"{algo}={sp:.2f}x" if sp is not None else f"{algo}=--"
        for algo, sp in doc["summary"]["speedup_vs_fp32_direct"].items()
    ))
    for algo, entry in doc["summary"].get("reference_speedup", {}).items():
        lines.append(
            f"vectorized vs loop reference [{algo}]: geomean {entry['geomean']:.1f}x "
            f"(min {entry['min']:.1f}x, max {entry['max']:.1f}x)"
        )
    if doc.get("models"):
        lines.append("")
        lines.append(
            f"{'model case':22s} {'b':>2s} {'hw':>3s} {'w':>3s} "
            f"{'eager':>10s} {'compiled':>10s} {'speedup':>8s} {'exact':>6s}"
        )
        for entry in doc["models"]:
            lines.append(
                f"{entry['name']:22s} {entry['batch']:2d} {entry['hw']:3d} "
                f"{entry['width']:3d} {entry['eager_s'] * 1e3:8.2f}ms "
                f"{entry['compiled_s'] * 1e3:8.2f}ms "
                f"{entry['compiled_speedup']:7.2f}x {'yes' if entry['exact'] else 'NO':>6s}"
            )
        model_sum = doc["summary"].get("model_compiled_vs_eager")
        if model_sum:
            lines.append(
                f"model compiled vs eager: geomean {model_sum['geomean']:.2f}x "
                f"(min {model_sum['min']:.2f}x, max {model_sum['max']:.2f}x)"
            )
    return "\n".join(lines)


def write_json(doc: dict, path) -> None:
    """Write ``doc`` as sorted, indented JSON, creating parent dirs."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def load_json(path) -> dict:
    return json.loads(Path(path).read_text())
