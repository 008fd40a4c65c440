"""Open-loop trace replay and the ``repro load-bench`` harness.

:mod:`repro.serve.workload` turns a seeded spec into a deterministic
:class:`~repro.serve.workload.Trace`; this module *replays* a trace
against a live :class:`~repro.serve.server.Server` and reports SLO-style
results -- p50/p95/p99 latency (from the obs registry's reservoir
histograms, not ad-hoc timing lists), goodput vs offered load, the shed
rate from :class:`~repro.serve.batching.ServerOverloaded` backpressure,
and the micro-batcher's coalescing width.  Shed counts mean exactly
that: ``Server.submit`` records a rejection only when the bounded queue
refused the request with ``ServerOverloaded`` -- a ``ServerClosed`` or
an unexpected error propagates uncounted, so the shed rates gated by
:func:`check_load_gate` are not inflated by shutdown races.

Two replay modes:

* **virtual** (``mode="virtual"``) -- wall-clock-free: events are
  submitted in schedule order as fast as the queue admits them.  The
  schedule still fixes *what* is served (tenants, sizes, ordering,
  payload bytes), so tests get full determinism without sleeping
  through the trace horizon.  With ``submit_timeout=None`` the
  generator blocks on a full queue (no sheds -- the bit-identity
  configuration); with ``submit_timeout=0.0`` it sheds instantly (the
  overload configuration).
* **real-time** (``mode="realtime"``) -- each event is submitted at its
  scheduled wall-clock instant (optionally compressed by ``speed``),
  *without* waiting for earlier responses.  This is the open-loop
  discipline: offered load does not adapt to the server, so queueing
  tails and shed rates mean what they would in production.

``repro load-bench`` wraps three scenarios (Poisson, bursty
multi-model, overload) into a schema-versioned JSON document persisted
as ``benchmarks/BENCH_serve_quick.json`` -- the serve perf trajectory
-- with ``--baseline`` / ``--update-baseline`` gating like
``repro bench``:

* **hard gates** (host-independent): every checked scenario bitwise
  matches serial eager execution; paced scenarios shed nothing; the
  overload scenario sheds *and* still completes work; repeated replays
  of the same seed produce identical schedules and bitwise-identical
  outputs.
* **baseline gates**: schedule digests must equal the baseline's
  (seeded RNG, stable across hosts), the overload shed rate must stay
  within an absolute tolerance, and each scenario's p95 may not exceed
  ``p95_factor`` times the baseline p95 (generous by design -- a smoke
  gate against order-of-magnitude tail regressions, not a wall-clock
  comparison).  Output digests are recorded but *not* gated across
  hosts: the FP32 classifier head's float reductions may differ across
  BLAS builds, so cross-run output identity is asserted within one
  process instead.
"""

from __future__ import annotations

import hashlib
import json
import platform
import time
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..obs.metrics import Histogram, nearest_rank
from ..runtime.bench import ModelCase, build_case_model, load_json, write_json
from ..runtime.session import InferenceSession
from .batching import ServerOverloaded
from .server import Server
from .workload import (
    BurstyArrivals,
    FixedSizes,
    ModelWorkload,
    PoissonArrivals,
    Trace,
    TraceEvent,
    ZipfSizes,
    build_trace,
)

__all__ = [
    "DEFAULT_BENCH_PATH",
    "LoadBenchConfig",
    "ReplayResult",
    "check_load_gate",
    "event_payload",
    "format_load_bench",
    "load_json",
    "output_digest",
    "replay",
    "run_load_bench",
    "slo_report",
    "write_json",
]

#: JSON document version; bump on breaking schema changes.
SCHEMA_VERSION = 1

SEED = 2021

#: Quantiles reported per model and aggregate (milliseconds).
SLO_QUANTILES = (50.0, 90.0, 95.0, 99.0)

#: The serving layer's latency reservoir (one per model label).
LATENCY_METRIC = "repro_request_latency_seconds"

#: Where ``repro load-bench`` persists the serve perf trajectory.
DEFAULT_BENCH_PATH = "benchmarks/BENCH_serve_quick.json"


# ---------------------------------------------------------------------------
# payloads and replay
# ---------------------------------------------------------------------------


def event_payload(
    trace: Trace, event: TraceEvent, item_shape: Tuple[int, ...]
) -> np.ndarray:
    """The deterministic activation tensor for one trace event.

    Derived from ``(trace.seed, event.payload_seed)`` alone, so the
    serial eager reference and any number of replays materialize the
    same bytes without shipping tensors around.
    """
    rng = np.random.default_rng(
        np.random.SeedSequence([trace.seed, 0x10AD, event.payload_seed])
    )
    return rng.standard_normal((event.n_images, *item_shape))


@dataclass
class ReplayResult:
    """Outcome of one trace replay against a server."""

    mode: str
    wall_s: float
    #: request_id -> served output rows (completed requests only).
    outputs: Dict[int, np.ndarray]
    #: request_ids rejected by backpressure at submit time.
    shed_ids: List[int]

    @property
    def completed(self) -> int:
        return len(self.outputs)

    @property
    def shed(self) -> int:
        return len(self.shed_ids)


def replay(
    server: Server,
    trace: Trace,
    mode: str = "virtual",
    submit_timeout: Optional[float] = None,
    result_timeout: float = 120.0,
    speed: float = 1.0,
) -> ReplayResult:
    """Drive ``server`` with ``trace``, open-loop; returns the outcomes.

    ``submit_timeout`` is the queue-full behavior: ``None`` blocks (no
    sheds), ``0.0`` sheds instantly, a positive value bounds the wait.
    ``speed`` compresses the real-time schedule (2.0 = twice as fast);
    it is ignored in virtual mode.
    """
    if mode not in ("virtual", "realtime"):
        raise ValueError(f"mode must be 'virtual' or 'realtime', got {mode!r}")
    if speed <= 0:
        raise ValueError(f"speed must be > 0, got {speed}")
    shapes = {name: tuple(server.session(name).input_shape[1:]) for name in trace.models}
    pending: List[Tuple[TraceEvent, object]] = []
    shed_ids: List[int] = []
    t0 = time.perf_counter()
    for event in trace.events:
        if mode == "realtime":
            target = t0 + event.t / speed
            delay = target - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
        x = event_payload(trace, event, shapes[event.model])
        try:
            future = server.submit(event.model, x, timeout=submit_timeout)
        except ServerOverloaded:
            shed_ids.append(event.request_id)
            continue
        pending.append((event, future))
    outputs: Dict[int, np.ndarray] = {}
    for event, future in pending:
        outputs[event.request_id] = future.result(timeout=result_timeout)
    wall = time.perf_counter() - t0
    return ReplayResult(mode=mode, wall_s=wall, outputs=outputs, shed_ids=shed_ids)


def output_digest(outputs: Dict[int, np.ndarray]) -> str:
    """SHA-256 over (request_id, output bytes) in request order."""
    h = hashlib.sha256()
    for rid in sorted(outputs):
        h.update(int(rid).to_bytes(8, "little"))
        h.update(np.ascontiguousarray(outputs[rid]).tobytes())
    return h.hexdigest()


def eager_outputs(
    models: Dict[str, object], trace: Trace, shapes: Dict[str, Tuple[int, ...]]
) -> Dict[int, np.ndarray]:
    """Serial eager reference for every event (the bit-identity oracle)."""
    out: Dict[int, np.ndarray] = {}
    for event in trace.events:
        x = event_payload(trace, event, shapes[event.model])
        out[event.request_id] = models[event.model](x)
    return out


# ---------------------------------------------------------------------------
# SLO reporting (sourced from the obs registry's reservoir histograms)
# ---------------------------------------------------------------------------


def _latency_doc(hist: Optional[Histogram]) -> Dict[str, float]:
    """Quantiles/mean/max in milliseconds from one reservoir histogram."""
    if hist is None or hist.count == 0:
        doc = {f"p{q:g}_ms": 0.0 for q in SLO_QUANTILES}
        doc.update(count=0, mean_ms=0.0, max_ms=0.0)
        return doc
    doc = {
        f"{key}_ms": value * 1e3 for key, value in hist.quantiles(SLO_QUANTILES).items()
    }
    doc["count"] = hist.count
    doc["mean_ms"] = hist.total / hist.count * 1e3
    doc["max_ms"] = hist.max * 1e3
    return doc


def slo_report(server: Server, trace: Trace, result: ReplayResult) -> Dict[str, object]:
    """SLO-style summary of one replay: latency tails, goodput, sheds.

    Latency quantiles are read from the server registry's seeded
    Algorithm-R reservoirs (``repro_request_latency_seconds{model=...}``)
    -- the same metrics the Prometheus export serves -- so the numbers
    gated here are the numbers operators would alert on.
    """
    offered = trace.per_model()
    stats = server.stats()
    shed_by_model: Dict[str, int] = {name: 0 for name in trace.models}
    events_by_id = {e.request_id: e for e in trace.events}
    for rid in result.shed_ids:
        shed_by_model[events_by_id[rid].model] += 1
    completed_images = 0
    completed_by_model: Dict[str, Dict[str, int]] = {
        name: {"requests": 0, "images": 0} for name in trace.models
    }
    for rid in result.outputs:
        event = events_by_id[rid]
        entry = completed_by_model[event.model]
        entry["requests"] += 1
        entry["images"] += event.n_images
        completed_images += event.n_images
    per_model: Dict[str, Dict[str, object]] = {}
    merged_samples: List[float] = []
    for name in trace.models:
        hist = server.registry.find(LATENCY_METRIC, model=name)
        if isinstance(hist, Histogram):
            merged_samples.extend(hist.samples())
        model_stats = stats.get(name, {})
        shed = shed_by_model[name]
        n_offered = int(offered[name]["requests"])
        per_model[name] = {
            "offered_requests": n_offered,
            "offered_images": int(offered[name]["images"]),
            "completed_requests": completed_by_model[name]["requests"],
            "completed_images": completed_by_model[name]["images"],
            "shed_requests": shed,
            "shed_rate": shed / n_offered if n_offered else 0.0,
            "latency": _latency_doc(hist if isinstance(hist, Histogram) else None),
            "mean_batch_images": model_stats.get("mean_batch_images", 0.0),
            "max_batch_images": model_stats.get("max_batch_images", 0),
            "batches": model_stats.get("batches", 0),
        }
    merged_samples.sort()
    aggregate_latency = {
        f"p{q:g}_ms": nearest_rank(merged_samples, q) * 1e3 for q in SLO_QUANTILES
    }
    n_events = len(trace.events)
    shed = result.shed
    batches = sum(int(per_model[m]["batches"]) for m in per_model)
    return {
        "offered_requests": n_events,
        "offered_images": trace.total_images,
        "offered_rps": trace.offered_rps(),
        "wall_s": result.wall_s,
        "completed_requests": result.completed,
        "completed_images": completed_images,
        "goodput_rps": result.completed / result.wall_s if result.wall_s else 0.0,
        "goodput_ips": completed_images / result.wall_s if result.wall_s else 0.0,
        "shed_requests": shed,
        "shed_rate": shed / n_events if n_events else 0.0,
        "mean_batch_images": (completed_images / batches) if batches else 0.0,
        "latency_ms": aggregate_latency,
        "per_model": per_model,
    }


# ---------------------------------------------------------------------------
# the load-bench document
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LoadBenchConfig:
    """One ``repro load-bench`` run: tenants, rates, replay knobs.

    ``tenants`` are ``(name, model_family, algorithm)`` triples sharing
    one geometry (``width`` / ``hw`` / ``m``); the first tenant carries
    the bursty and overload scenarios.  Rates are requests/second
    against the *virtual* trace horizon -- in virtual mode they shape
    the schedule's burst structure, not wall time.
    """

    tenants: Tuple[Tuple[str, str, str], ...] = (
        ("vgg", "vgg", "lowino"),
        ("resnet", "resnet", "int8_upcast"),
    )
    width: int = 8
    hw: int = 8
    m: int = 2
    horizon_s: float = 2.0
    base_rate: float = 30.0
    burst_rate: float = 120.0
    idle_rate: float = 8.0
    mean_burst_s: float = 0.25
    mean_idle_s: float = 0.5
    zipf_alpha: float = 1.3
    max_request_images: int = 6
    overload_rate: float = 600.0
    overload_queue: int = 16
    max_batch: int = 16
    max_delay_ms: float = 2.0
    queue_size: int = 256
    workers: int = 1
    mode: str = "virtual"
    speed: float = 1.0
    seed: int = SEED


@dataclass(frozen=True)
class _Scenario:
    name: str
    workloads: Tuple[ModelWorkload, ...]
    blocking: bool  # True: submit_timeout=None (no sheds); False: shed at 0s
    queue_size: Optional[int] = None
    repeats: int = 1


def _scenarios(cfg: LoadBenchConfig) -> List[_Scenario]:
    first = cfg.tenants[0][0]
    sizes = ZipfSizes(alpha=cfg.zipf_alpha, max_images=cfg.max_request_images)
    scenarios = [
        _Scenario(
            name="poisson",
            workloads=(ModelWorkload(first, PoissonArrivals(cfg.base_rate), sizes),),
            blocking=True,
            repeats=2,  # proves same-seed replays are bitwise identical
        )
    ]
    if len(cfg.tenants) > 1:
        bursty = BurstyArrivals(
            burst_rate=cfg.burst_rate,
            idle_rate=cfg.idle_rate,
            mean_burst_s=cfg.mean_burst_s,
            mean_idle_s=cfg.mean_idle_s,
        )
        workloads = [ModelWorkload(first, bursty, sizes)]
        for name, _, _ in cfg.tenants[1:]:
            workloads.append(
                ModelWorkload(name, PoissonArrivals(max(cfg.base_rate / 2, 1.0)), sizes)
            )
        scenarios.append(
            _Scenario(name="bursty-multi", workloads=tuple(workloads), blocking=True)
        )
    scenarios.append(
        _Scenario(
            name="overload",
            workloads=(
                ModelWorkload(first, PoissonArrivals(cfg.overload_rate), FixedSizes(2)),
            ),
            blocking=False,
            queue_size=cfg.overload_queue,
        )
    )
    return scenarios


def _build_tenants(cfg: LoadBenchConfig, wisdom=None):
    """Compile + calibrate one (model, session) per tenant (offline)."""
    from ..nn.quantize import quantize_model

    tenants: Dict[str, Tuple[object, InferenceSession]] = {}
    for name, family, algorithm in cfg.tenants:
        case = ModelCase(family, algorithm, hw=cfg.hw, width=cfg.width, m=cfg.m)
        model = build_case_model(case)
        rng = np.random.default_rng(cfg.seed)
        calib = rng.standard_normal((2, 3, cfg.hw, cfg.hw))
        if algorithm != "fp32":
            quantize_model(model, algorithm, m=cfg.m, calibration_batches=[calib])
        session = InferenceSession(
            model, (2, 3, cfg.hw, cfg.hw), collect_timings=False, wisdom=wisdom
        )
        # Warm the small-batch geometries here (plan/tile-grid builds),
        # so scenario replays measure steady-state serving, and the
        # per-scenario metrics registries never see warm-up samples.
        session.run(np.zeros((1, 3, cfg.hw, cfg.hw)))
        session.run(np.zeros((2, 3, cfg.hw, cfg.hw)))
        tenants[name] = (model, session)
    return tenants


def _run_scenario(
    cfg: LoadBenchConfig, scenario: _Scenario, tenants
) -> Dict[str, object]:
    trace = build_trace(scenario.workloads, cfg.horizon_s, cfg.seed)
    shapes = {name: (3, cfg.hw, cfg.hw) for name in trace.models}
    expected = eager_outputs(
        {name: tenants[name][0] for name in trace.models}, trace, shapes
    )
    submit_timeout = None if scenario.blocking else 0.0
    digests: List[str] = []
    entry: Dict[str, object] = {}
    for _ in range(max(1, scenario.repeats)):
        server = Server(
            max_batch=cfg.max_batch,
            max_delay_ms=cfg.max_delay_ms,
            queue_size=scenario.queue_size or cfg.queue_size,
            workers_per_model=cfg.workers,
        )
        for name in trace.models:
            server.add_model(name, session=tenants[name][1])
        result = replay(
            server,
            trace,
            mode=cfg.mode,
            submit_timeout=submit_timeout,
            speed=cfg.speed,
        )
        report = slo_report(server, trace, result)
        server.close()
        exact = all(
            np.array_equal(result.outputs[rid], expected[rid])
            for rid in result.outputs
        )
        digests.append(output_digest(result.outputs))
        entry = {
            "name": scenario.name,
            "mode": cfg.mode,
            "blocking_submit": scenario.blocking,
            "arrivals": " + ".join(
                type(w.arrivals).__name__ for w in scenario.workloads
            ),
            "models": trace.models,
            "schedule_digest": trace.digest(),
            "output_digest": digests[-1],
            "exact": exact,
            **report,
        }
    entry["deterministic_outputs"] = len(set(digests)) == 1
    entry["replays"] = len(digests)
    return entry


def run_load_bench(cfg: LoadBenchConfig = LoadBenchConfig(), wisdom=None) -> dict:
    """Run the scenario sweep and return the load-bench JSON document.

    ``wisdom`` (a path or :class:`~repro.tuning.wisdom.WisdomFile`) makes
    every tenant session apply tuned algorithm choices at lowering time.
    It is deliberately *not* part of :class:`LoadBenchConfig`: selection
    swaps engines, not semantics (bit-identity and schedule digests are
    unchanged), so a wisdom-warmed run stays comparable to -- and
    gateable against -- a baseline recorded without one.  The document
    records it top-level, outside the config-compat comparison.
    """
    tenants = _build_tenants(cfg, wisdom=wisdom)
    entries = [_run_scenario(cfg, s, tenants) for s in _scenarios(cfg)]
    combined = hashlib.sha256(
        "".join(e["schedule_digest"] for e in entries).encode()
    ).hexdigest()
    by_name = {e["name"]: e for e in entries}
    overload = by_name.get("overload")
    summary: Dict[str, object] = {
        "exact": all(e["exact"] for e in entries),
        "deterministic_outputs": all(e["deterministic_outputs"] for e in entries),
        "schedule_digest": combined,
        "paced_shed_requests": sum(
            e["shed_requests"] for e in entries if e["blocking_submit"]
        ),
        "p95_ms": {e["name"]: e["latency_ms"]["p95_ms"] for e in entries},
        "shed_rate": {e["name"]: e["shed_rate"] for e in entries},
        "goodput_ips": {e["name"]: e["goodput_ips"] for e in entries},
    }
    if overload is not None:
        summary["overload_sheds"] = overload["shed_requests"] > 0
        summary["overload_completed"] = overload["completed_requests"]
    return {
        "schema": SCHEMA_VERSION,
        "config": asdict(cfg),
        "wisdom": wisdom is not None,
        "numpy": np.__version__,
        "machine": platform.machine(),
        "scenarios": entries,
        "summary": summary,
    }


# ---------------------------------------------------------------------------
# gating, formatting, persistence
# ---------------------------------------------------------------------------


def _jsonify(value):
    """Normalize tuples/np scalars the way a JSON round-trip would."""
    return json.loads(json.dumps(value, default=float))


def check_load_gate(
    doc: dict,
    baseline: Optional[dict] = None,
    p95_factor: float = 4.0,
    shed_tolerance: float = 0.2,
) -> List[str]:
    """Gate one load-bench document, optionally against a baseline.

    Hard (host-independent) gates: bit-identity vs serial eager on
    every scenario, zero sheds on paced scenarios, sheds *plus*
    completed work on the overload scenario, and bitwise-identical
    outputs across same-seed replays.  Baseline gates: identical
    schedule digests, overload shed rate within ``shed_tolerance``
    (absolute), and per-scenario p95 below ``p95_factor`` times the
    baseline (``p95_factor <= 0`` disables the latency gate).
    Returns human-readable violations; empty means PASS.
    """
    violations: List[str] = []
    for entry in doc["scenarios"]:
        name = entry["name"]
        if not entry["exact"]:
            violations.append(
                f"{name}: served outputs are not bit-identical to serial eager "
                f"execution"
            )
        if not entry["deterministic_outputs"]:
            violations.append(
                f"{name}: same-seed replays produced different output digests"
            )
        if entry["blocking_submit"] and entry["shed_requests"]:
            violations.append(
                f"{name}: {entry['shed_requests']} requests shed on a paced "
                f"(blocking-submit) scenario"
            )
        if not entry["blocking_submit"]:
            if entry["shed_requests"] == 0:
                violations.append(
                    f"{name}: offered load above capacity shed nothing -- "
                    f"backpressure is not engaging"
                )
            if entry["completed_requests"] == 0:
                violations.append(
                    f"{name}: goodput collapsed to zero under overload"
                )
    if baseline is None:
        return violations
    if _jsonify(doc.get("config")) != _jsonify(baseline.get("config")):
        return violations + [
            "baseline incompatible with this run (config differs); regenerate "
            "it with --update-baseline"
        ]
    base_by_name = {e["name"]: e for e in baseline.get("scenarios", [])}
    for entry in doc["scenarios"]:
        base = base_by_name.get(entry["name"])
        if base is None:
            continue
        name = entry["name"]
        if entry["schedule_digest"] != base["schedule_digest"]:
            violations.append(
                f"{name}: schedule digest {entry['schedule_digest'][:12]}... differs "
                f"from baseline {base['schedule_digest'][:12]}... (same seed must "
                f"yield an identical schedule)"
            )
        if not entry["blocking_submit"]:
            drift = abs(entry["shed_rate"] - base["shed_rate"])
            if drift > shed_tolerance:
                violations.append(
                    f"{name}: shed rate {entry['shed_rate']:.2f} drifted "
                    f"{drift:.2f} from baseline {base['shed_rate']:.2f} "
                    f"(tolerance {shed_tolerance:.2f})"
                )
        if p95_factor > 0:
            cur_p95 = entry["latency_ms"]["p95_ms"]
            base_p95 = base["latency_ms"]["p95_ms"]
            if base_p95 > 0 and cur_p95 > base_p95 * p95_factor:
                violations.append(
                    f"{name}: p95 {cur_p95:.2f}ms > {p95_factor:.1f}x baseline "
                    f"{base_p95:.2f}ms"
                )
    return violations


def format_load_bench(doc: dict) -> str:
    """Human-readable table for one load-bench document."""
    cfg = doc["config"]
    tenants = ", ".join(f"{n}={f}/{a}" for n, f, a in cfg["tenants"])
    lines = [
        f"Load benchmark -- mode={cfg['mode']} seed={cfg['seed']} "
        f"horizon={cfg['horizon_s']}s tenants[{tenants}] "
        f"hw={cfg['hw']} width={cfg['width']} m={cfg['m']} "
        f"max_batch={cfg['max_batch']} max_delay={cfg['max_delay_ms']}ms",
        f"{'scenario':>13s} {'req':>5s} {'offered':>8s} {'goodput':>8s} "
        f"{'shed%':>6s} {'batch~':>6s} {'p50':>8s} {'p95':>8s} {'p99':>8s} "
        f"{'exact':>6s}",
    ]
    for e in doc["scenarios"]:
        lat = e["latency_ms"]
        exact = "yes" if e["exact"] else "NO"
        lines.append(
            f"{e['name']:>13s} {e['offered_requests']:5d} "
            f"{e['offered_rps']:6.1f}/s {e['goodput_ips']:6.1f}/s "
            f"{e['shed_rate'] * 100:5.1f}% {e['mean_batch_images']:6.1f} "
            f"{lat['p50_ms']:6.2f}ms {lat['p95_ms']:6.2f}ms {lat['p99_ms']:6.2f}ms "
            f"{exact:>6s}"
        )
    s = doc["summary"]
    lines.append(
        f"bit-identity vs serial eager: {'yes' if s['exact'] else 'NO'}; "
        f"same-seed replay outputs identical: "
        f"{'yes' if s['deterministic_outputs'] else 'NO'}"
    )
    lines.append(f"schedule digest: {s['schedule_digest'][:16]}...")
    return "\n".join(lines)
