"""Serving throughput benchmark (``repro serve-bench``).

Measures what the serving layer buys: N client threads hammer one
:class:`~repro.serve.server.Server` (one compiled, calibrated session),
and for each thread count the benchmark records wall-clock throughput,
per-request latency, and the coalescing statistics of the micro-batcher.
The headline number is ``throughput(T threads) / throughput(1 thread)``:
with one client every request runs alone (batch = the request), with
many clients the batcher merges them into wide whole-tensor calls the
vectorized runtime turns around far more efficiently.

Correctness is gated *hard*: every served result is compared bitwise
against serial eager execution of the same request
(``model(request_images)``).  This holds because the default model is a
fully calibrated quantized network -- its integer GEMMs are exact under
any batch composition -- and the FP32 classifier head computes row-wise
(each sample's logits never depend on which other samples were
coalesced into the micro-batch).

Like ``repro bench``, absolute wall-clock is reported but never gated;
the throughput ratio and the bit-identity flag are host-independent.
"""

from __future__ import annotations

import platform
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..runtime.bench import ModelCase, build_case_model, load_json, write_json
from ..runtime.session import InferenceSession
from .server import Server

__all__ = [
    "DEFAULT_BENCH_PATH",
    "DEFAULT_PROC_BENCH_PATH",
    "ProcBenchConfig",
    "ServeBenchConfig",
    "run_serve_bench",
    "run_proc_bench",
    "check_serve_gate",
    "check_proc_gate",
    "format_serve_bench",
    "format_proc_bench",
    "load_json",
    "write_json",
]

#: Default persistence target: the closed-loop serve perf trajectory
#: lives next to the runtime baselines in ``benchmarks/``.
DEFAULT_BENCH_PATH = "benchmarks/BENCH_serve_threads.json"

#: Default persistence target for the multi-process sweep.
DEFAULT_PROC_BENCH_PATH = "benchmarks/BENCH_serve_procs.json"

#: JSON document version; bump on breaking schema changes.
SCHEMA_VERSION = 1

SEED = 2021


@dataclass(frozen=True)
class ServeBenchConfig:
    """One serving benchmark configuration.

    ``threads`` is the sweep of concurrent client counts; each client
    synchronously sends ``requests_per_thread`` requests of
    ``request_batch`` images.  The model/algorithm knobs mirror
    :class:`~repro.runtime.bench.ModelCase`.
    """

    model: str = "vgg"
    algorithm: str = "lowino"
    width: int = 16
    hw: int = 16
    m: int = 4
    request_batch: int = 2
    requests_per_thread: int = 8
    threads: Tuple[int, ...] = (1, 2, 8)
    max_batch: int = 16
    max_delay_ms: float = 5.0
    queue_size: int = 256
    workers: int = 1
    seed: int = SEED
    #: Optional wisdom-file path: the served session applies its
    #: per-geometry algorithm choices at lowering time (``repro tune``
    #: writes it; engine swaps keep eager == served bit-identical, so
    #: the identity gate still holds).
    wisdom: Optional[str] = None


def _build_session(cfg: ServeBenchConfig):
    """Build + quantize + compile the benchmark model once (offline)."""
    from ..nn.quantize import quantize_model

    case = ModelCase(cfg.model, cfg.algorithm, hw=cfg.hw, width=cfg.width, m=cfg.m)
    model = build_case_model(case)
    rng = np.random.default_rng(cfg.seed)
    calib = rng.standard_normal((max(2, cfg.request_batch), 3, cfg.hw, cfg.hw))
    if cfg.algorithm != "fp32":
        quantize_model(model, cfg.algorithm, m=cfg.m, calibration_batches=[calib])
    input_shape = (cfg.request_batch, 3, cfg.hw, cfg.hw)
    session = InferenceSession(
        model, input_shape, collect_timings=False, wisdom=cfg.wisdom
    )
    return model, session


def _client_inputs(cfg: ServeBenchConfig, threads: int) -> List[List[np.ndarray]]:
    """Deterministic per-(thread, request) activation tensors."""
    rng = np.random.default_rng(cfg.seed + 1)
    return [
        [
            rng.standard_normal((cfg.request_batch, 3, cfg.hw, cfg.hw))
            for _ in range(cfg.requests_per_thread)
        ]
        for _ in range(threads)
    ]


def _measure(
    server: Server, name: str, inputs: List[List[np.ndarray]]
) -> Tuple[float, List[List[np.ndarray]]]:
    """Fire all clients against the server; returns (wall_s, outputs)."""
    threads = len(inputs)
    outputs: List[List[Optional[np.ndarray]]] = [
        [None] * len(reqs) for reqs in inputs
    ]
    errors: List[BaseException] = []
    barrier = threading.Barrier(threads + 1)

    def client(tid: int) -> None:
        barrier.wait()
        try:
            for i, x in enumerate(inputs[tid]):
                outputs[tid][i] = server.infer(name, x, timeout=60.0)
        except BaseException as exc:  # surfaced to the caller below
            errors.append(exc)

    workers = [
        threading.Thread(target=client, args=(tid,), daemon=True)
        for tid in range(threads)
    ]
    for w in workers:
        w.start()
    barrier.wait()
    t0 = time.perf_counter()
    for w in workers:
        w.join()
    wall = time.perf_counter() - t0
    if errors:
        raise errors[0]
    return wall, outputs  # type: ignore[return-value]


def run_serve_bench(cfg: ServeBenchConfig = ServeBenchConfig()) -> dict:
    """Run the sweep and return the serve-bench JSON document."""
    model, session = _build_session(cfg)
    max_threads = max(cfg.threads)
    inputs = _client_inputs(cfg, max_threads)
    # Serial eager reference, computed once per distinct request.
    expected = [[model(x) for x in reqs] for reqs in inputs]

    entries: List[dict] = []
    for threads in cfg.threads:
        server = Server(
            max_batch=cfg.max_batch,
            max_delay_ms=cfg.max_delay_ms,
            queue_size=cfg.queue_size,
            workers_per_model=cfg.workers,
        )
        server.add_model("bench", session=session)
        # Warm the per-request geometry (coalesced sizes build their own
        # cheap tile grids on first contact during the measurement).
        server.infer("bench", inputs[0][0], timeout=60.0)
        wall, outputs = _measure(server, "bench", inputs[:threads])
        stats = server.stats()["bench"]
        server.close()
        exact = all(
            np.array_equal(outputs[tid][i], expected[tid][i])
            for tid in range(threads)
            for i in range(cfg.requests_per_thread)
        )
        images = threads * cfg.requests_per_thread * cfg.request_batch
        entries.append(
            {
                "threads": threads,
                "requests": threads * cfg.requests_per_thread,
                "images": images,
                "wall_s": wall,
                "throughput_ips": images / wall,
                "exact": exact,
                "mean_batch_images": stats["mean_batch_images"],
                "max_batch_images": stats["max_batch_images"],
                "batches": stats["batches"],
                "rejected": stats["rejected"],
                "latency": stats["latency"],
            }
        )

    by_threads = {e["threads"]: e for e in entries}
    summary: Dict[str, object] = {
        "exact": all(e["exact"] for e in entries),
    }
    if 1 in by_threads and max_threads > 1:
        summary["throughput_speedup"] = (
            by_threads[max_threads]["throughput_ips"]
            / by_threads[1]["throughput_ips"]
        )
        summary["speedup_threads"] = max_threads
    return {
        "schema": SCHEMA_VERSION,
        "config": asdict(cfg),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "results": entries,
        "summary": summary,
    }


def check_serve_gate(doc: dict, min_speedup: float = 1.5) -> List[str]:
    """Hard gates: bit-identity always; throughput ratio when measured.

    Returns human-readable violations; empty means PASS.  The identity
    gate compares served outputs against serial eager execution and is
    host-independent; the throughput gate fires only when the sweep
    includes 1 thread and a multi-thread point.
    """
    violations: List[str] = []
    for entry in doc["results"]:
        if not entry["exact"]:
            violations.append(
                f"{entry['threads']} client thread(s): served outputs are not "
                f"bit-identical to serial eager execution"
            )
    speedup = doc["summary"].get("throughput_speedup")
    if speedup is not None and speedup < min_speedup:
        violations.append(
            f"throughput at {doc['summary']['speedup_threads']} client threads is "
            f"{speedup:.2f}x the 1-thread throughput (gate: >= {min_speedup:.2f}x)"
        )
    return violations


def format_serve_bench(doc: dict) -> str:
    """Human-readable table for one serve-bench document."""
    cfg = doc["config"]
    lines = [
        f"Serving benchmark -- model={cfg['model']}/{cfg['algorithm']} "
        f"hw={cfg['hw']} width={cfg['width']} request_batch={cfg['request_batch']} "
        f"requests/thread={cfg['requests_per_thread']} "
        f"max_batch={cfg['max_batch']} max_delay={cfg['max_delay_ms']}ms "
        f"workers={cfg['workers']}",
        f"{'clients':>7s} {'images':>6s} {'wall':>9s} {'imgs/s':>8s} "
        f"{'batch~':>6s} {'p50':>8s} {'p95':>8s} {'exact':>6s}",
    ]
    for e in doc["results"]:
        lat = e["latency"]
        lines.append(
            f"{e['threads']:7d} {e['images']:6d} {e['wall_s'] * 1e3:7.1f}ms "
            f"{e['throughput_ips']:8.1f} {e['mean_batch_images']:6.1f} "
            f"{lat['p50_ms']:6.1f}ms {lat['p95_ms']:6.1f}ms "
            f"{'yes' if e['exact'] else 'NO':>6s}"
        )
    speedup = doc["summary"].get("throughput_speedup")
    if speedup is not None:
        lines.append(
            f"throughput speedup at {doc['summary']['speedup_threads']} clients "
            f"vs 1: {speedup:.2f}x"
        )
    lines.append(f"bit-identity vs serial eager: {'yes' if doc['summary']['exact'] else 'NO'}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# multi-process sweep (``repro serve-bench --procs``)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProcBenchConfig:
    """One multi-process serving benchmark configuration.

    ``procs`` is the sweep of worker-process counts; a fixed pool of
    ``client_threads`` closed-loop clients hammers each configuration,
    so the headline ratio ``throughput(N procs) / throughput(1 proc)``
    isolates what process sharding buys past the GIL ceiling.

    The default algorithm is ``int8_upcast`` (the spatial-threshold
    family): its calibration carries across algorithm swaps, so
    wisdom-driven selection actually *applies* in the workers and the
    cross-process convergence check is non-vacuous.
    """

    model: str = "vgg"
    algorithm: str = "int8_upcast"
    width: int = 16
    hw: int = 16
    m: int = 4
    request_batch: int = 2
    requests_per_thread: int = 8
    client_threads: int = 8
    procs: Tuple[int, ...] = (1, 2, 4)
    max_batch: int = 16
    max_delay_ms: float = 5.0
    queue_size: int = 256
    #: Tune inside the workers against one shared wisdom file and gate
    #: that every worker converges to identical algorithm selections.
    wisdom: bool = True
    seed: int = SEED


def _build_proc_model(cfg: ProcBenchConfig):
    """Build + quantize the benchmark model (workers compile their own
    sessions from a pickle of this object)."""
    from ..nn.quantize import quantize_model

    case = ModelCase(cfg.model, cfg.algorithm, hw=cfg.hw, width=cfg.width, m=cfg.m)
    model = build_case_model(case)
    rng = np.random.default_rng(cfg.seed)
    calib = rng.standard_normal((max(2, cfg.request_batch), 3, cfg.hw, cfg.hw))
    if cfg.algorithm != "fp32":
        quantize_model(model, cfg.algorithm, m=cfg.m, calibration_batches=[calib])
    return model, (cfg.request_batch, 3, cfg.hw, cfg.hw)


def _proc_inputs(cfg: ProcBenchConfig) -> List[List[np.ndarray]]:
    rng = np.random.default_rng(cfg.seed + 1)
    return [
        [
            rng.standard_normal((cfg.request_batch, 3, cfg.hw, cfg.hw))
            for _ in range(cfg.requests_per_thread)
        ]
        for _ in range(cfg.client_threads)
    ]


def run_proc_bench(cfg: ProcBenchConfig = ProcBenchConfig()) -> dict:
    """Run the worker-count sweep and return the JSON document.

    Bit-identity is gated against serial eager execution *with the same
    wisdom applied*: workers unpickle private model copies and apply the
    shared wisdom file's algorithm choices at compile time, so the
    parent applies the same choices to its reference copy (first deploy
    persists them; every later consult is a wisdom hit).  The integer
    pipeline is exact under any batch composition, so which worker (or
    the reference) executed a request is unobservable in the bytes.
    """
    import tempfile

    from .router import ProcServer

    model, input_shape = _build_proc_model(cfg)
    inputs = _proc_inputs(cfg)

    with tempfile.TemporaryDirectory(prefix="repro-proc-bench-") as tmp:
        wisdom_path = str(Path(tmp) / "wisdom.json") if cfg.wisdom else None
        entries: List[dict] = []
        expected: Optional[List[List[np.ndarray]]] = None
        for procs in cfg.procs:
            server = ProcServer(
                procs=procs,
                max_batch=cfg.max_batch,
                max_delay_ms=cfg.max_delay_ms,
                queue_size=cfg.queue_size,
                wisdom=wisdom_path,
                tune_workers=cfg.wisdom,
            )
            try:
                server.add_model("bench", model, input_shape=input_shape)
                if expected is None:
                    # First deploy persisted the workers' wisdom; apply
                    # the same choices to the parent's reference copy
                    # (a wisdom hit -- no measurement) before computing
                    # the serial eager baseline.
                    if wisdom_path is not None:
                        InferenceSession(
                            model, input_shape, collect_timings=False,
                            wisdom=wisdom_path,
                        )
                    expected = [[model(x) for x in reqs] for reqs in inputs]
                server.infer("bench", inputs[0][0], timeout=60.0)
                wall, outputs = _measure(server, "bench", inputs)
                stats = server.stats()["bench"]
                pool = server.pool_stats()
                selections = (
                    server.selection("bench") if cfg.wisdom else {}
                )
            finally:
                server.close()
            exact = all(
                np.array_equal(outputs[tid][i], expected[tid][i])
                for tid in range(cfg.client_threads)
                for i in range(cfg.requests_per_thread)
            )
            distinct = {
                tuple(sorted(sel.items())) for sel in selections.values()
            }
            images = cfg.client_threads * cfg.requests_per_thread * cfg.request_batch
            entries.append(
                {
                    "procs": procs,
                    "clients": cfg.client_threads,
                    "images": images,
                    "wall_s": wall,
                    "throughput_ips": images / wall,
                    "exact": exact,
                    "restarts": pool["restarts"],
                    "selection_workers": len(selections),
                    "selection_converged": len(distinct) <= 1,
                    "selection": (
                        dict(sorted(next(iter(selections.values())).items()))
                        if selections
                        else {}
                    ),
                    "mean_batch_images": stats["mean_batch_images"],
                    "batches": stats["batches"],
                    "rejected": stats["rejected"],
                    "latency": stats["latency"],
                }
            )

    by_procs = {e["procs"]: e for e in entries}
    max_procs = max(cfg.procs)
    summary: Dict[str, object] = {
        "exact": all(e["exact"] for e in entries),
        "selection_converged": all(e["selection_converged"] for e in entries),
    }
    if 1 in by_procs and max_procs > 1:
        summary["proc_speedup"] = (
            by_procs[max_procs]["throughput_ips"] / by_procs[1]["throughput_ips"]
        )
        summary["speedup_procs"] = max_procs
    return {
        "schema": SCHEMA_VERSION,
        "config": asdict(cfg),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "results": entries,
        "summary": summary,
    }


#: Baseline-comparison keys that must match for a ratio gate to be
#: meaningful (same model, geometry, and sweep).
_PROC_CONFIG_KEYS = (
    "model", "algorithm", "width", "hw", "m", "request_batch",
    "requests_per_thread", "client_threads", "procs", "wisdom",
)


def check_proc_gate(
    doc: dict,
    baseline: Optional[dict] = None,
    min_speedup: float = 0.0,
    speedup_tolerance: float = 0.5,
) -> List[str]:
    """Gates for one proc-bench document; empty list means PASS.

    Hard, host-independent gates: every worker count serves bit-identical
    bytes, and (when wisdom is on) all workers of every configuration
    converge to identical algorithm selections.

    Host-dependent gates are opt-in: ``min_speedup > 0`` requires
    ``throughput(max procs) >= min_speedup * throughput(1 proc)``
    (meaningless on single-core runners, hence off by default), and a
    ``baseline`` document adds a *ratio* gate -- the measured speedup
    may not collapse below ``speedup_tolerance`` times the committed
    baseline's speedup (ratios drift far less across hosts than
    absolute image rates).
    """
    violations: List[str] = []
    for entry in doc["results"]:
        if not entry["exact"]:
            violations.append(
                f"{entry['procs']} worker proc(s): served outputs are not "
                f"bit-identical to serial eager execution"
            )
        if doc["config"].get("wisdom") and not entry["selection_converged"]:
            violations.append(
                f"{entry['procs']} worker proc(s): workers disagree on "
                f"algorithm selections despite sharing one wisdom file"
            )
    speedup = doc["summary"].get("proc_speedup")
    if min_speedup > 0 and speedup is not None and speedup < min_speedup:
        violations.append(
            f"throughput at {doc['summary']['speedup_procs']} procs is "
            f"{speedup:.2f}x the 1-proc throughput (gate: >= {min_speedup:.2f}x)"
        )
    if baseline is not None:
        for key in _PROC_CONFIG_KEYS:
            ours, theirs = doc["config"].get(key), baseline["config"].get(key)
            if isinstance(ours, list) or isinstance(theirs, list):
                ours, theirs = list(ours or ()), list(theirs or ())
            if ours != theirs:
                violations.append(
                    f"config mismatch vs baseline: {key} = {ours!r} "
                    f"(baseline {theirs!r}); ratio gate not comparable"
                )
                return violations
        base_speedup = baseline["summary"].get("proc_speedup")
        if speedup is not None and base_speedup:
            floor = base_speedup * speedup_tolerance
            if speedup < floor:
                violations.append(
                    f"proc speedup regressed: {speedup:.2f}x vs baseline "
                    f"{base_speedup:.2f}x (floor: {floor:.2f}x)"
                )
    return violations


def format_proc_bench(doc: dict) -> str:
    """Human-readable table for one proc-bench document."""
    cfg = doc["config"]
    lines = [
        f"Multi-process serving benchmark -- model={cfg['model']}/"
        f"{cfg['algorithm']} hw={cfg['hw']} width={cfg['width']} "
        f"clients={cfg['client_threads']} request_batch={cfg['request_batch']} "
        f"wisdom={'on' if cfg['wisdom'] else 'off'}",
        f"{'procs':>5s} {'images':>6s} {'wall':>9s} {'imgs/s':>8s} "
        f"{'batch~':>6s} {'p95':>8s} {'exact':>6s} {'conv':>5s}",
    ]
    for e in doc["results"]:
        lines.append(
            f"{e['procs']:5d} {e['images']:6d} {e['wall_s'] * 1e3:7.1f}ms "
            f"{e['throughput_ips']:8.1f} {e['mean_batch_images']:6.1f} "
            f"{e['latency']['p95_ms']:6.1f}ms "
            f"{'yes' if e['exact'] else 'NO':>6s} "
            f"{('yes' if e['selection_converged'] else 'NO') if cfg['wisdom'] else '-':>5s}"
        )
    speedup = doc["summary"].get("proc_speedup")
    if speedup is not None:
        lines.append(
            f"throughput speedup at {doc['summary']['speedup_procs']} procs "
            f"vs 1: {speedup:.2f}x"
        )
    lines.append(
        f"bit-identity vs serial eager: {'yes' if doc['summary']['exact'] else 'NO'}"
    )
    if cfg["wisdom"]:
        lines.append(
            "cross-process selection convergence: "
            f"{'yes' if doc['summary']['selection_converged'] else 'NO'}"
        )
    return "\n".join(lines)
