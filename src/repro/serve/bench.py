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

The worker-process sweep (``--procs``, :func:`run_proc_bench`) writes
the same document shape -- ``sweep`` names the swept config field and
each result's ``n`` is one of its values -- and :func:`check_serve_gate`
gates both.  Like ``repro bench``, absolute wall-clock is reported but
never gated; the throughput ratio and the bit-identity flag are
host-independent.
"""

from __future__ import annotations

import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..runtime.bench import (
    SCHEMA_VERSION,
    ModelCase,
    below_floor,
    envelope,
    incompatible,
    load_json,
    prepare_case_model,
    write_json,
)
from ..runtime.session import InferenceSession
from .server import Server

__all__ = [
    "ProcBenchConfig",
    "ServeBenchConfig",
    "SCHEMA_VERSION",
    "run_serve_bench",
    "run_proc_bench",
    "check_serve_gate",
    "format_serve_bench",
    "load_json",
    "write_json",
]

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


def _build_model(cfg):
    """Build + quantize the benchmark model on a seeded calibration
    batch (both sweeps; the proc workers compile their own sessions
    from a pickle of it)."""
    rng = np.random.default_rng(cfg.seed)
    calib = rng.standard_normal((max(2, cfg.request_batch), 3, cfg.hw, cfg.hw))
    case = ModelCase(cfg.model, cfg.algorithm, hw=cfg.hw, width=cfg.width, m=cfg.m)
    return prepare_case_model(case, calib)


def _client_inputs(cfg, clients: int) -> List[List[np.ndarray]]:
    """Deterministic per-(client, request) activation tensors."""
    rng = np.random.default_rng(cfg.seed + 1)
    return [
        [
            rng.standard_normal((cfg.request_batch, 3, cfg.hw, cfg.hw))
            for _ in range(cfg.requests_per_thread)
        ]
        for _ in range(clients)
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


def _sweep_point(
    server: Server, n: int, inputs: List[List[np.ndarray]],
    expected: List[List[np.ndarray]],
) -> dict:
    """Warm ``server``, drive it with every client, describe the run."""
    # Warm the per-request geometry (coalesced sizes build their own
    # cheap tile grids on first contact during the measurement).
    server.infer("bench", inputs[0][0], timeout=60.0)
    wall, outputs = _measure(server, "bench", inputs)
    stats = server.stats()["bench"]
    pairs = [
        (got, want)
        for got_reqs, want_reqs in zip(outputs, expected)
        for got, want in zip(got_reqs, want_reqs)
    ]
    images = sum(x.shape[0] for reqs in inputs for x in reqs)
    return {
        "n": n,
        "requests": len(pairs),
        "images": images,
        "wall_s": wall,
        "throughput_ips": images / wall,
        "exact": all(np.array_equal(got, want) for got, want in pairs),
        "mean_batch_images": stats["mean_batch_images"],
        "max_batch_images": stats["max_batch_images"],
        "batches": stats["batches"],
        "rejected": stats["rejected"],
        "latency": stats["latency"],
    }


def _document(cfg, sweep: str, entries: List[dict]) -> dict:
    """The one serve-bench document shape, for either sweep.

    ``sweep`` names the config field swept (``"threads"`` or
    ``"procs"``) and each entry's ``n`` is one of its values; the
    summary's ``speedup`` is the throughput at the largest ``n`` over
    the throughput at ``n = 1``.
    """
    by_n = {e["n"]: e for e in entries}
    top = max(by_n)
    summary: Dict[str, object] = {
        "exact": all(e["exact"] for e in entries),
        "selection_converged": all(
            e.get("selection_converged", True) for e in entries
        ),
    }
    if 1 in by_n and top > 1:
        summary["speedup"] = by_n[top]["throughput_ips"] / by_n[1]["throughput_ips"]
        summary["speedup_at"] = top
    return {**envelope(asdict(cfg)), "sweep": sweep, "results": entries,
            "summary": summary}


def run_serve_bench(cfg: ServeBenchConfig = ServeBenchConfig()) -> dict:
    """Run the client-thread sweep and return the serve-bench document."""
    model = _build_model(cfg)
    session = InferenceSession(
        model, (cfg.request_batch, 3, cfg.hw, cfg.hw), collect_timings=False,
        wisdom=cfg.wisdom,
    )
    inputs = _client_inputs(cfg, max(cfg.threads))
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
        try:
            entries.append(
                _sweep_point(server, threads, inputs[:threads], expected)
            )
        finally:
            server.close()
    return _document(cfg, "threads", entries)


#: Config fields a baseline must share for its speedup to be comparable:
#: the model, the request geometry and the sweep.  Each sweep's config
#: lacks the other sweep's fields, so a thread document never gates
#: against a proc baseline.
_COMPAT_KEYS = (
    "model", "algorithm", "width", "hw", "m", "request_batch",
    "requests_per_thread", "threads", "client_threads", "procs", "wisdom",
)


def check_serve_gate(
    doc: dict,
    baseline: Optional[dict] = None,
    min_speedup: float = 0.0,
    speedup_tolerance: float = 0.5,
) -> List[str]:
    """Gates for either sweep's document; empty list means PASS.

    Hard, host-independent gates: every sweep point serves outputs
    bit-identical to serial eager execution, and (proc sweep with
    wisdom) all workers converge to identical algorithm selections.

    Host-dependent gates are opt-in: ``min_speedup > 0`` requires the
    throughput at the largest sweep point to be at least that multiple
    of the throughput at 1, and a ``baseline`` document adds a *ratio*
    gate -- the speedup may not collapse below ``speedup_tolerance``
    times the baseline's speedup (ratios drift far less across hosts
    than absolute image rates).
    """
    sweep = doc["sweep"]
    violations: List[str] = []
    for entry in doc["results"]:
        if not entry["exact"]:
            violations.append(
                f"{sweep}={entry['n']}: served outputs are not "
                f"bit-identical to serial eager execution"
            )
        if not entry.get("selection_converged", True):
            violations.append(
                f"{sweep}={entry['n']}: workers disagree on algorithm "
                f"selections despite sharing one wisdom file"
            )
    speedup = doc["summary"].get("speedup")
    if speedup is not None and speedup < min_speedup:
        violations.append(
            f"throughput at {sweep}={doc['summary']['speedup_at']} is "
            f"{speedup:.2f}x the throughput at {sweep}=1 "
            f"(gate: >= {min_speedup:.2f}x)"
        )
    if baseline is None:
        return violations
    refused = incompatible(doc, baseline, _COMPAT_KEYS)
    if refused:
        return violations + refused
    return violations + below_floor(
        f"{sweep} speedup", speedup, baseline["summary"].get("speedup"),
        speedup_tolerance,
    )


def format_serve_bench(doc: dict) -> str:
    """Human-readable table for either sweep's document."""
    cfg, sweep, summary = doc["config"], doc["sweep"], doc["summary"]
    procs = sweep == "procs"
    setup = (
        f"clients={cfg['client_threads']} wisdom={'on' if cfg['wisdom'] else 'off'}"
        if procs
        else f"workers={cfg['workers']}"
    )
    label = "procs" if procs else "clients"
    lines = [
        f"{'Multi-process serving' if procs else 'Serving'} benchmark -- "
        f"model={cfg['model']}/{cfg['algorithm']} hw={cfg['hw']} "
        f"width={cfg['width']} request_batch={cfg['request_batch']} "
        f"requests/client={cfg['requests_per_thread']} "
        f"max_batch={cfg['max_batch']} max_delay={cfg['max_delay_ms']}ms {setup}",
        f"{label:>7s} {'images':>6s} {'wall':>9s} {'imgs/s':>8s} "
        f"{'batch~':>6s} {'p50':>8s} {'p95':>8s} {'exact':>6s}",
    ]
    for e in doc["results"]:
        lat = e["latency"]
        lines.append(
            f"{e['n']:7d} {e['images']:6d} {e['wall_s'] * 1e3:7.1f}ms "
            f"{e['throughput_ips']:8.1f} {e['mean_batch_images']:6.1f} "
            f"{lat['p50_ms']:6.1f}ms {lat['p95_ms']:6.1f}ms "
            f"{'yes' if e['exact'] else 'NO':>6s}"
        )
    if "speedup" in summary:
        lines.append(
            f"throughput speedup at {summary['speedup_at']} {label} vs 1: "
            f"{summary['speedup']:.2f}x"
        )
    lines.append(f"bit-identity vs serial eager: {'yes' if summary['exact'] else 'NO'}")
    if procs and cfg["wisdom"]:
        lines.append(
            "cross-process selection convergence: "
            f"{'yes' if summary['selection_converged'] else 'NO'}"
        )
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


def run_proc_bench(cfg: ProcBenchConfig = ProcBenchConfig()) -> dict:
    """Run the worker-count sweep and return the serve-bench document.

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

    model = _build_model(cfg)
    input_shape = (cfg.request_batch, 3, cfg.hw, cfg.hw)
    inputs = _client_inputs(cfg, cfg.client_threads)

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
                entry = _sweep_point(server, procs, inputs, expected)
                pool = server.pool_stats()
                selections = server.selection("bench") if cfg.wisdom else {}
            finally:
                server.close()
            distinct = {tuple(sorted(sel.items())) for sel in selections.values()}
            entry.update(
                restarts=pool["restarts"],
                selection_workers=len(selections),
                selection_converged=len(distinct) <= 1,
                selection=(
                    dict(sorted(next(iter(selections.values())).items()))
                    if selections
                    else {}
                ),
            )
            entries.append(entry)
    return _document(cfg, "procs", entries)
