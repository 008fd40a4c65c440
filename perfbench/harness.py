"""Measurement helpers shared by every workload.

Statistics, the span recorder, the host-speed probe, environment
capture, output checks, and the per-layer bookkeeping of traced runs.
The program is reached only through objects the workloads pass in.
``run.py`` pins the BLAS/OpenMP pools before this module (and NumPy)
is imported.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import platform
import resource
import sys
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

#: A tail percentile must leave at least this many samples beyond it.
TAIL_BEYOND = 10


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def p50(values: Sequence[float]) -> float:
    """Median (0.0 for an empty sample)."""
    return float(np.median(values)) if len(values) else 0.0


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """``(value, percentile, n)`` for the highest percentile that keeps
    at least :data:`TAIL_BEYOND` samples beyond it.

    Nearest rank: the percentile ``q = 100 * (n - 10) / n`` selects
    sorted index ``ceil(q / 100 * n) - 1 = n - 11``, the eleventh
    largest sample, with exactly ten samples above it.  The percentile
    moves smoothly with ``n`` instead of jumping between fixed ladder
    rungs (p90 -> p95) when the sample count crosses a threshold.  With
    ``n <= 10`` no percentile qualifies; the maximum is returned with
    ``percentile = 100``.
    """
    n = len(values)
    if n == 0:
        return 0.0, 0.0, 0
    ordered = np.sort(np.asarray(values, dtype=np.float64))
    if n <= TAIL_BEYOND:
        return float(ordered[-1]), 100.0, n
    return float(ordered[n - TAIL_BEYOND - 1]), 100.0 * (n - TAIL_BEYOND) / n, n


def bitwise_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Same shape, dtype and bytes (NaN payloads included)."""
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def top1_agreement(pairs: Iterable[Tuple[np.ndarray, np.ndarray]]) -> Tuple[float, int]:
    """Share of rows whose arg-max agrees, over ``(int8, fp32)`` logit pairs."""
    agree = total = 0
    for q, f in pairs:
        agree += int(np.sum(np.argmax(q, axis=1) == np.argmax(f, axis=1)))
        total += q.shape[0]
    return (agree / total if total else 0.0), total


def snr_db(pairs: Iterable[Tuple[np.ndarray, np.ndarray]]) -> float:
    """``10 log10(sum f^2 / sum (q - f)^2)`` over ``(int8, fp32)`` pairs."""
    signal = noise = 0.0
    for q, f in pairs:
        signal += float(np.sum(f * f))
        noise += float(np.sum((q - f) ** 2))
    if noise == 0.0:
        return float("inf")
    return 10.0 * np.log10(signal / noise)


def digest_arrays(arrays: Iterable[np.ndarray]) -> str:
    """SHA-256 over the shapes and bytes of generated inputs."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(str(a.shape).encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# process and host
# ---------------------------------------------------------------------------


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


_PROBE_A = None


def host_probe() -> float:
    """Median microseconds of a fixed 256x256 float64 matmul (20 calls).

    A diagnostic only: it tells host drift apart from program change
    when two sets of runs disagree, and is never a gated metric.
    """
    global _PROBE_A
    if _PROBE_A is None:
        _PROBE_A = np.random.default_rng(0).standard_normal((256, 256))
    a = _PROBE_A
    times = []
    for _ in range(20):
        t0 = time.perf_counter()
        a @ a
        times.append(time.perf_counter() - t0)
    return float(np.median(times) * 1e6)


def environment() -> Dict[str, object]:
    """What a later reader needs to compare two runs' hosts."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except Exception as exc:  # older NumPy: record why it is missing
        blas = {"error": repr(exc)}
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_THREADS")},
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------


class Spans:
    """In-memory span log, written out once when the run ends.

    A span is ``{id, name, parent, request, start, end, attrs}`` with
    ``perf_counter`` seconds.  All spans of one served request carry
    the same ``request`` id.  ``attrs["laps"]`` holds StageTracer laps
    measured inside a span: they are children without a placement in
    time, so :meth:`self_times` subtracts their sum.
    """

    def __init__(self) -> None:
        self.items: List[dict] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    def add(
        self,
        name: str,
        start: float,
        end: float,
        parent: Optional[int] = None,
        request: Optional[int] = None,
        span_id: Optional[int] = None,
        **attrs,
    ) -> int:
        if span_id is None:
            span_id = next(self._ids)
        with self._lock:
            self.items.append(
                {
                    "id": span_id,
                    "name": name,
                    "parent": parent,
                    "request": request,
                    "start": start,
                    "end": end,
                    "attrs": attrs,
                }
            )
        return span_id

    @contextmanager
    def span(self, name: str, parent: Optional[int] = None, **attrs) -> Iterator[dict]:
        """Record the ``with`` block; yields a dict whose ``id`` is the
        span's id (reserved up front so children can name it)."""
        handle = {"id": next(self._ids)}
        start = time.perf_counter()
        try:
            yield handle
        finally:
            self.add(name, start, time.perf_counter(), parent, span_id=handle["id"], **attrs)

    def total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.items if s["name"] == name)

    def self_times(self) -> Dict[str, float]:
        """Per span name: duration minus the time its children cover."""
        children: Dict[int, List[Tuple[float, float]]] = {}
        for s in self.items:
            if s["parent"] is not None:
                children.setdefault(s["parent"], []).append((s["start"], s["end"]))
        out: Dict[str, float] = {}
        for s in self.items:
            covered = _union_length(children.get(s["id"], ()), s["start"], s["end"])
            covered += sum(s["attrs"].get("laps", {}).values())
            own = (s["end"] - s["start"]) - covered
            out[s["name"]] = out.get(s["name"], 0.0) + own
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for s in self.items:
                fh.write(json.dumps(s) + "\n")


def _union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


@contextmanager
def timed_calls(owner: type, name: str, sink: List[Tuple[float, float]]) -> Iterator[None]:
    """Wrap ``owner.name`` for the block, appending ``(start, end)`` per
    call to ``sink`` -- timing a public function from outside the
    program without editing it."""
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            sink.append((start, time.perf_counter()))

    setattr(owner, name, wrapper)
    try:
        yield
    finally:
        setattr(owner, name, original)


# ---------------------------------------------------------------------------
# traced runs
# ---------------------------------------------------------------------------

#: Containment checks compare readings of one monotonic clock; this only
#: absorbs float rounding.
EPS = 1e-6


def delta(after: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
    """Per-key increase from ``before`` to ``after`` (keys that grew)."""
    return {k: v - before.get(k, 0.0) for k, v in after.items() if v > before.get(k, 0.0)}


class RunRecord(NamedTuple):
    """One timed ``run`` call (``perf_counter`` seconds).

    ``pre``..``start`` and ``end``..``post`` are the proxy's own
    bookkeeping (tracer and step-timing snapshots), kept apart so that
    no per-layer figure counts the benchmark's code as the program's.
    """

    pre: float
    start: float
    end: float
    post: float
    images: int
    laps: Dict[str, float]
    steps: float


class TimingSession:
    """Stands in for an ``InferenceSession`` (e.g. the one passed to
    ``Server.add_model``): times every ``run`` together with the
    StageTracer laps and the session's own step timings inside it, and
    forwards everything else."""

    def __init__(self, session) -> None:
        self._session = session
        self.log: List[RunRecord] = []

    def run(self, images):
        session = self._session
        pre = time.perf_counter()
        laps0 = session.tracer.stage_totals()
        steps0 = sum(session.layer_timings().values())
        start = time.perf_counter()
        try:
            return session.run(images)
        finally:
            end = time.perf_counter()
            laps = delta(session.tracer.stage_totals(), laps0)
            steps = sum(session.layer_timings().values()) - steps0
            self.log.append(
                RunRecord(pre, start, end, time.perf_counter(), int(images.shape[0]), laps, steps)
            )

    def __getattr__(self, name):
        return getattr(self._session, name)


def traced_quantize(spans: "Spans", parent: int, quantize, lowino_cls) -> None:
    """Run ``quantize()`` under an ``nn.quantize`` span, with a
    ``quant.kl_search`` child per ``lowino_cls.apply_calibration`` call."""
    kl_calls: List[Tuple[float, float]] = []
    with spans.span("nn.quantize", parent=parent) as q:
        with timed_calls(lowino_cls, "apply_calibration", kl_calls):
            quantize()
    for start, end in kl_calls:
        spans.add("quant.kl_search", start, end, parent=q["id"])


def setup_metrics(res: "Result", spans: "Spans") -> None:
    kl = spans.total("quant.kl_search")
    res.metric("quant.kl_search_s", kl, "s")
    res.metric("nn.quantize.observe_s", spans.total("nn.quantize") - kl, "s")
    res.metric("runtime.session.warm_s", spans.total("runtime.session.warm"), "s")


def session_metrics(res: "Result", spans: "Spans", algorithm: str, log: List[RunRecord]) -> List[int]:
    """``runtime.session.<algorithm>.*`` and ``runtime.backends.<algorithm>.*``
    from a :class:`TimingSession` log, per batch.  Records one
    ``runtime.session.run`` span per call (ids returned, in log order)
    and checks that laps sit inside step timings inside ``run``."""
    from repro.obs.tracer import STAGES

    runs = [row.end - row.start for row in log]
    stages: Dict[str, float] = {}
    contained = True
    ids = []
    for row in log:
        ids.append(spans.add("runtime.session.run", row.start, row.end, algorithm=algorithm,
                             images=row.images, laps=row.laps))
        for stage, secs in row.laps.items():
            stages[stage] = stages.get(stage, 0.0) + secs
        contained &= (sum(row.laps.values()) <= row.steps + EPS
                      and row.steps <= row.end - row.start + EPS)
    n = max(1, len(log))
    value, q, _ = tail(runs)
    res.metric(f"runtime.session.{algorithm}.run_p50_ms", p50(runs) * 1e3, "ms")
    res.metric(f"runtime.session.{algorithm}.run_tail_ms", value * 1e3, "ms")
    res.details[f"runtime.session.{algorithm}.run_tail_percentile"] = q
    res.details[f"bench.overhead.{algorithm}_ms_per_run"] = (
        sum(row.post - row.pre for row in log) - sum(runs)) / n * 1e3
    dispatch = (sum(runs) - sum(stages.values())) / n
    res.metric(f"runtime.session.{algorithm}.dispatch_ms", dispatch * 1e3, "ms")
    for stage in STAGES:
        res.metric(f"runtime.backends.{algorithm}.{stage}_ms", stages.get(stage, 0.0) / n * 1e3, "ms")
    res.checks["laps_within_steps_within_run"] = (
        res.checks.get("laps_within_steps_within_run", True) and contained
    )
    return ids


def cache_metrics(res: "Result", sessions_before: List[tuple]) -> None:
    """``runtime.cache.*`` deltas over the measured window and the
    resident plan/scratch footprint, summed over ``(session, stats
    before the window)`` pairs."""
    hits = misses = evictions = 0
    cache_mb = scratch_mb = 0.0
    for session, before in sessions_before:
        now = session.cache_stats()
        hits += now["hits"] - before["hits"]
        misses += now["misses"] - before["misses"]
        evictions += now["evictions"] - before["evictions"]
        cache_mb += now["bytes"] / 1e6
        scratch_mb += session.scratch_stats()["nbytes"] / 1e6
    res.metric("runtime.cache.misses", misses, "count")
    res.metric("runtime.cache.evictions", evictions, "count")
    res.metric("runtime.cache.hit_ratio", hits / max(1, hits + misses), "ratio")
    res.metric("runtime.cache.mb", cache_mb, "MB")
    res.metric("runtime.plan.scratch_mb", scratch_mb, "MB")


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------


class Result:
    """Metrics (name -> value, unit) plus details for the run record."""

    def __init__(self) -> None:
        self.metrics: Dict[str, Dict[str, object]] = {}
        self.details: Dict[str, object] = {}
        self.attempted = 0
        self.failed = 0
        self.checks: Dict[str, bool] = {}

    def metric(self, name: str, value: float, unit: str) -> None:
        if name in self.metrics:
            raise ValueError(f"metric {name!r} reported twice")
        self.metrics[name] = {"value": float(value), "unit": unit}

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0 and all(self.checks.values())

    def line(self) -> str:
        return json.dumps(
            {
                "correct": self.correct,
                "attempted": int(self.attempted),
                "failed": int(self.failed),
                "metrics": self.metrics,
            }
        )
