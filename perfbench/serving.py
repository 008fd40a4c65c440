"""``serve-saturated``: one ``Server`` with its defaults (1 worker,
``max_batch`` 16, ``max_delay_ms`` 2) in front of ResNet-small (width
16, 3x16x16) quantized with ``"auto"`` -- the planner picks
``int8_direct`` for every conv at this size, so no Winograd or KL code
runs.

One closed-loop load-generator thread keeps :data:`WINDOW` requests
outstanding, enough that every batch coalesces to about ``max_batch``
images; it plus the server's worker never need more than two cores.
Latency runs from submit to result.

Request sizes are Zipf over 1..4 images.  Payloads come from a seeded
pool of distinct tensors whose serial eager outputs (INT8 and an FP32
eager copy) are computed outside the timed window; every served
request is checked bitwise against the INT8 one.
"""

from __future__ import annotations

import gc
import time
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np
from repro.core import LoWinoConv2d
from repro.nn.models import build_resnet_small
from repro.nn.quantize import quantize_model
from repro.obs.tracer import StageTracer
from repro.runtime.session import InferenceSession
from repro.serve.batching import ServerOverloaded
from repro.serve.server import Server
from repro.serve.workload import ModelWorkload, UniformArrivals, build_trace

from harness import (
    EPS,
    Result,
    Spans,
    TimingSession,
    bitwise_equal,
    cache_metrics,
    digest_arrays,
    host_probe,
    p50,
    peak_rss_mb,
    session_metrics,
    setup_metrics,
    snr_db,
    tail,
    top1_agreement,
    traced_quantize,
)

MODEL = "resnet"
WIDTH, HW = 16, 16
#: ``Server()``'s default ``max_batch``: warm-up covers every batch size.
MAX_BATCH = 16
#: Label for the per-layer session/backend metrics; the planner's
#: actual per-conv choices are recorded in every run.
ALGORITHM = "int8_direct"
CALIB_BATCHES, CALIB_BATCH = 2, 8
MAX_IMAGES, ZIPF_ALPHA = 4, 1.5
#: Requests kept outstanding (below the queue's 64).
WINDOW = 32
RESULT_TIMEOUT_S = 30.0
#: Distinct payloads per request size.
POOL_PER_SIZE = 32
#: Set-up rounds per untraced run, each followed by an FP32 pass and a
#: serving slice; ``setup_s`` is their mean.  Many short rounds sample
#: the drifting host at many moments: with 5, the FP32 pass alone (five
#: 0.6 s samples per run) spread 22% over 10 seeds.
SETUPS = 10
#: Traced runs alternate untraced/traced slices of about this length.
TRACE_SLICE_S = 2.5
#: Latency limit behind ``slo_attain_frac``, at the observed latency
#: tail (median 197-200 ms in two 10-seed sets on a 2-vCPU VM), so
#: added latency shows as misses.
SLO_MS = 200.0


@dataclass(frozen=True)
class BalancedZipf:
    """Zipf sizes over ``1..max_images`` (mass ``1/k**alpha``) in their
    exact expected proportions, shuffled, so the offered image count does
    not vary with the seed."""

    alpha: float
    max_images: int

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        k = np.arange(1, self.max_images + 1)
        mass = k ** -self.alpha
        cum = np.rint(np.cumsum(mass) / mass.sum() * n).astype(np.int64)
        sizes = np.repeat(k, np.diff(cum, prepend=0))
        return rng.permutation(sizes)


class Req:
    """One request as the load generator saw it (perf_counter seconds)."""

    __slots__ = ("seq", "key", "n", "send", "sent", "seen", "out", "error", "future")

    def __init__(self, seq: int, key: Tuple[int, int]) -> None:
        self.seq = seq
        self.key = key
        self.n = key[0]
        self.send = self.sent = self.seen = None
        self.out = self.error = self.future = None

    @property
    def latency(self) -> float:
        return self.seen - self.send


def make_inputs(seed: int, seconds: float):
    """Calibration set, payload pool and request trace from ``seed``.

    The closed loop takes sizes and payloads from the trace in order and
    ignores its arrival times.
    """
    calib_ss, pool_ss = np.random.SeedSequence([seed, 0x5E7E]).spawn(2)
    calib_rng = np.random.default_rng(calib_ss)
    pool_rng = np.random.default_rng(pool_ss)
    calib = [
        calib_rng.standard_normal((CALIB_BATCH, 3, HW, HW))
        for _ in range(CALIB_BATCHES)
    ]
    pool = {
        (n, j): pool_rng.standard_normal((n, 3, HW, HW))
        for n in range(1, MAX_IMAGES + 1)
        for j in range(POOL_PER_SIZE)
    }
    sizes = BalancedZipf(alpha=ZIPF_ALPHA, max_images=MAX_IMAGES)
    trace = build_trace([ModelWorkload(MODEL, UniformArrivals(1000.0), sizes)], seconds, seed)
    return calib, pool, trace


def build(calib, spans: Spans = None, parent=None):
    """Model build -> ``"auto"`` quantization -> session -> warm-up."""
    model = build_resnet_small(width=WIDTH)
    quantize = lambda: quantize_model(model, "auto", calibration_batches=calib)  # noqa: E731
    if spans is None:
        quantize()
    else:
        traced_quantize(spans, parent, quantize, LoWinoConv2d)
    start = time.perf_counter()
    # Built as Server.add_model builds one from a model (LFU plan cache).
    tracer = StageTracer(enabled=False) if spans is not None else None
    session = InferenceSession(model, (1, 3, HW, HW), tracer=tracer,
                               cache_eviction="lfu")
    # Every batch size once, the largest (most frequent) last, so the
    # plans the loop needs first are resident when timing starts.
    for b in range(1, MAX_BATCH + 1):
        session.run(np.zeros((b, 3, HW, HW)))
    if spans is not None:
        spans.add("runtime.session.warm", start, time.perf_counter(), parent=parent,
                  algorithm=ALGORITHM)
    return model, session


def _collect(pending: deque) -> None:
    """Wait for the oldest pending request and record its outcome."""
    req = pending.popleft()
    try:
        req.out = req.future.result(timeout=RESULT_TIMEOUT_S)
    except Exception as exc:
        if not req.future.done():
            req.error = "timeout"
            return
        req.error = repr(exc)  # the request failed inside the server
    req.seen = time.perf_counter()


def _submit(server, req: Req, pool) -> bool:
    req.send = time.perf_counter()
    try:
        req.future = server.submit(MODEL, pool[req.key])
    except ServerOverloaded:
        req.error = "shed"
        return False
    finally:
        req.sent = time.perf_counter()
    return True


def serve_phase(session, events, pool, seconds: float, start_index: int):
    """One fresh ``Server()`` around ``session`` for one stretch of load.

    Requests are taken from ``events`` cyclically starting at
    ``start_index`` until ``seconds`` have passed.  Returns
    ``(requests, wall seconds, server latency stats)``.
    """
    server = Server()
    server.add_model(MODEL, session=session)
    reqs: List[Req] = []
    pending: deque = deque()
    try:
        t0 = time.perf_counter()
        deadline = t0 + seconds
        k = start_index
        while True:
            while len(pending) < WINDOW and time.perf_counter() < deadline:
                ev = events[k % len(events)]
                req = Req(k, (ev.n_images, ev.payload_seed % POOL_PER_SIZE))
                k += 1
                reqs.append(req)
                if _submit(server, req, pool):
                    pending.append(req)
            if not pending:
                break
            _collect(pending)
            # See every result that is already there (batch-mates finish
            # together) before submitting more.
            while pending and pending[0].future.done():
                _collect(pending)
        seen = [r.seen for r in reqs if r.seen is not None]
        wall = (max(seen) if seen else time.perf_counter()) - t0
    finally:
        server.close()
    return reqs, wall, server.stats()[MODEL]["latency"]


def run(seed: int, seconds: float, trace: bool) -> Result:
    """Untraced: :data:`SETUPS` rounds of (set up, one timed FP32
    reference pass over the pool, serve a slice of ``seconds /
    SETUPS``), so one run samples host speed across all of its wall
    time.  Traced: one set-up, then untraced and traced slices in turn
    (about :data:`TRACE_SLICE_S` each), so the tracing overhead is
    measured under the same host drift."""
    res = Result()
    calib, pool, sched = make_inputs(seed, seconds)
    res.details["inputs_digest"] = digest_arrays(calib + list(pool.values()))
    res.details["trace_digest"] = sched.digest()
    probes = [host_probe()]
    spans = Spans() if trace else None
    slices = max(2, 2 * round(seconds / (2 * TRACE_SLICE_S))) if trace else SETUPS
    length = seconds / slices

    fp32_model = build_resnet_small(width=WIDTH)
    ref_int8: Dict[Tuple[int, int], np.ndarray] = {}
    ref_fp32: Dict[Tuple[int, int], np.ndarray] = {}
    setup_times: List[float] = []
    phases = []
    fp32_images = fp32_seconds = 0.0
    misses = sent = 0
    for i in range(slices):
        if i == 0 or not trace:
            model = session = None  # free the last round
            gc.collect()
            start = time.perf_counter()
            if trace:
                with spans.span("setup") as root:
                    model, session = build(calib, spans, root["id"])
            else:
                model, session = build(calib)
            setup_times.append(time.perf_counter() - start)
        if not ref_int8:
            # Serial eager INT8 outputs for the bitwise check, outside the
            # timed window.  Every set-up builds the same model.
            ref_int8 = {k: model(x) for k, x in pool.items()}
            cache0 = session.cache_stats()
        # One FP32 eager pass over the pool: quality reference and, summed
        # over the rounds, fp32_throughput_ips.
        start = time.perf_counter()
        for k, x in pool.items():
            ref_fp32[k] = fp32_model(x)
            fp32_images += x.shape[0]
        fp32_seconds += time.perf_counter() - start
        probes.append(host_probe())

        before = session.cache_stats()["misses"]
        if trace and i % 2:
            proxy = TimingSession(session)
            session.tracer.enable()
            try:
                reqs, wall, lat = serve_phase(proxy, sched.events, pool, length, sent)
            finally:
                session.tracer.disable()
            phases.append(("traced", reqs, wall, lat, proxy.log))
        else:
            reqs, wall, lat = serve_phase(session, sched.events, pool, length, sent)
            phases.append(("plain", reqs, wall, lat, None))
        misses += session.cache_stats()["misses"] - before
        sent += len(reqs)
    probes.append(host_probe())
    res.details["setup_runs_s"] = setup_times
    res.details["algorithms"] = sorted(
        {s.plan.algorithm for s in session.program.steps if s.kind == "conv"}
    )

    every = [r for _, reqs, _, _, _ in phases for r in reqs]
    for r in every:
        if r.error is None and not bitwise_equal(r.out, ref_int8[r.key]):
            r.error = "mismatch"
    good = [r for r in every if r.error is None]
    res.attempted = len(every)
    res.failed = len(every) - len(good)
    errors: Dict[str, int] = {}
    for r in every:
        if r.error is not None:
            errors[r.error] = errors.get(r.error, 0) + 1
    res.details["failures"] = errors

    plain = [(reqs, wall) for kind, reqs, wall, _, _ in phases if kind == "plain"]
    p_reqs = [r for reqs, _ in plain for r in reqs]
    p_good = [r for r in p_reqs if r.error is None]
    lat = [r.latency for r in p_good]
    tail_v, tail_q, n = tail(lat)
    images = sum(r.n for r in p_good)
    wall = sum(w for _, w in plain)
    res.details.update(
        wall_s=wall,
        requests=len(p_reqs),
        latency_samples=n,
        latency_tail_percentile=tail_q,
        latency_ms_p90_p95_p99_max=(np.percentile(lat, [90, 95, 99, 100]) * 1e3).tolist()
        if lat else [],
        cache_misses=misses,
        slo_ms=SLO_MS,
        host_probe_us=probes,
    )
    # The mean moves in proportion to the share of set-ups the two-speed
    # host ran slow; a median jumps between its two speeds.
    res.metric("setup_s", float(np.mean(setup_times)), "s")
    res.metric("throughput_ips", images / wall, "images/s")
    res.metric("fp32_throughput_ips", fp32_images / fp32_seconds, "images/s")
    res.metric("latency_p50_ms", p50(lat) * 1e3, "ms")
    res.metric("latency_tail_ms", tail_v * 1e3, "ms")
    within = sum(1 for r in p_good if r.latency * 1e3 <= SLO_MS)
    res.metric("slo_attain_frac", within / max(1, len(p_reqs)), "ratio")
    res.metric("completed_frac", len(good) / max(1, len(every)), "ratio")
    # Quality over the distinct payload images, each counted once: served
    # outputs equal ref_int8 bitwise (checked above), and weighting by how
    # often a payload was drawn would let a few single images dominate.
    pairs = [(ref_int8[k], ref_fp32[k]) for k in pool]
    agree, compared = top1_agreement(pairs)
    res.details["top1_images"] = compared
    res.metric("top1_agreement", agree, "ratio")
    res.metric("snr_db", snr_db(pairs), "dB")
    res.metric("peak_rss_mb", peak_rss_mb(), "MB")

    if trace:
        _per_layer(res, spans, session, cache0, phases)
        res.details["spans"] = spans
    return res


def match_fifo(request_images: List[int], run_images: List[int]) -> List[int]:
    """Index of the batch that served each request.

    With one worker and a FIFO queue, batches are consecutive runs of
    requests in submit order; a request that would straddle a batch
    boundary, or images left over on either side, mean the attribution
    is wrong and raise ``ValueError``.
    """
    out: List[int] = []
    batch = filled = 0
    for n in request_images:
        if batch >= len(run_images):
            raise ValueError("more requested images than batched images")
        out.append(batch)
        filled += n
        if filled == run_images[batch]:
            batch += 1
            filled = 0
        elif filled > run_images[batch]:
            raise ValueError(f"request straddles the boundary of batch {batch}")
    if filled or batch != len(run_images):
        raise ValueError("batched images left without a request")
    return out


def _request_spans(spans: Spans, r: Req, row, run_id: int) -> None:
    """One request's spans; its children tile the request span exactly.
    ``serve.batch`` is the share of its batch's ``runtime.session.run``;
    ``bench.overhead`` is the timing proxy's bookkeeping on either side
    of that ``run``, so it lands in neither the wait nor the reply."""
    rid = r.seq
    root = spans.add("request", r.send, r.seen, request=rid, images=r.n)
    spans.add("serve.server.submit", r.send, r.sent, parent=root, request=rid)
    spans.add("serve.batching.wait", r.sent, row.pre, parent=root, request=rid)
    spans.add("bench.overhead", row.pre, row.start, parent=root, request=rid)
    spans.add("serve.batch", row.start, row.end, parent=root, request=rid, run=run_id)
    spans.add("bench.overhead", row.end, row.post, parent=root, request=rid)
    spans.add("serve.server.reply", row.post, r.seen, parent=root, request=rid)


def _per_layer(res: Result, spans: Spans, session, cache0, phases) -> None:
    setup_metrics(res, spans)
    traced = [(reqs, wall, lat, log) for kind, reqs, wall, lat, log in phases if kind == "traced"]
    run_ids = session_metrics(res, spans, ALGORITHM, [row for *_, log in traced for row in log])
    cache_metrics(res, [(session, cache0)])

    submit, wait, reply = [], [], []
    causal = matched = True
    server_total = inner_total = outer_total = busy = traced_wall = 0.0
    batched = first_run = 0
    for reqs, wall, lat, log in traced:
        ids, first_run = run_ids[first_run:first_run + len(log)], first_run + len(log)
        traced_wall += wall
        busy += sum(row.end - row.start for row in log)
        batched += sum(row.images for row in log)
        server_total += lat["mean_ms"] * lat["count"] / 1e3
        queued = [r for r in reqs if r.error != "shed"]
        try:
            batch_of = match_fifo([r.n for r in queued], [row.images for row in log])
        except ValueError as exc:
            matched = False
            res.details["fifo_error"] = str(exc)
            continue
        for r, b in zip(queued, batch_of):
            if r.seen is None:
                continue
            row = log[b]
            submit.append(r.sent - r.send)
            wait.append(row.pre - r.sent)
            reply.append(r.seen - row.post)
            _request_spans(spans, r, row, ids[b])
            # The attributed batch must lie inside the request: a wrong
            # FIFO attribution puts some batch before its send or after
            # its result.  (The wait alone may dip below 0: the worker
            # can start a full batch before ``submit`` has returned.)
            causal &= r.send <= row.pre and row.post <= r.seen
            inner_total += row.post - r.sent
            outer_total += r.seen - r.send
    # The server's own latency sum, done - enqueued per request, is a
    # clock reading independent of the spans and must fall between what
    # they say it can be: enqueued lies in [send, sent], done in
    # [post, seen].
    bracket = inner_total - EPS <= server_total <= outer_total + EPS

    n_runs = len(run_ids)
    res.metric("serve.server.submit_us", p50(submit) * 1e6, "us")
    res.metric("serve.server.reply_ms", p50(reply) * 1e3, "ms")
    res.metric("serve.batching.wait_p50_ms", p50(wait) * 1e3, "ms")
    res.metric("serve.batching.wait_tail_ms", tail(wait)[0] * 1e3, "ms")
    res.metric("serve.batching.batch_images", batched / max(1, n_runs), "images")
    res.metric("serve.server.busy_frac", busy / max(traced_wall, EPS), "ratio")
    res.metric("serve.server.failed", res.failed, "count")

    def throughput(kind):
        reqs = [r for k, rs, _, _, _ in phases if k == kind for r in rs if r.error is None]
        return sum(r.n for r in reqs) / sum(w for k, _, w, _, _ in phases if k == kind)

    res.metric("obs.trace_overhead_frac", throughput("plain") / throughput("traced") - 1.0, "ratio")

    checks = {
        "fifo_match": matched,
        "causal_order": causal,
        "server_latency_bracketed": bracket,
    }
    res.checks.update(checks)
    res.details["reconciliation"] = {
        "tolerance_s": EPS,
        "traced_runs": n_runs,
        "server_latency_total_s": server_total,
        "proxy_end_minus_submit_end_total_s": inner_total,
        "seen_minus_send_total_s": outer_total,
        **checks,
    }
