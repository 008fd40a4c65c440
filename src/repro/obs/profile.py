"""``repro profile``: per-layer x per-stage breakdown + overhead gate.

The paper's Figure 10 argument is a *stage* cost breakdown (input
transform / quantize / GEMM / output transform); this module reproduces
that view for whole models on the vectorized runtime.  A
:class:`~repro.obs.tracer.StageTracer` is attached to an
:class:`~repro.runtime.session.InferenceSession`, a few batches run,
and the accumulated ``(layer, stage)`` wall-clock renders as a table
with percentages.

Two built-in self-checks keep the numbers honest:

* **Agreement** -- the tracer's laps tile each step's body, so the
  summed stage seconds must agree with the session's independent
  per-step timings (:func:`run_profile` reports the gap;
  ``tests/obs/test_profile.py`` gates it at 2%).
* **Overhead** -- :func:`measure_overhead` times three modes (no
  tracer / tracer disabled / tracer enabled) on bitwise-identical
  sessions in alternating-order rounds and takes the median of each
  mode's per-round ratio to the untraced run
  (:func:`repro.perf.measured.measure`); :func:`check_overhead_gate`
  fails if enabled or disabled instrumentation costs more than 5% (CI
  runs this in the bench smoke job).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional

import numpy as np

from ..perf.measured import measure
from ..runtime.bench import envelope, incompatible
from .tracer import STAGES, StageTracer

__all__ = [
    "ProfileConfig",
    "run_profile",
    "format_profile",
    "measure_overhead",
    "check_overhead_gate",
    "format_overhead",
    "stage_shares",
    "check_stage_gate",
    "format_stage_gate",
]

#: Matches the bench default; profiles must be reproducible.
SEED = 2021


@dataclass(frozen=True)
class ProfileConfig:
    """One profiling workload (mirrors the bench ``ModelCase`` knobs)."""

    model: str = "resnet"
    algorithm: str = "auto"
    batch: int = 2
    #: Default workload is deliberately non-tiny: per-lap tracer cost is
    #: fixed (~µs), so agreement and overhead are only meaningful when
    #: each stage does real whole-tensor work.
    hw: int = 32
    width: int = 32
    m: int = 4
    runs: int = 3
    seed: int = SEED


def _build_session(config: ProfileConfig, tracer: Optional[StageTracer], model=None):
    """A compiled session (optionally traced) + its input batch."""
    from ..runtime.bench import ModelCase, prepare_case_model
    from ..runtime.session import InferenceSession

    rng = np.random.default_rng(config.seed)
    x = rng.standard_normal((config.batch, 3, config.hw, config.hw))
    if model is None:
        case = ModelCase(
            model=config.model,
            algorithm=config.algorithm,
            batch=config.batch,
            hw=config.hw,
            width=config.width,
            m=config.m,
        )
        model = prepare_case_model(case, x)
    session = InferenceSession(model, x.shape, tracer=tracer)
    return session, x, model


def run_profile(config: ProfileConfig) -> Dict[str, Any]:
    """Profile one model: traced runs -> per-layer x per-stage seconds.

    The warmup run (plan building, scratch allocation) is excluded via
    ``reset_stats``, so the numbers describe the steady-state online
    path.  ``agreement_gap`` is the relative difference between the
    tracer's total and the session's independent per-step timing total.
    ``team`` is what the native thread team did over the profiled runs
    (:func:`repro.native.team_stats`): whether a second core worked.
    """
    from .. import native

    tracer = StageTracer()
    session, x, _ = _build_session(config, tracer)
    session.run(x)  # warm: plans, scratch arena, BLAS threads
    session.reset_stats()
    before = native.team_stats()
    for _ in range(max(1, config.runs)):
        session.run(x)
    after = native.team_stats()
    team = {key: after[key] - before[key] for key in after}
    team["threads"] = after["threads"]
    breakdown = tracer.breakdown()
    timings = session.layer_timings()
    stage_total = tracer.total_seconds()
    step_total = sum(timings.values())
    gap = abs(stage_total - step_total) / step_total if step_total else 0.0
    return {
        **envelope(asdict(config)),
        "breakdown": breakdown,
        "call_counts": tracer.call_counts(),
        "layer_timings": timings,
        "stage_totals": tracer.stage_totals(),
        "stage_total_s": stage_total,
        "step_total_s": step_total,
        "agreement_gap": gap,
        "cache_stats": session.cache_stats(),
        "team": team,
    }


def _active_stages(breakdown: Dict[str, Dict[str, float]]) -> List[str]:
    seen = {stage for stages in breakdown.values() for stage in stages}
    cols = [s for s in STAGES if s in seen]
    return cols + sorted(seen - set(STAGES))  # future-proof: unknown last


def format_profile(doc: Dict[str, Any]) -> str:
    """Render the per-layer x per-stage table with percentages."""
    cfg = doc["config"]
    breakdown: Dict[str, Dict[str, float]] = doc["breakdown"]
    total = doc["stage_total_s"] or 1.0
    cols = _active_stages(breakdown)
    width = max([len("layer")] + [len(path) for path in breakdown]) + 1
    lines = [
        f"Stage profile -- model={cfg['model']} algorithm={cfg['algorithm']} "
        f"batch={cfg['batch']} hw={cfg['hw']} runs={cfg['runs']}"
    ]
    header = f"{'layer':{width}s}" + "".join(f" {c[:16]:>17s}" for c in cols)
    header += f" {'total':>12s}"
    lines.append(header)
    lines.append("-" * len(header))
    layer_rows = sorted(
        breakdown.items(), key=lambda kv: -sum(kv[1].values())
    )
    for path, stages in layer_rows:
        layer_total = sum(stages.values())
        row = f"{path:{width}s}"
        for col in cols:
            seconds = stages.get(col)
            if seconds is None:
                row += f" {'--':>17s}"
            else:
                row += f" {seconds * 1e3:9.3f}ms {seconds / total * 100:4.1f}%"
        row += f" {layer_total * 1e3:10.3f}ms"
        lines.append(row)
    lines.append("")
    totals = doc["stage_totals"]
    lines.append(
        "stage totals: "
        + "  ".join(
            f"{col}={totals[col] * 1e3:.3f}ms ({totals[col] / total * 100:.1f}%)"
            for col in cols
        )
    )
    lines.append(
        f"stage sum {doc['stage_total_s'] * 1e3:.3f}ms vs step timings "
        f"{doc['step_total_s'] * 1e3:.3f}ms "
        f"(gap {doc['agreement_gap'] * 100:.2f}%)"
    )
    team = doc.get("team")
    if team:
        lines.append(
            f"native team: {team['threads']} threads; {team['split_calls']} split calls, "
            f"{team['inline_calls']} inline; {team['chunks']} chunks, "
            f"{team['chunks_caller']} by the caller, {team['chunks_helpers']} by helpers"
        )
    return "\n".join(lines)


def measure_overhead(config: ProfileConfig, repeats: int = 25) -> Dict[str, Any]:
    """Measured instrumentation cost: none vs disabled vs enabled tracer.

    The three sessions share one prepared model (identical weights and
    engine objects) and run the same input.  Each of ``repeats`` rounds
    runs every mode once, in forward order on even rounds and reversed
    on odd ones, so no mode always follows the same neighbour.  A
    mode's overhead is the median over rounds of ``t_mode / t_none``
    within the round, minus one: pairing inside a round cancels the
    host's slower speed phases, and the median drops the rounds a phase
    change split.  Outputs are checked bitwise identical across modes
    first: instrumentation must never change results.
    """
    plain, x, model = _build_session(config, tracer=None)
    disabled, _, _ = _build_session(config, StageTracer(enabled=False), model=model)
    enabled, _, _ = _build_session(config, StageTracer(), model=model)
    sessions = {"none": plain, "disabled": disabled, "enabled": enabled}
    timed = measure(
        {mode: (lambda sess=sess: sess.run(x)) for mode, sess in sessions.items()},
        repeats,
    )
    outs = timed.outputs
    return {
        "config": asdict(config),
        "repeats": repeats,
        "wall_s": {mode: timed.median(mode) for mode in sessions},
        "overhead": {
            mode: timed.ratio(mode, "none") - 1.0 for mode in ("disabled", "enabled")
        },
        "outputs_identical": bool(
            np.array_equal(outs["none"], outs["disabled"])
            and np.array_equal(outs["none"], outs["enabled"])
        ),
    }


def check_overhead_gate(doc: Dict[str, Any], limit: float = 0.05) -> List[str]:
    """Violations list (empty = PASS) for one overhead measurement.

    ``limit`` bounds both the enabled and the disabled tracer's cost
    (the budget is 5%): disabled instrumentation is one attribute check
    per call, so a breach there means a real hot-path regression, not
    noise.
    """
    violations: List[str] = []
    if not doc["outputs_identical"]:
        violations.append("instrumented outputs are not bit-identical to baseline")
    for mode in ("enabled", "disabled"):
        overhead = doc["overhead"][mode]
        if overhead > limit:
            violations.append(
                f"{mode} tracer overhead {overhead * 100:.2f}% exceeds "
                f"{limit * 100:.1f}% budget"
            )
    return violations


def format_overhead(doc: Dict[str, Any]) -> str:
    cfg = doc["config"]
    wall = doc["wall_s"]
    over = doc["overhead"]
    return "\n".join(
        [
            f"Instrumentation overhead -- model={cfg['model']} "
            f"algorithm={cfg['algorithm']} batch={cfg['batch']} hw={cfg['hw']} "
            f"median of {doc['repeats']} paired rounds",
            f"  no tracer:       {wall['none'] * 1e3:8.3f}ms",
            f"  tracer disabled: {wall['disabled'] * 1e3:8.3f}ms "
            f"({over['disabled'] * 100:+.2f}%)",
            f"  tracer enabled:  {wall['enabled'] * 1e3:8.3f}ms "
            f"({over['enabled'] * 100:+.2f}%)",
            f"  outputs bit-identical: {'yes' if doc['outputs_identical'] else 'NO'}",
        ]
    )


# -- per-stage share gate (CI bench-smoke) -------------------------------

def stage_shares(doc: Dict[str, Any]) -> Dict[str, float]:
    """Each stage's fraction of the total traced stage wall-clock.

    Shares, not absolute seconds: the *shape* of the Figure 10 breakdown
    is host-independent (a faster machine shrinks every stage together),
    so share drift is the signal that one stage's implementation
    regressed relative to the others.
    """
    totals: Dict[str, float] = doc["stage_totals"]
    total = sum(totals.values())
    if total <= 0:
        return {stage: 0.0 for stage in totals}
    return {stage: seconds / total for stage, seconds in totals.items()}


#: ``config`` keys that must match for a stage baseline to gate a run:
#: the workload's shape.  Seed and runs affect noise, not the breakdown
#: shape, so they are not compared.
_STAGE_COMPAT_KEYS = ("model", "algorithm", "batch", "hw", "width", "m")


def check_stage_gate(
    current: Dict[str, Any],
    baseline: Optional[Dict[str, Any]] = None,
    tolerance: float = 0.10,
) -> List[str]:
    """Per-stage share regression gate: profile run vs checked-in baseline.

    Both sides are profile documents, and each one's shares derive from
    its ``stage_totals``.  A stage fails when its share of total stage
    time *grows* more than ``tolerance`` (absolute percentage points, as
    a fraction) above the baseline share -- e.g. quantize going from 12%
    to 25% of the run with the default 0.10 tolerance.  Shrinking shares
    never fail (the other stages' growth is what gets flagged).  A stage
    absent from the baseline fails if its share alone exceeds
    ``tolerance`` -- new overhead must be re-baselined deliberately.
    Without a baseline there is nothing to compare.  Returns
    human-readable violations; empty means PASS.
    """
    if baseline is None:
        return []
    refused = incompatible(current, baseline, _STAGE_COMPAT_KEYS)
    if refused:
        return refused
    violations: List[str] = []
    base_shares = stage_shares(baseline)
    for stage, share in sorted(stage_shares(current).items()):
        base = base_shares.get(stage)
        if base is None:
            if share > tolerance:
                violations.append(
                    f"stage {stage!r}: {share * 100:.1f}% of stage time but "
                    f"absent from the baseline (tolerance "
                    f"{tolerance * 100:.0f}pp); re-baseline deliberately"
                )
        elif share > base + tolerance:
            violations.append(
                f"stage {stage!r}: share grew {base * 100:.1f}% -> "
                f"{share * 100:.1f}% of stage time "
                f"(tolerance {tolerance * 100:.0f}pp)"
            )
    return violations


def format_stage_gate(
    current: Dict[str, Any], baseline: Dict[str, Any]
) -> str:
    """Side-by-side stage shares, current vs baseline."""
    cur_shares = stage_shares(current)
    base_shares = stage_shares(baseline)
    stages = [s for s in STAGES if s in cur_shares or s in base_shares]
    stages += sorted((set(cur_shares) | set(base_shares)) - set(stages))
    lines = [f"{'stage':18s} {'baseline':>9s} {'current':>9s} {'drift':>8s}"]
    for stage in stages:
        base = base_shares.get(stage)
        cur = cur_shares.get(stage)
        base_s = f"{base * 100:8.1f}%" if base is not None else f"{'--':>9s}"
        cur_s = f"{cur * 100:8.1f}%" if cur is not None else f"{'--':>9s}"
        drift = (
            f"{(cur - base) * 100:+7.1f}pp"
            if base is not None and cur is not None
            else f"{'--':>8s}"
        )
        lines.append(f"{stage:18s} {base_s} {cur_s} {drift}")
    return "\n".join(lines)
