"""``repro profile``: stage coverage, timing agreement, overhead gate."""

import time

import numpy as np
import pytest

from repro.obs.profile import (
    ProfileConfig,
    check_overhead_gate,
    format_overhead,
    format_profile,
    measure_overhead,
    run_profile,
)
from repro.obs.tracer import StageTracer

#: Small-but-real quantized workload for structure checks (fast).
SMALL = ProfileConfig(model="vgg", algorithm="lowino", hw=8, width=8, m=2, runs=2)


class TestRunProfile:
    def test_conv_layers_get_the_paper_stages(self):
        doc = run_profile(SMALL)
        conv_layers = {
            path: stages
            for path, stages in doc["breakdown"].items()
            if "conv" in path
        }
        assert conv_layers, "no conv layers traced"
        for path, stages in conv_layers.items():
            for stage in ("input_transform", "gemm", "output_transform"):
                assert stage in stages, f"{path} missing {stage}"
            # Calibrated LoWino quantizes inside its input transform pass.
            assert "quantize" not in stages, path
            assert all(v > 0 for v in stages.values())

    def test_breakdown_covers_every_timed_step(self):
        doc = run_profile(SMALL)
        assert set(doc["breakdown"]) == set(doc["layer_timings"])

    def test_stage_sums_agree_with_step_timings_within_2pct(self):
        # The tracer's laps tile each step body, so the summed stage
        # seconds must reproduce the session's independent per-step
        # timing total.  Default (non-tiny) workload; one retry damps
        # shared-host scheduling noise.
        gaps = []
        for _ in range(2):
            doc = run_profile(ProfileConfig())
            gaps.append(doc["agreement_gap"])
            if gaps[-1] < 0.02:
                break
        assert min(gaps) < 0.02, f"agreement gaps {gaps} all exceed 2%"

    def test_call_counts_scale_with_runs(self):
        doc = run_profile(SMALL)
        counts = doc["call_counts"]
        conv = next(path for path in counts if "conv" in path)
        assert counts[conv]["gemm"] == SMALL.runs

    def test_format_profile_renders_table(self):
        doc = run_profile(SMALL)
        text = format_profile(doc)
        assert "gemm" in text
        assert "%" in text
        for path in doc["breakdown"]:
            assert path in text


class TestOverhead:
    def test_outputs_bit_identical_across_modes(self):
        doc = measure_overhead(SMALL, repeats=1)
        assert doc["outputs_identical"] is True
        assert set(doc["wall_s"]) == {"none", "disabled", "enabled"}
        assert "no tracer" in format_overhead(doc)

    def test_gate_passes_within_budget(self):
        doc = {
            "overhead": {"disabled": 0.001, "enabled": 0.03},
            "outputs_identical": True,
        }
        assert check_overhead_gate(doc, limit=0.05) == []

    def test_gate_fails_over_budget_or_nonidentical(self):
        doc = {
            "overhead": {"disabled": 0.001, "enabled": 0.08},
            "outputs_identical": True,
        }
        violations = check_overhead_gate(doc, limit=0.05)
        assert len(violations) == 1
        assert "enabled" in violations[0]
        doc = {
            "overhead": {"disabled": 0.0, "enabled": 0.0},
            "outputs_identical": False,
        }
        assert any(
            "bit-identical" in v for v in check_overhead_gate(doc, limit=0.05)
        )

    def test_negative_overhead_is_not_a_violation(self):
        doc = {
            "overhead": {"disabled": -0.01, "enabled": -0.005},
            "outputs_identical": True,
        }
        assert check_overhead_gate(doc, limit=0.05) == []

    def test_injected_enabled_tracer_cost_fails_the_gate(self, monkeypatch):
        """Each enabled lap busy-waits as long as the stage it timed, so
        tracing roughly doubles the traced work; the measured overhead
        must show it and the 5% gate must fail on it.  This runs the CI
        gate's workload, where real tracing costs about 1%: on a tiny
        model the fixed per-lap cost alone can exceed 5%."""
        lap = StageTracer.lap

        def busy_lap(self, stage, t0):
            now = lap(self, stage, t0)
            end = now + (now - t0)
            while time.perf_counter() < end:
                pass
            return time.perf_counter()

        monkeypatch.setattr(StageTracer, "lap", busy_lap)
        doc = measure_overhead(ProfileConfig())
        assert doc["outputs_identical"] is True
        assert doc["overhead"]["enabled"] >= 0.10
        violations = check_overhead_gate(doc, limit=0.05)
        assert any(v.startswith("enabled tracer overhead") for v in violations)


class TestTracingDoesNotChangeResults:
    @pytest.mark.parametrize("algorithm", ["lowino", "int8_direct", "fp32"])
    def test_traced_session_bitwise_equals_untraced(self, algorithm):
        from repro.obs.tracer import StageTracer
        from repro.runtime.session import InferenceSession

        cfg = ProfileConfig(model="vgg", algorithm=algorithm, hw=8, width=8, m=2)
        from repro.obs.profile import _build_session

        plain, x, model = _build_session(cfg, tracer=None)
        traced, _, _ = _build_session(cfg, StageTracer(), model=model)
        assert np.array_equal(plain.run(x), traced.run(x))
