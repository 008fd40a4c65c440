"""InferenceSession: bitwise equivalence with eager execution, stats.

Satellite (c) of the model-compilation PR: the compiled session must be
*bit-identical* to ``Sequential.forward`` for FP32 and every quantized
engine, on every reference network, including ``Residual`` shortcuts
and strided convs.
"""

import numpy as np
import pytest

from repro.conv.fp32 import Fp32WinogradConv2d
from repro.nn import (
    Conv2d,
    ReLU,
    Residual,
    Sequential,
    build_resnet_small,
    build_unet_small,
    build_vgg_small,
    dequantize_model,
    named_convs,
    quantize_model,
)
from repro.runtime import InferenceSession, PlanCache

BUILDERS = {
    "vgg": lambda: build_vgg_small(width=8),
    "resnet": lambda: build_resnet_small(width=8),
    "unet": lambda: build_unet_small(width=8),
}

QUANT_ALGORITHMS = ["int8_direct", "int8_upcast", "int8_downscale",
                    "lowino", "auto"]


def _conv(rng, c_in, c_out, name, stride=1):
    return Conv2d(rng.standard_normal((c_out, c_in, 3, 3)) * 0.1, padding=1,
                  stride=stride, name=name)


def _strided_model(rng):
    return Sequential([
        _conv(rng, 3, 8, "down", stride=2),
        ReLU(),
        _conv(rng, 8, 8, "body"),
        ReLU(),
    ])


def _composite_shortcut_model(rng):
    body = Sequential([_conv(rng, 3, 8, "b1"), ReLU(), _conv(rng, 8, 8, "b2")])
    shortcut = Sequential([_conv(rng, 3, 8, "proj")], name="sc")
    return Sequential([Residual(body, shortcut)])


class TestBitwiseEquivalence:
    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_fp32(self, name, rng):
        model = BUILDERS[name]()
        x = rng.standard_normal((2, 3, 16, 16))
        session = InferenceSession(model, x.shape)
        assert np.array_equal(session.run(x), model(x))

    @pytest.mark.parametrize("name", sorted(BUILDERS))
    @pytest.mark.parametrize("algorithm", QUANT_ALGORITHMS)
    def test_quantized(self, name, algorithm, rng):
        model = BUILDERS[name]()
        calib = np.maximum(rng.standard_normal((2, 3, 16, 16)), 0)
        quantize_model(model, algorithm, m=2, calibration_batches=[calib])
        x = rng.standard_normal((2, 3, 16, 16))
        session = InferenceSession(model, x.shape)
        assert np.array_equal(session.run(x), model(x))
        dequantize_model(model)

    def test_fp32_winograd_engines(self, rng):
        # fp32_winograd is not a quantize_model algorithm; attach the
        # engine by hand to every eligible conv.
        model = build_vgg_small(width=8)
        for _, conv in named_convs(model):
            if conv.winograd_eligible:
                conv.engine = Fp32WinogradConv2d(conv.filters, m=2,
                                                 padding=conv.padding)
        x = rng.standard_normal((2, 3, 16, 16))
        session = InferenceSession(model, x.shape)
        assert np.array_equal(session.run(x), model(x))
        dequantize_model(model)

    @pytest.mark.parametrize("algorithm", ["lowino", "int8_direct"])
    def test_strided(self, algorithm, rng):
        model = _strided_model(rng)
        calib = np.maximum(rng.standard_normal((2, 3, 16, 16)), 0)
        quantize_model(model, algorithm, m=2, calibration_batches=[calib])
        x = rng.standard_normal((2, 3, 16, 16))
        session = InferenceSession(model, x.shape)
        assert np.array_equal(session.run(x), model(x))

    @pytest.mark.parametrize("algorithm", ["lowino", "int8_upcast"])
    def test_composite_shortcut(self, algorithm, rng):
        model = _composite_shortcut_model(rng)
        calib = np.maximum(rng.standard_normal((2, 3, 12, 12)), 0)
        quantize_model(model, algorithm, m=2, calibration_batches=[calib])
        x = rng.standard_normal((2, 3, 12, 12))
        session = InferenceSession(model, x.shape)
        assert np.array_equal(session.run(x), model(x))

    def test_other_batch_sizes(self, rng):
        model = build_vgg_small(width=8)
        session = InferenceSession(model, (4, 3, 16, 16))
        for b in (1, 3):
            x = rng.standard_normal((b, 3, 16, 16))
            assert np.array_equal(session.run(x), model(x))


class TestSessionStats:
    def test_timings_and_counters(self, rng):
        model = build_vgg_small(width=8)
        session = InferenceSession(model, (2, 3, 16, 16))
        x = rng.standard_normal((2, 3, 16, 16))
        session.run(x)
        session.run(x)
        assert session.runs == 2
        assert session.images_seen == 4
        timings = session.layer_timings()
        assert timings and all(t > 0 for t in timings.values())
        # slowest-first ordering
        values = list(timings.values())
        assert values == sorted(values, reverse=True)

    def test_cache_stats_dict(self, rng):
        model = build_vgg_small(width=8)
        session = InferenceSession(model, (1, 3, 16, 16))
        session.run(rng.standard_normal((1, 3, 16, 16)))
        stats = session.cache_stats()
        assert stats["entries"] > 0

    def test_reset_stats(self, rng):
        model = build_vgg_small(width=8)
        session = InferenceSession(model, (1, 3, 16, 16))
        session.run(rng.standard_normal((1, 3, 16, 16)))
        session.reset_stats()
        assert session.runs == 0 and not session.timings

    def test_reset_stats_resets_cache_counters_keeps_entries(self, rng):
        # reset_stats starts a statistics EPOCH: the plan-cache
        # hit/miss/eviction counters must restart with it (a post-reset
        # cache_stats() mixing epochs made hit rates meaningless), while
        # the live plans and their footprint stay resident.
        model = build_vgg_small(width=8)
        x = rng.standard_normal((1, 3, 16, 16))
        quantize_model(model, "lowino", m=2, calibration_batches=[np.maximum(x, 0)])
        # A tiny cache so lowering itself records misses and evictions.
        session = InferenceSession(model, (1, 3, 16, 16), cache=PlanCache(capacity=2))
        session.run(x)
        before = session.cache_stats()
        assert before["misses"] > 0 and before["evictions"] > 0
        assert before["entries"] == 2 and before["bytes"] > 0
        session.reset_stats()
        after = session.cache_stats()
        assert after["hits"] == 0 and after["misses"] == 0
        assert after["evictions"] == 0
        assert after["entries"] == before["entries"]
        assert after["bytes"] == before["bytes"]
        session.run(x)  # plans were resolved at lowering: runs look nothing up
        assert session.cache_stats() == after

    def test_stats_snapshot_and_scratch(self, rng):
        model = build_vgg_small(width=8)
        session = InferenceSession(model, (1, 3, 16, 16))
        session.run(rng.standard_normal((1, 3, 16, 16)))
        doc = session.stats()
        assert doc["runs"] == 1 and doc["images_seen"] == 1
        assert doc["cache"]["entries"] > 0
        assert doc["timings"]
        scratch = doc["scratch"]
        assert scratch["acquires"] == scratch["releases"]
        assert scratch["in_use"] == 0

    def test_collect_timings_off(self, rng):
        model = build_vgg_small(width=8)
        session = InferenceSession(model, (1, 3, 16, 16),
                                   collect_timings=False)
        session.run(rng.standard_normal((1, 3, 16, 16)))
        assert not session.timings

    def test_callable_and_batches(self, rng):
        model = build_vgg_small(width=8)
        session = InferenceSession(model, (1, 3, 16, 16))
        batches = [rng.standard_normal((1, 3, 16, 16)) for _ in range(2)]
        outs = list(session.run_batches(batches))
        assert len(outs) == 2
        assert np.array_equal(session(batches[0]), outs[0])

    def test_describe_mentions_fusion(self, rng):
        model = build_resnet_small(width=8)
        calib = np.maximum(rng.standard_normal((1, 3, 16, 16)), 0)
        quantize_model(model, "lowino", m=2, calibration_batches=[calib])
        text = InferenceSession(model, (1, 3, 16, 16)).describe()
        assert "lowino" in text and "relu" in text


class TestScratchFootprint:
    def test_batch_sweep_settles_at_one_arena_and_keeps_plans(self, rng):
        """Serving warm-up (every batch size 1..16 once) must leave the
        scratch a single run needs at batch 16 and every conv plan
        resident -- not one scratch set per (conv, batch size) crowding
        the plans out of the cache."""
        model = build_resnet_small(width=16)
        calib = np.maximum(rng.standard_normal((2, 3, 16, 16)), 0)
        quantize_model(model, "auto", calibration_batches=[calib])

        def warmed(batch_sizes):
            session = InferenceSession(model, (1, 3, 16, 16), cache_eviction="lfu")
            for n in batch_sizes:
                session.run(rng.standard_normal((n, 3, 16, 16)))
            return session

        session = warmed(range(1, 17))
        scratch = session.scratch_stats()
        assert scratch["nbytes"] == warmed([16]).scratch_stats()["nbytes"]
        assert scratch["arenas"] == 1
        assert session.cache_stats()["evictions"] == 0
        for step in session.program.steps:
            if step.kind == "conv":
                assert step.plan.key in session.cache
