"""Fused pipelines: the bitwise contract.

``repro.runtime.backends`` runs each algorithm as one pipeline composed
from shared stage primitives: the Winograd transform passes and the
quantized GEMMs in the native kernels (``repro.native``), the FP32
GEMMs as one serial ``np.matmul``.  The contract is that every pipeline
produces bit-for-bit the output of its reference layer, on every edge
geometry and on channel counts off every lane width; that every
quantized pipeline refuses NaN activations and the up-casting one
raises the reference's INT16 overflow; and that every pipeline laps the
stage tracer at the same boundaries.
Shared-session stress runs in ``tests/runtime/test_concurrency.py``.
"""

import numpy as np
import pytest

from repro.conformance.space import enumerate_edge_configs, make_inputs
from repro.nn import Conv2d, ReLU, Sequential
from repro.nn.quantize import dequantize_model, quantize_model
from repro.runtime import ExecutionEngine, InferenceSession, PlanCache
from repro.runtime.backends import FUSED_ALGORITHMS
from repro.runtime.bench import ModelCase, build_case_model

EDGE_CONFIGS = enumerate_edge_configs()
WINOGRAD_ALGORITHMS = ("lowino", "int8_upcast", "int8_downscale", "fp32_winograd")
QUANTIZED_ALGORITHMS = ("lowino", "int8_upcast", "int8_downscale", "int8_direct")


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def _engine():
    return ExecutionEngine(cache=PlanCache(capacity=512))


class TestEdgeGridBitIdentity:
    """All fused algorithms x the conformance edge grid."""

    @pytest.mark.parametrize("algorithm", FUSED_ALGORITHMS)
    @pytest.mark.parametrize("config", EDGE_CONFIGS, ids=lambda c: c.describe())
    def test_matches_reference_layer(self, algorithm, config):
        x, w = make_inputs(config)
        layer = _engine().layer(w, algorithm, m=config.m, padding=config.padding)
        np.testing.assert_array_equal(layer(x), layer.reference(x))

    @pytest.mark.parametrize("m", [2, 4])
    @pytest.mark.parametrize("algorithm", WINOGRAD_ALGORITHMS)
    def test_single_column_matches_reference(self, algorithm, m, rng):
        """One image, one tile, one channel in and out: both transforms
        see a one-column GEMM-layout operand, which NumPy would hand to
        gemv (another summation order) without the per-tile route."""
        x = rng.standard_normal((1, 1, m + 2, m + 2))
        w = rng.standard_normal((1, 1, 3, 3))
        layer = _engine().layer(w, algorithm, m=m)
        np.testing.assert_array_equal(layer(x), layer.reference(x))

    @pytest.mark.parametrize("channels", [(1, 3), (3, 17), (17, 33), (33, 1)],
                             ids=lambda ck: "c%d_k%d" % ck)
    @pytest.mark.parametrize("m", [2, 4])
    @pytest.mark.parametrize("algorithm", [*WINOGRAD_ALGORITHMS, "lowino-calibrated"])
    def test_odd_channel_counts(self, algorithm, m, channels, rng):
        """C and K off the transform passes' 4- and 8-channel blocks and
        the GEMM's 4-step reduction, with tail tiles and padding."""
        c, k = channels
        x = rng.standard_normal((2, c, 9, 7))
        w = rng.standard_normal((k, c, 3, 3)) * 0.3
        layer = _engine().layer(w, algorithm.split("-")[0], m=m, padding=1)
        if algorithm == "lowino-calibrated":
            layer.calibrate([rng.standard_normal((2, c, 9, 7))])
        np.testing.assert_array_equal(layer(x), layer.reference(x))

    @pytest.mark.parametrize("algorithm", FUSED_ALGORITHMS)
    def test_fused_epilogue_is_bitwise(self, algorithm, rng):
        """engine.execute(bias=..., relu=True) == max(y + bias, 0)."""
        config = EDGE_CONFIGS[-1]
        x, w = make_inputs(config)
        bias = rng.standard_normal(w.shape[0])
        engine = _engine()
        layer = engine.layer(w, algorithm, m=config.m, padding=config.padding)
        fused = engine.execute(layer.plan, x, bias=bias, relu=True)
        plain = np.maximum(layer(x) + bias[None, :, None, None], 0.0)
        np.testing.assert_array_equal(fused, plain)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("algorithm", FUSED_ALGORITHMS)
    def test_input_strides_off_the_itemsize(self, algorithm, seed):
        """A structured array's float64 field sits 12 bytes apart: the
        engine copies it whole before the native passes read it, so the
        output is the contiguous input's and the eager layer's."""
        rng = np.random.default_rng([seed, 12])
        x = rng.standard_normal((2, 5, 9, 7))
        record = np.zeros(x.shape, dtype=[("f", "f8"), ("g", "i4")])
        record["f"] = x
        strided = record["f"]
        assert strided.strides[-1] == 12
        layer = _engine().layer(rng.standard_normal((4, 5, 3, 3)) * 0.3, algorithm,
                                m=2, padding=1)
        if algorithm == "lowino":
            layer.calibrate([rng.standard_normal((2, 5, 9, 7))])
        got = layer(strided)
        np.testing.assert_array_equal(got, layer(x))
        np.testing.assert_array_equal(got, layer.reference(x))


class TestModelBitIdentity:
    """Compiled-vs-eager, whole networks.

    ``resnet`` covers stride-2 downsampling convs; the local strided
    model pins a stride-2 stem straight through ``int8_direct``.
    """

    @pytest.mark.parametrize("case", [
        ModelCase("vgg", "auto", batch=2, hw=16, width=8, m=2),
        ModelCase("resnet", "auto", batch=2, hw=16, width=8, m=2),
        ModelCase("vgg", "lowino", batch=2, hw=16, width=8, m=2),
        ModelCase("resnet", "int8_direct", batch=2, hw=16, width=8, m=2),
        ModelCase("vgg", "int8_upcast", batch=2, hw=16, width=8, m=2),
        ModelCase("vgg", "int8_downscale", batch=2, hw=16, width=8, m=2),
    ], ids=lambda c: c.case_name)
    def test_compiled_equals_eager(self, case, rng):
        model = build_case_model(case)
        calib = np.maximum(rng.standard_normal((2, 3, case.hw, case.hw)), 0)
        quantize_model(model, case.algorithm, m=case.m,
                       calibration_batches=[calib])
        x = rng.standard_normal((case.batch, 3, case.hw, case.hw))
        session = InferenceSession(model, x.shape)
        np.testing.assert_array_equal(session.run(x), model(x))
        dequantize_model(model)

    @pytest.mark.parametrize("algorithm", QUANTIZED_ALGORITHMS)
    def test_strided_conv(self, algorithm, rng):
        """The stride-2 conv lowers onto ``int8_direct`` whatever the
        algorithm; the body conv runs ``algorithm``'s pipeline."""
        model = Sequential([
            Conv2d(rng.standard_normal((8, 3, 3, 3)) * 0.1, padding=1,
                   stride=2, name="down"),
            ReLU(),
            Conv2d(rng.standard_normal((8, 8, 3, 3)) * 0.1, padding=1,
                   name="body"),
        ])
        calib = np.maximum(rng.standard_normal((2, 3, 16, 16)), 0)
        quantize_model(model, algorithm, m=2, calibration_batches=[calib])
        x = rng.standard_normal((2, 3, 16, 16))
        session = InferenceSession(model, x.shape)
        np.testing.assert_array_equal(session.run(x), model(x))


class TestInt16Overflow:
    """The up-casting pipeline's s16 operand: its transform pass counts
    values past INT16 and raises the reference's OverflowError exactly
    where the reference's ``max |B^T d B| > 32767`` check does."""

    @staticmethod
    def _max_transformed(layer, x):
        """The reference's own max |V| on input ``x``."""
        from repro.conv._tileops import prepare_input_tiles
        from repro.conv.im2col import pad_images
        from repro.conv.upcast import _transform_int
        from repro.quant import QuantParams, quantize

        params = QuantParams.from_threshold(layer.input_threshold, bits=layer.bits)
        tiles, _ = prepare_input_tiles(layer.alg, pad_images(quantize(x, params), 1))
        return int(np.abs(_transform_int(layer.bt_int, tiles)).max())

    @pytest.mark.parametrize("m", [4, 6])
    def test_raises_where_reference_does(self, m, rng):
        """F(6,3)'s transform can leave INT16 on saturated codes, F(4,3)'s
        cannot; both sides agree on every input either way."""
        w = rng.standard_normal((3, 4, 3, 3)) * 0.1
        layer = _engine().layer(w, "int8_upcast", m=m, padding=1, input_threshold=1.0)
        outcomes = set()
        for scale in (0.01, 0.3, 3.0, 100.0):
            x = rng.standard_normal((1, 4, 12, 12)) * scale
            overflow = self._max_transformed(layer, x) > 32767
            outcomes.add(overflow)
            if overflow:
                with pytest.raises(OverflowError):
                    layer.reference(x)
                with pytest.raises(OverflowError):
                    layer(x)
            else:
                np.testing.assert_array_equal(layer(x), layer.reference(x))
        assert outcomes == ({False, True} if m == 6 else {False})


class TestPlanOperands:
    def test_direct_compensation(self, rng):
        """The packed s8 filter carries the Eq. 9 compensation of the
        +128-biased u8 activations as ``init``."""
        engine = _engine()
        layer = engine.layer(rng.standard_normal((3, 4, 3, 3)) * 0.1,
                             "int8_direct", m=0, padding=1)
        w = layer.filters_q.reshape(3, -1).astype(np.int64)
        np.testing.assert_array_equal(layer.plan.operands["init"], [-128 * w.sum(axis=1)])
        assert layer.plan.operands["b_packed"].dtype == np.int8

    def test_nbytes_counts_shared_arrays_once(self, rng):
        """A 64x64 F(4,3) fp32_winograd plan: its ``u_f64`` operand is the
        layer's 1.18 MB ``u``, counted once."""
        plan = _engine().plan_for(rng.standard_normal((64, 64, 3, 3)), "fp32_winograd",
                                  m=4, padding=1)
        assert plan.operands["u_f64"] is plan.layer.u
        layer_bytes = sum(v.nbytes for v in vars(plan.layer).values()
                          if isinstance(v, np.ndarray))
        assert plan.layer.u.nbytes == 36 * 64 * 64 * 8
        assert plan.nbytes == layer_bytes

    def test_nbytes_counts_views_by_their_owner(self, rng):
        plan = _engine().plan_for(rng.standard_normal((8, 4, 3, 3)), "lowino", m=2)
        assert plan.operands["init"] is plan.layer.zbar
        before = plan.nbytes
        plan.operands["view"] = plan.layer.zbar[:1]
        assert plan.nbytes == before


class TestNaNActivations:
    """An integer code cannot carry NaN: every quantized pipeline raises,
    while +-inf saturate like the reference's clip."""

    def _calibrated_layer(self, algorithm, rng):
        w = rng.standard_normal((4, 3, 3, 3)) * 0.1
        kwargs = {} if algorithm == "lowino" else {"input_threshold": 2.0}
        layer = _engine().layer(w, algorithm, m=2, padding=1, **kwargs)
        if algorithm == "lowino":
            layer.calibrate([rng.standard_normal((2, 3, 8, 8))])
        return layer

    @pytest.mark.parametrize("algorithm", QUANTIZED_ALGORITHMS)
    def test_engine_raises_on_nan(self, algorithm, rng):
        layer = self._calibrated_layer(algorithm, rng)
        x = rng.standard_normal((2, 3, 8, 8))
        x[1, 2, 3, 4] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            layer(x)

    def test_uncalibrated_lowino_raises_on_nan(self, rng):
        layer = _engine().layer(rng.standard_normal((4, 3, 3, 3)) * 0.1, "lowino",
                                m=2, padding=1)
        x = rng.standard_normal((2, 3, 8, 8))
        x[0, 0, 4, 4] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            layer(x)

    @pytest.mark.parametrize("calibrated", [False, True], ids=["minmax", "calibrated"])
    def test_lowino_raises_on_infinity(self, calibrated, rng):
        """LoWino transforms before it quantizes: every chain through an
        infinite pixel meets a zero coefficient or an opposite infinity,
        so its tiles turn NaN and the call raises -- on the NaN code once
        calibrated, on the NaN min/max scale before."""
        layer = _engine().layer(rng.standard_normal((4, 3, 3, 3)) * 0.1, "lowino",
                                m=2, padding=1)
        if calibrated:
            layer.calibrate([rng.standard_normal((2, 3, 8, 8))])
        x = rng.standard_normal((2, 3, 8, 8))
        x[1, 2, 3, 3] = np.inf
        with pytest.raises(ValueError, match="NaN" if calibrated else "scale"):
            layer(x)

    @pytest.mark.parametrize("algorithm", ["int8_upcast", "int8_downscale", "int8_direct"])
    def test_infinities_saturate_like_reference(self, algorithm, rng):
        """Spatial quantization clips +-inf.  (LoWino transforms first, and
        inf - inf is NaN, so an infinite input raises there.)"""
        layer = self._calibrated_layer(algorithm, rng)
        x = rng.standard_normal((2, 3, 8, 8))
        x[0, 0, 2, 2], x[1, 1, 5, 6] = np.inf, -np.inf
        with np.errstate(invalid="ignore"):
            expected = layer.reference(x)
            got = layer(x)
        np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("algorithm", QUANTIZED_ALGORITHMS)
    def test_session_raises_on_nan(self, algorithm, rng):
        model = Sequential([
            Conv2d(rng.standard_normal((4, 3, 3, 3)) * 0.1, padding=1, name="c"),
            ReLU(),
        ])
        calib = np.maximum(rng.standard_normal((2, 3, 8, 8)), 0)
        quantize_model(model, algorithm, m=2, calibration_batches=[calib])
        x = rng.standard_normal((2, 3, 8, 8))
        x[0, 1, 0, 0] = np.nan
        session = InferenceSession(model, x.shape)
        with pytest.raises(ValueError, match="NaN"):
            session.run(x)


class _LapRecorder:
    """Tracer stand-in that records the stage name of every lap."""

    enabled = True

    def __init__(self):
        self.laps = []

    def lap(self, stage, t0):
        self.laps.append(stage)
        return t0


#: Stage laps of one fused call, per algorithm.  The per-layer
#: ``runtime.backends.<algorithm>.<stage>_ms`` metrics and the stage
#: share gates are keyed by these names.
EXPECTED_LAPS = {
    # Uncalibrated LoWino quantizes with per-call min/max params after
    # the pass; calibrated LoWino quantizes inside it.
    "lowino": ["input_transform", "quantize", "gemm", "output_transform"],
    "lowino-calibrated": ["input_transform", "gemm", "output_transform"],
    "int8_upcast": ["quantize", "input_transform", "gemm", "output_transform"],
    "int8_downscale": ["quantize", "input_transform", "gemm", "output_transform"],
    "int8_direct": ["quantize", "input_transform", "gemm", "output_transform"],
    "fp32_winograd": ["input_transform", "gemm", "output_transform"],
    "fp32_direct": ["input_transform", "gemm", "output_transform"],
}


class TestStageLaps:
    @pytest.mark.parametrize("bias,relu", [(False, False), (True, False), (False, True)],
                             ids=["plain", "bias", "relu"])
    @pytest.mark.parametrize("algorithm", [*FUSED_ALGORITHMS, "lowino-calibrated"])
    def test_lap_sequence(self, algorithm, bias, relu, rng):
        config = EDGE_CONFIGS[-1]
        x, w = make_inputs(config)
        tracer = _LapRecorder()
        engine = ExecutionEngine(cache=PlanCache(capacity=8), tracer=tracer)
        plan = engine.plan_for(w, algorithm.split("-")[0], m=config.m,
                               padding=config.padding)
        if algorithm == "lowino-calibrated":
            plan.layer.calibrate([x])
        engine.execute(plan, x, bias=rng.standard_normal(w.shape[0]) if bias else None,
                       relu=relu)
        epilogue = ["epilogue"] if bias or relu else []
        assert tracer.laps == EXPECTED_LAPS[algorithm] + epilogue


class TestScratchRouting:
    def test_direct_path_uses_scratch(self, rng):
        """Satellite: the im2col/cast/reshape path leases scratch now."""
        model = Sequential([Conv2d(rng.standard_normal((4, 3, 3, 3)) * 0.1,
                                   padding=1, name="c")])
        calib = np.maximum(rng.standard_normal((2, 3, 8, 8)), 0)
        quantize_model(model, "int8_direct", m=2, calibration_batches=[calib])
        session = InferenceSession(model, (2, 3, 8, 8))
        session.run(rng.standard_normal((2, 3, 8, 8)))
        stats = session.scratch_stats()
        assert stats["acquires"] > 0
        assert stats["acquires"] == stats["releases"]  # leases never leak
        assert stats["nbytes"] > 0
