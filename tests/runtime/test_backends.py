"""Fused pipelines and GEMM backends: the bitwise contract, on every backend.

``repro.runtime.backends`` runs each algorithm as one pipeline composed
from shared stage primitives; the backend only issues the GEMM.  The
contract is that *every* registered backend -- the serial NumPy default
and the worker-pool threaded-BLAS variant -- produces bit-for-bit the
output of the reference layers, for every fused algorithm, on every
edge geometry, under concurrency, with or without the plan-time bound
shortcuts (`v16_ok` / `z_wrap_free`) engaged, and that every pipeline
laps the stage tracer at the same boundaries.
"""

import threading

import numpy as np
import pytest

from repro.conformance.space import enumerate_edge_configs, make_inputs
from repro.nn import Conv2d, ReLU, Sequential
from repro.nn.quantize import dequantize_model, quantize_model
from repro.runtime import ExecutionEngine, InferenceSession, PlanCache
from repro.runtime.backends import (
    FUSED_ALGORITHMS,
    KernelBackend,
    NumpyKernelBackend,
    ThreadedBlasBackend,
    available_backends,
    default_backend,
    resolve_backend,
)
from repro.runtime.bench import ModelCase, build_case_model
from repro.runtime.pool import get_pool

BACKENDS = sorted(available_backends())
EDGE_CONFIGS = enumerate_edge_configs()


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def _engine(backend):
    return ExecutionEngine(cache=PlanCache(capacity=512), backend=backend)


class TestRegistry:
    def test_available_backends(self):
        assert "numpy" in BACKENDS and "threaded" in BACKENDS

    def test_resolve_by_name_and_instance(self):
        numpy_backend = resolve_backend("numpy")
        assert isinstance(numpy_backend, NumpyKernelBackend)
        assert isinstance(resolve_backend("threaded"), ThreadedBlasBackend)
        assert resolve_backend(numpy_backend) is numpy_backend
        assert resolve_backend(None) is default_backend()

    def test_resolve_unknown_name(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            resolve_backend("simd")

    def test_backends_satisfy_protocol(self):
        assert isinstance(NumpyKernelBackend(), KernelBackend)
        assert isinstance(ThreadedBlasBackend(), KernelBackend)

    def test_session_backend_knob(self, rng):
        model = Sequential([Conv2d(rng.standard_normal((4, 3, 3, 3)) * 0.1,
                                   padding=1, name="c")])
        quantize_model(model, "lowino", m=2,
                       calibration_batches=[np.abs(rng.standard_normal((2, 3, 8, 8)))])
        session = InferenceSession(model, (2, 3, 8, 8), backend="threaded")
        assert session.engine.backend.name == "threaded"


class TestEdgeGridBitIdentity:
    """Both backends x all fused algorithms x the conformance edge grid."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("algorithm", FUSED_ALGORITHMS)
    @pytest.mark.parametrize("config", EDGE_CONFIGS, ids=lambda c: c.describe())
    def test_matches_reference_layer(self, backend, algorithm, config):
        x, w = make_inputs(config)
        layer = _engine(backend).layer(w, algorithm, m=config.m,
                                       padding=config.padding)
        np.testing.assert_array_equal(layer(x), layer.reference(x))

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("algorithm", FUSED_ALGORITHMS)
    def test_fused_epilogue_is_bitwise(self, backend, algorithm, rng):
        """engine.execute(bias=..., relu=True) == max(y + bias, 0)."""
        config = EDGE_CONFIGS[-1]
        x, w = make_inputs(config)
        bias = rng.standard_normal(w.shape[0])
        engine = _engine(backend)
        layer = engine.layer(w, algorithm, m=config.m, padding=config.padding)
        fused = engine.execute(layer.plan, x, bias=bias, relu=True)
        plain = np.maximum(layer(x) + bias[None, :, None, None], 0.0)
        np.testing.assert_array_equal(fused, plain)


class TestModelBitIdentity:
    """Compiled-vs-eager, whole networks, both backends.

    ``resnet`` covers stride-2 downsampling convs; the local strided
    model pins a stride-2 stem straight through ``int8_direct``.
    """

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("case", [
        ModelCase("vgg", "auto", batch=2, hw=16, width=8, m=2),
        ModelCase("resnet", "auto", batch=2, hw=16, width=8, m=2),
        ModelCase("vgg", "lowino", batch=2, hw=16, width=8, m=2),
        ModelCase("resnet", "int8_direct", batch=2, hw=16, width=8, m=2),
        ModelCase("vgg", "int8_upcast", batch=2, hw=16, width=8, m=2),
        ModelCase("vgg", "int8_downscale", batch=2, hw=16, width=8, m=2),
    ], ids=lambda c: c.case_name)
    def test_compiled_equals_eager(self, backend, case, rng):
        model = build_case_model(case)
        calib = np.maximum(rng.standard_normal((2, 3, case.hw, case.hw)), 0)
        quantize_model(model, case.algorithm, m=case.m,
                       calibration_batches=[calib])
        x = rng.standard_normal((case.batch, 3, case.hw, case.hw))
        session = InferenceSession(model, x.shape, backend=backend)
        np.testing.assert_array_equal(session.run(x), model(x))
        dequantize_model(model)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("algorithm", FUSED_ALGORITHMS)
    def test_strided_conv(self, backend, algorithm, rng):
        if algorithm != "int8_direct":
            pytest.skip("stride > 1 lowers onto the direct path only")
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
        session = InferenceSession(model, x.shape, backend=backend)
        np.testing.assert_array_equal(session.run(x), model(x))


class TestPlanMetaBounds:
    """The analytic plan-time bounds, and the fallback paths they gate."""

    def _upcast_layer(self, engine, rng, c=4, k=3):
        w = rng.standard_normal((k, c, 3, 3)) * 0.1
        return engine.layer(w, "int8_upcast", m=2, padding=1)

    def test_upcast_meta_present(self, rng):
        layer = self._upcast_layer(_engine("numpy"), rng)
        meta = layer.plan.meta
        assert meta["v16_ok"] is True  # m=2: |B^T d B| <= 128 * 4^2 = 2048
        assert meta["v_bound"] >= 1
        assert meta["z_wrap_free"] is True

    def test_v_bound_is_sound(self, rng):
        """The analytic bound dominates the runtime reduction it replaces."""
        engine = _engine("numpy")
        layer = self._upcast_layer(engine, rng)
        ref = layer.reference
        x = np.maximum(rng.standard_normal((2, 4, 12, 12)), 0)
        from repro.conv.im2col import pad_images
        from repro.quant import spatial_params_from_tensor
        from repro.quant.linear import quantize
        from repro.winograd import tile_grid
        from repro.winograd.tiling import extract_tiles

        params = spatial_params_from_tensor(x, bits=ref.bits)
        q = quantize(pad_images(x, ref.padding), params).astype(np.int64)
        tiles = extract_tiles(tile_grid(ref.alg, q.shape[2], q.shape[3]), q)
        v = np.einsum("ij,bcxyjk,kl->bcxyil", ref.bt_int, tiles, ref.bt_int.T)
        assert int(np.abs(v).max()) <= layer.plan.meta["v_bound"]

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("flag", ["v16_ok", "z_wrap_free"])
    def test_disabled_shortcuts_stay_bitwise(self, backend, flag, rng):
        """Forcing the runtime fallback (abs-max check / int32 wrap cast)
        must not change a single bit when no overflow actually occurs."""
        engine = _engine(backend)
        layer = self._upcast_layer(engine, rng)
        x = np.maximum(rng.standard_normal((2, 4, 12, 12)), 0)
        fast = layer(x).copy()
        layer.plan.meta[flag] = False
        np.testing.assert_array_equal(layer(x), fast)
        np.testing.assert_array_equal(layer(x), layer.reference(x))

    def test_upcast_overflow_still_raises(self, rng):
        """The INT16 overflow guard survives the fusion: inputs whose
        transformed magnitude exceeds the bound raise like the reference."""
        engine = _engine("numpy")
        w = rng.standard_normal((3, 4, 3, 3)) * 0.1
        # F(6,3): the analytic bound (128 * row^2 = 460800) exceeds
        # INT16, so the fused path must re-arm the runtime reduction.
        layer = engine.layer(w, "int8_upcast", m=6, padding=1)
        assert not layer.plan.meta["v16_ok"]
        x = np.maximum(rng.standard_normal((1, 4, 12, 12)), 0) * 100.0
        try:
            expected = layer.reference(x)
        except OverflowError:
            with pytest.raises(OverflowError):
                layer(x)
        else:
            np.testing.assert_array_equal(layer(x), expected)

    def test_direct_meta(self, rng):
        engine = _engine("numpy")
        layer = engine.layer(rng.standard_normal((3, 4, 3, 3)) * 0.1,
                             "int8_direct", m=0, padding=1)
        meta = layer.plan.meta
        assert meta["z_wrap_free"] is True and meta["z_bound"] >= 1

    def test_fp32_meta_partition_safety(self, rng):
        """Only the batched winograd contraction may be split across
        threads (per-T dgemms are unchanged by the split); the direct
        2D float GEMM must stay serial (row-splitting could change BLAS
        blocking and therefore bits)."""
        engine = _engine("numpy")
        w = rng.standard_normal((3, 4, 3, 3)) * 0.1
        wino = engine.layer(w, "fp32_winograd", m=2, padding=1).plan.meta
        assert wino["float_gemm"] is True
        assert wino["gemm_partition_safe"] is True
        direct = engine.layer(w, "fp32_direct", m=0, padding=1).plan.meta
        assert direct["float_gemm"] is True
        assert direct["gemm_partition_safe"] is False

    def test_fp32_winograd_forced_serial_stays_bitwise(self, rng):
        """Forcing gemm_partition_safe off must route the threaded
        backend onto the serial fallback without changing a bit."""
        engine = _engine("threaded")
        w = rng.standard_normal((3, 4, 3, 3)) * 0.1
        layer = engine.layer(w, "fp32_winograd", m=2, padding=1)
        x = rng.standard_normal((2, 4, 12, 12))
        fast = layer(x).copy()
        layer.plan.meta["gemm_partition_safe"] = False
        np.testing.assert_array_equal(layer(x), fast)
        np.testing.assert_array_equal(layer(x), layer.reference(x))


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
    "lowino": ["input_transform", "quantize", "gemm", "output_transform"],
    "int8_upcast": ["quantize", "input_transform", "gemm", "output_transform"],
    "int8_downscale": ["quantize", "input_transform", "gemm", "output_transform"],
    "int8_direct": ["quantize", "input_transform", "gemm", "output_transform"],
    "fp32_winograd": ["input_transform", "gemm", "output_transform"],
    "fp32_direct": ["input_transform", "gemm", "output_transform"],
}


class TestStageLaps:
    @pytest.mark.parametrize("bias,relu", [(False, False), (True, False), (False, True)],
                             ids=["plain", "bias", "relu"])
    @pytest.mark.parametrize("algorithm", FUSED_ALGORITHMS)
    def test_lap_sequence(self, algorithm, bias, relu, rng):
        config = EDGE_CONFIGS[-1]
        x, w = make_inputs(config)
        tracer = _LapRecorder()
        engine = ExecutionEngine(cache=PlanCache(capacity=8), tracer=tracer)
        plan = engine.plan_for(w, algorithm, m=config.m, padding=config.padding)
        engine.execute(plan, x, bias=rng.standard_normal(w.shape[0]) if bias else None,
                       relu=relu)
        epilogue = ["epilogue"] if bias or relu else []
        assert tracer.laps == EXPECTED_LAPS[algorithm] + epilogue


class TestThreadedPartitioning:
    """The threaded backend really dispatches its GEMM to the pool."""

    def _layer(self, algorithm):
        config = EDGE_CONFIGS[-1]
        x, w = make_inputs(config)
        layer = _engine(ThreadedBlasBackend(workers=2)).layer(
            w, algorithm, m=config.m, padding=config.padding)
        return layer, x

    @staticmethod
    def _stages_run_by(fn):
        pool = get_pool(2)
        before = pool.stages_run
        out = fn()
        return pool.stages_run - before, out

    @pytest.mark.parametrize("algorithm", FUSED_ALGORITHMS)
    def test_gemm_is_partitioned(self, algorithm):
        layer, x = self._layer(algorithm)
        stages, _ = self._stages_run_by(lambda: layer(x))
        assert stages == (0 if algorithm == "fp32_direct" else 1)

    @pytest.mark.parametrize("algorithm", FUSED_ALGORITHMS)
    def test_partition_unsafe_plan_runs_serial(self, algorithm):
        layer, x = self._layer(algorithm)
        partitioned = layer(x).copy()
        layer.plan.meta["gemm_partition_safe"] = False
        stages, serial = self._stages_run_by(lambda: layer(x))
        assert stages == 0
        assert serial.tobytes() == partitioned.tobytes()


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

    @pytest.mark.parametrize("algorithm", FUSED_ALGORITHMS)
    def test_no_scratch_engine_matches(self, algorithm, rng):
        """use_scratch=False falls back to fresh buffers, bit-identical."""
        config = EDGE_CONFIGS[-1]
        x, w = make_inputs(config)
        leased = _engine("numpy")
        fresh = ExecutionEngine(cache=PlanCache(capacity=8), use_scratch=False)
        a = leased.layer(w, algorithm, m=config.m, padding=config.padding)(x)
        b = fresh.layer(w, algorithm, m=config.m, padding=config.padding)(x)
        np.testing.assert_array_equal(a, b)


@pytest.mark.concurrency
class TestThreadedBackendConcurrency:
    """8 threads hammer one shared session on the threaded backend; the
    worker pool is simultaneously the GEMM partitioner and the target of
    nested submissions, and every output must stay bitwise serial."""

    THREADS = 8

    def _run_threads(self, n, fn):
        barrier = threading.Barrier(n)
        errors = []

        def body(tid):
            barrier.wait()
            try:
                fn(tid)
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=body, args=(tid,), daemon=True)
                   for tid in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120.0)
        assert not any(t.is_alive() for t in threads), "worker thread wedged"
        if errors:
            raise errors[0]

    def test_shared_session_bitwise_under_stress(self, rng):
        case = ModelCase("resnet", "auto", batch=2, hw=16, width=8, m=2)
        model = build_case_model(case)
        calib = np.maximum(rng.standard_normal((2, 3, 16, 16)), 0)
        quantize_model(model, "auto", m=2, calibration_batches=[calib])
        inputs = [rng.standard_normal((2, 3, 16, 16))
                  for _ in range(self.THREADS)]
        session = InferenceSession(model, (2, 3, 16, 16), backend="threaded")
        expected = [session.run(x) for x in inputs]  # serial warm reference
        results = [[None] * 4 for _ in range(self.THREADS)]

        def body(tid):
            for i in range(4):
                results[tid][i] = session.run(inputs[tid])

        self._run_threads(self.THREADS, body)
        for tid in range(self.THREADS):
            for got in results[tid]:
                np.testing.assert_array_equal(got, expected[tid])

    def test_threaded_layer_repeat_calls_stable(self, rng):
        config = EDGE_CONFIGS[-1]
        x, w = make_inputs(config)
        layer = _engine("threaded").layer(w, "lowino", m=config.m,
                                          padding=config.padding)
        first = layer(x).copy()
        def body(tid):
            for _ in range(8):
                np.testing.assert_array_equal(layer(x), first)
        self._run_threads(self.THREADS, body)
