"""The Winograd transform passes, every variant this CPU runs, against
the reference layers' per-tile transforms.

:func:`repro.winograd.transform_2d` (``mat @ tile @ mat.T`` through
BLAS) is the oracle: each pass must equal it byte for byte -- Gaussian
and integer data, single columns (which NumPy would hand to gemv),
padding and tail tiles, infinities -- and its u8 and s16 operands must
equal ``_round_clip + 128`` and the exact integers of that transform.
"""

import threading

import numpy as np
import pytest

from repro import native
from repro.conv._tileops import gemm_result_to_tiles, prepare_input_tiles, tiles_to_gemm_operand
from repro.conv.im2col import pad_images
from repro.conv.upcast import integer_transform_matrices
from repro.runtime.backends import _round_clip
from repro.winograd import assemble_output, transform_2d, winograd_algorithm

VARIANTS = native.VARIANTS


def _input_oracle(alg, x, pad):
    """The reference's ``(T, N, C)`` operand: pad, tiles, per-tile BLAS."""
    tiles, grid = prepare_input_tiles(alg, pad_images(x, pad))
    return tiles_to_gemm_operand(transform_2d(alg.bt, tiles)), grid


def _output_oracle(alg, z, batch, grid):
    """The reference's assembled output of the ``(T, N, K)`` accumulators."""
    tiles = gemm_result_to_tiles(z, batch, grid, z.shape[2])
    return assemble_output(grid, transform_2d(alg.at, tiles))


def _data(rng, kind, shape):
    if kind == "gaussian":
        return rng.standard_normal(shape) * rng.uniform(0.01, 100.0)
    return rng.integers(-255, 256, size=shape).astype(np.float64)


@pytest.mark.parametrize("variant", VARIANTS)
class TestMatchesTransform2d:
    """Both passes against per-tile ``transform_2d`` on one tile per image
    and ``x`` channels: the cases the whole-layer GEMM transform was held
    to, width 1 (the gemv hazard) first.  m = 3 (alpha = 5) runs the
    generic tile transform, the others its unrolled copies."""

    @pytest.mark.parametrize("data", ["gaussian", "integer"])
    @pytest.mark.parametrize("m", [2, 3, 4, 6])
    def test_input_pass(self, variant, m, data):
        rng = np.random.default_rng([m, len(data), 1])
        alg = winograd_algorithm(m, 3)
        a = alg.alpha
        for x in [1, 1, 1, 2, 3, *rng.integers(4, 300, size=3)]:
            d = _data(rng, data, (1, x, a, a))
            got = np.empty((a * a, 1, x))
            native._bind(variant).winograd_input(d, alg.bt, m, 0, got)
            want = transform_2d(alg.bt, d[0]).reshape(x, a * a).T[:, None, :]
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("data", ["gaussian", "integer"])
    @pytest.mark.parametrize("m", [2, 3, 4, 6])
    def test_output_pass(self, variant, m, data):
        rng = np.random.default_rng([m, len(data), 2])
        alg = winograd_algorithm(m, 3)
        a = alg.alpha
        for x in [1, 1, 1, 2, 3, *rng.integers(4, 300, size=3)]:
            z = _data(rng, data, (a * a, 1, x))
            got = np.empty((1, x, m, m))
            native._bind(variant).winograd_output(z, alg.at, got)
            want = transform_2d(alg.at, z[:, 0, :].T.reshape(x, a, a))
            np.testing.assert_array_equal(got[0], want)


#: (B, C, H, W, pad): tail tiles, crops, padding 0-2, channel counts
#: off the 4- and 8-channel blocks, a one-pixel output, and a row wider
#: than one staging block (the passes stage a run of tiles at a time).
GEOMETRIES = [
    (2, 3, 7, 9, 1),
    (1, 1, 3, 3, 0),
    (2, 17, 12, 11, 2),
    (1, 33, 5, 6, 0),
    (3, 8, 16, 16, 1),
    (1, 4, 9, 5, 2),
    (1, 5, 6, 150, 1),
]


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("m", [2, 3, 4, 6])
@pytest.mark.parametrize("geometry", GEOMETRIES, ids=lambda g: "b%d_c%d_%dx%d_p%d" % g)
class TestLayerGeometry:
    def test_input_float64(self, variant, m, geometry, make_rng):
        b, c, h, w, pad = geometry
        alg = winograd_algorithm(m, 3)
        x = make_rng().standard_normal((b, c, h, w)) * 10.0
        want, _ = _input_oracle(alg, x, pad)
        got = native._bind(variant).winograd_input(x, alg.bt, m, pad, np.empty_like(want))
        np.testing.assert_array_equal(got, want)

    def test_input_u8_codes(self, variant, m, geometry, make_rng):
        """Per-position scale, ``+128`` bias; the tail past C untouched."""
        b, c, h, w, pad = geometry
        alg = winograd_algorithm(m, 3)
        rng = make_rng()
        x = rng.standard_normal((b, c, h, w))
        v, _ = _input_oracle(alg, x, pad)
        scale = rng.uniform(1.0, 60.0, size=(alg.alpha**2, 1, 1))
        want = (_round_clip(v, scale, -128, 127, out=np.empty_like(v)) + 128).astype(np.uint8)
        cp = native.padded_k(c)
        got = np.full(v.shape[:2] + (cp,), 7, dtype=np.uint8)
        native._bind(variant).winograd_input(x, alg.bt, m, pad, got, scale=scale)
        np.testing.assert_array_equal(got[..., :c], want)
        assert (got[..., c:] == 7).all()

    def test_input_s16_exact(self, variant, m, geometry, make_rng):
        """The up-casting operand: the integer B^T on integer codes."""
        b, c, h, w, pad = geometry
        alg = winograd_algorithm(m, 3)
        bt = integer_transform_matrices(alg)[0].astype(np.float64)
        x = make_rng().integers(-4, 5, size=(b, c, h, w)).astype(np.float64)
        tiles, _ = prepare_input_tiles(alg, pad_images(x, pad))
        v = tiles_to_gemm_operand(transform_2d(bt, tiles))
        got = np.empty(v.shape[:2] + (native.padded_k(c),), dtype=np.int16)
        native._bind(variant).winograd_input(x, bt, m, pad, got)
        np.testing.assert_array_equal(got[..., :c], v)

    def test_output_float64(self, variant, m, geometry, make_rng):
        b, c, h, w, pad = geometry
        alg = winograd_algorithm(m, 3)
        _, grid = _input_oracle(alg, np.zeros((b, c, h, w)), pad)
        k = c + 2
        z = make_rng().standard_normal((alg.alpha**2, b * grid.tiles_per_image, k))
        want = _output_oracle(alg, z, b, grid)
        got = np.empty((b, k, grid.out_h, grid.out_w))
        native._bind(variant).winograd_output(z, alg.at, got)
        np.testing.assert_array_equal(got, want)

    def test_output_dequantizes_s32(self, variant, m, geometry, make_rng):
        """``z / denom`` -- the reference's own division -- then A^T Z A."""
        b, c, h, w, pad = geometry
        alg = winograd_algorithm(m, 3)
        _, grid = _input_oracle(alg, np.zeros((b, c, h, w)), pad)
        rng = make_rng()
        t, k = alg.alpha**2, c + 1
        z = rng.integers(-(2**31), 2**31, size=(t, b * grid.tiles_per_image, k)).astype(np.int32)
        denom = rng.uniform(0.5, 3000.0, size=(t, 1, k))
        want = _output_oracle(alg, z.astype(np.float64) / denom, b, grid)
        got = np.empty((b, k, grid.out_h, grid.out_w))
        native._bind(variant).winograd_output(z, alg.at, got, np.ascontiguousarray(denom[:, 0]))
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("variant", VARIANTS)
class TestEdgeValues:
    def test_infinities_propagate_like_blas(self, variant, make_rng):
        """Zero coefficients stay in every chain, so ``0 * inf`` makes the
        same NaN the BLAS transform makes."""
        rng = make_rng()
        alg = winograd_algorithm(4, 3)
        x = rng.standard_normal((2, 5, 10, 10))
        x[0, 1, 2, 3], x[1, 4, 9, 0], x[1, 2, 5, 5] = np.inf, -np.inf, np.nan
        with np.errstate(invalid="ignore"):
            want, grid = _input_oracle(alg, x, 1)
        got = native._bind(variant).winograd_input(x, alg.bt, 4, 1, np.empty_like(want))
        assert np.isnan(want).any() and np.isinf(want).any()
        np.testing.assert_array_equal(got, want)
        z = rng.standard_normal((36, 2 * grid.tiles_per_image, 3))
        z[5, 1, 2], z[30, 7, 0] = np.inf, -np.inf
        with np.errstate(invalid="ignore"):
            want = _output_oracle(alg, z, 2, grid)
        got = np.empty((2, 3, grid.out_h, grid.out_w))
        native._bind(variant).winograd_output(z, alg.at, got)
        np.testing.assert_array_equal(got, want)

    def test_u8_nan_raises_and_inf_saturates(self, variant, make_rng):
        alg = winograd_algorithm(2, 3)
        kernels = native._bind(variant)
        out = np.empty((16, 1, 4), dtype=np.uint8)
        x = np.zeros((1, 3, 4, 4))
        x[0, 1, 2, 2] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            kernels.winograd_input(x, alg.bt, 2, 0, out, scale=np.ones(16))
        # Nonzero V times an infinite scale saturates to either end.
        x = make_rng().standard_normal((1, 3, 4, 4))
        kernels.winograd_input(x, alg.bt, 2, 0, out, scale=np.full(16, np.inf))
        want, _ = _input_oracle(alg, x, 0)
        assert not (want == 0).any()
        np.testing.assert_array_equal(out[..., :3], np.where(want > 0, 255, 0))

    def test_s16_overflow_bound_is_the_reference_check(self, variant):
        """|V| = 32767 passes, 32768 (either sign) raises: the reference
        raises when ``max |V| > 32767``."""
        alg = winograd_algorithm(2, 3)
        kernels = native._bind(variant)
        out = np.empty((16, 1, 4), dtype=np.int16)
        # V[0][0] = d00 - d02 - d20 + d22 for B^T of F(2,3).
        for corner, raises in [(32767, False), (32768, True), (-32768, True)]:
            x = np.zeros((1, 1, 4, 4))
            x[0, 0, 0, 0] = corner
            if raises:
                with pytest.raises(OverflowError):
                    kernels.winograd_input(x, alg.bt, 2, 0, out)
            else:
                kernels.winograd_input(x, alg.bt, 2, 0, out)
                assert out[0, 0, 0] == corner

    def test_strided_input(self, variant, make_rng):
        """Channel-last and sliced inputs are read through their strides."""
        alg = winograd_algorithm(4, 3)
        base = make_rng().standard_normal((2, 9, 11, 6))
        x = base.transpose(0, 3, 1, 2)[:, ::2, :, 1:]  # (2, 3, 9, 10) strided
        want, _ = _input_oracle(alg, np.ascontiguousarray(x), 1)
        got = native._bind(variant).winograd_input(x, alg.bt, 4, 1, np.empty_like(want))
        np.testing.assert_array_equal(got, want)

    def test_operands_checked(self, variant):
        alg = winograd_algorithm(2, 3)
        kernels = native._bind(variant)
        x = np.zeros((1, 2, 6, 6))
        with pytest.raises(ValueError):
            kernels.winograd_input(x, alg.bt, 2, 0, np.empty((16, 3, 2)))  # N is 4
        with pytest.raises(ValueError):
            kernels.winograd_input(x, alg.bt, 2, 0, np.empty((16, 4, 2), np.uint8),
                                   scale=np.ones(16), lo=-200)
        with pytest.raises(ValueError):  # int32 accumulators need their denominator
            kernels.winograd_output(np.zeros((16, 4, 2), np.int32), alg.at,
                                    np.empty((1, 2, 4, 4)))


@pytest.mark.concurrency
def test_two_threads_in_one_transform_pass_match_serial(make_rng):
    """ctypes drops the GIL for the call; two threads running both passes
    on one layer's matrices at once get the serial bytes."""
    rng = make_rng()
    alg = winograd_algorithm(4, 3)
    xs = [rng.standard_normal((4, 16, 20, 20)) for _ in range(2)]

    def run(x):
        v = native.winograd_input(x, alg.bt, 4, 1, np.empty((36, 100, 16)))
        return native.winograd_output(v, alg.at, np.empty((4, 16, 20, 20)))

    serial = [run(x) for x in xs]
    barrier = threading.Barrier(2, timeout=60)
    got = [None, None]

    def worker(i):
        barrier.wait()
        for _ in range(10):
            got[i] = run(xs[i])

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
        assert not t.is_alive()
    for want, have in zip(serial, got):
        np.testing.assert_array_equal(have, want)
