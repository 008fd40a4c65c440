"""The native kernels, every variant this CPU runs, against exact integers.

Each GEMM variant must equal the exact int64 matmul reduced modulo 2**32
(what the reference layers' int32 casts compute), on shapes with a tail
in every axis and on operands whose sums wrap; the operand-building
passes must equal ``_round_clip + 128`` and ``im2col`` byte for byte.
"""

import numpy as np
import pytest

from repro import native
from repro.conv.im2col import im2col
from repro.isa import vpdpbusd_array, vpmaddwd_array
from repro.runtime.backends import _round_clip

VARIANTS = native.VARIANTS


def _exact(a, b, init):
    """``init + a @ b`` in int64, reduced modulo 2**32 to int32."""
    z = np.einsum("tmk,tkn->tmn", a.astype(np.int64), b.astype(np.int64))
    return (z + init[:, None, :]).astype(np.int32)


def _run(variant, a, b, init):
    """The variant's GEMM on unpadded ``a`` (T, M, K) and ``b`` (T, K, N)."""
    t, m, k = a.shape
    padded = np.zeros((t, m, native.padded_k(k)), dtype=a.dtype)
    padded[..., :k] = a
    out = np.empty((t, m, b.shape[2]), dtype=np.int32)
    kernels = native._bind(variant)
    gemm = kernels.gemm_u8s8 if a.dtype == np.uint8 else kernels.gemm_s16s16
    return gemm(padded, native.pack_b(b), init, out)


#: (T, M, K, N): K % 4 in {1, 2, 3}, N off the 16-column block, M off
#: both row blocks (6 for avx512_vnni, 4 for avx2), T up to 36, M = 0.
SHAPES = [
    (1, 13, 5, 17),
    (1, 7, 6, 3),
    (16, 11, 7, 33),
    (36, 5, 9, 16),
    (36, 25, 144, 70),
    (1, 1, 1, 1),
    (1, 0, 8, 16),
    (16, 0, 3, 5),
]


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "t%d_m%d_k%d_n%d" % s)
class TestGemmVariants:
    def test_u8s8_matches_exact(self, variant, shape, make_rng):
        t, m, k, n = shape
        rng = make_rng()
        a = rng.integers(0, 256, (t, m, k)).astype(np.uint8)
        b = rng.integers(-128, 128, (t, k, n)).astype(np.int8)
        init = rng.integers(-(2**31), 2**31, (t, n)).astype(np.int32)
        np.testing.assert_array_equal(_run(variant, a, b, init), _exact(a, b, init))

    def test_s16s16_matches_exact(self, variant, shape, make_rng):
        t, m, k, n = shape
        rng = make_rng()
        a = rng.integers(-(2**15), 2**15, (t, m, k)).astype(np.int16)
        b = rng.integers(-(2**15), 2**15, (t, k, n)).astype(np.int16)
        init = rng.integers(-(2**31), 2**31, (t, n)).astype(np.int32)
        np.testing.assert_array_equal(_run(variant, a, b, init), _exact(a, b, init))


@pytest.mark.parametrize("variant", VARIANTS)
class TestExtremeOperands:
    def test_u8s8_sum_wraps_like_vpdpbusd(self, variant):
        """255 x -128 over K = 70001: the true sum is below -2**31."""
        k = 70001
        a = np.full((1, 3, k), 255, dtype=np.uint8)
        b = np.full((1, k, 17), -128, dtype=np.int8)
        init = np.zeros((1, 17), dtype=np.int32)
        got = _run(variant, a, b, init)
        assert 255 * -128 * k < -(2**31)
        np.testing.assert_array_equal(got, _exact(a, b, init))
        np.testing.assert_array_equal(got[0], vpdpbusd_array(a[0][:, None, :], b[0].T[None]))

    def test_s16_pairs_of_min_wrap_like_vpmaddwd(self, variant):
        """(-32768)**2 * 2 = 2**31 overflows one 32-bit lane; the sum is
        still right modulo 2**32."""
        a = np.full((1, 5, 6), -32768, dtype=np.int16)
        b = np.full((1, 6, 19), -32768, dtype=np.int16)
        init = np.full((1, 19), 7, dtype=np.int32)
        got = _run(variant, a, b, init)
        np.testing.assert_array_equal(got, _exact(a, b, init))
        np.testing.assert_array_equal(
            got[0] - 7, vpmaddwd_array(a[0][:, None, :], b[0].T[None])
        )

    def test_init_wraps(self, variant):
        a = np.full((1, 2, 4), 255, dtype=np.uint8)
        b = np.full((1, 4, 16), 127, dtype=np.int8)
        init = np.full((1, 16), 2**31 - 1, dtype=np.int32)
        np.testing.assert_array_equal(_run(variant, a, b, init), _exact(a, b, init))


class TestQuantizePad:
    def _reference(self, x, scale, pad):
        codes = np.empty_like(x)
        _round_clip(x, scale, -128, 127, out=codes)
        codes = np.pad(codes, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
        return (codes + 128).astype(np.uint8)

    @pytest.mark.parametrize("pad", [0, 1, 2])
    def test_matches_round_clip(self, pad, make_rng):
        rng = make_rng()
        x = rng.standard_normal((2, 3, 5, 7)) * 40.0
        # Half-way ties (both parities, both signs), the clip edges, +-inf.
        x.flat[:12] = [0.5, 1.5, 2.5, -0.5, -1.5, -2.5, 126.5, 127.5, -128.5,
                       np.inf, -np.inf, -0.0]
        out = np.empty((2, 3, 5 + 2 * pad, 7 + 2 * pad), dtype=np.uint8)
        native.quantize_pad_u8(x, 1.0, -128, 127, pad, out)
        np.testing.assert_array_equal(out, self._reference(x, 1.0, pad))

    def test_strided_channel_last_input(self, make_rng):
        """The NHWC-backed outputs of the direct pipelines feed it as is."""
        x = make_rng().standard_normal((2, 6, 5, 4)).transpose(0, 3, 1, 2)  # NHWC memory
        out = np.empty((2, 4, 8, 7), dtype=np.uint8)
        native.quantize_pad_u8(x, 33.3, -128, 127, 1, out)
        np.testing.assert_array_equal(out, self._reference(x, 33.3, 1))

    def test_nan_raises(self):
        x = np.zeros((1, 1, 3, 3))
        x[0, 0, 1, 2] = np.nan
        out = np.empty((1, 1, 3, 3), dtype=np.uint8)
        with pytest.raises(ValueError, match="NaN"):
            native.quantize_pad_u8(x, 1.0, -128, 127, 0, out)


class TestIm2col:
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("pad", [0, 1])
    @pytest.mark.parametrize("r", [1, 3, 5])
    def test_matches_im2col(self, r, pad, stride, make_rng):
        x = make_rng().integers(0, 256, (2, 3, 9 + 2 * pad, 8 + 2 * pad)).astype(np.uint8)
        ref = im2col(x, r, stride=stride)
        kp = native.padded_k(ref.shape[1])
        out = np.full((ref.shape[0], kp), 77, dtype=np.uint8)
        native.im2col_u8(x, r, stride, out)
        np.testing.assert_array_equal(out[:, : ref.shape[1]], ref)
        assert not out[:, ref.shape[1]:].any()


def test_pack_b_layout():
    """Element (t, k, n) lands at block n // 16, group k // P, lane n % 16."""
    b = (np.arange(2 * 7 * 20) % 251 - 125).astype(np.int8).reshape(2, 7, 20)
    packed = native.pack_b(b)
    assert packed.shape == (2, 2, 2, 16, 4)
    for t, k, n in [(0, 0, 0), (1, 6, 19), (0, 5, 16), (1, 3, 7)]:
        assert packed[t, n // 16, k // 4, n % 16, k % 4] == b[t, k, n]
    assert not packed[:, 1, :, 4:].any() and not packed[:, :, 1, :, 3].any()


def test_variant_is_the_best_supported():
    assert native.VARIANT == VARIANTS[0]
    assert VARIANTS[-1] == "c"
    assert set(VARIANTS) <= {"avx512_vnni", "avx2", "c"}
