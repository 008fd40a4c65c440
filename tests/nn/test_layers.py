"""Layer library against manual references."""

import numpy as np
import pytest

from repro.conv import direct_conv2d_fp32
from repro.nn import (
    Conv2d,
    Flatten,
    GlobalAvgPool,
    Linear,
    MaxPool2d,
    ReLU,
    fold_batchnorm,
)


class TestConv2d:
    def test_fp32_forward(self, rng):
        w = rng.standard_normal((4, 3, 3, 3))
        b = rng.standard_normal(4)
        x = rng.standard_normal((2, 3, 8, 8))
        layer = Conv2d(w, b, padding=1)
        ref = direct_conv2d_fp32(x, w, padding=1) + b[None, :, None, None]
        assert np.allclose(layer(x), ref)

    def test_default_zero_bias(self, rng):
        w = rng.standard_normal((4, 3, 3, 3))
        layer = Conv2d(w)
        assert np.all(layer.bias == 0)

    def test_bias_shape_check(self, rng):
        with pytest.raises(ValueError):
            Conv2d(rng.standard_normal((4, 3, 3, 3)), bias=np.zeros(5))

    def test_engine_swap(self, rng):
        w = rng.standard_normal((4, 3, 3, 3)) * 0.1
        x = np.maximum(rng.standard_normal((1, 3, 8, 8)), 0)
        layer = Conv2d(w, padding=1)
        fp32_out = layer(x)
        layer.engine = lambda images: direct_conv2d_fp32(images, w, padding=1)
        assert layer.is_quantized
        assert np.allclose(layer(x), fp32_out)


class TestActivationsAndPooling:
    def test_relu(self, rng):
        x = rng.standard_normal((2, 3, 4, 4))
        assert np.array_equal(ReLU()(x), np.maximum(x, 0))

    def test_maxpool(self):
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        out = MaxPool2d(2)(x)
        assert out.shape == (1, 1, 2, 2)
        assert np.array_equal(out[0, 0], [[5, 7], [13, 15]])

    def test_maxpool_truncates_odd(self, rng):
        x = rng.standard_normal((1, 2, 5, 5))
        assert MaxPool2d(2)(x).shape == (1, 2, 2, 2)

    def test_maxpool_invalid_size(self):
        with pytest.raises(ValueError):
            MaxPool2d(0)

    def test_global_avg_pool(self, rng):
        x = rng.standard_normal((2, 3, 4, 4))
        out = GlobalAvgPool()(x)
        assert out.shape == (2, 3, 1, 1)
        assert np.allclose(out[1, 2, 0, 0], x[1, 2].mean())

    def test_flatten(self, rng):
        assert Flatten()(rng.standard_normal((2, 3, 4, 4))).shape == (2, 48)


def _reshape_max(x, s):
    """The reshape-and-reduce max-pool ``MaxPool2d`` computed before it
    took the max over strided slices, kept as the oracle."""
    b, c, h, w = x.shape
    x = x[:, :, : h - h % s, : w - w % s]
    b, c, h, w = x.shape
    return x.reshape(b, c, h // s, s, w // s, s).max(axis=(3, 5))


class TestMaxPoolOracle:
    @pytest.mark.parametrize("layout", ["nchw", "nhwc"])
    @pytest.mark.parametrize("hw", [(6, 6), (7, 9), (12, 5)])
    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_matches_reshape_max(self, s, hw, layout):
        rng = np.random.default_rng([s, *hw, len(layout)])
        x = rng.standard_normal((2, 3, *hw))
        x[rng.random(x.shape) < 0.1] = np.nan
        if layout == "nhwc":  # an int8_direct output: NHWC-backed view
            x = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
        got, want = MaxPool2d(s)(x), _reshape_max(x, s)
        # Equal values with NaN in the same positions ...
        np.testing.assert_array_equal(got, want)
        # ... in the same memory order: GlobalAvgPool sums in that order.
        assert got.strides == want.strides
        assert not np.shares_memory(got, x)

    @pytest.mark.parametrize("s", [2, 3])
    def test_signed_zero_windows(self, s):
        """Windows of mixed +-0 may return either sign; values compare
        equal."""
        rng = np.random.default_rng(s)
        x = np.where(rng.random((4, 5, 9, 9)) < 0.5, 0.0, -0.0)
        got = MaxPool2d(s)(x)
        assert np.array_equal(got, _reshape_max(x, s))
        assert not got.any()


class TestLinear:
    def test_forward(self, rng):
        w = rng.standard_normal((5, 7))
        b = rng.standard_normal(5)
        x = rng.standard_normal((3, 7))
        assert np.allclose(Linear(w, b)(x), x @ w.T + b)

    def test_shape_check(self, rng):
        with pytest.raises(ValueError):
            Linear(rng.standard_normal((5, 7)))(rng.standard_normal((3, 6)))


class TestBatchNormFolding:
    def test_folded_equals_explicit_bn(self, rng):
        w = rng.standard_normal((4, 3, 3, 3))
        bias = rng.standard_normal(4)
        gamma = rng.uniform(0.5, 1.5, 4)
        beta = rng.standard_normal(4)
        mean = rng.standard_normal(4)
        var = rng.uniform(0.5, 2.0, 4)
        x = rng.standard_normal((2, 3, 6, 6))

        conv = direct_conv2d_fp32(x, w, padding=1) + bias[None, :, None, None]
        bn = (conv - mean[None, :, None, None]) / np.sqrt(
            var[None, :, None, None] + 1e-5
        ) * gamma[None, :, None, None] + beta[None, :, None, None]

        fw, fb = fold_batchnorm(w, bias, gamma, beta, mean, var)
        folded = direct_conv2d_fp32(x, fw, padding=1) + fb[None, :, None, None]
        assert np.allclose(folded, bn, atol=1e-10)
