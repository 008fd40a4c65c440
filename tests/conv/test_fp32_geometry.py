"""Edge-geometry bitwise regressions for the FP32 layer classes.

The fused backend path (PR 10) replays ``Fp32WinogradConv2d`` /
``Fp32DirectConv2d`` op for op, so these tests pin the layers' exact
contracts *before* that path inherits them:

- both layers are bitwise identical to the one-shot reference functions
  (``winograd_conv2d_fp32`` / ``direct_conv2d_fp32``) on the awkward
  geometries -- stride 2 under padding, a single input channel,
  non-square images;
- the direct layer's output shape comes from ``conv_output_shape`` on
  the *unpadded* dims (with the padding argument) while ``im2col`` runs
  over the *padded* input -- double-counting the padding on either side
  shifts the output grid, which these shapes are chosen to expose.
"""

import numpy as np
import pytest

from repro.conv.direct import direct_conv2d_fp32
from repro.conv.fp32 import Fp32DirectConv2d, Fp32WinogradConv2d
from repro.conv.im2col import conv_output_shape, pad_images
from repro.winograd import winograd_algorithm
from repro.winograd.reference import winograd_conv2d_fp32

from tests.rngutil import derive_rng

# (name, batch, c_in, c_out, h, w, padding, stride)
DIRECT_GEOMETRIES = [
    ("stride2_padded", 1, 3, 4, 8, 8, 1, 2),
    ("stride2_padded_nonsquare", 2, 2, 3, 9, 5, 1, 2),
    ("stride2_pad2_odd", 1, 2, 2, 7, 7, 2, 2),
    ("single_channel", 1, 1, 4, 8, 8, 1, 1),
    ("single_channel_strided", 2, 1, 1, 7, 5, 1, 2),
    ("nonsquare", 1, 3, 2, 6, 11, 0, 1),
]

# (name, batch, c_in, c_out, h, w, padding, m)
WINOGRAD_GEOMETRIES = [
    ("single_channel", 1, 1, 4, 8, 8, 1, 2),
    ("single_channel_f4", 1, 1, 2, 8, 8, 1, 4),
    ("nonsquare", 2, 3, 2, 6, 11, 0, 2),
    ("nonsquare_padded_f4", 1, 2, 3, 9, 5, 1, 4),
]


def _inputs(name, batch, c_in, c_out, h, w):
    rng = derive_rng("fp32-geometry", name)
    x = rng.standard_normal((batch, c_in, h, w))
    wts = rng.standard_normal((c_out, c_in, 3, 3)) * np.sqrt(2.0 / (c_in * 9))
    return x, wts


@pytest.mark.parametrize(
    "geom", DIRECT_GEOMETRIES, ids=[g[0] for g in DIRECT_GEOMETRIES]
)
def test_direct_layer_bitwise_vs_reference(geom):
    name, batch, c_in, c_out, h, w, padding, stride = geom
    x, wts = _inputs(name, batch, c_in, c_out, h, w)
    layer = Fp32DirectConv2d(wts, padding=padding, stride=stride)
    ref = direct_conv2d_fp32(x, wts, stride=stride, padding=padding)
    np.testing.assert_array_equal(layer(x), ref)


@pytest.mark.parametrize(
    "geom", WINOGRAD_GEOMETRIES, ids=[g[0] for g in WINOGRAD_GEOMETRIES]
)
def test_winograd_layer_bitwise_vs_reference(geom):
    name, batch, c_in, c_out, h, w, padding, m = geom
    x, wts = _inputs(name, batch, c_in, c_out, h, w)
    layer = Fp32WinogradConv2d(wts, m=m, padding=padding)
    # The one-shot reference is VALID-mode: the caller pads.
    ref = winograd_conv2d_fp32(
        pad_images(np.asarray(x, dtype=np.float64), padding),
        wts,
        winograd_algorithm(m, 3),
    )
    np.testing.assert_array_equal(layer(x), ref)


def test_output_shape_contract_unpadded_dims():
    """``conv_output_shape(h, w, ...)`` is called on the UNPADDED dims
    with the padding argument, while ``im2col`` consumes the padded
    input.  Feeding it padded dims *and* the padding argument would
    double-count: for h=7, p=1, s=2 the correct oh is (7+2-3)//2+1 = 4,
    the double-counted value (9+2-3)//2+1 = 5."""
    x, wts = _inputs("contract", 1, 2, 3, 7, 5)
    layer = Fp32DirectConv2d(wts, padding=1, stride=2)
    y = layer(x)
    assert y.shape == (1, 3, 4, 3)
    assert conv_output_shape(7, 5, 3, stride=2, padding=1) == (4, 3)
    # And the double-counted shape differs, so a regression cannot hide.
    assert conv_output_shape(9, 7, 3, stride=2, padding=1) != (4, 3)


def test_direct_layer_output_is_nhwc_backed():
    """The layer returns a transposed view of a fresh NHWC array; the
    memory order is part of the bitwise contract (downstream pooling
    reductions sum in layout order)."""
    x, wts = _inputs("layout", 1, 2, 3, 6, 6)
    y = Fp32DirectConv2d(wts, padding=1)(x)
    b, k, oh, ow = y.shape
    assert y.strides == (oh * ow * k * 8, 8, ow * k * 8, k * 8)


def test_fused_engine_matches_layer_stride2():
    """The fused fp32_direct kernels honour the same shape contract on
    the engine path, bitwise, including stride 2 under padding."""
    from repro.runtime.cache import PlanCache
    from repro.runtime.engine import ExecutionEngine

    x, wts = _inputs("fused-stride2", 2, 2, 3, 9, 5)
    engine = ExecutionEngine(cache=PlanCache(capacity=64))
    layer = engine.layer(wts, "fp32_direct", padding=1, stride=2)
    np.testing.assert_array_equal(layer(x), layer.reference(x))
