"""Fused convolution pipelines.

The paper's central engineering claim (Section 4) is that low-precision
Winograd only pays off when transform / quantize / GEMM / dequantize run
as one tight pipeline instead of four separate whole-tensor passes.
This module is that pipeline.  LoWino (Fig. 3), the up-casting and
down-scaling baselines (Fig. 2a/2b) and their FP32 twin share the
``B^T d B`` input pass into the ``(T, N, C)`` GEMM layout, the batched
GEMM and the ``A^T Z A`` output pass out of it; they differ only in
where quantization sits.  So each algorithm is one short pipeline
function (:data:`PIPELINES`) composed from shared stage primitives:

* :func:`_transform_in` -- the native input pass
  (:func:`repro.native.winograd_input`): it gathers tiles straight from
  the unpadded image (padding and the tile grid's tail read as zero),
  applies ``B^T d B`` and writes the GEMM operand in its final dtype --
  float64 for the FP32 twin and uncalibrated LoWino, u8 codes (``+128``)
  for calibrated LoWino and the down-scaling baseline, s16 for the
  up-casting one; :func:`_spatial_codes` quantizes the spatial-domain
  schemes' input first, :func:`_pad` + :func:`_im2col` serve
  ``fp32_direct``;
* :func:`_codes` -- uncalibrated LoWino's u8 operand from the float
  one, after its per-call min/max params;
* :func:`_int_gemm` -- the quantized GEMM in :mod:`repro.native`:
  ``init + A . B`` in s32 against the plan's packed filter, ``init``
  carrying the Eq. 9 compensation; :func:`_gemm` (one ``np.matmul``)
  for the FP32 pipelines;
* :func:`_transform_out` -- the native output pass
  (:func:`repro.native.winograd_output`): it dequantizes the s32
  accumulators by the reference's denominator (or takes the float64
  ones), applies ``A^T Z A`` and assembles a fresh output;
  :func:`_nhwc_restore` for ``fp32_direct``;
* :func:`epilogue` -- the compiled graph's bias/ReLU, in place.

``int8_direct`` builds its whole u8 operand natively: a quantize-pad
pass into a 128-bordered u8 image, a u8 im2col, the GEMM, then one
dequantizing divide straight into the NHWC-backed output.

Every intermediate lands in the call's leased scratch via ``out=``
targets, every output is a fresh array, and each pipeline laps the
tracer at the same stage boundaries as the reference layers' stages
(calibrated LoWino's fused pass is its ``input_transform`` lap).
The engine (:class:`~repro.runtime.engine.ExecutionEngine`) owns the
scratch pool and builds the call's tile grid; it hands the lease in
through a :class:`FusedCall` and the tile grid as an argument.

Multi-core execution in the paper's sense (Section 4.4: independent
tile tasks, statically partitioned over cores) happens inside each
native call: :mod:`repro.native`'s thread team splits the transform
passes over (image, tile row), the integer GEMMs over T planes (rows
when T = 1) and ``int8_direct``'s operand passes over images, and every
chunk writes its own outputs with the serial arithmetic.  The FP32
twins' ``np.matmul`` stays on BLAS's own threads.

Bit-identity contract
---------------------
Every pipeline must be bit-identical to the reference layers.  The
fused stages get away with skipping the reference's intermediate
materializations because each skip is an exact no-op:

- *Integer GEMMs wrap like the reference*: products and sums of integer
  codes are exact in integer arithmetic, and s32 addition wraps modulo
  2**32 -- exactly what the reference layers' ``astype(np.int32)``
  computes, in any summation order.  The +128 bias on u8 activations
  is removed by the compensation in ``init`` modulo 2**32 as well.
  Spatial codes travel as exact integers in float64 (the values of
  :func:`_round_clip`), the integer ``B^T d B`` of them is exact in any
  order, and the s16 pass counts every value past INT16 -- the
  reference's own OverflowError condition -- so its cast is exact.
- *Float transforms replay the reference's arithmetic*: the native
  passes compute each transform element as the two fma chains OpenBLAS
  computes for the reference's per-tile ``transform_2d`` (from +0, in
  the same order, zero coefficients included), so the FP32 stages
  match bitwise; quantization is ``_round_clip``'s, bit for bit, and
  dequantization divides the s32 accumulators by the reference's own
  denominator.
- *In-place epilogue*: ``out += bias`` then ``np.maximum(out, 0.0,
  out=out)`` on the fresh output computes exactly
  ``np.maximum(out + bias, 0.0)``.

NaN activations raise :class:`ValueError` on every quantized pipeline:
an integer code cannot carry NaN (the reference layers' casts turn it
into an arbitrary integer).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .. import native
from ..conv.im2col import conv_output_shape, im2col
from ..quant import QuantParams, per_position_minmax_params, spatial_params_from_tensor

__all__ = [
    "FUSED_ALGORITHMS",
    "PIPELINES",
    "FusedCall",
    "epilogue",
]

_INT8_MIN = int(np.iinfo(np.int8).min)
_INT8_MAX = int(np.iinfo(np.int8).max)


class FusedCall:
    """The scratch lease and tracer lap clock of one fused call.

    ``buf`` returns a leased scratch buffer, so every stage has an
    ``out=`` target.
    """

    __slots__ = ("arena", "tracer", "t_lap")

    def __init__(self, arena, tracer, t_lap: float) -> None:
        self.arena = arena
        self.tracer = tracer
        self.t_lap = t_lap

    def buf(self, name: str, shape, dtype) -> np.ndarray:
        return self.arena.buf(name, tuple(shape), dtype)

    def lap(self, stage: str) -> None:
        if self.tracer is not None:
            self.t_lap = self.tracer.lap(stage, self.t_lap)


# -- stage primitives --------------------------------------------------
def _round_clip(x: np.ndarray, scale, lo, hi, out: np.ndarray) -> np.ndarray:
    """``clip(rint(x * scale), lo, hi)`` into ``out``: the reference's
    integer codes, carried exactly in float (no int8 materialization)."""
    np.multiply(x, scale, out=out)
    np.rint(out, out=out)
    return np.clip(out, lo, hi, out=out)


def _spatial_params(layer, images: np.ndarray) -> QuantParams:
    """Input quantization params of the spatial-domain algorithms."""
    if layer.input_threshold is not None:
        return QuantParams.from_threshold(layer.input_threshold, bits=layer.bits)
    return spatial_params_from_tensor(images, bits=layer.bits)


def _pad(call: FusedCall, images: np.ndarray, padding: int) -> np.ndarray:
    """Zero-pad into leased scratch (replaces the fresh allocation of
    ``pad_images``); input that needs no padding is returned as is."""
    if padding == 0:
        return images
    b, c, h, w = images.shape
    p = padding
    xp = call.buf("xpad", (b, c, h + 2 * p, w + 2 * p), np.float64)
    xp[:, :, :p, :] = 0.0
    xp[:, :, h + p :, :] = 0.0
    xp[:, :, p : h + p, :p] = 0.0
    xp[:, :, p : h + p, w + p :] = 0.0
    np.copyto(xp[:, :, p : h + p, p : w + p], images)
    return xp


def _spatial_codes(call: FusedCall, images: np.ndarray, params: QuantParams) -> np.ndarray:
    """The spatial-domain schemes' integer codes of ``images``, exactly
    in float64 in leased scratch (the transform pass pads them)."""
    xq = call.buf("xq", images.shape, np.float64)
    return _round_clip(images, params.scale, params.qmin, params.qmax, out=xq)


def _transform_in(
    call: FusedCall, images: np.ndarray, grid, bt: np.ndarray, padding: int, dtype, **quant
) -> np.ndarray:
    """``B^T d B`` of every tile as the GEMM operand, in one native pass
    (:func:`repro.native.winograd_input`, which takes ``quant``) over the
    unpadded ``images``: float64 ``(T, N, C)``, or ``(T, N, Cp)`` u8
    codes (``+128``) or s16.  Raises like the pass: :class:`ValueError`
    on a NaN code, :class:`OverflowError` on an s16 value past INT16."""
    b, c = images.shape[:2]
    cols = c if dtype == np.float64 else native.padded_k(c)
    shape = (grid.alpha * grid.alpha, b * grid.tiles_per_image, cols)
    out = call.buf("v" if dtype == np.float64 else "a", shape, dtype)
    return native.winograd_input(images, bt, grid.m, padding, out, **quant)


def _im2col(call: FusedCall, layer, x: np.ndarray, images: np.ndarray):
    """float64 im2col lowering of the padded input; returns ``(cols, oh, ow)``.

    The output shape comes from the *unpadded* dims with the padding
    argument, while im2col consumes the padded input -- the reference
    layers' contract.
    """
    b, c, h, w = images.shape
    r = layer.filters_fp32.shape[2]
    oh, ow = conv_output_shape(h, w, r, stride=layer.stride, padding=layer.padding)
    cols = call.buf("cols", (b * oh * ow, c * r * r), np.float64)
    return im2col(x, r, stride=layer.stride, out=cols), oh, ow


def _gemm(call: FusedCall, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` into the leased accumulator buffer (the FP32 pipelines).

    ``a`` is the ``(T, N, C)`` Winograd operand (``b`` then
    ``(T, C, K)``) or the 2D im2col matrix (``b`` then 2D).
    """
    return np.matmul(a, b, out=call.buf("z", a.shape[:-1] + b.shape[-1:], a.dtype))


def _codes(call: FusedCall, v: np.ndarray, dtype, offset: float) -> np.ndarray:
    """The integer codes ``v + offset`` as ``dtype`` in the ``(T, N, Cp)``
    GEMM operand.

    ``v`` holds exact integers in float64 (the output of
    :func:`_round_clip` or of the integer transform), so the cast is
    exact.  Columns past ``C`` are left as they are: the packed filter's
    padding rows are zero.  NaN cannot become a code; the cast's invalid
    flag turns it into :class:`ValueError` at no extra pass.
    """
    t, n, c = v.shape
    a = call.buf("a", (t, n, native.padded_k(c)), dtype)
    try:
        with np.errstate(invalid="raise"):
            np.add(v, offset, out=a[..., :c], casting="unsafe")
    except FloatingPointError:
        raise ValueError("NaN activations reached a quantized convolution") from None
    return a


def _int_gemm(call: FusedCall, plan, a: np.ndarray) -> np.ndarray:
    """``init + a @ b`` in s32 (wrapping) through the native kernel:
    ``a`` is u8 or s16 ``(T, M, Kp)``, ``b`` and ``init`` are the plan's
    packed filter and compensation."""
    b, init = plan.operands["b_packed"], plan.operands["init"]
    z = call.buf("z_i32", a.shape[:2] + init.shape[1:], np.int32)
    gemm = native.gemm_u8s8 if a.dtype == np.uint8 else native.gemm_s16s16
    return gemm(a, b, init, z)


def _transform_out(
    call: FusedCall, z: np.ndarray, batch: int, grid, at: np.ndarray, denom=None
) -> np.ndarray:
    """``A^T Z A`` of the ``(T, N, K)`` accumulators, assembled into a
    fresh C-contiguous ``(B, K, out_h, out_w)`` output in one native pass
    (:func:`repro.native.winograd_output`); s32 ``z`` is dequantized on
    the way as ``z / denom``, ``denom`` the reference's own denominator
    broadcast to ``(T, K)``.

    The output's memory order matches the reference's
    ``assemble_output``: downstream reductions (pooling means) sum in
    layout order.
    """
    t, _, k = z.shape
    if denom is not None:
        denom = np.ascontiguousarray(np.broadcast_to(denom, (t, 1, k)).reshape(t, k))
    out = np.empty((batch, k, grid.out_h, grid.out_w))
    return native.winograd_output(z, at, out, denom)


def _nhwc_restore(z: np.ndarray, batch: int, oh: int, ow: int) -> np.ndarray:
    """Copy the ``(B*oh*ow, K)`` result out of the lease *preserving the
    reference's memory order*: the eager layers return an NHWC-backed
    transposed view, and downstream reductions (pooling means) sum in
    layout order, so a C-contiguous output would change their rounding.
    """
    out = np.empty((batch, oh, ow, z.shape[1]), dtype=np.float64)
    np.copyto(out, z.reshape(out.shape))
    return out.transpose(0, 3, 1, 2)


def epilogue(
    call: FusedCall, out: np.ndarray, bias: Optional[np.ndarray], relu: bool
) -> np.ndarray:
    """Fused bias + ReLU, in place on the per-call output (bitwise
    ``np.maximum(out + bias, 0.0)``)."""
    if bias is None and not relu:
        return out
    if bias is not None:
        out += bias[None, :, None, None]
    if relu:
        np.maximum(out, 0.0, out=out)
    call.lap("epilogue")
    return out


# -- pipelines ---------------------------------------------------------
# Each takes (call, plan, images, grid) -- ``grid`` is the
# call's tile grid, None for the direct algorithms -- and returns the
# output before the epilogue.
def _lowino(call: FusedCall, plan, images: np.ndarray, grid) -> np.ndarray:
    """Winograd-domain quantization (Fig. 3): input_transform (with
    quantize, once calibrated) -> gemm -> output_transform."""
    layer = plan.layer
    params = layer.input_params
    if params is None:
        # Per-call min/max params need the whole float operand first.
        v = _transform_in(call, images, grid, layer.alg.bt, layer.padding, np.float64)
        call.lap("input_transform")
        params = per_position_minmax_params(v, position_axis=0, bits=layer.bits)
        _round_clip(v, params.scale, params.qmin, params.qmax, out=v)
        a = _codes(call, v, np.uint8, 128.0)  # +128 bias of Section 4.2.1
        call.lap("quantize")
    else:
        # Transform, quantize and the +128 bias in one pass.
        a = _transform_in(call, images, grid, layer.alg.bt, layer.padding, np.uint8,
                          scale=params.scale, lo=params.qmin, hi=params.qmax)
        call.lap("input_transform")
    z = _int_gemm(call, plan, a)  # init = zbar, Eq. 9
    call.lap("gemm")
    # De-quantize (Eq. 6) by the (T, 1, K) scale on the way out.
    out = _transform_out(call, z, images.shape[0], grid, layer.alg.at,
                         params.scale * layer.filter_params.scale)
    call.lap("output_transform")
    return out


def _int8_upcast(call: FusedCall, plan, images: np.ndarray, grid) -> np.ndarray:
    """Spatial quantization with an INT16 multiply (Fig. 2a): quantize ->
    input_transform -> gemm -> output_transform."""
    layer = plan.layer
    params = _spatial_params(layer, images)
    x = _spatial_codes(call, images, params)
    call.lap("quantize")
    # Exact on the integer codes; raises the reference's OverflowError
    # where a transformed value leaves INT16.
    a = _transform_in(call, x, grid, plan.operands["bt_f64"], layer.padding, np.int16)
    call.lap("input_transform")
    z = _int_gemm(call, plan, a)
    call.lap("gemm")
    k = z.shape[2]
    denom = (
        params.scale
        * layer.weight_params.scale.reshape(1, 1, k)
        * (layer.bt_lcm**2)
        * layer.filter_scale
    )
    out = _transform_out(call, z, images.shape[0], grid, layer.alg.at, denom)
    call.lap("output_transform")
    return out


def _int8_downscale(call: FusedCall, plan, images: np.ndarray, grid) -> np.ndarray:
    """Spatial quantization with an INT8 multiply (Fig. 2b): quantize ->
    input_transform -> gemm -> output_transform."""
    layer = plan.layer
    params = _spatial_params(layer, images)
    x = _spatial_codes(call, images, params)
    call.lap("quantize")
    # Down-scale + round, the lossy step of Figure 2b -- the reference's
    # saturate_cast(..., int8), elementwise on the exact transform --
    # then the +128 bias that the plan's compensation removes again.
    a = _transform_in(call, x, grid, plan.operands["bt_f64"], layer.padding, np.uint8,
                      scale=layer.input_downscale / (layer.bt_lcm**2), lo=_INT8_MIN,
                      hi=_INT8_MAX)
    call.lap("input_transform")
    z = _int_gemm(call, plan, a)
    call.lap("gemm")
    k = z.shape[2]
    denom = (
        params.scale
        * layer.input_downscale
        * layer.weight_params.scale.reshape(1, 1, k)
        * layer.filter_downscale
    )
    out = _transform_out(call, z, images.shape[0], grid, layer.alg.at, denom)
    call.lap("output_transform")
    return out


def _int8_direct(call: FusedCall, plan, images: np.ndarray, grid) -> np.ndarray:
    """im2col lowering: quantize (+128, padded, u8) -> input_transform
    (u8 im2col) -> gemm -> output_transform (dequant into the NHWC-backed
    output)."""
    layer = plan.layer
    params = _spatial_params(layer, images)
    b, c, h, w = images.shape
    p, r = layer.padding, layer.filters_fp32.shape[2]
    xq = native.quantize_pad_u8(
        images, params.scale, params.qmin, params.qmax, p,
        out=call.buf("xq", (b, c, h + 2 * p, w + 2 * p), np.uint8),
    )
    call.lap("quantize")
    oh, ow = conv_output_shape(h, w, r, stride=layer.stride, padding=p)
    cols = call.buf("cols", (1, b * oh * ow, native.padded_k(c * r * r)), np.uint8)
    native.im2col_u8(xq, r, layer.stride, out=cols[0])
    call.lap("input_transform")
    z = _int_gemm(call, plan, cols)[0]  # init = -128 * sum(w)
    call.lap("gemm")
    k = z.shape[1]
    # Dequantize straight into the fresh output, preserving the
    # reference's NHWC-backed memory order (see _nhwc_restore).
    out = np.empty((b, oh, ow, k), dtype=np.float64)
    np.divide(z, params.scale * layer.weight_params.scale.reshape(1, k), out=out.reshape(z.shape))
    call.lap("output_transform")
    return out.transpose(0, 3, 1, 2)


def _fp32_winograd(call: FusedCall, plan, images: np.ndarray, grid) -> np.ndarray:
    """Full-precision Winograd baseline (Eq. 1), replaying
    ``Fp32WinogradConv2d.__call__``: input_transform -> gemm ->
    output_transform."""
    layer = plan.layer
    v = _transform_in(call, images, grid, layer.alg.bt, layer.padding, np.float64)
    call.lap("input_transform")
    z = _gemm(call, v, plan.operands["u_f64"])
    call.lap("gemm")
    out = _transform_out(call, z, images.shape[0], grid, layer.alg.at)
    call.lap("output_transform")
    return out


def _fp32_direct(call: FusedCall, plan, images: np.ndarray, grid) -> np.ndarray:
    """Full-precision im2col baseline, replaying
    ``Fp32DirectConv2d.__call__``: input_transform (pad + im2col) ->
    gemm -> output_transform (NHWC restore)."""
    layer = plan.layer
    cols, oh, ow = _im2col(call, layer, _pad(call, images, layer.padding), images)
    call.lap("input_transform")
    z = _gemm(call, cols, plan.operands["w_f64"].T)
    call.lap("gemm")
    out = _nhwc_restore(z, images.shape[0], oh, ow)
    call.lap("output_transform")
    return out


#: The fused pipeline of each algorithm the engine executes -- the four
#: quantized pipelines plus the two FP32 baselines (whose offline state
#: still lives on the layer objects; the pipelines replay the layers'
#: exact op sequences against plan-cached operands).
PIPELINES = {
    "lowino": _lowino,
    "int8_upcast": _int8_upcast,
    "int8_downscale": _int8_downscale,
    "int8_direct": _int8_direct,
    "fp32_winograd": _fp32_winograd,
    "fp32_direct": _fp32_direct,
}

FUSED_ALGORITHMS = tuple(PIPELINES)

