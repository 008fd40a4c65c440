"""LoWino: low-precision Winograd convolution with Winograd-domain
quantization (the paper's core contribution, Sections 3 and 4).

Pipeline per forward pass (Figure 3):

1. extract overlapping FP32 input tiles;
2. **input transform in FP32** -- ``V = B^T d B`` (this is what
   distinguishes LoWino from the baselines: the range amplification
   happens *before* quantization, so no overflow and no down-scaling);
3. quantize ``V`` per tile position with calibrated thresholds (Eq. 4),
   add the +128 bias -> UINT8 GEMM operand (Section 4.2.1);
4. batched INT8 GEMM with the ``Zbar`` filter-side compensation (Eq. 9),
   over the blocked Table 1 layouts;
5. de-quantize the INT32 accumulators (Eq. 6) and apply the FP32 output
   transform ``y = A^T Z A``;
6. assemble output tiles.

Filters are handled entirely offline: FP32 filter transform, quantization
per (tile position, output channel), and compensation-term precompute.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from ..conv._tileops import gemm_result_to_tiles, prepare_input_tiles, tiles_to_gemm_operand
from ..conv.im2col import pad_images
from ..gemm import (
    BlockingParams,
    batched_gemm_blocked,
    compensation_term,
    default_blocking,
)
from ..layout import pack_transformed_filters, pack_transformed_inputs
from ..quant import (
    QuantParams,
    WinogradDomainCalibrator,
    quantize,
    scale_for_threshold,
)
from ..winograd import (
    WinogradAlgorithm,
    assemble_output,
    filter_transform,
    input_transform,
    output_transform,
    winograd_algorithm,
)

__all__ = ["LoWinoConv2d"]


def _filter_params_per_position_channel(u: np.ndarray, bits: int) -> QuantParams:
    """Scales of shape (T, 1, K) for a (T, C, K) transformed filter."""
    tau = np.abs(u).max(axis=1, keepdims=True)  # (T, 1, K)
    tau = np.where(tau > 0, tau, 1.0)
    return QuantParams(scale=scale_for_threshold(tau, bits=bits), bits=bits)


@dataclass
class LoWinoConv2d:
    """A single LoWino convolutional layer.

    Parameters
    ----------
    filters_fp32:
        ``(K, C, r, r)`` FP32 filters from the pretrained model.
    m:
        Winograd output tile size (2 -> F(2x2,3x3), 4 -> F(4x4,3x3), ...).
    padding:
        Symmetric spatial zero padding.
    calibration_method:
        ``'kl'`` (Eq. 7, default) or ``'minmax'`` for the input-threshold
        search; only used after :meth:`calibrate`.
    use_blocked_gemm:
        If True, run the GEMM through the Table 1 blocked layouts and the
        cache-blocked executor (bit-identical, slower in NumPy); if False
        (default) use the fused vectorized contraction.
    blocking:
        Optional explicit :class:`BlockingParams` for the blocked path.

    Calibration
    -----------
    Call :meth:`calibrate` with an iterable of NCHW sample batches to fix
    per-position input thresholds offline (the paper's ~500-image
    calibration pass).  Without calibration the layer falls back to
    dynamic per-batch min/max quantization.
    """

    filters_fp32: np.ndarray
    m: int = 4
    padding: int = 0
    bits: int = 8
    calibration_method: str = "kl"
    use_blocked_gemm: bool = False
    blocking: Optional[BlockingParams] = None
    input_params: Optional[QuantParams] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self.filters_fp32 = np.asarray(self.filters_fp32, dtype=np.float64)
        k, c, r, r2 = self.filters_fp32.shape
        if r != r2:
            raise ValueError("only square filters supported")
        self.alg: WinogradAlgorithm = winograd_algorithm(self.m, r)
        t = self.alg.tile_elements
        # --- offline filter path (Section 4.2.2) ---
        u = filter_transform(self.alg, self.filters_fp32)  # (K, C, a, a) FP32
        u = np.ascontiguousarray(u.reshape(k, c, t).transpose(2, 1, 0))  # (T, C, K)
        self.filter_params = _filter_params_per_position_channel(u, self.bits)
        self.u_q = quantize(u, self.filter_params)  # (T, C, K) int8
        self.zbar = compensation_term(self.u_q)  # (T, K) int32

    # ------------------------------------------------------------------
    # Calibration (Section 3, Eq. 7)
    # ------------------------------------------------------------------
    def make_calibrator(self) -> WinogradDomainCalibrator:
        """A fresh Winograd-domain calibrator sized for this layer.

        Part of the streaming calibration API: hold one calibrator per
        layer, feed it batch-by-batch with :meth:`collect_calibration`
        (histograms only -- O(1) memory in the number of batches), then
        fix thresholds with :meth:`apply_calibration`.
        """
        return WinogradDomainCalibrator(positions=self.alg.tile_elements, bits=self.bits)

    def collect_calibration(
        self, calib: WinogradDomainCalibrator, batch: np.ndarray
    ) -> None:
        """Fold one NCHW sample batch into ``calib``'s histograms."""
        batch = np.asarray(batch, dtype=np.float64)
        x = pad_images(batch, self.padding)
        tiles, _ = prepare_input_tiles(self.alg, x)
        calib.collect(tiles_to_gemm_operand(input_transform(self.alg, tiles)))

    def apply_calibration(self, calib: WinogradDomainCalibrator) -> "LoWinoConv2d":
        """Fix input thresholds from a fed calibrator; returns ``self``."""
        self.input_params = calib.params(method=self.calibration_method)
        return self

    def calibrate(self, batches: Iterable[np.ndarray]) -> "LoWinoConv2d":
        """Fix input quantization thresholds from sample batches.

        Each batch is an NCHW FP32 array with this layer's input shape.
        Thresholds are searched per Winograd tile position with the
        KL-divergence criterion (or min/max, per
        ``calibration_method``).  Returns ``self`` for chaining.
        """
        calib = self.make_calibrator()
        for batch in batches:
            self.collect_calibration(calib, batch)
        return self.apply_calibration(calib)

    @property
    def is_calibrated(self) -> bool:
        return self.input_params is not None

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    def __call__(self, images: np.ndarray) -> np.ndarray:
        images = np.asarray(images, dtype=np.float64)
        b = images.shape[0]
        k = self.filters_fp32.shape[0]
        x = pad_images(images, self.padding)
        tiles, grid = prepare_input_tiles(self.alg, x)

        # Input transform in FP32 (stage 1 of Figure 3), then quantize in
        # the Winograd domain (Eq. 3) -- the LoWino move.
        v = tiles_to_gemm_operand(input_transform(self.alg, tiles))  # (T, N, C) FP32
        if self.input_params is not None:
            in_params = self.input_params
        else:
            from ..quant import per_position_minmax_params

            in_params = per_position_minmax_params(v, position_axis=0, bits=self.bits)
        v_q = quantize(v, in_params)  # (T, N, C) int8
        vbar = (v_q.astype(np.int16) + 128).astype(np.uint8)  # +128 compensation

        z = self._gemm(vbar, v_q.shape[1], k)

        # De-quantize (Eq. 6): per-position input scale x per-(position,
        # channel) filter scale.
        denom = in_params.scale * self.filter_params.scale  # broadcasts to (T, 1, K)
        z_fp = z.astype(np.float64) / denom
        acc_tiles = gemm_result_to_tiles(z_fp, b, grid, k)
        y = output_transform(self.alg, acc_tiles)
        return assemble_output(grid, y)

    def reference_forward(self, images: np.ndarray) -> np.ndarray:
        """Loop-based reference path for differential testing.

        Walks the Figure 3 pipeline the way a scalar implementation
        would: the input and output transforms visit one spatial tile at
        a time in Python loops, and the GEMM runs through the packed
        Table 1 layouts with the serial per-task loop
        (:func:`repro.gemm.batched_gemm_blocked`).  Numerically
        identical to :meth:`__call__` (integer arithmetic is exact and
        the float stages perform the same operations); the vectorized
        runtime engine is benchmarked and equivalence-tested against
        this method.
        """
        images = np.asarray(images, dtype=np.float64)
        b = images.shape[0]
        k = self.filters_fp32.shape[0]
        x = pad_images(images, self.padding)
        tiles, grid = prepare_input_tiles(self.alg, x)  # (B, C, th, tw, a, a)
        # Per-tile input transform: one channel-stack per spatial tile.
        v_tiles = np.empty_like(tiles)
        for bi in range(tiles.shape[0]):
            for ti in range(grid.tiles_h):
                for tj in range(grid.tiles_w):
                    v_tiles[bi, :, ti, tj] = input_transform(self.alg, tiles[bi, :, ti, tj])
        v = tiles_to_gemm_operand(v_tiles)  # (T, N, C)
        if self.input_params is not None:
            in_params = self.input_params
        else:
            from ..quant import per_position_minmax_params

            in_params = per_position_minmax_params(v, position_axis=0, bits=self.bits)
        v_q = quantize(v, in_params)
        vbar = (v_q.astype(np.int16) + 128).astype(np.uint8)
        t, n, c = vbar.shape
        params = self.blocking or default_blocking(n, c, k)
        v_packed = pack_transformed_inputs(vbar, params.n_blk, params.c_blk)
        u_packed = pack_transformed_filters(self.u_q, params.c_blk, params.k_blk)
        z = batched_gemm_blocked(v_packed, u_packed, self.zbar, params, n, c, k)
        denom = in_params.scale * self.filter_params.scale
        z_fp = z.astype(np.float64) / denom
        acc_tiles = gemm_result_to_tiles(z_fp, b, grid, k)
        # Per-tile output transform.
        y = np.empty((b, k, grid.tiles_h, grid.tiles_w, self.alg.m, self.alg.m))
        for bi in range(b):
            for ti in range(grid.tiles_h):
                for tj in range(grid.tiles_w):
                    y[bi, :, ti, tj] = output_transform(self.alg, acc_tiles[bi, :, ti, tj])
        return assemble_output(grid, y)

    def _gemm(self, vbar: np.ndarray, n: int, k: int) -> np.ndarray:
        """Stage 2 of Figure 3: the batched INT8 GEMM with compensation."""
        t, _, c = vbar.shape
        if not self.use_blocked_gemm:
            # Fused vectorized path: u8 x s8 -> s32 contraction + Zbar.
            z = np.einsum(
                "tnc,tck->tnk", vbar.astype(np.int32), self.u_q.astype(np.int32)
            ).astype(np.int32)
            return z + self.zbar[:, None, :]
        params = self.blocking or default_blocking(n, c, k)
        v_packed = pack_transformed_inputs(vbar, params.n_blk, params.c_blk)
        u_packed = pack_transformed_filters(self.u_q, params.c_blk, params.k_blk)
        return batched_gemm_blocked(v_packed, u_packed, self.zbar, params, n, c, k)

    # ------------------------------------------------------------------
    # Introspection used by experiments / perf model
    # ------------------------------------------------------------------
    def gemm_shape(self, in_h: int, in_w: int, batch: int) -> tuple[int, int, int, int]:
        """(T, N, C, K) of the batched GEMM for a given input size."""
        from ..winograd import tile_grid

        grid = tile_grid(self.alg, in_h + 2 * self.padding, in_w + 2 * self.padding)
        n = batch * grid.tiles_per_image
        k, c = self.filters_fp32.shape[:2]
        return self.alg.tile_elements, n, c, k
