"""Quantization schemes: spatial domain vs Winograd domain.

The crux of the paper (Section 3): *where* quantization happens decides
whether large-tile low-precision Winograd is viable.

* Spatial-domain scheme (baselines, Figure 2): quantize ``d`` and ``g``
  before the Winograd transforms.  The integer transforms then amplify
  the value range by up to ``(max row L1 of B^T)^2`` (4x / 100x for
  F(2,3) / F(4,3)), forcing either an up-cast to INT16 (ncnn) or a lossy
  down-scale back into INT8 (oneDNN).

* Winograd-domain scheme (LoWino, Eq. 3): transform in FP32 first, then
  quantize the transformed tiles ``V`` and ``U``.  Because each of the
  ``T = alpha^2`` tile positions is an independent GEMM, LoWino can give
  every position its own scale, which is what this module implements
  (``per_position=True`` is the default; per-tensor is available for
  ablation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .calibration import EntropyCalibrator
from .linear import QuantParams, scale_for_threshold

__all__ = [
    "WinogradDomainCalibrator",
    "per_position_minmax_params",
    "per_tensor_minmax_params",
    "spatial_params_from_tensor",
]


def per_tensor_minmax_params(x: np.ndarray, bits: int = 8) -> QuantParams:
    """One symmetric scale for the whole tensor from ``max |x|``."""
    tau = float(np.max(np.abs(x))) if x.size else 1.0
    return QuantParams.from_threshold(tau if tau > 0 else 1.0, bits=bits)


def per_position_minmax_params(
    x: np.ndarray, position_axis: int = 0, bits: int = 8
) -> QuantParams:
    """One scale per Winograd tile position.

    ``x`` is a transformed operand whose ``position_axis`` indexes the
    ``T = alpha^2`` tile positions (e.g. the ``(T, N, C)`` GEMM operand).
    The returned scale broadcasts against ``x``.
    """
    axes = tuple(i for i in range(x.ndim) if i != position_axis)
    tau = np.max(np.abs(x), axis=axes) if x.size else np.ones(x.shape[position_axis])
    tau = np.where(tau > 0, tau, 1.0)
    shape = [1] * x.ndim
    shape[position_axis] = x.shape[position_axis]
    return QuantParams(scale=scale_for_threshold(tau, bits=bits).reshape(shape), bits=bits)


def spatial_params_from_tensor(x: np.ndarray, bits: int = 8) -> QuantParams:
    """Spatial-domain per-tensor parameters (used by the ncnn/oneDNN
    baselines before any transform runs)."""
    return per_tensor_minmax_params(x, bits=bits)


@dataclass
class WinogradDomainCalibrator:
    """Calibrates per-position thresholds for transformed activations.

    Feed each calibration batch's transformed operand ``V`` with shape
    ``(T, N, C)`` via :meth:`collect`; :meth:`params` runs the KL search
    per position (Eq. 7) and returns :class:`QuantParams` whose scale has
    shape ``(T, 1, 1)``, broadcasting over the batched GEMM operand.
    """

    positions: int
    bits: int = 8
    bins: int = 2048
    #: Refine-pass stride of the KL scan (the coarse pass takes every
    #: 16th bin).  With each pass one array, stride 1 would cost only
    #: ~1.3x stride 4 (VGG-small's 252 positions, one core); 4 stays
    #: because every LoWino threshold, and so every calibrated output,
    #: is defined at it.
    stride: int = 4

    def __post_init__(self) -> None:
        self._calibs = [
            EntropyCalibrator(bins=self.bins, bits=self.bits, stride=self.stride)
            for _ in range(self.positions)
        ]
        self._batches = 0

    def collect(self, v: np.ndarray) -> None:
        if v.shape[0] != self.positions:
            raise ValueError(
                f"operand has {v.shape[0]} positions, calibrator built for {self.positions}"
            )
        for t in range(self.positions):
            self._calibs[t].collect(v[t])
        self._batches += 1

    @property
    def batches_seen(self) -> int:
        return self._batches

    def thresholds(self, method: str = "kl") -> np.ndarray:
        if self._batches == 0:
            raise RuntimeError("no calibration batches collected")
        return np.array([c.threshold(method=method) for c in self._calibs])

    def params(self, method: str = "kl") -> QuantParams:
        tau = self.thresholds(method=method)
        scale = scale_for_threshold(tau, bits=self.bits).reshape(self.positions, 1, 1)
        return QuantParams(scale=scale, bits=self.bits)
