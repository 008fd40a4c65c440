"""Minimal inference-only layer library (NCHW, NumPy).

Only what the accuracy experiments need: convolution (with swappable
low-precision engines), ReLU, pooling, residual add, linear, and
batch-norm folding.  Layers are stateless in forward (pure functions of
the input), so a model can be evaluated repeatedly and calibrated by
capturing layer inputs.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional

import numpy as np

from ..conv import direct_conv2d_fp32

__all__ = [
    "Layer",
    "Conv2d",
    "ReLU",
    "MaxPool2d",
    "GlobalAvgPool",
    "Flatten",
    "Linear",
    "fold_batchnorm",
]


class Layer:
    """Base layer: ``forward`` maps an input array to an output array."""

    def forward(self, x: np.ndarray) -> np.ndarray:  # pragma: no cover - interface
        raise NotImplementedError

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    def children(self) -> Iterator["Layer"]:
        return iter(())


class Conv2d(Layer):
    """3x3-style convolution with an optional swappable INT8 engine.

    In FP32 mode (default) it runs :func:`direct_conv2d_fp32`.  Post-
    training quantization replaces ``engine`` with one of the layer
    objects from :mod:`repro.conv` / :mod:`repro.core`; the bias add
    stays in FP32 either way (standard INT8 deployment practice).
    """

    def __init__(
        self,
        filters: np.ndarray,
        bias: Optional[np.ndarray] = None,
        padding: int = 1,
        stride: int = 1,
        name: str = "conv",
    ) -> None:
        self.filters = np.asarray(filters, dtype=np.float64)
        k = self.filters.shape[0]
        self.bias = np.zeros(k) if bias is None else np.asarray(bias, dtype=np.float64)
        if self.bias.shape != (k,):
            raise ValueError(f"bias shape {self.bias.shape} != ({k},)")
        if stride < 1:
            raise ValueError(f"stride must be >= 1, got {stride}")
        self.padding = padding
        self.stride = stride
        self.name = name
        self.engine: Optional[Callable[[np.ndarray], np.ndarray]] = None

    @property
    def is_quantized(self) -> bool:
        return self.engine is not None

    @property
    def winograd_eligible(self) -> bool:
        """Unit-stride square filters only; strided layers fall back to
        direct convolution when the model is quantized."""
        return self.stride == 1

    def forward(self, x: np.ndarray) -> np.ndarray:
        if self.engine is not None:
            y = self.engine(x)
        else:
            y = direct_conv2d_fp32(x, self.filters, stride=self.stride,
                                   padding=self.padding)
        return y + self.bias[None, :, None, None]


class ReLU(Layer):
    def forward(self, x: np.ndarray) -> np.ndarray:
        return np.maximum(x, 0.0)


class MaxPool2d(Layer):
    """Non-overlapping max pooling with window = stride = ``size``."""

    def __init__(self, size: int = 2) -> None:
        if size < 1:
            raise ValueError(f"pool size must be >= 1, got {size}")
        self.size = size

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Max over the ``s * s`` strided slices, trailing rows/columns
        that do not fill a window dropped.  The result is fresh and keeps
        ``x``'s memory order (``order="K"``), as a reduction over a
        reshaped view does: downstream means sum in layout order."""
        s = self.size
        h = x.shape[2] - x.shape[2] % s
        w = x.shape[3] - x.shape[3] % s
        out = x[:, :, 0:h:s, 0:w:s].copy(order="K")
        for i in range(s):
            for j in range(s):
                if i or j:
                    np.maximum(out, x[:, :, i:h:s, j:w:s], out=out)
        return out


class GlobalAvgPool(Layer):
    def forward(self, x: np.ndarray) -> np.ndarray:
        return x.mean(axis=(2, 3), keepdims=True)


class Flatten(Layer):
    def forward(self, x: np.ndarray) -> np.ndarray:
        return x.reshape(x.shape[0], -1)


class Linear(Layer):
    def __init__(self, weight: np.ndarray, bias: Optional[np.ndarray] = None) -> None:
        self.weight = np.asarray(weight, dtype=np.float64)  # (out, in)
        out = self.weight.shape[0]
        self.bias = np.zeros(out) if bias is None else np.asarray(bias, dtype=np.float64)

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.shape[1] != self.weight.shape[1]:
            raise ValueError(
                f"linear input width {x.shape[1]} != weight in-dim {self.weight.shape[1]}"
            )
        # Row-wise GEMV: each sample's logits depend only on that sample,
        # never on the batch composition.  A batched ``x @ W.T`` lets BLAS
        # pick a different (correct but not bit-equal) blocking per batch
        # size, which would break the serving layer's bit-identity
        # contract when the micro-batcher coalesces requests.  Heads are
        # small, so the per-row loop costs nothing measurable.
        out = np.empty((x.shape[0], self.weight.shape[0]), dtype=np.float64)
        for i in range(x.shape[0]):
            out[i] = self.weight @ x[i]
        out += self.bias
        return out


def fold_batchnorm(
    filters: np.ndarray,
    bias: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    mean: np.ndarray,
    var: np.ndarray,
    eps: float = 1e-5,
) -> tuple[np.ndarray, np.ndarray]:
    """Fold an inference-time batch norm into the preceding convolution.

    ``y = gamma * (conv(x) + bias - mean) / sqrt(var + eps) + beta``
    becomes a convolution with scaled filters and adjusted bias -- the
    standard transformation quantized deployments apply before
    calibration.
    """
    scale = gamma / np.sqrt(var + eps)
    folded_filters = filters * scale[:, None, None, None]
    folded_bias = (bias - mean) * scale + beta
    return folded_filters, folded_bias
