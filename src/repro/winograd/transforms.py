"""Batched 2D Winograd transforms.

The nested 2D algorithm (Eq. 1 of the paper) applies each 1D transform
matrix along both spatial axes of a tile:

    V = B^T d B        (input transform,  alpha x alpha <- alpha x alpha)
    U = G   g G^T      (filter transform, alpha x alpha <- r x r)
    y = A^T Z A        (output transform, m x m        <- alpha x alpha)

The functions operate on *batches* of tiles: the two trailing axes are
the spatial tile axes, any leading axes (batch, channel, tile index)
are preserved.  The reference layers use them, and they are the oracle
of the fused runtime pipelines' native transform passes
(:func:`repro.native.winograd_input` / ``winograd_output``), which
compute every element as the same two fma chains the BLAS call here
computes, in the same order, and are tested against it byte for byte.
The per-element codelet path in :mod:`repro.codelets` exists for op
counting and cross-validation.
"""

from __future__ import annotations

import numpy as np

from .cook_toom import WinogradAlgorithm

__all__ = [
    "transform_2d",
    "input_transform",
    "filter_transform",
    "output_transform",
]


def transform_2d(mat: np.ndarray, tiles: np.ndarray) -> np.ndarray:
    """Apply ``mat @ tile @ mat.T`` over the two trailing axes of ``tiles``.

    ``mat`` has shape (out, in); ``tiles`` (..., in, in); the result has
    shape (..., out, out).

    The contraction runs through ``np.matmul`` (BLAS), which applies the
    same 2D kernel to every stacked (alpha, alpha) slice.  Results are
    therefore bitwise identical whether tiles are transformed one at a
    time (the ``*_reference`` loop paths) or as one stacked call.
    """
    if tiles.shape[-1] != mat.shape[1] or tiles.shape[-2] != mat.shape[1]:
        raise ValueError(
            f"tile trailing shape {tiles.shape[-2:]} does not match transform "
            f"input size {mat.shape[1]}"
        )
    # (..., i, j) x (j, o) -> (..., i, o); then contract the i axis.
    return np.matmul(mat, np.matmul(tiles, mat.T))


def input_transform(alg: WinogradAlgorithm, tiles: np.ndarray) -> np.ndarray:
    """V = B^T d B for a batch of (..., alpha, alpha) input tiles."""
    return transform_2d(alg.bt, tiles)


def filter_transform(alg: WinogradAlgorithm, filters: np.ndarray) -> np.ndarray:
    """U = G g G^T for a batch of (..., r, r) filters."""
    return transform_2d(alg.g, filters)


def output_transform(alg: WinogradAlgorithm, acc: np.ndarray) -> np.ndarray:
    """y = A^T Z A for a batch of (..., alpha, alpha) accumulator tiles."""
    return transform_2d(alg.at, acc)
