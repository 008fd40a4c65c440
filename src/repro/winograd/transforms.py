"""Batched 2D Winograd transforms.

The nested 2D algorithm (Eq. 1 of the paper) applies each 1D transform
matrix along both spatial axes of a tile:

    V = B^T d B        (input transform,  alpha x alpha <- alpha x alpha)
    U = G   g G^T      (filter transform, alpha x alpha <- r x r)
    y = A^T Z A        (output transform, m x m        <- alpha x alpha)

The tile-layout functions operate on *batches* of tiles: the two
trailing axes are the spatial tile axes, any leading axes (batch,
channel, tile index) are preserved.  The reference layers use them.
:func:`gemm_layout_transform` applies the same transform to a whole
layer in the GEMM layout -- the tile axes leading, every (image, tile,
channel) column after them -- which is what the fused runtime pipelines
run.  The per-element codelet path in :mod:`repro.codelets` exists for
op counting and cross-validation.
"""

from __future__ import annotations

import numpy as np

from .cook_toom import WinogradAlgorithm

__all__ = [
    "transform_2d",
    "gemm_layout_transform",
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


def gemm_layout_transform(
    mat: np.ndarray,
    cols: np.ndarray,
    half: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """:func:`transform_2d` of every column of an ``(in, in, X)`` operand.

    ``cols[i, j, x]`` is element ``(i, j)`` of tile ``x``; the result
    ``(out, out, X)`` holds ``mat @ tile @ mat.T`` the same way.  Both
    stages are whole-operand GEMMs: stage 1 contracts the in-tile column
    (``in`` calls of ``mat @ cols[i]``), stage 2 the in-tile row (one
    ``mat @ half`` over all ``out * X`` columns).  Every element is the
    same two length-``in`` dot products, summed in the same order, as
    the per-tile call, so the result is bitwise :func:`transform_2d`'s;
    only the BLAS call shape changes.

    One column (``X == 1``) would make stage 1 a matrix-vector product,
    which NumPy hands to gemv, and gemv sums in another order; that case
    runs stage 1 as the per-tile GEMM instead.

    ``half`` (``(in, out, X)``) and ``out`` (``(out, out, X)``),
    C-contiguous, receive the two stages when given.
    """
    o, i = mat.shape
    if cols.ndim != 3 or cols.shape[:2] != (i, i):
        raise ValueError(f"operand shape {cols.shape} is not ({i}, {i}, X)")
    x = cols.shape[2]
    if x == 1:
        tile_half = None if half is None else half.reshape(i, o)
        half = np.matmul(cols.reshape(i, i), mat.T, out=tile_half).reshape(i, o, 1)
    else:
        half = np.matmul(mat, cols, out=half)
    flat_out = None if out is None else out.reshape(o, o * x)
    return np.matmul(mat, half.reshape(i, o * x), out=flat_out).reshape(o, o, x)


def input_transform(alg: WinogradAlgorithm, tiles: np.ndarray) -> np.ndarray:
    """V = B^T d B for a batch of (..., alpha, alpha) input tiles."""
    return transform_2d(alg.bt, tiles)


def filter_transform(alg: WinogradAlgorithm, filters: np.ndarray) -> np.ndarray:
    """U = G g G^T for a batch of (..., r, r) filters."""
    return transform_2d(alg.g, filters)


def output_transform(alg: WinogradAlgorithm, acc: np.ndarray) -> np.ndarray:
    """y = A^T Z A for a batch of (..., alpha, alpha) accumulator tiles."""
    return transform_2d(alg.at, acc)
