"""Shared tile/GEMM reshape helpers for the Winograd reference layers.

All low-precision Winograd implementations share the same dataflow
skeleton (Figure 3): tiles -> transforms -> batched GEMM operands ->
output tiles.  The reshapes live here so the LoWino core and the two
baseline implementations stay focused on their quantization logic.

The fused runtime pipelines (:mod:`repro.runtime.backends`) do not use
these helpers: they gather the padded input straight into the GEMM
layout and run both transforms there, and the equivalence tests check
them bitwise against the layers that do.
"""

from __future__ import annotations

import numpy as np

from ..winograd import TileGrid, WinogradAlgorithm, extract_tiles, tile_grid

__all__ = ["tiles_to_gemm_operand", "gemm_result_to_tiles", "prepare_input_tiles"]


def prepare_input_tiles(
    alg: WinogradAlgorithm, images: np.ndarray
) -> tuple[np.ndarray, TileGrid]:
    """Extract overlapping tiles; returns ``((B, C, th, tw, a, a), grid)``."""
    b, c, h, w = images.shape
    grid = tile_grid(alg, h, w)
    return extract_tiles(grid, images), grid


def tiles_to_gemm_operand(tiles: np.ndarray) -> np.ndarray:
    """``(B, C, th, tw, a, a)`` -> ``(T, N, C)`` with ``N = B*th*tw``.

    Preserves dtype; this is the scatter step (2. in Figure 3) that the
    real implementation performs with non-temporal stores.
    """
    b, c, th, tw, a1, a2 = tiles.shape
    t = a1 * a2
    x = tiles.transpose(0, 2, 3, 1, 4, 5).reshape(b * th * tw, c, t)
    return np.ascontiguousarray(x.transpose(2, 0, 1))


def gemm_result_to_tiles(z: np.ndarray, batch: int, grid: TileGrid, k: int) -> np.ndarray:
    """``(T, N, K)`` -> ``(B, K, th, tw, a, a)`` accumulator tiles."""
    t, n, k2 = z.shape
    if k2 != k:
        raise ValueError(f"channel mismatch: operand K={k2}, expected {k}")
    a = int(round(t**0.5))
    if a * a != t:
        raise ValueError(f"T={t} is not a square tile element count")
    x = z.transpose(1, 2, 0).reshape(batch, grid.tiles_h, grid.tiles_w, k, a, a)
    return np.ascontiguousarray(x.transpose(0, 3, 1, 2, 4, 5))
