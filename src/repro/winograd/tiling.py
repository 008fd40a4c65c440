"""Tile extraction and output assembly for Winograd convolution.

Input images are decomposed into overlapping ``alpha x alpha`` tiles with
stride ``m`` (overlap ``r - 1``) -- Section 2.2.  Output tiles of size
``m x m`` are written back disjointly.  Images whose spatial extent is not
a multiple of ``m`` are zero-padded on the bottom/right; the assembly step
crops the padding away, so extract/assemble round-trips exactly.

Shapes follow the NCHW convention used throughout the reproduction:
images are ``(B, C, H, W)``; extracted tiles are ``(B, C, tiles_h,
tiles_w, alpha, alpha)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cook_toom import WinogradAlgorithm

__all__ = ["TileGrid", "tile_grid", "extract_tiles", "assemble_output"]


@dataclass(frozen=True)
class TileGrid:
    """Geometry of the tile decomposition of one convolutional layer.

    ``out_h``/``out_w`` are the true (unpadded) output sizes for a VALID
    convolution after any explicit input padding has been applied by the
    caller; ``tiles_h``/``tiles_w`` include right/bottom padding tiles.
    """

    m: int
    r: int
    in_h: int
    in_w: int

    @property
    def alpha(self) -> int:
        return self.m + self.r - 1

    @property
    def out_h(self) -> int:
        return self.in_h - self.r + 1

    @property
    def out_w(self) -> int:
        return self.in_w - self.r + 1

    @property
    def tiles_h(self) -> int:
        return -(-self.out_h // self.m)  # ceil division

    @property
    def tiles_w(self) -> int:
        return -(-self.out_w // self.m)

    @property
    def tiles_per_image(self) -> int:
        return self.tiles_h * self.tiles_w

    @property
    def padded_in_h(self) -> int:
        return (self.tiles_h - 1) * self.m + self.alpha

    @property
    def padded_in_w(self) -> int:
        return (self.tiles_w - 1) * self.m + self.alpha


def tile_grid(alg: WinogradAlgorithm, in_h: int, in_w: int) -> TileGrid:
    """Build the tile geometry for an ``in_h x in_w`` (already padded) input."""
    if in_h < alg.r or in_w < alg.r:
        raise ValueError(
            f"input {in_h}x{in_w} smaller than filter {alg.r}x{alg.r}"
        )
    return TileGrid(m=alg.m, r=alg.r, in_h=in_h, in_w=in_w)


def extract_tiles(grid: TileGrid, images: np.ndarray) -> np.ndarray:
    """Extract overlapping input tiles.

    Parameters
    ----------
    grid:
        Geometry from :func:`tile_grid`.
    images:
        ``(B, C, H, W)`` array with ``H == grid.in_h``, ``W == grid.in_w``.

    Returns
    -------
    ``(B, C, tiles_h, tiles_w, alpha, alpha)`` array.  The data is copied
    (tiles overlap), zero-padded on the bottom/right where the final tiles
    extend past the image.
    """
    b, c, h, w = images.shape
    if (h, w) != (grid.in_h, grid.in_w):
        raise ValueError(f"image spatial shape {(h, w)} != grid {(grid.in_h, grid.in_w)}")
    ph, pw = grid.padded_in_h, grid.padded_in_w
    if (ph, pw) != (h, w):
        padded = np.zeros((b, c, ph, pw), dtype=images.dtype)
        padded[:, :, :h, :w] = images
    else:
        padded = images
    # Overlapping view via stride tricks, then one contiguous copy.
    sb, sc, sh, sw = padded.strides
    view = np.lib.stride_tricks.as_strided(
        padded,
        shape=(b, c, grid.tiles_h, grid.tiles_w, grid.alpha, grid.alpha),
        strides=(sb, sc, sh * grid.m, sw * grid.m, sh, sw),
        writeable=False,
    )
    return np.ascontiguousarray(view)


def assemble_output(grid: TileGrid, tiles: np.ndarray) -> np.ndarray:
    """Assemble disjoint ``m x m`` output tiles into ``(B, K, out_h, out_w)``.

    ``tiles`` has shape ``(B, K, tiles_h, tiles_w, m, m)``; padding rows
    and columns beyond the true output size are discarded.
    """
    b, k, th, tw, m1, m2 = tiles.shape
    if (th, tw) != (grid.tiles_h, grid.tiles_w) or (m1, m2) != (grid.m, grid.m):
        raise ValueError(
            f"tile array shape {tiles.shape} inconsistent with grid "
            f"({grid.tiles_h},{grid.tiles_w}) tiles of {grid.m}x{grid.m}"
        )
    # (B, K, th, m, tw, m) -> contiguous full padded output.
    full = tiles.transpose(0, 1, 2, 4, 3, 5).reshape(b, k, th * grid.m, tw * grid.m)
    return np.ascontiguousarray(full[:, :, : grid.out_h, : grid.out_w])
