"""Winograd algorithm substrate: transform generation, tiling, reference conv.

Public surface:

* :func:`winograd_algorithm` / :func:`cook_toom` -- build F(m, r) matrices.
* :class:`WinogradAlgorithm` -- the generated algorithm object.
* :func:`input_transform` / :func:`filter_transform` / :func:`output_transform`
  -- batched 2D transforms (:func:`transform_2d`).
* :func:`extract_tiles` / :func:`assemble_output` / :func:`tile_grid` --
  overlapping tile decomposition.
* :func:`winograd_conv2d_fp32` -- the FP32 reference convolution.
"""

from .cook_toom import WinogradAlgorithm, amplification_factor, cook_toom, winograd_algorithm
from .error_analysis import QuantErrorModel, quant_error_model, relative_noise_gain
from .ndim import (
    NdTileGrid,
    assemble_output_nd,
    direct_convnd_fp32,
    extract_tiles_nd,
    tile_grid_nd,
    transform_nd,
    winograd_convnd_fp32,
)
from .points import canonical_points
from .reference import winograd_conv2d_exact, winograd_conv2d_fp32, winograd_domain_matrices
from .tiling import TileGrid, assemble_output, extract_tiles, tile_grid
from .transforms import (
    filter_transform,
    input_transform,
    output_transform,
    transform_2d,
)

__all__ = [
    "WinogradAlgorithm",
    "QuantErrorModel",
    "quant_error_model",
    "relative_noise_gain",
    "NdTileGrid",
    "assemble_output_nd",
    "direct_convnd_fp32",
    "extract_tiles_nd",
    "tile_grid_nd",
    "transform_nd",
    "winograd_convnd_fp32",
    "amplification_factor",
    "cook_toom",
    "winograd_algorithm",
    "canonical_points",
    "winograd_conv2d_exact",
    "winograd_conv2d_fp32",
    "winograd_domain_matrices",
    "TileGrid",
    "assemble_output",
    "extract_tiles",
    "tile_grid",
    "filter_transform",
    "input_transform",
    "output_transform",
    "transform_2d",
]
