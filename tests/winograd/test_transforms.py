"""Batched 2D transforms vs explicit per-tile matrix products."""

import numpy as np
import pytest

from repro.winograd import (
    filter_transform,
    input_transform,
    output_transform,
    transform_2d,
    winograd_algorithm,
)


class TestTransform2d:
    def test_matches_explicit_loop(self, rng):
        alg = winograd_algorithm(4, 3)
        tiles = rng.standard_normal((3, 2, 6, 6))
        out = transform_2d(alg.bt, tiles)
        for i in range(3):
            for j in range(2):
                ref = alg.bt @ tiles[i, j] @ alg.bt.T
                assert np.allclose(out[i, j], ref, atol=1e-12)

    def test_preserves_leading_axes(self, rng):
        alg = winograd_algorithm(2, 3)
        tiles = rng.standard_normal((2, 3, 4, 5, 4, 4))
        assert transform_2d(alg.bt, tiles).shape == (2, 3, 4, 5, 4, 4)

    def test_rectangular_transform(self, rng):
        alg = winograd_algorithm(2, 3)
        # G is alpha x r: filter transform grows r x r -> alpha x alpha.
        g = rng.standard_normal((5, 3, 3))
        out = transform_2d(alg.g, g)
        assert out.shape == (5, 4, 4)

    def test_shape_mismatch_raises(self, rng):
        alg = winograd_algorithm(2, 3)
        with pytest.raises(ValueError):
            transform_2d(alg.bt, rng.standard_normal((2, 5, 5)))


class TestNamedTransforms:
    def test_input_filter_output_consistency(self, rng):
        """One tile through the full Winograd identity."""
        alg = winograd_algorithm(4, 3)
        d = rng.standard_normal((1, 6, 6))
        g = rng.standard_normal((1, 3, 3))
        v = input_transform(alg, d)
        u = filter_transform(alg, g)
        y = output_transform(alg, u * v)
        # Reference: direct valid correlation of the 6x6 tile.
        ref = np.empty((4, 4))
        for i in range(4):
            for j in range(4):
                ref[i, j] = np.sum(d[0, i : i + 3, j : j + 3] * g[0])
        assert np.allclose(y[0], ref, atol=1e-10)

    def test_filter_transform_shape(self, rng):
        alg = winograd_algorithm(6, 3)
        u = filter_transform(alg, rng.standard_normal((4, 2, 3, 3)))
        assert u.shape == (4, 2, 8, 8)
