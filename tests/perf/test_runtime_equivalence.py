"""Runtime engine vs reference layers: bit-for-bit over the edge grid.

The vectorized engine replaces per-tile / per-task Python loops with
whole-tensor BLAS calls and native integer GEMMs; its contract is
*exact* agreement with the reference implementations (transform batching
and the wrapping integer GEMM are bitwise-stable, see DESIGN.md).  This suite pins that contract over
the same edge-geometry grid the PR 1 conformance harness sweeps: 1x1
outputs, sub-tile outputs, odd padded shapes, unit channels, and plain
interior shapes, for every algorithm and both tile sizes.
"""

import numpy as np
import pytest

from repro.conformance.space import enumerate_edge_configs, make_inputs
from repro.runtime import ExecutionEngine, PlanCache
from repro.runtime.bench import REFERENCE_ALGORITHMS
from repro.runtime.plan import ALGORITHMS

pytestmark = pytest.mark.perf

EDGE_CONFIGS = enumerate_edge_configs()


@pytest.fixture(scope="module")
def engine():
    return ExecutionEngine(cache=PlanCache(capacity=512))


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("config", EDGE_CONFIGS, ids=lambda c: c.describe())
def test_engine_matches_reference_layer(engine, algorithm, config):
    """Engine output is bitwise identical to the reference layer call."""
    x, w = make_inputs(config)
    layer = engine.layer(w, algorithm, m=config.m, padding=config.padding)
    np.testing.assert_array_equal(layer(x), layer.reference(x))


@pytest.mark.parametrize("algorithm", REFERENCE_ALGORITHMS)
@pytest.mark.parametrize("config", EDGE_CONFIGS, ids=lambda c: c.describe())
def test_engine_matches_loop_reference(engine, algorithm, config):
    """Engine output is bitwise identical to the per-tile loop path."""
    x, w = make_inputs(config)
    layer = engine.layer(w, algorithm, m=config.m, padding=config.padding)
    np.testing.assert_array_equal(layer(x), layer.reference.reference_forward(x))


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_scratch_reuse_is_bitwise_stable(engine, algorithm):
    """Repeat calls through cached scratch reproduce the first result."""
    config = EDGE_CONFIGS[-1]  # multi-tile interior shape
    x, w = make_inputs(config)
    layer = engine.layer(w, algorithm, m=config.m, padding=config.padding)
    first = layer(x).copy()
    np.testing.assert_array_equal(layer(x), first)


def test_lowino_wide_layer_matches_reference(engine):
    """516 input channels: per-output sums reach C * 255 * 128 > 2**24, past
    what a float32 GEMM would carry exactly; the integer kernel still
    agrees bitwise with the loop reference."""
    c = 516
    rng = np.random.default_rng(7)
    x = np.maximum(rng.standard_normal((1, c, 6, 6)), 0.0)
    w = rng.standard_normal((3, c, 3, 3)) * np.sqrt(2.0 / (9 * c))
    layer = engine.layer(w, "lowino", m=2, padding=1)
    np.testing.assert_array_equal(layer(x), layer.reference.reference_forward(x))
