"""Vectorized runtime vs loop reference: wall clock on scaled Table 2 layers.

The structured measurement (JSON artifact, regression gate) lives in
:mod:`repro.runtime.bench` and is driven by ``repro bench``; this file
gives the same comparison the pytest-benchmark treatment so it shows up
next to the other kernel benchmarks, and doubles as a thin launcher::

    python benchmarks/bench_runtime.py --quick --out BENCH_runtime.json
"""

import numpy as np
import pytest

from repro.runtime import ExecutionEngine, PlanCache
from repro.runtime.bench import QUICK_PROFILE, scale_layer
from repro.workloads import layer_by_name

LAYER = scale_layer(layer_by_name("VGG16_b"), QUICK_PROFILE)


def _layer_inputs(rng):
    x = LAYER.input_tensor(rng, dtype=np.float64)
    w = LAYER.filter_tensor(rng, dtype=np.float64)
    return x, w


@pytest.mark.parametrize("algorithm", ["lowino", "int8_upcast", "fp32_direct"])
def test_bench_engine_forward(benchmark, rng, algorithm):
    x, w = _layer_inputs(rng)
    engine = ExecutionEngine(cache=PlanCache(capacity=64))
    layer = engine.layer(w, algorithm, m=4, padding=LAYER.padding)
    layer(x)  # build plan + grow the scratch arena outside the timed region
    y = benchmark(layer, x)
    assert y.shape == (x.shape[0], LAYER.k, LAYER.hw, LAYER.hw)


@pytest.mark.parametrize("algorithm", ["lowino"])
def test_bench_reference_forward(benchmark, rng, algorithm):
    """The per-tile loop path the engine is measured against."""
    x, w = _layer_inputs(rng)
    engine = ExecutionEngine(cache=PlanCache(capacity=64))
    layer = engine.layer(w, algorithm, m=4, padding=LAYER.padding)
    vec = layer(x)
    ref = benchmark(layer.reference.reference_forward, x)
    np.testing.assert_array_equal(vec, ref)


if __name__ == "__main__":
    import sys

    from repro.cli import main

    sys.exit(main(["bench"] + sys.argv[1:]))
