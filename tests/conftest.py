"""Shared fixtures and hypothesis settings for the test suite.

Determinism policy: no test creates its own ad-hoc ``np.random``
generator.  Use the function-scoped ``rng`` fixture for simple cases, or
``make_rng`` when a test (typically a parametrized one) needs an
independent stream -- it derives the seed from the test's node id, so
data is stable across runs and orderings but distinct per test and per
parametrization.  ``session_rng`` is the session-wide root stream.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from tests.rngutil import SESSION_SEED, derive_rng

# Numeric property tests spawn moderately expensive NumPy work per
# example; keep example counts bounded and silence the too-slow check.
settings.register_profile(
    "repro",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
settings.load_profile("repro")


def pytest_report_header(config):
    """Name the native kernel variant -- GEMMs and Winograd transform
    passes -- this run exercises, and the thread team's size."""
    from repro import native

    return (f"repro.native: {native.VARIANT} GEMMs and transform passes "
            f"(supported: {', '.join(native.VARIANTS)}), "
            f"team of {native.team_stats()['threads']} threads")


@pytest.fixture(scope="session")
def session_rng() -> np.random.Generator:
    """One seeded generator shared by the whole session."""
    return np.random.default_rng(SESSION_SEED)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(SESSION_SEED)


@pytest.fixture
def make_rng(request):
    """Factory for per-test deterministic generators.

    ``make_rng()`` seeds from the test's node id (unique per
    parametrization, independent of execution order); ``make_rng(salt)``
    derives additional independent streams within one test.
    """

    def _make(salt: int = 0) -> np.random.Generator:
        return derive_rng(request.node.nodeid, salt)

    return _make


@pytest.fixture
def relu_images(rng):
    """Small post-ReLU-like NCHW activation tensor."""
    return np.maximum(rng.standard_normal((2, 8, 12, 12)), 0.0)


@pytest.fixture
def filters_3x3(rng):
    """Small He-scaled 3x3 filter bank (K=12, C=8)."""
    return rng.standard_normal((12, 8, 3, 3)) * np.sqrt(2.0 / (8 * 9))
