"""KL-divergence calibration (Eq. 7)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import LoWinoConv2d
from repro.nn import build_vgg_small, quantize_model
from repro.quant import (
    EntropyCalibrator,
    HistogramObserver,
    calibration,
    kl_divergence_threshold,
)
from repro.quant.calibration import _truncations

from tests.quant.kl_oracle import kl_divergence_threshold_oracle, quantized_reconstruction
from tests.rngutil import derive_rng


def _reconstruction(hist, qlevels):
    """The quantized reconstruction of the whole of ``hist``."""
    return _truncations(hist, np.array([hist.size]), qlevels)[1][0]


class TestReconstruction:
    def test_preserves_total_mass(self, rng):
        hist = rng.poisson(3.0, 777).astype(np.float64)
        out = _reconstruction(hist, 128)
        assert out.sum() == pytest.approx(hist.sum())

    def test_zero_bins_stay_zero(self, rng):
        hist = rng.poisson(3.0, 500).astype(np.float64)
        hist[::3] = 0
        out = _reconstruction(hist, 128)
        assert np.all(out[hist == 0] == 0)

    def test_uniform_within_bucket(self):
        hist = np.ones(256)
        out = _reconstruction(hist, 128)
        # 256 bins, 128 buckets of 2 -> each bin gets mass 1.
        assert np.allclose(out, 1.0)

    def test_empty_hist(self):
        out = _reconstruction(np.zeros(256), 128)
        assert np.all(out == 0)

    @given(st.integers(min_value=128, max_value=1024))
    def test_mass_preservation_property(self, n):
        rng = derive_rng(n)
        hist = rng.poisson(1.0, n).astype(np.float64)
        out = _reconstruction(hist, 128)
        assert out.sum() == pytest.approx(hist.sum())

    @given(st.integers(min_value=2, max_value=600), st.sampled_from([4, 16, 128]))
    def test_rows_match_scalar_reconstruction(self, n, qlevels):
        """Every row is the one-truncation reconstruction of its prefix,
        bitwise, padded with zeros; ``ref`` keeps the clipped-off mass in
        the prefix's last bin.  Stops below ``qlevels`` exercise empty
        buckets (repeated edges)."""
        rng = derive_rng(n, qlevels)
        hist = rng.poisson(0.7, n).astype(np.float64)
        stops = np.unique(rng.integers(1, n + 1, 12))
        ref, cand = _truncations(hist, stops, qlevels)
        for r, i in enumerate(stops):
            np.testing.assert_array_equal(cand[r, :i], quantized_reconstruction(hist[:i], qlevels))
            saturated = hist[:i].copy()
            saturated[-1] += hist[i:].sum()
            np.testing.assert_array_equal(ref[r, :i], saturated)
            assert not cand[r, i:].any() and not ref[r, i:].any()


class TestThresholdSearch:
    def test_gaussian_keeps_full_range(self):
        """Gaussian data has no outliers worth clipping: tau ~ max."""
        obs = HistogramObserver()
        obs.observe(derive_rng(0).standard_normal(200000))
        r = kl_divergence_threshold(obs)
        assert r.threshold >= 0.9 * obs.threshold_minmax()

    def test_heavy_tail_clips(self):
        """Lognormal data: KL should clip far below the max outlier."""
        obs = HistogramObserver()
        obs.observe(derive_rng(0).lognormal(0.0, 1.0, 200000))
        r = kl_divergence_threshold(obs)
        assert r.threshold < 0.5 * obs.threshold_minmax()
        # ...but keep effectively all the mass (>= 99.5%).
        data_sorted = obs.counts.cumsum()
        idx = min(r.bin_index, obs.counts.size - 1)
        assert data_sorted[idx] / obs.counts.sum() > 0.995

    def test_empty_observer_raises(self):
        with pytest.raises(RuntimeError):
            kl_divergence_threshold(HistogramObserver())

    def test_degenerate_narrow_histogram(self):
        """A histogram no wider than the quantizer's level count cannot
        be truncated; the search falls back to the min-max threshold."""
        obs = HistogramObserver(bins=128)
        obs.observe(np.array([0.5] * 10))
        r = kl_divergence_threshold(obs)
        assert r.threshold > 0
        assert r.scanned == 0
        assert r.threshold == pytest.approx(obs.threshold_minmax())

    @pytest.mark.parametrize("tied, best", [((150, 160), 160), ((144, 160), 144)])
    def test_ties_go_to_first_minimum_in_scan_order(self, monkeypatch, tied, best):
        """Coarse stops are 128, 144, 160, ...; the refine pass covers
        144..176 around 160 or 128..160 around 144.  An equal KL later in
        scan order never displaces the best, even when the refine pass
        reaches it at a smaller bin; NaN and inf never win."""

        def fake_kl(hist, stops, qlevels):
            kl = np.where(stops % 3 == 0, np.nan, np.where(stops % 3 == 1, np.inf, 1.0))
            kl[np.isin(stops, tied)] = 0.5
            return kl

        monkeypatch.setattr(calibration, "_kl_divergences", fake_kl)
        obs = HistogramObserver(bins=256)
        obs.observe(np.linspace(0.0, 1.0, 1000))
        r = kl_divergence_threshold(obs)
        assert (r.bin_index, r.kl) == (best, 0.5)
        assert r.threshold == (best + 0.5) * obs.bin_width

    def test_stride_consistency(self):
        obs = HistogramObserver()
        obs.observe(derive_rng(1).standard_normal(50000))
        t1 = kl_divergence_threshold(obs, stride=1).threshold
        t4 = kl_divergence_threshold(obs, stride=4).threshold
        assert abs(t1 - t4) / t1 < 0.1


class TestEntropyCalibrator:
    def test_collect_and_threshold(self, rng):
        cal = EntropyCalibrator()
        for _ in range(3):
            cal.collect(rng.standard_normal(5000))
        assert cal.threshold("kl") > 0
        assert cal.threshold("minmax") > 0

    def test_minmax_vs_kl_ordering(self, rng):
        cal = EntropyCalibrator()
        cal.collect(rng.lognormal(0, 1, 100000))
        assert cal.threshold("kl") <= cal.threshold("minmax") * 1.01

    def test_unknown_method(self, rng):
        cal = EntropyCalibrator()
        cal.collect(rng.standard_normal(100))
        with pytest.raises(ValueError):
            cal.threshold("magic")


#: Synthetic calibration populations for the oracle comparison.
POPULATIONS = {
    "gaussian": lambda rng, n: rng.standard_normal(n),
    "lognormal": lambda rng, n: rng.lognormal(0.0, 1.0, n),
    "relu": lambda rng, n: np.maximum(rng.standard_normal(n), 0.0),  # spike at 0
    "cauchy": lambda rng, n: rng.standard_cauchy(n),
    "lattice": lambda rng, n: rng.integers(0, rng.integers(2, 64), n) * 0.37,
    "outlier": lambda rng, n: np.append(rng.standard_normal(n - 1), 1e3),
}


def _assert_same_search(obs, **kwargs):
    """The array scan does the scalar scan's arithmetic, so every field
    is equal, KL included: same candidates, same ``scanned``, same
    first minimum."""
    assert kl_divergence_threshold(obs, **kwargs) == kl_divergence_threshold_oracle(obs, **kwargs)


class TestScalarScanOracle:
    @settings(max_examples=80)
    @given(
        population=st.sampled_from(sorted(POPULATIONS)),
        bins=st.sampled_from([128, 256, 512, 1024, 2048]),
        stride=st.sampled_from([1, 2, 4, 8]),
        min_bins=st.one_of(st.none(), st.integers(2, 300)),
        n=st.integers(2, 20000),
        seed=st.integers(0, 2**16),
    )
    def test_synthetic_histograms(self, population, bins, stride, min_bins, n, seed):
        obs = HistogramObserver(bins=bins)
        obs.observe(POPULATIONS[population](derive_rng(population, n, seed), n))
        _assert_same_search(obs, stride=stride, min_bins=min_bins)

    @pytest.mark.slow
    def test_vgg_small_lowino_histograms(self, monkeypatch):
        """Every Winograd-domain histogram VGG-small's LoWino F(4x4,3x3)
        calibration builds: 7 convs x 36 tile positions."""
        calibrators = []
        apply_calibration = LoWinoConv2d.apply_calibration

        def record(layer, calib):
            calibrators.append(calib)
            return apply_calibration(layer, calib)

        monkeypatch.setattr(LoWinoConv2d, "apply_calibration", record)
        rng = derive_rng("vgg-small-lowino-calibration")
        batches = [rng.standard_normal((8, 3, 32, 32)) for _ in range(4)]
        quantize_model(build_vgg_small(width=32), "lowino", m=4, calibration_batches=batches)
        positions = [c for calib in calibrators for c in calib._calibs]
        assert len(positions) == 7 * 36
        for position in positions:
            _assert_same_search(position.observer, bits=position.bits, stride=position.stride)
