"""Histogram / min-max observers: merging, range growth, thresholds."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.quant import HistogramObserver, MinMaxObserver


class TestMinMax:
    def test_tracks_max_abs(self):
        obs = MinMaxObserver()
        obs.observe(np.array([1.0, -3.0]))
        obs.observe(np.array([2.0]))
        assert obs.threshold() == 3.0

    def test_empty_raises(self):
        with pytest.raises(RuntimeError):
            MinMaxObserver().threshold()

    def test_all_zero_fallback(self):
        obs = MinMaxObserver()
        obs.observe(np.zeros(5))
        assert obs.threshold() == 1.0

    def test_empty_batch_ignored(self):
        obs = MinMaxObserver()
        obs.observe(np.array([]))
        assert obs.count == 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_batch_rejected_state_unchanged(self, bad):
        # Unchecked, max() skips the NaN (threshold 2.0 though 5.0 was
        # seen) and inf becomes the threshold.
        obs = MinMaxObserver()
        obs.observe(np.array([1.0, -2.0]))
        with pytest.raises(ValueError, match="not finite"):
            obs.observe(np.array([5.0, bad]))
        assert (obs.max_abs, obs.count) == (2.0, 2)
        assert obs.threshold() == 2.0


class TestHistogram:
    def test_bins_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            HistogramObserver(bins=100)
        with pytest.raises(ValueError):
            HistogramObserver(bins=1)

    def test_counts_all_samples(self, rng):
        obs = HistogramObserver(bins=64)
        x = rng.standard_normal(1000)
        obs.observe(x)
        assert obs.counts.sum() == 1000
        assert obs.count == 1000

    def test_range_growth_preserves_counts(self, rng):
        obs = HistogramObserver(bins=64)
        obs.observe(rng.standard_normal(500))
        total_before = obs.counts.sum()
        obs.observe(np.array([100.0]))  # forces several doublings
        assert obs.counts.sum() == total_before + 1
        assert obs.range >= 100.0

    def test_growth_is_power_of_two(self):
        obs = HistogramObserver(bins=64)
        obs.observe(np.array([1.0]))
        r0 = obs.range
        obs.observe(np.array([5.0]))
        assert obs.range / r0 == 8.0  # 1 -> 2 -> 4 -> 8

    def test_max_abs_close_to_true_max(self, rng):
        obs = HistogramObserver(bins=2048)
        x = rng.standard_normal(10000)
        obs.observe(x)
        true_max = np.abs(x).max()
        assert true_max <= obs.max_abs() <= true_max * 1.01 + obs.bin_width

    @given(st.lists(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=50),
                    min_size=1, max_size=5))
    def test_batch_merging_preserves_mass_and_coverage(self, batches):
        """Incremental observation loses no samples and covers the max."""
        a = HistogramObserver(bins=128)
        all_values = np.concatenate([np.array(b) for b in batches])
        for b in batches:
            a.observe(np.array(b))
        assert a.counts.sum() == all_values.size
        assert a.range >= np.abs(all_values).max() or np.abs(all_values).max() == 0

    @given(st.lists(st.floats(-100, 100), min_size=2, max_size=60))
    def test_merged_batches_equal_single_when_max_first(self, values):
        """If the first batch contains the global max, incremental
        binning is bit-identical to one-shot binning (pair-merge growth
        keeps bin boundaries aligned)."""
        arr = np.array(values)
        order = np.argsort(-np.abs(arr))
        arr = arr[order]  # global max first
        a = HistogramObserver(bins=128)
        a.observe(arr[:1])
        a.observe(arr[1:])
        c = HistogramObserver(bins=128)
        c.observe(arr)
        assert a.range == c.range
        assert np.array_equal(a.counts, c.counts)

    def test_denormal_observation_does_not_break_binning(self):
        # A subnormal max (5e-324) used to set a subnormal range whose
        # bin width underflowed -- np.histogram raised "Too many bins
        # for data range".  The range is floored so bins stay finite.
        obs = HistogramObserver(bins=128)
        obs.observe(np.array([5e-324]))
        assert obs.counts.sum() == 1
        assert obs.range >= 5e-324
        obs.observe(np.array([1.0]))  # growth from the floored range works
        assert obs.counts.sum() == 2
        assert obs.range >= 1.0

    def test_nan_first_batch_rejected_state_unchanged(self):
        # Unchecked, a NaN range bins the whole batch into bin 0 and
        # the threshold falls back to 1.0.
        obs = HistogramObserver(bins=64)
        with pytest.raises(ValueError, match="not finite"):
            obs.observe(np.array([0.5, np.nan, 3.0]))
        assert (obs.range, obs.count) == (0.0, 0)
        assert not obs.counts.any()

    def test_nan_later_batch_rejected_state_unchanged(self):
        # Unchecked, values above the current range are dropped
        # silently (count 4, histogram total 2 for this input).
        obs = HistogramObserver(bins=64)
        obs.observe(np.array([1.0]))
        before = (obs.counts.copy(), obs.range, obs.count)
        with pytest.raises(ValueError, match="not finite"):
            obs.observe(np.array([0.5, 7.0, np.nan]))
        np.testing.assert_array_equal(obs.counts, before[0])
        assert (obs.range, obs.count) == before[1:]

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_inf_batch_rejected_before_range_growth(self, rng, bad):
        # Unchecked, the range doubles ~1000 times to inf, merging
        # every count into bin 0, before np.histogram raises.
        obs = HistogramObserver(bins=64)
        obs.observe(rng.standard_normal(100))
        before = (obs.counts.copy(), obs.range, obs.count)
        with pytest.raises(ValueError, match="not finite"):
            obs.observe(np.array([1.0, bad]))
        np.testing.assert_array_equal(obs.counts, before[0])
        assert (obs.range, obs.count) == before[1:]

    def test_threshold_minmax_zero_data(self):
        obs = HistogramObserver()
        obs.observe(np.zeros(10))
        assert obs.threshold_minmax() == 1.0
