"""Statistics observers used by post-training calibration.

Calibration (Section 3) runs the network over a few hundred unlabeled
sample images and records the distribution of every tensor that will be
quantized.  Two observers are provided:

* :class:`MinMaxObserver` -- tracks ``max |x|``; the naive ``tau = ||x||_inf``
  threshold the paper mentions as the non-optimal baseline.
* :class:`HistogramObserver` -- maintains a fixed-bin histogram of ``|x|``
  with dynamic range growth, feeding the KL-divergence threshold search in
  :mod:`repro.quant.calibration`.

Observers accept repeated :meth:`observe` calls (one per calibration
batch) and merge statistics exactly: the histogram range grows by
power-of-two doubling, under which existing bins merge without loss of
resolution alignment.  A batch holding NaN or inf raises ``ValueError``
and leaves the observer as it was.
"""

from __future__ import annotations

import numpy as np

__all__ = ["MinMaxObserver", "HistogramObserver"]


def _finite_max(mags: np.ndarray) -> float:
    """``mags.max()``, refusing a batch that holds NaN or inf.

    The max propagates NaN and inf, so one check covers every element.
    Observers call this before touching their state: a non-finite value
    would otherwise corrupt it silently (NaN ranges bin everything into
    bin 0 or drop samples; inf doubles the range without end).
    """
    batch_max = float(np.max(mags))
    if not np.isfinite(batch_max):
        raise ValueError(f"calibration batch is not finite (max |x| = {batch_max})")
    return batch_max


class MinMaxObserver:
    """Tracks the maximum absolute value seen across all observed batches."""

    def __init__(self) -> None:
        self.max_abs = 0.0
        self.count = 0

    def observe(self, x: np.ndarray) -> None:
        x = np.asarray(x)
        if x.size == 0:
            return
        self.max_abs = max(self.max_abs, _finite_max(np.abs(x)))
        self.count += x.size

    def threshold(self) -> float:
        """tau = ||x||_inf over everything observed."""
        if self.count == 0:
            raise RuntimeError("observer has seen no data")
        return self.max_abs if self.max_abs > 0 else 1.0


class HistogramObserver:
    """Histogram of ``|x|`` over ``[0, range)`` with power-of-two growth.

    Parameters
    ----------
    bins:
        Number of histogram bins; must be a power of two so that range
        doubling merges bins exactly (2048 matches TensorRT's calibrator).
    """

    def __init__(self, bins: int = 2048) -> None:
        if bins < 2 or bins & (bins - 1):
            raise ValueError(f"bins must be a power of two >= 2, got {bins}")
        self.bins = bins
        self.counts = np.zeros(bins, dtype=np.int64)
        self.range = 0.0
        self.count = 0

    def _grow_range(self, new_max: float) -> None:
        """Double the histogram range until ``new_max`` fits, merging bins."""
        # A subnormal range underflows the bin width and np.histogram
        # cannot form ``bins`` distinct edges; floor the range so every
        # bin spans at least one normal float (denormal observations
        # then simply land in bin 0).
        new_max = max(new_max, float(np.finfo(np.float64).tiny) * self.bins)
        if self.range == 0.0:
            self.range = float(new_max)
            return
        while self.range < new_max:
            merged = self.counts.reshape(self.bins // 2, 2).sum(axis=1)
            self.counts[: self.bins // 2] = merged
            self.counts[self.bins // 2 :] = 0
            self.range *= 2.0

    def observe(self, x: np.ndarray) -> None:
        mags = np.abs(np.asarray(x, dtype=np.float64)).ravel()
        if mags.size == 0:
            return
        batch_max = _finite_max(mags)
        if batch_max > 0:
            # nextafter keeps the max sample strictly inside the top bin.
            self._grow_range(np.nextafter(batch_max, np.inf))
        if self.range > 0:
            hist, _ = np.histogram(mags, bins=self.bins, range=(0.0, self.range))
            self.counts += hist
        else:
            # All-zero batch before any range exists: zeros belong to
            # bin 0 whatever range is eventually established.
            self.counts[0] += mags.size
        self.count += mags.size

    @property
    def bin_width(self) -> float:
        return self.range / self.bins if self.range > 0 else 0.0

    def max_abs(self) -> float:
        """Upper edge of the highest populated bin (~ max |x|)."""
        nz = np.flatnonzero(self.counts)
        if nz.size == 0:
            return 0.0
        return (nz[-1] + 1) * self.bin_width

    def threshold_minmax(self) -> float:
        t = self.max_abs()
        return t if t > 0 else 1.0
