"""KL-divergence threshold calibration (paper Eq. 7).

Implements the TensorRT-style entropy calibration [Migacz 2017] LoWino
uses to pick the quantization threshold ``tau``:

    tau = argmin_tau' KL( P(X) || P(Q_tau'(X)) )

The search scans truncation points ``i`` over the magnitude histogram.
For each candidate, the reference distribution ``P`` is the histogram
clipped at ``i`` with the clipped-off mass folded into the last bin
(saturation), and ``Q`` is what an INT8 quantizer would reconstruct:
the ``i`` bins are merged into ``qlevels = 2^(b-1)`` quantization levels
and re-expanded uniformly over the nonzero source bins.  The ``i``
minimizing ``KL(P || Q)`` defines ``tau = (i + 0.5) * bin_width``.

Each pass of the search (coarse, then refine) is evaluated as one array:
row ``r`` of a ``(candidates, bins)`` pair holds ``P`` and ``Q`` for one
truncation point, built from two cumulative sums (mass and live bins)
read at every row's bucket edges, and KL is the row sums of
``scipy.special.rel_entr``.  Each row is summed over its own length, so
every KL value is bitwise what evaluating that one truncation point
alone gives, and the search picks the same point.  LoWino runs one
search per Winograd tile position (36 per F(4x4,3x3) conv), so
evaluating candidates one by one made this search nearly all of a
model's calibration time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import rel_entr

from .observer import HistogramObserver

__all__ = ["kl_divergence_threshold", "EntropyCalibrator", "CalibrationResult"]


def _truncations(
    hist: np.ndarray, stops: np.ndarray, qlevels: int
) -> tuple[np.ndarray, np.ndarray]:
    """Reference and quantized histograms for every truncation point.

    Row ``r`` describes truncation at ``i = stops[r]`` (``i <= hist.size``);
    columns from ``i`` on are 0 in both arrays:

    * ``ref[r]`` is ``hist[:i]`` with ``hist[i:].sum()`` added to bin
      ``i - 1`` (saturation);
    * ``cand[r]`` merges ``hist[:i]`` into ``qlevels`` buckets at the
      edges ``np.linspace(0, i, qlevels + 1)`` and spreads each bucket's
      mass evenly over its *nonzero* bins, mirroring how dequantized
      values land only where data existed.

    Bucket masses, live-bin counts and the saturated tail are
    differences of one cumulative sum each, so a row costs the same few
    array passes whatever its length.  ``hist`` holds integer counts, so
    those differences are exact.
    """
    live = hist > 0
    mass_cum = np.concatenate(([0.0], np.cumsum(hist)))
    live_cum = np.concatenate(([0], np.cumsum(live)))
    edges = np.linspace(0, stops, qlevels + 1, axis=1).astype(np.int64)
    mass = np.diff(mass_cum[edges], axis=1)
    nlive = np.diff(live_cum[edges], axis=1)
    per_bin = np.divide(mass, nlive, out=np.zeros_like(mass), where=nlive > 0)
    # Each row expands its buckets plus one zero "bucket" from ``i`` on.
    widths = np.column_stack((np.diff(edges, axis=1), hist.size - stops))
    per_bin = np.column_stack((per_bin, np.zeros(stops.size)))
    cand = np.repeat(per_bin.ravel(), widths.ravel()).reshape(stops.size, hist.size)
    cand *= live
    ref = np.where(np.arange(hist.size) < stops[:, None], hist, 0.0)
    ref[np.arange(stops.size), stops - 1] += mass_cum[-1] - mass_cum[stops]
    return ref, cand


def _prefix_sums(a: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """``a[r, :stops[r]].sum()`` for every row.

    Not ``a.sum(axis=1)``: numpy's pairwise summation groups terms by
    length, so summing a row's zero padding too moves the last bits.
    Summing each row's own prefix adds exactly what a one-truncation
    scan adds.
    """
    return np.array([np.add.reduce(row[:i]) for row, i in zip(a, stops.tolist())])


def _kl_divergences(hist: np.ndarray, stops: np.ndarray, qlevels: int) -> np.ndarray:
    """``KL(P || Q)`` of every truncation point in ``stops``.

    ``inf`` where ``Q`` drops a bin ``P`` populates (``rel_entr`` of a
    positive over a zero), which correctly penalizes reconstructions
    that lose data; NaN where ``Q`` is empty.  The arithmetic is that of
    ``scipy.stats.entropy(ref / ref.sum(), cand / cand.sum())`` on each
    row's prefix, including entropy's second normalization of both
    inputs, so every value is bitwise what evaluating one truncation at
    a time gives and ties break the same way.
    """
    ref, cand = _truncations(hist, stops, qlevels)
    # In place: each temporary is (candidates, bins) float64, and fresh
    # ones cost page faults.  Both inputs are normalized twice, as
    # entropy() on normalized arguments does; every ``ref`` row keeps
    # the full mass, so one total does its first pass.
    ref /= hist.sum()
    ref /= _prefix_sums(ref, stops)[:, None]
    with np.errstate(invalid="ignore"):  # 0 / 0 in rows with an empty Q
        for _ in range(2):
            cand /= _prefix_sums(cand, stops)[:, None]
    return _prefix_sums(rel_entr(ref, cand, out=ref), stops)


def kl_divergence_threshold(
    observer: HistogramObserver,
    bits: int = 8,
    min_bins: int | None = None,
    stride: int = 1,
) -> "CalibrationResult":
    """Scan truncation points and return the KL-optimal threshold.

    The scan runs in two passes, each evaluated as one array (see
    :func:`_kl_divergences`): every ``max(stride, 16)``-th truncation
    point from ``min_bins`` up to the top populated bin (which is always
    included), then every ``stride``-th point within one coarse step of
    the coarse best.  Ties go to the first minimum in scan order: a
    point replaces the running best only with a strictly smaller finite
    KL, so the coarse best, which reappears in the refine window with
    the same KL, keeps its place against an equal refine candidate.
    ``scanned`` counts both passes in full.

    Parameters
    ----------
    observer:
        A populated :class:`HistogramObserver`.
    bits:
        Target signed bit width; the quantizer has ``2^(b-1)`` magnitude
        levels (128 for INT8).
    min_bins:
        Smallest truncation point to consider (defaults to the number of
        quantization levels, as in TensorRT).
    stride:
        Evaluate every ``stride``-th truncation point in the refine pass
        (speed knob; 1 = exhaustive around the coarse best).
    """
    if observer.count == 0:
        raise RuntimeError("cannot calibrate an empty observer")
    qlevels = 1 << (bits - 1)
    counts = observer.counts.astype(np.float64)
    # Zero-bin smoothing (TensorRT's `bins[0] = bins[1]`): post-ReLU
    # tensors concentrate enormous mass at zero; left as-is that spike
    # dominates the KL objective and drives the search toward absurdly
    # small truncation points that clip real signal.
    if counts.size >= 2:
        counts[0] = counts[1]
    start = qlevels if min_bins is None else max(min_bins, 2)
    top = int(np.flatnonzero(counts)[-1]) + 1 if counts.any() else 0
    if top <= start:
        # Degenerate histogram: everything fits below the minimum scan
        # point; fall back to the max-abs threshold.
        tau = observer.threshold_minmax()
        return CalibrationResult(threshold=tau, kl=0.0, bin_index=top, scanned=0)

    hist = counts[:top]  # later columns would be 0 in every row

    def scan(stops: np.ndarray, best_kl: float, best_i: int) -> tuple[float, int]:
        kl = _kl_divergences(hist, stops, qlevels)
        kl[~np.isfinite(kl)] = np.inf  # never a best
        j = int(np.argmin(kl))  # first minimum
        if kl[j] < best_kl:
            return float(kl[j]), int(stops[j])
        return best_kl, best_i

    # Coarse-to-fine search: scan at a coarse stride, then refine around
    # the best coarse point at the requested stride.  KL(i) is smooth
    # enough in practice that this matches the exhaustive scan.
    coarse = max(stride, 16)
    coarse_stops = np.arange(start, top + 1, coarse)
    if coarse_stops[-1] != top:
        coarse_stops = np.append(coarse_stops, top)
    best_kl, best_i = scan(coarse_stops, np.inf, top)
    fine_stops = np.arange(max(start, best_i - coarse), min(top, best_i + coarse) + 1, stride)
    best_kl, best_i = scan(fine_stops, best_kl, best_i)
    tau = (best_i + 0.5) * observer.bin_width
    return CalibrationResult(
        threshold=tau,
        kl=best_kl if np.isfinite(best_kl) else 0.0,
        bin_index=best_i,
        scanned=coarse_stops.size + fine_stops.size,
    )


@dataclass(frozen=True)
class CalibrationResult:
    """Outcome of a threshold search."""

    threshold: float
    kl: float
    bin_index: int
    scanned: int


class EntropyCalibrator:
    """Batch-wise calibration driver for one tensor (or tensor slice).

    Feed calibration batches with :meth:`collect`; call :meth:`threshold`
    to run the KL search.  ``method='minmax'`` bypasses the search and
    returns ``||x||_inf`` (the non-optimal baseline the paper mentions).
    """

    def __init__(self, bins: int = 2048, bits: int = 8, stride: int = 1) -> None:
        self.observer = HistogramObserver(bins=bins)
        self.bits = bits
        self.stride = stride

    def collect(self, x: np.ndarray) -> None:
        self.observer.observe(x)

    def threshold(self, method: str = "kl") -> float:
        if method == "kl":
            return kl_divergence_threshold(
                self.observer, bits=self.bits, stride=self.stride
            ).threshold
        if method == "minmax":
            return self.observer.threshold_minmax()
        raise ValueError(f"unknown calibration method {method!r}")
