"""Reference KL threshold scan: one truncation point at a time.

Each candidate's reconstruction is built on its own and its KL comes
from ``scipy.stats.entropy``.  ``repro.quant.calibration`` evaluates a
whole pass as one array; this scan is the oracle it is checked
against, field by field: ``bin_index``, ``threshold``, ``scanned`` and
``kl``.
"""

from __future__ import annotations

import numpy as np
from scipy.stats import entropy

from repro.quant import CalibrationResult, HistogramObserver

__all__ = ["quantized_reconstruction", "kl_divergence_threshold_oracle"]


def quantized_reconstruction(hist: np.ndarray, qlevels: int) -> np.ndarray:
    """Merge ``hist`` into ``qlevels`` buckets and expand back uniformly.

    The expansion distributes each bucket's mass evenly over the source
    bins that were *nonzero*, mirroring how dequantized values land only
    where data existed.
    """
    nbins = hist.size
    edges = np.linspace(0, nbins, qlevels + 1).astype(np.int64)
    # Bucket index of every bin, then per-bucket mass / live-bin counts.
    bucket = np.searchsorted(edges[1:], np.arange(nbins), side="right")
    starts = np.unique(edges[:-1])
    mass = np.add.reduceat(hist, starts)
    nonzero = hist > 0
    live = np.add.reduceat(nonzero.astype(np.int64), starts)
    # Map reduceat segments back to the full qlevels indexing.
    seg_of_bucket = np.searchsorted(starts, edges[:-1], side="right") - 1
    per_bucket = np.zeros(qlevels, dtype=np.float64)
    valid = live[seg_of_bucket] > 0
    per_bucket[valid] = mass[seg_of_bucket][valid] / live[seg_of_bucket][valid]
    out = np.where(nonzero, per_bucket[bucket], 0.0)
    return out


def kl_divergence_threshold_oracle(
    observer: HistogramObserver,
    bits: int = 8,
    min_bins: int | None = None,
    stride: int = 1,
) -> CalibrationResult:
    """Same contract as :func:`repro.quant.kl_divergence_threshold`."""
    if observer.count == 0:
        raise RuntimeError("cannot calibrate an empty observer")
    qlevels = 1 << (bits - 1)
    counts = observer.counts.astype(np.float64)
    nbins = counts.size
    if nbins >= 2:
        counts[0] = counts[1]
    start = qlevels if min_bins is None else max(min_bins, 2)
    top = int(np.flatnonzero(counts)[-1]) + 1 if counts.any() else 0
    if top <= start:
        tau = observer.threshold_minmax()
        return CalibrationResult(threshold=tau, kl=0.0, bin_index=top, scanned=0)

    tail = counts[::-1].cumsum()[::-1]  # tail[i] = counts[i:].sum()

    def kl_at(i: int) -> float:
        ref = counts[:i].copy()
        ref[-1] += tail[i] if i < nbins else 0.0  # saturated mass
        ref_sum = ref.sum()
        if ref_sum == 0:
            return np.inf
        cand = quantized_reconstruction(counts[:i], qlevels)
        cand_sum = cand.sum()
        if cand_sum == 0:
            return np.inf
        # entropy() treats qk==0 where pk>0 as infinite KL, which
        # correctly penalizes reconstructions that drop populated bins.
        return float(entropy(ref / ref_sum, cand / cand_sum))

    coarse = max(stride, 16)
    best_kl = np.inf
    best_i = top
    scanned = 0
    candidates = list(range(start, top + 1, coarse))
    if candidates[-1] != top:
        candidates.append(top)
    for i in candidates:
        kl = kl_at(i)
        scanned += 1
        if np.isfinite(kl) and kl < best_kl:
            best_kl, best_i = kl, i
    lo = max(start, best_i - coarse)
    hi = min(top, best_i + coarse)
    for i in range(lo, hi + 1, stride):
        kl = kl_at(i)
        scanned += 1
        if np.isfinite(kl) and kl < best_kl:
            best_kl, best_i = kl, i
    tau = (best_i + 0.5) * observer.bin_width
    return CalibrationResult(
        threshold=tau,
        kl=best_kl if np.isfinite(best_kl) else 0.0,
        bin_index=best_i,
        scanned=scanned,
    )
