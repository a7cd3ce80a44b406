"""Bulk-mean and outlier estimators for finite-sample spectra."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np


@dataclass(frozen=True)
class BulkEstimate:
    """Estimated bulk mean lambda_b with bookkeeping of what was discounted."""

    bulk_mean: float
    removed_zero_modes: int
    removed_outliers: int
    method: str


@dataclass(frozen=True)
class OutlierReport:
    """Outlier count and predicted values, sorted descending."""

    count: int
    predicted: Tuple[float, ...]
    gap_threshold: float = float("nan")
    separation_holds: bool = True


@dataclass(frozen=True)
class LayerBlockSpec:
    """Per-layer block statistics (size, element mean, element std)."""

    blocks: Tuple[Tuple[int, float, float], ...]

    def __post_init__(self):
        for size, _mean, std in self.blocks:
            if size < 1:
                raise ValueError("block size must be >= 1")
            if std < 0:
                raise ValueError("block element std must be nonnegative")


def _discount_mask(locations, zero_modes, outliers):
    """Keep-mask without the ``zero_modes`` smallest-|lambda| entries and the
    ``outliers`` largest entries among the rest.

    Ties go to the lowest index for zero modes, matching ``np.argmin``; an
    entry dropped as a zero mode is not counted again as an outlier.  A
    negative count drops nothing.
    """
    keep = np.ones(len(locations), dtype=bool)
    keep[np.argsort(np.abs(locations), kind="stable")[:max(zero_modes, 0)]] = False
    descending = np.argsort(locations, kind="stable")[::-1]
    keep[descending[keep[descending]][:max(outliers, 0)]] = False
    return keep


def bulk_mean_random_vector(mixture, layers):
    """Weighted bulk mean from a random-seed Lanczos mixture.

    Discounts the ghost zero spike (atom of smallest |lambda|, dropped
    unconditionally) and the ``layers`` largest atoms (one outlier per
    layer), then returns the renormalized weighted mean of the remainder.
    """
    locations = mixture.locations
    weights = mixture.weights
    if len(locations) <= layers + 2:
        raise ValueError(f"need more than layers + 2 = {layers + 2} atoms, got {len(locations)}")
    keep = _discount_mask(locations, 1, layers)
    remaining_w = weights[keep]
    if remaining_w.sum() <= 0:
        raise ValueError("no spectral mass left after discounting")
    mean = float(np.sum(remaining_w * locations[keep]) / remaining_w.sum())
    return BulkEstimate(bulk_mean=mean, removed_zero_modes=1,
                        removed_outliers=int(np.sum(~keep)) - 1,
                        method="random_vector_weighted")


def bulk_median_gradient(ritz_values, layers):
    """Unweighted bulk median for gradient-seeded runs (no quadrature weights).

    Drops the smallest-|lambda| entry and the top ``layers`` entries, then
    takes the median of the remainder.
    """
    values = np.sort(np.asarray(ritz_values, dtype=np.float64))
    if len(values) <= layers + 2:
        raise ValueError(f"need more than layers + 2 = {layers + 2} values, got {len(values)}")
    keep = _discount_mask(values, 1, layers)
    return BulkEstimate(bulk_mean=float(np.median(values[keep])),
                        removed_zero_modes=1, removed_outliers=int(np.sum(~keep)) - 1,
                        method="gradient_median")


def count_outliers_gap(ritz_values, threshold):
    """Count outliers by scanning relative gaps in the descending Ritz values.

    Delta_i = (lambda_i - lambda_{i+1}) / lambda_1; the outlier count is
    the LARGEST index whose gap meets the threshold, so nested outlier
    tiers all count.  Scale-invariant by construction.
    """
    values = np.sort(np.asarray(ritz_values, dtype=np.float64))[::-1]
    if len(values) < 2:
        raise ValueError("need at least two values to scan gaps")
    if values[0] <= 0:
        raise ValueError("largest value must be positive (relative gap undefined)")
    if not 0.0 < threshold < 1.0:
        raise ValueError("gap threshold must lie in (0, 1)")
    gaps = (values[:-1] - values[1:]) / values[0]
    qualifying = np.nonzero(gaps >= threshold)[0]
    count = int(qualifying[-1] + 1) if len(qualifying) else 0
    return OutlierReport(count=count, predicted=tuple(values[:count]),
                         gap_threshold=float(threshold))


def predict_outliers_from_blocks(spec):
    """Block-diagonal outlier heuristic: each layer block of size n and
    positive element mean mu contributes one well-separated eigenvalue of
    size n * mu, valid while max(2 sigma sqrt(n)) stays below min(n mu).
    """
    if any(mean <= 0 for _, mean, _ in spec.blocks):
        raise ValueError("block heuristic requires positive element means")
    predicted = sorted((size * mean for size, mean, _ in spec.blocks), reverse=True)
    noise_edge = max(2.0 * std * np.sqrt(size) for size, _, std in spec.blocks)
    smallest_outlier = min(size * mean for size, mean, _ in spec.blocks)
    separation = noise_edge < smallest_outlier
    return OutlierReport(count=len(spec.blocks) if separation else 0,
                         predicted=tuple(predicted),
                         separation_holds=separation)
