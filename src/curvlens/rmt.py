"""Random-matrix generators, limiting densities, MP bulk fitting and spectral cleaning."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from curvlens.bulk import _discount_mask
from curvlens.operators import (ORACLE_DIM_CAP, DenseSymmetric, _mirror_upper, _symmetrize,
                                dense_eigendecomposition)


@dataclass(frozen=True)
class MPParams:
    """Marcenko-Pastur parameters: variance sigma^2 and ratio q = P / T_samples."""

    variance: float
    ratio: float

    def __post_init__(self):
        if self.variance <= 0:
            raise ValueError("MP variance sigma^2 must be positive")
        if self.ratio <= 0:
            raise ValueError("MP ratio q must be positive")

    @property
    def edge_lower(self):
        return self.variance * (1.0 - np.sqrt(self.ratio)) ** 2

    @property
    def edge_upper(self):
        return self.variance * (1.0 + np.sqrt(self.ratio)) ** 2

    @property
    def zero_mass(self):
        return max(0.0, 1.0 - 1.0 / self.ratio)


@dataclass(frozen=True)
class PlantedSpectrumSpec:
    """Recipe for a rotated matrix with a known spectrum.

    ``groups`` lists (count, dist, lo, hi) with dist in {"uniform", "const"};
    const groups place ``count`` copies of ``lo``.  The eigenvalue draws and
    the rotation come from the stream passed to ``planted_matrix``.
    """

    dim: int
    groups: Tuple[Tuple[int, str, float, float], ...]

    def __post_init__(self):
        if any(count < 0 for count, *_ in self.groups):
            raise ValueError("group counts must be nonnegative")
        total = sum(count for count, *_ in self.groups)
        if total != self.dim:
            raise ValueError(f"group counts sum to {total}, expected dim {self.dim}")

    @staticmethod
    def from_json(text):
        raw = json.loads(text)
        unknown = sorted(set(raw) - {"dim", "groups"})
        if unknown:
            raise ValueError(f"unknown planted-spectrum keys {unknown}; expected only dim, groups")
        groups = tuple(
            (int(g["count"]), str(g["dist"]), float(g["lo"]), float(g.get("hi", g["lo"])))
            for g in raw["groups"]
        )
        return PlantedSpectrumSpec(dim=int(raw["dim"]), groups=groups)


@dataclass(frozen=True)
class OverlapCleaning:
    """Cleaned eigenvalues and the squared-overlap matrix between the two bases."""

    cleaned: np.ndarray
    overlaps: np.ndarray


def sample_wigner(dim, stream, normalized=False):
    """Real symmetric Wigner sample: i.i.d. N(0,1) entries mirrored across the diagonal.

    The normalized variant divides by sqrt(P) so the spectrum converges to
    the semicircle on [-2, 2].
    """
    if dim < 2:
        raise ValueError("Wigner sample needs dim >= 2")
    rng = stream.generator
    h = _mirror_upper(rng.standard_normal((dim, dim)))
    if normalized:
        h /= np.sqrt(dim)
    return DenseSymmetric(entries=h)


def sample_wishart(dim, t_samples, stream):
    """Wishart sample Y = X X^T / T with X a (P x T) i.i.d. standard normal matrix."""
    if dim < 1 or t_samples < 1:
        raise ValueError("dim and t_samples must be >= 1")
    rng = stream.generator
    x = rng.standard_normal((dim, t_samples))
    y = x @ x.T
    y /= t_samples
    return DenseSymmetric(entries=_symmetrize(y))


def wigner_density(x):
    """Semicircle density sqrt(4 - x^2) / (2 pi), zero outside [-2, 2]."""
    x = np.asarray(x, dtype=np.float64)
    out = np.where(np.abs(x) <= 2.0, np.sqrt(np.clip(4.0 - x * x, 0.0, None)) / (2.0 * np.pi), 0.0)
    return float(out) if out.ndim == 0 else out


def mp_density(x, params):
    """Marcenko-Pastur bulk density; integrates to 1 - zero_mass over its support.

    Mass at zero (fraction 1 - 1/q when q > 1) is not part of the
    continuous density and must be accounted for separately.
    """
    x = np.asarray(x, dtype=np.float64)
    lo, hi = params.edge_lower, params.edge_upper
    inside = (x > lo) & (x < hi) & (x > 0)
    xs = np.where(inside, x, hi)  # outside the support: hi > 0 gives a finite zero
    out = np.where(inside, np.sqrt((hi - xs) * (xs - lo))
                   / (2.0 * np.pi * params.variance * params.ratio * xs), 0.0)
    return float(out) if out.ndim == 0 else out


def planted_spectrum(spec, stream):
    """Draw the eigenvalue list prescribed by a planted-spectrum recipe."""
    rng = stream.generator
    values = []
    for count, dist, lo, hi in spec.groups:
        if dist == "uniform":
            values.append(rng.uniform(lo, hi, size=count))
        elif dist == "const":
            values.append(np.full(count, lo))
        else:
            raise ValueError(f"unknown group distribution {dist!r}")
    return np.sort(np.concatenate(values)) if values else np.array([])


def planted_matrix(spec, stream):
    """Rotate a planted diagonal spectrum by a Haar-like orthogonal matrix.

    Returns the dense matrix U D U^T together with the true (sorted)
    spectrum.  The rotation comes from orthonormalizing a Gaussian matrix
    (QR with sign fix), deterministic given the stream.
    """
    if spec.dim > ORACLE_DIM_CAP:
        raise ValueError(f"planted matrices capped at dim {ORACLE_DIM_CAP} (oracle scale)")
    d = planted_spectrum(spec, stream)
    rng = stream.generator
    while True:
        q, r = np.linalg.qr(rng.standard_normal((spec.dim, spec.dim)))
        signs = np.sign(np.diag(r))
        del r  # the rotation below holds two more P x P arrays next to q
        if np.all(signs != 0.0):  # rank-deficient draw has probability ~0
            break
    q *= signs
    h = (q * d) @ q.T
    return DenseSymmetric(entries=_symmetrize(h)), d


def fit_mp_to_bulk(mixture, excluded_outliers=0, excluded_zero_modes=0):
    """Fit MP parameters to the bulk of a mixture by moment-plus-edge matching.

    Drops the given counts of smallest-|lambda| atoms (ghost zero modes)
    and largest atoms (outliers); sigma^2 is the weighted bulk mean, and q
    solves edge_upper = sigma^2 (1 + sqrt(q))^2 at the largest bulk atom.
    """
    locations = mixture.locations
    weights = mixture.weights
    keep = _discount_mask(locations, excluded_zero_modes, excluded_outliers)
    if keep.sum() < 1 or weights[keep].sum() <= 0:
        raise ValueError("all mixture mass excluded, cannot fit MP bulk")
    bulk_loc = locations[keep]
    bulk_w = weights[keep] / weights[keep].sum()
    variance = float(np.sum(bulk_w * bulk_loc))
    top = float(bulk_loc.max())
    sqrt_q = max(np.sqrt(max(top, 0.0) / variance) - 1.0, 0.0)
    ratio = max(sqrt_q ** 2, 1e-12)
    return MPParams(variance=variance, ratio=ratio)


def rie_clean(true_matrix, empirical_matrix):
    """Rotationally-invariant eigenvalue cleaning via squared basis overlaps.

    cleaned_i = sum_j <u_i | u_hat_j>^2 lambda_hat_j with u the true
    eigenvectors and (u_hat, lambda_hat) the empirical eigenpairs,
    implemented exactly as stated.
    """
    if true_matrix.dim != empirical_matrix.dim:
        raise ValueError("matrices must share a dimension")
    if true_matrix.dim > 500:
        raise ValueError("rie_clean capped at dim 500 (oracle scale)")
    _, true_vecs = dense_eigendecomposition(true_matrix)
    emp_vals, emp_vecs = dense_eigendecomposition(empirical_matrix)
    overlaps = (true_vecs.T @ emp_vecs) ** 2
    cleaned = overlaps @ emp_vals
    return OverlapCleaning(cleaned=cleaned, overlaps=overlaps)
