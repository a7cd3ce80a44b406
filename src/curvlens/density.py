"""Dirac-mixture spectral densities and kernel-smoothing bias."""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, isfinite, prod
from typing import List, Tuple

import numpy as np

ATOM_MERGE_TOL = 1e-12


def _check_atoms(locations, weights, location_name, weight_name):
    """Refuse 1-D ``locations`` and ``weights`` that are not finite, nonnegative weights
    summing to 1 at ascending locations; each one-line ``ValueError`` names them."""
    if not (np.all(np.isfinite(locations)) and np.all(np.isfinite(weights))):
        raise ValueError(f"{location_name} and weights must be finite")
    if np.any(weights < 0):
        raise ValueError(f"{weight_name} must be nonnegative")
    total = weights.sum()
    if abs(total - 1.0) > 1e-10:
        raise ValueError(f"{weight_name} must sum to 1, got {total}")
    if np.any(locations[1:] < locations[:-1]):
        raise ValueError(f"{location_name} must be sorted ascending")


@dataclass(frozen=True)
class DiracMixture:
    """Discrete spectral density: finite atoms (location, weight), ascending, weights sum to 1."""

    atoms: Tuple[Tuple[float, float], ...]
    n_seeds: int = 1
    steps: int = 0

    def __post_init__(self):
        atoms = tuple((float(loc), float(w)) for loc, w in self.atoms)
        _check_atoms(*np.array(atoms).reshape(-1, 2).T, "atom locations", "atom weights")
        object.__setattr__(self, "atoms", atoms)

    @property
    def locations(self):
        return np.array([loc for loc, _ in self.atoms])

    @property
    def weights(self):
        return np.array([w for _, w in self.atoms])

    @staticmethod
    def from_arrays(locations, weights, **meta):
        """Build a normalized mixture, merging duplicate locations within ``ATOM_MERGE_TOL``."""
        locations = np.asarray(locations, dtype=np.float64)
        weights = np.asarray(weights, dtype=np.float64)
        order = np.argsort(locations)
        locations, weights = locations[order], weights[order]
        merged: List[List[float]] = []
        for loc, w in zip(locations, weights):
            if merged and loc - merged[-1][0] <= ATOM_MERGE_TOL:
                merged[-1][1] += w
            else:
                merged.append([loc, w])
        total = sum(w for _, w in merged)
        if total <= 0:
            raise ValueError("mixture has no mass")
        atoms = tuple((loc, w / total) for loc, w in merged)
        return DiracMixture(atoms=atoms, **meta)


def average_over_seeds(decompositions):
    """Pool Ritz decompositions from several seeds into one Dirac mixture.

    Each atom keeps its Ritz location with weight tau^2 / n_seeds; weights
    are renormalized to sum to 1 and coincident atoms (within 1e-12) merged.
    Runs that broke down early pool as they are (each is a valid Gauss
    quadrature of its probe), and ``steps`` is the longest run's count.
    """
    decompositions = list(decompositions)
    if not decompositions:
        raise ValueError("need at least one decomposition to average")
    n = len(decompositions)
    locations = np.concatenate([d.values for d in decompositions])
    weights = np.concatenate([d.weights / n for d in decompositions])
    return DiracMixture.from_arrays(locations, weights, n_seeds=n,
                                    steps=max(d.steps for d in decompositions))


def mixture_moment(mixture, order):
    """k-th raw moment sum_i w_i lambda_i^k."""
    if order < 0:
        raise ValueError("moment order must be nonnegative")
    return float(np.sum(mixture.weights * mixture.locations ** order))


def smoothing_bias(mixture, bandwidth, order):
    """Closed-form moment perturbation introduced by Gaussian kernel smoothing.

    The kernel's standard deviation ``bandwidth`` must be finite and positive;
    bias = sum_i w_i sum_{j>=1} C(m, 2j) E[k^(2j)] lambda_i^(m-2j) with
    Gaussian even central moments E[k^(2j)] = bandwidth^(2j) (2j-1)!!; odd
    kernel moments vanish by symmetry, so order 0 and 1 are bias-free.
    """
    if not (isfinite(bandwidth) and bandwidth > 0):
        raise ValueError(f"kernel bandwidth must be finite and positive, got {bandwidth}")
    if order < 0:
        raise ValueError("moment order must be nonnegative")
    bias = 0.0
    for j in range(1, order // 2 + 1):
        kernel_moment = bandwidth ** (2 * j) * prod(range(2 * j - 1, 0, -2))
        bias += mixture_moment(mixture, order - 2 * j) * comb(order, 2 * j) * kernel_moment
    return bias


def smoothed_moment(mixture, bandwidth, order):
    """k-th moment of the Gaussian-smoothed density: raw moment plus the bias term."""
    return mixture_moment(mixture, order) + smoothing_bias(mixture, bandwidth, order)
