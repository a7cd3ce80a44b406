"""Dirac-mixture spectral densities, stochastic trace estimation and kernel-smoothing bias."""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import List, Tuple

import numpy as np

from curvlens.operators import probe_vector

ATOM_MERGE_TOL = 1e-12


@dataclass(frozen=True)
class DiracMixture:
    """Discrete spectral density: atoms (location, weight), ascending, weights sum to 1."""

    atoms: Tuple[Tuple[float, float], ...]
    n_seeds: int = 1
    steps: int = 0

    def __post_init__(self):
        atoms = tuple((float(loc), float(w)) for loc, w in self.atoms)
        if any(w < 0 for _, w in atoms):
            raise ValueError("atom weights must be nonnegative")
        total = sum(w for _, w in atoms)
        if abs(total - 1.0) > 1e-10:
            raise ValueError(f"atom weights must sum to 1, got {total}")
        if any(atoms[i + 1][0] < atoms[i][0] for i in range(len(atoms) - 1)):
            raise ValueError("atom locations must be sorted ascending")
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

    @staticmethod
    def from_spectrum(eigenvalues, **meta):
        """Uniform-weight mixture (1/P each) from a full eigenvalue list."""
        eigenvalues = np.asarray(eigenvalues, dtype=np.float64)
        return DiracMixture.from_arrays(eigenvalues, np.full(len(eigenvalues), 1.0 / len(eigenvalues)), **meta)


@dataclass(frozen=True)
class KernelSpec:
    """Gaussian smoothing kernel of standard deviation ``bandwidth``."""

    bandwidth: float = 1.0

    def __post_init__(self):
        if self.bandwidth <= 0:
            raise ValueError("kernel bandwidth must be positive")


@dataclass(frozen=True)
class TraceEstimate:
    """Monte Carlo trace estimate with per-probe values and a variance bound."""

    value: float
    per_probe: Tuple[float, ...]
    variance_bound: float

    @property
    def n_probes(self):
        return len(self.per_probe)


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


def _double_factorial(n):
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def stochastic_trace(op, power, n_probes, stream, kind="rademacher"):
    """Hutchinson-style estimate of Tr(H^k) from zero-mean unit-variance probes.

    Per-probe value is v^T H^k v; the variance bound (2 + m4) Tr(H^T H) is
    itself estimated with one extra probe (m4 = 1 Rademacher, 3 Gaussian).
    """
    if power < 1:
        raise ValueError("power must be >= 1")
    if n_probes < 1:
        raise ValueError("need at least one probe")
    per_probe = []
    for _ in range(n_probes):
        v = probe_vector(stream, op.dim, kind)
        hv = v
        for _ in range(power):
            hv = op.matvec(hv)
        per_probe.append(float(v @ hv))
    m4 = 1.0 if kind == "rademacher" else 3.0
    u = probe_vector(stream, op.dim, kind)
    hu = u
    for _ in range(power):
        hu = op.matvec(hu)
    frob_sq_est = float(hu @ hu)  # E |H^k u|^2 = Tr((H^k)^T H^k)
    return TraceEstimate(
        value=float(np.mean(per_probe)),
        per_probe=tuple(per_probe),
        variance_bound=(2.0 + m4) * frob_sq_est,
    )


def smoothing_bias(mixture, kernel, order):
    """Closed-form moment perturbation introduced by kernel smoothing.

    bias = sum_i w_i sum_{j>=1} C(m, 2j) E[k^(2j)] lambda_i^(m-2j) with
    Gaussian even central moments E[k^(2j)] = sigma^(2j) (2j-1)!!; odd
    kernel moments vanish by symmetry, so order 0 and 1 are bias-free.
    """
    if order < 0:
        raise ValueError("moment order must be nonnegative")
    sigma = kernel.bandwidth
    locations = mixture.locations
    weights = mixture.weights
    bias = 0.0
    for j in range(1, order // 2 + 1):
        kernel_moment = sigma ** (2 * j) * _double_factorial(2 * j - 1)
        bias += float(np.sum(weights * locations ** (order - 2 * j))) * comb(order, 2 * j) * kernel_moment
    return bias


def smoothed_moment(mixture, kernel, order):
    """k-th moment of the kernel-smoothed density: raw moment plus the bias term."""
    return mixture_moment(mixture, order) + smoothing_bias(mixture, kernel, order)
