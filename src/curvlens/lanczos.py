"""m-step Lanczos with full reorthogonalization, Ritz pairs and convergence bounds."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from curvlens.density import _check_atoms
from curvlens.operators import _TILE

BREAKDOWN_REL_TOL = 1e-12


@dataclass(frozen=True)
class Tridiagonal:
    """Jacobi matrix from the Lanczos recurrence: diagonal alphas, off-diagonal betas."""

    alphas: np.ndarray
    betas: np.ndarray

    def __post_init__(self):
        alphas = np.asarray(self.alphas, dtype=np.float64)
        betas = np.asarray(self.betas, dtype=np.float64)
        if betas.shape != (max(len(alphas) - 1, 0),):
            raise ValueError("betas must have length len(alphas) - 1")
        object.__setattr__(self, "alphas", alphas)
        object.__setattr__(self, "betas", betas)

    @property
    def steps(self):
        return len(self.alphas)

    def dense(self):
        t = np.diag(self.alphas)
        if self.steps > 1:
            t += np.diag(self.betas, 1) + np.diag(self.betas, -1)
        return t


@dataclass(frozen=True)
class RitzDecomposition:
    """Finite Ritz values (ascending), quadrature weights (nonnegative, summing to 1) and
    optional Ritz vectors."""

    values: np.ndarray
    weights: np.ndarray
    vectors: Optional[np.ndarray] = None
    seed_kind: str = ""

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        weights = np.asarray(self.weights, dtype=np.float64)
        if values.ndim != 1 or values.shape != weights.shape:
            raise ValueError(f"values and weights must be 1-D of one length, got shapes "
                             f"{values.shape} and {weights.shape}")
        if self.vectors is not None and np.shape(self.vectors)[1:] != values.shape:
            raise ValueError(f"vectors must be 2-D with one column per value, got shape "
                             f"{np.shape(self.vectors)} for {len(values)} values")
        _check_atoms(values, weights, "Ritz values", "quadrature weights")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "weights", weights)

    @property
    def steps(self):
        """Lanczos steps m, one Ritz value per step."""
        return len(self.values)

    @property
    def lambda_max(self):
        return float(self.values[-1])


def lanczos_run(op, steps, seed):
    """Run m-step Lanczos on ``op`` from a nonzero seed of shape (P,).

    The Lanczos vectors are the rows of one m x P array.  Each step takes
    ``w = H v_j`` and runs two classical Gram-Schmidt passes against every
    stored row; alpha_j is the first pass's coefficient on v_j.  Returns the
    tridiagonal and the Krylov basis V (a P x m view, unit-norm columns).
    Truncates at breakdown: beta below 1e-12 times the running max of
    |alpha| and beta (identity-like operators legitimately stop early).
    """
    if not 1 <= steps <= op.dim:
        raise ValueError(f"steps must be in [1, {op.dim}], got {steps}")
    seed = np.asarray(seed, dtype=np.float64)
    if seed.shape != (op.dim,):
        raise ValueError(f"Lanczos seed must have shape ({op.dim},), got {seed.shape}")
    rows = np.zeros((steps, op.dim))
    rows[0] = seed
    seed_norm = np.linalg.norm(rows[0])
    if seed_norm == 0.0:
        raise ValueError("Lanczos seed vector must be nonzero")
    rows[0] /= seed_norm
    alphas = np.zeros(steps)
    betas = np.zeros(max(steps - 1, 0))
    scale = 0.0

    for j in range(steps):
        active = rows[: j + 1]
        w = op.matvec(rows[j])  # matvec raises FloatingPointError on NaN/Inf
        coeffs = active @ w
        w = w - coeffs @ active  # a new array: an operator may return its input
        w -= (active @ w) @ active
        alphas[j] = coeffs[j]
        scale = max(scale, abs(coeffs[j]), betas[j - 1] if j else 0.0)
        if j == steps - 1:
            break
        beta = np.linalg.norm(w)
        if beta < BREAKDOWN_REL_TOL * max(scale, 1e-300):
            break
        betas[j] = beta
        np.divide(w, beta, out=rows[j + 1])

    m = j + 1  # every run ends at a break
    return Tridiagonal(alphas=alphas[:m], betas=betas[: m - 1]), rows[:m].T


def _ritz_vectors_in_place(basis, eigvecs):
    """``basis @ eigvecs``, bit for bit, written over ``basis``, a P x m view of an
    m x P row buffer, one ``_TILE``-column panel of the buffer at a time."""
    start, rows = 0, basis.T
    # a one-column tail joins the panel before it: numpy would take it as a GEMV,
    # whose sums round differently from the GEMM of basis @ eigvecs
    for stop in [*range(_TILE, len(basis) - 1, _TILE), len(basis)]:
        panel = rows[:, start:stop]
        panel[...] = (panel.T @ eigvecs).T
        start = stop
    return basis


def ritz_decompose(tridiagonal, basis=None, seed_kind=""):
    """Eigen-decompose the Lanczos tridiagonal into Ritz values and weights.

    The quadrature weight of each Ritz value is the squared first component
    of the tridiagonal's normalized eigenvector.  Given the basis V, the Ritz
    vectors V S (S the tridiagonal's eigenvectors) are formed over it, one
    column panel at a time, so the basis is consumed: the vectors are the
    basis array itself, and no second P x m array is allocated.
    """
    values, eigvecs = np.linalg.eigh(tridiagonal.dense())
    weights = eigvecs[0, :] ** 2
    vectors = None if basis is None else _ritz_vectors_in_place(basis, eigvecs)
    return RitzDecomposition(values=values, weights=weights / weights.sum(), vectors=vectors,
                             seed_kind=seed_kind)


def slq(op, steps, probes, keep_vectors=False):
    """Stochastic Lanczos quadrature: one Ritz decomposition per probe column.

    ``probes`` is a P x k block; each column seeds its own ``min(steps, P)``-step run,
    decomposed by ``ritz_decompose``.  With ``keep_vectors`` that call forms
    the run's Ritz vectors inside its own m x P row buffer, so they cost no
    second m x P array; without it each run's basis is freed before the
    next run starts.
    """
    probes = np.asarray(probes, dtype=np.float64)
    if probes.ndim != 2 or probes.shape[0] != op.dim:
        raise ValueError(f"probes must be a ({op.dim}, k) block, got shape {probes.shape}")
    steps = min(steps, op.dim)
    decompositions = []
    for column in probes.T:
        tridiagonal, basis = lanczos_run(op, steps, column)
        decompositions.append(ritz_decompose(tridiagonal, basis if keep_vectors else None))
        del basis  # now, not after the next run has made its own
    return decompositions


def moment_match_check(op, decomposition, seed, order):
    """Relative mismatch between the quadrature moment and v^T H^k v.

    Gauss quadrature is exact up to degree 2m-1; higher orders are refused.
    """
    m = decomposition.steps
    if order > 2 * m - 1:
        raise ValueError(f"order {order} outside Gauss exactness degree {2 * m - 1}")
    if order < 0:
        raise ValueError("order must be nonnegative")
    seed = np.asarray(seed, dtype=np.float64)
    v = seed / np.linalg.norm(seed)
    quad = float(np.sum(decomposition.weights * decomposition.values ** order))
    hk_v = v.copy()
    for _ in range(order):
        hk_v = op.matvec(hk_v)
    direct = float(v @ hk_v)
    return abs(quad - direct) / max(1.0, abs(direct))


def chebyshev_bound_ratio(gap, steps):
    """Lanczos vs power-iteration error-bound pair (L, R) for a spectral gap.

    Convention: second eigenvalue 1, smallest 0, so the gap parameter is
    rho = gap - 1.  L = 1 / T_{m-1}(1 + 2 rho)^2 and R = (1/gap)^{2(m-1)}.
    A pair in which either bound underflows to 0 (T_{m-1}^2 overflows) is
    refused: the bound and the ratio L / R would then mean nothing.
    """
    if not 1.0 < gap < np.inf:
        raise ValueError(f"gap (lambda1/lambda2) must be finite and exceed 1, got {gap}")
    if steps < 2:
        raise ValueError("steps must be >= 2")
    rho = gap - 1.0
    # T_k(x) = cosh(k arccosh x) for x = 1 + 2 rho > 1; a square past the double range is inf
    with np.errstate(over="ignore"):
        lanczos_bound = float(1.0 / np.cosh((steps - 1) * np.arccosh(1.0 + 2.0 * rho)) ** 2)
    power_bound = (1.0 / gap) ** (2 * (steps - 1))
    if lanczos_bound == 0.0 or power_bound == 0.0:
        raise ValueError(f"bounds for gap {gap} and m {steps} underflow to 0 in double precision")
    return lanczos_bound, power_bound
