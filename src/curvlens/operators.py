"""Symmetric-operator abstraction, dense oracle and deterministic probe vectors."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

ORACLE_DIM_CAP = 4000

# Square tile of the symmetry check and the in-place builders.  A tile and
# its transposed mirror (2 x 128 KB) stay in cache while the mirror is read
# across rows; the sweep behind this value is recorded in CHANGES.md.
_TILE = 128

# Row-slab height of the dense matvec.  Each slab's two products read the
# slab once from memory and once from cache; the sweep behind this value is
# recorded in CHANGES.md.
_SLAB_ROWS = 1000


@dataclass(frozen=True)
class SymmetricOperator:
    """A dimension-``dim`` symmetric linear map exposed only through matvecs.

    ``apply`` must be deterministic and symmetric.  Instances are immutable
    after construction, but an ``apply`` may reuse private work buffers (MLP
    curvature operators do), so one instance must not run matvecs from
    several threads at once.
    """

    dim: int
    apply: Callable[[np.ndarray], np.ndarray]
    label: str = ""

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"operator dimension must be positive, got {self.dim}")

    def matvec(self, v):
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (self.dim,):
            raise ValueError(f"expected vector of shape ({self.dim},), got {v.shape}")
        out = np.asarray(self.apply(v), dtype=np.float64)
        if not np.all(np.isfinite(out)):
            raise FloatingPointError(f"operator '{self.label}' produced non-finite output")
        return out


@dataclass(frozen=True)
class DenseSymmetric:
    """Dense symmetric matrix, the brute-force oracle representation.

    ``entries`` is checked once, at construction, and its operator reads only
    the upper triangle, so do not edit the array afterwards.
    """

    entries: np.ndarray

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=np.float64)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError(f"entries must be square, got shape {entries.shape}")
        if not _is_symmetric(entries):
            raise ValueError("entries must be exactly symmetric")
        object.__setattr__(self, "entries", entries)

    @property
    def dim(self):
        return self.entries.shape[0]

    def as_operator(self, label="dense"):
        entries = self.entries
        return SymmetricOperator(dim=self.dim, apply=lambda v: _upper_matvec(entries, v),
                                 label=label)


def _tiles(dim):
    """(rows, cols) slice pairs of the ``_TILE`` grid on or above the diagonal."""
    for i in range(0, dim, _TILE):
        for j in range(i, dim, _TILE):
            yield slice(i, i + _TILE), slice(j, j + _TILE)


def _is_symmetric(entries):
    """Whether every entry equals its mirror exactly (a NaN never does).

    Compares one tile with its mirror at a time and stops at the first
    mismatch, so it never allocates more than one tile.
    """
    return all(np.array_equal(entries[rows, cols], entries[cols, rows].T)
               for rows, cols in _tiles(entries.shape[0]))


def _symmetrize(h):
    """Overwrite square ``h`` with (h + h.T) / 2, one tile pair at a time.

    Bit-identical to the out-of-place formula: IEEE addition commutes, so
    an entry and its mirror get the same value.
    """
    for rows, cols in _tiles(h.shape[0]):
        mean = h[rows, cols] + h[cols, rows].T
        mean /= 2.0
        h[rows, cols] = mean
        h[cols, rows] = mean.T
    return h


def _mirror_upper(a):
    """Overwrite the strict lower triangle of square ``a`` with its upper one, in place."""
    for rows, cols in _tiles(a.shape[0]):
        if rows == cols:
            tile = a[rows, cols]
            lower = np.tril_indices(len(tile), -1)
            tile[lower] = tile.T[lower]
        else:
            a[cols, rows] = a[rows, cols].T
    return a


def _upper_matvec(entries, v):
    """``entries @ v`` for a symmetric matrix, reading only its upper triangle.

    Walks row slabs ``entries[s:e, s:]``.  Each slab adds its product with
    ``v[s:]`` to ``out[s:e]`` and, while it is still in cache, its
    above-diagonal part's transpose times ``v[s:e]`` to ``out[e:]``, which
    stands in for the mirrored lower triangle.  A matrix no taller than one
    slab takes a single GEMV, identical to ``entries @ v``.
    """
    dim = len(v)
    out = np.zeros(dim)
    for start in range(0, dim, _SLAB_ROWS):
        stop = min(start + _SLAB_ROWS, dim)
        slab = entries[start:stop, start:]
        out[start:stop] += slab @ v[start:]
        out[stop:] += slab[:, stop - start:].T @ v[start:stop]
    return out


@dataclass
class SeedStream:
    """Deterministic random-vector source; identical seed gives identical draws.

    Single-owner mutable state: do not share one stream between concurrent
    consumers, spawn child streams instead.
    """

    seed: int
    _rng: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self):
        self._rng = np.random.default_rng(np.uint64(self.seed))

    @property
    def generator(self):
        return self._rng

    def spawn(self, offset):
        """Independent child stream, deterministic in (seed, offset).

        The child's 64-bit seed is drawn from the NEP 19 spawned sequence
        ``SeedSequence(seed, spawn_key=(offset,))``, so a child aliases
        neither its siblings nor any root stream ``SeedStream(k)``.
        """
        child = np.random.SeedSequence(int(self.seed), spawn_key=(int(offset),))
        return SeedStream(seed=int(child.generate_state(1, np.uint64)[0]))


def probe_vector(stream, dim, kind="rademacher"):
    """Draw one i.i.d. zero-mean unit-variance probe vector.

    ``kind`` is ``rademacher`` (entries in {-1, +1}, fourth moment 1) or
    ``gaussian`` (standard normal, fourth moment 3).
    """
    if dim < 1:
        raise ValueError("probe dimension must be >= 1")
    rng = stream.generator
    if kind == "rademacher":
        return rng.integers(0, 2, size=dim).astype(np.float64) * 2.0 - 1.0
    if kind == "gaussian":
        return rng.standard_normal(dim)
    raise ValueError(f"unknown probe kind {kind!r}")


def dense_eigendecomposition(matrix, vectors=True):
    """Full eigendecomposition of a DenseSymmetric, eigenvalues ascending.

    Brute-force O(P^3) oracle; capped at P <= 4000.  With ``vectors=False``
    only the eigenvalues are computed (about twice as fast) and the
    eigenvectors come back as None.
    """
    if matrix.dim > ORACLE_DIM_CAP:
        raise ValueError(f"oracle eigendecomposition capped at P={ORACLE_DIM_CAP}, got {matrix.dim}")
    try:
        if vectors:
            eigenvalues, eigenvectors = np.linalg.eigh(matrix.entries)
        else:
            eigenvalues, eigenvectors = np.linalg.eigvalsh(matrix.entries), None
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"eigendecomposition failed to converge: {exc}") from exc
    return eigenvalues, eigenvectors


def apply_shifted(op, mu, negate=False):
    """Operator acting as v -> (+/-)Hv + mu*v, same dimension as ``op``."""
    sign = -1.0 if negate else 1.0
    label = f"{'-' if negate else ''}{op.label or 'H'}{f'+{mu}I' if mu else ''}"
    return SymmetricOperator(
        dim=op.dim,
        apply=lambda v, _op=op: sign * _op.matvec(v) + mu * v,
        label=label,
    )


def symmetry_defect(op, stream, n_probes=5):
    """Max |u^T(Hv) - v^T(Hu)| / (|u||v| |H|_est) over random probe pairs.

    Cheap randomized certificate that ``op`` really is symmetric.
    """
    worst = 0.0
    for _ in range(n_probes):
        u = probe_vector(stream, op.dim, "gaussian")
        v = probe_vector(stream, op.dim, "gaussian")
        hu = op.matvec(u)
        hv = op.matvec(v)
        norm_est = max(np.linalg.norm(hu) / np.linalg.norm(u),
                       np.linalg.norm(hv) / np.linalg.norm(v), 1e-300)
        defect = abs(u @ hv - v @ hu) / (np.linalg.norm(u) * np.linalg.norm(v) * norm_est)
        worst = max(worst, defect)
    return worst
