"""Symmetric-operator abstraction, dense oracle, deterministic probe vectors and JSON spec checks."""

from __future__ import annotations

import ctypes
import functools
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

ORACLE_DIM_CAP = 4000
PROBE_KINDS = ("rademacher", "gaussian")

# Square tile of the symmetry check and the in-place builders.  A tile and
# its transposed mirror (2 x 128 KB) stay in cache while the mirror is read
# across rows; the sweep behind this value is recorded in CHANGES.md.
_TILE = 128

# CBLAS enum values of the dsymv call: row- or column-major storage, upper triangle.
_ROW_MAJOR, _COL_MAJOR, _UPPER = 101, 102, 121


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

    ``entries`` is checked for exact symmetry once, at construction, and its
    operator computes ``entries @ v`` without checking again, so do not edit
    the array afterwards.  Where numpy's BLAS has ``dsymv`` the operator reads
    only the upper triangle, so an edit to the lower one is invisible;
    elsewhere Lanczos would run on a non-symmetric matrix unnoticed.
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

    def as_operator(self):
        entries = self.entries
        return SymmetricOperator(dim=self.dim, apply=lambda v: _symmetric_matvec(entries, v),
                                 label="dense")


@functools.cache
def _dsymv():
    """``cblas_dsymv`` of the OpenBLAS that numpy itself loaded, or None where it has none.

    numpy >= 2 wheels ship one ``scipy_openblas64_`` library (64-bit
    integers) in ``numpy.libs/`` or ``numpy/.dylibs/``.  It is opened only if
    already loaded, so no second BLAS and thread pool can come in.
    """
    package = Path(np.__file__).parent
    found = [*package.parent.joinpath("numpy.libs").glob("*scipy_openblas64_*"),
             *package.joinpath(".dylibs").glob("*scipy_openblas64_*")]
    if len(found) != 1:
        return None
    try:  # not loaded (OSError), or no RTLD_NOLOAD here or no such symbol (AttributeError)
        symv = ctypes.CDLL(str(found[0]), mode=os.RTLD_NOLOAD).scipy_cblas_dsymv64_
    except (OSError, AttributeError):
        return None
    index, scalar, pointer = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
    symv.argtypes = [ctypes.c_int, ctypes.c_int, index, scalar, pointer, index,
                     pointer, index, scalar, pointer, index]
    symv.restype = None
    return symv


def _symmetric_matvec(entries, v):
    """``entries @ v`` for an exactly symmetric square ``entries``.

    Reads only the upper triangle, once, through ``_dsymv`` when numpy's BLAS
    has it, ``entries`` is C- or F-contiguous and aligned, and ``v`` is a
    float64 vector of matching length; otherwise it is ``entries @ v``.
    """
    v = np.asarray(v)
    symv = _dsymv()
    flags = entries.flags
    if (symv is None or not (flags.c_contiguous or flags.f_contiguous) or not flags.aligned
            or entries.dtype != np.float64 or v.dtype != np.float64
            or v.shape != entries.shape[:1]):
        return entries @ v
    x, dim = np.ascontiguousarray(v), len(v)
    out = np.zeros(dim)  # zeros, not empty: beta = 0 need not clear a NaN
    symv(_ROW_MAJOR if flags.c_contiguous else _COL_MAJOR, _UPPER, dim, 1.0,
         entries.ctypes.data, dim, x.ctypes.data, 1, 0.0, out.ctypes.data, 1)
    return out


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


@dataclass
class SeedStream:
    """Deterministic random-vector source; identical seed gives identical draws.

    Single-owner mutable state: do not share one stream between concurrent
    consumers, spawn child streams instead.
    """

    seed: int
    _rng: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self):
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError(f"seed must lie in [0, 2**64), got {self.seed}")
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
    if kind not in PROBE_KINDS:
        raise ValueError(f"unknown probe kind {kind!r}")
    rng = stream.generator
    if kind == "rademacher":
        return rng.integers(0, 2, size=dim).astype(np.float64) * 2.0 - 1.0
    return rng.standard_normal(dim)


def dense_eigendecomposition(matrix, vectors=True):
    """Full eigendecomposition of a DenseSymmetric, eigenvalues ascending.

    Brute-force O(P^3) oracle; capped at P <= ORACLE_DIM_CAP.  With ``vectors=False``
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


def _spec_keys(raw, required, optional, where):
    """Refuse a JSON spec that is not an object or has unknown or missing keys.

    ``where`` prefixes each one-line ``ValueError``.
    """
    if not isinstance(raw, dict):
        raise ValueError(f"{where}expected a JSON object, got {type(raw).__name__}")
    expected = (*required, *optional)
    unknown = sorted(set(raw) - set(expected))
    if unknown:
        raise ValueError(f"{where}unknown keys {unknown}; expected only {', '.join(expected)}")
    missing = [key for key in required if key not in raw]
    if missing:
        raise ValueError(f"{where}missing keys {missing}")


def _spec_int(raw, key, where, low=1):
    """``raw[key]`` if it is a JSON integer >= ``low``; else a ``ValueError`` naming the key."""
    value = raw[key]
    if isinstance(value, bool) or not isinstance(value, int) or value < low:
        raise ValueError(f"{where}{key} must be an integer >= {low}, got {value!r}")
    return value


def _spec_float(raw, key, where):
    """``raw[key]`` as a float if it is a number a double holds; else a ``ValueError`` naming the key."""
    value = raw[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{where}{key} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{where}{key} is an integer too large for a double") from None
