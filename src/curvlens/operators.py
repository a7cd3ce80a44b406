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

# Columns per panel of the planted rotation, and rows per block of U D U^T;
# the sweep behind this value is recorded in CHANGES.md.
_PANEL = 384

# CBLAS enum values of the dsymv call: row-major storage, upper triangle.
_ROW_MAJOR, _UPPER = 101, 121


@dataclass(frozen=True)
class SymmetricOperator:
    """A dimension-``dim`` symmetric linear map exposed only through matvecs.

    ``apply`` must be deterministic and symmetric.  Instances are immutable
    after construction, but an ``apply`` may reuse work buffers (an MLP
    curvature operator shares its model's), so one instance must not run
    matvecs from several threads at once.
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

    ``entries`` is checked for exact symmetry once, at construction, and
    stored C-contiguous: an F-contiguous array as its transpose (the same
    matrix, a view, no copy), any other layout as one aligned C copy.  The
    operator computes ``entries @ v`` without checking again, so do not edit
    the array afterwards.  Where numpy's BLAS has ``dsymv`` the operator reads
    only the upper triangle, so an edit to the lower one is invisible;
    elsewhere Lanczos would run on a non-symmetric matrix unnoticed.  The one
    call that consumes ``entries`` is ``dense_eigendecomposition(...,
    overwrite=True)``, which leaves eigenvectors or scratch in it.
    """

    entries: np.ndarray

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=np.float64)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError(f"entries must be square, got shape {entries.shape}")
        if not _is_symmetric(entries):
            raise ValueError("entries must be exactly symmetric")
        if entries.flags.fnc:  # F- and not C-contiguous: the transpose is the same matrix
            entries = entries.T
        object.__setattr__(self, "entries", np.require(entries, requirements=["C", "A"]))

    @property
    def dim(self):
        return self.entries.shape[0]

    def as_operator(self):
        entries = self.entries
        return SymmetricOperator(dim=self.dim, apply=lambda v: _symmetric_matvec(entries, v),
                                 label="dense")


@functools.cache
def _openblas():
    """The OpenBLAS library that numpy itself loaded, or None where it has none.

    numpy >= 2 wheels ship one ``scipy_openblas64_`` library (64-bit
    integers) in ``numpy.libs/`` or ``numpy/.dylibs/``.  It is opened only if
    already loaded, so no second BLAS and thread pool can come in.
    """
    package = Path(np.__file__).parent
    found = [*package.parent.joinpath("numpy.libs").glob("*scipy_openblas64_*"),
             *package.joinpath(".dylibs").glob("*scipy_openblas64_*")]
    if len(found) != 1:
        return None
    try:  # not loaded (OSError), or no RTLD_NOLOAD here (AttributeError)
        return ctypes.CDLL(str(found[0]), mode=os.RTLD_NOLOAD)
    except (OSError, AttributeError):
        return None


def _bind(name, argtypes, restype=None):
    """Symbol ``name`` of ``_openblas()`` with its C signature, or None where either is missing."""
    library = _openblas()
    if library is None:
        return None
    try:
        function = getattr(library, name)
    except AttributeError:
        return None
    function.argtypes, function.restype = argtypes, restype
    return function


@functools.cache
def _dsymv():
    """``cblas_dsymv`` of numpy's OpenBLAS, or None where it has none."""
    index, scalar, pointer = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
    return _bind("scipy_cblas_dsymv64_", [ctypes.c_int, ctypes.c_int, index, scalar, pointer,
                                          index, pointer, index, scalar, pointer, index])


@functools.cache
def _dsyevd():
    """LAPACK ``dsyevd`` of numpy's OpenBLAS, or None where it has none.

    Fortran calling convention: every argument by reference, 64-bit
    integers, and the lengths of the two one-character strings appended.
    """
    char, index, pointer = ctypes.c_char_p, ctypes.POINTER(ctypes.c_int64), ctypes.c_void_p
    return _bind("scipy_dsyevd_64_", [char, char, index, pointer, index, pointer, pointer, index,
                                      pointer, index, index, ctypes.c_size_t, ctypes.c_size_t])


def blas_runtime():
    """numpy's version, its OpenBLAS build and thread count, and which dense kernels run.

    ``openblas`` and ``blas_threads`` are None where numpy has no
    ``scipy_openblas64_`` library; ``dense_kernels`` is ``"openblas"`` where
    the dense matvec and eigensolver call it directly and ``"numpy"`` where
    they fall back on ``entries @ v`` and ``numpy.linalg``.
    """
    config = _bind("scipy_openblas_get_config64_", [], ctypes.c_char_p)
    threads = _bind("scipy_openblas_get_num_threads64_", [], ctypes.c_int)
    direct = _dsymv() is not None and _dsyevd() is not None
    return {"numpy": np.__version__,
            "openblas": None if config is None else config().decode("ascii", "replace"),
            "blas_threads": None if threads is None else threads(),
            "dense_kernels": "openblas" if direct else "numpy"}


def _symmetric_matvec(entries, v):
    """``entries @ v`` for the exactly symmetric, C-contiguous float64 ``entries``
    of a ``DenseSymmetric`` and a float64 vector ``v`` of matching length.

    Reads only the upper triangle, once, through ``_dsymv`` where numpy's
    BLAS has it; elsewhere it is the GEMV ``entries @ v``.
    """
    symv = _dsymv()
    if symv is None:
        return entries @ v
    x, dim = np.ascontiguousarray(v), len(v)
    out = np.zeros(dim)  # zeros, not empty: beta = 0 need not clear a NaN
    symv(_ROW_MAJOR, _UPPER, dim, 1.0, entries.ctypes.data, dim, x.ctypes.data, 1, 0.0,
         out.ctypes.data, 1)
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


def _rotate_diagonal(u, d):
    """Overwrite square ``u`` with U diag(d) U^T, exactly symmetric, and return it.

    Row panel i of the upper triangle, ``(U[rows_i] * d) @ U[start_i:].T``,
    reads only rows >= start_i of U, and no later panel reads rows i, so each
    ``_PANEL``-row panel is stored over U's own rows; the strict lower
    triangle is then mirrored from the upper one.  Holds ``u`` and two
    panels.  ``u`` may have any layout, such as the transposed view that
    ``dense_eigendecomposition(..., overwrite=True)`` returns as eigenvectors.
    """
    for start in range(0, len(u), _PANEL):
        rows = slice(start, start + _PANEL)
        u[rows, start:] = (u[rows] * d) @ u[start:].T
    return _mirror_upper(u)


@dataclass
class SeedStream:
    """Deterministic random-vector source; identical seed gives identical draws.

    ``generator`` is the stream's one numpy Generator, seeded from ``seed``.
    Single-owner mutable state: do not share one stream between concurrent
    consumers, spawn child streams instead.
    """

    seed: int
    generator: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self):
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError(f"seed must lie in [0, 2**64), got {self.seed}")
        self.generator = np.random.default_rng(np.uint64(self.seed))

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


def dense_eigendecomposition(matrix, vectors=True, *, overwrite=False):
    """Full eigendecomposition of a DenseSymmetric, eigenvalues ascending.

    Brute-force O(P^3) oracle; capped at P <= ORACLE_DIM_CAP.  With ``vectors=False``
    only the eigenvalues are computed (about twice as fast) and the
    eigenvectors come back as None.

    LAPACK ``dsyevd`` overwrites the matrix it is given (with the
    eigenvectors, or with scratch).  By default it is given one copy of
    ``matrix.entries``; with ``overwrite=True`` it works in ``entries``
    itself, which saves a P x P copy but leaves ``matrix`` unusable, so pass
    it only where the matrix is not used again.  The eigenvectors, the
    columns of the result, are then that same buffer.  Where numpy's BLAS
    has no ``dsyevd`` symbol, ``numpy.linalg`` (which copies) computes the
    same decomposition and ``entries`` is left alone.
    """
    if matrix.dim > ORACLE_DIM_CAP:
        raise ValueError(f"oracle eigendecomposition capped at P={ORACLE_DIM_CAP}, got {matrix.dim}")
    syevd = _dsyevd()
    if syevd is None:
        try:
            if vectors:
                return np.linalg.eigh(matrix.entries)
            return np.linalg.eigvalsh(matrix.entries), None
        except np.linalg.LinAlgError as exc:
            raise RuntimeError(f"eigendecomposition failed to converge: {exc}") from exc
    # a C-ordered symmetric matrix is its own F-ordered transpose, so LAPACK takes it as it is;
    # a read-only array is copied even so, since ctypes would write through the flag
    entries = matrix.entries
    if not (overwrite and entries.flags.writeable):
        entries = entries.copy()
    eigenvalues = _syevd_in_place(syevd, entries, vectors)
    return eigenvalues, entries.T if vectors else None


def _syevd_in_place(syevd, a, vectors):
    """Ascending eigenvalues of the symmetric, C-contiguous, writable float64 ``a``.

    ``syevd`` overwrites ``a``: with ``vectors``, read in F order it holds
    the eigenvectors as its columns, so ``a.T`` is the eigenvector matrix.
    The workspace is sized by LAPACK's own query, as ``numpy.linalg`` does,
    so the two compute the same bits.
    """
    dim = len(a)
    values, info = np.empty(dim), ctypes.c_int64()

    def call(work, iwork, lwork, liwork):
        syevd(b"V" if vectors else b"N", b"L", ctypes.c_int64(dim), a.ctypes.data,
              ctypes.c_int64(max(dim, 1)), values.ctypes.data, work.ctypes.data,
              ctypes.c_int64(lwork), iwork.ctypes.data, ctypes.c_int64(liwork), info, 1, 1)
        if info.value != 0:
            raise RuntimeError(f"eigendecomposition failed to converge: LAPACK dsyevd "
                               f"returned info={info.value}")

    work, iwork = np.zeros(1), np.zeros(1, np.int64)
    call(work, iwork, -1, -1)  # workspace query: the optimal sizes land in work[0], iwork[0]
    lwork, liwork = int(work[0]), int(iwork[0])
    call(np.empty(lwork), np.empty(liwork, np.int64), lwork, liwork)
    return values


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
