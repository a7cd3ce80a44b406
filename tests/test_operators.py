import math
import os
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from curvlens import operators
from curvlens.operators import (
    DenseSymmetric,
    SeedStream,
    SymmetricOperator,
    apply_shifted,
    dense_eigendecomposition,
    probe_vector,
)


def _random_dense(dim, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim, dim))
    return DenseSymmetric(entries=(a + a.T) / 2.0)


def test_matvec_matches_dense_product():
    dense = _random_dense(12)
    op = dense.as_operator()
    v = np.arange(12, dtype=np.float64)
    np.testing.assert_allclose(op.matvec(v), dense.entries @ v, rtol=1e-14)


def test_matvec_rejects_wrong_shape():
    op = _random_dense(5).as_operator()
    with pytest.raises(ValueError):
        op.matvec(np.zeros(4))
    with pytest.raises(ValueError, match="operator dimension must be positive, got 0"):
        SymmetricOperator(dim=0, apply=lambda v: v)


def test_matvec_rejects_nonfinite_output():
    op = SymmetricOperator(dim=3, apply=lambda v: v * np.nan, label="bad")
    with pytest.raises(FloatingPointError):
        op.matvec(np.ones(3))


def test_dense_requires_exact_symmetry():
    a = np.eye(3)
    a[0, 1] = 1e-14
    with pytest.raises(ValueError):
        DenseSymmetric(entries=a)
    with pytest.raises(ValueError, match=r"entries must be square, got shape \(2, 3\)"):
        DenseSymmetric(entries=np.zeros((2, 3)))


@pytest.mark.parametrize("extra", [0, 1, 37])
def test_tiled_symmetry_check_rejects_each_flipped_entry(extra):
    """One flipped entry in a diagonal tile, an off-diagonal tile or the last
    (partial) tile, on either side of the diagonal, is rejected."""
    tile = operators._TILE
    dim = 2 * tile + extra
    base = _random_dense(dim, seed=extra).entries
    last = dim - 1
    for i, j in [(3, 70 % tile), (70 % tile, 3), (5, tile + 9), (tile + 9, 5),
                 (last, last - 1), (2, last), (last, tile + 1)]:
        a = base.copy()
        a[i, j] = -a[i, j] if a[i, j] else 1.0
        with pytest.raises(ValueError, match="symmetric"):
            DenseSymmetric(entries=a)
    DenseSymmetric(entries=base)


def test_symmetry_check_rejects_nan():
    dim = operators._TILE + 5
    for i, j in [(0, 0), (dim - 1, dim - 1), (2, dim - 2)]:
        a = _random_dense(dim).entries.copy()
        a[i, j] = a[j, i] = np.nan
        with pytest.raises(ValueError, match="symmetric"):
            DenseSymmetric(entries=a)


def test_symmetry_check_allocates_one_tile(traced_peak):
    a = _random_dense(2000).entries
    _, peak = traced_peak(lambda: DenseSymmetric(entries=a))
    # the full-matrix comparison it replaces allocated a 2000 x 2000 bool array (4 MB)
    assert peak < 8 * operators._TILE ** 2 + 64 * 1024


def _assert_within_summation_bound(entries, v, got):
    """Each entry is within (P + 1) u (|H| |v|)_i of the exactly rounded row sum."""
    exact = np.array([math.fsum((row * v).tolist()) for row in entries])
    bound = (len(v) + 1) * 2.0 ** -53 * (np.abs(entries) @ np.abs(v))
    assert np.all(np.abs(got - exact) <= bound)


_DIMS = (1, 1000, 1001, 2017)


@pytest.mark.parametrize("dim, path", [pytest.param(dim, "symv", id=str(dim)) for dim in _DIMS]
                         + [pytest.param(dim, "gemv", id=f"gemv-{dim}") for dim in _DIMS])
def test_dense_matvec_is_one_gemv_without_a_matrix_copy(dim, path, traced_peak, monkeypatch):
    """One BLAS-2 call: the triangle-reading dsymv, or the GEMV ``entries @ v`` it falls back on."""
    if path == "gemv":
        monkeypatch.setattr(operators, "_dsymv", lambda: None)
    dense = _random_dense(dim, seed=dim)
    v = np.random.default_rng(dim + 1).standard_normal(dim)
    got, peak = traced_peak(lambda: dense.as_operator().matvec(v))
    assert peak < 8 * 8 * dim + 64 * 1024  # vectors only, never a copy of the matrix
    if path == "gemv":
        assert np.array_equal(got, dense.entries @ v)
    else:
        _assert_within_summation_bound(dense.entries, v, got)


_ENTRY = st.one_of(st.just(0.0), st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3))


@st.composite
def _dense_cases(draw):
    dim = draw(st.integers(1, 64))
    upper = draw(hnp.arrays(np.float64, (dim, dim), elements=_ENTRY))
    entries = np.array(np.triu(upper) + np.triu(upper, 1).T, order=draw(st.sampled_from("CF")))
    stride = draw(st.integers(1, 3))
    v = draw(hnp.arrays(np.float64, dim * stride, elements=_ENTRY))[::stride]
    return entries, v


@given(_dense_cases())
def test_dense_matvec_property(case):
    entries, v = case
    dense = DenseSymmetric(entries)
    # one stored layout: C input as is, F input as its transpose, never a copy
    assert dense.entries.flags.c_contiguous and np.shares_memory(dense.entries, entries)
    assert dense.entries is entries or not entries.flags.c_contiguous
    op = dense.as_operator()
    got = op.matvec(v)
    _assert_within_summation_bound(entries, v, got)
    assert np.array_equal(op.matvec(v), got)  # bit-identical on a repeat call
    wide = np.zeros((len(v), 2 * len(v)))
    wide[:, ::2] = entries
    view = wide[:, ::2]  # neither C- nor F-contiguous once P > 1
    assert len(v) == 1 or not (view.flags.c_contiguous or view.flags.f_contiguous)
    strided = DenseSymmetric(view).as_operator().matvec(v)
    assert np.array_equal(strided,
                          DenseSymmetric(np.ascontiguousarray(view)).as_operator().matvec(v))
    _assert_within_summation_bound(view, v, strided)


def test_dense_copies_only_a_strided_or_unaligned_matrix_once():
    entries = _random_dense(6).entries
    view = np.zeros((6, 12))[:, ::2]
    view[...] = entries
    raw = np.zeros(6 * 6 * 8 + 1, dtype=np.uint8)[1:].view(np.float64).reshape(6, 6)
    raw[...] = entries
    assert not raw.flags.aligned
    for layout in (view, raw, raw.T):  # strided, unaligned C, unaligned F
        stored = DenseSymmetric(layout).entries
        assert stored.flags.c_contiguous and stored.flags.aligned
        assert not np.shares_memory(stored, layout) and np.array_equal(stored, entries)


def test_numpys_openblas_yields_the_dsymv_kernel():
    """Fails if the fast dense path silently disappears from a build that has it."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    if (blas.get("name") != "scipy-openblas"
            or "USE64BITINT" not in blas.get("openblas configuration", "")):
        pytest.skip(f"numpy's BLAS is {blas.get('name')}, not a 64-bit-integer scipy-openblas")
    assert operators._dsymv() is not None
    assert operators._dsyevd() is not None
    if not sys.platform.startswith("linux"):
        return
    # a fresh interpreter: scipy, imported by other tests, maps its own OpenBLAS
    code = ("import numpy as np\n"
            "from curvlens import operators\n"
            "operators.DenseSymmetric(np.eye(3)).as_operator().matvec(np.ones(3))\n"
            "operators.dense_eigendecomposition(operators.DenseSymmetric(np.eye(3)))\n"
            "maps = {line.split()[-1] for line in open('/proc/self/maps') "
            "if 'scipy_openblas' in line}\n"
            "print(operators._dsymv() is not None, operators._dsyevd() is not None, len(maps))\n")
    assert _fresh_python(code).split() == ["True", "True", "1"]


def _fresh_python(code):
    """Standard output of ``code`` run by a fresh interpreter that imports this checkout."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120, check=True).stdout


def test_dense_overflow_is_one_floating_point_error():
    dense = DenseSymmetric(np.full((300, 300), 1e307))
    message = "operator 'dense' produced non-finite output" if operators._dsymv() else "overflow"
    with warnings.catch_warnings(), np.errstate(over="raise"):
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError, match=message):
            dense.as_operator().matvec(np.ones(300))


def test_seed_stream_is_deterministic():
    a = probe_vector(SeedStream(7), 100, "gaussian")
    b = probe_vector(SeedStream(7), 100, "gaussian")
    np.testing.assert_array_equal(a, b)
    c = probe_vector(SeedStream(8), 100, "gaussian")
    assert not np.array_equal(a, c)


def test_seed_stream_spawn_is_independent_and_deterministic():
    root = SeedStream(3)
    child_a = root.spawn(1)
    child_b = root.spawn(2)
    assert child_a.seed != child_b.seed
    assert SeedStream(3).spawn(1).seed == child_a.seed


def test_seed_stream_spawn_aliases_no_root_or_sibling_stream():
    # seed * 1000003 + offset made SeedStream(0).spawn(1) the stream of SeedStream(1)
    def draw(stream):
        return tuple(probe_vector(stream, 8, "gaussian"))

    roots = {draw(SeedStream(k)) for k in range(64)}
    children = [draw(SeedStream(seed).spawn(offset)) for seed in range(4) for offset in range(8)]
    assert roots.isdisjoint(children)
    assert len(set(children)) == len(children)
    assert draw(SeedStream(2).spawn(5)) == children[2 * 8 + 5]


def test_seed_stream_rejects_out_of_range_seeds():
    SeedStream(0)
    SeedStream(2 ** 64 - 1)
    for seed in (-1, 2 ** 64):
        with pytest.raises(ValueError, match="seed"):
            SeedStream(seed)


def test_eigenvalue_only_oracle_matches_full_decomposition():
    dense = _random_dense(40, seed=5)
    values, vectors = dense_eigendecomposition(dense, vectors=False)
    assert vectors is None
    full, _ = dense_eigendecomposition(dense)
    np.testing.assert_allclose(values, full, rtol=0, atol=1e-12 * np.max(np.abs(full)))
    too_big = SimpleNamespace(dim=4001, entries=None)
    for vectors in (True, False):
        with pytest.raises(ValueError):
            dense_eigendecomposition(too_big, vectors=vectors)


def test_rademacher_probe_entries_and_moments():
    v = probe_vector(SeedStream(0), 10_000, "rademacher")
    assert set(np.unique(v)) == {-1.0, 1.0}
    assert abs(v.mean()) < 0.05


def test_gaussian_probe_moments():
    v = probe_vector(SeedStream(1), 50_000, "gaussian")
    assert abs(v.mean()) < 0.02
    assert abs(v.var() - 1.0) < 0.05


def test_unknown_probe_kind_rejected():
    with pytest.raises(ValueError):
        probe_vector(SeedStream(0), 4, "uniform")
    with pytest.raises(ValueError, match="probe dimension must be >= 1"):
        probe_vector(SeedStream(0), 0)


def test_dense_eigendecomposition_reconstructs():
    dense = _random_dense(20, seed=5)
    vals, vecs = dense_eigendecomposition(dense)
    np.testing.assert_allclose((vecs * vals) @ vecs.T, dense.entries, atol=1e-10)
    assert np.all(np.diff(vals) >= 0)


def test_dense_eigendecomposition_dimension_cap():
    big = DenseSymmetric(entries=np.eye(4001))
    with pytest.raises(ValueError):
        dense_eigendecomposition(big)


@st.composite
def _symmetric_matrices(draw):
    """Exactly symmetric, P <= 60, C or F order: drawn entries (zeros among them), or a
    rotated spectrum of low rank with repeated eigenvalues."""
    dim = draw(st.integers(1, 60))
    if draw(st.booleans()):
        upper = draw(hnp.arrays(np.float64, (dim, dim), elements=_ENTRY))
        entries = np.triu(upper) + np.triu(upper, 1).T
    else:
        rank = draw(st.integers(0, dim))
        values = draw(st.lists(st.sampled_from([0.0, 1.0, -2.5, 7.0]), min_size=rank,
                               max_size=rank))
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        basis = np.linalg.qr(rng.standard_normal((dim, dim)))[0][:, :rank]
        rotated = (basis * values) @ basis.T
        entries = (rotated + rotated.T) / 2.0
    return np.array(entries, order=draw(st.sampled_from("CF")))


def _numpy_decomposition(entries, vectors):
    if vectors:
        return np.linalg.eigh(entries.copy())
    return np.linalg.eigvalsh(entries.copy()), None


def _assert_same_bits(got, expected):
    assert np.array_equal(got[0], expected[0])
    assert (got[1] is None) == (expected[1] is None)
    assert got[1] is None or np.array_equal(got[1], expected[1])


@given(_symmetric_matrices(), st.booleans())
def test_dense_eigendecomposition_property(entries, vectors):
    """Bit-identical to numpy.linalg in place or on a copy; only overwrite=True edits entries."""
    expected = _numpy_decomposition(entries, vectors)
    kept = entries.copy(order="K")
    _assert_same_bits(dense_eigendecomposition(DenseSymmetric(kept), vectors), expected)
    assert np.array_equal(kept, entries)
    consumed = DenseSymmetric(entries.copy(order="K"))
    got = dense_eigendecomposition(consumed, vectors, overwrite=True)
    _assert_same_bits(got, expected)
    if vectors and operators._dsyevd() is not None:
        assert np.shares_memory(got[1], consumed.entries)  # the eigenvectors are the buffer


@pytest.mark.parametrize("vectors", [True, False])
def test_dense_eigendecomposition_falls_back_on_numpy(vectors, monkeypatch):
    monkeypatch.setattr(operators, "_dsyevd", lambda: None)
    entries = _random_dense(30, seed=3).entries
    kept = entries.copy()
    got = dense_eigendecomposition(DenseSymmetric(kept), vectors, overwrite=True)
    _assert_same_bits(got, _numpy_decomposition(entries, vectors))
    assert np.array_equal(kept, entries)  # numpy.linalg works on its own copy


def test_consuming_oracle_leaves_a_read_only_matrix_alone():
    entries = _random_dense(20, seed=4).entries
    frozen = entries.copy()
    frozen.setflags(write=False)
    dense = DenseSymmetric(frozen)
    assert dense.entries is frozen
    _assert_same_bits(dense_eigendecomposition(dense, overwrite=True),
                      _numpy_decomposition(entries, True))
    assert np.array_equal(frozen, entries)


@pytest.mark.parametrize("overwrite", [True, False])
def test_lapack_error_is_a_convergence_refusal(overwrite, monkeypatch):
    def failing(jobz, uplo, n, a, lda, w, work, lwork, iwork, liwork, info, *lengths):
        info.value = 0 if lwork.value == -1 else 1  # answer the workspace query, then fail

    monkeypatch.setattr(operators, "_dsyevd", lambda: failing)
    for vectors in (True, False):
        with pytest.raises(RuntimeError, match="eigendecomposition failed to converge: "
                                               "LAPACK dsyevd returned info=1"):
            dense_eigendecomposition(_random_dense(5), vectors, overwrite=overwrite)

    def diverging(entries):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    # without dsyevd, numpy.linalg's LinAlgError is the same refusal
    monkeypatch.setattr(operators, "_dsyevd", lambda: None)
    monkeypatch.setattr(np.linalg, "eigh", diverging)
    monkeypatch.setattr(np.linalg, "eigvalsh", diverging)
    for vectors in (True, False):
        with pytest.raises(RuntimeError, match="eigendecomposition failed to converge: "
                                               "Eigenvalues did not converge"):
            dense_eigendecomposition(_random_dense(5), vectors, overwrite=overwrite)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_consuming_oracle_does_not_copy_the_matrix():
    if operators._dsyevd() is None:
        pytest.skip("numpy's BLAS has no dsyevd symbol; numpy.linalg copies the matrix")
    # the 18 MB P=1500 matrix is the largest allocation; a copy would raise the high-water mark
    code = ("from curvlens import operators, rmt\n"
            "def peak_kb():\n"
            "    with open('/proc/self/status') as status:\n"
            "        return next(int(line.split()[1]) for line in status "
            "if line.startswith('VmHWM:'))\n"
            "matrix = rmt.sample_wigner(1500, operators.SeedStream(0))\n"
            "before = peak_kb()\n"
            "operators.dense_eigendecomposition(matrix, vectors=False, overwrite=True)\n"
            "print(peak_kb() - before)\n")
    assert int(_fresh_python(code)) < 4 * 1024


def test_apply_shifted_matches_formula():
    dense = _random_dense(8, seed=2)
    op = dense.as_operator()
    v = np.random.default_rng(0).standard_normal(8)
    shifted = apply_shifted(op, 2.5)
    np.testing.assert_allclose(shifted.matvec(v), dense.entries @ v + 2.5 * v, rtol=1e-13)
    negated = apply_shifted(op, 2.5, negate=True)
    np.testing.assert_allclose(negated.matvec(v), -dense.entries @ v + 2.5 * v, rtol=1e-13)

