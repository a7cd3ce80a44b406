from types import SimpleNamespace

import numpy as np
import pytest

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


def test_matvec_rejects_nonfinite_output():
    op = SymmetricOperator(dim=3, apply=lambda v: v * np.nan, label="bad")
    with pytest.raises(FloatingPointError):
        op.matvec(np.ones(3))


def test_dense_requires_exact_symmetry():
    a = np.eye(3)
    a[0, 1] = 1e-14
    with pytest.raises(ValueError):
        DenseSymmetric(entries=a)


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


@pytest.mark.parametrize("dim", [1, 1000, 1001, 2017])
def test_dense_matvec_is_one_gemv_without_a_matrix_copy(dim, traced_peak):
    dense = _random_dense(dim, seed=dim)
    v = np.random.default_rng(dim + 1).standard_normal(dim)
    got, peak = traced_peak(lambda: dense.as_operator().matvec(v))
    assert peak < 8 * 8 * dim + 64 * 1024  # vectors only, never a copy of the matrix
    assert np.array_equal(got, dense.entries @ v)


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


def test_dense_eigendecomposition_reconstructs():
    dense = _random_dense(20, seed=5)
    vals, vecs = dense_eigendecomposition(dense)
    np.testing.assert_allclose((vecs * vals) @ vecs.T, dense.entries, atol=1e-10)
    assert np.all(np.diff(vals) >= 0)


def test_dense_eigendecomposition_dimension_cap():
    big = DenseSymmetric(entries=np.eye(4001))
    with pytest.raises(ValueError):
        dense_eigendecomposition(big)


def test_apply_shifted_matches_formula():
    dense = _random_dense(8, seed=2)
    op = dense.as_operator()
    v = np.random.default_rng(0).standard_normal(8)
    shifted = apply_shifted(op, 2.5)
    np.testing.assert_allclose(shifted.matvec(v), dense.entries @ v + 2.5 * v, rtol=1e-13)
    negated = apply_shifted(op, 2.5, negate=True)
    np.testing.assert_allclose(negated.matvec(v), -dense.entries @ v + 2.5 * v, rtol=1e-13)

