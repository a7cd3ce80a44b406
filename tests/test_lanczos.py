import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from curvlens.lanczos import (
    RitzDecomposition,
    Tridiagonal,
    chebyshev_bound_ratio,
    lanczos_run,
    moment_match_check,
    ritz_decompose,
    slq,
)
from curvlens.operators import DenseSymmetric, SeedStream, SymmetricOperator, probe_vector


def _random_operator(dim, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim, dim))
    return DenseSymmetric(entries=scale * (a + a.T) / (2.0 * np.sqrt(dim)))


def test_full_run_recovers_exact_spectrum():
    dense = _random_operator(15, seed=1)
    seed = probe_vector(SeedStream(0), 15, "gaussian")
    tri, basis = lanczos_run(dense.as_operator(), 15, seed)
    ritz = ritz_decompose(tri, basis)
    exact = np.linalg.eigvalsh(dense.entries)
    np.testing.assert_allclose(ritz.values, exact, atol=1e-9)


def _low_rank_operator(dim, seed, rank=4):
    rng = np.random.default_rng(seed)
    u = np.linalg.qr(rng.standard_normal((dim, rank)))[0]
    raw = (u * np.arange(1.0, rank + 1)) @ u.T
    return DenseSymmetric(entries=(raw + raw.T) / 2.0)


# (operator, dim, operator seed, steps); the probe stream is SeedStream(seed - 1).
# The rank-4 operator breaks down after at most 5 of its 20 steps.
MORE_RUNS = [(_random_operator, 1, 9, 1), (_random_operator, 60, 10, 60),
             (_random_operator, 200, 11, 50), (_low_rank_operator, 50, 12, 20)]
RUN_IDS = ["dim1", "full-dim60", "dim200", "low-rank-breakdown"]


@pytest.mark.parametrize("make, dim, seed, steps", [(_random_operator, 40, 2, 25)] + MORE_RUNS,
                         ids=["dim40"] + RUN_IDS)
def test_basis_is_orthonormal(make, dim, seed, steps):
    dense = make(dim, seed=seed)
    probe = probe_vector(SeedStream(seed - 1), dim, "gaussian")
    _, basis = lanczos_run(dense.as_operator(), steps, probe)
    gram = basis.T @ basis
    np.testing.assert_allclose(gram, np.eye(basis.shape[1]), atol=1e-12)


@pytest.mark.parametrize("make, dim, seed, steps", [(_random_operator, 30, 3, 10)] + MORE_RUNS,
                         ids=["dim30"] + RUN_IDS)
def test_three_term_recurrence_residual(make, dim, seed, steps):
    dense = make(dim, seed=seed)
    probe = probe_vector(SeedStream(seed - 1), dim, "gaussian")
    tri, basis = lanczos_run(dense.as_operator(), steps, probe)
    # H V = V T + beta_m v_{m+1} e_m^T: the residual lives only in the last column
    hv = dense.entries @ basis
    vt = basis @ tri.dense()
    np.testing.assert_allclose(hv[:, :-1], vt[:, :-1], atol=1e-10)


def test_identity_breaks_down_after_one_step():
    dense = DenseSymmetric(entries=np.eye(20))
    seed = probe_vector(SeedStream(3), 20, "gaussian")
    tri, basis = lanczos_run(dense.as_operator(), 10, seed)
    assert tri.steps == 1
    assert basis.shape == (20, 1)
    np.testing.assert_allclose(tri.alphas, [1.0], rtol=1e-14)


def test_low_rank_operator_truncates_at_rank():
    # rank-3 projector-like operator: Krylov space exhausts after 4 steps
    rng = np.random.default_rng(5)
    u = np.linalg.qr(rng.standard_normal((30, 3)))[0]
    raw = u @ np.diag([3.0, 2.0, 1.0]) @ u.T
    dense = DenseSymmetric(entries=(raw + raw.T) / 2.0)
    seed = probe_vector(SeedStream(4), 30, "gaussian")
    tri, _ = lanczos_run(dense.as_operator(), 20, seed)
    assert tri.steps <= 4


def test_zero_seed_rejected():
    dense = _random_operator(5)
    with pytest.raises(ValueError):
        lanczos_run(dense.as_operator(), 3, np.zeros(5))


@pytest.mark.parametrize("seed", [1.0, np.ones(4), np.ones((5, 1))],
                         ids=["scalar", "length-P-1", "P-by-1"])
def test_seed_of_the_wrong_shape_rejected(seed):
    dense = _random_operator(5)
    with pytest.raises(ValueError, match=r"Lanczos seed must have shape \(5,\), got "):
        lanczos_run(dense.as_operator(), 3, seed)


def test_steps_bounds_enforced():
    dense = _random_operator(5)
    with pytest.raises(ValueError):
        lanczos_run(dense.as_operator(), 6, np.ones(5))
    with pytest.raises(ValueError):
        lanczos_run(dense.as_operator(), 0, np.ones(5))


def test_ritz_weights_are_squared_first_components():
    tri = Tridiagonal(alphas=np.array([1.0, 2.0, 3.0]), betas=np.array([0.5, 0.25]))
    ritz = ritz_decompose(tri)
    vals, vecs = np.linalg.eigh(tri.dense())
    np.testing.assert_allclose(ritz.values, vals, atol=1e-12)
    np.testing.assert_allclose(ritz.weights, vecs[0, :] ** 2, atol=1e-12)
    assert abs(ritz.weights.sum() - 1.0) < 1e-12


def test_ritz_vectors_satisfy_eigen_residual():
    dense = _random_operator(25, seed=7)
    seed = probe_vector(SeedStream(5), 25, "gaussian")
    tri, basis = lanczos_run(dense.as_operator(), 25, seed)
    ritz = ritz_decompose(tri, basis)
    for i in range(len(ritz.values)):
        u = ritz.vectors[:, i]
        residual = dense.entries @ u - ritz.values[i] * u
        assert np.linalg.norm(residual) < 1e-8


def test_quadrature_moment_exactness():
    dense = _random_operator(30, seed=8)
    seed = probe_vector(SeedStream(6), 30, "gaussian")
    m = 8
    tri, basis = lanczos_run(dense.as_operator(), m, seed)
    ritz = ritz_decompose(tri, basis)
    for order in range(2 * m):
        assert moment_match_check(dense.as_operator(), ritz, seed, order) < 1e-10


def test_moment_check_refuses_orders_beyond_exactness():
    dense = _random_operator(10, seed=9)
    seed = probe_vector(SeedStream(7), 10, "gaussian")
    tri, basis = lanczos_run(dense.as_operator(), 4, seed)
    ritz = ritz_decompose(tri, basis)
    with pytest.raises(ValueError):
        moment_match_check(dense.as_operator(), ritz, seed, 8)


def test_ritz_step_count_is_its_node_count():
    ritz = RitzDecomposition(values=[1.0, 2.0], weights=[0.5, 0.5])
    assert ritz.steps == 2
    op = DenseSymmetric(entries=np.diag([1.0, 2.0])).as_operator()
    seed = np.ones(2)
    assert moment_match_check(op, ritz, seed, 3) < 1e-12
    with pytest.raises(ValueError):
        moment_match_check(op, ritz, seed, 4)
    with pytest.raises(TypeError):
        RitzDecomposition(values=[1.0, 2.0], weights=[0.5, 0.5], steps=10)


def test_chebyshev_bound_known_cell():
    # T_9(2) = 70226 so the m=10, gap 1.5 Lanczos bound is 1/70226^2
    lanczos_bound, power_bound = chebyshev_bound_ratio(1.5, 10)
    np.testing.assert_allclose(lanczos_bound, 1.0 / 70226.0 ** 2, rtol=1e-10)
    np.testing.assert_allclose(power_bound, (2.0 / 3.0) ** 18, rtol=1e-12)


def test_chebyshev_bound_validates_inputs():
    with pytest.raises(ValueError):
        chebyshev_bound_ratio(1.0, 5)
    with pytest.raises(ValueError):
        chebyshev_bound_ratio(1.5, 1)


def test_lanczos_bound_beats_power_bound():
    for gap in (1.5, 1.1, 1.01):
        for steps in (5, 10, 20):
            lanczos_bound, power_bound = chebyshev_bound_ratio(gap, steps)
            assert lanczos_bound < power_bound


def _same_ritz(a, b):
    return (np.array_equal(a.values, b.values) and np.array_equal(a.weights, b.weights)
            and a.seed_kind == b.seed_kind
            and (a.vectors is None and b.vectors is None or np.array_equal(a.vectors, b.vectors)))


@given(dim=st.integers(1, 60), seed=st.integers(0, 2 ** 32 - 1), k=st.integers(1, 4),
       steps=st.integers(1, 70), keep_vectors=st.booleans(),
       kind=st.sampled_from(["gaussian", "rademacher"]))
def test_slq_is_per_probe_lanczos_bit_for_bit(dim, seed, k, steps, keep_vectors, kind):
    op = _random_operator(dim, seed=seed).as_operator()
    stream = SeedStream(seed)
    probes = [probe_vector(stream, dim, kind) for _ in range(k)]
    got = slq(op, steps, np.column_stack(probes), keep_vectors)
    assert len(got) == k
    for probe, ritz in zip(probes, got):
        tri, basis = lanczos_run(op, min(steps, dim), probe)
        assert _same_ritz(ritz, ritz_decompose(tri, basis if keep_vectors else None))


def test_slq_refuses_a_probe_block_of_the_wrong_shape():
    op = _random_operator(5).as_operator()
    for probes in (np.ones(5), np.ones((4, 2))):
        with pytest.raises(ValueError, match="probes must be"):
            slq(op, 3, probes)


def test_slq_refuses_non_finite_operator_output():
    calls = []

    def apply(v):  # a diagonal matrix whose third product comes back NaN
        calls.append(1)
        return np.arange(1.0, 9.0) * v if len(calls) < 3 else np.full_like(v, np.nan)

    op = SymmetricOperator(dim=8, apply=apply, label="leaky")
    with pytest.raises(FloatingPointError, match="operator 'leaky' produced non-finite output"):
        slq(op, 6, probe_vector(SeedStream(0), 8, "gaussian")[:, None])
    assert len(calls) == 3


@given(dim=st.integers(1, 60), seed=st.integers(0, 2 ** 32 - 1), steps=st.integers(1, 8))
def test_gauss_quadrature_is_exact_to_degree_2m_minus_1(dim, seed, steps):
    op = _random_operator(dim, seed=seed).as_operator()
    probe = probe_vector(SeedStream(seed), dim, "gaussian")
    ritz, = slq(op, steps, probe[:, None])
    for order in range(2 * ritz.steps):
        assert moment_match_check(op, ritz, probe, order) < 1e-10


@given(dim=st.integers(2, 60), seed=st.integers(0, 2 ** 32 - 1), steps=st.integers(1, 20))
def test_ritz_values_interlace_between_steps(dim, seed, steps):
    steps = min(steps, dim - 1)
    op = _random_operator(dim, seed=seed).as_operator()
    probe = probe_vector(SeedStream(seed), dim, "gaussian")[:, None]
    short, = slq(op, steps, probe)
    long, = slq(op, steps + 1, probe)
    assume(long.steps == steps + 1)  # no breakdown: T_m is T_{m+1}'s leading block
    tol = 1e-12 * max(1.0, np.abs(long.values).max())
    assert np.all(long.values[:-1] <= short.values + tol)
    assert np.all(short.values <= long.values[1:] + tol)
