import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from curvlens.density import (
    ATOM_MERGE_TOL,
    DiracMixture,
    average_over_seeds,
    mixture_moment,
    smoothed_moment,
    smoothing_bias,
)
from curvlens.lanczos import RitzDecomposition, lanczos_run, ritz_decompose, slq
from curvlens.operators import DenseSymmetric, SeedStream, probe_vector


def _mixture():
    return DiracMixture.from_arrays([0.0, 1.0, 2.5, 4.0], [0.1, 0.4, 0.3, 0.2])


@settings(max_examples=100)
@given(atoms=st.lists(st.tuples(st.integers(-20, 20), st.floats(1e-3, 1e3)), min_size=1,
                      max_size=60),
       scale=st.floats(1e-6, 1e6))
def test_from_arrays_keeps_unit_weight_and_sorted_atoms(atoms, scale):
    # integer grid points scaled by one factor, so repeated locations merge
    locations = np.array([loc for loc, _ in atoms]) * scale
    weights = np.array([w for _, w in atoms])
    mixture = DiracMixture.from_arrays(locations, weights)
    assert abs(mixture.weights.sum() - 1.0) <= 1e-12
    assert np.all(np.diff(mixture.locations) > ATOM_MERGE_TOL)
    assert len(mixture.atoms) == len(set(locations))


def test_mixture_validates_weights_and_order():
    with pytest.raises(ValueError):
        DiracMixture(atoms=((0.0, 0.5), (1.0, 0.4)))
    with pytest.raises(ValueError):
        DiracMixture(atoms=((1.0, 0.5), (0.0, 0.5)))
    with pytest.raises(ValueError):
        DiracMixture(atoms=((0.0, -0.1), (1.0, 1.1)))


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("make, message", [
    (lambda: DiracMixture(atoms=((0.0, NAN), (1.0, 1.0))), "atom locations and weights"),
    (lambda: DiracMixture(atoms=((NAN, 0.5), (1.0, 0.5))), "atom locations and weights"),
    (lambda: DiracMixture(atoms=((-INF, 0.5), (INF, 0.5))), "atom locations and weights"),
    (lambda: RitzDecomposition(values=[NAN, 1.0], weights=[NAN, 1.0]), "Ritz values and weights"),
    (lambda: RitzDecomposition(values=[0.0, INF], weights=[0.5, 0.5]), "Ritz values and weights"),
], ids=["nan-weight", "nan-location", "inf-locations", "nan-ritz-pair", "inf-ritz-value"])
def test_spectrum_records_refuse_non_finite_values(make, message):
    with pytest.raises(ValueError, match=f"^{message} must be finite$"):
        make()


def test_from_arrays_merges_coincident_atoms():
    mixture = DiracMixture.from_arrays([1.0, 1.0, 2.0], [0.25, 0.25, 0.5])
    assert len(mixture.atoms) == 2
    np.testing.assert_allclose(mixture.weights, [0.5, 0.5])


def test_moments_match_hand_computation():
    mixture = _mixture()
    assert mixture_moment(mixture, 0) == pytest.approx(1.0)
    assert mixture_moment(mixture, 1) == pytest.approx(0.4 + 0.75 + 0.8)
    assert mixture_moment(mixture, 2) == pytest.approx(0.4 + 0.3 * 6.25 + 0.2 * 16.0)


def test_average_over_seeds_pools_and_renormalizes():
    dense_entries = np.diag([1.0, 2.0, 3.0, 4.0, 5.0])
    op = DenseSymmetric(entries=dense_entries).as_operator()
    stream = SeedStream(0)
    decompositions = []
    for _ in range(3):
        seed = probe_vector(stream, 5, "gaussian")
        tri, basis = lanczos_run(op, 5, seed)
        decompositions.append(ritz_decompose(tri, basis))
    mixture = average_over_seeds(decompositions)
    assert mixture.n_seeds == 3
    assert abs(mixture.weights.sum() - 1.0) < 1e-12
    # pooled first moment approximates the normalized trace
    assert abs(mixture_moment(mixture, 1) - 3.0) < 1.5


def test_average_over_seeds_pools_runs_of_different_lengths():
    op = DenseSymmetric(entries=np.diag([1.0, 2.0, 3.0, 4.0])).as_operator()
    stream = SeedStream(1)
    runs, rayleigh = [], []
    for steps in (3, 4):
        seed = probe_vector(stream, 4, "gaussian")
        tri, basis = lanczos_run(op, steps, seed)
        runs.append(ritz_decompose(tri, basis))
        rayleigh.append(seed @ op.matvec(seed) / (seed @ seed))
    mixture = average_over_seeds(runs)
    assert (mixture.n_seeds, mixture.steps) == (2, 4)
    assert len(mixture.atoms) == 7
    # each run carries half the mass, whatever its length
    short = np.isin(mixture.locations, runs[0].values)
    assert mixture.weights[short].sum() == pytest.approx(0.5, abs=1e-12)
    # each Gauss quadrature is exact for its probe's Rayleigh quotient
    assert mixture_moment(mixture, 1) == pytest.approx(np.mean(rayleigh), abs=1e-12)


def _probe_moments(op, steps, probes, order):
    """Each probe's |v|^2 sum_i w_i theta_i^k from its own ``slq`` run."""
    norms_sq = np.einsum("ij,ij->j", probes, probes)
    return np.array([n * np.sum(d.weights * d.values ** order)
                     for n, d in zip(norms_sq, slq(op, steps, probes))])


def _rademacher_block(dim, count, seed):
    stream = SeedStream(seed)
    return np.column_stack([probe_vector(stream, dim, "rademacher") for _ in range(count)])


def _symmetric_matrix(seed, dim):
    a = np.random.default_rng(seed).standard_normal((dim, dim))
    return (a + a.T) / 2.0


def test_quadrature_trace_is_unbiased_on_known_matrix():
    entries = _symmetric_matrix(3, 60)
    op = DenseSymmetric(entries=entries).as_operator()
    per_probe = _probe_moments(op, 4, _rademacher_block(60, 400, 2), 1)
    # Var(v^T A v) over Rademacher v is 2 (|A|_F^2 - sum_i a_ii^2)
    variance = 2.0 * (np.sum(entries ** 2) - np.sum(np.diag(entries) ** 2))
    assert abs(per_probe.mean() - np.trace(entries)) < 4.0 * np.sqrt(variance / 400)


def test_quadrature_trace_of_powers():
    op = DenseSymmetric(entries=np.diag(np.array([1.0, 2.0, 3.0]))).as_operator()
    per_probe = _probe_moments(op, 2, _rademacher_block(3, 2000, 4), 2)
    assert per_probe.mean() == pytest.approx(1.0 + 4.0 + 9.0, rel=0.15)


@pytest.mark.parametrize("order", [1, 2, 3])
def test_quadrature_moments_equal_probe_moments(order):
    # Gauss quadrature is exact to degree 2m - 1 = 3 for m = 2 steps
    entries = _symmetric_matrix(5, 40)
    probes = _rademacher_block(40, 20, 6)
    direct = np.einsum("ij,ij->j", probes, np.linalg.matrix_power(entries, order) @ probes)
    quadrature = _probe_moments(DenseSymmetric(entries=entries).as_operator(), 2, probes, order)
    np.testing.assert_allclose(quadrature, direct, rtol=1e-12)


def test_smoothing_bias_refuses_bad_bandwidth():
    for bandwidth in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="bandwidth must be finite and positive"):
            smoothing_bias(_mixture(), bandwidth, 2)


def _numeric_smoothed_moment(mixture, sigma, order):
    """Oracle: integrate x^order against the Gaussian-smoothed density."""
    total = 0.0
    for loc, w in mixture.atoms:
        density = lambda x: np.exp(-((x - loc) ** 2) / (2 * sigma**2)) / (sigma * np.sqrt(2 * np.pi))
        val, _ = quad(lambda x: x**order * density(x), loc - 14 * sigma, loc + 14 * sigma,
                      limit=200)
        total += w * val
    return total


@pytest.mark.parametrize("sigma", [0.1, 0.5, 1.0])
@pytest.mark.parametrize("order", [0, 1, 2, 3, 4, 5, 6])
def test_smoothed_moment_matches_quadrature(sigma, order):
    mixture = _mixture()
    analytic = smoothed_moment(mixture, sigma, order)
    numeric = _numeric_smoothed_moment(mixture, sigma, order)
    assert analytic == pytest.approx(numeric, rel=1e-9, abs=1e-12)


def test_second_moment_bias_is_exactly_sigma_squared():
    assert smoothing_bias(_mixture(), 0.3, 2) == pytest.approx(0.09, rel=1e-14)


def test_orders_zero_and_one_are_bias_free():
    assert smoothing_bias(_mixture(), 0.7, 0) == 0.0
    assert smoothing_bias(_mixture(), 0.7, 1) == 0.0
