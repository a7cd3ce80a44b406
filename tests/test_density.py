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
    stochastic_trace,
)
from curvlens.lanczos import RitzDecomposition, lanczos_run, ritz_decompose
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


def test_stochastic_trace_is_unbiased_on_known_matrix():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((60, 60))
    dense = DenseSymmetric(entries=(a + a.T) / 2.0)
    op = dense.as_operator()
    exact = np.trace(dense.entries)
    est = stochastic_trace(op, 1, 400, SeedStream(2), kind="rademacher")
    assert len(est.per_probe) == 400
    assert abs(est.value - exact) < 0.25 * np.sqrt(est.variance_bound / 400) * 4 + 2.0


def test_stochastic_trace_powers():
    dense = DenseSymmetric(entries=np.diag(np.array([1.0, 2.0, 3.0])))
    op = dense.as_operator()
    est = stochastic_trace(op, 2, 2000, SeedStream(4), kind="rademacher")
    assert est.value == pytest.approx(1.0 + 4.0 + 9.0, rel=0.15)


def test_rademacher_variance_bound_tighter_than_gaussian():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((40, 40))
    op = DenseSymmetric(entries=(a + a.T) / 2.0).as_operator()
    rademacher = stochastic_trace(op, 1, 5, SeedStream(6), kind="rademacher")
    gaussian = stochastic_trace(op, 1, 5, SeedStream(6), kind="gaussian")
    # bound constant is 3 for Rademacher probes, 5 for Gaussian ones
    assert rademacher.variance_bound / gaussian.variance_bound < 1.0


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
