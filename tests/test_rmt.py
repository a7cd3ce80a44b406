import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from curvlens.density import DiracMixture
from curvlens import operators, rmt
from curvlens.operators import SeedStream, dense_eigendecomposition
from curvlens.rmt import (
    MPParams,
    PlantedSpectrumSpec,
    fit_mp_to_bulk,
    planted_matrix,
    planted_spectrum,
    sample_wigner,
    sample_wishart,
)


def test_mp_edges():
    params = MPParams(variance=1.0, ratio=2.0)
    assert params.edge_lower == pytest.approx((1 - np.sqrt(2)) ** 2)
    assert params.edge_upper == pytest.approx((1 + np.sqrt(2)) ** 2)


@pytest.mark.parametrize("variance, ratio, message", [
    (0.0, 2.0, "MP variance sigma^2 must be positive"),
    (-1.0, 2.0, "MP variance sigma^2 must be positive"),
    (1.0, 0.0, "MP ratio q must be positive"),
    (1.0, -2.0, "MP ratio q must be positive"),
])
def test_mp_params_refuse_a_nonpositive_variance_or_ratio(variance, ratio, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        MPParams(variance=variance, ratio=ratio)


def test_wigner_sample_symmetric_and_scaled():
    h = sample_wigner(300, SeedStream(0))
    vals, _ = dense_eigendecomposition(h)
    assert abs(vals[-1] - 2.0) < 0.3
    assert abs(vals[0] + 2.0) < 0.3


# sizes below, at and above a tile multiple
IN_PLACE_DIMS = [2, 3, operators._TILE, 2 * operators._TILE + 37]


@pytest.mark.parametrize("dim", IN_PLACE_DIMS)
@pytest.mark.parametrize("seed", [0, 5])
def test_wigner_sample_bit_identical_to_out_of_place_formula(dim, seed):
    a = SeedStream(seed).generator.standard_normal((dim, dim))
    h = np.triu(a) + np.triu(a, 1).T
    np.testing.assert_array_equal(sample_wigner(dim, SeedStream(seed)).entries, h / np.sqrt(dim))


@pytest.mark.parametrize("dim", IN_PLACE_DIMS)
def test_wishart_sample_bit_identical_to_out_of_place_formula(dim):
    t_samples = dim // 2 + 1
    x = SeedStream(6).generator.standard_normal((dim, t_samples))
    y = x @ x.T / t_samples
    np.testing.assert_array_equal(sample_wishart(dim, t_samples, SeedStream(6)).entries,
                                  (y + y.T) / 2.0)


def _householder_rotation(a):
    q, r = np.linalg.qr(a)
    return q * np.sign(np.diag(r))


def _max_orthonormality_defect(q):
    return np.abs(q.T @ q - np.eye(len(q))).max()


# sizes within one panel, one full panel, a partial last panel, and four full panels
PANEL_DIMS = [*IN_PLACE_DIMS, rmt._PANEL, 2 * rmt._PANEL + 37, 4 * rmt._PANEL]


@pytest.mark.parametrize("dim", PANEL_DIMS,
                         ids=["2", "3", "tile", "2tile+37", "w", "2w+37", "4w"])
def test_panel_built_planted_matrix_matches_householder(dim):
    spikes = min(5, dim - 1)
    spec = PlantedSpectrumSpec(dim=dim, groups=((dim - spikes, "uniform", -1.0, 1.0),
                                                (spikes, "uniform", 50.0, 80.0)))
    stream = SeedStream(11)
    d = planted_spectrum(spec, stream)
    q = _householder_rotation(stream.generator.standard_normal((dim, dim)))
    reference = (q * d) @ q.T
    del q
    stream = SeedStream(11)
    planted_spectrum(spec, stream)
    rotation = rmt._rotation(stream.generator, dim)  # the same draw, panel by panel
    assert _max_orthonormality_defect(rotation) <= 8 * dim * np.finfo(float).eps
    del rotation
    matrix, truth = planted_matrix(spec, SeedStream(11))
    np.testing.assert_array_equal(truth, d)
    assert np.array_equal(matrix.entries, matrix.entries.T)
    assert np.abs(matrix.entries - reference).max() <= 1e-12 * np.abs(d).max()


def _scripted_generator(*draws):
    """Stands in for a Generator whose standard_normal returns ``draws`` in turn."""
    queue = [draw.copy() for draw in draws]
    return SimpleNamespace(standard_normal=lambda shape: queue.pop(0))


def test_nearly_dependent_panel_stays_orthonormal():
    # 1e-6: Cholesky-QR2 copes, if each pass projects out the finished columns again
    dim, width = 2 * rmt._PANEL + 37, rmt._PANEL
    rng = np.random.default_rng(12)
    a = rng.standard_normal((dim, dim))
    a[:, width + 1] = a[:, width] + 1e-6 * rng.standard_normal(dim)
    q = rmt._rotation(_scripted_generator(a), dim)  # a second draw would find none
    assert _max_orthonormality_defect(q) <= 8 * dim * np.finfo(float).eps
    # still the Q of a = QR with a positive R diagonal
    r = q.T @ a
    assert np.all(np.diag(r) > 0.0)
    assert np.abs(np.tril(r, -1)).max() <= 1e-10 * np.abs(a).max()


# 1e-9, 1e-12: the first pass leaves the panel far from orthonormal, so the
# second refuses it; a zero column: Cholesky of the first pass raises, in the
# second panel or in the only one
@pytest.mark.parametrize("dim, offset", [(2 * rmt._PANEL + 37, 1e-9), (2 * rmt._PANEL + 37, 1e-12),
                                         (2 * rmt._PANEL + 37, None), (37, None)],
                         ids=["1e-09", "1e-12", "zero-column", "zero-column-one-panel"])
def test_unusable_panel_draws_again(dim, offset):
    width = rmt._PANEL if dim > rmt._PANEL else 0
    rng = np.random.default_rng(13)
    unusable, fresh = rng.standard_normal((2, dim, dim))
    if offset is None:
        unusable[:, width + 5] = 0.0
    else:
        unusable[:, width + 1] = unusable[:, width] + offset * rng.standard_normal(dim)
    q = rmt._rotation(_scripted_generator(unusable, fresh), dim)
    assert np.abs(q - _householder_rotation(fresh)).max() <= 1e-12


@given(dim=st.integers(1, 40), seed=st.integers(0, 2 ** 32 - 1))
def test_rotation_is_the_positive_diagonal_q_of_its_draw(dim, seed):
    a = np.random.default_rng(seed).standard_normal((dim, dim))
    q = rmt._rotation(_scripted_generator(a), dim)
    assert _max_orthonormality_defect(q) <= 8 * dim * np.finfo(float).eps
    r = q.T @ a
    assert np.all(np.diag(r) > 0.0)
    assert np.abs(np.tril(r, -1)).max(initial=0.0) <= 1e-12 * np.abs(a).max()


def test_planted_matrix_peak_memory_is_one_matrix_and_two_panels(traced_peak):
    dim = 4 * rmt._PANEL
    spec = PlantedSpectrumSpec(dim=dim, groups=((dim, "uniform", 0.0, 1.0),))
    # Householder QR of the whole draw peaked at 4.13 * 8P^2, and U beside U D U^T at 2.25
    _, peak = traced_peak(lambda: planted_matrix(spec, SeedStream(0)))
    assert peak < 1.6 * 8 * dim * dim


def test_wigner_sample_peak_memory_is_one_matrix(traced_peak):
    dim = 600
    sample_wigner(dim, SeedStream(0))  # warm up the generator's first-use allocations
    _, peak = traced_peak(lambda: sample_wigner(dim, SeedStream(0)))
    assert peak < 1.1 * 8 * dim * dim


def test_wishart_sample_psd_with_null_space():
    y = sample_wishart(100, 50, SeedStream(1))
    vals, _ = dense_eigendecomposition(y)
    assert vals[0] > -1e-10
    # q = 2 forces half the eigenvalues to be exactly zero up to round-off
    assert np.sum(np.abs(vals) < 1e-10) == 50


def test_planted_spectrum_counts_and_support():
    spec = PlantedSpectrumSpec(dim=100, groups=((60, "const", 0.0, 0.0),
                                                (30, "uniform", 0.0, 10.0),
                                                (10, "uniform", 50.0, 60.0)))
    values = planted_spectrum(spec, SeedStream(2))
    assert len(values) == 100
    assert np.sum(values == 0.0) == 60
    assert np.all(values[-10:] >= 50.0)


def test_planted_spec_group_count_must_match_dim():
    with pytest.raises(ValueError):
        PlantedSpectrumSpec(dim=10, groups=((5, "const", 1.0, 1.0),))
    with pytest.raises(ValueError, match="group 0: count must be nonnegative, got -1"):
        PlantedSpectrumSpec(dim=1, groups=((-1, "const", 1.0, 1.0), (2, "const", 1.0, 1.0)))


def test_planted_matrix_above_the_oracle_cap_is_refused_before_any_draw():
    spec = PlantedSpectrumSpec.from_json(
        {"dim": 4001, "groups": [{"count": 4001, "dist": "const", "lo": 1.0}]})
    no_draws = SimpleNamespace(generator=None)  # any draw would raise AttributeError
    with pytest.raises(ValueError, match="planted matrices capped at dim 4000"):
        planted_matrix(spec, no_draws)


@pytest.mark.parametrize("group, message", [
    ({"dist": "gamma", "lo": 1.0}, "unknown dist 'gamma'"),
    ({"dist": "uniform", "lo": 0.0, "hi": np.inf}, "need finite lo <= hi"),
    ({"dist": "const", "lo": np.nan}, "need finite lo <= hi"),
    ({"dist": "uniform", "lo": 2.0, "hi": 1.0}, "need finite lo <= hi"),
    ({"dist": "const", "lo": 1.0, "hi": 5.0}, "const group needs hi == lo"),
    ({"dist": "const", "lo": 1.0, "scale": 2.0}, "unknown keys ['scale']"),
    ({"dist": "const", "lo": 10**400}, "lo is an integer too large for a double"),
])
def test_planted_spec_refuses_bad_groups(group, message):
    with pytest.raises(ValueError, match=re.escape(message)) as err:
        PlantedSpectrumSpec.from_json({"dim": 4, "groups": [{"count": 4, **group}]})
    assert str(err.value).startswith("group 0: ") and "\n" not in str(err.value)


def test_planted_spec_from_json_round_trip():
    raw = {"dim": 4, "groups": [{"count": 3, "dist": "const", "lo": 1.0},
                                {"count": 1, "dist": "uniform", "lo": 2.0, "hi": 3.0}]}
    spec = PlantedSpectrumSpec.from_json(raw)
    assert spec.dim == 4
    assert spec.groups[0] == (3, "const", 1.0, 1.0)
    # the rotation follows the stream given to planted_matrix; a spec seed would do nothing
    with pytest.raises(ValueError, match="'seed'"):
        PlantedSpectrumSpec.from_json({**raw, "seed": 9})


def test_planted_matrix_has_exactly_the_planted_spectrum():
    spec = PlantedSpectrumSpec(dim=80, groups=((40, "const", 0.0, 0.0),
                                               (35, "uniform", 0.0, 10.0),
                                               (5, "uniform", 90.0, 110.0)))
    matrix, truth = planted_matrix(spec, SeedStream(3))
    vals, _ = dense_eigendecomposition(matrix)
    np.testing.assert_allclose(vals, truth, atol=1e-9)


def test_planted_matrix_deterministic_in_seed():
    spec = PlantedSpectrumSpec(dim=20, groups=((20, "uniform", 0.0, 5.0),))
    a, _ = planted_matrix(spec, SeedStream(4))
    b, _ = planted_matrix(spec, SeedStream(4))
    np.testing.assert_array_equal(a.entries, b.entries)


def test_fit_mp_recovers_parameters_from_exact_spectrum():
    params = MPParams(variance=1.0, ratio=0.25)
    y = sample_wishart(400, 1600, SeedStream(5))
    vals, _ = dense_eigendecomposition(y)
    mixture = DiracMixture.from_arrays(vals, np.full(len(vals), 1 / len(vals)))
    fit = fit_mp_to_bulk(mixture)
    assert fit.variance == pytest.approx(1.0, rel=0.05)
    assert fit.edge_upper == pytest.approx(params.edge_upper, rel=0.05)


def test_fit_mp_excludes_planted_outliers():
    y = sample_wishart(300, 1200, SeedStream(6))
    vals, _ = dense_eigendecomposition(y)
    spiked = np.concatenate([vals, [25.0, 30.0]])
    mixture = DiracMixture.from_arrays(spiked, np.full(len(spiked), 1 / len(spiked)))
    fit = fit_mp_to_bulk(mixture, excluded_outliers=2)
    assert fit.variance == pytest.approx(1.0, rel=0.08)
    assert fit.edge_upper < 5.0

