import numpy as np
import pytest

from curvlens.lanczos import lanczos_run, ritz_decompose
from curvlens import lanczos, models, optim
from curvlens.models import LogisticRegressionModel, MLPModel, make_blobs
from curvlens.operators import SeedStream, probe_vector
from curvlens.optim import (
    REFRESH_CURVATURES,
    SpectralSchedule,
    TrainConfig,
    loss_landscape,
    spectral_refresh,
    ssgd_schedule,
    ssgdm_schedule,
    train,
)


def test_ssgd_schedule_formula():
    schedule = ssgd_schedule(9.0, 1.0)
    assert schedule.alpha == pytest.approx(0.2)
    assert schedule.beta == 0.0


def test_ssgdm_schedule_formula():
    schedule = ssgdm_schedule(9.0, 1.0)
    assert schedule.alpha == pytest.approx(0.25)
    assert schedule.beta == pytest.approx(0.25)


def test_schedule_validation():
    with pytest.raises(ValueError):
        ssgd_schedule(1.0, -0.5)
    with pytest.raises(ValueError):
        ssgdm_schedule(1.0, 2.0)
    with pytest.raises(ValueError):
        SpectralSchedule(alpha=0.1, beta=1.0)
    for alpha in (0.0, -0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="learning rate must be finite and positive"):
            SpectralSchedule(alpha=alpha, beta=0.0)


def test_theoretical_schedule_delegates():
    data = make_blobs(60, 5, 3, separation=3.0, stream=SeedStream(4))
    lipschitz, mu = models.lipschitz_bounds_logreg(data, 0.01)
    config = TrainConfig(batch_size=60, total_steps=3)
    for variant, schedule in (("sgd_theoretical", ssgd_schedule(lipschitz, mu)),
                              ("sgdm_theoretical", ssgdm_schedule(lipschitz, mu))):
        model = LogisticRegressionModel(5, 3, weight_decay=0.01)
        trace = train(model, data, config, variant, SeedStream(5))
        assert trace.schedule_per_step == [(schedule.alpha, schedule.beta)] * 3


def test_ssgd_converges_on_quadratic_at_optimal_rate():
    # gradient descent with alpha = 2/(L + mu) contracts by (kappa-1)/(kappa+1)
    eigs = np.linspace(1.0, 9.0, 12)
    schedule = ssgd_schedule(eigs.max(), eigs.min())
    x = np.ones_like(eigs)
    for _ in range(50):
        x = x - schedule.alpha * eigs * x
    expected = (0.8) ** 50  # (9-1)/(9+1)
    assert np.max(np.abs(x)) == pytest.approx(expected, rel=0.05)


def test_train_config_rejects_negative_layers():
    TrainConfig(batch_size=10, total_steps=5, layers=0)
    for kwargs in ({"layers": -1}, {"batch_size": 0}, {"batch_size": -1}):
        with pytest.raises(ValueError):
            TrainConfig(**{"batch_size": 10, "total_steps": 5, **kwargs})


def test_training_settings_reject_unknown_values():
    with pytest.raises(ValueError, match="curvature kind"):
        TrainConfig(batch_size=10, total_steps=5, curvature="hessain")
    with pytest.raises(ValueError, match="seed kind"):
        TrainConfig(batch_size=10, total_steps=5, seed_kind="gradeint")
    data = make_blobs(20, 4, 2, separation=2.0, stream=SeedStream(2))
    config = TrainConfig(batch_size=20, total_steps=1, lanczos_steps=4)
    with pytest.raises(ValueError, match="spectral variant"):
        spectral_refresh(LogisticRegressionModel(4, 2), data, config,
                         probe_vector(SeedStream(3), 8, "rademacher"), variant="sgdm_fixed")


def test_spectral_refresh_reports_plausible_pair():
    data = make_blobs(80, 6, 3, separation=3.0, stream=SeedStream(0))
    model = LogisticRegressionModel(6, 3, weight_decay=0.01)
    config = TrainConfig(batch_size=80, total_steps=1, lanczos_steps=12)
    seed = probe_vector(SeedStream(1), model.n_params, "rademacher")
    lam_max, lam_bulk, schedule, _ = spectral_refresh(model, data, config, seed)
    assert 0 < lam_bulk <= lam_max
    assert schedule.alpha == pytest.approx(2.0 / (lam_max + lam_bulk))


def test_train_config_refuses_a_curvature_no_refresh_can_use():
    for curvature in REFRESH_CURVATURES:
        TrainConfig(batch_size=20, total_steps=1, curvature=curvature)
    with pytest.raises(ValueError, match="refresh curvature kind must be one of .*'hessian'"):
        TrainConfig(batch_size=20, total_steps=1, curvature="hessian")


def test_spectral_refresh_forms_no_ritz_vectors(monkeypatch):
    decompositions = []

    def recording_ritz_decompose(*args, **kwargs):
        decompositions.append(ritz_decompose(*args, **kwargs))
        return decompositions[-1]

    monkeypatch.setattr(lanczos, "ritz_decompose", recording_ritz_decompose)
    data = make_blobs(80, 6, 3, separation=3.0, stream=SeedStream(0))
    for seed_kind in ("random", "gradient"):
        model = MLPModel([6, 5, 3], stream=SeedStream(1), weight_decay=0.01)
        config = TrainConfig(batch_size=80, total_steps=20, lanczos_steps=8,
                             refresh_interval=10, seed_kind=seed_kind)
        trace = train(model, data, config, "ssgdm", SeedStream(2))
        assert len(trace.refreshes) == 2
    assert len(decompositions) == 4
    assert all(ritz.vectors is None for ritz in decompositions)


def test_gradient_refresh_is_seeded_by_the_step_gradient(monkeypatch):
    calls = {"gradient": 0, "forward": 0}
    loss_and_gradient, forward = MLPModel.loss_and_gradient, models._forward

    def counting_gradient(model, batch):
        calls["gradient"] += 1
        return loss_and_gradient(model, batch)

    def counting_forward(x, layers, lin):
        calls["forward"] += 1
        return forward(x, layers, lin)

    monkeypatch.setattr(MLPModel, "loss_and_gradient", counting_gradient)
    monkeypatch.setattr(models, "_forward", counting_forward)
    data = make_blobs(100, 6, 3, separation=3.0, stream=SeedStream(6))
    model = MLPModel([6, 5, 3], stream=SeedStream(7), weight_decay=0.01)
    config = TrainConfig(batch_size=100, total_steps=100, lanczos_steps=8,
                         refresh_interval=25, seed_kind="gradient")
    trace = train(model, data, config, "ssgd", SeedStream(8))
    assert len(trace.losses) == 100 and len(trace.refreshes) == 4
    # one gradient per step; one more forward pass per refresh, in the operator's first product
    assert calls == {"gradient": 100, "forward": 104}


def test_failed_refresh_keeps_previous_schedule():
    # minibatch SSGDM blows the parameters up; by step 40 the GGN has collapsed and
    # Lanczos breaks down after 2 steps, too few atoms for the bulk estimate
    data = models.dataset_from_spec({"n_samples": 120, "d_in": 5, "n_c": 3,
                                     "blob_separation": 3.0, "seed": 1})
    stream = SeedStream(11)
    model = MLPModel([5, 8, 8, 3], stream=stream.spawn(1), weight_decay=0.01)
    config = TrainConfig(batch_size=32, total_steps=60, lanczos_steps=10, refresh_interval=20)
    trace = train(model, data, config, "ssgdm", stream.spawn(2))
    assert len(trace.losses) == 60 and not trace.diverged
    assert [row[0] for row in trace.refreshes] == [0, 20]
    alpha, beta = trace.refreshes[-1][3:]
    assert trace.warnings == [
        f"step 23: loss {trace.losses[23]:.6g} is more than 10x the {trace.losses[20]:.6g} "
        f"at step 20",
        f"step 40: refresh skipped (need more than layers + 2 = 3 atoms, got 2); "
        f"keeping alpha={alpha:.6g}, beta={beta:.6g}"]
    assert trace.schedule_per_step[20:] == [(alpha, beta)] * 40


def test_loss_growth_within_a_refresh_interval_warns():
    # the minibatch run above: its step-20 refresh sets a step that is unstable
    # on the data, and the loss goes 0.24 -> 13.2 in three steps
    data = models.dataset_from_spec({"n_samples": 120, "d_in": 5, "n_c": 3,
                                     "blob_separation": 3.0, "seed": 1})
    stream = SeedStream(11)
    model = MLPModel([5, 8, 8, 3], stream=stream.spawn(1), weight_decay=0.01)
    config = TrainConfig(batch_size=32, total_steps=60, lanczos_steps=10, refresh_interval=20)
    trace = train(model, data, config, "ssgdm", stream.spawn(2))
    losses = trace.losses
    assert losses[22] < 10 * losses[20] < losses[23]
    assert trace.warnings[0] == (f"step 23: loss {losses[23]:.6g} is more than 10x the "
                                 f"{losses[20]:.6g} at step 20")
    assert len(trace.warnings) == 2  # one per interval; the second is the step-40 skip
    assert not trace.diverged


def test_converging_full_batch_run_has_no_warning():
    # shaped like the benchmark's train_mlp: full-batch SSGDM with GGN refreshes
    data = make_blobs(400, 20, 10, separation=3.0, stream=SeedStream(24))
    model = MLPModel([20, 64, 64, 10], stream=SeedStream(25), weight_decay=0.01)
    config = TrainConfig(batch_size=400, total_steps=200, lanczos_steps=30, refresh_interval=25)
    trace = train(model, data, config, "ssgdm", SeedStream(26))
    assert not trace.diverged and len(trace.refreshes) == 8
    assert trace.final_loss < 0.5 * trace.losses[0]
    assert trace.warnings == []


def test_train_on_overflowing_parameters_sets_diverged():
    # the first loss is not finite; no numpy RuntimeWarning escapes (pytest
    # turns warnings into errors) and no refresh runs on the overflowed net
    data = make_blobs(40, 5, 3, separation=3.0, stream=SeedStream(27))
    config = TrainConfig(batch_size=40, total_steps=10, lanczos_steps=5, refresh_interval=5)
    for model in (MLPModel([5, 6, 3], stream=SeedStream(28)),
                  LogisticRegressionModel(5, 3, weight_decay=0.01)):
        model.set_params(np.full(model.n_params, 1e200))
        for variant in ("ssgdm", "sgd_fixed"):
            trace = train(model, data, config, variant, SeedStream(29))
            assert trace.diverged and trace.losses == [] and trace.refreshes == []
            (warning,) = trace.warnings  # the loss is inf or nan, depending on the model
            assert warning.startswith("step 0: diverged (non-finite loss (")
            assert warning.endswith(" in forward pass); training stopped")


def test_failed_first_refresh_names_the_step():
    data = make_blobs(20, 4, 2, separation=2.0, stream=SeedStream(2))
    config = TrainConfig(batch_size=20, total_steps=5, lanczos_steps=3)
    with pytest.raises(ValueError, match=r"step 0: spectral refresh failed: need more than "
                                         r"layers \+ 2 = 3 atoms, got 3"):
        train(LogisticRegressionModel(4, 2), data, config, "ssgd", SeedStream(3))


@pytest.mark.parametrize("variant", ["ssgd", "ssgdm", "sgd_fixed", "sgd_theoretical"])
def test_train_reduces_loss(variant):
    data = make_blobs(90, 5, 3, separation=3.0, stream=SeedStream(4))
    model = LogisticRegressionModel(5, 3, weight_decay=0.01)
    config = TrainConfig(batch_size=90, total_steps=150, lanczos_steps=10,
                         refresh_interval=50, fixed_alpha=0.05, fixed_beta=0.5)
    trace = train(model, data, config, variant, SeedStream(5))
    assert not trace.diverged
    assert trace.final_loss < trace.losses[0]
    assert len(trace.losses) == 150


@pytest.mark.parametrize("variant", ["sgd_theoretical", "sgdm_theoretical"])
def test_train_refuses_theoretical_variant_for_mlp(variant):
    # (L, mu) from lipschitz_bounds_logreg certify softmax regression only
    data = make_blobs(20, 4, 2, separation=2.0, stream=SeedStream(12))
    config = TrainConfig(batch_size=20, total_steps=5)
    for sizes in ([4, 5, 2], [4, 2]):
        model = MLPModel(sizes, stream=SeedStream(13), weight_decay=0.01)
        with pytest.raises(ValueError, match="logistic regression model"):
            train(model, data, config, variant, SeedStream(14))


def test_train_flags_divergence_instead_of_raising():
    data = make_blobs(30, 4, 2, separation=2.0, stream=SeedStream(6))
    model = LogisticRegressionModel(4, 2, weight_decay=0.01)
    config = TrainConfig(batch_size=30, total_steps=500, fixed_alpha=1e8, fixed_beta=0.99)
    trace = train(model, data, config, "sgdm_fixed", SeedStream(7))
    assert trace.diverged
    assert len(trace.losses) < 500
    assert trace.warnings[-1] == (f"step {len(trace.losses) - 1}: diverged (loss "
                                  f"{trace.losses[-1]:.6g} > 1e+10); training stopped")


def test_train_rejects_unknown_variant():
    data = make_blobs(10, 3, 2, separation=2.0, stream=SeedStream(8))
    model = LogisticRegressionModel(3, 2)
    config = TrainConfig(batch_size=10, total_steps=5)
    with pytest.raises(ValueError):
        train(model, data, config, "adam", SeedStream(9))


def test_train_is_deterministic_given_seed():
    data = make_blobs(60, 5, 3, separation=3.0, stream=SeedStream(10))
    results = []
    for _ in range(2):
        model = LogisticRegressionModel(5, 3, weight_decay=0.01)
        config = TrainConfig(batch_size=16, total_steps=80, lanczos_steps=8,
                             refresh_interval=40)
        trace = train(model, data, config, "ssgd", SeedStream(11))
        results.append(np.array(trace.losses))
    np.testing.assert_array_equal(results[0], results[1])


def test_loss_landscape_center_is_current_loss_and_curvature_signs():
    data = make_blobs(60, 5, 3, separation=3.0, stream=SeedStream(15))
    model = LogisticRegressionModel(5, 3, weight_decay=0.01)
    config = TrainConfig(batch_size=60, total_steps=120, lanczos_steps=10, refresh_interval=60)
    train(model, data, config, "ssgd", SeedStream(16))
    from curvlens.models import curvature_operator

    op = curvature_operator(model, data, kind="ggn")
    seed = probe_vector(SeedStream(17), op.dim, "gaussian")
    tri, basis = lanczos_run(op, 10, seed)
    ritz = ritz_decompose(tri, basis)
    landscape = loss_landscape(model, data, ritz, dist=0.5, n_points=11, n_directions=2)
    center = landscape.train_losses[:, 5]
    np.testing.assert_allclose(center, model.loss(data), rtol=1e-12)
    # top-curvature direction bends upward away from the center
    top_row = np.argmax(landscape.eigenvalues)
    assert landscape.train_losses[top_row, 0] > center[top_row]
    assert landscape.train_losses[top_row, -1] > center[top_row]


def test_loss_landscape_keeps_one_workspace_shape_per_dataset(monkeypatch):
    shapes = []
    build = models._Linearization.build

    def recording_build(lin, layers, batch):
        before = lin.shape
        build(lin, layers, batch)
        if lin.shape != before:
            shapes.append(lin.shape)

    data = make_blobs(90, 5, 3, separation=3.0, stream=SeedStream(20))
    model = MLPModel([5, 7, 3], stream=SeedStream(22), weight_decay=0.01)
    op = models.curvature_operator(model, data, kind="ggn")
    tri, basis = lanczos_run(op, 10, probe_vector(SeedStream(23), op.dim, "gaussian"))
    ritz = ritz_decompose(tri, basis)
    monkeypatch.setattr(models._Linearization, "build", recording_build)
    landscape = loss_landscape(model, data, ritz, dist=0.5, n_points=7, n_directions=2)
    # the model's workspace went to the operator, so the sweep allocates once
    assert shapes == [(90, (7, 3))]
    # the loss at every grid point, evaluated one point at a time
    base = model.get_params()
    expected = [[model.loss(data, params=base if t == 0.0 else base + t * ritz.vectors[:, i])
                 for t in landscape.distances] for i in landscape.direction_indices]
    np.testing.assert_array_equal(landscape.train_losses, expected)


def test_loss_landscape_requires_odd_grid():
    data = make_blobs(20, 4, 2, separation=2.0, stream=SeedStream(18))
    model = LogisticRegressionModel(4, 2)
    from curvlens.models import curvature_operator

    op = curvature_operator(model, data, kind="ggn")
    seed = probe_vector(SeedStream(19), op.dim, "gaussian")
    tri, basis = lanczos_run(op, 5, seed)
    ritz = ritz_decompose(tri, basis)
    for kwargs in ({"n_points": 10}, {"n_points": 1}, {"n_points": 5, "n_directions": 0}):
        with pytest.raises(ValueError):
            loss_landscape(model, data, ritz, dist=0.1, **kwargs)


def test_loss_landscape_refuses_bad_dist_and_vectors_of_another_model():
    data = make_blobs(20, 4, 2, separation=2.0, stream=SeedStream(18))
    model = LogisticRegressionModel(4, 2)
    op = models.curvature_operator(model, data, kind="ggn")
    ritz = ritz_decompose(*lanczos_run(op, 5, probe_vector(SeedStream(19), op.dim, "gaussian")))
    for dist in (float("nan"), float("inf"), 0.0, -0.25):
        with pytest.raises(ValueError, match=f"dist must be finite and positive, got {dist}"):
            loss_landscape(model, data, ritz, dist=dist, n_points=5)
    other = MLPModel([4, 3, 2], stream=SeedStream(20))
    with pytest.raises(ValueError, match="Ritz vectors of length 8 do not fit a model with 23 "
                                         "parameters"):
        loss_landscape(other, data, ritz, dist=0.1, n_points=5)
