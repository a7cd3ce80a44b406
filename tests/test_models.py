import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvlens.models import (
    Dataset,
    LogisticRegressionModel,
    MLPModel,
    checkpoint_dict,
    curvature_operator,
    dataset_from_spec,
    dense_curvature,
    lipschitz_bounds_logreg,
    make_blobs,
    model_from_checkpoint,
)
from curvlens.operators import (DenseSymmetric, SeedStream, SymmetricOperator,
                                dense_eigendecomposition, probe_vector)


def _dataset(seed=0, n=40, d=5, classes=3):
    return make_blobs(n, d, classes, separation=3.0, stream=SeedStream(seed))


def _randomize(model, seed=0, scale=0.3):
    rng = np.random.default_rng(seed)
    model.set_params(rng.standard_normal(model.n_params) * scale)
    return model


def _fd_gradient(model, batch, eps=1e-6):
    base = model.get_params()
    grad = np.empty_like(base)
    for i in range(len(base)):
        up = base.copy()
        up[i] += eps
        down = base.copy()
        down[i] -= eps
        grad[i] = (model.loss(batch, params=up) - model.loss(batch, params=down)) / (2 * eps)
    return grad


def _fd_hvp(model, batch, v, eps=1e-5):
    base = model.get_params()
    model.set_params(base + eps * v)
    _, g_up = model.loss_and_gradient(batch)
    model.set_params(base - eps * v)
    _, g_down = model.loss_and_gradient(batch)
    model.set_params(base)
    return (g_up - g_down) / (2 * eps)


def test_make_blobs_covers_all_classes():
    data = _dataset()
    assert set(np.unique(data.labels)) == {0, 1, 2}
    assert data.inputs.shape == (40, 5)


def test_dataset_from_spec_deterministic():
    spec = '{"n_samples": 30, "d_in": 4, "n_c": 2, "blob_separation": 2.0, "seed": 5}'
    a = dataset_from_spec(spec)
    b = dataset_from_spec(spec)
    np.testing.assert_array_equal(a.inputs, b.inputs)
    np.testing.assert_array_equal(a.labels, b.labels)


def test_dataset_validates_labels():
    with pytest.raises(ValueError):
        Dataset(inputs=np.zeros((3, 2)), labels=np.array([0, 1, 3]), n_classes=3)


def test_logistic_gradient_matches_finite_differences():
    data = _dataset(1)
    model = _randomize(LogisticRegressionModel(5, 3, weight_decay=0.01), seed=2)
    _, grad = model.loss_and_gradient(data)
    np.testing.assert_allclose(grad, _fd_gradient(model, data), atol=1e-8)


def test_logistic_hvp_matches_finite_differences():
    data = _dataset(2)
    model = _randomize(LogisticRegressionModel(5, 3, weight_decay=0.02), seed=3)
    rng = np.random.default_rng(4)
    for _ in range(5):
        v = rng.standard_normal(model.n_params)
        hv = model.hessian_vector_product(data, v)
        fd = _fd_hvp(model, data, v)
        assert np.linalg.norm(hv - fd) / np.linalg.norm(fd) < 1e-6


def test_mlp_gradient_matches_finite_differences():
    data = _dataset(3)
    model = MLPModel([5, 8, 3], stream=SeedStream(5), weight_decay=0.01)
    _, grad = model.loss_and_gradient(data)
    np.testing.assert_allclose(grad, _fd_gradient(model, data), atol=1e-7)


def test_mlp_hvp_matches_finite_differences():
    data = _dataset(4)
    model = MLPModel([5, 7, 4, 3], stream=SeedStream(6), weight_decay=0.005)
    rng = np.random.default_rng(7)
    for _ in range(5):
        v = rng.standard_normal(model.n_params)
        hv = model.hessian_vector_product(data, v)
        fd = _fd_hvp(model, data, v)
        assert np.linalg.norm(hv - fd) / np.linalg.norm(fd) < 1e-5


def test_mlp_hvp_is_symmetric_bilinear():
    data = _dataset(5)
    model = MLPModel([5, 6, 3], stream=SeedStream(8))
    rng = np.random.default_rng(9)
    u = rng.standard_normal(model.n_params)
    v = rng.standard_normal(model.n_params)
    assert u @ model.hessian_vector_product(data, v) == pytest.approx(
        v @ model.hessian_vector_product(data, u), rel=1e-10)


def test_logistic_ggn_equals_hessian():
    # an MLP without hidden layers is softmax-linear too: its Hessian has no residual
    data = _dataset(6)
    for model in (_randomize(LogisticRegressionModel(5, 3, weight_decay=0.01), seed=10),
                  _randomize(MLPModel([5, 3], weight_decay=0.01), seed=10)):
        v = np.random.default_rng(11).standard_normal(model.n_params)
        np.testing.assert_allclose(model.ggn_vector_product(data, v),
                                   model.hessian_vector_product(data, v), rtol=1e-12)


@settings(max_examples=50)
@given(d_in=st.integers(1, 8), n_classes=st.integers(2, 5), n=st.integers(1, 40),
       gamma=st.floats(0.0, 0.1), scale=st.floats(0.0, 2.0), seed=st.integers(0, 2 ** 32 - 1))
def test_logistic_model_matches_softmax_regression_formulas(d_in, n_classes, n, gamma, scale, seed):
    # the closed-form softmax-regression loss, gradient and Hvp, written out
    # without the shared network core
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d_in))
    labels = rng.integers(0, n_classes, size=n)
    data = Dataset(inputs=x, labels=labels, n_classes=n_classes)
    weights = rng.standard_normal((d_in, n_classes)) * scale
    kept = weights.copy()
    model = LogisticRegressionModel(d_in, n_classes, weight_decay=gamma, weights=weights)
    assert model.n_params == d_in * n_classes
    v = rng.standard_normal(model.n_params)
    direction = v.reshape(d_in, n_classes)

    logits = x @ weights
    top = logits.max(axis=1, keepdims=True)
    exp = np.exp(logits - top)
    probs = exp / exp.sum(axis=1, keepdims=True)
    picked = logits[np.arange(n), labels]
    loss = np.mean(np.log(exp.sum(axis=1)) + top[:, 0] - picked) + gamma * np.sum(weights ** 2)
    one_hot = np.eye(n_classes)[labels]
    grad = x.T @ (probs - one_hot) / n + 2.0 * gamma * weights
    d_logits = x @ direction
    d_probs = probs * d_logits - probs * np.sum(probs * d_logits, axis=1, keepdims=True)
    hvp = x.T @ d_probs / n + 2.0 * gamma * direction

    def close(actual, expected):
        return np.linalg.norm(actual - expected) <= 1e-12 * np.linalg.norm(expected)

    model_loss, model_grad = model.loss_and_gradient(data)
    assert model_loss == pytest.approx(loss, rel=1e-12, abs=0.0)
    assert close(model_grad, grad.ravel())
    assert close(model.hessian_vector_product(data, v), hvp.ravel())
    assert close(model.ggn_vector_product(data, v), hvp.ravel())
    for kind in ("hessian", "ggn"):
        assert close(curvature_operator(model, data, kind=kind).matvec(v), hvp.ravel())
    model.set_params(rng.standard_normal(model.n_params))
    assert np.array_equal(weights, kept)


def _reference_logits(sizes, params, x):
    h, pos = x, 0
    for i, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
        w = params[pos: pos + fan_in * fan_out].reshape(fan_in, fan_out)
        b = params[pos + fan_in * fan_out: pos + (fan_in + 1) * fan_out]
        pos += (fan_in + 1) * fan_out
        h = h @ w + b
        if i < len(sizes) - 2:
            h = np.maximum(h, 0.0)
    return h


def test_mlp_ggn_matches_dense_jacobian_product():
    # G = J^T H_L J / N + 2 gamma I on the weight entries, with J the logit
    # Jacobian from central differences and H_L = diag(p) - p p^T per sample
    data = _dataset(13, n=12)
    gamma = 0.01
    for sizes in ([5, 6, 3], [5, 3]):
        model = _randomize(MLPModel(sizes, weight_decay=gamma), seed=23, scale=0.5)
        base = model.get_params()
        eps = 1e-6
        jac = np.empty((data.n_samples * 3, model.n_params))
        for i in range(model.n_params):
            step = np.zeros_like(base)
            step[i] = eps
            up = _reference_logits(sizes, base + step, data.inputs)
            down = _reference_logits(sizes, base - step, data.inputs)
            jac[:, i] = ((up - down) / (2 * eps)).ravel()
        logits = _reference_logits(sizes, base, data.inputs)
        probs = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        h_loss = np.zeros((len(jac), len(jac)))
        for n, p in enumerate(probs):
            h_loss[3 * n: 3 * n + 3, 3 * n: 3 * n + 3] = np.diag(p) - np.outer(p, p)
        is_weight = np.concatenate([np.concatenate([np.ones(a * b), np.zeros(b)])
                                    for a, b in zip(sizes[:-1], sizes[1:])])
        dense = jac.T @ h_loss @ jac / data.n_samples + np.diag(2.0 * gamma * is_weight)
        rng = np.random.default_rng(24)
        for _ in range(3):
            v = rng.standard_normal(model.n_params)
            np.testing.assert_allclose(model.ggn_vector_product(data, v), dense @ v,
                                       rtol=1e-7, atol=1e-9)


def test_mlp_ggn_is_positive_semidefinite():
    data = _dataset(7)
    model = MLPModel([5, 6, 3], stream=SeedStream(12))
    dense = dense_curvature(model, data, kind="ggn")
    vals, _ = dense_eigendecomposition(dense)
    assert vals[0] > -1e-10


def test_mlp_hessian_can_be_indefinite():
    data = _dataset(8)
    model = MLPModel([5, 6, 3], stream=SeedStream(13))
    _randomize(model, seed=14, scale=0.8)
    dense = dense_curvature(model, data, kind="hessian")
    vals, _ = dense_eigendecomposition(dense)
    assert vals[0] < -1e-8 < 1e-8 < vals[-1]


def test_abs_hessian_operator_flips_negative_eigenvalues():
    data = _dataset(9)
    model = MLPModel([5, 6, 3], stream=SeedStream(15))
    _randomize(model, seed=16, scale=0.8)
    dense = dense_curvature(model, data, kind="hessian")
    vals, _ = dense_eigendecomposition(dense)
    op = curvature_operator(model, data, kind="abs_hessian")
    probe = np.random.default_rng(17).standard_normal(model.n_params)
    vecs = dense_eigendecomposition(dense)[1]
    dense_abs = (vecs * np.abs(vals)) @ vecs.T
    np.testing.assert_allclose(op.matvec(probe), dense_abs @ probe, atol=1e-8)


def test_abs_hessian_operator_is_exactly_symmetric():
    data = _dataset(21, n=60, d=4)
    model = MLPModel([4, 8, 3], stream=SeedStream(22))
    op = curvature_operator(model, data, kind="abs_hessian")
    columns = np.column_stack([op.matvec(unit) for unit in np.eye(op.dim)])
    assert np.array_equal(columns, columns.T)


def test_dense_curvature_takes_the_operator_kinds():
    data = _dataset(9)
    model = _randomize(MLPModel([5, 6, 3], stream=SeedStream(15)), seed=16, scale=0.8)
    hessian_vals, _ = dense_eigendecomposition(dense_curvature(model, data, kind="hessian"))
    abs_vals, _ = dense_eigendecomposition(dense_curvature(model, data, kind="abs_hessian"))
    assert hessian_vals[0] < -1e-8
    np.testing.assert_allclose(abs_vals, np.sort(np.abs(hessian_vals)), atol=1e-10)
    with pytest.raises(ValueError):
        dense_curvature(model, data, kind="typo")


def test_dense_curvature_bit_identical_to_out_of_place_formula():
    data = _dataset(13)
    for model in (_randomize(MLPModel([5, 6, 3], weight_decay=0.01), seed=24),
                  _randomize(LogisticRegressionModel(5, 3, weight_decay=0.01), seed=24)):
        for kind, product in (("hessian", model.hessian_vector_product),
                              ("ggn", model.ggn_vector_product)):
            eye = np.eye(model.n_params)
            cols = np.stack([product(data, e) for e in eye], axis=1)
            np.testing.assert_array_equal(dense_curvature(model, data, kind=kind).entries,
                                          (cols + cols.T) / 2.0)


def test_curvature_operator_ignores_later_parameter_changes():
    data = _dataset(14)
    for model in (_randomize(MLPModel([5, 6, 3], weight_decay=0.01), seed=25),
                  _randomize(LogisticRegressionModel(5, 3, weight_decay=0.01), seed=25)):
        op = curvature_operator(model, data, kind="ggn")
        v = np.random.default_rng(26).standard_normal(model.n_params)
        before = op.matvec(v)
        model.set_params(model.get_params() + 1.0)
        np.testing.assert_array_equal(op.matvec(v), before)


def test_cached_curvature_operator_is_bit_identical_to_direct_products():
    data = _dataset(15)
    rng = np.random.default_rng(27)
    for sizes in ([5, 3], [5, 6, 3], [5, 6, 6, 3]):
        model = _randomize(MLPModel(sizes, weight_decay=0.01), seed=28, scale=0.5)
        for kind, product in (("ggn", model.ggn_vector_product),
                              ("hessian", model.hessian_vector_product)):
            op = curvature_operator(model, data, kind=kind)
            for _ in range(3):
                v = rng.standard_normal(model.n_params)
                assert np.array_equal(op.matvec(v), product(data, v))


def test_cached_curvature_operator_results_do_not_alias():
    data = _dataset(16)
    model = _randomize(MLPModel([5, 6, 6, 3], weight_decay=0.01), seed=29)
    rng = np.random.default_rng(30)
    for kind in ("ggn", "hessian"):
        op = curvature_operator(model, data, kind=kind)
        first = op.matvec(rng.standard_normal(model.n_params))
        kept = first.copy()
        second = op.matvec(rng.standard_normal(model.n_params))
        np.testing.assert_array_equal(first, kept)
        assert not np.shares_memory(first, second)


def test_curvature_operator_runs_one_forward_pass(monkeypatch):
    import curvlens.models as models

    calls = []
    forward = models._forward

    def counting_forward(x, layers, lin):
        calls.append(len(layers))
        return forward(x, layers, lin)

    monkeypatch.setattr(models, "_forward", counting_forward)
    data = _dataset(17)
    rng = np.random.default_rng(32)
    for model in (_randomize(MLPModel([5, 6, 6, 3], weight_decay=0.01), seed=31),
                  _randomize(LogisticRegressionModel(5, 3, weight_decay=0.01), seed=31)):
        for kind in ("ggn", "hessian"):
            calls.clear()
            op = curvature_operator(model, data, kind=kind)
            assert calls == []
            for _ in range(4):
                op.matvec(rng.standard_normal(model.n_params))
            assert len(calls) == 1
        # direct calls on the caller's model keep no state between calls
        calls.clear()
        for _ in range(2):
            model.ggn_vector_product(data, rng.standard_normal(model.n_params))
        assert len(calls) == 2


def test_workspace_reuse_matches_fresh_models():
    # one model's reused buffers against a fresh model per call, across
    # set_params calls and batch-size changes
    data = _dataset(19, n=40)
    rng = np.random.default_rng(35)
    sizes = [5, 6, 6, 3]
    model = MLPModel(sizes, weight_decay=0.01)

    def fresh():
        other = MLPModel(sizes, weight_decay=0.01)
        other.set_params(model.get_params())
        return other

    for n in (40, 8, 1, 40):
        batch = data.batch(np.arange(n))
        for _ in range(2):
            model.set_params(rng.standard_normal(model.n_params) * 0.5)
            point = rng.standard_normal(model.n_params) * 0.5
            loss, grad = model.loss_and_gradient(batch)
            fresh_loss, fresh_grad = fresh().loss_and_gradient(batch)
            assert loss == fresh_loss and np.array_equal(grad, fresh_grad)
            assert model.loss(batch, params=point) == fresh().loss(batch, params=point)
            assert model.loss(batch) == fresh().loss(batch)


def test_gradients_do_not_share_memory_between_calls():
    data = _dataset(20)
    model = _randomize(MLPModel([5, 6, 6, 3], weight_decay=0.01), seed=36)
    _, first = model.loss_and_gradient(data)
    kept = first.copy()
    model.set_params(model.get_params() + 0.1)
    _, second = model.loss_and_gradient(data)
    np.testing.assert_array_equal(first, kept)
    assert not np.shares_memory(first, second)


def test_operator_is_unchanged_by_later_calls_on_its_source_model():
    data = _dataset(21)
    rng = np.random.default_rng(37)
    model = _randomize(MLPModel([5, 6, 6, 3], weight_decay=0.01), seed=38)
    for kind in ("ggn", "hessian"):
        model.loss_and_gradient(data)  # the workspace the operator takes over is warm
        op = curvature_operator(model, data, kind=kind)
        v = rng.standard_normal(model.n_params)
        before = op.matvec(v)
        for n in (40, 7):
            model.set_params(model.get_params() + 0.3)
            model.loss_and_gradient(data.batch(np.arange(n)))
            model.loss(data, params=rng.standard_normal(model.n_params))
            assert np.array_equal(op.matvec(v), before)


def test_warm_loss_and_gradient_allocates_less_than_one_activation(traced_peak):
    # the forward and backward pass run in reused buffers: a warmed-up call
    # allocates less than one N x 64 float64 activation (1.02 MB)
    data = make_blobs(2000, 20, 10, separation=3.0, stream=SeedStream(39))
    model = MLPModel([20, 64, 64, 10], stream=SeedStream(40), weight_decay=0.01)
    model.loss_and_gradient(data)
    _, peak = traced_peak(lambda: model.loss_and_gradient(data))
    assert peak < 2000 * 64 * 8


def _symmetry_defect(op, stream):
    """Max |u^T(Hv) - v^T(Hu)| / (|u||v| |H|_est) over five random probe pairs.

    Cheap randomized certificate that ``op`` really is symmetric.
    """
    worst = 0.0
    for _ in range(5):
        u = probe_vector(stream, op.dim, "gaussian")
        v = probe_vector(stream, op.dim, "gaussian")
        hu = op.matvec(u)
        hv = op.matvec(v)
        norm_est = max(np.linalg.norm(hu) / np.linalg.norm(u),
                       np.linalg.norm(hv) / np.linalg.norm(v), 1e-300)
        defect = abs(u @ hv - v @ hu) / (np.linalg.norm(u) * np.linalg.norm(v) * norm_est)
        worst = max(worst, defect)
    return worst


def test_symmetry_defect_small_for_symmetric_large_for_asymmetric():
    a = np.random.default_rng(9).standard_normal((30, 30))
    dense = DenseSymmetric(entries=(a + a.T) / 2.0)
    assert _symmetry_defect(dense.as_operator(), SeedStream(0)) < 1e-12
    rng = np.random.default_rng(4)
    a = rng.standard_normal((30, 30))
    crooked = SymmetricOperator(dim=30, apply=lambda v: a @ v, label="crooked")
    assert _symmetry_defect(crooked, SeedStream(0)) > 1e-3


def test_cached_curvature_operator_is_symmetric_to_round_off():
    data = _dataset(18)
    model = _randomize(MLPModel([5, 6, 6, 3], weight_decay=0.01), seed=33, scale=0.5)
    for kind in ("ggn", "hessian"):
        op = curvature_operator(model, data, kind=kind)
        assert _symmetry_defect(op, SeedStream(34)) < 1e-13


@pytest.mark.parametrize("sizes", [[5, 0, 3], [5, 4, 0], [0, 3], [5, -2, 3]])
def test_mlp_rejects_empty_layers(sizes):
    with pytest.raises(ValueError, match="layer size must be >= 1"):
        MLPModel(sizes)


@pytest.mark.parametrize("sizes", [[5, 4, 2], [4, 4, 3], [6, 3]])
def test_model_refuses_data_it_does_not_fit(sizes):
    data = _dataset(n=12)  # 5 features, 3 classes
    model = MLPModel(sizes, stream=SeedStream(0))
    message = (r"data of shape \(12, 5\) with 3 classes do not fit a model with layer sizes "
               + re.escape(str(sizes)))
    for call in (lambda: model.loss(data), lambda: model.loss_and_gradient(data),
                 lambda: model.ggn_vector_product(data, np.ones(model.n_params)),
                 lambda: curvature_operator(model, data, "hessian").matvec(np.ones(model.n_params))):
        with pytest.raises(ValueError, match=message):
            call()


def test_checkpoint_round_trip_both_kinds():
    logistic = _randomize(LogisticRegressionModel(4, 3, weight_decay=0.1), seed=18)
    mlp = MLPModel([4, 5, 3], stream=SeedStream(19), weight_decay=0.01)
    for model in (logistic, mlp):
        restored = model_from_checkpoint(checkpoint_dict(model))
        np.testing.assert_allclose(restored.get_params(), model.get_params(), rtol=1e-15)
        assert restored.weight_decay == model.weight_decay


def test_lipschitz_bound_dominates_measured_curvature():
    data = _dataset(10, n=60)
    lipschitz, mu = lipschitz_bounds_logreg(data, weight_decay=0.01)
    assert mu == pytest.approx(0.02)
    rng = np.random.default_rng(20)
    for trial in range(5):
        model = LogisticRegressionModel(5, 3, weight_decay=0.01,
                                        weights=rng.standard_normal((5, 3)))
        dense = dense_curvature(model, data, kind="hessian")
        vals, _ = dense_eigendecomposition(dense)
        assert vals[-1] <= lipschitz + 1e-10
        assert vals[0] >= mu - 1e-10

