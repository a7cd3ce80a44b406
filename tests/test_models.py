import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvlens import models, operators
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
    spec = {"n_samples": 30, "d_in": 4, "n_c": 2, "blob_separation": 2.0, "seed": 5}
    a = dataset_from_spec(spec)
    b = dataset_from_spec(spec)
    np.testing.assert_array_equal(a.inputs, b.inputs)
    np.testing.assert_array_equal(a.labels, b.labels)


def test_spec_integers_too_large_for_a_double_are_refused():
    big = 10**400
    with pytest.raises(ValueError, match=r"^dataset spec: blob_separation is an integer too large"):
        dataset_from_spec({"n_samples": 30, "d_in": 4, "n_c": 2, "blob_separation": big})
    checkpoint = checkpoint_dict(LogisticRegressionModel(2, 2))
    with pytest.raises(ValueError, match=r"^checkpoint: weight_decay is an integer too large"):
        model_from_checkpoint({**checkpoint, "weight_decay": big})
    with pytest.raises(ValueError, match=r"^checkpoint: params entry 2 is an integer too large"):
        model_from_checkpoint({**checkpoint, "params": [0, 1.5, big, 0]})


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_checkpoint_refuses_non_finite_params_naming_the_first(bad):
    checkpoint = checkpoint_dict(LogisticRegressionModel(2, 2))
    with pytest.raises(ValueError, match=f"^checkpoint: params entry 2 must be finite, got {bad}$"):
        model_from_checkpoint({**checkpoint, "params": [0.0, 1.5, bad, float("nan")]})


@pytest.mark.parametrize("decay", [float("nan"), float("inf"), -float("inf")])
def test_models_refuse_a_non_finite_weight_decay(decay):
    checkpoint = checkpoint_dict(MLPModel([2, 3, 2]))
    for make in (lambda: MLPModel([2, 3, 2], weight_decay=decay),
                 lambda: LogisticRegressionModel(2, 2, weight_decay=decay),
                 lambda: model_from_checkpoint({**checkpoint, "weight_decay": decay})):
        with pytest.raises(ValueError, match="weight decay must be finite"):
            make()


@pytest.mark.parametrize("d_in, n_classes", [(0, 3), (3, 0), (-2, 3)])
def test_logistic_model_refuses_layer_sizes_below_one(d_in, n_classes):
    with pytest.raises(ValueError, match=re.escape(f"every layer size must be >= 1, got "
                                                   f"[{d_in}, {n_classes}]")):
        LogisticRegressionModel(d_in, n_classes)


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
    model = LogisticRegressionModel(d_in, n_classes, weight_decay=gamma)
    model.set_params(weights.ravel())
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


@pytest.mark.parametrize("kernels", ["openblas", "numpy"])
def test_abs_hessian_operator_matches_the_out_of_place_formula(kernels, monkeypatch):
    if kernels == "numpy":  # numpy.linalg's C-ordered eigenvectors, not a transposed buffer
        monkeypatch.setattr(operators, "_dsyevd", lambda: None)
    data = _dataset(23, n=60, d=10)
    model = _randomize(MLPModel([10, 40, 3], stream=SeedStream(24)), seed=25, scale=0.8)
    assert model.n_params > operators._PANEL  # two row panels, the second ragged
    vals, vecs = dense_eigendecomposition(dense_curvature(model, data, kind="hessian"))
    reference = (vecs * np.abs(vals)) @ vecs.T
    reference = (reference + reference.T) / 2.0
    rebuilt = dense_curvature(model, data, kind="abs_hessian").entries
    assert np.abs(rebuilt - reference).max() <= 1e-12 * np.abs(vals).max()


def test_abs_hessian_rebuild_adds_two_row_panels(traced_peak, monkeypatch):
    held = []

    def eigendecomposition(matrix, vectors=True, *, overwrite=False):
        result = dense_eigendecomposition(matrix, vectors, overwrite=overwrite)
        tracemalloc.reset_peak()  # from here on the peak is the rebuild's
        held.append(tracemalloc.get_traced_memory()[0])
        return result

    monkeypatch.setattr(models, "dense_eigendecomposition", eigendecomposition)
    model = MLPModel([10, 56, 3], stream=SeedStream(26))
    _, peak = traced_peak(lambda: curvature_operator(model, _dataset(27, d=10), "abs_hessian"))
    # the out-of-place rebuild added two P x P arrays to the eigenvectors
    assert peak - held[0] < 1.1 * 2 * 8 * operators._PANEL * model.n_params


def test_abs_hessian_refuses_a_model_over_its_cap_before_any_product(monkeypatch):
    calls = []
    product = MLPModel.hessian_vector_product

    def counted(self, batch, v):
        calls.append(v)
        return product(self, batch, v)

    monkeypatch.setattr(MLPModel, "hessian_vector_product", counted)
    model, data = MLPModel([40, 50, 3], stream=SeedStream(28)), _dataset(29, d=40)
    assert model.n_params == 2203 > models.ABS_HESSIAN_PARAM_CAP
    with pytest.raises(ValueError, match=r"^abs_hessian requires n_params <= 2000, got 2203$"):
        curvature_operator(model, data, "abs_hessian")
    assert calls == []
    curvature_operator(model, data, "hessian").matvec(np.ones(model.n_params))
    assert len(calls) == 1  # the wrapper does see a product


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
            rows = np.stack([product(data, e) for e in eye])
            np.testing.assert_array_equal(dense_curvature(model, data, kind=kind).entries,
                                          np.triu(rows) + np.triu(rows, 1).T)


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


def _forward_calls(monkeypatch):
    """A list that gains one entry per forward pass from now on."""
    calls, forward = [], models._forward

    def counting_forward(x, layers, lin):
        calls.append(len(layers))
        return forward(x, layers, lin)

    monkeypatch.setattr(models, "_forward", counting_forward)
    return calls


def test_curvature_operator_runs_one_forward_pass(monkeypatch):
    calls = _forward_calls(monkeypatch)
    data = _dataset(17)
    rng = np.random.default_rng(32)
    for model in (_randomize(MLPModel([5, 6, 6, 3], weight_decay=0.01), seed=31),
                  _randomize(LogisticRegressionModel(5, 3, weight_decay=0.01), seed=31)):
        calls.clear()
        for kind, before in (("ggn", 0), ("hessian", 1)):
            op = curvature_operator(model, data, kind=kind)
            assert len(calls) == before  # building an operator runs no forward pass
            for _ in range(4):
                op.matvec(rng.standard_normal(model.n_params))
            # the second operator shares the first one's workspace, built at its point
            assert len(calls) == 1
        # direct calls at the same parameters and batch share that forward pass;
        # set_params installs a new parameter array, so the next call runs its own
        for _ in range(2):
            model.ggn_vector_product(data, rng.standard_normal(model.n_params))
        assert len(calls) == 1
        model.set_params(model.get_params())
        model.ggn_vector_product(data, rng.standard_normal(model.n_params))
        assert len(calls) == 2


def test_a_model_call_after_an_operators_products_runs_no_forward_pass(monkeypatch):
    calls = _forward_calls(monkeypatch)
    data = _dataset(23)
    rng = np.random.default_rng(39)
    for model in (_randomize(MLPModel([5, 6, 6, 3], weight_decay=0.01), seed=40),
                  _randomize(LogisticRegressionModel(5, 3, weight_decay=0.01), seed=40)):
        calls.clear()
        op = curvature_operator(model, data, kind="ggn")
        op.matvec(rng.standard_normal(model.n_params))
        model.loss_and_gradient(data)
        model.hessian_vector_product(data, rng.standard_normal(model.n_params))
        assert len(calls) == 1


def test_loss_at_passed_parameters_sees_an_in_place_edit():
    data = _dataset(24)
    model = _randomize(MLPModel([5, 6, 3], weight_decay=0.01), seed=41)
    point = model.get_params()
    before = model.loss(data, params=point)
    point += 0.5
    after = model.loss(data, params=point)
    fresh = MLPModel([5, 6, 3], weight_decay=0.01)
    fresh.set_params(point)
    assert after != before and after == fresh.loss(data)


def test_refresh_operator_reuses_the_gradient_forward_pass(monkeypatch):
    calls = _forward_calls(monkeypatch)
    data = _dataset(18)
    rng = np.random.default_rng(33)
    for make in (lambda: MLPModel([5, 6, 6, 3], weight_decay=0.01),
                 lambda: LogisticRegressionModel(5, 3, weight_decay=0.01)):
        model = _randomize(make(), seed=34)
        for kind in ("ggn", "hessian"):
            fresh = make()
            fresh.set_params(model.get_params())
            reference = curvature_operator(fresh, data, kind=kind)
            directions = rng.standard_normal((3, model.n_params))
            expected = [reference.matvec(v) for v in directions]
            model.loss_and_gradient(data)
            calls.clear()
            op = curvature_operator(model, data, kind=kind)
            for v, product in zip(directions, expected):
                assert np.array_equal(op.matvec(v), product)
            assert calls == []
        # a loss at passed parameters rebuilds every time, even at the same point
        point = model.get_params()
        calls.clear()
        for _ in range(2):
            model.loss(data, params=point)
        assert len(calls) == 2


def test_a_product_that_raises_leaves_no_workspace_to_reuse():
    # an overflow under np.errstate(over="raise") stops the forward pass halfway
    # through the workspace; the next call at the last good batch rebuilds it
    data = _dataset(22)
    huge = Dataset(inputs=np.abs(data.inputs) * 1e307 + 1e307, labels=data.labels, n_classes=3)
    model = MLPModel([5, 6, 3], weight_decay=0.01)
    model.set_params(np.abs(model.get_params()) * 10.0)
    v = np.random.default_rng(38).standard_normal(model.n_params)
    before = model.ggn_vector_product(data, v)
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        model.ggn_vector_product(huge, v)
    assert np.array_equal(model.ggn_vector_product(data, v), before)


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
        model.loss_and_gradient(data)  # the workspace the operator shares is warm
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


def test_warm_ggn_matvec_and_loss_at_a_point_allocate_less_than_one_activation(traced_peak):
    # an operator matvec and a loss at given parameters run in the same reused
    # buffers, and no transposed operand is copied: below one N x 64 activation
    data = make_blobs(2000, 20, 10, separation=3.0, stream=SeedStream(39))
    model = MLPModel([20, 64, 64, 10], stream=SeedStream(40), weight_decay=0.01)
    v = np.random.default_rng(41).standard_normal(model.n_params)
    point = model.get_params() + 0.01 * v
    op = curvature_operator(model, data, kind="ggn")
    op.matvec(v)
    model.loss(data, params=point)
    for call in (lambda: op.matvec(v), lambda: model.loss(data, params=point)):
        _, peak = traced_peak(call)
        assert peak < 2000 * 64 * 8


def _reference_products(sizes, bias, params, x, labels, gamma, v):
    """Loss, gradient, GGN product and Hessian product, written out sample-major.

    Each layer is (W, b), with b zero for a bias-free model, unpacked from the
    flat vector (W row-major, then b); h @ W + b, per-row softmax, backprop
    and its R-operator, with fresh arrays at every step.
    """
    def unpack(flat):
        layers, pos = [], 0
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            w = flat[pos: pos + fan_in * fan_out].reshape(fan_in, fan_out)
            pos += fan_in * fan_out
            b = flat[pos: pos + fan_out] if bias else np.zeros(fan_out)
            pos += fan_out if bias else 0
            layers.append((w, b))
        return layers

    def pack(blocks, decayed):
        return np.concatenate([np.concatenate([(dw + 2.0 * gamma * w).ravel(), db] if bias
                                              else [(dw + 2.0 * gamma * w).ravel()])
                               for (dw, db), w in zip(blocks, decayed)])

    layers, dirs = unpack(params), unpack(v)
    n, last = len(labels), len(layers) - 1
    inputs, masks = [x], []
    for i, (w, b) in enumerate(layers):
        z = inputs[-1] @ w + b
        if i < last:
            masks.append(z > 0)
            inputs.append(np.where(z > 0, z, 0.0))
    shifted = z - z.max(axis=1, keepdims=True)
    total = np.exp(shifted).sum(axis=1, keepdims=True)
    probs = np.exp(shifted) / total
    loss = (np.mean(np.log(total[:, 0]) - shifted[np.arange(n), labels])
            + gamma * sum(np.sum(w ** 2) for w, _ in layers))

    def backprop(cotangent, jvps=None, deltas=None):
        blocks = []
        for layer in range(last, -1, -1):
            dw = inputs[layer].T @ cotangent
            if deltas is not None and layer > 0:
                dw = dw + jvps[layer].T @ deltas[layer]
            blocks.append((dw, cotangent.sum(axis=0)))
            if layer > 0:
                below = cotangent @ layers[layer][0].T
                if deltas is not None:
                    below = below + deltas[layer] @ dirs[layer][0].T
                cotangent = below * masks[layer - 1]
        return blocks[::-1]

    signal = (probs - np.eye(sizes[-1])[labels]) / n
    deltas = [signal]
    for layer in range(last, 0, -1):
        deltas.insert(0, deltas[0] @ layers[layer][0].T * masks[layer - 1])
    weights = [w for w, _ in layers]
    gradient = pack(backprop(signal), weights)

    jvps = [np.zeros_like(x)]  # the JVP of each layer's input
    for i, ((w, _), (wd, bd)) in enumerate(zip(layers, dirs)):
        r = inputs[i] @ wd + bd + jvps[i] @ w
        if i < last:
            jvps.append(r * masks[i])
    cotangent = (probs * r - probs * np.sum(probs * r, axis=1, keepdims=True)) / n
    directions = [wd for wd, _ in dirs]
    ggn = pack(backprop(cotangent), directions)
    hessian = pack(backprop(cotangent, jvps, deltas), directions)
    return loss, gradient, ggn, hessian


@settings(max_examples=60)
@given(hidden=st.lists(st.integers(1, 6), min_size=0, max_size=3), logistic=st.booleans(),
       d_in=st.integers(1, 6), n_classes=st.integers(2, 6), n=st.integers(1, 12),
       gamma=st.floats(0.0, 0.1), scale=st.floats(0.0, 2.0), seed=st.integers(0, 2 ** 32 - 1))
def test_models_match_sample_major_reference(hidden, logistic, d_in, n_classes, n, gamma, scale,
                                             seed):
    # logistic regression and MLPs with 0-3 hidden layers against the reference
    rng = np.random.default_rng(seed)
    data = Dataset(inputs=rng.standard_normal((n, d_in)),
                   labels=rng.integers(0, n_classes, size=n), n_classes=n_classes)
    if logistic:
        sizes, model = [d_in, n_classes], LogisticRegressionModel(d_in, n_classes, gamma)
    else:
        sizes = [d_in, *hidden, n_classes]
        model = MLPModel(sizes, stream=SeedStream(seed % 1000), weight_decay=gamma)
    params = rng.standard_normal(model.n_params) * scale
    model.set_params(params)
    v = rng.standard_normal(model.n_params)
    loss, gradient, ggn, hessian = _reference_products(sizes, not logistic, params,
                                                       data.inputs, data.labels, gamma, v)

    def close(actual, expected):
        return np.linalg.norm(actual - expected) <= 1e-12 * np.linalg.norm(expected)

    model_loss, model_gradient = model.loss_and_gradient(data)
    assert abs(model_loss - loss) <= 1e-12 * loss
    assert abs(model.loss(data) - loss) <= 1e-12 * loss
    assert close(model_gradient, gradient)
    assert close(model.ggn_vector_product(data, v), ggn)
    assert close(model.hessian_vector_product(data, v), hessian)
    for kind, expected in (("ggn", ggn), ("hessian", hessian)):
        assert close(curvature_operator(model, data, kind=kind).matvec(v), expected)


def test_non_finite_loss_raises_one_line_floating_point_error():
    # parameters that overflow the forward pass: loss and gradient raise, and
    # no numpy RuntimeWarning escapes (pytest turns warnings into errors)
    data = _dataset(22)
    for model in (MLPModel([5, 6, 3], stream=SeedStream(23)),
                  MLPModel([5, 6, 3], stream=SeedStream(23), weight_decay=0.01),
                  LogisticRegressionModel(5, 3, weight_decay=0.01)):
        huge = np.full(model.n_params, 1e200)
        with pytest.raises(FloatingPointError, match=r"^non-finite loss \((nan|inf)\) in forward pass$"):
            model.loss(data, params=huge)
        model.set_params(huge)
        for call in (lambda: model.loss(data), lambda: model.loss_and_gradient(data)):
            with pytest.raises(FloatingPointError, match=r"^non-finite loss"):
                call()
    # a finite loss whose gradient overflows: inputs of 1e300 reach the first
    # layer's weight gradient through a 1e10 second-layer weight
    huge_inputs = Dataset(inputs=np.full((4, 2), 1e300), labels=np.array([0, 1, 0, 1]), n_classes=2)
    model = MLPModel([2, 3, 2])
    model.set_params(np.concatenate([np.full(6, 1e-300), np.zeros(3), np.tile([1e10, 0.0], 3),
                                     np.zeros(2)]))
    assert np.isfinite(model.loss(huge_inputs))
    with pytest.raises(FloatingPointError, match=r"^non-finite gradient in backward pass$"):
        model.loss_and_gradient(huge_inputs)


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


@pytest.mark.parametrize("make, message", [
    (lambda: MLPModel([5]), "need at least input and output layer sizes"),
    (lambda: MLPModel([5, 3]).set_params(np.zeros(17)),
     r"expected parameter vector of length 18, got \(17,\)"),
    (lambda: MLPModel([5, 3]).loss(Dataset(np.empty((0, 5)), np.empty(0, int), 3)),
     "batch must be nonempty"),
    (lambda: lipschitz_bounds_logreg(Dataset(np.empty((0, 5)), np.empty(0, int), 3), 0.01),
     "dataset must be nonempty"),
], ids=["one-layer-size", "params-of-the-wrong-length", "empty-batch", "empty-lipschitz-data"])
def test_models_refuse_malformed_sizes_and_empty_data(make, message):
    with pytest.raises(ValueError, match=message):
        make()


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
    with pytest.raises(TypeError, match="cannot checkpoint model of type Dataset"):
        checkpoint_dict(_dataset())


def test_lipschitz_bound_dominates_measured_curvature():
    data = _dataset(10, n=60)
    lipschitz, mu = lipschitz_bounds_logreg(data, weight_decay=0.01)
    assert mu == pytest.approx(0.02)
    rng = np.random.default_rng(20)
    for trial in range(5):
        model = LogisticRegressionModel(5, 3, weight_decay=0.01)
        model.set_params(rng.standard_normal(15))
        dense = dense_curvature(model, data, kind="hessian")
        vals, _ = dense_eigendecomposition(dense)
        assert vals[-1] <= lipschitz + 1e-10
        assert vals[0] >= mu - 1e-10

