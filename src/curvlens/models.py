"""Desk-scale differentiable models exposing gradient, Hessian-vector and GGN-vector products."""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass
from typing import List

import numpy as np

from curvlens.operators import DenseSymmetric, SeedStream, SymmetricOperator, dense_eigendecomposition

ABS_HESSIAN_PARAM_CAP = 2000

CURVATURE_KINDS = ("hessian", "ggn", "abs_hessian")


@dataclass(frozen=True)
class Dataset:
    """Synthetic classification data: inputs, integer labels and class count."""

    inputs: np.ndarray
    labels: np.ndarray
    n_classes: int

    def __post_init__(self):
        inputs = np.asarray(self.inputs, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        if not np.all(np.isfinite(inputs)):
            raise ValueError("dataset inputs must be finite")
        if labels.size and (labels.min() < 0 or labels.max() >= self.n_classes):
            raise ValueError("labels must lie in [0, n_classes)")
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "labels", labels)

    @property
    def n_samples(self):
        return self.inputs.shape[0]

    def batch(self, indices):
        return Dataset(inputs=self.inputs[indices], labels=self.labels[indices],
                       n_classes=self.n_classes)


def make_blobs(n_samples, d_in, n_classes, separation, stream):
    """Gaussian-blob dataset: unit-variance clouds around separated class centers."""
    rng = stream.generator
    centers = rng.standard_normal((n_classes, d_in))
    centers *= separation / np.maximum(np.linalg.norm(centers, axis=1, keepdims=True), 1e-12)
    labels = np.arange(n_samples) % n_classes  # guarantees every class is present
    rng.shuffle(labels)
    inputs = centers[labels] + rng.standard_normal((n_samples, d_in))
    return Dataset(inputs=inputs, labels=labels, n_classes=n_classes)


def dataset_from_spec(text_or_dict):
    """Dataset from the JSON spec {n_samples, d_in, n_c, blob_separation, seed}."""
    raw = json.loads(text_or_dict) if isinstance(text_or_dict, str) else dict(text_or_dict)
    return make_blobs(int(raw["n_samples"]), int(raw["d_in"]), int(raw["n_c"]),
                      float(raw.get("blob_separation", 3.0)), SeedStream(int(raw.get("seed", 0))))


def _one_hot(labels, n_classes):
    out = np.zeros((len(labels), n_classes))
    out[np.arange(len(labels)), labels] = 1.0
    return out


def _softmax(logits):
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _softmax_hvp(probs, direction):
    """(diag(s) - s s^T) applied row-wise: the softmax output Hessian action."""
    inner = np.sum(probs * direction, axis=1, keepdims=True)
    return probs * direction - probs * inner


def _cross_entropy(logits, labels):
    """Mean negative log-likelihood of integer ``labels`` under softmax(``logits``)."""
    m = logits.max(axis=1)
    logz = np.log(np.sum(np.exp(logits - m[:, None]), axis=1)) + m
    return float(np.mean(logz - logits[np.arange(len(labels)), labels]))


def _forward(x, layers):
    """Pre-activations of every (W, b) layer and the input each layer sees."""
    pre, inputs = [], [x]
    for i, (w, b) in enumerate(layers):
        pre.append(inputs[i] @ w + b)
        if i < len(layers) - 1:
            inputs.append(np.maximum(pre[i], 0.0))
    return pre, inputs


def _jvp(layers, pre, inputs, dirs):
    """Directional derivative of every pre-activation along the (W, b) blocks ``dirs``."""
    r_pre = []
    for i, ((w, _b), (wd, bd)) in enumerate(zip(layers, dirs)):
        ra = inputs[i] @ wd
        if i > 0:
            ra += (r_pre[i - 1] * (pre[i - 1] > 0.0)) @ w
        r_pre.append(ra + bd)
    return r_pre


def _vjp(layers, pre, inputs, cotangent, decay, residual=None):
    """Reverse sweep: pull a cotangent on the logits back to a flat parameter vector.

    ``decay[l]`` is added to layer l's weight block.  For the Hessian,
    ``residual`` = (delta, r_pre, dirs) holds the gradient's logit signal
    delta, back-propagated alongside the cotangent, the JVP of every
    pre-activation and the direction's blocks.  Each hidden layer then adds
    r_a^T delta to dW and delta W_d^T to the back-propagated signal, where
    r_a is the JVP of the layer's input.
    """
    delta, r_pre, dirs = residual or (None, None, None)
    parts = []
    for layer in range(len(layers) - 1, -1, -1):
        mask = pre[layer - 1] > 0.0 if layer > 0 else None
        dw = inputs[layer].T @ cotangent
        if delta is not None and layer > 0:
            dw += (r_pre[layer - 1] * mask).T @ delta
        parts.append(np.concatenate([(dw + decay[layer]).ravel(), cotangent.sum(axis=0)]))
        if layer > 0:
            w = layers[layer][0]
            back = cotangent @ w.T
            if delta is not None:
                back += delta @ dirs[layer][0].T
                delta = (delta @ w.T) * mask
            cotangent = back * mask
    return np.concatenate(parts[::-1])


class LogisticRegressionModel:
    """Multinomial logistic regression with L2 weight decay gamma * |W|^2.

    The loss is the mean cross-entropy over the batch plus the decay term;
    gradients and curvature products are analytic.  For this softmax-linear
    model the GGN coincides with the full loss Hessian.
    """

    def __init__(self, d_in, n_classes, weight_decay=0.0, weights=None):
        self.d_in = d_in
        self.n_classes = n_classes
        self.weight_decay = weight_decay
        if weights is None:
            weights = np.zeros((d_in, n_classes))
        self.weights = np.asarray(weights, dtype=np.float64).reshape(d_in, n_classes)

    @property
    def n_params(self):
        return self.d_in * self.n_classes

    def get_params(self):
        return self.weights.ravel().copy()

    def set_params(self, flat):
        self.weights = np.asarray(flat, dtype=np.float64).reshape(self.d_in, self.n_classes)

    def loss(self, batch, params=None):
        w = self.weights if params is None else np.asarray(params).reshape(self.d_in, self.n_classes)
        return float(_cross_entropy(batch.inputs @ w, batch.labels) + self.weight_decay * np.sum(w * w))

    def loss_and_gradient(self, batch):
        if batch.n_samples == 0:
            raise ValueError("batch must be nonempty")
        w = self.weights
        logits = batch.inputs @ w
        loss = float(_cross_entropy(logits, batch.labels) + self.weight_decay * np.sum(w * w))
        if not np.isfinite(loss):
            raise FloatingPointError("non-finite loss in forward pass")
        probs = _softmax(logits)
        y = _one_hot(batch.labels, self.n_classes)
        grad = batch.inputs.T @ (probs - y) / batch.n_samples + 2.0 * self.weight_decay * w
        return loss, grad.ravel()

    def hessian_vector_product(self, batch, v):
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (self.n_params,):
            raise ValueError(f"direction must have shape ({self.n_params},), got {v.shape}")
        direction = v.reshape(self.d_in, self.n_classes)
        probs = _softmax(batch.inputs @ self.weights)
        d_logits = batch.inputs @ direction
        d_probs = _softmax_hvp(probs, d_logits)
        hv = batch.inputs.T @ d_probs / batch.n_samples + 2.0 * self.weight_decay * direction
        return hv.ravel()

    # softmax-linear model: J^T H_L J equals the data Hessian exactly
    ggn_vector_product = hessian_vector_product


class MLPModel:
    """Fully connected net: ReLU hidden layers, softmax output, mean cross-entropy.

    Gradient, GGN-vector and Hessian-vector products share one forward pass,
    one forward-mode (JVP) sweep and one reverse (VJP) sweep.  The Hessian
    product is the R-operator (forward-over-reverse) derivative of backprop,
    with the ReLU second derivative taken as zero everywhere: the GGN product
    plus a residual from the hidden layers.
    """

    def __init__(self, layer_sizes, stream=None, weight_decay=0.0, init_scale=None):
        if len(layer_sizes) < 2:
            raise ValueError("need at least input and output layer sizes")
        self.layer_sizes = tuple(int(s) for s in layer_sizes)
        self.weight_decay = weight_decay
        rng = (stream or SeedStream(0)).generator
        self.weights: List[np.ndarray] = []
        self.biases: List[np.ndarray] = []
        for fan_in, fan_out in zip(self.layer_sizes[:-1], self.layer_sizes[1:]):
            scale = init_scale if init_scale is not None else np.sqrt(2.0 / fan_in)
            self.weights.append(rng.standard_normal((fan_in, fan_out)) * scale)
            self.biases.append(np.zeros(fan_out))

    @property
    def n_classes(self):
        return self.layer_sizes[-1]

    @property
    def n_params(self):
        return sum(w.size + b.size for w, b in zip(self.weights, self.biases))

    def get_params(self):
        return np.concatenate([np.concatenate([w.ravel(), b]) for w, b in zip(self.weights, self.biases)])

    def set_params(self, flat):
        for w, b, (wf, bf) in zip(self.weights, self.biases, self._split(flat)):
            w[...] = wf
            b[...] = bf

    def _split(self, flat):
        flat = np.asarray(flat, dtype=np.float64)
        if flat.shape != (self.n_params,):
            raise ValueError(f"expected parameter vector of length {self.n_params}, got {flat.shape}")
        out = []
        pos = 0
        for w, b in zip(self.weights, self.biases):
            wf = flat[pos: pos + w.size].reshape(w.shape)
            pos += w.size
            bf = flat[pos: pos + b.size]
            pos += b.size
            out.append((wf, bf))
        return out

    def _decay(self, blocks):
        """Per-layer weight-decay term 2 gamma W for the W of each (W, b) block."""
        return [2.0 * self.weight_decay * w for w, _b in blocks]

    def loss(self, batch, params=None):
        layers = list(zip(self.weights, self.biases)) if params is None else self._split(params)
        pre, _ = _forward(batch.inputs, layers)
        decay = self.weight_decay * sum(np.sum(w * w) for w, _b in layers)
        return float(_cross_entropy(pre[-1], batch.labels) + decay)

    def loss_and_gradient(self, batch):
        if batch.n_samples == 0:
            raise ValueError("batch must be nonempty")
        layers = list(zip(self.weights, self.biases))
        pre, inputs = _forward(batch.inputs, layers)
        decay = self.weight_decay * sum(np.sum(w * w) for w, _b in layers)
        loss = float(_cross_entropy(pre[-1], batch.labels) + decay)
        if not np.isfinite(loss):
            raise FloatingPointError("non-finite loss in forward pass")
        delta = (_softmax(pre[-1]) - _one_hot(batch.labels, self.n_classes)) / batch.n_samples
        return loss, _vjp(layers, pre, inputs, delta, self._decay(layers))

    def hessian_vector_product(self, batch, v):
        """Exact Hvp: the GGN product plus the residual of the hidden layers."""
        layers, dirs = list(zip(self.weights, self.biases)), self._split(v)
        pre, inputs = _forward(batch.inputs, layers)
        probs = _softmax(pre[-1])
        r_pre = _jvp(layers, pre, inputs, dirs)
        cotangent = _softmax_hvp(probs, r_pre[-1]) / batch.n_samples
        delta = (probs - _one_hot(batch.labels, self.n_classes)) / batch.n_samples
        return _vjp(layers, pre, inputs, cotangent, self._decay(dirs), residual=(delta, r_pre, dirs))

    def ggn_vector_product(self, batch, v):
        """J^T H_L (J v): linearized-network curvature, positive semi-definite."""
        layers, dirs = list(zip(self.weights, self.biases)), self._split(v)
        pre, inputs = _forward(batch.inputs, layers)
        r_pre = _jvp(layers, pre, inputs, dirs)
        cotangent = _softmax_hvp(_softmax(pre[-1]), r_pre[-1]) / batch.n_samples
        return _vjp(layers, pre, inputs, cotangent, self._decay(dirs))


def dense_curvature(model, batch, kind="hessian"):
    """Materialize the curvature matrix column by column (oracle scale only)."""
    n = model.n_params
    product = model.hessian_vector_product if kind == "hessian" else model.ggn_vector_product
    cols = np.empty((n, n))
    eye = np.eye(n)
    for i in range(n):
        cols[:, i] = product(batch, eye[i])
    return DenseSymmetric(entries=(cols + cols.T) / 2.0)


def curvature_operator(model, batch, kind="hessian"):
    """Wrap a model's curvature product as a SymmetricOperator.

    ``abs_hessian`` keeps the Hessian eigenvectors and takes absolute
    eigenvalues; it needs a dense eigendecomposition and is therefore
    restricted to small parameter counts.
    """
    if kind not in CURVATURE_KINDS:
        raise ValueError(f"unknown curvature kind {kind!r}")
    model = copy.deepcopy(model)  # later set_params calls must not change the operator
    n = model.n_params
    if kind == "hessian":
        return SymmetricOperator(dim=n, apply=lambda v: model.hessian_vector_product(batch, v),
                                 label="hessian")
    if kind == "ggn":
        return SymmetricOperator(dim=n, apply=lambda v: model.ggn_vector_product(batch, v),
                                 label="ggn")
    if n > ABS_HESSIAN_PARAM_CAP:
        raise ValueError(f"abs_hessian requires n_params <= {ABS_HESSIAN_PARAM_CAP}, got {n}")
    dense = dense_curvature(model, batch, kind="hessian")
    vals, vecs = dense_eigendecomposition(dense)
    rebuilt = (vecs * np.abs(vals)) @ vecs.T
    return SymmetricOperator(dim=n, apply=lambda v: rebuilt @ v, label="abs_hessian")


def checkpoint_dict(model):
    """Flat-parameter checkpoint with a shape header, JSON-serializable."""
    if isinstance(model, LogisticRegressionModel):
        return {"kind": "logistic", "d_in": model.d_in, "n_c": model.n_classes,
                "weight_decay": model.weight_decay, "params": model.get_params().tolist()}
    if isinstance(model, MLPModel):
        return {"kind": "mlp", "layer_sizes": list(model.layer_sizes),
                "weight_decay": model.weight_decay, "params": model.get_params().tolist()}
    raise TypeError(f"cannot checkpoint model of type {type(model).__name__}")


def model_from_checkpoint(raw):
    if raw["kind"] == "logistic":
        model = LogisticRegressionModel(int(raw["d_in"]), int(raw["n_c"]),
                                        weight_decay=float(raw.get("weight_decay", 0.0)))
    elif raw["kind"] == "mlp":
        model = MLPModel(raw["layer_sizes"], weight_decay=float(raw.get("weight_decay", 0.0)))
    else:
        raise ValueError(f"unknown checkpoint kind {raw.get('kind')!r}")
    model.set_params(np.asarray(raw["params"], dtype=np.float64))
    return model


def lipschitz_bounds_logreg(dataset, weight_decay):
    """Smoothness/strong-convexity pair (L, mu) for decayed softmax regression.

    For the mean-normalized loss, L = 0.5 * lambda_max(X^T X) / N + 2 gamma
    and mu = 2 gamma.  The 1/2 factor is the spectral bound of the softmax
    output Hessian diag(s) - s s^T, attained when mass concentrates on two
    classes, so the bound certifies for every weight point.
    """
    if dataset.n_samples == 0:
        raise ValueError("dataset must be nonempty")
    gram = dataset.inputs.T @ dataset.inputs
    top = float(np.linalg.eigvalsh(gram)[-1]) if gram.size else 0.0
    lipschitz = 0.5 * top / dataset.n_samples + 2.0 * weight_decay
    return lipschitz, 2.0 * weight_decay


def gradient_noise_stats(model, dataset, batch_size, trials, stream):
    """Minibatch gradient-noise statistics against the full-data gradient.

    Returns the mean of |eps|^2 over trials, the per-coordinate per-sample
    gradient variances (unbiased, ddof=1), and the finite-population
    prediction sum_j S_j^2 * (N - T) / (T N) for sampling without
    replacement.
    """
    n = dataset.n_samples
    if batch_size >= n:
        raise ValueError("batch size must be smaller than the dataset (noise degenerates)")
    _, full_grad = model.loss_and_gradient(dataset)
    rng = stream.generator
    sq_norms = []
    for _ in range(trials):
        idx = rng.choice(n, size=batch_size, replace=False)
        _, g = model.loss_and_gradient(dataset.batch(idx))
        sq_norms.append(float(np.sum((full_grad - g) ** 2)))
    per_sample = np.empty((n, model.n_params))
    for i in range(n):
        _, per_sample[i] = model.loss_and_gradient(dataset.batch(np.array([i])))
    coord_var = per_sample.var(axis=0, ddof=1)
    predicted = float(np.sum(coord_var) * (n - batch_size) / (batch_size * n))
    return float(np.mean(sq_norms)), coord_var, predicted
