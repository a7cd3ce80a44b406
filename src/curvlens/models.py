"""Desk-scale differentiable models exposing gradient, Hessian-vector and GGN-vector products."""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from curvlens.operators import (
    DenseSymmetric,
    SeedStream,
    SymmetricOperator,
    _spec_float,
    _spec_int,
    _spec_keys,
    _symmetrize,
    dense_eigendecomposition,
)

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
    """Gaussian-blob dataset: unit-variance clouds around separated class centers.

    Needs ``n_samples >= n_classes``, so that every class has a sample.
    """
    if n_samples < n_classes:
        raise ValueError(f"n_samples {n_samples} is less than n_c {n_classes}; "
                         "every class needs a sample")
    rng = stream.generator
    centers = rng.standard_normal((n_classes, d_in))
    centers *= separation / np.maximum(np.linalg.norm(centers, axis=1, keepdims=True), 1e-12)
    labels = np.arange(n_samples) % n_classes  # guarantees every class is present
    rng.shuffle(labels)
    inputs = centers[labels] + rng.standard_normal((n_samples, d_in))
    return Dataset(inputs=inputs, labels=labels, n_classes=n_classes)


def dataset_from_spec(text_or_dict):
    """Dataset from the JSON spec {n_samples, d_in, n_c, blob_separation, seed}.

    n_samples, d_in and n_c are required integers >= 1 with n_samples >= n_c;
    blob_separation is a number (default 3.0) and seed an integer >= 0
    (default 0).  An unknown or missing key, or a value of the wrong kind,
    raises a one-line ``ValueError`` naming it.
    """
    raw = json.loads(text_or_dict) if isinstance(text_or_dict, str) else text_or_dict
    where = "dataset spec: "
    _spec_keys(raw, ("n_samples", "d_in", "n_c"), ("blob_separation", "seed"), where)
    separation = _spec_float(raw, "blob_separation", where) if "blob_separation" in raw else 3.0
    seed = _spec_int(raw, "seed", where, low=0) if "seed" in raw else 0
    return make_blobs(_spec_int(raw, "n_samples", where), _spec_int(raw, "d_in", where),
                      _spec_int(raw, "n_c", where), separation, SeedStream(seed))


def _softmax_cross_entropy(logits, labels, probs):
    """Mean cross-entropy of integer ``labels`` under softmax(``logits``), from one exp.

    Writes softmax(``logits``) into ``probs``; the loss and the softmax
    share the row max and the row sum.
    """
    picked = logits[np.arange(len(labels)), labels]
    top = logits.max(axis=1, keepdims=True)
    np.exp(np.subtract(logits, top, out=probs), out=probs)
    total = probs.sum(axis=1, keepdims=True)
    probs /= total
    return float(np.mean(np.log(total[:, 0]) + top[:, 0] - picked))


def _softmax_hvp(probs, direction, work):
    """(diag(s) - s s^T) applied row-wise, in place on ``direction``.

    The softmax output Hessian action; ``work`` is scratch of the same shape.
    """
    direction *= probs
    direction -= np.multiply(probs, direction.sum(axis=1, keepdims=True), out=work)
    return direction


def _forward(x, layers, lin):
    """Forward pass into ``lin``'s buffers: the input each layer sees, the ReLU masks, the logits."""
    lin.inputs[0] = x
    for i, (w, b) in enumerate(layers):
        out = lin.inputs[i + 1] if i < len(lin.masks) else lin.logits
        np.matmul(lin.inputs[i], w, out=out)
        if b is not None:
            out += b
        if i < len(lin.masks):
            np.greater(out, 0.0, out=lin.masks[i])
            np.maximum(out, 0.0, out=out)


class _Linearization:
    """A network at one (params, batch): everything its products reuse.

    ``build`` refuses a batch whose feature or class count differs from the
    model's input or output width.  It runs the forward pass into buffers
    that it allocates only when the batch rows or the layer widths change:
    the input each layer sees, the ReLU masks of the hidden layers, the
    logits, the softmax output and the mean cross-entropy.  ``r_pre`` (one
    N x width buffer per layer) and ``work`` (one per width) are scratch
    that ``_jvp``/``_vjp`` overwrite on every product.
    """

    shape = None
    frozen = False  # holds a curvature_operator snapshot's fixed (params, batch)

    def build(self, layers, batch):
        n, widths = batch.n_samples, tuple(w.shape[1] for w, _b in layers)
        sizes = [layers[0][0].shape[0], *widths]
        if batch.inputs.shape[1:] != (sizes[0],) or batch.n_classes != sizes[-1]:
            raise ValueError(f"data of shape {batch.inputs.shape} with {batch.n_classes} classes "
                             f"do not fit a model with layer sizes {sizes}")
        if self.shape != (n, widths):
            self.shape = (n, widths)
            self.inputs = [None] + [np.empty((n, width)) for width in widths[:-1]]
            self.masks = [np.empty((n, width), dtype=bool) for width in widths[:-1]]
            self.logits, self.probs, self.signal = (np.empty((n, widths[-1])) for _ in range(3))
            self.r_pre = [np.empty((n, width)) for width in widths]
            self.work = {width: np.empty((n, width)) for width in widths}
            self._delta_buffers = None
        self.layers, self.labels = layers, batch.labels
        _forward(batch.inputs, layers, self)
        self.loss = _softmax_cross_entropy(self.logits, self.labels, self.probs)
        self._deltas = None

    def output_signal(self):
        """Gradient of the mean cross-entropy with respect to the logits."""
        signal = self.signal
        np.copyto(signal, self.probs)
        signal[np.arange(len(self.labels)), self.labels] -= 1.0
        signal /= len(self.labels)
        return signal

    def deltas(self):
        """The gradient's signal at every layer's pre-activation, built on first use."""
        if self._deltas is None:
            if self._delta_buffers is None:
                self._delta_buffers = [np.empty_like(r) for r in self.r_pre[:-1]]
            deltas = self._delta_buffers + [self.output_signal()]
            for layer in range(len(self.layers) - 1, 0, -1):
                below = np.matmul(deltas[layer], self.layers[layer][0].T, out=deltas[layer - 1])
                below *= self.masks[layer - 1]
            self._deltas = deltas
        return self._deltas


def _jvp(lin, dirs):
    """Directional derivative of every pre-activation along the (W, b) blocks ``dirs``.

    b is None for a bias-free layer.  Written into ``lin.r_pre``; returns
    the logits' entry.  Hidden entries are then multiplied by their ReLU
    mask, which makes them the derivative of the next layer's input.
    """
    r_pre = lin.r_pre
    for i, ((w, _b), (wd, bd)) in enumerate(zip(lin.layers, dirs)):
        ra = np.matmul(lin.inputs[i], wd, out=r_pre[i])
        if i > 0:
            ra += np.matmul(r_pre[i - 1], w, out=lin.work[ra.shape[1]])
        if bd is not None:
            ra += bd
        if i < len(lin.masks):
            ra *= lin.masks[i]
    return r_pre[-1]


def _curvature_cotangent(lin, dirs):
    """H_L (J v) / N: the softmax output Hessian applied to the logits' JVP."""
    cotangent = _softmax_hvp(lin.probs, _jvp(lin, dirs), lin.work[lin.probs.shape[1]])
    cotangent /= len(lin.labels)
    return cotangent


def _vjp(lin, cotangent, decay, dirs=None):
    """Reverse sweep: pull a cotangent on the logits back to a flat parameter vector.

    ``decay[l]`` is added to layer l's weight block.  For the Hessian,
    ``dirs`` holds the direction's (W, b) blocks and ``lin.r_pre`` their
    masked JVP.  Each hidden layer then adds r_a^T delta to dW and
    delta W_d^T to the back-propagated signal, where r_a is the JVP of the
    layer's input and delta the gradient's signal at the layer.  The signal
    passed below layer l overwrites ``r_pre[l-1]``, which layer l reads last.
    """
    deltas = lin.deltas() if dirs is not None else None
    parts = []  # the flat vector's blocks, last first
    for layer in range(len(lin.layers) - 1, -1, -1):
        if lin.layers[layer][1] is not None:
            parts.append(cotangent.sum(axis=0))
        dw = lin.inputs[layer].T @ cotangent
        if deltas is not None and layer > 0:
            dw += lin.r_pre[layer - 1].T @ deltas[layer]
        parts.append((dw + decay[layer]).ravel())
        if layer > 0:
            back = np.matmul(cotangent, lin.layers[layer][0].T, out=lin.r_pre[layer - 1])
            if deltas is not None:
                back += np.matmul(deltas[layer], dirs[layer][0].T, out=lin.work[back.shape[1]])
            back *= lin.masks[layer - 1]
            cotangent = back
    return np.concatenate(parts[::-1])


class MLPModel:
    """Fully connected net: ReLU hidden layers, softmax output, mean cross-entropy.

    Gradient, GGN-vector and Hessian-vector products share one forward pass,
    one forward-mode (JVP) sweep and one reverse (VJP) sweep.  The Hessian
    product is the R-operator (forward-over-reverse) derivative of backprop,
    with the ReLU second derivative taken as zero everywhere: the GGN product
    plus a residual from the hidden layers.

    Every loss, gradient and product runs its forward pass in one workspace
    of N x width buffers that the model keeps and reuses while the batch
    rows and layer widths stay the same.  A model instance must therefore
    not be called from several threads at once.  ``curvature_operator``
    takes the workspace over; the model allocates a new one on its next call.

    A layer's bias may be None (a bias-free layer); only
    ``LogisticRegressionModel`` builds one.
    """

    _workspace = None  # the _Linearization every call builds in; see _linearize
    _frozen_batch = None  # set only on a curvature_operator's private snapshot

    def __init__(self, layer_sizes, stream=None, weight_decay=0.0):
        if len(layer_sizes) < 2:
            raise ValueError("need at least input and output layer sizes")
        self.layer_sizes = tuple(int(s) for s in layer_sizes)
        if min(self.layer_sizes) < 1:
            raise ValueError(f"every layer size must be >= 1, got {list(self.layer_sizes)}")
        self.weight_decay = weight_decay
        rng = (stream or SeedStream(0)).generator
        self.weights: List[np.ndarray] = []
        self.biases: List[Optional[np.ndarray]] = []
        for fan_in, fan_out in zip(self.layer_sizes[:-1], self.layer_sizes[1:]):
            self.weights.append(rng.standard_normal((fan_in, fan_out)) * np.sqrt(2.0 / fan_in))
            self.biases.append(np.zeros(fan_out))

    @property
    def n_classes(self):
        return self.layer_sizes[-1]

    @property
    def n_params(self):
        return sum(block.size for layer in zip(self.weights, self.biases)
                   for block in layer if block is not None)

    def get_params(self):
        return np.concatenate([block.ravel() for layer in zip(self.weights, self.biases)
                               for block in layer if block is not None])

    def set_params(self, flat):
        for w, b, (wf, bf) in zip(self.weights, self.biases, self._split(flat)):
            w[...] = wf
            if b is not None:
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
            bf = None
            if b is not None:
                bf = flat[pos: pos + b.size]
                pos += b.size
            out.append((wf, bf))
        return out

    def _decay(self, blocks):
        """Per-layer weight-decay term 2 gamma W for the W of each (W, b) block."""
        return [2.0 * self.weight_decay * w for w, _b in blocks]

    def loss(self, batch, params=None):
        lin = self._linearize(batch, params)
        decay = self.weight_decay * sum(np.sum(w * w) for w, _b in lin.layers)
        return float(lin.loss + decay)

    def loss_and_gradient(self, batch):
        if batch.n_samples == 0:
            raise ValueError("batch must be nonempty")
        lin = self._linearize(batch)
        decay = self.weight_decay * sum(np.sum(w * w) for w in self.weights)
        loss = float(lin.loss + decay)
        if not np.isfinite(loss):
            raise FloatingPointError("non-finite loss in forward pass")
        return loss, _vjp(lin, lin.output_signal(), self._decay(lin.layers))

    def _linearize(self, batch, params=None):
        """The linearization at ``batch`` and ``params`` (default: the model's own), in the workspace.

        Every call reruns the forward pass, so ``set_params`` or an edit of
        the weights can never meet a stale state.  The exception is the
        snapshot a ``curvature_operator`` takes: its parameters and batch
        never change, so it keeps what its first product built.
        """
        if self._workspace is None:
            self._workspace = _Linearization()
        lin = self._workspace
        frozen = params is None and batch is self._frozen_batch
        if not (frozen and lin.frozen):
            layers = list(zip(self.weights, self.biases)) if params is None else self._split(params)
            lin.build(layers, batch)
            lin.frozen = frozen
        return lin

    def hessian_vector_product(self, batch, v):
        """Exact Hvp: the GGN product plus the residual of the hidden layers."""
        lin, dirs = self._linearize(batch), self._split(v)
        return _vjp(lin, _curvature_cotangent(lin, dirs), self._decay(dirs), dirs=dirs)

    def ggn_vector_product(self, batch, v):
        """J^T H_L (J v): linearized-network curvature, positive semi-definite."""
        lin, dirs = self._linearize(batch), self._split(v)
        return _vjp(lin, _curvature_cotangent(lin, dirs), self._decay(dirs))


class LogisticRegressionModel(MLPModel):
    """Multinomial logistic regression with L2 weight decay gamma * |W|^2.

    A one-layer ``MLPModel`` without a bias, with zero initial weights (or a
    copy of ``weights``), so it shares the MLP's loss, gradient, curvature
    products and cached operator.  For this softmax-linear model the GGN
    coincides with the full loss Hessian.
    """

    def __init__(self, d_in, n_classes, weight_decay=0.0, weights=None):
        self.layer_sizes = (int(d_in), int(n_classes))
        self.weight_decay = weight_decay
        if weights is None:
            weights = np.zeros(self.layer_sizes)
        # a copy: set_params writes into the model's weights in place
        self.weights = [np.array(weights, dtype=np.float64).reshape(self.layer_sizes)]
        self.biases = [None]


def dense_curvature(model, batch, kind="hessian"):
    """Materialize ``curvature_operator(model, batch, kind)``, one matvec per unit column."""
    op = curvature_operator(model, batch, kind)
    cols = np.empty((op.dim, op.dim))
    unit = np.zeros(op.dim)
    for i in range(op.dim):
        unit[i] = 1.0
        cols[:, i] = op.matvec(unit)
        unit[i] = 0.0
    return DenseSymmetric(entries=_symmetrize(cols))


def curvature_operator(model, batch, kind="hessian"):
    """Wrap a model's curvature product as a SymmetricOperator.

    ``abs_hessian`` keeps the Hessian eigenvectors and takes absolute
    eigenvalues; it needs a dense eigendecomposition and is therefore
    restricted to small parameter counts.  The operator takes over the
    model's workspace (it is moved, never copied); the first matvec
    builds the linearization at (params, ``batch``) in it and later ones
    reuse it, so ``batch`` must not be edited in place while the operator is
    in use.
    """
    if kind not in CURVATURE_KINDS:
        raise ValueError(f"unknown curvature kind {kind!r}")
    n = model.n_params
    if kind == "abs_hessian":
        if n > ABS_HESSIAN_PARAM_CAP:
            raise ValueError(f"abs_hessian requires n_params <= {ABS_HESSIAN_PARAM_CAP}, got {n}")
        vals, vecs = dense_eigendecomposition(dense_curvature(model, batch, kind="hessian"))
        rebuilt = _symmetrize((vecs * np.abs(vals)) @ vecs.T)
        return SymmetricOperator(dim=n, apply=lambda v: rebuilt @ v, label="abs_hessian")
    workspace, model._workspace = model._workspace, None
    model = copy.deepcopy(model)  # later set_params calls must not change the operator
    model._workspace, model._frozen_batch = workspace, batch
    if kind == "hessian":
        return SymmetricOperator(dim=n, apply=lambda v: model.hessian_vector_product(batch, v),
                                 label="hessian")
    return SymmetricOperator(dim=n, apply=lambda v: model.ggn_vector_product(batch, v),
                             label="ggn")


def checkpoint_dict(model):
    """Flat-parameter checkpoint with a shape header, JSON-serializable."""
    if isinstance(model, LogisticRegressionModel):
        return {"kind": "logistic", "d_in": model.layer_sizes[0], "n_c": model.n_classes,
                "weight_decay": model.weight_decay, "params": model.get_params().tolist()}
    if isinstance(model, MLPModel):
        return {"kind": "mlp", "layer_sizes": list(model.layer_sizes),
                "weight_decay": model.weight_decay, "params": model.get_params().tolist()}
    raise TypeError(f"cannot checkpoint model of type {type(model).__name__}")


def model_from_checkpoint(raw):
    """Model from a ``checkpoint_dict`` document.

    A ``logistic`` checkpoint takes d_in and n_c (integers >= 1), an ``mlp``
    one layer_sizes (a list of integers >= 1); both take params (one number
    per parameter) and optionally weight_decay (a number, default 0).  An
    unknown kind or key, a missing key, or a value of the wrong kind raises a
    one-line ``ValueError`` naming it.
    """
    where = "checkpoint: "
    kind = raw.get("kind") if isinstance(raw, dict) else None
    if isinstance(raw, dict) and kind not in ("logistic", "mlp"):
        raise ValueError(f"{where}kind must be one of logistic, mlp, got {kind!r}")
    shape = ("d_in", "n_c") if kind == "logistic" else ("layer_sizes",)
    _spec_keys(raw, ("kind", *shape, "params"), ("weight_decay",), where)
    decay = _spec_float(raw, "weight_decay", where) if "weight_decay" in raw else 0.0
    if kind == "logistic":
        model = LogisticRegressionModel(_spec_int(raw, "d_in", where), _spec_int(raw, "n_c", where),
                                        weight_decay=decay)
    else:
        sizes = raw["layer_sizes"]
        if not isinstance(sizes, list):
            raise ValueError(f"{where}layer_sizes must be a list, got {sizes!r}")
        model = MLPModel([_spec_int(sizes, i, f"{where}layer_sizes entry ")
                          for i in range(len(sizes))], weight_decay=decay)
    params = raw["params"]
    if not isinstance(params, list) or len(params) != model.n_params:
        got = f"a list of {len(params)}" if isinstance(params, list) else repr(params)
        raise ValueError(f"{where}params must be a list of {model.n_params} numbers, got {got}")
    model.set_params(np.array([_spec_float(params, i, f"{where}params entry ")
                               for i in range(len(params))]))
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

