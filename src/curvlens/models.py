"""Desk-scale differentiable models exposing gradient, Hessian-vector and GGN-vector products."""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace

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


def dataset_from_spec(raw):
    """Dataset from the parsed JSON spec {n_samples, d_in, n_c, blob_separation, seed}.

    n_samples, d_in and n_c are required integers >= 1 with n_samples >= n_c;
    blob_separation is a number (default 3.0) and seed an integer >= 0
    (default 0).  An unknown or missing key, or a value of the wrong kind,
    raises a one-line ``ValueError`` naming it.
    """
    where = "dataset spec: "
    _spec_keys(raw, ("n_samples", "d_in", "n_c"), ("blob_separation", "seed"), where)
    separation = _spec_float(raw, "blob_separation", where) if "blob_separation" in raw else 3.0
    seed = _spec_int(raw, "seed", where, low=0) if "seed" in raw else 0
    return make_blobs(_spec_int(raw, "n_samples", where), _spec_int(raw, "d_in", where),
                      _spec_int(raw, "n_c", where), separation, SeedStream(seed))


def _softmax_cross_entropy(logits, labels, probs):
    """Mean cross-entropy of integer ``labels`` under the softmax of each column of ``logits``.

    ``logits`` is classes x N, so the max and the sum run over axis 0, down
    contiguous rows.  Writes the softmax into ``probs``; the loss and the
    softmax share the column max and the column sum from one exp.
    """
    picked = logits[labels, np.arange(len(labels))]
    top = logits.max(axis=0)
    np.exp(np.subtract(logits, top, out=probs), out=probs)
    total = probs.sum(axis=0)
    probs /= total
    return float(np.mean(np.log(total) + top - picked))


def _softmax_hvp(probs, direction, work):
    """(diag(s) - s s^T) applied to every column, in place on ``direction``.

    The softmax output Hessian action; ``work`` is scratch of the same shape.
    """
    direction *= probs
    direction -= np.multiply(probs, direction.sum(axis=0), out=work)
    return direction


def _finite(loss):
    """``loss`` as a float; a loss that is not finite raises a one-line ``FloatingPointError``."""
    if not np.isfinite(loss):
        raise FloatingPointError(f"non-finite loss ({loss}) in forward pass")
    return float(loss)


def _finite_decay(weight_decay):
    """``weight_decay`` if it is finite; else a one-line ``ValueError``."""
    if not np.isfinite(weight_decay):
        raise ValueError(f"weight decay must be finite, got {weight_decay}")
    return weight_decay


def _forward(x, layers, lin):
    """Forward pass into ``lin``'s buffers: the input each layer sees, the ReLU masks, the logits.

    ``x`` (N x d_in) is copied transposed into the first input buffer; each
    layer is then one GEMM, (W; b)^T (h; 1) = W^T h + b.
    """
    lin.inputs[0][:x.shape[1]] = x.T
    for i, theta in enumerate(layers):
        hidden = i < len(lin.masks)
        out = lin.inputs[i + 1][:theta.shape[1]] if hidden else lin.logits
        np.matmul(theta.T, lin.inputs[i], out=out)
        if hidden:
            np.greater(out, 0.0, out=lin.masks[i])
            np.maximum(out, 0.0, out=out)


class _Linearization:
    """A network at one (params, batch): everything its products reuse.

    Every buffer is feature-major, one row per unit and one column per
    sample.  The input each layer sees carries one more row, all ones, when
    the layers have a bias (``bias`` = 1), so that one GEMM with the layer's
    (W; b) block computes W^T h + b.  ``build`` refuses an empty batch and
    one whose feature or class count differs from the model's input or
    output width.  It runs the forward pass into buffers that it allocates
    only when the batch rows or the layer widths change: the input each
    layer sees, the ReLU masks of the hidden layers, the logits, the softmax
    output and the mean cross-entropy.  ``r_pre`` (one width x N buffer per
    layer) and ``work`` (one per width) are scratch that ``_jvp``/``_vjp``
    overwrite on every product.
    """

    shape = None
    frozen = False  # holds a curvature_operator snapshot's fixed (params, batch)

    def __init__(self, bias):
        self.bias = bias

    def build(self, layers, batch):
        n, widths = batch.n_samples, tuple(theta.shape[1] for theta in layers)
        sizes = [layers[0].shape[0] - self.bias, *widths]
        if batch.inputs.shape[1:] != (sizes[0],) or batch.n_classes != sizes[-1]:
            raise ValueError(f"data of shape {batch.inputs.shape} with {batch.n_classes} classes "
                             f"do not fit a model with layer sizes {sizes}")
        if n == 0:
            raise ValueError("batch must be nonempty")
        if self.shape != (n, widths):
            self.shape = (n, widths)
            self.fan_in = sizes[:-1]
            self.inputs = [np.ones((size + self.bias, n)) for size in sizes[:-1]]
            self.masks = [np.empty((width, n), dtype=bool) for width in widths[:-1]]
            self.logits, self.probs, self.signal = (np.empty((widths[-1], n)) for _ in range(3))
            self.r_pre = [np.empty((width, n)) for width in widths]
            self.work = {width: np.empty((width, n)) for width in widths}
            self._delta_buffers = None
        self.layers, self.labels = layers, batch.labels
        _forward(batch.inputs, layers, self)
        self.loss = _softmax_cross_entropy(self.logits, self.labels, self.probs)
        self._deltas = None

    def output_signal(self):
        """Gradient of the mean cross-entropy with respect to the logits."""
        signal = self.signal
        np.copyto(signal, self.probs)
        signal[self.labels, np.arange(len(self.labels))] -= 1.0
        signal /= len(self.labels)
        return signal

    def deltas(self):
        """The gradient's signal at every layer's pre-activation, built on first use."""
        if self._deltas is None:
            if self._delta_buffers is None:
                self._delta_buffers = [np.empty_like(r) for r in self.r_pre[:-1]]
            deltas = self._delta_buffers + [self.output_signal()]
            for layer in range(len(self.layers) - 1, 0, -1):
                weights = self.layers[layer][:self.fan_in[layer]]
                below = np.matmul(weights, deltas[layer], out=deltas[layer - 1])
                below *= self.masks[layer - 1]
            self._deltas = deltas
        return self._deltas


def _jvp(lin, dirs):
    """Directional derivative of every pre-activation along the layer blocks ``dirs``.

    One GEMM per layer gives W_d^T h + b_d; from the second layer on, a
    second adds W^T r, with r the JVP of the layer's input.  Written into
    ``lin.r_pre``; returns the logits' entry.  Hidden entries are then
    multiplied by their ReLU mask, which makes them the derivative of the
    next layer's input.
    """
    r_pre = lin.r_pre
    for i, (theta, direction) in enumerate(zip(lin.layers, dirs)):
        ra = np.matmul(direction.T, lin.inputs[i], out=r_pre[i])
        if i > 0:
            ra += np.matmul(theta[:lin.fan_in[i]].T, r_pre[i - 1], out=lin.work[ra.shape[0]])
        if i < len(lin.masks):
            ra *= lin.masks[i]
    return r_pre[-1]


def _curvature_cotangent(lin, dirs):
    """H_L (J v) / N: the softmax output Hessian applied to the logits' JVP."""
    cotangent = _softmax_hvp(lin.probs, _jvp(lin, dirs), lin.work[lin.probs.shape[0]])
    cotangent /= len(lin.labels)
    return cotangent


def _vjp(lin, cotangent, grads, dirs=None):
    """Reverse sweep: pull a cotangent on the logits back into the layer blocks ``grads``.

    ``grads`` are views into one flat vector, and one GEMM per layer,
    (h; 1) cotangent^T, writes dW and db together into them.  For the
    Hessian, ``dirs`` holds the direction's layer blocks and ``lin.r_pre``
    their masked JVP.  Each hidden layer then adds r_a delta^T to dW and
    W_d delta to the back-propagated signal, where r_a is the JVP of the
    layer's input and delta the gradient's signal at the layer.  The signal
    passed below layer l overwrites ``r_pre[l-1]``, which layer l reads last.
    """
    deltas = lin.deltas() if dirs is not None else None
    for layer in range(len(lin.layers) - 1, -1, -1):
        fan_in = lin.fan_in[layer]
        np.matmul(lin.inputs[layer], cotangent.T, out=grads[layer])
        if deltas is not None and layer > 0:
            grads[layer][:fan_in] += lin.r_pre[layer - 1] @ deltas[layer].T
        if layer > 0:
            back = np.matmul(lin.layers[layer][:fan_in], cotangent, out=lin.r_pre[layer - 1])
            if deltas is not None:
                back += np.matmul(dirs[layer][:fan_in], deltas[layer], out=lin.work[fan_in])
            back *= lin.masks[layer - 1]
            cotangent = back


class MLPModel:
    """Fully connected net: ReLU hidden layers, softmax output, mean cross-entropy.

    Gradient, GGN-vector and Hessian-vector products share one forward pass,
    one forward-mode (JVP) sweep and one reverse (VJP) sweep.  The Hessian
    product is the R-operator (forward-over-reverse) derivative of backprop,
    with the ReLU second derivative taken as zero everywhere: the GGN product
    plus a residual from the hidden layers.

    The parameters are one flat vector, each layer's W row-major and then
    its b.  Layer l's (W; b) is therefore one (fan_in + 1) x fan_out view of
    it, with b as the last row, and the same views cut a direction, a
    gradient or a product into layers.

    Every loss, gradient and product runs its forward pass in one workspace
    of width x N buffers that the model keeps and reuses while the batch
    rows and layer widths stay the same.  A model instance must therefore
    not be called from several threads at once.  ``curvature_operator``
    takes the workspace over; the model allocates a new one on its next call.

    ``loss`` and ``loss_and_gradient`` raise ``FloatingPointError`` when the
    loss or the gradient is not finite, and let no numpy warning escape.
    """

    _bias = 1  # rows a layer block adds for its bias; LogisticRegressionModel has none
    _workspace = None  # the _Linearization every call builds in; see _linearize
    _frozen_batch = None  # set only on a curvature_operator's private snapshot

    def __init__(self, layer_sizes, stream=None, weight_decay=0.0):
        if len(layer_sizes) < 2:
            raise ValueError("need at least input and output layer sizes")
        self.layer_sizes = tuple(int(s) for s in layer_sizes)
        if min(self.layer_sizes) < 1:
            raise ValueError(f"every layer size must be >= 1, got {list(self.layer_sizes)}")
        self.weight_decay = _finite_decay(weight_decay)
        rng = (stream or SeedStream(0)).generator
        self._params = np.empty(sum((fan_in + 1) * fan_out for fan_in, fan_out
                                    in zip(self.layer_sizes[:-1], self.layer_sizes[1:])))
        for theta in self._blocks(self._params):
            fan_in = theta.shape[0] - 1
            theta[:-1] = rng.standard_normal((fan_in, theta.shape[1])) * np.sqrt(2.0 / fan_in)
            theta[-1] = 0.0

    @property
    def n_classes(self):
        return self.layer_sizes[-1]

    @property
    def n_params(self):
        return self._params.size

    def get_params(self):
        return self._params.copy()

    def set_params(self, flat):
        self._params[...] = self._vector(flat)

    def _vector(self, flat):
        flat = np.asarray(flat, dtype=np.float64)
        if flat.shape != (self.n_params,):
            raise ValueError(f"expected parameter vector of length {self.n_params}, got {flat.shape}")
        return flat

    def _blocks(self, flat):
        """Each layer's (W; b) as one (fan_in + 1) x fan_out view of ``flat`` (W alone without a bias)."""
        blocks, pos = [], 0
        for fan_in, fan_out in zip(self.layer_sizes[:-1], self.layer_sizes[1:]):
            rows = fan_in + self._bias
            blocks.append(flat[pos: pos + rows * fan_out].reshape(rows, fan_out))
            pos += rows * fan_out
        return blocks

    def _penalty(self, blocks):
        """gamma |W|^2 over every layer's weight rows."""
        return self.weight_decay * sum(np.vdot(theta[:fan_in], theta[:fan_in])
                                       for theta, fan_in in zip(blocks, self.layer_sizes))

    def _pull_back(self, lin, cotangent, decayed, dirs=None):
        """``_vjp`` of ``cotangent`` as a new flat vector, plus 2 gamma times ``decayed``'s W rows."""
        flat = np.empty(self.n_params)
        grads = self._blocks(flat)
        _vjp(lin, cotangent, grads, dirs)
        for grad, theta, fan_in in zip(grads, decayed, self.layer_sizes):
            grad[:fan_in] += 2.0 * self.weight_decay * theta[:fan_in]
        return flat

    def loss(self, batch, params=None):
        with np.errstate(all="ignore"):
            lin = self._linearize(batch, params)
            return _finite(lin.loss + self._penalty(lin.layers))

    def loss_and_gradient(self, batch):
        with np.errstate(all="ignore"):
            lin = self._linearize(batch)
            loss = _finite(lin.loss + self._penalty(lin.layers))
            grad = self._pull_back(lin, lin.output_signal(), lin.layers)
        if not np.all(np.isfinite(grad)):
            raise FloatingPointError("non-finite gradient in backward pass")
        return loss, grad

    def _linearize(self, batch, params=None):
        """The linearization at ``batch`` and ``params`` (default: the model's own), in the workspace.

        Every call reruns the forward pass, so ``set_params`` can never meet
        a stale state.  The exception is the snapshot a
        ``curvature_operator`` takes: its parameters and batch never change,
        so it keeps what its first product built.
        """
        if self._workspace is None:
            self._workspace = _Linearization(self._bias)
        lin = self._workspace
        frozen = params is None and batch is self._frozen_batch
        if not (frozen and lin.frozen):
            flat = self._params if params is None else self._vector(params)
            lin.build(self._blocks(flat), batch)
            lin.frozen = frozen
        return lin

    def hessian_vector_product(self, batch, v):
        """Exact Hvp: the GGN product plus the residual of the hidden layers."""
        lin, dirs = self._linearize(batch), self._blocks(self._vector(v))
        return self._pull_back(lin, _curvature_cotangent(lin, dirs), dirs, dirs=dirs)

    def ggn_vector_product(self, batch, v):
        """J^T H_L (J v): linearized-network curvature, positive semi-definite."""
        lin, dirs = self._linearize(batch), self._blocks(self._vector(v))
        return self._pull_back(lin, _curvature_cotangent(lin, dirs), dirs)


class LogisticRegressionModel(MLPModel):
    """Multinomial logistic regression with L2 weight decay gamma * |W|^2.

    A one-layer ``MLPModel`` without a bias, with zero initial weights, so
    it shares the MLP's loss, gradient, curvature products and cached
    operator.  Its flat parameter vector is W row-major.
    For this softmax-linear model the GGN coincides with the full loss
    Hessian.
    """

    _bias = 0

    def __init__(self, d_in, n_classes, weight_decay=0.0):
        self.layer_sizes = (int(d_in), int(n_classes))
        self.weight_decay = _finite_decay(weight_decay)
        self._params = np.zeros(self.layer_sizes[0] * self.layer_sizes[1])


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
        return replace(DenseSymmetric(rebuilt).as_operator(), label="abs_hessian")
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
    one layer_sizes (a list of integers >= 1); both take params (one finite
    number per parameter) and optionally weight_decay (a number, default 0).  An
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
    numbers = set(map(type, params)) <= {int, float}
    try:  # one pass; on a bad entry, name the first
        values = np.array(params, dtype=np.float64) if numbers else None
    except OverflowError:  # an integer too large for a double
        values = None
    if values is None:
        for i in range(len(params)):
            _spec_float(params, i, f"{where}params entry ")
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise ValueError(f"{where}params entry {bad[0]} must be finite, got {values[bad[0]]}")
    model.set_params(values)
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

