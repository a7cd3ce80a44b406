"""Spans around calls into curvlens, recorded from the benchmark's side.

``Tracer.install`` replaces every binding of the traced public functions and
methods, including names other modules imported (``curvlens.optim.lanczos_run``,
``curvlens.lanczos_run``), with a wrapper that records a span (layer, start,
end, parent, counters).  Spans stay in memory until ``dump``.  A layer's self
time is its span's duration minus the time of its direct child spans.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict


def _matvec_counts(args, kwargs, result):
    op = args[0]
    if op.label != "dense":
        return None
    return {"operators.matvec.dense_bytes": 8.0 * op.dim * op.dim}


def _lanczos_counts(args, kwargs, result):
    requested = args[1] if len(args) > 1 else kwargs["steps"]
    steps = result[0].steps
    return {"lanczos.run.steps": steps, "lanczos.run.breakdowns": int(steps < requested)}


def _average_counts(args, kwargs, result):
    return {"density.atoms_in": result.n_seeds * result.steps,
            "density.atoms_out": len(result.atoms)}


def _refresh_counts(args, kwargs, result):
    return {"optim.refresh.clamps": int(result[3] is not None)}


def _text_bytes(args, kwargs, result):
    return {"serialize.bytes": len(result.encode())}


def _file_bytes(args, kwargs, result):
    return {"serialize.bytes": os.path.getsize(args[0])}


# (module, attribute, layer, counters); "Class.method" patches the class.
TARGETS = [
    ("curvlens.operators", "SymmetricOperator.matvec", "operators.matvec", _matvec_counts),
    ("curvlens.operators", "dense_eigendecomposition", "operators.oracle", None),
    ("curvlens.lanczos", "lanczos_run", "lanczos.run", _lanczos_counts),
    ("curvlens.lanczos", "ritz_decompose", "lanczos.ritz", None),
    ("curvlens.density", "average_over_seeds", "density.average", _average_counts),
    ("curvlens.bulk", "bulk_mean_random_vector", "bulk", None),
    ("curvlens.bulk", "bulk_median_gradient", "bulk", None),
    ("curvlens.bulk", "count_outliers_gap", "bulk", None),
    ("curvlens.rmt", "sample_wigner", "rmt.sample", None),
    ("curvlens.rmt", "sample_wishart", "rmt.sample", None),
    ("curvlens.rmt", "planted_matrix", "rmt.sample", None),
    ("curvlens.rmt", "fit_mp_to_bulk", "rmt.fit", None),
    ("curvlens.models", "MLPModel.loss_and_gradient", "models.grad", None),
    ("curvlens.models", "MLPModel.ggn_vector_product", "models.ggn_vp", None),
    ("curvlens.models", "MLPModel.hessian_vector_product", "models.hvp", None),
    ("curvlens.models", "MLPModel.loss", "models.loss", None),
    ("curvlens.models", "curvature_operator", "models.operator", None),
    ("curvlens.optim", "train", "optim.train", None),
    ("curvlens.optim", "spectral_refresh", "optim.refresh", _refresh_counts),
    ("curvlens.optim", "loss_landscape", "optim.landscape", None),
]
SERIALIZE_BYTES = {"canonical_json": _text_bytes, "read_spectrum": _file_bytes}


def _serialize_targets():
    module = sys.modules["curvlens.serialize"]
    for name, value in vars(module).items():
        if callable(value) and getattr(value, "__module__", "") == module.__name__ \
                and not name.startswith("_"):
            counts = SERIALIZE_BYTES.get(name, _file_bytes if name.endswith("_csv") else None)
            yield module.__name__, name, "serialize", counts


class Tracer:
    def __init__(self):
        self.spans = []  # [layer, start, end, parent index, counters]
        self._stack = []
        self._patches = []

    def _wrap(self, layer, fn, counts):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [layer, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counts is not None:
                span[4] = counts(args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, name, value):
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self):
        """Wrap every binding of the targets in the loaded curvlens modules."""
        import curvlens.cli  # noqa: F401  (loads every module that holds a binding)
        import curvlens.serialize  # noqa: F401

        modules = [m for n, m in sys.modules.items() if n == "curvlens" or n.startswith("curvlens.")]
        for module_name, attr, layer, counts in TARGETS + list(_serialize_targets()):
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                self._patch(cls, method, self._wrap(layer, cls.__dict__[method], counts))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(layer, original, counts)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, wrapped)

    def uninstall(self):
        while self._patches:
            owner, name, value = self._patches.pop()
            setattr(owner, name, value)

    def totals(self):
        """Flat per-layer sums over all spans: <layer>.calls, <layer>.self_s and counters."""
        child = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        flat = defaultdict(float)
        for i, (layer, start, end, _, counts) in enumerate(self.spans):
            self_s = end - start - child[i]
            flat[f"{layer}.calls"] += 1
            flat[f"{layer}.self_s"] += self_s
            for key, value in (counts or {}).items():
                flat[key] += value
            if counts and "operators.matvec.dense_bytes" in counts:
                flat["operators.matvec.dense_self_s"] += self_s
        return flat

    def dump(self, path):
        """Write the spans as JSON rows [layer, start, end, parent]."""
        with open(path, "w") as handle:
            json.dump([span[:4] for span in self.spans], handle)
