"""Workload sizes and inputs, drawn from the workload seed with numpy's own Generator.

Nothing here calls curvlens: a change to the program's random streams or to
its generators (``SeedStream``, ``make_blobs``, ``planted_matrix``) cannot
change what a workload feeds it.  Every draw comes from
``numpy.random.default_rng([seed, purpose, index])``, so the same seed gives
the same inputs and no two ops share a probe set, an initialization or a
command seed.
"""

from __future__ import annotations

import json

import numpy as np

# Purposes keep the draws for different inputs apart.
MATRIX, PROBES, DATA, INIT, STREAM, CLI_SEED = range(6)

SIZES = {
    "full": {
        "slq_dense": {
            # criterion-04 planted matrix: 2500 zeros, 480 bulk on [0,10], 20 outliers on [0,300]
            "groups": [[2500, 0.0, 0.0], [480, 0.0, 10.0], [20, 0.0, 300.0]],
            "probes": 8, "steps": 100, "layers": 20, "gap": 0.1,
        },
        "train_mlp": {
            "n_samples": 2000, "d_in": 20, "n_classes": 10, "separation": 3.0,
            "hidden": [64, 64], "weight_decay": 0.01,
            "steps": 200, "refresh": 25, "lanczos_steps": 30,
        },
        "cli_suite": {
            "wigner_dim": 2000, "wigner_steps": 30,
            "wishart_dim": 1000, "wishart_ratio": 2.0,
            "planted_groups": [[1470, 0.0, 10.0], [30, 95.0, 105.0]],
            "n_samples": 2000, "d_in": 20, "n_classes": 10, "separation": 3.0,
            "hidden": [128, 128], "weight_decay": 0.01,
            "spectrum_steps": 40, "spectrum_seeds": 2,
        },
    },
    # Tiny sizes for the benchmark's own tests: every path runs, in seconds.
    "smoke": {
        "slq_dense": {
            "groups": [[250, 0.0, 0.0], [48, 0.0, 10.0], [2, 0.0, 300.0]],
            "probes": 2, "steps": 20, "layers": 2, "gap": 0.1,
        },
        "train_mlp": {
            "n_samples": 200, "d_in": 20, "n_classes": 10, "separation": 3.0,
            "hidden": [16], "weight_decay": 0.01,
            "steps": 20, "refresh": 5, "lanczos_steps": 10,
        },
        "cli_suite": {
            "wigner_dim": 200, "wigner_steps": 10,
            "wishart_dim": 100, "wishart_ratio": 2.0,
            "planted_groups": [[147, 0.0, 10.0], [3, 95.0, 105.0]],
            "n_samples": 200, "d_in": 20, "n_classes": 10, "separation": 3.0,
            "hidden": [16, 16], "weight_decay": 0.01,
            "spectrum_steps": 10, "spectrum_seeds": 2,
        },
    },
}


def rng_for(seed, purpose, index=0):
    return np.random.default_rng([int(seed), purpose, int(index)])


def derived_int(seed, purpose, index=0):
    """A 32-bit integer seed for program APIs that take one (CLI --seed, SeedStream)."""
    return int(np.random.SeedSequence([int(seed), purpose, int(index)]).generate_state(1)[0])


def planted_matrix(seed, groups):
    """Exactly symmetric Q diag(d) Q^T for a Haar-distributed orthogonal Q.

    Returns the matrix and the planted eigenvalues d, sorted ascending.  Only
    the columns of Q that meet a nonzero eigenvalue are drawn (a sign-fixed QR
    of a Gaussian matrix with that many columns), which is the same
    distribution at a fraction of the cost when most of d is zero.
    """
    rng = rng_for(seed, MATRIX)
    d = np.sort(np.concatenate([rng.uniform(lo, hi, size=count) if hi > lo
                                else np.full(count, lo) for count, lo, hi in groups]))
    nonzero = d[d != 0.0]
    q, r = np.linalg.qr(rng.standard_normal((len(d), len(nonzero))))
    q *= np.sign(np.diag(r))
    h = (q * nonzero) @ q.T
    return (h + h.T) / 2.0, d


def probes(seed, op_index, count, dim):
    return rng_for(seed, PROBES, op_index).standard_normal((count, dim))


def blobs(seed, n_samples, d_in, n_classes, separation):
    """Unit-variance Gaussian clouds around class centres at distance ``separation``."""
    rng = rng_for(seed, DATA)
    centers = rng.standard_normal((n_classes, d_in))
    centers *= separation / np.linalg.norm(centers, axis=1, keepdims=True)
    labels = rng.permutation(np.arange(n_samples) % n_classes)
    return centers[labels] + rng.standard_normal((n_samples, d_in)), labels


def layer_sizes(size):
    return [size["d_in"], *size["hidden"], size["n_classes"]]


def mlp_params(seed, op_index, sizes):
    """He-normal weights and zero biases, flattened layer by layer as (W.ravel(), b)."""
    rng = rng_for(seed, INIT, op_index)
    parts = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        parts.append(rng.standard_normal(fan_in * fan_out) * np.sqrt(2.0 / fan_in))
        parts.append(np.zeros(fan_out))
    return np.concatenate(parts)


def write_cli_inputs(seed, size, directory):
    """Spec files shared by every cycle of one cli_suite run."""
    planted = {"dim": sum(count for count, _, _ in size["planted_groups"]),
               "groups": [{"count": count, "dist": "uniform", "lo": lo, "hi": hi}
                          for count, lo, hi in size["planted_groups"]]}
    dataset = {"n_samples": size["n_samples"], "d_in": size["d_in"], "n_c": size["n_classes"],
               "blob_separation": size["separation"], "seed": derived_int(seed, DATA)}
    (directory / "planted.json").write_text(json.dumps(planted))
    (directory / "dataset.json").write_text(json.dumps(dataset))


def cli_cycle(seed, size, directory, cycle):
    """Write this cycle's checkpoint and return [(name, argv, out_dir)] for its six commands."""
    cycle_dir = directory / f"cycle{cycle}"
    cycle_dir.mkdir(parents=True, exist_ok=True)
    sizes = layer_sizes(size)
    checkpoint = {"kind": "mlp", "layer_sizes": sizes, "weight_decay": size["weight_decay"],
                  "params": mlp_params(seed, cycle, sizes).tolist()}
    (cycle_dir / "checkpoint.json").write_text(json.dumps(checkpoint))
    s = str(derived_int(seed, CLI_SEED, cycle))
    out = {name: cycle_dir / name for name in
           ("rmt_wigner", "rmt_wishart", "compare_diag", "spectrum", "landscape", "bounds_table")}
    ckpt, data, planted = (str(cycle_dir / "checkpoint.json"), str(directory / "dataset.json"),
                           str(directory / "planted.json"))
    argvs = {
        "rmt_wigner": ["rmt", "--ensemble", "wigner", "--dim", str(size["wigner_dim"]),
                       "--steps", str(size["wigner_steps"])],
        "rmt_wishart": ["rmt", "--ensemble", "wishart", "--dim", str(size["wishart_dim"]),
                        "--ratio", str(size["wishart_ratio"]), "--format", "json"],
        "compare_diag": ["compare-diag", "--source", "planted", "--spec", planted],
        "spectrum": ["spectrum", "--checkpoint", ckpt, "--dataset", data,
                     "--curvature", "hessian", "--steps", str(size["spectrum_steps"]),
                     "--seeds", str(size["spectrum_seeds"]), "--save-vectors"],
        "landscape": ["landscape", "--checkpoint", ckpt, "--dataset", data,
                      "--spectrum", str(out["spectrum"] / "spectrum.json")],
        "bounds_table": ["bounds-table"],
    }
    return [(name, argv + ["--seed", s, "--out", str(out[name])], out[name])
            for name, argv in argvs.items()]
