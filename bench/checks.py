"""Output checks: identities and inequalities that hold for every seed.

Each check compares a program output with a reference the benchmark computes
itself with numpy.  Tolerances are float64 machine epsilon scaled by the
problem size and the operator norm; none is taken from observed values and
none is a statistical band.  A check returns a list of failure messages; an
op with any message counts as failed.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

EPS = np.finfo(np.float64).eps
# curvlens pools Ritz values into one mixture and merges atoms closer than this.
ATOM_MERGE_TOL = 1e-12


class Failures(list):
    def require(self, ok, message):
        if not ok:
            self.append(message)


def _distribution(f, locations, weights, what):
    """Weights nonnegative and summing to 1 up to rounding; locations ascending."""
    locations, weights = np.asarray(locations), np.asarray(weights)
    total = math.fsum(weights)
    f.require(bool(np.all(weights >= 0)), f"{what}: negative weight")
    f.require(abs(total - 1.0) <= 4 * (len(weights) + 1) * EPS,
              f"{what}: weights sum to {total!r}")
    f.require(bool(np.all(np.diff(locations) >= 0)), f"{what}: locations not ascending")


# ---------------------------------------------------------------- slq_dense

def reference_bulk_mean(locations, weights, layers):
    """Weighted mean after dropping the smallest-|lambda| atom and the `layers` largest others."""
    keep = np.ones(len(locations), dtype=bool)
    keep[np.argmin(np.abs(locations))] = False
    keep[[i for i in np.argsort(locations)[::-1] if keep[i]][:layers]] = False
    return float(np.sum(weights[keep] * locations[keep]) / np.sum(weights[keep]))


def reference_bulk_median(values, layers):
    values = np.sort(values)
    keep = np.ones(len(values), dtype=bool)
    keep[np.argmin(np.abs(values))] = False
    keep[[i for i in range(len(values) - 1, -1, -1) if keep[i]][:layers]] = False
    return float(np.median(values[keep]))


def reference_outlier_count(values, threshold):
    """Largest index whose relative gap in the descending values meets the threshold."""
    desc = np.sort(values)[::-1]
    hits = np.nonzero((desc[:-1] - desc[1:]) / desc[0] >= threshold)[0]
    return int(hits[-1] + 1) if len(hits) else 0


def check_slq(h, planted, probes, runs, mixture, analysis, text, size):
    """One spectral-density op on the planted matrix ``h`` with known spectrum ``planted``.

    ``runs`` holds (values, weights, alphas, betas, basis) per probe and
    ``mixture`` the pooled (locations, weights).
    """
    f = Failures()
    dim = len(planted)
    norm = float(np.max(np.abs(planted)))
    # Eigenvalues of the rounded Q diag(d) Q^T lie within this of the planted d.
    hull_tol = 8 * dim * EPS * norm
    unit = probes / np.linalg.norm(probes, axis=1, keepdims=True)
    powers = [unit.T]
    for _ in range(3):
        powers.append(h @ powers[-1])
    all_values = []
    for j, (values, weights, alphas, betas, basis) in enumerate(runs):
        m = len(values)
        all_values.append(values)
        _distribution(f, values, weights, f"probe {j} Ritz")
        f.require(m == size["steps"], f"probe {j}: {m} Ritz values, expected {size['steps']}")
        # Gauss quadrature is exact to degree 2m-1: sum w theta^k = u^T H^k u
        for k in range(4):
            quad = float(np.sum(weights * values ** k))
            direct = float(unit[j] @ powers[k][:, j])
            tol = 8 * (k + 1) * (dim + m) * EPS * norm ** k
            f.require(abs(quad - direct) <= tol,
                      f"probe {j}: quadrature order {k} off by {abs(quad - direct):.3e} > {tol:.3e}")
        f.require(values[0] >= planted[0] - hull_tol and values[-1] <= planted[-1] + hull_tol,
                  f"probe {j}: Ritz values [{values[0]!r}, {values[-1]!r}] outside the planted hull")
        # Some planted eigenvalue lies within |Hy - theta y| / |y| of theta_max.
        tri = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
        y = basis @ np.linalg.eigh(tri)[1][:, -1]
        theta = values[-1]
        residual = float(np.linalg.norm(h @ y - theta * y) / np.linalg.norm(y))
        gap = float(np.min(np.abs(planted - theta)))
        f.require(gap <= residual + hull_tol,
                  f"probe {j}: no planted eigenvalue within {residual:.3e} of theta_max")

    locations, weights = mixture
    _distribution(f, locations, weights, "pooled mixture")
    pooled = np.concatenate(all_values)
    f.require(bool(np.all(np.isin(locations, pooled))), "pooled atom not among the Ritz values")
    for k in range(2):
        direct = float(np.mean([np.sum(w * v ** k) for v, w, *_ in runs]))
        pooled_moment = float(np.sum(weights * locations ** k))
        tol = k * ATOM_MERGE_TOL + 4 * (len(pooled) + 1) * EPS * norm ** k
        f.require(abs(pooled_moment - direct) <= tol,
                  f"pooled moment {k} off by {abs(pooled_moment - direct):.3e}")

    layers = size["layers"]
    scale_tol = 4 * (len(locations) + 1) * EPS * norm
    ref = {"lambda_max": float(locations[-1]),
           "lambda_b": reference_bulk_mean(locations, weights, layers),
           "lambda_b_median": reference_bulk_median(locations, layers),
           "outliers": reference_outlier_count(locations, size["gap"])}
    for key in ("lambda_max", "lambda_b", "lambda_b_median"):
        f.require(abs(analysis[key] - ref[key]) <= scale_tol,
                  f"{key} {analysis[key]!r} differs from reference {ref[key]!r}")
    f.require(analysis["outliers"] == ref["outliers"],
              f"outlier count {analysis['outliers']} differs from reference {ref['outliers']}")

    document = json.loads(text)
    f.require(text == json.dumps(document, indent=2, sort_keys=True) + "\n",
              "spectrum JSON is not canonical")
    f.require([(a["value"], a["weight"]) for a in document["atoms"]]
              == list(zip(locations.tolist(), weights.tolist())),
              "spectrum JSON atoms differ from the mixture")
    f.require(document["analysis"] == analysis, "spectrum JSON analysis block differs")
    return f


# ---------------------------------------------------------------- train_mlp

def mlp_loss(params, sizes, inputs, labels, weight_decay):
    """Mean cross-entropy of a ReLU MLP plus weight_decay * sum |W|^2; also max |logit|."""
    pos, h, decay = 0, inputs, 0.0
    for i, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
        w = params[pos: pos + fan_in * fan_out].reshape(fan_in, fan_out)
        pos += fan_in * fan_out
        b = params[pos: pos + fan_out]
        pos += fan_out
        decay += float(np.sum(w * w))
        h = h @ w + b
        if i < len(sizes) - 2:
            h = np.maximum(h, 0.0)
    top = h.max(axis=1)
    nll = np.log(np.exp(h - top[:, None]).sum(axis=1)) + top - h[np.arange(len(labels)), labels]
    return float(np.mean(nll) + weight_decay * decay), float(np.max(np.abs(h)))


def check_train(trace, init_params, final_params, inputs, labels, size, sizes):
    """One SSGDM training op: no divergence, loss decreases, refreshes obey the closed form."""
    f = Failures()
    steps, refresh = size["steps"], size["refresh"]
    losses = np.asarray(trace.losses)
    f.require(not trace.diverged and len(losses) == steps,
              f"diverged={trace.diverged} after {len(losses)} of {steps} steps")
    f.require(bool(np.all(np.isfinite(losses))) and bool(np.all(np.isfinite(final_params))),
              "non-finite loss or parameters")
    if len(losses):
        ref, logit_scale = mlp_loss(init_params, sizes, inputs, labels, size["weight_decay"])
        tol = 8 * (len(labels) + sum(sizes)) * EPS * max(1.0, abs(ref), logit_scale)
        f.require(abs(losses[0] - ref) <= tol,
                  f"initial loss {losses[0]!r} differs from reference {ref!r}")
        f.require(losses[-1] < losses[0], f"final loss {losses[-1]!r} not below {losses[0]!r}")
    expected = list(range(0, steps, refresh))
    f.require([r[0] for r in trace.refreshes] == expected,
              f"refresh steps {[r[0] for r in trace.refreshes]}, expected {expected}")
    for step, lam_max, lam_b, alpha, beta in trace.refreshes:
        f.require(0.0 < lam_b <= lam_max, f"step {step}: lambda_b {lam_b!r} outside (0, {lam_max!r}]")
        if not 0.0 < lam_b <= lam_max:
            continue
        top, bulk = math.sqrt(lam_max), math.sqrt(lam_b)
        ref_alpha = (2.0 / (top + bulk)) ** 2
        ref_beta = ((top - bulk) / (top + bulk)) ** 2
        f.require(abs(alpha - ref_alpha) <= 8 * EPS * ref_alpha,
                  f"step {step}: alpha {alpha!r} differs from heavy-ball {ref_alpha!r}")
        f.require(abs(beta - ref_beta) <= 8 * EPS,
                  f"step {step}: beta {beta!r} differs from heavy-ball {ref_beta!r}")
        used = trace.schedule_per_step[step: step + refresh]
        f.require(all(pair == (alpha, beta) for pair in used),
                  f"step {step}: schedule applied differs from the refresh")
    return f


# ---------------------------------------------------------------- cli_suite

def _read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


def _spectrum(path):
    document = json.loads(path.read_text())
    atoms = document["atoms"]
    return (document, np.array([a["value"] for a in atoms]),
            np.array([a["weight"] for a in atoms]))


def _chebyshev_t(k, x):
    """T_k(x) by the three-term recurrence, independent of the program's cosh formula."""
    previous, current = 1.0, x
    for _ in range(k - 1):
        previous, current = current, 2.0 * x * current - previous
    return 1.0 if k == 0 else current


def check_cli(name, out, size, previous):
    """Check one command's artifacts in ``out``; ``previous`` maps earlier command names to dirs."""
    f = Failures()
    if name == "rmt_wigner":
        document, atoms, weights = _spectrum(out / "spectrum.json")
        _distribution(f, atoms, weights, "wigner atoms")
        stem = _read_csv(out / "stem.csv")[1:]
        f.require([(float(a), float(w)) for a, w in stem] == list(zip(atoms, weights)),
                  "stem.csv differs from spectrum.json")
        oracle = np.array([float(row[0]) for row in _read_csv(out / "oracle_hist.csv")[1:]])
        dim = size["wigner_dim"]
        f.require(len(oracle) == dim and bool(np.all(np.diff(oracle) >= 0)),
                  "oracle histogram is not the full ascending spectrum")
        tol = 8 * dim * EPS * float(np.max(np.abs(oracle)))
        f.require(atoms[0] >= oracle[0] - tol and atoms[-1] <= oracle[-1] + tol,
                  f"wigner atoms [{atoms[0]!r}, {atoms[-1]!r}] outside oracle "
                  f"[{oracle[0]!r}, {oracle[-1]!r}]")
        f.require(document["analysis"]["lambda_max"] == atoms[-1], "lambda_max is not the top atom")
    elif name == "rmt_wishart":
        document, atoms, weights = _spectrum(out / "spectrum.json")
        _distribution(f, atoms, weights, "wishart atoms")
        tol = 8 * size["wishart_dim"] * EPS * float(atoms[-1])
        f.require(atoms[-1] > 0 and atoms[0] >= -tol,
                  f"wishart atom {atoms[0]!r} below -{tol:.3e} (PSD operator)")
    elif name == "compare_diag":
        rows = _read_csv(out / "compare_diag.csv")
        body, summary = rows[1:-1], rows[-1]
        oracle = np.array([float(r[0]) for r in body])
        diagonal = np.array([float(r[1]) for r in body])
        atoms = np.array([float(r[2]) for r in body if r[2]])
        weights = np.array([float(r[3]) for r in body if r[3]])
        dim = sum(count for count, _, _ in size["planted_groups"])
        norm = float(np.max(np.abs(oracle)))
        f.require(len(oracle) == dim and bool(np.all(np.diff(oracle) >= 0)),
                  "oracle column is not the full ascending spectrum")
        trace_tol = 4 * dim * dim * EPS * norm
        f.require(abs(math.fsum(oracle) - math.fsum(diagonal)) <= trace_tol,
                  f"sum of eigenvalues {math.fsum(oracle)!r} != trace {math.fsum(diagonal)!r}")
        count, lo, hi = size["planted_groups"][-1]
        tol = 8 * dim * EPS * norm
        inside = int(np.sum((oracle >= lo - tol) & (oracle <= hi + tol)))
        f.require(inside == count, f"{inside} eigenvalues in [{lo}, {hi}], planted {count}")
        _distribution(f, atoms, weights, "compare-diag Lanczos atoms")
        f.require(float(summary[1]) <= 1.0 + tol / norm, "max |H_ii| exceeds max |lambda|")
    elif name == "spectrum":
        document, atoms, weights = _spectrum(out / "spectrum.json")
        _distribution(f, atoms, weights, "spectrum atoms")
        with np.load(out / "ritz_vectors.npz") as saved:
            values, ritz_weights, vectors = saved["values"], saved["weights"], saved["vectors"]
        _distribution(f, values, ritz_weights, "saved Ritz pairs")
        dim, m = vectors.shape
        f.require(m == size["spectrum_steps"] == len(values), f"{m} saved Ritz vectors")
        defect = float(np.max(np.abs(vectors.T @ vectors - np.eye(m))))
        f.require(defect <= 8 * (dim + m) * EPS, f"saved Ritz vectors off orthonormal by {defect:.3e}")
    elif name == "landscape":
        rows = _read_csv(out / "landscape.csv")[1:]
        with np.load(previous["spectrum"] / "ritz_vectors.npz") as saved:
            values = saved["values"]
        m = len(values)
        k = min(6, (m + 1) // 2)
        expected = sorted(set(range(k)) | set(range(m - k, m)))
        by_direction = {}
        for index, eigenvalue, t, train, _test in rows:
            by_direction.setdefault(int(index), []).append((float(eigenvalue), float(t), float(train)))
        f.require(sorted(by_direction) == expected, f"landscape directions {sorted(by_direction)}")
        losses = np.array([train for points in by_direction.values() for _, _, train in points])
        f.require(bool(np.all(np.isfinite(losses))) and bool(np.all(losses >= 0)),
                  "landscape loss negative or non-finite")
        at_zero = {train for points in by_direction.values() for _, t, train in points if t == 0.0}
        f.require(len(at_zero) == 1, f"t=0 losses differ across directions: {sorted(at_zero)}")
        f.require(all(eig == values[idx] for idx, points in by_direction.items()
                      if idx < m for eig, _, _ in points),
                  "landscape eigenvalues differ from the saved Ritz values")
    elif name == "bounds_table":
        rows = _read_csv(out / "bounds_table.csv")[1:]
        f.require(len(rows) > 0, "empty bounds table")
        for row in rows:
            gap, m, lanczos_bound, power_bound, ratio = (float(row[0]), int(row[1]), *map(float, row[2:]))
            x = 1.0 + 2.0 * (gap - 1.0)
            ref_l = 1.0 / _chebyshev_t(m - 1, x) ** 2
            ref_p = gap ** (-2 * (m - 1))
            # relative error of T_{m-1} grows with m and with 1/acosh(x) as x -> 1
            tol = 64 * m * EPS * (1.0 + x / (math.sqrt(x * x - 1.0) * math.acosh(x)))
            for got, ref, what in ((lanczos_bound, ref_l, "T_{m-1}(1+2rho)^-2"),
                                   (power_bound, ref_p, "gap^-2(m-1)"),
                                   (ratio, ref_l / ref_p, "ratio")):
                f.require(abs(got - ref) <= tol * abs(ref),
                          f"gap {gap} m {m}: {what} {got!r} != {ref!r}")
    return f
