"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line (visible with ``pytest -v -s`` or in
captured output) and asserts the same condition, so the suite doubles as a
human-readable report.
"""

import csv

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import block_diag

from curvlens.bulk import (
    LayerBlockSpec,
    bulk_mean_random_vector,
    bulk_median_gradient,
    count_outliers_gap,
    predict_outliers_from_blocks,
)
from curvlens.cli import main
from curvlens.density import DiracMixture, mixture_moment, smoothed_moment, smoothing_bias
from curvlens.lanczos import lanczos_run, moment_match_check, ritz_decompose, slq
from curvlens.models import (
    Dataset,
    LogisticRegressionModel,
    MLPModel,
    curvature_operator,
    dense_curvature,
    make_blobs,
)
from curvlens.operators import (
    DenseSymmetric,
    SeedStream,
    apply_shifted,
    dense_eigendecomposition,
    probe_vector,
)
from curvlens.optim import TrainConfig, ssgdm_schedule, train
from curvlens.rmt import PlantedSpectrumSpec, planted_matrix, sample_wigner, sample_wishart


def _report(number, description, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number:2d}: {description}")
    assert ok, f"criterion {number}: {description}"


# Lanczos-vs-power bound table, two significant figures per cell.
BOUND_TABLE = {
    (1.5, 5): (1.1e-4, 3.9e-2), (1.5, 10): (2.0e-10, 6.8e-4),
    (1.5, 15): (3.9e-16, 1.2e-5), (1.5, 20): (7.4e-22, 2.0e-7),
    (1.1, 5): (2.7e-2, 4.7e-1), (1.1, 10): (5.5e-5, 1.8e-1),
    (1.1, 15): (1.1e-7, 6.9e-2), (1.1, 20): (2.1e-10, 2.7e-2),
    (1.01, 5): (5.6e-1, 9.2e-1), (1.01, 10): (1.0e-1, 8.4e-1),
    (1.01, 15): (1.5e-2, 7.6e-1), (1.01, 20): (2.0e-3, 6.9e-1),
}


def test_criterion_01_bounds_table(tmp_path):
    out = tmp_path / "bounds"
    assert main(["bounds-table", "--out", str(out)]) == 0
    with open(out / "bounds_table.csv") as handle:
        rows = list(csv.DictReader(handle))
    seen = {}
    for row in rows:
        seen[(float(row["gap"]), int(row["m"]))] = (float(row["lanczos_bound"]),
                                                    float(row["power_bound"]))
    ok = len(seen) == 12
    for key, (lanczos_ref, power_ref) in BOUND_TABLE.items():
        lanczos_val, power_val = seen[key]
        ok = ok and abs(lanczos_val - lanczos_ref) / lanczos_ref < 0.05
        ok = ok and abs(power_val - power_ref) / power_ref < 0.05
    _report(1, "bounds table reproduces all 12 reference cells to 2 significant figures", ok)


def test_criterion_02_wigner_semicircle_moments():
    h = sample_wigner(2000, SeedStream(42))
    seed = probe_vector(SeedStream(7), 2000, "gaussian")
    tri, basis = lanczos_run(h.as_operator(), 30, seed)
    ritz = ritz_decompose(tri, basis)
    mixture = DiracMixture.from_arrays(ritz.values, ritz.weights)
    m2 = mixture_moment(mixture, 2)
    m4 = mixture_moment(mixture, 4)
    edge = ritz.values[-1]
    ok = 0.9 <= m2 <= 1.1 and 1.8 <= m4 <= 2.2 and 1.9 <= edge <= 2.2
    _report(2, f"Wigner P=2000 semicircle moments <l^2>={m2:.3f}, <l^4>={m4:.3f}, "
               f"edge={edge:.3f}", ok)


def test_criterion_03_marcenko_pastur_q2():
    y = sample_wishart(1000, 500, SeedStream(11))
    seed = probe_vector(SeedStream(12), 1000, "gaussian")
    tri, basis = lanczos_run(y.as_operator(), 30, seed)
    ritz = ritz_decompose(tri, basis)
    zero_weight = float(ritz.weights[np.abs(ritz.values) < 0.05].sum())
    nonzero = ritz.values[np.abs(ritz.values) >= 0.05]
    lower = (1.0 - np.sqrt(2.0)) ** 2
    upper = (1.0 + np.sqrt(2.0)) ** 2
    ok = (0.45 <= zero_weight <= 0.55
          and nonzero.min() >= 0.9 * lower and nonzero.max() <= 1.1 * upper)
    _report(3, f"MP q=2 zero-atom weight {zero_weight:.3f}, bulk in "
               f"[{nonzero.min():.3f}, {nonzero.max():.3f}] vs edges "
               f"[{lower:.3f}, {upper:.3f}] +/-10%", ok)


def test_criterion_04_bulk_mean_estimator_table():
    spec = PlantedSpectrumSpec(dim=3000, groups=((2500, "const", 0.0, 0.0),
                                                 (480, "uniform", 0.0, 10.0),
                                                 (20, "uniform", 0.0, 300.0)))
    matrix, _ = planted_matrix(spec, SeedStream(123))
    stream = SeedStream(77)
    probes = np.column_stack([probe_vector(stream, 3000, "gaussian") for _ in range(100)])
    weighted, medians = [], []
    for ritz in slq(matrix.as_operator(), 100, probes):
        mixture = DiracMixture.from_arrays(ritz.values, ritz.weights)
        weighted.append(bulk_mean_random_vector(mixture, layers=20).bulk_mean)
        medians.append(bulk_median_gradient(ritz.values, layers=20).bulk_mean)
    weighted = np.array(weighted)
    medians = np.array(medians)
    ok = (4.7 <= weighted.mean() <= 5.4
          and 4.8 <= medians.mean() <= 5.5
          and medians.var(ddof=1) < weighted.var(ddof=1))
    _report(4, f"bulk-mean table: random-vector {weighted.mean():.3f} "
               f"(var {weighted.var(ddof=1):.4f}), gradient-median {medians.mean():.3f} "
               f"(var {medians.var(ddof=1):.5f})", ok)


def test_criterion_05_gauss_quadrature_exactness():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(20):
        dim = int(rng.integers(20, 101))
        a = rng.standard_normal((dim, dim))
        dense = DenseSymmetric(entries=(a + a.T) / (2.0 * np.sqrt(dim)))
        m = int(rng.integers(3, 11))
        seed = rng.standard_normal(dim)
        tri, basis = lanczos_run(dense.as_operator(), m, seed)
        ritz = ritz_decompose(tri, basis)
        for order in range(2 * ritz.steps):
            worst = max(worst, moment_match_check(dense.as_operator(), ritz, seed, order))
    ok = worst < 1e-7
    _report(5, f"Gauss quadrature exact to degree 2m-1, worst relative mismatch {worst:.2e}", ok)


def test_criterion_06_shift_invert_theorem():
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(50):
        dim = int(rng.integers(10, 60))
        a = rng.standard_normal((dim, dim))
        dense = DenseSymmetric(entries=(a + a.T) / (2.0 * np.sqrt(dim)))
        mu = float(rng.uniform(-3.0, 3.0))
        m = int(rng.integers(3, min(dim, 12)))
        seed = rng.standard_normal(dim)
        op = dense.as_operator()
        tri_a, basis_a = lanczos_run(op, m, seed)
        tri_b, basis_b = lanczos_run(apply_shifted(op, mu, negate=True), m, seed)
        direct = ritz_decompose(tri_b, basis_b).values
        mapped = np.sort(-ritz_decompose(tri_a, basis_a).values + mu)
        worst = max(worst, float(np.max(np.abs(mapped - direct))))
    ok = worst < 1e-10
    _report(6, f"shift-invert: Ritz values of -H+muI equal -theta+mu, worst {worst:.2e}", ok)


def test_criterion_07_kernel_smoothing_theorem():
    mixture = DiracMixture.from_arrays([0.0, 0.8, 2.5, 4.0, 7.5],
                                       [0.1, 0.3, 0.25, 0.25, 0.1])
    worst = 0.0
    for sigma in (0.1, 0.5, 1.0):
        for order in range(7):
            analytic = smoothed_moment(mixture, sigma, order)
            numeric = 0.0
            for loc, w in mixture.atoms:
                val, _ = quad(
                    lambda x, loc=loc: x**order
                    * np.exp(-((x - loc) ** 2) / (2 * sigma**2))
                    / (sigma * np.sqrt(2 * np.pi)),
                    loc - 14 * sigma, loc + 14 * sigma, limit=200)
                numeric += w * val
            worst = max(worst, abs(analytic - numeric) / max(1.0, abs(numeric)))
    bias_two = smoothing_bias(mixture, 0.4, 2)
    positive = all(smoothing_bias(mixture, 0.4, k) > 0 for k in range(2, 7))
    ok = worst < 1e-8 and bias_two == pytest.approx(0.16, rel=1e-12) and positive
    _report(7, f"kernel smoothing: analytic vs quadrature worst {worst:.2e}, "
               f"order-2 bias {bias_two:.4f} = sigma^2, biases positive", ok)


def test_criterion_08_hvp_finite_differences():
    data = make_blobs(50, 6, 3, separation=3.0, stream=SeedStream(3))
    rng = np.random.default_rng(4)
    worst = 0.0
    for trial in range(50):
        if trial % 2 == 0:
            model = LogisticRegressionModel(6, 3, weight_decay=0.01)
        else:
            model = MLPModel([6, 8, 3], stream=SeedStream(trial), weight_decay=0.005)
        model.set_params(rng.standard_normal(model.n_params) * 0.4)
        v = rng.standard_normal(model.n_params)
        hv = model.hessian_vector_product(data, v)
        eps = 1e-5
        base = model.get_params()
        model.set_params(base + eps * v)
        _, g_up = model.loss_and_gradient(data)
        model.set_params(base - eps * v)
        _, g_down = model.loss_and_gradient(data)
        fd = (g_up - g_down) / (2 * eps)
        worst = max(worst, float(np.linalg.norm(hv - fd) / np.linalg.norm(fd)))
    ok = worst < 1e-4
    _report(8, f"Hessian-vector products match finite differences, worst relative {worst:.2e}", ok)


def test_criterion_09_ggn_rank_bound():
    data = make_blobs(40, 8, 3, separation=3.0, stream=SeedStream(1))
    model = MLPModel([8, 10, 3], stream=SeedStream(2), weight_decay=0.0)
    ok = True
    ranks = []
    for t in range(1, 11):
        batch = data.batch(np.arange(t))
        dense = dense_curvature(model, batch, kind="ggn")
        vals, _ = dense_eigendecomposition(dense)
        rank = int(np.sum(vals > 1e-8 * vals[-1]))
        ranks.append(rank)
        ok = ok and rank <= 3 * t
    _report(9, f"MLP GGN numerical rank <= 3T for T=1..10 (ranks {ranks})", ok)


def test_criterion_10_heavy_ball_contraction():
    eigs = np.linspace(1.0, 9.0, 20)
    schedule = ssgdm_schedule(9.0, 1.0)
    x = np.ones_like(eigs)
    x_prev = x.copy()
    norms = []
    for _ in range(400):
        x, x_prev = x - schedule.alpha * eigs * x + schedule.beta * (x - x_prev), x
        norms.append(np.linalg.norm(x))
    rate = (norms[399] / norms[199]) ** (1.0 / 200.0)
    ok = 0.45 <= rate <= 0.55
    _report(10, f"heavy-ball asymptotic contraction {rate:.4f} vs sqrt(beta)=0.5", ok)


def _anisotropic_logistic_problem(seed):
    base = make_blobs(300, 20, 3, separation=3.0, stream=SeedStream(seed))
    scales = np.linspace(1.0, 60.0, 20)
    return Dataset(inputs=base.inputs * scales, labels=base.labels, n_classes=3)


def test_criterion_11_optimizer_ordering():
    ok = True
    details = []
    for seed in (1, 2, 3):
        data = _anisotropic_logistic_problem(seed)
        finals = {}
        for variant in ("ssgd", "ssgdm", "sgd_theoretical"):
            model = LogisticRegressionModel(20, 3, weight_decay=0.01)
            config = TrainConfig(batch_size=300, total_steps=2000, lanczos_steps=30,
                                 refresh_interval=100)
            trace = train(model, data, config, variant, SeedStream(seed * 10))
            finals[variant] = trace.losses[-1]
        ok = ok and finals["ssgdm"] <= finals["ssgd"] < finals["sgd_theoretical"]
        details.append({k: round(v, 5) for k, v in finals.items()})
    _report(11, f"final-loss ordering ssgdm <= ssgd < sgd_theoretical on 3/3 seeds: {details}",
            ok)


def test_criterion_12_outlier_detection():
    spec = PlantedSpectrumSpec(dim=600, groups=((582, "uniform", 0.0, 10.0),
                                                (18, "uniform", 95.0, 105.0)))
    matrix, _ = planted_matrix(spec, SeedStream(21))
    vals, _ = dense_eigendecomposition(matrix)
    count = count_outliers_gap(vals, 0.1).count

    block_ok = True
    for blocks in (((80, 2.0, 0.1), (40, 5.0, 0.1)),
                   ((60, 1.0, 0.05), (50, 2.0, 0.05), (40, 3.0, 0.05),
                    (30, 5.0, 0.05), (20, 8.0, 0.05))):
        rng = np.random.default_rng(9)
        parts = []
        for n, mu, sd in blocks:
            a = rng.standard_normal((n, n)) * sd
            parts.append(mu + (a + a.T) / 2.0)
        m = block_diag(*parts)
        dense = DenseSymmetric(entries=(m + m.T) / 2.0)
        block_vals, _ = dense_eigendecomposition(dense)
        prediction = predict_outliers_from_blocks(LayerBlockSpec(blocks=blocks))
        top = np.sort(block_vals)[::-1][: len(blocks)]
        rel = np.abs(top - np.array(prediction.predicted)) / np.array(prediction.predicted)
        block_ok = block_ok and prediction.separation_holds and rel.max() < 0.1
    ok = count == 18 and block_ok
    _report(12, f"gap scan counts {count}/18 planted outliers; block predictions "
                f"within 10% on 2- and 5-block matrices", ok)


def test_criterion_13_diagonal_inadequacy():
    cases = []
    wigner = sample_wigner(500, SeedStream(31))
    planted_spec = PlantedSpectrumSpec(dim=1000, groups=((980, "uniform", 0.0, 10.0),
                                                         (20, "uniform", 100.0, 300.0)))
    planted, _ = planted_matrix(planted_spec, SeedStream(33))
    ok = True
    for matrix, probe_seed in ((wigner, 32), (planted, 34)):
        vals, _ = dense_eigendecomposition(matrix)
        lam_max = float(vals[-1])
        diag_ratio = float(np.abs(np.diag(matrix.entries)).max()) / lam_max
        seed = probe_vector(SeedStream(probe_seed), matrix.dim, "gaussian")
        tri, basis = lanczos_run(matrix.as_operator(), 30, seed)
        ritz_top = ritz_decompose(tri, basis).lambda_max
        top_err = abs(ritz_top - lam_max) / lam_max
        ok = ok and diag_ratio < 0.5 and top_err < 0.02
        cases.append((round(diag_ratio, 3), f"{top_err:.1e}"))
    _report(13, f"diagonal misses lambda_max (max|diag|/lambda_max, Lanczos top error) "
                f"= {cases}", ok)


def test_criterion_14_seed_stability():
    data = make_blobs(300, 10, 3, separation=3.0, stream=SeedStream(5))
    model = LogisticRegressionModel(10, 3, weight_decay=0.01)
    rng = np.random.default_rng(3)
    model.set_params(rng.standard_normal(model.n_params) * 0.3)
    op = curvature_operator(model, data, kind="ggn")
    tops = []
    for probe_seed in (101, 202):
        seed = probe_vector(SeedStream(probe_seed), op.dim, "gaussian")
        tri, basis = lanczos_run(op, 20, seed)
        tops.append(ritz_decompose(tri, basis).lambda_max)
    spread = abs(tops[0] - tops[1]) / tops[0]
    ok = spread < 0.01
    _report(14, f"lambda_max across two probe seeds: {tops[0]:.6f} vs {tops[1]:.6f} "
                f"(relative spread {spread:.2e})", ok)


def test_criterion_15_lanczos_does_not_learn_eigenvalues_top_down():
    # zeros + bulk + a few outliers: after m = 30 steps the pairs at both ends
    # of the spectrum have converged, and most Ritz values lie in the bulk
    spec = PlantedSpectrumSpec(dim=1000, groups=((900, "const", 0.0, 0.0),
                                                 (95, "uniform", 1.0, 10.0),
                                                 (5, "uniform", 50.0, 300.0)))
    matrix, _ = planted_matrix(spec, SeedStream(5))
    eigenvalues, _ = dense_eigendecomposition(matrix, vectors=False)
    op = matrix.as_operator()
    seed = probe_vector(SeedStream(9), matrix.dim, "gaussian")
    m = 30
    ritz, = slq(op, m, seed[:, None])
    # residual ||H y_i - theta_i y_i|| = beta_m |s_{m,i}|; beta_m is the next
    # step's off-diagonal, and T_m is the leading block of the longer run's T
    tri, _ = lanczos_run(op, m + 1, seed)
    theta, s = np.linalg.eigh(tri.dense()[:m, :m])
    assert np.array_equal(theta, ritz.values)
    bounds = tri.betas[m - 1] * np.abs(s[-1])
    in_bulk = int(np.sum(theta < eigenvalues[-m]))
    converged = set(np.argsort(bounds)[:6].tolist())
    distance = np.abs(theta[:, None] - eigenvalues[None, :]).min(axis=1)
    allowance = matrix.dim * np.finfo(float).eps * np.abs(eigenvalues).max()
    ok = (in_bulk >= m // 3 and {0, m - 1} <= converged
          and bool(np.all(distance <= bounds + allowance)))
    _report(15, f"not top-down: {in_bulk}/{m} Ritz values below the {m}th-largest eigenvalue; "
                f"residuals at lambda_min {bounds[0]:.1e}, lambda_max {bounds[-1]:.1e}; "
                f"every Ritz value within its bound", ok)
