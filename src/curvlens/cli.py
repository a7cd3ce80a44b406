"""Command-line driver: rmt, spectrum, compare-diag, train, landscape, bounds-table."""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from curvlens import bulk, density, lanczos, models, operators, optim, rmt, serialize

GAP_THRESHOLD = 0.1  # relative eigenvalue gap that separates outliers from the bulk


def _count(text):
    """argparse type for a nonnegative integer: a count or a seed."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def build_parser():
    parser = argparse.ArgumentParser(prog="curvlens",
                                     description="Matrix-free curvature spectroscopy toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=_count, default=0, help="RNG seed; all output is reproducible")
        p.add_argument("--out", type=Path, required=True, help="output directory")

    rmt_cmd = sub.add_parser("rmt", help="random-matrix spectra via Lanczos vs dense oracle")
    rmt_cmd.add_argument("--ensemble", choices=rmt.ENSEMBLES, required=True)
    rmt_cmd.add_argument("--dim", type=_count, default=1000)
    rmt_cmd.add_argument("--ratio", type=float, default=2.0, help="Wishart ratio q = P/T")
    rmt_cmd.add_argument("--spec", type=Path, help="planted-spectrum JSON description")
    rmt_cmd.add_argument("--steps", type=_count, default=30)
    rmt_cmd.add_argument("--seeds", type=_count, default=1, help="number of probe vectors n_v")
    rmt_cmd.add_argument("--probe", choices=operators.PROBE_KINDS, default="gaussian")
    common(rmt_cmd)

    spectrum = sub.add_parser("spectrum", help="curvature spectrum of a model checkpoint")
    spectrum.add_argument("--checkpoint", type=Path, required=True)
    spectrum.add_argument("--dataset", type=Path, required=True, help="dataset spec JSON")
    spectrum.add_argument("--curvature", choices=models.CURVATURE_KINDS, default="ggn")
    spectrum.add_argument("--steps", type=_count, default=30)
    spectrum.add_argument("--seeds", type=_count, default=1)
    spectrum.add_argument("--probe", choices=operators.PROBE_KINDS, default="rademacher")
    spectrum.add_argument("--layers", type=_count, default=1, help="outliers to discount for lambda_b")
    spectrum.add_argument("--save-vectors", action="store_true",
                          help="retain Ritz vectors (needed by the landscape command)")
    common(spectrum)

    compare = sub.add_parser("compare-diag", help="oracle spectrum vs diagonal vs Lanczos atoms")
    compare.add_argument("--source", dest="ensemble", choices=rmt.ENSEMBLES, required=True)
    compare.add_argument("--dim", type=_count, default=500)
    compare.add_argument("--ratio", type=float, default=2.0)
    compare.add_argument("--spec", type=Path)
    compare.add_argument("--steps", type=_count, default=30)
    common(compare)

    train = sub.add_parser("train", help="train a desk-scale model with a schedule variant")
    train.add_argument("--dataset", type=Path, required=True)
    train.add_argument("--model", choices=["logistic", "mlp"], default="logistic")
    train.add_argument("--hidden", type=str, default="16", help="comma-separated MLP hidden sizes")
    train.add_argument("--gamma", type=float, default=0.01, help="L2 weight decay")
    train.add_argument("--variant", required=True, choices=optim.ALL_VARIANTS)
    train.add_argument("--steps", type=_count, default=2000, help="total optimizer steps")
    train.add_argument("--batch", type=_count, default=0, help="batch size; 0 means full batch")
    train.add_argument("--refresh", type=_count, default=100, help="Lanczos refresh interval n_l")
    train.add_argument("--lanczos-steps", type=_count, default=30)
    train.add_argument("--layers", type=_count, default=1)
    train.add_argument("--seed-kind", choices=optim.SEED_KINDS, default="random")
    train.add_argument("--curvature", choices=models.CURVATURE_KINDS, default="ggn")
    train.add_argument("--alpha", type=float, default=0.05, help="fixed-variant learning rate")
    train.add_argument("--beta", type=float, default=0.9, help="fixed-variant momentum")
    common(train)

    landscape = sub.add_parser("landscape", help="loss traversal along saved Ritz directions")
    landscape.add_argument("--checkpoint", type=Path, required=True)
    landscape.add_argument("--dataset", type=Path, required=True)
    landscape.add_argument("--spectrum", type=Path, required=True)
    landscape.add_argument("--dist", type=float, default=0.25)
    landscape.add_argument("--n-points", type=_count, default=21)
    landscape.add_argument("--directions", type=_count, default=6)
    common(landscape)

    bounds = sub.add_parser("bounds-table", help="Lanczos vs power-iteration bound table")
    bounds.add_argument("--gaps", type=str, default="1.5,1.1,1.01")
    bounds.add_argument("--steps", type=str, default="5,10,15,20")
    common(bounds)

    for p in (rmt_cmd, spectrum, bounds):  # the only commands that read --format
        p.add_argument("--format", choices=["json", "csv"], default=None,
                       help="restrict structured output to one format")
    return parser


def _rmt_operator(args, stream):
    if args.ensemble == "wigner":
        matrix = rmt.sample_wigner(args.dim, stream, normalized=True)
        info = {"kind": "wigner_normalized", "dim": args.dim, "label": "wigner"}
    elif args.ensemble == "wishart":
        if not 0.0 < args.ratio < np.inf:
            raise ValueError(f"--ratio must be positive and finite, got {args.ratio}")
        samples = args.dim / args.ratio
        if not samples < np.inf:
            raise ValueError("the Wishart sample count --dim / --ratio = "
                             f"{args.dim} / {args.ratio} is not finite")
        t_samples = max(int(round(samples)), 1)
        if args.dim * t_samples > operators.ORACLE_DIM_CAP ** 2:
            raise ValueError(f"a {args.dim} x {t_samples} Wishart sample exceeds "
                             f"{operators.ORACLE_DIM_CAP ** 2} entries; raise --ratio")
        matrix = rmt.sample_wishart(args.dim, t_samples, stream)
        info = {"kind": "wishart", "dim": args.dim, "label": f"wishart_q{args.ratio}"}
    else:
        if args.spec is None:
            raise ValueError("planted ensemble requires --spec")
        spec = rmt.PlantedSpectrumSpec.from_json(args.spec.read_text())
        matrix, _ = rmt.planted_matrix(spec, stream)
        info = {"kind": "planted", "dim": spec.dim, "label": "planted"}
    return matrix, info


def _lanczos_mixture(op, steps, n_seeds, probe_kind, stream, keep_vectors=False):
    """Pooled mixture, per-probe decompositions and the spectrum file's ``lanczos`` block."""
    probes = np.empty((op.dim, n_seeds))
    for i in range(n_seeds):
        probes[:, i] = operators.probe_vector(stream, op.dim, probe_kind)
    decompositions = lanczos.slq(op, steps, probes, keep_vectors, seed_kind=probe_kind)
    mixture = density.average_over_seeds(decompositions)
    lanczos_info = {"steps": mixture.steps, "seeds": mixture.n_seeds, "probe_kind": probe_kind}
    return mixture, decompositions, lanczos_info


def _analysis_block(mixture, layers=1, mp=False):
    block = {"lambda_max": float(mixture.locations[-1]),
             "lambda_b": None, "lambda_b_median": None, "outliers": None, "mp_fit": None}
    try:
        block["lambda_b"] = bulk.bulk_mean_random_vector(mixture, layers).bulk_mean
    except ValueError:
        pass
    try:
        block["lambda_b_median"] = bulk.bulk_median_gradient(mixture.locations, layers).bulk_mean
    except ValueError:
        pass
    outlier_count = None
    try:
        report = bulk.count_outliers_gap(mixture.locations, GAP_THRESHOLD)
        outlier_count = report.count
        block["outliers"] = report.count
    except ValueError:
        pass
    if mp:
        try:
            fit = rmt.fit_mp_to_bulk(mixture, excluded_outliers=outlier_count or 0,
                                     excluded_zero_modes=1)
            block["mp_fit"] = {"variance": fit.variance, "ratio": fit.ratio,
                               "edge_lower": fit.edge_lower, "edge_upper": fit.edge_upper}
        except ValueError:
            pass
    return block


def cmd_rmt(args):
    stream = operators.SeedStream(args.seed)
    matrix, info = _rmt_operator(args, stream)
    mixture, _, lanczos_info = _lanczos_mixture(matrix.as_operator(), args.steps, args.seeds,
                                                args.probe, stream)
    args.out.mkdir(parents=True, exist_ok=True)
    document = serialize.spectrum_document(
        mixture, info, lanczos_info, _analysis_block(mixture, mp=args.ensemble == "wishart"))
    if args.format != "csv":
        serialize.write_json(args.out / "spectrum.json", document)
    if args.format != "json":
        serialize.write_stem_csv(args.out / "stem.csv", mixture)
        if info["dim"] <= operators.ORACLE_DIM_CAP:
            eigenvalues, _ = operators.dense_eigendecomposition(matrix, vectors=False)
            serialize.write_histogram_csv(args.out / "oracle_hist.csv", eigenvalues)


def cmd_spectrum(args):
    stream = operators.SeedStream(args.seed)
    model = models.model_from_checkpoint(json.loads(args.checkpoint.read_text()))
    dataset = models.dataset_from_spec(args.dataset.read_text())
    op = models.curvature_operator(model, dataset, kind=args.curvature)
    mixture, decompositions, lanczos_info = _lanczos_mixture(
        op, args.steps, args.seeds, args.probe, stream, keep_vectors=args.save_vectors)
    args.out.mkdir(parents=True, exist_ok=True)
    if args.save_vectors:
        vectors_path = args.out / "ritz_vectors.npz"
        serialize.write_ritz_vectors(vectors_path, decompositions[0])
        lanczos_info["vectors_path"] = vectors_path.name
    document = serialize.spectrum_document(
        mixture,
        {"kind": args.curvature, "dim": op.dim, "label": op.label},
        lanczos_info,
        _analysis_block(mixture, layers=args.layers),
    )
    serialize.write_json(args.out / "spectrum.json", document)
    if args.format != "json":
        serialize.write_stem_csv(args.out / "stem.csv", mixture)


def cmd_compare_diag(args):
    stream = operators.SeedStream(args.seed)
    matrix, _ = _rmt_operator(args, stream)
    eigenvalues, _ = operators.dense_eigendecomposition(matrix, vectors=False)
    diagonal = np.sort(np.diag(matrix.entries))
    mixture, _, _ = _lanczos_mixture(matrix.as_operator(), args.steps, 1, "gaussian", stream)
    args.out.mkdir(parents=True, exist_ok=True)
    diag_ratio = np.max(np.abs(diagonal)) / np.max(np.abs(eigenvalues))
    serialize.write_compare_diag_csv(args.out / "compare_diag.csv", eigenvalues, diagonal,
                                     mixture, diag_ratio)


def cmd_train(args):
    dataset = models.dataset_from_spec(args.dataset.read_text())
    stream = operators.SeedStream(args.seed)
    if args.model == "logistic":
        model = models.LogisticRegressionModel(dataset.inputs.shape[1], dataset.n_classes,
                                               weight_decay=args.gamma)
    else:
        hidden = [int(s) for s in args.hidden.split(",") if s]
        sizes = [dataset.inputs.shape[1], *hidden, dataset.n_classes]
        model = models.MLPModel(sizes, stream=stream.spawn(1), weight_decay=args.gamma)
    batch = args.batch if args.batch > 0 else dataset.n_samples
    config = optim.TrainConfig(batch_size=batch, total_steps=args.steps,
                               lanczos_steps=args.lanczos_steps, refresh_interval=args.refresh,
                               curvature=args.curvature, layers=args.layers,
                               seed_kind=args.seed_kind,
                               fixed_alpha=args.alpha, fixed_beta=args.beta)
    started = time.time()
    trace = optim.train(model, dataset, config, args.variant, stream.spawn(2))
    args.out.mkdir(parents=True, exist_ok=True)
    trace_path = args.out / "trace.csv"
    serialize.write_trace_csv(trace_path, trace)
    ckpt_path = args.out / "checkpoint.json"
    serialize.write_json(ckpt_path, models.checkpoint_dict(model))
    flags = {k: str(v) for k, v in vars(args).items() if k != "command"}
    flags["diverged"] = str(trace.diverged)
    serialize.write_manifest(args.out / "manifest.json", "train", flags, args.seed,
                             time.time() - started, [trace_path, ckpt_path], trace.warnings)


def cmd_landscape(args):
    ritz = serialize.read_ritz_vectors(args.spectrum)
    model = models.model_from_checkpoint(json.loads(args.checkpoint.read_text()))
    dataset = models.dataset_from_spec(args.dataset.read_text())
    landscape = optim.loss_landscape(model, dataset, ritz, args.dist, args.n_points,
                                     n_directions=args.directions)
    args.out.mkdir(parents=True, exist_ok=True)
    serialize.write_landscape_csv(args.out / "landscape.csv", landscape)


def cmd_bounds_table(args):
    gaps = [float(g) for g in args.gaps.split(",") if g]
    steps = [int(m) for m in args.steps.split(",") if m]
    if not gaps or not steps:
        raise ValueError("--gaps and --steps must each list at least one value")
    table = []
    for gap in gaps:
        for m in steps:
            lanczos_bound, power_bound = lanczos.chebyshev_bound_ratio(gap, m)
            table.append((gap, m, lanczos_bound, power_bound, lanczos_bound / power_bound))
    args.out.mkdir(parents=True, exist_ok=True)
    if args.format == "json":
        serialize.write_json(args.out / "bounds_table.json",
                             [{"gap": g, "m": m, "lanczos_bound": lb, "power_bound": pb,
                               "ratio": r} for g, m, lb, pb, r in table])
    else:
        serialize.write_bounds_csv(args.out / "bounds_table.csv", table)


COMMANDS = {
    "rmt": cmd_rmt,
    "spectrum": cmd_spectrum,
    "compare-diag": cmd_compare_diag,
    "train": cmd_train,
    "landscape": cmd_landscape,
    "bounds-table": cmd_bounds_table,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        COMMANDS[args.command](args)
    except (ValueError, OSError, KeyError, FloatingPointError, RuntimeError) as exc:
        print(f"curvlens {args.command}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
