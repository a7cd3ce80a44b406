"""Command-line driver: rmt, spectrum, compare-diag, train, landscape, bounds-table."""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

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

    rmt = sub.add_parser("rmt", help="random-matrix spectra via Lanczos vs dense oracle")
    rmt.add_argument("--ensemble", choices=["wigner", "wishart", "planted"], required=True)
    rmt.add_argument("--dim", type=_count, default=1000)
    rmt.add_argument("--ratio", type=float, default=2.0, help="Wishart ratio q = P/T")
    rmt.add_argument("--spec", type=Path, help="planted-spectrum JSON description")
    rmt.add_argument("--steps", type=_count, default=30)
    rmt.add_argument("--seeds", type=_count, default=1, help="number of probe vectors n_v")
    rmt.add_argument("--probe", choices=["gaussian", "rademacher"], default="gaussian")
    common(rmt)

    spectrum = sub.add_parser("spectrum", help="curvature spectrum of a model checkpoint")
    spectrum.add_argument("--checkpoint", type=Path, required=True)
    spectrum.add_argument("--dataset", type=Path, required=True, help="dataset spec JSON")
    spectrum.add_argument("--curvature", choices=["hessian", "ggn", "abs_hessian"], default="ggn")
    spectrum.add_argument("--steps", type=_count, default=30)
    spectrum.add_argument("--seeds", type=_count, default=1)
    spectrum.add_argument("--probe", choices=["gaussian", "rademacher"], default="rademacher")
    spectrum.add_argument("--layers", type=_count, default=1, help="outliers to discount for lambda_b")
    spectrum.add_argument("--save-vectors", action="store_true",
                          help="retain Ritz vectors (needed by the landscape command)")
    common(spectrum)

    compare = sub.add_parser("compare-diag", help="oracle spectrum vs diagonal vs Lanczos atoms")
    compare.add_argument("--source", dest="ensemble", choices=["wigner", "wishart", "planted"],
                         required=True)
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
    train.add_argument("--variant", required=True,
                       choices=["ssgd", "ssgdm", "sgd_fixed", "sgdm_fixed",
                                "sgd_theoretical", "sgdm_theoretical"])
    train.add_argument("--steps", type=_count, default=2000, help="total optimizer steps")
    train.add_argument("--batch", type=_count, default=0, help="batch size; 0 means full batch")
    train.add_argument("--refresh", type=_count, default=100, help="Lanczos refresh interval n_l")
    train.add_argument("--lanczos-steps", type=_count, default=30)
    train.add_argument("--layers", type=_count, default=1)
    train.add_argument("--seed-kind", choices=["random", "gradient"], default="random")
    train.add_argument("--curvature", choices=["ggn", "abs_hessian"], default="ggn")
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

    for p in (rmt, spectrum, bounds):  # the only commands that read --format
        p.add_argument("--format", choices=["json", "csv"], default=None,
                       help="restrict structured output to one format")
    return parser


def _rmt_operator(args, stream):
    from curvlens import rmt as rmt_mod

    if args.ensemble == "wigner":
        matrix = rmt_mod.sample_wigner(args.dim, stream, normalized=True)
        info = {"kind": "wigner_normalized", "dim": args.dim, "label": "wigner"}
    elif args.ensemble == "wishart":
        t_samples = max(int(round(args.dim / args.ratio)), 1)
        matrix = rmt_mod.sample_wishart(args.dim, t_samples, stream)
        info = {"kind": "wishart", "dim": args.dim, "label": f"wishart_q{args.ratio}"}
    else:
        if args.spec is None:
            raise ValueError("planted ensemble requires --spec")
        spec = rmt_mod.PlantedSpectrumSpec.from_json(args.spec.read_text())
        matrix, _ = rmt_mod.planted_matrix(spec, stream)
        info = {"kind": "planted", "dim": spec.dim, "label": "planted"}
    return matrix, info


def _lanczos_mixture(op, steps, n_seeds, probe_kind, stream, keep_vectors=False):
    """Pooled mixture, per-probe decompositions and the spectrum file's ``lanczos`` block."""
    from curvlens.density import average_over_seeds
    from curvlens.lanczos import lanczos_run, ritz_decompose
    from curvlens.operators import probe_vector

    steps = min(steps, op.dim)
    decompositions = []
    for _ in range(n_seeds):
        seed = probe_vector(stream, op.dim, probe_kind)
        tri, basis = lanczos_run(op, steps, seed)
        decompositions.append(ritz_decompose(tri, basis if keep_vectors else None,
                                             seed_kind=probe_kind))
    lanczos_info = {"steps": steps, "seeds": n_seeds, "probe_kind": probe_kind}
    return average_over_seeds(decompositions), decompositions, lanczos_info


def _analysis_block(mixture, layers=1, mp=False):
    from curvlens.bulk import bulk_mean_random_vector, bulk_median_gradient, count_outliers_gap
    from curvlens.rmt import fit_mp_to_bulk

    block = {"lambda_max": float(mixture.locations[-1]),
             "lambda_b": None, "lambda_b_median": None, "outliers": None, "mp_fit": None}
    try:
        block["lambda_b"] = bulk_mean_random_vector(mixture, layers).bulk_mean
    except ValueError:
        pass
    try:
        block["lambda_b_median"] = bulk_median_gradient(mixture.locations, layers).bulk_mean
    except ValueError:
        pass
    outlier_count = None
    try:
        report = count_outliers_gap(mixture.locations, GAP_THRESHOLD)
        outlier_count = report.count
        block["outliers"] = report.count
    except ValueError:
        pass
    if mp:
        try:
            fit = fit_mp_to_bulk(mixture, excluded_outliers=outlier_count or 0,
                                 excluded_zero_modes=1)
            block["mp_fit"] = {"variance": fit.variance, "ratio": fit.ratio,
                               "edge_lower": fit.edge_lower, "edge_upper": fit.edge_upper}
        except ValueError:
            pass
    return block


def cmd_rmt(args):
    from curvlens.operators import ORACLE_DIM_CAP, SeedStream, dense_eigendecomposition
    from curvlens import serialize

    stream = SeedStream(args.seed)
    matrix, info = _rmt_operator(args, stream)
    mixture, _, lanczos_info = _lanczos_mixture(matrix.as_operator(), args.steps, args.seeds,
                                                args.probe, stream)
    args.out.mkdir(parents=True, exist_ok=True)
    document = serialize.spectrum_document(
        mixture, info, lanczos_info, _analysis_block(mixture, mp=args.ensemble == "wishart"))
    artifacts = []
    if args.format != "csv":
        serialize.write_json(args.out / "spectrum.json", document)
        artifacts.append(args.out / "spectrum.json")
    if args.format != "json":
        serialize.write_stem_csv(args.out / "stem.csv", mixture)
        artifacts.append(args.out / "stem.csv")
        if info["dim"] <= ORACLE_DIM_CAP:
            eigenvalues, _ = dense_eigendecomposition(matrix, vectors=False)
            serialize.write_histogram_csv(args.out / "oracle_hist.csv", eigenvalues)
            artifacts.append(args.out / "oracle_hist.csv")
    return artifacts


def cmd_spectrum(args):
    from curvlens.models import curvature_operator, dataset_from_spec, model_from_checkpoint
    from curvlens.operators import SeedStream
    from curvlens import serialize

    stream = SeedStream(args.seed)
    model = model_from_checkpoint(json.loads(args.checkpoint.read_text()))
    dataset = dataset_from_spec(args.dataset.read_text())
    op = curvature_operator(model, dataset, kind=args.curvature)
    mixture, decompositions, lanczos_info = _lanczos_mixture(
        op, args.steps, args.seeds, args.probe, stream, keep_vectors=args.save_vectors)
    args.out.mkdir(parents=True, exist_ok=True)
    artifacts = []
    if args.save_vectors:
        vectors_path = args.out / "ritz_vectors.npz"
        serialize.write_ritz_vectors(vectors_path, decompositions[0])
        lanczos_info["vectors_path"] = vectors_path.name
        artifacts.append(vectors_path)
    document = serialize.spectrum_document(
        mixture,
        {"kind": args.curvature, "dim": op.dim, "label": op.label},
        lanczos_info,
        _analysis_block(mixture, layers=args.layers),
    )
    serialize.write_json(args.out / "spectrum.json", document)
    artifacts.append(args.out / "spectrum.json")
    if args.format != "json":
        serialize.write_stem_csv(args.out / "stem.csv", mixture)
        artifacts.append(args.out / "stem.csv")
    return artifacts


def cmd_compare_diag(args):
    import numpy as np

    from curvlens.operators import SeedStream, dense_eigendecomposition
    from curvlens import serialize

    stream = SeedStream(args.seed)
    matrix, _ = _rmt_operator(args, stream)
    eigenvalues, _ = dense_eigendecomposition(matrix, vectors=False)
    diagonal = np.sort(np.diag(matrix.entries))
    mixture, _, _ = _lanczos_mixture(matrix.as_operator(), args.steps, 1, "gaussian", stream)
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / "compare_diag.csv"
    diag_ratio = np.max(np.abs(diagonal)) / np.max(np.abs(eigenvalues))
    serialize.write_compare_diag_csv(path, eigenvalues, diagonal, mixture, diag_ratio)
    return [path]


def cmd_train(args):
    from curvlens.models import (LogisticRegressionModel, MLPModel, checkpoint_dict,
                                 dataset_from_spec)
    from curvlens.operators import SeedStream
    from curvlens.optim import TrainConfig, train
    from curvlens import serialize

    dataset = dataset_from_spec(args.dataset.read_text())
    stream = SeedStream(args.seed)
    if args.model == "logistic":
        model = LogisticRegressionModel(dataset.inputs.shape[1], dataset.n_classes,
                                        weight_decay=args.gamma)
    else:
        hidden = [int(s) for s in args.hidden.split(",") if s]
        sizes = [dataset.inputs.shape[1], *hidden, dataset.n_classes]
        model = MLPModel(sizes, stream=stream.spawn(1), weight_decay=args.gamma)
    batch = args.batch if args.batch > 0 else dataset.n_samples
    config = TrainConfig(batch_size=batch, total_steps=args.steps,
                         lanczos_steps=args.lanczos_steps, refresh_interval=args.refresh,
                         curvature=args.curvature, layers=args.layers,
                         seed_kind=args.seed_kind,
                         fixed_alpha=args.alpha, fixed_beta=args.beta)
    started = time.time()
    trace = train(model, dataset, config, args.variant, stream.spawn(2))
    args.out.mkdir(parents=True, exist_ok=True)
    trace_path = args.out / "trace.csv"
    serialize.write_trace_csv(trace_path, trace)
    ckpt_path = args.out / "checkpoint.json"
    serialize.write_json(ckpt_path, checkpoint_dict(model))
    manifest_path = args.out / "manifest.json"
    flags = {k: str(v) for k, v in vars(args).items() if k != "command"}
    flags["diverged"] = str(trace.diverged)
    serialize.write_manifest(manifest_path, "train", flags, args.seed,
                             time.time() - started, [trace_path, ckpt_path], trace.warnings)
    return [trace_path, ckpt_path, manifest_path]


def cmd_landscape(args):
    from curvlens.models import dataset_from_spec, model_from_checkpoint
    from curvlens.optim import loss_landscape
    from curvlens import serialize

    ritz = serialize.read_ritz_vectors(args.spectrum)
    model = model_from_checkpoint(json.loads(args.checkpoint.read_text()))
    dataset = dataset_from_spec(args.dataset.read_text())
    landscape = loss_landscape(model, dataset, ritz, args.dist, args.n_points,
                               n_directions=args.directions)
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / "landscape.csv"
    serialize.write_landscape_csv(path, landscape)
    return [path]


def cmd_bounds_table(args):
    from curvlens.lanczos import chebyshev_bound_ratio
    from curvlens import serialize

    gaps = [float(g) for g in args.gaps.split(",") if g]
    steps = [int(m) for m in args.steps.split(",") if m]
    table = []
    for gap in gaps:
        for m in steps:
            lanczos_bound, power_bound = chebyshev_bound_ratio(gap, m)
            table.append((gap, m, lanczos_bound, power_bound, lanczos_bound / power_bound))
    args.out.mkdir(parents=True, exist_ok=True)
    if args.format == "json":
        path = args.out / "bounds_table.json"
        serialize.write_json(path, [{"gap": g, "m": m, "lanczos_bound": lb, "power_bound": pb,
                                     "ratio": r} for g, m, lb, pb, r in table])
    else:
        path = args.out / "bounds_table.csv"
        serialize.write_bounds_csv(path, table)
    return [path]


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
