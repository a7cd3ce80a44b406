"""Command-line driver: rmt, spectrum, compare-diag, train, landscape, bounds-table."""

from __future__ import annotations

import argparse
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
    train.add_argument("--curvature", choices=optim.REFRESH_CURVATURES, default="ggn")
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

    for p in (rmt_cmd, bounds):  # the only commands that read --format
        p.add_argument("--format", choices=["json", "csv"], default=None,
                       help="restrict structured output to one format")
    return parser


def _rmt_operator(args, stream):
    """The sampled matrix, its operator block, and (planted only) the spectrum it rotated."""
    spectrum = None
    if args.ensemble == "wigner":
        matrix = rmt.sample_wigner(args.dim, stream)
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
        spec = rmt.PlantedSpectrumSpec.from_json(serialize.read_json(args.spec))
        matrix, spectrum = rmt.planted_matrix(spec, stream)
        info = {"kind": "planted", "dim": spec.dim, "label": "planted"}
    return matrix, info, spectrum


def _oracle_spectrum(matrix, spectrum):
    """Ascending eigenvalues: the planted ``spectrum`` when known, else a dense eigensolve."""
    if spectrum is not None:
        return spectrum
    return operators.dense_eigendecomposition(matrix, vectors=False)[0]


def _lanczos_mixture(op, steps, n_seeds, probe_kind, stream, keep_vectors=False):
    """Pooled mixture, per-probe decompositions, the spectrum file's ``lanczos`` block
    and a ``lanczos.probe<i>`` warning for each probe whose run broke down."""
    if n_seeds < 1:
        raise ValueError("--seeds must be >= 1")
    probes = np.empty((op.dim, n_seeds))
    for i in range(n_seeds):
        probes[:, i] = operators.probe_vector(stream, op.dim, probe_kind)
    decompositions = lanczos.slq(op, steps, probes, keep_vectors)
    mixture = density.average_over_seeds(decompositions)
    lanczos_info = {"steps": mixture.steps, "seeds": mixture.n_seeds, "probe_kind": probe_kind}
    planned = min(steps, op.dim)
    warnings = [f"lanczos.probe{i}: stopped after {d.steps} of {planned} steps; its Krylov "
                f"space is invariant, so it sees only {d.steps} eigenvalue(s)"
                for i, d in enumerate(decompositions) if d.steps < planned]
    return mixture, decompositions, lanczos_info, warnings


def _analysis_block(mixture, layers=1, mp=False):
    """The analysis block, and an ``analysis.<field>: <reason>`` warning for each null field."""
    block = {"lambda_max": float(mixture.locations[-1]), "mp_fit": None}
    warnings = []

    def estimate(field, compute):
        try:
            block[field] = compute()
        except ValueError as exc:
            block[field] = None
            warnings.append(f"analysis.{field}: {exc}")

    estimate("lambda_b", lambda: bulk.bulk_mean_random_vector(mixture, layers).bulk_mean)
    estimate("lambda_b_median",
             lambda: bulk.bulk_median_gradient(mixture.locations, layers).bulk_mean)
    estimate("outliers", lambda: bulk.count_outliers_gap(mixture.locations, GAP_THRESHOLD).count)
    if mp:
        def mp_fit():
            fit = rmt.fit_mp_to_bulk(mixture, excluded_outliers=block["outliers"] or 0,
                                     excluded_zero_modes=1)
            return {"variance": fit.variance, "ratio": fit.ratio,
                    "edge_lower": fit.edge_lower, "edge_upper": fit.edge_upper}
        estimate("mp_fit", mp_fit)
    return block, warnings


# Each cmd_* computes everything it writes and returns (artifacts, warnings): artifacts
# are (file name, writer, *payload) tuples, and main calls writer(out / name, *payload).
def cmd_rmt(args):
    stream = operators.SeedStream(args.seed)
    matrix, info, spectrum = _rmt_operator(args, stream)
    mixture, _, lanczos_info, warnings = _lanczos_mixture(matrix.as_operator(), args.steps,
                                                          args.seeds, args.probe, stream)
    analysis, refusals = _analysis_block(mixture, mp=args.ensemble == "wishart")
    document = serialize.spectrum_document(mixture, info, lanczos_info, analysis)
    artifacts = []
    if args.format != "csv":
        artifacts.append(("spectrum.json", serialize.write_json, document))
    if args.format != "json":
        artifacts.append(("stem.csv", serialize.write_stem_csv, mixture))
        if info["dim"] <= operators.ORACLE_DIM_CAP:
            artifacts.append(("oracle_hist.csv", serialize.write_histogram_csv,
                              _oracle_spectrum(matrix, spectrum)))
        else:
            warnings.append(f"oracle_hist.csv: not written; the dense oracle is capped at "
                            f"P={operators.ORACLE_DIM_CAP}, got P={info['dim']}")
    return artifacts, warnings + refusals


def cmd_spectrum(args):
    stream = operators.SeedStream(args.seed)
    model = models.model_from_checkpoint(serialize.read_json(args.checkpoint))
    dataset = models.dataset_from_spec(serialize.read_json(args.dataset))
    op = models.curvature_operator(model, dataset, kind=args.curvature)
    mixture, decompositions, lanczos_info, warnings = _lanczos_mixture(
        op, args.steps, args.seeds, args.probe, stream, keep_vectors=args.save_vectors)
    artifacts = []
    if args.save_vectors:
        lanczos_info["vectors_path"] = "ritz_vectors.npz"
        artifacts.append(("ritz_vectors.npz", serialize.write_ritz_vectors, decompositions[0]))
    analysis, refusals = _analysis_block(mixture, layers=args.layers)
    document = serialize.spectrum_document(
        mixture, {"kind": args.curvature, "dim": op.dim, "label": op.label}, lanczos_info, analysis)
    return artifacts + [("spectrum.json", serialize.write_json, document),
                        ("stem.csv", serialize.write_stem_csv, mixture)], warnings + refusals


def cmd_compare_diag(args):
    if args.ensemble != "planted" and args.dim > operators.ORACLE_DIM_CAP:  # before sampling
        raise ValueError(f"oracle eigendecomposition capped at P={operators.ORACLE_DIM_CAP}, "
                         f"got {args.dim}")
    stream = operators.SeedStream(args.seed)
    matrix, _, spectrum = _rmt_operator(args, stream)
    eigenvalues = _oracle_spectrum(matrix, spectrum)
    lambda_max = np.max(np.abs(eigenvalues))
    if lambda_max == 0:
        raise ValueError("max |eigenvalue| is 0: the diagonal ratio is undefined")
    diagonal = np.sort(np.diag(matrix.entries))
    mixture, _, _, warnings = _lanczos_mixture(matrix.as_operator(), args.steps, 1, "gaussian",
                                               stream)
    return [("compare_diag.csv", serialize.write_compare_diag_csv, eigenvalues, diagonal,
             mixture, np.max(np.abs(diagonal)) / lambda_max)], warnings


def cmd_train(args):
    dataset = models.dataset_from_spec(serialize.read_json(args.dataset))
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
    trace = optim.train(model, dataset, config, args.variant, stream.spawn(2))
    return [("trace.csv", serialize.write_trace_csv, trace),
            ("checkpoint.json", serialize.write_json, models.checkpoint_dict(model))], trace.warnings


def cmd_landscape(args):
    ritz = serialize.read_ritz_vectors(args.spectrum)
    model = models.model_from_checkpoint(serialize.read_json(args.checkpoint))
    dataset = models.dataset_from_spec(serialize.read_json(args.dataset))
    landscape = optim.loss_landscape(model, dataset, ritz, args.dist, args.n_points,
                                     n_directions=args.directions)
    return [("landscape.csv", serialize.write_landscape_csv, landscape)], []


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
    if args.format == "json":
        return [("bounds_table.json", serialize.write_json,
                 [{"gap": g, "m": m, "lanczos_bound": lb, "power_bound": pb, "ratio": r}
                  for g, m, lb, pb, r in table])], []
    return [("bounds_table.csv", serialize.write_bounds_csv, table)], []


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
        # an overflow, invalid value or division by zero is a refusal, not a printed warning
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            started = time.perf_counter()
            artifacts, warnings = COMMANDS[args.command](args)
            wall_time = time.perf_counter() - started
            args.out.mkdir(parents=True, exist_ok=True)  # so a refusal leaves no --out
            for name, write, *payload in artifacts:
                write(args.out / name, *payload)
            # the run record comes last, so a manifest means every artifact it lists exists
            serialize.write_json(args.out / "manifest.json", {
                "command": args.command, "seed": args.seed,
                "flags": {key: str(value) for key, value in vars(args).items() if key != "command"},
                "wall_time_s": wall_time, "artifacts": [name for name, *_ in artifacts],
                "warnings": warnings})
    except (ValueError, OSError, KeyError, FloatingPointError, RuntimeError, MemoryError) as exc:
        print(f"curvlens {args.command}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
