"""Machine-readable artifacts: spectrum JSON, Ritz vectors, CSV tables, checkpoints, manifests."""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from curvlens.density import DiracMixture
from curvlens.lanczos import RitzDecomposition

SCHEMA_VERSION = 1


def canonical_json(obj):
    """Deterministic JSON text; floats use the shortest round-trip decimals."""
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def spectrum_document(mixture, operator_info, lanczos_info, analysis):
    """Assemble the spectrum-file dict: schema header, atoms and analysis block."""
    atoms = [{"value": float(loc), "weight": float(w)} for loc, w in mixture.atoms]
    return {
        "schema_version": SCHEMA_VERSION,
        "operator": dict(operator_info),
        "lanczos": dict(lanczos_info),
        "atoms": atoms,
        "analysis": dict(analysis),
    }


def write_json(path, obj):
    Path(path).write_text(canonical_json(obj))


def read_spectrum(path):
    """The spectrum document at ``path``; its atoms must form a valid ``DiracMixture``."""
    document = json.loads(Path(path).read_text())
    if document.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"unsupported spectrum schema version {document.get('schema_version')}")
    mixture_from_document(document)
    return document


def mixture_from_document(document):
    atoms = tuple((a["value"], a["weight"]) for a in document["atoms"])
    return DiracMixture(atoms=atoms,
                        n_seeds=int(document["lanczos"].get("seeds", 1)),
                        steps=int(document["lanczos"].get("steps", 0)))


def write_ritz_vectors(path, ritz):
    np.savez(path, values=ritz.values, weights=ritz.weights, vectors=ritz.vectors)


def read_ritz_vectors(spectrum_path):
    """The Ritz decomposition whose file the spectrum file's ``lanczos.vectors_path`` names."""
    spectrum_path = Path(spectrum_path)
    name = read_spectrum(spectrum_path)["lanczos"].get("vectors_path")
    if not name:
        raise ValueError("spectrum file has no Ritz vectors; "
                         "re-run the spectrum command with --save-vectors")
    with np.load(spectrum_path.parent / name) as data:
        return RitzDecomposition(values=data["values"], weights=data["weights"],
                                 vectors=data["vectors"])


def _write_rows(path, header, rows):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(x)) if isinstance(x, (float, np.floating)) else x
                             for x in row])


def write_stem_csv(path, mixture):
    _write_rows(path, ["value", "weight"],
                [(float(loc), float(w)) for loc, w in mixture.atoms])


def write_histogram_csv(path, eigenvalues):
    weight = 1.0 / len(eigenvalues)
    _write_rows(path, ["eigenvalue", "weight"], [(float(v), weight) for v in eigenvalues])


def write_compare_diag_csv(path, eigenvalues, diagonal, mixture, diag_ratio):
    """Oracle eigenvalues, diagonal entries and Lanczos atoms (blank past the last) by rank."""
    atoms = list(mixture.atoms) + [("", "")] * (len(eigenvalues) - len(mixture.atoms))
    rows = [(eig, diag, loc, w) for eig, diag, (loc, w) in zip(eigenvalues, diagonal, atoms)]
    rows.append(("max_abs_diag_over_lambda_max", diag_ratio, "", ""))
    _write_rows(path, ["oracle_eigenvalue", "diagonal_entry", "lanczos_atom", "lanczos_weight"],
                rows)


def write_trace_csv(path, trace):
    refresh_at = {step: (lmax, lbulk) for step, lmax, lbulk, _, _ in trace.refreshes}
    rows = []
    lam_max = lam_bulk = float("nan")
    for step, (loss, (alpha, beta)) in enumerate(zip(trace.losses, trace.schedule_per_step)):
        if step in refresh_at:
            lam_max, lam_bulk = refresh_at[step]
        rows.append((step, float(loss), float(alpha), float(beta), float(lam_max), float(lam_bulk)))
    _write_rows(path, ["step", "loss", "alpha", "beta", "lambda_max", "lambda_b"], rows)


def write_landscape_csv(path, landscape):
    rows = []
    for row, (idx, eig) in enumerate(zip(landscape.direction_indices, landscape.eigenvalues)):
        for col, t in enumerate(landscape.distances):
            test = (float(landscape.test_losses[row, col])
                    if landscape.test_losses is not None else "")
            rows.append((idx, float(eig), float(t), float(landscape.train_losses[row, col]), test))
    _write_rows(path, ["direction_index", "eigenvalue", "t", "train_loss", "test_loss"], rows)


def write_bounds_csv(path, table):
    _write_rows(path, ["gap", "m", "lanczos_bound", "power_bound", "ratio"], table)


def write_manifest(path, command, flags, seed, wall_time, artifacts, warnings):
    document = {
        "command": command,
        "flags": dict(flags),
        "seed": int(seed),
        "wall_time_s": float(wall_time),
        "artifacts": [str(a) for a in artifacts],
        "warnings": [str(w) for w in warnings],
    }
    write_json(path, document)
