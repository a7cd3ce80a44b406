"""Machine-readable artifacts: spectrum JSON, Ritz vectors, CSV tables, checkpoints."""

from __future__ import annotations

import csv
import json
import zipfile
from pathlib import Path

import numpy as np

from curvlens.density import DiracMixture
from curvlens.lanczos import RitzDecomposition
from curvlens.operators import _spec_float, _spec_int, _spec_keys

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


def read_json(path):
    """The JSON document in the file at ``path``; text that is not UTF-8 JSON is refused."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # decoding and parse errors alike
        raise ValueError(f"{path} is not UTF-8 JSON: {exc}") from None


def read_spectrum(path):
    """The spectrum document at ``path``, checked by ``mixture_from_document``; refusals name the file."""
    document = read_json(path)
    try:
        mixture_from_document(document)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return document


def mixture_from_document(document):
    """The ``DiracMixture`` a spectrum document holds; a document of the wrong shape is refused."""
    _spec_keys(document, ("schema_version", "lanczos", "atoms"), ("operator", "analysis"), "")
    if document["schema_version"] != SCHEMA_VERSION:
        raise ValueError(f"unsupported spectrum schema version {document['schema_version']!r}")
    info, where = document["lanczos"], "lanczos block: "
    _spec_keys(info, (), ("steps", "seeds", "probe_kind", "vectors_path"), where)
    if not isinstance(info.get("vectors_path", ""), str):
        raise ValueError(f"{where}vectors_path must be a string, got {info['vectors_path']!r}")
    if not isinstance(document["atoms"], list):
        raise ValueError(f"atoms must be a JSON list, got {type(document['atoms']).__name__}")
    atoms = []
    for i, atom in enumerate(document["atoms"]):
        _spec_keys(atom, ("value", "weight"), (), f"atom {i}: ")
        atoms.append(tuple(_spec_float(atom, key, f"atom {i}: ") for key in ("value", "weight")))
    return DiracMixture(atoms=tuple(atoms),
                        n_seeds=_spec_int(info, "seeds", where) if "seeds" in info else 1,
                        steps=_spec_int(info, "steps", where) if "steps" in info else 0)


def write_ritz_vectors(path, ritz):
    # slq's vectors are a P x m view of its m x P row buffer; the file holds them in C order
    np.savez(path, values=ritz.values, weights=ritz.weights,
             vectors=np.ascontiguousarray(ritz.vectors))


def read_ritz_vectors(spectrum_path):
    """The Ritz decomposition whose file the spectrum file's ``lanczos.vectors_path`` names."""
    spectrum_path = Path(spectrum_path)
    name = read_spectrum(spectrum_path)["lanczos"].get("vectors_path")
    if not name:
        raise ValueError("spectrum file has no Ritz vectors; "
                         "re-run the spectrum command with --save-vectors")
    path = spectrum_path.parent / name
    try:  # np.load leaves a file it opened itself open when the zip is corrupt
        with open(path, "rb") as handle, np.load(handle) as data:
            arrays = data["values"], data["weights"], data["vectors"]
    except (ValueError, KeyError, EOFError, TypeError, zipfile.BadZipFile):
        raise ValueError(f"{path} is not an .npz archive of Ritz values, weights "
                         "and vectors") from None
    try:
        return RitzDecomposition(*arrays)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


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
    """One row per (direction, t); ``test_loss`` stays blank for readers of the five columns."""
    rows = []
    for idx, eig, losses in zip(landscape.direction_indices, landscape.eigenvalues,
                                landscape.train_losses):
        for t, loss in zip(landscape.distances, losses):
            rows.append((idx, float(eig), float(t), float(loss), ""))
    _write_rows(path, ["direction_index", "eigenvalue", "t", "train_loss", "test_loss"], rows)


def write_bounds_csv(path, table):
    _write_rows(path, ["gap", "m", "lanczos_bound", "power_bound", "ratio"], table)
