"""Random-matrix generators, planted spectra and MP bulk fitting."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from curvlens.bulk import _discount_mask
from curvlens.operators import (_PANEL, ORACLE_DIM_CAP, DenseSymmetric, _mirror_upper,
                                _rotate_diagonal, _spec_float, _spec_int, _spec_keys)

ENSEMBLES = ("wigner", "wishart", "planted")  # matrix sources of `rmt` and `compare-diag`
PLANTED_DISTS = ("uniform", "const")


@dataclass(frozen=True)
class MPParams:
    """Marcenko-Pastur parameters: variance sigma^2 and ratio q = P / T_samples."""

    variance: float
    ratio: float

    def __post_init__(self):
        if self.variance <= 0:
            raise ValueError("MP variance sigma^2 must be positive")
        if self.ratio <= 0:
            raise ValueError("MP ratio q must be positive")

    @property
    def edge_lower(self):
        return self.variance * (1.0 - np.sqrt(self.ratio)) ** 2

    @property
    def edge_upper(self):
        return self.variance * (1.0 + np.sqrt(self.ratio)) ** 2


@dataclass(frozen=True)
class PlantedSpectrumSpec:
    """Recipe for a rotated matrix with a known spectrum.

    ``groups`` lists (count, dist, lo, hi) with dist in ``PLANTED_DISTS``:
    ``uniform`` draws ``count`` values on [lo, hi], ``const`` places
    ``count`` copies of lo (its hi must equal lo).  lo and hi are finite
    with lo <= hi.  The eigenvalue draws and the rotation come from the
    stream passed to ``planted_matrix``.
    """

    dim: int
    groups: Tuple[Tuple[int, str, float, float], ...]

    def __post_init__(self):
        for i, (count, dist, lo, hi) in enumerate(self.groups):
            if count < 0:
                raise ValueError(f"group {i}: count must be nonnegative, got {count}")
            if dist not in PLANTED_DISTS:
                raise ValueError(f"group {i}: unknown dist {dist!r}; expected one of "
                                 f"{', '.join(PLANTED_DISTS)}")
            if not (np.isfinite(lo) and np.isfinite(hi) and lo <= hi):
                raise ValueError(f"group {i}: need finite lo <= hi, got lo={lo}, hi={hi}")
            if dist == "const" and hi != lo:
                raise ValueError(f"group {i}: a const group needs hi == lo, got lo={lo}, hi={hi}")
        total = sum(count for count, *_ in self.groups)
        if total != self.dim:
            raise ValueError(f"group counts sum to {total}, expected dim {self.dim}")

    @staticmethod
    def from_json(raw):
        """Spec from the document {dim, groups: [{count, dist, lo, hi = lo}]}; refuses a bad key."""
        where = "planted spectrum: "
        _spec_keys(raw, ("dim", "groups"), (), where)
        dim = _spec_int(raw, "dim", where)
        if not isinstance(raw["groups"], list):
            raise ValueError(f"{where}groups must be a list, got {raw['groups']!r}")
        groups = []
        for i, g in enumerate(raw["groups"]):
            where = f"group {i}: "
            _spec_keys(g, ("count", "dist", "lo"), ("hi",), where)
            lo = _spec_float(g, "lo", where)
            hi = _spec_float(g, "hi", where) if "hi" in g else lo
            groups.append((_spec_int(g, "count", where), str(g["dist"]), lo, hi))
        return PlantedSpectrumSpec(dim=dim, groups=tuple(groups))


def sample_wigner(dim, stream):
    """Real symmetric Wigner sample: i.i.d. N(0,1) entries mirrored across the diagonal,
    divided by sqrt(P) so the spectrum converges to the semicircle on [-2, 2].
    """
    if dim < 2:
        raise ValueError("Wigner sample needs dim >= 2")
    rng = stream.generator
    h = _mirror_upper(rng.standard_normal((dim, dim)))
    h /= np.sqrt(dim)
    return DenseSymmetric(entries=h)


def sample_wishart(dim, t_samples, stream):
    """Wishart sample Y = X X^T / T with X a (P x T) i.i.d. standard normal matrix."""
    if dim < 1 or t_samples < 1:
        raise ValueError("dim and t_samples must be >= 1")
    rng = stream.generator
    x = rng.standard_normal((dim, t_samples))
    y = x @ x.T  # one syrk and a triangle copy: exactly symmetric, as DenseSymmetric checks
    y /= t_samples
    return DenseSymmetric(entries=y)


def planted_spectrum(spec, stream):
    """Draw the eigenvalue list prescribed by a planted-spectrum recipe."""
    rng = stream.generator
    values = []
    for count, dist, lo, hi in spec.groups:
        if dist == "uniform":
            values.append(rng.uniform(lo, hi, size=count))
        else:
            values.append(np.full(count, lo))
    return np.sort(np.concatenate(values)) if values else np.array([])


def planted_matrix(spec, stream):
    """Rotate a planted diagonal spectrum by a Haar orthogonal matrix.

    Returns the dense matrix U D U^T together with the true (sorted)
    spectrum.  U is the Q of a Gaussian draw's QR with R's diagonal made
    positive, deterministic given the stream (``_rotation``).  U D U^T is
    written over U itself, ``_PANEL`` rows of its upper triangle at a time,
    and the lower triangle is mirrored from the upper
    (``operators._rotate_diagonal``): the build holds one P x P array plus
    two panels, about 1.5 * 8P^2 bytes at P = 4 * _PANEL where Householder
    QR held 4.13 * 8P^2.  At every size the matrix is exactly symmetric and
    equals the Householder-QR formula within round-off.
    """
    if spec.dim > ORACLE_DIM_CAP:
        raise ValueError(f"planted matrices capped at dim {ORACLE_DIM_CAP} (oracle scale)")
    d = planted_spectrum(spec, stream)
    q = _rotation(stream.generator, spec.dim)
    return DenseSymmetric(entries=_rotate_diagonal(q, d)), d


def _rotation(rng, dim):
    """Q factor, with positive R diagonal, of a fresh ``dim`` x ``dim`` Gaussian draw.

    The draw is orthonormalized in place, one ``_PANEL``-column panel at a
    time.  A draw with a panel ``_orthonormalize_panel`` refuses (rank
    deficient, or too close to it) has probability ~0 and is drawn again;
    the next draw is just as Haar.
    """
    while True:
        a = rng.standard_normal((dim, dim))
        if all(_orthonormalize_panel(a, start) for start in range(0, dim, _PANEL)):
            return a


def _orthonormalize_panel(a, start):
    """Orthonormalize ``a``'s columns start:start+_PANEL in place against those before them.

    Block Gram-Schmidt with reorthogonalization and Cholesky-QR2: each of
    two passes projects the panel out of the finished columns, then divides
    it by the Cholesky factor of its Gram matrix, whose diagonal is
    positive.  The second pass removes what the first left of the finished
    columns (magnified by the panel's condition number) and its loss of
    orthonormality.  Returns False if the panel is too close to
    rank-deficient for that.
    """
    done, x = a[:, :start], a[:, start:start + _PANEL]
    for second in (False, True):
        x -= done @ (done.T @ x)
        gram = x.T @ x
        # the first pass leaves the Gram matrix about eps * cond^2 off the
        # identity; past 1/2 (cond ~5e7) the second pass cannot repair it
        if second and not np.abs(gram - np.eye(len(gram))).max() <= 0.5:
            return False
        try:
            upper = np.linalg.cholesky(gram).T
        except np.linalg.LinAlgError:
            return False
        x[...] = x @ np.linalg.inv(upper)
    return True


def fit_mp_to_bulk(mixture, excluded_outliers=0, excluded_zero_modes=0):
    """Fit MP parameters to the bulk of a mixture by moment-plus-edge matching.

    Drops the given counts of smallest-|lambda| atoms (ghost zero modes)
    and largest atoms (outliers); sigma^2 is the weighted bulk mean, and q
    solves edge_upper = sigma^2 (1 + sqrt(q))^2 at the largest bulk atom.
    """
    locations = mixture.locations
    weights = mixture.weights
    keep = _discount_mask(locations, excluded_zero_modes, excluded_outliers)
    if keep.sum() < 1 or weights[keep].sum() <= 0:
        raise ValueError("all mixture mass excluded, cannot fit MP bulk")
    bulk_loc = locations[keep]
    bulk_w = weights[keep] / weights[keep].sum()
    variance = float(np.sum(bulk_w * bulk_loc))
    top = float(bulk_loc.max())
    sqrt_q = max(np.sqrt(max(top, 0.0) / variance) - 1.0, 0.0)
    ratio = max(sqrt_q ** 2, 1e-12)
    return MPParams(variance=variance, ratio=ratio)

