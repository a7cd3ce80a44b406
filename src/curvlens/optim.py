"""Spectrally tuned SGD/SGDM training and loss-landscape traversal."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from curvlens.bulk import bulk_mean_random_vector, bulk_median_gradient
from curvlens.density import DiracMixture
from curvlens.lanczos import slq
from curvlens.models import LogisticRegressionModel, curvature_operator, lipschitz_bounds_logreg
from curvlens.operators import probe_vector

DIVERGENCE_LOSS = 1e10
_LOSS_GROWTH_WARNING = 10.0  # growth within one refresh interval that earns a trace warning

SPECTRAL_VARIANTS = ("ssgd", "ssgdm")
FIXED_VARIANTS = ("sgd_fixed", "sgdm_fixed")
THEORETICAL_VARIANTS = ("sgd_theoretical", "sgdm_theoretical")
ALL_VARIANTS = SPECTRAL_VARIANTS + FIXED_VARIANTS + THEORETICAL_VARIANTS

SEED_KINDS = ("random", "gradient")  # Lanczos seeds of a spectral refresh
REFRESH_CURVATURES = ("ggn", "abs_hessian")  # the positive-definite curvature kinds


@dataclass(frozen=True)
class SpectralSchedule:
    """Learning-rate/momentum pair."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (np.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError(f"learning rate must be finite and positive, got {self.alpha}")
        if not 0.0 <= self.beta < 1.0:
            raise ValueError("momentum must lie in [0, 1)")


@dataclass(frozen=True)
class TrainConfig:
    """Knobs for the training loop and its periodic spectral refreshes."""

    batch_size: int
    total_steps: int
    lanczos_steps: int = 30
    refresh_interval: int = 100
    curvature: str = "ggn"
    layers: int = 1
    seed_kind: str = "random"
    fixed_alpha: float = 0.01
    fixed_beta: float = 0.9

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError(f"batch size must be >= 1, got {self.batch_size}")
        if self.total_steps < 1:
            raise ValueError(f"total steps must be >= 1, got {self.total_steps}")
        if self.refresh_interval < 1:
            raise ValueError("refresh interval must be >= 1")
        if self.lanczos_steps < 3:
            raise ValueError("need at least 3 Lanczos steps")
        if self.layers < 0:
            raise ValueError(f"layers (outliers to discount) must be >= 0, got {self.layers}")
        if self.curvature not in REFRESH_CURVATURES:
            raise ValueError(f"refresh curvature kind must be one of {REFRESH_CURVATURES}, "
                             f"got {self.curvature!r}")
        if self.seed_kind not in SEED_KINDS:
            raise ValueError(f"unknown seed kind {self.seed_kind!r}; expected one of {SEED_KINDS}")


@dataclass
class TrainTrace:
    """Per-step losses plus the schedule/spectrum record at each refresh."""

    losses: List[float] = field(default_factory=list)
    refreshes: List[Tuple[int, float, float, float, float]] = field(default_factory=list)
    schedule_per_step: List[Tuple[float, float]] = field(default_factory=list)
    diverged: bool = False
    warnings: List[str] = field(default_factory=list)

    @property
    def final_loss(self):
        return self.losses[-1] if self.losses else float("nan")


@dataclass(frozen=True)
class LossLandscape:
    """Loss grids along Ritz directions: rows are directions, columns distances."""

    direction_indices: Tuple[int, ...]
    eigenvalues: Tuple[float, ...]
    distances: np.ndarray
    train_losses: np.ndarray


def ssgd_schedule(lambda_max, lambda_bulk):
    """alpha = 2 / (lambda_max + lambda_b), no momentum."""
    _check_spectrum_pair(lambda_max, lambda_bulk)
    return SpectralSchedule(alpha=2.0 / (lambda_max + lambda_bulk), beta=0.0)


def ssgdm_schedule(lambda_max, lambda_bulk):
    """Heavy-ball optimum for a spectrum in [lambda_b, lambda_max]:
    alpha = (2 / (sqrt(lambda_max) + sqrt(lambda_b)))^2 and
    beta = ((sqrt(lambda_max) - sqrt(lambda_b)) / (sqrt(lambda_max) + sqrt(lambda_b)))^2.
    """
    _check_spectrum_pair(lambda_max, lambda_bulk)
    root_top = np.sqrt(lambda_max)
    root_bulk = np.sqrt(lambda_bulk)
    alpha = (2.0 / (root_top + root_bulk)) ** 2
    beta = ((root_top - root_bulk) / (root_top + root_bulk)) ** 2
    return SpectralSchedule(alpha=alpha, beta=beta)


def _check_spectrum_pair(top, bottom):
    if bottom <= 0:
        raise ValueError("lower spectral bound must be positive")
    if top < bottom:
        raise ValueError("upper spectral bound must dominate the lower one")


def spectral_refresh(model, batch, config, seed, variant="ssgd"):
    """Measure (lambda_max, lambda_b) on the positive-definite surrogate and
    derive the schedule for the requested variant.

    ``seed`` starts the Lanczos run: a random probe, or the gradient at the
    model's parameters on ``batch`` when ``config.seed_kind`` is gradient.
    Random seeds give the weighted bulk mean; gradient seeds carry no
    quadrature weights so the bulk median is used instead.  A bulk estimate
    exceeding lambda_max is clamped (degenerate bulk), with a warning string
    returned for the caller's trace.
    """
    if variant not in SPECTRAL_VARIANTS:
        raise ValueError(f"unknown spectral variant {variant!r}; "
                         f"expected one of {SPECTRAL_VARIANTS}")
    op = curvature_operator(model, batch, kind=config.curvature)
    ritz, = slq(op, config.lanczos_steps, seed[:, None])
    lambda_max = ritz.lambda_max

    if config.seed_kind == "gradient":
        estimate = bulk_median_gradient(ritz.values, config.layers)
    else:
        mixture = DiracMixture.from_arrays(ritz.values, ritz.weights, steps=ritz.steps)
        estimate = bulk_mean_random_vector(mixture, config.layers)
    lambda_bulk = estimate.bulk_mean
    warning = None
    if lambda_bulk >= lambda_max:
        warning = f"bulk estimate {lambda_bulk:.6g} >= lambda_max {lambda_max:.6g}; clamped"
        lambda_bulk = lambda_max

    schedule = ssgdm_schedule(lambda_max, lambda_bulk) if variant == "ssgdm" \
        else ssgd_schedule(lambda_max, lambda_bulk)
    return lambda_max, lambda_bulk, schedule, warning


def train(model, dataset, config, variant, stream):
    """Heavy-ball training loop p <- p - alpha g + beta (p - p_prev).

    Spectral variants refresh (alpha, beta) every ``refresh_interval`` steps,
    seeded by ``_refresh_seed``; fixed variants use the configured constants;
    theoretical variants feed the same formulas the analytic logistic (L, mu)
    bounds, which certify only a ``LogisticRegressionModel``.  Divergence (a
    loss above 1e10, or a loss or gradient that is not finite) truncates the
    trace with a flag rather than raising; each step's loss and gradient come
    before its refresh, so no refresh runs on a net that has overflowed.  A
    loss more than 10 times the loss at the start of its refresh interval
    (every variant counts intervals) adds a trace warning, once per interval.
    A refresh that raises ``ValueError`` keeps the previous schedule, with a
    trace warning; the first refresh has none to keep, so its error is
    re-raised naming the step.
    """
    if variant not in ALL_VARIANTS:
        raise ValueError(f"unknown training variant {variant!r}")
    if variant in THEORETICAL_VARIANTS and not isinstance(model, LogisticRegressionModel):
        raise ValueError(f"variant {variant!r} needs a logistic regression model: its (L, mu) "
                         f"bounds do not hold for {type(model).__name__}")
    trace = TrainTrace()
    rng = stream.generator
    n = dataset.n_samples
    full_batch = config.batch_size >= n

    if variant in FIXED_VARIANTS:
        beta = config.fixed_beta if variant == "sgdm_fixed" else 0.0
        schedule = SpectralSchedule(alpha=config.fixed_alpha, beta=beta)
    elif variant in THEORETICAL_VARIANTS:
        lipschitz, mu = lipschitz_bounds_logreg(dataset, model.weight_decay)
        schedule = ssgdm_schedule(lipschitz, mu) if variant == "sgdm_theoretical" \
            else ssgd_schedule(lipschitz, mu)
    else:
        schedule = None  # set at the first refresh

    params = model.get_params()
    params_prev = params.copy()
    for step in range(config.total_steps):
        if full_batch:
            batch = dataset
        else:
            batch = dataset.batch(rng.choice(n, size=config.batch_size, replace=False))
        try:
            loss, grad = model.loss_and_gradient(batch)
        except FloatingPointError as exc:
            trace.diverged = True
            trace.warnings.append(f"step {step}: diverged ({exc}); training stopped")
            break
        if variant in SPECTRAL_VARIANTS and step % config.refresh_interval == 0:
            try:
                # the seed is not bound to a name: a probe held across steps adds ~1 MB of peak RSS
                lam_max, lam_bulk, schedule, warning = spectral_refresh(
                    model, batch, config, _refresh_seed(config, grad, stream), variant=variant)
            except ValueError as exc:
                if schedule is None:
                    raise ValueError(f"step {step}: spectral refresh failed: {exc}") from exc
                warning = (f"refresh skipped ({exc}); keeping alpha={schedule.alpha:.6g}, "
                           f"beta={schedule.beta:.6g}")
            else:
                trace.refreshes.append((step, lam_max, lam_bulk, schedule.alpha, schedule.beta))
            if warning:
                trace.warnings.append(f"step {step}: {warning}")
        trace.losses.append(loss)
        trace.schedule_per_step.append((schedule.alpha, schedule.beta))
        if step % config.refresh_interval == 0:
            interval_start = (step, loss)
        elif interval_start and loss > _LOSS_GROWTH_WARNING * interval_start[1]:
            trace.warnings.append(f"step {step}: loss {loss:.6g} is more than "
                                  f"{_LOSS_GROWTH_WARNING:g}x the {interval_start[1]:.6g} "
                                  f"at step {interval_start[0]}")
            interval_start = None  # one warning per interval
        if loss > DIVERGENCE_LOSS:
            trace.diverged = True
            trace.warnings.append(f"step {step}: diverged (loss {loss:.6g} > {DIVERGENCE_LOSS:g}); "
                                  "training stopped")
            break
        new_params = params - schedule.alpha * grad + schedule.beta * (params - params_prev)
        params_prev = params
        params = new_params
        model.set_params(params)
    return trace


def _refresh_seed(config, grad, stream):
    """The step's gradient for gradient seeds (unless zero), else a Rademacher probe."""
    if config.seed_kind == "gradient" and np.linalg.norm(grad) != 0.0:
        return grad
    return probe_vector(stream, len(grad), "rademacher")


def loss_landscape(model, dataset, ritz, dist, n_points, n_directions=6):
    """Evaluate the loss along Ritz directions over a symmetric distance grid.

    Takes the ``n_directions`` largest and smallest Ritz directions; the
    grid has an odd point count, at least 3, so the unperturbed loss sits at
    t = 0 between the two ends, and spans [-dist, dist] for a finite dist > 0.
    """
    if ritz.vectors is None:
        raise ValueError("Ritz vectors were not retained; re-run Lanczos with the basis")
    if len(ritz.vectors) != model.n_params:
        raise ValueError(f"Ritz vectors of length {len(ritz.vectors)} do not fit a model "
                         f"with {model.n_params} parameters")
    if not (np.isfinite(dist) and dist > 0):
        raise ValueError(f"dist must be finite and positive, got {dist}")
    if n_points < 3 or n_points % 2 == 0:
        raise ValueError(f"n_points must be odd and >= 3 so t = 0 is on the grid, got {n_points}")
    if n_directions < 1:
        raise ValueError(f"n_directions must be >= 1, got {n_directions}")
    m = len(ritz.values)
    k = min(n_directions, (m + 1) // 2)
    indices = sorted(set(range(k)) | set(range(m - k, m)))
    distances = np.linspace(-dist, dist, n_points)
    base = model.get_params()
    center = model.loss(dataset, params=base)  # the t = 0 loss, shared by every row
    losses = np.empty((len(indices), n_points))
    for row, i in enumerate(indices):
        for col, t in enumerate(distances):
            losses[row, col] = center if t == 0.0 \
                else model.loss(dataset, params=base + t * ritz.vectors[:, i])
    return LossLandscape(
        direction_indices=tuple(indices),
        eigenvalues=tuple(float(ritz.values[i]) for i in indices),
        distances=distances,
        train_losses=losses,
    )
