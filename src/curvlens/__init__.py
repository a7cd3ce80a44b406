"""Matrix-free curvature spectroscopy toolkit.

Lanczos-based spectral density estimation for symmetric operators,
random-matrix validation, bulk/outlier estimators for finite-sample
spectra, and spectrally tuned SGD/momentum scheduling.

``import curvlens`` loads no submodule: each public name imports its module
on first access (PEP 562), so a program pays only for the modules it uses.
"""

from importlib import import_module as _import_module

# module -> the public names it exports at the package level
_EXPORTS = {
    "operators": ("DenseSymmetric", "SeedStream", "SymmetricOperator", "apply_shifted",
                  "dense_eigendecomposition", "probe_vector"),
    "lanczos": ("RitzDecomposition", "Tridiagonal", "chebyshev_bound_ratio", "lanczos_run",
                "moment_match_check", "ritz_decompose", "slq"),
    "density": ("DiracMixture", "average_over_seeds", "mixture_moment", "smoothed_moment",
                "smoothing_bias"),
    "rmt": ("MPParams", "PlantedSpectrumSpec", "fit_mp_to_bulk", "planted_matrix",
            "sample_wigner", "sample_wishart"),
    "bulk": ("BulkEstimate", "LayerBlockSpec", "OutlierReport", "bulk_mean_random_vector",
             "bulk_median_gradient", "count_outliers_gap", "predict_outliers_from_blocks"),
    "models": ("Dataset", "LogisticRegressionModel", "MLPModel", "curvature_operator",
               "dense_curvature", "lipschitz_bounds_logreg", "make_blobs"),
    "optim": ("SpectralSchedule", "TrainConfig", "TrainTrace", "loss_landscape",
              "spectral_refresh", "ssgd_schedule", "ssgdm_schedule", "train"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_OWNER])
__version__ = "0.1.0"


def __getattr__(name):
    """Import the module that owns ``name`` on first access and keep the object here."""
    if name in _EXPORTS:  # the import binds the submodule here
        return _import_module(f"{__name__}.{name}")
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f"{__name__}.{_OWNER[name]}"), name)
    return value


def __dir__():
    """The names bound so far and the whole public API."""
    return sorted({*globals(), *__all__})
