"""Matrix-free curvature spectroscopy toolkit.

Lanczos-based spectral density estimation for symmetric operators,
random-matrix validation, bulk/outlier estimators for finite-sample
spectra, and spectrally tuned SGD/momentum scheduling.
"""

import os


def _cap_threads():
    """Apply CURVLENS_THREADS to the BLAS thread variables.

    BLAS reads them once, when numpy is first imported, so this runs before
    any submodule import.
    """
    cap = os.environ.get("CURVLENS_THREADS")
    if cap:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ.setdefault(var, cap)


_cap_threads()

from curvlens.operators import (
    DenseSymmetric,
    SeedStream,
    SymmetricOperator,
    apply_shifted,
    dense_eigendecomposition,
    probe_vector,
)
from curvlens.lanczos import (
    RitzDecomposition,
    Tridiagonal,
    chebyshev_bound_ratio,
    lanczos_run,
    moment_match_check,
    ritz_decompose,
    slq,
)
from curvlens.density import (
    DiracMixture,
    KernelSpec,
    TraceEstimate,
    average_over_seeds,
    mixture_moment,
    smoothed_moment,
    smoothing_bias,
    stochastic_trace,
)
from curvlens.rmt import (
    MPParams,
    OverlapCleaning,
    PlantedSpectrumSpec,
    fit_mp_to_bulk,
    mp_density,
    planted_matrix,
    rie_clean,
    sample_wigner,
    sample_wishart,
    wigner_density,
)
from curvlens.bulk import (
    BulkEstimate,
    LayerBlockSpec,
    OutlierReport,
    bulk_mean_random_vector,
    bulk_median_gradient,
    count_outliers_gap,
    predict_outliers_from_blocks,
)
from curvlens.models import (
    Dataset,
    LogisticRegressionModel,
    MLPModel,
    curvature_operator,
    dense_curvature,
    gradient_noise_stats,
    lipschitz_bounds_logreg,
    make_blobs,
)
from curvlens.optim import (
    SpectralSchedule,
    TrainConfig,
    TrainTrace,
    lanczos_newton_direction,
    loss_landscape,
    spectral_refresh,
    ssgd_schedule,
    ssgdm_schedule,
    theoretical_schedule,
    train,
)

__version__ = "0.1.0"
