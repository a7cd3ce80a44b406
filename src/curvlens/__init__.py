"""Matrix-free curvature spectroscopy toolkit.

Lanczos-based spectral density estimation for symmetric operators,
random-matrix validation, bulk/outlier estimators for finite-sample
spectra, and spectrally tuned SGD/momentum scheduling.
"""

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
    PlantedSpectrumSpec,
    fit_mp_to_bulk,
    mp_density,
    planted_matrix,
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
    lipschitz_bounds_logreg,
    make_blobs,
)
from curvlens.optim import (
    SpectralSchedule,
    TrainConfig,
    TrainTrace,
    loss_landscape,
    spectral_refresh,
    ssgd_schedule,
    ssgdm_schedule,
    theoretical_schedule,
    train,
)

__version__ = "0.1.0"
