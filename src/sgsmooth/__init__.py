"""Constant step-size stochastic subgradient learning with exponential smoothing.

Subpackages:

* :mod:`sgsmooth.engine`   -- the generic streaming loop and smoothing algebra
* :mod:`sgsmooth.problems` -- SVM, LASSO, and TV-denoising problem families
* :mod:`sgsmooth.theory`   -- rates, bounds, constants, assumption checkers
* :mod:`sgsmooth.data`     -- sample streams, LIBSVM and PGM I/O, metrics
* :mod:`sgsmooth.cli`      -- the ``sgsmooth`` experiment runner
"""

from .engine import (
    RiskOracle,
    RunConfig,
    SmoothingState,
    Trajectory,
    run,
    run_replications,
)
from .problems import (
    GrayImage,
    LassoProblem,
    Sample,
    SvmProblem,
    SvmSampleSet,
    soft_threshold,
    tv_denoise,
    tv_subgradient_step,
    tv_value,
)
from .theory import (
    ProblemConstants,
    estimate_lasso_a,
    finite_horizon_bound,
    finite_horizon_envelope,
    lasso_constants,
    lasso_gaussian_noise_modulus,
    lasso_spectral_noise_modulus,
    rate_alpha,
    steady_state_bounds,
    step_size_ceiling,
    svm_constants,
    svm_tight_bound,
)

__version__ = "0.1.0"
