"""Linear shrinkage covariance estimation with cross-validated coefficients.

The package estimates covariance matrices as combinations
``rho * R + sum_k tau_k * T_k`` of a data-driven base estimate R (sample
covariance or least-squares model covariance) and structured targets
T_k, choosing the coefficients by leave-one-out cross-validation in
closed form, by oracle minimization against a known truth, or by
classical closed-form baseline rules.  Array-processing applications
(beamforming, channel estimation, detection) and a reproducible
Monte-Carlo experiment harness with a CLI are included.
"""

from .baselines import glc_coefficients, lw_coefficients, oas_coefficient
from .datagen import (
    ExperimentScene,
    RngStream,
    ar_covariance,
    gaussian_sampler,
    gaussian_samples,
    interference_scene,
    kronecker_channel_cov,
    linear_model_scene,
)
from .estimators import ols_covariance, ols_fit, ols_loo_covariances, scm
from .experiments import (
    EXPERIMENTS,
    ConfigError,
    ExperimentConfig,
    NumericError,
    ResultRow,
    RunPlan,
    emit_csv,
    nmse,
    parse_config,
    read_csv,
    run_experiment,
)
from .multi_target import (
    MtSolution,
    MultiMoments,
    mt_select,
    solve_nonneg_qp,
    solve_nonneg_qp_simplex,
)
from .single_target import (
    Clip,
    QuadMoments,
    ShrinkageSolution,
    ols_fast_moments,
    oracle_moments,
    scm_fast_moments,
    scm_solution_constrained,
    scm_solution_unconstrained,
    select_single_target,
    shrink,
    solve_quadratic_2d,
)
from .targets import (
    diagonal_target,
    knowledge_aided_target,
    scaled_identity_target,
    toeplitz_average_target,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # coefficient selection
    "Clip",
    "QuadMoments",
    "ShrinkageSolution",
    "solve_quadratic_2d",
    "scm_fast_moments",
    "ols_fast_moments",
    "oracle_moments",
    "scm_solution_unconstrained",
    "scm_solution_constrained",
    "select_single_target",
    "shrink",
    "MultiMoments",
    "MtSolution",
    "solve_nonneg_qp",
    "solve_nonneg_qp_simplex",
    "mt_select",
    "lw_coefficients",
    "glc_coefficients",
    "oas_coefficient",
    # estimates and targets
    "scm",
    "ols_fit",
    "ols_covariance",
    "ols_loo_covariances",
    "scaled_identity_target",
    "diagonal_target",
    "toeplitz_average_target",
    "knowledge_aided_target",
    # data generation
    "RngStream",
    "ExperimentScene",
    "ar_covariance",
    "gaussian_sampler",
    "gaussian_samples",
    "linear_model_scene",
    "kronecker_channel_cov",
    "interference_scene",
    # experiment harness
    "EXPERIMENTS",
    "ConfigError",
    "NumericError",
    "ExperimentConfig",
    "RunPlan",
    "ResultRow",
    "nmse",
    "parse_config",
    "run_experiment",
    "emit_csv",
    "read_csv",
]
