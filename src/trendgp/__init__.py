"""Latent Gaussian-process trend analysis.

Quantifies how "trendy" a noisily observed latent function is: the Trend
Direction Index (probability of a positive trend at a time point) and the
Expected Trend Instability (expected number of trend sign changes on an
interval), under maximum-likelihood or fully Bayesian hyper-parameter
treatment.
"""

__version__ = "0.1.0"

from .kernels import (
    AssumptionError,
    AssumptionViolation,
    InadmissibleOrderError,
    KernelSpec,
    MeanSpec,
    kernel_eval,
    kernel_gram,
    kernel_partial,
    mean_eval,
    validate_assumptions,
)
from .posterior import (
    Dataset,
    FactorizationError,
    Hyperparams,
    JointPosterior,
    Posterior,
    marginal_moments,
    prior_joint,
)
from .indices import (
    CrossingProcess,
    TdiCurve,
    count_crossings,
    crosspoint,
    eti,
    local_eti_curve,
    tdi_curve,
)
from .transforms import TransformSpec, back_transform_summary, transform_dataset
from .estimation import (
    FitError,
    FitOptions,
    FitResult,
    HalfNormalPrior,
    HalfStudentTPrior,
    McmcError,
    McmcOptions,
    McmcSamples,
    PriorSpec,
    StudentTPrior,
    default_priors,
    fit_bayes,
    fit_ml,
    index_posterior,
    rhat,
)
from .selection import CandidateGrid, SelectionResult, loo_mspe, osa_mspe, select_model
from .simulation import (
    Scenario,
    StudyResult,
    integrated_residual,
    paper_truth_kernel,
    run_study,
    squared_l2,
)

__all__ = [name for name in dir() if not name.startswith("_")]
