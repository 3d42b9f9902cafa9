"""Stationary and non-stationary extreme value fitting.

GEV and GPD models with covariate-dependent location, scale, and shape;
maximum-likelihood and Bayesian (random-walk Metropolis, MALA, HMC)
estimation; L-moment utilities; and convergence/model-comparison
diagnostics. See the CLI (``extremefit --help``) for the file-based
workflow.
"""

from .distributions import (
    EvdFamily,
    ParamTriple,
    cdf,
    grad_logpdf,
    logpdf,
    quantile,
    sample,
)
from .diagnostics import (
    LrtResult,
    SummaryRow,
    dic,
    ess,
    lrt,
    posterior_summary,
    return_levels,
    split_rhat,
)
from .errors import (
    DegenerateSampleError,
    DomainError,
    EvaluationError,
    ExtremeFitError,
    FitError,
    InitializationError,
)
from .lmoments import LMomentSet, gev_from_lmoments, gpd_from_lmoments, sample_lmoments
from .model import (
    ModelSpec,
    RealizedParams,
    grad_neg_log_likelihood,
    neg_log_likelihood,
    nll_and_grad,
    param_dim,
    param_names,
    realize,
    validate_config,
)
from .numerics import RngState, central_diff_grad, chi2_sf, lgamma
from .optimize import Bounds, FitResult, fit_mle, infer_bounds
from .priors import (
    PriorComponent,
    PriorSet,
    default_priors,
    grad_log_prior,
    log_prior,
    log_prior_and_grad,
)
from .samplers import (
    Chain,
    Target,
    hmc,
    leapfrog,
    mala,
    mh_random_walk,
    posterior_target,
    sample_chains,
    sample_posterior,
)

__version__ = "0.1.0"

__all__ = [
    "Bounds",
    "Chain",
    "DegenerateSampleError",
    "DomainError",
    "EvaluationError",
    "EvdFamily",
    "ExtremeFitError",
    "FitError",
    "FitResult",
    "InitializationError",
    "LMomentSet",
    "LrtResult",
    "ModelSpec",
    "ParamTriple",
    "PriorComponent",
    "PriorSet",
    "RealizedParams",
    "RngState",
    "SummaryRow",
    "Target",
    "cdf",
    "central_diff_grad",
    "chi2_sf",
    "default_priors",
    "dic",
    "ess",
    "fit_mle",
    "gev_from_lmoments",
    "gpd_from_lmoments",
    "grad_log_prior",
    "grad_logpdf",
    "grad_neg_log_likelihood",
    "hmc",
    "infer_bounds",
    "leapfrog",
    "lgamma",
    "log_prior",
    "log_prior_and_grad",
    "logpdf",
    "lrt",
    "mala",
    "mh_random_walk",
    "neg_log_likelihood",
    "nll_and_grad",
    "param_dim",
    "param_names",
    "posterior_summary",
    "posterior_target",
    "quantile",
    "realize",
    "return_levels",
    "sample",
    "sample_chains",
    "sample_lmoments",
    "sample_posterior",
    "split_rhat",
    "validate_config",
]
