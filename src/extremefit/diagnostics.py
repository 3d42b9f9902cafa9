"""Convergence diagnostics, posterior summaries, model comparison, return levels.

Plot-ready numbers only: trace data, split R-hat, autocorrelation-based
effective sample sizes, pooled posterior summaries, DIC, likelihood-ratio
tests, and per-observation return levels. Rendering is left to external
tools.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .distributions import quantile_values
from .errors import DomainError, FitError
from .model import (
    ModelSpec,
    neg_log_likelihood,
    param_dim,
    param_names,
    realize,
)
from .numerics import chi2_sf
from .optimize import fit_mle

_ESS_CAP_FACTOR = 1.25


class DegenerateChainWarning(UserWarning):
    """A chain with zero variance was passed to a diagnostic."""


@dataclass
class SummaryRow:
    """Posterior summary for a single parameter."""

    name: str
    mean: float
    sd: float
    q05: float
    q50: float
    q95: float
    rhat: float
    ess: float


@dataclass
class LrtResult:
    statistic: float
    df: int
    p_value: float
    nll_null: float
    nll_alt: float


def _column(chain, param_index) -> np.ndarray:
    arr = getattr(chain, "samples", chain)
    arr = np.asarray(arr, dtype=float)
    if arr.ndim == 1:
        return arr
    return arr[:, param_index]


def split_rhat(chains, param_index: int = 0) -> float:
    """Split Gelman-Rubin statistic over one parameter.

    Each chain is split in half; with m half-chains of length n the
    statistic is sqrt(((n-1)/n * W + B/n) / W) for within-half variance W
    and between-half variance B. Zero within-variance is degenerate and
    reported as +inf (with a DegenerateChainWarning).
    """
    halves = []
    for chain in chains:
        x = _column(chain, param_index)
        if x.size < 4:
            raise DomainError("split_rhat requires chains of length >= 4")
        half = x.size // 2
        halves.append(x[:half])
        halves.append(x[x.size - half:])
    n = min(h.size for h in halves)
    halves = [h[:n] for h in halves]
    means = np.array([h.mean() for h in halves])
    within = float(np.mean([h.var(ddof=1) for h in halves]))
    between = n * float(np.var(means, ddof=1))
    if within <= 0 or all(np.all(h == h[0]) for h in halves):
        warnings.warn("zero within-chain variance", DegenerateChainWarning)
        return math.inf
    var_plus = (n - 1) / n * within + between / n
    return float(math.sqrt(var_plus / within))


def ess(chain, param_index: int = 0) -> float:
    """Effective sample size N / (1 + 2 sum rho_k).

    Autocorrelations are truncated by Geyer's initial positive, monotone
    pair-sum sequence. The estimate is capped at 1.25N (values beyond that
    are estimator noise); a zero-variance chain returns 0 with a warning.
    """
    x = _column(chain, param_index)
    n = x.size
    if n < 10:
        raise DomainError("ess requires a chain of length >= 10")
    xd = x - x.mean()
    var0 = float(np.mean(xd * xd))
    if var0 <= 0 or np.all(x == x[0]):
        warnings.warn("zero-variance chain has no effective samples",
                      DegenerateChainWarning)
        return 0.0
    nfft = 1 << (2 * n - 1).bit_length()
    spec = np.fft.rfft(xd, nfft)
    acov = np.fft.irfft(spec * np.conj(spec), nfft)[:n].real / n
    rho = acov / acov[0]

    tau = -1.0
    prev_pair = math.inf
    k = 0
    while 2 * k + 1 < n:
        pair = rho[2 * k] + rho[2 * k + 1]
        if pair <= 0:
            break
        pair = min(pair, prev_pair)  # enforce monotone decrease
        tau += 2.0 * pair
        prev_pair = pair
        k += 1
    tau = max(tau, 1.0 / _ESS_CAP_FACTOR)
    return float(n / tau)


def posterior_summary(chains, spec: ModelSpec) -> list[SummaryRow]:
    """Pooled mean/sd/quantiles plus per-parameter R-hat and summed ESS.

    Quantiles use the linear-interpolation definition. R-hat and ESS fall
    back to NaN when the chains are too short for the estimators.
    """
    if not chains:
        raise DomainError("posterior_summary requires at least one chain")
    names = param_names(spec)
    pooled = np.vstack([np.asarray(getattr(c, "samples", c), dtype=float)
                        for c in chains])
    if pooled.shape[1] != len(names):
        raise DomainError(
            f"chains have {pooled.shape[1]} parameters, spec expects {len(names)}"
        )
    rows = []
    for i, name in enumerate(names):
        col = pooled[:, i]
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DegenerateChainWarning)
                rhat = split_rhat(chains, i)
        except DomainError:
            rhat = math.nan
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DegenerateChainWarning)
                total_ess = float(sum(ess(c, i) for c in chains))
        except DomainError:
            total_ess = math.nan
        q05, q50, q95 = np.quantile(col, [0.05, 0.50, 0.95], method="linear")
        rows.append(
            SummaryRow(
                name=name,
                mean=float(col.mean()),
                sd=float(col.std(ddof=0)),
                q05=float(q05),
                q50=float(q50),
                q95=float(q95),
                rhat=float(rhat),
                ess=total_ess,
            )
        )
    return rows


def dic(chains, spec: ModelSpec) -> float:
    """Deviance information criterion D(theta_bar) + 2 p_D.

    Uses the classical effective-parameter count
    p_D = mean(D(theta)) - D(theta_bar) with deviance D = 2 * nll, which is
    likelihood-only.
    """
    pooled = np.vstack([np.asarray(getattr(c, "samples", c), dtype=float)
                        for c in chains])
    if pooled.shape[0] < 100:
        raise DomainError("dic requires at least 100 retained samples")
    theta_bar = pooled.mean(axis=0)
    nll_bar = neg_log_likelihood(spec, theta_bar)
    if not math.isfinite(nll_bar):
        raise DomainError("nll is infinite at the posterior mean")
    rows = max(1, 16384 // spec.n_obs)  # batches of at most 16384 values, or one row
    deviances = 2.0 * np.concatenate([neg_log_likelihood(spec, pooled[i:i + rows])
                                      for i in range(0, len(pooled), rows)])
    if not np.all(np.isfinite(deviances)):
        raise DomainError("nll is infinite at a retained sample")
    d_at_mean = 2.0 * nll_bar
    p_d = float(deviances.mean()) - d_at_mean
    return float(d_at_mean + 2.0 * p_d)


def _nested(null: ModelSpec, alt: ModelSpec) -> list[str]:
    problems = []
    if null.family is not alt.family:
        problems.append("families differ")
    if not np.array_equal(null.data, alt.data):
        problems.append("data vectors differ")
    if not np.array_equal(null.covariates, alt.covariates):
        problems.append("covariate matrices differ")
    labels = ("location", "scale", "shape")
    for which, label in enumerate(labels):
        if null.config[which] > alt.config[which]:
            problems.append(f"null uses more {label} covariates than the alternative")
        elif not set(null.columns_for(which)) <= set(alt.columns_for(which)):
            problems.append(f"{label} covariate columns are not nested")
    return problems


def _warm_start(spec_null: ModelSpec, spec_alt: ModelSpec, theta_null) -> np.ndarray:
    """theta_null as a point of the nesting alternative, where it gives the same model.

    The alternative's extra slopes are 0, and a stationary null scale becomes
    its log when the alternative's scale is log-linear.
    """
    out, start = [], 0
    for which in range(3):
        cols = spec_null.columns_for(which)
        block = theta_null[start:start + len(cols) + 1]
        start += len(cols) + 1
        intercept = block[0]
        if which == 1 and spec_null.config[1] == 0 and spec_alt.config[1] > 0:
            intercept = math.log(intercept)
        slopes = dict(zip(cols, block[1:]))
        out += [intercept] + [slopes.get(col, 0.0) for col in spec_alt.columns_for(which)]
    return np.array(out, dtype=float)


def lrt(spec_null: ModelSpec, spec_alt: ModelSpec) -> LrtResult:
    """Likelihood-ratio test of nested configurations.

    Fits both models by maximum likelihood (fit_mle in the inferred
    bounds); the statistic 2 (nll_null - nll_alt) is clamped at zero and
    compared against chi-squared with df equal to the parameter-count
    difference. The alternative's fit starts at the null's theta_hat (see
    _warm_start), and fit_mle never increases the nll from its start, so
    nll_alt <= nll_null up to the rounding of exp(log scale), unless the
    alternative's bounds move that start.
    """
    problems = _nested(spec_null, spec_alt)
    if problems:
        raise DomainError("models are not nested: " + "; ".join(problems))
    df = param_dim(spec_alt) - param_dim(spec_null)
    if df == 0:
        raise DomainError("models have equal dimension; likelihood-ratio df is 0")
    fit_null = fit_mle(spec_null)
    if not fit_null.converged:
        raise FitError("null-model fit did not converge")
    fit_alt = fit_mle(spec_alt, _warm_start(spec_null, spec_alt, fit_null.theta_hat))
    if not fit_alt.converged:
        raise FitError("alternative-model fit did not converge")
    stat = max(0.0, 2.0 * (fit_null.nll_min - fit_alt.nll_min))
    return LrtResult(
        statistic=float(stat),
        df=int(df),
        p_value=chi2_sf(stat, df),
        nll_null=float(fit_null.nll_min),
        nll_alt=float(fit_alt.nll_min),
    )


def return_levels(spec: ModelSpec, theta, return_period: float) -> np.ndarray:
    """Per-observation level exceeded once per return_period on average.

    Evaluates the quantile at non-exceedance probability 1 - 1/T under
    each observation's realized parameters; stationary models yield a
    constant vector.
    """
    if not return_period > 1:
        raise DomainError(f"return_period must be > 1, got {return_period}")
    loc, scale, shape = realize(spec, theta)
    p = 1.0 - 1.0 / return_period
    return quantile_values(spec.family, p, loc, scale, shape)
