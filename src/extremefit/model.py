"""Non-stationary parameter maps and the joint negative log-likelihood.

A model is defined by a data vector, a covariate matrix, a distribution
family, and a configuration triple ``(a, b, c)`` giving the number of
covariates driving location, scale, and shape. The packed parameter
vector is

    theta = [loc coefficients (a+1) | scale coefficients (b+1) | shape (c+1)]

Location and shape use identity links. The scale is the raw (positive)
coefficient when b = 0 and log-linear, ``sigma_t = exp(gamma . x_t)``,
when covariates enter, which guarantees positivity.

By default the first ``a`` / ``b`` / ``c`` covariate columns feed each
parameter (columns may be shared); explicit column indices can be given
per parameter instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .distributions import (
    EvdFamily,
    grad_logpdf_values,
    logpdf_values,
)
from .errors import DomainError


class RealizedParams(NamedTuple):
    """Per-observation (location, scale, shape) arrays."""

    loc: np.ndarray
    scale: np.ndarray
    shape: np.ndarray


@dataclass(frozen=True)
class ModelSpec:
    """Immutable description of one fitting problem.

    Parameters
    ----------
    data : array of n observations (block maxima or exceedances)
    covariates : (n, m) matrix, one column per covariate; may be empty
    config : (a, b, c) covariate counts for location, scale, shape
    family : EvdFamily.GEV or EvdFamily.GPD
    covariate_columns : optional (loc_cols, scale_cols, shape_cols) index
        lists; defaults to the first a / b / c columns
    """

    data: np.ndarray
    covariates: np.ndarray
    config: tuple[int, int, int]
    family: EvdFamily
    covariate_columns: tuple[tuple[int, ...], ...] | None = field(default=None)

    def __post_init__(self):
        data = np.atleast_1d(np.asarray(self.data, dtype=float))
        cov = self.covariates
        if cov is None:
            cov = np.empty((data.size, 0))
        cov = np.asarray(cov, dtype=float)
        if cov.ndim == 1:
            cov = cov.reshape(-1, 1)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "covariates", cov)
        object.__setattr__(self, "config", tuple(int(v) for v in self.config))
        if self.covariate_columns is not None:
            cols = tuple(tuple(int(i) for i in part) for part in self.covariate_columns)
            if len(cols) != 3:
                raise DomainError("covariate_columns must hold three index lists")
            object.__setattr__(self, "covariate_columns", cols)

    @property
    def n_obs(self) -> int:
        return self.data.size

    @property
    def n_covariates(self) -> int:
        return self.covariates.shape[1]

    def columns_for(self, which: int) -> tuple[int, ...]:
        """Column indices feeding parameter 0=loc, 1=scale, 2=shape."""
        count = self.config[which]
        if self.covariate_columns is not None:
            return self.covariate_columns[which]
        return tuple(range(count))

    @cached_property
    def _designs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        ones = np.ones((self.n_obs, 1))
        mats = []
        for which in range(3):
            cols = self.columns_for(which)
            if cols:
                mats.append(np.hstack([ones, self.covariates[:, list(cols)]]))
            else:
                mats.append(ones)
        return tuple(mats)


def param_dim(spec: ModelSpec) -> int:
    """Packed parameter vector length (a+1) + (b+1) + (c+1)."""
    a, b, c = spec.config
    return (a + 1) + (b + 1) + (c + 1)


def param_names(spec: ModelSpec) -> list[str]:
    """Labels in packing order, e.g. [loc_intercept, loc_slope_0, scale, shape]."""
    a, b, c = spec.config
    names = ["loc_intercept"] + [f"loc_slope_{i}" for i in range(a)]
    if b == 0:
        names.append("scale")
    else:
        names.append("logscale_intercept")
        names.extend(f"logscale_slope_{j}" for j in range(b))
    if c == 0:
        names.append("shape")
    else:
        names.append("shape_intercept")
        names.extend(f"shape_slope_{k}" for k in range(c))
    return names


def _split(spec: ModelSpec, theta: np.ndarray):
    a, b, c = spec.config
    return theta[: a + 1], theta[a + 1 : a + b + 2], theta[a + b + 2 :]


def validate_config(spec: ModelSpec) -> list[str]:
    """Collect every configuration violation; an empty list means ok."""
    violations: list[str] = []
    a, b, c = spec.config
    n, m = spec.data.size, spec.n_covariates
    if n < 1:
        violations.append("data vector is empty")
    if spec.covariates.shape[0] != n:
        violations.append(
            f"covariate matrix has {spec.covariates.shape[0]} rows, data has {n}"
        )
    bad = np.where(~np.isfinite(spec.data))[0]
    if bad.size:
        violations.append(f"non-finite data at rows {bad.tolist()}")
    bad_cov = np.where(~np.isfinite(spec.covariates).all(axis=1))[0]
    if bad_cov.size:
        violations.append(f"non-finite covariate entries at rows {bad_cov.tolist()}")
    labels = ("location", "scale", "shape")
    for which, (label, count) in enumerate(zip(labels, (a, b, c))):
        if count < 0:
            violations.append(f"{label} covariate count is negative ({count})")
            continue
        if spec.covariate_columns is not None:
            cols = spec.covariate_columns[which]
            if len(cols) != count:
                violations.append(
                    f"{label} requests {count} covariates but lists {len(cols)} columns"
                )
            out_of_range = [i for i in cols if i < 0 or i >= m]
            if out_of_range:
                violations.append(
                    f"{label} column indices {out_of_range} outside 0..{m - 1}"
                )
        elif count > m:
            violations.append(
                f"{label} requests {count} covariates, {m} available"
            )
    return violations


def _check_theta(spec: ModelSpec, theta) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    d = param_dim(spec)
    if theta.shape != (d,):
        raise DomainError(f"theta must have length {d}, got shape {theta.shape}")
    if not np.all(np.isfinite(theta)):
        raise DomainError("theta entries must be finite")
    return theta


def realize(spec: ModelSpec, theta) -> RealizedParams:
    """Per-observation (loc, scale, shape) implied by the packed vector."""
    theta = _check_theta(spec, theta)
    beta, gamma, delta = _split(spec, theta)
    x_loc, x_scale, x_shape = spec._designs
    a, b, c = spec.config
    loc = x_loc @ beta
    if b == 0:
        if gamma[0] <= 0:
            raise DomainError(f"scale must be > 0 when stationary, got {gamma[0]}")
        scale = np.full(spec.n_obs, gamma[0])
    else:
        with np.errstate(over="ignore"):
            scale = np.exp(x_scale @ gamma)
    shape = x_shape @ delta
    return RealizedParams(loc, scale, shape)


def neg_log_likelihood(spec: ModelSpec, theta) -> float:
    """Joint negative log-likelihood; +inf outside the support, never NaN."""
    theta = _check_theta(spec, theta)
    a, b, _ = spec.config
    if b == 0 and theta[a + 1] <= 0:
        return np.inf
    loc, scale, shape = realize(spec, theta)
    if not (np.all(np.isfinite(loc)) and np.all(np.isfinite(shape))):
        return np.inf
    if not np.all(np.isfinite(scale)) or np.any(scale <= 0):
        return np.inf
    lp = logpdf_values(spec.family, spec.data, loc, scale, shape)
    total = lp.sum()
    if not np.isfinite(total):
        return np.inf
    return float(-total)


def grad_neg_log_likelihood(spec: ModelSpec, theta) -> np.ndarray:
    """Analytic gradient of the nll via the chain rule over the links.

    Requires a finite nll at theta: the kernel's NaN or inf at a point
    outside the support raises DomainError. For the log-linear scale the
    inner derivative multiplies by sigma_t; identity links pass covariates
    straight through.
    """
    loc, scale, shape = realize(spec, theta)
    gmu, gsig, gxi = grad_logpdf_values(spec.family, spec.data, loc, scale, shape)
    x_loc, x_scale, x_shape = spec._designs
    _, b, _ = spec.config
    g_beta = -(x_loc.T @ gmu)
    if b == 0:
        g_gamma = np.array([-(gsig.sum())])
    else:
        g_gamma = -(x_scale.T @ (gsig * scale))
    g_delta = -(x_shape.T @ gxi)
    grad = np.concatenate([g_beta, g_gamma, g_delta])
    if not np.all(np.isfinite(grad)):
        raise DomainError("nll is infinite at theta; gradient undefined")
    return grad
