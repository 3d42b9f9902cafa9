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

Batch axis
----------
``realize``, ``neg_log_likelihood``, ``grad_neg_log_likelihood`` and
``nll_and_grad`` take theta of shape (d,) or (K, d). A (d,) theta gives what
it always gave: a float nll, or a (d,) gradient that raises DomainError
where the nll is infinite (``nll_and_grad`` gives a NaN gradient there). A
(K, d) theta gives one result per row: a (K,) nll that reads +inf for a row
outside the support or with scale <= 0, and a (K, d) gradient with NaN rows
there. The three nll functions share one private pass through the kernel,
so ``nll_and_grad`` equals the separate calls bit for bit and costs little
more than the gradient alone. Every row is bit-identical to the (d,) call
on that row, whatever K: the design products are stacked matmuls
``x @ v[..., None]`` (one matrix-vector product per row, measured to match a
lone ``x @ v`` bit for bit, where a plain (K, d) gemm does not) and the sums
run along the contiguous last axis. A non-finite theta entry raises
DomainError in either form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .distributions import EvdFamily, ParamTriple, _terms
from .errors import DomainError
from .lmoments import stationary_estimate

_BATCH_VALUES = 16384  # most (K, n) values per kernel pass; a longer batch is split
# (K, n) values that cost a kernel pass about what one row costs at block-maxima n
# (1.3-1.6x a lone row of posterior_target, measured at n = 30-500)
_CHEAP_BATCH_VALUES = 1024


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
    def lmoment_estimate(self) -> ParamTriple:
        """The stationary L-moment fit of the data, computed once per spec.

        Bounds, start and default priors all derive from it.
        """
        return stationary_estimate(self.family, self.data)

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


def _slope_scales(spec: ModelSpec, which: int, unit: float) -> list[tuple[float, float]]:
    """(unit / std, |mean|) per column of spec.columns_for(which), std floored at 1e-6.

    The slope scale that infer_bounds and default_priors give each covariate,
    and the |mean| by which it widens the intercept's box or prior.
    """
    return [(unit / max(float(np.std(column)), 1e-6), abs(float(np.mean(column))))
            for column in (spec.covariates[:, col] for col in spec.columns_for(which))]


def _split(spec: ModelSpec, theta: np.ndarray):
    a, b, c = spec.config
    return theta[..., : a + 1], theta[..., a + 1 : a + b + 2], theta[..., a + b + 2 :]


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
    if theta.ndim not in (1, 2) or theta.shape[-1] != d:
        raise DomainError(f"theta must have length {d}, got shape {theta.shape}")
    if not np.all(np.isfinite(theta)):
        raise DomainError("theta entries must be finite")
    return theta


def _matvec(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """x @ v for a (p,) v, or for each row of a (K, p) v with the same bits."""
    return x @ v if v.ndim == 1 else (x @ v[..., None])[..., 0]


def _realize(spec: ModelSpec, theta: np.ndarray) -> RealizedParams:
    """realize for a checked theta, without the scale check."""
    n = spec.n_obs

    def linear(x, v):  # an intercept alone is repeated, not multiplied: 1 * v is exact
        return np.repeat(v, n, axis=-1) if v.shape[-1] == 1 else _matvec(x, v)

    beta, gamma, delta = _split(spec, theta)
    x_loc, x_scale, x_shape = spec._designs
    scale = linear(x_scale, gamma)
    if spec.config[1]:  # the log-linear scale
        with np.errstate(over="ignore"):
            scale = np.exp(scale)
    return RealizedParams(linear(x_loc, beta), scale, linear(x_shape, delta))


def realize(spec: ModelSpec, theta) -> RealizedParams:
    """Per-observation (loc, scale, shape) implied by the packed vector.

    A (K, d) theta gives (K, n) arrays. A stationary scale <= 0 in any row
    raises DomainError.
    """
    theta = _check_theta(spec, theta)
    a, b, _ = spec.config
    if b == 0 and np.any(theta[..., a + 1] <= 0):
        raise DomainError(f"scale must be > 0 when stationary, got {theta[..., a + 1]}")
    return _realize(spec, theta)


def _checked_params(spec: ModelSpec, theta: np.ndarray):
    """Realized parameters of a checked theta and the mask of rows with a finite scale > 0.

    The other rows get the placeholder scale 1, so the kernel computes
    nothing undefined on them, and _nll_terms overwrites their results. A
    stationary scale is its coefficient repeated, finite as theta is, so its
    K coefficients give the mask, not the K * n values. A non-finite loc or
    shape needs no check here: the kernel turns it into a non-finite value,
    which the final finiteness checks catch.
    """
    loc, scale, shape = _realize(spec, theta)
    a, b, _ = spec.config
    ok = theta[..., a + 1] > 0 if b == 0 else ((scale > 0) & (scale < np.inf)).all(axis=-1)
    if not ok.all():
        scale[~ok] = 1.0
    return RealizedParams(loc, scale, shape), ok


def _nll_terms(spec: ModelSpec, theta: np.ndarray, value: bool, grad: bool,
               hess: bool = False):
    """Per-row nll, gradient and Hessian of a checked theta from one kernel pass.

    A part not asked for is None; hess needs grad and a (d,) theta. The nll
    is +inf on a row outside the support, with a scale not finite and > 0, or
    with a non-finite kernel sum. The gradient is a NaN row on a row with
    such a scale, or whose gradient is not finite, or (when value is asked
    too) whose nll is +inf; every other row is finite. The Hessian,
    -sum_ab X_a' diag(w_ab) X_b over the (loc, scale, shape) blocks, is NaN
    wherever the gradient is. The log-linear scale multiplies its first
    derivatives by sigma_t (adding the first to its second); identity links
    pass covariates straight through. A (K, d) theta whose (K, n) temporaries
    would hold more than _BATCH_VALUES values goes through in blocks of
    max(1, _BATCH_VALUES // n) rows, with the same bits per row.
    """
    rows = max(1, _BATCH_VALUES // spec.n_obs)
    if theta.ndim == 2 and len(theta) > rows:
        blocks = [_nll_terms(spec, theta[i:i + rows], value, grad)
                  for i in range(0, len(theta), rows)]
        return tuple(None if part[0] is None else np.concatenate(part)
                     for part in zip(*blocks))
    (loc, scale, shape), ok = _checked_params(spec, theta)
    logpdf, parts, second = _terms(spec.family, spec.data, loc, scale, shape, value, grad,
                                   hess)
    nll = g = h = None
    if value:
        total = logpdf.sum(axis=-1)
        ok = ok & np.isfinite(total)
        nll = np.where(ok, -total, np.inf)
    if grad:
        gmu, gsig, gxi = parts
        x_loc, x_scale, x_shape = designs = spec._designs
        if spec.config[1] == 0:
            g_gamma = gsig.sum(axis=-1, keepdims=True)
        else:  # d/dlog(sigma) = sigma d/dsigma
            gsig = gsig * scale
            g_gamma = _matvec(x_scale.T, gsig)
        g = -np.concatenate([_matvec(x_loc.T, gmu), g_gamma, _matvec(x_shape.T, gxi)],
                            axis=-1)
        ok = ok & np.isfinite(g).all(axis=-1)
        if not ok.all():
            g[~ok] = np.nan
    if hess:
        mm, ms, mx, ss, sx, xx = second
        if spec.config[1]:  # d2/dlog(sigma)2 = sigma**2 d2/dsigma2 + sigma d/dsigma
            ms, sx, ss = ms * scale, sx * scale, ss * scale * scale + gsig
        w = ((mm, ms, mx), (ms, ss, sx), (mx, sx, xx))
        h = -np.concatenate([np.concatenate([xa.T @ (xb * w[a][b][:, None])
                                             for b, xb in enumerate(designs)], axis=1)
                             for a, xa in enumerate(designs)])
        h = 0.5 * (h + h.T) if ok else np.full_like(h, np.nan)
    return nll, g, h


def _scalar(nll):
    return float(nll) if nll.ndim == 0 else nll


def neg_log_likelihood(spec: ModelSpec, theta):
    """Joint negative log-likelihood; +inf outside the support, never NaN.

    A (K, d) theta gives a (K,) array, one nll per row.
    """
    return _scalar(_nll_terms(spec, _check_theta(spec, theta), value=True, grad=False)[0])


def grad_neg_log_likelihood(spec: ModelSpec, theta) -> np.ndarray:
    """Analytic gradient of the nll via the chain rule over the links.

    Requires a finite nll and a finite gradient at theta: a (d,) theta where
    either is not raises DomainError; a (K, d) theta gets NaN rows there.
    """
    g = _nll_terms(spec, _check_theta(spec, theta), value=False, grad=True)[1]
    if g.ndim == 1 and math.isnan(g[0]):  # a row is NaN throughout or finite
        raise DomainError("nll is infinite at theta; gradient undefined")
    return g


def nll_and_grad(spec: ModelSpec, theta):
    """(neg_log_likelihood, gradient) at theta from one kernel pass.

    Both equal the separate calls bit for bit, except that the gradient is a
    NaN row, not a DomainError, wherever the nll is +inf or the gradient is
    not finite, for a (d,) theta as for a (K, d) one.
    """
    nll, g, _ = _nll_terms(spec, _check_theta(spec, theta), value=True, grad=True)
    return _scalar(nll), g
