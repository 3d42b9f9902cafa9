"""Maximum-likelihood fitting by projected Newton on the analytic gradient.

``fit_mle`` minimizes the nll over a box, inferred from a stationary L-moment
fit when not supplied, with a projected, damped Newton method (Bertsekas
1982, SIAM J. Control Optim. 20(2); Hosking 1985, AS 215, for the GEV):

* The Hessian is the exact observed information, the model's second
  derivatives (Prescott & Walden 1980, Biometrika 67), from the same kernel
  pass as the nll and its gradient. The start and every full Newton step's
  end get that pass, so when the full step is taken the next iteration's
  gradient and Hessian are already there; shorter steps evaluate the nll
  alone.
* The step uses the absolute eigenvalues of the Hessian scaled by the box
  widths, floored at rounding level relative to the largest, so it descends
  even where the nll is not convex.
* A pinned coordinate (lo == hi, as infer_bounds pins a GPD threshold) is
  held fixed; one at a bound with the gradient pushing outward, or with the
  Newton step pushing outward, is left out of the step.
* An Armijo backtracking search along the projection into the box rejects
  every +inf nll (the support has hard cliffs) and every step that does not
  lower the nll strictly, so a tol below what rounding can reach ends the
  run with "no_descent_step" instead of rounding-level steps to max_iter.

The fit has converged when the Newton decrement g' H^-1 g over the moving
coordinates is at most tol. The covariance (the inverse of the same Hessian
at theta_hat) and the standard errors come from it.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .distributions import EvdFamily
from .errors import DomainError, FitError
from .model import ModelSpec, _nll_terms, _slope_scales, neg_log_likelihood, param_dim, realize

# smallest |eigenvalue| of the scaled Hessian, relative to the largest: rounding level
_EIG_FLOOR = np.finfo(float).eps
_ARMIJO = 1e-4
_HALVINGS = 60
_NEWTON_ITER = 100


@dataclass
class Bounds:
    """Elementwise box lo <= hi; +-inf entries leave a side unconstrained.

    A coordinate with lo == hi is pinned: fit_mle holds it at that value,
    which must be finite.
    """

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        self.lo = np.asarray(self.lo, dtype=float)
        self.hi = np.asarray(self.hi, dtype=float)
        if self.lo.shape != self.hi.shape:
            raise DomainError("bounds lo/hi must have equal length")
        if not np.all(self.lo <= self.hi):
            raise DomainError("bounds require lo <= hi elementwise")
        if np.any(self.pinned & np.isinf(self.lo)):
            raise DomainError("a pinned coordinate (lo == hi) must be finite")

    def contains(self, x: np.ndarray) -> bool:
        return bool(np.all(x >= self.lo) and np.all(x <= self.hi))

    @property
    def pinned(self) -> np.ndarray:
        return self.lo == self.hi


@dataclass
class FitResult:
    """A minimum of the nll and how fit_mle reached it.

    n_evals counts kernel passes, each of which gives the nll alone or the
    nll with its gradient and Hessian. termination names why the fit
    stopped: "converged", "max_iter", "hessian_not_finite" or
    "no_descent_step". covariance is the (d, d) inverse Hessian at
    theta_hat, with zero rows and columns at pinned coordinates; it and
    std_errors, the square roots of its diagonal, are None together.
    """

    theta_hat: np.ndarray
    nll_min: float
    converged: bool
    n_evals: int
    std_errors: np.ndarray | None = None
    termination: str = ""
    covariance: np.ndarray | None = None


def infer_bounds(spec: ModelSpec) -> Bounds:
    """Data-driven box bounds from the stationary L-moment fit.

    Location intercept within +-10 sigma of the L-moment location, scale in
    (1e-8 sigma, 100 sigma) (log-scale intercept +-5 around ln sigma when
    covariates enter), shape intercept in [-0.5, 0.5], and every covariate
    slope within +-10 / std(column). Each intercept box widens by
    sum_j |mean_j| * 10 / std_j over its block's columns, so that every
    slope in its box has an intercept in the box whatever the covariates'
    means. GPD data are exceedances of a threshold at 0 (as in
    stationary_estimate), so there the location intercept and slopes are
    pinned at 0.
    """
    est = spec.lmoment_estimate
    intercepts = ((est.loc - 10.0 * est.scale, est.loc + 10.0 * est.scale),
                  (1e-8 * est.scale, 100.0 * est.scale) if spec.config[1] == 0
                  else (math.log(est.scale) - 5.0, math.log(est.scale) + 5.0),
                  (-0.5, 0.5))
    lo, hi = np.empty(param_dim(spec)), np.empty(param_dim(spec))
    for which, ((coefs, _), (low, high)) in enumerate(zip(spec._blocks, intercepts)):
        slopes = _slope_scales(spec, which, 10.0)
        for half, mean in slopes:
            low, high = low - mean * half, high + mean * half
        lo[coefs] = [low] + [-half for half, _ in slopes]
        hi[coefs] = [high] + [half for half, _ in slopes]
    if spec.family is EvdFamily.GPD:
        lo[spec._blocks[0].coefs] = hi[spec._blocks[0].coefs] = 0.0
    return Bounds(lo, hi)


def default_start(spec: ModelSpec) -> np.ndarray:
    """Stationary L-moment estimates with zero covariate slopes, inside the support.

    A GPD threshold starts at 0, where infer_bounds pins it. The shape is
    shrunk toward 0 when the L-moment point leaves an observation outside
    the support (see _into_support).
    """
    est = spec.lmoment_estimate
    intercepts = (est.loc, est.scale if spec.config[1] == 0 else math.log(est.scale),
                  min(max(est.shape, -0.45), 0.45))
    theta = np.zeros(param_dim(spec))
    for (coefs, _), value in zip(spec._blocks, intercepts):
        theta[coefs.start] = value
    return _into_support(spec, theta)


def _into_support(spec: ModelSpec, theta: np.ndarray) -> np.ndarray:
    """theta with its shape coefficients scaled so that every 1 + xi_t z_t > 0.

    When some observation has 1 + xi_t z_t <= 0, with z_t = (x_t - mu_t) /
    sigma_t, the shape coefficients are multiplied by 0.5 / max(-xi_t z_t),
    which leaves every 1 + xi_t z_t >= 0.5. Any other theta is returned as it
    is. GPD data below the threshold stay outside the support whatever the
    shape.
    """
    if spec.config[1] == 0 and not theta[spec._blocks[1].coefs.start] > 0:
        return theta  # no shape puts data inside a support with scale <= 0
    loc, scale, shape = realize(spec, theta)
    worst = float(np.max(-shape * (spec.data - loc) / scale))
    if not worst >= 1.0:
        return theta
    out = theta.copy()
    out[spec._blocks[2].coefs] *= 0.5 / worst
    return out


def _second_order(spec: ModelSpec, theta: np.ndarray):
    """The nll, its gradient and its Hessian at theta from one kernel pass."""
    nll, g, hess = _nll_terms(spec, theta, value=True, grad=True, hess=True)
    return float(nll), g, hess


def _newton(spec: ModelSpec, theta: np.ndarray, curv, bounds: Bounds, free: np.ndarray,
            scale: np.ndarray, tol: float, max_iter: int):
    """Projected damped Newton from theta, where _second_order gave curv.

    Returns (theta, nll, termination, Hessian at theta or None when it is
    not finite, the scaled Hessian's eigendecomposition over the free
    coordinates when the last step moved them all or None, kernel passes
    including curv's); termination is one of FitResult's four reasons.
    """
    lo, hi = bounds.lo, bounds.hi
    f, evals, n_free = curv[0], 1, int(free.sum())
    for it in itertools.count():
        if curv is None:
            curv = _second_order(spec, theta)
            evals += 1
        _, g, hess = curv
        if not np.isfinite(hess).all():  # NaN wherever the gradient is not finite
            return theta, f, "hessian_not_finite", None, None, evals
        move = free & ~(((theta <= lo) & (g > 0)) | ((theta >= hi) & (g < 0)))
        step, eig = np.zeros_like(theta), None
        while move.any():
            idx = np.flatnonzero(move)
            s = scale[idx]
            lam, vec = np.linalg.eigh(hess[idx[:, None], idx] * s[:, None] * s)
            floored = np.maximum(np.abs(lam), _EIG_FLOOR * max(np.abs(lam).max(), 1.0))
            step[:] = 0.0
            step[idx] = -s * (vec @ ((vec.T @ (s * g[idx])) / floored))
            out = ((theta <= lo) & (step < 0)) | ((theta >= hi) & (step > 0))
            if not out.any():
                eig = (lam, vec) if len(idx) == n_free else None
                break
            move &= ~out
        decrement = -float(g @ step)
        if decrement <= tol:
            return theta, f, "converged", hess, eig, evals
        if it >= max_iter:
            return theta, f, "max_iter", hess, eig, evals
        alpha, moved = 1.0, False
        for _ in range(_HALVINGS):  # Armijo backtracking along the projection arc
            cand = np.minimum(np.maximum(theta + alpha * step, lo), hi)
            if (cand == theta).all():
                break
            evals += 1
            if alpha == 1.0:  # the full step brings its gradient and Hessian along
                curv = _second_order(spec, cand)
                f_cand = curv[0]
            else:
                curv, f_cand = None, neg_log_likelihood(spec, cand)
            # false for +inf, and for a step that rounding leaves at f
            if f_cand < f and f_cand <= f + _ARMIJO * float(g @ (cand - theta)):
                theta, f, moved = cand, f_cand, True
                break
            alpha *= 0.5
        if not moved:
            return theta, f, "no_descent_step", hess, eig, evals


def _std_errors(hess, free: np.ndarray, scale: np.ndarray, eig=None):
    """The inverse Hessian's diagonal square roots and the inverse itself.

    Both are None unless the Hessian is positive definite. A pinned
    coordinate is not estimated, so its standard error, row and column are 0.
    eig, when given, is _newton's eigendecomposition of the same scaled block.
    """
    if hess is None:
        return None, None
    s = scale[free]
    lam, vec = eig or np.linalg.eigh(hess[np.ix_(free, free)] * s[:, None] * s)
    if not lam.min(initial=math.inf) > 0:
        return None, None
    se = np.zeros(free.size)
    se[free] = s * np.sqrt((vec**2 / lam).sum(axis=1))  # cov's diagonal, to rounding
    cov = np.zeros((free.size, free.size))
    cov[np.ix_(free, free)] = (vec / lam) @ vec.T * s[:, None] * s
    return se, 0.5 * (cov + cov.T)


def fit_mle(spec: ModelSpec, x0=None, bounds: Bounds | None = None,
            tol: float = 1e-8, max_iter: int | None = None) -> FitResult:
    """Maximum-likelihood fit of the packed parameter vector.

    x0 defaults to the stationary L-moment estimates with zero slopes and
    bounds to infer_bounds(spec); pinned coordinates stay at their bound. A
    start that leaves an observation outside the support has its shape
    shrunk toward 0 (see _into_support); FitError is raised if the nll is
    still infinite there, as when GPD data lie below a pinned threshold or
    the bounds hold the shape. Projected Newton (see the module docstring)
    stops once the Newton decrement is at most tol. max_iter caps its iterations (default
    100); a fit that hits it, or stops because the Hessian is not finite or
    no step lowers the nll, returns its best point with converged=False, and
    FitResult.termination names which of the four exits it took.
    """
    if bounds is None:
        bounds = infer_bounds(spec)
    dim = param_dim(spec)
    if bounds.lo.size != dim:
        raise DomainError(f"bounds have length {bounds.lo.size}, expected {dim}")
    default = x0 is None
    x0 = default_start(spec) if default else np.asarray(x0, dtype=float)
    max_iter = _NEWTON_ITER if max_iter is None else int(max_iter)

    start = np.clip(x0, bounds.lo, bounds.hi)
    if not (default and np.array_equal(start, x0)):  # default_start's point is in the support
        start = np.clip(_into_support(spec, start), bounds.lo, bounds.hi)
    curv = _second_order(spec, start)
    if not math.isfinite(curv[0]):
        raise FitError("the nll is not finite at the start, even with the shape shrunk "
                       "into the support")

    width = bounds.hi - bounds.lo
    free = ~bounds.pinned
    scale = np.where(np.isfinite(width), width, 1.0)
    theta, f, termination, hess, eig, evals = _newton(spec, start, curv, bounds, free, scale,
                                                      tol, max_iter)
    se, cov = _std_errors(hess, free, scale, eig)
    return FitResult(theta_hat=theta, nll_min=float(f), converged=termination == "converged",
                     n_evals=evals, std_errors=se, termination=termination, covariance=cov)


def bounds_to_json(bounds: Bounds) -> dict:
    return {"lo": bounds.lo.tolist(), "hi": bounds.hi.tolist()}


def bounds_from_json(obj) -> Bounds:
    """Bounds from {"lo": [...], "hi": [...]}; a null entry leaves that side open."""
    def side(key, sign):
        values = obj.get(key) if isinstance(obj, dict) else None
        try:
            if isinstance(values, list) and all(v is None or type(v) in (int, float)
                                                for v in values):
                return np.array([sign * math.inf if v is None else float(v) for v in values])
        except OverflowError:  # an integer too large for a float
            pass
        raise DomainError(f'bounds must be a JSON object whose "{key}" is an array '
                          "of numbers or nulls")

    return Bounds(side("lo", -1.0), side("hi", +1.0))


def load_bounds(path) -> Bounds:
    with open(path, "r", encoding="utf-8") as fh:
        return bounds_from_json(json.load(fh))
