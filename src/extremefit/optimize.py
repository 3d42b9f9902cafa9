"""Maximum-likelihood fitting by projected Newton on the analytic gradient.

``fit_mle`` minimizes the nll over a box, inferred from a stationary L-moment
fit when not supplied, with a projected, damped Newton method (Bertsekas
1982, SIAM J. Control Optim. 20(2); Hosking 1985, AS 215, for the GEV):

* The Hessian is the central difference of the nll's gradient, its points
  sent to ``nll_and_grad`` as one (K, d) batch. Coordinate i steps by 1e-6
  times the width of its box (times 1 when the box is unbounded), never by
  |theta_i|, so the Hessian does not depend on where the data sit on the
  number line. A full Newton step is tried with such a batch at its end
  point, so when it is taken the next iteration's gradient and Hessian are
  already there; shorter steps evaluate the nll alone.
* The step uses the absolute eigenvalues of the width-scaled Hessian, floored
  away from 0, so it descends even where the nll is not convex.
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
from .model import ModelSpec, neg_log_likelihood, nll_and_grad, param_dim, realize

_HESS_STEP = 1e-6     # Hessian difference step, as a share of the box width
_EIG_FLOOR = 1e-10    # smallest |eigenvalue| of the scaled Hessian, relative to the largest
_ARMIJO = 1e-4
_HALVINGS = 60
_NEWTON_ITER = 100


@dataclass
class Bounds:
    """Elementwise box lo <= hi; +-inf entries leave a side unconstrained.

    A coordinate with lo == hi is pinned: fit_mle holds it at that value.
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

    def contains(self, x: np.ndarray) -> bool:
        return bool(np.all(x >= self.lo) and np.all(x <= self.hi))

    @property
    def pinned(self) -> np.ndarray:
        return self.lo == self.hi


@dataclass
class FitResult:
    """A minimum of the nll and how fit_mle reached it.

    n_evals counts kernel rows: 1 per nll evaluated alone, 2k + 1 per
    Hessian batch over k free coordinates. termination names why the fit
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
    a, b, c = spec.config
    lo: list[float] = []
    hi: list[float] = []

    def slope_bounds(which: int, intercept: int):
        for col in spec.columns_for(which):
            column = spec.covariates[:, col]
            half = 10.0 / max(float(np.std(column)), 1e-6)
            lo.append(-half)
            hi.append(half)
            reach = abs(float(np.mean(column))) * half
            lo[intercept] -= reach
            hi[intercept] += reach

    lo.append(est.loc - 10.0 * est.scale)
    hi.append(est.loc + 10.0 * est.scale)
    slope_bounds(0, 0)
    if spec.family is EvdFamily.GPD:
        lo[: a + 1] = hi[: a + 1] = [0.0] * (a + 1)
    if b == 0:
        lo.append(1e-8 * est.scale)
        hi.append(100.0 * est.scale)
    else:
        lo.append(math.log(est.scale) - 5.0)
        hi.append(math.log(est.scale) + 5.0)
        slope_bounds(1, a + 1)
    lo.append(-0.5)
    hi.append(0.5)
    slope_bounds(2, a + b + 2)
    return Bounds(np.array(lo), np.array(hi))


def default_start(spec: ModelSpec) -> np.ndarray:
    """Stationary L-moment estimates with zero covariate slopes, inside the support.

    A GPD threshold starts at 0, where infer_bounds pins it. The shape is
    shrunk toward 0 when the L-moment point leaves an observation outside
    the support (see _into_support).
    """
    est = spec.lmoment_estimate
    a, b, c = spec.config
    theta = [est.loc] + [0.0] * a
    theta.append(est.scale if b == 0 else math.log(est.scale))
    theta.extend([0.0] * b)
    theta.append(min(max(est.shape, -0.45), 0.45))
    theta.extend([0.0] * c)
    return _into_support(spec, np.array(theta))


def _into_support(spec: ModelSpec, theta: np.ndarray) -> np.ndarray:
    """theta with its shape coefficients scaled so that every 1 + xi_t z_t > 0.

    When some observation has 1 + xi_t z_t <= 0, with z_t = (x_t - mu_t) /
    sigma_t, the shape coefficients are multiplied by 0.5 / max(-xi_t z_t),
    which leaves every 1 + xi_t z_t >= 0.5. Any other theta is returned as it
    is. GPD data below the threshold stay outside the support whatever the
    shape.
    """
    a, b, _ = spec.config
    if b == 0 and not theta[a + 1] > 0:
        return theta  # no shape puts data inside a support with scale <= 0
    loc, scale, shape = realize(spec, theta)
    worst = float(np.max(-shape * (spec.data - loc) / scale))
    if not worst >= 1.0:
        return theta
    out = theta.copy()
    out[a + b + 2:] *= 0.5 / worst
    return out


def _curvature(spec: ModelSpec, theta: np.ndarray, free: np.ndarray, steps: np.ndarray):
    """The nll and gradient at theta and the central-difference Hessian of the free coordinates.

    The 2k + 1 points go to nll_and_grad as one (K, d) batch, which the
    model splits for long series. Entries that a point outside the support
    makes undefined come back NaN.
    """
    idx = np.flatnonzero(free)
    k = np.arange(idx.size)
    points = np.repeat(theta[None], 2 * idx.size + 1, axis=0)
    points[1 + k, idx] += steps[idx]
    points[1 + idx.size + k, idx] -= steps[idx]
    nll, grads = nll_and_grad(spec, points)
    span = points[1 + k, idx] - points[1 + idx.size + k, idx]  # the steps as rounded
    jac = (grads[1:1 + idx.size, idx] - grads[1 + idx.size:, idx]) / span[:, None]
    return float(nll[0]), grads[0], 0.5 * (jac + jac.T)


def _newton(spec: ModelSpec, theta: np.ndarray, f: float, bounds: Bounds,
            free: np.ndarray, scale: np.ndarray, tol: float, max_iter: int):
    """Projected damped Newton from theta, where the nll is f.

    Returns (theta, nll, termination, Hessian over the free coordinates at
    theta or None when it is not finite, evaluations); termination is one of
    FitResult's four reasons.
    """
    lo, hi = bounds.lo, bounds.hi
    diff_steps, rows = _HESS_STEP * scale, 2 * int(free.sum()) + 1
    evals, curv = 0, None
    for it in itertools.count():
        if curv is None:
            curv = _curvature(spec, theta, free, diff_steps)
            evals += rows
        _, g, hess = curv
        if not (np.all(np.isfinite(g)) and np.all(np.isfinite(hess))):
            return theta, f, "hessian_not_finite", None, evals
        move = free & ~(((theta <= lo) & (g > 0)) | ((theta >= hi) & (g < 0)))
        step = np.zeros_like(theta)
        while move.any():
            sub, s = move[free], scale[move]
            lam, vec = np.linalg.eigh(hess[np.ix_(sub, sub)] * s[:, None] * s)
            lam = np.maximum(np.abs(lam), _EIG_FLOOR * max(np.abs(lam).max(), 1.0))
            step[:] = 0.0
            step[move] = -s * (vec @ ((vec.T @ (s * g[move])) / lam))
            out = ((theta <= lo) & (step < 0)) | ((theta >= hi) & (step > 0))
            if not out.any():
                break
            move &= ~out
        decrement = -float(g @ step)
        if decrement <= tol:
            return theta, f, "converged", hess, evals
        if it >= max_iter:
            return theta, f, "max_iter", hess, evals
        alpha, moved = 1.0, False
        for _ in range(_HALVINGS):  # Armijo backtracking along the projection arc
            cand = np.clip(theta + alpha * step, lo, hi)
            if np.array_equal(cand, theta):
                break
            if alpha == 1.0:  # the full step, mostly taken, brings its next curvature along
                curv = _curvature(spec, cand, free, diff_steps)
                f_cand = curv[0]
                evals += rows
            else:
                curv, f_cand = None, neg_log_likelihood(spec, cand)
                evals += 1
            # false for +inf, and for a step that rounding leaves at f
            if f_cand < f and f_cand <= f + _ARMIJO * float(g @ (cand - theta)):
                theta, f, moved = cand, f_cand, True
                break
            alpha *= 0.5
        if not moved:
            return theta, f, "no_descent_step", hess, evals


def _std_errors(hess, free: np.ndarray, scale: np.ndarray):
    """The inverse Hessian's diagonal square roots and the inverse itself.

    Both are None unless the Hessian is positive definite. A pinned
    coordinate is not estimated, so its standard error, row and column are 0.
    """
    if hess is None:
        return None, None
    s = scale[free]
    lam, vec = np.linalg.eigh(hess * s[:, None] * s)
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
    if x0 is None:
        x0 = default_start(spec)
    x0 = np.clip(np.asarray(x0, dtype=float), bounds.lo, bounds.hi)
    max_iter = _NEWTON_ITER if max_iter is None else int(max_iter)

    start = np.clip(_into_support(spec, x0), bounds.lo, bounds.hi)
    f_start = neg_log_likelihood(spec, start)
    if not math.isfinite(f_start):
        raise FitError("the nll is not finite at the start, even with the shape shrunk "
                       "into the support")

    width = bounds.hi - bounds.lo
    free = ~bounds.pinned
    scale = np.where(np.isfinite(width), width, 1.0)
    theta, f, termination, hess, evals = _newton(spec, start, f_start, bounds, free, scale,
                                                 tol, max_iter)
    se, cov = _std_errors(hess, free, scale)
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
