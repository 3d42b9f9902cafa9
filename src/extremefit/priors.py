"""Prior specification, evaluation, gradients, and data-driven defaults.

A PriorSet holds one independent component per packed parameter, either
Normal(mean, sd) or Uniform(lo, hi). Defaults are weakly informative and
centered on the stationary L-moment fit, so the L-moment initialization
point always has finite prior density.

JSON interchange format (packing order):
    [{"kind": "normal", "a": <mean>, "b": <sd>},
     {"kind": "uniform", "a": <lo>, "b": <hi>}, ...]

where a and b are JSON numbers (true and false are not).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError
from .model import ModelSpec, _slope_scales

_LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class PriorComponent:
    """One marginal prior: kind 'normal' (a=mean, b=sd) or 'uniform' (a=lo, b=hi)."""

    kind: str
    a: float
    b: float

    def __post_init__(self):
        if self.kind not in ("normal", "uniform"):
            raise DomainError(f"unknown prior kind {self.kind!r}")
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise DomainError(f"prior parameters must be finite, got ({self.a}, {self.b})")
        if self.kind == "normal" and not self.b > 0:
            raise DomainError(f"normal prior requires sd > 0, got {self.b}")
        if self.kind == "uniform" and not 0 < self.b - self.a < math.inf:
            raise DomainError(f"uniform prior requires lo < hi and a finite width, "
                              f"got ({self.a}, {self.b})")


@dataclass(frozen=True)
class PriorSet:
    components: tuple[PriorComponent, ...]

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))

    def __len__(self) -> int:
        return len(self.components)

    @cached_property
    def _packed(self):
        """Normal columns with their means, sds, variances and log-density constants,
        then uniform columns with their bounds and the sum of their constants.

        The normal columns are a slice when every component is normal, so that
        theta is read without a copy and its gradient written without a scatter.
        """
        a = np.array([c.a for c in self.components])
        b = np.array([c.b for c in self.components])
        const = np.array(
            [
                -0.5 * (_LOG_2PI + 2.0 * math.log(c.b))
                if c.kind == "normal"
                else -math.log(c.b - c.a)
                for c in self.components
            ]
        )
        is_normal = np.array([c.kind == "normal" for c in self.components], dtype=bool)
        unif = np.flatnonzero(~is_normal)
        normal = np.flatnonzero(is_normal) if unif.size else slice(None)
        return (normal, a[normal], b[normal], b[normal] ** 2, const[normal],
                unif, a[unif], b[unif], float(np.sum(const[unif])))


def default_priors(spec: ModelSpec) -> PriorSet:
    """Weakly informative priors inferred from the data and configuration.

    The stationary L-moment fit (mu, sigma, xi) anchors the intercepts;
    covariate slopes get Normal(0, 1/std(column)) so that a standardized
    covariate has a unit-scale slope prior. Each intercept's sd widens by
    sum_j |mean_j| / std_j over its block's columns, the spread that those
    slope priors give the parameter's value at covariates of 0, so that a
    trend on an uncentred covariate is not pinned at 0.
    """
    est = spec.lmoment_estimate
    intercepts = ((est.loc, 2.0 * est.scale + 0.1 * abs(est.loc) + 1.0),
                  (est.scale, est.scale) if spec.config[1] == 0 else (math.log(est.scale), 1.0),
                  (0.0, 0.25))
    comps: list[PriorComponent] = []
    for which, (mean, sd) in enumerate(intercepts):
        slopes = _slope_scales(spec, which, 1.0)
        for slope_sd, col_mean in slopes:
            sd += col_mean * slope_sd
        comps.append(PriorComponent("normal", mean, sd))
        comps.extend(PriorComponent("normal", 0.0, slope_sd) for slope_sd, _ in slopes)
    return PriorSet(tuple(comps))


def _check_len(priors: PriorSet, theta) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    if theta.ndim not in (1, 2) or theta.shape[-1] != len(priors):
        length = theta.shape[-1] if theta.ndim else theta.size
        raise DomainError(f"theta length {length} does not match prior count {len(priors)}")
    return theta


def _in_support(x, lo, hi):
    """Rows of x (the uniform columns of theta) inside every [lo, hi]."""
    return ((x >= lo) & (x <= hi)).all(axis=-1)


def _prior_terms(priors: PriorSet, theta: np.ndarray, value: bool, grad: bool):
    """log_prior and its gradient at a length-checked theta in one pass; None if not asked.

    Gradient rows outside a uniform support are NaN. Rows where theta is not
    finite are the caller's to mark: see _finite_rows.
    """
    normal, mean, sd, var, const, unif, lo, hi, unif_const = priors._packed
    diff = theta[..., normal] - mean
    out = g = None
    if unif.size:
        inside = _in_support(theta[..., unif], lo, hi)
    if value:
        out = (const - 0.5 * (diff / sd) ** 2).sum(axis=-1)
        if unif.size:
            out = np.where(inside, out + unif_const, -math.inf)
        out = float(out) if theta.ndim == 1 else out
    if grad:
        g = -diff / var
        if unif.size:  # the normal columns' gradient, 0 on the uniform ones
            g, g_normal = np.zeros_like(theta), g
            g[..., normal] = g_normal
            if not inside.all():
                g[~inside] = np.nan
    return out, g


def _finite_rows(theta: np.ndarray, g: np.ndarray) -> np.ndarray:
    """g with a NaN row wherever theta's row is not finite."""
    bad = ~np.isfinite(theta).all(axis=-1)
    if bad.any():
        g[bad] = np.nan
    return g


def log_prior(priors: PriorSet, theta):
    """Sum of component log-densities; -inf outside any uniform support.

    A (K, d) theta gives a (K,) array, each row bit-identical to the (d,)
    call on it.
    """
    return _prior_terms(priors, _check_len(priors, theta), value=True, grad=False)[0]


def grad_log_prior(priors: PriorSet, theta) -> np.ndarray:
    """Gradient of log_prior; requires theta finite and inside every uniform support.

    A (d,) theta that is not raises DomainError; a (K, d) theta gets NaN
    rows there.
    """
    theta = _check_len(priors, theta)
    g = _finite_rows(theta, _prior_terms(priors, theta, value=False, grad=True)[1])
    if g.ndim == 1 and np.isnan(g).all():  # a NaN row
        raise DomainError("log prior is -inf at theta; gradient undefined")
    return g


def log_prior_and_grad(priors: PriorSet, theta):
    """(log_prior, grad_log_prior) at theta in one pass.

    Both equal the separate calls bit for bit, except that the gradient is a
    NaN row, not a DomainError, where grad_log_prior's is undefined, for a
    (d,) theta as for a (K, d) one.
    """
    theta = _check_len(priors, theta)
    lp, g = _prior_terms(priors, theta, value=True, grad=True)
    return lp, _finite_rows(theta, g)


def priors_to_json(priors: PriorSet) -> list[dict]:
    return [{"kind": c.kind, "a": c.a, "b": c.b} for c in priors.components]


def priors_from_json(obj) -> PriorSet:
    if not isinstance(obj, list):
        raise DomainError("prior file must hold a JSON array of components")

    def number(value) -> float:  # a JSON number: not a bool, not a string
        if type(value) not in (int, float):
            raise TypeError(f"{value!r} is not a number")
        return float(value)

    comps = []
    for i, entry in enumerate(obj):
        try:
            comps.append(
                PriorComponent(str(entry["kind"]), number(entry["a"]), number(entry["b"]))
            )
        except (KeyError, TypeError, OverflowError) as exc:
            raise DomainError(f"malformed prior component at index {i}: {exc}")
    return PriorSet(tuple(comps))


def load_priors(path) -> PriorSet:
    with open(path, "r", encoding="utf-8") as fh:
        return priors_from_json(json.load(fh))
