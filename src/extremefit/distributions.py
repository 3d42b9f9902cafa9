"""GEV and GPD log-densities, quantiles, simulation, and parameter gradients.

Shape convention
----------------
The shape parameter ``xi`` follows Coles: the support requires
``1 + xi * (x - loc) / scale > 0``, so xi > 0 means a heavy upper tail for
the GEV. Note that some software (e.g. scipy's genextreme) parameterizes
the shape with the opposite sign.

One kernel for both families
----------------------------
With ``z = (x - loc) / scale`` everything is written through

    h(xi, z) = log1p(xi z) / xi,

the cumulative hazard ``-log(1 - F)`` of the GPD and ``-log(-log F)`` of the GEV:

    GEV  logpdf = -log scale - (1 + xi) h - exp(-h),   cdf = exp(-exp(-h))
    GPD  logpdf = -log scale - (1 + xi) h  (z >= 0),   cdf = -expm1(-h)

``dh/dz = 1 / (1 + xi z)`` and ``dh/dxi = z**2 M(xi z)`` with
``M(y) = (1 / (1 + y) - log1p(y) / y) / y`` give the gradient, and
``d2h/dxi2 = z**3 M'(xi z) = -(z**2 / (1 + xi z)**2 + 2 dh/dxi) / xi`` the
second derivatives; quantiles use the inverse ``expm1(xi w) / xi``.
``log1p`` and ``expm1`` are accurate to the last bit for small arguments, so
h and the quantile take the limit z (or w) only where ``xi z`` is 0 or
subnormal and has lost its bits: xi = 0 yields the Gumbel and exponential
limits (Coles 2001, sections 3.1.3 and 4.2.2). The closed forms of M and M'
cancel, losing about ``5e-16 / |y|`` and ``1e-15 / y**2`` relative, so for
``|xi z| < 1e-2`` each is a short Taylor series.

One pass per point
------------------
``logpdf_values`` and ``grad_logpdf_values`` check their arguments and call
one private pass, ``_terms``, which computes z, the support mask, h and
exp(-h) once and returns the log-density and its first and second
derivatives as asked. The model calls it directly, on parameters it has
already checked, so they cost one pass together.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError

# Below |y| = _SERIES the Taylor series of M(y), the derivative of
# log1p(y) / y, and of M'(y) replace their closed forms; each is truncated
# where the next term is under 1e-16 of the sum there.
_SERIES = 1e-2
_M_COEF = tuple((-1) ** k * k / (k + 1) for k in range(1, 10))
_M2_COEF = tuple((-1) ** k * k * (k - 1) / (k + 1) for k in range(2, 11))  # M'(y)
# below |y| = _TINY, y = xi * t is 0 or subnormal, and f(y) / xi is t
_TINY = np.finfo(float).tiny


class EvdFamily(Enum):
    GEV = "gev"
    GPD = "gpd"

    @classmethod
    def parse(cls, name: str) -> "EvdFamily":
        try:
            return cls(name.strip().lower())
        except ValueError:
            raise DomainError(f"unknown distribution family {name!r}; use 'gev' or 'gpd'")


@dataclass(frozen=True)
class ParamTriple:
    """Realized (location, scale, shape) for one observation."""

    loc: float
    scale: float
    shape: float


def _check_scale(scale) -> None:
    arr = np.asarray(scale, dtype=float)
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0):
        raise DomainError("scale parameter must be finite and > 0")


def _arrays(x, loc, scale, shape):
    """The arguments as float arrays, once the scale is checked."""
    _check_scale(scale)
    return tuple(np.asarray(v, dtype=float) for v in (x, loc, scale, shape))


def _quiet():
    """The kernel's floating-point rule: no warning; what goes wrong is non-finite.

    Far out in a tail exp(-h) and powers of z overflow, and so do the series
    of M and M', which are computed on every element and then overwritten.
    At a scale near 0, z overflows (and counts as outside the support),
    1 / scale**2 divides by 0, and infinite terms of both signs sum to NaN.
    Each gives an infinite value or a non-finite derivative, which every
    caller rejects.
    """
    return np.errstate(over="ignore", divide="ignore", invalid="ignore")


def _standardize(family: EvdFamily, x, loc, scale, shape):
    """Return (z, inside) for checked arrays, with z NaN outside the support.

    The ufuncs broadcast the arguments; z and inside have the full shape. A
    z that is not finite counts as outside. Callers run it under _quiet().
    """
    z = (x - loc) / scale
    inside = shape * z > -1.0
    inside &= np.isfinite(z)
    if family is EvdFamily.GPD:
        inside &= z >= 0
    return np.where(inside, z, np.nan), inside


def _series(coef, y):
    """sum(coef[k] * y**k) by Horner's rule."""
    out = np.full(y.shape, coef[-1])
    for c in coef[-2::-1]:
        out *= y
        out += c
    return out


def _over_xi(f, xi, t):
    """f(xi t) / xi for f = log1p or expm1, and y = xi t; t where y is 0 or subnormal."""
    y = xi * t
    out = np.empty_like(y)
    np.copyto(out, t)
    np.divide(f(y), xi, out=out, where=np.abs(y) >= _TINY)
    return out, y


def _terms(family: EvdFamily, x, loc, scale, shape, value: bool, grad: bool,
           hess: bool = False):
    """One kernel pass over checked arrays: z, the support, h and exp(-h) once.

    Returns the log-density (-inf outside the support) when value, the
    (d/dloc, d/dscale, d/dshape) triple when grad, and when hess (which needs
    grad) the second derivatives in (loc, scale, shape) pairs 00, 01, 02, 11,
    12, 22, both NaN outside the support; None for a part not asked for.
    Callers run it under _quiet().
    """
    z, inside = _standardize(family, x, loc, scale, shape)
    logpdf = parts = second = None
    h, y = _over_xi(np.log1p, shape, z)
    if family is EvdFamily.GEV:
        exp_h = np.exp(-h)
    if value:
        out = -np.log(scale) - (1.0 + shape) * h
        if family is EvdFamily.GEV:
            out -= exp_h
        logpdf = np.where(inside, out, -np.inf)
    if grad:
        inv_t = 1.0 / (1.0 + y)  # dh/dz
        z_t, z2, big = z * inv_t, z * z, np.abs(y) >= _SERIES
        # dh/dxi: z**2 M(y) by the series, the closed form where |y| >= _SERIES
        dh_dxi = _series(_M_COEF, y)
        dh_dxi *= z2
        np.divide(z_t - h, shape, out=dh_dxi, where=big)
        dlp_dh = -(1.0 + shape)
        if family is EvdFamily.GEV:
            dlp_dh = dlp_dh + exp_h
        gmu = -dlp_dh * inv_t / scale
        gsig = -(1.0 + dlp_dh * z * inv_t) / scale
        gxi = dlp_dh * dh_dxi - h
        parts = gmu, gsig, gxi
    if hess:
        # d2h/dxi2: z**3 M'(y) by the series, the closed form where |y| >= _SERIES
        two_dh = 2.0 * dh_dxi
        d2h = _series(_M2_COEF, y) * (z2 * z)
        np.divide(-(z_t * z_t + two_dh), shape, out=d2h, where=big)
        # loc and scale enter through z alone: dz/dloc = -1/scale, dz/dscale = -z/scale
        dlp_t, s2 = dlp_dh * inv_t, scale * scale
        zz = -shape * dlp_dh  # d2(logpdf)/dz2 * t**2, and below its d2/dh2 part
        zx = dlp_t * z_t + inv_t  # -d2(logpdf)/dz dxi, and below its d2/dh2 part
        xx = dlp_dh * d2h - two_dh
        if family is EvdFamily.GEV:  # d2(logpdf)/dh2 = -exp(-h)
            zz -= exp_h
            zx += exp_h * inv_t * dh_dxi
            xx -= exp_h * dh_dxi * dh_dxi
        mm = zz * inv_t * inv_t / s2
        ms, mx, mmz = dlp_t / s2, zx / scale, mm * z
        second = mm, mmz + ms, mx, (mmz + 2.0 * ms) * z + 1.0 / s2, mx * z, xx
    return logpdf, parts, second


def logpdf_values(family: EvdFamily, x, loc, scale, shape) -> np.ndarray:
    """Vectorized log-density; -inf outside the support.

    All arguments broadcast against each other. The caller guarantees
    scale > 0 (violations raise DomainError rather than returning -inf).
    """
    x, loc, scale, shape = _arrays(x, loc, scale, shape)
    with _quiet():
        return _terms(family, x, loc, scale, shape, value=True, grad=False)[0]


def logpdf(family: EvdFamily, x: float, p: ParamTriple) -> float:
    """Log-density at x; -inf outside the support, DomainError on scale <= 0."""
    return float(logpdf_values(family, np.array([x]), p.loc, p.scale, p.shape)[0])


def quantile_values(family: EvdFamily, p_nonexceed, loc, scale, shape) -> np.ndarray:
    """Vectorized quantile (inverse CDF) at non-exceedance probability p."""
    _check_scale(scale)
    p = np.asarray(p_nonexceed, dtype=float)
    if not ((p > 0) & (p < 1)).all():  # a NaN p fails too
        raise DomainError("non-exceedance probability must lie strictly in (0, 1)")
    loc, scale, shape = (np.asarray(v, dtype=float) for v in (loc, scale, shape))
    # standard Gumbel / exponential quantile, i.e. h at the answer
    w = -np.log(-np.log(p)) if family is EvdFamily.GEV else -np.log1p(-p)
    return loc + scale * _over_xi(np.expm1, shape, w)[0]


def quantile(family: EvdFamily, p_nonexceed: float, params: ParamTriple) -> float:
    """Quantile at non-exceedance probability p in (0, 1)."""
    return float(
        quantile_values(
            family, np.array([p_nonexceed]), params.loc, params.scale, params.shape
        )[0]
    )


def cdf_values(family: EvdFamily, x, loc, scale, shape) -> np.ndarray:
    """Vectorized CDF (clamped to [0, 1] outside the support)."""
    x, loc, scale, shape = _arrays(x, loc, scale, shape)
    with _quiet():
        z, inside = _standardize(family, x, loc, scale, shape)
        h, _ = _over_xi(np.log1p, shape, z)
        out = np.exp(-np.exp(-h)) if family is EvdFamily.GEV else -np.expm1(-h)
    # outside the support: 1 at or above loc (beyond a finite upper endpoint, xi < 0,
    # or where z overflows), else 0
    return np.where(inside, out, x >= loc)


def cdf(family: EvdFamily, x: float, params: ParamTriple) -> float:
    """Cumulative distribution function at x."""
    return float(cdf_values(family, np.array([x]), params.loc, params.scale, params.shape)[0])


def sample(family: EvdFamily, params: ParamTriple, rng, size: int | None = None):
    """Inverse-CDF simulation: quantile(family, U, params) with U from rng.

    Returns a float when size is None, else an ndarray of length size.
    """
    _check_scale(params.scale)
    if size is None:
        return quantile(family, rng.uniform(), params)
    u = rng.uniforms(size)
    return quantile_values(family, u, params.loc, params.scale, params.shape)


def grad_logpdf_values(family: EvdFamily, x, loc, scale, shape):
    """Vectorized (d/dloc, d/dscale, d/dshape) of the log-density.

    Entries outside the support are NaN, so a caller that needs interior
    points checks the result for non-finite entries.
    """
    x, loc, scale, shape = _arrays(x, loc, scale, shape)
    with _quiet():
        return _terms(family, x, loc, scale, shape, value=False, grad=True)[1]


def grad_logpdf(family: EvdFamily, x: float, p: ParamTriple) -> np.ndarray:
    """Analytic gradient of logpdf w.r.t. (loc, scale, shape) at an interior x."""
    g = np.concatenate(grad_logpdf_values(family, np.array([x]), p.loc, p.scale, p.shape))
    if not np.all(np.isfinite(g)):
        raise DomainError("x lies on or outside the support boundary")
    return g
