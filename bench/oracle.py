"""Reference computations for the benchmark's output checks.

Everything here is computed apart from extremefit: densities, quantiles and
CDFs come from scipy.stats, the parameter maps and the effective sample size
are re-implemented with numpy (``params.realize``), and maxima are searched
with scipy.optimize. Nothing in this module imports extremefit.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import optimize, stats

from params import realize  # noqa: F401  (re-exported for the checks)

NLL_RTOL = 1e-10
SUPPORT_PENALTY = 1e10  # stands in for +inf where an optimiser needs a number


def _dist(family):
    return stats.genextreme if family == "gev" else stats.genpareto


def _c(family, shape):
    # scipy's genextreme uses c = -xi; genpareto uses c = xi.
    return -shape if family == "gev" else shape


def logpdf(family, x, loc, scale, shape):
    with np.errstate(all="ignore"):
        return _dist(family).logpdf(x, _c(family, shape), loc=loc, scale=scale)


def nll(family, x, config, cov, theta):
    """Negative log-likelihood by scipy.stats; a vector for theta of shape (S, d).

    +inf off the support or for a non-positive scale.
    """
    loc, scale, shape = realize(config, cov, theta)
    with np.errstate(all="ignore"):
        bad = ~(scale > 0)
        lp = logpdf(family, x, loc, np.where(bad, 1.0, scale), shape)
        total = -np.sum(np.where(bad, -np.inf, lp), axis=-1)
    return np.where(np.isfinite(total), total, np.inf)


def quantile(family, p, loc, scale, shape):
    return _dist(family).ppf(p, _c(family, shape), loc=loc, scale=scale)


def cdf(family, x, loc, scale, shape):
    return _dist(family).cdf(x, _c(family, shape), loc=loc, scale=scale)


def best_nearby(fun, theta, lo, hi, free):
    """Lowest value two scipy optimisers find from theta within [lo, hi].

    Only the coordinates where ``free`` is true move; the others are held at
    their value in theta (pinned coordinates stay pinned).
    """
    theta = np.asarray(theta, dtype=float)
    free = np.asarray(free, dtype=bool)

    def f(z):
        t = theta.copy()
        t[free] = z
        v = float(fun(t))
        return v if math.isfinite(v) else SUPPORT_PENALTY

    box = list(zip(np.asarray(lo)[free], np.asarray(hi)[free]))
    box = [(None if not math.isfinite(l) else l, None if not math.isfinite(h) else h)
           for l, h in box]
    z0 = theta[free]
    best = f(z0)
    for method, options in (
        ("L-BFGS-B", {"maxiter": 2000}),
        ("Nelder-Mead", {"xatol": 1e-7, "fatol": 1e-7, "maxfev": 2000, "adaptive": True}),
    ):
        res = optimize.minimize(f, z0, method=method, bounds=box, options=options)
        best = min(best, float(res.fun))
    return best


def moment_start(family, x, config):
    """Method-of-moments stationary start padded with zero slopes."""
    a, b, c = config
    sd = float(np.std(x))
    if family == "gev":
        scale = sd * math.sqrt(6.0) / math.pi
        loc = float(np.mean(x)) - 0.5772 * scale
    else:
        loc, scale = 0.0, float(np.mean(x))
    theta = [loc] + [0.0] * a
    theta += [scale] if b == 0 else [math.log(scale)] + [0.0] * b
    theta += [0.05] + [0.0] * c
    return np.array(theta)


def ess(x):
    """Effective sample size of one chain by Geyer's initial monotone sequence.

    Autocovariances come from a direct FFT; pair sums are cut at the first
    non-positive one and made non-increasing. Capped at n * log10(n).
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    xc = x - x.mean()
    if not np.any(xc):
        return 0.0
    spec = np.fft.rfft(xc, 2 * n)
    acov = np.fft.irfft(spec * np.conj(spec), 2 * n)[:n] / n
    rho = acov / acov[0]
    pairs = rho[: n - n % 2].reshape(-1, 2).sum(axis=1)
    nonpos = np.flatnonzero(pairs <= 0)
    pairs = np.minimum.accumulate(pairs[: nonpos[0] if nonpos.size else pairs.size])
    tau = max(-1.0 + 2.0 * float(pairs.sum()), 1.0 / math.log10(n))
    return n / tau


def split_rhat(columns):
    """Classic split-R-hat of one parameter over a list of chains."""
    halves = []
    for x in columns:
        h = len(x) // 2
        halves += [x[:h], x[len(x) - h:]]
    n = min(len(h) for h in halves)
    halves = np.array([h[:n] for h in halves])
    w = halves.var(axis=1, ddof=1).mean()
    b = n * halves.mean(axis=1).var(ddof=1)
    return math.sqrt(((n - 1) / n * w + b / n) / w)


def log_prior(components, theta):
    """Log prior density of independent normal/uniform components; (S, d) -> (S,)."""
    th = np.atleast_2d(theta)
    out = np.zeros(th.shape[0])
    for j, (kind, a, b) in enumerate(components):
        if kind == "normal":
            out += stats.norm.logpdf(th[:, j], loc=a, scale=b)
        else:
            out += stats.uniform.logpdf(th[:, j], loc=a, scale=b - a)
    return out


def chi2_sf(x, df):
    return float(stats.chi2.sf(x, df))


def ks_uniform_p(u):
    return float(stats.kstest(u, "uniform").pvalue)
