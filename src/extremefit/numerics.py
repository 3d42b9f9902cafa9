"""Special functions, deterministic RNG streams, and finite-difference gradients.

These are the numerical primitives everything else sits on: log-gamma, the
chi-squared tail of the likelihood-ratio test in closed form for integer df
(Abramowitz & Stegun 1964, 26.4.4-26.4.5), reproducible per-chain random
streams, and a central finite-difference gradient used as the reference for
analytic gradients.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, EvaluationError


def lgamma(x: float) -> float:
    """Natural log of the gamma function for x > 0.

    Backed by the platform C library implementation, which is accurate to
    well under the 1e-12 absolute error this package requires on [0.1, 100].
    """
    if not x > 0:
        raise DomainError(f"lgamma requires x > 0, got {x}")
    return math.lgamma(x)


def chi2_sf(x: float, df: int) -> float:
    """Chi-squared survival function for an integer df, in closed form.

    Abramowitz & Stegun (1964) 26.4.4-26.4.5: for even df the tail is
    e^(-x/2) sum_{k < df/2} (x/2)^k / k!, for odd df it is erfc(sqrt(x/2))
    + sqrt(2x/pi) e^(-x/2) sum_{k=1}^{(df-1)/2} x^(k-1) / (1*3*...*(2k-1)).
    Each term is the one before times a ratio, so terms can underflow but never
    overflow. Past x ~ 1416 e^(-x/2) is subnormal and the tail loses digits;
    past x ~ 1490 it reads 0. The true tail there is below 1e-270 at df <= 40.
    """
    if not (1 <= df < math.inf and df % 1 == 0):
        raise DomainError(f"chi2_sf requires integer df >= 1, got {df}")
    if not 0 <= x < math.inf:
        raise DomainError(f"chi2_sf requires finite x >= 0, got {x}")
    half = 0.5 * x
    if df % 2:
        total = math.erfc(math.sqrt(half))
        term = math.sqrt(x / (0.5 * math.pi)) * math.exp(-half)
        for k in range(1, (int(df) + 1) // 2):
            total += term
            term *= x / (2 * k + 1)
    else:
        total = 0.0
        term = math.exp(-half)
        for k in range(1, int(df) // 2 + 1):
            total += term
            term *= half / k
    return min(1.0, total)


class RngState:
    """Deterministic random stream identified by (seed, stream_id).

    Wraps numpy's PCG64 seeded through ``SeedSequence(seed,
    spawn_key=(stream_id,))``: the same pair reproduces the same draw
    sequence bit-for-bit, and distinct stream_ids give statistically
    independent streams (one per MCMC chain).
    """

    def __init__(self, seed: int, stream_id: int = 0):
        if seed < 0 or stream_id < 0:
            raise DomainError("seed and stream_id must be non-negative integers")
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        ss = np.random.SeedSequence(self.seed, spawn_key=(self.stream_id,))
        self._gen = np.random.Generator(np.random.PCG64(ss))

    def uniform(self) -> float:
        """One draw from the open interval (0, 1)."""
        u = self._gen.random()
        while u == 0.0:
            u = self._gen.random()
        return float(u)

    def normal(self) -> float:
        """One standard normal draw."""
        return float(self._gen.standard_normal())

    def uniforms(self, size: int) -> np.ndarray:
        """Vector of draws from (0, 1)."""
        u = self._gen.random(size)
        mask = u == 0.0
        while mask.any():
            u[mask] = self._gen.random(int(mask.sum()))
            mask = u == 0.0
        return u

    def normals(self, size: int) -> np.ndarray:
        """Vector of standard normal draws."""
        return self._gen.standard_normal(size)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngState(seed={self.seed}, stream_id={self.stream_id})"


def central_diff_grad(f, theta, h_rel: float = 1e-6) -> np.ndarray:
    """Central finite-difference gradient of a scalar function.

    Per-component step h_i = max(h_rel, h_rel * |theta_i|). Raises
    EvaluationError if f is non-finite at any perturbed point, naming the
    offending component.
    """
    theta = np.asarray(theta, dtype=float)
    grad = np.empty_like(theta)
    for i in range(theta.size):
        h = max(h_rel, h_rel * abs(theta[i]))
        up = theta.copy()
        up[i] += h
        dn = theta.copy()
        dn[i] -= h
        f_up = f(up)
        f_dn = f(dn)
        if not (math.isfinite(f_up) and math.isfinite(f_dn)):
            raise EvaluationError(
                f"function non-finite when perturbing component {i} "
                f"(f+={f_up}, f-={f_dn})"
            )
        grad[i] = (f_up - f_dn) / (2.0 * h)
    return grad
