"""Random-walk Metropolis, MALA, and Hamiltonian Monte Carlo kernels.

All three target a tempered posterior: with temperature T the chain
invariant density is proportional to exp(log_post / T), and the same 1/T
scaling is applied to gradients so that drift terms and acceptance tests
describe one consistent target. T > 1 flattens the posterior for tuning,
T < 1 sharpens it.

One loop, ``sample_chains``, runs K chains in lockstep as one (K, d) state
with one target call per step; ``mh_random_walk``, ``mala`` and ``hmc`` are its
K = 1 calls. Chain k draws d normals, then one uniform, per iteration from its
own RngState, so with a target whose rows do not depend on K
(``posterior_target``) each chain is bit-identical to that chain run alone.

Conventions shared by the kernels:

* ``num_samples`` counts retained draws; the chain runs
  ``burn_in + num_samples * thin`` iterations in total (burn-in defaults
  to 25% of num_samples).
* the acceptance rate counts post-burn-in proposals only, and proposals
  rejected because a trajectory diverged still count in the denominator;
* a stored sample always has finite log-posterior.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, InitializationError
from .model import ModelSpec, grad_neg_log_likelihood, neg_log_likelihood
from .numerics import RngState
from .priors import PriorSet, grad_log_prior, log_prior


@dataclass
class Target:
    """Log-posterior (and optional gradient) plus a tuning temperature."""

    log_post: Callable[[np.ndarray], float]
    grad_log_post: Callable[[np.ndarray], np.ndarray] | None = None
    temperature: float = 1.0


@dataclass
class Chain:
    """Retained posterior draws plus sampler metadata."""

    samples: np.ndarray
    acceptance_rate: float
    sampler_tag: str
    seed: int
    stream_id: int
    num_samples: int
    burn_in: int
    thin: int
    temperature: float


def posterior_target(spec: ModelSpec, priors: PriorSet, temperature: float = 1.0) -> Target:
    """Bundle -nll + log_prior (and its gradient) for the samplers.

    Both callables take theta of shape (d,) or (K, d), a row of a batch
    bit-identical to the (d,) call on it. The gradient is NaN outside the
    support instead of raising, so that integrators can flag divergences.
    """

    def log_post(theta: np.ndarray):
        lp = log_prior(priors, theta)
        if np.ndim(lp) == 0 and lp == -math.inf:  # a lone point skips the likelihood
            return -math.inf
        return lp - neg_log_likelihood(spec, theta)  # the nll is finite or +inf

    def grad(theta: np.ndarray) -> np.ndarray:
        try:
            return grad_log_prior(priors, theta) - grad_neg_log_likelihood(spec, theta)
        except DomainError:
            return np.full(np.shape(theta), np.nan)

    return Target(log_post=log_post, grad_log_post=grad, temperature=temperature)


def _rowwise(fn):
    """A (d,) -> value callable lifted to (1, d) -> (1, ...); None stays None."""
    return fn and (lambda theta: np.asarray(fn(theta[0]), dtype=float)[None])


def _on_rows(fn, x: np.ndarray, rows: np.ndarray, fill: float, shape) -> np.ndarray:
    """fn(x) on the rows of x selected by the mask; the other rows hold fill."""
    if np.count_nonzero(rows) == len(rows):
        return fn(x)
    out = np.full(shape, fill)
    out[rows] = fn(x[rows]) if rows.any() else fill
    return out


# A kernel returns step(z) over the shared (K, d) state. From normals z it
# proposes and returns (log acceptance ratio per row, (state, proposal) pairs
# that an accepted row copies). A row to reject has a NaN or -inf ratio.
def _rw(target, temp, widths, theta, lp, g, eps, n_leapfrog):
    def step(z):
        prop = theta + widths * z
        lp_prop = target.log_post(prop)
        return (lp_prop - lp) / temp, ((theta, prop), (lp, lp_prop))
    return step


def _mala(target, temp, steps, theta, lp, g, eps, n_leapfrog):
    gt, tau = g / temp, 0.5 * steps**2

    def step(z):
        mean_fwd = theta + tau * gt
        prop = mean_fwd + steps * z
        lp_prop = target.log_post(prop)
        # NaN where lp_prop is -inf; a non-finite gradient makes lq_rev NaN or -inf
        g_prop = _on_rows(target.grad_log_post, prop, lp_prop > -math.inf, np.nan, prop.shape)
        gt_prop = g_prop / temp
        mean_rev = prop + tau * gt_prop
        lq_fwd = -0.5 * (((prop - mean_fwd) / steps) ** 2).sum(axis=-1)
        lq_rev = -0.5 * (((theta - mean_rev) / steps) ** 2).sum(axis=-1)
        log_alpha = (lp_prop - lp) / temp + lq_rev - lq_fwd
        return log_alpha, ((theta, prop), (lp, lp_prop), (gt, gt_prop))
    return step


def _hmc(target, temp, mass, theta, lp, g, eps, n_leapfrog):
    sqrt_mass, inv_mass = np.sqrt(mass), 1.0 / mass

    def step(z):
        p0 = sqrt_mass * z
        q_new, p_new = theta.copy(), p0.copy()
        # g holds each row's gradient from its accepted trajectory's end (or the start)
        diverged, g_new = _integrate(target.grad_log_post, q_new, p_new, g, eps, n_leapfrog,
                                     inv_mass, temp)
        lp_new = _on_rows(target.log_post, q_new, ~diverged, -math.inf, len(q_new))
        with np.errstate(over="ignore", invalid="ignore"):  # h1 is +inf or NaN if diverged
            h0 = -lp / temp + 0.5 * (p0 * p0 * inv_mass).sum(axis=-1)
            h1 = -lp_new / temp + 0.5 * (p_new * p_new * inv_mass).sum(axis=-1)
            return h0 - h1, ((theta, q_new), (lp, lp_new), (g, g_new))
    return step


def sample_chains(kind: str, target: Target, num_samples: int, initial_params, scales,
                  rngs: Sequence[RngState], T: float | None = None,
                  burn_in: int | None = None, thin: int = 1, eps: float = 0.2,
                  n_leapfrog: int = 10) -> list[Chain]:
    """Run one chain per RngState in rngs, all in lockstep; returns the chains in order.

    kind is "rw", "mala" or "hmc"; scales are the rw proposal widths, the mala
    step sizes or the hmc diagonal mass; eps and n_leapfrog are hmc's step size
    and path length. initial_params is one (d,) start or a (K, d) array. With
    K = 1 the target callables get (d,) rows; with K > 1 they get (K, d) states
    and return (K,) log-posteriors (-inf outside the support) and (K, d)
    gradients (NaN rows where undefined), as ``posterior_target``'s do.
    """
    temp = float(target.temperature if T is None else T)
    num_samples, thin = int(num_samples), int(thin)
    burn_in = num_samples // 4 if burn_in is None else int(burn_in)
    for bad, message in (
        (kind not in ("rw", "mala", "hmc"), f"unknown sampler {kind!r}; use rw, mala or hmc"),
        (kind != "rw" and target.grad_log_post is None, f"{kind} requires a target gradient"),
        (kind == "hmc" and not eps > 0, "eps must be > 0"),
        (kind == "hmc" and n_leapfrog < 1, "n_leapfrog must be >= 1"),
        (temp <= 0, f"temperature must be > 0, got {temp}"),
        (num_samples < 1, "num_samples must be >= 1"),
        (thin < 1, "thin must be >= 1"),
        (burn_in < 0, "burn_in must be >= 0"),
    ):
        if bad:
            raise DomainError(message)
    theta0 = np.atleast_1d(np.asarray(initial_params, dtype=float))
    n_chains, dim = len(rngs), theta0.shape[-1]
    theta = np.array(np.broadcast_to(theta0, (n_chains, dim)))  # accepted rows write here
    scales = np.broadcast_to(np.asarray(scales, dtype=float), (dim,)).astype(float)
    if np.any(scales <= 0) or not np.all(np.isfinite(scales)):
        raise DomainError("per-coordinate scales must be finite and > 0")
    if n_chains == 1:
        target = Target(_rowwise(target.log_post), _rowwise(target.grad_log_post), temp)
    lp = np.array(target.log_post(theta), dtype=float)
    if not np.all(np.isfinite(lp)):
        raise InitializationError("log-posterior is not finite at the initial point")
    g = None if kind == "rw" else np.array(target.grad_log_post(theta), dtype=float)
    if g is not None and not np.all(np.isfinite(g)):
        raise InitializationError("gradient is not finite at the initial point")
    kernel = {"rw": _rw, "mala": _mala, "hmc": _hmc}[kind]
    step = kernel(target, temp, scales, theta, lp, g, eps, n_leapfrog)
    samples = np.empty((n_chains, num_samples, dim))
    accepted = [0] * n_chains
    for it in range(burn_in + num_samples * thin):
        z = np.array([rng.normals(dim) for rng in rngs])
        log_u = [math.log(rng.uniform()) for rng in rngs]
        log_alpha, moves = step(z)
        for k, (lu, la) in enumerate(zip(log_u, log_alpha.tolist())):
            if lu < la:
                for state, proposal in moves:
                    state[k] = proposal[k]
                accepted[k] += it >= burn_in
        if it >= burn_in and (it - burn_in) % thin == thin - 1:
            samples[:, (it - burn_in) // thin] = theta
    return [Chain(samples[k], accepted[k] / (num_samples * thin), kind, rng.seed,
                  rng.stream_id, num_samples, burn_in, thin, temp)
            for k, rng in enumerate(rngs)]


def mh_random_walk(target: Target, num_samples: int, initial_params, proposal_widths,
                   T: float | None = None, rng: RngState | None = None,
                   burn_in: int | None = None, thin: int = 1) -> Chain:
    """Random-walk Metropolis with a diagonal Gaussian proposal.

    Proposes theta' = theta + proposal_widths * z and accepts with
    probability min(1, exp((log_post' - log_post) / T)).
    """
    return sample_chains("rw", target, num_samples, initial_params, proposal_widths,
                         [rng or RngState(0, 0)], T, burn_in, thin)[0]


def mala(target: Target, num_samples: int, initial_params, step_sizes,
         T: float | None = None, rng: RngState | None = None,
         burn_in: int | None = None, thin: int = 1) -> Chain:
    """Metropolis-adjusted Langevin: gradient-drifted Gaussian proposal.

    With tempered gradient g = grad_log_post/T and tau_i = step_i^2 / 2 the
    proposal theta'_i = theta_i + tau_i g_i + step_i z_i is corrected by the
    forward/reverse proposal density ratio. A non-finite gradient at the
    proposal rejects it and still counts toward the acceptance denominator.
    """
    return sample_chains("mala", target, num_samples, initial_params, step_sizes,
                         [rng or RngState(0, 0)], T, burn_in, thin)[0]


def leapfrog(target: Target, theta, momentum, eps: float, n_steps: int,
             mass_diag, T: float | None = None):
    """Leapfrog integration of Hamiltonian dynamics.

    Potential U(theta) = -log_post(theta)/T; kinetic energy uses a diagonal
    mass matrix. Returns (theta', momentum', diverged); a non-finite gradient
    or position mid-trajectory sets the divergence flag, which callers treat
    as an automatic rejection. For (K, d) states (with batched callables, see
    ``sample_chains``) diverged is a (K,) mask, and a diverging row stops
    there while the other rows keep integrating.
    """
    if target.grad_log_post is None:
        raise DomainError("leapfrog requires a target gradient")
    temp = float(target.temperature if T is None else T)
    q, p = (np.array(v, dtype=float, ndmin=2) for v in (theta, momentum))
    mass = np.broadcast_to(np.asarray(mass_diag, dtype=float), q.shape[-1:])
    if np.any(mass <= 0):
        raise DomainError("mass_diag entries must be > 0")
    grad = target.grad_log_post if np.ndim(theta) == 2 else _rowwise(target.grad_log_post)
    diverged, _ = _integrate(grad, q, p, grad(q), eps, n_steps, 1.0 / mass, temp)
    return (q, p, diverged) if np.ndim(theta) == 2 else (q[0], p[0], bool(diverged[0]))


def _integrate(grad, q, p, g_start, eps, n_steps, inv_mass, temp):
    """Leapfrog on (K, d) q and p in place, from the log-posterior gradient g_start at q.

    Returns the (K,) divergence mask and the log-posterior gradient at the
    end (NaN or stale on diverged rows). A row whose gradient or position
    turns non-finite freezes there while the other rows keep integrating.
    """
    diverged, g_log = np.zeros(len(q), dtype=bool), np.array(g_start, dtype=float)
    g = -g_log / temp  # the potential's gradient
    rows = slice(None)  # the rows still integrating; an index array after a divergence

    def keep(ok):  # freeze the moving rows where ok is False; returns whether any still moves
        nonlocal rows
        n_ok = np.count_nonzero(ok)
        if n_ok < len(ok):
            live = np.arange(len(q))[rows]
            diverged[live[~ok]] = True
            rows = live[ok]
        return n_ok > 0

    def grad_u():
        g_rows = grad(q[rows])
        g_log[rows] = g_rows
        g[rows] = -g_rows / temp
        keep(np.isfinite(g_rows).all(axis=-1))

    keep(np.isfinite(g_log).all(axis=-1))
    p[rows] -= 0.5 * eps * g[rows]
    for step in range(n_steps):
        q[rows] += eps * inv_mass * p[rows]
        if keep(np.isfinite(q[rows]).all(axis=-1)):
            grad_u()
        if step < n_steps - 1:
            p[rows] -= eps * g[rows]
    p[rows] -= 0.5 * eps * g[rows]
    return diverged, g_log


def hmc(target: Target, num_samples: int, initial_params, eps: float,
        n_leapfrog: int, mass_diag=None, T: float | None = None,
        rng: RngState | None = None, burn_in: int | None = None,
        thin: int = 1) -> Chain:
    """Hamiltonian Monte Carlo with a fixed step size and path length.

    Each iteration draws momentum ~ Normal(0, M), integrates n_leapfrog steps
    of size eps and accepts with probability min(1, exp(H - H')), H being the
    total energy; divergent trajectories are rejected and counted.
    """
    mass = np.ones(1) if mass_diag is None else mass_diag
    return sample_chains("hmc", target, num_samples, initial_params, mass,
                         [rng or RngState(0, 0)], T, burn_in, thin, eps, n_leapfrog)[0]
