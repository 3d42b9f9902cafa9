"""Random-walk Metropolis, MALA, and Hamiltonian Monte Carlo kernels.

MALA runs as one-step HMC: with steps s it is HMC with one leapfrog step of
size 1 and mass 1/s**2 (Neal 2011, Handbook of MCMC, ch. 5), so one
integrator serves both.

All three target a tempered posterior: with temperature T the chain
invariant density is proportional to exp(log_post / T), and the same 1/T
scaling is applied to gradients so that drift terms and acceptance tests
describe one consistent target. T > 1 flattens the posterior for tuning,
T < 1 sharpens it.

One loop, ``sample_chains``, runs K chains in lockstep as one (K, d) state
with one target call per step; ``mh_random_walk``, ``mala`` and ``hmc`` are its
K = 1 calls. Each point is evaluated once: rw calls ``log_post`` once per
iteration, mala calls ``value_and_grad`` once per iteration, and hmc with L
leapfrog steps calls ``grad_log_post`` L - 1 times and ``value_and_grad``
once at the trajectory's end. Chain k draws d normals, then one uniform,
per iteration from its own RngState, so with a target whose rows do not
depend on K (``posterior_target``) each chain is bit-identical to that
chain run alone.

Conventions shared by the kernels:

* ``num_samples`` counts retained draws; the chain runs
  ``burn_in + num_samples * thin`` iterations in total (burn-in defaults
  to 25% of num_samples).
* the acceptance rate counts post-burn-in proposals only, and proposals
  rejected because a trajectory diverged still count in the denominator;
* a stored sample always has finite log-posterior;
* each chain scales its steps by a multiplier, which burn-in may adapt
  toward a target acceptance (dual averaging, Hoffman & Gelman 2014) and
  which is then frozen; adaptation draws no random numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, ExtremeFitError, InitializationError
from .model import ModelSpec, _matvec, grad_neg_log_likelihood, neg_log_likelihood, nll_and_grad
from .numerics import RngState
from .optimize import Bounds, default_start, fit_mle, infer_bounds
from .priors import PriorSet, grad_log_prior, log_prior, log_prior_and_grad

# burn-in adapts each mala chain's step multiplier toward the optimal MALA
# acceptance (Roberts & Rosenthal 1998, JRSS B 60); hmc and rw keep theirs
MALA_TARGET_ACCEPT = 0.574
# hmc runs in u, where the posterior is close to N(0, I): unless eps or
# n_leapfrog is given, its step is HMC_STEP_CONST * k**(-1/4) over the k free
# coordinates (Beskos, Pillai, Roberts, Sanz-Serna & Stuart 2013, Bernoulli
# 19) and its leapfrog count ceil(HMC_PATH / step), the same for every chain
HMC_PATH = 2.0
HMC_STEP_CONST = 0.8


@dataclass
class Target:
    """Log-posterior (and optional gradient) plus a tuning temperature.

    value_and_grad, when given, returns (log_post(theta), grad_log_post(theta))
    from one call; the gradient may be NaN where the log-posterior is -inf.
    mala and hmc call it at the start and at each trajectory's end, in place of
    the two callables. A target without it gets one made of the two, which
    takes the gradient only where the log-posterior is above -inf.
    """

    log_post: Callable[[np.ndarray], float]
    grad_log_post: Callable[[np.ndarray], np.ndarray] | None = None
    temperature: float = 1.0
    value_and_grad: Callable[[np.ndarray], tuple] | None = None


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
    step_scale: float  # the frozen step multiplier: of the rw widths or mala steps; hmc's eps


def posterior_target(spec: ModelSpec, priors: PriorSet, temperature: float = 1.0) -> Target:
    """Bundle -nll + log_prior (and its gradient) for the samplers.

    The callables take theta of shape (d,) or (K, d), a row of a batch
    bit-identical to the (d,) call on it. The gradient is NaN outside the
    support instead of raising, so that integrators can flag divergences.
    value_and_grad equals (log_post, grad_log_post) bit for bit from one
    pass through the likelihood and one through the prior.
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

    def value_and_grad(theta: np.ndarray):
        lp, g = log_prior_and_grad(priors, theta)
        if np.ndim(lp) == 0 and lp == -math.inf:  # as in log_post
            return -math.inf, np.full(np.shape(theta), np.nan)
        nll, g_nll = nll_and_grad(spec, theta)
        return lp - nll, g - g_nll

    return Target(log_post, grad, temperature, value_and_grad)


def _rowwise(fn):
    """A (d,) -> value callable lifted to (1, d) -> (1, ...); None stays None."""
    return fn and (lambda theta: np.asarray(fn(theta[0]), dtype=float)[None])


def _rowwise_pair(fn):
    """_rowwise for a callable that returns a (value, gradient) pair."""
    return fn and (lambda theta: tuple(np.asarray(v, dtype=float)[None] for v in fn(theta[0])))


def _value_and_grad(log_post, grad):
    """value_and_grad made of two callables.

    The gradient is taken on the rows whose log_post is above -inf and is NaN
    on the others.
    """

    def value_and_grad(theta: np.ndarray):
        lp = log_post(theta)
        inside = [k for k, v in enumerate(lp.tolist()) if v > -math.inf]
        return lp, _on_rows(grad, theta, inside, np.nan, theta.shape)
    return value_and_grad


def _tempered(x, temp: float):
    return x if temp == 1.0 else x / temp  # x / 1.0 is x, bit for bit


# Rows of a (K, d) state are selected by slice(None) (every row) or an index array.
def _on_rows(fn, x: np.ndarray, rows, fill: float, shape) -> np.ndarray:
    """fn(x) on the selected rows of x; the other rows hold fill."""
    if isinstance(rows, slice) or len(rows) == len(x):
        return fn(x)
    out = np.full(shape, fill)
    if len(rows):
        out[rows] = fn(x[rows])
    return out


def _finite_part(x: np.ndarray, rows):
    """rows narrowed to those whose row of x (values on the selected rows) is finite.

    Also returns the kept positions within x, to narrow x alike.
    """
    if np.isfinite(x).all():
        return rows, slice(None)
    kept = np.flatnonzero(np.isfinite(x).all(axis=-1))
    return (kept if isinstance(rows, slice) else rows[kept]), kept


# A kernel returns step(z) over the shared (K, d) state for the (K, 1) step
# multipliers eps. From normals z it proposes and returns (log acceptance
# ratio per row, (state, proposal) pairs that an accepted row copies). A row
# to reject has a NaN or -inf ratio.
def _rw(target, temp, widths, theta, lp, eps):
    widths = eps * widths

    def step(z):
        prop = theta + widths * z
        lp_prop = target.log_post(prop)
        return (lp_prop - lp) / temp, ((theta, prop), (lp, lp_prop))
    return step


def _hmc(target, temp, mass, n_leapfrog, theta, lp, gt, eps):
    """HMC with a diagonal mass; gt holds the tempered gradient at theta.

    With n_leapfrog = 1, eps = 1 and mass 1/s**2 this is MALA with steps s
    (Neal 2011, Handbook of MCMC, ch. 5).
    """
    sqrt_mass, inv_mass = np.sqrt(mass), 1.0 / mass
    half, drift = 0.5 * eps, eps * inv_mass

    def step(z):
        p0 = sqrt_mass * z
        # gt holds each row's gradient from its accepted trajectory's end (or the start)
        q, p, rows = _integrate(target.grad_log_post, theta, p0, gt, half, eps, drift,
                                n_leapfrog, temp)
        # the end: one value_and_grad call on the rows still moving
        if isinstance(rows, slice) or len(rows) == len(q):
            lp_new, g_new = target.value_and_grad(q)
        else:
            lp_new, g_new = np.full(len(q), -math.inf), np.full(q.shape, np.nan)
            if len(rows):
                lp_new[rows], g_new[rows] = target.value_and_grad(q[rows])
        gt_new = _tempered(g_new, temp)
        p += half * gt_new  # NaN on the rows that stopped or left the support: a NaN ratio
        h0 = 0.5 * (p0 * p0 * inv_mass).sum(axis=-1) - _tempered(lp, temp)
        h1 = 0.5 * (p * p * inv_mass).sum(axis=-1) - _tempered(lp_new, temp)
        return h0 - h1, ((theta, q), (lp, lp_new), (gt, gt_new))
    return step


def _dual_averaging(delta: float, eps0: float):
    """Step-size adaptation toward the acceptance delta (Hoffman & Gelman 2014, JMLR 15, §3.2).

    Returns update(log_alpha, last) -> the next step: the iterate log eps_m
    during burn-in, the average log eps_bar_m when last. An acceptance ratio of
    NaN counts as 0. Pure float arithmetic, so a chain adapts alike alone and in
    lockstep.
    """
    mu, gamma, t0, kappa = math.log(10.0 * eps0), 0.05, 10.0, 0.75
    m, h_bar, log_eps_bar = 0, 0.0, 0.0

    def update(log_alpha: float, last: bool) -> float:
        nonlocal m, h_bar, log_eps_bar
        m += 1
        accept = math.exp(min(log_alpha, 0.0)) if log_alpha == log_alpha else 0.0
        h_bar = (1.0 - 1.0 / (m + t0)) * h_bar + (delta - accept) / (m + t0)
        log_eps = mu - math.sqrt(m) / gamma * h_bar
        w = m ** -kappa
        log_eps_bar = w * log_eps + (1.0 - w) * log_eps_bar
        return math.exp(min(log_eps_bar if last else log_eps, 700.0))  # exp overflows past 709.8
    return update


def sample_chains(kind: str, target: Target, num_samples: int, initial_params, scales,
                  rngs: Sequence[RngState], T: float | None = None,
                  burn_in: int | None = None, thin: int = 1, eps: float = 0.2,
                  n_leapfrog: int = 10, target_accept: float | None = None) -> list[Chain]:
    """Run one chain per RngState in rngs, all in lockstep; returns the chains in order.

    kind is "rw", "mala" or "hmc"; scales are the rw proposal widths, the mala
    step sizes or the hmc diagonal mass; eps and n_leapfrog are hmc's step size
    and path length. initial_params is one (d,) start or a (K, d) array. With
    K = 1 the target callables get (d,) rows; with K > 1 they get (K, d) states
    and return (K,) log-posteriors (-inf outside the support) and (K, d)
    gradients (NaN rows where undefined), as ``posterior_target``'s do, and
    value_and_grad returns the pair. mala and hmc evaluate the start and each
    trajectory's end by value_and_grad, made of the other two callables when
    the target has none.

    Each chain scales its steps by a multiplier (``Chain.step_scale``): 1 for
    rw and mala, eps for hmc. With target_accept, burn-in adapts each chain's
    multiplier by dual averaging of its own acceptance probabilities toward
    target_accept, then freezes it at the averaged value; no extra random
    numbers are drawn.
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
        (target_accept is not None and not 0 < target_accept < 1,
         "target_accept must be in (0, 1)"),
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
        target = Target(_rowwise(target.log_post), _rowwise(target.grad_log_post), temp,
                        _rowwise_pair(target.value_and_grad))
    if kind != "rw" and target.value_and_grad is None:
        target = replace(target, value_and_grad=_value_and_grad(target.log_post,
                                                                target.grad_log_post))
    lp, g = (target.log_post(theta), None) if kind == "rw" else target.value_and_grad(theta)
    lp = np.array(lp, dtype=float)  # copies: accepted rows write into the state
    if not np.all(np.isfinite(lp)):
        raise InitializationError("log-posterior is not finite at the initial point")
    if g is not None:
        g = np.array(g, dtype=float)
        if not np.all(np.isfinite(g)):
            raise InitializationError("gradient is not finite at the initial point")
    eps0 = float(eps) if kind == "hmc" else 1.0
    multipliers = np.full((n_chains, 1), eps0)
    if kind == "rw":
        kernel = partial(_rw, target, temp, scales, theta, lp)
    else:  # mala is one-step HMC with mass 1/s**2
        mass, n_steps = (scales, n_leapfrog) if kind == "hmc" else (1.0 / scales**2, 1)
        kernel = partial(_hmc, target, temp, mass, n_steps, theta, lp, _tempered(g, temp))
    step = kernel(multipliers)
    adapters = ([_dual_averaging(target_accept, eps0) for _ in rngs]
                if target_accept is not None else [])
    samples = np.empty((n_chains, num_samples, dim))
    accepted = [0] * n_chains
    for it in range(burn_in + num_samples * thin):
        z = np.array([rng.normals(dim) for rng in rngs])
        log_u = [math.log(rng.uniform()) for rng in rngs]
        log_alpha, moves = step(z)
        log_alpha = log_alpha.tolist()
        for k, (lu, la) in enumerate(zip(log_u, log_alpha)):
            if lu < la:
                for state, proposal in moves:
                    state[k] = proposal[k]
                accepted[k] += it >= burn_in
        if it < burn_in and adapters:
            for k, (update, la) in enumerate(zip(adapters, log_alpha)):
                multipliers[k, 0] = update(la, it == burn_in - 1)
            step = kernel(multipliers)
        if it >= burn_in and (it - burn_in) % thin == thin - 1:
            samples[:, (it - burn_in) // thin] = theta
    return [Chain(samples[k], accepted[k] / (num_samples * thin), kind, rng.seed,
                  rng.stream_id, num_samples, burn_in, thin, temp, float(multipliers[k, 0]))
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
    forward/reverse proposal density ratio, computed as one-step HMC with
    mass 1/step**2 (equal up to rounding). The gradient at the proposal is
    taken only where its log-posterior is finite; a non-finite gradient
    rejects it and still counts toward the acceptance denominator.
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
    gt = _tempered(grad(q), temp)
    start, _ = _finite_part(gt, np.arange(len(q)))  # a row with no gradient never moves
    diverged = np.ones(len(q), dtype=bool)
    if len(start):
        eps_rows = np.full((len(start), 1), float(eps))
        q[start], p[start], rows = _integrate(grad, q[start], p[start], gt[start], 0.5 * eps_rows,
                                              eps_rows, eps_rows * (1.0 / mass), n_steps, temp,
                                              finish=True)
        diverged[start[rows]] = False
    return (q, p, diverged) if np.ndim(theta) == 2 else (q[0], p[0], bool(diverged[0]))


def _integrate(grad, q, p, gt, half, eps, drift, n_steps, temp, finish=False):
    """Leapfrog from (K, d) q and p; returns new (q, p) and the rows still moving.

    gt is the tempered log-posterior gradient at q, finite on every row; half,
    eps and drift are the (K, 1) half and full steps and the (K, d) position
    steps eps / mass. A row whose position or gradient turns non-finite stops
    there while the other rows keep integrating. Without finish the last
    gradient and half step of the momenta are left to the caller, which
    evaluates the end point itself.
    """
    p = p + half * gt
    q = q + drift * p
    rows, _ = _finite_part(q, slice(None))
    for step in range(n_steps if finish else n_steps - 1):
        if isinstance(rows, np.ndarray) and not rows.size:
            break
        g = grad(q[rows])
        rows, kept = _finite_part(g, rows)
        gt = _tempered(g[kept], temp)
        if step == n_steps - 1:
            p[rows] += half[rows] * gt
        else:
            p[rows] += eps[rows] * gt
            q[rows] += drift[rows] * p[rows]
            rows, _ = _finite_part(q[rows], rows)
    return q, p, rows


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


def _prior_scales(priors: PriorSet) -> np.ndarray:
    """Each prior's standard deviation."""
    return np.array([c.b if c.kind == "normal" else (c.b - c.a) / math.sqrt(12.0)
                     for c in priors.components])


def _resolve_steps(steps, spec: ModelSpec, priors: PriorSet, bounds: Bounds,
                   x0) -> tuple[np.ndarray, str]:
    """The (d, k) factor F over the k free coordinates and where it came from.

    The samplers move u in R^k, where theta = x0 + F u; F's rows at the
    coordinates that the bounds pin are 0, so every draw holds them at x0.
    The source is "steps" for an explicit steps vector, which gives the
    free columns of diag(steps). Otherwise a quick maximum-likelihood fit
    gives its covariance S, and F is the Cholesky factor of D S D over the
    free coordinates with D = diag(min(1, prior scale / SE)): the fit's
    correlations, each marginal scale capped at its prior's ("mle"). When
    the fit fails or its Hessian is unusable F is the diagonal of the prior
    scales shrunk by 20x ("prior_fallback").
    """
    free = ~bounds.pinned
    if steps is not None:
        steps = np.asarray(steps, dtype=float)
        if steps.shape != free.shape or not np.all((steps > 0) & (steps < math.inf)):
            raise DomainError(f"steps must hold {free.size} finite entries > 0")
        factor, source = np.diag(steps), "steps"
    else:
        prior_scales = np.maximum(_prior_scales(priors), 1e-12)
        factor, source = np.diag(0.05 * prior_scales), "prior_fallback"
        try:
            fit = fit_mle(spec, x0, bounds)
            if fit.covariance is not None:
                d = np.minimum(1.0, prior_scales[free] / fit.std_errors[free])
                factor = np.zeros_like(factor)
                factor[np.ix_(free, free)] = np.linalg.cholesky(
                    fit.covariance[np.ix_(free, free)] * d[:, None] * d)
                source = "mle"
        except (ExtremeFitError, np.linalg.LinAlgError):
            pass
    # boolean column indexing gives F order, which changes the matvecs' last bits
    return np.ascontiguousarray(factor[:, free]), source


def _whitened(target: Target, x0: np.ndarray, factor: np.ndarray):
    """target in the coordinates u of theta = x0 + factor u, and the map to theta.

    Rows map by the stacked matvec of ``model._matvec``, so a chain's row is
    bit-identical alone and in lockstep; gradients map back by factor.T.
    """
    factor_t = np.ascontiguousarray(factor.T)

    def to_theta(u):
        return x0 + _matvec(factor, u)

    def value_and_grad(u):
        lp, g = target.value_and_grad(to_theta(u))
        return lp, _matvec(factor_t, g)

    return Target(lambda u: target.log_post(to_theta(u)),
                  lambda u: _matvec(factor_t, target.grad_log_post(to_theta(u))),
                  target.temperature, value_and_grad), to_theta


def sample_posterior(spec: ModelSpec, priors: PriorSet, kind: str, num_samples: int,
                     rngs: Sequence[RngState], x0=None, steps=None, T: float = 1.0,
                     burn_in: int | None = None, thin: int = 1, eps: float | None = None,
                     n_leapfrog: int | None = None) -> tuple[list[Chain], str, int | None]:
    """Lockstep chains of the posterior, one per RngState, in whitened coordinates.

    Returns (chains in theta, F's source from _resolve_steps, hmc's leapfrog
    count or None). Chains move u over the k free coordinates of infer_bounds,
    theta = x0 + F u, where x0 (default_start by default) must equal each pin.
    In u, rw takes widths 2.4 / sqrt(k), mala steps 0.6 * k**(-1/6) adapted
    toward MALA_TARGET_ACCEPT, hmc mass 1, step HMC_STEP_CONST * k**(-1/4)
    and ceil(HMC_PATH / that step) leapfrog steps, a given eps or n_leapfrog
    replacing only its own value. Steps are rw widths, mala steps or hmc mass**-0.5.
    """
    bounds = infer_bounds(spec)
    x0 = default_start(spec) if x0 is None else np.asarray(x0, dtype=float)
    if x0.shape != bounds.lo.shape or np.any(bounds.pinned & (x0 != bounds.lo)):
        raise DomainError(f"x0 must hold {bounds.lo.size} entries, each pinned one at its pin")
    factor, source = _resolve_steps(steps, spec, priors, bounds, x0)
    target, to_theta = _whitened(posterior_target(spec, priors), x0, factor)
    dim = factor.shape[1]  # u's length: the free coordinates
    # an unknown kind gets no scale, and sample_chains names it
    scale = 1.0 if steps is not None else {
        "rw": 2.4 / math.sqrt(dim), "mala": 0.6 * dim ** (-1.0 / 6.0), "hmc": 1.0}.get(kind)
    rule_eps = HMC_STEP_CONST * dim ** -0.25  # L never follows a given eps
    eps = rule_eps if eps is None else eps
    n_leapfrog = math.ceil(HMC_PATH / rule_eps) if n_leapfrog is None else n_leapfrog
    chains = sample_chains(kind, target, num_samples, np.zeros(dim), scale, rngs, T=T,
                           burn_in=burn_in, thin=thin, eps=eps, n_leapfrog=n_leapfrog,
                           target_accept=MALA_TARGET_ACCEPT if kind == "mala" else None)
    return ([replace(chain, samples=to_theta(chain.samples)) for chain in chains], source,
            n_leapfrog if kind == "hmc" else None)
