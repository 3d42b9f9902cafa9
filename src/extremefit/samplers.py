"""Random-walk Metropolis, MALA, and Hamiltonian Monte Carlo kernels.

MALA runs as one-step HMC: with steps s it is HMC with one leapfrog step of
size 1 and mass 1/s**2 (Neal 2011, Handbook of MCMC, ch. 5), so one
integrator serves both.

All three target a tempered posterior: with temperature T the chain
invariant density is proportional to exp(log_post / T). T is applied once,
when ``sample_chains`` prepares the target: log_post, its gradient and
value_and_grad are divided by T there (not at all when T = 1), so drift
terms and acceptance tests describe one consistent target and the kernels
never see T. T > 1 flattens the posterior, T < 1 sharpens it.

One loop, ``sample_chains``, runs K chains in lockstep as one batch of rows
with one target call per round; ``mh_random_walk``, ``mala`` and ``hmc`` are
its K = 1 calls. Chain k draws d normals, then one uniform, per iteration
from its own RngState, so with a target whose rows do not depend on the
batch (``posterior_target``) each chain is bit-identical to that chain run
alone.

A round prefetches the rejection path (Brockwell 2006, JCGS 15(1)): chain k
proposes its next m_k moves all from its current state, as if it were to
reject each of them, and they are scored in the round's one call. The chain
then walks them in order up to its first acceptance; the proposals after it
came from the old state and are dropped, their draws kept for the next
round, so the chain is exactly the sequential one. m_k is floor(1 / a) with
a = (accepts + 1) / (iterations + 2) over the chain so far, burn-in
included, capped by the iterations left and by ``Target.batch_rows``. At
batch_rows = 1 (the default), or while a is above 1/2, it is 1, and each
point is evaluated once: rw calls ``log_post`` once per iteration, mala
calls ``value_and_grad`` once per iteration, and hmc with L leapfrog steps
calls ``grad_log_post`` L - 1 times and ``value_and_grad`` once at the
trajectory's end.

Conventions shared by the kernels:

* ``num_samples`` counts retained draws; the chain runs
  ``burn_in + num_samples * thin`` iterations in total (burn-in defaults
  to 25% of num_samples).
* the acceptance rate counts post-burn-in proposals only, and proposals
  rejected because a trajectory diverged still count in the denominator;
* a stored sample always has finite log-posterior;
* no kernel adapts: a run keeps its steps from the first iteration to the
  last, burn-in included.

``sample_posterior`` is the recipe: it runs the kernels in whitened
coordinates u, where the posterior tempered by T is close to N(0, T I), so
one fixed scale rule, each default step proportional to sqrt(T), serves
every model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, ExtremeFitError, InitializationError
from .model import _CHEAP_BATCH_VALUES, ModelSpec, _matvec, _nll_terms, _scalar, param_dim
from .numerics import RngState
from .optimize import Bounds, default_start, fit_mle, infer_bounds
from .priors import PriorSet, _prior_terms

# sample_posterior's scale rule in u over k free coordinates: mala steps
# MALA_STEP_CONST * k**(-1/6), just under the optimal 1.65 k**(-1/6) on
# N(0, I_k) (Roberts & Rosenthal 1998, JRSS B 60); hmc steps HMC_STEP_CONST *
# k**(-1/4) (Beskos, Pillai, Roberts, Sanz-Serna & Stuart 2013, Bernoulli 19)
# along a path of length about HMC_PATH. Each default step is then scaled by sqrt(T).
HMC_PATH = 2.0
HMC_STEP_CONST = 0.8
MALA_STEP_CONST = 1.5


@dataclass
class Target:
    """An untempered log-posterior and its optional gradient; a sampler's T tempers it.

    value_and_grad, when given, returns (log_post(theta), grad_log_post(theta))
    from one call; the gradient may be NaN where the log-posterior is -inf.
    mala and hmc call it at the start and at each trajectory's end, in place of
    the two callables. A target without it gets one made of the two, which
    takes the gradient only where the log-posterior is above -inf.

    batch_rows is how many rows one call evaluates for about the cost of one:
    the most proposals a chain scores per round (see the module docstring).
    At 1 a lone chain's callables get (d,) rows and nothing is speculated;
    above 1 they always get (R, d) batches, as lockstep chains do.
    """

    log_post: Callable[[np.ndarray], float]
    grad_log_post: Callable[[np.ndarray], np.ndarray] | None = None
    value_and_grad: Callable[[np.ndarray], tuple] | None = None
    batch_rows: int = 1


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
    step_scale: float  # 1 for rw and mala; hmc's eps


def posterior_target(spec: ModelSpec, priors: PriorSet) -> Target:
    """Bundle -nll + log_prior (and its gradient) for the samplers, untempered.

    The callables take theta of shape (d,) or (K, d), a row of a batch
    bit-identical to the (d,) call on it. Each call is one pass: theta is
    checked once, then the prior and the likelihood are evaluated once each,
    so the value is log_prior - neg_log_likelihood and the gradient
    grad_log_prior - grad_neg_log_likelihood bit for bit, and value_and_grad
    equals (log_post, grad_log_post). The gradient is a NaN row where either
    gradient is undefined (outside the support, or a uniform prior's), instead
    of raising, so that integrators can flag divergences. A non-finite theta
    entry makes log_post and value_and_grad raise DomainError, in either form;
    grad_log_post gives that row NaN. batch_rows is
    max(1, _CHEAP_BATCH_VALUES // n): about that many (K, n) values cost
    little more than one row, and at n >= _CHEAP_BATCH_VALUES it is 1.
    """
    dim = param_dim(spec)
    if len(priors) != dim:
        raise DomainError(f"{len(priors)} priors for {dim} parameters")

    def terms(theta, value: bool, grad: bool):
        theta = np.asarray(theta, dtype=float)
        if theta.ndim not in (1, 2) or theta.shape[-1] != dim:
            raise DomainError(f"theta must have length {dim}, got shape {theta.shape}")
        if not np.isfinite(theta).all():
            if value:
                raise DomainError("theta entries must be finite")
            g = np.full(theta.shape, np.nan)
            finite = np.isfinite(theta).all(axis=-1)
            if finite.any():  # only a (K, d) theta has finite rows here
                g[finite] = terms(theta[finite], False, True)[1]
            return None, g
        lp, g = _prior_terms(priors, theta, value, grad)
        if theta.ndim == 1 and lp == -math.inf:  # a lone point skips the likelihood
            return lp, np.full(dim, np.nan)
        nll, g_nll, _ = _nll_terms(spec, theta, value, grad)
        return (lp - _scalar(nll) if value else None), (g - g_nll if grad else None)

    return Target(lambda theta: terms(theta, True, False)[0],
                  lambda theta: terms(theta, False, True)[1],
                  lambda theta: terms(theta, True, True),
                  max(1, _CHEAP_BATCH_VALUES // spec.n_obs))


def _temperature(T) -> float:
    if not 0 < float(T) < math.inf:  # NaN fails too
        raise DomainError(f"temperature must be finite and > 0, got {T}")
    return float(T)


def _prepared(target: Target, T: float, lone: bool) -> Target:
    """The kernels' (K, d) callables of target tempered by T: they sample exp(log_post / T).

    lone lifts (d,) callables to (1, d) states. A missing value_and_grad is made of the
    other two, the gradient taken on rows whose log_post is above -inf (NaN on the others).
    At T = 1 nothing is divided, so batched callables pass through as they are.
    """
    T = _temperature(T)
    log_post, grad, pair = target.log_post, target.grad_log_post, target.value_and_grad
    if lone:  # (d,) callables: each value gains a leading axis of length 1
        def row(fn):
            return fn and (lambda theta: np.asarray(fn(theta[0]), dtype=float)[None])
        log_post, grad = row(log_post), row(grad)
        pair = pair and (lambda theta: tuple(np.asarray(v, dtype=float)[None]
                                             for v in target.value_and_grad(theta[0])))
    if pair is None and grad is not None:
        def pair(theta: np.ndarray):
            lp = log_post(theta)
            inside = [k for k, v in enumerate(lp.tolist()) if v > -math.inf]
            return lp, _on_rows(grad, theta, inside, np.nan, theta.shape)
    if T == 1.0:
        return Target(log_post, grad, pair)
    return Target(lambda theta: log_post(theta) / T, grad and (lambda theta: grad(theta) / T),
                  pair and (lambda theta: tuple(v / T for v in pair(theta))))


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


# A kernel returns step(z, owner) over the shared (K, d) state: row r of the
# normals z proposes a move of chain owner[r] from its current state. It
# returns (log acceptance ratio per row, (state, proposal) pairs whose row r
# an accepting chain copies). A row to reject has a NaN or -inf ratio.
def _rw(target, widths, theta, lp):
    def step(z, owner):
        prop = theta[owner] + widths * z
        lp_prop = target.log_post(prop)
        return lp_prop - lp[owner], ((theta, prop), (lp, lp_prop))
    return step


def _hmc(target, mass, n_leapfrog, theta, lp, g, eps):
    """HMC with a diagonal mass; g holds the log_post gradient at theta.

    With n_leapfrog = 1, eps = 1 and mass 1/s**2 this is MALA with steps s
    (Neal 2011, Handbook of MCMC, ch. 5).
    """
    sqrt_mass, inv_mass = np.sqrt(mass), 1.0 / mass
    half, drift = 0.5 * eps, eps * inv_mass

    def step(z, owner):
        p0 = sqrt_mass * z
        # g holds each chain's gradient from its accepted trajectory's end (or the start)
        q, p, rows = _integrate(target.grad_log_post, theta[owner], p0, g[owner], half, eps,
                                drift, n_leapfrog)
        # the end: one value_and_grad call on the rows still moving
        if isinstance(rows, slice) or len(rows) == len(q):
            lp_new, g_new = target.value_and_grad(q)
        else:
            lp_new, g_new = np.full(len(q), -math.inf), np.full(q.shape, np.nan)
            if len(rows):
                lp_new[rows], g_new[rows] = target.value_and_grad(q[rows])
        p += half * g_new  # NaN on the rows that stopped or left the support: a NaN ratio
        h0 = 0.5 * (p0 * p0 * inv_mass).sum(axis=-1) - lp[owner]
        h1 = 0.5 * (p * p * inv_mass).sum(axis=-1) - lp_new
        return h0 - h1, ((theta, q), (lp, lp_new), (g, g_new))
    return step


def sample_chains(kind: str, target: Target, num_samples: int, initial_params, scales,
                  rngs: Sequence[RngState], T: float = 1.0,
                  burn_in: int | None = None, thin: int = 1, eps: float = 0.2,
                  n_leapfrog: int = 10) -> list[Chain]:
    """Run one chain per RngState in rngs, all in lockstep; returns the chains in order.

    kind is "rw", "mala" or "hmc"; scales are the rw proposal widths, the mala
    step sizes or the hmc diagonal mass; eps and n_leapfrog are hmc's step size
    and path length. initial_params is one (d,) start or a (K, d) array. A
    target with batch_rows = 1 run as one chain gets (d,) rows. Otherwise its
    callables get (R, d) batches, each chain's speculative proposals of a
    round (see the module docstring; R = K while every chain proposes one),
    and return (R,) log-posteriors (-inf outside the support) and (R, d)
    gradients (NaN rows where undefined), as ``posterior_target``'s do, and
    value_and_grad returns the pair. mala and hmc evaluate the start and each
    trajectory's end by value_and_grad, made of the other two callables when
    the target has none. The chains sample exp(log_post / T); T must be
    finite and > 0, and is applied once, to the target, before the first step.

    ``Chain.step_scale`` is 1 for rw and mala and eps for hmc; no step adapts.
    """
    num_samples, thin = int(num_samples), int(thin)
    burn_in = num_samples // 4 if burn_in is None else int(burn_in)
    budget = int(target.batch_rows)
    for bad, message in (
        (kind not in ("rw", "mala", "hmc"), f"unknown sampler {kind!r}; use rw, mala or hmc"),
        (kind != "rw" and target.grad_log_post is None, f"{kind} requires a target gradient"),
        (kind == "hmc" and not 0 < eps < math.inf, "eps must be finite and > 0"),
        (kind == "hmc" and n_leapfrog < 1, "n_leapfrog must be >= 1"),
        (num_samples < 1, "num_samples must be >= 1"),
        (thin < 1, "thin must be >= 1"),
        (burn_in < 0, "burn_in must be >= 0"),
        (budget < 1, "the target's batch_rows must be >= 1"),
    ):
        if bad:
            raise DomainError(message)
    theta0 = np.atleast_1d(np.asarray(initial_params, dtype=float))
    n_chains, dim = len(rngs), theta0.shape[-1]
    theta = np.array(np.broadcast_to(theta0, (n_chains, dim)))  # accepted rows write here
    scales = np.broadcast_to(np.asarray(scales, dtype=float), (dim,)).astype(float)
    if np.any(scales <= 0) or not np.all(np.isfinite(scales)):
        raise DomainError("per-coordinate scales must be finite and > 0")
    target = _prepared(target, T, n_chains == 1 and budget == 1)
    lp, g = (target.log_post(theta), None) if kind == "rw" else target.value_and_grad(theta)
    lp = np.array(lp, dtype=float)  # copies: accepted rows write into the state
    if not np.all(np.isfinite(lp)):
        raise InitializationError("log-posterior is not finite at the initial point")
    if g is not None:
        g = np.array(g, dtype=float)
        if not np.all(np.isfinite(g)):
            raise InitializationError("gradient is not finite at the initial point")
    step_scale = float(eps) if kind == "hmc" else 1.0
    if kind == "rw":
        step = _rw(target, scales, theta, lp)
    else:  # mala is one-step HMC with mass 1/s**2
        mass, n_steps = (scales, n_leapfrog) if kind == "hmc" else (1.0 / scales**2, 1)
        step = _hmc(target, mass, n_steps, theta, lp, g, step_scale)
    total = burn_in + num_samples * thin
    samples = np.empty((n_chains, num_samples, dim))
    accepted = [0] * n_chains  # after burn-in
    done, taken = [0] * n_chains, [0] * n_chains  # iterations and acceptances, burn-in included
    drawn = [[] for _ in rngs]  # each chain's unused (normals, log uniform), in stream order
    while True:
        # floor(1 / a) proposals per chain, a = (taken + 1) / (done + 2): its expected
        # run of rejections, so that most rounds end in an acceptance
        counts = [min((n + 2) // (hits + 1), total - n, budget) for n, hits in zip(done, taken)]
        if not any(counts):
            break
        for rng, buf, m in zip(rngs, drawn, counts):
            while len(buf) < m:
                buf.append((rng.normals(dim), math.log(rng.uniform())))
        z = np.array([normals for buf, m in zip(drawn, counts) for normals, _ in buf[:m]])
        owner = (slice(None) if counts.count(1) == n_chains  # a view: one row per chain
                 else np.repeat(np.arange(n_chains), counts))
        log_alpha, moves = step(z, owner)
        log_alpha, row = log_alpha.tolist(), 0
        for k, m in enumerate(counts):
            buf, it = drawn[k], done[k]
            for j in range(m):  # up to the first acceptance: later rows left the old state
                hit = buf[j][1] < log_alpha[row + j]
                if hit:
                    for state, proposal in moves:
                        state[k] = proposal[row + j]
                    taken[k] += 1
                    accepted[k] += it >= burn_in
                if it >= burn_in and (it - burn_in) % thin == thin - 1:
                    samples[k, (it - burn_in) // thin] = theta[k]
                it += 1
                if hit:
                    break
            del buf[:it - done[k]]
            done[k], row = it, row + m
    return [Chain(samples[k], accepted[k] / (num_samples * thin), kind, rng.seed,
                  rng.stream_id, num_samples, burn_in, thin, float(T), step_scale)
            for k, rng in enumerate(rngs)]


def mh_random_walk(target: Target, num_samples: int, initial_params, proposal_widths,
                   T: float = 1.0, rng: RngState | None = None,
                   burn_in: int | None = None, thin: int = 1) -> Chain:
    """Random-walk Metropolis with a diagonal Gaussian proposal.

    Proposes theta' = theta + proposal_widths * z and accepts with
    probability min(1, exp((log_post' - log_post) / T)).
    """
    return sample_chains("rw", target, num_samples, initial_params, proposal_widths,
                         [rng or RngState(0, 0)], T, burn_in, thin)[0]


def mala(target: Target, num_samples: int, initial_params, step_sizes,
         T: float = 1.0, rng: RngState | None = None,
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


def leapfrog(target: Target, theta, momentum, eps: float, n_steps: int, mass_diag):
    """Leapfrog integration of Hamiltonian dynamics.

    Potential U(theta) = -log_post(theta), untempered; kinetic energy uses a
    diagonal mass matrix. Returns (theta', momentum', diverged); a non-finite
    gradient or position mid-trajectory sets the divergence flag, which
    callers treat as an automatic rejection. For (K, d) states (with batched
    callables, see ``sample_chains``) diverged is a (K,) mask, and a
    diverging row stops there while the other rows keep integrating.
    """
    if target.grad_log_post is None:
        raise DomainError("leapfrog requires a target gradient")
    q, p = (np.array(v, dtype=float, ndmin=2) for v in (theta, momentum))
    mass = np.broadcast_to(np.asarray(mass_diag, dtype=float), q.shape[-1:])
    if not np.all((mass > 0) & (mass < math.inf)):  # NaN fails too
        raise DomainError("mass_diag entries must be finite and > 0")
    grad = _prepared(target, 1.0, np.ndim(theta) != 2).grad_log_post
    g = grad(q)
    start, _ = _finite_part(g, np.arange(len(q)))  # a row with no gradient never moves
    diverged = np.ones(len(q), dtype=bool)
    if len(start):
        eps = float(eps)
        q[start], p[start], rows = _integrate(grad, q[start], p[start], g[start], 0.5 * eps, eps,
                                              eps * (1.0 / mass), n_steps, finish=True)
        diverged[start[rows]] = False
    return (q, p, diverged) if np.ndim(theta) == 2 else (q[0], p[0], bool(diverged[0]))


def _integrate(grad, q, p, g, half, eps, drift, n_steps, finish=False):
    """Leapfrog from (K, d) q and p; returns new (q, p) and the rows still moving.

    g is the log-posterior gradient at q, finite on every row; half
    and eps are the half and full steps and drift the (d,) position steps
    eps / mass. A row whose position or gradient turns non-finite stops
    there while the other rows keep integrating. Without finish the last
    gradient and half step of the momenta are left to the caller, which
    evaluates the end point itself.
    """
    p = p + half * g
    q = q + drift * p
    rows, _ = _finite_part(q, slice(None))
    for step in range(n_steps if finish else n_steps - 1):
        if isinstance(rows, np.ndarray) and not rows.size:
            break
        g = grad(q[rows])
        rows, kept = _finite_part(g, rows)
        if step == n_steps - 1:
            p[rows] += half * g[kept]
        else:
            p[rows] += eps * g[kept]
            q[rows] += drift * p[rows]
            rows, _ = _finite_part(q[rows], rows)
    return q, p, rows


def hmc(target: Target, num_samples: int, initial_params, eps: float,
        n_leapfrog: int, mass_diag=None, T: float = 1.0,
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
                  value_and_grad, target.batch_rows), to_theta


def sample_posterior(spec: ModelSpec, priors: PriorSet, kind: str, num_samples: int,
                     rngs: Sequence[RngState], x0=None, steps=None, T: float = 1.0,
                     burn_in: int | None = None, thin: int = 1, eps: float | None = None,
                     n_leapfrog: int | None = None) -> tuple[list[Chain], str, int | None]:
    """Lockstep chains of the posterior, one per RngState, in whitened coordinates.

    Returns (chains in theta, F's source from _resolve_steps, hmc's leapfrog
    count or None). Chains move u over the k free coordinates of infer_bounds,
    theta = x0 + F u, where x0 (default_start by default) must equal each pin.
    T must be finite and > 0 (checked before the fit); in u, where the posterior
    tempered by T is close to N(0, T I), rw takes widths 2.4 sqrt(T / k), mala
    steps MALA_STEP_CONST sqrt(T) k**(-1/6), and hmc mass 1, step HMC_STEP_CONST
    sqrt(T) k**(-1/4) and ceil(HMC_PATH / (HMC_STEP_CONST k**(-1/4))) leapfrog
    steps. Given steps, eps and n_leapfrog are used as given, each replacing
    only its own value. Steps are rw widths, mala steps or hmc mass**-0.5. No step adapts.
    """
    root_t = math.sqrt(_temperature(T))  # the scale in u; checked before the fit
    bounds = infer_bounds(spec)
    x0 = default_start(spec) if x0 is None else np.asarray(x0, dtype=float)
    if x0.shape != bounds.lo.shape or np.any(bounds.pinned & (x0 != bounds.lo)):
        raise DomainError(f"x0 must hold {bounds.lo.size} entries, each pinned one at its pin")
    factor, source = _resolve_steps(steps, spec, priors, bounds, x0)
    target, to_theta = _whitened(posterior_target(spec, priors), x0, factor)
    dim = factor.shape[1]  # u's length: the free coordinates
    # an unknown kind gets no scale, and sample_chains names it
    scale = 1.0 if steps is not None else {
        "rw": 2.4 * root_t / math.sqrt(dim),
        "mala": MALA_STEP_CONST * root_t * dim ** (-1.0 / 6.0), "hmc": 1.0}.get(kind)
    rule_eps = HMC_STEP_CONST * dim ** -0.25  # L follows neither T nor a given eps
    eps = root_t * rule_eps if eps is None else eps
    n_leapfrog = math.ceil(HMC_PATH / rule_eps) if n_leapfrog is None else n_leapfrog
    chains = sample_chains(kind, target, num_samples, np.zeros(dim), scale, rngs, T=T,
                           burn_in=burn_in, thin=thin, eps=eps, n_leapfrog=n_leapfrog)
    return ([replace(chain, samples=to_theta(chain.samples)) for chain in chains], source,
            n_leapfrog if kind == "hmc" else None)
