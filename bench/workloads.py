"""The benchmark's two workloads: inputs, timed cycles and output checks.

Inputs are made here with numpy alone; extremefit receives only the arrays
(or, for ``cli_pipeline``, the CSV files and command lines). A cycle is the
workload's fixed work and runs identically every time, so the first cycle is
checked in full and later cycles only have to reproduce its outputs exactly.

A cycle's fixed work is timed in parts (one fit, one LRT, one CLI command),
and the parts add up to the cycle's time. Each workload also reports min-ESS
per second for all three samplers. ``fit_sweep`` runs no sampler in its own
work, so a sampler block follows each of its cycles; the block is timed
apart, left out of ``cycle_s`` and left out of the traced spans (it runs
under ``pause``).

Operations (one fit, one LRT, one sampler run of all its chains, or one CLI
invocation) carry a fault tag when they are known to fail because of a
named program fault:

  a: optimize.infer_bounds fixes the shape box at [-0.5, 0.5], so a series
     whose shape lies outside it fits to the bound, reports converged=True
     with standard errors, and ends above the likelihood at the truth.
  b: nelder_mead's first simplex steps every coordinate by at least 0.01;
     a GPD threshold pinned to +-1e-8 lands outside the box on both sides,
     the vertex scores +inf and the search stops early on a degenerate
     simplex, reporting converged=True.
"""

from __future__ import annotations

import csv
import json
import math
import os
import resource
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from params import realize

FAULTS = {
    "a": "optimize.infer_bounds clips the GEV shape to [-0.5, 0.5]; the fit stops "
         "at the bound with converged=True and standard errors",
    "b": "nelder_mead's initial simplex steps a +-1e-8 pinned GPD threshold out of "
         "the box; the search stops early with converged=True",
}
PIN = 1e-8  # the CLI's half-width for the pinned GPD threshold
RETURN_PERIOD = 100.0
SAMPLERS = ("rw", "mala", "hmc")
CHAINS = 4
HMC_EPS, HMC_LEAPFROG = 0.2, 10  # the CLI defaults
CHILD_CPU_S = 120  # CPU seconds a CLI child may use
MAX_TOL = 1e-3  # an independent optimiser may not beat a fit by more than this
TRUTH_TOL = 1e-6
ESS_AGREE = 0.25  # the program's summed ESS may differ from ours by this share
RHAT_MAX = 1.1
MCSE_K = 5.0
# Sampler inputs (series and chain streams) do not depend on --seed: an ESS
# estimate from chains this long moves 10-25 % between seeds, which would
# hide a timing change of the size the bounds are meant to catch. With fixed
# inputs the ESS repeats exactly and min-ESS per second varies only with time.
SAMPLER_SEED = 7100


@dataclass
class Op:
    """One operation of a cycle, what it returned and its wall seconds."""

    name: str
    fault: str | None = None
    out: dict = field(default_factory=dict)
    seconds: float = 0.0


@dataclass
class Cycle:
    parts: dict    # part of the workload's fixed work (cycle_s) -> its wall seconds
    chain_s: dict  # sampler -> wall seconds of each equal part of its run
    ops: list
    child_rss_kb: int = 0  # largest peak RSS of a CLI child in this cycle


@dataclass
class Verdict:
    """Outcome of the checks on one cycle."""

    failures: list = field(default_factory=list)  # (op name, fault, reason)
    errors: list = field(default_factory=list)    # check failures no fault explains
    min_ess: dict = field(default_factory=dict)   # sampler -> min over params of summed ESS
    max_rhat: dict = field(default_factory=dict)  # sampler -> max over params of split-R-hat

    failed_ops: set = field(default_factory=set)

    def fail(self, op: Op, reason: str, fault_check: bool = False) -> None:
        """Record a failed check; fault_check marks the checks a named fault breaks."""
        self.failed_ops.add(op.name)
        if fault_check and op.fault:
            self.failures.append((op.name, op.fault, reason))
        else:
            self.errors.append(f"{op.name}: {reason}")


# ---------------------------------------------------------------------------
# input generation (numpy only)


def _rng(*key):
    return np.random.default_rng(np.random.SeedSequence([int(k) for k in key]))


def _ramp(n):
    """Centred covariate in [-1, 1]."""
    return np.linspace(-1.0, 1.0, n)


def _true_theta(family, config):
    a, b, c = config
    theta = ([10.0] if family == "gev" else [0.0]) + [1.0] * a
    base_scale = 2.0 if family == "gev" else 1.0
    theta += [base_scale] if b == 0 else [math.log(base_scale), 0.3] + [0.0] * (b - 1)
    theta += [0.1] + [0.05] * c
    return np.array(theta)


def _draw(family, rng, loc, scale, shape):
    u = rng.random(np.shape(loc))
    w = -np.log(-np.log(u)) if family == "gev" else -np.log1p(-u)
    return loc + scale * np.expm1(shape * w) / shape


def _series(family, config, theta, n, rng):
    cov = _ramp(n).reshape(-1, 1)
    loc, scale, shape = realize(config, cov, theta)
    return _draw(family, rng, loc, scale, shape), cov


# ---------------------------------------------------------------------------
# shared pieces that call the program


def _family(ef, name):
    return ef.EvdFamily.GEV if name == "gev" else ef.EvdFamily.GPD


def _pinned(ef, spec, bounds):
    """bounds with the location block pinned to +-1e-8, as the CLI pins a GPD threshold."""
    a = spec.config[0]
    lo, hi = bounds.lo.copy(), bounds.hi.copy()
    lo[: a + 1], hi[: a + 1] = -PIN, PIN
    return ef.Bounds(lo, hi)


def _fit_op(ef, name, family, x, cov, config, truth, fault=None, pin=False):
    from extremefit.optimize import default_start

    t0 = time.perf_counter()
    spec = ef.ModelSpec(data=x, covariates=cov, config=config, family=_family(ef, family))
    if pin:
        bounds = _pinned(ef, spec, ef.infer_bounds(spec))
        x0 = default_start(spec)
        x0[: config[0] + 1] = 0.0
        fit = ef.fit_mle(spec, x0, bounds)
    else:
        fit = ef.fit_mle(spec)
    levels = ef.return_levels(spec, fit.theta_hat, RETURN_PERIOD)
    return Op(name, fault, dict(kind="fit", family=family, x=x, cov=cov, config=config,
                                truth=truth, pin=pin, theta=fit.theta_hat, nll=fit.nll_min,
                                converged=fit.converged, se=fit.std_errors,
                                levels=levels), time.perf_counter() - t0), spec, fit


def _prior_scales(priors):
    return np.array([c.b if c.kind == "normal" else (c.b - c.a) / math.sqrt(12.0)
                     for c in priors.components])


def sampler_steps(fit, priors, dim):
    """Step sizes from MLE standard errors, scaled as the CLI scales them."""
    scales = 0.05 * _prior_scales(priors)
    if fit.std_errors is not None:
        scales = np.minimum(fit.std_errors, _prior_scales(priors))
    scales = np.maximum(scales, 1e-12)
    return {"rw": 2.4 * scales / math.sqrt(dim),
            "mala": 0.6 * scales * dim ** (-1.0 / 6.0),
            "hmc": scales}


def run_chain(ef, kind, target, size, x0, steps, rng):
    """One chain of one sampler with the CLI's settings; size = (draws, thinning)."""
    num_samples, thin = size
    if kind == "rw":
        return ef.mh_random_walk(target, num_samples, x0, steps, rng=rng, thin=thin)
    if kind == "mala":
        return ef.mala(target, num_samples, x0, steps, rng=rng, thin=thin)
    return ef.hmc(target, num_samples, x0, HMC_EPS, HMC_LEAPFROG, mass_diag=1.0 / steps**2,
                  rng=rng, thin=thin)


def _sampler_block(ef, spec, fit, sizes, seed, family, x, cov, config):
    """Run rw, mala and hmc on one posterior; returns (seconds of each chain, ops).

    Four chains per sampler, chain k seeded RngState(seed, k), started at the
    MLE so burn-in transients do not enter the ESS. The samplers' chains
    alternate, so each sampler's four timings are spread over the block
    instead of falling in one burst of host noise.
    """
    priors = ef.default_priors(spec)
    x0 = fit.theta_hat
    steps = sampler_steps(fit, priors, x0.size)
    target = ef.posterior_target(spec, priors)
    chains = {kind: [] for kind in SAMPLERS}
    chain_s = {kind: [] for kind in SAMPLERS}
    for k in range(CHAINS):
        for kind in SAMPLERS:
            t0 = time.perf_counter()
            chains[kind].append(run_chain(ef, kind, target, sizes[kind], x0, steps[kind],
                                          ef.RngState(seed, k)))
            chain_s[kind].append(time.perf_counter() - t0)
    ops = [Op(f"{kind}.chains", None, dict(
        kind="posterior", sampler=kind, family=family, x=x, cov=cov, config=config,
        draws=[c.samples for c in chains[kind]],
        priors=[(c.kind, c.a, c.b) for c in priors.components]), sum(chain_s[kind]))
        for kind in SAMPLERS]
    return chain_s, ops


# ---------------------------------------------------------------------------
# checks (scipy through the oracle module)


def check_fit(op, verdict, bounds_lo, bounds_hi):
    import oracle

    o = op.out
    fam, x, cov, cfg = o["family"], o["x"], o["cov"], o["config"]
    theta = np.asarray(o["theta"], dtype=float)
    nll = float(o["nll"])
    ref = float(oracle.nll(fam, x, cfg, cov, theta))
    if not (math.isfinite(nll) and abs(nll - ref) <= oracle.NLL_RTOL * abs(ref)):
        verdict.fail(op, f"nll {nll!r} differs from the scipy value {ref!r}")
        return
    truth_nll = float(oracle.nll(fam, x, cfg, cov, o["truth"]))
    if nll > truth_nll + TRUTH_TOL:
        verdict.fail(op, f"nll {nll:.6f} above {truth_nll:.6f} at the generating "
                         f"parameters (theta_hat {np.round(theta, 4).tolist()})", True)
        return
    free = np.ones(theta.size, dtype=bool)
    if o["pin"]:
        free[: cfg[0] + 1] = False
    best = oracle.best_nearby(lambda t: oracle.nll(fam, x, cfg, cov, t),
                              theta, bounds_lo, bounds_hi, free)
    if best < nll - MAX_TOL:
        verdict.fail(op, f"scipy.optimize finds nll {best:.6f}, {nll - best:.4f} below "
                         f"the reported {nll:.6f}", True)
        return
    se = o["se"]
    if se is not None and not (np.all(np.isfinite(se)) and np.all(np.asarray(se) > 0)):
        verdict.fail(op, f"standard errors not finite and positive: {se}")
    if o["levels"] is not None:
        check_levels(op, verdict, theta)


def check_levels(op, verdict, theta):
    import oracle

    o = op.out
    loc, scale, shape = oracle.realize(o["config"], o["cov"], theta)
    ref = oracle.quantile(o["family"], 1.0 - 1.0 / RETURN_PERIOD, loc, scale, shape)
    got = np.asarray(o["levels"], dtype=float)
    if got.shape != ref.shape or not np.allclose(got, ref, rtol=1e-9, atol=1e-12):
        verdict.fail(op, "return levels differ from the scipy quantile")


def check_lrt(op, verdict, null_best, alt_best):
    """LRT statistic, p-value and both fitted minima.

    null_best / alt_best: for each configuration, the lowest nll found apart
    from this LRT (by an independent optimiser, or by a fit already checked).
    """
    import oracle

    o = op.out
    n0, n1, stat = o["nll_null"], o["nll_alt"], o["statistic"]
    if not (stat >= 0 and abs(stat - max(0.0, 2.0 * (n0 - n1))) <= 1e-9 * max(1.0, stat)):
        verdict.fail(op, f"statistic {stat} is not max(0, 2(nll0 - nll1))")
    if o["df"] != o["df_expected"]:
        verdict.fail(op, f"df {o['df']} != {o['df_expected']}")
    p_ref = oracle.chi2_sf(stat, o["df_expected"])
    if abs(o["p_value"] - p_ref) > 1e-9:
        verdict.fail(op, f"p-value {o['p_value']} differs from chi2.sf {p_ref}")
    if n1 > n0 + TRUTH_TOL:
        verdict.fail(op, f"alternative nll {n1} above the nested null's {n0}")
    for label, got, best in (("null", n0, null_best), ("alternative", n1, alt_best)):
        if got > best + MAX_TOL:
            verdict.fail(op, f"{label} nll {got:.6f} above an independent fit's {best:.6f}")


def independent_min(fam, x, cov, config, lo, hi, start=None):
    """Lowest nll scipy finds for config in [lo, hi], from start (default: moments)."""
    import oracle

    if start is None:
        start = oracle.moment_start(fam, x, config)
    span = np.where(np.isfinite(hi - lo), hi - lo, 1.0)
    start = np.clip(start, lo + 1e-6 * span, hi - 1e-6 * span)
    return oracle.best_nearby(lambda t: oracle.nll(fam, x, config, cov, t),
                              start, lo, hi, np.ones(start.size, dtype=bool))


def check_posterior(ops, verdict):
    """Posterior checks over the ops of one sampler block or workload."""
    import oracle

    stats_by = {}
    for op in ops:
        o = op.out
        draws = o["draws"]
        pooled = np.vstack(draws)
        fam, x, cov, cfg = o["family"], o["x"], o["cov"], o["config"]
        nlls = oracle.nll(fam, x, cfg, cov, pooled)
        logpost = oracle.log_prior(o["priors"], pooled) - nlls
        if not np.all(np.isfinite(logpost)):
            verdict.fail(op, f"{int(np.sum(~np.isfinite(logpost)))} draws have a "
                             f"non-finite log-posterior")
            continue
        d = pooled.shape[1]
        per_chain = np.array([[oracle.ess(c[:, i]) for i in range(d)] for c in draws])
        ess = per_chain.sum(axis=0)
        # diagnostics.ess caps each chain at 1.25 n; compare like with like.
        capped = np.minimum(per_chain, 1.25 * draws[0].shape[0]).sum(axis=0)
        rhat = np.array([oracle.split_rhat([c[:, i] for c in draws]) for i in range(d)])
        if np.any(rhat >= RHAT_MAX):
            verdict.fail(op, f"split-R-hat {np.round(rhat, 3).tolist()} not below {RHAT_MAX}")
        verdict.min_ess[o["sampler"]] = float(ess.min())
        verdict.max_rhat[o["sampler"]] = float(rhat.max())
        stats_by[o["sampler"]] = (pooled.mean(axis=0), pooled.std(axis=0), ess)
        if "summary" in o:
            _check_summary(op, verdict, pooled, nlls, capped)
    kinds = sorted(stats_by)
    for i, ka in enumerate(kinds):
        for kb in kinds[i + 1:]:
            (ma, sa, ea), (mb, sb, eb) = stats_by[ka], stats_by[kb]
            z = np.abs(ma - mb) / np.sqrt(sa**2 / ea + sb**2 / eb)
            if np.any(z > MCSE_K):
                verdict.errors.append(
                    f"posterior means of {ka} and {kb} differ by {np.round(z, 2).tolist()} "
                    f"combined Monte-Carlo standard errors (limit {MCSE_K})")


def _check_summary(op, verdict, pooled, nlls, ess):
    """posterior_summary, DIC and return levels of one sampler run.

    ess: our per-parameter ESS summed over chains, each chain capped at
    1.25 n as diagnostics.ess caps it.
    """
    import oracle

    o = op.out
    summ = np.array(o["summary"], dtype=float)
    q = np.quantile(pooled, [0.05, 0.5, 0.95], axis=0)
    ref = np.column_stack([pooled.mean(axis=0), pooled.std(axis=0), q.T])
    if not np.allclose(summ[:, :5], ref, rtol=1e-9, atol=1e-12):
        verdict.fail(op, "posterior_summary mean/sd/quantiles differ from numpy")
    if np.any(summ[:, 5] >= RHAT_MAX):
        verdict.fail(op, f"reported R-hat {summ[:, 5].tolist()} not below {RHAT_MAX}")
    rel = np.abs(summ[:, 6] - ess) / ess
    if np.any(rel > ESS_AGREE):
        verdict.fail(op, f"reported ESS {np.round(summ[:, 6]).tolist()} differs from ours "
                         f"{np.round(ess).tolist()} by more than {ESS_AGREE:.0%}")
    mean = pooled.mean(axis=0)
    nll_bar = float(oracle.nll(o["family"], o["x"], o["config"], o["cov"], mean))
    dic_ref = 4.0 * float(np.mean(nlls)) - 2.0 * nll_bar
    if not abs(o["dic"] - dic_ref) <= 1e-9 * abs(dic_ref):
        verdict.fail(op, f"DIC {o['dic']} differs from the recomputed {dic_ref}")
    check_levels(op, verdict, mean)


# ---------------------------------------------------------------------------
# fit_sweep


class FitSweep:
    """Fits at block-maxima size, where fixed per-call cost outweighs arithmetic."""

    name = "fit_sweep"
    # GEV series (n, config). Left out because nelder_mead stops short of the
    # optimum on some seeds, so they would fail only now and then: (1,1,1) at
    # n <= 50 (1 seed in 15 at n = 30), (1,1,0) at n <= 50 (1 in 110 at n = 30,
    # 1 in 600 at n = 50) and (1,0,0) at n = 30 (1 in 1200).
    GEV_SERIES = tuple((n, cfg) for cfg in ((0, 0, 0), (1, 0, 0)) for n in (50, 100, 150)) \
        + tuple((n, (1, 1, 0)) for n in (100, 150))
    QUICK_SERIES = ((50, (0, 0, 0)), (50, (1, 0, 0)), (100, (1, 1, 0)))
    GPD_CONFIGS = ((0, 0, 0), (0, 1, 0), (0, 1, 1))
    GPD_N = (50, 150)
    FAULT_A = ((0.7, 7017), (-0.6, 7004))  # (shape, fixed seed), n = 500
    FAULT_B_SEED = 7002

    def __init__(self, seed, quick, workdir=None):
        # The sampler block's posterior: a stationary series of block-maxima size.
        theta = _true_theta("gev", (0, 0, 0))
        x, cov = _series("gev", (0, 0, 0), theta, 30 if quick else 50, _rng(SAMPLER_SEED, 1))
        self.block = (theta, x, cov)
        # (retained draws, thinning) per chain
        self.chain_sizes = ({"rw": (500, 1), "mala": (400, 1), "hmc": (40, 1)} if quick
                            else {"rw": (600, 2), "mala": (800, 1), "hmc": (40, 1)})
        self.gev = []
        for n, cfg in self.QUICK_SERIES if quick else self.GEV_SERIES:
            theta = _true_theta("gev", cfg)
            x, cov = _series("gev", cfg, theta, n, _rng(seed, 1, n, *cfg))
            self.gev.append((n, cfg, theta, x, cov))
        # Inputs of operations known to fail do not depend on the seed, so
        # the failed share is the same in every run.
        self.gpd = []
        for n in self.GPD_N:
            for cfg in self.GPD_CONFIGS:
                theta = _true_theta("gpd", cfg)
                x, cov = _series("gpd", cfg, theta, n, _rng(self.FAULT_B_SEED, n, *cfg))
                self.gpd.append((n, cfg, theta, x, cov))
        self.fault_a = []
        for xi, fixed in self.FAULT_A:
            theta = np.array([10.0, 2.0, xi])
            x, cov = _series("gev", (0, 0, 0), theta, 500, _rng(fixed))
            self.fault_a.append((xi, theta, x, cov))

    def cycle(self, ef, pause):
        ops = []
        for n, cfg, theta, x, cov in self.gev:
            tag = f"gev.n{n}.{''.join(map(str, cfg))}"
            op, spec, fit = _fit_op(ef, f"{tag}.fit", "gev", x, cov, cfg, theta)
            ops.append(op)
            t_lrt = time.perf_counter()
            null = ef.ModelSpec(data=x, covariates=cov, config=(0, 0, 0), family=spec.family)
            alt = ef.ModelSpec(data=x, covariates=cov, config=(1, 0, 0), family=spec.family)
            r = ef.lrt(null, alt)
            ops.append(Op(f"{tag}.lrt", None, dict(
                kind="lrt", family="gev", x=x, cov=cov, fit_theta=fit.theta_hat, config=cfg,
                statistic=r.statistic, df=r.df, df_expected=1, p_value=r.p_value,
                nll_null=r.nll_null, nll_alt=r.nll_alt), time.perf_counter() - t_lrt))
        for n, cfg, theta, x, cov in self.gpd:
            op, _, _ = _fit_op(ef, f"gpd.n{n}.{''.join(map(str, cfg))}.fit", "gpd", x, cov,
                               cfg, theta, fault="b", pin=True)
            ops.append(op)
        for xi, theta, x, cov in self.fault_a:
            op, _, _ = _fit_op(ef, f"gev.n500.xi{xi:+.1f}.fit", "gev", x, cov, (0, 0, 0),
                               theta, fault="a")
            ops.append(op)
        parts = {op.name: op.seconds for op in ops}
        with pause():
            theta, x, cov = self.block
            op, spec, fit = _fit_op(ef, "block.fit", "gev", x, cov, (0, 0, 0), theta)
            chain_s, block_ops = _sampler_block(ef, spec, fit, self.chain_sizes, SAMPLER_SEED,
                                                "gev", x, cov, (0, 0, 0))
        return Cycle(parts, chain_s, ops + [op] + block_ops)

    def check(self, ef, ops):
        import oracle

        verdict = Verdict()
        posterior = []
        for op in ops:
            o = op.out
            if o["kind"] == "posterior":
                posterior.append(op)
                continue
            spec = ef.ModelSpec(data=o["x"], covariates=o["cov"], config=o["config"],
                                family=_family(ef, o["family"]))
            if o["kind"] == "fit":
                b = ef.infer_bounds(spec)
                if o["pin"]:
                    b = _pinned(ef, spec, b)
                check_fit(op, verdict, b.lo, b.hi)
                continue
            best = {}
            for cfg in ((0, 0, 0), (1, 0, 0)):
                s = ef.ModelSpec(data=o["x"], covariates=o["cov"], config=cfg,
                                 family=spec.family)
                b = ef.infer_bounds(s)
                start = _project(o["fit_theta"], o["config"], cfg)
                best[cfg] = independent_min("gev", o["x"], o["cov"], cfg, b.lo, b.hi, start)
            check_lrt(op, verdict, best[(0, 0, 0)], best[(1, 0, 0)])
        check_posterior(posterior, verdict)
        return verdict


def _project(theta, cfg_from, cfg_to):
    """Carry a fitted vector to a smaller configuration of the same series."""
    a, b, c = cfg_from
    loc = list(theta[: a + 1])
    scale = list(theta[a + 1: a + b + 2])
    shape = list(theta[a + b + 2:])
    a2, b2, c2 = cfg_to
    if b2 == 0 and b > 0:
        scale = [math.exp(scale[0])]
    return np.array(loc[: a2 + 1] + [0.0] * max(0, a2 + 1 - len(loc))
                    + scale[: b2 + 1] + shape[: c2 + 1])


# ---------------------------------------------------------------------------
# cli_pipeline


class CliPipeline:
    """What a CLI user pays: one `python -m extremefit` process per command."""

    name = "cli_pipeline"
    LONG_CONFIG = (1, 1, 0)
    LONG_TRUTH = (10.0, 1.0, math.log(2.0), 0.3, 0.1)
    GPD_CONFIG = (0, 1, 0)
    GPD_SEED = 7003

    def __init__(self, seed, quick, workdir):
        self.seed = seed
        self.workdir = workdir
        self.long_n = 2000 if quick else 20000
        self.short_n = 100
        self.gpd_n = 1000
        self.num_samples = ({"rw": 500, "mala": 400, "hmc": 40} if quick
                            else {"rw": 600, "mala": 600, "hmc": 60})
        os.makedirs(workdir, exist_ok=True)
        self.short, _ = _series("gev", (0, 0, 0), _true_theta("gev", (0, 0, 0)),
                                self.short_n, _rng(SAMPLER_SEED, 3))
        self.short_csv = os.path.join(workdir, "short.csv")
        _write_csv(self.short_csv, ["value"], self.short.reshape(-1, 1))
        # The GPD input is fixed: its fit fails under fault b on every run.
        self.gpd_truth = np.array([0.0, 0.0, 0.3, 0.1])
        self.gpd_cov = np.linspace(0.0, 1.0, self.gpd_n).reshape(-1, 1)
        self.gpd_x = _draw("gpd", _rng(self.GPD_SEED), 0.0, np.exp(0.3 * self.gpd_cov[:, 0]),
                           0.1)
        self.gpd_csv = os.path.join(workdir, "gpd.csv")
        _write_csv(self.gpd_csv, ["value", "cov_0"], np.column_stack([self.gpd_x,
                                                                      self.gpd_cov]))

    def _commands(self):
        cfg = lambda t: ",".join(map(str, t))  # noqa: E731
        sim = os.path.join(self.workdir, "sim", "simulated.csv")
        cmds = [
            ("simulate", None, ["simulate", "--dist", "gev", "--config", cfg(self.LONG_CONFIG),
                                "--true-params", cfg(self.LONG_TRUTH), "--n", str(self.long_n),
                                "--seed", str(self.seed), "--out", "sim"]),
            ("fit", None, ["fit", "--input", sim, "--dist", "gev", "--config",
                           cfg(self.LONG_CONFIG), "--return-period", "100", "--out", "fit"]),
            ("lrt", None, ["lrt", "--input", sim, "--dist", "gev", "--null-config", "0,0,0",
                           "--alt-config", cfg(self.LONG_CONFIG), "--out", "lrt"]),
        ]
        for kind in SAMPLERS:
            cmds.append((f"sample.{kind}", None, [
                "sample", "--input", self.short_csv, "--dist", "gev", "--config", "0,0,0",
                "--sampler", kind, "--chains", str(CHAINS), "--num-samples",
                str(self.num_samples[kind]), "--seed", str(SAMPLER_SEED), "--return-period",
                "100", "--out", kind]))
        cmds.append(("gpd.fit", "b", ["fit", "--input", self.gpd_csv, "--dist", "gpd",
                                      "--config", cfg(self.GPD_CONFIG), "--out", "gpd"]))
        return cmds

    def cycle(self, ef, runner):
        """runner(argv, cwd) runs one CLI command; returns (exit code, seconds, peak KiB)."""
        ops, chain_s, parts, rss_kb = [], {}, {}, 0
        for name, fault, argv in self._commands():
            code, seconds, peak_kb = runner(argv, self.workdir)
            rss_kb = max(rss_kb, peak_kb)
            out_dir = os.path.join(self.workdir, argv[argv.index("--out") + 1])
            ops.append(Op(name, fault, dict(kind="cli", argv=argv, code=code,
                                            files=_read_tree(out_dir)), seconds))
            parts[name] = seconds
            if name.startswith("sample."):
                chain_s[name.split(".")[1]] = [seconds]
        return Cycle(parts, chain_s, ops, rss_kb)

    def check(self, ef, ops):
        import oracle

        verdict = Verdict()
        by = {op.name: op for op in ops}
        for op in ops:
            if op.out["code"] != 0:
                verdict.fail(op, f"exit code {op.out['code']}")
        if verdict.errors:
            return verdict
        # simulate: size, covariate ramp and a KS test of the PIT values
        sim = _csv(by["simulate"].out["files"]["simulated.csv"])
        x, cov = sim[:, 0], sim[:, 1:]
        if x.size != self.long_n or not np.allclose(cov[:, 0], np.linspace(0, 1, self.long_n)):
            verdict.fail(by["simulate"], "simulated.csv has the wrong shape or covariate")
        truth = np.array(self.LONG_TRUTH)
        loc, scale, shape = oracle.realize(self.LONG_CONFIG, cov, truth)
        p = oracle.ks_uniform_p(oracle.cdf("gev", x, loc, scale, shape))
        if p < 1e-6:
            verdict.fail(by["simulate"], f"KS test against the generating GEV: p = {p:.2e}")
        # fit of the long series
        fit = json.loads(by["fit"].out["files"]["result.json"])
        spec = ef.ModelSpec(data=x, covariates=cov, config=self.LONG_CONFIG,
                            family=ef.EvdFamily.GEV)
        b = ef.infer_bounds(spec)
        fit_op = _cli_fit_op(by["fit"], fit, "gev", x, cov, self.LONG_CONFIG, truth, False)
        check_fit(fit_op, verdict, b.lo, b.hi)
        # lrt: the alternative is the fit above
        res = json.loads(by["lrt"].out["files"]["lrt.json"])
        null = ef.ModelSpec(data=x, covariates=cov, config=(0, 0, 0), family=ef.EvdFamily.GEV)
        b0 = ef.infer_bounds(null)
        null_best = independent_min("gev", x, cov, (0, 0, 0), b0.lo, b0.hi)
        lrt_op = Op("lrt", None, dict(res, df_expected=2))
        check_lrt(lrt_op, verdict, null_best, fit["nll"])
        # sample: traces, summary, DIC, ESS, R-hat, return levels
        short = self.short
        short_spec = ef.ModelSpec(data=short, covariates=None, config=(0, 0, 0),
                                  family=ef.EvdFamily.GEV)
        priors = [(c.kind, c.a, c.b) for c in ef.default_priors(short_spec).components]
        post_ops = []
        for kind in SAMPLERS:
            op = by[f"sample.{kind}"]
            files = op.out["files"]
            draws = [_csv(files[f"trace_{k}.csv"]) for k in range(CHAINS)]
            if any(d.shape != (self.num_samples[kind], 3) for d in draws):
                verdict.fail(op, f"trace shapes {[d.shape for d in draws]}")
                continue
            summ = json.loads(files["summary.json"])
            levels = _csv(files["return_levels.csv"])[:, 1]
            post_ops.append(Op(op.name, None, dict(
                kind="posterior", sampler=kind, family="gev", x=short,
                cov=np.empty((short.size, 0)), config=(0, 0, 0), draws=draws, priors=priors,
                summary=[(p["mean"], p["sd"], p["q05"], p["q50"], p["q95"], p["rhat"],
                          p["ess"]) for p in summ["params"]],
                dic=summ["dic"], levels=levels)))
        check_posterior(post_ops, verdict)
        # GPD fit with the threshold pinned by the CLI
        gx, gcov = self.gpd_x, self.gpd_cov
        gspec = ef.ModelSpec(data=gx, covariates=gcov, config=self.GPD_CONFIG,
                             family=ef.EvdFamily.GPD)
        gb = _pinned(ef, gspec, ef.infer_bounds(gspec))
        gres = json.loads(by["gpd.fit"].out["files"]["result.json"])
        check_fit(_cli_fit_op(by["gpd.fit"], gres, "gpd", gx, gcov, self.GPD_CONFIG,
                              self.gpd_truth, True), verdict, gb.lo, gb.hi)
        return verdict


def _cli_fit_op(op, res, family, x, cov, config, truth, pin):
    """A fit op rebuilt from a CLI result.json, for check_fit."""
    se, levels = res["std_errors"], res.get("return_levels")
    return Op(op.name, op.fault, dict(
        kind="fit", family=family, x=x, cov=cov, config=config, truth=truth, pin=pin,
        theta=np.array(res["theta_hat"]), nll=res["nll"], converged=res["converged"],
        se=None if se is None else np.array(se),
        levels=None if levels is None else np.array(levels)))


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def _csv(text):
    rows = list(csv.reader(text.splitlines()))
    return np.array([[float(v) for v in r] for r in rows[1:] if r], dtype=float)


def _read_tree(path):
    files = {}
    if os.path.isdir(path):
        for name in sorted(os.listdir(path)):
            with open(os.path.join(path, name), "r", encoding="utf-8") as fh:
                files[name] = fh.read()
    return files


def _limit_cpu():
    resource.setrlimit(resource.RLIMIT_CPU, (CHILD_CPU_S, CHILD_CPU_S))


def subprocess_runner(env):
    """Runs `python -m extremefit` as a child.

    Returns (exit code, wall seconds, the child's own peak RSS in KiB). The
    child is killed after CHILD_CPU_S seconds of CPU time, so a hung command
    cannot hold the run past its time limit.
    """

    def run(argv, cwd):
        with tempfile.TemporaryFile() as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "extremefit", *argv], cwd=cwd,
                                    env=env, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err,
                                    preexec_fn=_limit_cpu)
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = time.perf_counter() - t0
            proc.returncode = code = os.waitstatus_to_exitcode(status)
            if code:
                err.seek(0)
                sys.stderr.write(err.read().decode(errors="replace"))
        return code, seconds, usage.ru_maxrss

    return run


WORKLOADS = {w.name: w for w in (FitSweep, CliPipeline)}
