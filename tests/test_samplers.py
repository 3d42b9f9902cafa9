"""Random-walk Metropolis, MALA, leapfrog, and HMC kernels."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from extremefit import (
    DomainError,
    EvdFamily,
    InitializationError,
    ModelSpec,
    ParamTriple,
    PriorComponent,
    PriorSet,
    RngState,
    Target,
    central_diff_grad,
    default_priors,
    ess,
    grad_log_prior,
    grad_neg_log_likelihood,
    hmc,
    leapfrog,
    log_prior,
    mala,
    mh_random_walk,
    neg_log_likelihood,
    posterior_target,
    sample,
    sample_chains,
    sample_posterior,
)
from extremefit import model, samplers
from _cases import ROW_KINDS, batch_rows, random_model_case

ACC_DLOGPOST_MINUS2_T1 = 0.1353352832366127  # exp(-2)
ACC_DLOGPOST_MINUS2_T2 = 0.36787944117144233  # exp(-1)


def std_normal_target():
    return Target(
        log_post=lambda th: -0.5 * float(th @ th),
        grad_log_post=lambda th: -th,
    )


def correlated_gaussian_target(rho=0.5):
    cov = np.array([[1.0, rho], [rho, 1.0]])
    prec = np.linalg.inv(cov)
    return Target(
        log_post=lambda th: -0.5 * float(th @ prec @ th),
        grad_log_post=lambda th: -(prec @ th),
    ), cov


class ScriptedRng:
    """Deterministic draw script for pinning acceptance arithmetic."""

    def __init__(self, normals, uniforms):
        self._normals = list(normals)
        self._uniforms = list(uniforms)
        self.seed = -1
        self.stream_id = -1

    def normals(self, size):
        return np.array([self._normals.pop(0) for _ in range(size)])

    def normal(self):
        return self._normals.pop(0)

    def uniform(self):
        return self._uniforms.pop(0)

    def uniforms(self, size):
        return np.array([self._uniforms.pop(0) for _ in range(size)])


class TestRandomWalk:
    @pytest.mark.parametrize("temp", [0.5, 1.0, 3.0, 10.0])
    def test_zero_delta_always_accepts(self, temp):
        target = Target(log_post=lambda th: 0.0)
        chain = mh_random_walk(target, 500, [0.0], [1.0], T=temp,
                               rng=RngState(1, 0), burn_in=0)
        assert chain.acceptance_rate == 1.0

    def test_acceptance_threshold_tempered(self):
        # log_post drops by exactly 2 per unit step; scripted draws probe
        # both sides of the acceptance threshold exp(-2/T).
        target = Target(log_post=lambda th: -2.0 * float(th[0]))
        chain = mh_random_walk(
            target, 2, [0.0], [1.0], T=1.0, burn_in=0,
            rng=ScriptedRng([1.0, 1.0],
                            [ACC_DLOGPOST_MINUS2_T1 - 1e-9,
                             ACC_DLOGPOST_MINUS2_T1 + 1e-9]),
        )
        assert chain.samples[0, 0] == 1.0  # accepted
        assert chain.samples[1, 0] == 1.0  # rejected, state retained
        assert chain.acceptance_rate == 0.5
        chain = mh_random_walk(
            target, 2, [0.0], [1.0], T=2.0, burn_in=0,
            rng=ScriptedRng([1.0, 1.0],
                            [ACC_DLOGPOST_MINUS2_T2 - 1e-9,
                             ACC_DLOGPOST_MINUS2_T2 + 1e-9]),
        )
        assert chain.samples[0, 0] == 1.0
        assert chain.samples[1, 0] == 1.0
        assert chain.acceptance_rate == 0.5

    def test_standard_normal_moments(self):
        chain = mh_random_walk(std_normal_target(), 100_000, [0.0], [2.4],
                               rng=RngState(5, 0))
        x = chain.samples[:, 0]
        assert abs(x.mean()) < 0.02
        assert abs(x.var() - 1.0) < 0.05

    def test_infinite_start(self):
        target = Target(log_post=lambda th: -math.inf)
        with pytest.raises(InitializationError):
            mh_random_walk(target, 10, [0.0], [1.0], rng=RngState(1, 0))

    def test_shapes_and_metadata(self):
        chain = mh_random_walk(std_normal_target(), 50, [0.0, 0.0], [1.0, 1.0],
                               rng=RngState(2, 3), burn_in=10, thin=3)
        assert chain.samples.shape == (50, 2)
        assert chain.burn_in == 10 and chain.thin == 3
        assert chain.sampler_tag == "rw"
        assert (chain.seed, chain.stream_id) == (2, 3)

    def test_default_burn_in_is_quarter(self):
        chain = mh_random_walk(std_normal_target(), 100, [0.0, 0.0], [1.0, 1.0],
                               rng=RngState(2, 0))
        assert chain.burn_in == 25

    def test_deterministic(self):
        a = mh_random_walk(std_normal_target(), 200, [0.0], [1.0], rng=RngState(9, 4))
        b = mh_random_walk(std_normal_target(), 200, [0.0], [1.0], rng=RngState(9, 4))
        assert np.array_equal(a.samples, b.samples)
        assert a.acceptance_rate == b.acceptance_rate

    def test_bounded_support_never_stores_infinite(self):
        def lp(th):
            return 0.0 if abs(th[0]) <= 1.0 else -math.inf

        chain = mh_random_walk(Target(log_post=lp), 2000, [0.0], [1.5],
                               rng=RngState(3, 0))
        assert np.all(np.abs(chain.samples) <= 1.0)

    def test_invalid_args(self):
        t = std_normal_target()
        with pytest.raises(DomainError):
            mh_random_walk(t, 10, [0.0], [1.0], T=0.0, rng=RngState(0, 0))
        with pytest.raises(DomainError):
            mh_random_walk(t, 10, [0.0], [-1.0], rng=RngState(0, 0))
        with pytest.raises(DomainError):
            mh_random_walk(t, 10, [0.0], [1.0], thin=0, rng=RngState(0, 0))

    def test_stationarity_from_equilibrium_start(self):
        start = RngState(40, 0).normal()
        chain = mh_random_walk(std_normal_target(), 1000, [start], [2.4],
                               rng=RngState(41, 0), burn_in=0)
        x = chain.samples[:, 0]
        z = abs(x.mean()) / (x.std() / math.sqrt(ess(chain, 0)))
        assert z < 4.0


class TestMala:
    def test_zero_gradient_keeps_proposal_at_state(self):
        # at the mode the drift vanishes; with scripted z=0 the proposal
        # equals the current state exactly
        chain = mala(std_normal_target(), 1, [0.0], [0.5], burn_in=0,
                     rng=ScriptedRng([0.0], [0.5]))
        assert chain.samples[0, 0] == 0.0
        assert chain.acceptance_rate == 1.0

    def test_drift_is_tempered_gradient_times_tau(self):
        # Normal(3,1) target at theta=0: drift tau*3 with tau = step^2/2
        target = Target(
            log_post=lambda th: -0.5 * float((th[0] - 3.0) ** 2),
            grad_log_post=lambda th: np.array([-(th[0] - 3.0)]),
        )
        step = 0.5
        chain = mala(target, 1, [0.0], [step], burn_in=0,
                     rng=ScriptedRng([0.0], [0.5]))
        assert chain.samples[0, 0] == pytest.approx((step**2 / 2.0) * 3.0, abs=1e-15)

    def test_standard_normal_variance(self):
        chain = mala(std_normal_target(), 100_000, [0.0], [1.2], rng=RngState(6, 0))
        x = chain.samples[:, 0]
        assert abs(x.mean()) < 0.02
        assert abs(x.var() - 1.0) < 0.05

    def test_requires_gradient(self):
        with pytest.raises(DomainError):
            mala(Target(log_post=lambda th: 0.0), 10, [0.0], [1.0], rng=RngState(0, 0))

    def test_deterministic(self):
        a = mala(std_normal_target(), 200, [0.3], [0.8], rng=RngState(11, 2))
        b = mala(std_normal_target(), 200, [0.3], [0.8], rng=RngState(11, 2))
        assert np.array_equal(a.samples, b.samples)

    def test_nonfinite_gradient_rejects_and_counts(self):
        # gradient explodes outside |theta| < 1 while log_post stays finite
        def bad_grad(th):
            return np.array([math.nan]) if abs(th[0]) > 1.0 else -th

        target = Target(log_post=lambda th: -0.5 * float(th @ th), grad_log_post=bad_grad)
        chain = mala(target, 400, [0.0], [3.0], rng=RngState(12, 0), burn_in=0)
        assert np.all(np.abs(chain.samples) <= 1.0)
        assert chain.acceptance_rate < 1.0

    def test_gradient_only_where_log_post_finite(self):
        # a scalar user target whose gradient is undefined outside |theta| <= 1
        def lp(th):
            return -0.5 * float(th @ th) if abs(th[0]) <= 1.0 else -math.inf

        def grad(th):
            assert abs(th[0]) <= 1.0
            return -th

        chain = mala(Target(log_post=lp, grad_log_post=grad), 300, [0.0], [2.0],
                     rng=RngState(4, 0))
        assert 0.0 < chain.acceptance_rate < 1.0


class TestLeapfrog:
    def test_reversibility(self):
        target, _ = correlated_gaussian_target()
        q0 = np.array([0.3, -0.8])
        p0 = np.array([1.1, 0.4])
        q1, p1, d1 = leapfrog(target, q0, p0, 0.2, 25, [1.0, 1.0])
        q2, p2, d2 = leapfrog(target, q1, -p1, 0.2, 25, [1.0, 1.0])
        assert not d1 and not d2
        assert np.max(np.abs(q2 - q0)) < 1e-10
        assert np.max(np.abs(p2 + p0)) < 1e-10

    def test_energy_error_second_order(self):
        target = std_normal_target()

        def energy_error(eps, total_time=3.0):
            steps = int(round(total_time / eps))
            q = np.array([1.3, -0.4])
            p = np.array([0.6, 0.9])
            h0 = -target.log_post(q) + 0.5 * float(p @ p)
            q1, p1, _ = leapfrog(target, q, p, eps, steps, [1.0, 1.0])
            return abs(-target.log_post(q1) + 0.5 * float(p1 @ p1) - h0)

        ratio = energy_error(0.2) / energy_error(0.1)
        assert 3.0 <= ratio <= 5.0

    def test_fixed_point(self):
        # zero momentum at the mode (zero gradient) stays put
        q, p, diverged = leapfrog(std_normal_target(), [0.0, 0.0], [0.0, 0.0],
                                  0.3, 10, [1.0, 1.0])
        assert not diverged
        assert np.all(q == 0.0) and np.all(p == 0.0)

    def test_divergence_flag(self):
        target = Target(
            log_post=lambda th: 0.0,
            grad_log_post=lambda th: np.array([math.nan] * len(th)),
        )
        _, _, diverged = leapfrog(target, [0.0], [1.0], 0.1, 5, [1.0])
        assert diverged

    @pytest.mark.parametrize("mass", [math.inf, math.nan, 0.0, -1.0])
    def test_mass_must_be_finite_and_positive(self, mass):
        # an infinite mass would leave q where it was and report no divergence
        with pytest.raises(DomainError, match="mass_diag"):
            leapfrog(std_normal_target(), [1.0], [1.0], 0.1, 5, [mass])


class TestHmc:
    def test_tiny_step_accepts_everything(self):
        chain = hmc(std_normal_target(), 2000, [0.0, 0.0], eps=1e-4, n_leapfrog=5,
                    mass_diag=[1.0, 1.0], rng=RngState(7, 0))
        assert chain.acceptance_rate > 0.999

    def test_correlated_gaussian_moments(self):
        target, cov = correlated_gaussian_target()
        chain = hmc(target, 30_000, [0.0, 0.0], eps=0.6, n_leapfrog=5,
                    mass_diag=[1.0, 1.0], rng=RngState(8, 0))
        means = chain.samples.mean(axis=0)
        sample_cov = np.cov(chain.samples.T, ddof=0)
        assert np.max(np.abs(means)) < 0.03
        assert np.max(np.abs(sample_cov - cov)) < 0.05

    def test_single_step_matches_mala_acceptance(self):
        target = std_normal_target()
        step = 0.9
        ch_h = hmc(target, 20_000, [0.0], eps=step, n_leapfrog=1,
                   mass_diag=[1.0], rng=RngState(14, 0))
        ch_m = mala(target, 20_000, [0.0], [step], rng=RngState(15, 0))
        assert abs(ch_h.acceptance_rate - ch_m.acceptance_rate) < 0.05

    def test_deterministic(self):
        a = hmc(std_normal_target(), 300, [0.0], eps=0.5, n_leapfrog=4,
                mass_diag=[1.0], rng=RngState(16, 1))
        b = hmc(std_normal_target(), 300, [0.0], eps=0.5, n_leapfrog=4,
                mass_diag=[1.0], rng=RngState(16, 1))
        assert np.array_equal(a.samples, b.samples)

    def test_invalid_args(self):
        t = std_normal_target()
        with pytest.raises(DomainError):
            hmc(t, 10, [0.0], eps=0.0, n_leapfrog=5, rng=RngState(0, 0))
        with pytest.raises(DomainError):
            hmc(t, 10, [0.0], eps=0.1, n_leapfrog=0, rng=RngState(0, 0))
        with pytest.raises(DomainError):
            hmc(t, 10, [0.0], eps=0.1, n_leapfrog=5, mass_diag=[-1.0],
                rng=RngState(0, 0))


class TestTemperature:
    """T enters acceptance and gradients as one consistent tempered target.

    A standard normal tempered with T has variance T, so the sampled
    variance pins the 1/T scaling in both places at once.
    """

    def test_rw_tempered_variance(self):
        chain = mh_random_walk(std_normal_target(), 60_000, [0.0], [4.0], T=4.0,
                               rng=RngState(18, 0))
        assert abs(chain.samples[:, 0].var() - 4.0) < 0.3

    def test_mala_tempered_variance(self):
        chain = mala(std_normal_target(), 60_000, [0.0], [2.2], T=4.0,
                     rng=RngState(19, 0))
        assert abs(chain.samples[:, 0].var() - 4.0) < 0.3

    def test_hmc_tempered_variance(self):
        chain = hmc(std_normal_target(), 30_000, [0.0], eps=1.0, n_leapfrog=5,
                    mass_diag=[0.25], T=4.0, rng=RngState(20, 0))
        assert abs(chain.samples[:, 0].var() - 4.0) < 0.3


class TestBadTemperatureAndStep:
    """T, and hmc's eps, must be finite and > 0.

    Otherwise a chain that never moves, or a random walk that ignores its
    target, passes for a sample.
    """

    @staticmethod
    def _spec():
        data = sample(EvdFamily.GEV, ParamTriple(10, 2, 0.1), RngState(30, 0), size=40)
        return ModelSpec(data=data, covariates=None, config=(0, 0, 0), family=EvdFamily.GEV)

    @pytest.mark.parametrize("temp", [math.nan, math.inf, 0.0, -1.0])
    @pytest.mark.parametrize("call", ["rw", "mala", "hmc", "sample_chains"])
    def test_kernels_reject_bad_temperature(self, call, temp):
        t, rng = std_normal_target(), RngState(0, 0)
        with pytest.raises(DomainError, match="temperature"):
            if call == "rw":
                mh_random_walk(t, 10, [0.0], [1.0], T=temp, rng=rng)
            elif call == "mala":
                mala(t, 10, [0.0], [1.0], T=temp, rng=rng)
            elif call == "hmc":
                hmc(t, 10, [0.0], eps=0.1, n_leapfrog=5, T=temp, rng=rng)
            else:
                sample_chains("rw", t, 10, [0.0], [1.0], [rng, RngState(0, 1)], T=temp)

    @pytest.mark.parametrize("temp", [math.nan, math.inf, 0.0, -1.0])
    @pytest.mark.parametrize("kind", ["rw", "mala", "hmc"])
    def test_sample_posterior_rejects_bad_temperature_before_its_fit(self, kind, temp,
                                                                     monkeypatch):
        def no_fit(*args):
            raise AssertionError("fit_mle ran")

        monkeypatch.setattr(samplers, "fit_mle", no_fit)
        spec = self._spec()
        with pytest.raises(DomainError, match="temperature"):
            sample_posterior(spec, default_priors(spec), kind, 10, [RngState(0, 0)], T=temp)

    @pytest.mark.parametrize("eps", [math.nan, math.inf, 0.0])
    def test_hmc_rejects_bad_eps(self, eps):
        t = std_normal_target()
        with pytest.raises(DomainError, match="eps"):
            hmc(t, 10, [0.0], eps=eps, n_leapfrog=5, rng=RngState(0, 0))
        with pytest.raises(DomainError, match="eps"):
            sample_chains("hmc", t, 10, [0.0], [1.0], [RngState(0, 0), RngState(0, 1)],
                          eps=eps, n_leapfrog=5)


class TestPosteriorTarget:
    def test_combines_likelihood_and_prior(self):
        data = sample(EvdFamily.GEV, ParamTriple(10, 5, 0), RngState(22, 0), size=200)
        spec = ModelSpec(data=data, covariates=None, config=(0, 0, 0),
                         family=EvdFamily.GEV)
        priors = default_priors(spec)
        target = posterior_target(spec, priors)
        theta = np.array([10.0, 5.0, 0.05])
        fd = central_diff_grad(target.log_post, theta)
        assert np.allclose(target.grad_log_post(theta), fd, rtol=1e-5, atol=1e-5)

    def test_outside_support_is_minus_inf_and_nan_gradient(self):
        data = np.array([0.0, 1.0, 2.0, 3.0])
        spec = ModelSpec(data=data, covariates=None, config=(0, 0, 0),
                         family=EvdFamily.GEV)
        priors = default_priors(spec)
        target = posterior_target(spec, priors)
        bad = np.array([0.0, 1.0, -0.6])  # upper endpoint below the data
        assert target.log_post(bad) == -math.inf
        assert np.all(np.isnan(target.grad_log_post(bad)))

    @staticmethod
    def _composition(spec, priors, theta):
        """The public functions' log_prior - nll and its gradient, a NaN row where undefined."""
        def or_nan(grad, obj):
            try:
                return grad(obj, theta)
            except DomainError:  # only a (d,) theta raises
                return np.full(theta.shape, np.nan)
        return (log_prior(priors, theta) - neg_log_likelihood(spec, theta),
                or_nan(grad_log_prior, priors) - or_nan(grad_neg_log_likelihood, spec))

    @pytest.mark.parametrize("index", range(8))
    def test_one_pass_equals_the_public_composition(self, index):
        spec, theta = random_model_case(index)
        rows = batch_rows(spec, theta, ("inside",) + ROW_KINDS, index)
        normal = default_priors(spec)
        comps = list(normal.components)
        a, b, _ = spec.config
        comps[a + b + 2] = PriorComponent("uniform", -0.45, 0.45)  # "outside" rows leave it
        for priors in (normal, PriorSet(tuple(comps))):
            target = posterior_target(spec, priors)
            for x in (rows, *rows):
                value, grad = self._composition(spec, priors, x)
                assert np.array_equal(target.log_post(x), value)
                assert np.array_equal(target.grad_log_post(x), grad, equal_nan=True)
                pair = target.value_and_grad(x)
                assert np.array_equal(pair[0], value)
                assert np.array_equal(pair[1], grad, equal_nan=True)

    def test_one_kernel_pass_and_one_prior_pass_per_call(self, monkeypatch):
        spec, theta = random_model_case(2)  # GEV (1, 0, 0)
        target = posterior_target(spec, default_priors(spec))
        calls = []
        terms, prior_terms = model._terms, samplers._prior_terms
        monkeypatch.setattr(model, "_terms", lambda *a: calls.append("_terms") or terms(*a))
        monkeypatch.setattr(samplers, "_prior_terms",
                            lambda *a: calls.append("_prior_terms") or prior_terms(*a))
        for x in (theta, batch_rows(spec, theta, ["inside"] * 3, 1)):
            for call in (target.log_post, target.grad_log_post, target.value_and_grad):
                calls.clear()
                call(x)
                assert sorted(calls) == ["_prior_terms", "_terms"]

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("column", range(3))
    def test_one_rule_for_a_non_finite_theta(self, column, bad):
        # the same rule in a normal and in a uniform column, for a lone theta and in a batch
        data = sample(EvdFamily.GEV, ParamTriple(0, 1, 0), RngState(3, 0), size=50)
        spec = ModelSpec(data=data, covariates=None, config=(0, 0, 0), family=EvdFamily.GEV)
        priors = PriorSet((PriorComponent("normal", 0.0, 10.0),
                           PriorComponent("normal", 1.0, 10.0),
                           PriorComponent("uniform", -1.0, 1.0)))
        target = posterior_target(spec, priors)
        good = np.array([0.0, 1.0, 0.1])
        theta = good.copy()
        theta[column] = bad
        for x in (theta, theta[None], np.vstack([good, theta])):
            for call in (target.log_post, target.value_and_grad):
                with pytest.raises(DomainError, match="finite"):
                    call(x)
        assert np.all(np.isnan(target.grad_log_post(theta)))
        grad = target.grad_log_post(np.vstack([good, theta, good]))
        assert np.all(np.isnan(grad[1]))
        assert np.array_equal(grad[[0, 2]], [target.grad_log_post(good)] * 2)

    def test_theta_and_prior_count_must_match_the_model(self):
        spec, theta = random_model_case(0)
        priors = default_priors(spec)
        target = posterior_target(spec, priors)
        for call in (target.log_post, target.grad_log_post, target.value_and_grad):
            with pytest.raises(DomainError, match="length"):
                call(theta[:-1])
        with pytest.raises(DomainError, match="priors"):
            posterior_target(spec, PriorSet(priors.components[:-1]))


def edge_target():
    """Standard normal whose gradient is NaN beyond |theta_i| = 1.5; takes (d,) or (K, d)."""

    def grad(th):
        g = -np.array(th, dtype=float)
        g[np.abs(th).max(axis=-1) > 1.5] = np.nan
        return g

    return Target(log_post=lambda th: -0.5 * (th * th).sum(axis=-1), grad_log_post=grad)


class TestHmcGradientCache:
    def test_one_gradient_per_leapfrog_step(self):
        data = sample(EvdFamily.GEV, ParamTriple(10, 2, 0.1), RngState(31, 0), size=60)
        spec = ModelSpec(data=data, covariates=None, config=(0, 0, 0), family=EvdFamily.GEV)
        target = posterior_target(spec, default_priors(spec))
        calls = []
        counted = Target(target.log_post,
                         lambda theta: calls.append(1) or target.grad_log_post(theta))
        chain = hmc(counted, 20, [10.0, 2.0, 0.1], 0.05, 6, mass_diag=[10.0, 20.0, 100.0],
                    rng=RngState(5, 0), burn_in=0)
        assert chain.acceptance_rate > 0.5
        # one gradient at the start, then one per leapfrog step: the accepted
        # trajectory's end gradient is the next start gradient
        assert len(calls) == 1 + 20 * 6


class TestEvaluationCounts:
    """Each point is evaluated once: mala and hmc end each trajectory with one value_and_grad."""

    @staticmethod
    def _counted():
        data = sample(EvdFamily.GEV, ParamTriple(10, 2, 0.1), RngState(31, 0), size=60)
        spec = ModelSpec(data=data, covariates=None, config=(0, 0, 0), family=EvdFamily.GEV)
        target = posterior_target(spec, default_priors(spec))
        calls = {"log_post": 0, "grad_log_post": 0, "value_and_grad": 0}

        def counted(name):
            fn = getattr(target, name)

            def call(theta):
                calls[name] += 1
                return fn(theta)
            return call

        return Target(*(counted(name) for name in ("log_post", "grad_log_post")),
                      value_and_grad=counted("value_and_grad")), calls, target

    X0, WIDTHS = np.array([10.0, 2.0, 0.1]), np.array([0.3, 0.25, 0.08])

    @pytest.mark.parametrize("n_chains", [1, 4])
    def test_mala_one_value_and_grad_per_iteration(self, n_chains):
        counted, calls, _ = self._counted()
        chains = sample_chains("mala", counted, 30, self.X0, 0.5 * self.WIDTHS,
                               [RngState(5, k) for k in range(n_chains)], burn_in=10)
        assert all(c.acceptance_rate > 0.5 for c in chains)
        assert calls == {"log_post": 0, "grad_log_post": 0, "value_and_grad": 1 + 40}

    @pytest.mark.parametrize("n_chains", [1, 4])
    def test_hmc_leapfrog_gradients_and_one_value_and_grad(self, n_chains):
        counted, calls, _ = self._counted()
        chains = sample_chains("hmc", counted, 20, self.X0, 1.0 / self.WIDTHS**2,
                               [RngState(5, k) for k in range(n_chains)], burn_in=0,
                               eps=0.05, n_leapfrog=6)
        assert all(c.acceptance_rate > 0.5 for c in chains)
        assert calls == {"log_post": 0, "grad_log_post": 20 * (6 - 1),
                         "value_and_grad": 1 + 20}

    def test_rw_one_log_post_per_iteration(self):
        counted, calls, _ = self._counted()
        mh_random_walk(counted, 30, self.X0, self.WIDTHS, rng=RngState(5, 0), burn_in=10)
        assert calls == {"log_post": 1 + 40, "grad_log_post": 0, "value_and_grad": 0}

    @pytest.mark.parametrize("kind", ["mala", "hmc"])
    def test_two_callable_target_samples_alike(self, kind):
        _, _, target = self._counted()
        plain = Target(target.log_post, target.grad_log_post)
        scales = 0.5 * self.WIDTHS if kind == "mala" else 1.0 / self.WIDTHS**2
        runs = [sample_chains(kind, t, 30, self.X0, scales, [RngState(6, k) for k in range(3)],
                              eps=0.3, n_leapfrog=4)
                for t in (target, plain)]
        for fused, separate in zip(*runs):
            assert np.array_equal(fused.samples, separate.samples)
            assert fused.acceptance_rate == separate.acceptance_rate
        assert plain.value_and_grad is None  # sample_chains leaves the caller's target as it was


class TestLockstep:
    """sample_chains runs K chains in lockstep; chain k equals a lone chain k bit for bit."""

    @staticmethod
    def _posterior():
        data = sample(EvdFamily.GEV, ParamTriple(10, 2, 0.1), RngState(30, 0), size=60)
        spec = ModelSpec(data=data, covariates=None, config=(0, 0, 0), family=EvdFamily.GEV)
        return posterior_target(spec, default_priors(spec)), np.array([10.0, 2.0, 0.1])

    @pytest.mark.parametrize("temp, thin", [(1.0, 1), (2.5, 3)])
    @pytest.mark.parametrize("kind", ["rw", "mala", "hmc"])
    def test_four_chains_match_lone_chains(self, kind, temp, thin):
        target, x0 = self._posterior()
        widths = np.array([0.3, 0.25, 0.08])
        scales = {"rw": widths, "mala": 0.5 * widths, "hmc": 1.0 / widths**2}[kind]
        n = 30 if kind == "hmc" else 150
        lock = sample_chains(kind, target, n, x0, scales, [RngState(7, k) for k in range(4)],
                             T=temp, thin=thin, eps=0.3, n_leapfrog=6)
        for k, chain in enumerate(lock):
            rng = RngState(7, k)
            if kind == "rw":
                alone = mh_random_walk(target, n, x0, scales, T=temp, rng=rng, thin=thin)
            elif kind == "mala":
                alone = mala(target, n, x0, scales, T=temp, rng=rng, thin=thin)
            else:
                alone = hmc(target, n, x0, 0.3, 6, mass_diag=scales, T=temp, rng=rng,
                            thin=thin)
            assert np.array_equal(chain.samples, alone.samples)
            assert chain.acceptance_rate == alone.acceptance_rate
            assert (chain.sampler_tag, chain.seed, chain.stream_id) == (kind, 7, k)
            assert (chain.burn_in, chain.thin, chain.temperature) == (n // 4, thin, temp)

    def test_hmc_diverging_chain_does_not_disturb_others(self):
        target = edge_target()
        calls = []
        grad = target.grad_log_post

        def recording_grad(th):
            g = grad(th)
            if np.ndim(th) == 2:
                calls.append(np.isnan(g).all(axis=-1))
            return g

        target.grad_log_post = recording_grad
        lock = sample_chains("hmc", target, 200, [0.0, 0.0], [1.0, 1.0],
                             [RngState(11, k) for k in range(4)], eps=0.9, n_leapfrog=8)
        # some call had a diverging row next to rows that kept integrating
        assert any(bad.any() and not bad.all() for bad in calls)
        target.grad_log_post = grad
        for k, chain in enumerate(lock):
            alone = hmc(target, 200, [0.0, 0.0], 0.9, 8, mass_diag=[1.0, 1.0],
                        rng=RngState(11, k))
            assert np.array_equal(chain.samples, alone.samples)
            assert chain.acceptance_rate == alone.acceptance_rate
            assert 0.0 < chain.acceptance_rate < 1.0

    def test_leapfrog_rows_freeze_on_divergence(self):
        target = edge_target()
        q0 = np.array([[0.0, 0.0], [1.2, 0.0], [0.3, -0.2]])
        p0 = np.array([[0.5, 0.1], [2.0, 0.0], [-0.4, 0.3]])
        q, p, diverged = leapfrog(target, q0, p0, 0.2, 10, [1.0, 1.0])
        assert diverged.tolist() == [False, True, False]
        for k in range(3):
            q1, p1, d1 = leapfrog(target, q0[k], p0[k], 0.2, 10, [1.0, 1.0])
            assert d1 == diverged[k]
            assert np.array_equal(q1, q[k]) and np.array_equal(p1, p[k])

    def test_draw_order_matches_reference_loop(self):
        """Per iteration a chain draws its d normals, then one uniform."""
        target = std_normal_target()
        rng = RngState(3, 1)
        theta, lp, ref = np.zeros(2), 0.0, []
        for _ in range(50):
            prop = theta + 0.8 * rng.normals(2)
            lp_prop = target.log_post(prop)
            if math.log(rng.uniform()) < lp_prop - lp:
                theta, lp = prop, lp_prop
            ref.append(theta)
        chain = mh_random_walk(target, 50, [0.0, 0.0], [0.8, 0.8], rng=RngState(3, 1),
                               burn_in=0)
        assert np.array_equal(chain.samples, ref)

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            sample_chains("nuts", std_normal_target(), 10, [0.0], [1.0], [RngState(0, 0)])


class TestRandomNumbers:
    """Per iteration a chain draws its d normals and one uniform, and nothing more."""

    @pytest.mark.parametrize("kind", ["rw", "mala", "hmc"])
    def test_draws_no_extra_random_numbers(self, kind):
        n_iter, dim = 40, 2
        rng = ScriptedRng(RngState(5, 0).normals(n_iter * dim),
                          [RngState(6, 0).uniform() for _ in range(n_iter)])
        sample_chains(kind, std_normal_target(), 30, [0.1, -0.2], [0.7, 0.7], [rng],
                      burn_in=10, eps=0.4, n_leapfrog=3)
        assert (len(rng._normals), len(rng._uniforms)) == (0, 0)


def batched_normal_target(rows):
    """Standard normal on (R, d) batches scoring up to 8 rows a call; rows records each R."""

    def log_post(th):
        rows.append(len(th))
        return -0.5 * (th * th).sum(axis=-1)

    def value_and_grad(th):
        rows.append(len(th))
        return -0.5 * (th * th).sum(axis=-1), -th

    return Target(log_post, lambda th: -th, value_and_grad, batch_rows=8)


class TestPrefetch:
    """A target with batch_rows > 1 scores a chain's next proposals in one call.

    The chain it gives is the sequential one, bit for bit, draw for draw.
    """

    @pytest.mark.parametrize("temp", [1.0, 2.0])
    @pytest.mark.parametrize("kind", ["rw", "mala", "hmc"])
    def test_batched_posterior_equals_one_row_calls(self, kind, temp):
        target, x0 = TestLockstep._posterior()
        assert target.batch_rows == 1024 // 60
        one_row = Target(target.log_post, target.grad_log_post, target.value_and_grad)
        w = np.array([0.5, 0.4, 0.13])
        runs = []
        for t in (target, one_row):
            rng = RngState(9, 2)
            if kind == "rw":
                runs.append(mh_random_walk(t, 200, x0, w, T=temp, rng=rng))
            elif kind == "mala":
                runs.append(mala(t, 200, x0, 0.5 * w, T=temp, rng=rng))
            else:
                runs.append(hmc(t, 30, x0, 0.9, 6, mass_diag=1 / w**2, T=temp, rng=rng))
            runs[-1] = (runs[-1], rng.normal())  # the stream's next draw
        (batched, after_b), (single, after_s) = runs
        assert np.array_equal(batched.samples, single.samples)
        assert batched.acceptance_rate == single.acceptance_rate
        assert after_b == after_s
        if kind == "rw":  # rejecting 1/batch_rows or more, a chain scores 2+ proposals a round
            assert 0.15 < batched.acceptance_rate < 0.45

    @pytest.mark.parametrize("kind", ["rw", "mala", "hmc"])
    def test_draws_no_extra_random_numbers(self, kind):
        n_iter, dim = 40, 2
        rng = ScriptedRng(RngState(5, 0).normals(n_iter * dim),
                          [RngState(6, 0).uniform() for _ in range(n_iter)])
        sample_chains(kind, batched_normal_target([]), 30, [0.1, -0.2], [2.5, 2.5], [rng],
                      burn_in=10, eps=1.5, n_leapfrog=3)
        assert (len(rng._normals), len(rng._uniforms)) == (0, 0)

    def test_rw_at_low_acceptance_makes_fewer_calls(self):
        rows = []
        chain = mh_random_walk(batched_normal_target(rows), 300, [0.0, 0.0], [1.8, 1.8],
                               rng=RngState(3, 0), burn_in=100)
        assert 0.25 < chain.acceptance_rate < 0.35
        calls = len(rows) - 1  # after the start's; 136 measured (187 with floor(1 / a) rows)
        assert calls < 0.4 * 400
        assert max(rows) <= 8 and sum(rows) - 1 >= 400

    def test_mala_at_high_acceptance_evaluates_one_row_per_iteration(self):
        rows = []
        chain = mala(batched_normal_target(rows), 300, [0.0, 0.0], [0.8, 0.8],
                     rng=RngState(3, 0), burn_in=100)
        assert chain.acceptance_rate > 0.9
        # a second row would be reached at the rejection rate, below 1 / batch_rows = 1/8
        assert set(rows) == {1} and len(rows) - 1 == 400

    @given(st.integers(1, 64), st.integers(0, 10_000), st.integers(0, 10_000))
    @settings(max_examples=300, deadline=None)
    def test_depth_prices_each_row(self, budget, n, rejected):
        assume(rejected <= n)
        m = samplers._depth(rejected, n, budget)
        assert 1 <= m <= budget
        if rejected == 0 or budget == 1:
            assert m == 1
        if rejected == n > 0:
            assert m == budget
        assert samplers._depth(min(rejected + 1, n), n, budget) >= m
        # the m-th row's chance q**(m - 1) of being reached is worth 1 / budget of a call,
        # the next one's is not (up to rounding at a tie)
        q = rejected / n if n else 0.0
        assert q ** (m - 1) * budget >= 1 - 1e-12
        assert m == budget or q**m * budget < 1 + 1e-12

    @pytest.mark.parametrize("budget, left", [(8, 1), (8, 3), (4, 6)])
    def test_rows_capped_by_the_iterations_left(self, budget, left):
        rows = []
        target = batched_normal_target(rows)
        target.batch_rows = budget
        chain = mh_random_walk(target, left, [0.0, 0.0], [50.0, 50.0], rng=RngState(1, 0),
                               burn_in=0)
        assert chain.acceptance_rate == 0.0
        # one row before the first rejection, then all the budget the iterations leave
        expect = [1] + [min(budget, left - 1 - i) for i in range(0, left - 1, budget)]
        assert rows[1:] == expect

    def test_long_series_speculates_nothing(self):
        data = sample(EvdFamily.GEV, ParamTriple(10, 2, 0.1), RngState(30, 0), size=20_000)
        spec = ModelSpec(data=data, covariates=None, config=(0, 0, 0), family=EvdFamily.GEV)
        assert posterior_target(spec, default_priors(spec)).batch_rows == 1

    def test_lockstep_chains_advance_apart(self):
        rows = []
        lock = sample_chains("rw", batched_normal_target(rows), 100, [0.0, 0.0], [1.8, 1.8],
                             [RngState(4, k) for k in range(3)])
        for k, chain in enumerate(lock):
            alone = mh_random_walk(batched_normal_target([]), 100, [0.0, 0.0], [1.8, 1.8],
                                   rng=RngState(4, k))
            assert np.array_equal(chain.samples, alone.samples)
            assert chain.acceptance_rate == alone.acceptance_rate
        assert len(rows) - 1 < 125  # rounds, each chain running one or more iterations

    def test_batch_rows_below_one(self):
        target = Target(std_normal_target().log_post, batch_rows=0)
        with pytest.raises(DomainError, match="batch_rows"):
            mh_random_walk(target, 10, [0.0], [1.0], rng=RngState(0, 0))


class TestBurnIn:
    """Burn-in only discards iterations: no step adapts in it."""

    @pytest.mark.parametrize("kind", ["rw", "mala", "hmc"])
    def test_burn_in_only_discards(self, kind):
        def run(burn_in, n):
            return sample_chains(kind, std_normal_target(), n, [0.0, 0.0], [0.8, 0.8],
                                 [RngState(8, 0)], burn_in=burn_in, eps=0.3, n_leapfrog=4)[0]

        burnt, plain = run(10, 40), run(0, 50)
        assert np.array_equal(burnt.samples, plain.samples[10:])
        assert burnt.step_scale == plain.step_scale == (0.3 if kind == "hmc" else 1.0)


class TestUnadaptedTraces:
    """Library traces without adaptation, pinned from the kernels before adaptation existed.

    mala now runs as one-step HMC, which equals the old Langevin proposal up
    to rounding; rw is unchanged bit for bit. hmc's last row moved by an ulp
    when h = log1p(xi z) / xi replaced a Taylor series for small xi z, and
    is pinned again to its new bits. It was pinned once more, 1.7e-14
    relative away, when the stationary scale's gradient became a ones-column
    product, as the location's and shape's were, instead of a sum.
    """

    @staticmethod
    def _run(kind):
        data = sample(EvdFamily.GEV, ParamTriple(10, 2, 0.1), RngState(30, 0), size=60)
        spec = ModelSpec(data=data, covariates=None, config=(0, 0, 0), family=EvdFamily.GEV)
        target = posterior_target(spec, default_priors(spec))
        x0, w, rng = np.array([10.0, 2.0, 0.1]), np.array([0.3, 0.25, 0.08]), RngState(3, 1)
        if kind == "rw":
            return mh_random_walk(target, 40, x0, w, T=1.5, rng=rng, thin=2)
        if kind == "mala":
            return mala(target, 40, x0, 0.5 * w, T=1.5, rng=rng, thin=2)
        return hmc(target, 12, x0, 0.9, 6, mass_diag=1 / w**2, T=1.5, rng=rng, thin=2)

    PINNED = {
        "rw": (0.4875, [9.909621247073495, 2.0014853951793876, 0.32181934109692273],
               475.9484273112304),
        "mala": (0.975, [9.910396380199213, 2.250084625042214, 0.1874876168797433],
                 489.1152923703051),
        "hmc": (0.75, [10.190985568698604, 1.9801049297625197, 0.07743121569794731],
                146.02821714097868),
    }

    @pytest.mark.parametrize("kind", ["rw", "mala", "hmc"])
    def test_trace_pinned(self, kind):
        chain = self._run(kind)
        rate, last, total = self.PINNED[kind]
        assert chain.acceptance_rate == rate
        if kind == "mala":
            assert chain.samples[-1] == pytest.approx(last, rel=1e-12, abs=1e-12)
            assert chain.samples.sum() == pytest.approx(total, rel=1e-12)
        else:
            assert chain.samples[-1].tolist() == last
            assert chain.samples.sum() == total
        assert chain.step_scale == (0.9 if kind == "hmc" else 1.0)
