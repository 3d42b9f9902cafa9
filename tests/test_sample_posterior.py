"""sample_posterior: the whitened rw/MALA/HMC recipe, and its calibration by SBC."""

import math

import numpy as np
import pytest

from extremefit import (
    DomainError,
    EvdFamily,
    ModelSpec,
    ParamTriple,
    PriorComponent,
    PriorSet,
    RngState,
    chi2_sf,
    default_priors,
    realize,
    sample,
    sample_posterior,
)
from extremefit.distributions import quantile_values
from extremefit.optimize import infer_bounds
from _cases import simulate_from


def _gev_spec():
    data = sample(EvdFamily.GEV, ParamTriple(10, 2, 0.1), RngState(30, 0), size=60)
    return ModelSpec(data=data, covariates=None, config=(0, 0, 0), family=EvdFamily.GEV)


def _gpd_spec():
    data = sample(EvdFamily.GPD, ParamTriple(0, 2, 0.1), RngState(31, 0), size=80)
    return ModelSpec(data=data, covariates=None, config=(0, 0, 0), family=EvdFamily.GPD)


class TestSamplePosterior:
    @pytest.mark.parametrize("kind", ["rw", "mala", "hmc"])
    def test_chain_k_same_alone_and_in_lockstep(self, kind):
        spec = _gpd_spec()
        priors = default_priors(spec)
        lock, source, _ = sample_posterior(spec, priors, kind, 40,
                                           [RngState(4, k) for k in range(3)], T=1.5)
        assert source == "mle"
        for k, chain in enumerate(lock):
            (alone,), _, _ = sample_posterior(spec, priors, kind, 40, [RngState(4, k)], T=1.5)
            assert np.array_equal(chain.samples, alone.samples)
            assert chain.step_scale == alone.step_scale
            assert np.all(chain.samples[:, 0] == 0.0)  # the pinned threshold

    def test_steps_give_the_steps_source(self):
        spec = _gev_spec()
        chains, source, _ = sample_posterior(spec, default_priors(spec), "rw", 20,
                                             [RngState(0, 0)], steps=[0.3, 0.2, 0.05])
        assert source == "steps" and chains[0].acceptance_rate > 0.0

    def test_x0_off_a_pin_is_domain_error(self):
        # without the check the threshold would silently stay at 0.5
        spec = _gpd_spec()
        with pytest.raises(DomainError, match="pin"):
            sample_posterior(spec, default_priors(spec), "rw", 10, [RngState(0, 0)],
                             x0=[0.5, 2.0, 0.1])

    @pytest.mark.parametrize("bad", [dict(x0=[10.0, 2.0]), dict(steps=[0.1, 0.1]),
                                     dict(steps=[0.1, 0.0, 0.1]),
                                     dict(steps=[0.1, math.nan, 0.1])])
    def test_malformed_x0_or_steps_is_domain_error(self, bad):
        spec = _gev_spec()
        with pytest.raises(DomainError):
            sample_posterior(spec, default_priors(spec), "rw", 10, [RngState(0, 0)], **bad)

    def test_unknown_kind_is_domain_error(self):
        spec = _gev_spec()
        with pytest.raises(DomainError, match="unknown sampler"):
            sample_posterior(spec, default_priors(spec), "nuts", 10, [RngState(0, 0)])


class TestTemperedScales:
    """The default steps scale by sqrt(T): in u the tempered posterior is close to N(0, T I)."""

    @pytest.mark.parametrize("kind", ["rw", "mala", "hmc"])
    def test_acceptance_holds_across_temperatures(self, kind):
        # GEV (0,0,0) at n = 100 from (10, 2, 0.1): the model, size and truth of the
        # sampler input in bench/workloads.py
        x = quantile_values(EvdFamily.GEV, RngState(7100, 3).uniforms(100), 10.0, 2.0, 0.1)
        spec = ModelSpec(data=x, covariates=None, config=(0, 0, 0), family=EvdFamily.GEV)
        priors = default_priors(spec)

        def run(temp):
            chains, _, _ = sample_posterior(spec, priors, kind, 500,
                                            [RngState(9, k) for k in range(4)], T=temp)
            return np.mean([c.acceptance_rate for c in chains]), chains[0].step_scale

        (rate, eps), *tempered = (run(temp) for temp in (1.0, 0.5, 4.0))
        for t_rate, _ in tempered:
            assert abs(t_rate - rate) <= 0.15, (rate, t_rate)
        if kind == "hmc":
            assert tempered[1][1] == 2.0 * eps  # sqrt(4) times, exactly

    def test_given_eps_and_the_leapfrog_count_do_not_follow_t(self):
        spec = _gev_spec()
        priors = default_priors(spec)

        def run(temp, **given):
            chains, _, n_leapfrog = sample_posterior(spec, priors, "hmc", 5, [RngState(3, 0)],
                                                     T=temp, **given)
            return chains[0].step_scale, n_leapfrog

        (eps, n_leapfrog), (t_eps, t_leapfrog) = run(1.0), run(4.0)
        assert t_eps == 2.0 * eps and t_leapfrog == n_leapfrog
        assert run(4.0, eps=0.3) == (0.3, n_leapfrog)


class TestSeededTraces:
    """sample_posterior's last trace row, pinned bit for bit.

    rw and hmc were pinned before mala's burn-in adaptation was deleted, and
    did not move; mala is pinned at its fixed step MALA_STEP_CONST k**(-1/6).
    The T = 2.5 rows were pinned before T moved from the kernels to one
    tempered target, so they show that tempering once left every bit alone.
    All six were pinned again when the fit's covariance, which gives the
    whitening factor F, became the inverse of the exact Hessian: they moved
    by at most 8e-8 relative.
    """

    PINNED = {
        (1.0, "rw"): [9.983362107546094, 0.6811862711285029, 2.0335675023216657,
                      0.14897859095392407],
        (1.0, "mala"): [10.031810484923566, 0.5126068995421065, 2.2024881888765533,
                        0.19182675475406816],
        (1.0, "hmc"): [10.048271156549777, 0.8067458275115751, 1.83797907734532,
                       0.06128446888985595],
        (2.5, "rw"): [9.969114278029785, 0.3216142254191912, 2.1924761385827978,
                      0.11113287639928385],
        (2.5, "mala"): [10.017716319936156, 0.41890650907665644, 2.1899398576538447,
                        0.2244248699791329],
        (2.5, "hmc"): [10.124228678254154, 0.8600076675403829, 1.775839740402347,
                       0.07031989352821469],
    }

    @pytest.mark.parametrize("temp", [1.0, 2.5])
    @pytest.mark.parametrize("kind", ["rw", "mala", "hmc"])
    def test_last_row_pinned(self, kind, temp):
        t = np.linspace(-1.0, 1.0, 80)[:, None]
        shell = ModelSpec(data=np.zeros(80), covariates=t, config=(1, 0, 0),
                          family=EvdFamily.GEV)
        x = simulate_from(shell, np.array([10.0, 1.0, 2.0, 0.1]), 21)
        spec = ModelSpec(data=x, covariates=t, config=(1, 0, 0), family=EvdFamily.GEV)
        chains, _, _ = sample_posterior(spec, default_priors(spec), kind,
                                        15 if kind == "hmc" else 40,
                                        [RngState(5, k) for k in range(2)], T=temp)
        assert chains[-1].samples[-1].tolist() == self.PINNED[temp, kind]


class TestSimulationBasedCalibration:
    """Ranks of prior draws among their posterior draws are uniform (Talts et al. 2018).

    Each replication draws theta from fixed priors, simulates a series of
    n = 50 from it, runs sample_posterior (2 chains of 400 draws after 200
    burn-in, thinned to 200) and ranks theta among the draws, on each free
    coordinate. The series is a stationary GEV (rw or mala), or a GPD (0,1,0)
    on a centred covariate with its threshold held at the pin 0 (rw).
    Two statistics per coordinate: chi-squared over 10 rank bins, and 12 times
    the variance of the normalised ranks, which a too wide or too narrow
    posterior moves away from 1 before the bins notice. The bounds come from
    the nominal level alone: family-wise 0.01, split over the 6 statistics of
    the 3 free coordinates.
    """

    PRIORS = PriorSet([PriorComponent("normal", 10.0, 1.0),
                       PriorComponent("normal", 2.0, 0.25),
                       PriorComponent("normal", 0.1, 0.1)])
    # GPD (0,1,0): the threshold (at its pin whatever its prior), the log-scale
    # intercept and slope, and the shape
    GPD_PRIORS = PriorSet([PriorComponent("normal", 0.0, 1.0),
                           PriorComponent("normal", 0.7, 0.2),
                           PriorComponent("normal", 0.3, 0.2),
                           PriorComponent("normal", 0.1, 0.1)])
    GPD_COVARIATE = np.linspace(-1.0, 1.0, 50)[:, None]
    REPS, DRAWS, BINS, LEVEL = 100, 200, 10, 0.01 / 6

    def _gev(self, rng):
        theta = np.array([c.a + c.b * rng.normal() for c in self.PRIORS.components])
        x = quantile_values(EvdFamily.GEV, rng.uniforms(50), *theta)
        spec = ModelSpec(data=x, covariates=None, config=(0, 0, 0), family=EvdFamily.GEV)
        return spec, self.PRIORS, theta

    def _gpd(self, rng):
        theta = np.array([0.0] + [c.a + c.b * rng.normal()
                                  for c in self.GPD_PRIORS.components[1:]])
        shell = ModelSpec(data=np.zeros(50), covariates=self.GPD_COVARIATE, config=(0, 1, 0),
                          family=EvdFamily.GPD)
        x = quantile_values(EvdFamily.GPD, rng.uniforms(50), *realize(shell, theta))
        spec = ModelSpec(data=x, covariates=self.GPD_COVARIATE, config=(0, 1, 0),
                         family=EvdFamily.GPD)
        return spec, self.GPD_PRIORS, theta

    def _p_values(self, kind, temp, model=None):
        ranks = []
        for rep in range(self.REPS):
            spec, priors, theta = (model or self._gev)(RngState(2018, rep))
            chains, _, _ = sample_posterior(spec, priors, kind, 100,
                                            [RngState(rep, k) for k in range(2)], T=temp,
                                            burn_in=200, thin=4)
            ranks.append((np.vstack([c.samples for c in chains]) < theta).sum(axis=0)
                         [~infer_bounds(spec).pinned])
        ranks = np.array(ranks)
        # DRAWS + 1 possible ranks in BINS bins of 20 or 21 ranks each
        per_bin = np.bincount(np.arange(self.DRAWS + 1) * self.BINS // (self.DRAWS + 1))
        expected = self.REPS * per_bin / (self.DRAWS + 1)
        # 12 var of U(0, 1) draws: mean 1 (1 + 2 / DRAWS on the rank grid), and sd
        # 12 sqrt((mu4 - sigma^4) / R) with mu4 = 1/80 and sigma^4 = 1/144
        var_sd = 12.0 * math.sqrt((1.0 / 80.0 - 1.0 / 144.0) / self.REPS)
        p = []
        for r in ranks.T:
            observed = np.bincount(r * self.BINS // (self.DRAWS + 1), minlength=self.BINS)
            p.append(chi2_sf(float(((observed - expected) ** 2 / expected).sum()), self.BINS - 1))
            var12 = 12.0 * np.var(r / self.DRAWS, ddof=1)
            p.append(math.erfc(abs(var12 - (1.0 + 2.0 / self.DRAWS)) / var_sd / math.sqrt(2.0)))
        return np.array(p)

    @pytest.mark.parametrize("kind", ["rw", "mala"])
    def test_ranks_are_uniform(self, kind):
        p = self._p_values(kind, 1.0)
        assert p.min() >= self.LEVEL, p

    def test_ranks_are_uniform_at_a_pinned_threshold(self):
        p = self._p_values("rw", 1.0, self._gpd)
        assert p.min() >= self.LEVEL, p

    def test_tempered_target_fails(self):
        # T = 2 doubles the posterior variance: the prior draw sits mid-sample
        p = self._p_values("rw", 2.0)
        assert p.min() < self.LEVEL, p
