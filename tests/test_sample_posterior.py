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
    sample,
    sample_posterior,
)
from extremefit.distributions import quantile_values


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


class TestSimulationBasedCalibration:
    """Ranks of prior draws among their posterior draws are uniform (Talts et al. 2018).

    Each replication draws theta from fixed priors, simulates a stationary
    GEV series of n = 50 from it, runs sample_posterior's rw (2 chains of 400
    draws after 200 burn-in, thinned to 200) and ranks theta among the draws.
    Two statistics per coordinate: chi-squared over 10 rank bins, and 12 times
    the variance of the normalised ranks, which a too wide or too narrow
    posterior moves away from 1 before the bins notice. The bounds come from
    the nominal level alone: family-wise 0.01, split over the 6 statistics.
    """

    PRIORS = PriorSet([PriorComponent("normal", 10.0, 1.0),
                       PriorComponent("normal", 2.0, 0.25),
                       PriorComponent("normal", 0.1, 0.1)])
    REPS, DRAWS, BINS, LEVEL = 100, 200, 10, 0.01 / 6

    def _p_values(self, temp):
        ranks = []
        for rep in range(self.REPS):
            rng = RngState(2018, rep)
            theta = np.array([c.a + c.b * rng.normal() for c in self.PRIORS.components])
            x = quantile_values(EvdFamily.GEV, rng.uniforms(50), *theta)
            spec = ModelSpec(data=x, covariates=None, config=(0, 0, 0), family=EvdFamily.GEV)
            chains, _, _ = sample_posterior(spec, self.PRIORS, "rw", 100,
                                            [RngState(rep, k) for k in range(2)], T=temp,
                                            burn_in=200, thin=4)
            ranks.append((np.vstack([c.samples for c in chains]) < theta).sum(axis=0))
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

    def test_rw_ranks_are_uniform(self):
        p = self._p_values(1.0)
        assert p.min() >= self.LEVEL, p

    def test_tempered_target_fails(self):
        # T = 2 doubles the posterior variance: the prior draw sits mid-sample
        p = self._p_values(2.0)
        assert p.min() < self.LEVEL, p
