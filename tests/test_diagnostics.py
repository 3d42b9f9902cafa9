"""R-hat, ESS, posterior summaries, DIC, LRT, and return levels."""

import math

import numpy as np
import pytest

from extremefit import (
    DomainError,
    EvdFamily,
    ModelSpec,
    ParamTriple,
    RngState,
    default_priors,
    dic,
    ess,
    fit_mle,
    lrt,
    mh_random_walk,
    neg_log_likelihood,
    posterior_summary,
    posterior_target,
    return_levels,
    sample,
    split_rhat,
)
from extremefit.diagnostics import DegenerateChainWarning, _warm_start
from _cases import simulate_from

GEV = EvdFamily.GEV
GPD = EvdFamily.GPD


def _ar1(n, phi, seed):
    g = np.random.default_rng(seed)
    x = np.empty(n)
    x[0] = g.standard_normal()
    innovations = g.standard_normal(n) * math.sqrt(1.0 - phi * phi)
    for i in range(1, n):
        x[i] = phi * x[i - 1] + innovations[i]
    return x


class TestSplitRhat:
    def test_iid_chains_near_one(self):
        g = np.random.default_rng(0)
        chains = [g.standard_normal(1000) for _ in range(2)]  # four half-chains
        assert split_rhat(chains, 0) == pytest.approx(1.0, abs=0.02)

    def test_displaced_chains_flagged(self):
        g = np.random.default_rng(1)
        chains = [g.standard_normal(1000), g.standard_normal(1000) + 10.0]
        assert split_rhat(chains, 0) > 1.2

    def test_constant_chain_degenerate(self):
        with pytest.warns(DegenerateChainWarning):
            assert split_rhat([np.ones(100)], 0) == math.inf

    def test_too_short(self):
        with pytest.raises(DomainError):
            split_rhat([np.array([1.0, 2.0, 3.0])], 0)

    def test_single_chain_split(self):
        # a strong drift within one chain shows up through the split
        x = np.concatenate([np.random.default_rng(2).standard_normal(500),
                            np.random.default_rng(3).standard_normal(500) + 10.0])
        assert split_rhat([x], 0) > 1.2


class TestEss:
    def test_iid_chain(self):
        x = np.random.default_rng(4).standard_normal(10_000)
        assert 8000 <= ess(x) <= 12_000

    def test_ar1_autocorrelation_time(self):
        n = 20_000
        x = _ar1(n, 0.9, seed=5)
        target = n / 19.0
        assert abs(ess(x) - target) / target < 0.30

    def test_constant_chain(self):
        with pytest.warns(DegenerateChainWarning):
            assert ess(np.ones(10)) == 0.0

    def test_too_short(self):
        with pytest.raises(DomainError):
            ess(np.ones(9))

    def test_never_exceeds_cap(self):
        for seed in range(10):
            x = np.random.default_rng(seed).standard_normal(2000)
            assert ess(x) <= 1.25 * 2000 + 1e-9


class TestPosteriorSummary:
    def _chains(self, seed=6):
        data = sample(GEV, ParamTriple(10, 5, 0), RngState(seed, 0), size=300)
        spec = ModelSpec(data=data, covariates=None, config=(0, 0, 0), family=GEV)
        target = posterior_target(spec, default_priors(spec))
        fit = fit_mle(spec)
        chains = [
            mh_random_walk(target, 800, fit.theta_hat, fit.std_errors,
                           rng=RngState(seed + 1, k))
            for k in range(2)
        ]
        return chains, spec

    def test_labels_and_fields(self):
        chains, spec = self._chains()
        rows = posterior_summary(chains, spec)
        assert [r.name for r in rows] == ["loc_intercept", "scale", "shape"]
        for r in rows:
            assert r.q05 <= r.q50 <= r.q95
            assert math.isfinite(r.rhat)
            assert 0 < r.ess <= 1.25 * 1600

    def test_quantile_interpolation(self):
        samples = np.column_stack([
            np.arange(1.0, 101.0),
            np.ones(100),
            np.zeros(100),
        ])

        class Synthetic:
            pass

        chain = Synthetic()
        chain.samples = samples
        spec = ModelSpec(data=np.ones(4), covariates=None, config=(0, 0, 0), family=GEV)
        rows = posterior_summary([chain], spec)
        assert rows[0].q50 == 50.5
        assert rows[0].q05 == pytest.approx(np.quantile(samples[:, 0], 0.05), rel=1e-12)

    def test_parameter_count_mismatch(self):
        class OneParam:
            samples = np.arange(1.0, 101.0).reshape(-1, 1)

        spec = ModelSpec(data=np.ones(4), covariates=None, config=(0, 0, 0), family=GEV)
        with pytest.raises(DomainError):
            posterior_summary([OneParam()], spec)

    def test_single_sample_chain(self):
        class Tiny:
            samples = np.array([[9.0, 4.0, 0.1]])

        spec = ModelSpec(data=np.ones(4), covariates=None, config=(0, 0, 0), family=GEV)
        rows = posterior_summary([Tiny()], spec)
        assert rows[0].mean == 9.0
        assert rows[0].sd == 0.0
        assert math.isnan(rows[0].rhat)  # too short for the estimator


class TestDic:
    def _spec(self, n=300, seed=7):
        data = sample(GEV, ParamTriple(10, 5, 0), RngState(seed, 0), size=n)
        return ModelSpec(data=data, covariates=None, config=(0, 0, 0), family=GEV)

    def test_identical_samples_give_zero_complexity(self):
        spec = self._spec()
        theta = np.array([10.0, 5.0, 0.05])

        class Frozen:
            samples = np.tile(theta, (200, 1))

        from extremefit import neg_log_likelihood

        expected = 2.0 * neg_log_likelihood(spec, theta)
        assert dic([Frozen()], spec) == pytest.approx(expected, rel=1e-12)

    def test_complexity_nonnegative_on_posterior(self):
        spec = self._spec()
        target = posterior_target(spec, default_priors(spec))
        fit = fit_mle(spec)
        chain = mh_random_walk(target, 2000, fit.theta_hat, fit.std_errors,
                               rng=RngState(8, 0))
        from extremefit import neg_log_likelihood

        theta_bar = chain.samples.mean(axis=0)
        value = dic([chain], spec)
        assert value >= 2.0 * neg_log_likelihood(spec, theta_bar) - 1e-6

    def test_requires_enough_samples(self):
        spec = self._spec()

        class Short:
            samples = np.tile([10.0, 5.0, 0.0], (50, 1))

        with pytest.raises(DomainError):
            dic([Short()], spec)

    def test_noise_covariate_changes_dic_little(self):
        n = 2000
        data = sample(GEV, ParamTriple(10, 5, 0.1), RngState(9, 0), size=n)
        noise = RngState(10, 0).normals(n).reshape(-1, 1)
        spec0 = ModelSpec(data=data, covariates=None, config=(0, 0, 0), family=GEV)
        spec1 = ModelSpec(data=data, covariates=noise, config=(1, 0, 0), family=GEV)

        def dic_for(spec):
            target = posterior_target(spec, default_priors(spec))
            fit = fit_mle(spec)
            chain = mh_random_walk(target, 4000, fit.theta_hat, fit.std_errors,
                                   rng=RngState(11, 0))
            return dic([chain], spec)

        assert abs(dic_for(spec1) - dic_for(spec0)) < 5.0


class TestLrt:
    def _nested_pair(self, n=400, slope=0.0, seed=12):
        cov = np.linspace(0, 1, n).reshape(-1, 1)
        shell = ModelSpec(data=np.zeros(n), covariates=cov, config=(1, 0, 0), family=GEV)
        data = simulate_from(shell, np.array([10.0, slope, 5.0, 0.1]), seed)
        null = ModelSpec(data=data, covariates=cov, config=(0, 0, 0), family=GEV)
        alt = ModelSpec(data=data, covariates=cov, config=(1, 0, 0), family=GEV)
        return null, alt

    def test_identical_specs_rejected(self):
        null, _ = self._nested_pair()
        with pytest.raises(DomainError):
            lrt(null, null)

    def test_non_nested_rejected(self):
        null, alt = self._nested_pair()
        swapped = ModelSpec(data=null.data, covariates=null.covariates,
                            config=(1, 0, 0), family=GEV)
        smaller = ModelSpec(data=null.data, covariates=null.covariates,
                            config=(0, 0, 0), family=GEV)
        with pytest.raises(DomainError):
            lrt(swapped, smaller)

    def test_different_data_rejected(self):
        null, _ = self._nested_pair(seed=12)
        _, alt = self._nested_pair(seed=13)
        with pytest.raises(DomainError):
            lrt(null, alt)

    def test_statistic_nonnegative_and_df(self):
        null, alt = self._nested_pair()
        res = lrt(null, alt)
        assert res.statistic >= 0.0
        assert res.df == 1
        assert 0.0 <= res.p_value <= 1.0
        assert res.nll_alt <= res.nll_null + 1e-9

    @pytest.mark.parametrize("seed, threshold", [(1, 5.0), (6, 5.0), (17, 0.0)])
    def test_gpd_scale_trend_not_above_null(self, seed, threshold):
        # threshold 5 data fitted with the threshold that infer_bounds pins at 0
        n = 300
        cov = np.linspace(0, 1, n).reshape(-1, 1)
        shell = ModelSpec(data=np.zeros(n), covariates=cov, config=(0, 1, 0), family=GPD)
        data = simulate_from(shell, np.array([threshold, 0.0, 0.3, 0.1]), seed)
        specs = [ModelSpec(data=data, covariates=cov, config=cfg, family=GPD)
                 for cfg in ((0, 0, 0), (0, 1, 0))]
        res = lrt(*specs)
        assert res.nll_alt <= res.nll_null

    def test_warm_start_is_the_null_model(self):
        null, _ = self._nested_pair()
        alt = ModelSpec(data=null.data, covariates=null.covariates, config=(1, 1, 0),
                        family=GEV)
        theta = fit_mle(null).theta_hat
        start = _warm_start(null, alt, theta)
        assert start.tolist() == [theta[0], 0.0, math.log(theta[1]), 0.0, theta[2]]
        assert neg_log_likelihood(alt, start) == pytest.approx(
            neg_log_likelihood(null, theta), rel=1e-12)
        res = lrt(null, alt)
        assert res.nll_alt <= res.nll_null

    def test_strong_trend_detected(self):
        # location rises by 3 scale units across the record
        null, alt = self._nested_pair(n=1000, slope=15.0, seed=14)
        res = lrt(null, alt)
        assert res.p_value < 0.01


class TestReturnLevels:
    def test_stationary_constant(self):
        spec = ModelSpec(data=np.zeros(5), covariates=None, config=(0, 0, 0), family=GEV)
        levels = return_levels(spec, [0.0, 1.0, 0.0], 100.0)
        assert levels.shape == (5,)
        assert np.all(levels == levels[0])

    def test_gumbel_centennial_level(self):
        spec = ModelSpec(data=np.zeros(3), covariates=None, config=(0, 0, 0), family=GEV)
        levels = return_levels(spec, [0.0, 1.0, 0.0], 100.0)
        assert levels[0] == pytest.approx(4.600149226776579, abs=1e-5)

    def test_monotone_in_return_period(self):
        spec = ModelSpec(data=np.zeros(4), covariates=None, config=(0, 0, 0), family=GEV)
        theta = [2.0, 1.5, 0.2]
        prev = return_levels(spec, theta, 2.0)
        for period in (5.0, 10.0, 50.0, 200.0):
            cur = return_levels(spec, theta, period)
            assert np.all(cur > prev)
            prev = cur

    def test_trend_gives_increasing_series(self):
        cov = np.linspace(0, 1, 50).reshape(-1, 1)
        spec = ModelSpec(data=np.zeros(50), covariates=cov, config=(1, 0, 0), family=GEV)
        levels = return_levels(spec, [0.0, 2.0, 1.0, 0.1], 50.0)
        assert np.all(np.diff(levels) > 0)

    def test_domain(self):
        spec = ModelSpec(data=np.zeros(4), covariates=None, config=(0, 0, 0), family=GEV)
        with pytest.raises(DomainError):
            return_levels(spec, [0.0, 1.0, 0.0], 1.0)
