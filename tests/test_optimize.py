"""Bounds inference and the projected-Newton MLE fit."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from extremefit import (
    Bounds,
    DomainError,
    EvdFamily,
    ModelSpec,
    ParamTriple,
    RngState,
    default_priors,
    fit_mle,
    infer_bounds,
    neg_log_likelihood,
    realize,
    return_levels,
    sample,
)
from extremefit import model, optimize
from extremefit.distributions import quantile_values
from extremefit.optimize import bounds_from_json, bounds_to_json, default_start, load_bounds

GEV = EvdFamily.GEV


def _gev_spec(n=2000, seed=404, loc=10.0, scale=5.0, shape=0.1, config=(0, 0, 0), cov=None):
    data = sample(GEV, ParamTriple(loc, scale, shape), RngState(seed, 0), size=n)
    return ModelSpec(data=data, covariates=cov, config=config, family=GEV)


CENTRING_CASES = [
    pytest.param(family, config, lo, 100, id=f"{family.name}-{config}-{lo:g}")
    for family in (GEV, EvdFamily.GPD)
    for config in ((1, 0, 0), (0, 1, 0), (1, 1, 0), (1, 1, 1))
    for lo in (1.0, 5.0, 10.0, 100.0)
] + [pytest.param(GEV, (0, 1, 0), 1e4, 150, id="GEV-(0, 1, 0)-1e4")]


class TestInferBounds:
    def test_shape_interval_fixed(self):
        b = infer_bounds(_gev_spec(n=300))
        assert b.lo[-1] == -0.5 and b.hi[-1] == 0.5

    def test_scale_lower_bound_positive(self):
        b = infer_bounds(_gev_spec(n=300))
        assert b.lo[1] > 0.0

    def test_standardized_covariate_slope_box(self):
        n = 300
        rng = np.random.default_rng(1)
        col = rng.normal(size=n)
        col = (col - col.mean()) / col.std()
        spec = _gev_spec(n=n, config=(1, 0, 0), cov=col.reshape(-1, 1))
        b = infer_bounds(spec)
        assert b.lo[1] == pytest.approx(-10.0, rel=1e-9)
        assert b.hi[1] == pytest.approx(10.0, rel=1e-9)

    def test_location_window(self):
        spec = _gev_spec(n=2000)
        b = infer_bounds(spec)
        assert b.lo[0] < 10.0 < b.hi[0]

    @pytest.mark.parametrize("config, theta, seed", [
        ((1, 0, 0), [-18.0, 2e-8, 2.0, 0.1], 11),  # a location trend over 1.4e9-1.75e9 s
        ((0, 1, 0), [10.0, -7.0, 5e-9, 0.1], 12),  # a log-scale trend over the same span
    ])
    def test_uncentred_covariate_fits_as_centred(self, config, theta, seed):
        t = np.linspace(1.4e9, 1.75e9, 200)
        shell = ModelSpec(data=np.zeros(t.size), covariates=t.reshape(-1, 1), config=config,
                          family=GEV)
        data = quantile_values(GEV, RngState(seed, 0).uniforms(t.size),
                               *realize(shell, np.array(theta)))
        raw, centred = (ModelSpec(data=data, covariates=cov.reshape(-1, 1), config=config,
                                  family=GEV) for cov in (t, t - t.mean()))
        fits = [fit_mle(spec) for spec in (raw, centred)]
        assert all(f.converged for f in fits)
        assert fits[0].nll_min == pytest.approx(fits[1].nll_min, abs=1e-6)
        b = infer_bounds(raw)
        intercept = 0 if config[0] else 1
        assert b.lo[intercept] < fits[0].theta_hat[intercept] < b.hi[intercept]
        assert np.all((b.lo < fits[0].theta_hat) & (fits[0].theta_hat < b.hi))

    @pytest.mark.parametrize("family, config, lo, n", CENTRING_CASES)
    def test_centring_a_covariate_moves_only_the_intercepts(self, family, config, lo, n):
        # t in [lo, lo + 1]: |mean| / std is about 3.5 (lo + 0.5), so 350 at lo = 100,
        # beyond calendar years (1950-2020: 97). Fits are compared where the centred
        # one converges inside its box: at a bound the two boxes differ by design.
        t = np.linspace(lo, lo + 1.0, n)
        a, b, c = config
        theta = [10.0 if family is GEV else 0.0] + [1.0 if family is GEV else 0.0] * a
        theta += [0.5, *[0.2] * b] if b else [math.exp(0.5)]
        theta += [0.1, *[0.3] * c]
        slopes = [i for i in range(len(theta)) if i not in (0, a + 1, a + b + 2)]
        compared = 0
        for seed in range(6):
            shell = ModelSpec(data=np.zeros(n), covariates=(t - t.mean())[:, None],
                              config=config, family=family)
            x = quantile_values(family, RngState(seed, 0).uniforms(n),
                                *realize(shell, np.array(theta)))
            fits = []
            for cov in (t - t.mean(), t):
                spec = ModelSpec(data=x, covariates=cov[:, None], config=config, family=family)
                box, fit = infer_bounds(spec), fit_mle(spec)
                at_bound = ~box.pinned & ((fit.theta_hat <= box.lo) | (fit.theta_hat >= box.hi))
                fits.append((fit, fit.converged and not at_bound.any()))
            (fc, centred_ok), (fr, raw_ok) = fits
            if not centred_ok:
                continue
            compared += 1
            assert raw_ok and fr.nll_min == pytest.approx(fc.nll_min, abs=1e-6)
            se = fc.std_errors[slopes]
            assert np.all(np.abs(fr.theta_hat[slopes] - fc.theta_hat[slopes]) <= 1e-4 * se)
            np.testing.assert_allclose(fr.std_errors[slopes], se, rtol=1e-3)
        assert compared >= 4

    @settings(max_examples=40, deadline=None)
    @given(family=st.sampled_from([GEV, EvdFamily.GPD]), shift=st.floats(-1e6, 1e6),
           log_unit=st.floats(-9.0, 9.0), seed=st.integers(0, 10_000))
    @example(family=GEV, shift=1e6, log_unit=0.0, seed=5)
    @example(family=GEV, shift=0.0, log_unit=-9.0, seed=5)
    def test_affine_map_of_the_data_maps_the_fit(self, family, shift, log_unit, seed):
        # x -> unit * (shift + x) for the stationary GEV, x -> unit * x for the
        # GPD, whose threshold infer_bounds pins at 0
        unit = 10.0 ** log_unit
        shift = shift if family is GEV else 0.0
        x = _numpy_gev_series(seed=seed) if family is GEV else \
            quantile_values(family, np.random.default_rng(seed).random(100), 0.0, 2.0, 0.1)
        specs = [ModelSpec(data=d, covariates=None, config=(0, 0, 0), family=family)
                 for d in (x, unit * (shift + x))]
        fits = [fit_mle(spec) for spec in specs]
        assert all(f.converged and f.std_errors is not None for f in fits)
        (theta0, se0), (theta1, se1) = ((f.theta_hat, f.std_errors) for f in fits)
        units = np.array([unit, unit, 1.0])
        mapped = theta0 * units + [unit * shift, 0.0, 0.0]
        assert np.all(np.abs(theta1 - mapped) <= 1e-6 * se1)
        np.testing.assert_allclose(se1, se0 * units, rtol=1e-6)
        level0, level1 = (return_levels(spec, f.theta_hat, 50.0)[0]
                          for spec, f in zip(specs, fits))
        assert abs(level1 - unit * (shift + level0)) <= 1e-6 * se1[1]

    def test_gpd_threshold_pinned_at_zero(self):
        cov = np.linspace(-1.0, 1.0, 200).reshape(-1, 1)
        spec = ModelSpec(data=np.linspace(0.1, 5.0, 200), covariates=cov, config=(1, 0, 0),
                         family=EvdFamily.GPD)
        b = infer_bounds(spec)
        assert b.pinned.tolist() == [True, True, False, False]
        assert b.lo[:2].tolist() == b.hi[:2].tolist() == [0.0, 0.0]
        assert default_start(spec)[:2].tolist() == [0.0, 0.0]


class TestFitMle:
    def test_stationary_recovery(self):
        spec = _gev_spec()
        fit = fit_mle(spec)
        truth = np.array([10.0, 5.0, 0.1])
        assert fit.converged
        assert fit.std_errors is not None
        assert np.all(np.abs(fit.theta_hat - truth) <= 3.0 * fit.std_errors)
        assert fit.nll_min <= neg_log_likelihood(spec, truth)

    def test_zero_covariate_matches_stationary_fit(self):
        spec0 = _gev_spec(n=500, seed=405)
        spec1 = ModelSpec(data=spec0.data, covariates=np.zeros((500, 1)),
                          config=(1, 0, 0), family=GEV)
        f0 = fit_mle(spec0)
        f1 = fit_mle(spec1)
        assert f1.converged
        assert abs(f1.nll_min - f0.nll_min) < 1e-6

    def test_deterministic(self):
        spec = _gev_spec(n=400, seed=406)
        a = fit_mle(spec)
        b = fit_mle(spec)
        assert np.array_equal(a.theta_hat, b.theta_hat)
        assert a.n_evals == b.n_evals

    def test_within_bounds(self):
        spec = _gev_spec(n=400, seed=407)
        bounds = infer_bounds(spec)
        fit = fit_mle(spec, bounds=bounds)
        assert bounds.contains(fit.theta_hat)

    def test_start_on_the_shape_bound(self):
        # the start's shape sits exactly on the box's upper end, with a scale
        # wide enough that every observation stays inside the support
        spec = _gev_spec(n=400, seed=409)
        bounds = infer_bounds(spec)
        start = default_start(spec) * [1.0, 3.0, 1.0]
        start[2] = bounds.hi[2]
        assert math.isfinite(neg_log_likelihood(spec, start))
        fit = fit_mle(spec, start, bounds)
        assert fit.converged
        assert fit.nll_min == pytest.approx(fit_mle(spec, bounds=bounds).nll_min, abs=1e-8)

    def test_bad_bounds_length(self):
        spec = _gev_spec(n=400, seed=408)
        with pytest.raises(DomainError):
            fit_mle(spec, bounds=Bounds([0.0], [1.0]))


class TestStartInSupport:
    @staticmethod
    def _lmoment_point(spec):
        est = spec.lmoment_estimate
        return np.array([est.loc, est.scale, min(max(est.shape, -0.45), 0.45)])

    def test_feasible_start_is_kept_exactly(self):
        spec = _gev_spec(n=300, seed=411)
        start = default_start(spec)
        assert np.array_equal(start, self._lmoment_point(spec))
        assert np.array_equal(fit_mle(spec, start, max_iter=0).theta_hat, start)

    def test_gev_trend_series(self):
        # the stationary L-moment start puts the lower endpoint above min(x)
        rng = np.random.default_rng(2)
        rng.random(200)
        u = rng.random(200)
        t = np.linspace(1.4e9, 1.75e9, 200)
        x = 10.0 + np.exp(-7.0 + 5e-9 * t) * ((-np.log(u)) ** -0.1 - 1.0) / 0.1
        fits = []
        for cov in (t - t.mean(), t):
            spec = ModelSpec(data=x, covariates=cov.reshape(-1, 1), config=(0, 1, 0),
                             family=GEV)
            est = spec.lmoment_estimate
            raw = np.array([est.loc, math.log(est.scale), 0.0, est.shape])
            assert neg_log_likelihood(spec, raw) == math.inf
            assert math.isfinite(neg_log_likelihood(spec, default_start(spec)))
            fits.append(fit_mle(spec))
        assert all(f.converged for f in fits)
        assert fits[0].nll_min == pytest.approx(491.4485, abs=1e-4)
        assert fits[0].nll_min == pytest.approx(fits[1].nll_min, abs=1e-6)

    def test_gpd_series_above_the_upper_endpoint(self):
        u = np.random.default_rng(14).random(50)
        x = ((1.0 - u) ** 0.2 - 1.0) / -0.2
        spec = ModelSpec(data=x, covariates=None, config=(0, 0, 0), family=EvdFamily.GPD)
        assert neg_log_likelihood(spec, self._lmoment_point(spec) * [0, 1, 1]) == math.inf
        start = default_start(spec)
        assert math.isfinite(neg_log_likelihood(spec, start))
        fit = fit_mle(spec)
        assert fit.converged
        assert fit.nll_min <= neg_log_likelihood(spec, start)


class TestBoundsJson:
    def test_round_trip(self, tmp_path):
        b = Bounds([-1.0, 0.0], [1.0, 10.0])
        path = tmp_path / "bounds.json"
        import json

        path.write_text(json.dumps(bounds_to_json(b)))
        loaded = load_bounds(path)
        assert np.array_equal(loaded.lo, b.lo)
        assert np.array_equal(loaded.hi, b.hi)

    def test_null_means_unbounded(self):
        b = bounds_from_json({"lo": [None, 0.0], "hi": [1.0, None]})
        assert b.lo[0] == -math.inf
        assert b.hi[1] == math.inf

    def test_malformed(self):
        with pytest.raises(DomainError):
            bounds_from_json({"lo": [0.0]})
        with pytest.raises(DomainError):
            bounds_from_json({"lo": [1.0], "hi": [0.0]})

    @pytest.mark.parametrize("obj", [
        {"lo": [0, "x", 0], "hi": [1, 1, 1]},
        {"lo": 5, "hi": [1, 1, 1]},
        {"lo": "012", "hi": [9, 9, 9]},
        {"lo": [0, 0, 0], "hi": [1, [1], 1]},
        {"lo": [0, True, 0], "hi": [1, 1, 1]},
        {"lo": [0, 0, 0], "hi": [1, 10**400, 1]},
        [[0, 0, 0], [1, 1, 1]],
    ])
    def test_entries_other_than_numbers_or_null(self, obj):
        with pytest.raises(DomainError):
            bounds_from_json(obj)

    @pytest.mark.parametrize("pin", [math.inf, -math.inf])
    def test_a_pin_must_be_finite(self, pin):
        with pytest.raises(DomainError, match="pinned"):
            Bounds([0.0, pin], [1.0, pin])
        with pytest.raises(DomainError, match="pinned"):
            bounds_from_json({"lo": [0.0, pin], "hi": [1.0, pin]})


def _numpy_gev_series(n=100, seed=5):
    """GEV(10, 2, 0.1) block maxima by inverse CDF from numpy's default_rng(seed)."""
    u = np.random.default_rng(seed).random(n)
    return 10.0 + 2.0 * np.expm1(-0.1 * np.log(-np.log(u))) / 0.1


# fit_mle's default tol, its stopping rule: Newton may end this far above a
# simplex that scipy runs to xatol = fatol = 1e-10. Measured: 2e-11 above it on
# the pinned-threshold GPD cases, at most 4.5e-9 over 300 not_above_simplex draws.
_ORACLE_MARGIN = 1e-8


def _simplex_min(f, x0, lo, hi):
    """The minimum of f that scipy's bounded Nelder-Mead reaches from x0."""
    optimize = pytest.importorskip("scipy.optimize")
    return optimize.minimize(f, x0, method="Nelder-Mead", bounds=list(zip(lo, hi)),
                             options={"xatol": 1e-10, "fatol": 1e-10}).fun


def _ramp_spec(family, config, theta, n, seed):
    """Inverse-CDF draws under theta with a centred covariate ramp."""
    cov = np.linspace(-1.0, 1.0, n).reshape(-1, 1)
    shell = ModelSpec(data=np.zeros(n), covariates=cov, config=config, family=family)
    data = quantile_values(family, RngState(seed, 0).uniforms(n), *realize(shell, theta))
    return ModelSpec(data=data, covariates=cov, config=config, family=family)


class TestNewton:
    @staticmethod
    def _count_passes(monkeypatch):
        """fit_mle's kernel passes in order: "hess" (with gradient and Hessian) or "nll"."""
        passes = []
        real_nll, real_terms = optimize.neg_log_likelihood, optimize._nll_terms
        monkeypatch.setattr(optimize, "neg_log_likelihood",
                            lambda *a: passes.append("nll") or real_nll(*a))
        monkeypatch.setattr(optimize, "_nll_terms",
                            lambda *a, **k: passes.append("hess") or real_terms(*a, **k))
        return passes

    def test_one_kernel_pass_per_iteration(self, monkeypatch):
        # every full step of a regular fit is taken, and its pass carries the
        # nll, the gradient and the Hessian: no nll alone, not even at the start
        passes = self._count_passes(monkeypatch)
        fit = fit_mle(_gev_spec(n=400, seed=405))
        assert fit.converged
        assert "nll" not in passes and len(passes) >= 2
        assert fit.n_evals == len(passes)

    @pytest.mark.parametrize("n", [150, 8193])
    def test_rejected_full_step_costs_one_pass(self, monkeypatch, n):
        # the steep trend's first full step overshoots: its one pass is rejected
        # and the halvings that follow evaluate the nll alone
        passes = self._count_passes(monkeypatch)
        fit = fit_mle(_ramp_spec(GEV, (1, 0, 0), np.array([10.0, 2.0, 2.0, 0.1]), n, 900))
        assert fit.converged
        assert passes[:3] == ["hess", "hess", "nll"]
        assert fit.n_evals == len(passes)

    def test_std_errors_shift_equivariant(self):
        x = _numpy_gev_series()
        fits = [fit_mle(ModelSpec(data=x + shift, covariates=None, config=(0, 0, 0),
                                  family=GEV)) for shift in (0.0, 1e6)]
        assert all(f.converged and f.std_errors is not None for f in fits)
        np.testing.assert_allclose(fits[1].std_errors, fits[0].std_errors, rtol=1e-6)
        np.testing.assert_allclose(fits[1].theta_hat - [1e6, 0.0, 0.0], fits[0].theta_hat,
                                   rtol=0.0, atol=1e-6 * fits[0].std_errors.min())

    @pytest.mark.parametrize("config, theta", [
        ((0, 0, 0), [0.0, 1.0, 0.1]),
        ((0, 1, 0), [0.0, 0.0, 0.3, 0.1]),
        ((0, 1, 1), [0.0, 0.0, 0.3, 0.1, 0.05]),
    ])
    def test_pinned_threshold_not_above_simplex(self, config, theta):
        theta = np.array(theta)
        spec = _ramp_spec(EvdFamily.GPD, config, theta, 150, 902)
        bounds, start = infer_bounds(spec), default_start(spec)
        fit = fit_mle(spec, start, bounds)
        free = ~bounds.pinned

        def on_free(u):
            full = start.copy()
            full[free] = u
            return full

        simplex = _simplex_min(lambda u: neg_log_likelihood(spec, on_free(u)), start[free],
                               bounds.lo[free], bounds.hi[free])
        assert fit.converged
        assert fit.theta_hat[0] == 0.0 and fit.std_errors[0] == 0.0
        assert fit.nll_min <= simplex + _ORACLE_MARGIN
        assert fit.nll_min <= neg_log_likelihood(spec, theta)
        assert np.all(np.isfinite(fit.std_errors)) and np.all(fit.std_errors[free] > 0)

    def test_slope_of_a_large_covariate(self):
        # seconds over about 11 years: std 1e8, so the slope box is +-1e-7
        n = 200
        seconds = np.linspace(-1.75e8, 1.75e8, n).reshape(-1, 1)
        theta = np.array([10.0, 2.0 / 1e8, 2.0, 0.1])
        data = _ramp_spec(GEV, (1, 0, 0), theta * [1.0, 1.75e8, 1.0, 1.0], n, 903).data
        fits = [fit_mle(ModelSpec(data=data, covariates=cov, config=(1, 0, 0), family=GEV))
                for cov in (seconds, seconds / 1.75e8)]
        assert all(f.converged and f.std_errors is not None for f in fits)
        slope, se = fits[0].theta_hat[1], fits[0].std_errors[1]
        assert abs(slope - theta[1]) <= 3.0 * se < theta[1]
        assert slope * 1.75e8 == pytest.approx(fits[1].theta_hat[1], rel=1e-6)
        assert fits[0].nll_min == pytest.approx(fits[1].nll_min, abs=1e-8)

    def test_fit_does_not_depend_on_units(self):
        x = _numpy_gev_series()
        fits = [fit_mle(ModelSpec(data=x * unit, covariates=None, config=(0, 0, 0),
                                  family=GEV)) for unit in (1.0, 1e-9)]
        assert all(f.converged and f.std_errors is not None for f in fits)
        units = np.array([1e-9, 1e-9, 1.0])
        np.testing.assert_allclose(fits[1].theta_hat, fits[0].theta_hat * units, rtol=1e-6)
        np.testing.assert_allclose(fits[1].std_errors, fits[0].std_errors * units, rtol=1e-5)

    @settings(max_examples=25, deadline=None)
    @given(config=st.sampled_from([(0, 0, 0), (1, 0, 0), (1, 1, 0)]),
           n=st.integers(50, 150), seed=st.integers(0, 10_000))
    def test_not_above_simplex(self, config, n, seed):
        a, b, _ = config
        theta = np.array([10.0] + [1.0] * a + ([2.0] if b == 0 else [math.log(2.0), 0.3])
                         + [0.1])
        spec = _ramp_spec(GEV, config, theta, n, seed)
        bounds, start = infer_bounds(spec), default_start(spec)
        fit = fit_mle(spec, start, bounds)
        simplex = _simplex_min(lambda t: neg_log_likelihood(spec, t), start, bounds.lo,
                               bounds.hi)
        assert fit.converged
        assert fit.nll_min <= simplex + _ORACLE_MARGIN

    def test_max_iter_caps_the_fit(self):
        spec = _gev_spec(n=400, seed=406)
        full = fit_mle(spec)
        assert full.converged
        stopped = fit_mle(spec, max_iter=0)
        assert not stopped.converged
        assert stopped.n_evals == 1  # the start's pass: nll, gradient and Hessian
        assert stopped.nll_min >= full.nll_min

    def test_one_lmoment_fit_per_spec(self, monkeypatch):
        calls = []
        real = model.stationary_estimate
        monkeypatch.setattr(model, "stationary_estimate",
                            lambda *args: calls.append(args) or real(*args))
        spec = _gev_spec(n=300, seed=409, config=(1, 0, 0),
                         cov=np.linspace(0.0, 1.0, 300).reshape(-1, 1))
        fit_mle(spec)
        for derive in (infer_bounds, default_start, default_priors):
            derive(spec)
        assert len(calls) == 1


class TestTermination:
    """FitResult.termination names which of Newton's four exits a fit took."""

    def test_converged(self):
        fit = fit_mle(_gev_spec(n=400, seed=406))
        assert fit.converged and fit.termination == "converged"

    def test_max_iter(self):
        fit = fit_mle(_gev_spec(n=400, seed=406), max_iter=0)
        assert not fit.converged and fit.termination == "max_iter"

    def test_free_gpd_threshold_stops_at_the_support_edge(self):
        # the likelihood rises until the threshold meets min(data), on the
        # support's edge, where no Newton step lowers it further
        data = sample(EvdFamily.GPD, ParamTriple(0, 2, 0.2), RngState(0, 0), size=60)
        spec = ModelSpec(data=data, covariates=None, config=(0, 0, 0), family=EvdFamily.GPD)
        box = infer_bounds(spec)
        lo, hi = box.lo.copy(), box.hi.copy()
        lo[0], hi[0] = -1.0, 1.0
        fit = fit_mle(spec, bounds=Bounds(lo, hi))
        assert not fit.converged and fit.termination == "no_descent_step"
        assert 0.0 <= data.min() - fit.theta_hat[0] <= 1e-15
        assert fit.std_errors is None

    def test_hessian_not_finite(self, monkeypatch):
        # the exact Hessian is NaN only where the gradient is, which no fit input
        # reaches, so the first full step's end is given a NaN Hessian here
        passes = []

        def second_order(spec, theta):
            nll, g, hess = real(spec, theta)
            passes.append(len(passes))
            return nll, g, hess if len(passes) == 1 else np.full_like(hess, np.nan)

        real = optimize._second_order
        monkeypatch.setattr(optimize, "_second_order", second_order)
        fit = fit_mle(_gev_spec(n=400, seed=406))
        assert not fit.converged and fit.termination == "hessian_not_finite"
        assert fit.std_errors is None and fit.covariance is None
        assert len(passes) == 2 and fit.n_evals == 2

    def test_no_descent_step_at_an_optimum(self):
        spec = _gev_spec(n=60, seed=30)
        best = fit_mle(spec)
        fit = fit_mle(spec, x0=best.theta_hat, tol=0.0)
        assert not fit.converged and fit.termination == "no_descent_step"
        assert fit.nll_min <= best.nll_min

    def test_a_step_that_leaves_the_nll_unchanged_is_no_descent(self):
        # from the optimum with tol = 0 only rounding-level steps remain; accepting
        # those that leave the nll where it was ran all 100 iterations (8007 evaluations)
        spec = _gev_spec(n=400, seed=404)
        best = fit_mle(spec)
        fit = fit_mle(spec, x0=best.theta_hat, tol=0.0)
        assert fit.termination == "no_descent_step" and fit.n_evals < 100
        assert fit.nll_min <= best.nll_min


class TestCovariance:
    """FitResult.covariance: the inverse Hessian whose diagonal gives std_errors."""

    @pytest.mark.parametrize("family, config, theta", [
        (GEV, (1, 0, 0), [10.0, 2.0, 5.0, 0.1]),
        (EvdFamily.GPD, (0, 1, 0), [0.0, 0.0, 0.3, 0.1]),
    ])
    def test_symmetric_with_squared_std_errors_on_the_diagonal(self, family, config, theta):
        spec = _ramp_spec(family, config, np.array(theta), 150, 903)
        bounds = infer_bounds(spec)
        fit = fit_mle(spec, bounds=bounds)
        cov, pinned = fit.covariance, bounds.pinned
        assert fit.converged and cov.shape == (len(theta), len(theta))
        assert np.array_equal(cov, cov.T)
        np.testing.assert_allclose(np.diag(cov), fit.std_errors**2, rtol=1e-12)
        assert not cov[pinned].any() and not cov[:, pinned].any()
        assert np.linalg.eigvalsh(cov[np.ix_(~pinned, ~pinned)]).min() > 0

    def test_none_exactly_when_the_std_errors_are(self):
        data = sample(EvdFamily.GPD, ParamTriple(0, 2, 0.2), RngState(0, 0), size=60)
        spec = ModelSpec(data=data, covariates=None, config=(0, 0, 0), family=EvdFamily.GPD)
        box = infer_bounds(spec)
        lo, hi = box.lo.copy(), box.hi.copy()
        lo[0], hi[0] = -1.0, 1.0  # a free threshold: the fit stops at the support edge
        for fit in (fit_mle(spec), fit_mle(spec, bounds=Bounds(lo, hi))):
            assert (fit.covariance is None) == (fit.std_errors is None)
        assert fit.covariance is None
