"""Prior construction, evaluation, gradients, and JSON interchange."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extremefit import (
    DomainError,
    EvdFamily,
    ModelSpec,
    ParamTriple,
    PriorComponent,
    PriorSet,
    RngState,
    central_diff_grad,
    default_priors,
    grad_log_prior,
    log_prior,
    log_prior_and_grad,
    posterior_summary,
    posterior_target,
    sample,
    sample_posterior,
)
from extremefit.optimize import default_start
from extremefit.priors import load_priors, priors_from_json, priors_to_json
from _cases import ROW_KINDS, batch_rows, random_model_case


def _gumbel_spec(config=(0, 0, 0), cov=None, n=500):
    data = sample(EvdFamily.GEV, ParamTriple(10, 5, 0), RngState(101, 0), size=n)
    return ModelSpec(data=data, covariates=cov, config=config, family=EvdFamily.GEV)


class TestDefaultPriors:
    def test_location_centered_on_data(self):
        priors = default_priors(_gumbel_spec())
        loc = priors.components[0]
        assert loc.kind == "normal"
        assert abs(loc.a - 10.0) < 1.0

    def test_shape_prior(self):
        priors = default_priors(_gumbel_spec())
        shape = priors.components[-1]
        assert (shape.kind, shape.a, shape.b) == ("normal", 0.0, 0.25)

    def test_slope_count(self):
        n = 500
        cov = np.linspace(0, 1, n).reshape(-1, 1)
        base = default_priors(_gumbel_spec())
        with_slope = default_priors(_gumbel_spec(config=(1, 0, 0), cov=cov, n=n))
        assert len(with_slope) == len(base) + 1

    def test_standardized_covariate_slope(self):
        n = 500
        rng = np.random.default_rng(0)
        col = rng.normal(size=n)
        col = (col - col.mean()) / col.std()
        priors = default_priors(_gumbel_spec(config=(1, 0, 0), cov=col.reshape(-1, 1), n=n))
        slope = priors.components[1]
        assert slope.kind == "normal"
        assert slope.a == 0.0
        assert slope.b == pytest.approx(1.0, rel=1e-9)

    def test_log_scale_intercept_when_scale_varies(self):
        n = 500
        cov = np.linspace(0, 1, n).reshape(-1, 1)
        priors = default_priors(_gumbel_spec(config=(0, 1, 0), cov=cov, n=n))
        logscale = priors.components[1]
        assert logscale.kind == "normal"
        assert logscale.a == pytest.approx(math.log(5.0), abs=0.2)
        # 1 widened by |mean| / std of the covariate, 0.5 / 0.28925...
        assert logscale.b == 2.728590163137523

    def test_uncentred_covariate_leaves_the_trend_free(self):
        # the README's series: the slope's posterior on the raw year (1961-2020)
        # is the one on the centred year, and both sample without warnings
        years = np.arange(1961.0, 2021.0)
        data = sample(EvdFamily.GEV, ParamTriple(10 + 0.02 * (years - 1990), 5.0, 0.1),
                      RngState(1, 0), size=years.size)
        slopes = []
        for cov in (years, years - years.mean()):
            spec = ModelSpec(data=data, covariates=cov[:, None], config=(1, 0, 0),
                             family=EvdFamily.GEV)
            chains, _, _ = sample_posterior(spec, default_priors(spec), "mala", 2000,
                                            [RngState(1, k) for k in range(4)])
            rows = posterior_summary(chains, spec)
            assert max(r.rhat for r in rows) < 1.01, rows
            slopes.append(rows[1])
        raw, centred = slopes
        assert abs(raw.mean - centred.mean) < 0.5 * min(raw.sd, centred.sd), slopes

    def test_finite_at_initialization_point(self):
        for config, cov in (((0, 0, 0), None), ((1, 0, 0), "ramp"), ((1, 1, 1), "ramp")):
            n = 400
            c = np.linspace(0, 1, n).reshape(-1, 1) if cov else None
            spec = _gumbel_spec(config=config, cov=c, n=n)
            priors = default_priors(spec)
            assert math.isfinite(log_prior(priors, default_start(spec)))


class TestLogPrior:
    def test_standard_normal_at_zero(self):
        p = PriorSet((PriorComponent("normal", 0.0, 1.0),))
        assert log_prior(p, [0.0]) == pytest.approx(-0.9189385332046727, abs=1e-12)

    def test_uniform_outside(self):
        p = PriorSet((PriorComponent("uniform", 0.0, 2.0),))
        assert log_prior(p, [3.0]) == -math.inf

    def test_uniform_inside(self):
        p = PriorSet((PriorComponent("uniform", 0.0, 2.0),))
        assert log_prior(p, [1.0]) == pytest.approx(-math.log(2.0), abs=1e-12)

    def test_additivity(self):
        pa = PriorSet((PriorComponent("normal", 1.0, 2.0),))
        pb = PriorSet((PriorComponent("uniform", -1.0, 1.0),))
        both = PriorSet(pa.components + pb.components)
        assert log_prior(both, [0.3, 0.5]) == pytest.approx(
            log_prior(pa, [0.3]) + log_prior(pb, [0.5]), rel=1e-14
        )

    def test_length_mismatch(self):
        p = PriorSet((PriorComponent("normal", 0.0, 1.0),))
        with pytest.raises(DomainError):
            log_prior(p, [0.0, 1.0])


class TestGradLogPrior:
    def test_zero_at_mode(self):
        p = PriorSet((PriorComponent("normal", 0.0, 1.0),))
        assert grad_log_prior(p, [0.0])[0] == 0.0

    def test_normal_slope(self):
        p = PriorSet((PriorComponent("normal", 2.0, 0.5),))
        assert grad_log_prior(p, [3.0])[0] == pytest.approx(-4.0, abs=1e-12)

    def test_uniform_inside_zero(self):
        p = PriorSet((PriorComponent("uniform", -1.0, 1.0),))
        assert grad_log_prior(p, [0.5])[0] == 0.0

    def test_outside_support_raises(self):
        p = PriorSet((PriorComponent("uniform", -1.0, 1.0),))
        with pytest.raises(DomainError):
            grad_log_prior(p, [2.0])

    def test_matches_central_differences(self):
        p = PriorSet(
            (
                PriorComponent("normal", 1.0, 2.0),
                PriorComponent("normal", -3.0, 0.7),
                PriorComponent("uniform", -5.0, 5.0),
            )
        )
        theta = np.array([0.4, -2.5, 1.2])
        fd = central_diff_grad(lambda t: log_prior(p, t), theta)
        assert np.allclose(grad_log_prior(p, theta), fd, rtol=1e-6, atol=1e-6)


class TestPriorValidation:
    def test_bad_kind(self):
        with pytest.raises(DomainError):
            PriorComponent("cauchy", 0.0, 1.0)

    def test_bad_sd(self):
        with pytest.raises(DomainError):
            PriorComponent("normal", 0.0, 0.0)

    def test_bad_interval(self):
        with pytest.raises(DomainError):
            PriorComponent("uniform", 2.0, 1.0)

    @pytest.mark.parametrize("kind, a, b", [
        ("normal", math.nan, 1.0), ("normal", 0.0, math.inf), ("normal", -math.inf, 1.0),
        ("uniform", 0.0, math.nan), ("uniform", -math.inf, 0.0), ("uniform", -1e308, 1e308),
    ])
    def test_nonfinite_parameters(self, kind, a, b):
        with pytest.raises(DomainError):
            PriorComponent(kind, a, b)


class TestPriorJson:
    def test_round_trip(self, tmp_path):
        priors = PriorSet(
            (
                PriorComponent("normal", 10.0, 2.5),
                PriorComponent("uniform", -0.5, 0.5),
            )
        )
        path = tmp_path / "priors.json"
        path.write_text(json.dumps(priors_to_json(priors)))
        loaded = load_priors(path)
        assert loaded == priors

    def test_malformed(self):
        with pytest.raises(DomainError):
            priors_from_json([{"kind": "normal", "a": 0.0}])
        with pytest.raises(DomainError):
            priors_from_json({"kind": "normal"})

    @pytest.mark.parametrize("a", ["abc", 10**400, "1.5", None, True])
    def test_entry_that_is_not_a_float(self, a):
        with pytest.raises(DomainError, match="index 1"):
            priors_from_json([{"kind": "normal", "a": 0.0, "b": 1.0},
                              {"kind": "normal", "a": a, "b": 1.0}])


def _or_nan(fn, priors, theta):
    try:
        return fn(priors, theta)
    except DomainError:
        return np.full(theta.size, np.nan)


class TestBatchAxis:
    """log_prior, its gradient and the posterior target: (K, d) rows equal (d,) calls."""

    @given(
        index=st.integers(0, 5),
        kinds=st.sampled_from([1, 3, 4]).flatmap(
            lambda k: st.lists(st.sampled_from(ROW_KINDS), min_size=k, max_size=k)),
        seed=st.integers(0, 10**6),
    )
    @settings(max_examples=80, deadline=None)
    def test_rows_match_single_calls(self, index, kinds, seed):
        spec, theta = random_model_case(index)
        rows = batch_rows(spec, theta, kinds, seed)
        normal = default_priors(spec)
        comps = list(normal.components)
        a, b, _ = spec.config
        comps[a + b + 2] = PriorComponent("uniform", -0.45, 0.45)  # "outside" rows leave it
        for priors in (normal, PriorSet(tuple(comps))):
            assert np.array_equal(log_prior(priors, rows), [log_prior(priors, r) for r in rows])
            assert np.array_equal(grad_log_prior(priors, rows),
                                  [_or_nan(grad_log_prior, priors, r) for r in rows],
                                  equal_nan=True)
            target = posterior_target(spec, priors)
            lp = target.log_post(rows)
            assert np.array_equal(lp, [target.log_post(r) for r in rows])
            assert np.array_equal(target.grad_log_post(rows),
                                  [target.grad_log_post(r) for r in rows], equal_nan=True)
            for kind, value in zip(kinds, lp):
                if kind != "inside":
                    assert value == -math.inf

    def test_gradient_guard_on_uniform_support(self):
        priors = PriorSet((PriorComponent("normal", 0.0, 1.0),
                           PriorComponent("uniform", -1.0, 1.0)))
        with pytest.raises(DomainError):
            grad_log_prior(priors, [0.0, 2.0])
        with pytest.raises(DomainError):
            grad_log_prior(priors, [math.nan, 0.0])
        grad = grad_log_prior(priors, np.array([[0.5, 0.0], [0.0, 2.0]]))
        assert np.array_equal(grad[0], [-0.5, 0.0]) and np.all(np.isnan(grad[1]))

    @pytest.mark.parametrize("column", [0, 1])  # a normal and a uniform component
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_theta_is_domain_error(self, column, bad):
        """The model's theta check: a non-finite entry raises, in the (d,) and (K, d) forms."""
        priors = PriorSet((PriorComponent("normal", 0.0, 1.0),
                           PriorComponent("uniform", -1.0, 1.0)))
        theta = np.array([0.5, 0.0])
        theta[column] = bad
        for fn in (log_prior, grad_log_prior, log_prior_and_grad):
            for value in (theta, np.array([[0.5, 0.0], theta])):
                with pytest.raises(DomainError, match="finite"):
                    fn(priors, value)
