"""Parameter packing, links, the joint nll, and its gradient."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extremefit import (
    DomainError,
    EvdFamily,
    ModelSpec,
    PriorComponent,
    PriorSet,
    central_diff_grad,
    default_priors,
    fit_mle,
    grad_neg_log_likelihood,
    infer_bounds,
    neg_log_likelihood,
    nll_and_grad,
    param_dim,
    param_names,
    posterior_target,
    realize,
    validate_config,
)
from extremefit import model
from extremefit.distributions import quantile_values
from extremefit.optimize import default_start
from _cases import ROW_KINDS, batch_rows, random_model_case

GEV = EvdFamily.GEV


def _spec(data, cov, config, family=GEV, columns=None):
    return ModelSpec(data=data, covariates=cov, config=config, family=family,
                     covariate_columns=columns)


class TestParamDim:
    def test_one_location_covariate(self):
        s = _spec(np.ones(5), np.ones((5, 1)), (1, 0, 0))
        assert param_dim(s) == 4

    def test_stationary(self):
        s = _spec(np.ones(5), None, (0, 0, 0))
        assert param_dim(s) == 3

    def test_counting(self):
        s = _spec(np.ones(5), np.ones((5, 2)), (2, 1, 1))
        assert param_dim(s) == 7


class TestParamNames:
    def test_location_trend(self):
        s = _spec(np.ones(5), np.ones((5, 1)), (1, 0, 0))
        assert param_names(s) == ["loc_intercept", "loc_slope_0", "scale", "shape"]

    def test_stationary(self):
        s = _spec(np.ones(5), None, (0, 0, 0))
        assert param_names(s) == ["loc_intercept", "scale", "shape"]

    def test_scale_and_shape_trends(self):
        s = _spec(np.ones(5), np.ones((5, 1)), (0, 1, 1))
        assert param_names(s) == [
            "loc_intercept",
            "logscale_intercept",
            "logscale_slope_0",
            "shape_intercept",
            "shape_slope_0",
        ]


@st.composite
def _layout_specs(draw):
    """Specs up to (2, 2, 2) on three covariates, with or without covariate_columns."""
    family = draw(st.sampled_from([GEV, EvdFamily.GPD]))
    config = draw(st.tuples(*[st.integers(0, 2)] * 3))
    columns = draw(st.none() | st.tuples(*(st.lists(st.integers(0, 2), min_size=k, max_size=k)
                                           for k in config)))
    rng = np.random.default_rng(draw(st.integers(0, 10**6)))
    n = 40
    cov = rng.normal(size=(n, 3)) * [1.0, 2.0, 5.0] + [0.0, 1.0, -3.0]  # distinct std and mean
    u = 0.02 + 0.96 * rng.random(n)
    data = (quantile_values(family, u, 10.0, 2.0, 0.1) if family is GEV
            else quantile_values(family, u, 0.0, 1.0, 0.1))
    return _spec(data, cov, config, family, columns)


class TestLayout:
    """ModelSpec._blocks is the packed theta's one layout, and every derived vector follows it."""

    @given(spec=_layout_specs())
    @settings(max_examples=100, deadline=None)
    def test_blocks_tile_theta_with_intercepts_first(self, spec):
        blocks = spec._blocks
        assert blocks[0].coefs.start == 0 and blocks[-1].coefs.stop == param_dim(spec)
        for (coefs, _), (after, _) in zip(blocks, blocks[1:]):
            assert coefs.stop == after.start
        est = spec.lmoment_estimate
        stationary = spec.config[1] == 0
        anchors = (est.loc, est.scale if stationary else math.log(est.scale), 0.0)
        names = param_names(spec)
        bounds, start, priors = infer_bounds(spec), default_start(spec), default_priors(spec)
        means = np.array([comp.a for comp in priors.components])
        sds = np.array([comp.b for comp in priors.components])
        intercept_names = ("loc_intercept", "scale" if stationary else "logscale_intercept",
                           "shape" if spec.config[2] == 0 else "shape_intercept")
        for which, ((coefs, design), count) in enumerate(zip(blocks, spec.config)):
            cols = list(spec.columns_for(which))
            assert coefs.step is None and coefs.stop - coefs.start == count + 1
            assert np.array_equal(design, np.column_stack([np.ones(spec.n_obs),
                                                           spec.covariates[:, cols]]))
            head, slopes = coefs.start, np.arange(coefs.start + 1, coefs.stop)
            assert names[head] == intercept_names[which]
            assert all("slope" in names[i] for i in slopes)
            inv_std = 1.0 / np.std(spec.covariates[:, cols], axis=0)
            assert np.array_equal(start[slopes], np.zeros(count))
            assert means[head] == anchors[which] and np.all(means[slopes] == 0.0)
            assert np.allclose(sds[slopes], inv_std, rtol=1e-14, atol=0.0)
            if which == 0 and spec.family is EvdFamily.GPD:  # the pinned threshold
                assert np.all(bounds.lo[coefs] == 0.0) and np.all(bounds.hi[coefs] == 0.0)
                continue
            assert np.allclose(bounds.hi[slopes], 10.0 * inv_std, rtol=1e-14, atol=0.0)
            assert np.array_equal(bounds.lo[slopes], -bounds.hi[slopes])
            assert bounds.lo[head] < anchors[which] < bounds.hi[head]
            if which < 2:
                assert start[head] == anchors[which]


class TestRealize:
    def test_linear_location(self):
        cov = np.array([[100.0], [0.0]])
        s = _spec(np.zeros(2), cov, (1, 0, 0))
        loc, scale, shape = realize(s, [10.0, 0.02, 5.0, 0.1])
        assert loc[0] == pytest.approx(12.0)
        assert loc[1] == pytest.approx(10.0)
        assert np.all(scale == 5.0)
        assert np.all(shape == 0.1)

    def test_stationary_constant(self):
        s = _spec(np.zeros(4), None, (0, 0, 0))
        loc, scale, shape = realize(s, [1.0, 2.0, 0.3])
        assert np.all(loc == 1.0) and np.all(scale == 2.0) and np.all(shape == 0.3)

    def test_log_link_zero_coefficients(self):
        cov = np.random.default_rng(0).normal(size=(6, 1))
        s = _spec(np.zeros(6), cov, (0, 1, 0))
        _, scale, _ = realize(s, [0.0, 0.0, 0.0, 0.0])
        assert np.allclose(scale, 1.0)

    def test_nonpositive_stationary_scale(self):
        s = _spec(np.zeros(4), None, (0, 0, 0))
        with pytest.raises(DomainError):
            realize(s, [0.0, -1.0, 0.0])

    def test_explicit_columns(self):
        cov = np.column_stack([np.zeros(5), np.arange(5.0)])
        s = _spec(np.zeros(5), cov, (1, 0, 0), columns=((1,), (), ()))
        loc, _, _ = realize(s, [0.0, 1.0, 1.0, 0.0])
        assert np.array_equal(loc, np.arange(5.0))


class TestNegLogLikelihood:
    def test_single_gumbel_observation(self):
        s = _spec(np.array([0.0]), None, (0, 0, 0))
        assert neg_log_likelihood(s, [0.0, 1.0, 0.0]) == pytest.approx(1.0, abs=1e-12)

    def test_additivity(self):
        one = _spec(np.array([1.3]), None, (0, 0, 0))
        two = _spec(np.array([1.3, 1.3]), None, (0, 0, 0))
        theta = [0.5, 2.0, 0.1]
        assert neg_log_likelihood(two, theta) == pytest.approx(
            2.0 * neg_log_likelihood(one, theta), rel=1e-14
        )

    def test_outside_support_is_inf(self):
        s = _spec(np.array([5.0]), None, (0, 0, 0))
        assert neg_log_likelihood(s, [0.0, 1.0, -0.5]) == math.inf

    def test_nonpositive_scale_is_inf(self):
        s = _spec(np.array([0.0]), None, (0, 0, 0))
        assert neg_log_likelihood(s, [0.0, -1.0, 0.0]) == math.inf

    def test_nonfinite_theta_raises(self):
        s = _spec(np.array([0.0]), None, (0, 0, 0))
        with pytest.raises(DomainError):
            neg_log_likelihood(s, [math.nan, 1.0, 0.0])

    def test_never_nan(self):
        for i in range(40):
            spec, theta = random_model_case(i, n_obs=15)
            wild = theta + np.linspace(-4, 4, theta.size)
            v = neg_log_likelihood(spec, wild)
            assert not math.isnan(v)

    def test_permutation_invariance(self):
        spec, theta = random_model_case(5, n_obs=30)
        perm = np.random.default_rng(1).permutation(spec.n_obs)
        shuffled = ModelSpec(
            data=spec.data[perm],
            covariates=spec.covariates[perm],
            config=spec.config,
            family=spec.family,
        )
        assert neg_log_likelihood(shuffled, theta) == pytest.approx(
            neg_log_likelihood(spec, theta), rel=1e-10
        )

    def test_zero_slopes_match_stationary(self):
        spec, _ = random_model_case(4, n_obs=25)  # GEV with config (1,1,1)
        a, b, c = spec.config
        stationary = ModelSpec(data=spec.data, covariates=None, config=(0, 0, 0),
                               family=spec.family)
        theta_ns = np.array([1.0, 0.0, math.log(2.0), 0.0, 0.1, 0.0])
        theta_st = np.array([1.0, 2.0, 0.1])
        assert neg_log_likelihood(spec, theta_ns) == pytest.approx(
            neg_log_likelihood(stationary, theta_st), rel=1e-12
        )


class TestGradNegLogLikelihood:
    def test_matches_central_differences(self):
        worst = 0.0
        for i in range(100):
            spec, theta = random_model_case(i)
            assert math.isfinite(neg_log_likelihood(spec, theta))
            g = grad_neg_log_likelihood(spec, theta)
            fd = central_diff_grad(lambda t: neg_log_likelihood(spec, t), theta)
            rel = np.max(np.abs(g - fd) / np.maximum(1.0, np.abs(fd)))
            worst = max(worst, rel)
        assert worst < 1e-5

    def test_zero_at_mle(self):
        data = np.random.default_rng(4).gumbel(10.0, 5.0, size=400)
        s = _spec(data, None, (0, 0, 0))
        fit = fit_mle(s, tol=1e-12)
        g = grad_neg_log_likelihood(s, fit.theta_hat)
        assert np.max(np.abs(g)) < 1e-4

    def test_zero_covariate_gives_zero_slope_gradient(self):
        cov = np.zeros((30, 1))
        data = np.random.default_rng(5).gumbel(0.0, 1.0, size=30)
        s = _spec(data, cov, (1, 0, 0))
        g = grad_neg_log_likelihood(s, [0.0, 0.7, 1.0, 0.05])
        assert g[1] == 0.0

    def test_infinite_nll_raises(self):
        s = _spec(np.array([5.0]), None, (0, 0, 0))
        with pytest.raises(DomainError):
            grad_neg_log_likelihood(s, [0.0, 1.0, -0.5])


def _hessian(spec, theta):
    return model._nll_terms(spec, np.asarray(theta, dtype=float), value=True, grad=True,
                            hess=True)[2]


class TestHessian:
    """The exact Hessian of the nll from one kernel pass."""

    @given(family=st.sampled_from([GEV, EvdFamily.GPD]),
           config=st.tuples(*[st.integers(0, 1)] * 3), seed=st.integers(0, 10**6))
    @settings(max_examples=80, deadline=None)
    def test_matches_central_differences_of_the_gradient(self, family, config, seed):
        # b = 0 is the stationary scale, b = 1 the log link
        rng = np.random.default_rng(seed)
        a, b, c = config
        n = 60
        cov = rng.normal(size=(n, 1))
        theta = np.concatenate([[3.0 * rng.normal()], 0.5 * rng.normal(size=a),
                                [0.3 * rng.normal(), *0.2 * rng.normal(size=b)] if b
                                else [0.5 + abs(rng.normal())],
                                [0.6 * (rng.random() - 0.5)], 0.05 * rng.normal(size=c)])
        shell = _spec(np.zeros(n), cov, config, family)
        data = quantile_values(family, 0.02 + 0.96 * rng.random(n), *realize(shell, theta))
        spec = _spec(data, cov, config, family)
        hess = _hessian(spec, theta)
        assert np.array_equal(hess, hess.T)
        rows = []
        for i in range(theta.size):
            up, down = theta.copy(), theta.copy()
            up[i] += 1e-6 * max(1.0, abs(theta[i]))
            down[i] -= 1e-6 * max(1.0, abs(theta[i]))
            rows.append((nll_and_grad(spec, up)[1] - nll_and_grad(spec, down)[1])
                        / (up[i] - down[i]))
        diff = np.array(rows)
        assert np.max(np.abs(hess - diff)) <= 1e-7 * np.max(np.abs(diff))

    def test_nan_where_the_gradient_is(self):
        s = _spec(np.array([5.0, 6.0]), None, (0, 0, 0))
        assert np.isnan(_hessian(s, [0.0, 1.0, -0.5])).all()  # 5 lies above the endpoint 2


class TestValidateConfig:
    def test_ok(self):
        s = _spec(np.ones(4), np.ones((4, 1)), (1, 0, 0))
        assert validate_config(s) == []

    def test_too_many_covariates_requested(self):
        s = _spec(np.ones(4), np.ones((4, 1)), (2, 0, 0))
        out = validate_config(s)
        assert any("location requests 2 covariates, 1 available" in v for v in out)

    def test_nan_data_names_row(self):
        data = np.ones(5)
        data[3] = np.nan
        s = _spec(data, np.ones((5, 1)), (1, 0, 0))
        out = validate_config(s)
        assert any("3" in v and "data" in v for v in out)

    def test_collects_multiple_violations(self):
        data = np.ones(5)
        data[0] = np.inf
        s = _spec(data, np.ones((5, 1)), (2, 3, 0))
        assert len(validate_config(s)) >= 3

    def test_row_count_mismatch(self):
        s = _spec(np.ones(4), np.ones((3, 1)), (1, 0, 0))
        assert any("rows" in v for v in validate_config(s))

    def test_explicit_column_index_out_of_range(self):
        s = _spec(np.ones(4), np.ones((4, 2)), (1, 0, 0), columns=((5,), (), ()))
        assert any("outside" in v for v in validate_config(s))

    @pytest.mark.parametrize("cov, config, columns", [
        (np.ones((5, 2)), (1, 0, 0), ((0, 1), (), ())),  # two columns for one slope
        (np.ones((5, 2)), (1, 0, 0), ((5,), (), ())),
        (np.ones((5, 1)), (2, 0, 0), None),
    ])
    def test_model_functions_refuse_what_validate_config_reports(self, cov, config, columns):
        s = _spec(np.arange(1.0, 6.0), cov, config, columns=columns)
        assert validate_config(s)
        theta = np.array([1.0] + [0.0] * config[0] + [1.0, 0.1])
        for call in (lambda: realize(s, theta), lambda: neg_log_likelihood(s, theta),
                     lambda: fit_mle(s), lambda: infer_bounds(s)):
            with pytest.raises(DomainError):
                call()


def _grad_or_nan(spec, theta):
    try:
        return grad_neg_log_likelihood(spec, theta)
    except DomainError:
        return np.full(theta.size, np.nan)


class TestBatchAxis:
    """A (K, d) theta gives per-row results bit-identical to (d,) calls."""

    # cases 0-5: GEV and GPD at configs (0,0,0), (1,0,0) and (1,1,1)
    @given(
        index=st.integers(0, 5),
        kinds=st.sampled_from([1, 3, 4]).flatmap(
            lambda k: st.lists(st.sampled_from(ROW_KINDS), min_size=k, max_size=k)),
        seed=st.integers(0, 10**6),
    )
    @settings(max_examples=120, deadline=None)
    def test_rows_match_single_calls(self, index, kinds, seed):
        spec, theta = random_model_case(index)
        rows = batch_rows(spec, theta, kinds, seed)
        nll = neg_log_likelihood(spec, rows)
        grad = grad_neg_log_likelihood(spec, rows)
        assert nll.shape == (len(kinds),) and grad.shape == rows.shape
        assert np.array_equal(nll, [neg_log_likelihood(spec, r) for r in rows])
        assert np.array_equal(grad, [_grad_or_nan(spec, r) for r in rows], equal_nan=True)
        for kind, value, g in zip(kinds, nll, grad):
            if kind != "inside":
                assert value == math.inf and np.all(np.isnan(g))

    @given(
        index=st.integers(0, 5),
        kinds=st.sampled_from([1, 3, 4]).flatmap(
            lambda k: st.lists(st.sampled_from(ROW_KINDS), min_size=k, max_size=k)),
        seed=st.integers(0, 10**6),
    )
    @settings(max_examples=120, deadline=None)
    def test_fused_rows_match_separate_calls(self, index, kinds, seed):
        spec, theta = random_model_case(index)
        rows = batch_rows(spec, theta, kinds, seed)
        nll, grad = nll_and_grad(spec, rows)
        assert np.array_equal(nll, neg_log_likelihood(spec, rows))
        assert np.array_equal(grad, grad_neg_log_likelihood(spec, rows), equal_nan=True)
        for row, value, g in zip(rows, nll, grad):
            single_nll, single_grad = nll_and_grad(spec, row)
            assert type(single_nll) is float and single_nll == value
            assert np.array_equal(single_grad, g, equal_nan=True)
            assert np.array_equal(single_grad, _grad_or_nan(spec, row), equal_nan=True)
            if value == math.inf:  # where the separate gradient raises
                assert np.all(np.isnan(single_grad))
                with pytest.raises(DomainError):
                    grad_neg_log_likelihood(spec, row)

    @given(
        index=st.integers(0, 5),
        kinds=st.sampled_from([1, 3, 4]).flatmap(
            lambda k: st.lists(st.sampled_from(ROW_KINDS), min_size=k, max_size=k)),
        seed=st.integers(0, 10**6),
        uniform=st.integers(0, 2),
    )
    @settings(max_examples=120, deadline=None)
    def test_posterior_value_and_grad_matches_separate_calls(self, index, kinds, seed, uniform):
        """value_and_grad equals (log_post, grad_log_post), rows outside a uniform prior too."""
        spec, theta = random_model_case(index)
        comps = list(default_priors(spec).components)
        # a uniform prior 0.01 wide around theta: the 0.01-jittered rows fall
        # inside it or outside it
        comps[uniform] = PriorComponent("uniform", theta[uniform] - 0.005,
                                        theta[uniform] + 0.005)
        target = posterior_target(spec, PriorSet(tuple(comps)))
        rows = batch_rows(spec, theta, kinds, seed)
        for x in [rows] + list(rows):
            value, grad = target.value_and_grad(x)
            assert np.array_equal(value, target.log_post(x))
            assert np.array_equal(grad, target.grad_log_post(x), equal_nan=True)
            assert np.all(np.isnan(grad[np.asarray(value) == -math.inf]))

    @pytest.mark.parametrize("index", [0, 1, 4, 5])
    def test_long_batch_goes_through_in_blocks(self, index, monkeypatch):
        # K * n = 7 * 5000 values: blocks of 3, 3 and 1 rows, each row as a single call
        spec, theta = random_model_case(index, n_obs=5000)
        rows = batch_rows(spec, theta, ["inside", "outside", "inside", "zero_scale",
                                        "inside", "inside", "bad_scale"], 8)
        sizes = []
        terms = model._terms
        monkeypatch.setattr(model, "_terms", lambda *a: sizes.append(a[2].size) or terms(*a))
        nll, grad = nll_and_grad(spec, rows)
        assert sizes == [3 * 5000, 3 * 5000, 5000]
        assert np.array_equal(nll, neg_log_likelihood(spec, rows))
        assert np.array_equal(grad, grad_neg_log_likelihood(spec, rows), equal_nan=True)
        for row, value, g in zip(rows, nll, grad):
            assert neg_log_likelihood(spec, row) == value
            assert np.array_equal(_grad_or_nan(spec, row), g, equal_nan=True)

    def test_realize_rows(self):
        spec, theta = random_model_case(4)  # GEV (1, 1, 1)
        rows = batch_rows(spec, theta, ["inside"] * 3, 5)
        for part, single in zip(realize(spec, rows), zip(*(realize(spec, r) for r in rows))):
            assert np.array_equal(part, np.array(single))

    def test_nonfinite_row_raises(self):
        spec, theta = random_model_case(0)
        rows = np.vstack([theta, theta])
        rows[1, 0] = np.nan
        with pytest.raises(DomainError):
            neg_log_likelihood(spec, rows)
