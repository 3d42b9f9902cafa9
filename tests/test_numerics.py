"""Special functions, RNG streams, and finite-difference gradients."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extremefit import (
    DomainError,
    EvaluationError,
    RngState,
    central_diff_grad,
    chi2_sf,
    lgamma,
)


class TestLgamma:
    def test_gamma_of_one_and_two(self):
        assert lgamma(1.0) == pytest.approx(0.0, abs=1e-14)
        assert lgamma(2.0) == pytest.approx(0.0, abs=1e-14)

    def test_half(self):
        # ln Gamma(1/2) = ln sqrt(pi)
        assert lgamma(0.5) == pytest.approx(0.5723649429247001, abs=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            lgamma(0.0)
        with pytest.raises(DomainError):
            lgamma(-1.5)

    def test_recurrence(self):
        # lgamma(x+1) - lgamma(x) = ln x
        for x in np.arange(0.5, 51.0, 1.0):
            assert abs(lgamma(x + 1.0) - lgamma(x) - math.log(x)) < 1e-10

    def test_against_scipy(self):
        scipy_special = pytest.importorskip("scipy.special")
        xs = np.linspace(0.1, 100.0, 500)
        ours = np.array([lgamma(x) for x in xs])
        assert np.max(np.abs(ours - scipy_special.gammaln(xs))) < 1e-12


class TestChi2Sf:
    def test_at_zero(self):
        assert chi2_sf(0.0, 1) == 1.0

    def test_standard_quantiles(self):
        assert chi2_sf(3.841459, 1) == pytest.approx(0.05, abs=1e-6)
        # df=2 closed form exp(-x/2)
        assert chi2_sf(5.991465, 2) == pytest.approx(0.05, abs=1e-6)

    @pytest.mark.parametrize("x, df", [
        (1.0, 0), (1.0, -1), (1.0, 1.5), (1.0, math.nan), (1.0, math.inf), (1.0, -math.inf),
        (-0.5, 1), (math.nan, 1), (math.inf, 1),
    ])
    def test_domain(self, x, df):
        with pytest.raises(DomainError):
            chi2_sf(x, df)

    def test_against_scipy(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        xs = np.concatenate([np.geomspace(1e-8, 1.0, 60), np.linspace(1.0, 700.0, 400)])
        for df in range(1, 41):
            ref = scipy_stats.chi2.sf(xs, df)
            ours = np.array([chi2_sf(float(x), df) for x in xs])
            pos = ref > 0
            assert np.max(np.abs(ours[pos] - ref[pos]) / ref[pos]) <= 1e-12, df

    @given(
        x=st.floats(0.0, 800.0),
        delta=st.floats(0.0, 50.0),
        df=st.integers(1, 60),
    )
    @settings(max_examples=300, deadline=None)
    def test_bounded_and_monotone(self, x, delta, df):
        # Rounding may break monotonicity by a few ulps, so allow 1e-14 relative.
        p = chi2_sf(x, df)
        assert 0.0 <= p <= 1.0
        assert chi2_sf(0.0, df) == 1.0
        assert chi2_sf(x + delta, df) <= p * (1.0 + 1e-14)
        assert chi2_sf(x, df + 1) >= p * (1.0 - 1e-14)

    def test_far_tail_is_zero_not_nan(self):
        assert chi2_sf(1e300, 40) == chi2_sf(1e300, 41) == 0.0


class TestRngState:
    def test_reproducible(self):
        a = RngState(123, 0)
        b = RngState(123, 0)
        assert [a.uniform() for _ in range(100)] == [b.uniform() for _ in range(100)]
        a2, b2 = RngState(123, 0), RngState(123, 0)
        assert np.array_equal(a2.normals(10000), b2.normals(10000))

    def test_streams_differ(self):
        a = RngState(123, 0)
        b = RngState(123, 1)
        assert not np.array_equal(a.uniforms(100), b.uniforms(100))

    def test_uniform_open_interval(self):
        u = RngState(7, 0).uniforms(200000)
        assert np.all(u > 0.0) and np.all(u < 1.0)

    def test_uniform_mean(self):
        u = RngState(11, 0).uniforms(1_000_000)
        assert abs(u.mean() - 0.5) < 0.002

    def test_normal_moments(self):
        z = RngState(13, 0).normals(1_000_000)
        assert abs(z.var() - 1.0) < 0.005
        assert abs(z.mean()) < 0.005


class TestCentralDiffGrad:
    def test_quadratic(self):
        g = central_diff_grad(lambda t: t[0] ** 2, np.array([3.0]))
        assert g[0] == pytest.approx(6.0, abs=1e-6)

    def test_bilinear(self):
        g = central_diff_grad(lambda t: t[0] * t[1], np.array([2.0, 5.0]))
        assert np.allclose(g, [5.0, 2.0], atol=1e-6)

    def test_nonfinite_names_component(self):
        def f(t):
            return math.inf if t[1] > 1.0 else t[0]

        with pytest.raises(EvaluationError, match="component 1"):
            central_diff_grad(f, np.array([0.0, 1.0]))
