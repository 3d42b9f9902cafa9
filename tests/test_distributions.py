"""GEV/GPD densities, quantiles, simulation, and gradients."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from extremefit import (
    DomainError,
    EvdFamily,
    ParamTriple,
    RngState,
    cdf,
    central_diff_grad,
    grad_logpdf,
    logpdf,
    quantile,
    sample,
)
from extremefit.distributions import (
    _SERIES,
    _terms,
    cdf_values,
    grad_logpdf_values,
    logpdf_values,
    quantile_values,
)

GEV = EvdFamily.GEV
GPD = EvdFamily.GPD


class _ForcedU:
    """Stub RNG returning a fixed uniform draw."""

    def __init__(self, u):
        self.u = u

    def uniform(self):
        return self.u


class TestLogpdf:
    def test_gumbel_at_location(self):
        assert logpdf(GEV, 0.0, ParamTriple(0, 1, 0)) == pytest.approx(-1.0, abs=1e-12)

    def test_gev_positive_shape(self):
        assert logpdf(GEV, 1.0, ParamTriple(0, 1, 0.1)) == pytest.approx(
            -1.433955267, abs=1e-6
        )

    def test_gev_outside_support(self):
        # t = 1 - 0.5*3 <= 0
        assert logpdf(GEV, 3.0, ParamTriple(0, 1, -0.5)) == -math.inf

    def test_gpd_exponential_at_origin(self):
        assert logpdf(GPD, 0.0, ParamTriple(0, 1, 0)) == pytest.approx(0.0, abs=1e-12)

    def test_gpd_positive_shape(self):
        assert logpdf(GPD, 1.0, ParamTriple(0, 2, 0.2)) == pytest.approx(
            -1.265008259, abs=1e-6
        )

    def test_gpd_below_threshold(self):
        assert logpdf(GPD, -0.1, ParamTriple(0, 1, 0.2)) == -math.inf

    def test_scale_domain_error(self):
        with pytest.raises(DomainError):
            logpdf(GEV, 0.0, ParamTriple(0, -1, 0))
        with pytest.raises(DomainError):
            logpdf(GPD, 0.0, ParamTriple(0, 0, 0))

    def test_shape_continuity_at_zero(self):
        """logpdf, cdf, quantile and gradient at xi = 1e-9 match the xi = 0 limit."""

        def evaluations(fam, x, u, trip):
            return np.concatenate([
                [logpdf(fam, x, trip), cdf(fam, x, trip), quantile(fam, u, trip)],
                grad_logpdf(fam, x, trip),
            ])

        rng = RngState(21, 0)
        for fam in (GEV, GPD):
            for _ in range(50):
                mu = rng.normal()
                sig = 0.5 + abs(rng.normal())
                x = mu + sig * (abs(rng.normal()) if fam is GPD else rng.normal())
                u = 0.01 + 0.98 * rng.uniform()
                tiny = evaluations(fam, x, u, ParamTriple(mu, sig, 1e-9))
                zero = evaluations(fam, x, u, ParamTriple(mu, sig, 0.0))
                assert np.max(np.abs(tiny - zero)) < 1e-6

    @pytest.mark.parametrize("family", [GEV, GPD])
    @pytest.mark.parametrize("xi", [5e-324, -5e-324, 1e-310, -1e-310,
                                    1e-300, -1e-300, 1e-200, -1e-200])
    def test_underflowing_shape_is_the_zero_limit(self, family, xi):
        """Where xi z is 0 or subnormal the kernel returns the xi = 0 values bit for bit.

        There xi z has lost its bits (one significant bit at xi = 5e-324), so
        log1p(xi z) / xi would be far off; elsewhere it is within rounding.
        """
        mu, sig = 1.5, 2.0
        z = np.array([0.0, 0.3, 1.0, 2.5, 7.0, 30.0, 1e3, 1e5])
        if family is GEV:
            z = np.concatenate([[-2.0, -0.5], z])
        x = mu + sig * z
        p = np.array([1e-6, 0.01, 0.3, 0.5, 0.9, 0.999, 1.0 - 1e-12])  # |w| < 30

        def evaluations(shape):
            at_x = [logpdf_values(family, x, mu, sig, shape), cdf_values(family, x, mu, sig, shape)]
            at_x += grad_logpdf_values(family, x, mu, sig, shape)
            return np.array(at_x), quantile_values(family, p, mu, sig, shape)

        (at_x, q), (at_x0, q0) = evaluations(xi), evaluations(0.0)
        tiny = np.finfo(float).tiny
        subnormal = np.abs(xi * ((x - mu) / sig)) < tiny
        assert np.array_equal(at_x[:, subnormal], at_x0[:, subnormal])
        assert np.max(_scaled_error(at_x, at_x0)) <= 1e-14
        if abs(xi) * 30.0 < tiny:
            assert np.array_equal(q, q0)
        assert np.max(_scaled_error(q, q0)) <= 1e-14

    def test_normalization(self):
        rng = RngState(33, 0)
        for fam in (GEV, GPD):
            for _ in range(20):
                mu = rng.normal() * 5
                sig = 0.5 + 3 * rng.uniform()
                xi = 0.9 * (rng.uniform() - 0.5)
                p = np.linspace(1e-8, 1 - 1e-8, 200001)
                x = quantile_values(fam, p, mu, sig, xi)
                integral = np.trapezoid(np.exp(logpdf_values(fam, x, mu, sig, xi)), x)
                assert 0.999 <= integral <= 1.001


class TestQuantile:
    def test_gumbel_upper(self):
        assert quantile(GEV, 0.99, ParamTriple(0, 1, 0)) == pytest.approx(
            4.600149226776579, abs=1e-5
        )

    def test_gumbel_fixed_point(self):
        # -ln(-ln(e^-1)) = 0, so the quantile is the location
        assert quantile(GEV, math.exp(-1.0), ParamTriple(7.5, 3.0, 0)) == pytest.approx(
            7.5, abs=1e-12
        )

    def test_gpd_lower_endpoint(self):
        assert quantile(GPD, 1e-12, ParamTriple(2.0, 1.5, 0.3)) == pytest.approx(
            2.0, abs=1e-9
        )

    def test_domain(self):
        with pytest.raises(DomainError):
            quantile(GEV, 0.0, ParamTriple(0, 1, 0))
        with pytest.raises(DomainError):
            quantile(GEV, 1.0, ParamTriple(0, 1, 0))

    def test_nan_probability_raises(self):
        with pytest.raises(DomainError):
            quantile(GPD, math.nan, ParamTriple(0, 1, 0.1))
        with pytest.raises(DomainError):
            quantile_values(GEV, np.array([0.5, math.nan]), 10, 2, 0.1)

    def test_cdf_inversion(self):
        rng = RngState(55, 0)
        for fam in (GEV, GPD):
            for _ in range(20):
                mu = rng.normal() * 3
                sig = 0.5 + 2 * rng.uniform()
                xi = 0.8 * (rng.uniform() - 0.5)
                trip = ParamTriple(mu, sig, xi)
                for p in np.arange(0.01, 1.0, 0.07):
                    x = quantile(fam, p, trip)
                    assert cdf(fam, x, trip) == pytest.approx(p, abs=1e-9)


class TestSample:
    def test_forced_uniform_identity(self):
        assert sample(GEV, ParamTriple(5, 2, 0), _ForcedU(math.exp(-1.0))) == pytest.approx(
            5.0, abs=1e-12
        )

    def test_gumbel_median(self):
        draws = sample(GEV, ParamTriple(0, 1, 0), RngState(17, 0), size=100_000)
        assert np.median(draws) == pytest.approx(0.36651292058166435, abs=0.01)

    def test_exponential_mean(self):
        draws = sample(GPD, ParamTriple(0, 1, 0), RngState(19, 0), size=100_000)
        assert draws.mean() == pytest.approx(1.0, abs=0.02)


class TestGradLogpdf:
    def test_gumbel_at_zero(self):
        g = grad_logpdf(GEV, 0.0, ParamTriple(0, 1, 0))
        assert g[0] == pytest.approx(0.0, abs=1e-12)
        assert g[1] == pytest.approx(-1.0, abs=1e-12)

    def test_gpd_exponential_location(self):
        sig = 2.5
        g = grad_logpdf(GPD, sig, ParamTriple(0, sig, 0))
        assert g[0] == pytest.approx(1.0 / sig, abs=1e-12)

    def test_boundary_is_domain_error(self):
        with pytest.raises(DomainError):
            grad_logpdf(GEV, 3.0, ParamTriple(0, 1, -0.5))

    @pytest.mark.parametrize("family", [GEV, GPD])
    def test_far_out_point_gives_no_warning(self, family):
        # xi z = 1e200: the series that the closed forms overwrite and z * z
        # overflow inside the kernel; the warnings filter turns a warning into
        # a failure here
        x, shape = np.array([1e200]), np.array([1.0])
        h = math.log1p(1e200)
        lp = logpdf_values(family, x, 0.0, 1.0, shape)
        assert lp[0] == pytest.approx(-2.0 * h, rel=1e-14)
        g = np.concatenate(grad_logpdf_values(family, x, 0.0, 1.0, shape))
        np.testing.assert_allclose(g, [2e-200, 1.0, h - 2.0], rtol=1e-12)
        assert cdf_values(family, x, 0.0, 1.0, shape)[0] == 1.0
        # xi z = -1e200 inside the GEV support: exp(-h) overflows, and the
        # non-finite gradient is left for the model to reject
        far = grad_logpdf_values(GEV, -x, 0.0, 1.0, -shape)
        assert not np.isfinite(np.concatenate(far)).all()

    def test_matches_central_differences(self):
        rng = RngState(77, 0)
        checked = 0
        worst = 0.0
        while checked < 1000:
            fam = GEV if checked % 2 == 0 else GPD
            mu = rng.normal() * 2
            sig = 0.5 + abs(rng.normal())
            xi = 0.7 * (rng.uniform() - 0.5)
            trip = ParamTriple(mu, sig, xi)
            x = sample(fam, trip, rng)
            if not math.isfinite(logpdf(fam, x, trip)):
                continue
            # skip points within 1e-3 of the support boundary
            if abs(xi) > 1e-8 and 1.0 + xi * (x - mu) / sig < 1e-3:
                continue
            if fam is GPD and (x - mu) / sig < 1e-3:
                continue
            g = grad_logpdf(fam, x, trip)
            fd = central_diff_grad(
                lambda t: logpdf(fam, x, ParamTriple(t[0], t[1], t[2])),
                np.array([mu, sig, xi]),
            )
            rel = np.max(np.abs(g - fd) / np.maximum(1.0, np.abs(fd)))
            worst = max(worst, rel)
            checked += 1
        assert worst < 1e-5


def _scaled_error(actual, expected):
    """|actual - expected| / max(1, |expected|), elementwise."""
    expected = np.asarray(expected, dtype=float)
    return np.abs(np.asarray(actual) - expected) / np.maximum(1.0, np.abs(expected))


def _tiny_shape(lo_exponent, hi_exponent):
    """+-10**e with e uniform in [lo_exponent, hi_exponent]."""
    return st.builds(
        lambda sign, exponent: sign * 10.0**exponent,
        st.sampled_from([-1.0, 1.0]),
        st.floats(lo_exponent, hi_exponent),
    )


class TestOracles:
    """The one kernel against scipy (Coles' xi is scipy's -c for the GEV) and mpmath."""

    @given(
        gev=st.booleans(),
        mu=st.floats(-10.0, 10.0),
        sig=st.floats(0.1, 10.0),
        xi=st.one_of(
            st.just(0.0),
            st.floats(-0.45, 0.45).filter(lambda v: abs(v) >= 1e-12),
            _tiny_shape(-12.0, -2.0),
        ),
        u=st.lists(st.floats(1e-6, 1.0 - 1e-6), min_size=1, max_size=8),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_scipy(self, gev, mu, sig, xi, u):
        stats = pytest.importorskip("scipy.stats")
        fam = GEV if gev else GPD
        dist = stats.genextreme(-xi, mu, sig) if gev else stats.genpareto(xi, mu, sig)
        u = np.array(u)
        x = dist.ppf(u)  # inside the support, computed apart from extremefit
        assert np.max(_scaled_error(logpdf_values(fam, x, mu, sig, xi), dist.logpdf(x))) <= 1e-12
        assert np.max(_scaled_error(cdf_values(fam, x, mu, sig, xi), dist.cdf(x))) <= 1e-10
        assert np.max(_scaled_error(quantile_values(fam, u, mu, sig, xi), x)) <= 1e-10

    @given(
        gev=st.booleans(),
        xi=_tiny_shape(-10.0, -3.0),
        mu=st.floats(-10.0, 10.0),
        sig=st.floats(0.1, 10.0),
        z=st.floats(-3.0, 30.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_small_shape_gradient_matches_mpmath(self, gev, xi, mu, sig, z):
        mp = pytest.importorskip("mpmath")
        fam = GEV if gev else GPD
        z = z if gev else abs(z)
        x = mu + sig * z

        def exact_logpdf(shape):
            zz = (mp.mpf(x) - mu) / sig
            h = mp.log1p(shape * zz) / shape
            out = -mp.log(sig) - (1 + shape) * h
            return out - mp.exp(-h) if gev else out

        with mp.workdps(50):
            expected = float(mp.diff(exact_logpdf, mp.mpf(xi)))
        gxi = grad_logpdf_values(fam, np.array([x]), mu, sig, xi)[2][0]
        assert _scaled_error(gxi, expected) <= 1e-12

    @given(
        gev=st.booleans(),
        xi=st.one_of(_tiny_shape(-10.0, -3.0), st.floats(-0.45, 0.45)),
        mu=st.floats(-10.0, 10.0),
        sig=st.floats(0.1, 10.0),
        z=st.floats(-3.0, 30.0),
    )
    # xi z on either side of the switch from M' by the series to its closed form
    @example(gev=True, xi=1e-3, mu=1.0, sig=2.0, z=0.999 * _SERIES / 1e-3)
    @example(gev=True, xi=1e-3, mu=1.0, sig=2.0, z=1.001 * _SERIES / 1e-3)
    @example(gev=False, xi=-1e-3, mu=1.0, sig=2.0, z=0.999 * _SERIES / 1e-3)
    @example(gev=False, xi=-1e-3, mu=1.0, sig=2.0, z=1.001 * _SERIES / 1e-3)
    @settings(max_examples=150, deadline=None)
    def test_second_derivatives_match_mpmath(self, gev, xi, mu, sig, z):
        mp = pytest.importorskip("mpmath")
        fam = GEV if gev else GPD
        z = z if gev else abs(z)
        assume(1.0 + xi * z > 1e-2)
        x = mu + sig * z

        def exact_logpdf(loc, scale, shape):
            zz = (mp.mpf(x) - loc) / scale
            h = mp.log1p(shape * zz) / shape if shape else zz
            out = -mp.log(scale) - (1 + shape) * h
            return out - mp.exp(-h) if gev else out

        # (loc, scale, shape) orders of d2/dloc2, d2/dloc dscale, ..., d2/dshape2
        orders = [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)]
        with mp.workdps(50):
            point = (mp.mpf(mu), mp.mpf(sig), mp.mpf(xi) if xi else mp.mpf("1e-40"))
            expected = [float(mp.diff(exact_logpdf, point, n)) for n in orders]
        second = _terms(fam, np.array([x]), mu, sig, xi, value=False, grad=True, hess=True)[2]
        # M' by its closed form cancels, to about 1e-15 / (xi z)**2 relative
        bound = 1e-13 if abs(xi * z) < _SERIES else 1e-10
        assert np.max(_scaled_error([d[0] for d in second], expected)) <= bound
