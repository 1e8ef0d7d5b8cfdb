import json
import math
import os
import subprocess
import sys
import warnings
import zlib
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad, trapezoid
from scipy.special import betaln, digamma, gammaln, log_ndtr, ndtr, ndtri, polygamma

import agemix
from agemix.design import ModelSpec, ModelTag, slot_recipes
from agemix.distributions import (
    DomainError,
    Family,
    ParameterError,
    ParamVector,
    _betaln,
    _digamma_trigamma,
    _gammaln,
    _log_ndtr,
    _natural_params,
    _ndtr,
    _ndtri,
    cdf,
    empirical_moments,
    linpred_slots,
    log_pdf,
    log_pdf_slots,
    quantile,
    sample,
)

from conftest import ks_statistic
from sinh_arcsinh_reference import logpdf_sinh_arcsinh as sas_reference

HALF_LOG_2PI = 0.5 * math.log(2 * math.pi)


def random_params(family, rng):
    if family is Family.NORMAL:
        return ParamVector(mu=rng.uniform(-5, 5), sigma=rng.uniform(0.2, 5))
    if family is Family.SKEW_NORMAL:
        return ParamVector(mu=rng.uniform(-5, 5), sigma=rng.uniform(0.2, 5), epsilon=rng.uniform(-3, 3))
    if family is Family.GAMMA:
        return ParamVector(k=rng.uniform(0.5, 20), theta=rng.uniform(0.2, 5))
    if family is Family.BETA:
        return ParamVector(alpha=rng.uniform(0.5, 20), beta_p=rng.uniform(0.5, 20))
    return ParamVector(
        mu=rng.uniform(-5, 5),
        sigma=rng.uniform(0.2, 5),
        epsilon=rng.uniform(-1.5, 1.5),
        delta=rng.uniform(0.3, 3),
    )


def density_mass(family, params):
    """Quadrature of the density over its support, split at the median.

    Over (-inf, inf) in one piece ``quad`` can miss a narrow peak and return
    about 0 (a sinh-arcsinh with large delta and small sigma); either half
    has the peak at its end.
    """
    if family is Family.GAMMA:
        lo, hi = 0.0, np.inf
    elif family is Family.BETA:
        lo, hi = 0.0, 1.0
    else:
        lo, hi = -np.inf, np.inf
    mid = quantile(family, params, 0.5)
    density = lambda x: math.exp(log_pdf_slots(family, x, *params.require(family)))
    return sum(quad(density, a, b, limit=400)[0] for a, b in ((lo, mid), (mid, hi)))


class TestLinks:
    """``linpred_slots`` and ``_natural_params`` derive each family's slots and links from its parameter
    names; they give, byte for byte, the table and the per-family links they were derived from."""

    SLOTS = {
        Family.NORMAL: ("mu", "sigma"),
        Family.SKEW_NORMAL: ("mu", "sigma", "epsilon"),
        Family.GAMMA: ("mu", "sigma"),
        Family.BETA: ("mu", "sigma"),
        Family.SINH_ARCSINH: ("mu", "sigma", "epsilon", "delta"),
    }

    @staticmethod
    def reference(family, etas):
        def exp(eta):  # clips only when needed: numpy's exp can round a strided view unlike a contiguous copy
            if np.any(np.abs(eta) > 700.0):
                eta = np.clip(eta, -700.0, 700.0)
            return np.exp(eta)

        if family is Family.NORMAL:
            return etas["mu"], exp(etas["sigma"])
        if family is Family.SKEW_NORMAL:
            return etas["mu"], exp(etas["sigma"]), etas["epsilon"]
        if family in (Family.GAMMA, Family.BETA):
            return exp(etas["mu"]), exp(etas["sigma"])
        sigma_star, delta = exp(etas["sigma"]), exp(etas["delta"])
        with np.errstate(over="ignore"):
            return etas["mu"], sigma_star * delta, etas["epsilon"], delta

    @pytest.mark.parametrize("family", list(Family))
    def test_slots(self, family):
        assert linpred_slots(family) == self.SLOTS[family]
        assert tuple(slot_recipes(ModelSpec(ModelTag.CONVENTIONAL)))[: len(self.SLOTS[family])] == self.SLOTS[family]

    @pytest.mark.parametrize("family", list(Family))
    def test_links(self, family):
        rng = np.random.default_rng(5)
        edges = np.array([-1e6, -700.5, -700.0, -699.9, 0.0, 355.0, 699.9, 700.0, 700.5, 1e6])
        cases = [rng.normal(0.0, 3.0, 50), edges, np.float64(701.0), np.array(-700.0)]
        # every pair of edge values, so sigma_star * delta overflows to inf and underflows to 0
        cases += list(np.meshgrid(edges, edges))
        for eta in cases:
            etas = {slot: eta if i % 2 else np.flip(eta) for i, slot in enumerate(self.SLOTS[family])}
            with np.errstate(over="raise", invalid="raise"):  # an overflowing sigma_star * delta is silent
                got, want = _natural_params(family, etas), self.reference(family, etas)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert (type(g), np.shape(g), np.asarray(g).dtype) == (type(w), np.shape(w), np.asarray(w).dtype)
                assert np.asarray(g).tobytes() == np.asarray(w).tobytes()


class TestLogPdf:
    def test_sinh_arcsinh_collapses_to_standard_normal(self):
        p = ParamVector(mu=0, sigma=1, epsilon=0, delta=1)
        assert log_pdf(Family.SINH_ARCSINH, p, 0.0) == pytest.approx(-HALF_LOG_2PI, abs=1e-12)

    def test_normal_analytic(self):
        p = ParamVector(mu=0, sigma=2)
        assert log_pdf(Family.NORMAL, p, 2.0) == pytest.approx(-2.112085713764618, abs=1e-10)

    def test_sinh_arcsinh_transcription_oracle(self):
        # frozen from an independent transcription of the density formula,
        # cross-checked by quadrature normalization before the build
        p = ParamVector(mu=0, sigma=1, epsilon=0.5, delta=1.5)
        assert log_pdf(Family.SINH_ARCSINH, p, 1.0) == pytest.approx(-4.2397343914385, abs=1e-9)

    def test_skew_normal_zero_skew_equals_normal(self):
        sn = log_pdf(Family.SKEW_NORMAL, ParamVector(mu=0, sigma=1, epsilon=0), 0.7)
        n = log_pdf(Family.NORMAL, ParamVector(mu=0, sigma=1), 0.7)
        assert sn == pytest.approx(n, abs=1e-14)

    @pytest.mark.parametrize("family,x", [(Family.GAMMA, -1.0), (Family.GAMMA, 0.0), (Family.BETA, 1.0), (Family.BETA, -0.2)])
    def test_domain_violation_raises(self, family, x):
        params = ParamVector(k=2, theta=1) if family is Family.GAMMA else ParamVector(alpha=2, beta_p=2)
        with pytest.raises(DomainError):
            log_pdf(family, params, x)
        assert log_pdf_slots(family, x, *params.require(family)) == -math.inf

    def test_missing_parameter_raises(self):
        with pytest.raises(ParameterError):
            log_pdf(Family.SINH_ARCSINH, ParamVector(mu=0, sigma=1), 0.0)

    def test_nonpositive_scale_rejected_at_construction(self):
        with pytest.raises(ParameterError):
            ParamVector(mu=0, sigma=-1)
        with pytest.raises(ParameterError):
            ParamVector(k=0.0, theta=1)


def _sas_kernel(x, mu, sigma, epsilon, delta):
    return log_pdf_slots(Family.SINH_ARCSINH, x, mu, sigma, epsilon, delta)


def _assert_matches_reference(got, want):
    # same infinities, no NaN, finite entries within 1e-12 * max(1, |value|)
    assert not np.isnan(got).any()
    np.testing.assert_array_equal(np.isfinite(got), np.isfinite(want))
    np.testing.assert_array_equal(got[~np.isfinite(got)], want[~np.isfinite(want)])
    finite = np.isfinite(want)
    err = np.abs(got[finite] - want[finite]) / np.maximum(1.0, np.abs(want[finite]))
    assert err.max() <= 1e-12


class TestSinhArcsinhKernel:
    def test_matches_reference_on_seeded_grid(self):
        rng = np.random.default_rng(20090761)
        n = 200_000
        sigma = np.exp(rng.uniform(-12.0, 5.0, n))
        delta = np.exp(rng.uniform(-3.0, 2.0, n))
        epsilon = rng.uniform(-10.0, 10.0, n)
        mu = rng.uniform(-5.0, 5.0, n)
        # half the standardized values are moderate, half reach |z| = 1e300
        z = np.where(
            rng.random(n) < 0.5,
            rng.normal(0.0, 3.0, n),
            rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-3.0, 300.0, n),
        )
        x = mu + sigma * z
        want = sas_reference(x, mu, sigma, epsilon, delta)
        # the grid reaches both overflow edges: -inf and huge-|z| finite values
        assert np.isneginf(want).any() and (np.isfinite(want) & (np.abs(z) > 1e160)).any()
        _assert_matches_reference(_sas_kernel(x, mu, sigma, epsilon, delta), want)

    def test_broadcasts_like_a_likelihood_block(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(7, 1))
        mu, epsilon = rng.normal(size=(2, 7, 11))
        sigma, delta = np.exp(rng.normal(size=(2, 7, 11)))
        got = _sas_kernel(x, mu, sigma, epsilon, delta)
        assert got.shape == (7, 11)
        _assert_matches_reference(got, sas_reference(x, mu, sigma, epsilon, delta))

    def test_overflowing_sinh_square_is_minus_inf(self):
        # w = epsilon at z = 0; sinh(w)^2 / 2 overflows from |w| ~ 355.9 up
        # to the clamp at 700 and beyond it
        w = np.concatenate([np.linspace(356.0, 700.0, 60), [701.0, 1e6]])
        w = np.concatenate([w, -w])
        got = _sas_kernel(1.5, 1.5, 0.3, w, 1.0)
        assert np.all(got == -np.inf)
        assert np.all(sas_reference(1.5, 1.5, 0.3, w, 1.0) == -np.inf)
        assert log_pdf(Family.SINH_ARCSINH, ParamVector(mu=0, sigma=1, epsilon=400, delta=1), 0.0) == -math.inf

    def test_finite_edge_of_sinh_square_matches_reference(self):
        # sinh(w)^2 is finite at |w| = 355.5 and overflows at 355.75, where
        # sinh(w)^2 / 2 is still finite and so is the density
        w = np.array([-355.75, -355.5, 355.5, 355.75])
        got = _sas_kernel(0.0, 0.0, 1.0, w, 1.0)
        assert np.all(np.isfinite(got))
        _assert_matches_reference(got, sas_reference(0.0, 0.0, 1.0, w, 1.0))

    @pytest.mark.parametrize("z", [1e200, -1e200])
    def test_overflowing_z_square_stays_finite(self, z):
        mu, sigma, epsilon, delta = 2.0, 0.5, 0.3, math.exp(-3.0)
        x = np.array([mu + sigma * z])
        got = _sas_kernel(x, mu, sigma, epsilon, delta)
        assert np.isfinite(got).all()
        _assert_matches_reference(got, sas_reference(x, mu, sigma, epsilon, delta))


class TestNormalizationAndReduction:
    @pytest.mark.parametrize("family", list(Family))
    def test_density_integrates_to_one(self, family):
        rng = np.random.default_rng(zlib.crc32(family.value.encode()))
        for _ in range(4):
            params = random_params(family, rng)
            assert density_mass(family, params) == pytest.approx(1.0, abs=1e-6)

    def test_narrow_sinh_arcsinh_peak_integrates_to_one(self):
        # large delta and small sigma: the density is a narrow peak near mu
        p = ParamVector(mu=4.5366, sigma=0.3668, epsilon=-1.0092, delta=2.3870)
        assert density_mass(Family.SINH_ARCSINH, p) == pytest.approx(1.0, abs=1e-6)

    def test_sinh_arcsinh_reduction_grid(self):
        grid = np.linspace(-8, 8, 1000)
        p_sas = ParamVector(mu=0.7, sigma=1.3, epsilon=0, delta=1)
        p_n = ParamVector(mu=0.7, sigma=1.3)
        sas = np.array([log_pdf(Family.SINH_ARCSINH, p_sas, x) for x in grid])
        norm = np.array([log_pdf(Family.NORMAL, p_n, x) for x in grid])
        assert np.max(np.abs(sas - norm)) < 1e-12

    def test_skew_normal_reduction_grid(self):
        grid = np.linspace(-8, 8, 1000)
        p_sn = ParamVector(mu=-0.4, sigma=2.1, epsilon=0)
        p_n = ParamVector(mu=-0.4, sigma=2.1)
        sn = np.array([log_pdf(Family.SKEW_NORMAL, p_sn, x) for x in grid])
        norm = np.array([log_pdf(Family.NORMAL, p_n, x) for x in grid])
        assert np.max(np.abs(sn - norm)) < 1e-12


class TestCdf:
    def test_sinh_arcsinh_median(self):
        p = ParamVector(mu=0, sigma=1, epsilon=0, delta=1)
        assert cdf(Family.SINH_ARCSINH, p, 0.0) == pytest.approx(0.5, abs=1e-12)

    def test_gamma_exponential_special_case(self):
        p = ParamVector(k=1, theta=2)
        assert cdf(Family.GAMMA, p, 2.0) == pytest.approx(1 - math.exp(-1), abs=1e-12)

    def test_sinh_arcsinh_matches_trapezoid_quadrature(self):
        # (mu=2, sigma=3, eps=-0.4, delta=0.8) at x=5; trapezoid over (-200, 5)
        p = ParamVector(mu=2, sigma=3, epsilon=-0.4, delta=0.8)
        grid = np.linspace(-200.0, 5.0, 400001)
        pdf = np.exp(log_pdf_slots(Family.SINH_ARCSINH, grid, *p.require(Family.SINH_ARCSINH)))
        trap = trapezoid(pdf, grid)
        value = cdf(Family.SINH_ARCSINH, p, 5.0)
        assert value == pytest.approx(trap, abs=1e-6)
        assert value == pytest.approx(0.6216641291466677, abs=1e-9)

    @pytest.mark.parametrize("family", list(Family))
    def test_monotone_on_grid(self, family):
        rng = np.random.default_rng(7)
        params = random_params(family, rng)
        if family is Family.BETA:
            grid = np.linspace(0.001, 0.999, 200)
        elif family is Family.GAMMA:
            grid = np.linspace(0.01, 60, 200)
        else:
            grid = np.linspace(-20, 20, 200)
        values = cdf(family, params, grid)
        assert np.all(np.diff(values) >= -1e-14)
        assert np.all((values >= 0) & (values <= 1))

    def test_skew_normal_matches_quadrature_of_the_density(self):
        # quad of exp(log_pdf) from 12 sigma below mu (the mass below it is
        # under 2 Phi(-12) ~ 4e-33), split at mu, where the density bends
        # sharply when |epsilon| is large; quad's default relative tolerance
        # (1.5e-8) would stop short of 1e-10
        rng = np.random.default_rng(29)
        for epsilon in (-20.0, 20.0, *rng.uniform(-20, 20, 8)):
            mu, sigma = rng.uniform(-5, 5), rng.uniform(0.2, 5)
            p = ParamVector(mu=mu, sigma=sigma, epsilon=epsilon)
            density = lambda x: math.exp(log_pdf(Family.SKEW_NORMAL, p, x))
            lo = mu - 12.0 * sigma
            for z in (-8.0, -5.0, -2.0, -0.3, 0.0, 0.4, 2.0, 5.0, 8.0):
                x = mu + z * sigma
                points = [mu] if z > 0 else None
                want = quad(density, lo, x, points=points, epsabs=1e-13, epsrel=1e-13, limit=200)[0]
                assert cdf(Family.SKEW_NORMAL, p, x) == pytest.approx(want, abs=1e-10)


class TestQuantile:
    def test_sinh_arcsinh_median_zero(self):
        p = ParamVector(mu=0, sigma=1, epsilon=0, delta=1)
        assert quantile(Family.SINH_ARCSINH, p, 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_normal_table_value(self):
        p = ParamVector(mu=10, sigma=1)
        assert quantile(Family.NORMAL, p, 0.975) == pytest.approx(11.95996398, abs=1e-7)

    def test_beta_symmetry(self):
        assert quantile(Family.BETA, ParamVector(alpha=2, beta_p=2), 0.5) == pytest.approx(0.5, abs=1e-12)

    def test_out_of_range_probability_raises(self):
        with pytest.raises(DomainError):
            quantile(Family.NORMAL, ParamVector(mu=0, sigma=1), 1.0)

    @pytest.mark.parametrize("family", list(Family))
    def test_round_trip(self, family):
        rng = np.random.default_rng(13)
        params = random_params(family, rng)
        qs = np.linspace(0.01, 0.99, 25)
        for q in qs:
            x = quantile(family, params, float(q))
            assert cdf(family, params, x) == pytest.approx(q, abs=1e-9)

    @pytest.mark.parametrize("epsilon", [-50.0, 50.0])
    def test_skew_normal_round_trip_in_the_far_tails(self, epsilon):
        # the outer two are the smallest double and the largest below 1, whose
        # bisection brackets q / 2 and (1 + q) / 2 round to 0 and 1
        p = ParamVector(mu=1.5, sigma=0.7, epsilon=epsilon)
        qs = np.array([5e-324, 1e-12, 1.0 - 1e-12, 1.0 - 2.0**-53])
        x = quantile(Family.SKEW_NORMAL, p, qs)
        np.testing.assert_allclose(cdf(Family.SKEW_NORMAL, p, x), qs, rtol=0, atol=1e-15)


class TestNdtri:
    """The numpy port of Cephes ndtri against scipy's compiled one."""

    CENTRAL_LO = math.exp(-2.0)

    def test_central_region_bit_for_bit(self):
        u = np.random.default_rng(20).uniform(size=10**6)
        central = u[(u > self.CENTRAL_LO) & (u < 1.0 - self.CENTRAL_LO)]
        assert np.array_equal(_ndtri(central), ndtri(central))

    def test_tails_within_1e15_relative(self):
        rng = np.random.default_rng(21)
        u = rng.uniform(size=10**6)
        tails = u[(u <= self.CENTRAL_LO) | (u >= 1.0 - self.CENTRAL_LO)]
        # beyond x = sqrt(-2 log q) = 8, i.e. q < exp(-32), on both sides
        deep = 10.0 ** -rng.uniform(13.9, 323.0, 10**5)
        q = np.concatenate([tails, deep, 1.0 - deep[deep > 2.0**-53]])
        np.testing.assert_allclose(_ndtri(q), ndtri(q), rtol=1e-15, atol=0)

    def test_edge_inputs(self):
        below, above = np.nextafter(self.CENTRAL_LO, 0.0), np.nextafter(self.CENTRAL_LO, 1.0)
        q = np.array([0.0, 1.0, 5e-324, 1e-300, 1.0 - 2.0**-53, 0.5, math.exp(-32.0),
                      below, self.CENTRAL_LO, above, 1.0 - below, 1.0 - self.CENTRAL_LO, 1.0 - above])
        np.testing.assert_allclose(_ndtri(q), ndtri(q), rtol=1e-15, atol=0)
        assert _ndtri(q)[0] == -np.inf and _ndtri(q)[1] == np.inf

    def test_keeps_shape(self):
        q = np.random.default_rng(22).uniform(size=(40, 25))
        out = _ndtri(q)
        assert out.shape == (40, 25)
        assert np.array_equal(out.ravel(), _ndtri(q.ravel()))
        assert _ndtri(np.array(0.3)).shape == ()

    def test_no_runtime_warning(self):
        q = np.array([0.0, 1.0, 5e-324, 1e-300, 0.5, 1.0 - 2.0**-53])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _ndtri(q)
            _ndtri(q.reshape(2, 3))


def _log_uniform(seed, lo, hi, n=10**6):
    return np.exp(np.random.default_rng(seed).uniform(math.log(lo), math.log(hi), n))


def _assert_close(got, ref, rtol):
    """``got`` equals ``ref`` where ref is +-inf or 0 and lies within rtol * max(1, |ref|) of it elsewhere."""
    exact = np.isinf(ref) | (ref == 0.0)
    assert np.array_equal(got[exact], ref[exact])
    err = np.abs(got[~exact] - ref[~exact]) / np.maximum(1.0, np.abs(ref[~exact]))
    assert err.max(initial=0.0) <= rtol, (err.max(), ref[~exact][np.argmax(err)])


def _around(*values):
    """Each value with its neighbouring doubles below and above."""
    return [v for x in values for v in (np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf))]


def _digamma(x):
    return _digamma_trigamma(x)[0]


def _trigamma(x):
    return _digamma_trigamma(x)[1]


_DIGAMMA_ROOT = 1.4616321449683623
# scipy's lbeta takes Gamma ratios up to a + b = MAXGAM and the gammaln sum above
_MAXGAM = 171.624376956302725


class TestSpecialFunctionPorts:
    """The numpy ports of Cephes erf/erfc, lgam and the psi functions against scipy.special."""

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["positive", "negative"])
    def test_log_ndtr(self, sign):
        x = sign * _log_uniform(30, 1e-3, 1e10)
        _assert_close(_log_ndtr(x), log_ndtr(x), 1e-14)

    @pytest.mark.parametrize(
        "port, ref",
        [(_gammaln, gammaln), (_digamma, digamma), (_trigamma, lambda x: polygamma(1, x))],
        ids=["gammaln", "digamma", "trigamma"],
    )
    def test_gamma_functions(self, port, ref):
        x = _log_uniform(31, 1e-300, 1e300)
        _assert_close(port(x), ref(x), 1e-14)

    def test_betaln(self):
        a, b = _log_uniform(32, 1e-3, 1e4), _log_uniform(33, 1e-3, 1e4)
        got, ref = _betaln(a, b), betaln(a, b)
        ratios = a + b <= _MAXGAM
        _assert_close(got[ratios], ref[ratios], 2e-12)
        # above MAXGAM scipy sums lgam(a) + (lgam(b) - lgam(a + b)), which cancels to a few ulps of
        # lgam(a + b) when one argument is small; the port takes R's lbeta form there, so the
        # reference is that form from scipy's gammaln and Stirling's series for log Gamma(x) -
        # (x - 1/2) log x + x - log sqrt(2 pi) with its exact Bernoulli coefficients (x >= 85.8)
        big = ~ratios
        p, q = np.minimum(a[big], b[big]), np.maximum(a[big], b[big])
        s = p + q
        stirling = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360)
        corr = [sum(c / x ** (2 * k + 1) for k, c in enumerate(stirling)) for x in (q, s)]
        ref = gammaln(p) + (corr[0] - corr[1]) + p - p * np.log(s) + (q - 0.5) * np.log1p(-p / s)
        assert np.all(np.abs(got[big] - ref) <= 4.0 * np.spacing(gammaln(a[big] + b[big])))

    def test_betaln_against_mpmath(self):
        # (a, b, log B(a, b)) from mpmath at 50 digits: one argument large and the other small,
        # where lgam sums cancel (scipy is off by up to 4e-11 relative at these), both sides of
        # the switch at 13 and both arguments large
        cases = np.array([
            (5000.0, 0.1, 1.4010023328325767),
            (4987.5, 0.125, 0.955093065091114),
            (7569.25, 0.1875, -0.08239683336833327),
            (1e4, 1e-3, 6.897968594962708),
            (9999.0, 0.999, -9.200452038121817),
            (1e6, 3.0, -40.75338749333038),
            (2000.0, 0.5, -3.2280237868469923),
            (572.0, 9.0, -46.600275619456035),
            (300.0, 2.5, -13.981009470523917),
            (50.0, 1e-3, 6.903276885609827),
            (13.0, 0.5, -0.7004967176581149),
            (12.75, 0.5, -0.6905992795525704),
            (13.0, 13.0, -18.02917623165675),
            (200.0, 150.0, -240.32367373916216),
            (1e4, 1e4, -13866.28325676141),
            (0.5, 0.5, 1.1447298858494002),
        ])
        a, b, ref = cases.T
        for got in (_betaln(a, b), _betaln(b, a)):
            np.testing.assert_allclose(got, ref, rtol=1e-14, atol=0)

    def test_ndtr(self):
        x = np.concatenate([np.random.default_rng(34).normal(0.0, 10.0, 10**6),
                            _around(-1.0, 1.0, 2**0.5, -(2**0.5), 8 * 2**0.5, -8 * 2**0.5, -37.5, -38.5)])
        got, ref = _ndtr(x), ndtr(x)
        exact = (ref == 0.0) | (ref == 1.0)
        assert np.array_equal(got[exact], ref[exact])
        np.testing.assert_allclose(got, ref, rtol=1e-15, atol=np.finfo(float).tiny)

    def test_edge_inputs(self):
        # x = -1 and 1, both sides of |x| = sqrt(2) (erf to erfc), 8 sqrt(2) (P/Q to R/S) and of
        # the erfc underflow, the infinities
        x = np.array([-1.0, 1.0, *_around(2**0.5, -(2**0.5), 8 * 2**0.5, -8 * 2**0.5, 37.7, -37.7),
                      0.0, -1e300, 1e300, -np.inf, np.inf])
        _assert_close(_log_ndtr(x), log_ndtr(x), 1e-14)
        # lgam's recurrence onto [2, 3), its Stirling series from 13 and the shorter one from
        # 1000, overflow past MAXLGM; the psi recurrence up to 10 and digamma's root
        g = np.array([*_around(1.0, 2.0, 3.0, 10.0, 13.0, 1000.0, 2.556348e305), _DIGAMMA_ROOT, 0.5, 1e-300,
                      np.inf])
        for port, ref in ((_gammaln, gammaln), (_digamma, digamma), (_trigamma, lambda v: polygamma(1, v))):
            _assert_close(port(g), ref(g), 1e-14)
        assert _gammaln(np.array([1.0, 2.0])).tolist() == [0.0, 0.0]
        a = np.array([*_around(_MAXGAM / 2), 1e-3, 1e4, 0.5])
        _assert_close(_betaln(a, a[::-1]), betaln(a, a[::-1]), 2e-12)

    @pytest.mark.parametrize("port", [_log_ndtr, _ndtr, _gammaln, _digamma, _trigamma, _betaln])
    def test_keeps_shape(self, port):
        args = (lambda x: (x, x + 1.0)) if port is _betaln else (lambda x: (x,))
        x = np.linspace(0.5, 30.0, 60).reshape(6, 10)
        out = port(*args(x))
        assert out.shape == (6, 10)
        assert np.array_equal(out.ravel(), port(*args(x.ravel())))
        assert np.shape(port(*args(np.array(2.5)))) == ()

    def test_no_runtime_warning(self):
        x = np.array([-np.inf, -1e300, -40.0, -1.0, 0.0, 1.0, 40.0, 1e300, np.inf, np.nan])
        g = np.array([0.0, 5e-324, 1e-300, 1.0, 12.5, 13.0, 1e300, np.inf, np.nan])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for port in (_log_ndtr, _ndtr):
                assert np.isnan(port(x)[-1])
            for port in (_gammaln, _digamma, _trigamma):
                assert np.isnan(port(g)[-1])
            _betaln(g[1:-2], g[1:-2][::-1])


# Evaluates cdf and quantile for the families named on the command line (all
# when none is) and prints the scipy modules loaded by then.
_CDF_QUANTILE_PROBE = """
import json, sys
from agemix.distributions import Family, ParamVector, cdf, quantile
params = {
    Family.NORMAL: ParamVector(mu=0.5, sigma=2.0),
    Family.SKEW_NORMAL: ParamVector(mu=0.5, sigma=2.0, epsilon=3.0),
    Family.GAMMA: ParamVector(k=2.0, theta=1.5),
    Family.BETA: ParamVector(alpha=2.0, beta_p=3.0),
    Family.SINH_ARCSINH: ParamVector(mu=0.5, sigma=2.0, epsilon=0.3, delta=1.2),
}
for family, p in params.items():
    if sys.argv[1:] and family.value not in sys.argv[1:]:
        continue
    cdf(family, p, 0.4)
    cdf(family, p, [0.2, 0.4, 0.6])
    quantile(family, p, 0.3)
    quantile(family, p, [0.1, 0.5, 0.9])
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def _cdf_quantile_scipy_modules(cwd, *families) -> list[str]:
    """scipy modules a fresh process (this one imported scipy long ago) has loaded after
    ``cdf`` and ``quantile`` of ``families`` (all when none is given)."""
    src = str(Path(agemix.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", _CDF_QUANTILE_PROBE, *(f.value for f in families)], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestScipyImports:
    def test_cdf_and_quantile_load_no_integrate_or_optimize(self, tmp_path):
        loaded = _cdf_quantile_scipy_modules(tmp_path)
        assert "scipy.special" in loaded
        assert [m for m in loaded if m.startswith(("scipy.integrate", "scipy.optimize"))] == []

    def test_normal_and_sinh_arcsinh_load_no_scipy(self, tmp_path):
        # their CDFs take the ported ndtr and their quantiles the ported ndtri
        assert _cdf_quantile_scipy_modules(tmp_path, Family.NORMAL, Family.SINH_ARCSINH) == []


class TestSample:
    def test_normal_mean(self):
        x = sample(Family.NORMAL, ParamVector(mu=0, sigma=1), 100_000, seed=42)
        assert abs(x.mean()) < 0.02

    def test_gamma_mean(self):
        x = sample(Family.GAMMA, ParamVector(k=3, theta=1), 100_000, seed=42)
        assert abs(x.mean() - 3.0) < 0.05

    def test_deterministic_given_seed(self):
        p = ParamVector(mu=1, sigma=2, epsilon=0.3, delta=1.2)
        a = sample(Family.SINH_ARCSINH, p, 1000, seed=5)
        b = sample(Family.SINH_ARCSINH, p, 1000, seed=5)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("family", list(Family))
    def test_ks_against_cdf(self, family):
        rng = np.random.default_rng(3)
        params = random_params(family, rng)
        x = np.sort(sample(family, params, 10_000, seed=17))
        assert ks_statistic(x, cdf(family, params, x)) < 0.02


class TestSkewnessDirection:
    def test_direction_constant_and_flips_with_epsilon(self):
        # Direction under this parametrisation (recorded, not asserted from
        # first principles): positive epsilon -> negative sample skewness.
        for eps in (0.8, -0.8):
            signs = []
            for seed in (1, 2, 3):
                p = ParamVector(mu=0, sigma=1, epsilon=eps, delta=1)
                x = sample(Family.SINH_ARCSINH, p, 100_000, seed=seed)
                signs.append(math.copysign(1.0, empirical_moments(x).skewness))
            assert len(set(signs)) == 1
            assert signs[0] == (-1.0 if eps > 0 else 1.0)


class TestEmpiricalMoments:
    def test_hand_case(self):
        m = empirical_moments([1, 2, 3, 4, 5])
        assert m.mean == pytest.approx(3.0)
        assert m.sd == pytest.approx(math.sqrt(2), abs=1e-12)
        assert m.skewness == pytest.approx(0.0, abs=1e-12)
        assert m.kurtosis == pytest.approx(1.7, abs=1e-12)

    def test_degenerate_marks_na(self):
        m = empirical_moments([4.2, 4.2, 4.2])
        assert m.mean == pytest.approx(4.2)
        assert m.sd == 0.0
        assert math.isnan(m.skewness) and math.isnan(m.kurtosis)

    def test_symmetric_sample_zero_skew(self):
        assert empirical_moments([-1, 0, 1]).skewness == pytest.approx(0.0, abs=1e-12)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            empirical_moments([])

    def test_single_value(self):
        m = empirical_moments([2.0])
        assert m.mean == 2.0 and math.isnan(m.sd)
