import math
import random

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gammasd import (
    GammaParams,
    SdSummary,
    log_gamma,
    precision_moments,
    precision_pdf,
    sd_moments,
    sd_pdf,
)
from gammasd.distributions import _g
from mp_oracle import (
    g as mp_g,
    log_precision_pdf as mp_log_precision_pdf,
    sd_moments as mp_sd_moments,
    sd_pdf as mp_sd_pdf,
)
from quadrature import integrate
from records import PATHS, build

SQRT_HALF_PI = math.sqrt(math.pi / 2.0)


class TestGammaParams:
    @pytest.mark.parametrize("a, b", [(0.0, 1.0), (-2.0, 1.0), (1.0, 0.0), (1.0, -3.0), (math.nan, 1.0), (1.0, math.inf)])
    def test_rejects_invalid(self, a, b):
        for path in PATHS:
            with pytest.raises(ValueError):
                build(GammaParams, (a, b), path, GammaParams(2.0, 2.0))

    def test_accepts_small_shape(self):
        # densities are defined for all a > 0; only moments need a > 1
        GammaParams(0.3, 1.0)


class TestSdSummary:
    @pytest.mark.parametrize("mu, sigma", [(0.0, 1.0), (1.0, 0.0), (-1.0, 1.0), (1.0, math.nan)])
    def test_rejects_invalid(self, mu, sigma):
        for path in PATHS:
            with pytest.raises(ValueError):
                build(SdSummary, (mu, sigma), path, SdSummary(1.0, 1.0))


class TestPrecisionPdf:
    def test_unit_exponential(self):
        assert precision_pdf(1.0, GammaParams(1.0, 1.0)) == pytest.approx(
            math.exp(-1.0), rel=1e-14
        )

    def test_direct_value(self):
        assert precision_pdf(1.0, GammaParams(2.0, 2.0)) == pytest.approx(
            4.0 * math.exp(-2.0), rel=1e-14
        )

    @pytest.mark.parametrize("p", [0.0, -0.5])
    def test_outside_support(self, p):
        assert precision_pdf(p, GammaParams(2.0, 2.0)) == 0.0

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
    def test_zero_at_infinity(self, a):
        # the densities share one guard; (a - 1) log(p) - p b alone is inf - inf there
        for density in (precision_pdf, sd_pdf):
            assert density(math.inf, GammaParams(a, 2.0)) == 0.0
            assert density(-math.inf, GammaParams(a, 2.0)) == 0.0

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
    def test_nan_propagates(self, a):
        for density in (precision_pdf, sd_pdf):
            assert math.isnan(density(math.nan, GammaParams(a, 2.0)))

    def test_large_shape_no_overflow(self):
        # b^a would overflow without log-space evaluation
        value = precision_pdf(1.0, GammaParams(500.0, 500.0))
        assert math.isfinite(value) and value > 0.0


class TestBeyondLogGammaRange:
    # log_gamma(a) is +inf above about 2.56e305; the densities must not be nan
    FITTED = GammaParams(2.5e307, 2.5e307)  # fit_prior(1, 1e-154)

    @pytest.mark.parametrize("p, params", [(5e305, GammaParams(1e306, 2.0)), (1.0, FITTED),
                                           (4e305, GammaParams(1e306, 2.0)), (1.5, FITTED)])
    def test_precision_pdf_against_mpmath(self, p, params):
        with mpmath.workdps(400):
            expected = float(mpmath.exp(mp_log_precision_pdf(p, *params)))
        assert precision_pdf(p, params) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("s, params", [(1.0, FITTED), (0.5, FITTED), (1.5, FITTED),
                                           (1.0, GammaParams(1e308, 1e308))])
    def test_sd_pdf_against_mpmath(self, s, params):
        # at 1e308, log(b/s^2) is past sd_pdf's underflow cut
        with mpmath.workdps(400):
            expected = float(mp_sd_pdf(s, *params))
        assert sd_pdf(s, params) == pytest.approx(expected, rel=1e-14)

    def test_tiny_sd_at_the_peak(self):
        # b/s^2 = a at s = 1e-155, where s * s is subnormal and has lost digits
        params = GammaParams(1e306, 1e306 * 1e-155 * 1e-155)
        assert params.b / 1e-155 / 1e-155 == params.a
        assert sd_pdf(1e-155, params) == 2.0 * math.sqrt(1e306 / math.tau) / 1e-155


class TestLargeFiniteShape:
    @pytest.mark.xfail(strict=True, reason="a log b, lgamma(a), (a - 1) log p and b p "
                       "reach about 4.5e21 and cancel to O(log a) in doubles")
    def test_precision_pdf_at_the_mode(self):
        # the density at the mode of Gamma(1e20, 1e20) is about 3.99e9; doubles give 1.0
        params = GammaParams(1e20, 1e20)
        with mpmath.workdps(400):
            expected = float(mpmath.exp(mp_log_precision_pdf(1.0, *params)))
        assert precision_pdf(1.0, params) == pytest.approx(expected, rel=1e-4)


class TestPastDoubleRange:
    @pytest.mark.parametrize("density, x, params", [
        # log density 732.4: the density, about 1.3e318, is past the largest double
        (precision_pdf, 5e-324, GammaParams(0.01, 1.0)),
        # a log b and lgamma(a) near 1.8e308 cancel to a spurious 9e291
        (precision_pdf, 2.54e5, GammaParams(2.54e305, 1e300)),
        (sd_pdf, 1.0 / math.sqrt(2.54e5), GammaParams(2.54e305, 1e300)),
        # a log b overflows while lgamma(a) does not: the log density is +inf
        (precision_pdf, 1.5e-3, GammaParams(2.55e305, 1.7e308)),
    ])
    def test_raises_value_error(self, density, x, params):
        with pytest.raises(ValueError, match="outside the double range"):
            density(x, params)

    def test_overflowed_rate_term_gives_zero(self):
        # b p is +inf, and so is (a - 1) log p: e^-(b p) underflows past the rest
        assert precision_pdf(1.7e308, GammaParams(2.55e305, 10.0)) == 0.0


class TestAtForwardSpread:
    def test_against_mpmath(self):
        # shapes, rates and points as the forward benchmark draws them:
        # log-uniform a in [1.1, 1e4] and b in [1e-4, 1e4], p within 3 prior SDs
        rng = random.Random(20261019)
        worst_p = worst_s = 0.0
        for _ in range(600):
            a = 10.0 ** rng.uniform(math.log10(1.1), 4.0)
            b = 10.0 ** rng.uniform(-4.0, 4.0)
            p = (a / b) * math.exp(rng.uniform(-3.0, 3.0) / math.sqrt(a))
            s = 1.0 / math.sqrt(p)
            params = GammaParams(a, b)
            with mpmath.workdps(40):
                want_p = mpmath.exp(mp_log_precision_pdf(p, a, b))
                want_s = mp_sd_pdf(s, a, b)
                worst_p = max(worst_p, float(abs(precision_pdf(p, params) / want_p - 1)))
                worst_s = max(worst_s, float(abs(sd_pdf(s, params) / want_s - 1)))
        assert worst_p < 1e-10 and worst_s < 1e-10


class TestKernelG:
    def test_lgamma_branch_against_mpmath(self):
        # g(x) = Gamma(x + 1)^2 / Gamma(x + 1/2)^2 - x; below x = 10 it comes
        # from lgamma, worst near x = 10 (6.8e-13 in 140000 seeded draws)
        rng = random.Random(20261020)
        worst = 0.0
        with mpmath.workdps(50):
            for _ in range(2000):
                x = rng.uniform(1e-9, 10.0)
                want = mp_g(x)
                worst = max(worst, float(abs(_g(x) - want) / want))
        assert worst < 1e-12, worst


class TestPrecisionMoments:
    @pytest.mark.parametrize(
        "a, b, mean, var",
        [(2.0, 2.0, 1.0, 0.5), (1.0, 1.0, 1.0, 1.0), (3.0, 6.0, 0.5, 1.0 / 12.0),
         (1e-300, 1e-160, 1e-140, 1e20)],  # b * b underflows
    )
    def test_values(self, a, b, mean, var):
        got_mean, got_var = precision_moments(GammaParams(a, b))
        assert got_mean == pytest.approx(mean, rel=1e-14)
        assert got_var == pytest.approx(var, rel=1e-14)


class TestSdPdf:
    def test_direct_values(self):
        assert sd_pdf(1.0, GammaParams(2.0, 2.0)) == pytest.approx(
            8.0 * math.exp(-2.0), rel=1e-14
        )
        assert sd_pdf(1.0, GammaParams(1.0, 1.0)) == pytest.approx(
            2.0 * math.exp(-1.0), rel=1e-14
        )

    @pytest.mark.parametrize("s", [0.0, -1.0])
    def test_outside_support(self, s):
        assert sd_pdf(s, GammaParams(2.0, 2.0)) == 0.0

    def test_tiny_argument_underflows_to_zero(self):
        assert sd_pdf(1e-200, GammaParams(2.0, 2.0)) == 0.0
        # b/s^2 is +inf, and so is (2a + 1) log(1/s): the log density is inf - inf
        assert sd_pdf(1e-200, GammaParams(2e305, 1.0)) == 0.0

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0, 5.0, 20.0])
    @pytest.mark.parametrize("b", [0.1, 1.0, 10.0])
    def test_normalisation(self, a, b):
        params = GammaParams(a, b)
        r = integrate(
            lambda s: sd_pdf(s, params), 0.0, math.inf, 1e-8, max_subdivisions=20000
        )
        assert r.value == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("a, b", [(2.0, 2.0), (5.0, 1.0), (1.5, 10.0)])
    @pytest.mark.parametrize("x", [0.1, 1.0, 10.0])
    def test_change_of_variables_cdf_identity(self, a, b, x):
        # P(p <= x) = P(s >= 1/sqrt(x)) under s = 1/sqrt(p)
        params = GammaParams(a, b)
        lhs = integrate(lambda q: precision_pdf(q, params), 0.0, x, 1e-8).value
        rhs = integrate(
            lambda s: sd_pdf(s, params), 1.0 / math.sqrt(x), math.inf, 1e-8
        ).value
        assert lhs == pytest.approx(rhs, abs=1e-6)


class TestSdMoments:
    def test_closed_form_a2_b2(self):
        summary = sd_moments(GammaParams(2.0, 2.0))
        assert summary.mu == pytest.approx(SQRT_HALF_PI, rel=1e-14)
        assert summary.sigma == pytest.approx(math.sqrt(2.0 - math.pi / 2.0), rel=1e-14)

    def test_large_shape_against_quadrature(self):
        params = GammaParams(100.0, 100.0)
        summary = sd_moments(params)
        mean = integrate(
            lambda s: s * sd_pdf(s, params), 0.0, math.inf, 1e-12, max_subdivisions=20000
        ).value
        assert summary.mu == pytest.approx(mean, rel=1e-8)
        assert summary.mu == pytest.approx(1.00377, rel=1e-5)

    @pytest.mark.parametrize("a, b", [(1.5, 0.5), (2.0, 2.0), (5.0, 1.0), (20.0, 3.0), (100.0, 100.0)])
    def test_oracle_agreement(self, a, b):
        params = GammaParams(a, b)
        summary = sd_moments(params)
        m1 = integrate(
            lambda s: s * sd_pdf(s, params), 0.0, math.inf, 1e-12, max_subdivisions=20000
        ).value
        m2 = integrate(
            lambda s: s * s * sd_pdf(s, params), 0.0, math.inf, 1e-12, max_subdivisions=20000
        ).value
        assert summary.mu == pytest.approx(m1, rel=1e-8)
        assert summary.sigma**2 == pytest.approx(m2 - m1 * m1, rel=1e-8)

    def test_against_mpmath_up_to_large_shapes(self):
        # 1/(a - 1) - S(a) loses about log10(4a) digits to cancellation,
        # which a kernel that subtracts the two would show at large a
        bad = []
        for i in range(60):
            a = 1.01 * (1e12 / 1.01) ** (i / 59)
            got = sd_moments(GammaParams(a, 2.5))
            mu, sigma = mp_sd_moments(a, 2.5)
            if not (abs(got.mu - mu) <= 1e-10 * mu
                    and abs(got.sigma - sigma) <= 1e-10 * sigma):
                bad.append(a)
        assert not bad

    @pytest.mark.parametrize("a", [1.0, 0.5, 0.99])
    def test_validity_boundary(self, a):
        with pytest.raises(ValueError, match="a <= 1"):
            sd_moments(GammaParams(a, 1.0))

    def test_mean_does_not_commute_with_mapping(self):
        # E[1/sqrt(p)] differs from 1/sqrt(E[p])
        params = GammaParams(2.0, 2.0)
        naive = 1.0 / math.sqrt(precision_moments(params)[0])
        assert abs(sd_moments(params).mu - naive) > 0.25

    @settings(max_examples=50, deadline=None)
    @given(
        a=st.floats(min_value=1.001, max_value=500.0),
        b=st.floats(min_value=1e-4, max_value=1e4),
    )
    def test_moments_positive_and_finite(self, a, b):
        summary = sd_moments(GammaParams(a, b))
        assert summary.mu > 0.0 and math.isfinite(summary.mu)
        assert summary.sigma > 0.0 and math.isfinite(summary.sigma)

    def test_mu_strictly_decreasing_in_shape(self):
        values = [
            sd_moments(GammaParams(1.0 + (99.0 * i / 99.0) + 1e-6, 1.0)).mu
            for i in range(100)
        ]
        assert all(x > y for x, y in zip(values, values[1:]))


class TestLogGamma:
    # References: lgamma(1.5) from Gamma(1.5) = sqrt(pi)/2,
    # lgamma(10) = ln(9!) = ln 362880; both confirmed by mpmath.
    @pytest.mark.parametrize(
        "x, expected",
        [
            (1.0, 0.0),
            (2.0, 0.0),
            (1.5, -0.120782237635245),
            (10.0, 12.801827480081469),
        ],
    )
    def test_reference_values(self, x, expected):
        assert log_gamma(x) == pytest.approx(expected, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize(
        "x", [1e-3, 0.1, 0.25, 0.5, 0.75, 3.25, 42.0, 1e3, 1e6, 1e306]
    )
    def test_against_high_precision(self, x):
        with mpmath.workdps(30):
            assert log_gamma(x) == pytest.approx(
                float(mpmath.loggamma(x)), rel=1e-12, abs=1e-12
            )

    def test_recurrence(self):
        # ln Gamma(x+1) = ln Gamma(x) + ln x
        rng = random.Random(20240817)
        for _ in range(1000):
            x = rng.uniform(0.5, 100.0)
            lhs = log_gamma(x + 1.0)
            rhs = log_gamma(x) + math.log(x)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_deterministic(self):
        assert log_gamma(17.3) == log_gamma(17.3)

    @pytest.mark.parametrize("x", [0.0, -1.0, -0.5])
    def test_domain_error(self, x):
        with pytest.raises(ValueError):
            log_gamma(x)
