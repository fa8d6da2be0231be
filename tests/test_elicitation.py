import math
import random

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gammasd import (
    BRACKET_EPS,
    GammaParams,
    S,
    fit_prior,
    objective,
    residual_D,
    sd_moments,
    upper_bound_a,
)
from gammasd import elicitation
from mp_oracle import sd_moments as mp_sd_moments

# Forward map of (a, b) = (2, 2)
MU_22 = 1.2533141373155003
SIGMA_22 = 0.6551363775620335


def bisect_root(mu0, sigma0):
    """Independent bisection of residual_D on the analytic bracket."""
    lo, hi = 1.0 + BRACKET_EPS, upper_bound_a(mu0, sigma0)
    d_lo = residual_D(lo, mu0, sigma0)
    d_hi = residual_D(hi, mu0, sigma0)
    assert d_lo * d_hi < 0.0, "endpoints do not bracket a sign change"
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return mid
        if d_lo * residual_D(mid, mu0, sigma0) <= 0.0:
            hi = mid
        else:
            lo = mid


class TestS:
    def test_gamma_ratio_values(self):
        # Gamma(1.5) = sqrt(pi)/2, Gamma(2) = 1
        assert S(2.0) == pytest.approx(math.pi / 4.0, rel=1e-14)
        assert S(1.5) == pytest.approx(4.0 / math.pi, rel=1e-14)

    def test_large_argument_matches_series(self):
        assert S(1000.0) == pytest.approx(1.0007505316017789e-3, rel=1e-12)

    @pytest.mark.parametrize("a", [1.0, 0.5, -1.0])
    def test_domain(self, a):
        with pytest.raises(ValueError):
            S(a)

    def test_positive(self):
        for a in [1.0 + 1e-9, 1.1, 2.0, 50.0, 5000.0]:
            assert S(a) > 0.0


class TestResidualD:
    def test_zero_at_consistent_target(self):
        assert residual_D(2.0, MU_22, SIGMA_22) == pytest.approx(0.0, abs=1e-9)

    def test_sign_change_brackets_the_root(self):
        # D decreases through its root: positive below a0 = 2, negative above
        assert residual_D(1.5, MU_22, SIGMA_22) > 0.0
        assert residual_D(3.0, MU_22, SIGMA_22) < 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            residual_D(1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            residual_D(2.0, -1.0, 1.0)
        with pytest.raises(ValueError):
            residual_D(2.0, 1.0, 0.0)


class TestObjective:
    def test_zero_at_root(self):
        assert objective(2.0, MU_22, SIGMA_22) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("a", [1.2, 1.8, 2.5, 2.2])
    def test_positive_away_from_root(self, a):
        assert objective(a, MU_22, SIGMA_22) > 0.0

    def test_compositional_consistency(self):
        d = residual_D(1.5, 1.0, 1.0)
        value = objective(1.5, 1.0, 1.0)
        assert value == pytest.approx(math.log(d * d + 1.0), rel=1e-12)
        assert value > 0.0


class TestUpperBoundA:
    def test_unit_ratio(self):
        # ratio 1 gives (1 + sqrt(100) + 1) / 8
        assert upper_bound_a(1.0, 1.0) == pytest.approx(1.5, rel=1e-14)

    def test_forward_example(self):
        assert upper_bound_a(MU_22, SIGMA_22) == pytest.approx(2.5405650265, rel=1e-9)

    @settings(max_examples=50, deadline=None)
    @given(c=st.floats(min_value=1e-6, max_value=1e6))
    def test_scale_invariance(self, c):
        assert upper_bound_a(c, c) == pytest.approx(1.5, rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            upper_bound_a(0.0, 1.0)
        with pytest.raises(ValueError):
            upper_bound_a(1.0, -1.0)


class TestFitPrior:
    def test_recovers_a2_b2(self):
        fit = fit_prior(1.253314137, 0.655136377)
        assert fit.converged
        assert fit.params.a == pytest.approx(2.0, rel=1e-6)
        assert fit.params.b == pytest.approx(2.0, rel=1e-6)
        assert fit.objective_at_min < 1e-12
        assert fit.params.a > 1.0

    def test_scaled_target(self):
        # scaling (mu, sigma) by c keeps a and scales b by c^2
        fit = fit_prior(10.0 * 1.253314137, 10.0 * 0.655136377)
        assert fit.converged
        assert fit.params.a == pytest.approx(2.0, rel=1e-6)
        assert fit.params.b == pytest.approx(200.0, abs=1e-4)

    def test_round_trip_fields_recomputed(self):
        fit = fit_prior(MU_22, SIGMA_22)
        recomputed = sd_moments(fit.params)
        assert fit.round_trip == recomputed
        assert fit.round_trip_rel_err[0] == pytest.approx(
            abs(recomputed.mu - MU_22) / MU_22, rel=1e-12, abs=1e-16
        )

    def test_infeasible_bracket(self):
        # sigma/mu so large that a0 - 1 (about 3e-17) rounds away beside 1
        with pytest.raises(ValueError, match="infeasible"):
            fit_prior(1.0, 1e8)

    @pytest.mark.parametrize(
        "ratio, tol",
        [
            (1e5, 1e-6),     # beyond upper_bound_a's range (about 1.79e4)
            (1e6, 1e-3),     # a0 - 1 = 3e-13 keeps only ~4 digits in a0
            (1e-100, 1e-12), # upper_bound_a overflows below about 1e-77
        ],
    )
    def test_extreme_ratio_round_trips_against_mpmath(self, ratio, tol):
        fit = fit_prior(1.0, ratio)
        assert fit.converged
        mu, sigma = mp_sd_moments(fit.params.a, fit.params.b)
        assert abs(mu - 1.0) <= tol and abs(sigma - ratio) <= tol * ratio

    def test_nonconvergence_is_reported_not_raised(self, monkeypatch):
        monkeypatch.setattr(elicitation, "_MAX_ITER", 1)
        fit = fit_prior(MU_22, SIGMA_22)
        assert not fit.converged
        assert fit.iterations == 1
        assert math.isfinite(fit.round_trip_rel_err[0])

    def test_invalid_targets(self):
        with pytest.raises(ValueError):
            fit_prior(-1.0, 1.0)
        with pytest.raises(ValueError):
            fit_prior(1.0, math.nan)

    @pytest.mark.parametrize("c", [1e-2, 1.0, 1e2])
    def test_scale_equivariance(self, c):
        base = fit_prior(MU_22, SIGMA_22)
        scaled = fit_prior(c * MU_22, c * SIGMA_22)
        assert scaled.params.a == pytest.approx(base.params.a, abs=1e-8)
        assert scaled.params.b == pytest.approx(c * c * base.params.b, rel=1e-6)

    @pytest.mark.parametrize("k", [-250, -40, 40, 250])
    def test_scale_equivariance_is_exact(self, k):
        # scaling by 2^k leaves sigma/mu bit-identical, so a0 must be too
        c = 2.0**k
        base = fit_prior(MU_22, SIGMA_22)
        scaled = fit_prior(c * MU_22, c * SIGMA_22)
        assert scaled.params.a == base.params.a
        assert scaled.params.b == 4.0**k * base.params.b

    @pytest.mark.parametrize("mu, tol", [(1e-158, 1e-7), (1e-152, 1e-15)])
    def test_rate_at_tiny_scale_with_tiny_shape(self, mu, tol):
        # sigma/mu = 1e5 puts a0 - 1 near 3e-11; b0 near mu^2/pi must not
        # underflow on the way, even where it is subnormal (3.2e-317 at
        # mu = 1e-158, which keeps about 7 digits)
        fit = fit_prior(mu, 1e5 * mu)
        assert fit.converged
        assert fit.round_trip_rel_err[0] <= tol

    def test_rate_round_trips_mu_to_rounding(self):
        # b0 inverts mu^2 = b S(a) exactly as sd_moments evaluates it
        worst = 0.0
        for mu in (1e-150, 1e-3, 1.0, 1e3, 1e150):
            for i in range(2001):
                fit = fit_prior(mu, 10.0 ** (-4 + 10 * i / 2000) * mu)
                worst = max(worst, fit.round_trip_rel_err[0])
        assert worst <= 4e-15

    def test_rate_meets_forward_mean_at_returned_shape(self):
        # b0 = mu0^2 (x + g) at x = a0 - 1, the same x + g that S(a0) inverts
        rng = random.Random(20211118)
        worst = 0.0
        for _ in range(4000):
            mu = 10.0 ** rng.uniform(-4.0, 4.0)
            fit = fit_prior(mu, 10.0 ** rng.uniform(-4.0, 6.0) * mu)
            worst = max(worst, abs(fit.params.b * S(fit.params.a) / (mu * mu) - 1.0))
        assert worst <= 1e-15

    @pytest.mark.parametrize("scale", [1e-100, 1.0, 1e100])
    def test_objective_at_min_is_dimensionless(self, scale):
        # log1p(h0^2) of the dimensionless residual h0: tiny at any scale
        fit = fit_prior(scale, scale)
        assert fit.converged
        assert fit.objective_at_min < 1e-24

    def test_log_gamma_calls_follow_iterations(self, monkeypatch):
        # Every gamma ratio goes through the kernel _g: the solve evaluates
        # it iterations + 1 times, and _sd_shape_factors once more at the
        # returned a0 for b0, the round trip and h0. Over sigma/mu in
        # [1e-4, 1.7e4] at most six evaluations are needed.
        import gammasd.distributions

        calls = 0
        real = gammasd.distributions._g

        def counting(x):
            nonlocal calls
            calls += 1
            return real(x)

        monkeypatch.setattr(elicitation, "_g", counting)
        monkeypatch.setattr(gammasd.distributions, "_g", counting)
        n = 200
        for i in range(n):
            ratio = 1e-4 * (1.7e4 / 1e-4) ** (i / (n - 1))
            calls = 0
            fit = fit_prior(1.0, ratio)
            assert fit.converged, ratio
            assert calls == (fit.iterations + 1) + 1, ratio
            assert fit.iterations + 1 <= 6, ratio

    def test_every_call_solves(self, monkeypatch):
        # fit_prior keeps no memo: two identical calls cost twice the
        # kernel evaluations of one
        import gammasd.distributions

        calls = 0
        real = gammasd.distributions._g

        def counting(x):
            nonlocal calls
            calls += 1
            return real(x)

        monkeypatch.setattr(elicitation, "_g", counting)
        monkeypatch.setattr(gammasd.distributions, "_g", counting)
        fit_prior(1.0, 0.5)
        one, calls = calls, 0
        fit_prior(1.0, 0.5)
        fit_prior(1.0, 0.5)
        assert one > 0 and calls == 2 * one

    def test_round_trip_is_sd_moments_of_params(self):
        # the scale step's round trip is sd_moments, bit for bit
        rng = random.Random(20210117)
        checked = 0
        for _ in range(500):
            mu = 10.0 ** rng.uniform(-160.0, 160.0)
            try:
                fit = fit_prior(mu, mu * 10.0 ** rng.uniform(-170.0, 9.0))
            except ValueError:
                continue
            assert sd_moments(fit.params) == fit.round_trip
            checked += 1
        assert checked > 250


class TestAgainstIndependentOracles:
    def test_upper_bound_brackets_root_on_grid(self):
        # 50 x 50 log grid over the robust operating region: the residual
        # must change sign between the bracket endpoints
        n = 50
        for i in range(n):
            mu = 2e-3 * (1e4 / 2e-3) ** (i / (n - 1))
            for j in range(n):
                ratio = 3e-3 * (50.0 / 3e-3) ** (j / (n - 1))
                sigma = ratio * mu
                d_lo = residual_D(1.0 + BRACKET_EPS, mu, sigma)
                d_hi = residual_D(upper_bound_a(mu, sigma), mu, sigma)
                assert (
                    d_lo * d_hi < 0.0 or abs(d_lo) < 1e-9 or abs(d_hi) < 1e-9
                ), f"no bracket at mu={mu}, sigma/mu={ratio}"

    def test_fit_matches_bisection_root(self):
        # Neither the bisection of residual_D nor the fit subtracts nearly
        # equal terms, so both locate the root to the kernel's rounding.
        rng = random.Random(1234)
        for _ in range(150):
            mu = math.exp(rng.uniform(math.log(2e-3), math.log(1e4)))
            ratio = math.exp(rng.uniform(math.log(3e-3), math.log(50.0)))
            sigma = ratio * mu
            root = bisect_root(mu, sigma)
            fit = fit_prior(mu, sigma)
            assert abs(fit.params.a - root) <= 1e-12 * root, (mu, ratio, root, fit.params.a)

    def test_a0_matches_mpmath_root(self):
        # x0 = a0 - 1 is the root of g(x) = r^2 x, with
        # g(x) = Gamma(x + 1)^2 / Gamma(x + 1/2)^2 - x, here found at 50
        # digits from the fit's own x0 over 401 log-spaced r in [1e-4, 1e6].
        # a0 itself is compared: at r = 1e6, a0 - 1 = 3.2e-13 keeps only the
        # digits that the rounding of a0 = 1 + x0 leaves. The worst error
        # measured is 2.81e-13, at r = 0.168.
        worst = 0.0
        with mpmath.workdps(50):
            for k in range(401):
                r = 10.0 ** (-4.0 + k / 40.0)
                a0 = fit_prior(1.0, r).params.a
                r2 = mpmath.mpf(r) ** 2

                def shape_equation(x):
                    return (mpmath.gamma(x + 1) / mpmath.gamma(x + 0.5)) ** 2 - x - r2 * x

                root = 1 + mpmath.findroot(shape_equation, mpmath.mpf(a0) - 1)
                worst = max(worst, float(abs(a0 - root) / root))
        assert worst < 5e-13, worst

    def test_round_trip_identity_grid(self):
        # 20 x 20 log grid over (a, b); the fit must recover the pair
        for i in range(20):
            a = 1.2 * (500.0 / 1.2) ** (i / 19.0)
            for j in range(20):
                b = 1e-4 * (1e4 / 1e-4) ** (j / 19.0)
                target = sd_moments(GammaParams(a, b))
                fit = fit_prior(target.mu, target.sigma)
                rel_a = abs(fit.params.a - a) / a
                rel_b = abs(fit.params.b - b) / b
                assert rel_a < 1e-2 and rel_b < 1e-2, (a, b, rel_a, rel_b)
                assert rel_a < 1e-6 and rel_b < 1e-6, (a, b, rel_a, rel_b)

    def test_objective_at_min_tiny_for_normalised_targets(self):
        # across the ratio; test_objective_at_min_is_dimensionless covers scale
        rng = random.Random(99)
        for _ in range(100):
            ratio = math.exp(rng.uniform(math.log(0.05), math.log(50.0)))
            fit = fit_prior(1.0, ratio)
            assert fit.converged
            assert fit.objective_at_min < 1e-12, (ratio, fit.objective_at_min)
