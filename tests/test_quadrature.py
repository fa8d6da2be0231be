import math

import pytest

from gammasd import GammaParams, sd_pdf
from quadrature import QuadratureError, QuadratureResult, integrate


class TestIntegrate:
    def test_constant(self):
        r = integrate(lambda x: 1.0, 0.0, 1.0, 1e-10)
        assert r.value == pytest.approx(1.0, abs=1e-12)

    def test_exponential_tail(self):
        r = integrate(lambda x: math.exp(-x), 0.0, math.inf, 1e-10)
        assert r.value == pytest.approx(1.0, abs=1e-8)

    def test_sd_density_normalisation(self):
        params = GammaParams(2.0, 2.0)
        r = integrate(lambda s: sd_pdf(s, params), 0.0, math.inf, 1e-10)
        assert r.value == pytest.approx(1.0, abs=1e-8)

    def test_shifted_semi_infinite_range(self):
        # int_2^inf e^(2-x) dx = 1; exercises the lo + t/(1-t) substitution
        r = integrate(lambda x: math.exp(2.0 - x), 2.0, math.inf, 1e-10)
        assert r.value == pytest.approx(1.0, abs=1e-8)

    def test_linearity(self):
        f = lambda x: math.sin(x) + 1.0
        g = lambda x: x * x
        alpha, beta = 2.5, -0.75
        combined = integrate(lambda x: alpha * f(x) + beta * g(x), 0.0, 2.0, 1e-10)
        rf = integrate(f, 0.0, 2.0, 1e-10)
        rg = integrate(g, 0.0, 2.0, 1e-10)
        budget = (
            combined.abs_error_estimate
            + abs(alpha) * rf.abs_error_estimate
            + abs(beta) * rg.abs_error_estimate
        )
        assert abs(combined.value - (alpha * rf.value + beta * rg.value)) <= max(
            budget, 1e-12
        )

    def test_interval_additivity(self):
        f = lambda x: math.exp(-x * x)
        whole = integrate(f, 0.0, 3.0, 1e-10)
        left = integrate(f, 0.0, 1.234, 1e-10)
        right = integrate(f, 1.234, 3.0, 1e-10)
        budget = (
            whole.abs_error_estimate
            + left.abs_error_estimate
            + right.abs_error_estimate
        )
        assert abs(whole.value - (left.value + right.value)) <= max(budget, 1e-12)

    def test_error_estimate_honest(self):
        r = integrate(lambda x: math.sin(10.0 * x) ** 2, 0.0, math.pi, 1e-9)
        assert abs(r.value - math.pi / 2.0) <= max(1e-9, r.abs_error_estimate)

    def test_nonconvergence_carries_best_estimate(self):
        # kink off any bisection boundary; a tiny subdivision budget
        # cannot reach 1e-14
        with pytest.raises(QuadratureError) as excinfo:
            integrate(lambda x: abs(x - 0.3), -1.0, 1.0, 1e-14, max_subdivisions=10)
        best = excinfo.value.best
        assert isinstance(best, QuadratureResult)
        assert best.value == pytest.approx(1.09, abs=1e-2)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            integrate(lambda x: x, 1.0, 1.0, 1e-10)
        with pytest.raises(ValueError):
            integrate(lambda x: x, 0.0, 1.0, 0.0)


class TestQuadratureResult:
    def test_invariants(self):
        with pytest.raises(ValueError):
            QuadratureResult(1.0, -1e-3, 4)
        with pytest.raises(ValueError):
            QuadratureResult(1.0, 0.0, 0)
