import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gammasd import OptimResult, minimize_bounded, objective
from gammasd import optimize


class TestMinimizeBounded:
    def test_quadratic_vertex(self):
        res = minimize_bounded(lambda x: (x - 2.0) ** 2, 0.0, 5.0)
        assert res.converged
        assert res.x_min == pytest.approx(2.0, abs=1e-10)
        assert res.f_min == pytest.approx(0.0, abs=1e-18)

    def test_kink_minimum(self):
        res = minimize_bounded(lambda x: abs(x - 1.3), 0.0, 2.0)
        assert res.converged
        assert res.x_min == pytest.approx(1.3, abs=1e-8)

    def test_elicitation_objective(self):
        # forward-map consistency: the shape objective for the (2, 2)
        # target has its minimum at a = 2
        mu0, sigma0 = 1.253314137, 0.655136377
        res = minimize_bounded(lambda a: objective(a, mu0, sigma0), 1.0 + 1e-9, 2.5406)
        assert res.converged
        assert res.x_min == pytest.approx(2.0, abs=1e-6)

    def test_result_is_deterministic(self):
        f = lambda x: math.cos(x) + 0.1 * x
        first = minimize_bounded(f, 0.0, 7.0)
        second = minimize_bounded(f, 0.0, 7.0)
        assert first == second

    def test_iteration_limit_reports_nonconvergence(self, monkeypatch):
        monkeypatch.setattr(optimize, "_MAX_ITER", 2)
        res = minimize_bounded(lambda x: (x - 2.0) ** 2, 0.0, 5.0)
        assert not res.converged
        assert res.iterations == 2
        assert 0.0 <= res.x_min <= 5.0
        assert res.f_min == pytest.approx((res.x_min - 2.0) ** 2, rel=1e-12)

    def test_invalid_bracket(self):
        with pytest.raises(ValueError):
            minimize_bounded(lambda x: x, 1.0, 1.0)
        with pytest.raises(ValueError):
            minimize_bounded(lambda x: x, 2.0, 1.0)

    def test_boundary_minimum(self):
        # monotone function: minimiser sits at the lower edge
        res = minimize_bounded(lambda x: x, 0.0, 1.0)
        assert res.converged
        assert res.x_min == pytest.approx(0.0, abs=1e-7)

    @settings(max_examples=100, deadline=None)
    @given(
        vertex=st.floats(min_value=-10.0, max_value=10.0),
        scale=st.floats(min_value=0.1, max_value=100.0),
    )
    def test_quadratic_family(self, vertex, scale):
        lo, hi = -15.0, 15.0
        res = minimize_bounded(lambda x: scale * (x - vertex) ** 2 + 1.0, lo, hi)
        assert lo <= res.x_min <= hi
        assert res.x_min == pytest.approx(vertex, abs=1e-7)

    @pytest.mark.parametrize(
        "f, lo, hi",
        [
            (lambda x: (x - 2.0) ** 2, 0.0, 5.0),
            (lambda x: abs(x - 1.3), 0.0, 2.0),
            (lambda x: math.exp(x) - 2.0 * x, -1.0, 3.0),
        ],
    )
    def test_endpoint_dominance(self, f, lo, hi):
        res = minimize_bounded(f, lo, hi)
        assert lo <= res.x_min <= hi
        assert res.f_min <= f(lo)
        assert res.f_min <= f(hi)


class TestOptimResult:
    def test_plain_record(self):
        res = OptimResult(x_min=1.0, f_min=2.0, iterations=3, converged=True)
        assert res.x_min == 1.0 and res.iterations == 3

