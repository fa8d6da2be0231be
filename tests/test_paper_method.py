"""The paper's inverse method, minimising log(D^2 + 1) over the analytic
bracket with minimize_bounded, against the library's fixed-point solver,
and the evaluation count that perfbench/layers.py derives from
OptimResult.iterations."""

import math
from types import SimpleNamespace

import pytest

from gammasd import BRACKET_EPS, fit_prior, minimize_bounded, objective, upper_bound_a
from gammasd import optimize


@pytest.mark.parametrize("r", [1e-4, 3e-3, 0.5, 50.0, 1e3])
def test_minimiser_of_objective_is_fit_prior_shape(r):
    # at r = 1e-4 the root a0 ~ 2.5e7 has a spacing of doubles above
    # _X_TOL, so only the relative stop term lets the bracket converge
    res = minimize_bounded(lambda a: objective(a, 1.0, r), 1.0 + BRACKET_EPS, upper_bound_a(1.0, r))
    assert res.converged
    assert res.x_min == pytest.approx(fit_prior(1.0, r).params.a, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("f, lo, hi", [
    (lambda x: (x - 2.0) ** 2, 0.0, 5.0),
    (lambda x: abs(x - 1.3), 0.0, 2.0),
    (lambda x: math.cos(x) + 0.1 * x, 0.0, 7.0),
    (lambda x: x, 0.0, 1.0),
])
def test_iterations_count_evaluations(count_calls, f, lo, hi):
    target = SimpleNamespace(f=f)
    calls = count_calls((target, "f"))
    res = minimize_bounded(target.f, lo, hi)
    assert res.converged
    assert res.iterations + 1 == len(calls)


def test_iterations_count_evaluations_at_the_cap(monkeypatch, count_calls):
    monkeypatch.setattr(optimize, "_MAX_ITER", 2)
    target = SimpleNamespace(f=lambda x: (x - 2.0) ** 2)
    calls = count_calls((target, "f"))
    res = minimize_bounded(target.f, 0.0, 5.0)
    assert not res.converged
    assert res.iterations + 1 == len(calls) == 3
