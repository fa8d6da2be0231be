"""Derivative-free bounded scalar minimisation by golden-section search
(Kiefer 1953).

minimize_bounded keeps two interior points of a shrinking bracket and
drops the side whose point is worse, one evaluation of f per iteration.
It takes its tolerance on the argument and a hard iteration cap from the
constants below. Pure and re-entrant. The library no longer uses it:
fit_prior solves for the shape as a fixed point.
"""

# no postponed annotations: each named-tuple field's would compile to a ForwardRef
import math
from typing import Callable, NamedTuple

__all__ = ["OptimResult", "minimize_bounded"]

_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))  # 0.381966...

# Absolute tolerance on the argument, and the iteration cap.
_X_TOL = 1e-10
_MAX_ITER = 500


class OptimResult(NamedTuple):
    x_min: float
    f_min: float
    iterations: int
    converged: bool


def minimize_bounded(f: Callable[[float], float], lo: float, hi: float) -> OptimResult:
    """Minimise f over [lo, hi] to within _X_TOL + 2e-15 |x_min| on the argument.

    For a unimodal f the returned point is that close to its minimiser;
    otherwise some local minimiser is returned. The relative term lets a
    bracket far from 0, whose spacing of doubles exceeds _X_TOL, converge.
    iterations + 1 is the number of evaluations of f. If the cap of
    _MAX_ITER iterations is hit the best point found so far is returned
    with converged=False, never raised.
    """
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")

    a, b = lo, hi
    u, v = a + _GOLDEN * (b - a), b - _GOLDEN * (b - a)
    fu, fv = f(u), f(v)
    iterations = 1

    while True:
        x, fx = (u, fu) if fu <= fv else (v, fv)
        converged = b - a <= _X_TOL + 2e-15 * abs(x)
        if converged or iterations >= _MAX_ITER:
            return OptimResult(x_min=x, f_min=fx, iterations=iterations, converged=converged)
        if fu <= fv:
            b, v, fv = v, u, fu
            u = a + _GOLDEN * (b - a)
            fu = f(u)
        else:
            a, u, fu = u, v, fv
            v = b - _GOLDEN * (b - a)
            fv = f(v)
        iterations += 1
