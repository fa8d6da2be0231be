"""Derivative-free bounded scalar minimisation after Brent (1973, ch. 5).

minimize_bounded is golden-section search with successive parabolic
interpolation, the same contract as MATLAB's fminbnd / scipy's bounded
minimize_scalar. It takes an absolute tolerance on the argument and a hard
iteration cap from the constants below. Pure and re-entrant. The library
no longer uses it: fit_prior solves for the shape as a fixed point.
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
    """Minimise f over [lo, hi] to within _X_TOL on the argument.

    For a unimodal f with an interior minimiser the returned point is
    within _X_TOL of it; otherwise some local minimiser is returned. If
    the cap of _MAX_ITER iterations is hit the best point found so far is
    returned with converged=False, never raised.
    """
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")

    a, b = lo, hi
    x = w = v = a + _GOLDEN * (b - a)
    fx = fw = fv = f(x)
    d = e = 0.0
    iterations = 0
    converged = False

    while iterations < _MAX_ITER:
        mid = 0.5 * (a + b)
        tol1 = _X_TOL / 3.0 + 1e-15 * abs(x)
        tol2 = 2.0 * tol1
        if abs(x - mid) <= tol2 - 0.5 * (b - a):
            converged = True
            break

        use_golden = True
        if abs(e) > tol1:
            # Parabola through (x, fx), (w, fw), (v, fv).
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            e_prev, e = e, d
            if (
                abs(p) < abs(0.5 * q * e_prev)
                and p > q * (a - x)
                and p < q * (b - x)
            ):
                d = p / q
                u = x + d
                # Keep trial points off the boundary.
                if (u - a) < tol2 or (b - u) < tol2:
                    d = tol1 if x < mid else -tol1
                use_golden = False

        if use_golden:
            e = (b if x < mid else a) - x
            d = _GOLDEN * e

        u = x + d if abs(d) >= tol1 else x + (tol1 if d > 0.0 else -tol1)
        fu = f(u)
        iterations += 1

        if fu <= fx:
            if u < x:
                b = x
            else:
                a = x
            v, w, x = w, x, u
            fv, fw, fx = fw, fx, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, w = w, u
                fv, fw = fw, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu

    return OptimResult(x_min=x, f_min=fx, iterations=iterations, converged=converged)

