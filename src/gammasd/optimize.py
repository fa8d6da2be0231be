"""Derivative-free scalar solvers after Brent (1973): bounded
minimisation (ch. 5) and a bracketed root (ch. 4).

minimize_bounded is golden-section search with successive parabolic
interpolation, the same contract as MATLAB's fminbnd / scipy's bounded
minimize_scalar. _bracketed_root is Brent's zeroin, which fit_prior uses
for the shape. Both take an absolute tolerance on the argument and a hard
iteration cap from the constants below. Pure and re-entrant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

__all__ = ["OptimResult", "minimize_bounded"]

_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))  # 0.381966...

# Absolute tolerance on the argument, and the iteration cap.
_X_TOL = 1e-10
_MAX_ITER = 500
_EPS = math.ulp(1.0)


@dataclass(frozen=True)
class OptimResult:
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


def _bracketed_root(
    f: Callable[[float], tuple[float, float]], lo: float, hi: float
) -> tuple[float, int, bool]:
    """Brent's zeroin: a root of f between lo and hi.

    f(x) returns the residual at x and a bound on its rounding error. The
    search stops when the sign change is bracketed to within _X_TOL, or when
    |f| at the best point is within its error bound, so it does not bisect
    in noise. Returns (x, iterations, converged); iterations + 1 is the
    number of calls to f and is capped at _MAX_ITER, where the best point
    so far is returned with converged=False. Endpoints of the same sign
    raise ValueError unless one of them is within its error bound, which is
    then the result.
    """
    a, b = lo, hi
    fa, ea = f(a)
    fb, eb = f(b)
    iterations = 1
    if (fa > 0.0) == (fb > 0.0) and fa != 0.0 and fb != 0.0:
        if abs(fa) <= ea:
            return a, iterations, True
        if abs(fb) <= eb:
            return b, iterations, True
        raise ValueError(
            f"no sign change between {lo!r} and {hi!r}: f = {fa:g} and {fb:g}"
        )

    c, fc, ec = a, fa, ea
    d = e = b - a
    while True:
        if (fb > 0.0) == (fc > 0.0):
            # Keep the root between b and c.
            c, fc, ec = a, fa, ea
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
            ea, eb, ec = eb, ec, eb
        tol1 = 2.0 * _EPS * abs(b) + 0.5 * _X_TOL
        xm = 0.5 * (c - b)
        if abs(xm) <= tol1 or abs(fb) <= eb:
            return b, iterations, True
        if iterations >= _MAX_ITER:
            return b, iterations, False

        if abs(e) >= tol1 and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                # Secant step.
                p = 2.0 * xm * s
                q = 1.0 - s
            else:
                # Inverse quadratic interpolation through a, b, c.
                q = fa / fc
                r = fb / fc
                p = s * (2.0 * xm * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * xm * q - abs(tol1 * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = xm
        else:
            d = e = xm

        a, fa, ea = b, fb, eb
        b += d if abs(d) > tol1 else math.copysign(tol1, xm)
        fb, eb = f(b)
        iterations += 1
