"""Adaptive Simpson quadrature, kept as an independent test oracle.

It shares no code with the closed forms in gammasd, so the tests use it
to check densities, moments and the worked example numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Callable

__all__ = [
    "QuadratureResult",
    "QuadratureError",
    "integrate",
]


@dataclass(frozen=True)
class QuadratureResult:
    """Integral estimate with its error estimate and subdivision count."""

    value: float
    abs_error_estimate: float
    subdivisions: int

    def __post_init__(self) -> None:
        if self.abs_error_estimate < 0.0:
            raise ValueError("abs_error_estimate must be >= 0")
        if self.subdivisions < 1:
            raise ValueError("subdivisions must be >= 1")


class QuadratureError(RuntimeError):
    """Adaptive subdivision hit its limit before reaching the tolerance.

    Carries the best available estimate so callers can still inspect it.
    """

    def __init__(self, message: str, best: QuadratureResult):
        super().__init__(message)
        self.best = best


def _simpson(fl: float, fm: float, fr: float, h: float) -> float:
    return h / 6.0 * (fl + 4.0 * fm + fr)


def integrate(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = 1e-10,
    max_subdivisions: int = 4000,
) -> QuadratureResult:
    """Adaptive Simpson quadrature of f over (lo, hi); hi may be +inf.

    A semi-infinite range is mapped to the unit interval with the
    substitution x = lo + t / (1 - t), dx = dt / (1 - t)^2, which requires
    the integrand to decay at infinity. Intervals are bisected
    worst-error-first until the summed error estimate drops below tol.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")

    if math.isinf(hi):
        base, offset = f, lo

        def g(t: float) -> float:
            if t >= 1.0:
                return 0.0
            u = 1.0 - t
            v = base(offset + t / u) / (u * u)
            return v if math.isfinite(v) else 0.0

        f, lo, hi = g, 0.0, 1.0

    # Seed with a few intervals so coarse symmetry cannot fool the estimator.
    n_seed = 8
    edges = [lo + (hi - lo) * i / n_seed for i in range(n_seed + 1)]
    values = [f(x) for x in edges]

    # Heap entries: (-error, seq, a, b, fa, fm, fb, refined_estimate)
    heap: list = []
    total = 0.0
    total_err = 0.0
    seq = 0

    def make(a: float, b: float, fa: float, fb: float):
        nonlocal seq
        m = 0.5 * (a + b)
        fm = f(m)
        ml, mr = 0.5 * (a + m), 0.5 * (m + b)
        fml, fmr = f(ml), f(mr)
        coarse = _simpson(fa, fm, fb, b - a)
        fine = _simpson(fa, fml, fm, m - a) + _simpson(fm, fmr, fb, b - m)
        err = abs(fine - coarse) / 15.0
        seq += 1
        return (-err, seq, a, b, fa, fm, fb, fine)

    for i in range(n_seed):
        item = make(edges[i], edges[i + 1], values[i], values[i + 1])
        total += item[7]
        total_err += -item[0]
        heappush(heap, item)

    subdivisions = n_seed
    while total_err > tol and subdivisions < max_subdivisions:
        neg_err, _, a, b, fa, fm, fb, fine = heappop(heap)
        total -= fine
        total_err += neg_err  # neg_err is -err
        m = 0.5 * (a + b)
        for left in (make(a, m, fa, fm), make(m, b, fm, fb)):
            total += left[7]
            total_err += -left[0]
            heappush(heap, left)
        subdivisions += 1

    result = QuadratureResult(total, total_err, subdivisions)
    if total_err > tol:
        raise QuadratureError(
            f"quadrature did not reach tol={tol} within "
            f"{max_subdivisions} subdivisions (error estimate {total_err:g})",
            result,
        )
    return result
