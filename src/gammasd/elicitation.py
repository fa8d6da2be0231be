"""Inverse transform: from a target (mu0, sigma0) summary of the noise SD
to the Gamma precision-prior parameters (a0, b0).

The shape a0 is the root of a residual obtained by eliminating b between
the two closed-form SD moments: D(a) = mu0^2 / S(a) - sigma0^2 / V(a),
with the gamma-ratio substitution S(a) and V(a) = 1/(a - 1) - S(a). The
solver uses its dimensionless form log(V/S) - 2 log(sigma0/mu0), which
depends only on sigma0/mu0, as a bracketed root in log(a - 1). Watson's
inequality (Proc. Edinburgh Math. Soc. 11, 1959) brackets that root
analytically within a factor 4/pi, clipped to (1, a_hat], where a_hat is
an upper bound from a two-term large-a series of S. The search stops when
the residual is within its own rounding error. The rate follows as
b0 = mu0^2 / S(a0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .distributions import (
    GammaParams,
    SdSummary,
    _variance_bracket,
    log_gamma,
    sd_moments,
)
from .optimize import _bracketed_root

__all__ = [
    "BRACKET_EPS",
    "ROUND_TRIP_TOL",
    "FitResult",
    "S",
    "S_hat",
    "residual_D",
    "objective",
    "upper_bound_a",
    "fit_prior",
]

# D is singular at a = 1; the search bracket starts this far above it.
BRACKET_EPS = 1e-9

# Pass threshold on the round-trip relative errors (1 %).
ROUND_TRIP_TOL = 1e-2

_EPS = math.ulp(1.0)


@dataclass(frozen=True)
class FitResult:
    """Recovered prior parameters plus solver diagnostics.

    objective_at_min is log(D^2 + 1) and residual_D is D, both at a0.
    round_trip holds sd_moments(params) recomputed from the fit, and
    round_trip_rel_err the relative errors of that round trip against the
    targets (mu first). converged requires both the root search to have
    converged and both relative errors to be below 1 %. iterations + 1 is
    the number of residual evaluations.
    """

    params: GammaParams
    objective_at_min: float
    residual_D: float
    round_trip: SdSummary
    round_trip_rel_err: tuple[float, float]
    converged: bool
    iterations: int


def S(a: float) -> float:
    """Gamma-ratio substitution Gamma(a - 1/2)^2 / Gamma(a)^2, via log-gamma."""
    if a <= 1.0:
        raise ValueError(f"S requires a > 1, got {a}")
    return math.exp(2.0 * (log_gamma(a - 0.5) - log_gamma(a)))


def S_hat(a: float) -> float:
    """Two-term large-a series of S: 1/a + 3/(4 a^2)."""
    if a <= 0.0:
        raise ValueError(f"S_hat requires a > 0, got {a}")
    return 1.0 / a + 3.0 / (4.0 * a * a)


def _residual_given_S(a: float, s: float, mu0: float, sigma0: float) -> float:
    return mu0 * mu0 / s - sigma0 * sigma0 / _variance_bracket(a, s)


def _validate_targets(mu0: float, sigma0: float) -> None:
    if not (math.isfinite(mu0) and mu0 > 0.0):
        raise ValueError(f"mu0 must be finite and > 0, got {mu0}")
    if not (math.isfinite(sigma0) and sigma0 > 0.0):
        raise ValueError(f"sigma0 must be finite and > 0, got {sigma0}")


def residual_D(a: float, mu0: float, sigma0: float) -> float:
    """Residual whose root in a is the target shape a0.

    D(a) = mu0^2 / S(a) - sigma0^2 / (1/(a-1) - S(a)). The denominator of
    the second term is positive for a > 1 in exact arithmetic; if it is
    not in double precision a NumericalDegeneracyError is raised.
    """
    _validate_targets(mu0, sigma0)
    # S(a) is evaluated once and shared by both terms; consistency between
    # them matters near the root.
    return _residual_given_S(a, S(a), mu0, sigma0)


def objective(a: float, mu0: float, sigma0: float) -> float:
    """log(D(a)^2 + 1): non-negative, zero exactly at the root of D."""
    d = residual_D(a, mu0, sigma0)
    return math.log1p(d * d)


def upper_bound_a(mu0: float, sigma0: float) -> float:
    """Analytic upper bound for the shape root, from the series S_hat.

    Depends only on the ratio mu0/sigma0 and tends to 1 as that ratio
    tends to 0.
    """
    _validate_targets(mu0, sigma0)
    q = mu0 / sigma0
    r = q * q
    return 0.125 * (1.0 + math.sqrt(49.0 + r * r + 50.0 * r) + r)


def fit_prior(mu0: float, sigma0: float) -> FitResult:
    """Recover (a0, b0) for a target SD summary (mu0, sigma0).

    a0 is the root of the dimensionless residual
    h(t) = log(V(a) / S(a)) - 2 log(sigma0 / mu0) in t = log(a - 1), where
    V(a) = 1/(a - 1) - S(a), found by Brent's bracketed root method.
    Watson's inequality 1/4 < 1/S(a) - (a - 1) <= 1/pi brackets the root
    in a - 1 between 1/(4 r^2) and 1/(pi r^2), r = sigma0/mu0, which is
    intersected with [BRACKET_EPS, upper_bound_a(mu0, sigma0) - 1]. The
    search stops when t is bracketed to within 1e-10 or when |h| is within
    its rounding error, so a0 depends only on sigma0/mu0. Then
    b0 = mu0^2 / S(a0), and the SD moments are recomputed as a round-trip
    check. Non-convergence within the iteration cap is reported through
    converged=False, not raised. ValueError is raised for an upper bound
    that is not finite or at or below 1 + BRACKET_EPS, and for a b0 outside
    the double range.
    """
    _validate_targets(mu0, sigma0)
    r = sigma0 / mu0
    a_lo = 1.0 + BRACKET_EPS
    a_hi = upper_bound_a(mu0, sigma0)
    if not math.isfinite(a_hi):
        raise ValueError(
            f"infeasible bracket: upper bound {a_hi} is not finite "
            f"(sigma0/mu0 = {r:g} is too small)"
        )
    if a_hi <= a_lo:
        raise ValueError(
            f"infeasible bracket: upper bound {a_hi} does not exceed {a_lo} "
            f"(sigma0/mu0 = {r:g} is too large)"
        )

    r2 = r * r
    log_r2 = math.log(r2)

    def h(t: float) -> tuple[float, float]:
        a = 1.0 + math.exp(t)
        s = S(a)
        # Rounding error of log(V/S): S = exp(2 (lgamma(a - 1/2) - lgamma(a)))
        # is off by about 2 eps a log a relative, and the cancellation in
        # V = 1/(a - 1) - S ~ 1/(4 a^2) multiplies that by 4a.
        noise = 8.0 * _EPS * a * a * (math.log(a) + 1.0)
        return math.log(_variance_bracket(a, s) / s) - log_r2, noise

    t_lo = math.log(max(BRACKET_EPS, 0.25 / r2))
    t_hi = math.log(min(a_hi - 1.0, 1.0 / (math.pi * r2)))
    t0, iterations, solved = _bracketed_root(h, t_lo, t_hi)
    a0 = 1.0 + math.exp(t0)
    s0 = S(a0)
    b0 = mu0 * mu0 / s0
    if not (math.isfinite(b0) and b0 > 0.0):
        raise ValueError(
            f"mu0 = {mu0:g} gives a rate b0 = mu0^2/S(a0) = {b0:g}, "
            "outside the double range"
        )
    params = GammaParams(a=a0, b=b0)

    round_trip = sd_moments(params)
    rel_err = (
        abs(round_trip.mu - mu0) / mu0,
        abs(round_trip.sigma - sigma0) / sigma0,
    )
    converged = (
        solved
        and rel_err[0] < ROUND_TRIP_TOL
        and rel_err[1] < ROUND_TRIP_TOL
    )
    d0 = _residual_given_S(a0, s0, mu0, sigma0)
    return FitResult(
        params=params,
        objective_at_min=math.log1p(d0 * d0),
        residual_D=d0,
        round_trip=round_trip,
        round_trip_rel_err=rel_err,
        converged=converged,
        iterations=iterations,
    )
