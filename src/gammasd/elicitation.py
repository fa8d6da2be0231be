"""Inverse transform: from a target (mu0, sigma0) summary of the noise SD
to the Gamma precision-prior parameters (a0, b0).

The shape a0 is the root of a residual D(a) obtained by eliminating b
between the two closed-form SD moments; it is located by bounded
minimisation of log(D^2 + 1) on (1, a_hat], where a_hat is an analytic
upper bound derived from a two-term large-a series of the gamma-ratio
substitution S(a). The rate follows as b0 = mu0^2 / S(a0).
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
from .optimize import minimize_bounded

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


@dataclass(frozen=True)
class FitResult:
    """Recovered prior parameters plus optimisation diagnostics.

    round_trip holds sd_moments(params) recomputed from the fit, and
    round_trip_rel_err the relative errors of that round trip against the
    targets (mu first). converged requires both the optimiser to have
    converged and both relative errors to be below 1 %.
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

    Minimises the objective over [1 + BRACKET_EPS, upper_bound_a(mu0,
    sigma0)], then sets b0 = mu0^2 / S(a0) and recomputes the SD moments
    as a round-trip check. Optimiser non-convergence is reported through
    converged=False, not raised; an upper bound that is not finite or at
    or below the lower bracket edge raises ValueError.
    """
    _validate_targets(mu0, sigma0)
    a_lo = 1.0 + BRACKET_EPS
    a_hi = upper_bound_a(mu0, sigma0)
    if not math.isfinite(a_hi):
        raise ValueError(
            f"infeasible bracket: upper bound {a_hi} is not finite "
            f"(sigma0/mu0 = {sigma0 / mu0:g} is too small)"
        )
    if a_hi <= a_lo:
        raise ValueError(
            f"infeasible bracket: upper bound {a_hi} does not exceed {a_lo} "
            f"(sigma0/mu0 = {sigma0 / mu0:g} is too large)"
        )

    result = minimize_bounded(lambda a: objective(a, mu0, sigma0), a_lo, a_hi)
    a0 = result.x_min
    s0 = S(a0)
    b0 = mu0 * mu0 / s0
    params = GammaParams(a=a0, b=b0)

    round_trip = sd_moments(params)
    rel_err = (
        abs(round_trip.mu - mu0) / mu0,
        abs(round_trip.sigma - sigma0) / sigma0,
    )
    converged = (
        result.converged
        and rel_err[0] < ROUND_TRIP_TOL
        and rel_err[1] < ROUND_TRIP_TOL
    )
    return FitResult(
        params=params,
        objective_at_min=result.f_min,
        residual_D=_residual_given_S(a0, s0, mu0, sigma0),
        round_trip=round_trip,
        round_trip_rel_err=rel_err,
        converged=converged,
        iterations=result.iterations,
    )
