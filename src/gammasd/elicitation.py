"""Inverse transform: from a target (mu0, sigma0) summary of the noise SD
to the Gamma precision-prior parameters (a0, b0).

Eliminating b between the two closed-form SD moments leaves one equation
in the shape. With x = a - 1, r = sigma0/mu0 and the gamma-ratio kernel
g(x) = Gamma(x + 1)^2 / Gamma(x + 1/2)^2 - x, the moments give
(sigma/mu)^2 = g(x)/x, so x0 = a0 - 1 is the fixed point of
x = g(x) / r^2. Watson's inequality (Proc. Edinburgh Math. Soc. 11, 1959)
puts g in (1/4, 1/pi], so the map takes every x > 0 into
[1/(4 r^2), 1/(pi r^2)], and on that interval its slope is below 0.073 in
magnitude (0.064 at most at the fixed point): it is a contraction with
exactly one fixed point for every r > 0. Steffensen's method (Aitken
extrapolation of each pair of plain steps; Steffensen 1933) finds it from
x = 1/(4 r^2). At a0 = 1 + x0 the rate solves the forward mean mu^2 = b S(a):
b0 = mu0^2 (x + g(x)) at x = a0 - 1, which is mu0^2 / S(a0), and h0 is the
residual of that a0. fit_prior is a shape step on r alone (_solve_shape) and
a scale step from mu0, sigma0 and that shape to b0 and the round trip
(_scale); a validation sweep solves each distinct r once.
"""

# no postponed annotations: each named-tuple field's would compile to a ForwardRef
import math
import sys
from typing import NamedTuple

from .distributions import GammaParams, SdSummary, _g, _sd_shape_factors

__all__ = [
    "BRACKET_EPS",
    "ROUND_TRIP_TOL",
    "FitResult",
    "S",
    "residual_D",
    "objective",
    "upper_bound_a",
    "fit_prior",
]

# D is singular at a = 1; [1 + BRACKET_EPS, upper_bound_a(mu0, sigma0)]
# brackets its root inside the robust region (acceptance criterion 4).
BRACKET_EPS = 1e-9

# Pass threshold on the round-trip relative errors (1 %).
ROUND_TRIP_TOL = 1e-2

# Relative step between successive iterates at which the shape solve
# stops, and its cap on iterations (kernel evaluations less one).
_STEP_TOL = 1e-12
_MAX_ITER = 500


class FitResult(NamedTuple):
    """Recovered prior parameters plus solver diagnostics.

    objective_at_min is log1p(h0^2), where h0 = log(g(x) / (r^2 x)) is the
    dimensionless residual of the shape equation at the returned a0
    (x = a0 - 1, r = sigma0/mu0); it does not depend on the targets' scale.
    round_trip holds sd_moments(params) recomputed from the fit, and
    round_trip_rel_err the relative errors of that round trip against the
    targets (mu first). converged requires both the fixed-point iteration
    to have converged and both relative errors to be below 1 %.
    iterations + 1 is the number of kernel evaluations in the solve.
    """

    params: GammaParams
    objective_at_min: float
    round_trip: SdSummary
    round_trip_rel_err: tuple[float, float]
    converged: bool
    iterations: int


def S(a: float) -> float:
    """Gamma-ratio substitution Gamma(a - 1/2)^2 / Gamma(a)^2, which is
    1/(x + g(x)) with x = a - 1."""
    if a <= 1.0:
        raise ValueError(f"S requires a > 1, got {a}")
    return 1.0 / _sd_shape_factors(a)[0]


def _validate_targets(mu0: float, sigma0: float) -> None:
    if not (math.isfinite(mu0) and mu0 > 0.0):
        raise ValueError(f"mu0 must be finite and > 0, got {mu0}")
    if not (math.isfinite(sigma0) and sigma0 > 0.0):
        raise ValueError(f"sigma0 must be finite and > 0, got {sigma0}")


def residual_D(a: float, mu0: float, sigma0: float) -> float:
    """Residual whose root in a is the target shape a0.

    D(a) = mu0^2 / S(a) - sigma0^2 / (1/(a-1) - S(a)), evaluated without
    cancellation as (x + g) (mu0^2 - (sigma0 / sqrt(g / x))^2) with x = a - 1
    and g = g(x). It decreases through its root and is defined for a > 1;
    ValueError where D is past the largest double.
    """
    _validate_targets(mu0, sigma0)
    if a <= 1.0:
        raise ValueError(f"residual_D requires a > 1, got {a}")
    c, _, cv = _sd_shape_factors(a)
    s = sigma0 / cv
    d = c * (mu0 * mu0 - s * s)
    if not math.isfinite(d):
        raise ValueError(f"a = {a}, mu0 = {mu0} and sigma0 = {sigma0} give "
                         "D outside the double range")
    return d


def objective(a: float, mu0: float, sigma0: float) -> float:
    """log(D(a)^2 + 1): non-negative, zero exactly at the root of D."""
    d = residual_D(a, mu0, sigma0)
    return math.log1p(d * d)


def upper_bound_a(mu0: float, sigma0: float) -> float:
    """Analytic upper bound for the shape root, from the two-term large-a
    series 1/a + 3/(4 a^2) of S.

    Depends only on the ratio mu0/sigma0 and tends to 1 as that ratio
    tends to 0.
    """
    _validate_targets(mu0, sigma0)
    q = mu0 / sigma0
    r = q * q
    return 0.125 * (1.0 + math.sqrt(49.0 + r * r + 50.0 * r) + r)


def _solve_shape(r: float) -> tuple[float, float, float, float, int, bool]:
    """Shape step, on r = sigma0/mu0 alone: a0 = 1 + x0, the factors
    _sd_shape_factors(a0) of b0, the round trip and h0, the kernel
    evaluations of the solve and whether it converged."""
    r2 = r * r
    if r2 * math.pi * sys.float_info.max <= 1.0:
        raise ValueError(
            f"infeasible target: 1/(pi r^2) overflows "
            f"(sigma0/mu0 = {r:g} is too small)"
        )

    x, anchor, solved = 0.25 / r2, None, False
    for evals in range(1, _MAX_ITER + 2):
        x1 = _g(x) / r2
        if abs(x1 - x) <= _STEP_TOL * x1:
            x, solved = x1, True
            break
        if anchor is None:
            anchor, x = x, x1
        else:
            # Aitken's extrapolation of anchor -> x -> x1; the map's slope
            # is below 0.073, so the two steps cannot be equal.
            d0, d1 = x - anchor, x1 - x
            anchor, x = None, x1 - d1 * d1 / (d1 - d0)
    if 1.0 + x == 1.0:
        raise ValueError(
            f"infeasible target: a0 - 1 = {x:g} vanishes beside 1 "
            f"(sigma0/mu0 = {r:g} is too large)"
        )
    a0 = 1.0 + x
    return (a0, *_sd_shape_factors(a0), evals, solved)


def _scale(mu0: float, sigma0: float, shape: tuple) -> tuple:
    """Scale step, from the targets and _solve_shape(sigma0/mu0): a0, b0, the
    round trip, its two relative errors and converged, as CellResult orders them."""
    a0, c, root_c, cv, _, solved = shape
    b0 = c * mu0 * mu0
    if not (math.isfinite(b0) and b0 > 0.0):
        raise ValueError(
            f"mu0 = {mu0:g} gives a rate b0 = mu0^2/S(a0) = {b0:g}, "
            "outside the double range"
        )
    mu_rt = math.sqrt(b0) / root_c  # as in sd_moments
    sigma_rt = mu_rt * cv
    rel_mu = abs(mu_rt - mu0) / mu0
    rel_sigma = abs(sigma_rt - sigma0) / sigma0
    converged = solved and rel_mu < ROUND_TRIP_TOL and rel_sigma < ROUND_TRIP_TOL
    return a0, b0, mu_rt, sigma_rt, rel_mu, rel_sigma, converged


def fit_prior(mu0: float, sigma0: float) -> FitResult:
    """Recover (a0, b0) for a target SD summary (mu0, sigma0).

    x0 = a0 - 1 is the fixed point of x = g(x) / r^2, r = sigma0/mu0,
    found by Steffensen's method from Watson's end x = 1/(4 r^2). It stops
    when a plain step moves x by at most 1e-12 relative, so a0 depends only
    on sigma0/mu0. At x = a0 - 1, b0 = mu0^2 (x + g(x)) = mu0^2 / S(a0), the
    SD moments recomputed as a round-trip check and h0 (the residual of a0)
    share one kernel evaluation. Non-convergence within the iteration cap,
    or a round trip off by 1 % or more (from sigma0/mu0 of about 1e7, as
    a0 - 1 nears the rounding of a0), gives converged=False, not an error.
    ValueError is raised for sigma0/mu0 below about 4.2e-155 (the bound
    1/(pi r^2) on x0 overflows) or above about 5.35e7 (a0 rounds to 1), and
    for a b0 outside the double range.
    """
    _validate_targets(mu0, sigma0)
    r = sigma0 / mu0
    _, _, _, cv, evals, _ = shape = _solve_shape(r)
    a0, b0, mu_rt, sigma_rt, rel_mu, rel_sigma, converged = _scale(mu0, sigma0, shape)
    h0 = 2.0 * math.log(cv / r)
    # positional: keywords to these three named tuples cost about 0.8 us a fit
    return FitResult(GammaParams(a0, b0), math.log1p(h0 * h0), SdSummary(mu_rt, sigma_rt),
                     (rel_mu, rel_sigma), converged, evals - 1)
