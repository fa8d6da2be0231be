"""fit_prior as two steps, a shape step on r = sigma0/mu0 alone and a scale
step from the targets, each record built by its checking constructor: the
reference that elicitation.fit_prior, with its kernel inline and its records
built unchecked, must equal bit for bit, exception for exception. It
evaluates the kernel through distributions._g, so it also ties the copy of
_g inlined in elicitation._shape's loop to _g itself.
"""

import math
import sys

from gammasd.distributions import GammaParams, SdSummary, _g
from gammasd.elicitation import ROUND_TRIP_TOL, FitResult

_STEP_TOL = 1e-12
_MAX_ITER = 500


def _validate_targets(mu0, sigma0):
    if not (math.isfinite(mu0) and mu0 > 0.0):
        raise ValueError(f"mu0 must be finite and > 0, got {mu0}")
    if not (math.isfinite(sigma0) and sigma0 > 0.0):
        raise ValueError(f"sigma0 must be finite and > 0, got {sigma0}")


def _sd_shape_factors(a):
    x = a - 1.0
    g = _g(x)
    return x + g, math.sqrt(x + g), math.sqrt(g / x)


def _solve_shape(r):
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
            d0, d1 = x - anchor, x1 - x
            anchor, x = None, x1 - d1 * d1 / (d1 - d0)
    if 1.0 + x == 1.0:
        raise ValueError(
            f"infeasible target: a0 - 1 = {x:g} vanishes beside 1 "
            f"(sigma0/mu0 = {r:g} is too large)"
        )
    a0 = 1.0 + x
    return (a0, *_sd_shape_factors(a0), evals, solved)


def _scale(mu0, sigma0, shape):
    a0, c, root_c, cv, _, solved = shape
    b0 = c * mu0 * mu0
    if not (math.isfinite(b0) and b0 > 0.0):
        raise ValueError(
            f"mu0 = {mu0:g} gives a rate b0 = mu0^2/S(a0) = {b0:g}, "
            "outside the double range"
        )
    mu_rt = math.sqrt(b0) / root_c
    sigma_rt = mu_rt * cv
    rel_mu = abs(mu_rt - mu0) / mu0
    rel_sigma = abs(sigma_rt - sigma0) / sigma0
    converged = solved and rel_mu < ROUND_TRIP_TOL and rel_sigma < ROUND_TRIP_TOL
    return a0, b0, mu_rt, sigma_rt, rel_mu, rel_sigma, converged


def fit_prior(mu0, sigma0):
    _validate_targets(mu0, sigma0)
    r = sigma0 / mu0
    _, _, _, cv, evals, _ = shape = _solve_shape(r)
    a0, b0, mu_rt, sigma_rt, rel_mu, rel_sigma, converged = _scale(mu0, sigma0, shape)
    h0 = 2.0 * math.log(cv / r)
    return FitResult(GammaParams(a0, b0), math.log1p(h0 * h0), SdSummary(mu_rt, sigma_rt),
                     (rel_mu, rel_sigma), converged, evals - 1)
