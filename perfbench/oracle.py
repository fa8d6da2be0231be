"""Independent accuracy oracle: the closed forms of the SD moments and the
two densities evaluated with 40-digit mpmath gamma functions, which share
no code with gammasd.special. Used only outside timed regions.
"""

from __future__ import annotations

import mpmath

DIGITS = 40


def sd_moments(a: float, b: float) -> tuple[float, float]:
    """Mean and SD of s = 1/sqrt(p) for p ~ Gamma(a, b), a > 1."""
    with mpmath.workdps(DIGITS):
        a_, b_ = mpmath.mpf(a), mpmath.mpf(b)
        ratio = mpmath.exp(mpmath.loggamma(a_ - mpmath.mpf(0.5)) - mpmath.loggamma(a_))
        mu = mpmath.sqrt(b_) * ratio
        var = b_ * (1 / (a_ - 1) - ratio * ratio)
        return float(mu), float(mpmath.sqrt(var))


def precision_pdf(p: float, a: float, b: float) -> float:
    with mpmath.workdps(DIGITS):
        a_, b_, p_ = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(p)
        return float(mpmath.exp(a_ * mpmath.log(b_) - mpmath.loggamma(a_)
                                + (a_ - 1) * mpmath.log(p_) - p_ * b_))


def sd_pdf(s: float, a: float, b: float) -> float:
    with mpmath.workdps(DIGITS):
        a_, b_, s_ = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(s)
        return float(2 * mpmath.exp(a_ * mpmath.log(b_) - mpmath.loggamma(a_)
                                    - (2 * a_ + 1) * mpmath.log(s_) - b_ / (s_ * s_)))


def rel_err(value: float, reference: float) -> float:
    return abs(value - reference) / abs(reference)


def round_trip_ok(mu: float, sigma: float, a0: float, b0: float, tol: float) -> bool:
    """Whether the prior (a0, b0) really has SD mean mu and SD sigma to
    within a relative tol."""
    if not a0 > 1.0:
        return False
    mu_x, sigma_x = sd_moments(a0, b0)
    return rel_err(mu_x, mu) <= tol and rel_err(sigma_x, sigma) <= tol
