"""Independent reference for the SD moments: their closed forms evaluated
with mpmath gamma functions at 40 significant digits, sharing no code with
gammasd."""

import math

import mpmath

DIGITS = 40


def sd_moments(a, b):
    """Mean and SD of s = 1/sqrt(p) for p ~ Gamma(a, b), a > 1.

    The variance b (1/(a - 1) - Gamma(a - 1/2)^2 / Gamma(a)^2) cancels
    about log10(4 a) digits, so the working precision grows by that much.
    """
    with mpmath.workdps(DIGITS + math.ceil(math.log10(4.0 * a))):
        a_, b_ = mpmath.mpf(a), mpmath.mpf(b)
        ratio = mpmath.gamma(a_ - mpmath.mpf(0.5)) / mpmath.gamma(a_)
        mu = mpmath.sqrt(b_) * ratio
        sigma = mpmath.sqrt(b_ * (1 / (a_ - 1) - ratio * ratio))
        return float(mu), float(sigma)
