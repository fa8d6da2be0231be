"""High-precision references in mpmath, sharing no code with gammasd.

`sd_moments` sets its own working precision and returns floats. The
others return mpmath numbers at the caller's precision, so each test
chooses its digits with `mpmath.workdps`.
"""

import math

import mpmath

DIGITS = 40


def sd_moments(a, b):
    """Mean and SD of s = 1/sqrt(p) for p ~ Gamma(a, b), a > 1, at 40
    significant digits.

    The variance b (1/(a - 1) - Gamma(a - 1/2)^2 / Gamma(a)^2) cancels
    about log10(4 a) digits, so the working precision grows by that much.
    """
    with mpmath.workdps(DIGITS + math.ceil(math.log10(4.0 * a))):
        a_, b_ = mpmath.mpf(a), mpmath.mpf(b)
        ratio = mpmath.gamma(a_ - mpmath.mpf(0.5)) / mpmath.gamma(a_)
        mu = mpmath.sqrt(b_) * ratio
        sigma = mpmath.sqrt(b_ * (1 / (a_ - 1) - ratio * ratio))
        return float(mu), float(sigma)


def log_precision_pdf(p, a, b):
    """log of the Gamma(a, b) density at p. At shapes beyond log-gamma's
    double range its terms reach about 2e310 and cancel to a few hundred at
    the peak, so 40 digits keep nothing; 400 keep about 85."""
    p, a, b = mpmath.mpf(p), mpmath.mpf(a), mpmath.mpf(b)
    return a * mpmath.log(b) - mpmath.loggamma(a) + (a - 1) * mpmath.log(p) - p * b


def sd_pdf(s, a, b):
    """Density of s = 1/sqrt(p) at s: f_s(s) = 2 s^-3 f_p(1/s^2)."""
    s = mpmath.mpf(s)
    return 2 / s**3 * mpmath.exp(log_precision_pdf(1 / s**2, a, b))


def g(x):
    """g(x) = Gamma(x + 1)^2 / Gamma(x + 1/2)^2 - x."""
    x = mpmath.mpf(x)
    return (mpmath.gamma(x + 1) / mpmath.gamma(x + 0.5)) ** 2 - x


def a0_root(r, a0):
    """The shape a0 = 1 + x0 that fits sigma/mu = r: x0 is the root of
    g(x) = r^2 x, found from the guess a0 - 1."""
    r2 = mpmath.mpf(r) ** 2
    return 1 + mpmath.findroot(lambda x: g(x) - r2 * x, mpmath.mpf(a0) - 1)
