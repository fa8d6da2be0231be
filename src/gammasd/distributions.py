"""Densities and moments for a Gamma-distributed precision and the
standard deviation it induces.

A precision p ~ Gamma(a, b) (shape/rate) induces, through s = 1 / sqrt(p),
a distribution over the noise standard deviation s with density

    f_s(s) = 2 b^a / Gamma(a) * s^(-2a - 1) * exp(-b / s^2),  s > 0.

Its mean and standard deviation have closed forms in the gamma ratio,
valid for a > 1. Densities themselves are defined for all a > 0.

Since f_s(s) = 2 s^-3 f_p(s^-2), both densities are one kernel,
c b^a x^k e^-t / Gamma(a): c = 1, x = p, k = a - 1 and t = b p for the
precision, and c = 2, x = s, k = -2a - 1 and t = b / s^2 for the SD.

Every gamma ratio in the library goes through one kernel, _g(x) =
Gamma(x + 1)^2 / Gamma(x + 1/2)^2 - x with x = a - 1, which Watson's
inequality (Proc. Edinburgh Math. Soc. 11, 1959) confines to (1/4, 1/pi].
The SD moments and the inverse transform are products and quotients of x
and g, so no difference of nearly equal terms is left to cancel.
"""

# no postponed annotations: each named-tuple field's would compile to a ForwardRef
import math
from typing import NamedTuple

__all__ = [
    "GammaParams",
    "SdSummary",
    "log_gamma",
    "precision_pdf",
    "precision_moments",
    "sd_pdf",
    "sd_moments",
]


def log_gamma(x: float) -> float:
    """Natural logarithm of the Gamma function for x > 0.

    The platform's math.lgamma, restricted to the positive axis: it would
    otherwise return log|Gamma(x)| for negative non-integers. Above about
    2.56e305 the result exceeds the largest double and is +inf, as in IEEE
    overflow. No library code calls it: _g and the density kernel call
    math.lgamma directly, on arguments known to be positive.
    """
    if not x > 0.0:
        raise ValueError(f"log_gamma requires x > 0, got {x}")
    try:
        return math.lgamma(x)
    except OverflowError:
        return math.inf


def _g(x: float) -> float:
    """Gamma(x + 1)^2 / Gamma(x + 1/2)^2 - x for x >= 0, a value in (1/4, 1/pi].

    Below x = 10 from log-gamma; above, as x expm1(2 L) with L the log of
    Gamma(x + 1) / (sqrt(x) Gamma(x + 1/2)) from its asymptotic series in
    odd powers of 1/x (DLMF 5.11.13, coefficients
    (-1)^(n+1) (B_(n+1)(1) - B_(n+1)(1/2)) / (n (n + 1)) for odd n, eight
    terms). Against a 50-digit reference the worst relative error found
    below x = 10 is 6.8e-13, at x = 9.33 (140000 seeded uniform draws on
    [1e-9, 10)), and above it 4.3e-16 (25000 log-uniform draws on [10, 1e8]).
    """
    if x < 10.0:
        # both arguments lie in [1/2, 11), so the checks of log_gamma cannot fire
        return math.exp(2.0 * (math.lgamma(x + 1.0) - math.lgamma(x + 0.5))) - x
    y = 1.0 / x
    z = y * y
    log_ratio = y * (1 / 8 + z * (-1 / 192 + z * (1 / 640 + z * (-17 / 14336 + z * (
        31 / 18432 + z * (-691 / 180224 + z * (5461 / 425984 + z * (-929569 / 15728640))))))))
    return x * math.expm1(2.0 * log_ratio)


class _GammaParams(NamedTuple):
    a: float
    b: float


class GammaParams(_GammaParams):
    """Shape/rate pair (a, b) of the precision prior.

    Both must be strictly positive and finite. Moments of the induced SD
    distribution additionally need a > 1; that is enforced by sd_moments,
    not here. A named tuple whose every constructor path checks the pair:
    the call, _make, _replace and unpickling.
    """

    __slots__ = ()

    def __new__(cls, a: float, b: float):
        if not (math.isfinite(a) and a > 0.0):
            raise ValueError(f"shape a must be finite and > 0, got {a}")
        if not (math.isfinite(b) and b > 0.0):
            raise ValueError(f"rate b must be finite and > 0, got {b}")
        return tuple.__new__(cls, (a, b))  # as _GammaParams.__new__ does

    @classmethod
    def _make(cls, iterable):  # the inherited one skips __new__, and _replace calls it
        return cls(*iterable)


class _SdSummary(NamedTuple):
    mu: float
    sigma: float


class SdSummary(_SdSummary):
    """Mean and standard deviation of the induced SD distribution, both
    finite and > 0; checked on every constructor path, as in GammaParams."""

    __slots__ = ()

    def __new__(cls, mu: float, sigma: float):
        if not (math.isfinite(mu) and mu > 0.0):
            raise ValueError(f"mu must be finite and > 0, got {mu}")
        if not (math.isfinite(sigma) and sigma > 0.0):
            raise ValueError(f"sigma must be finite and > 0, got {sigma}")
        return tuple.__new__(cls, (mu, sigma))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


def _kernel(log_c: float, a: float, b: float, x: float, k: float, t: float) -> float:
    """c b^a x^k e^-t / Gamma(a) at finite x > 0, with log_c = log c,
    evaluated in log space and exponentiated last, so b^a cannot overflow.

    Where lgamma(a) overflows (a above about 2.56e305), the relative SD
    1/sqrt(a) of the precision is below 2e-153, far below the spacing of
    doubles: the density is 0 except where t equals a, and there Stirling's
    formula gives c sqrt(a / (2 pi)) / x. Where t overflows, e^-t underflows
    past the other factors and the density is 0. Otherwise a value past the
    largest double, or a nan from an overflowed term, raises ValueError.
    """
    try:
        # GammaParams keeps a > 0, so lgamma can only overflow; going through
        # log_gamma would add a call and its check to every density
        log_gamma_a = math.lgamma(a)
    except OverflowError:
        return math.exp(log_c) * math.sqrt(a / math.tau) / x if t == a else 0.0
    log_pdf = log_c + a * math.log(b) - log_gamma_a + k * math.log(x) - t
    if log_pdf <= 709.782712893384:  # the log of the largest double; false for nan
        return math.exp(log_pdf)
    if t == math.inf:
        return 0.0
    raise ValueError(f"x = {x:g} gives a log density of {log_pdf:g}, outside the double range")


def precision_pdf(p: float, params: GammaParams) -> float:
    """Gamma(a, b) density over the precision; 0 outside the support p > 0
    and at +inf, nan at nan. The kernel with c = 1 at x = p, k = a - 1 and
    t = b p."""
    if not 0.0 < p < math.inf:
        return 0.0 if p == p else p
    a, b = params.a, params.b
    return _kernel(0.0, a, b, p, a - 1.0, p * b)


def precision_moments(params: GammaParams) -> tuple[float, float]:
    """Mean a/b and variance a/b^2 of the precision distribution; ValueError
    where either is past the largest double."""
    a, b = params.a, params.b
    # a / b / b: b * b underflows to 0 below about 1.5e-154
    mean, var = a / b, a / b / b
    if var == math.inf:  # a / b overflows only where b < 1, and var = (a / b) / b
        raise ValueError(f"a = {a} and b = {b} give a precision variance a/b^2 "
                         "outside the double range")
    return mean, var


def sd_pdf(s: float, params: GammaParams) -> float:
    """Density of the induced SD distribution, f_s(s) = 2 s^-3 f_p(1/s^2);
    0 outside the support s > 0 and at +inf, nan at nan. The kernel with
    c = 2 at x = s, k = -2a - 1 and t = b / s^2."""
    if not 0.0 < s < math.inf:
        return 0.0 if s == s else s
    a, b = params.a, params.b
    # log 2 enters the exponent: 2 exp(y) would keep one bit fewer of a
    # subnormal density, and would overflow where exp(y) does not.
    # b / s / s: s * s turns subnormal, and loses digits, below about 1.5e-154
    return _kernel(0.6931471805599453, a, b, s, -2.0 * a - 1.0, b / s / s)


def sd_moments(params: GammaParams) -> SdSummary:
    """Closed-form mean and standard deviation of the SD distribution.

    With x = a - 1 and g = Gamma(a)^2 / Gamma(a - 1/2)^2 - x:

    mu    = sqrt(b / (x + g))
    sigma = mu * sqrt(g / x)

    Only valid for a > 1.
    """
    a, b = params.a, params.b
    if a <= 1.0:
        raise ValueError(f"SD moments undefined for a <= 1 (got a={a})")
    _, root_c, cv = _sd_shape_factors(a)
    # sqrt(b) / sqrt(x + g): b / (x + g) alone overflows for b near the
    # largest double and a near 1
    mu = math.sqrt(b) / root_c
    sigma = mu * cv
    # SdSummary's own checks, inline: the record is then built without them
    if not (0.0 < mu < math.inf and 0.0 < sigma < math.inf):
        SdSummary(mu, sigma)
    return tuple.__new__(SdSummary, (mu, sigma))


def _sd_shape_factors(a: float) -> tuple[float, float, float]:
    """x + g (which is 1/S(a)), sqrt(x + g) and sqrt(g / x) at x = a - 1 > 0:
    the shape part of the SD moments and of the rate b = mu^2 (x + g)."""
    x = a - 1.0
    g = _g(x)
    return x + g, math.sqrt(x + g), math.sqrt(g / x)
