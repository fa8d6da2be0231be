"""Densities and moments for a Gamma-distributed precision and the
standard deviation it induces.

A precision p ~ Gamma(a, b) (shape/rate) induces, through s = 1 / sqrt(p),
a distribution over the noise standard deviation s with density

    f_s(s) = 2 b^a / Gamma(a) * s^(-2a - 1) * exp(-b / s^2),  s > 0.

Its mean and standard deviation have closed forms in the gamma ratio,
valid for a > 1. Densities themselves are defined for all a > 0.

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

_LOG_2 = math.log(2.0)


def log_gamma(x: float) -> float:
    """Natural logarithm of the Gamma function for x > 0.

    The platform's math.lgamma, restricted to the positive axis: it would
    otherwise return log|Gamma(x)| for negative non-integers. Above about
    2.56e305 the result exceeds the largest double and is +inf, as in IEEE
    overflow, so densities at such shapes still evaluate to 0.
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
    terms). Both stay within 5e-13 relative of a 50-digit reference.
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


def precision_pdf(p: float, params: GammaParams) -> float:
    """Gamma(a, b) density over the precision; 0 outside the support p > 0.

    Evaluated in log space and exponentiated last so b^a cannot overflow.
    """
    if not 0.0 < p < math.inf:
        return 0.0 if p == p else p  # 0 off the support and at +inf; nan stays nan
    a, b = params.a, params.b
    log_pdf = a * math.log(b) - log_gamma(a) + (a - 1.0) * math.log(p) - p * b
    return math.exp(log_pdf)


def precision_moments(params: GammaParams) -> tuple[float, float]:
    """Mean a/b and variance a/b^2 of the precision distribution."""
    return params.a / params.b, params.a / (params.b * params.b)


def sd_pdf(s: float, params: GammaParams) -> float:
    """Density of the induced SD distribution; 0 outside the support s > 0."""
    if s <= 0.0:
        return 0.0
    a, b = params.a, params.b
    log_s, log_b = math.log(s), math.log(b)
    # b/s^2 in log space; s*s underflows for s below ~1e-154
    log_q = log_b - 2.0 * log_s
    if log_q > 709.0:
        # exp(-b/s^2) underflows past anything the polynomial factor adds
        return 0.0
    log_pdf = (
        _LOG_2
        + a * log_b
        - log_gamma(a)
        - (2.0 * a + 1.0) * log_s
        - math.exp(log_q)
    )
    return math.exp(log_pdf)


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
    return SdSummary(mu, mu * cv)  # positional: keywords cost about 0.2 us here


def _sd_shape_factors(a: float) -> tuple[float, float, float]:
    """x + g (which is 1/S(a)), sqrt(x + g) and sqrt(g / x) at x = a - 1 > 0:
    the shape part of the SD moments and of the rate b = mu^2 (x + g)."""
    x = a - 1.0
    g = _g(x)
    return x + g, math.sqrt(x + g), math.sqrt(g / x)
