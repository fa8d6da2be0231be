"""Densities and moments for a Gamma-distributed precision and the
standard deviation it induces.

A precision p ~ Gamma(a, b) (shape/rate) induces, through s = 1 / sqrt(p),
a distribution over the noise standard deviation s with density

    f_s(s) = 2 b^a / Gamma(a) * s^(-2a - 1) * exp(-b / s^2),  s > 0.

Its mean and standard deviation have closed forms in terms of log-gamma,
valid for a > 1. Densities themselves are defined for all a > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "GammaParams",
    "SdSummary",
    "NumericalDegeneracyError",
    "log_gamma",
    "precision_pdf",
    "precision_moments",
    "sd_pdf",
    "sd_moments",
]

_LOG_2 = math.log(2.0)


class NumericalDegeneracyError(ArithmeticError):
    """A quantity that is positive in exact arithmetic lost its sign in
    double precision (typically the SD variance bracket at very large a)."""


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


def _variance_bracket(a: float, s: float) -> float:
    """1/(a - 1) - S(a), where S(a) = exp(2 (logGamma(a - 1/2) - logGamma(a))).

    Positive for a > 1 in exact arithmetic; at large a cancellation can
    lose its sign, which raises NumericalDegeneracyError.
    """
    bracket = 1.0 / (a - 1.0) - s
    if bracket <= 0.0:
        raise NumericalDegeneracyError(
            f"SD variance bracket non-positive at a={a} (loss of precision)"
        )
    return bracket


@dataclass(frozen=True)
class GammaParams:
    """Shape/rate pair (a, b) of the precision prior.

    Both must be strictly positive and finite. Moments of the induced SD
    distribution additionally need a > 1; that is enforced by sd_moments,
    not here.
    """

    a: float
    b: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.a) and self.a > 0.0):
            raise ValueError(f"shape a must be finite and > 0, got {self.a}")
        if not (math.isfinite(self.b) and self.b > 0.0):
            raise ValueError(f"rate b must be finite and > 0, got {self.b}")


@dataclass(frozen=True)
class SdSummary:
    """Mean and standard deviation of the induced SD distribution."""

    mu: float
    sigma: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.mu) and self.mu > 0.0):
            raise ValueError(f"mu must be finite and > 0, got {self.mu}")
        if not (math.isfinite(self.sigma) and self.sigma > 0.0):
            raise ValueError(f"sigma must be finite and > 0, got {self.sigma}")


def precision_pdf(p: float, params: GammaParams) -> float:
    """Gamma(a, b) density over the precision; 0 outside the support p > 0.

    Evaluated in log space and exponentiated last so b^a cannot overflow.
    """
    if p <= 0.0:
        return 0.0
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
    log_s = math.log(s)
    # b/s^2 in log space; s*s underflows for s below ~1e-154
    log_q = math.log(b) - 2.0 * log_s
    if log_q > 709.0:
        # exp(-b/s^2) underflows past anything the polynomial factor adds
        return 0.0
    log_pdf = (
        _LOG_2
        + a * math.log(b)
        - log_gamma(a)
        - (2.0 * a + 1.0) * log_s
        - math.exp(log_q)
    )
    return math.exp(log_pdf)


def sd_moments(params: GammaParams) -> SdSummary:
    """Closed-form mean and standard deviation of the SD distribution.

    mu    = sqrt(b) * exp(logGamma(a - 1/2) - logGamma(a))
    sigma = sqrt(b * [1/(a - 1) - exp(2 logGamma(a - 1/2) - 2 logGamma(a))])

    Only valid for a > 1, and for a below about 2.56e305, where log-gamma
    overflows.
    """
    a, b = params.a, params.b
    if a <= 1.0:
        raise ValueError(f"SD moments undefined for a <= 1 (got a={a})")
    d = log_gamma(a - 0.5) - log_gamma(a)
    if math.isnan(d):
        # both log-gammas are +inf
        raise ValueError(
            f"SD moments overflow for shape a={a}: log-gamma exceeds the double range"
        )
    mu = math.sqrt(b) * math.exp(d)
    var_bracket = _variance_bracket(a, math.exp(2.0 * d))
    return SdSummary(mu=mu, sigma=math.sqrt(b * var_bracket))
