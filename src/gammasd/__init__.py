"""Bidirectional conversion between a Gamma(a, b) noise-precision prior
and the mean/SD summary of the induced noise standard deviation."""

from .distributions import (
    GammaParams,
    SdSummary,
    log_gamma,
    precision_moments,
    precision_pdf,
    sd_moments,
    sd_pdf,
)
from .elicitation import (
    BRACKET_EPS,
    ROUND_TRIP_TOL,
    FitResult,
    S,
    S_hat,
    fit_prior,
    objective,
    residual_D,
    upper_bound_a,
)
from .optimize import OptimResult, minimize_bounded
from .validation import (
    CellResult,
    GridSpec,
    GridSummary,
    run_grid,
    summarize,
    write_csv,
)

__version__ = "0.1.0"

__all__ = [
    "BRACKET_EPS",
    "CellResult",
    "FitResult",
    "GammaParams",
    "GridSpec",
    "GridSummary",
    "OptimResult",
    "ROUND_TRIP_TOL",
    "S",
    "S_hat",
    "SdSummary",
    "fit_prior",
    "log_gamma",
    "minimize_bounded",
    "objective",
    "precision_moments",
    "precision_pdf",
    "residual_D",
    "run_grid",
    "sd_moments",
    "sd_pdf",
    "summarize",
    "upper_bound_a",
    "write_csv",
]
