"""Bidirectional conversion between a Gamma(a, b) noise-precision prior
and the mean/SD summary of the induced noise standard deviation."""

from . import distributions, elicitation, optimize, validation
from .distributions import *
from .elicitation import *
from .optimize import *
from .validation import *

__version__ = "0.1.0"

__all__ = [*distributions.__all__, *elicitation.__all__,
           *optimize.__all__, *validation.__all__]
