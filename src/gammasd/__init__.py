"""Bidirectional conversion between a Gamma(a, b) noise-precision prior
and the mean/SD summary of the induced noise standard deviation.

`import gammasd` loads the transform (distributions, elicitation); the
sweep's names and minimize_bounded load their module on first use.
"""

import importlib

from . import distributions, elicitation
from .distributions import *
from .elicitation import *

__version__ = "0.1.0"

# The module of each name that loads on first use; the modules name themselves.
_LAZY = {
    "optimize": "optimize", "OptimResult": "optimize", "minimize_bounded": "optimize",
    "validation": "validation", "GridSpec": "validation", "CellResult": "validation",
    "GridSummary": "validation", "run_grid": "validation", "summarize": "validation",
    "write_csv": "validation",
}

# the lazy names in _LAZY's order are optimize's and then validation's own __all__
__all__ = [*distributions.__all__, *elicitation.__all__,
           *(name for name, module in _LAZY.items() if name != module)]


def __getattr__(name):
    # importlib, not `from . import`: the import system checks the fromlist by
    # looking each name up on this package, which would land here again
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module("." + _LAZY[name], __name__)
    value = module if name == _LAZY[name] else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_LAZY})
