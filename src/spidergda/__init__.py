"""Variance-reduced smoothed gradient descent-ascent for constrained
stochastic minimax problems, with schedule tuning, Moreau smoothing for
nonsmooth composites, and stationarity diagnostics.

The package root re-exports each module's `__all__`, so a public name is
listed once, in its own module.  `cli` and `verify` are not re-exported.
"""

from .core import *
from .projections import *
from .estimator import *
from .solver import *
from .tuner import *
from .smoothing import *
from .diagnostics import *
from .problems import *

__version__ = "0.1.0"

# each star import above also binds its submodule (`core`, ...) here
__all__ = ["__version__", "problems", *core.__all__, *projections.__all__,
           *estimator.__all__, *solver.__all__, *tuner.__all__,
           *smoothing.__all__, *diagnostics.__all__, *problems.__all__]
