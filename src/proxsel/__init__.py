"""proxsel: treatment-effect estimation with possibly invalid confounding proxies.

The package estimates a linear treatment effect under hidden confounding by
exploiting two kinds of candidate proxies of the confounder: treatment-
inducing proxies (TCPs), which are valid when they have no direct outcome
effect, and outcome-inducing proxies (OCPs), which are valid when the
treatment does not affect them. Invalid TCPs are selected out by an
adaptively weighted lasso; invalid OCPs are neutralized by aggregating
per-OCP estimates with a median. Identification checks, selection
diagnostics, a simulation harness, file I/O, and a command-line interface
round out the toolkit.
"""

from . import data_io, estimators, exceptions, identification, linalg, simulation
from .exceptions import *
from .linalg import *
from .identification import *
from .estimators import *
from .simulation import *
from .data_io import *

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name
    for module in (exceptions, linalg, identification, estimators, simulation, data_io)
    for name in module.__all__
]
