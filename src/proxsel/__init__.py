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

from .exceptions import *
from .linalg import *
from .estimators import *
from .simulation import *

__version__ = "0.1.0"


def __getattr__(name: str):
    # identification and data_io, and so __all__, load on first use: a Monte
    # Carlo needs neither (PEP 562).
    import importlib
    modules = [importlib.import_module(f"{__name__}.{m}") for m in
               ("exceptions", "linalg", "identification", "estimators", "simulation", "data_io")]
    for module in modules:
        globals().update((k, getattr(module, k)) for k in module.__all__)
    globals()["__all__"] = ["__version__"] + [k for module in modules for k in module.__all__]
    if name not in globals():
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return globals()[name]


def __dir__() -> list[str]:
    __getattr__("__all__")
    return sorted(set(globals()) - {"__getattr__", "__dir__"})
