"""Heat transfer between two coupled quantum harmonic oscillators.

Closed-form Heisenberg dynamics and heat/entropy bookkeeping for resonant
oscillators prepared in product thermal states, an independent truncated
Fock-space oracle for cross-validation, and diagnostics for the Clausius and
free-entropy forms of the second law.  The oracle module ``fock`` is imported
on first use of it or of one of its names, so the closed forms never load it.
"""

import importlib

from . import analytic, diagnostics, model
from .analytic import *
from .diagnostics import *
from .model import *
from .quadrature import adaptive_simpson

__version__ = "0.1.0"


def __getattr__(name: str):
    """Serve ``fock``, its public names and ``__all__`` by importing the oracle.

    ``from . import fock`` would look the name up here again and recurse.
    """
    fock = importlib.import_module(f"{__name__}.fock")
    namespace = globals()
    namespace.update({key: getattr(fock, key) for key in fock.__all__})
    namespace["__all__"] = ["__version__", *model.__all__, *analytic.__all__, "adaptive_simpson", *fock.__all__,
                            *diagnostics.__all__]
    if name not in namespace:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return namespace[name]
