"""Heat transfer between two coupled quantum harmonic oscillators.

Closed-form Heisenberg dynamics, heat/entropy bookkeeping and the violation
scan for resonant oscillators prepared in product thermal states, and an
independent truncated Fock-space oracle for cross-validation with its audit of
the decomposition.  The modules ``quadrature`` and the oracle ``fock`` are
imported on first use of them or of one of their names, so the closed forms
load neither.
"""

import importlib.machinery

from . import analytic, model
from .analytic import *
from .model import *

__version__ = "0.1.0"

# Served by __getattr__, cheapest first: a name imports the modules up to the one that has it.
_ON_FIRST_USE = ("quadrature", "fock")


def __getattr__(name: str):
    """Serve the modules of ``_ON_FIRST_USE``, their public names and ``__all__``
    by importing them in turn until one has the name (``__all__`` takes all).

    Any other submodule's name is refused at once: ``from qsubthermo import cli``
    asks for it here before it imports ``qsubthermo.cli``.  ``from . import fock``
    would look the name up here again and recurse.  Every private name but
    ``__all__`` is refused too, so a probe such as ``inspect.unwrap``'s
    ``__wrapped__`` loads nothing; an unknown public name imports both modules.
    """
    private = name.startswith("_") and name != "__all__"
    if private or name not in _ON_FIRST_USE and importlib.machinery.PathFinder.find_spec(name, __path__):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    namespace = globals()
    for module_name in _ON_FIRST_USE:
        module = importlib.import_module(f"{__name__}.{module_name}")
        namespace.update({key: getattr(module, key) for key in module.__all__})
        if name in namespace:
            return namespace[name]
    namespace["__all__"] = ["__version__", *model.__all__, *analytic.__all__,
                            *(key for module_name in _ON_FIRST_USE for key in namespace[module_name].__all__)]
    if name not in namespace:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return namespace[name]
