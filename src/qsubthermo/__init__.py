"""Heat transfer between two coupled quantum harmonic oscillators.

Closed-form Heisenberg dynamics and heat/entropy bookkeeping for resonant
oscillators prepared in product thermal states, an independent truncated
Fock-space oracle for cross-validation, and diagnostics for the Clausius and
free-entropy forms of the second law.
"""

from . import analytic, diagnostics, fock, model
from .analytic import *
from .diagnostics import *
from .fock import *
from .model import *
from .quadrature import adaptive_simpson

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *model.__all__,
    *analytic.__all__,
    "adaptive_simpson",
    *fock.__all__,
    *diagnostics.__all__,
]
