"""Heat transfer between two coupled quantum harmonic oscillators.

Closed-form Heisenberg dynamics and heat/entropy bookkeeping for resonant
oscillators prepared in product thermal states, an independent truncated
Fock-space oracle for cross-validation, and diagnostics for the Clausius and
free-entropy forms of the second law.
"""

from .analytic import (
    HeatReport,
    PropagatorCoefficients,
    heat_transfer,
    propagator_coefficients,
    thermal_occupation,
    time_averaged_heat,
)
from .diagnostics import (
    Classification,
    CslVerdict,
    DecompositionAudit,
    ViolationProfile,
    csl_check,
    decomposition_audit,
    scan_violations,
)
from .fock import (
    BareBasisAmplitudes,
    EntropyProduction,
    FockConfig,
    HamiltonianParts,
    TrueHeatReport,
    bare_amplitudes,
    build_hamiltonian,
    classical_average,
    destroy,
    diagonal_split,
    effective_hamiltonian,
    entropy_production,
    heat_changes_numeric,
    heat_series_numeric,
    jarzynski_identity,
    jensen_bound,
    partial_trace_a,
    partial_trace_b,
    relative_entropy,
    spectrum_match,
    thermal_state,
    true_energies,
    true_heat_transfer_identity,
    von_neumann_entropy,
)
from .model import (
    InteractionKind,
    ModelError,
    OffResonanceError,
    OscillatorSystem,
    PositivityError,
    SingularCouplingError,
    ThermalPreparation,
    TruncationError,
    csl_compliant,
    free_entropy_change,
)
from .quadrature import adaptive_simpson

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # model
    "InteractionKind",
    "OscillatorSystem",
    "ThermalPreparation",
    "ModelError",
    "OffResonanceError",
    "SingularCouplingError",
    "TruncationError",
    "PositivityError",
    "csl_compliant",
    "free_entropy_change",
    # analytic
    "PropagatorCoefficients",
    "HeatReport",
    "thermal_occupation",
    "propagator_coefficients",
    "heat_transfer",
    "time_averaged_heat",
    "adaptive_simpson",
    # fock
    "FockConfig",
    "HamiltonianParts",
    "BareBasisAmplitudes",
    "EntropyProduction",
    "TrueHeatReport",
    "destroy",
    "build_hamiltonian",
    "thermal_state",
    "heat_changes_numeric",
    "heat_series_numeric",
    "bare_amplitudes",
    "classical_average",
    "jarzynski_identity",
    "jensen_bound",
    "partial_trace_a",
    "partial_trace_b",
    "von_neumann_entropy",
    "relative_entropy",
    "entropy_production",
    "true_energies",
    "true_heat_transfer_identity",
    "effective_hamiltonian",
    "diagonal_split",
    "spectrum_match",
    # diagnostics
    "CslVerdict",
    "Classification",
    "ViolationProfile",
    "DecompositionAudit",
    "csl_check",
    "scan_violations",
    "decomposition_audit",
]
