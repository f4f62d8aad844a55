"""Second-law verdicts, violation scans, and the subsystem-decomposition audit.

A decomposition is "safe" when the bare energy is a constant of the motion,
i.e. [H0, V] = 0 (equivalently [H, V] = 0 or [H0, H] = 0 since H = H0 + V).
That condition is sufficient for the Clausius sign rule; when it fails, the
sign rule can break, and the scan classifies the breakage as transient
(pointwise only, averages recover past a threshold window) or persistent
(time-averaged transfer still wrong-signed at long windows).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .analytic import heat_transfer, time_averaged_heat
from .fock import FockConfig, build_hamiltonian, sectors
from .model import (
    VIOLATION_TOL_SCALE,
    ModelError,
    OscillatorSystem,
    ThermalPreparation,
    csl_compliant,
)

__all__ = [
    "CslVerdict",
    "Classification",
    "ViolationProfile",
    "DecompositionAudit",
    "csl_check",
    "scan_violations",
    "decomposition_audit",
]

#: Longest averaging window the transient/persistent call considers (times 1/omega).
TAU_HORIZON_CYCLES = 50.0

#: Averaging windows the transient/persistent call checks, from tau_threshold to the horizon.
TAU_WINDOWS = 32

#: Commutator norms below this make a decomposition csl_safe.
COMMUTATOR_TOL = 1e-10


@dataclass(frozen=True)
class CslVerdict:
    """Sign verdict for one heat-transfer value.

    ``margin`` is sign(beta_b - beta_a) * dq_ab: positive when safely
    compliant, negative when violating.  ``anomaly`` marks measurable transfer
    between equal-temperature preparations, which is reportable but not wrong.
    """

    t: float
    dq_ab: float
    compliant: bool
    margin: float
    anomaly: bool = False


def csl_check(
    dq_ab: float,
    prep: ThermalPreparation,
    t: float = 0.0,
    omega: float = 1.0,
) -> CslVerdict:
    """Clausius verdict for a single transfer value."""
    direction = float(np.sign(prep.beta_b - prep.beta_a))
    compliant = csl_compliant(dq_ab, prep, omega=omega)
    anomaly = direction == 0.0 and abs(dq_ab) > VIOLATION_TOL_SCALE * omega
    return CslVerdict(
        t=t,
        dq_ab=dq_ab,
        compliant=compliant,
        margin=direction * dq_ab,
        anomaly=anomaly,
    )


class Classification(enum.Enum):
    NONE = "none"
    TRANSIENT = "transient"
    PERSISTENT = "persistent"


@dataclass(frozen=True)
class ViolationProfile:
    """Where the sign rule fails on a time grid, and how that failure reads."""

    grid: tuple[float, ...]
    violations: tuple[float, ...]
    classification: Classification
    tau_threshold: float


def scan_violations(
    sys: OscillatorSystem,
    prep: ThermalPreparation,
    t_max: float,
    n_samples: int,
    tau_threshold: float | None = None,
) -> ViolationProfile:
    """Evaluate dQ_ab on a uniform grid and classify any sign violations.

    Violations are transient when every averaging window tau between
    tau_threshold (default 3/omega) and the 50/omega horizon yields a
    compliant time-averaged transfer, persistent when some window does not.
    Pointwise values and averages take the same verdict, ``csl_compliant``.
    """
    if not (math.isfinite(t_max) and t_max > 0.0):
        raise ModelError("t_max must be positive and finite")
    if n_samples < 16:
        raise ModelError("need at least 16 samples")
    omega = max(sys.omega_a, sys.omega_b)
    if tau_threshold is None:
        tau_threshold = 3.0 / omega
    grid = np.linspace(0.0, t_max, n_samples)
    compliant = csl_compliant(heat_transfer(grid, sys, prep).dq_ab, prep, omega=omega)
    violations = tuple(grid[~compliant].tolist())
    if not violations:
        classification = Classification.NONE
    else:
        taus = np.linspace(tau_threshold, TAU_HORIZON_CYCLES / omega, TAU_WINDOWS)
        persistent = not csl_compliant(time_averaged_heat(sys, prep, taus), prep, omega=omega).all()
        classification = Classification.PERSISTENT if persistent else Classification.TRANSIENT
    return ViolationProfile(
        grid=tuple(grid.tolist()),
        violations=violations,
        classification=classification,
        tau_threshold=tau_threshold,
    )


@dataclass(frozen=True)
class DecompositionAudit:
    """Frobenius norms of the three equivalent bare-energy commutators."""

    norm_h0v: float
    norm_hv: float
    norm_h0h: float
    csl_safe: bool


def decomposition_audit(sys: OscillatorSystem, cfg: FockConfig) -> DecompositionAudit:
    """Measure [H0, V], [H, V] and [H0, H] on the Fock oracle.

    With H = H0 + V the three commutators are equal as operators, so the norms
    agree; csl_safe reports whether they vanish, which is the sufficient
    condition for the Clausius sign rule.
    """
    parts = build_hamiltonian(sys, cfg)
    # H0 is diagonal, so [H0, X]_ij = (d_i - d_j) X_ij needs no product, and
    # the gaps vanish on the diagonal, where alone V and H differ: [H0, V] and
    # [H0, H] are one array.  H and V = H - H0 are Hermitian, so V H = (H V)^dag,
    # and both vanish between the sectors of H, so [H, V] takes one product per
    # sector.
    d = parts.d_a + parts.d_b
    norm_h0v = norm_h0h = float(np.linalg.norm((d[:, None] - d[None, :]) * parts.h))
    sector_norms = []
    for index in sectors(parts.h):
        h_s = parts.h[np.ix_(index, index)]
        hv = h_s @ (h_s - np.diag(d[index]))
        sector_norms.append(np.linalg.norm(hv - hv.conj().T))
    norm_hv = math.hypot(*sector_norms)
    return DecompositionAudit(
        norm_h0v=norm_h0v,
        norm_hv=norm_hv,
        norm_h0h=norm_h0h,
        csl_safe=max(norm_h0v, norm_hv, norm_h0h) < COMMUTATOR_TOL,
    )
