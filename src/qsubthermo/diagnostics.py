"""Violation scans and the subsystem-decomposition audit.

The Clausius verdict itself is ``model.csl_compliant``; this module applies
it.  A decomposition is "safe" when the bare energy is a constant of the
motion, i.e. [H0, V] = 0 (equivalently [H, V] = 0 or [H0, H] = 0 since
H = H0 + V).  That condition is sufficient for the Clausius sign rule; when it
fails, the sign rule can break, and the scan classifies the breakage as
transient (pointwise only: the long-time average of dQ_ab keeps the Clausius
sign) or persistent (the long-time average violates), read exactly from the
exponents of the closed-form table.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .analytic import _table, heat_transfer
from .model import ModelError, OscillatorSystem, ThermalPreparation, _checked

if TYPE_CHECKING:
    from .fock import FockConfig

__all__ = [
    "Classification",
    "ViolationProfile",
    "DecompositionAudit",
    "scan_violations",
    "decomposition_audit",
]

#: Commutator norms below this make a decomposition csl_safe.
COMMUTATOR_TOL = 1e-10


class Classification(enum.Enum):
    NONE = "none"
    TRANSIENT = "transient"
    PERSISTENT = "persistent"


@dataclass(frozen=True)
class ViolationProfile:
    """Where the sign rule fails on a time grid, and how that failure reads."""

    violations: tuple[float, ...]
    classification: Classification


def scan_violations(
    sys: OscillatorSystem,
    prep: ThermalPreparation,
    t_max: float,
    n_samples: int,
) -> ViolationProfile:
    """Evaluate dQ_ab on a uniform grid and classify any sign violations.

    Violations are persistent when some exponent mu of the closed-form table
    has Re mu > 0, and transient otherwise.  That is the long-time average's
    verdict on every table.  On a stable one the secular terms of K - 1 (those
    with mu_j + conj(mu_k) = 0) sum to zero, so the average tends to the
    compliant omega_a (X_a - X_b); on an unstable one the fastest-growing terms
    of K - 1 oscillate, so the average changes sign without end.
    """
    _checked(t_max, "t_max", positive=True)
    if not isinstance(n_samples, (int, np.integer)) or isinstance(n_samples, bool):
        raise ModelError(f"n_samples must be an integer, got {n_samples!r}")
    if n_samples < 16:
        raise ModelError("need at least 16 samples")
    grid = np.linspace(0.0, t_max, n_samples)
    violations = tuple(grid[~heat_transfer(grid, sys, prep).csl_ok].tolist())
    if not violations:
        return ViolationProfile(violations, Classification.NONE)
    grows = (_table(sys)[0].real > 0.0).any()
    return ViolationProfile(violations, Classification.PERSISTENT if grows else Classification.TRANSIENT)


@dataclass(frozen=True)
class DecompositionAudit:
    """Frobenius norms of the three equivalent bare-energy commutators."""

    norm_h0v: float
    norm_hv: float
    norm_h0h: float
    csl_safe: bool


def decomposition_audit(sys: OscillatorSystem, cfg: FockConfig) -> DecompositionAudit:
    """Measure [H0, V], [H, V] and [H0, H] on the Fock oracle.

    The oracle defines V as H - H0, so [H, V] = [H0 + V, V] = [H0, V] =
    [H0, H] exactly, as matrices, and the three norms are one number, read
    from the edge list of H; csl_safe reports whether it vanishes, which is
    the sufficient condition for the Clausius sign rule.
    """
    from .fock import build_hamiltonian  # loaded on first use, so the scans never compile the oracle

    parts = build_hamiltonian(sys, cfg)
    # H0 is diagonal, so [H0, X]_ij = (d_i - d_j) X_ij needs no product, and
    # the gaps vanish on the diagonal, where alone V and H differ.  The squares
    # are summed elementwise: np.linalg.norm takes a threaded BLAS dot, which in
    # a fresh process stalls about 8 ms at 10 001-19 999 entries.
    d = parts.d_a + parts.d_b
    v = (d[parts.rows] - d[parts.cols]) * parts.vals
    norm = float(np.sqrt(np.sum(v.real**2 + v.imag**2)))
    return DecompositionAudit(norm_h0v=norm, norm_hv=norm, norm_h0h=norm, csl_safe=norm < COMMUTATOR_TOL)
