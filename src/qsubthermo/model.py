"""Shared domain types for the coupled-oscillator heat-transfer model.

Conventions used throughout the package: hbar = k_B = 1, so frequencies and
temperatures share one energy unit and time is measured in inverse energy.
Subsystem energies are the bare number operators H_a = omega_a * a^dag a and
H_b = omega_b * b^dag b; both oscillators start in product thermal states at
inverse temperatures (beta_a, beta_b).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "InteractionKind",
    "OscillatorSystem",
    "ThermalPreparation",
    "ModelError",
    "OffResonanceError",
    "SingularCouplingError",
    "TruncationError",
    "PositivityError",
    "HeatReport",
    "csl_compliant",
    "free_entropy_change",
]


class ModelError(ValueError):
    """Invalid physical parameters or an unsupported configuration."""


class OffResonanceError(ModelError):
    """Closed-form solutions exist only on resonance (omega_a == omega_b)."""


class SingularCouplingError(ModelError):
    """g == omega/2 makes the soft normal mode static and the closed forms singular."""


class TruncationError(ModelError):
    """Fock-space cutoff too small for the requested thermal state or band."""


class PositivityError(ModelError):
    """A supposed density matrix has a meaningfully negative eigenvalue or
    unsupported relative-entropy arguments."""


class InteractionKind(enum.Enum):
    """How the two oscillators are coupled."""

    RWA = "rwa"              # i g (a b^dag - a^dag b); conserves the bare energy
    LINEAR = "linear"        # i g (a^dag + a)(b^dag - b); keeps counter-rotating terms
    MINIMAL_A = "minimal-a"  # (p_a - q x_b)^2 / 2m form
    MINIMAL_B = "minimal-b"  # (p_b + q x_a)^2 / 2m form
    NONE = "none"            # uncoupled


# Kinds whose coupling is the momentum-shift (m, q) pair instead of g.
MINIMAL_KINDS = frozenset({InteractionKind.MINIMAL_A, InteractionKind.MINIMAL_B})


@dataclass(frozen=True)
class OscillatorSystem:
    """Two harmonic oscillators and their interaction.

    RWA/LINEAR systems carry a coupling strength ``g``; the minimal-coupling
    kinds carry a mass ``m`` and charge-like coupling ``q`` instead.
    """

    omega_a: float
    omega_b: float
    kind: InteractionKind = InteractionKind.NONE
    g: float = 0.0
    m: float | None = None
    q: float | None = None

    def __post_init__(self) -> None:
        for name in ("omega_a", "omega_b", "g", "m", "q"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ModelError(f"{name} must be finite, got {value}")
        if not (self.omega_a > 0.0 and self.omega_b > 0.0):
            raise ModelError("oscillator frequencies must be positive")
        if self.kind in MINIMAL_KINDS:
            if self.m is None or not self.m > 0.0:
                raise ModelError(f"kind={self.kind.value} requires a mass m > 0")
            if self.q is None or self.q < 0.0:
                raise ModelError(f"kind={self.kind.value} requires a coupling q >= 0")
            if self.g != 0.0:
                raise ModelError("minimal-coupling kinds use (m, q), not g")
        else:
            if self.m is not None or self.q is not None:
                raise ModelError(f"kind={self.kind.value} does not take m or q")
            if self.g < 0.0:
                raise ModelError("coupling strength g must be non-negative")
            if self.kind is InteractionKind.NONE and self.g != 0.0:
                raise ModelError("kind=none requires g == 0")

    @property
    def resonant(self) -> bool:
        return self.omega_a == self.omega_b

    def require_resonant(self) -> float:
        """Return the common frequency, or reject off-resonant systems."""
        if not self.resonant:
            raise OffResonanceError(
                "no closed form off resonance "
                f"(omega_a={self.omega_a}, omega_b={self.omega_b})"
            )
        return self.omega_a

    def mass(self) -> float:
        """Mass used for position/momentum quadratures (1 unless minimal coupling)."""
        return self.m if self.m is not None else 1.0


@dataclass(frozen=True)
class ThermalPreparation:
    """Inverse temperatures of the initial product thermal state."""

    beta_a: float
    beta_b: float

    def __post_init__(self) -> None:
        if not all(math.isfinite(b) and b > 0.0 for b in (self.beta_a, self.beta_b)):
            raise ModelError("inverse temperatures must be positive and finite")

    @classmethod
    def from_temperatures(cls, temp_a: float, temp_b: float) -> "ThermalPreparation":
        if not (temp_a > 0.0 and temp_b > 0.0):
            raise ModelError("temperatures must be positive")
        return cls(beta_a=1.0 / temp_a, beta_b=1.0 / temp_b)

    def swapped(self) -> "ThermalPreparation":
        return ThermalPreparation(beta_a=self.beta_b, beta_b=self.beta_a)


def free_entropy_change(dq_a: float, dq_b: float, prep: ThermalPreparation) -> float:
    """Free entropy change beta_a*dQ_a + beta_b*dQ_b (non-negative for thermal starts)."""
    return prep.beta_a * dq_a + prep.beta_b * dq_b


#: Transfer within this (times omega) of zero is compliant: it absorbs exact
#: sin^2-type zeros and floating-point noise, which are not violations.
VIOLATION_TOL_SCALE = 1e-12


def csl_compliant(dq_ab: float, prep: ThermalPreparation, omega: float = 1.0) -> bool:
    """Clausius sign test: heat must not flow from the cooler to the hotter oscillator.

    Zero transfer (within VIOLATION_TOL_SCALE * omega) is compliant: the law
    forbids wrong-sign transfer, not the absence of transfer.  An array of
    transfers gives an array of verdicts.
    """
    ok = (np.abs(dq_ab) <= VIOLATION_TOL_SCALE * omega) | (np.sign(dq_ab) == np.sign(prep.beta_b - prep.beta_a))
    return ok if np.ndim(ok) else bool(ok)


@dataclass(frozen=True)
class HeatReport:
    """Subsystem heat changes and the second-law verdicts at one time, or
    arrays of them over an array of times."""

    t: float
    dq_a: float
    dq_b: float
    dq_ab: float
    ds0: float
    csl_ok: bool

    @classmethod
    def from_heats(
        cls, t: float, dq_a: float, dq_b: float, prep: ThermalPreparation, sys: OscillatorSystem,
        dq_ab: float | None = None,
    ) -> "HeatReport":
        """Transfer, free entropy change and Clausius verdict from the two heats;
        a caller with the transfer free of the cancellation in dq_b - dq_a passes dq_ab."""
        dq_ab = dq_b - dq_a if dq_ab is None else dq_ab
        return cls(
            t=t,
            dq_a=dq_a,
            dq_b=dq_b,
            dq_ab=dq_ab,
            ds0=free_entropy_change(dq_a, dq_b, prep),
            csl_ok=csl_compliant(dq_ab, prep, omega=max(sys.omega_a, sys.omega_b)),
        )


def _checked(values, what: str, positive: bool = False):
    """A scalar or 1-D array of finite times (windows: positive ones) as floats.

    Both routes take their times through here, so they reject the same inputs.
    The error names the first bad value, so it stays one line for any grid.
    """
    arr = np.asarray(values, dtype=float)
    if arr.ndim > 1:
        raise ModelError(f"{what} must be a scalar or a one-dimensional array")
    bad = arr[~((arr > 0.0 if positive else arr >= 0.0) & (arr < np.inf))]  # NaN fails both
    if bad.size:
        raise ModelError(f"{what} must be finite and {'positive' if positive else 'non-negative'}, got {bad[0]}")
    return arr


def _finite(values, what: str):
    """values, or a ModelError when the evolution overflowed (inf or NaN) on the way."""
    if not np.isfinite(values).all():
        raise ModelError(f"the evolution overflows for this {what}")
    return values
