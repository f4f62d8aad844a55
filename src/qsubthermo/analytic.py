"""Closed-form Heisenberg dynamics and heat bookkeeping on resonance.

For quadratic interactions the mode operators at time t are linear
combinations of the t=0 operators,

    a(t) = f_a a + g_a a^dag + f_b b + g_b b^dag
    b(t) = p_a a + q_a a^dag + p_b b + q_b b^dag

and every heat quantity follows from the eight coefficients plus the Bose
occupations X_c = 1/(exp(beta_c omega_c) - 1):

    dQ_a = omega_a [ (|f_a|^2 + |g_a|^2 - 1) X_a + (|f_b|^2 + |g_b|^2) X_b
                     + |g_a|^2 + |g_b|^2 ]

(and symmetrically for dQ_b), with dQ_ab = dQ_b - dQ_a and the free entropy
change dS0 = beta_a dQ_a + beta_b dQ_b.

The RWA coupling i g (a b^dag - a^dag b) gives the excitation-swap solution
a(t) = exp(-i omega t)(a cos gt - b sin gt).  The full linear coupling
i g (a^dag + a)(b^dag - b) decouples into hybrid modes (a + i b)/sqrt(2) and
(b + i a)/sqrt(2) with frequencies sqrt(omega^2 -/+ 2 omega g): the first
softens with g and goes unstable past g = omega/2, where its frequency is
computed as a complex number so the trigonometric solution continues into
hyperbolic growth with no separate branch.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .model import (
    InteractionKind,
    ModelError,
    OscillatorSystem,
    SingularCouplingError,
    ThermalPreparation,
    csl_compliant,
    free_entropy_change,
)
from .quadrature import adaptive_simpson

__all__ = [
    "PropagatorCoefficients",
    "HeatReport",
    "thermal_occupation",
    "rwa_coefficients",
    "linear_coefficients",
    "free_coefficients",
    "propagator_coefficients",
    "heat_changes",
    "heat_transfer",
    "time_averaged_heat",
]


def thermal_occupation(beta: float, omega: float) -> float:
    """Mean excitation number 1/(exp(beta*omega) - 1) of a thermal oscillator."""
    if not (beta > 0.0 and omega > 0.0):
        raise ModelError("thermal occupation needs beta > 0 and omega > 0")
    return 1.0 / math.expm1(beta * omega)


@dataclass(frozen=True)
class PropagatorCoefficients:
    """The eight linear-response amplitudes of a(t) and b(t) at one time.

    Unitarity of the underlying evolution shows up as four preserved
    commutators; ``commutator_defects`` reports how far the coefficients are
    from satisfying them.
    """

    t: float
    f_a: complex
    g_a: complex
    f_b: complex
    g_b: complex
    p_a: complex
    q_a: complex
    p_b: complex
    q_b: complex

    def commutator_defects(self) -> tuple[float, float, float, float]:
        """Residuals of ([a,a^dag], [b,b^dag], [a,b], [a,b^dag]) preservation."""
        d1 = abs(
            abs(self.f_a) ** 2 - abs(self.g_a) ** 2 + abs(self.f_b) ** 2 - abs(self.g_b) ** 2 - 1.0
        )
        d2 = abs(
            abs(self.p_b) ** 2 - abs(self.q_b) ** 2 + abs(self.p_a) ** 2 - abs(self.q_a) ** 2 - 1.0
        )
        d3 = abs(
            self.f_a * self.q_a - self.g_a * self.p_a + self.f_b * self.q_b - self.g_b * self.p_b
        )
        d4 = abs(
            self.f_a * self.p_a.conjugate()
            - self.g_a * self.q_a.conjugate()
            + self.f_b * self.p_b.conjugate()
            - self.g_b * self.q_b.conjugate()
        )
        return (d1, d2, d3, d4)


@dataclass(frozen=True)
class HeatReport:
    """Subsystem heat changes and the second-law verdicts at one time."""

    t: float
    dq_a: float
    dq_b: float
    dq_ab: float
    ds0: float
    csl_ok: bool

    @classmethod
    def from_heats(
        cls, t: float, dq_a: float, dq_b: float, prep: ThermalPreparation, sys: OscillatorSystem
    ) -> "HeatReport":
        """Transfer, free entropy change and Clausius verdict from the two heats."""
        dq_ab = dq_b - dq_a
        return cls(
            t=t,
            dq_a=dq_a,
            dq_b=dq_b,
            dq_ab=dq_ab,
            ds0=free_entropy_change(dq_a, dq_b, prep),
            csl_ok=csl_compliant(dq_ab, prep, omega=max(sys.omega_a, sys.omega_b)),
        )


def _check_time(t: float) -> None:
    if not (math.isfinite(t) and t >= 0.0):
        raise ModelError(f"time must be finite and non-negative, got {t}")


def rwa_coefficients(sys: OscillatorSystem, t: float) -> PropagatorCoefficients:
    """Excitation-swap solution for the number-conserving coupling, on resonance.

    a(t) = exp(-i omega t)(a cos gt - b sin gt), b(t) likewise with the roles
    exchanged; no conjugate (squeezing) amplitudes appear.
    """
    if sys.kind is not InteractionKind.RWA:
        raise ModelError(f"rwa_coefficients needs kind=rwa, got {sys.kind.value}")
    omega = sys.require_resonant()
    _check_time(t)
    phase = cmath.exp(-1j * omega * t)
    c, s = math.cos(sys.g * t), math.sin(sys.g * t)
    return PropagatorCoefficients(
        t=t,
        f_a=phase * c,
        g_a=0.0,
        f_b=-phase * s,
        g_b=0.0,
        p_a=phase * s,
        q_a=0.0,
        p_b=phase * c,
        q_b=0.0,
    )


def _single_mode_amplitudes(omega_eff: float, squeeze: float, nu: complex, t: float):
    """Amplitudes (A, B) of c(t) = A c + B c^dag for h = omega_eff c^dag c
    + (squeeze/2)(c^2 + c^dag^2), with nu^2 = omega_eff^2 - squeeze^2."""
    A = cmath.cos(nu * t) - 1j * (omega_eff / nu) * cmath.sin(nu * t)
    B = -1j * (squeeze / nu) * cmath.sin(nu * t)
    return A, B


def linear_coefficients(sys: OscillatorSystem, t: float) -> PropagatorCoefficients:
    """Propagator for the full linear coupling i g (a^dag + a)(b^dag - b), on resonance.

    Solved through the hybrid modes u = (a + i b)/sqrt(2) and
    v = (b + i a)/sqrt(2), each a squeezed single mode:

        u evolves at nu_soft  = sqrt(omega^2 - 2 omega g)
        v evolves at nu_stiff = sqrt(omega^2 + 2 omega g)

    with a = (u - i v)/sqrt(2) and b = (v - i u)/sqrt(2) recovering the lab
    modes.  nu_soft is evaluated as a complex square root so g > omega/2 flows
    through the same expressions as hyperbolic growth.
    """
    if sys.kind is not InteractionKind.LINEAR:
        raise ModelError(f"linear_coefficients needs kind=linear, got {sys.kind.value}")
    omega = sys.require_resonant()
    _check_time(t)
    g = sys.g
    if 2.0 * g == omega:
        raise SingularCouplingError(
            "g = omega/2 makes the soft mode static; perturb g to either side"
        )
    nu_soft = cmath.sqrt(complex(omega * omega - 2.0 * omega * g))
    nu_stiff = cmath.sqrt(complex(omega * omega + 2.0 * omega * g))
    A_u, B_u = _single_mode_amplitudes(omega - g, -g, nu_soft, t)
    A_v, B_v = _single_mode_amplitudes(omega + g, -g, nu_stiff, t)
    f_a = 0.5 * (A_u + A_v)
    g_a = 0.5 * (B_u - B_v)
    f_b = 0.5j * (A_u - A_v)
    g_b = -0.5j * (B_u + B_v)
    return PropagatorCoefficients(
        t=t,
        f_a=f_a,
        g_a=g_a,
        f_b=f_b,
        g_b=g_b,
        p_a=-f_b,
        q_a=g_b,
        p_b=f_a,
        q_b=-g_a,
    )


def free_coefficients(sys: OscillatorSystem, t: float) -> PropagatorCoefficients:
    """Uncoupled evolution: each mode just rotates at its own frequency."""
    _check_time(t)
    return PropagatorCoefficients(
        t=t,
        f_a=cmath.exp(-1j * sys.omega_a * t),
        g_a=0.0,
        f_b=0.0,
        g_b=0.0,
        p_a=0.0,
        q_a=0.0,
        p_b=cmath.exp(-1j * sys.omega_b * t),
        q_b=0.0,
    )


_COEFFICIENT_BUILDERS = {
    InteractionKind.RWA: rwa_coefficients,
    InteractionKind.LINEAR: linear_coefficients,
    InteractionKind.NONE: free_coefficients,
}


def propagator_coefficients(sys: OscillatorSystem, t: float) -> PropagatorCoefficients:
    """Dispatch to the closed form for this interaction kind."""
    try:
        builder = _COEFFICIENT_BUILDERS[sys.kind]
    except KeyError:
        raise ModelError(
            f"no closed-form propagator for kind={sys.kind.value}; use the Fock oracle"
        ) from None
    return builder(sys, t)


def heat_changes(
    coeffs: PropagatorCoefficients,
    prep: ThermalPreparation,
    sys: OscillatorSystem,
) -> HeatReport:
    """Heat absorbed by each oscillator since t=0, for a product thermal start.

    Callers are expected to pass coefficients that satisfy the commutator
    invariants (any output of the builders above does).
    """
    x_a = thermal_occupation(prep.beta_a, sys.omega_a)
    x_b = thermal_occupation(prep.beta_b, sys.omega_b)
    dq_a = sys.omega_a * (
        (abs(coeffs.f_a) ** 2 + abs(coeffs.g_a) ** 2 - 1.0) * x_a
        + (abs(coeffs.f_b) ** 2 + abs(coeffs.g_b) ** 2) * x_b
        + abs(coeffs.g_a) ** 2
        + abs(coeffs.g_b) ** 2
    )
    dq_b = sys.omega_b * (
        (abs(coeffs.p_b) ** 2 + abs(coeffs.q_b) ** 2 - 1.0) * x_b
        + (abs(coeffs.p_a) ** 2 + abs(coeffs.q_a) ** 2) * x_a
        + abs(coeffs.q_a) ** 2
        + abs(coeffs.q_b) ** 2
    )
    return HeatReport.from_heats(coeffs.t, dq_a, dq_b, prep, sys)


def heat_transfer(t: float, sys: OscillatorSystem, prep: ThermalPreparation) -> HeatReport:
    """Convenience: closed-form coefficients at t, then the heat report."""
    return heat_changes(propagator_coefficients(sys, t), prep, sys)


def time_averaged_heat(
    sys: OscillatorSystem,
    prep: ThermalPreparation,
    tau: float,
    quad_tol: float = 1e-8,
    max_depth: int = 40,
) -> float:
    """(1/tau) * integral of dQ_ab(t) over [0, tau], by adaptive Simpson.

    Ill-defined at g = omega/2 (the static-mode singularity propagates from
    the coefficients).
    """
    if not (math.isfinite(tau) and tau > 0.0):
        raise ModelError("averaging window tau must be positive and finite")
    if sys.kind is InteractionKind.LINEAR and 2.0 * sys.g == sys.require_resonant():
        raise SingularCouplingError("time-averaged transfer is ill-defined at g = omega/2")

    def integrand(t: float) -> float:
        return heat_transfer(t, sys, prep).dq_ab

    return adaptive_simpson(integrand, 0.0, tau, rel_tol=quad_tol, max_depth=max_depth) / tau
