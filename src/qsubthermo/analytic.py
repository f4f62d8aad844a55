"""Closed-form Heisenberg dynamics on resonance, as exact exponential sums.

For quadratic interactions the mode operators at time t are linear
combinations of the t=0 operators,

    a(t) = f_a a + g_a a^dag + f_b b + g_b b^dag
    b(t) = p_a a + q_a a^dag + p_b b + q_b b^dag

and each coefficient is a finite exponential sum c_i(t) = sum_k A_ik exp(mu_k t):
every kind is one exponent vector mu and one 8 x K amplitude table A.  RWA,
i g (a b^dag - a^dag b), swaps excitations: mu = -i(omega -/+ g).  LINEAR,
i g (a^dag + a)(b^dag - b), splits into squeezed hybrid modes (a + i b)/sqrt(2)
and (b + i a)/sqrt(2) at nu_soft/stiff = sqrt(omega^2 -/+ 2 omega g):
mu = +/- i nu_soft, +/- i nu_stiff, with nu_soft a complex square root, so past
g = omega/2 the same table grows hyperbolically.  NONE rotates each mode:
mu = -i omega_a, -i omega_b.

With the Bose occupations X_c = 1/(exp(beta_c omega_c) - 1), the heats are
linear in the |c_i|^2,

    dQ_a = omega_a [ (|f_a|^2 + |g_a|^2 - 1) X_a + (|f_b|^2 + |g_b|^2) X_b
                     + |g_a|^2 + |g_b|^2 ]

(and symmetrically for dQ_b), dQ_ab = dQ_b - dQ_a (evaluated as
omega_a (X_a - X_b) K, free of that difference's cancellation; see ``_report``)
and dS0 = beta_a dQ_a + beta_b dQ_b.  A window average over [0, tau] is the
same bookkeeping applied to <c_i conj(c_j)>_tau = sum_kl A_ik phi((mu_k +
conj(mu_l)) tau) conj(A_jl), phi(z) = expm1(z)/z and phi(0) = 1: exact, with
no quadrature.  Times and windows may be scalars, which give Python numbers,
or 1-D arrays, which give arrays.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .model import (
    HeatReport,
    InteractionKind,
    ModelError,
    OscillatorSystem,
    SingularCouplingError,
    ThermalPreparation,
    _checked,
    _finite,
)

__all__ = [
    "PropagatorCoefficients",
    "thermal_occupation",
    "propagator_coefficients",
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
    """The eight linear-response amplitudes of a(t) and b(t) at one time, or
    eight arrays over an array of times.

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


def _rwa_terms(sys: OscillatorSystem):
    omega = sys.require_resonant()
    mu = -1j * np.array([omega - sys.g, omega + sys.g])
    # exp(-i omega t) cos gt and exp(-i omega t) sin gt against exp(mu t)
    cos, sin, zero = [0.5, 0.5], [-0.5j, 0.5j], [0.0, 0.0]
    return mu, np.array([cos, zero, np.negative(sin), zero, sin, zero, cos, zero])


def _linear_terms(sys: OscillatorSystem):
    omega = sys.require_resonant()
    g = sys.g
    if 2.0 * g == omega:
        raise SingularCouplingError("g = omega/2 makes the soft mode static; perturb g to either side")
    # Each hybrid mode c = u (soft, w = omega - g) or v (stiff, w = omega + g) has
    # h = w c^dag c - (g/2)(c^2 + c^dag^2), so c(t) = A c + B c^dag with
    # A = cos(nu t) - i (w/nu) sin(nu t) and B = i (g/nu) sin(nu t).  Against
    # (exp(i nu t), exp(-i nu t)) that is A = ((1 - w/nu)/2, (1 + w/nu)/2) and
    # B = (g/2nu)(1, -1), where 1 - w/nu = -g^2/(nu (nu + w)) avoids cancellation.
    w = np.array([omega - g, omega + g])
    nu = np.sqrt(np.array([omega * omega - 2.0 * omega * g, omega * omega + 2.0 * omega * g], dtype=complex))
    mu = 1j * np.array([nu[0], -nu[0], nu[1], -nu[1]])
    a_uv = np.stack([-g * g / (nu * (nu + w)), (nu + w) / nu], axis=1) / 2.0
    b_uv = np.stack([g / nu, -g / nu], axis=1) / 2.0
    # u and v take separate columns; a = (u - i v)/sqrt(2), b = (v - i u)/sqrt(2).
    (a_u, a_v), (b_u, b_v) = ((np.eye(2)[:, :, None] * x[:, None, :]).reshape(2, 4) for x in (a_uv, b_uv))
    f_a, g_a = 0.5 * (a_u + a_v), 0.5 * (b_u - b_v)
    f_b, g_b = 0.5j * (a_u - a_v), -0.5j * (b_u + b_v)
    return mu, np.array([f_a, g_a, f_b, g_b, -f_b, g_b, f_a, -g_a])


def _free_terms(sys: OscillatorSystem):
    mu = -1j * np.array([sys.omega_a, sys.omega_b])
    amp = np.zeros((8, 2), dtype=complex)
    amp[0, 0] = amp[6, 1] = 1.0
    return mu, amp


_TERMS = {
    InteractionKind.RWA: _rwa_terms,
    InteractionKind.LINEAR: _linear_terms,
    InteractionKind.NONE: _free_terms,
}


@functools.lru_cache(maxsize=64)
def _table(sys: OscillatorSystem):
    """(mu, A, G), read-only: nine K x K forms G_p with
    Re sum_jk G_pjk exp((mu_j + conj(mu_k)) t) equal to the eight |c_i|^2 in
    ``PropagatorCoefficients`` field order and
    K - 1 = (|g_b|^2 - |g_a|^2) - (|f_a|^2 - |f_b|^2).
    K - 1 is built from the products (g_b - i g_a) conj(g_b + i g_a) and
    (f_a - i f_b) conj(f_a + i f_b); on the table, where the hybrid-mode
    columns separate exactly, it carries none of the cancellation of the
    |c_i|^2 differences.
    """
    try:
        build = _TERMS[sys.kind]
    except KeyError:
        raise ModelError(
            f"no closed-form propagator for kind={sys.kind.value}; use the Fock oracle"
        ) from None
    mu, amp = build(sys)
    f_a, g_a, f_b, g_b = amp[:4]
    squares = np.einsum("ij,ik->ijk", amp, amp.conj())
    cross_f, cross_g = (np.outer(x - 1j * y, (x + 1j * y).conj()) for x, y in ((f_a, f_b), (g_b, g_a)))
    forms = np.concatenate([squares, (cross_g - cross_f)[None]])
    for arr in (mu, amp, forms):
        arr.setflags(write=False)
    return mu, amp, forms


def propagator_coefficients(sys: OscillatorSystem, t: float) -> PropagatorCoefficients:
    """The eight coefficients c_i(t) = sum_k A_ik exp(mu_k t) of this kind's
    table, at a scalar time or over a 1-D array of times."""
    mu, amp, _ = _table(sys)
    times = _checked(t, "time")
    with np.errstate(over="ignore"):  # _finite reports overflow as a ModelError
        values = np.einsum("...k,ik->...i", np.exp(np.multiply.outer(times, mu)), amp)
    values = _finite(values, "time")
    if times.ndim == 0:
        return PropagatorCoefficients(t, *values.tolist())
    return PropagatorCoefficients(times, *values.T)


def _report(t, products, prep: ThermalPreparation, sys: OscillatorSystem) -> HeatReport:
    """Heat report from the nine ``_table`` forms evaluated, pointwise or as window means.

    The first eight are the |c_i|^2 in ``PropagatorCoefficients`` field order;
    the ninth is K - 1, with K = 1 + |f_b|^2 + |g_b|^2 - |f_a|^2 - |g_a|^2, and
    dQ_ab = omega_a (X_a - X_b) K.  That holds for every kind with a table (on
    resonance the couplings are mode-symmetric; free evolution has K = 0) and
    avoids the cancellation of dQ_b - dQ_a where the heats grow.
    """
    f_a, g_a, f_b, g_b, p_a, q_a, p_b, q_b, k_minus_1 = _finite(products, "time or window")
    x_a = thermal_occupation(prep.beta_a, sys.omega_a)
    x_b = thermal_occupation(prep.beta_b, sys.omega_b)
    dq_a = sys.omega_a * ((f_a + g_a - 1.0) * x_a + (f_b + g_b) * x_b + g_a + g_b)
    dq_b = sys.omega_b * ((p_b + q_b - 1.0) * x_b + (p_a + q_a) * x_a + q_a + q_b)
    dq_ab = sys.omega_a * (x_a - x_b) * (1.0 + k_minus_1)
    if np.ndim(t) == 0:
        dq_a, dq_b, dq_ab = float(dq_a), float(dq_b), float(dq_ab)
    return HeatReport.from_heats(t, dq_a, dq_b, prep, sys, dq_ab=dq_ab)


def heat_transfer(t: float, sys: OscillatorSystem, prep: ThermalPreparation) -> HeatReport:
    """Closed-form heat report at t, or one of arrays over a 1-D array of times."""
    mu, _, forms = _table(sys)
    times = _checked(t, "time")
    with np.errstate(over="ignore"):  # _report's _finite raises ModelError instead
        e = np.exp(np.multiply.outer(times, mu))
    products = np.einsum("...j,pjk,...k->p...", e, forms, e.conj()).real
    return _report(t if times.ndim == 0 else times, products, prep, sys)


def time_averaged_heat(sys: OscillatorSystem, prep: ThermalPreparation, tau: float) -> float:
    """(1/tau) * integral of dQ_ab(t) over [0, tau], exactly, for one window or
    a 1-D array of windows.

    Ill-defined at g = omega/2 (the static-mode singularity propagates from
    the coefficients).
    """
    taus = _checked(tau, "averaging window tau", positive=True)
    mu, _, forms = _table(sys)
    z = np.multiply.outer(taus, mu[:, None] + mu.conj())
    phi = np.ones_like(z)
    with np.errstate(over="ignore", invalid="ignore"):  # _report's _finite raises ModelError instead
        np.divide(np.expm1(z), z, out=phi, where=z != 0)
    products = np.einsum("pjk,...jk->p...", forms, phi).real
    return _report(tau if taus.ndim == 0 else taus, products, prep, sys).dq_ab
