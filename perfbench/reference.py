"""Independent reference for the benchmark's output checks.

Nothing here imports qsubthermo.  Every coupling the program offers is
quadratic in the quadratures r = (x_a, p_a, x_b, p_b), so H = r^T M r / 2
(plus a constant), the Heisenberg picture is the linear flow dr/dt = J M r with
the symplectic form J, and a zero-mean Gaussian state is fully described by
its covariance sigma_ij = <{r_i, r_j}>/2, which evolves as
sigma(t) = S sigma(0) S^T with S(t) = expm(J M t) (Weedbrook et al.,
Rev. Mod. Phys. 84, 621 (2012)).  Heats, occupations and mode entropies are
read off sigma(t); window averages integrate them with scipy's QUADPACK.

Two closed forms cross-check the rest:

* RWA on resonance swaps excitations, so dQ_ab(t) = 2 omega sin^2(g t)(X_a - X_b)
  and its window average is omega (X_a - X_b)(1 - sin(2 g tau)/(2 g tau)).
* For the LINEAR coupling only the counter-rotating terms fail to commute with
  H0, so ||[H0, V]||_F = 2 g omega sqrt(2 S) on n_a x n_b levels, with
  S = (n_a (n_a - 1) / 2)(n_b (n_b - 1) / 2).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad
from scipy.linalg import expm

_J = np.array(
    [[0.0, 1.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0], [0.0, 0.0, -1.0, 0.0]]
)


def occupation(beta: float, omega: float) -> float:
    """Bose occupation 1/(exp(beta omega) - 1)."""
    return 1.0 / math.expm1(beta * omega)


def quadratic_form(kind: str, omega: float, g: float = 0.0, m: float = 1.0, q: float = 0.0):
    """Symmetric M with H = r^T M r / 2 + const on r = (x_a, p_a, x_b, p_b).

    The couplings in quadratures: linear V = 2 g x_a p_b, rwa
    V = g (x_a p_b - p_a x_b), minimal-a (p_a - q x_b)^2 / 2m, minimal-b
    (p_b + q x_a)^2 / 2m, each on top of p^2/2m + m omega^2 x^2 / 2 per mode.
    """
    mat = np.diag([m * omega**2, 1.0 / m, m * omega**2, 1.0 / m])
    if kind == "linear":
        mat[0, 3] = mat[3, 0] = 2.0 * g
    elif kind == "rwa":
        mat[0, 3] = mat[3, 0] = g
        mat[1, 2] = mat[2, 1] = -g
    elif kind == "minimal-a":
        mat[1, 2] = mat[2, 1] = -q / m
        mat[2, 2] += q * q / m
    elif kind == "minimal-b":
        mat[0, 3] = mat[3, 0] = q / m
        mat[0, 0] += q * q / m
    elif kind != "none":
        raise ValueError(f"unknown kind {kind!r}")
    return mat


class Gaussian:
    """Two resonant oscillators from a product thermal state, propagated exactly."""

    def __init__(self, kind, omega, beta_a, beta_b, g=0.0, m=1.0, q=0.0):
        self.omega, self.m = omega, m
        self.beta_a, self.beta_b = beta_a, beta_b
        self.x_a, self.x_b = occupation(beta_a, omega), occupation(beta_b, omega)
        self.flow = _J @ quadratic_form(kind, omega, g, m, q)
        mw = m * omega
        self.sigma0 = np.diag(
            [(self.x_a + 0.5) / mw, mw * (self.x_a + 0.5), (self.x_b + 0.5) / mw, mw * (self.x_b + 0.5)]
        )

    def covariance(self, t: float):
        s = expm(self.flow * t)
        return s @ self.sigma0 @ s.T

    def _occupation(self, sigma, i: int) -> float:
        # omega c^dag c = p^2/2m + m omega^2 x^2 / 2 - omega/2
        energy = sigma[i + 1, i + 1] / (2.0 * self.m) + 0.5 * self.m * self.omega**2 * sigma[i, i]
        return energy / self.omega - 0.5

    def heats(self, t: float) -> tuple[float, float]:
        """(dQ_a, dQ_b) since t = 0."""
        sigma = self.covariance(t)
        return (
            self.omega * (self._occupation(sigma, 0) - self.x_a),
            self.omega * (self._occupation(sigma, 2) - self.x_b),
        )

    def transfer(self, t: float) -> float:
        dq_a, dq_b = self.heats(t)
        return dq_b - dq_a

    def window_average(self, tau: float) -> float:
        """(1/tau) * integral of dQ_ab over [0, tau]."""
        value, _ = quad(self.transfer, 0.0, tau, limit=2000, epsabs=0.0, epsrel=1e-10)
        return value / tau

    def second_moment(self, t: float, index: int) -> float:
        """<r_index^2> at t, e.g. index 2 for <x_b^2>."""
        return float(self.covariance(t)[index, index])

    def entropy_change_a(self, t: float) -> float:
        """Von Neumann entropy change of mode a, from its symplectic eigenvalue."""
        return _gaussian_entropy(self.covariance(t)[:2, :2]) - _gaussian_entropy(self.sigma0[:2, :2])


def _gaussian_entropy(block) -> float:
    nu = math.sqrt(max(np.linalg.det(block), 0.25))
    lower = nu - 0.5
    return (nu + 0.5) * math.log(nu + 0.5) - (lower * math.log(lower) if lower > 0.0 else 0.0)


def rwa_transfer(t: float, omega: float, g: float, beta_a: float, beta_b: float) -> float:
    """dQ_ab(t) for the resonant exchange coupling."""
    return 2.0 * omega * math.sin(g * t) ** 2 * (occupation(beta_a, omega) - occupation(beta_b, omega))


def rwa_window_average(tau: float, omega: float, g: float, beta_a: float, beta_b: float) -> float:
    """(1/tau) * integral of the RWA dQ_ab over [0, tau]."""
    x = 2.0 * g * tau
    return omega * (occupation(beta_a, omega) - occupation(beta_b, omega)) * (1.0 - math.sin(x) / x)


def linear_audit_norm(g: float, omega: float, n_a: int, n_b: int) -> float:
    """||[H0, V]||_F for the LINEAR coupling on n_a x n_b Fock levels."""
    s = (n_a * (n_a - 1) / 2.0) * (n_b * (n_b - 1) / 2.0)
    return 2.0 * g * omega * math.sqrt(2.0 * s)


def position_squared(n: int, omega: float, m: float):
    """x @ x on n Fock levels, with x = (c^dag + c)/sqrt(2 m omega)."""
    c = np.diag(np.sqrt(np.arange(1.0, n)), 1)
    x = (c + c.T) / math.sqrt(2.0 * m * omega)
    return x @ x
