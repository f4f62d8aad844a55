"""Shared systems, preparations and truncation configs for the test suite.

Reusing identical frozen instances across test modules lets the package-level
eigendecomposition caches serve every test that needs the same Hamiltonian.
"""

import pytest

from qsubthermo import FockConfig, InteractionKind, OscillatorSystem, ThermalPreparation
from qsubthermo.fock import thermal_product_state, unitary_at


def rwa_system(g: float = 0.1, omega: float = 1.0) -> OscillatorSystem:
    return OscillatorSystem(omega, omega, InteractionKind.RWA, g=g)


def linear_system(g: float = 0.3, omega: float = 1.0) -> OscillatorSystem:
    return OscillatorSystem(omega, omega, InteractionKind.LINEAR, g=g)


def dense_state(t, sys_, prep, cfg):
    """Reference rho(t) = U(t) rho(0) U(t)^dag as one dense matrix, from the dense U(t)."""
    u = unitary_at(t, sys_, cfg)
    return (u * thermal_product_state(sys_, prep, cfg)) @ u.conj().T


@pytest.fixture(scope="session")
def prep_cool() -> ThermalPreparation:
    """Oracle-friendly preparation: beta*omega >= 0.5 on both modes."""
    return ThermalPreparation(beta_a=0.5, beta_b=1.0)


@pytest.fixture(scope="session")
def cfg40() -> FockConfig:
    """The acceptance-grade oracle truncation: 40 levels per mode."""
    return FockConfig(40, 40, tail_tol=1e-8)


@pytest.fixture(scope="session")
def cfg_small() -> FockConfig:
    """Cheap truncation for operator-algebra and structure tests."""
    return FockConfig(12, 12, tail_tol=1e-2)
