"""Shared systems, preparations and truncation configs for the test suite.

Reusing identical frozen instances across test modules lets the package-level
eigendecomposition caches serve every test that needs the same Hamiltonian.
"""

import numpy as np
import pytest

from qsubthermo import FockConfig, InteractionKind, OscillatorSystem, ThermalPreparation
from qsubthermo.fock import _sector_parts, eigensystem, thermal_product_state


def rwa_system(g: float = 0.1, omega: float = 1.0) -> OscillatorSystem:
    return OscillatorSystem(omega, omega, InteractionKind.RWA, g=g)


def linear_system(g: float = 0.3, omega: float = 1.0) -> OscillatorSystem:
    return OscillatorSystem(omega, omega, InteractionKind.LINEAR, g=g)


def dense(parts, shift=0.0):
    """H + diag(shift) as one dense matrix, from the edge list: shift -(d_a + d_b) gives V."""
    rows, cols, vals = parts.entries(shift)
    out = np.zeros((parts.dim, parts.dim), dtype=np.complex128)
    out[rows, cols] = vals
    return out


def dense_unitary(t, sys_, cfg):
    """Reference U(t) = exp(-i H t) as one dense matrix, from the cached sector eigendecompositions."""
    out = np.zeros((cfg.dim, cfg.dim), dtype=np.complex128)
    for index, energies, vectors, z, _ in eigensystem(sys_, cfg):
        c, s = _sector_parts(energies, vectors, t)
        out[index[..., :, None], index[..., None, :]] = z[..., :, None] * (c + 1j * s) * z.conj()[..., None, :]
    return out


def partial_traces(mat, n_a, n_b):
    """(tr_b mat, tr_a mat) of a composite-space matrix, a-major: the reduced states of modes a and b."""
    blocks = mat.reshape(n_a, n_b, n_a, n_b)
    return np.einsum("ikjk->ij", blocks), np.einsum("kikj->ij", blocks)


def dense_state(t, sys_, prep, cfg):
    """Reference rho(t) = U(t) rho(0) U(t)^dag as one dense matrix, from the dense U(t)."""
    u = dense_unitary(t, sys_, cfg)
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
