"""Shared systems, preparations and truncation configs for the test suite.

Each oracle cache holds its latest key alone: a cached eigendecomposition
serves the calls that follow on the same system until a call on another system
drops it, and ``clear_oracle_caches`` makes the next call start cold.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qsubthermo
from qsubthermo import FockConfig, InteractionKind, OscillatorSystem, ThermalPreparation, fock
from qsubthermo.fock import eigensystem, thermal_product_state


def clear_oracle_caches(*keep) -> None:
    """Empty every cache of the oracle but those in keep, so that the next
    call, timed or traced, starts cold: a cache added to fock is cleared too."""
    for cached in vars(fock).values():
        if callable(getattr(cached, "cache_clear", None)) and cached not in keep:
            cached.cache_clear()


def run_fresh(argv, code=None):
    """The CLI (or a script given as code) in a fresh interpreter, so stderr and
    the loaded modules are exactly what a user gets, numpy warnings included."""
    src = str(Path(qsubthermo.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    command = ["-m", "qsubthermo.cli"] if code is None else ["-c", code]
    return subprocess.run([sys.executable, *command, *argv], capture_output=True, text=True, env=env)


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


def exchange_basis(index, sign, h):
    """Q = [Q+ | Q-] for each sector of a stack in the oracle's layout [F+ | H | F- | M]:
    e_f on each fixed point of F+ and F-, and (e_j +- sigma_j e_pi(j)) / sqrt(2)
    on each head j, whose mirror pi(j) sits n places from the end."""
    (m, k), n = index.shape, sign.shape[1]
    fixed, r = h - n, math.sqrt(0.5)
    heads, mirrors, pairs = np.arange(fixed, h), np.arange(k - n, k), np.arange(n)
    q = np.zeros((m, k, k))
    q[:, np.arange(fixed), np.arange(fixed)] = 1.0
    q[:, np.arange(h, k - n), np.arange(h + n, k)] = 1.0
    q[:, heads, heads] = q[:, heads, h + pairs] = r
    q[:, mirrors, heads] = sign * r
    q[:, mirrors, h + pairs] = -sign * r
    return q


def eigenvectors(stack):
    """V = Q blockdiag(Y+, Y-) for each sector of an eigensystem stack, as plain dense products."""
    index, _, y_plus, y_minus, _, sign = stack
    h = y_plus.shape[-1]
    halves = np.zeros(index.shape + index.shape[1:], dtype=y_plus.dtype)
    halves[:, :h, :h], halves[:, h:, h:] = y_plus, y_minus
    return exchange_basis(index, sign, h) @ halves


def dense_unitary(t, sys_, cfg):
    """Reference U(t) = exp(-i H t) as one dense matrix, from the cached sector
    eigendecompositions, each sector's eigenvectors expanded to V = Q blockdiag(Y+, Y-)."""
    out = np.zeros((cfg.dim, cfg.dim), dtype=np.complex128)
    for stack in eigensystem(sys_, cfg):
        index, energies, _, _, z, _ = stack
        v = z[..., :, None] * eigenvectors(stack)
        u = (v * np.exp(-1j * energies * t)[..., None, :]) @ v.conj().swapaxes(1, 2)
        out[index[..., :, None], index[..., None, :]] = u
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
