"""Conserved sectors of the oracle's Hamiltonians, read from their nonzero
pattern, and the per-sector spectral routes checked against dense references."""

import numpy as np
import pytest
import scipy.linalg

from qsubthermo import (
    FockConfig,
    InteractionKind,
    OscillatorSystem,
    ThermalPreparation,
    build_hamiltonian,
    decomposition_audit,
    effective_hamiltonian,
    partial_trace_a,
)
from qsubthermo.fock import (
    _eigh_sectors,
    _real_gauge,
    eigensystem,
    sector_blocks,
    sectors,
    thermal_product_state,
    unitary_at,
)

SYSTEMS = {
    "rwa": OscillatorSystem(1.0, 1.0, InteractionKind.RWA, g=0.2),
    "linear": OscillatorSystem(1.0, 1.0, InteractionKind.LINEAR, g=0.2),
    "none": OscillatorSystem(1.0, 1.0, InteractionKind.NONE),
    "minimal-a": OscillatorSystem(1.0, 1.0, InteractionKind.MINIMAL_A, m=1.3, q=0.3),
    "minimal-b": OscillatorSystem(1.0, 1.0, InteractionKind.MINIMAL_B, m=0.7, q=0.2),
}
CFG12 = FockConfig(12, 12, tail_tol=1e-2)
CFG24 = FockConfig(24, 24, tail_tol=1e-4)
PREP = ThermalPreparation(0.5, 1.0)


def expected_sizes(kind: str, n: int) -> list[int]:
    if kind == "rwa":  # N_a + N_b = 0 .. 2n - 2
        return sorted(min(total + 1, 2 * n - 1 - total) for total in range(2 * n - 1))
    if kind == "none":
        return [1] * (n * n)
    return [n * n // 2] * 2  # (N_a + N_b) mod 2


@pytest.mark.parametrize("kind", SYSTEMS)
def test_sector_sizes_and_exact_zeros(kind):
    h = build_hamiltonian(SYSTEMS[kind], CFG12).h
    found = sectors(h)
    assert sorted(len(index) for index in found) == expected_sizes(kind, CFG12.n_a)
    assert np.array_equal(np.sort(np.concatenate(found)), np.arange(CFG12.dim))
    inside = np.zeros(h.shape, dtype=bool)
    for index in found:
        inside[np.ix_(index, index)] = True
    assert np.all(h[~inside] == 0.0)


def _override_matches_dense_evolution(entries):
    """Joins the parities of the linear coupling with 1e-300 entries at the
    given index pairs, checks the effective Hamiltonian against a dense
    evolution, and returns the eigenvectors of the one joined sector."""
    cfg, t = CFG12, 1.3
    bare = OscillatorSystem(1.0, 1.0, InteractionKind.NONE)
    parts = build_hamiltonian(SYSTEMS["linear"], cfg)
    override = parts.v.copy()
    for i, j in entries:
        override[i, j] = override[j, i] = 1e-300
    assert len(sectors(parts.h0 + parts.v)) == 2
    assert len(sectors(parts.h0 + override)) == 1

    u = scipy.linalg.expm(-1j * (parts.h0 + override) * t)
    rho_t = (u * thermal_product_state(bare, PREP, cfg)) @ u.conj().T
    rho_b = partial_trace_a(rho_t, cfg.n_a, cfg.n_b)
    reference = np.einsum("ikjl,lk->ij", override.reshape(cfg.n_a, cfg.n_b, cfg.n_a, cfg.n_b), rho_b)
    got = effective_hamiltonian(t, bare, PREP, cfg, interaction=override)
    assert np.abs(got - reference).max() < 1e-12
    ((_, _, vectors, _),) = _eigh_sectors(parts.h0 + override)
    return vectors


def test_rounding_level_entry_joins_parities():
    # The linear coupling keeps parity; one 1e-300 entry across it makes one
    # sector, and the effective Hamiltonian still matches a dense evolution.
    # The entry is a bridge between the halves, which the gauge makes real
    # like any tree edge.
    assert np.isrealobj(_override_matches_dense_evolution([(0, 1)]))


def test_rounding_level_loop_stays_complex():
    # A second entry, |0_a 1_b> to |1_a 1_b> (index 13), closes the loop
    # |0 0> - |0 1> - |1 1> - |0 0> through one imaginary coupling.  No
    # diagonal gauge makes that loop real, so the sector keeps complex
    # eigenvectors, and every route built on them must still be exact.
    assert np.iscomplexobj(_override_matches_dense_evolution([(0, 1), (1, 13)]))


@pytest.mark.parametrize("kind", SYSTEMS)
def test_merged_energies_match_dense_spectrum(kind):
    sys_ = SYSTEMS[kind]
    blocks = eigensystem(sys_, CFG24)
    for index, energies, vectors, z in blocks:
        assert vectors.shape == (len(index), len(index)) and energies.shape == index.shape == z.shape
        assert np.isrealobj(vectors)
    merged = np.sort(np.concatenate([energies for _, energies, _, _ in blocks]))
    dense = np.linalg.eigvalsh(build_hamiltonian(sys_, CFG24).h)
    assert np.all(np.abs(merged - dense) <= 1e-12 * np.maximum(1.0, np.abs(dense)))


@pytest.mark.parametrize("cfg", [CFG12, CFG24], ids=["n12", "n24"])
@pytest.mark.parametrize("kind", SYSTEMS)
def test_gauged_sector_blocks_are_exactly_real(kind, cfg):
    h = build_hamiltonian(SYSTEMS[kind], cfg).h
    for _, block in sector_blocks(h):
        z, gauged = _real_gauge(block.copy())
        assert np.isrealobj(gauged)
        assert np.all((np.conj(z)[:, None] * block * z).imag == 0.0)
        assert np.all(np.abs(z) == 1.0)


@pytest.mark.parametrize("kind", SYSTEMS)
def test_unitary_matches_matrix_exponential(kind):
    sys_, t = SYSTEMS[kind], 1.7
    reference = scipy.linalg.expm(-1j * build_hamiltonian(sys_, CFG24).h * t)
    assert np.abs(unitary_at(t, sys_, CFG24) - reference).max() < 1e-12


@pytest.mark.parametrize("kind", SYSTEMS)
def test_audit_matches_dense_commutators(kind):
    parts = build_hamiltonian(SYSTEMS[kind], CFG12)
    audit = decomposition_audit(SYSTEMS[kind], CFG12)
    dense = [
        np.linalg.norm(parts.h0 @ parts.v - parts.v @ parts.h0),
        np.linalg.norm(parts.h @ parts.v - parts.v @ parts.h),
        np.linalg.norm(parts.h0 @ parts.h - parts.h @ parts.h0),
    ]
    for got, want in zip((audit.norm_h0v, audit.norm_hv, audit.norm_h0h), dense):
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
