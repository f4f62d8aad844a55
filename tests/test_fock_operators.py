import math

import numpy as np
import pytest

from conftest import linear_system, rwa_system
from qsubthermo import (
    FockConfig,
    InteractionKind,
    ModelError,
    OscillatorSystem,
    ThermalPreparation,
    TruncationError,
    build_hamiltonian,
    destroy,
    effective_hamiltonian,
    thermal_occupation,
    thermal_state,
)
from qsubthermo.fock import _quadratures, _state_at, thermal_product_state, unitary_at


def commutator(x, y):
    return x @ y - y @ x


def composite_quadratures(n_a, n_b, m=1.0, omega=1.0):
    """x_a, p_a, x_b, p_b on the composite space from the oracle's single-mode quadratures."""
    eye_a, eye_b = np.eye(n_a), np.eye(n_b)
    x_a, p_a = _quadratures(n_a, omega, m)
    x_b, p_b = _quadratures(n_b, omega, m)
    return np.kron(x_a, eye_b), np.kron(p_a, eye_b), np.kron(eye_a, x_b), np.kron(eye_a, p_b)


class TestFockConfig:
    def test_rejects_tiny_dimensions(self):
        with pytest.raises(ModelError):
            FockConfig(1, 8)

    @pytest.mark.parametrize("tail_tol", [0.0, math.nan, math.inf])
    def test_rejects_bad_tail_tolerance(self, tail_tol):
        with pytest.raises(ModelError, match="tail_tol"):
            FockConfig(8, 8, tail_tol=tail_tol)

    def test_auto_selection_tracks_tail(self):
        # the hotter mode's geometric tail exp(-beta*omega*n) must fall below
        # tail_tol, minimally; the coupling carries that population into the
        # colder mode, so both modes get the same cutoff
        sys_ = linear_system()
        for prep in (ThermalPreparation(0.5, 1.0), ThermalPreparation(1.0, 0.5)):
            cfg = FockConfig.auto(sys_, prep, tail_tol=1e-12)
            assert cfg.n_a == cfg.n_b
            assert math.exp(-0.5 * cfg.n_a) < 1e-12 <= math.exp(-0.5 * (cfg.n_a - 1))

    def test_auto_selection_rejects_infeasible_temperatures(self):
        sys_ = linear_system()
        with pytest.raises(TruncationError, match="minimal feasible"):
            FockConfig.auto(sys_, ThermalPreparation(0.01, 0.02))


class TestOperators:
    def test_two_level_annihilator(self):
        assert np.array_equal(destroy(2), np.array([[0, 1], [0, 0]], dtype=complex))

    def test_commutator_has_known_corner_artifact(self, cfg_small):
        # [a, a^dag] = 1 except the top corner, which holds -(n-1)
        n = 7
        a = destroy(n)
        comm = commutator(a, a.conj().T)
        expected = np.eye(n, dtype=complex)
        expected[n - 1, n - 1] = -(n - 1)
        assert np.abs(comm - expected).max() < 1e-14

    def test_modes_commute_exactly(self, cfg_small):
        a = np.kron(destroy(cfg_small.n_a), np.eye(cfg_small.n_b))
        b = np.kron(np.eye(cfg_small.n_a), destroy(cfg_small.n_b))
        assert np.abs(commutator(a, b)).max() == 0.0
        assert np.abs(commutator(a, b.conj().T)).max() == 0.0

    def test_quadratures_are_hermitian_and_canonical(self, cfg_small):
        x_a, p_a, x_b, p_b = composite_quadratures(cfg_small.n_a, cfg_small.n_b)
        for mat in (x_a, p_a, x_b, p_b):
            assert np.abs(mat - mat.conj().T).max() < 1e-14
        # [x, p] = i away from the truncation corner
        comm = commutator(x_a, p_a)
        interior = comm[: -cfg_small.n_b, : -cfg_small.n_b]
        assert np.abs(interior - 1j * np.eye(interior.shape[0])).max() < 1e-13


class TestHamiltonians:
    def test_parts_are_hermitian(self, cfg_small):
        for sys_ in (
            rwa_system(),
            linear_system(),
            OscillatorSystem(1.0, 1.0, InteractionKind.MINIMAL_A, m=1.0, q=0.2),
            OscillatorSystem(1.0, 1.0, InteractionKind.MINIMAL_B, m=1.0, q=0.2),
        ):
            parts = build_hamiltonian(sys_, cfg_small)
            for mat in (parts.h, parts.h0, parts.v):
                assert np.abs(mat - mat.conj().T).max() < 1e-12

    def test_rwa_conserves_bare_energy(self, cfg_small):
        parts = build_hamiltonian(rwa_system(), cfg_small)
        assert np.linalg.norm(commutator(parts.h0, parts.v)) < 1e-12

    def test_linear_does_not_conserve_bare_energy(self, cfg_small):
        parts = build_hamiltonian(linear_system(), cfg_small)
        assert np.linalg.norm(commutator(parts.h0, parts.v)) > 0.01

    def test_interaction_is_the_coupling_operator(self, cfg_small):
        # V = H - H0 is read off H's diagonal; it must be exactly the coupling
        a, b = destroy(cfg_small.n_a), destroy(cfg_small.n_b)
        rwa = build_hamiltonian(rwa_system(g=0.1), cfg_small).v
        linear = build_hamiltonian(linear_system(g=0.3), cfg_small).v
        assert np.array_equal(rwa, 0.1j * (np.kron(a, b.conj().T) - np.kron(a.conj().T, b)))
        assert np.array_equal(linear, 0.3j * np.kron(a.conj().T + a, b.conj().T - b))

    def test_none_kind_has_zero_interaction(self, cfg_small):
        parts = build_hamiltonian(OscillatorSystem(1.0, 1.0, InteractionKind.NONE), cfg_small)
        assert np.abs(parts.v).max() == 0.0
        assert np.array_equal(parts.h, parts.h0)

    def test_minimal_true_energy_is_mechanical_energy(self, cfg_small):
        # H - H_b equals m(xdot_a^2 + w^2 x_a^2)/2 with m xdot_a = p_a - q x_b,
        # up to the w/2 zero-point constant absorbed by the bare H_b.  The only
        # residue is the b b^dag truncation corner, a diagonal -w*n_b/2 on the
        # top b-level, so the comparison masks out i_b = n_b - 1.
        m, q, omega = 1.0, 0.2, 1.0
        sys_ = OscillatorSystem(omega, omega, InteractionKind.MINIMAL_A, m=m, q=q)
        parts = build_hamiltonian(sys_, cfg_small)
        x_a, p_a, x_b, _ = composite_quadratures(cfg_small.n_a, cfg_small.n_b, m, omega)
        velocity = (p_a - q * x_b) / m
        mechanical = 0.5 * m * (velocity @ velocity + omega**2 * (x_a @ x_a))
        shift = 0.5 * omega * np.eye(cfg_small.dim)
        diff = (parts.h - parts.h_b) - (mechanical + shift)
        n_a, n_b = cfg_small.n_a, cfg_small.n_b
        interior = np.array([i for i in range(cfg_small.dim) if i % n_b != n_b - 1])
        assert np.abs(diff[np.ix_(interior, interior)]).max() < 1e-12
        corner = np.array([i for i in range(cfg_small.dim) if i % n_b == n_b - 1])
        assert np.allclose(np.diag(diff)[corner].real, -0.5 * omega * n_b, atol=1e-12)


class TestThermalState:
    def test_geometric_weights_at_beta_ln2(self):
        rho = thermal_state(math.log(2.0), 1.0, 3)
        assert np.allclose(np.diag(rho).real, [4 / 7, 2 / 7, 1 / 7], atol=1e-15)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-15)

    def test_deep_cold_is_ground_projector(self):
        rho = thermal_state(50.0, 1.0, 6)
        expected = np.zeros((6, 6))
        expected[0, 0] = 1.0
        assert np.abs(rho - expected).max() < 1e-20

    def test_occupation_matches_closed_form(self):
        # truncation bias is ~ n * tail, so the tolerance scales with both
        n = 40
        rho = thermal_state(0.5, 1.0, n)
        number = np.diag(np.arange(n)).astype(complex)
        measured = np.trace(number @ rho).real
        tail = math.exp(-0.5 * n)
        assert measured == pytest.approx(thermal_occupation(0.5, 1.0), abs=2.0 * n * tail)

    def test_tail_enforcement(self):
        with pytest.raises(TruncationError):
            thermal_state(0.5, 1.0, 8, tail_tol=1e-12)
        thermal_state(0.5, 1.0, 8)  # no tolerance given: caller's responsibility


class TestEvolve:
    """Evolution through the cached eigendecomposition that every oracle quantity uses."""

    def test_zero_time_is_identity(self, cfg_small):
        sys_, prep = linear_system(), ThermalPreparation(1.0, 1.0)
        assert np.abs(unitary_at(0.0, sys_, cfg_small) - np.eye(cfg_small.dim)).max() < 1e-14
        rho0 = np.diag(thermal_product_state(sys_, prep, cfg_small))
        assert np.abs(_state_at(0.0, sys_, prep, cfg_small) - rho0).max() < 1e-14

    def test_thermal_product_stationary_under_bare_hamiltonian(self, cfg_small):
        sys_, prep = OscillatorSystem(1.0, 1.3, InteractionKind.NONE), ThermalPreparation(1.0, 0.8)
        rho0 = np.diag(thermal_product_state(sys_, prep, cfg_small))
        assert np.abs(_state_at(2.7, sys_, prep, cfg_small) - rho0).max() < 1e-13

    def test_energy_conserved(self, cfg_small):
        sys_, prep = linear_system(), ThermalPreparation(1.0, 1.5)
        parts = build_hamiltonian(sys_, cfg_small)
        rho0 = np.diag(thermal_product_state(sys_, prep, cfg_small))
        rho_t = _state_at(2.0, sys_, prep, cfg_small)
        e0 = np.trace(parts.h @ rho0).real
        et = np.trace(parts.h @ rho_t).real
        assert et == pytest.approx(e0, rel=1e-10)

    def test_unitarity_preserves_trace_and_purity(self, cfg_small):
        sys_, prep = linear_system(g=0.4), ThermalPreparation(0.9, 1.4)
        rho0 = np.diag(thermal_product_state(sys_, prep, cfg_small))
        purity0 = np.trace(rho0 @ rho0).real
        for t in (0.5, 2.0, 9.0):
            rho_t = _state_at(t, sys_, prep, cfg_small)
            assert np.trace(rho_t).real == pytest.approx(1.0, abs=1e-10)
            assert np.trace(rho_t @ rho_t).real == pytest.approx(purity0, abs=1e-10)

    def test_rejects_non_hermitian_hamiltonian(self, cfg_small):
        bad = np.zeros((cfg_small.dim, cfg_small.dim), dtype=complex)
        bad[0, 1] = 1.0
        sys_ = OscillatorSystem(1.0, 1.0, InteractionKind.NONE)
        with pytest.raises(ModelError, match="Hermitian"):
            effective_hamiltonian(1.0, sys_, ThermalPreparation(1.0, 1.0), cfg_small, interaction=bad)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite_interaction(self, value):
        # NaN compares false against the Hermiticity tolerance, so it needs its own check
        cfg = FockConfig(4, 4, tail_tol=0.5)
        bad = np.zeros((cfg.dim, cfg.dim), dtype=complex)
        bad[0, 0] = value
        sys_ = OscillatorSystem(1.0, 1.0, InteractionKind.NONE)
        with pytest.raises(ModelError, match="finite"):
            effective_hamiltonian(0.5, sys_, ThermalPreparation(1.0, 1.0), cfg, interaction=bad)
