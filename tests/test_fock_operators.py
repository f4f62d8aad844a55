import math

import numpy as np
import pytest

from conftest import dense, dense_state, dense_unitary, linear_system, rwa_system
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
)
from qsubthermo.fock import _quadratures, thermal_product_state, thermal_weights


def commutator(x, y):
    return x @ y - y @ x


def dense_parts(parts):
    """H, H0 = H_a + H_b and V = H - H0 as dense matrices."""
    d = parts.d_a + parts.d_b
    return dense(parts), np.diag(d), dense(parts, -d)


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

    @pytest.mark.parametrize("n_a,n_b", [(4.5, 4), (4, 4.0), ("4", 4), (True, 4), (4, np.float64(6))],
                             ids=["float", "float-n_b", "str", "bool", "numpy-float"])
    def test_rejects_non_integer_cutoffs(self, n_a, n_b):
        # a float or string cutoff would fail as a TypeError or IndexError deep
        # in the assembly, and True would count as one level
        with pytest.raises(ModelError, match="must be integers"):
            FockConfig(n_a, n_b)
        assert FockConfig(np.int64(6), 6).dim == 36

    @pytest.mark.parametrize("tail_tol", [0.0, math.nan, math.inf, 1.0, 2.0, -1.0])
    def test_rejects_bad_tail_tolerance(self, tail_tol):
        # checked before auto sizes anything; 1 and above would switch the check off
        with pytest.raises(ModelError, match="tail_tol"):
            FockConfig(8, 8, tail_tol=tail_tol)
        with pytest.raises(ModelError, match="tail_tol"):
            FockConfig.auto(linear_system(), ThermalPreparation(1.0, 2.0), tail_tol=tail_tol)

    def test_auto_selection_tracks_tail(self):
        # the hotter mode's geometric tail exp(-beta*omega*n) must fall below
        # tail_tol, minimally, by the check every oracle call makes; the
        # coupling carries that population into the colder mode, so both modes
        # get the same cutoff.  beta*omega = ln(1/tol)/k and its two float
        # neighbours sit on the boundary of that check.
        sys_ = linear_system()
        cases = [(ThermalPreparation(0.5, 1.0), 1e-12), (ThermalPreparation(1.0, 0.5), 1e-12)]
        for tol in (1e-12, 1e-10, 1e-8, 1e-6):
            for k in range(2, 65):
                x = math.log(1.0 / tol) / k
                for beta in (math.nextafter(x, 0.0), x, math.nextafter(x, math.inf)):
                    cases.append((ThermalPreparation(beta, 2.0), tol))
        for prep, tol in cases:
            try:
                cfg = FockConfig.auto(sys_, prep, tail_tol=tol)
            except TruncationError:  # past the 64-level cap, which must then fail the check too
                cfg = FockConfig(65, 65, tail_tol=tol)
            else:
                assert cfg.n_a == cfg.n_b
                thermal_product_state(sys_, prep, cfg)
            if cfg.n_a > 2:
                with pytest.raises(TruncationError):
                    thermal_product_state(sys_, prep, FockConfig(cfg.n_a - 1, cfg.n_b - 1, tail_tol=tol))

    # beta_a = ln(1e12)/64 is the boundary: its tail above 64 levels is not below 1e-12
    @pytest.mark.parametrize("betas", [(0.01, 0.02), (math.log(1e12) / 64, 2.0)])
    def test_auto_selection_rejects_infeasible_temperatures(self, betas):
        sys_ = linear_system()
        with pytest.raises(TruncationError, match="must exceed") as exc:
            FockConfig.auto(sys_, ThermalPreparation(*betas))
        assert "feasible" not in str(exc.value)
        # the printed bound is never below the true one, so a value above it passes
        printed = float(str(exc.value).rpartition("must exceed ")[2].rstrip(")"))
        assert printed >= math.log(1.0 / 1e-12) / 64


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
            for mat in dense_parts(parts):
                assert np.abs(mat - mat.conj().T).max() < 1e-12

    def test_rwa_conserves_bare_energy(self, cfg_small):
        _, h0, v = dense_parts(build_hamiltonian(rwa_system(), cfg_small))
        assert np.linalg.norm(commutator(h0, v)) < 1e-12

    def test_linear_does_not_conserve_bare_energy(self, cfg_small):
        _, h0, v = dense_parts(build_hamiltonian(linear_system(), cfg_small))
        assert np.linalg.norm(commutator(h0, v)) > 0.01

    def test_interaction_is_the_coupling_operator(self, cfg_small):
        # V = H - H0 is read off H's diagonal; it must be exactly the coupling
        a, b = destroy(cfg_small.n_a), destroy(cfg_small.n_b)
        rwa = dense_parts(build_hamiltonian(rwa_system(g=0.1), cfg_small))[2]
        linear = dense_parts(build_hamiltonian(linear_system(g=0.3), cfg_small))[2]
        assert np.array_equal(rwa, 0.1j * (np.kron(a, b.conj().T) - np.kron(a.conj().T, b)))
        assert np.array_equal(linear, 0.3j * np.kron(a.conj().T + a, b.conj().T - b))

    def test_none_kind_has_zero_interaction(self, cfg_small):
        h, h0, v = dense_parts(build_hamiltonian(OscillatorSystem(1.0, 1.0, InteractionKind.NONE), cfg_small))
        assert np.abs(v).max() == 0.0
        assert np.array_equal(h, h0)

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
        diff = (dense(parts) - np.diag(parts.d_b)) - (mechanical + shift)
        n_a, n_b = cfg_small.n_a, cfg_small.n_b
        interior = np.array([i for i in range(cfg_small.dim) if i % n_b != n_b - 1])
        assert np.abs(diff[np.ix_(interior, interior)]).max() < 1e-12
        corner = np.array([i for i in range(cfg_small.dim) if i % n_b == n_b - 1])
        assert np.allclose(np.diag(diff)[corner].real, -0.5 * omega * n_b, atol=1e-12)


class TestThermalState:
    def test_geometric_weights_at_beta_ln2(self):
        w = thermal_weights(math.log(2.0), 1.0, 3)
        assert np.allclose(w, [4 / 7, 2 / 7, 1 / 7], atol=1e-15)
        assert w.sum() == pytest.approx(1.0, abs=1e-15)

    def test_deep_cold_is_ground_projector(self):
        expected = np.zeros(6)
        expected[0] = 1.0
        assert np.abs(thermal_weights(50.0, 1.0, 6) - expected).max() < 1e-20

    def test_occupation_matches_closed_form(self):
        # truncation bias is ~ n * tail, so the tolerance scales with both
        n = 40
        measured = np.arange(n) @ thermal_weights(0.5, 1.0, n)
        tail = math.exp(-0.5 * n)
        assert measured == pytest.approx(thermal_occupation(0.5, 1.0), abs=2.0 * n * tail)

    def test_tail_enforcement(self):
        with pytest.raises(TruncationError):
            thermal_weights(0.5, 1.0, 8, tail_tol=1e-12)
        thermal_weights(0.5, 1.0, 8)  # no tolerance given: caller's responsibility


class TestEvolve:
    """Evolution through the cached eigendecomposition that every oracle quantity uses."""

    def test_zero_time_is_identity(self, cfg_small):
        sys_, prep = linear_system(), ThermalPreparation(1.0, 1.0)
        assert np.abs(dense_unitary(0.0, sys_, cfg_small) - np.eye(cfg_small.dim)).max() < 1e-14
        rho0 = np.diag(thermal_product_state(sys_, prep, cfg_small))
        assert np.abs(dense_state(0.0, sys_, prep, cfg_small) - rho0).max() < 1e-14

    def test_thermal_product_stationary_under_bare_hamiltonian(self, cfg_small):
        sys_, prep = OscillatorSystem(1.0, 1.3, InteractionKind.NONE), ThermalPreparation(1.0, 0.8)
        rho0 = np.diag(thermal_product_state(sys_, prep, cfg_small))
        assert np.abs(dense_state(2.7, sys_, prep, cfg_small) - rho0).max() < 1e-13

    def test_energy_conserved(self, cfg_small):
        sys_, prep = linear_system(), ThermalPreparation(1.0, 1.5)
        parts = build_hamiltonian(sys_, cfg_small)
        rho0 = np.diag(thermal_product_state(sys_, prep, cfg_small))
        rho_t = dense_state(2.0, sys_, prep, cfg_small)
        h = dense(parts)
        e0 = np.trace(h @ rho0).real
        et = np.trace(h @ rho_t).real
        assert et == pytest.approx(e0, rel=1e-10)

    def test_unitarity_preserves_trace_and_purity(self, cfg_small):
        sys_, prep = linear_system(g=0.4), ThermalPreparation(0.9, 1.4)
        rho0 = np.diag(thermal_product_state(sys_, prep, cfg_small))
        purity0 = np.trace(rho0 @ rho0).real
        for t in (0.5, 2.0, 9.0):
            rho_t = dense_state(t, sys_, prep, cfg_small)
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

    @pytest.mark.parametrize("shape", [(63, 63), (64, 65), (64,)])
    def test_rejects_misshapen_interaction(self, shape):
        # an override must act on the whole composite space, here 8 x 8 levels
        cfg = FockConfig(8, 8, tail_tol=0.5)
        bad = np.zeros(shape, dtype=complex)
        sys_ = OscillatorSystem(1.0, 1.0, InteractionKind.NONE)
        with pytest.raises(ModelError, match="64 x 64"):
            effective_hamiltonian(0.5, sys_, ThermalPreparation(1.0, 1.0), cfg, interaction=bad)

    @pytest.mark.parametrize("form", [np.asarray, np.ndarray.tolist], ids=["int", "list"])
    def test_integer_and_list_overrides_match_the_float_one(self, form):
        # the override is taken as a complex matrix once, so an integer one
        # (N_a N_b from integer levels, and an integer hopping) or nested lists
        # give the float override's h_eff exactly
        cfg, prep = FockConfig(6, 6, tail_tol=0.5), ThermalPreparation(1.0, 1.5)
        number, hop = np.diag(np.arange(6)), np.eye(6, k=1, dtype=int) + np.eye(6, k=-1, dtype=int)
        override = np.kron(number, number) + np.kron(hop, hop)
        sys_ = OscillatorSystem(1.0, 1.0, InteractionKind.NONE)
        want = effective_hamiltonian(0.7, sys_, prep, cfg, interaction=override.astype(float))
        assert np.array_equal(effective_hamiltonian(0.7, sys_, prep, cfg, interaction=form(override)), want)

    @pytest.mark.parametrize("bad", [np.full((64, 64), "x"), [[0.0] * 64] * 63 + [[0.0]], {"v": 1.0}], ids=["strings", "ragged", "dict"])
    def test_rejects_non_numeric_interaction(self, bad):
        sys_ = OscillatorSystem(1.0, 1.0, InteractionKind.NONE)
        with pytest.raises(ModelError, match="numeric matrix"):
            effective_hamiltonian(0.5, sys_, ThermalPreparation(1.0, 1.0), FockConfig(8, 8, tail_tol=0.5), interaction=bad)
