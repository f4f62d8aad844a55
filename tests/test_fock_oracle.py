"""Cross-validation between the closed forms and the dense Fock oracle, plus
all the first-principles quantities the oracle computes on its own."""

import math

import numpy as np
import pytest

from conftest import linear_system, rwa_system
from qsubthermo import (
    FockConfig,
    InteractionKind,
    ModelError,
    OscillatorSystem,
    PositivityError,
    ThermalPreparation,
    TruncationError,
    bare_amplitudes,
    build_hamiltonian,
    classical_average,
    diagonal_split,
    effective_hamiltonian,
    entropy_production,
    heat_changes_numeric,
    heat_series_numeric,
    heat_transfer,
    jarzynski_identity,
    jensen_bound,
    partial_trace_a,
    partial_trace_b,
    propagator_coefficients,
    relative_entropy,
    spectrum_match,
    thermal_occupation,
    thermal_state,
    true_energies,
    true_heat_transfer_identity,
    von_neumann_entropy,
)
from qsubthermo.fock import (
    _heat_kernel,
    _state_at,
    eigensystem,
    thermal_product_state,
    thermal_weights,
    unitary_at,
)

PREP = ThermalPreparation(0.5, 1.0)
CFG24 = FockConfig(24, 24, tail_tol=1e-4)


def heisenberg_matrix(op, t, sys_, cfg):
    u = unitary_at(t, sys_, cfg)
    return u.conj().T @ op @ u


class TestPropagatorAgainstHeisenbergOracle:
    """The eight coefficients are matrix elements of the evolved ladder
    operators between the lowest bare states, where truncation is harmless."""

    @pytest.mark.parametrize("kind,g", [(InteractionKind.RWA, 0.1), (InteractionKind.LINEAR, 0.1),
                                        (InteractionKind.LINEAR, 0.3)])
    @pytest.mark.parametrize("t", [0.7, 5.0])
    def test_all_eight_coefficients(self, kind, g, t):
        sys_ = OscillatorSystem(1.0, 1.0, kind, g=g)
        cfg = CFG24
        parts = build_hamiltonian(sys_, cfg)
        a_t = heisenberg_matrix(
            np.kron(np.diag(np.sqrt(np.arange(1, cfg.n_a)), 1), np.eye(cfg.n_b)), t, sys_, cfg
        )
        b_t = heisenberg_matrix(
            np.kron(np.eye(cfg.n_a), np.diag(np.sqrt(np.arange(1, cfg.n_b)), 1)), t, sys_, cfg
        )

        def idx(i, j):
            return i * cfg.n_b + j

        coeffs = propagator_coefficients(sys_, t)
        extracted = {
            "f_a": a_t[idx(0, 0), idx(1, 0)],
            "g_a": a_t[idx(1, 0), idx(0, 0)],
            "f_b": a_t[idx(0, 0), idx(0, 1)],
            "g_b": a_t[idx(0, 1), idx(0, 0)],
            "p_a": b_t[idx(0, 0), idx(1, 0)],
            "q_a": b_t[idx(1, 0), idx(0, 0)],
            "p_b": b_t[idx(0, 0), idx(0, 1)],
            "q_b": b_t[idx(0, 1), idx(0, 0)],
        }
        for name, value in extracted.items():
            assert abs(value - getattr(coeffs, name)) < 1e-6, (name, value)
        assert max(parts.v.shape) == cfg.dim


class TestHeatNumeric:
    def test_zero_time_reports_zero(self):
        report = heat_changes_numeric(linear_system(), PREP, CFG24, 0.0)
        assert report.dq_a == pytest.approx(0.0, abs=1e-12)
        assert report.dq_b == pytest.approx(0.0, abs=1e-12)
        assert report.dq_ab == pytest.approx(0.0, abs=1e-12)

    def test_rwa_matches_closed_form(self, cfg40):
        sys_ = rwa_system(g=0.1)
        x_a = thermal_occupation(PREP.beta_a, 1.0)
        x_b = thermal_occupation(PREP.beta_b, 1.0)
        for t in (0.5, 2.0, 7.0, 15.0):
            report = heat_changes_numeric(sys_, PREP, cfg40, t)
            expected = 2.0 * (x_a - x_b) * math.sin(0.1 * t) ** 2
            assert report.dq_ab == pytest.approx(expected, rel=1e-6, abs=1e-6)

    def test_series_blocks_match_pointwise_loop(self):
        # the blocked series against the one-time-at-a-time contraction of the
        # same kernels, across several blocks and a ragged last block
        sys_ = linear_system(g=0.3)
        times = np.linspace(0.0, 12.0, 301)
        kernels, q_a0, q_b0 = _heat_kernel(sys_, PREP, CFG24)

        def contract(t, which):
            # the sector kernels one time at a time, summed over sectors
            total = 0.0
            for energies, *sector_kernels in kernels:
                phases = np.exp(-1j * energies * t)
                total += float(np.real(phases @ sector_kernels[which] @ phases.conj()))
            return total

        for report, t in zip(heat_series_numeric(sys_, PREP, CFG24, times), times):
            dq_a = contract(t, 0) - q_a0
            dq_b = contract(t, 1) - q_b0
            assert report.t == t
            assert report.dq_a == pytest.approx(dq_a, rel=1e-12, abs=1e-12)
            assert report.dq_b == pytest.approx(dq_b, rel=1e-12, abs=1e-12)
            assert report.dq_ab == report.dq_b - report.dq_a

    def test_single_time_matches_series(self):
        sys_ = linear_system(g=0.3)
        series = heat_series_numeric(sys_, PREP, CFG24, [0.5, 2.0, 7.5])
        for report in series:
            single = heat_changes_numeric(sys_, PREP, CFG24, report.t)
            assert single.dq_a == pytest.approx(report.dq_a, rel=1e-12, abs=1e-12)
            assert single.dq_b == pytest.approx(report.dq_b, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_non_finite_time_rejected(self, t):
        with pytest.raises(ModelError, match="finite"):
            heat_series_numeric(linear_system(), PREP, CFG24, [1.0, t])

    def test_empty_series_skips_the_eigensystem(self):
        eigensystem.cache_clear()
        assert heat_series_numeric(linear_system(), PREP, CFG24, []) == []
        assert eigensystem.cache_info().misses == 0

    def test_multidimensional_times_rejected(self):
        with pytest.raises(ModelError, match="one-dimensional"):
            heat_series_numeric(linear_system(), PREP, CFG24, [[0.5, 1.0], [1.5, 2.0]])

    def test_counter_rotating_terms_heat_both_oscillators(self):
        # outside the RWA the bare energy is produced: at early times oscillator
        # a absorbs heat whichever way the temperature gradient points, and
        # dQ_a != -dQ_b
        sys_ = linear_system(g=0.1)
        for prep in (PREP, PREP.swapped()):
            early = [heat_changes_numeric(sys_, prep, CFG24, t) for t in (0.5, 1.0, 1.5)]
            assert any(r.dq_a > 1e-4 for r in early)
            mid = heat_changes_numeric(sys_, prep, CFG24, 2.0)
            assert abs(mid.dq_a + mid.dq_b) > 1e-3


# Oracle/analytic agreement grid: couplings paired with the times at which a
# <= 48-level-per-mode dense oracle stays below the 1e-6 band.  Stronger
# couplings inflate mode occupations (roughly by ((omega+g)/nu_soft)^2), so
# g = 0.49 past t ~ 1 would need hundreds of levels per mode; measured errors
# for the retained points sit at or below 3e-7.
AGREEMENT_CASES = [
    (InteractionKind.RWA, 40, 0.05, (0.5, 1.0, 2.0, 5.0, 10.0)),
    (InteractionKind.RWA, 40, 0.1, (0.5, 1.0, 2.0, 5.0, 10.0)),
    (InteractionKind.RWA, 40, 0.3, (0.5, 1.0, 2.0, 5.0, 10.0)),
    (InteractionKind.RWA, 40, 0.49, (0.5, 1.0, 2.0, 5.0, 10.0)),
    (InteractionKind.LINEAR, 48, 0.05, (0.5, 1.0, 2.0, 5.0, 10.0)),
    (InteractionKind.LINEAR, 48, 0.1, (0.5, 1.0, 2.0, 5.0, 10.0)),
    (InteractionKind.LINEAR, 48, 0.3, (0.5, 1.0, 2.0, 5.0, 10.0)),
    (InteractionKind.LINEAR, 48, 0.49, (0.5, 1.0)),
]


@pytest.mark.parametrize("kind,n,g,times", AGREEMENT_CASES)
def test_oracle_matches_analytic_heats(kind, n, g, times):
    sys_ = OscillatorSystem(1.0, 1.0, kind, g=g)
    cfg = FockConfig(n, n, tail_tol=1e-8)
    try:
        for t in times:
            oracle = heat_changes_numeric(sys_, PREP, cfg, t)
            analytic = heat_transfer(t, sys_, PREP)
            for got, want in ((oracle.dq_a, analytic.dq_a), (oracle.dq_b, analytic.dq_b)):
                assert abs(got - want) <= 1e-6 * max(1.0, abs(want)), (kind, g, t)
    finally:
        # a dim-2304 linear eigensystem holds two 1152 x 1152 sector bases
        # (about 40 MB), and its heat kernel twice that; keep the peak bounded
        eigensystem.cache_clear()
        _heat_kernel.cache_clear()


# Every public oracle call that evolves to a time t, as call(t, sys, prep, cfg).
ORACLE_ENTRY_POINTS = {
    "heat_changes_numeric": lambda t, s, p, c: heat_changes_numeric(s, p, c, t),
    "heat_series_numeric": lambda t, s, p, c: heat_series_numeric(s, p, c, [0.5, t]),
    "unitary_at": lambda t, s, p, c: unitary_at(t, s, c),
    "bare_amplitudes": lambda t, s, p, c: bare_amplitudes(t, s, c),
    "classical_average": lambda t, s, p, c: classical_average(lambda ea0, eb0, ea1, eb1: ea1 - ea0, t, s, p, c),
    "jarzynski_identity": jarzynski_identity,
    "jensen_bound": jensen_bound,
    "entropy_production": entropy_production,
    "true_heat_transfer_identity": true_heat_transfer_identity,
    "effective_hamiltonian": effective_hamiltonian,
}


@pytest.mark.parametrize("call", ORACLE_ENTRY_POINTS.values(), ids=ORACLE_ENTRY_POINTS.keys())
@pytest.mark.parametrize("t", [math.nan, math.inf, -1.0, 1e308], ids=["nan", "inf", "negative", "overflow"])
@pytest.mark.filterwarnings("error")
def test_oracle_rejects_bad_times(call, t, cfg_small):
    # the closed forms' time rule: NaN, inf and negative times are refused, and
    # a finite time whose phases E t overflow is a ModelError, never NaN output
    # or a numpy warning
    with pytest.raises(ModelError, match="finite and non-negative|overflows"):
        call(t, linear_system(g=0.2), PREP, cfg_small)


def test_infeasible_cutoff_fails_before_eigh():
    # the thermal tail check comes before any assembly or eigendecomposition,
    # so an infeasible cutoff costs nothing
    sys_, prep = linear_system(g=0.2), ThermalPreparation(0.5, 0.5)
    cfg = FockConfig(24, 24, tail_tol=1e-12)
    calls = [
        lambda: heat_changes_numeric(sys_, prep, cfg, 1.0),
        lambda: heat_series_numeric(sys_, prep, cfg, [0.0, 1.0]),
        lambda: true_heat_transfer_identity(1.0, sys_, prep, cfg),
        lambda: jarzynski_identity(1.0, sys_, prep, cfg),
        lambda: jensen_bound(1.0, sys_, prep, cfg),
        lambda: entropy_production(1.0, sys_, prep, cfg),
        lambda: effective_hamiltonian(1.0, sys_, prep, cfg),
    ]
    eigensystem.cache_clear()
    _heat_kernel.cache_clear()
    for call in calls:
        with pytest.raises(TruncationError):
            call()
    assert eigensystem.cache_info().misses == 0


def test_truncation_monotonicity():
    # doubling the per-mode cutoff moves the reported heats by less than the
    # agreement tolerance once the smaller cutoff already holds the tails
    sys_ = linear_system(g=0.1)
    prep = ThermalPreparation(1.0, 1.5)
    for t in (1.0, 5.0):
        small = heat_changes_numeric(sys_, prep, FockConfig(24, 24, tail_tol=1e-8), t)
        big = heat_changes_numeric(sys_, prep, FockConfig(48, 48, tail_tol=1e-8), t)
        assert abs(big.dq_a - small.dq_a) < 1e-6 * max(1.0, abs(big.dq_a))
        assert abs(big.dq_b - small.dq_b) < 1e-6 * max(1.0, abs(big.dq_b))


class TestClassicalAverage:
    def test_completeness(self):
        value = classical_average(
            lambda ea0, eb0, ea1, eb1: np.ones(np.broadcast_shapes(ea0.shape, eb0.shape, ea1.shape, eb1.shape)),
            1.3,
            linear_system(),
            PREP,
            CFG24,
        )
        assert value == pytest.approx(1.0, abs=1e-10)

    def test_initial_projections_recover_starting_energies(self):
        sys_ = linear_system()
        w = thermal_product_state(sys_, PREP, CFG24)
        parts = build_hamiltonian(sys_, CFG24)
        expected_a = float(np.real(np.diag(parts.h_a)) @ w)
        expected_b = float(np.real(np.diag(parts.h_b)) @ w)
        got_a = classical_average(lambda ea0, eb0, ea1, eb1: ea0 + 0 * (eb0 + ea1 + eb1), 2.0, sys_, PREP, CFG24)
        got_b = classical_average(lambda ea0, eb0, ea1, eb1: eb0 + 0 * (ea0 + ea1 + eb1), 2.0, sys_, PREP, CFG24)
        assert got_a == pytest.approx(expected_a, abs=1e-10)
        assert got_b == pytest.approx(expected_b, abs=1e-10)

    def test_final_projections_recover_evolved_energies(self):
        sys_ = linear_system()
        t = 2.0
        report = heat_changes_numeric(sys_, PREP, CFG24, t)
        w = thermal_product_state(sys_, PREP, CFG24)
        parts = build_hamiltonian(sys_, CFG24)
        start_a = float(np.real(np.diag(parts.h_a)) @ w)
        got = classical_average(lambda ea0, eb0, ea1, eb1: ea1 + 0 * (ea0 + eb0 + eb1), t, sys_, PREP, CFG24)
        assert got == pytest.approx(start_a + report.dq_a, abs=1e-10)

    def test_amplitude_unitarity(self):
        amps = bare_amplitudes(3.0, linear_system(), CFG24)
        assert amps.unitarity_defect() < 10 * CFG24.tail_tol


class TestJarzynski:
    def test_exact_at_zero_time(self):
        assert jarzynski_identity(0.0, linear_system(), PREP, CFG24) == pytest.approx(1.0, abs=1e-13)

    @pytest.mark.parametrize("t", [1.0, 5.0, 10.0])
    def test_rwa_identity(self, t):
        value = jarzynski_identity(t, rwa_system(g=0.1), PREP, CFG24)
        assert value == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("g,t", [(0.3, 1.0), (0.3, 5.0), (0.49, 5.0)])
    def test_linear_identity(self, g, t):
        value = jarzynski_identity(t, linear_system(g=g), PREP, CFG24)
        assert value == pytest.approx(1.0, abs=1e-4)

    def test_deep_cold_preparation_does_not_overflow(self):
        cold = ThermalPreparation(50.0, 50.0)
        value = jarzynski_identity(1.0, linear_system(), cold, FockConfig(12, 12))
        assert math.isfinite(value)
        assert value == pytest.approx(1.0, abs=1e-10)

    def test_jensen_inequality(self):
        for t in (0.5, 2.0, 8.0):
            lhs, rhs = jensen_bound(t, linear_system(), PREP, CFG24)
            assert lhs <= rhs + 1e-12


class TestEntropyHelpers:
    def test_von_neumann_entropy_of_thermal_state(self):
        # S = beta*w*X + ln Z for the (truncated) Gibbs state
        beta, n = 1.0, 40
        rho = thermal_state(beta, 1.0, n)
        weights = np.diag(rho).real
        expected = float(-(weights[weights > 0] * np.log(weights[weights > 0])).sum())
        assert von_neumann_entropy(rho) == pytest.approx(expected, abs=1e-12)

    def test_entropy_rejects_unphysical_matrix(self):
        bad = np.diag([1.2, -0.2]).astype(complex)
        with pytest.raises(PositivityError):
            von_neumann_entropy(bad)

    def test_relative_entropy_nonnegative_and_zero_on_itself(self):
        rho = thermal_state(0.7, 1.0, 10)
        assert relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-12)
        sigma = thermal_state(1.4, 1.0, 10)
        assert relative_entropy(rho, sigma) > 0.0

    def test_relative_entropy_support_violation(self):
        rho = np.diag([0.5, 0.5, 0.0]).astype(complex)
        sigma = np.diag([1.0, 0.0, 0.0]).astype(complex)
        with pytest.raises(PositivityError):
            relative_entropy(rho, sigma)

    def test_partial_traces_are_consistent(self):
        rho_a = thermal_state(0.5, 1.0, 6)
        rho_b = thermal_state(1.0, 1.0, 5)
        joint = np.kron(rho_a, rho_b)
        assert np.abs(partial_trace_b(joint, 6, 5) - rho_a).max() < 1e-14
        assert np.abs(partial_trace_a(joint, 6, 5) - rho_b).max() < 1e-14


class TestEntropyProduction:
    def test_zero_time_all_zero(self):
        result = entropy_production(0.0, linear_system(), PREP, CFG24)
        assert result.ds_a == pytest.approx(0.0, abs=1e-10)
        assert result.ds_i_a == pytest.approx(0.0, abs=1e-10)
        assert result.ds_e_a == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("t", [0.8, 3.0])
    def test_klein_inequality_and_decomposition(self, t):
        result = entropy_production(t, linear_system(g=0.3), PREP, CFG24)
        assert result.ds_i_a >= -1e-10
        assert result.ds_a == pytest.approx(result.ds_i_a + result.ds_e_a, abs=1e-8)


    @pytest.mark.parametrize(
        "sys_",
        [linear_system(g=0.3), OscillatorSystem(1.0, 1.0, InteractionKind.MINIMAL_A, m=1.0, q=0.3)],
        ids=["linear", "minimal-a"],
    )
    def test_production_matches_dense_state_entropy(self, sys_):
        # S(rho(t) || rho_a(t) (x) rho_b(0)) with S(rho(t)) from the dense rho(t)
        # instead of the conserved initial spectrum.
        t = 1.7
        rho_t = _state_at(t, sys_, PREP, CFG24)
        log_w_b = np.log(thermal_weights(PREP.beta_b, sys_.omega_b, CFG24.n_b))
        rho_b_diag = np.diag(partial_trace_a(rho_t, CFG24.n_a, CFG24.n_b)).real
        expected = (
            -von_neumann_entropy(rho_t)
            + von_neumann_entropy(partial_trace_b(rho_t, CFG24.n_a, CFG24.n_b))
            - rho_b_diag @ log_w_b
        )
        assert entropy_production(t, sys_, PREP, CFG24).ds_i_a == pytest.approx(expected, abs=1e-10)


class TestTrueHeat:
    def test_uncoupled_system_moves_no_heat(self):
        sys_ = OscillatorSystem(1.0, 1.0, InteractionKind.NONE)
        for t in (0.0, 2.0):
            result = true_heat_transfer_identity(t, sys_, PREP, CFG24)
            assert result.dq_ab_true == pytest.approx(0.0, abs=1e-12)
            assert result.dq_ab == pytest.approx(0.0, abs=1e-12)

    def test_interaction_contributions_cancel(self):
        result = true_heat_transfer_identity(2.0, linear_system(g=0.3), PREP, CFG24)
        assert result.dq_ab_true == pytest.approx(result.dq_ab, abs=1e-10)

    def test_reversed_fluxes(self):
        report = heat_changes_numeric(linear_system(g=0.3), PREP, CFG24, 2.0)
        result = true_heat_transfer_identity(2.0, linear_system(g=0.3), PREP, CFG24)
        assert result.reversed_flux_a == pytest.approx(-(PREP.beta_b / PREP.beta_a) * report.dq_b)
        assert result.reversed_flux_b == pytest.approx(-(PREP.beta_a / PREP.beta_b) * report.dq_a)

    def test_true_energies_sum_identity(self):
        # H_a_true + H_b_true = H + V, exactly, by construction
        parts = build_hamiltonian(linear_system(g=0.3), CFG24)
        h_true_a, h_true_b = true_energies(linear_system(g=0.3), CFG24)
        assert np.abs((h_true_a + h_true_b) - (parts.h + parts.v)).max() < 1e-12


class TestEffectiveHamiltonian:
    @pytest.mark.parametrize("sys_", [rwa_system(g=0.2), linear_system(g=0.3)])
    @pytest.mark.parametrize("t", [0.0, 1.0, 5.0])
    def test_vanishes_for_ladder_linear_interactions(self, sys_, t):
        h_eff = effective_hamiltonian(t, sys_, PREP, CFG24)
        assert np.linalg.norm(h_eff, ord=2) < 1e-8

    def test_zero_interaction_gives_zero(self):
        sys_ = OscillatorSystem(1.0, 1.0, InteractionKind.NONE)
        h_eff = effective_hamiltonian(1.0, sys_, PREP, CFG24)
        assert np.abs(h_eff).max() == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("t", [0.0, 1.5])
    def test_number_number_coupling_matches_hand_partial_trace(self, t):
        # V = kappa (a^dag a)(x)(b^dag b) conserves n_b, so tr_b leaves
        # kappa * <n_b> * a^dag a with <n_b> frozen at its thermal value.
        # Mode a enters only through its exactly-diagonal number operator, so
        # its short cutoff (loose tail) cannot touch the comparison; mode b is
        # deep enough that the truncated <n_b> matches the closed form to 1e-19.
        kappa = 0.2
        cfg = FockConfig(8, 48, tail_tol=2e-2)
        sys_ = OscillatorSystem(1.0, 1.0, InteractionKind.NONE)
        number_a = np.diag(np.arange(cfg.n_a)).astype(complex)
        number_b = np.diag(np.arange(cfg.n_b)).astype(complex)
        interaction = kappa * np.kron(number_a, number_b)
        h_eff = effective_hamiltonian(t, sys_, PREP, cfg, interaction=interaction)
        x_b = thermal_occupation(PREP.beta_b, 1.0)
        assert np.abs(h_eff - kappa * x_b * number_a).max() < 1e-8

    def test_diagonal_split(self):
        mat = np.array([[1.0, 2.0j], [-2.0j, 3.0]], dtype=complex)
        diag, rest = diagonal_split(mat)
        assert np.array_equal(diag, np.diag([1.0, 3.0]).astype(complex))
        assert np.array_equal(diag + rest, mat)
        assert np.abs(np.diag(rest)).max() == 0.0


class TestSpectrumMatch:
    def _pair(self, q):
        kw = dict(m=1.0, q=q)
        return (
            OscillatorSystem(1.0, 1.0, InteractionKind.MINIMAL_A, **kw),
            OscillatorSystem(1.0, 1.0, InteractionKind.MINIMAL_B, **kw),
        )

    def test_uncoupled_limit_is_exact(self):
        sys_a, sys_b = self._pair(0.0)
        assert spectrum_match(sys_a, sys_b, CFG24, 6) == pytest.approx(0.0, abs=1e-12)

    def test_unitary_equivalence_in_low_band(self):
        sys_a, sys_b = self._pair(0.2)
        cfg = FockConfig(28, 28)
        assert spectrum_match(sys_a, sys_b, cfg, 10) < 1e-6

    def test_band_limit_enforced(self):
        sys_a, sys_b = self._pair(0.2)
        with pytest.raises(TruncationError):
            spectrum_match(sys_a, sys_b, FockConfig(6, 6), 10)

    def test_mismatched_parameters_rejected(self):
        sys_a, _ = self._pair(0.2)
        _, sys_b = self._pair(0.3)
        with pytest.raises(ModelError):
            spectrum_match(sys_a, sys_b, CFG24, 4)
