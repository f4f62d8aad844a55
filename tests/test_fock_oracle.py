"""Cross-validation between the closed forms and the dense Fock oracle, plus
all the first-principles quantities the oracle computes on its own."""

import math
import weakref

import numpy as np
import pytest

from conftest import (
    clear_oracle_caches,
    dense,
    dense_state,
    dense_unitary,
    eigenvectors,
    linear_system,
    partial_traces,
    rwa_system,
)
from qsubthermo import (
    FockConfig,
    HeatReport,
    InteractionKind,
    ModelError,
    OscillatorSystem,
    PositivityError,
    ThermalPreparation,
    TruncationError,
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
    propagator_coefficients,
    spectrum_match,
    thermal_occupation,
    true_heat_transfer_identity,
    von_neumann_entropy,
)
from qsubthermo import fock
from qsubthermo.fock import (
    _SERIES_BLOCK,
    _heat_kernel,
    _transitions,
    eigensystem,
    thermal_product_state,
    thermal_weights,
)

PREP = ThermalPreparation(0.5, 1.0)
CFG24 = FockConfig(24, 24, tail_tol=1e-4)


def heisenberg_matrix(op, t, sys_, cfg):
    u = dense_unitary(t, sys_, cfg)
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

    @pytest.mark.parametrize("omega_b,terms_per_stack", [(1.0, 3), (1.3, 2)], ids=["split", "detuned"])
    def test_series_blocks_match_pointwise_loop(self, omega_b, terms_per_stack):
        # the blocked series against the one-time-at-a-time contraction of the
        # same real kernels, across several blocks and a ragged last block.
        # A stack split by the mode exchange keeps three blocks of K_a, and
        # its K_b is S K_a S; detuned modes have no exchange and keep K_a and
        # K_b whole
        sys_ = OscillatorSystem(1.0, omega_b, InteractionKind.LINEAR, g=0.3)
        times = np.linspace(0.0, 12.0, 301)
        kernels, q_a0, q_b0 = _heat_kernel(sys_, PREP, CFG24)

        def whole(energies, terms, which):
            # the stack's kernel for tr(H_a rho) (which = 0) or tr(H_b rho)
            # (which = 1): each term's panels folded back into its block, a
            # symmetric panel's doubled rows above its diagonal halved and
            # mirrored, put in place with their weights, then made Hermitian,
            # which spreads a doubled (+, -) block over (+, -) and (-, +) and
            # leaves every real contraction as it was
            folded = np.zeros(energies.shape + energies.shape[-1:], dtype=terms[0][2][0][2].dtype)
            for rows, cols, panels, weights in terms:
                block = np.zeros_like(folded[:, rows, cols])
                for columns, end, kernel in panels:
                    block[:, :end, columns] = kernel
                    if end is not None:
                        block[:, : columns.start, columns] /= 2.0
                        block[:, columns, : columns.start] = block[:, : columns.start, columns].swapaxes(1, 2)
                folded[:, rows, cols] += weights[which] * block
            return (folded + folded.conj().swapaxes(1, 2)) / 2.0

        def pointwise(kernels, which):
            # the whole sector kernels one time at a time, summed over every
            # sector of every stack
            stacks = [(energies, whole(energies, terms, which)) for energies, terms in kernels]
            totals = []
            for t in times:
                total = 0.0
                for energies, stack in stacks:
                    for sector_energies, kernel in zip(energies, stack, strict=True):
                        phases = np.exp(-1j * sector_energies * t)
                        total += float(np.real(phases @ kernel @ phases.conj()))
                totals.append(total)
            return totals

        # the terms make K_a and K_b from the eigenvectors
        stacks = eigensystem(sys_, CFG24)
        assert [len(terms) for _, terms in kernels] == [terms_per_stack] * 2
        w = thermal_product_state(sys_, PREP, CFG24)
        levels = np.repeat(np.arange(CFG24.n_a), CFG24.n_b), np.tile(omega_b * np.arange(CFG24.n_b), CFG24.n_a)
        for stack, (energies, terms) in zip(stacks, kernels, strict=True):
            index, vectors = stack[0], eigenvectors(stack)  # V = Q blockdiag(Y+, Y-)
            v_t = vectors.swapaxes(1, 2)
            rho = v_t @ (w[index][..., None] * vectors)
            for which, d in enumerate(levels):
                expected = (v_t @ (d[index][..., None] * vectors)).swapaxes(1, 2) * rho
                assert np.abs(whole(energies, terms, which) - expected).max() < 1e-14 * np.abs(expected).max()

        assert all(np.isrealobj(kernel) for _, terms in kernels for _, _, panels, _ in terms for *_, kernel in panels)
        series = heat_series_numeric(sys_, PREP, CFG24, times)
        for report, t, e_a, e_b in zip(series, times, pointwise(kernels, 0), pointwise(kernels, 1), strict=True):
            assert report.t == t
            assert report.dq_a == pytest.approx(e_a - q_a0, rel=1e-12, abs=1e-12)
            assert report.dq_b == pytest.approx(e_b - q_b0, rel=1e-12, abs=1e-12)
            assert report.dq_ab == report.dq_b - report.dq_a

    def test_single_time_matches_series(self):
        sys_ = linear_system(g=0.3)
        series = heat_series_numeric(sys_, PREP, CFG24, [0.5, 2.0, 7.5])
        for report in series:
            single = heat_changes_numeric(sys_, PREP, CFG24, report.t)
            assert single.dq_a == pytest.approx(report.dq_a, rel=1e-12, abs=1e-12)
            assert single.dq_b == pytest.approx(report.dq_b, rel=1e-12, abs=1e-12)

    def test_series_verdicts_come_from_one_array_call(self, monkeypatch):
        # every report of the series is the one from_heats gives at its own
        # time, down to Python float and bool fields, yet the series makes a
        # single call on the arrays
        sys_ = linear_system(g=0.49)
        times = np.linspace(0.0, 20.0, 401)
        expected = [HeatReport.from_heats(r.t, r.dq_a, r.dq_b, PREP, sys_)
                    for r in heat_series_numeric(sys_, PREP, CFG24, times)]
        assert 0 < sum(not r.csl_ok for r in expected) < len(times)
        calls, from_heats = [], HeatReport.from_heats
        monkeypatch.setattr(HeatReport, "from_heats", lambda *args, **kwargs: calls.append(args) or from_heats(*args, **kwargs))
        series = heat_series_numeric(sys_, PREP, CFG24, times)
        assert len(calls) == 1
        for report, want in zip(series, expected, strict=True):
            assert report == want and tuple(map(type, vars(report).values())) == (float,) * 5 + (bool,)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_non_finite_time_rejected(self, t):
        with pytest.raises(ModelError, match="finite"):
            heat_series_numeric(linear_system(), PREP, CFG24, [1.0, t])

    def test_empty_series_skips_the_eigensystem(self):
        clear_oracle_caches()
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
        # a dim-2304 linear eigensystem holds the real 576 x 576 bases of the
        # four exchange halves of its parity sectors (about 10 MB) and its
        # heat kernel three half-size blocks per sector (about 16 MB); no call
        # builds a dense H or rho(t), so these cached entries are the largest
        # arrays left alive, and clearing them keeps the next case's peak to its own
        clear_oracle_caches()


# Every public oracle call that evolves to a time t, as call(t, sys, prep, cfg).
ORACLE_ENTRY_POINTS = {
    "heat_changes_numeric": lambda t, s, p, c: heat_changes_numeric(s, p, c, t),
    "heat_series_numeric": lambda t, s, p, c: heat_series_numeric(s, p, c, [0.5, t]),
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
    # the closed forms' time rule: NaN, inf and negative times are refused
    # before any eigendecomposition, so they cost nothing, and a finite time
    # whose phases E t overflow is a ModelError, never NaN output or a numpy
    # warning
    clear_oracle_caches()
    with pytest.raises(ModelError, match="finite and non-negative|overflows"):
        call(t, linear_system(g=0.2), PREP, cfg_small)
    if t != 1e308:  # only the overflow needs the energies to show
        assert eigensystem.cache_info().misses == 0


# Every oracle call that takes one value: the calls that evolve to one time,
# and spectrum_match with its k in place of the time.
SCALAR_CALLS = {
    **{name: call for name, call in ORACLE_ENTRY_POINTS.items() if name != "heat_series_numeric"},
    "spectrum_match": lambda k, s, p, c: spectrum_match(
        OscillatorSystem(1.0, 1.0, InteractionKind.MINIMAL_A, m=1.0, q=0.2),
        OscillatorSystem(1.0, 1.0, InteractionKind.MINIMAL_B, m=1.0, q=0.2),
        c,
        k,
    ),
}
SCALAR_CASES = {
    **{
        f"{name}-{size}-times": (name, np.linspace(0.1, 1.0, size))
        for name in SCALAR_CALLS
        if name != "spectrum_match"
        for size in (2, 32)
    },
    "spectrum_match-k=2.5": ("spectrum_match", 2.5),
    "spectrum_match-k=True": ("spectrum_match", True),
}


@pytest.mark.parametrize("name,value", SCALAR_CASES.values(), ids=SCALAR_CASES.keys())
def test_single_value_calls_reject_arrays_and_fractions(name, value):
    # an array of times would fail deep in the products (2 times) or, at the
    # sector size (LINEAR at 8 levels has two sectors of 32 states),
    # broadcast against a sector's energies into a wrong value, a fractional
    # k would fail as a slice bound and True would pass as k = 1: each is a
    # ModelError before any eigendecomposition
    clear_oracle_caches()
    with pytest.raises(ModelError, match="must be a scalar|integer k"):
        SCALAR_CALLS[name](value, linear_system(g=0.2), PREP, FockConfig(8, 8, tail_tol=0.1))
    assert eigensystem.cache_info().misses == 0


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
    clear_oracle_caches()
    for call in calls:
        with pytest.raises(TruncationError):
            call()
    assert eigensystem.cache_info().misses == 0


def test_truncation_monotonicity():
    # doubling the per-mode cutoff moves the reported heats by less than the
    # agreement tolerance once the smaller cutoff already holds the tails
    # (one cutoff finished before the other, since the oracle caches hold one key)
    sys_ = linear_system(g=0.1)
    prep = ThermalPreparation(1.0, 1.5)
    smalls, bigs = ([heat_changes_numeric(sys_, prep, FockConfig(n, n, tail_tol=1e-8), t) for t in (1.0, 5.0)] for n in (24, 48))
    for small, big in zip(smalls, bigs, strict=True):
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
        expected_a = float(parts.d_a @ w)
        expected_b = float(parts.d_b @ w)
        got_a = classical_average(lambda ea0, eb0, ea1, eb1: ea0 + 0 * (eb0 + ea1 + eb1), 2.0, sys_, PREP, CFG24)
        got_b = classical_average(lambda ea0, eb0, ea1, eb1: eb0 + 0 * (ea0 + ea1 + eb1), 2.0, sys_, PREP, CFG24)
        assert got_a == pytest.approx(expected_a, abs=1e-10)
        assert got_b == pytest.approx(expected_b, abs=1e-10)

    def test_final_projections_recover_evolved_energies(self):
        sys_ = linear_system()
        t = 2.0
        report = heat_changes_numeric(sys_, PREP, CFG24, t)
        w = thermal_product_state(sys_, PREP, CFG24)
        start_a = float(build_hamiltonian(sys_, CFG24).d_a @ w)
        got = classical_average(lambda ea0, eb0, ea1, eb1: ea1 + 0 * (ea0 + eb0 + eb1), t, sys_, PREP, CFG24)
        assert got == pytest.approx(start_a + report.dq_a, abs=1e-10)

    def test_amplitude_unitarity(self):
        # each sector's P_ij = |<i|U(t)|j>|^2 is doubly stochastic: U(t) is
        # unitary on the truncated space, so rows and columns both sum to 1
        rows, cols = [], []  # each stack's P, read through a sum that keeps nothing of it

        def stochastic(index, probs, *_):
            rows.append(np.abs(probs.sum(axis=-1) - 1.0).max())
            cols.append(np.abs(probs.sum(axis=-2) - 1.0).max())
            return 0.0

        _transitions(3.0, linear_system(), PREP, CFG24, stochastic)
        assert len(rows) == len(eigensystem(linear_system(), CFG24))
        assert max(rows) < 1e-12
        assert max(cols) < 1e-12


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
        weights = thermal_weights(beta, 1.0, n)
        rho = np.diag(weights).astype(complex)
        expected = float(-(weights[weights > 0] * np.log(weights[weights > 0])).sum())
        assert von_neumann_entropy(rho) == pytest.approx(expected, abs=1e-12)

    # an eigenvalue of -1e-6 is negative, not rounding: it pins _EIGENVALUE_FLOOR well below 1e-6
    @pytest.mark.parametrize("levels", [[1.2, -0.2], [0.5, 0.5 + 1e-6, -1e-6]], ids=["far", "near"])
    def test_entropy_rejects_unphysical_matrix(self, levels):
        bad = np.diag(levels).astype(complex)
        with pytest.raises(PositivityError):
            von_neumann_entropy(bad)

    def test_relative_entropy_nonnegative_and_zero_on_itself(self):
        # ds_i_a is S(rho(t) || rho_a(t) (x) rho_b(0)): uncoupled, rho(t) stays
        # that product and it vanishes at every t; coupled, it is positive
        uncoupled = OscillatorSystem(1.0, 1.0, InteractionKind.NONE)
        for t in (0.0, 2.0):
            assert entropy_production(t, uncoupled, PREP, CFG24).ds_i_a == pytest.approx(0.0, abs=1e-12)
        assert entropy_production(2.0, linear_system(g=0.3), PREP, CFG24).ds_i_a > 1e-6

    def test_partial_traces_are_consistent(self):
        # the reference reduced states of the dense tests, on unequal cutoffs
        # so that swapped axes cannot pass
        rho_a = np.diag(thermal_weights(0.5, 1.0, 6)).astype(complex)
        rho_b = np.diag(thermal_weights(1.0, 1.0, 5)).astype(complex)
        got_a, got_b = partial_traces(np.kron(rho_a, rho_b), 6, 5)
        assert np.abs(got_a - rho_a).max() < 1e-14
        assert np.abs(got_b - rho_b).max() < 1e-14


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
        [linear_system(g=0.3), OscillatorSystem(1.0, 1.3, InteractionKind.MINIMAL_B, m=0.7, q=0.4)],
        ids=["linear", "minimal-b"],
    )
    def test_flux_reads_rho_b_without_the_heat_kernel(self, sys_):
        # dQ_b comes from the diagonal of the rho_b(t) the production already
        # holds, so a cold call builds no heat kernel, and it is the kernel's dQ_b
        clear_oracle_caches(eigensystem)
        ds_e_a = entropy_production(1.7, sys_, PREP, CFG24).ds_e_a
        assert _heat_kernel.cache_info().currsize == 0
        assert abs(ds_e_a + PREP.beta_b * heat_changes_numeric(sys_, PREP, CFG24, 1.7).dq_b) < 1e-12


    @pytest.mark.parametrize(
        "sys_",
        [linear_system(g=0.3), OscillatorSystem(1.0, 1.0, InteractionKind.MINIMAL_A, m=1.0, q=0.3)],
        ids=["linear", "minimal-a"],
    )
    def test_production_matches_dense_state_entropy(self, sys_):
        # S(rho(t) || rho_a(t) (x) rho_b(0)) with S(rho(t)) from the dense rho(t)
        # instead of the conserved initial spectrum.
        t = 1.7
        rho_t = dense_state(t, sys_, PREP, CFG24)
        log_w_b = np.log(thermal_weights(PREP.beta_b, sys_.omega_b, CFG24.n_b))
        rho_a, rho_b = partial_traces(rho_t, CFG24.n_a, CFG24.n_b)
        expected = -von_neumann_entropy(rho_t) + von_neumann_entropy(rho_a) - np.diag(rho_b).real @ log_w_b
        assert entropy_production(t, sys_, PREP, CFG24).ds_i_a == pytest.approx(expected, abs=1e-10)


class TestTrueHeat:
    def test_true_energies_sum_identity(self):
        # H_a_true + H_b_true = H + V, exactly, on the entries
        # true_heat_transfer_identity traces: one edge list serves both
        parts = build_hamiltonian(linear_system(g=0.3), CFG24)
        rows, cols, h_true_a = parts.entries(-parts.d_b)
        rows_b, cols_b, h_true_b = parts.entries(-parts.d_a)
        assert np.array_equal(rows, rows_b) and np.array_equal(cols, cols_b)
        total = np.zeros((parts.dim, parts.dim), dtype=np.complex128)
        total[rows, cols] = h_true_a + h_true_b
        assert np.abs(total - (dense(parts) + dense(parts, -(parts.d_a + parts.d_b)))).max() < 1e-12

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

    @pytest.mark.parametrize("k", [-1, 0])
    def test_k_below_one_rejected(self, k):
        # k = -1 would slice off only the top level and compare the
        # truncation-contaminated band; k = 0 would reduce over nothing
        sys_a, sys_b = self._pair(0.2)
        with pytest.raises(ModelError, match="k >= 1"):
            spectrum_match(sys_a, sys_b, FockConfig(8, 8), k)


def counted(monkeypatch, name: str) -> list:
    """The arguments of every call of fock's ``name`` from here on."""
    calls, original = [], getattr(fock, name)
    monkeypatch.setattr(fock, name, lambda *args: calls.append(args) or original(*args))
    return calls


def bits(value) -> str:
    """A report, a float or an array as text that tells every bit apart, signed zeros included."""
    return value.tobytes().hex() if isinstance(value, np.ndarray) else repr(value)


class TestOneEvaluationPerTime:
    """Each (system, time) is evolved once: the rho(t) routes share one
    gather, and the two thermal sums one pass of transitions."""

    SYS, CFG, T = linear_system(g=0.2), FockConfig(10, 10, tail_tol=1e-2), 1.7
    RHO_ROUTES = (entropy_production, effective_hamiltonian, true_heat_transfer_identity)

    def test_rho_routes_share_one_gather_and_match_cold_calls(self, monkeypatch):
        cold = []
        for route in self.RHO_ROUTES:
            clear_oracle_caches()
            cold.append(bits(route(self.T, self.SYS, PREP, self.CFG)))
        clear_oracle_caches()
        evolved = counted(monkeypatch, "_partial_traces")
        assert [bits(route(self.T, self.SYS, PREP, self.CFG)) for route in self.RHO_ROUTES] == cold
        assert len(evolved) == 1

    def test_rho_routes_assemble_h_once(self, monkeypatch):
        # the gather keeps the H it assembles, and the true heats and the
        # effective Hamiltonian read it there: one assembly per (system, time)
        eigensystem(self.SYS, self.CFG)
        clear_oracle_caches(eigensystem)
        assemblies = counted(monkeypatch, "build_hamiltonian")
        for route in self.RHO_ROUTES:
            route(self.T, self.SYS, PREP, self.CFG)
        assert len(assemblies) == 1

    def test_thermal_sums_share_one_transition_pass(self, monkeypatch):
        clear_oracle_caches()
        cold = bits(jensen_bound(self.T, self.SYS, PREP, self.CFG))
        clear_oracle_caches()
        transitions = counted(monkeypatch, "_transitions")
        jarzynski = jarzynski_identity(self.T, self.SYS, PREP, self.CFG)
        assert bits(jensen_bound(self.T, self.SYS, PREP, self.CFG)) == cold
        assert len(transitions) == 1 and cold.endswith(f", {jarzynski!r})")

    def test_another_time_preparation_or_cutoff_misses(self, monkeypatch):
        entropy_production(self.T, self.SYS, PREP, self.CFG)
        jarzynski_identity(self.T, self.SYS, PREP, self.CFG)
        evolved, transitions = counted(monkeypatch, "_partial_traces"), counted(monkeypatch, "_transitions")
        others = [(self.T + 0.5, PREP, self.CFG), (self.T, ThermalPreparation(0.6, 1.0), self.CFG),
                  (self.T, PREP, FockConfig(10, 9, tail_tol=1e-2))]
        for t, prep, cfg in others:
            effective_hamiltonian(t, self.SYS, prep, cfg)
            jensen_bound(t, self.SYS, prep, cfg)
        assert (len(evolved), len(transitions)) == (3, 3)

    def test_override_and_classical_average_stay_uncached(self, monkeypatch):
        parts = build_hamiltonian(self.SYS, self.CFG)
        override = dense(parts, -(parts.d_a + parts.d_b))
        evolved, transitions = counted(monkeypatch, "_partial_traces"), counted(monkeypatch, "_transitions")
        for _ in range(2):
            effective_hamiltonian(self.T, self.SYS, PREP, self.CFG, interaction=override)
            classical_average(lambda ea0, eb0, ea1, eb1: ea1 - ea0, self.T, self.SYS, PREP, self.CFG)
        assert (len(evolved), len(transitions)) == (2, 2)


class TestOneSystemHeld:
    """Each oracle cache holds its latest key alone and drops it before
    building another, so two systems' arrays never coexist."""

    CFG, A, B = FockConfig(12, 12, tail_tol=1e-2), linear_system(g=0.2), linear_system(g=0.3)
    CACHES = (eigensystem, _heat_kernel, fock._state_at, fock._thermal_sums)

    def test_the_last_system_is_freed_before_the_next_is_built(self, monkeypatch):
        clear_oracle_caches()
        heat_series_numeric(self.A, PREP, self.CFG, [0.5, 1.0])
        y_plus = weakref.ref(eigensystem(self.A, self.CFG)[0][2])
        kernel = weakref.ref(_heat_kernel(self.A, PREP, self.CFG)[0][0][1][0][2][0][2])  # one panel of one block
        alive, eigh_sectors = [], fock._eigh_sectors
        monkeypatch.setattr(fock, "_eigh_sectors", lambda parts: alive.append((y_plus() is None, kernel() is None)) or eigh_sectors(parts))
        heat_series_numeric(self.B, PREP, self.CFG, [0.5, 1.0])
        assert alive == [(True, True)]  # both dead before B's eigh
        heat_series_numeric(self.A, PREP, self.CFG, [0.5, 1.0])  # going back to A builds it again
        assert len(alive) == 2
        assert [(cache.cache_info().misses, cache.cache_info().currsize) for cache in self.CACHES[:2]] == [(3, 1)] * 2

    def test_every_cache_holds_one_entry(self):
        clear_oracle_caches()
        for sys_ in (self.A, self.B):
            entropy_production(1.7, sys_, PREP, self.CFG)
            jensen_bound(1.7, sys_, PREP, self.CFG)
            heat_changes_numeric(sys_, PREP, self.CFG, 1.7)
        assert [cache.cache_info().currsize for cache in self.CACHES] == [1] * 4


class TestEvenGridSeries:
    """On an even grid a series takes libm's phases for its first block of
    times alone and turns each later block from the one before."""

    CFG = FockConfig(12, 12, tail_tol=1e-2)

    @pytest.mark.parametrize("sys_", [linear_system(g=0.2), OscillatorSystem(1.0, 1.0, InteractionKind.MINIMAL_A, m=1.3, q=0.3)],
                             ids=["linear", "minimal-a"])
    def test_long_series_matches_the_per_time_libm_route(self, monkeypatch, sys_):
        times = np.linspace(0.0, 40.0, 2000)
        heat_series_numeric(sys_, PREP, self.CFG, times[:1])  # the kernel, before the phases are counted
        phases = counted(monkeypatch, "_phases")
        series = heat_series_numeric(sys_, PREP, self.CFG, times)
        # per stack: one block, the last time (its overflow check) and the turn
        assert sum(np.broadcast(*args).size for args in phases) == (_SERIES_BLOCK + 2) * self.CFG.dim
        for got, t in zip(series, times, strict=True):
            want = heat_changes_numeric(sys_, PREP, self.CFG, t)
            for x, y in ((got.dq_a, want.dq_a), (got.dq_b, want.dq_b), (got.dq_ab, want.dq_ab)):
                assert abs(x - y) <= 4e-15 * max(1.0, abs(y)), t

    def test_a_nudged_grid_takes_libm_bit_for_bit(self):
        # one time 1e-9 off the grid makes it uneven, so each block takes
        # libm's phases exactly as a call on that block alone does
        sys_, times = linear_system(g=0.2), np.linspace(0.0, 40.0, 300)
        times[150] += 1e-9
        blocks = [heat_series_numeric(sys_, PREP, self.CFG, times[start : start + _SERIES_BLOCK])
                  for start in range(0, len(times), _SERIES_BLOCK)]
        assert bits(heat_series_numeric(sys_, PREP, self.CFG, times)) == bits([r for block in blocks for r in block])

    def test_an_even_grid_still_raises_where_e_t_overflows(self):
        # the first block stays finite (E t up to 0.8 of the float maximum);
        # the later one overflows, which turned phases alone would not show
        sys_, cfg = linear_system(g=0.2), FockConfig(8, 8, tail_tol=0.1)
        e_max = max(np.abs(energies).max() for _, energies, *_ in eigensystem(sys_, cfg))
        t_end = np.finfo(float).max / e_max * 1.25
        with pytest.raises(ModelError, match="overflows"):
            heat_series_numeric(sys_, ThermalPreparation(1.0, 2.0), cfg, np.linspace(0.0, t_end, 200))
