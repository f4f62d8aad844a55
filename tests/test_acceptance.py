"""Acceptance gate: the package's headline claims, one numbered criterion each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per checked clause.

Criterion 4's small-window clause is implemented exactly as stated and is
expected to fail: on resonance the mode-symmetric couplings factorize the
transfer as dQ_ab(t) = omega (X_a - X_b) K(t) with K temperature-independent
and K(t) = 2 g^2 t^2 + O(t^4) >= 0 well past t = 3/omega for every g < omega/2
(first sign change near t ~ 4.5/omega at g = 0.49), so its running average is
strictly positive on (0, 3/omega] at every temperature pair.  The clause is
kept red rather than weakened.
"""

import math

import numpy as np
import pytest

from qsubthermo import (
    FockConfig,
    InteractionKind,
    OscillatorSystem,
    ThermalPreparation,
    decomposition_audit,
    diagonal_split,
    effective_hamiltonian,
    entropy_production,
    heat_changes_numeric,
    heat_series_numeric,
    heat_transfer,
    jarzynski_identity,
    propagator_coefficients,
    spectrum_match,
    thermal_occupation,
    time_averaged_heat,
    true_heat_transfer_identity,
)
from qsubthermo.fock import _heat_kernel, eigensystem

OMEGA = 1.0
PREP_COOL = ThermalPreparation(0.5, 1.0)
PREP_FIG = ThermalPreparation.from_temperatures(100.0, 50.0)
CFG40 = FockConfig(40, 40, tail_tol=1e-8)
COUPLINGS = (0.05, 0.3, 0.49, 0.51)
PREPS = (
    ThermalPreparation(0.5, 1.0),
    ThermalPreparation(1.0, 0.5),
    ThermalPreparation(1.0, 1.0),
)


def check(ok: bool, label: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, label


def rwa(g: float) -> OscillatorSystem:
    return OscillatorSystem(OMEGA, OMEGA, InteractionKind.RWA, g=g)


def linear(g: float) -> OscillatorSystem:
    return OscillatorSystem(OMEGA, OMEGA, InteractionKind.LINEAR, g=g)


def drop_caches() -> None:
    eigensystem.cache_clear()
    _heat_kernel.cache_clear()


def test_criterion_01_rwa_closed_form_and_oracle():
    sys_ = rwa(0.1)
    x_a = thermal_occupation(PREP_COOL.beta_a, OMEGA)
    x_b = thermal_occupation(PREP_COOL.beta_b, OMEGA)
    times = np.linspace(0.0, 40.0, 161)
    worst_formula = max(
        abs(heat_transfer(float(t), sys_, PREP_COOL).dq_ab - 2.0 * OMEGA * (x_a - x_b) * math.sin(0.1 * t) ** 2)
        for t in times
    )
    check(worst_formula < 1e-12, f"1. analytic transfer equals the swap closed form ({worst_formula:.1e})")
    oracle = heat_series_numeric(sys_, PREP_COOL, CFG40, [float(t) for t in times])
    worst_oracle = max(
        abs(rep.dq_ab - heat_transfer(rep.t, sys_, PREP_COOL).dq_ab) / max(1.0, abs(rep.dq_ab))
        for rep in oracle
    )
    check(worst_oracle < 1e-6, f"1. oracle at 40 levels/mode agrees to 1e-6 relative ({worst_oracle:.1e})")


def test_criterion_02_rwa_sign_compliance_and_mirror():
    sys_ = rwa(0.1)
    times = np.linspace(0.0, 50.0, 1000)
    hot_a = [heat_transfer(float(t), sys_, PREP_FIG) for t in times]
    hot_b = [heat_transfer(float(t), sys_, PREP_FIG.swapped()) for t in times]
    check(min(r.dq_ab for r in hot_a) >= -1e-12, "2. hot-a transfer is positive semi-definite")
    check(max(r.dq_ab for r in hot_b) <= 1e-12, "2. hot-b transfer is negative semi-definite")
    mirror = max(abs(r.dq_a + r.dq_b) for r in hot_a)
    check(mirror < 1e-12, f"2. bare-energy conservation mirrors the curves ({mirror:.1e})")


def test_criterion_03_csl_violation_outside_rwa():
    sys_ = linear(0.49)
    times = np.linspace(0.0, 50.0, 2000)
    least = min(heat_transfer(float(t), sys_, PREP_FIG).dq_ab for t in times)
    check(least < -1e-6, f"3. wrong-sign transfer appears despite hot-a ({least:.3g})")


def test_criterion_04a_transient_violation_below_threshold():
    # Implemented as stated; red by model structure (see module docstring).
    sys_ = linear(0.49)
    taus = np.arange(0.25, 3.0, 0.25)
    averages = [time_averaged_heat(sys_, PREP_FIG, float(tau)) for tau in taus]
    check(
        min(averages) < -1e-9,
        f"4a. averaged transfer dips negative before 3/omega (min {min(averages):.3g})",
    )


def test_criterion_04b_averages_compliant_beyond_threshold():
    sys_ = linear(0.49)
    taus = np.linspace(3.0, 50.0, 48)
    least = min(time_averaged_heat(sys_, PREP_FIG, float(tau)) for tau in taus)
    check(least >= -1e-9, f"4b. averaged transfer compliant on [3, 50]/omega (min {least:.3g})")


def test_criterion_05_persistent_violation_in_strong_coupling():
    sys_ = linear(0.51)
    taus = np.linspace(3.0, 50.0, 48)
    least = min(time_averaged_heat(sys_, PREP_FIG, float(tau)) for tau in taus)
    check(least < -1e-6, f"5. strong coupling keeps averaged violations alive ({least:.3g})")


def test_criterion_06_free_entropy_second_law():
    times = [float(t) for t in np.linspace(0.0, 20.0, 200)]
    worst_analytic = math.inf
    for kind in (InteractionKind.RWA, InteractionKind.LINEAR):
        for g in COUPLINGS:
            sys_ = OscillatorSystem(OMEGA, OMEGA, kind, g=g)
            for prep in PREPS:
                worst_analytic = min(
                    worst_analytic,
                    min(heat_transfer(t, sys_, prep).ds0 for t in times),
                )
    check(worst_analytic >= -1e-9, f"6. analytic free entropy change stays >= 0 ({worst_analytic:.2e})")

    # The truncated model is itself a closed quantum system prepared in exact
    # Gibbs states of its truncated bare Hamiltonians, so the inequality must
    # hold at any cutoff; 32 levels/mode keeps this affordable.
    cfg = FockConfig(32, 32, tail_tol=1e-6)
    worst_oracle = math.inf
    for kind in (InteractionKind.RWA, InteractionKind.LINEAR):
        for g in COUPLINGS:
            sys_ = OscillatorSystem(OMEGA, OMEGA, kind, g=g)
            for prep in PREPS:
                worst_oracle = min(
                    worst_oracle,
                    min(rep.ds0 for rep in heat_series_numeric(sys_, prep, cfg, times)),
                )
            drop_caches()
    check(worst_oracle >= -1e-9, f"6. oracle free entropy change stays >= 0 ({worst_oracle:.2e})")


def test_criterion_07_jarzynski_identity():
    for sys_, tol, label in ((rwa(0.1), 1e-6, "rwa"), (linear(0.3), 1e-4, "linear")):
        worst = max(abs(jarzynski_identity(t, sys_, PREP_COOL, CFG40) - 1.0) for t in (1.0, 5.0, 10.0))
        check(worst < tol, f"7. exponential average equals 1 for {label} ({worst:.1e})")
    drop_caches()


def test_criterion_08_commutator_audit():
    cfg = FockConfig(16, 16)
    safe = decomposition_audit(rwa(0.1), cfg)
    check(
        max(safe.norm_h0v, safe.norm_hv, safe.norm_h0h) < 1e-10 and safe.csl_safe,
        "8. rwa commutators vanish",
    )
    unsafe = decomposition_audit(linear(0.1), cfg)
    spread = max(
        abs(unsafe.norm_h0v - unsafe.norm_hv), abs(unsafe.norm_h0v - unsafe.norm_h0h)
    )
    check(
        unsafe.norm_h0v > 0.01 and spread < 1e-10 and not unsafe.csl_safe,
        f"8. linear commutators agree pairwise and exceed 0.01 ({unsafe.norm_h0v:.3f})",
    )


def test_criterion_09_effective_hamiltonian_vanishes():
    for sys_, label in ((linear(0.3), "linear"), (rwa(0.1), "rwa")):
        worst = max(
            np.linalg.norm(effective_hamiltonian(t, sys_, PREP_COOL, CFG40), ord=2)
            for t in (0.0, 1.0, 5.0)
        )
        check(worst < 1e-8, f"9. effective mode-a Hamiltonian vanishes for {label} ({worst:.1e})")
    drop_caches()

    kappa = 0.2
    cfg = FockConfig(8, 48, tail_tol=2e-2)
    number_a = np.diag(np.arange(cfg.n_a)).astype(complex)
    number_b = np.diag(np.arange(cfg.n_b)).astype(complex)
    uncoupled = OscillatorSystem(OMEGA, OMEGA, InteractionKind.NONE)
    h_eff = effective_hamiltonian(
        0.0, uncoupled, PREP_COOL, cfg, interaction=kappa * np.kron(number_a, number_b)
    )
    expected = kappa * thermal_occupation(PREP_COOL.beta_b, OMEGA) * number_a
    residual = float(np.abs(h_eff - expected).max())
    check(residual < 1e-8, f"9. diagonal coupling leaves kappa X_b a^dag a ({residual:.1e})")
    diag, rest = diagonal_split(h_eff)
    check(
        float(np.abs(rest).max()) < 1e-12 and np.allclose(diag, h_eff),
        "9. that effective Hamiltonian is purely diagonal",
    )


def test_criterion_10_nonstandard_subsystem_energies():
    pair_kw = dict(m=1.0, q=0.2)
    sys_a = OscillatorSystem(OMEGA, OMEGA, InteractionKind.MINIMAL_A, **pair_kw)
    sys_b = OscillatorSystem(OMEGA, OMEGA, InteractionKind.MINIMAL_B, **pair_kw)
    gap = spectrum_match(sys_a, sys_b, CFG40, 10)
    check(gap < 1e-6, f"10. the two minimal couplings share their low spectrum ({gap:.1e})")
    drop_caches()

    result = true_heat_transfer_identity(2.0, linear(0.3), PREP_COOL, CFG40)
    residual = abs(result.dq_ab_true - result.dq_ab)
    check(residual < 1e-10, f"10. interaction-absorbing energies move the same heat ({residual:.1e})")

    split = entropy_production(3.0, linear(0.3), PREP_COOL, CFG40)
    residual = abs(split.ds_a - (split.ds_i_a + split.ds_e_a))
    check(residual < 1e-8, f"10. entropy change = production + flux ({residual:.1e})")
    drop_caches()


def test_criterion_11_propagator_invariants():
    times = np.linspace(0.0, 20.0, 200)
    worst = 0.0
    for kind in (InteractionKind.RWA, InteractionKind.LINEAR):
        for g in COUPLINGS:
            sys_ = OscillatorSystem(OMEGA, OMEGA, kind, g=g)
            for t in times:
                worst = max(worst, max(propagator_coefficients(sys_, float(t)).commutator_defects()))
    check(worst < 1e-10, f"11. commutator preservation across the grid ({worst:.1e})")
