"""The exchange coupling off resonance, where the closed forms stop: the oracle
against the Rabi formula, and the Clausius verdicts and the audit it implies.

The RWA coupling conserves N_a + N_b, so each quantum moves between the modes
as a two-level Rabi oscillation at Omega = sqrt(g^2 + (omega_a - omega_b)^2 / 4).
From product thermal states with occupations X_a and X_b, the mean number
moved from a to b is (g / Omega)^2 sin^2(Omega t) (X_a - X_b), and each moved
quantum takes omega_a from a and gives omega_b to b, so
dQ_ab = (omega_a + omega_b) (g / Omega)^2 sin^2(Omega t) (X_a - X_b).  Heat
therefore flows towards the mode with fewer quanta, which off resonance need
not be the hotter one.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qsubthermo import (
    FockConfig,
    InteractionKind,
    OscillatorSystem,
    ThermalPreparation,
    classical_average,
    decomposition_audit,
    entropy_production,
    heat_changes_numeric,
    heat_series_numeric,
    jarzynski_identity,
    jensen_bound,
    thermal_occupation,
    true_heat_transfer_identity,
)

# Off resonance with mode a colder but holding more quanta; the identities
# below hold for either coupling, so the LINEAR one runs too.
PREP = ThermalPreparation(1.5, 1.0)
DETUNED = {
    "rwa": OscillatorSystem(0.6, 1.0, InteractionKind.RWA, g=0.1),
    "linear": OscillatorSystem(0.6, 1.0, InteractionKind.LINEAR, g=0.1),
}
TIMES = (0.0, 2.0, 7.5)


def rabi_frequency(sys_):
    return math.hypot(sys_.g, (sys_.omega_a - sys_.omega_b) / 2.0)


def quanta_moved(sys_, prep, times):
    """Mean number of quanta moved from mode a to mode b by time t."""
    gap = thermal_occupation(prep.beta_a, sys_.omega_a) - thermal_occupation(prep.beta_b, sys_.omega_b)
    return (sys_.g / rabi_frequency(sys_)) ** 2 * np.sin(rabi_frequency(sys_) * np.asarray(times)) ** 2 * gap


def test_oracle_follows_the_rabi_formula():
    # mode a is the colder one (beta_a * omega_a = 0.9 < beta_b * omega_b =
    # 1.0 still gives it more quanta), so heat runs from cold to hot at every
    # grid time but t = 0, and each heat is the quanta moved times its frequency
    sys_, prep = OscillatorSystem(0.6, 1.0, InteractionKind.RWA, g=0.1), ThermalPreparation(1.5, 1.0)
    times = np.linspace(0.0, 60.0, 1201)
    series = heat_series_numeric(sys_, prep, FockConfig.auto(sys_, prep), times)
    moved = quanta_moved(sys_, prep, times)
    for field, scale in (("dq_a", -sys_.omega_a), ("dq_b", sys_.omega_b), ("dq_ab", sys_.omega_a + sys_.omega_b)):
        assert np.abs(np.array([getattr(r, field) for r in series]) - scale * moved).max() < 1e-10, field
    assert [r.t for r in series if r.csl_ok] == [0.0]


def test_audit_measures_the_detuning():
    # [H0, V] = (omega_a - omega_b) times V up to the sign of each entry, and
    # ||V||_F = sqrt(2) g n (n - 1) / 2 on n levels per mode
    n, g = 24, 0.1
    detuned = decomposition_audit(OscillatorSystem(0.6, 1.0, InteractionKind.RWA, g=g), FockConfig(n, n))
    assert detuned.norm_h0v == pytest.approx(0.4 * math.sqrt(2.0) * g * n * (n - 1) / 2, rel=1e-12)
    assert not detuned.csl_safe
    resonant = decomposition_audit(OscillatorSystem(1.0, 1.0, InteractionKind.RWA, g=g), FockConfig(n, n))
    assert resonant.norm_h0v == 0.0 and resonant.csl_safe


@settings(derandomize=True, database=None, max_examples=20, deadline=None)
@given(st.floats(1.0, 3.0), st.floats(1.0, 3.0), st.floats(0.8, 2.0), st.floats(0.8, 2.0), st.floats(0.05, 0.5))
def test_verdict_is_the_sign_of_the_occupation_gap(beta_a, beta_b, omega_a, omega_b, g):
    # X_a > X_b exactly when beta_a omega_a < beta_b omega_b, so heat runs
    # from cold to hot at every t > 0 off the sine's zeros exactly when the
    # colder mode holds more quanta.  Equal temperatures (every transfer
    # wrong) and equal occupations (no transfer) are kept away from.
    assume(abs(beta_a - beta_b) > 0.05 and abs(beta_a * omega_a - beta_b * omega_b) > 0.05)
    sys_, prep = OscillatorSystem(omega_a, omega_b, InteractionKind.RWA, g=g), ThermalPreparation(beta_a, beta_b)
    times = np.array([0.0, 0.25, 0.5, 0.75, 1.25, 1.5, 1.75]) * math.pi / rabi_frequency(sys_)
    series = heat_series_numeric(sys_, prep, FockConfig.auto(sys_, prep, tail_tol=1e-10), times)
    # each truncated tail holds under 1e-10 of the population, and no kept
    # state carries 2 n omega_max = 116 of energy, so the cutoff moves dQ_ab by under 3e-8
    expected = (omega_a + omega_b) * quanta_moved(sys_, prep, times)
    assert np.abs(np.array([r.dq_ab for r in series]) - expected).max() < 1e-7
    violated = (beta_a - beta_b) * (beta_a * omega_a - beta_b * omega_b) < 0
    assert [r.csl_ok for r in series] == [True] + [not violated] * (len(times) - 1)


@settings(derandomize=True, database=None, max_examples=20, deadline=None)
@given(
    st.floats(0.5, 2.0),
    st.one_of(st.just(0.0), st.floats(-0.4, -0.05), st.floats(0.05, 1.0)),
    st.one_of(st.just(0.0), st.floats(0.05, 0.5)),
)
def test_audit_is_safe_exactly_on_resonance_or_uncoupled(omega_a, detuning, g):
    sys_ = OscillatorSystem(omega_a, omega_a + detuning, InteractionKind.RWA, g=g)
    assert decomposition_audit(sys_, FockConfig(12, 12)).csl_safe == (detuning == 0.0 or g == 0.0)


def test_classical_average_follows_the_rabi_formula():
    # the bare-basis transition probabilities are a route apart from the heat
    # kernel: their mean change of mode a's energy is -omega_a per moved quantum
    # (the same 1e-10 as the kernel route above: the cutoff holds 1e-12 of the tails)
    sys_ = DETUNED["rwa"]
    cfg = FockConfig.auto(sys_, PREP)
    for t in TIMES:
        got = classical_average(lambda ea0, eb0, ea1, eb1: ea1 - ea0 + 0 * (eb0 + eb1), t, sys_, PREP, cfg)
        assert abs(got + sys_.omega_a * quanta_moved(sys_, PREP, t)) < 1e-10, t


@pytest.mark.parametrize("sys_", DETUNED.values(), ids=DETUNED.keys())
def test_series_matches_single_time_calls(sys_):
    cfg = FockConfig.auto(sys_, PREP)
    series = heat_series_numeric(sys_, PREP, cfg, np.array(TIMES))
    for row, t in zip(series, TIMES):
        single = heat_changes_numeric(sys_, PREP, cfg, t)
        assert abs(row.dq_a - single.dq_a) < 1e-12 and abs(row.dq_b - single.dq_b) < 1e-12, t
        assert row.csl_ok == single.csl_ok


@pytest.mark.parametrize("sys_", DETUNED.values(), ids=DETUNED.keys())
def test_jarzynski_identity_off_resonance(sys_):
    # sum_ij w_j P_ij exp(beta . (E_j - E_i)) = 1 for any unitary from a
    # product Gibbs state, detuned or not
    cfg = FockConfig.auto(sys_, PREP)
    for t in TIMES:
        assert jarzynski_identity(t, sys_, PREP, cfg) == pytest.approx(1.0, abs=1e-12), t


@pytest.mark.parametrize("sys_", DETUNED.values(), ids=DETUNED.keys())
def test_jensen_bound_off_resonance(sys_):
    cfg = FockConfig.auto(sys_, PREP)
    for t in TIMES:
        lhs, rhs = jensen_bound(t, sys_, PREP, cfg)
        assert lhs <= rhs + 1e-12, t
    # heat moves at t > 0, so the entropy exponent is not constant and the bound is strict
    assert lhs < rhs - 1e-6


@pytest.mark.parametrize("sys_", DETUNED.values(), ids=DETUNED.keys())
def test_entropy_production_off_resonance(sys_):
    # Klein's inequality and the split dS_a = dS_i + dS_e hold whatever the
    # direction of the heat, and the flux is -beta_b dQ_b
    cfg = FockConfig.auto(sys_, PREP)
    for t in TIMES:
        result = entropy_production(t, sys_, PREP, cfg)
        assert result.ds_i_a >= -1e-12, t
        assert result.ds_a == pytest.approx(result.ds_i_a + result.ds_e_a, abs=1e-10), t
        dq_b = heat_changes_numeric(sys_, PREP, cfg, t).dq_b
        assert abs(result.ds_e_a + PREP.beta_b * dq_b) < 1e-12, t


@pytest.mark.parametrize("sys_", DETUNED.values(), ids=DETUNED.keys())
def test_true_heat_identity_off_resonance(sys_):
    # H - H_b and H - H_a differ from H_a and H_b by the same interaction, so
    # it cancels in dQ_ab also when the bare frequencies differ
    cfg = FockConfig.auto(sys_, PREP)
    for t in TIMES:
        result = true_heat_transfer_identity(t, sys_, PREP, cfg)
        assert result.dq_ab_true == pytest.approx(result.dq_ab, abs=1e-12), t
