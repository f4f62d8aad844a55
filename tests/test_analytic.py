import math

import numpy as np
import pytest

from conftest import linear_system, rwa_system
from qsubthermo import (
    InteractionKind,
    ModelError,
    OffResonanceError,
    OscillatorSystem,
    SingularCouplingError,
    ThermalPreparation,
    free_coefficients,
    heat_changes,
    heat_transfer,
    linear_coefficients,
    propagator_coefficients,
    rwa_coefficients,
    thermal_occupation,
    time_averaged_heat,
)

PREP = ThermalPreparation(0.5, 1.0)

# Couplings exercised by the propagator-invariant grid; 0.51 takes the
# complex-frequency branch.
COUPLING_GRID = [0.05, 0.1, 0.3, 0.49, 0.51]
TIME_GRID = [0.0, 0.3, 1.0, 2.7, 5.0, 11.0, 20.0]


class TestThermalOccupation:
    def test_unit_occupation_at_beta_ln2(self):
        assert thermal_occupation(math.log(2.0), 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_deep_ground_state_limit(self):
        assert thermal_occupation(20.0, 1.0) == pytest.approx(2.061153626686912e-09, rel=1e-13)

    def test_high_precision_fixture(self):
        # 1/(e^0.5 - 1) evaluated at 40 decimal digits
        assert thermal_occupation(0.5, 1.0) == pytest.approx(1.541494082536798284, rel=1e-15)

    def test_strictly_decreasing_in_beta_omega(self):
        values = [thermal_occupation(b, 1.0) for b in (0.1, 0.2, 0.5, 1.0, 3.0)]
        assert all(lo > hi for lo, hi in zip(values, values[1:]))

    @pytest.mark.parametrize("beta,omega", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -1.0)])
    def test_domain_errors(self, beta, omega):
        with pytest.raises(ModelError):
            thermal_occupation(beta, omega)


class TestRwaCoefficients:
    def test_identity_at_t0(self):
        c = rwa_coefficients(rwa_system(), 0.0)
        assert c.f_a == 1.0 and c.p_b == 1.0
        assert c.f_b == 0.0 and c.p_a == 0.0
        assert c.g_a == c.g_b == c.q_a == c.q_b == 0.0

    def test_full_swap_at_quarter_beat(self):
        g = 0.1
        t = math.pi / (2.0 * g)
        c = rwa_coefficients(rwa_system(g=g), t)
        assert abs(c.f_a) < 1e-12 and abs(c.p_b) < 1e-12
        assert abs(c.f_b) == pytest.approx(1.0, abs=1e-12)
        assert abs(c.p_a) == pytest.approx(1.0, abs=1e-12)

    def test_free_evolution_at_zero_coupling(self):
        t = 2.3
        c = rwa_coefficients(rwa_system(g=0.0), t)
        assert c.f_a == pytest.approx(np.exp(-1j * t), abs=1e-15)
        assert c.p_b == pytest.approx(np.exp(-1j * t), abs=1e-15)
        assert c.f_b == 0.0 and c.p_a == 0.0

    def test_rejects_off_resonance(self):
        with pytest.raises(OffResonanceError):
            rwa_coefficients(OscillatorSystem(1.0, 1.2, InteractionKind.RWA, g=0.1), 1.0)


class TestLinearCoefficients:
    def test_identity_at_t0(self):
        c = linear_coefficients(linear_system(), 0.0)
        assert c.f_a == pytest.approx(1.0, abs=1e-15)
        assert c.p_b == pytest.approx(1.0, abs=1e-15)
        for value in (c.g_a, c.f_b, c.g_b, c.p_a, c.q_a, c.q_b):
            assert abs(value) < 1e-15

    def test_decoupled_limit_is_free_evolution(self):
        t = 3.7
        c = linear_coefficients(linear_system(g=0.0), t)
        assert c.f_a == pytest.approx(np.exp(-1j * t), abs=1e-14)
        assert c.p_b == pytest.approx(np.exp(-1j * t), abs=1e-14)
        for value in (c.g_a, c.f_b, c.g_b, c.p_a, c.q_a, c.q_b):
            assert abs(value) < 1e-14

    def test_continuity_towards_zero_coupling(self):
        # pointwise convergence to the free propagator as g -> 0
        for t in (0.5, 2.0, 10.0):
            tiny = linear_coefficients(linear_system(g=1e-8), t)
            free = free_coefficients(OscillatorSystem(1.0, 1.0, InteractionKind.NONE), t)
            for name in ("f_a", "g_a", "f_b", "g_b", "p_a", "q_a", "p_b", "q_b"):
                assert abs(getattr(tiny, name) - getattr(free, name)) < 1e-6

    def test_singular_coupling_rejected(self):
        with pytest.raises(SingularCouplingError):
            linear_coefficients(linear_system(g=0.5), 1.0)

    def test_rejects_off_resonance(self):
        with pytest.raises(OffResonanceError):
            linear_coefficients(OscillatorSystem(1.0, 1.1, InteractionKind.LINEAR, g=0.1), 1.0)

    def test_small_time_expansion(self):
        # a(t) ~ a(1 - i w t) + g t (b^dag - b) to first order
        g, t = 0.3, 1e-5
        c = linear_coefficients(linear_system(g=g), t)
        assert c.f_b == pytest.approx(-g * t, abs=1e-9)
        assert c.g_b == pytest.approx(g * t, abs=1e-9)
        assert c.p_a == pytest.approx(g * t, abs=1e-9)
        assert c.q_a == pytest.approx(g * t, abs=1e-9)


@pytest.mark.parametrize("g", COUPLING_GRID)
@pytest.mark.parametrize("kind", [InteractionKind.RWA, InteractionKind.LINEAR])
def test_commutator_preservation_across_grid(kind, g):
    sys_ = OscillatorSystem(1.0, 1.0, kind, g=g)
    for t in TIME_GRID:
        defects = propagator_coefficients(sys_, t).commutator_defects()
        assert max(defects) < 1e-10, (kind, g, t, defects)


@pytest.mark.parametrize("kind", [InteractionKind.RWA, InteractionKind.LINEAR, InteractionKind.NONE])
@pytest.mark.parametrize("t", [math.nan, math.inf])
def test_non_finite_time_rejected(kind, t):
    sys_ = OscillatorSystem(1.0, 1.0, kind, g=0.0 if kind is InteractionKind.NONE else 0.3)
    with pytest.raises(ModelError, match="finite"):
        heat_transfer(t, sys_, PREP)


class TestHeatChanges:
    def test_rwa_closed_form(self):
        # dQ_ab = 2 w (X_a - X_b) sin^2(gt)
        sys_ = rwa_system(g=0.1)
        x_a = thermal_occupation(PREP.beta_a, 1.0)
        x_b = thermal_occupation(PREP.beta_b, 1.0)
        for t in np.linspace(0.0, 40.0, 101):
            report = heat_changes(rwa_coefficients(sys_, float(t)), PREP, sys_)
            expected = 2.0 * (x_a - x_b) * math.sin(0.1 * t) ** 2
            assert report.dq_ab == pytest.approx(expected, abs=1e-12)
            assert report.dq_a == pytest.approx(-report.dq_b, abs=1e-12)

    def test_rwa_equal_temperatures_transfer_vanishes(self):
        sys_ = rwa_system(g=0.2)
        prep = ThermalPreparation(0.7, 0.7)
        for t in (0.5, 3.0, 12.0):
            report = heat_transfer(t, sys_, prep)
            assert report.dq_ab == pytest.approx(0.0, abs=1e-14)
            assert report.csl_ok

    def test_report_wiring(self):
        report = heat_transfer(2.0, linear_system(), PREP)
        assert report.dq_ab == report.dq_b - report.dq_a
        assert report.ds0 == pytest.approx(
            PREP.beta_a * report.dq_a + PREP.beta_b * report.dq_b, abs=1e-15
        )

    @pytest.mark.parametrize("g", COUPLING_GRID)
    @pytest.mark.parametrize("kind", [InteractionKind.RWA, InteractionKind.LINEAR])
    @pytest.mark.parametrize(
        "prep",
        [ThermalPreparation(0.5, 1.0), ThermalPreparation(1.0, 0.5), ThermalPreparation(1.0, 1.0)],
    )
    def test_free_entropy_never_negative(self, kind, g, prep):
        sys_ = OscillatorSystem(1.0, 1.0, kind, g=g)
        for t in np.linspace(0.0, 20.0, 80):
            assert heat_transfer(float(t), sys_, prep).ds0 >= -1e-9

    def test_rwa_csl_sign_always_matches_temperature_gradient(self):
        for prep in (ThermalPreparation(0.5, 1.0), ThermalPreparation(1.0, 0.5)):
            direction = math.copysign(1.0, prep.beta_b - prep.beta_a)
            for t in np.linspace(0.0, 30.0, 200):
                dq_ab = heat_transfer(float(t), rwa_system(g=0.17), prep).dq_ab
                assert dq_ab * direction >= -1e-12

    def test_bath_swap_negates_transfer(self):
        # mode-symmetric couplings on resonance: swapping the baths mirrors the flow
        for kind in (InteractionKind.RWA, InteractionKind.LINEAR):
            sys_ = OscillatorSystem(1.0, 1.0, kind, g=0.3)
            for t in (0.5, 2.0, 7.0):
                fwd = heat_transfer(t, sys_, PREP).dq_ab
                rev = heat_transfer(t, sys_, PREP.swapped()).dq_ab
                assert fwd == pytest.approx(-rev, abs=1e-9)

    def test_strong_coupling_amplitude_grows(self):
        sys_ = linear_system(g=0.51)
        peaks = []
        for horizon in (5.0, 10.0, 20.0, 40.0):
            grid = np.linspace(0.0, horizon, 400)
            peaks.append(max(abs(heat_transfer(float(t), sys_, PREP).dq_ab) for t in grid))
        assert peaks == sorted(peaks)
        assert peaks[-1] > 10.0 * peaks[0]


class TestTimeAveragedHeat:
    def test_rwa_average_over_full_beat(self):
        # mean of 2 w (X_a - X_b) sin^2 over one period is w (X_a - X_b)
        g = 0.25
        sys_ = rwa_system(g=g)
        x_a = thermal_occupation(PREP.beta_a, 1.0)
        x_b = thermal_occupation(PREP.beta_b, 1.0)
        avg = time_averaged_heat(sys_, PREP, math.pi / g)
        assert avg == pytest.approx(x_a - x_b, rel=1e-7)

    def test_singular_coupling_rejected(self):
        with pytest.raises(SingularCouplingError):
            time_averaged_heat(linear_system(g=0.5), PREP, 10.0)

    def test_requires_positive_window(self):
        with pytest.raises(ModelError):
            time_averaged_heat(linear_system(), PREP, 0.0)

    @pytest.mark.parametrize("tau", [math.nan, math.inf])
    def test_rejects_non_finite_window(self, tau):
        with pytest.raises(ModelError):
            time_averaged_heat(linear_system(), PREP, tau)

    def test_matches_dense_trapezoid(self):
        sys_ = linear_system(g=0.45)
        tau = 8.0
        grid = np.linspace(0.0, tau, 20001)
        values = [heat_transfer(float(t), sys_, PREP).dq_ab for t in grid]
        reference = np.trapezoid(values, grid) / tau
        assert time_averaged_heat(sys_, PREP, tau) == pytest.approx(reference, rel=1e-6)
