import math

import pytest

from qsubthermo import (
    FockConfig,
    InteractionKind,
    ModelError,
    OscillatorSystem,
    ThermalPreparation,
    csl_compliant,
    heat_series_numeric,
    heat_transfer,
    spectrum_match,
)
from qsubthermo.fock import thermal_weights


def test_system_rejects_nonpositive_frequencies():
    with pytest.raises(ModelError):
        OscillatorSystem(0.0, 1.0, InteractionKind.NONE)
    with pytest.raises(ModelError):
        OscillatorSystem(1.0, -2.0, InteractionKind.NONE)


def test_system_rejects_negative_coupling():
    with pytest.raises(ModelError):
        OscillatorSystem(1.0, 1.0, InteractionKind.RWA, g=-0.1)


def test_minimal_kinds_carry_mass_and_charge_instead_of_g():
    sys_ = OscillatorSystem(1.0, 1.0, InteractionKind.MINIMAL_A, m=1.0, q=0.2)
    assert sys_.mass() == 1.0
    with pytest.raises(ModelError):
        OscillatorSystem(1.0, 1.0, InteractionKind.MINIMAL_A)
    with pytest.raises(ModelError):
        OscillatorSystem(1.0, 1.0, InteractionKind.MINIMAL_B, m=1.0, q=0.2, g=0.3)
    with pytest.raises(ModelError):
        OscillatorSystem(1.0, 1.0, InteractionKind.LINEAR, g=0.3, m=1.0, q=0.2)


def test_preparation_requires_finite_positive_temperatures():
    with pytest.raises(ModelError):
        ThermalPreparation(0.0, 1.0)
    with pytest.raises(ModelError):
        ThermalPreparation(1.0, -1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_system_rejects_non_finite_parameters(bad):
    for kwargs in (
        dict(omega_a=bad, omega_b=1.0),
        dict(omega_a=1.0, omega_b=bad),
        dict(omega_a=1.0, omega_b=1.0, kind=InteractionKind.LINEAR, g=bad),
        dict(omega_a=1.0, omega_b=1.0, kind=InteractionKind.MINIMAL_A, m=bad, q=0.2),
        dict(omega_a=1.0, omega_b=1.0, kind=InteractionKind.MINIMAL_B, m=1.0, q=bad),
    ):
        with pytest.raises(ModelError, match="finite"):
            OscillatorSystem(**kwargs)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_preparation_rejects_non_finite_betas(bad):
    with pytest.raises(ModelError):
        ThermalPreparation(bad, 1.0)
    with pytest.raises(ModelError):
        ThermalPreparation(1.0, bad)


def test_temperature_constructor_and_swap():
    prep = ThermalPreparation.from_temperatures(100.0, 50.0)
    assert prep.beta_a == pytest.approx(0.01)
    assert prep.beta_b == pytest.approx(0.02)
    flipped = prep.swapped()
    assert (flipped.beta_a, flipped.beta_b) == (prep.beta_b, prep.beta_a)


@pytest.mark.parametrize(
    "dq_ab,beta_a,beta_b,expected",
    [
        (0.5, 0.01, 0.02, True),    # hot a, heat flows a -> b
        (-0.5, 0.01, 0.02, False),  # hot a, heat flows b -> a: violation
        (-0.5, 0.02, 0.01, True),   # hot b, heat flows b -> a
        (0.0, 0.01, 0.02, True),    # zero transfer is never a violation
        (1e-15, 0.02, 0.01, True),  # sub-tolerance noise
        (0.4, 0.01, 0.02, True),
        (-0.4, 0.01, 0.02, False),
        (0.0, 0.02, 0.01, True),
        (5e-13, 0.02, 0.01, True),  # within the 1e-12 tolerance of zero
        (0.3, 0.7, 0.7, False),     # equal temperatures: measurable transfer either way is wrong
        (1e-14, 0.7, 0.7, True),
    ],
)
def test_csl_compliance_sign_rule(dq_ab, beta_a, beta_b, expected):
    prep = ThermalPreparation(beta_a, beta_b)
    assert csl_compliant(dq_ab, prep, omega=1.0) is expected


LINEAR = OscillatorSystem(1.0, 1.0, InteractionKind.LINEAR, g=0.2)
MINIMAL_A = OscillatorSystem(1.0, 1.0, InteractionKind.MINIMAL_A, m=1.0, q=0.2)
REFUSALS = {
    "negative-charge": (
        lambda: OscillatorSystem(1.0, 1.0, InteractionKind.MINIMAL_A, m=1.0, q=-0.1),
        "kind=minimal-a requires a coupling q >= 0",
    ),
    # a string kind constructed, then failed deep in either route, and a
    # minimal one skipped the (m, q) checks altogether
    "string-kind": (lambda: OscillatorSystem(1.0, 1.0, "rwa", g=0.1), "kind must be an InteractionKind, got 'rwa'"),
    "string-minimal-kind": (
        lambda: OscillatorSystem(1.0, 1.0, "minimal-a"),
        "kind must be an InteractionKind, got 'minimal-a'",
    ),
    "none-with-coupling": (lambda: OscillatorSystem(1.0, 1.0, InteractionKind.NONE, g=0.3), "kind=none requires g == 0"),
    "zero-temperature": (lambda: ThermalPreparation.from_temperatures(0.0, 1.0), "temperatures must be positive"),
    "zero-beta-thermal-state": (lambda: thermal_weights(0.0, 1.0, 4), "thermal state needs beta > 0 and omega > 0"),
    "scalar-series-time": (
        lambda: heat_series_numeric(LINEAR, ThermalPreparation(1.0, 2.0), FockConfig(4, 4, tail_tol=0.5), 1.0),
        "evaluation times must be a one-dimensional sequence",
    ),
    "spectrum-match-of-linear": (
        lambda: spectrum_match(LINEAR, LINEAR, FockConfig(4, 4), 1),
        "spectrum_match compares kind=minimal-a against kind=minimal-b",
    ),
    "closed-form-of-minimal": (
        lambda: heat_transfer(1.0, MINIMAL_A, ThermalPreparation(1.0, 2.0)),
        "no closed-form propagator for kind=minimal-a; use the Fock oracle",
    ),
}


@pytest.mark.parametrize("call,message", REFUSALS.values(), ids=REFUSALS.keys())
def test_refusals_name_their_rule(call, message):
    # each refusal is a ModelError whose message says which rule the input broke
    with pytest.raises(ModelError) as refused:
        call()
    assert type(refused.value) is ModelError
    assert str(refused.value) == message
