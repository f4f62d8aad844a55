"""Property tests of the closed forms over random resonant systems, preparations and times.

Draws are derandomized, so every run checks the same examples.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from qsubthermo import (
    InteractionKind,
    OscillatorSystem,
    ThermalPreparation,
    heat_transfer,
    propagator_coefficients,
)

PROPERTY = settings(derandomize=True, database=None, max_examples=200, deadline=None)

BETAS = st.floats(0.1, 3.0)
PREPARATIONS = st.builds(ThermalPreparation, BETAS, BETAS)


def systems(kinds=(InteractionKind.RWA, InteractionKind.LINEAR)):
    return st.builds(
        lambda kind, g: OscillatorSystem(1.0, 1.0, kind, g=g), st.sampled_from(kinds), st.floats(0.0, 0.49)
    )


@PROPERTY
@given(systems(), PREPARATIONS, st.floats(0.0, 50.0))
def test_free_entropy_change_never_negative(sys_, prep, t):
    report = heat_transfer(t, sys_, prep)
    assert report.ds0 >= -1e-12 * max(1.0, abs(report.dq_a), abs(report.dq_b)), report


@PROPERTY
@given(systems([InteractionKind.RWA]), PREPARATIONS, st.floats(0.0, 50.0))
def test_exchange_coupling_obeys_the_sign_rule(sys_, prep, t):
    assert heat_transfer(t, sys_, prep).csl_ok


@PROPERTY
@given(systems(), PREPARATIONS, st.floats(0.0, 50.0))
def test_swapping_the_baths_negates_the_transfer_exactly(sys_, prep, t):
    assert heat_transfer(t, sys_, prep.swapped()).dq_ab == -heat_transfer(t, sys_, prep).dq_ab


@PROPERTY
@given(systems(), st.floats(0.0, 20.0))
def test_propagator_preserves_commutators(sys_, t):
    assert max(propagator_coefficients(sys_, t).commutator_defects()) < 1e-10
