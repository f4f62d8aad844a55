"""Property tests of the closed forms over random resonant systems, preparations and times.

Draws are derandomized, so every run checks the same examples.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qsubthermo import (
    InteractionKind,
    OscillatorSystem,
    ThermalPreparation,
    heat_transfer,
    propagator_coefficients,
)
from qsubthermo.analytic import _TERMS, _table

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


# scan_violations calls a violation persistent exactly when some exponent of the
# table has Re mu > 0.  The two tests below pin why that is the long-time
# average's verdict, on every coupled kind with a table: a kind that breaks
# either one needs the general rule, which reads the sign of the secular or the
# leading terms of K - 1 instead.
TABLED = [kind for kind in _TERMS if kind is not InteractionKind.NONE]


@st.composite
def tabled_systems(draw):
    omega, ratio = draw(st.floats(0.25, 4.0)), draw(st.floats(1e-6, 3.0))
    assume(2.0 * ratio * omega != omega)  # the static soft mode has no table
    return OscillatorSystem(omega, omega, draw(st.sampled_from(TABLED)), g=ratio * omega)


def k_minus_1_terms(sys_):
    """Re mu of the table, and the exponents mu_j + conj(mu_k) and coefficients F_jk of K - 1."""
    mu, _, forms = _table(sys_)
    return mu.real, mu[:, None] + mu.conj(), forms[8]


@PROPERTY
@given(tabled_systems())
def test_a_stable_table_has_no_secular_part_in_k_minus_1(sys_):
    # secular terms, exactly: the exponents that are 0.0 as floats.  They are
    # the diagonal, and their F sums to 0, so the long-time average of dQ_ab is
    # omega_a (X_a - X_b), which keeps the Clausius sign
    growth, z, f = k_minus_1_terms(sys_)
    assume(not (growth > 0.0).any())
    assert (growth == 0.0).all()
    assert np.array_equal(z == 0.0, np.eye(len(z), dtype=bool))
    assert f[z == 0.0].sum() == 0.0


@PROPERTY
@given(tabled_systems())
def test_an_unstable_tables_leading_terms_in_k_minus_1_oscillate(sys_):
    # the fastest-growing terms on which F is nonzero have Im != 0, so the
    # window average of dQ_ab changes sign without end
    growth, z, f = k_minus_1_terms(sys_)
    assume((growth > 0.0).any())
    live = f != 0.0
    fastest = z.real[live].max()
    assert fastest > 0.0
    assert (z.imag[live & (z.real == fastest)] != 0.0).all()
