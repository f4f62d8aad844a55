import math

import numpy as np
import pytest

from conftest import dense, linear_system, rwa_system
from qsubthermo import (
    Classification,
    FockConfig,
    build_hamiltonian,
    InteractionKind,
    ModelError,
    OscillatorSystem,
    SingularCouplingError,
    ThermalPreparation,
    decomposition_audit,
    heat_transfer,
    scan_violations,
)

HOT_A = ThermalPreparation.from_temperatures(100.0, 50.0)


class TestScanViolations:
    def test_rwa_is_clean(self):
        profile = scan_violations(rwa_system(g=0.2), HOT_A, t_max=40.0, n_samples=400)
        assert profile.classification is Classification.NONE
        assert profile.violations == ()

    def test_linear_just_below_critical_is_transient(self):
        profile = scan_violations(linear_system(g=0.49), HOT_A, t_max=50.0, n_samples=512)
        assert profile.violations
        assert profile.classification is Classification.TRANSIENT

    def test_linear_above_critical_is_persistent(self):
        profile = scan_violations(linear_system(g=0.51), HOT_A, t_max=50.0, n_samples=512)
        assert profile.violations
        assert profile.classification is Classification.PERSISTENT

    @pytest.mark.parametrize("g", [0.500001, 0.5001, 0.502])
    def test_linear_just_above_critical_is_persistent(self, g):
        # the flow grows here more slowly than a 50/omega window shows: at g = 0.5001
        # the window average is +32 at tau = 50, -622 at 500 and -2.9e29 at 5000
        profile = scan_violations(linear_system(g=g), ThermalPreparation(0.01, 0.015), t_max=50.0, n_samples=512)
        assert profile.violations
        assert profile.classification is Classification.PERSISTENT

    def test_fig3_regime_produces_violations(self):
        # the pointwise verdicts the scan reads
        verdicts = heat_transfer(np.linspace(0.0, 50.0, 600), linear_system(g=0.49), HOT_A).csl_ok
        assert not verdicts.all()
        assert verdicts.any()

    def test_grid_validation(self):
        with pytest.raises(ModelError):
            scan_violations(rwa_system(), HOT_A, t_max=0.0, n_samples=64)
        with pytest.raises(ModelError):
            scan_violations(rwa_system(), HOT_A, t_max=10.0, n_samples=8)
        with pytest.raises(ModelError):
            scan_violations(rwa_system(), HOT_A, t_max=float("nan"), n_samples=64)

    @pytest.mark.parametrize("n_samples", [16.5, "20", None, True], ids=repr)
    def test_sample_count_must_be_an_integer(self, n_samples):
        # 16.5, "20" and None ended in a TypeError; True counted as one sample
        with pytest.raises(ModelError, match="n_samples must be an integer"):
            scan_violations(rwa_system(), HOT_A, t_max=10.0, n_samples=n_samples)
        assert scan_violations(rwa_system(), HOT_A, t_max=10.0, n_samples=np.int64(16)).classification

    def test_singular_coupling_propagates(self):
        with pytest.raises(SingularCouplingError):
            scan_violations(linear_system(g=0.5), HOT_A, t_max=10.0, n_samples=64)


class TestDecompositionAudit:
    def test_rwa_is_safe(self, cfg_small):
        audit = decomposition_audit(rwa_system(), cfg_small)
        assert audit.csl_safe
        assert max(audit.norm_h0v, audit.norm_hv, audit.norm_h0h) < 1e-10

    def test_linear_is_not_safe(self, cfg_small):
        audit = decomposition_audit(linear_system(g=0.1), cfg_small)
        assert not audit.csl_safe
        assert audit.norm_h0v > 0.01
        assert audit.norm_h0v == pytest.approx(audit.norm_hv, abs=1e-10)
        assert audit.norm_h0v == pytest.approx(audit.norm_h0h, abs=1e-10)

    def test_a_weak_linear_coupling_is_not_safe(self):
        # g = 1e-8 at 8 levels audits to 7.9e-7: COMMUTATOR_TOL must sit below it
        audit = decomposition_audit(linear_system(g=1e-8), FockConfig(8, 8))
        assert 7e-7 < audit.norm_h0v < 9e-7
        assert not audit.csl_safe

    def test_uncoupled_is_trivially_safe(self, cfg_small):
        audit = decomposition_audit(OscillatorSystem(1.0, 1.0, InteractionKind.NONE), cfg_small)
        assert audit.csl_safe
        assert audit.norm_h0v == 0.0


    @pytest.mark.parametrize("sys_", [
        rwa_system(g=0.3),
        linear_system(g=0.3),
        OscillatorSystem(1.0, 1.0, InteractionKind.MINIMAL_A, m=1.3, q=0.37),
        OscillatorSystem(1.0, 1.0, InteractionKind.MINIMAL_B, m=0.6, q=0.2),
    ])
    def test_norms_match_dense_commutators(self, sys_, cfg_small):
        parts = build_hamiltonian(sys_, cfg_small)
        d = parts.d_a + parts.d_b
        h, h0, v = dense(parts), np.diag(d), dense(parts, -d)

        def commutator_norm(x, y):
            return float(np.linalg.norm(x @ y - y @ x))

        audit = decomposition_audit(sys_, cfg_small)
        for got, (x, y) in zip(
            (audit.norm_h0v, audit.norm_hv, audit.norm_h0h),
            ((h0, v), (h, v), (h0, h)),
        ):
            assert got == pytest.approx(commutator_norm(x, y), rel=1e-12, abs=1e-10)

    @pytest.mark.parametrize("sys_", [
        rwa_system(g=0.3),
        linear_system(g=0.3),
        OscillatorSystem(1.0, 1.0, InteractionKind.NONE),
        OscillatorSystem(1.0, 1.0, InteractionKind.MINIMAL_A, m=1.3, q=0.37),
        OscillatorSystem(1.0, 1.0, InteractionKind.MINIMAL_B, m=0.6, q=0.2),
    ], ids=lambda sys_: sys_.kind.value)
    def test_norm_is_the_root_of_the_exact_sum_of_squares(self, sys_):
        # the audit sums |v|^2 elementwise, not through np.linalg.norm's BLAS
        # dot; math.fsum rounds the sum once.  The rwa and linear edges are
        # imaginary, so a sum of the real parts alone reads 0 on linear
        cfg = FockConfig(40, 40)
        parts = build_hamiltonian(sys_, cfg)
        d = parts.d_a + parts.d_b
        v = ((d[parts.rows] - d[parts.cols]) * parts.vals).tolist()
        exact = math.sqrt(math.fsum(part * part for x in v for part in (x.real, x.imag)))
        assert decomposition_audit(sys_, cfg).norm_h0v == pytest.approx(exact, rel=1e-13, abs=0.0)

    def test_rwa_bare_commutators_vanish_exactly(self, cfg_small):
        audit = decomposition_audit(rwa_system(g=0.3), cfg_small)
        assert audit.norm_h0v == 0.0 and audit.norm_h0h == 0.0


def test_safe_decomposition_implies_compliance(cfg_small):
    # the sufficiency direction: wherever the audit reports safe, every
    # scanned verdict is compliant
    preps = [HOT_A, HOT_A.swapped(), ThermalPreparation(0.5, 1.0)]
    for g in (0.05, 0.2, 0.45):
        sys_ = rwa_system(g=g)
        assert decomposition_audit(sys_, cfg_small).csl_safe
        for prep in preps:
            profile = scan_violations(sys_, prep, t_max=30.0, n_samples=300)
            assert profile.classification is Classification.NONE, (g, prep)
