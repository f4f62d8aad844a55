import csv
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qsubthermo
from qsubthermo import HeatReport, InteractionKind, OscillatorSystem, ThermalPreparation, cli, heat_transfer
from qsubthermo.cli import EXIT_SINGULAR, EXIT_TOLERANCE, EXIT_VALIDATION, main


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        rows = [row for row in csv.reader(handle) if not row[0].startswith("#")]
    return rows[0], rows[1:]


def read_footer(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    return [line for line in lines if line.startswith("#")]


def run_fresh(argv):
    """The CLI in a fresh interpreter, so stderr is exactly what a user sees,
    numpy warnings included."""
    src = str(Path(qsubthermo.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "qsubthermo.cli", *argv], capture_output=True, text=True, env=env)


class TestFigureCommand:
    def test_figure1_signs_and_mirror(self, tmp_path):
        out = tmp_path / "fig1.csv"
        assert main(["--out", str(out), "--samples", "400", "figure", "1"]) == 0
        header, rows = read_csv(out)
        assert header == ["t", "dQ_ab_hot_a", "dQ_ab_hot_b"]
        hot_a = np.array([float(r[1]) for r in rows])
        hot_b = np.array([float(r[2]) for r in rows])
        assert hot_a.min() >= -1e-12
        assert hot_b.max() <= 1e-12
        assert np.abs(hot_a + hot_b).max() < 1e-9

    def test_figure2_linear_curves_break_the_mirror(self, tmp_path):
        out = tmp_path / "fig2.csv"
        assert main(["--out", str(out), "--samples", "300", "figure", "2"]) == 0
        header, rows = read_csv(out)
        assert header[0] == "t" and len(header) == 5
        lin_hot_a = np.array([float(r[1]) for r in rows])
        lin_hot_b = np.array([float(r[2]) for r in rows])
        # outside the RWA oscillator a absorbs heat for both orderings
        assert lin_hot_a.max() > 0.0 and lin_hot_b.max() > 0.0

    def test_figure3_has_both_signs(self, tmp_path):
        out = tmp_path / "fig3.csv"
        assert main(["--out", str(out), "--samples", "500", "figure", "3"]) == 0
        header, rows = read_csv(out)
        assert header == ["t", "dQ_a", "dQ_b", "dQ_ab", "dS0", "csl_ok"]
        dq_ab = np.array([float(r[3]) for r in rows])
        assert dq_ab.max() > 1e-3 and dq_ab.min() < -1e-3
        assert {r[5] for r in rows} == {"0", "1"}

    def test_figure4_average_non_negative_past_threshold(self, tmp_path):
        out = tmp_path / "fig4.csv"
        assert main(["--out", str(out), "--samples", "100", "figure", "4"]) == 0
        header, rows = read_csv(out)
        assert header == ["tau", "avg_dQ_ab_linear", "avg_dQ_ab_rwa"]
        for row in rows:
            if float(row[0]) >= 3.0:
                assert float(row[1]) >= -1e-9

    def test_figure5_average_goes_negative(self, tmp_path):
        out = tmp_path / "fig5.csv"
        assert main(["--out", str(out), "--samples", "100", "figure", "5"]) == 0
        header, rows = read_csv(out)
        assert header == ["tau", "avg_dQ_ab"]
        values = [float(r[1]) for r in rows if float(r[0]) >= 3.0]
        assert min(values) < -1e-6

    def test_csv_round_trip_is_exact(self, tmp_path):
        out = tmp_path / "fig3.csv"
        assert main(["--out", str(out), "--samples", "50", "figure", "3"]) == 0
        _, rows = read_csv(out)
        sys_ = OscillatorSystem(1.0, 1.0, InteractionKind.LINEAR, g=0.49)
        prep = ThermalPreparation.from_temperatures(100.0, 50.0)
        for row in rows:
            report = heat_transfer(float(row[0]), sys_, prep)
            assert float(row[3]) == report.dq_ab  # bitwise: 17 significant digits

    def test_deterministic_output(self, tmp_path):
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (first, second):
            assert main(["--out", str(path), "--samples", "80", "figure", "4"]) == 0
        assert first.read_bytes() == second.read_bytes()


class TestCompareCommand:
    def test_rwa_agreement_within_tolerance(self, tmp_path):
        out = tmp_path / "cmp.csv"
        code = main(
            [
                "--out", str(out), "--kind", "rwa", "--g", "0.1",
                "--beta-a", "0.5", "--beta-b", "1.0",
                "--fock-n", "32", "--tail-tol", "1e-6",
                "--t-max", "10", "--samples", "21",
                "compare", "--tol", "1e-5",
            ]
        )
        assert code == 0
        header, rows = read_csv(out)
        assert header[0] == "t" and len(rows) == 21
        footer = read_footer(out)
        assert footer and footer[0].startswith("# max_relative_deviation,")
        assert float(footer[0].split(",")[1]) < 1e-5

    def test_uncoupled_system_has_flat_columns(self, tmp_path):
        out = tmp_path / "none.csv"
        code = main(
            [
                "--out", str(out), "--kind", "none",
                "--beta-a", "0.5", "--beta-b", "1.0",
                "--fock-n", "24", "--tail-tol", "1e-4",
                "--t-max", "5", "--samples", "11",
                "compare",
            ]
        )
        assert code == 0
        _, rows = read_csv(out)
        for row in rows:
            assert all(abs(float(v)) < 1e-12 for v in row[1:])

    def test_tolerance_breach_exit_code(self, tmp_path):
        out = tmp_path / "breach.csv"
        code = main(
            [
                "--out", str(out), "--kind", "linear", "--g", "0.3",
                "--beta-a", "0.5", "--beta-b", "1.0",
                "--fock-n", "12", "--tail-tol", "1e-1",
                "--t-max", "10", "--samples", "11",
                "compare", "--tol", "1e-10",
            ]
        )
        assert code == EXIT_TOLERANCE

    def test_infeasible_truncation_is_explained(self, capsys):
        code = main(
            [
                "--kind", "linear", "--g", "0.3",
                "--temp-a", "100", "--temp-b", "50",
                "compare",
            ]
        )
        assert code == EXIT_VALIDATION
        assert "minimal feasible" in capsys.readouterr().err

    def test_automatic_cutoffs_meet_the_default_gate(self, tmp_path):
        # the colder mode needs the hotter mode's cutoff once the coupling has
        # moved population across; per-mode cutoffs (28 x 14) breached 1e-6
        out = tmp_path / "auto.csv"
        code = main(["--out", str(out), "--kind", "rwa", "--beta-a", "1", "--beta-b", "2", "compare"])
        assert code == 0
        assert float(read_footer(out)[0].split(",")[1]) < 1e-9

    def test_automatic_cutoffs_at_the_hotter_preparation(self, tmp_path):
        # beta_a = 0.5 needs 56 levels per mode (dim 3136); the exchange
        # coupling splits that into sectors of at most 56 states
        out = tmp_path / "auto56.csv"
        code = main(["--out", str(out), "--kind", "rwa", "--beta-a", "0.5", "--beta-b", "1", "compare"])
        assert code == 0
        assert float(read_footer(out)[0].split(",")[1]) < 1e-9

    def test_bare_compare_runs_at_the_default_betas(self, tmp_path):
        # T = 100/50, the figure preset, needs 2764 levels per mode; without
        # temperature flags compare runs at beta = (1, 2) and 28 levels instead
        out = tmp_path / "bare.csv"
        assert main(["--out", str(out), "compare"]) == 0
        header, rows = read_csv(out)
        assert header[0] == "t" and len(rows) == 81
        assert float(read_footer(out)[0].split(",")[1]) < 1e-9

    def test_closed_form_overflow_is_one_error_line(self, tmp_path):
        proc = run_fresh(["--out", str(tmp_path / "x.csv"), "--kind", "linear", "--g", "0.9", "--t-max", "10000",
                          "--fock-n", "12", "--tail-tol", "1e-2", "--beta-a", "1", "--beta-b", "2", "compare"])
        assert proc.returncode == EXIT_VALIDATION
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("invalid configuration:"), proc.stderr

    def test_oracle_overflow_is_one_error_line(self, tmp_path):
        # the closed form is finite at t = 1e308 on resonance; the oracle's
        # phases E t overflow, which used to give an all-NaN series and exit 0
        proc = run_fresh(["--out", str(tmp_path / "x.csv"), "--kind", "rwa", "--g", "0.1", "--beta-a", "1",
                          "--beta-b", "2", "--t-max", "1e308", "--samples", "3", "compare"])
        assert proc.returncode == EXIT_VALIDATION
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("invalid configuration:"), proc.stderr

    def test_nan_deviation_fails_the_gate(self, tmp_path, monkeypatch):
        # NaN compares false against any tolerance; the gate must read it as a breach
        def nan_series(sys_, prep, cfg, times):
            return [HeatReport(t, math.nan, math.nan, math.nan, math.nan, False) for t in times]

        monkeypatch.setattr(cli, "heat_series_numeric", nan_series)
        out = tmp_path / "nan.csv"
        assert main(["--out", str(out), "--kind", "rwa", "--samples", "3", "compare"]) == EXIT_TOLERANCE
        assert read_footer(out) == ["# max_relative_deviation,nan"]

    def test_singular_coupling_exit_code(self, tmp_path):
        code = main(
            [
                "--out", str(tmp_path / "x.csv"), "--kind", "linear", "--g", "0.5",
                "--beta-a", "0.5", "--beta-b", "1.0", "--fock-n", "16",
                "--tail-tol", "1e-2", "compare",
            ]
        )
        assert code == EXIT_SINGULAR


class TestAuditCommand:
    def test_rwa_audit_reports_safe(self, capsys):
        code = main(["--kind", "rwa", "--g", "0.1", "--beta-a", "0.5", "--beta-b", "1.0",
                     "--fock-n", "12", "--tail-tol", "1e-2", "audit"])
        assert code == 0
        out = capsys.readouterr().out
        assert "csl_safe=true" in out

    def test_bare_audit_runs_at_the_fixed_cutoff(self, capsys):
        # The default linear coupling under the default T = 100/50 preparation:
        # no cutoff can hold that thermal tail, but the norms ignore temperature.
        assert main(["audit"]) == 0
        assert "csl_safe=false" in capsys.readouterr().out

    def test_linear_audit_reports_unsafe(self, capsys):
        code = main(["--kind", "linear", "--g", "0.1", "--beta-a", "0.5", "--beta-b", "1.0",
                     "--fock-n", "12", "--tail-tol", "1e-2", "audit"])
        assert code == 0
        out = capsys.readouterr().out
        assert "csl_safe=false" in out
        assert "norm_H0V" in out and "norm_HV" in out and "norm_H0H" in out


class TestSweepCommand:
    def test_gap_row_at_critical_coupling(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(
            [
                "--out", str(out), "--t-max", "20", "--samples", "64",
                "sweep", "--g-grid", "0.49,0.5", "--dbeta-grid", "0.01",
            ]
        )
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["g", "dbeta", "violations", "classification"]
        by_g = {float(row[0]): row for row in rows}  # 17g floats round-trip exactly
        assert by_g[0.5][3] == "gap"
        assert by_g[0.49][3] in {"transient", "persistent"}
        assert len(rows) == 2  # the gap row is recorded, not dropped


class TestConfigFile:
    def test_config_file_with_cli_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "kind = rwa\ng = 0.1  # coupling\nbeta_a = 0.5\nbeta_b = 1.0\n"
            "fock_n = 12\ntail_tol = 1e-2\n",
            encoding="utf-8",
        )
        assert main(["--config", str(cfg), "audit"]) == 0
        assert "csl_safe=true" in capsys.readouterr().out
        # flag overrides the file
        assert main(["--config", str(cfg), "--kind", "linear", "audit"]) == 0
        assert "csl_safe=false" in capsys.readouterr().out

    def test_quad_tol_key_rejected(self, tmp_path):
        cfg = tmp_path / "old.cfg"
        cfg.write_text("quad_tol = 1e-8\n", encoding="utf-8")
        assert main(["--config", str(cfg), "figure", "4"]) == EXIT_VALIDATION

    def test_quad_tol_flag_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["--quad-tol", "1e-8", "figure", "4"])
        assert exc.value.code == 2

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("frequency = 2\n", encoding="utf-8")
        assert main(["--config", str(cfg), "audit"]) == EXIT_VALIDATION

    @pytest.mark.parametrize("flag,value", [("--g", "nan"), ("--g", "inf"), ("--omega", "inf"),
                                            ("--beta-a", "nan"), ("--beta-b", "inf")])
    def test_non_finite_parameter_exit_code(self, flag, value, capsys):
        argv = ["--kind", "linear", "--beta-a", "0.5", "--beta-b", "1", "--fock-n", "12",
                "--tail-tol", "1e-2", flag, value, "audit"]
        assert main(argv) == EXIT_VALIDATION
        assert "finite" in capsys.readouterr().err

    def test_bad_parameter_exit_code(self):
        assert main(["--beta-a", "-1", "--beta-b", "1", "--kind", "rwa", "--fock-n", "12",
                     "audit"]) == EXIT_VALIDATION
        assert main(["--beta-a", "0.5", "--temp-a", "100", "--temp-b", "50",
                     "--kind", "rwa", "--fock-n", "12", "audit"]) == EXIT_VALIDATION
