import argparse
import csv
import io
import math
import re
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import run_fresh
import qsubthermo
from qsubthermo import (
    HeatReport,
    InteractionKind,
    OscillatorSystem,
    ThermalPreparation,
    analytic,
    cli,
    heat_transfer,
    time_averaged_heat,
)
from qsubthermo.cli import EXIT_SINGULAR, EXIT_TOLERANCE, EXIT_VALIDATION, main


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        rows = [row for row in csv.reader(handle) if not row[0].startswith("#")]
    return rows[0], rows[1:]


def read_footer(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    return [line for line in lines if line.startswith("#")]


# Each figure's columns after its grid's: (kind, g, preparation, field), where
# "avg" is time_averaged_heat's dQ_ab over the windows tau.
LIN, RWA = InteractionKind.LINEAR, InteractionKind.RWA
FIGURE_COLUMNS = {
    1: [(RWA, 0.1, "hot_a", "dq_ab"), (RWA, 0.1, "hot_b", "dq_ab")],
    2: [(LIN, 0.1, "hot_a", "dq_a"), (LIN, 0.1, "hot_b", "dq_a"), (RWA, 0.1, "hot_a", "dq_a"), (RWA, 0.1, "hot_b", "dq_a")],
    3: [(LIN, 0.49, "hot_a", field) for field in ("dq_a", "dq_b", "dq_ab", "ds0", "csl_ok")],
    4: [(LIN, 0.49, "hot_a", "avg"), (RWA, 0.49, "hot_a", "avg")],
    5: [(LIN, 0.51, "hot_a", "avg")],
}


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

    @pytest.mark.parametrize("number", [1, 2, 3, 4, 5])
    def test_figure_columns_are_each_systems_heat_reports(self, tmp_path, number):
        # one evaluation per system serves each preparation, each under its own
        out = tmp_path / "fig.csv"
        assert main(["--out", str(out), "--samples", "300", "figure", str(number)]) == 0
        header, rows = read_csv(out)
        grid = np.array([float(row[0]) for row in rows])
        hot_a = ThermalPreparation.from_temperatures(cli.TEMP_HOT, cli.TEMP_COLD)
        preps = {"hot_a": hot_a, "hot_b": hot_a.swapped()}
        columns = FIGURE_COLUMNS[number]
        assert len(header) == 1 + len(columns)
        for index, (kind, g, prep, field) in enumerate(columns, start=1):
            sys_ = OscillatorSystem(1.0, 1.0, kind, g=g)
            if field == "avg":
                expected = time_averaged_heat(sys_, preps[prep], grid)
            else:
                expected = getattr(heat_transfer(grid, sys_, preps[prep]), field)
            printed = [bool(int(row[index])) if field == "csl_ok" else float(row[index]) for row in rows]
            assert printed == expected.tolist(), header[index]

    @pytest.mark.parametrize("number, systems", [(1, 1), (2, 2), (3, 1), (4, 2), (5, 1)])
    def test_each_system_is_evaluated_once_per_block(self, tmp_path, monkeypatch, number, systems):
        # every evaluation of a system's forms, or of its window averages,
        # reads its table once, so the table is read once per system per
        # block, not once per preparation or per column
        reads, table = [], analytic._table
        monkeypatch.setattr(analytic, "_table", lambda sys_: reads.append(sys_) or table(sys_))
        argv = ["--out", str(tmp_path / "fig.csv"), "--samples", str(2 * cli._BLOCK_ROWS + 1), "figure", str(number)]
        assert main(argv) == 0
        assert len(reads) == 3 * systems and len(set(reads)) == systems

    @pytest.mark.parametrize("number", [4, 5])
    def test_subnormal_windows_are_averaged(self, tmp_path, number):
        # phi(z) = expm1(z)/z, a complex division, overflowed for windows this short, and the figure exited 2
        out = tmp_path / "fig.csv"
        assert main(["--out", str(out), "--t-max", "1e-320", "--samples", "3", "figure", str(number)]) == 0
        _, rows = read_csv(out)
        assert len(rows) == 3 and all(abs(float(value)) <= 1e-12 for row in rows for value in row[1:])

    @pytest.mark.parametrize("t_max, number, rule", [
        ("inf", 1, "non-negative"), ("-5", 1, "non-negative"), ("-5", 4, "positive"), ("0", 5, "positive"),
    ])
    def test_bad_t_max_is_named_as_given(self, t_max, number, rule):
        # figures 1-3 built their grid first, where 0 * inf is a NaN with a numpy
        # RuntimeWarning, and every figure reported a grid point, not t_max
        proc = run_fresh(["--t-max", t_max, "--samples", "3", "figure", str(number)])
        assert (proc.returncode, proc.stdout) == (EXIT_VALIDATION, "")
        assert proc.stderr == f"invalid configuration: t_max must be finite and {rule}, got {float(t_max)}\n"

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

    # The printed columns at a coarse cutoff, where the two routes differ visibly.
    COLUMNS_ARGV = ["--kind", "linear", "--g", "0.3", "--beta-a", "0.7", "--beta-b", "1.3", "--fock-n", "12",
                    "--tail-tol", "1e-2", "--t-max", "10", "--samples", "21", "compare", "--tol", "inf"]

    def printed(self, tmp_path):
        out = tmp_path / "columns.csv"
        assert main(["--out", str(out), *self.COLUMNS_ARGV]) == 0
        header, rows = read_csv(out)
        return {name: [float(row[i]) for row in rows] for i, name in enumerate(header)}, read_footer(out)

    def test_each_ds0_column_is_its_own_routes_free_entropy(self, tmp_path):
        columns, _ = self.printed(tmp_path)
        prep = ThermalPreparation(0.7, 1.3)
        for route in ("analytic", "oracle"):
            rows = list(zip(columns[f"dQ_a_{route}"], columns[f"dQ_b_{route}"], columns[f"dS0_{route}"], strict=True))
            assert [ds0 for *_, ds0 in rows] == [prep.beta_a * dq_a + prep.beta_b * dq_b for dq_a, dq_b, _ in rows]

    def test_footer_is_the_largest_deviation_of_the_printed_columns(self, tmp_path):
        columns, footer = self.printed(tmp_path)
        worst = max(abs(x - y) / max(1.0, abs(x))
                    for name in ("dQ_a", "dQ_b", "dS0")
                    for x, y in zip(columns[f"{name}_analytic"], columns[f"{name}_oracle"], strict=True))
        (line,) = footer
        assert worst > 1e-6 and float(line.removeprefix("# max_relative_deviation,")) == worst

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
        assert "must exceed" in capsys.readouterr().err

    def test_automatic_cutoffs_meet_the_default_gate(self, tmp_path):
        # the colder mode needs the hotter mode's cutoff once the coupling has
        # moved population across; per-mode cutoffs (28 x 14) breached 1e-6.
        # At beta_a = ln(1e12)/28 the tail above 28 levels is not below
        # tail_tol 1e-12 in floating point, so the cutoff must be 29.
        out = tmp_path / "auto.csv"
        for beta_a in ("1", "0.9868221827117338"):
            code = main(["--out", str(out), "--kind", "rwa", "--beta-a", beta_a, "--beta-b", "2", "compare"])
            assert code == 0
            assert float(read_footer(out)[0].split(",")[1]) < 1e-9

    @pytest.mark.parametrize("kind", ["rwa", "linear"])
    def test_automatic_cutoffs_at_the_hotter_preparation(self, tmp_path, kind):
        # beta_a = 0.5 needs 56 levels per mode (dim 3136); the exchange
        # coupling splits that into sectors of at most 56 states, the linear
        # coupling into two parity sectors of 1568, each split in half again
        # by the mode exchange (about 1.1 s and 152 MB max RSS on 2 cores)
        out = tmp_path / "auto56.csv"
        code = main(["--out", str(out), "--kind", kind, "--beta-a", "0.5", "--beta-b", "1", "compare"])
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

    @pytest.mark.parametrize("kind", ["rwa", "linear"])
    def test_frozen_mode_compares(self, tmp_path, kind):
        # beta_a omega = 710 overflowed the closed form's exp(beta omega) - 1
        # into a traceback; the oracle was finite all along, and both agree
        out = tmp_path / "frozen.csv"
        proc = run_fresh(["--out", str(out), "--kind", kind, "--beta-a", "710", "--beta-b", "1", "--samples", "9", "compare"])
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr
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

        monkeypatch.setattr(qsubthermo.fock, "heat_series_numeric", nan_series)
        out = tmp_path / "nan.csv"
        assert main(["--out", str(out), "--kind", "rwa", "--samples", "3", "compare"]) == EXIT_TOLERANCE
        assert read_footer(out) == ["# max_relative_deviation,nan"]

    def test_tol_is_a_number_neither_nan_nor_negative(self, monkeypatch, capsys):
        # --tol nan and --tol -1 failed every run ("exceeds tolerance nan"); inf
        # allows any finite deviation, and a NaN deviation still breaches it
        def nan_series(sys_, prep, cfg, times):
            return [HeatReport(t, math.nan, math.nan, math.nan, math.nan, False) for t in times]

        monkeypatch.setattr(qsubthermo.fock, "heat_series_numeric", nan_series)
        for tol in ("nan", "-1"):
            with pytest.raises(SystemExit) as exc:
                main(["--kind", "rwa", "--samples", "3", "compare", "--tol", tol])
            assert exc.value.code == EXIT_VALIDATION
        assert main(["--kind", "rwa", "--samples", "3", "compare", "--tol", "inf"]) == EXIT_TOLERANCE

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
        code = main(["--kind", "rwa", "--g", "0.1", "--fock-n", "12", "--tail-tol", "1e-2", "audit"])
        assert code == 0
        out = capsys.readouterr().out
        assert "csl_safe=true" in out

    def test_bare_audit_runs_at_the_fixed_cutoff(self, capsys):
        # The default linear coupling: the norms ignore temperature, so audit
        # takes none and sizes no cutoff from a thermal tail.
        assert main(["audit"]) == 0
        assert "csl_safe=false" in capsys.readouterr().out

    def test_linear_audit_reports_unsafe(self, capsys):
        code = main(["--kind", "linear", "--g", "0.1", "--fock-n", "12", "--tail-tol", "1e-2", "audit"])
        assert code == 0
        out = capsys.readouterr().out
        assert "csl_safe=false" in out
        assert "norm_H0V" in out and "norm_HV" in out and "norm_H0H" in out

    def test_audit_writes_to_out(self, tmp_path, capsys):
        assert main(["--fock-n", "12", "audit"]) == 0
        printed = capsys.readouterr().out
        out = tmp_path / "audit.txt"
        assert main(["--out", str(out), "--fock-n", "12", "audit"]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_text(encoding="utf-8") == printed and len(printed.splitlines()) == 4

    def test_unwritable_out_fails_before_the_audit(self, tmp_path, monkeypatch, capsys):
        def no_audit(*args):
            raise AssertionError("the audit ran before --out was opened")

        monkeypatch.setattr("qsubthermo.fock.decomposition_audit", no_audit)
        assert main(["--out", str(tmp_path / "missing" / "x.txt"), "audit"]) == EXIT_VALIDATION
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("invalid configuration: cannot write --out"), lines

    def test_system_takes_every_given_coupling(self, capsys):
        # the model alone decides which couplings a kind takes; a given m, q or
        # g is never dropped, and a given zero is not replaced by a default
        refusals = {
            ("--kind", "rwa", "--mass", "2"): "kind=rwa does not take m or q",
            ("--kind", "linear", "--charge", "0"): "kind=linear does not take m or q",
            ("--kind", "minimal-a", "--g", "0.3"): "minimal-coupling kinds use (m, q), not g",
            ("--kind", "minimal-a", "--mass", "0"): "kind=minimal-a requires a mass m > 0",
        }
        for flags, message in refusals.items():
            assert main([*flags, "--fock-n", "6", "audit"]) == EXIT_VALIDATION
            assert capsys.readouterr().err.splitlines() == [f"invalid configuration: {message}"]
        assert main(["--kind", "minimal-b", "--charge", "0", "--g", "0", "--fock-n", "6", "audit"]) == 0


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

    def test_slowly_growing_flow_is_persistent(self, tmp_path):
        # just above g = omega/2 the flow grows more slowly than a 50/omega window shows
        out = tmp_path / "sweep.csv"
        assert main(["--out", str(out), "sweep", "--g-grid", "0.5001,0.502"]) == 0
        assert [(float(row[0]), row[3]) for row in read_csv(out)[1]] == [
            (0.5001, "persistent"), (0.5001, "persistent"), (0.502, "persistent"), (0.502, "persistent")]

    def test_frozen_mode_sweeps(self, tmp_path):
        # beta_a omega = 710 overflows exp; the closed form takes exp(-beta omega) there
        proc = run_fresh(["--out", str(tmp_path / "s.csv"), "--beta-a", "710", "--samples", "32", "sweep",
                          "--g-grid", "0.3", "--dbeta-grid", "0.01"])
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr
        assert len(read_csv(tmp_path / "s.csv")[1]) == 1

    def test_gap_cell_still_checks_the_preparation(self, capsys):
        # g = omega/2 is a gap only once the cell's system and preparation hold
        assert main(["sweep", "--g-grid", "0.5", "--dbeta-grid=-1"]) == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith("invalid configuration: inverse temperatures")


class TestConfigFile:
    def test_config_file_with_cli_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "kind = rwa\ng = 0.1  # coupling\nfock_n = 12\ntail_tol = 1e-2\n",
            encoding="utf-8",
        )
        assert main(["--config", str(cfg), "audit"]) == 0
        assert "csl_safe=true" in capsys.readouterr().out
        # flag overrides the file
        assert main(["--config", str(cfg), "--kind", "linear", "audit"]) == 0
        assert "csl_safe=false" in capsys.readouterr().out

    def test_comment_and_blank_lines_are_skipped(self, tmp_path, capsys):
        lines = ["kind = rwa", "g = 0.2", "fock_n = 8"]
        plain, commented = tmp_path / "plain.cfg", tmp_path / "commented.cfg"
        plain.write_text("\n".join(lines) + "\n", encoding="utf-8")
        commented.write_text("\n".join(["# header", lines[0], "", "   # indented comment", *lines[1:]]) + "\n",
                             encoding="utf-8")
        outputs = []
        for cfg in (plain, commented):
            assert main(["--config", str(cfg), "audit"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[1] == outputs[0]
        assert "csl_safe=true" in outputs[0]  # the file was read: the default kind is linear

    @pytest.mark.parametrize("key,value", [("quad_tol", "1e-8"), ("tau_threshold", "3")])
    def test_quad_tol_key_rejected(self, tmp_path, capsys, key, value):
        # retired parameters: an old file fails loudly instead of being ignored
        cfg = tmp_path / "old.cfg"
        cfg.write_text(f"{key} = {value}\n", encoding="utf-8")
        assert main(["--config", str(cfg), "figure", "4"]) == EXIT_VALIDATION
        assert capsys.readouterr().err.splitlines() == [f"invalid configuration: unknown config key {key!r}"]

    @pytest.mark.parametrize("flag,value", [("--quad-tol", "1e-8"), ("--tau-threshold", "3")])
    def test_quad_tol_flag_rejected(self, flag, value):
        with pytest.raises(SystemExit) as exc:
            main([flag, value, "figure", "4"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("line,command", [("kind = foo", ["audit"]), ("samples = abc", ["figure", "4"]),
                                              ("samples = 0", ["figure", "1"]), ("g_grid = 0.1,x", ["sweep"]),
                                              ("fock_n = 1.5", ["audit"]), ("g_grid =", ["sweep"])])
    def test_bad_config_value_is_one_error_line(self, tmp_path, line, command):
        # a file value goes through its flag's converter and choices
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n", encoding="utf-8")
        proc = run_fresh(["--config", str(cfg), *command])
        assert proc.returncode == EXIT_VALIDATION
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("invalid configuration: config key"), proc.stderr

    def test_flag_over_file_over_builtin(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("samples = 3\n", encoding="utf-8")
        runs = {"builtin": [], "file": ["--config", str(cfg)], "flag": ["--config", str(cfg), "--samples", "2"]}
        rows = {}
        for name, argv in runs.items():
            out = tmp_path / f"{name}.csv"
            assert main(["--out", str(out), *argv, "figure", "1"]) == 0
            rows[name] = len(read_csv(out)[1])
        assert rows == {"builtin": 1000, "file": 3, "flag": 2}

    def test_command_flag_overrides_the_file(self, tmp_path):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text("g_grid = 0.3\ndbeta_grid = 0.01\nt_max = 20\nsamples = 64\n", encoding="utf-8")
        out = tmp_path / "sweep.csv"
        assert main(["--out", str(out), "--config", str(cfg), "sweep", "--g-grid", "0.5"]) == 0
        assert read_csv(out)[1] == [["0.5", "0.01", "", "gap"]]

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("frequency = 2\n", encoding="utf-8")
        assert main(["--config", str(cfg), "audit"]) == EXIT_VALIDATION

    @pytest.mark.parametrize("flag,value", [("--g", "nan"), ("--g", "inf"), ("--omega", "inf"),
                                            ("--beta-a", "nan"), ("--beta-b", "inf")])
    def test_non_finite_parameter_exit_code(self, flag, value, capsys):
        argv = ["--kind", "linear", "--beta-a", "0.5", "--beta-b", "1", "--fock-n", "12",
                "--tail-tol", "1e-2", flag, value, "compare"]
        assert main(argv) == EXIT_VALIDATION
        assert "finite" in capsys.readouterr().err

    def test_bad_parameter_exit_code(self, capsys):
        assert main(["--beta-a", "-1", "--beta-b", "1", "--kind", "rwa", "--fock-n", "12",
                     "compare"]) == EXIT_VALIDATION
        assert "inverse temperatures must be positive" in capsys.readouterr().err
        assert main(["--beta-a", "0.5", "--temp-a", "100", "--temp-b", "50",
                     "--kind", "rwa", "--fock-n", "12", "compare"]) == EXIT_VALIDATION
        assert "either betas or temperatures" in capsys.readouterr().err


def file_error_argv(case, tmp_path):
    latin1 = tmp_path / "latin1.cfg"
    latin1.write_bytes("kind = linear  # caf\xe9\n".encode("latin-1"))
    return {
        "out-in-missing-directory": ["--out", str(tmp_path / "missing" / "x.csv"), "figure", "4"],
        "out-is-a-directory": ["--out", str(tmp_path), "figure", "4"],
        "missing-config": ["--config", str(tmp_path / "missing.cfg"), "figure", "4"],
        "config-not-utf8": ["--config", str(latin1), "figure", "4"],
    }[case]


def whole_grid_rows(number, samples):
    """Figure 3 or 4 evaluated on the whole grid at once and formatted value by value."""
    omega, t_max = 1.0, 50.0
    hot_a = ThermalPreparation.from_temperatures(cli.TEMP_HOT, cli.TEMP_COLD)
    if number == 3:
        times = np.linspace(0.0, t_max, samples)
        rep = heat_transfer(times, OscillatorSystem(omega, omega, InteractionKind.LINEAR, g=0.49), hot_a)
        columns = [rep.t, rep.dq_a, rep.dq_b, rep.dq_ab, rep.ds0, rep.csl_ok]
    else:
        taus = np.arange(1, samples + 1) * (t_max / samples)
        columns = [taus] + [time_averaged_heat(OscillatorSystem(omega, omega, kind, g=0.49), hot_a, taus)
                            for kind in (InteractionKind.LINEAR, InteractionKind.RWA)]
    text = lambda v: ("1" if v else "0") if isinstance(v, bool) else format(v, ".17g")  # noqa: E731
    return [[text(v) for v in row] for row in zip(*(column.tolist() for column in columns))]


def per_row_csv(header, blocks, footer=None):
    """The writer's reference: every row formatted by itself, each value by its
    own type (17 significant digits for a float, 1/0 for a bool, str() else)."""
    text = lambda v: ("%d" if isinstance(v, bool) else "%.17g" if isinstance(v, float) else "%s") % v  # noqa: E731
    lines = [",".join(header), *(",".join(map(text, row)) for rows in blocks for row in rows)]
    return "\n".join(lines + ([] if footer is None else [footer])) + "\n"


# tracemalloc peak bound of figure 3 at --t-max 45 --samples 24000: 0.36 MiB
# warm and 0.52 cold with 256-row blocks (numpy 2.4); 0.96 warm with blocks of
# 1024 rows, 1.11 warm with the whole grid held besides.
FIGURE_PEAK = int(0.75 * 2**20)


def figure_peak(tmp_path, samples):
    """tracemalloc peak of one figure 3 run at --t-max 45."""
    tracemalloc.start()
    try:
        assert main(["--t-max", "45", "--samples", str(samples), "--out", str(tmp_path / "x.csv"), "figure", "3"]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestOutput:
    @pytest.mark.parametrize("case", ["out-in-missing-directory", "out-is-a-directory", "missing-config",
                                      "config-not-utf8"])
    def test_file_error_is_one_line_exit_2(self, tmp_path, capsys, case):
        # each of these once ended in a traceback and exit 1
        assert main(file_error_argv(case, tmp_path)) == EXIT_VALIDATION
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("invalid configuration: "), lines
        assert [p.name for p in tmp_path.iterdir()] == ["latin1.cfg"]  # no temporary file left behind

    def test_unwritable_out_fails_before_the_oracle(self, tmp_path, monkeypatch):
        def no_series(*args):
            raise AssertionError("the oracle ran before --out was opened")

        monkeypatch.setattr(qsubthermo.fock, "heat_series_numeric", no_series)
        assert main(["--out", str(tmp_path / "missing" / "x.csv"), "--kind", "rwa", "compare"]) == EXIT_VALIDATION

    def test_failing_figure_keeps_the_old_file(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        argv = ["--t-max", "3000", "figure", "5"]  # the window averages overflow
        assert main(["--out", str(out), *argv]) == EXIT_VALIDATION
        assert list(tmp_path.iterdir()) == []
        out.write_bytes(b"old,bytes\n")
        assert main(["--out", str(out), *argv]) == EXIT_VALIDATION
        assert list(tmp_path.iterdir()) == [out] and out.read_bytes() == b"old,bytes\n"
        # on stdout the header waits for the first block, where this run fails
        capsys.readouterr()
        assert main(argv) == EXIT_VALIDATION
        assert capsys.readouterr().out == ""

    def test_out_through_a_symlink_keeps_the_link(self, tmp_path):
        # the temporary file replaces the link's target, not the link
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_text("old\n", encoding="utf-8")
        link.symlink_to(target)
        assert main(["--out", str(link), "--samples", "3", "figure", "4"]) == 0
        assert link.is_symlink() and read_csv(target)[0] == ["tau", "avg_dQ_ab_linear", "avg_dQ_ab_rwa"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "target.csv"]

    @pytest.mark.parametrize("number", [3, 4])
    def test_blocked_curve_matches_the_whole_grid(self, tmp_path, number):
        samples = 2 * cli._BLOCK_ROWS + 1
        out = tmp_path / "curve.csv"
        assert main(["--out", str(out), "--samples", str(samples), "figure", str(number)]) == 0
        assert read_csv(out)[1] == whole_grid_rows(number, samples)

    def test_writer_bytes_match_the_old_formatter(self):
        # 17 significant digits for every float, numpy's included; 1/0 for bools; str() for the rest
        rows = [
            (math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.7976931348623157e308, 0.1, np.float64(0.1)),
            (True, False, 7, -3, 2**70, "", "gap", np.float64(-0.0)),
        ]
        # a block of several rows takes its first row's formats: an int and "" share %s
        block = [(0.5, True, 3, np.float64(1 / 3)), (-1e300, False, "", np.float64(2.0)), (math.nan, True, 12, -0.0)]
        buffer = io.StringIO()
        cli.write_csv(buffer, ["a", "b"], [rows[:1], rows[1:], [], block], footer="# end")
        assert buffer.getvalue() == (
            "a,b\n"
            "nan,inf,-inf,-0,4.9406564584124654e-324,1.7976931348623157e+308,0.10000000000000001,0.10000000000000001\n"
            "1,0,7,-3,1180591620717411303424,,gap,-0\n"
            "0.5,1,3,0.33333333333333331\n"
            "-1.0000000000000001e+300,0,,2\n"
            "nan,1,12,-0\n"
            "# end\n"
        ) == per_row_csv(["a", "b"], [rows[:1], rows[1:], [], block], footer="# end")

    @pytest.mark.parametrize("argv, block_rows", [
        *((["--samples", str(2 * cli._BLOCK_ROWS + 1), "figure", str(number)], [cli._BLOCK_ROWS] * 2 + [1])
          for number in (1, 2, 3)),
        (["compare"], [81]),
        (["sweep", "--g-grid", "0.3,0.5,0.51"], [6]),
    ], ids=["figure-1", "figure-2", "figure-3", "compare", "sweep-gaps"])
    def test_blocks_match_the_per_row_reference(self, tmp_path, monkeypatch, argv, block_rows):
        written, write = [], cli.write_csv

        def recorded(out, header, blocks, footer=None):
            blocks = [list(rows) for rows in blocks]
            written.append((header, blocks, footer))
            write(out, header, blocks, footer)

        monkeypatch.setattr(cli, "write_csv", recorded)
        out = tmp_path / "x.csv"
        assert main(["--out", str(out), *argv]) == 0
        ((header, blocks, footer),) = written
        assert [len(rows) for rows in blocks] == block_rows  # a ragged last block of a figure
        if argv[0] == "sweep":  # gap rows between counted ones: "" where the others hold an int
            assert [row[2] for row in blocks[0]] == [0, 0, "", "", 232, 232]
        assert out.read_bytes() == per_row_csv(header, blocks, footer).encode()

    @pytest.mark.parametrize("argv, loaded", [
        (["figure", "3"], []),
        (["figure", "4"], []),
        (["sweep"], []),
        (["--kind", "linear", "--beta-a", "2", "--beta-b", "3", "--samples", "9", "compare"], ["fock"]),
        (["--kind", "rwa", "--fock-n", "12", "audit"], ["fock"]),
    ], ids=["figure-3", "figure-4", "sweep", "compare", "audit"])
    def test_each_command_loads_only_the_modules_it_runs(self, tmp_path, argv, loaded):
        # each command imports only the modules it runs, none of them quadrature,
        # and the package still serves the others' names from their modules
        script = """if True:
            import sys
            import qsubthermo
            from qsubthermo.cli import main
            assert main(["--out", sys.argv[1], *sys.argv[2:]]) == 0
            print(*(name for name in qsubthermo._ON_FIRST_USE if f"qsubthermo.{name}" in sys.modules))
            served = (qsubthermo.scan_violations, qsubthermo.decomposition_audit, qsubthermo.adaptive_simpson,
                      qsubthermo.heat_series_numeric, qsubthermo.fock)
            a, q, fock = (sys.modules[f"qsubthermo.{name}"] for name in ("analytic", "quadrature", "fock"))
            assert served == (a.scan_violations, fock.decomposition_audit, q.adaptive_simpson, fock.heat_series_numeric, fock)
        """
        proc = run_fresh([str(tmp_path / "x.csv"), *argv], code=script)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == loaded

    def test_asking_for_a_submodule_loads_nothing_else(self):
        # `from qsubthermo import cli` asks the package for the attribute cli
        # before it imports qsubthermo.cli; the package refuses the name without
        # importing its lazy modules, and still serves them and their names
        script = """if True:
            import sys
            import qsubthermo
            from qsubthermo import cli
            assert [name for name in qsubthermo._ON_FIRST_USE if f"qsubthermo.{name}" in sys.modules] == []
            served = (qsubthermo.fock, qsubthermo.adaptive_simpson, qsubthermo.heat_series_numeric)
            q, fock = (sys.modules[f"qsubthermo.{name}"] for name in ("quadrature", "fock"))
            assert served == (fock, q.adaptive_simpson, fock.heat_series_numeric)
        """
        proc = run_fresh([], code=script)
        assert proc.returncode == 0, proc.stderr

    def test_oracle_commands_never_load_numpy_ma(self, tmp_path):
        # np.unique without indices imports numpy.ma (numpy 2.4), 8-16 ms of
        # every oracle process on a 2-core machine, so the edge list of H is
        # deduplicated by sorting its positions instead
        script = """if True:
            import sys
            from qsubthermo.cli import main
            assert main(["--kind", "linear", "--fock-n", "12", "audit"]) == 0
            assert main(["--out", sys.argv[1], "--kind", "linear", "--beta-a", "2", "--beta-b", "3", "--samples", "9",
                         "compare"]) == 0
            assert "qsubthermo.fock" in sys.modules and "numpy.ma" not in sys.modules
        """
        proc = run_fresh([str(tmp_path / "x.csv")], code=script)
        assert proc.returncode == 0, proc.stderr

    def test_audit_takes_no_blas_norm(self):
        # np.linalg.norm takes a threaded BLAS dot, which as a fresh process's
        # first BLAS call stalls about 8 ms at 10 001-19 999 entries (the edges
        # of a minimal kind at 40 levels, linear at 48), so the audit sums its
        # squares elementwise
        script = """if True:
            import numpy as np
            from qsubthermo.cli import main

            def refused(*args, **kwargs):
                raise AssertionError("np.linalg.norm was called")

            np.linalg.norm = refused
            for kind in ("linear", "minimal-b"):
                assert main(["--kind", kind, "--fock-n", "40", "audit"]) == 0
        """
        proc = run_fresh([], code=script)
        assert proc.returncode == 0, proc.stderr

    def test_long_curve_is_never_held_whole(self, tmp_path):
        assert figure_peak(tmp_path, 200000) < 8 * 2**20

    def test_figure_memory_does_not_grow_with_samples(self, tmp_path):
        # the grid is built a block at a time too: held whole, 65 537 points add
        # 0.5 MiB; the first run only warms the caches
        small, large = [figure_peak(tmp_path, samples) for samples in (4097, 4097, 65537)][1:]
        assert large < small + 0.1 * 2**20

    def test_figure_holds_one_small_block(self, tmp_path):
        assert figure_peak(tmp_path, 24000) < FIGURE_PEAK

    @pytest.mark.parametrize("t_max", [45.0, -0.0, 1e-323])
    @pytest.mark.parametrize("samples", [1, 2, cli._BLOCK_ROWS, cli._BLOCK_ROWS + 1, 2 * cli._BLOCK_ROWS + 1])
    def test_grid_blocks_are_the_whole_grid(self, samples, t_max):
        # linspace bit for bit for figures 1-3, also where its step is -0.0 or underflows to zero
        starts = range(0, samples, cli._BLOCK_ROWS)
        for number, whole in [(3, np.linspace(0.0, t_max, samples)), (4, np.arange(1, samples + 1) * (t_max / samples))]:
            blocks = [cli._grid(number, t_max, samples, start) for start in starts]
            assert [len(block) for block in blocks] == [min(cli._BLOCK_ROWS, samples - start) for start in starts]
            assert np.concatenate(blocks).tobytes() == whole.tobytes()


def long_options(parser):
    """Every --option of the parser and of its commands."""
    options = set()
    for action in parser._actions:
        options |= {option for option in action.option_strings if option.startswith("--")}
        if isinstance(action, argparse._SubParsersAction):
            for command in action.choices.values():
                options |= long_options(command)
    return options


FLAG_ONLY = {"--help", "--version", "--config", "--out", "--tol"}

# Bad flag values that argparse rejects, with its usage line, and that the model rejects, in one line.
PARSER_REJECTS = [["--samples", "0", "figure", "4"], ["--samples", "-5", "compare"], ["--samples", "0", "figure", "1"],
                  ["--samples", "0", "compare"], ["sweep", "--g-grid", "0.1,x"], ["sweep", "--dbeta-grid", "x"],
                  ["compare", "--tol", "nan"], ["compare", "--tol", "-1"], ["sweep", "--g-grid", ""],
                  ["sweep", "--dbeta-grid", ","]]
MODEL_REJECTS = [["--tail-tol", value, "compare"] for value in ("0", "-1", "nan", "inf", "2")] + [
    ["--omega", "0", *command] for command in (["figure", "1"], ["figure", "4"], ["sweep"])]


class TestParameterSurface:
    def test_config_keys_are_the_other_flags(self):
        keys = set(cli._PARAMS)
        assert len(keys) == 15
        assert {"--" + key.replace("_", "-") for key in keys} == long_options(cli.build_parser()) - FLAG_ONLY

    def test_readme_names_every_option_and_no_other(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
        named = set(re.findall(r"(?<![\w-])--[a-z]+(?:-[a-z]+)*", section))
        assert named == long_options(cli.build_parser())

    def test_readme_names_each_parameters_readers(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
        listed = {}
        for flags, readers in re.findall(r"^\| (`--.*?) \| (.*?) \|", section, re.MULTILINE):
            for flag in re.findall(r"`--([a-z-]+)", flags):
                listed[flag.replace("-", "_")] = readers
        assert listed == {key: "every command" if set(param.reads) == set(COMMAND_ARGV)
                          else ", ".join(f"`{command}`" for command in param.reads) for key, param in cli._PARAMS.items()}

    @pytest.mark.parametrize("argv", PARSER_REJECTS + MODEL_REJECTS, ids=" ".join)
    def test_bad_flag_value_exits_2(self, argv):
        # each of these once ended in a traceback, or (samples 0 for figures
        # 1-3 and compare) in a header-only CSV, or (tail_tol 2) ran with the
        # tail check switched off
        proc = run_fresh(argv)
        assert proc.returncode == EXIT_VALIDATION
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        if argv in MODEL_REJECTS:
            assert len(lines) == 1 and lines[0].startswith("invalid configuration:"), proc.stderr
        else:
            assert lines[-1].startswith("qsubthermo"), proc.stderr
            assert "error: argument --" in proc.stderr


# The parameters each command does not read; any other command refuses them, as a flag or a config key.
UNREAD = {
    "figure": ["g", "kind", "mass", "charge", "beta_a", "beta_b", "temp_a", "temp_b", "fock_n", "tail_tol", "g_grid",
               "dbeta_grid"],
    "sweep": ["g", "kind", "mass", "charge", "beta_b", "temp_a", "temp_b", "fock_n", "tail_tol"],
    "audit": ["beta_a", "beta_b", "temp_a", "temp_b", "t_max", "samples", "g_grid", "dbeta_grid"],
    "compare": ["g_grid", "dbeta_grid"],
}
# A value each parameter may take where it is read, so the refusal is the only
# fault; none is its built-in value or its value in READ_SETTINGS.
VALID = {"omega": "2", "g": "0.3", "kind": "none", "mass": "2", "charge": "0.3", "beta_a": "1.5", "beta_b": "2.5",
         "temp_a": "5", "temp_b": "1", "t_max": "3", "samples": "7", "fock_n": "12", "tail_tol": "1e-2",
         "g_grid": "0.3", "dbeta_grid": "0.02"}
COMMAND_ARGV = {"figure": ["figure", "4"], "sweep": ["sweep"], "audit": ["audit"], "compare": ["compare"]}
UNREAD_GIVEN = [(command, key, source) for command, keys in UNREAD.items() for key in keys
                for source in ("flag", "flag_after", "config")]

# Small settings on which each command runs quickly from the parameters it reads alone.
READ_SETTINGS = {
    "figure": {"t_max": 5.0, "samples": 20},
    "sweep": {"t_max": 5.0, "samples": 20, "g_grid": [0.3, 0.5], "dbeta_grid": [0.01]},
    "audit": {"kind": "rwa", "fock_n": 6},
    "compare": {"kind": "rwa", "beta_a": 1.0, "beta_b": 2.0, "fock_n": 8, "tail_tol": 0.5, "t_max": 2.0, "samples": 3},
}


class TestReadOrRefused:
    def test_readers_are_the_complement_of_the_refused(self):
        assert sum(map(len, UNREAD.values())) == 31
        read = {(command, key) for key, param in cli._PARAMS.items() for command in param.reads}
        every = {(command, key) for command in COMMAND_ARGV for key in cli._PARAMS}
        assert read == every - {(command, key) for command, keys in UNREAD.items() for key in keys}
        assert len(read) == 29

    @pytest.mark.parametrize("command,key,source", UNREAD_GIVEN, ids=lambda v: v)
    def test_unread_parameter_is_refused(self, tmp_path, capsys, command, key, source):
        cfg, out = tmp_path / "run.cfg", tmp_path / "out.csv"
        cfg.write_text(f"{key} = {VALID[key]}\n", encoding="utf-8")
        flag = ["--" + key.replace("_", "-"), VALID[key]]
        argv = {"flag": [*flag, *COMMAND_ARGV[command]], "flag_after": [*COMMAND_ARGV[command], *flag],
                "config": ["--config", str(cfg), *COMMAND_ARGV[command]]}[source]
        assert main(["--out", str(out), *argv]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"invalid configuration: {command} does not read "
                                             + (flag[0] if source != "config" else f"config key {key}")]
        assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]

    @pytest.mark.parametrize("command,own", [("figure", {"number": n}) for n in range(1, 6)]
                             + [("sweep", {}), ("audit", {}), ("compare", {"tol": math.inf})],
                             ids=[f"figure-{n}" for n in range(1, 6)] + ["sweep", "audit", "compare"])
    def test_runners_read_only_their_declared_parameters(self, command, own):
        # args holds nothing but the parameters the table says the command
        # reads, so a runner reading any other raises AttributeError
        args = {key: READ_SETTINGS[command].get(key, param.builtin)
                for key, param in cli._PARAMS.items() if command in param.reads}
        buffer = io.StringIO()
        assert cli._RUNNERS[command](argparse.Namespace(command=command, **args, **own), buffer) == 0
        assert buffer.getvalue()

    def test_resolve_leaves_unread_parameters_off_args(self):
        args = cli._resolve(cli.build_parser().parse_args(["figure", "1"]))
        assert {key for key in cli._PARAMS if hasattr(args, key)} == {"omega", "t_max", "samples"}


def config_text(settings):
    return "".join(f"{key} = {','.join(map(str, value)) if isinstance(value, list) else value}\n"
                   for key, value in settings.items())


READ_PAIRS = [(command, key) for key, param in cli._PARAMS.items() for command in param.reads]


class TestGrammar:
    @pytest.mark.parametrize("command,key", READ_PAIRS, ids=lambda v: v)
    def test_flag_after_the_command_reads_as_before(self, tmp_path, capsys, command, key):
        # over the command's small settings from a file, which set another
        # value; a pair whose value the model refuses there (--mass with rwa)
        # must fail the same way
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config_text(READ_SETTINGS[command]), encoding="utf-8")
        flag = ["--" + key.replace("_", "-"), VALID[key]]
        command_argv = [*COMMAND_ARGV[command], *(["--tol", "inf"] if command == "compare" else [])]
        results = {}
        for placement, argv in {"before": [*flag, *command_argv], "after": [*command_argv, *flag]}.items():
            args = cli._resolve(cli.build_parser().parse_args(["--config", str(cfg), *argv]))
            assert getattr(args, key) == cli._PARAMS[key].convert(VALID[key])
            out = tmp_path / f"{placement}.csv"
            code = main(["--out", str(out), "--config", str(cfg), *argv])
            captured = capsys.readouterr()
            results[placement] = code, captured.out, captured.err, out.read_bytes() if out.exists() else None
        assert results["after"] == results["before"]

    def test_flag_on_both_sides_takes_the_value_after_the_command(self, tmp_path):
        out = tmp_path / "f.csv"
        assert main(["--out", str(out), "--t-max", "5", "--samples", "3", "figure", "1", "--samples", "2"]) == 0
        assert len(read_csv(out)[1]) == 2
        assert main(["--out", str(out), "--t-max", "5", "--samples", "2", "figure", "1", "--samples", "3"]) == 0
        assert len(read_csv(out)[1]) == 3

    def test_a_coupling_flag_is_no_prefix_of_a_sweep_grid(self, capsys):
        assert main(["sweep", "--g", "0.3"]) == EXIT_VALIDATION
        assert capsys.readouterr().err.splitlines() == ["invalid configuration: sweep does not read --g"]

    @pytest.mark.parametrize("argv", [["--fock", "6", "audit"], ["audit", "--fock", "6"], ["--t-m", "3", "figure", "1"],
                                      ["sweep", "--g-gr", "0.3"], ["compare", "--to", "inf"]], ids=" ".join)
    def test_an_abbreviated_flag_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == "" and "qsubthermo: error:" in captured.err

    @pytest.mark.parametrize("argv,named", [(["--fock", "6", "audit"], "--fock 6"), (["audit", "--fock", "6"], "--fock 6"),
                                            (["--tol", "1e-6", "compare"], "--tol 1e-6"), (["--fock", "audit"], "--fock")],
                             ids=["before", "after", "tol-before", "without-a-value"])
    def test_an_unknown_flag_is_named_on_either_side_of_the_command(self, capsys, argv, named):
        # before the command, argparse alone would take the flag's value for
        # the command and name the value instead
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_VALIDATION
        assert capsys.readouterr().err.splitlines()[-1] == f"qsubthermo: error: unrecognized arguments: {named}"


def benchmark_argv(out):
    """The argument orders of the benchmark's workloads and self-test, literally,
    at small cutoffs: flags before the command, --tol after compare, and
    --tail-tol given to audit."""
    return {
        "workloads-curve": ["--t-max", "12.5", "--samples", "24", "--out", out, "figure", "1"],
        "workloads-figure": ["--out", out, "figure", "4"],
        "sweep": ["--out", out, "sweep"],  # both spell it so
        "workloads-compare": ["--kind", "rwa", "--g", "0.3", "--beta-a", "0.5", "--beta-b", "1.0", "--fock-n", "12",
                              "--tail-tol", "0.01", "--out", out, "compare", "--tol", "inf"],
        "workloads-audit": ["--kind", "linear", "--g", "0.3", "--fock-n", "12", "--tail-tol", "1e-08", "audit"],
        "workloads-audit-minimal": ["--kind", "minimal-b", "--mass", "1.3", "--charge", "0.3", "--fock-n", "12",
                                    "--tail-tol", "1e-08", "audit"],
        "selftest-figure": ["--out", out, "--samples", "4", "figure", "5"],
        "selftest-compare": ["--out", out, "--kind", "linear", "--g", "0.15", "--beta-a", "1.5", "--beta-b", "2.5",
                             "--fock-n", "16", "--tail-tol", "1e-8", "compare"],
        "selftest-audit": ["--kind", "minimal-b", "--mass", "1.5", "--charge", "0.3", "--fock-n", "12", "audit"],
    }


@pytest.mark.parametrize("name", list(benchmark_argv("")))
def test_benchmark_argv_spellings_run(tmp_path, capsys, name):
    assert main(benchmark_argv(str(tmp_path / "out.csv"))[name]) == 0
    assert capsys.readouterr().err == ""
