"""Mutation table: each row changes the program in one place and names the test that must fail.

    python3 tests/mutants.py          # every row
    python3 tests/mutants.py 0 5      # the rows at these indices

Each row is applied to a fresh temporary copy of ``COPIED`` (``src/``,
``tests/``, ``pyproject.toml`` and ``README.md``), and only its named test
runs there.  The named tests first run once on an unmutated copy, which they
must pass.  Then the rows run side by side, one pytest process per row and as
many at once as this process may use CPUs, each in its own copy, and their
verdicts print in row order.  Exits 1 if any mutant survives, a row's old
text is not found exactly once, or a named test cannot run; exits 0 when
every mutant is killed.  pytest does not collect this file, so it is no part
of the test suite: each row costs one pytest start.
A new threshold, printed column or exit code lands with its row here.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 600
# what each temporary tree holds: every row's file and everything its test reads
COPIED = ("src", "tests", "pyproject.toml", "README.md")


class Mutant(NamedTuple):
    file: str
    old: str
    new: str
    test: str


MUTANTS = [
    Mutant("src/qsubthermo/fock.py", "COMMUTATOR_TOL = 1e-10", "COMMUTATOR_TOL = 1e-4",
           "tests/test_diagnostics.py::TestDecompositionAudit::test_a_weak_linear_coupling_is_not_safe"),
    Mutant("src/qsubthermo/fock.py", "_EIGENVALUE_FLOOR = -1e-10", "_EIGENVALUE_FLOOR = -1e-2",
           "tests/test_fock_oracle.py::TestEntropyHelpers::test_entropy_rejects_unphysical_matrix[near]"),
    Mutant("src/qsubthermo/fock.py", "_HERMITIAN_TOL = 1e-12", "_HERMITIAN_TOL = 1e-3",
           "tests/test_fock_operators.py::TestEvolve::test_rejects_non_hermitian_hamiltonian[1e-06]"),
    # compare prints its dQ_b columns twice and no dS0 column
    Mutant("src/qsubthermo/cli.py", 'fields = ("dq_a", "dq_b", "ds0")', 'fields = ("dq_a", "dq_b", "dq_b")',
           "tests/test_cli.py::TestCompareCommand::test_each_ds0_column_is_its_own_routes_free_entropy"),
    Mutant("src/qsubthermo/cli.py", "np.maximum(1.0, abs(x))", "np.maximum(1e3, abs(x))",
           "tests/test_cli.py::TestCompareCommand::test_footer_is_the_largest_deviation_of_the_printed_columns"),
    # an oracle cache that evicts after computing holds two systems while it builds the second
    Mutant("src/qsubthermo/fock.py",
           "            held.clear()  # before fn runs, so the old entry is freed first\n"
           "            held[args] = fn(*args)\n",
           "            value = fn(*args)\n            held.clear()\n            held[args] = value\n",
           "tests/test_fock_oracle.py::TestOneSystemHeld::test_the_last_system_is_freed_before_the_next_is_built"),
    # persistent exactly when the flow grows: not on a stable table, and not only past some growth rate
    Mutant("src/qsubthermo/analytic.py", "_table(sys)[0].real > 0.0", "_table(sys)[0].real >= 0.0",
           "tests/test_diagnostics.py::TestScanViolations::test_linear_just_below_critical_is_transient"),
    Mutant("src/qsubthermo/analytic.py", "_table(sys)[0].real > 0.0", "_table(sys)[0].real > 0.02",
           "tests/test_diagnostics.py::TestScanViolations::test_linear_just_above_critical_is_persistent[0.5001]"),
    Mutant("src/qsubthermo/model.py", "VIOLATION_TOL_SCALE = 1e-12", "VIOLATION_TOL_SCALE = 1e-7",
           "tests/test_detuned.py::test_oracle_follows_the_rabi_formula"),
    Mutant("src/qsubthermo/fock.py", "ds_e_a = -prep.beta_b * float(dq_b)", "ds_e_a = -prep.beta_b * float(dq_b) * (1 + 1e-6)",
           "tests/test_fock_oracle.py::TestEntropyProduction::test_flux_reads_rho_b_without_the_heat_kernel[linear]"),
    # rho_b transposed in effective_hamiltonian: only a complex rho_b tells
    Mutant("src/qsubthermo/fock.py", "v * rho_b_t[l, k]", "v * rho_b_t[k, l]",
           "tests/test_fock_sectors.py::test_complex_split_override_matches_dense_evolution[1]"),
    Mutant("src/qsubthermo/fock.py", "return math.exp(-beta * omega * n)", "return math.exp(-beta * omega * (n + 1))",
           "tests/test_fock_operators.py::TestFockConfig::test_auto_selection_rejects_infeasible_temperatures[betas1]"),
    Mutant("src/qsubthermo/fock.py", "reversed_flux_b=-(prep.beta_a / prep.beta_b) * report.dq_a",
           "reversed_flux_b=-(prep.beta_a / prep.beta_b) * report.dq_b",
           "tests/test_fock_oracle.py::TestTrueHeat::test_reversed_fluxes"),
    Mutant("src/qsubthermo/fock.py", "if k > cfg.dim // 4:", "if k > cfg.dim // 2:",
           "tests/test_fock_oracle.py::TestSpectrumMatch::test_band_limit_enforced"),
    # a config file's whole-line comments and blank lines no longer skipped
    Mutant("src/qsubthermo/cli.py", "        if not line:\n            continue\n", "",
           "tests/test_cli.py::TestConfigFile::test_comment_and_blank_lines_are_skipped"),
    # the README's option table loses one option's name
    Mutant("README.md", "| `--omega` | every command | 1 |", "| `omega` | every command | 1 |",
           "tests/test_cli.py::TestParameterSurface::test_readme_names_every_option_and_no_other"),
    # the transition pass keeps the last stack's P while it forms the next
    Mutant("src/qsubthermo/fock.py", "        del probs  # before the next stack's P is formed\n", "",
           "tests/test_fock_sectors.py::test_oracle_calls_stay_below_one_dense_hamiltonian[linear-jarzynski_identity]"),
    # the true heats assemble H again instead of taking the gather's
    Mutant("src/qsubthermo/fock.py", "    *_, rho_t, parts = _state_at(t_checked, sys, prep, cfg)\n",
           "    rho_t, parts = _state_at(t_checked, sys, prep, cfg)[2], build_hamiltonian(sys, cfg)\n",
           "tests/test_fock_oracle.py::TestOneEvaluationPerTime::test_rho_routes_assemble_h_once"),
    # each panel of the heat kernel takes every column of its block, not 128 of them
    Mutant("src/qsubthermo/fock.py", "columns, end = slice(start, start + _SERIES_BLOCK),", "columns, end = slice(None),",
           "tests/test_fock_sectors.py::test_oracle_calls_stay_below_one_dense_hamiltonian[linear-_heat_kernel]"),
    # the edge list deduplicated by np.unique, which imports numpy.ma
    Mutant("src/qsubthermo/fock.py", "    rows, cols = np.divmod(keys[np.append(True, keys[1:] != keys[:-1])], dim)\n",
           "    rows, cols = np.divmod(np.unique(keys), dim)\n",
           "tests/test_cli.py::TestOutput::test_oracle_commands_never_load_numpy_ma"),
    # a symmetric panel's rows above its diagonal no longer stand for their mirror
    Mutant("src/qsubthermo/fock.py", "rho[..., : start if a == b else 0, :] *= 2.0", "rho[..., : start if a == b else 0, :] *= 1.0",
           "tests/test_fock_oracle.py::TestHeatNumeric::test_series_blocks_match_pointwise_loop[split]"),
    # a series keeps the last stack's phases while it forms the next
    Mutant("src/qsubthermo/fock.py", "        del c, s  # before the next stack's phases are formed\n", "",
           "tests/test_fock_sectors.py::test_oracle_calls_stay_below_one_dense_hamiltonian[linear-long_heat_series]"),
    # figure 1 reports its one evaluation under hot_a in both columns
    Mutant("src/qsubthermo/cli.py", '("dQ_ab_hot_b", "rwa", 0.1, "hot_b", "dq_ab")',
           '("dQ_ab_hot_b", "rwa", 0.1, "hot_a", "dq_ab")',
           "tests/test_cli.py::TestFigureCommand::test_figure_columns_are_each_systems_heat_reports[1]"),
    # every column reads the first system's evaluation, so figure 2 reports the linear one for the RWA columns
    Mutant("src/qsubthermo/cli.py", "_report(grid, products[kind, g], ", "_report(grid, next(iter(products.values())), ",
           "tests/test_cli.py::TestFigureCommand::test_figure_columns_are_each_systems_heat_reports[2]"),
    # a figure holds 1024 rows a block again
    Mutant("src/qsubthermo/cli.py", "_BLOCK_ROWS = 256", "_BLOCK_ROWS = 1024",
           "tests/test_cli.py::TestOutput::test_figure_holds_one_small_block"),
    # the package imports the oracle eagerly, so every figure compiles it
    Mutant("src/qsubthermo/__init__.py", "from . import analytic, model\n", "from . import analytic, fock, model\n",
           "tests/test_cli.py::TestOutput::test_each_command_loads_only_the_modules_it_runs[figure-3]"),
    # the audit norm drops the imaginary part of the commutator's edges
    Mutant("src/qsubthermo/fock.py", "np.sum(v.real**2 + v.imag**2)", "np.sum(v.real**2)",
           "tests/test_diagnostics.py::TestDecompositionAudit::test_norm_is_the_root_of_the_exact_sum_of_squares[linear]"),
    # a figure builds its grid from an unchecked t_max, where 0 * inf is a NaN
    Mutant("src/qsubthermo/cli.py", '_checked(t_max, "t_max", positive=number > 3)', "None",
           "tests/test_cli.py::TestFigureCommand::test_bad_t_max_is_named_as_given[inf-1-non-negative]"),
    # a private name such as inspect.unwrap's __wrapped__ imports the oracle again
    Mutant("src/qsubthermo/__init__.py", 'private = name.startswith("_") and name != "__all__"', "private = False",
           "tests/test_exports.py::test_a_private_probe_loads_no_module"),
    # a window average takes phi(z) = 1 where |z| is still a thousandth, far above eps
    Mutant("src/qsubthermo/analytic.py", "where=abs(z) > np.finfo(float).eps", "where=abs(z) > 1e-2",
           "tests/test_analytic.py::test_window_average_matches_multiprecision_quadrature[InteractionKind.LINEAR-0.49-taus6]"),
    # the (+, -) block's middle factor takes the opposite sign
    Mutant("src/qsubthermo/fock.py", "(heads - mirrors) / 2.0", "(mirrors - heads) / 2.0",
           "tests/test_fock_sectors.py::test_split_is_q_itself[linear]"),
    # the mirrors weigh into Q- as into Q+, so Q- is no longer orthogonal to Q+
    Mutant("src/qsubthermo/fock.py", "np.stack([sign, -sign])", "np.stack([sign, sign])",
           "tests/test_fock_sectors.py::test_split_is_q_itself[rwa]"),
]


def copy_tree(dest: Path) -> None:
    dest.mkdir(parents=True)
    for name in COPIED:
        if (ROOT / name).is_dir():
            shutil.copytree(ROOT / name, dest / name, ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        else:
            shutil.copy2(ROOT / name, dest / name)


def pytest_status(tree: Path, tests: list[str]) -> int:
    """pytest's exit status for these tests in tree: 0 passed, 1 some failed, anything else could not run."""
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=TIMEOUT_S)
    return proc.returncode


def mutant_verdict(row: Mutant) -> str:
    """"killed", "SURVIVED" or why the row could not run, from its own temporary copy."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "mutant"
        copy_tree(tree)
        path = tree / row.file
        text = path.read_text(encoding="utf-8")
        if text.count(row.old) != 1:
            return f"old text found {text.count(row.old)} times, not once"
        path.write_text(text.replace(row.old, row.new), encoding="utf-8")
        status = pytest_status(tree, [row.test])
        return {0: "SURVIVED", 1: "killed"}.get(status, f"could not run (pytest status {status})")


def main(argv: list[str]) -> int:
    rows = [MUTANTS[int(i)] for i in argv] if argv else MUTANTS
    problems = []
    with tempfile.TemporaryDirectory() as tmp:
        clean = Path(tmp) / "clean"
        copy_tree(clean)
        status = pytest_status(clean, sorted({row.test for row in rows}))
        if status != 0:
            print(f"FAIL the named tests do not pass unmutated (pytest status {status})")
            return 1
    with ThreadPoolExecutor(max_workers=len(os.sched_getaffinity(0))) as pool:
        for index, (row, verdict) in enumerate(zip(rows, pool.map(mutant_verdict, rows))):
            print(f"{'ok  ' if verdict == 'killed' else 'FAIL'} {index}: {row.file}: {row.old.strip()!r} -> "
                  f"{row.new.strip()!r}: {verdict} by {row.test}", flush=True)
            if verdict != "killed":
                problems.append(index)
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
