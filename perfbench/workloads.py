"""The three workloads: inputs drawn from the seed, one pass, and its checks.

Every program call runs in a fresh interpreter through ``child.py``, so a
pass sees the program the way a user does: cold caches, its own process and
its own peak resident set.  The harness itself never imports qsubthermo.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
OP_TIMEOUT_S = 150

# The compare gate the command line applies by default, and the cutoff that
# meets it at beta = (0.5, 1) for every coupling drawn below.
COMPARE_TOL = 1e-6
CLI_LEVELS = 40
CLI_TAIL_TOL = 1e-8
CLI_BETAS = (0.5, 1.0)
CURVE_SAMPLES = 24000


class Op:
    """One operation of a pass: a program call in its own process."""

    def __init__(self, name: str, group: str, check=None) -> None:
        self.name, self.group, self.check = name, group, check
        self.wall_s = self.program_s = self.rss_mb = 0.0
        self.failed = False
        self.stdout = ""


def spawn(args: list[str], stats_path: Path) -> tuple[float, dict | None, str]:
    """Run child.py with args; (wall seconds, its stats or None on failure, stdout)."""
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), *args], cwd=ROOT, capture_output=True, text=True, timeout=OP_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return time.perf_counter() - start, None, ""
    wall = time.perf_counter() - start
    if proc.returncode != 0 or not stats_path.is_file():
        sys.stderr.write(f"child {args[:1]} exited {proc.returncode}: {proc.stderr[-2000:]}\n")
        return wall, None, proc.stdout
    return wall, json.loads(stats_path.read_text(encoding="utf-8")), proc.stdout


def import_seconds(work: Path) -> float:
    """Seconds to import qsubthermo.cli in a fresh interpreter."""
    stats_path = work / "import.json"
    stats_path.unlink(missing_ok=True)
    _, stats, _ = spawn(["import", str(stats_path)], stats_path)
    if stats is None:
        raise SystemExit("the program does not import")
    return stats["import_s"]


def run_cli(op: Op, argv: list[str], work: Path) -> None:
    stats_path = work / f"{op.name}.json"
    stats_path.unlink(missing_ok=True)
    op.wall_s, stats, op.stdout = spawn(["cli", str(stats_path), *argv], stats_path)
    if stats is None or stats["rc"] != 0:
        op.failed = True
        if stats is not None:
            sys.stderr.write(f"{op.name}: exit code {stats['rc']}\n")
        return
    op.program_s, op.rss_mb = stats["main_s"], stats["rss_mb"]


class ClosedForm:
    """Figures 1-5 and sweep: all of analytic, quadrature and scan_violations, no fock."""

    def __init__(self, rng: np.random.Generator) -> None:
        # Figures 1-3 on a dense grid, so pointwise evaluation, not start-up, sets their time.
        self.t_max = float(rng.uniform(30.0, 60.0))
        self.curve_rows = sorted(rng.choice(CURVE_SAMPLES, size=48, replace=False).tolist())
        self.window_rows = {n: sorted(rng.choice(200, size=3, replace=False).tolist()) for n in (4, 5)}

    def run_pass(self, work: Path) -> list[Op]:
        ops = []
        for number in (1, 2, 3, 4, 5):
            out = work / f"figure{number}.csv"
            grid = ["--t-max", repr(self.t_max), "--samples", str(CURVE_SAMPLES)] if number <= 3 else []
            rows = self.curve_rows if number <= 3 else self.window_rows[number]
            group = "curves" if number <= 3 else f"figure{number}"
            op = Op(f"figure{number}", group,
                    lambda op, n=number, out=out, rows=rows: checks.check_figure(n, out.read_text(), rows))
            run_cli(op, [*grid, "--out", str(out), "figure", str(number)], work)
            ops.append(op)
        out = work / "sweep.csv"
        op = Op("sweep", "sweep", lambda op, out=out: checks.check_sweep(out.read_text()))
        run_cli(op, ["--out", str(out), "sweep"], work)
        ops.append(op)
        return ops

    def details(self, ops: list[Op]) -> dict[str, tuple[float, str]]:
        return {f"{g}_s": (_group_seconds(ops, g), "s") for g in ("curves", "figure4", "figure5", "sweep")}


class OracleCli:
    """compare and audit, each in a fresh process, so every call pays one cold
    assembly and one cold eigh of a 1600-dimensional matrix."""

    def __init__(self, rng: np.random.Generator) -> None:
        beta_a, beta_b = CLI_BETAS
        self.compares = [
            {"kind": "rwa", "g": float(rng.uniform(0.05, 0.45)), "beta_a": beta_a, "beta_b": beta_b, "tol": COMPARE_TOL},
            # Past g = 0.2 the linear coupling pumps population beyond 40 levels within t = 20.
            {"kind": "linear", "g": float(rng.uniform(0.05, 0.2)), "beta_a": beta_a, "beta_b": beta_b, "tol": COMPARE_TOL},
        ]
        self.compare_rows = sorted(rng.choice(81, size=8, replace=False).tolist())
        minimal = str(rng.choice(["minimal-a", "minimal-b"]))
        self.audits = [
            {"kind": "rwa", "g": float(rng.uniform(0.05, 0.45)), "n": CLI_LEVELS},
            {"kind": "linear", "g": float(rng.uniform(0.05, 0.45)), "n": CLI_LEVELS},
            {"kind": minimal, "m": float(rng.uniform(0.5, 2.0)), "q": float(rng.uniform(0.1, 0.5)), "n": CLI_LEVELS},
        ]

    @staticmethod
    def _coupling(spec: dict) -> list[str]:
        if spec["kind"].startswith("minimal"):
            return ["--kind", spec["kind"], "--mass", repr(spec["m"]), "--charge", repr(spec["q"])]
        return ["--kind", spec["kind"], "--g", repr(spec["g"])]

    def run_pass(self, work: Path) -> list[Op]:
        ops = []
        levels = ["--fock-n", str(CLI_LEVELS), "--tail-tol", repr(CLI_TAIL_TOL)]
        for spec in self.compares:
            out = work / f"compare-{spec['kind']}.csv"
            op = Op(f"compare-{spec['kind']}", "compare",
                    lambda op, spec=spec, out=out: checks.check_compare(spec, out.read_text(), self.compare_rows))
            betas = ["--beta-a", repr(spec["beta_a"]), "--beta-b", repr(spec["beta_b"])]
            run_cli(op, [*self._coupling(spec), *betas, *levels, "--out", str(out), "compare", "--tol", repr(spec["tol"])], work)
            ops.append(op)
        for spec in self.audits:
            op = Op(f"audit-{spec['kind']}", "audit", lambda op, spec=spec: checks.check_audit(spec, op.stdout))
            run_cli(op, [*self._coupling(spec), *levels, "audit"], work)
            ops.append(op)
        return ops

    def details(self, ops: list[Op]) -> dict[str, tuple[float, str]]:
        return {"compare_s": (_group_seconds(ops, "compare"), "s"), "audit_s": (_group_seconds(ops, "audit"), "s")}


class OracleLibrary:
    """The oracle battery on fresh systems of all five kinds in one process,
    then one long warm series: build once, evaluate many times."""

    SERIES_POINTS = 2000

    def __init__(self, rng: np.random.Generator) -> None:
        def betas() -> dict:
            cold, hot = float(rng.uniform(2.0, 3.0)), float(rng.uniform(1.2, 2.0))
            # Either oscillator may be the hot one, so both signs of the rule are exercised.
            return {"beta_a": hot, "beta_b": cold} if rng.random() < 0.5 else {"beta_a": cold, "beta_b": hot}

        def timing() -> dict:
            return {"t": float(rng.uniform(1.0, 6.0)), "times": np.linspace(0.0, rng.uniform(8.0, 15.0), 25).tolist()}

        def minimal(kind: str) -> dict:
            return {"kind": kind, "n": 24, "m": float(rng.uniform(0.5, 2.0)), "q": float(rng.uniform(0.1, 0.4))}

        self.systems = [
            {"kind": "rwa", "n": 32, "g": float(rng.uniform(0.05, 0.45))},
            {"kind": "linear", "n": 32, "g": float(rng.uniform(0.05, 0.3))},
            {"kind": "none", "n": 24},
            minimal("minimal-a"),
            minimal("minimal-b"),
        ]
        for s in self.systems:
            s.update(**betas(), **timing(), tail_tol=1e-8)
        self.pairs = [{"n": 24, "k": 64, "tail_tol": 1e-8, "m": float(rng.uniform(0.5, 2.0)), "q": float(rng.uniform(0.1, 0.4))}]
        self.series = {"kind": "linear", "n": 40, "g": float(rng.uniform(0.05, 0.3)), "tail_tol": 1e-8,
                       "times": np.linspace(0.0, rng.uniform(20.0, 40.0), self.SERIES_POINTS).tolist(), **betas()}
        self.series_rows = sorted(rng.choice(self.SERIES_POINTS, size=24, replace=False).tolist())
        self.n_ops = 6 * len(self.systems) + len(self.pairs) + 2

    def run_pass(self, work: Path) -> list[Op]:
        spec_path, stats_path = work / "library-spec.json", work / "library.json"
        spec_path.write_text(json.dumps({"systems": self.systems, "pairs": self.pairs, "series": self.series}))
        stats_path.unlink(missing_ok=True)
        wall, stats, _ = spawn(["library", str(spec_path), str(stats_path)], stats_path)
        if stats is None or len(stats["ops"]) != self.n_ops:
            ops = [Op(f"library{i}", "battery") for i in range(self.n_ops)]
            for op in ops:
                op.failed = True
            return ops
        ops = []
        for record in stats["ops"]:
            group = "series" if record["name"].startswith("series.") else "battery"
            op = Op(record["name"], group)
            op.program_s, op.failed = record["s"], "error" in record
            if op.failed:
                sys.stderr.write(f"{op.name}: {record['error']}\n")
            ops.append(op)
        # The pass is one process: its wall time and resident set belong to the whole pass.
        ops[0].wall_s, ops[0].rss_mb = wall, stats["rss_mb"]
        # One check covers the outputs of every call that returned.
        checked = next((op for op in ops if not op.failed), None)
        if checked is not None:
            checked.check = lambda op: self._check(stats)
        return ops

    def _check(self, stats: dict) -> None:
        for spec, out in zip(self.systems, stats["systems"]):
            checks.check_library_system(spec, out)
        for value in stats["pairs"]:
            if value is not None:
                checks.check_spectrum(value)
        if stats["series"] is not None:
            s = self.series
            model = checks.ref.Gaussian("linear", 1.0, s["beta_a"], s["beta_b"], g=s["g"])
            checks.check_series(f"warm series linear n={s['n']}", s, stats["series"], model, self.series_rows)

    def details(self, ops: list[Op]) -> dict[str, tuple[float, str]]:
        warm = [op for op in ops if op.name == "series.warm"]
        rate = self.SERIES_POINTS / warm[0].program_s if warm and not warm[0].failed else float("nan")
        return {"oracle_battery_s": (_group_seconds(ops, "battery"), "s"), "series_points_per_s": (rate, "1/s")}


def _group_seconds(ops: list[Op], group: str) -> float:
    return sum(op.program_s for op in ops if op.group == group)


WORKLOADS = {"closed_form": ClosedForm, "oracle_cli": OracleCli, "oracle_library": OracleLibrary}
