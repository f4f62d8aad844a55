"""Show that every output check accepts real output and rejects corrupted output.

    python3 perfbench/selftest.py

Runs the program at small sizes in this process, passes each output through
its check, then feeds the check corrupted copies (a sign-flipped column, a
relative perturbation above the check's tolerance, a swapped classification,
a flipped verdict) and requires a CheckFailed for each.  Exits 1 if any real
output is rejected or any corruption accepted.
"""

from __future__ import annotations

import contextlib
import io
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import child  # noqa: E402  (puts the checkout's src/ on sys.path)

WORK = HERE / "out" / "selftest"
FAILURES: list[str] = []


def expect(name: str, check, corrupt: bool) -> None:
    try:
        check()
    except checks.CheckFailed as exc:
        ok = corrupt
        detail = f" ({exc})" if not corrupt else ""
    else:
        ok, detail = not corrupt, ""
    print(f"{'ok  ' if ok else 'FAIL'} {'rejects' if corrupt else 'accepts'} {name}{detail}")
    if not ok:
        FAILURES.append(name)


def edit_csv(text: str, row: int, col: int, fn) -> str:
    """Apply fn to one cell of data row `row` (0-based, header excluded)."""
    lines = text.splitlines()
    cells = lines[row + 1].split(",")
    cells[col] = fn(cells[col])
    lines[row + 1] = ",".join(cells)
    return "\n".join(lines) + "\n"


def scaled(factor: float):
    return lambda cell: repr(float(cell) * factor)


def cli_output(cli, argv: list[str], out: Path | None = None) -> str:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        rc = cli.main((["--out", str(out)] if out else []) + argv)
    if rc != 0:
        raise SystemExit(f"qsubthermo {' '.join(argv)} exited {rc}")
    return out.read_text() if out else buffer.getvalue()


def figures(cli) -> None:
    text = {n: cli_output(cli, ["--samples", "400", "figure", str(n)], WORK / f"f{n}.csv") for n in (1, 2, 3)}
    text.update({n: cli_output(cli, ["--samples", "4", "figure", str(n)], WORK / f"f{n}.csv") for n in (4, 5)})
    rows = {1: [7, 150], 2: [7, 150], 3: [7, 150], 4: [1, 3], 5: [1, 3]}
    for n in (1, 2, 3, 4, 5):
        expect(f"figure {n}", lambda n=n: checks.check_figure(n, text[n], rows[n]), False)
    flip = lambda cell: repr(-float(cell))  # noqa: E731
    expect("figure 1 with a sign-flipped column",
           lambda: checks.check_figure(1, edit_csv(text[1], 150, 2, flip), rows[1]), True)
    expect("figure 2 with a 1e-6 perturbation",
           lambda: checks.check_figure(2, edit_csv(text[2], 150, 1, scaled(1 + 1e-6)), rows[2]), True)
    expect("figure 3 with dQ_ab != dQ_b - dQ_a off the sampled rows",
           lambda: checks.check_figure(3, edit_csv(text[3], 200, 3, scaled(1 + 1e-6)), rows[3]), True)
    expect("figure 3 with a flipped csl_ok",
           lambda: checks.check_figure(3, edit_csv(text[3], 200, 5, lambda c: "0" if c == "1" else "1"), rows[3]), True)
    expect("figure 3 with dS0 < 0",
           lambda: checks.check_figure(3, edit_csv(text[3], 200, 4, lambda c: "-1e-3"), rows[3]), True)
    expect("figure 4 with a 1e-6 perturbation",
           lambda: checks.check_figure(4, edit_csv(text[4], 3, 2, scaled(1 + 1e-6)), rows[4]), True)
    expect("figure 5 with a sign-flipped column",
           lambda: checks.check_figure(5, edit_csv(text[5], 1, 1, flip), rows[5]), True)


def sweep(cli) -> None:
    text = cli_output(cli, ["sweep"], WORK / "sweep.csv")
    expect("sweep", lambda: checks.check_sweep(text), False)
    swapped = text.replace("persistent", "PERSISTENT").replace("transient", "persistent").replace("PERSISTENT", "transient")
    expect("sweep with swapped classifications", lambda: checks.check_sweep(swapped), True)
    lines = text.splitlines()
    last = lines[-1].split(",")
    last[2] = str(int(last[2]) + 1)
    uneven = "\n".join(lines[:-1] + [",".join(last)]) + "\n"
    expect("sweep with unequal counts across dbeta rows", lambda: checks.check_sweep(uneven), True)
    expect("sweep without its gap row", lambda: checks.check_sweep(text.replace(",,gap", ",0,none")), True)


def compare(cli) -> None:
    for kind in ("rwa", "linear"):
        spec = {"kind": kind, "g": 0.15, "beta_a": 1.5, "beta_b": 2.5, "tol": 1e-6}
        text = cli_output(cli, ["--kind", kind, "--g", "0.15", "--beta-a", "1.5", "--beta-b", "2.5", "--fock-n", "20",
                                "--tail-tol", "1e-8", "compare"], WORK / f"compare-{kind}.csv")
        rows = [10, 40, 80]
        expect(f"compare {kind}", lambda: checks.check_compare(spec, text, rows), False)
        expect(f"compare {kind} with an oracle column off by 1e-5",
               lambda: checks.check_compare(spec, edit_csv(text, 40, 2, scaled(1 + 1e-5)), rows), True)
        expect(f"compare {kind} with an analytic column off by 1e-6",
               lambda: checks.check_compare(spec, edit_csv(text, 40, 3, scaled(1 + 1e-6)), rows), True)
        footer = text.splitlines()[-1]
        breach = text.replace(footer, "# max_relative_deviation,2e-06")
        expect(f"compare {kind} with a footer above the gate", lambda: checks.check_compare(spec, breach, rows), True)


def audit(cli) -> None:
    cases = [
        ({"kind": "rwa", "g": 0.3, "n": 12}, ["--kind", "rwa", "--g", "0.3"]),
        ({"kind": "linear", "g": 0.3, "n": 12}, ["--kind", "linear", "--g", "0.3"]),
        ({"kind": "minimal-b", "m": 1.5, "q": 0.3, "n": 12}, ["--kind", "minimal-b", "--mass", "1.5", "--charge", "0.3"]),
    ]
    for spec, flags in cases:
        text = cli_output(cli, [*flags, "--fock-n", "12", "audit"])
        expect(f"audit {spec['kind']}", lambda: checks.check_audit(spec, text), False)
        flipped = text.replace("true", "TRUE").replace("false", "true").replace("TRUE", "false")
        expect(f"audit {spec['kind']} with a flipped csl_safe", lambda: checks.check_audit(spec, flipped), True)
        norm = text.splitlines()[0].split("=")[1]
        skewed = text.replace(f"norm_H0V={norm}", f"norm_H0V={float(norm) * 1.00001 + 1e-9:.6e}", 1)
        expect(f"audit {spec['kind']} with unequal norms", lambda: checks.check_audit(spec, skewed), True)
    linear = cases[1][0]
    wrong_g = dict(linear, g=0.30001)
    text = cli_output(cli, ["--kind", "linear", "--g", "0.3", "--fock-n", "12", "audit"])
    expect("audit linear against a coupling off by 3e-5", lambda: checks.check_audit(wrong_g, text), True)


def library() -> None:
    system = {"kind": "minimal-a", "n": 20, "m": 1.2, "q": 0.3, "beta_a": 1.4, "beta_b": 2.6, "tail_tol": 1e-8,
              "t": 2.5, "times": [0.5 * i for i in range(20)]}
    linear = {"kind": "linear", "n": 20, "g": 0.2, "beta_a": 2.6, "beta_b": 1.4, "tail_tol": 1e-8,
              "t": 2.5, "times": [0.5 * i for i in range(20)]}
    spec = {"systems": [system, linear], "pairs": [{"n": 16, "k": 32, "tail_tol": 1e-8, "m": 1.2, "q": 0.3}],
            "series": dict(linear, times=[0.1 * i for i in range(100)])}
    stats = child.run_library(spec)
    for s, out in zip(spec["systems"], stats["systems"]):
        name = f"library {s['kind']}"
        expect(name, lambda: checks.check_library_system(s, out), False)
        corruptions = {
            "series off by 1e-5": ("series", lambda v: [[r[0], r[1] * (1 + 1e-5), *r[2:]] if i == 7 else r for i, r in enumerate(v)]),
            "Jarzynski average off by 1e-8": ("jarzynski", lambda v: v + 1e-8),
            "Jensen sides swapped": ("jensen", lambda v: [v[1] + 0.1, v[1]]),
            "negative entropy production": ("entropy", lambda v: [v[0] - v[1] - 1e-6, -1e-6, v[2]]),
            "effective Hamiltonian off by 1e-5": ("h_eff", lambda v: [[[x + 1e-5 for x in row] for row in v[0]], v[1]]),
            "true-energy transfer off by 1e-6": ("true_heat", lambda v: [v[0] + 1e-6 * (1 + abs(v[0])), *v[1:]]),
        }
        for label, (key, fn) in corruptions.items():
            bad = dict(out, **{key: fn(out[key])})
            expect(f"{name} with {label}", lambda bad=bad: checks.check_library_system(s, bad), True)
    expect("spectrum_match", lambda: checks.check_spectrum(stats["pairs"][0]), False)
    expect("spectrum_match off by 1e-6", lambda: checks.check_spectrum(stats["pairs"][0] + 1e-6), True)


def main() -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    try:
        cli, _ = child.import_program()
        figures(cli)
        sweep(cli)
        compare(cli)
        audit(cli)
        library()
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(f"{len(FAILURES)} failures" if FAILURES else "every check accepts real output and rejects each corruption")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    raise SystemExit(main())
