"""Command-line front end: figure CSVs, parameter sweeps, oracle comparison, audits.

Output files are plain CSV (UTF-8, ``\\n`` newlines, 17-significant-digit
floats, so every value round-trips exactly).  ``main`` opens ``--out`` for
every command, ``audit`` included, before the command evaluates anything, as a
temporary sibling that replaces it only on success.  Each figure's header and
columns are read from one table, ``_FIGURES``; its time grid is built, evaluated
(each system once per block, for all the preparations its columns take),
formatted (with one format string, so each column of a block holds one format)
and written ``_BLOCK_ROWS`` rows at a time, so its memory does not grow with
``--samples``; on stdout, blocks written before a failing one stay printed.
Exit codes: 0 success, 2 bad parameters (a coupling the kind does not take, an
empty sweep grid, a NaN or negative ``--tol`` included), a flag or config key
the command does not read, infeasible truncation, an unreadable ``--config`` or
an unwritable ``--out``, 3 singular coupling (g = omega/2), 4 tolerance breach
in ``compare`` (a NaN deviation breaches it too).  A command imports only the
modules it runs: ``figure`` and ``sweep`` run the closed forms alone, and
``compare`` and ``audit`` the Fock oracle too.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import os
import sys as _sys
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, TextIO

import numpy as np

from . import __version__
from .analytic import _evaluate_table, _report, heat_transfer, scan_violations, time_averaged_heat
from .model import (
    MINIMAL_KINDS,
    TAIL_TOL_DEFAULT,
    InteractionKind,
    ModelError,
    OscillatorSystem,
    SingularCouplingError,
    ThermalPreparation,
    _checked,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SINGULAR = 3
EXIT_TOLERANCE = 4

# Figure presets share the Kelvin-label convention T_hot = 100, T_cold = 50 in
# units where omega = 1, which reproduces beta_b - beta_a = 0.01.
TEMP_HOT = 100.0
TEMP_COLD = 50.0

# Inverse temperatures of ``compare`` without temperature flags: T = 100/50
# needs 2764 levels per mode, beta = (1, 2) gets 28 for the default coupling.
COMPARE_BETAS = (1.0, 2.0)

# Levels per mode of ``audit`` without --fock-n.  The commutator norms do not
# depend on the temperatures, so the cutoff is not sized from a thermal tail.
AUDIT_LEVELS = 24


# Grid points built, evaluated, formatted and written at a time by a figure.
# A block's Python floats, row tuples and text take about 110 B a value, so 256
# rows of figure 3's six columns hold about 0.17 MB, while each evaluation
# still runs vectorised.
_BLOCK_ROWS = 256

# The CSV name of each HeatReport field, read by figure 3's and compare's headers.
_CSV_NAMES = {"dq_a": "dQ_a", "dq_b": "dQ_b", "dq_ab": "dQ_ab", "ds0": "dS0", "csl_ok": "csl_ok"}

# Each figure's columns after its grid's: (header, kind, g/omega, preparation, HeatReport field).
# Figures 4-5 print the field dq_ab averaged over each window tau.
_FIGURES = {
    1: (("dQ_ab_hot_a", "rwa", 0.1, "hot_a", "dq_ab"), ("dQ_ab_hot_b", "rwa", 0.1, "hot_b", "dq_ab")),
    2: (("dQ_a_linear_hot_a", "linear", 0.1, "hot_a", "dq_a"), ("dQ_a_linear_hot_b", "linear", 0.1, "hot_b", "dq_a"),
        ("dQ_a_rwa_hot_a", "rwa", 0.1, "hot_a", "dq_a"), ("dQ_a_rwa_hot_b", "rwa", 0.1, "hot_b", "dq_a")),
    3: tuple((name, "linear", 0.49, "hot_a", field) for field, name in _CSV_NAMES.items()),
    4: (("avg_dQ_ab_linear", "linear", 0.49, "hot_a", "dq_ab"), ("avg_dQ_ab_rwa", "rwa", 0.49, "hot_a", "dq_ab")),
    5: (("avg_dQ_ab", "linear", 0.51, "hot_a", "dq_ab"),),
}


def write_csv(out: TextIO, header: list[str], blocks: Iterable[Iterable[tuple]], footer: str | None = None) -> None:
    """Write each block of row tuples as it is computed, so a long curve is never
    held whole; the header waits for the first block, so input that fails there
    writes nothing.  A block is formatted with one %: its first row's line format,
    repeated per row, takes the block's values in row order, so each column of a
    block holds one format: 17 significant digits for a float (numpy's included),
    1/0 for a bool, str() for the rest (sweep's counts and gap rows' "" alike)."""
    blocks = iter(blocks)
    first = next(blocks, ())
    out.write(",".join(header) + "\n")
    for rows in itertools.chain([first], blocks):
        rows = iter(rows)
        head = next(rows, None)
        if head is not None:
            line = ",".join("%d" if isinstance(v, bool) else "%.17g" if isinstance(v, float) else "%s" for v in head)
            values = (*head, *itertools.chain.from_iterable(rows))
            out.write((line + "\n") * (len(values) // len(head)) % values)
    if footer is not None:
        out.write(footer + "\n")


@contextlib.contextmanager
def _output(path: Path | None) -> Iterator[TextIO]:
    """Stdout, or a temporary sibling of ``path`` (through symlinks) that replaces
    it only on success; ``main`` opens it before a command evaluates anything.  An
    existing path that is no regular file (a device, a pipe) is written as is."""
    if path is None:
        yield _sys.stdout
        return
    target = Path(os.path.realpath(path))
    staged = target.is_file() or not target.exists()
    temp = target.with_name(f".{target.name}.{os.getpid()}.tmp") if staged else target
    try:
        out = open(temp, "x" if staged else "w", encoding="utf-8")
    except OSError as exc:
        raise ModelError(f"cannot write --out {path}: {exc.strerror}") from None
    try:
        with out:
            yield out
        if staged:
            os.replace(temp, target)
    except BaseException:
        if staged:
            temp.unlink(missing_ok=True)
        raise


def positive_int(text: str) -> int:
    if not (text.strip().isdecimal() and int(text) > 0):
        raise ValueError(f"expected a positive integer, got {text!r}")
    return int(text)


def float_list(text: str) -> list[float]:
    values = [float(part) for part in text.split(",") if part.strip()]
    if not values:
        raise ValueError(f"expected comma-separated numbers, got {text!r}")
    return values


def _tolerance(text: str) -> float:
    """compare's --tol: a number, inf included, that is neither NaN nor negative."""
    with contextlib.suppress(ValueError):
        if float(text) >= 0.0:
            return float(text)
    raise argparse.ArgumentTypeError(f"expected a non-negative number, got {text!r}")


class _Param(NamedTuple):
    key: str  # the config key; the flag is --key with dashes
    convert: Callable[[str], object]
    builtin: object  # the value given by neither flag nor file; None leaves it to the command
    help: str
    reads: tuple[str, ...]  # the commands that read it; the others refuse it
    choices: tuple[str, ...] | None = None


# Readers: the two commands that build an oracle system, the three on a time grid.
_ORACLE, _TIMED = ("audit", "compare"), ("figure", "sweep", "compare")
# Every parameter a config file may set, by config key: its flag, check, built-in value, help and readers.
_PARAMS = {param.key: param for param in (
    _Param("omega", float, 1.0, "common oscillator frequency", ("figure", "sweep", "audit", "compare")),
    _Param("g", float, None, "coupling strength (default 0.1, 0 for kind none)", _ORACLE),
    _Param("kind", str, InteractionKind.LINEAR.value, "interaction kind", _ORACLE, tuple(k.value for k in InteractionKind)),
    _Param("mass", float, None, "mass for minimal-coupling kinds (default 1)", _ORACLE),
    _Param("charge", float, None, "coupling q for minimal-coupling kinds (default 0)", _ORACLE),
    _Param("beta_a", float, None, "inverse temperature of oscillator a", ("sweep", "compare")),
    _Param("beta_b", float, None, "inverse temperature of oscillator b", ("compare",)),
    _Param("temp_a", float, None, "temperature of a (k_B = 1; excludes --beta-a)", ("compare",)),
    _Param("temp_b", float, None, "temperature of b (excludes --beta-b)", ("compare",)),
    _Param("t_max", float, None, "largest time on the grid (default 20 for compare, 50/omega otherwise)", _TIMED),
    _Param("samples", positive_int, None, "grid points (default 1000 for figures 1-3, 200 for figures 4-5, "
           "512 for sweep, 81 for compare)", _TIMED),
    _Param("fock_n", int, None, f"Fock levels per mode (default: automatic; {AUDIT_LEVELS} for audit)", _ORACLE),
    _Param("tail_tol", float, TAIL_TOL_DEFAULT, "thermal tail tolerance", _ORACLE),
    _Param("g_grid", float_list, None, "comma-separated couplings", ("sweep",)),
    _Param("dbeta_grid", float_list, None, "comma-separated beta_b - beta_a offsets", ("sweep",)),
)}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsubthermo",
        allow_abbrev=False,  # a flag is spelled in full, here and after each command
        description="Heat transfer between two thermal oscillators: "
        "figures, sweeps, oracle comparisons and decomposition audits.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("--config", type=Path, help="flat key=value file; flags override it")
    parser.add_argument("--out", type=Path, help="output path (default stdout)")

    commands = parser.add_subparsers(dest="command", required=True)
    add_command = functools.partial(commands.add_parser, allow_abbrev=False)
    fig = add_command("figure", help="reproduce one of the five preset curves as CSV")
    fig.add_argument("number", type=int, choices=range(1, 6))
    comp = add_command("compare", help="analytic vs Fock-oracle heat curves (default beta = 1, 2)")
    comp.add_argument("--tol", type=_tolerance, default=1e-6, help="max relative deviation allowed")
    add_command("audit", help="commutator norms of the decomposition")
    add_command("sweep", help="violation classification over a (g, dbeta) grid")
    # A table flag parses on either side of the command: before it, None tells
    # _resolve an absent flag from a given one; after it, SUPPRESS keeps the
    # value given before unless given again.  _resolve refuses the unread ones.
    for param in _PARAMS.values():
        notes = ("" if param.builtin is None else f" (default {param.builtin})") + "; read by " + ", ".join(param.reads)
        for owner, default in [(parser, None), *((command, argparse.SUPPRESS) for command in commands.choices.values())]:
            owner.add_argument("--" + param.key.replace("_", "-"), type=param.convert, choices=param.choices,
                               default=default, help=param.help + notes)
    return parser


def _read_config(path: Path) -> dict[str, object]:
    """Flat key=value lines ('#' starts a comment), each value checked as its flag would be."""
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ModelError(f"cannot read --config: {exc}") from None
    values = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, text = (part.strip() for part in line.partition("="))
        if not eq:
            raise ModelError(f"config line {raw!r} is not key=value")
        if key not in _PARAMS:
            raise ModelError(f"unknown config key {key!r}")
        param = _PARAMS[key]
        try:
            values[key] = param.convert(text)
        except ValueError as exc:
            raise ModelError(f"config key {key}: {exc}") from None
        if param.choices is not None and values[key] not in param.choices:
            raise ModelError(f"config key {key}: {text!r} is not one of {', '.join(param.choices)}")
    return values


def _resolve(args: argparse.Namespace) -> argparse.Namespace:
    """A parameter the command reads takes its flag, else its file value, else its built-in one; others are refused."""
    file_values = _read_config(args.config) if args.config is not None else {}
    for key, param in _PARAMS.items():
        flag = vars(args).pop(key, None)
        if args.command in param.reads:
            setattr(args, key, flag if flag is not None else file_values.get(key, param.builtin))
        elif flag is not None or key in file_values:
            given = "--" + key.replace("_", "-") if flag is not None else f"config key {key}"
            raise ModelError(f"{args.command} does not read {given}")
    return args


def _preparation(args: argparse.Namespace) -> ThermalPreparation:
    has_beta = args.beta_a is not None or args.beta_b is not None
    has_temp = args.temp_a is not None or args.temp_b is not None
    if has_beta and has_temp:
        raise ModelError("give either betas or temperatures, not both")
    if has_temp:
        if args.temp_a is None or args.temp_b is None:
            raise ModelError("both --temp-a and --temp-b are required")
        return ThermalPreparation.from_temperatures(args.temp_a, args.temp_b)
    if has_beta:
        if args.beta_a is None or args.beta_b is None:
            raise ModelError("both --beta-a and --beta-b are required")
        return ThermalPreparation(args.beta_a, args.beta_b)
    return ThermalPreparation(*COMPARE_BETAS)


def _system(args: argparse.Namespace) -> OscillatorSystem:
    kind = InteractionKind(args.kind)  # every given coupling goes to the model, which decides what a kind takes
    defaults = (0.0, 1.0, 0.0) if kind in MINIMAL_KINDS else (0.0 if kind is InteractionKind.NONE else 0.1, None, None)
    g, m, q = (d if v is None else v for v, d in zip((args.g, args.mass, args.charge), defaults))
    return OscillatorSystem(args.omega, args.omega, kind, g=g, m=m, q=q)


def run_figure(args: argparse.Namespace, out: TextIO) -> int:
    omega, number = OscillatorSystem(args.omega, args.omega).omega_a, args.number  # checked before 50/omega
    t_max = args.t_max if args.t_max is not None else 50.0 / omega
    _checked(t_max, "t_max", positive=number > 3)  # before the grid, which would turn inf into NaN
    samples = args.samples if args.samples is not None else (1000 if number <= 3 else 200)
    hot_a = ThermalPreparation.from_temperatures(TEMP_HOT, TEMP_COLD)
    preps, columns = {"hot_a": hot_a, "hot_b": hot_a.swapped()}, _FIGURES[number]
    systems = {(kind, g): OscillatorSystem(omega, omega, InteractionKind(kind), g=g * omega) for _, kind, g, _, _ in columns}

    def block(grid):
        if number > 3:  # dQ_ab averaged over the windows grid, one system per column
            values = [time_averaged_heat(systems[kind, g], preps[prep], grid) for _, kind, g, prep, _ in columns]
        else:  # each system's forms evaluated once, then reported once per preparation
            products = {key: _evaluate_table(grid, sys_)[1] for key, sys_ in systems.items()}
            reports = {(kind, g, prep): _report(grid, products[kind, g], preps[prep], systems[kind, g])
                       for _, kind, g, prep, _ in columns}
            values = [getattr(reports[kind, g, prep], field) for _, kind, g, prep, field in columns]
        return zip(grid.tolist(), *(value.tolist() for value in values))
    write_csv(out, ["tau" if number > 3 else "t", *(column[0] for column in columns)], (
        block(_grid(number, t_max, samples, start)) for start in range(0, samples, _BLOCK_ROWS)
    ))
    return EXIT_OK


def _grid(number: int, t_max: float, samples: int, start: int) -> np.ndarray:
    """Points start to start + _BLOCK_ROWS of a figure's grid, so no figure holds
    it whole: i * (t_max / samples) from i = 1 for figures 4-5, and for figures
    1-3 np.linspace(0.0, t_max, samples) bit for bit.  Like linspace, that takes
    i * step, or i / div * t_max where the step underflows to zero, adds its start
    0.0 (a -0.0 becomes 0.0) and sets the last of two or more points to t_max."""
    index = np.arange(start, min(start + _BLOCK_ROWS, samples))
    if number > 3:
        return (index + 1) * (t_max / samples)
    div = max(samples - 1, 1)
    step = t_max / div
    times = (index * step if step != 0.0 else index / div * t_max) + 0.0
    if index[-1] == samples - 1 > 0:
        times[-1] = t_max
    return times


def run_compare(args: argparse.Namespace, out: TextIO) -> int:
    from .fock import FockConfig, heat_series_numeric

    sys_ = _system(args)
    prep = _preparation(args)
    if args.fock_n is None:
        cfg = FockConfig.auto(sys_, prep, tail_tol=args.tail_tol)
    else:
        cfg = FockConfig(args.fock_n, args.fock_n, tail_tol=args.tail_tol)
    t_max = args.t_max if args.t_max is not None else 20.0
    samples = args.samples if args.samples is not None else 81
    times = np.linspace(0.0, t_max, samples)
    analytic = heat_transfer(times, sys_, prep)
    oracle = heat_series_numeric(sys_, prep, cfg, times)
    fields = ("dq_a", "dq_b", "ds0")
    pairs = [(getattr(analytic, k), np.array([getattr(r, k) for r in oracle])) for k in fields]
    # np.max, unlike max(), keeps a NaN deviation, and the gate below fails on it
    worst = float(np.max([(abs(x - y) / np.maximum(1.0, abs(x))).max(initial=0.0) for x, y in pairs]))
    write_csv(
        out,
        ["t", *(f"{_CSV_NAMES[k]}_{route}" for k in fields for route in ("analytic", "oracle"))],
        [zip(times.tolist(), *(column.tolist() for pair in pairs for column in pair))],
        footer=f"# max_relative_deviation,{worst:.17g}",
    )
    if not worst <= args.tol:
        print(f"deviation {worst:.3e} exceeds tolerance {args.tol:.3e}", file=_sys.stderr)
        return EXIT_TOLERANCE
    return EXIT_OK


def run_audit(args: argparse.Namespace, out: TextIO) -> int:
    from .fock import FockConfig, decomposition_audit

    levels = args.fock_n if args.fock_n is not None else AUDIT_LEVELS
    audit = decomposition_audit(_system(args), FockConfig(levels, levels, tail_tol=args.tail_tol))
    print(f"norm_H0V={audit.norm_h0v:.6e}", file=out)
    print(f"norm_HV={audit.norm_hv:.6e}", file=out)
    print(f"norm_H0H={audit.norm_h0h:.6e}", file=out)
    print(f"csl_safe={'true' if audit.csl_safe else 'false'}", file=out)
    return EXIT_OK


def run_sweep(args: argparse.Namespace, out: TextIO) -> int:
    omega = OscillatorSystem(args.omega, args.omega).omega_a  # checked before 50/omega
    base_beta = args.beta_a if args.beta_a is not None else 1.0 / TEMP_HOT
    t_max = args.t_max if args.t_max is not None else 50.0 / omega
    samples = args.samples if args.samples is not None else 512
    g_grid = args.g_grid if args.g_grid is not None else [f * omega for f in (0.1, 0.3, 0.49, 0.5, 0.51)]
    dbeta_grid = args.dbeta_grid if args.dbeta_grid is not None else [0.005, 0.01]
    rows = []
    for g, dbeta in itertools.product(g_grid, dbeta_grid):
        sys_ = OscillatorSystem(omega, omega, InteractionKind.LINEAR, g=g)
        prep = ThermalPreparation(base_beta, base_beta + dbeta)
        try:
            profile = scan_violations(sys_, prep, t_max, samples)
            rows.append((g, dbeta, len(profile.violations), profile.classification.value))
        except SingularCouplingError:  # g = omega/2: the closed forms have no propagator there
            rows.append((g, dbeta, "", "gap"))
    write_csv(out, ["g", "dbeta", "violations", "classification"], [rows])
    return EXIT_OK


_RUNNERS = {"figure": run_figure, "compare": run_compare, "audit": run_audit, "sweep": run_sweep}


def _stray_flag(parser: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """An unknown --flag before the command with the values after it, [] if
    none: argparse would take its first value for the command and name that."""
    known, tokens = parser._option_string_actions, iter(argv)
    for token in tokens:
        flag, eq, _ = token.partition("=")
        if flag in known:
            if known[flag].nargs != 0 and not eq:
                next(tokens, None)  # its value
        elif token.startswith("--") and token != "--" and " " not in token:
            return [token, *itertools.takewhile(lambda value: value not in _RUNNERS and not value.startswith("-"), tokens)]
        else:
            return []  # the command, or a positional argparse reports itself
    return []


def main(argv: list[str] | None = None) -> int:
    parser, argv = build_parser(), _sys.argv[1:] if argv is None else argv
    stray = _stray_flag(parser, argv)
    if stray:
        parser.error("unrecognized arguments: " + " ".join(stray))
    args = parser.parse_args(argv)
    try:
        args = _resolve(args)
        with _output(args.out) as out:
            return _RUNNERS[args.command](args, out)
    except SingularCouplingError as exc:
        print(f"singular configuration: {exc}", file=_sys.stderr)
        return EXIT_SINGULAR
    except ModelError as exc:
        print(f"invalid configuration: {exc}", file=_sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    raise SystemExit(main())
