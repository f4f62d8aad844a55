"""Command-line front end: figure CSVs, parameter sweeps, oracle comparison, audits.

Output files are plain CSV (UTF-8, ``\\n`` newlines, 17-significant-digit
floats, so every value round-trips exactly).  Exit codes: 0 success, 2 bad
parameters or infeasible truncation, 3 singular coupling (g = omega/2),
4 tolerance breach in ``compare``.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import sys as _sys
from pathlib import Path

import numpy as np

from . import __version__
from .analytic import heat_transfer, time_averaged_heat
from .diagnostics import Classification, decomposition_audit, scan_violations
from .fock import TAIL_TOL_DEFAULT, FockConfig, heat_series_numeric
from .model import (
    InteractionKind,
    ModelError,
    OscillatorSystem,
    SingularCouplingError,
    ThermalPreparation,
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


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def write_csv(path: Path | None, header: list[str], rows, footer: str | None = None) -> None:
    """Stream the lines out, so a long curve is never held as one text."""
    body = (",".join(_fmt(v) for v in row) for row in rows)
    lines = itertools.chain([",".join(header)], body, [] if footer is None else [footer])
    with open(path, "w", encoding="utf-8") if path is not None else contextlib.nullcontext(_sys.stdout) as out:
        out.writelines(line + "\n" for line in lines)


def _parse_config_file(path: Path) -> dict[str, str]:
    """Flat key=value lines; '#' starts a comment."""
    values: dict[str, str] = {}
    for raw in path.read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ModelError(f"config line {raw!r} is not key=value")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsubthermo",
        description="Heat transfer between two thermal oscillators: "
        "figures, sweeps, oracle comparisons and decomposition audits.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("--config", type=Path, help="flat key=value file; flags override it")
    parser.add_argument("--omega", type=float, help="common oscillator frequency (default 1.0)")
    parser.add_argument("--g", type=float, help="coupling strength (default 0.1)")
    parser.add_argument(
        "--kind",
        choices=[k.value for k in InteractionKind],
        help="interaction kind (default linear)",
    )
    parser.add_argument("--mass", type=float, help="mass for minimal-coupling kinds")
    parser.add_argument("--charge", type=float, help="coupling q for minimal-coupling kinds")
    parser.add_argument("--beta-a", type=float, help="inverse temperature of oscillator a")
    parser.add_argument("--beta-b", type=float, help="inverse temperature of oscillator b")
    parser.add_argument("--temp-a", type=float, help="temperature of a (k_B = 1; excludes --beta-a)")
    parser.add_argument("--temp-b", type=float, help="temperature of b (excludes --beta-b)")
    parser.add_argument("--t-max", type=float, help="largest time on the grid (default 50/omega)")
    parser.add_argument("--samples", type=int, help="grid points (default 1000)")
    parser.add_argument("--tau-threshold", type=float, help="transient/persistent window split")
    parser.add_argument("--fock-n", type=int, help="Fock levels per mode (default: automatic)")
    parser.add_argument("--tail-tol", type=float, help=f"thermal tail tolerance (default {TAIL_TOL_DEFAULT:g})")
    parser.add_argument("--out", type=Path, help="output path (default stdout)")

    commands = parser.add_subparsers(dest="command", required=True)
    fig = commands.add_parser("figure", help="reproduce one of the five preset curves as CSV")
    fig.add_argument("number", type=int, choices=range(1, 6))
    comp = commands.add_parser("compare", help="analytic vs Fock-oracle heat curves (default beta = 1, 2)")
    comp.add_argument("--tol", type=float, default=1e-6, help="max relative deviation allowed")
    commands.add_parser("audit", help="commutator norms of the decomposition")
    sweep = commands.add_parser("sweep", help="violation classification over a (g, dbeta) grid")
    sweep.add_argument("--g-grid", type=str, help="comma-separated couplings")
    sweep.add_argument("--dbeta-grid", type=str, help="comma-separated beta_b - beta_a offsets")
    return parser


_CONFIG_KEYS = {
    "omega": float,
    "g": float,
    "kind": str,
    "mass": float,
    "charge": float,
    "beta_a": float,
    "beta_b": float,
    "temp_a": float,
    "temp_b": float,
    "t_max": float,
    "samples": int,
    "tau_threshold": float,
    "fock_n": int,
    "tail_tol": float,
    "g_grid": str,
    "dbeta_grid": str,
}


def _resolve(args: argparse.Namespace) -> argparse.Namespace:
    """Overlay config-file values under explicit flags."""
    if args.config is not None:
        file_values = _parse_config_file(args.config)
        unknown = set(file_values) - set(_CONFIG_KEYS)
        if unknown:
            raise ModelError(f"unknown config keys: {sorted(unknown)}")
        for key, value in file_values.items():
            if getattr(args, key, None) is None:
                setattr(args, key, _CONFIG_KEYS[key](value))
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
    return ThermalPreparation.from_temperatures(TEMP_HOT, TEMP_COLD)


def _system(args: argparse.Namespace) -> OscillatorSystem:
    omega = args.omega if args.omega is not None else 1.0
    kind = InteractionKind(args.kind) if args.kind is not None else InteractionKind.LINEAR
    if kind in (InteractionKind.MINIMAL_A, InteractionKind.MINIMAL_B):
        return OscillatorSystem(
            omega, omega, kind, m=args.mass if args.mass is not None else 1.0,
            q=args.charge if args.charge is not None else 0.0,
        )
    g = args.g if args.g is not None else (0.0 if kind is InteractionKind.NONE else 0.1)
    return OscillatorSystem(omega, omega, kind, g=g)


def _fock_config(args: argparse.Namespace, sys_: OscillatorSystem, prep: ThermalPreparation) -> FockConfig:
    tail_tol = args.tail_tol if args.tail_tol is not None else TAIL_TOL_DEFAULT
    if args.fock_n is not None:
        return FockConfig(args.fock_n, args.fock_n, tail_tol=tail_tol)
    return FockConfig.auto(sys_, prep, tail_tol=tail_tol)


def _figure_presets(args: argparse.Namespace):
    omega = args.omega if args.omega is not None else 1.0
    t_max = args.t_max if args.t_max is not None else 50.0 / omega
    samples = args.samples if args.samples is not None else 1000
    hot_a = ThermalPreparation.from_temperatures(TEMP_HOT, TEMP_COLD)
    hot_b = hot_a.swapped()
    return omega, t_max, samples, hot_a, hot_b


def run_figure(args: argparse.Namespace) -> int:
    omega, t_max, samples, hot_a, hot_b = _figure_presets(args)
    number = args.number
    times = np.linspace(0.0, t_max, samples)
    if number == 1:
        sys_ = OscillatorSystem(omega, omega, InteractionKind.RWA, g=0.1 * omega)
        header = ["t", "dQ_ab_hot_a", "dQ_ab_hot_b"]
        columns = [times] + [heat_transfer(times, sys_, prep).dq_ab for prep in (hot_a, hot_b)]
    elif number == 2:
        linear = OscillatorSystem(omega, omega, InteractionKind.LINEAR, g=0.1 * omega)
        rwa = OscillatorSystem(omega, omega, InteractionKind.RWA, g=0.1 * omega)
        header = ["t", "dQ_a_linear_hot_a", "dQ_a_linear_hot_b", "dQ_a_rwa_hot_a", "dQ_a_rwa_hot_b"]
        columns = [times] + [
            heat_transfer(times, sys_, prep).dq_a for sys_ in (linear, rwa) for prep in (hot_a, hot_b)
        ]
    elif number == 3:
        sys_ = OscillatorSystem(omega, omega, InteractionKind.LINEAR, g=0.49 * omega)
        rep = heat_transfer(times, sys_, hot_a)
        header = ["t", "dQ_a", "dQ_b", "dQ_ab", "dS0", "csl_ok"]
        columns = [rep.t, rep.dq_a, rep.dq_b, rep.dq_ab, rep.ds0, rep.csl_ok]
    else:
        g = 0.49 * omega if number == 4 else 0.51 * omega
        linear = OscillatorSystem(omega, omega, InteractionKind.LINEAR, g=g)
        if args.samples is None:
            samples = 200
        taus = np.arange(1, samples + 1) * (t_max / samples)
        header = ["tau", "avg_dQ_ab"]
        columns = [taus, time_averaged_heat(linear, hot_a, taus)]
        if number == 4:
            rwa = OscillatorSystem(omega, omega, InteractionKind.RWA, g=g)
            header = ["tau", "avg_dQ_ab_linear", "avg_dQ_ab_rwa"]
            columns.append(time_averaged_heat(rwa, hot_a, taus))
    write_csv(args.out, header, zip(*(column.tolist() for column in columns)))
    return EXIT_OK


def run_compare(args: argparse.Namespace) -> int:
    if all(getattr(args, key) is None for key in ("beta_a", "beta_b", "temp_a", "temp_b")):
        args.beta_a, args.beta_b = COMPARE_BETAS
    sys_ = _system(args)
    prep = _preparation(args)
    cfg = _fock_config(args, sys_, prep)
    t_max = args.t_max if args.t_max is not None else 20.0
    samples = args.samples if args.samples is not None else 81
    times = np.linspace(0.0, t_max, samples)
    analytic = heat_transfer(times, sys_, prep)
    oracle = heat_series_numeric(sys_, prep, cfg, times)
    pairs = [(getattr(analytic, k), np.array([getattr(r, k) for r in oracle])) for k in ("dq_a", "dq_b", "ds0")]
    worst = max(float((abs(x - y) / np.maximum(1.0, abs(x))).max(initial=0.0)) for x, y in pairs)
    write_csv(
        args.out,
        ["t", "dQ_a_analytic", "dQ_a_oracle", "dQ_b_analytic", "dQ_b_oracle", "dS0_analytic", "dS0_oracle"],
        zip(times.tolist(), *(column.tolist() for pair in pairs for column in pair)),
        footer=f"# max_relative_deviation,{_fmt(worst)}",
    )
    if worst > args.tol:
        print(f"deviation {worst:.3e} exceeds tolerance {args.tol:.3e}", file=_sys.stderr)
        return EXIT_TOLERANCE
    return EXIT_OK


def run_audit(args: argparse.Namespace) -> int:
    sys_ = _system(args)
    prep = _preparation(args)  # the norms ignore it, but bad temperature flags still fail
    if args.fock_n is None:
        args.fock_n = AUDIT_LEVELS
    audit = decomposition_audit(sys_, _fock_config(args, sys_, prep))
    print(f"norm_H0V={audit.norm_h0v:.6e}")
    print(f"norm_HV={audit.norm_hv:.6e}")
    print(f"norm_H0H={audit.norm_h0h:.6e}")
    print(f"csl_safe={'true' if audit.csl_safe else 'false'}")
    return EXIT_OK


def _parse_grid(text: str | None, default: list[float]) -> list[float]:
    if text is None:
        return default
    return [float(part) for part in text.split(",") if part.strip()]


def run_sweep(args: argparse.Namespace) -> int:
    omega = args.omega if args.omega is not None else 1.0
    base_beta = args.beta_a if args.beta_a is not None else 1.0 / TEMP_HOT
    t_max = args.t_max if args.t_max is not None else 50.0 / omega
    samples = args.samples if args.samples is not None else 512
    g_grid = _parse_grid(args.g_grid, [0.1 * omega, 0.3 * omega, 0.49 * omega, 0.5 * omega, 0.51 * omega])
    dbeta_grid = _parse_grid(args.dbeta_grid, [0.005, 0.01])
    rows = []
    for g in g_grid:
        for dbeta in dbeta_grid:
            if g == 0.5 * omega:
                rows.append((g, dbeta, "", "gap"))
                continue
            sys_ = OscillatorSystem(omega, omega, InteractionKind.LINEAR, g=g)
            prep = ThermalPreparation(base_beta, base_beta + dbeta)
            profile = scan_violations(sys_, prep, t_max, samples, tau_threshold=args.tau_threshold)
            rows.append((g, dbeta, len(profile.violations), profile.classification.value))
    write_csv(args.out, ["g", "dbeta", "violations", "classification"], rows)
    return EXIT_OK


_RUNNERS = {
    "figure": run_figure,
    "compare": run_compare,
    "audit": run_audit,
    "sweep": run_sweep,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args = _resolve(args)
        return _RUNNERS[args.command](args)
    except SingularCouplingError as exc:
        print(f"singular configuration: {exc}", file=_sys.stderr)
        return EXIT_SINGULAR
    except ModelError as exc:
        print(f"invalid configuration: {exc}", file=_sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    raise SystemExit(main())
