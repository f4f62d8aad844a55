"""One benchmark operation in a fresh interpreter, so caches start cold as they
do for a user and the process's peak resident set is its own.

    python3 perfbench/child.py import  <stats.json>
    python3 perfbench/child.py cli     <stats.json> <qsubthermo arguments...>
    python3 perfbench/child.py library <spec.json> <stats.json>
    python3 perfbench/child.py layers  <spec.json> <stats.json>

The program is imported from ``src/`` of the checkout this file sits in and
from nowhere else.  Each mode writes its timings and outputs as JSON.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))


def import_program():
    """Import qsubthermo.cli and return (module, seconds the import took)."""
    start = time.perf_counter()
    import qsubthermo.cli

    elapsed = time.perf_counter() - start
    if Path(qsubthermo.cli.__file__).resolve().parent != SRC / "qsubthermo":
        raise SystemExit(f"qsubthermo came from {qsubthermo.cli.__file__}, not {SRC}")
    return qsubthermo.cli, elapsed


def peak_rss_mb() -> float:
    """Peak resident set of this process image.

    ru_maxrss would also count the parent's resident set, which the kernel
    carries across fork and exec; VmHWM starts afresh with the exec.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_cli(argv: list[str]) -> dict:
    cli, import_s = import_program()
    start = time.perf_counter()
    try:
        rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejects its input this way
        rc = exc.code if isinstance(exc.code, int) else 2
    return {"import_s": import_s, "main_s": time.perf_counter() - start, "rc": rc}


class Timer:
    """Times each library call; a call that raises is recorded as failed."""

    def __init__(self) -> None:
        self.ops: list[dict] = []

    def __call__(self, name: str, fn):
        start = time.perf_counter()
        try:
            value = fn()
        except Exception as exc:  # the program's error becomes a failed operation
            self.ops.append({"name": name, "s": time.perf_counter() - start, "error": repr(exc)})
            return None
        self.ops.append({"name": name, "s": time.perf_counter() - start})
        return value


def _system(q, spec: dict):
    kind = q.InteractionKind(spec["kind"])
    if kind in (q.InteractionKind.MINIMAL_A, q.InteractionKind.MINIMAL_B):
        sys_ = q.OscillatorSystem(1.0, 1.0, kind, m=spec["m"], q=spec["q"])
    else:
        sys_ = q.OscillatorSystem(1.0, 1.0, kind, g=spec.get("g", 0.0))
    prep = q.ThermalPreparation(spec["beta_a"], spec["beta_b"])
    cfg = q.FockConfig(spec["n"], spec["n"], tail_tol=spec["tail_tol"])
    return sys_, prep, cfg


def _rows(reports) -> list[list[float]]:
    return [[r.t, r.dq_a, r.dq_b, r.dq_ab, r.ds0, float(r.csl_ok)] for r in reports]


def run_library(spec: dict) -> dict:
    """The oracle-only battery on every drawn system, then one long warm series."""
    import qsubthermo as q

    timer = Timer()
    systems = []
    for s in spec["systems"]:
        sys_, prep, cfg = _system(q, s)
        t, tag = s["t"], f"{s['kind']}.n{s['n']}"
        out = {}
        reports = timer(f"battery.{tag}.heat_series", lambda: q.heat_series_numeric(sys_, prep, cfg, s["times"]))
        if reports is not None:
            out["series"] = _rows(reports)
        value = timer(f"battery.{tag}.jarzynski", lambda: q.jarzynski_identity(t, sys_, prep, cfg))
        if value is not None:
            out["jarzynski"] = value
        value = timer(f"battery.{tag}.jensen", lambda: q.jensen_bound(t, sys_, prep, cfg))
        if value is not None:
            out["jensen"] = list(value)
        value = timer(f"battery.{tag}.entropy", lambda: q.entropy_production(t, sys_, prep, cfg))
        if value is not None:
            out["entropy"] = [value.ds_a, value.ds_i_a, value.ds_e_a]
        value = timer(f"battery.{tag}.effective_h", lambda: q.effective_hamiltonian(t, sys_, prep, cfg))
        if value is not None:
            out["h_eff"] = [value.real.tolist(), value.imag.tolist()]
        value = timer(f"battery.{tag}.true_heat", lambda: q.true_heat_transfer_identity(t, sys_, prep, cfg))
        if value is not None:
            out["true_heat"] = [value.dq_ab_true, value.dq_ab, value.reversed_flux_a, value.reversed_flux_b]
        systems.append(out)
    pairs = []
    for p in spec["pairs"]:
        sys_a = q.OscillatorSystem(1.0, 1.0, q.InteractionKind.MINIMAL_A, m=p["m"], q=p["q"])
        sys_b = q.OscillatorSystem(1.0, 1.0, q.InteractionKind.MINIMAL_B, m=p["m"], q=p["q"])
        cfg = q.FockConfig(p["n"], p["n"], tail_tol=p["tail_tol"])
        pairs.append(timer(f"battery.spectrum.n{p['n']}", lambda: q.spectrum_match(sys_a, sys_b, cfg, p["k"])))
    s = spec["series"]
    sys_, prep, cfg = _system(q, s)
    timer("series.prepare", lambda: q.heat_changes_numeric(sys_, prep, cfg, 0.0))
    reports = timer("series.warm", lambda: q.heat_series_numeric(sys_, prep, cfg, s["times"]))
    return {
        "ops": timer.ops,
        "systems": systems,
        "pairs": pairs,
        "series": _rows(reports) if reports is not None else None,
    }


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "import":
        _, import_s = import_program()
        stats, out_path = {"import_s": import_s}, argv[1]
    elif mode == "cli":
        stats, out_path = run_cli(argv[2:]), argv[1]
    elif mode in ("library", "layers"):
        spec = json.loads(Path(argv[1]).read_text(encoding="utf-8"))
        out_path = argv[2]
        import_program()
        if mode == "library":
            stats = run_library(spec)
        else:
            import layers

            stats = layers.run(spec)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    stats["rss_mb"] = peak_rss_mb()
    Path(out_path).write_text(json.dumps(stats), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
