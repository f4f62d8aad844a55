"""qsubthermo benchmark: run one workload and print its metrics as JSON.

    python3 perfbench/run.py --workload closed_form --seed 1 --seconds 20 --trace 0

Run from anywhere; the program is taken from ``src/`` beside this directory.
With ``--trace 0`` the workload repeats whole passes for ``--seconds`` and
reports the end-to-end metrics, medians over its passes.  With ``--trace 1``
a fresh process runs the per-layer probes of ``layers.py`` under spans and
reports their metrics; the spans go to ``perfbench/out/traces/``.  Every
output is checked against ``reference.py`` or a required property; the last
line of stdout is the result object.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from workloads import ROOT, WORKLOADS, spawn, import_seconds  # noqa: E402

SETUP_PROBES = 7
RUN_LIMIT_S = 150.0  # no pass starts that would end past this, so a run ends within three minutes


def run_untraced(name: str, seed: int, seconds: float, work: Path) -> dict:
    workload = WORKLOADS[name](np.random.default_rng(seed % 2**64))
    setup = statistics.median(import_seconds(work) for _ in range(SETUP_PROBES))
    passes, attempted, failed, correct = [], 0, 0, True
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        pass_start = time.perf_counter()
        ops = workload.run_pass(work)
        attempted += len(ops)
        failed += sum(op.failed for op in ops)
        for op in ops:
            if op.check is not None and not op.failed:
                try:
                    op.check(op)
                except checks.CheckFailed as exc:
                    correct = False
                    sys.stderr.write(f"check failed: {exc}\n")
        passes.append(ops)
        print(f"# pass {len(passes)}: " + ", ".join(f"{op.name} {op.program_s:.3f}s" for op in ops if op.program_s > 0.5)
              + f"; wall {sum(op.wall_s for op in ops):.3f}s", flush=True)
        elapsed = time.perf_counter() - start
        if elapsed + (time.perf_counter() - pass_start) > RUN_LIMIT_S:
            break

    def median(per_pass) -> float:
        return statistics.median(per_pass(ops) for ops in passes)

    metrics = {
        "setup_s": (setup, "s"),
        "wall_s": (median(lambda ops: sum(op.wall_s for op in ops)), "s"),
        "peak_rss_mb": (median(lambda ops: max(op.rss_mb for op in ops)), "MB"),
    }
    per_pass = [workload.details(ops) for ops in passes]
    details = {key: (statistics.median(d[key][0] for d in per_pass), unit) for key, (_, unit) in per_pass[0].items()}
    print(f"# {name} seed={seed}: {len(passes)} passes, {attempted} operations, {failed} failed")
    for key, (value, unit) in {**metrics, **details}.items():
        print(f"{key} = {value:.6g} {unit}")
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def layer_spec(rng: np.random.Generator) -> dict:
    sizes = [24, 32, 40, 48]
    return {
        "sizes": sizes,
        # Distinct couplings give every probe a cache key no earlier call used.
        "g": rng.uniform(0.1, 0.2, size=len(sizes)).tolist(),
        "g_audit": rng.uniform(0.2, 0.3, size=len(sizes)).tolist(),
        "beta_a": float(rng.uniform(1.0, 1.5)),
        "beta_b": float(rng.uniform(2.0, 3.0)),
        "tail_tol": 1e-8,
        "t_check": float(rng.uniform(1.0, 4.0)),
        "series_times": np.linspace(0.0, rng.uniform(8.0, 12.0), 200).tolist(),
        "pair": {"m": float(rng.uniform(0.5, 2.0)), "q": float(rng.uniform(0.1, 0.4)), "k": 100},
        "g_scalar": float(rng.uniform(0.2, 0.45)),
        "scalar_times": np.sort(rng.uniform(0.0, 50.0, size=2000)).tolist(),
    }


def check_layers(spec: dict, results: dict) -> None:
    prep = {"beta_a": spec["beta_a"], "beta_b": spec["beta_b"]}
    for n in spec["sizes"]:
        r = results[f"n{n}"]
        model = checks.ref.Gaussian("linear", 1.0, g=r["g"], **prep)
        system = {"kind": "linear", "n": n, "g": r["g"], **prep}
        checks.check_series(f"probe n={n}", system, [r["first"], *r["series"]], model, range(0, 201, 25))
        checks.check_audit_values({"kind": "linear", "g": r["g_audit"], "n": n}, r["audit"][:3], r["audit"][3])
    n40 = {"kind": "linear", "n": 40, "g": results["n40"]["g"], "t": spec["t_check"], **prep}
    checks.check_library_system(n40, results["battery"])
    checks.check_spectrum(results["battery"]["spectrum"])
    hot_a = (checks.BETA_HOT, checks.BETA_COLD)
    scalar = checks.ref.Gaussian("linear", 1.0, *hot_a, g=spec["g_scalar"])
    for t, dq_ab in results["scalar"]:
        dq_a, dq_b = scalar.heats(t)
        checks.close(f"heat_transfer at t={t}", dq_ab, dq_b - dq_a, checks.TIGHT, max(abs(dq_a), abs(dq_b)))
    for g, tag, allowed in ((0.49, "g049", {"none", "transient"}), (0.51, "g051", {"persistent"})):
        model = checks.ref.Gaussian("linear", 1.0, *hot_a, g=g)
        checks.check_scalar_window(f"time_averaged_heat {tag}", results[f"window.{tag}"], model, 50.0)
        checks.check_scalar_window(f"adaptive_simpson {tag}", results[f"quadrature.{tag}"], model, 50.0)
        label = results[f"scan.{tag}"][1]
        if label not in allowed:
            raise checks.CheckFailed(f"scan_violations {tag}: {label} not in {sorted(allowed)}")


def unit_of(key: str) -> str:
    for suffix, unit in (("_s", "s"), ("_ms", "ms"), ("_us", "us"), ("_mb", "MB"), ("_ratio", "ratio")):
        if key.endswith(suffix):
            return unit
    return "count"


def run_traced(name: str, seed: int, work: Path) -> dict:
    spec = layer_spec(np.random.default_rng(seed % 2**64))
    spec_path, stats_path = work / "layers-spec.json", work / "layers.json"
    spec_path.write_text(json.dumps(spec))
    _, stats, _ = spawn(["layers", str(spec_path), str(stats_path)], stats_path)
    if stats is None:
        raise SystemExit("the traced probes did not finish")
    correct = True
    try:
        check_layers(spec, stats["results"])
    except checks.CheckFailed as exc:
        correct = False
        sys.stderr.write(f"check failed: {exc}\n")
    traces = ROOT / "perfbench" / "out" / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    (traces / f"{name}-seed{seed}.json").write_text(json.dumps({"spec": spec, "spans": stats["spans"]}))
    metrics = {key: (value, unit_of(key)) for key, value in stats["metrics"].items()}
    print(f"# traced probes, {len(stats['spans'])} spans; tracing overhead x{stats['metrics']['trace.overhead_ratio']:.4f}"
          " on one closed-form call, the finest span")
    return {"correct": correct, "attempted": len(stats["spans"]), "failed": 0, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qsubthermo" / "__init__.py").is_file():
        print(f"no program to benchmark: {ROOT / 'src' / 'qsubthermo'} is missing", file=sys.stderr)
        return 2
    work = ROOT / "perfbench" / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.trace:
            result = run_traced(args.workload, args.seed, work)
        else:
            result = run_untraced(args.workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["metrics"] = {k: {"value": float(v), "unit": u} for k, (v, u) in result["metrics"].items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
