"""Traced per-layer probes, run by ``child.py layers`` in a fresh interpreter.

Every probe is a call into a public function of one layer, wrapped in a span
(name, start, end, parent).  Spans stay in memory and go back to the harness
at the end, which writes them to the trace file.  Each Fock-size probe uses a
system that no earlier call has seen, so the oracle's caches start cold.
"""

from __future__ import annotations

import statistics
import time
import tracemalloc
from contextlib import contextmanager

import qsubthermo as q
from qsubthermo import fock

BATCHES = 5


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = {"name": name, "start": time.perf_counter(), "end": None,
                  "parent": self._stack[-1] if self._stack else None}
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def seconds(self, name: str) -> float:
        (record,) = [s for s in self.spans if s["name"] == name]
        return record["end"] - record["start"]


def _clear_oracle_caches() -> None:
    # Bounds memory between sizes; a cache this probe does not know is left alone.
    for attr in ("eigensystem", "_heat_kernel"):
        clear = getattr(getattr(fock, attr, None), "cache_clear", None)
        if clear is not None:
            clear()


def _linear(g: float):
    return q.OscillatorSystem(1.0, 1.0, q.InteractionKind.LINEAR, g=g)


def run(spec: dict) -> dict:
    tracer = Tracer()
    span = tracer.span
    metrics: dict[str, float] = {}
    results: dict[str, object] = {}
    prep = q.ThermalPreparation(spec["beta_a"], spec["beta_b"])
    times = spec["series_times"]
    t_check = spec["t_check"]

    for n, g, g_audit in zip(spec["sizes"], spec["g"], spec["g_audit"]):
        _clear_oracle_caches()
        sys_, cfg = _linear(g), q.FockConfig(n, n, tail_tol=spec["tail_tol"])
        with span(f"fock.build_hamiltonian.n{n}"):
            q.build_hamiltonian(sys_, cfg)
        if n == 48:
            tracemalloc.start()
        with span(f"fock.eigensystem.n{n}"):
            fock.eigensystem(sys_, cfg)
        if n == 48:
            metrics["fock.eigensystem.n48_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
            tracemalloc.stop()
        with span(f"fock.heat_kernel.n{n}"):
            first = q.heat_changes_numeric(sys_, prep, cfg, t_check)
        with span(f"fock.series.n{n}"):
            series = q.heat_series_numeric(sys_, prep, cfg, times)
        with span(f"diagnostics.decomposition_audit.n{n}"):
            audit = q.decomposition_audit(_linear(g_audit), cfg)
        for layer in ("build_hamiltonian", "eigensystem", "heat_kernel"):
            metrics[f"fock.{layer}.n{n}_s"] = tracer.seconds(f"fock.{layer}.n{n}")
        metrics[f"fock.eigh_self.n{n}_s"] = metrics[f"fock.eigensystem.n{n}_s"] - metrics[f"fock.build_hamiltonian.n{n}_s"]
        metrics[f"fock.series_point.n{n}_us"] = tracer.seconds(f"fock.series.n{n}") / len(times) * 1e6
        metrics[f"diagnostics.decomposition_audit.n{n}_s"] = tracer.seconds(f"diagnostics.decomposition_audit.n{n}")
        results[f"n{n}"] = {
            "g": g, "g_audit": g_audit,
            "first": [first.t, first.dq_a, first.dq_b, first.dq_ab, first.ds0, float(first.csl_ok)],
            "series": [[r.t, r.dq_a, r.dq_b, r.dq_ab, r.ds0, float(r.csl_ok)] for r in series],
            "audit": [audit.norm_h0v, audit.norm_hv, audit.norm_h0h, audit.csl_safe],
        }
        if n == 40:
            results["battery"] = _battery(span, tracer, metrics, sys_, prep, cfg, spec)

    _clear_oracle_caches()
    results.update(_closed_forms(span, tracer, metrics, spec))
    return {"metrics": metrics, "results": results, "spans": tracer.spans}


def _battery(span, tracer, metrics, sys_, prep, cfg, spec) -> dict:
    """Oracle-only functions on the warm n=40 system of the eigensystem probe."""
    t = spec["t_check"]
    with span("fock.entropy_production.n40"):
        ep = q.entropy_production(t, sys_, prep, cfg)
    with span("fock.effective_hamiltonian.n40"):
        h_eff = q.effective_hamiltonian(t, sys_, prep, cfg)
    with span("fock.true_heat.n40"):
        th = q.true_heat_transfer_identity(t, sys_, prep, cfg)
    with span("fock.jarzynski.n40"):
        jarzynski = q.jarzynski_identity(t, sys_, prep, cfg)
    pair = spec["pair"]
    sys_a = q.OscillatorSystem(1.0, 1.0, q.InteractionKind.MINIMAL_A, m=pair["m"], q=pair["q"])
    sys_b = q.OscillatorSystem(1.0, 1.0, q.InteractionKind.MINIMAL_B, m=pair["m"], q=pair["q"])
    with span("fock.spectrum_match.n40"):
        spectrum = q.spectrum_match(sys_a, sys_b, cfg, pair["k"])
    for name in ("entropy_production", "effective_hamiltonian", "true_heat", "jarzynski", "spectrum_match"):
        metrics[f"fock.{name}.n40_s"] = tracer.seconds(f"fock.{name}.n40")
    return {
        "entropy": [ep.ds_a, ep.ds_i_a, ep.ds_e_a],
        "h_eff": [h_eff.real.tolist(), h_eff.imag.tolist()],
        "true_heat": [th.dq_ab_true, th.dq_ab, th.reversed_flux_a, th.reversed_flux_b],
        "jarzynski": jarzynski,
        "spectrum": spectrum,
    }


def _closed_forms(span, tracer, metrics, spec) -> dict:
    hot_a = q.ThermalPreparation.from_temperatures(100.0, 50.0)
    out: dict[str, object] = {}

    # One scalar closed-form evaluation; the same loop with a span around every
    # call measures what tracing itself costs at the finest grain used here.
    sys_ = _linear(spec["g_scalar"])
    ts = [float(t) for t in spec["scalar_times"]]
    bare, traced = [], []
    for b in range(BATCHES):
        with span(f"analytic.heat_transfer.batch{b}"):
            start = time.perf_counter()
            for t in ts:
                q.heat_transfer(t, sys_, hot_a)
            bare.append(time.perf_counter() - start)
        start = time.perf_counter()
        for t in ts:
            with span("analytic.heat_transfer.call"):
                q.heat_transfer(t, sys_, hot_a)
        traced.append(time.perf_counter() - start)
    metrics["analytic.heat_transfer_us"] = statistics.median(bare) / len(ts) * 1e6
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(bare)
    tracer.spans = [s for s in tracer.spans if s["name"] != "analytic.heat_transfer.call"]
    out["scalar"] = [[t, q.heat_transfer(t, sys_, hot_a).dq_ab] for t in ts[:16]]

    tau = 50.0
    for g, tag in ((0.49, "g049"), (0.51, "g051")):
        linear = _linear(g)
        runs = []
        for r in range(3):
            with span(f"analytic.time_averaged_heat.{tag}.run{r}") as rec:
                value = q.time_averaged_heat(linear, hot_a, tau)
            runs.append(rec["end"] - rec["start"])
        metrics[f"analytic.time_averaged_heat.{tag}_ms"] = statistics.median(runs) * 1e3
        out[f"window.{tag}"] = value

        calls = [0]

        def integrand(t, linear=linear):
            calls[0] += 1
            return q.heat_transfer(t, linear, hot_a).dq_ab

        with span(f"quadrature.adaptive_simpson.{tag}"):
            integral = q.adaptive_simpson(integrand, 0.0, tau, rel_tol=1e-8, max_depth=40)
        metrics[f"quadrature.evals.{tag}"] = float(calls[0])
        out[f"quadrature.{tag}"] = integral / tau

        sweep_prep = q.ThermalPreparation(0.01, 0.02)
        with span(f"diagnostics.scan_violations.{tag}"):
            profile = q.scan_violations(linear, sweep_prep, 50.0, 512)
        metrics[f"diagnostics.scan_violations.{tag}_s"] = tracer.seconds(f"diagnostics.scan_violations.{tag}")
        out[f"scan.{tag}"] = [len(profile.violations), profile.classification.value]
    return out
