"""Output checks: every program output against the reference or a required property.

Each check raises CheckFailed with the first discrepancy it finds.  The
tolerances are fixed from what the program promises, never from what it
printed on one run:

* TIGHT - closed-form pointwise heats; both sides are exact formulas.
* WINDOW - window averages; the program integrates by adaptive Simpson at a
  relative tolerance of 1e-8.
* ORACLE - truncated-Fock heats; the program's own ``compare`` gate.
"""

from __future__ import annotations

import numpy as np

import reference as ref

TIGHT = 1e-9
WINDOW = 1e-7
ORACLE = 1e-6
IDENTITY = 1e-9  # identities that hold to rounding inside one computation
COMMUTATOR_ZERO = 1e-10  # the program's csl_safe threshold

# Figure presets of the command line: omega = 1, T_hot = 100, T_cold = 50.
BETA_HOT, BETA_COLD = 1.0 / 100.0, 1.0 / 50.0
FIGURE_G = {1: 0.1, 2: 0.1, 3: 0.49, 4: 0.49, 5: 0.51}


class CheckFailed(Exception):
    """A program output disagrees with the reference or breaks a required property."""


def close(what: str, got: float, want: float, rtol: float, scale: float = 1.0) -> None:
    if not abs(got - want) <= rtol * max(1.0, abs(scale)):  # NaN fails too
        raise CheckFailed(f"{what}: got {got!r}, reference {want!r}")


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def parse_csv(text: str):
    """(header, float rows, comment lines) of a CSV the program wrote."""
    lines = text.splitlines()
    body = [line for line in lines[1:] if not line.startswith("#")]
    data = np.array([[float(x) for x in line.split(",")] for line in body], dtype=float)
    return lines[0].split(","), data, [line for line in lines[1:] if line.startswith("#")]


def check_heat_properties(what, dq_a, dq_b, dq_ab, ds0, csl_ok, beta_a, beta_b) -> None:
    """dQ_ab = dQ_b - dQ_a, dS0 >= 0 and csl_ok = sign rule, on every row."""
    dq_a, dq_b, dq_ab, ds0 = (np.asarray(v, dtype=float) for v in (dq_a, dq_b, dq_ab, ds0))
    scale = np.maximum(1.0, np.maximum(np.abs(dq_a), np.abs(dq_b)))
    bad = np.flatnonzero(~(np.abs(dq_ab - (dq_b - dq_a)) <= IDENTITY * scale))
    require(bad.size == 0, f"{what}: dQ_ab != dQ_b - dQ_a at row {bad[:1]}")
    bad = np.flatnonzero(~(np.abs(ds0 - (beta_a * dq_a + beta_b * dq_b)) <= IDENTITY * scale))
    require(bad.size == 0, f"{what}: dS0 != beta_a dQ_a + beta_b dQ_b at row {bad[:1]}")
    bad = np.flatnonzero(~(ds0 >= -IDENTITY * scale))
    require(bad.size == 0, f"{what}: dS0 < 0 at row {bad[:1]}")
    if csl_ok is not None:
        csl_ok = np.asarray(csl_ok, dtype=bool)
        decided = np.abs(dq_ab) > IDENTITY * scale
        rule = dq_ab * (beta_b - beta_a) > 0.0
        bad = np.flatnonzero(decided & (csl_ok != rule))
        require(bad.size == 0, f"{what}: csl_ok disagrees with the sign rule at row {bad[:1]}")


def check_figure(number: int, text: str, rows) -> None:
    """Figure CSV: properties on every row, the reference on the sampled rows."""
    _, data, _ = parse_csv(text)
    require(data.ndim == 2 and len(data) > max(rows, default=0), f"figure {number}: too few rows")
    g = FIGURE_G[number]
    hot_a = ref.Gaussian("linear", 1.0, BETA_HOT, BETA_COLD, g=g)
    hot_b = ref.Gaussian("linear", 1.0, BETA_COLD, BETA_HOT, g=g)
    if number == 3:
        check_heat_properties("figure 3", *data[:, 1:].T, BETA_HOT, BETA_COLD)
    for i in rows:
        t, got = data[i, 0], data[i, 1:]
        where = f"figure {number} row {i}"
        if number == 1:
            want = [ref.rwa_transfer(t, 1.0, g, BETA_HOT, BETA_COLD),
                    ref.rwa_transfer(t, 1.0, g, BETA_COLD, BETA_HOT)]
            scale = max(abs(w) for w in want)
        elif number == 2:
            (la, _), (lb, _) = hot_a.heats(t), hot_b.heats(t)
            want = [la, lb, -0.5 * ref.rwa_transfer(t, 1.0, g, BETA_HOT, BETA_COLD),
                    -0.5 * ref.rwa_transfer(t, 1.0, g, BETA_COLD, BETA_HOT)]
            scale = max(abs(w) for w in want)
        elif number == 3:
            dq_a, dq_b = hot_a.heats(t)
            want = [dq_a, dq_b, dq_b - dq_a, BETA_HOT * dq_a + BETA_COLD * dq_b]
            got = got[:4]
            scale = max(abs(dq_a), abs(dq_b))
        elif number == 4:
            want = [hot_a.window_average(t), ref.rwa_window_average(t, 1.0, g, BETA_HOT, BETA_COLD)]
            scale = max(abs(w) for w in want)
        else:
            want = [hot_a.window_average(t)]
            scale = abs(want[0])
        rtol = WINDOW if number >= 4 else TIGHT
        require(len(got) == len(want), f"{where}: {len(got)} columns, expected {len(want)}")
        for col, (x, w) in enumerate(zip(got, want)):
            close(f"{where} column {col + 1}", x, w, rtol, scale)


def parse_sweep(text: str):
    lines = text.splitlines()
    return [tuple(line.split(",")) for line in lines[1:]]


def check_sweep(text: str, omega: float = 1.0) -> None:
    """none/transient below g = omega/2, gap at it, persistent above it; on
    resonance dQ_ab = omega (X_a - X_b) K(t), so every dbeta row of one g has
    the same violation count."""
    rows = parse_sweep(text)
    require(len(rows) > 0, "sweep: no rows")
    counts: dict[float, set[str]] = {}
    for g_text, _, violations, label in rows:
        g = float(g_text)
        if g == 0.5 * omega:
            require(label == "gap" and violations == "", f"sweep g={g}: expected a gap row, got {label}")
            continue
        allowed = {"none", "transient"} if g < 0.5 * omega else {"persistent"}
        require(label in allowed, f"sweep g={g}: classification {label} not in {sorted(allowed)}")
        require((label == "none") == (int(violations) == 0), f"sweep g={g}: {label} with {violations} violations")
        counts.setdefault(g, set()).add(violations)
    for g, seen in counts.items():
        require(len(seen) == 1, f"sweep g={g}: violation counts differ across dbeta rows: {sorted(seen)}")


def check_compare(spec: dict, text: str, rows) -> None:
    """compare CSV: footer within the gate and equal to its own columns; analytic
    columns against the reference pointwise, oracle columns within the gate."""
    _, data, comments = parse_csv(text)
    footer = [c for c in comments if c.startswith("# max_relative_deviation,")]
    require(len(footer) == 1, "compare: missing footer")
    worst = float(footer[0].split(",")[1])
    require(worst <= spec["tol"], f"compare: footer {worst} above the gate {spec['tol']}")
    pairs = data[:, [1, 2, 3, 4, 5, 6]]
    own = max(float(np.max(np.abs(pairs[:, i] - pairs[:, i + 1]) / np.maximum(1.0, np.abs(pairs[:, i]))))
              for i in (0, 2, 4))
    close("compare: footer against its own columns", worst, own, 1e-12)
    beta_a, beta_b = spec["beta_a"], spec["beta_b"]
    for col, name in ((1, "analytic"), (2, "oracle")):
        check_heat_properties(f"compare {name}", data[:, col], data[:, col + 2],
                              data[:, col + 2] - data[:, col], data[:, col + 4], None, beta_a, beta_b)
    model = ref.Gaussian(spec["kind"], 1.0, beta_a, beta_b, g=spec["g"])
    for i in rows:
        t = data[i, 0]
        dq_a, dq_b = model.heats(t)
        if spec["kind"] == "rwa":
            dq_b = 0.5 * ref.rwa_transfer(t, 1.0, spec["g"], beta_a, beta_b)
            dq_a = -dq_b
        want = (dq_a, dq_b, beta_a * dq_a + beta_b * dq_b)
        scale = max(abs(dq_a), abs(dq_b))
        for j, w in enumerate(want):
            close(f"compare row {i} analytic column {j}", data[i, 1 + 2 * j], w, TIGHT, scale)
            close(f"compare row {i} oracle column {j}", data[i, 2 + 2 * j], w, ORACLE, scale)


def parse_audit(text: str) -> dict[str, str]:
    return dict(line.split("=", 1) for line in text.splitlines() if "=" in line)


def check_audit(spec: dict, text: str) -> None:
    """audit output: see check_audit_values."""
    values = parse_audit(text)
    norms = [float(values[k]) for k in ("norm_H0V", "norm_HV", "norm_H0H")]
    check_audit_values(spec, norms, {"true": True, "false": False}.get(values["csl_safe"]))


def check_audit_values(spec: dict, norms: list[float], safe) -> None:
    """The three commutator norms are equal; csl_safe is their vanishing; RWA
    commutes, LINEAR matches the closed-form norm, minimal kinds do not commute."""
    require(safe is (max(norms) < COMMUTATOR_ZERO),
             f"audit {spec['kind']}: csl_safe={safe} with norms {norms}")
    top = max(norms)
    for x in norms:  # printed to 7 significant digits
        close(f"audit {spec['kind']}: norms not equal {norms}", x, top, 1e-6, top)
    kind, n = spec["kind"], spec["n"]
    if kind == "rwa":
        require(top < COMMUTATOR_ZERO, f"audit rwa: [H0, V] should vanish, norm {top}")
    elif kind == "linear":
        want = ref.linear_audit_norm(spec["g"], 1.0, n, n)
        close("audit linear norm", top, want, 1e-6, want)
    else:
        require(top > COMMUTATOR_ZERO, f"audit {kind}: [H0, V] should not vanish, norm {top}")


def check_library_system(spec: dict, out: dict) -> None:
    """The oracle battery on one system against the Gaussian reference and its identities."""
    kind, beta_a, beta_b = spec["kind"], spec["beta_a"], spec["beta_b"]
    model = ref.Gaussian(kind, 1.0, beta_a, beta_b, g=spec.get("g", 0.0), m=spec.get("m", 1.0), q=spec.get("q", 0.0))
    where = f"{kind} n={spec['n']}"
    if "series" in out:
        check_series(where, spec, out["series"], model, range(len(out["series"])))
    if "jarzynski" in out:
        close(f"{where}: Jarzynski average", out["jarzynski"], 1.0, 1e-10)
    if "jensen" in out:
        lower, upper = out["jensen"]
        require(lower <= upper + 1e-12, f"{where}: Jensen bound broken, {lower} > {upper}")
        close(f"{where}: Jensen upper side is the Jarzynski average", upper, 1.0, 1e-10)
    t = spec["t"]
    dq_a, dq_b = model.heats(t)
    scale = max(abs(dq_a), abs(dq_b))
    if "entropy" in out:
        ds_a, ds_i, ds_e = out["entropy"]
        require(ds_i >= -1e-10, f"{where}: entropy production {ds_i} < 0")
        close(f"{where}: dS_a = dS_i + dS_e", ds_a, ds_i + ds_e, IDENTITY, ds_a)
        close(f"{where}: dS_e = -beta_b dQ_b", ds_e, -beta_b * dq_b, ORACLE, scale)
        close(f"{where}: dS_a", ds_a, model.entropy_change_a(t), ORACLE)
    if "h_eff" in out:
        h_eff = np.array(out["h_eff"][0]) + 1j * np.array(out["h_eff"][1])
        n = spec["n"]
        if kind == "minimal-a":
            want = (1.0 + spec["q"] ** 2 / (2.0 * spec["m"]) * model.second_moment(t, 2)) * np.eye(n)
        elif kind == "minimal-b":
            want = np.eye(n) + spec["q"] ** 2 / (2.0 * spec["m"]) * ref.position_squared(n, 1.0, spec["m"])
        else:  # a bilinear coupling sees only <b> = 0
            want = np.zeros((n, n))
        # The top Fock level carries the truncation defect of p @ p and x @ x.
        gap = float(np.abs(h_eff - want)[: n - 1, : n - 1].max())
        require(gap <= ORACLE * max(1.0, float(np.abs(want).max())), f"{where}: effective Hamiltonian off by {gap}")
    if "true_heat" in out:
        dq_ab_true, dq_ab, flux_a, flux_b = out["true_heat"]
        close(f"{where}: true-energy dQ_ab = bare dQ_ab", dq_ab_true, dq_ab, IDENTITY, scale)
        close(f"{where}: bare dQ_ab", dq_ab, dq_b - dq_a, ORACLE, scale)
        close(f"{where}: reversed flux a", flux_a, -(beta_b / beta_a) * dq_b, ORACLE, scale * beta_b / beta_a)
        close(f"{where}: reversed flux b", flux_b, -(beta_a / beta_b) * dq_a, ORACLE, scale * beta_a / beta_b)


def check_series(where: str, spec: dict, series, model, rows) -> None:
    """Oracle heat rows (t, dQ_a, dQ_b, dQ_ab, dS0, csl_ok): properties on every
    row, the Gaussian reference on the given rows."""
    data = np.asarray(series, dtype=float)
    check_heat_properties(where, *data[:, 1:5].T, data[:, 5], spec["beta_a"], spec["beta_b"])
    for i in rows:
        t = data[i, 0]
        dq_a, dq_b = model.heats(t)
        scale = max(abs(dq_a), abs(dq_b))
        close(f"{where} row {i} dQ_a", data[i, 1], dq_a, ORACLE, scale)
        close(f"{where} row {i} dQ_b", data[i, 2], dq_b, ORACLE, scale)


def check_spectrum(value: float) -> None:
    """minimal-a and minimal-b are unitarily equivalent; their low bands agree."""
    require(0.0 <= value <= 1e-8, f"spectrum_match: low-band levels differ by {value}")


def check_scalar_window(what: str, got: float, model, tau: float) -> None:
    want = model.window_average(tau)
    close(what, got, want, WINDOW, want)

