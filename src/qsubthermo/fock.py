"""Truncated-Fock-space oracle: exact evolution and first-principles heat, sector by sector.

Everything here is computed from truncated number-basis matrices with no input
from the closed forms in ``analytic`` (the two import only ``model``, which
holds the heat report and the time rule they share), so the two routes
cross-validate each other.  Composite indexing is a-major: basis state
|i_a, i_b> sits at row i_a * n_b + i_b, i.e. operators extend to the composite
space as numpy.kron(op_a, identity_b) and numpy.kron(identity_a, op_b).  The
bare energies H_a, H_b are diagonal in this basis, and every other term of H
is a kron of two single-mode matrices, so H is assembled without any
composite-space product.

H is block-diagonal: ``sectors`` reads its conserved sectors from the exactly
nonzero entries of the matrix itself (never from the interaction kind), so
N_a + N_b shows up for the exchange coupling, (N_a + N_b) mod 2 for the linear
and minimal couplings, and single levels when uncoupled.  Time evolution uses
the Hermitian eigendecomposition of H in each sector (reused across times),
never a generic matrix exponential; dense U(t) and rho(t) are scattered
together from the sector blocks.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.typing import NDArray

from .model import (
    HeatReport,
    InteractionKind,
    MINIMAL_KINDS,
    ModelError,
    OscillatorSystem,
    PositivityError,
    ThermalPreparation,
    TruncationError,
    _checked,
    _finite,
)

__all__ = [
    "FockConfig",
    "HamiltonianParts",
    "BareBasisAmplitudes",
    "EntropyProduction",
    "TrueHeatReport",
    "destroy",
    "build_hamiltonian",
    "thermal_state",
    "heat_changes_numeric",
    "heat_series_numeric",
    "bare_amplitudes",
    "classical_average",
    "jarzynski_identity",
    "jensen_bound",
    "partial_trace_a",
    "partial_trace_b",
    "von_neumann_entropy",
    "relative_entropy",
    "entropy_production",
    "true_energies",
    "true_heat_transfer_identity",
    "effective_hamiltonian",
    "diagonal_split",
    "spectrum_match",
]

Matrix = NDArray[np.complex128]

TAIL_TOL_DEFAULT = 1e-12
_DIM_CAP = 64

# Times evaluated per GEMM in a heat series: bounds the (block x sector size)
# phase matrix while keeping each product large enough for BLAS.
_SERIES_BLOCK = 128


@dataclass(frozen=True)
class FockConfig:
    """Per-mode truncation dimensions and the thermal tail tolerance for the oracle."""

    n_a: int
    n_b: int
    tail_tol: float = TAIL_TOL_DEFAULT

    def __post_init__(self) -> None:
        if self.n_a < 2 or self.n_b < 2:
            raise ModelError("each mode needs at least two Fock levels")
        if not (math.isfinite(self.tail_tol) and self.tail_tol > 0.0):
            raise ModelError("tail_tol must be positive and finite")

    @property
    def dim(self) -> int:
        return self.n_a * self.n_b

    @classmethod
    def auto(
        cls,
        sys: OscillatorSystem,
        prep: ThermalPreparation,
        tail_tol: float = TAIL_TOL_DEFAULT,
    ) -> "FockConfig":
        """Smallest common cutoff whose initial thermal tails stay below tail_tol.

        Both modes get the larger of the two per-mode cutoffs: the coupling
        moves the hotter mode's population into the colder mode's space.
        """
        n = max(
            _min_dimension(prep.beta_a, sys.omega_a, tail_tol),
            _min_dimension(prep.beta_b, sys.omega_b, tail_tol),
        )
        return cls(n_a=n, n_b=n, tail_tol=tail_tol)


def _min_dimension(beta: float, omega: float, tail_tol: float) -> int:
    # Geometric thermal tail above level n is exactly exp(-beta*omega*n).
    n = max(2, math.ceil(math.log(1.0 / tail_tol) / (beta * omega)))
    if n > _DIM_CAP:
        feasible = math.log(1.0 / tail_tol) / _DIM_CAP
        raise TruncationError(
            f"beta*omega = {beta * omega:.4g} needs {n} levels for tail {tail_tol:g}; "
            f"cap is {_DIM_CAP} (minimal feasible beta*omega is {feasible:.4g})"
        )
    return n


def destroy(n: int) -> Matrix:
    """Single-mode annihilation operator on n levels: sqrt(k) on the superdiagonal."""
    return np.diag(np.sqrt(np.arange(1.0, n)), 1).astype(np.complex128)


def _quadratures(n: int, omega: float, m: float) -> tuple[Matrix, Matrix]:
    """Single-mode x = sqrt(1/2 m omega)(a^dag + a) and p = i sqrt(m omega / 2)(a^dag - a)."""
    a = destroy(n)
    x = math.sqrt(1.0 / (2.0 * m * omega)) * (a.conj().T + a)
    p = 1j * math.sqrt(m * omega / 2.0) * (a.conj().T - a)
    return x, p


@dataclass(frozen=True)
class HamiltonianParts:
    """Total Hamiltonian H on the composite space, and the bare energies H_a,
    H_b as their number-basis diagonals d_a, d_b.

    The interaction V = H - H0 and the dense H_a, H_b and H0 = H_a + H_b are
    built only when asked for.
    """

    h: Matrix
    d_a: NDArray[np.float64]
    d_b: NDArray[np.float64]

    @property
    def v(self) -> Matrix:
        return _plus_diagonal(self.h, -(self.d_a + self.d_b))

    @property
    def h_a(self) -> Matrix:
        return np.diag(self.d_a.astype(np.complex128))

    @property
    def h_b(self) -> Matrix:
        return np.diag(self.d_b.astype(np.complex128))

    @property
    def h0(self) -> Matrix:
        return np.diag((self.d_a + self.d_b).astype(np.complex128))


def _bare_levels(sys: OscillatorSystem, cfg: FockConfig):
    """Diagonals of H_a = omega_a a^dag a and H_b = omega_b b^dag b on the composite space."""
    d_a = np.repeat(sys.omega_a * np.arange(cfg.n_a), cfg.n_b)
    d_b = np.tile(sys.omega_b * np.arange(cfg.n_b), cfg.n_a)
    return d_a, d_b


def build_hamiltonian(sys: OscillatorSystem, cfg: FockConfig) -> HamiltonianParts:
    """Assemble H = H0 + V for the system's interaction kind from single-mode blocks.

    The minimal-coupling kinds are built from the full quadratic forms
    (including the q^2 x^2 / 2m self-energy and zero-point offsets), with V
    defined as H - H0.
    """
    d_a, d_b = _bare_levels(sys, cfg)
    kind = sys.kind
    if kind in MINIMAL_KINDS:
        m, q = sys.mass(), float(sys.q or 0.0)
        x_a, p_a = _quadratures(cfg.n_a, sys.omega_a, m)
        x_b, p_b = _quadratures(cfg.n_b, sys.omega_b, m)
        mode_a = p_a @ p_a / (2.0 * m) + 0.5 * m * sys.omega_a**2 * (x_a @ x_a)
        mode_b = p_b @ p_b / (2.0 * m) + 0.5 * m * sys.omega_b**2 * (x_b @ x_b)
        # The modes commute, so (p_a - q x_b)^2 = p_a^2 - 2q p_a x_b + q^2 x_b^2
        # and (p_b + q x_a)^2 = p_b^2 + 2q x_a p_b + q^2 x_a^2.
        if kind is InteractionKind.MINIMAL_A:
            mode_b = mode_b + q * q / (2.0 * m) * (x_b @ x_b)
            cross = -(q / m) * np.kron(p_a, x_b)
        else:
            mode_a = mode_a + q * q / (2.0 * m) * (x_a @ x_a)
            cross = (q / m) * np.kron(x_a, p_b)
        h = np.kron(mode_a, np.eye(cfg.n_b)) + np.kron(np.eye(cfg.n_a), mode_b) + cross
    else:
        a, b = destroy(cfg.n_a), destroy(cfg.n_b)
        if kind is InteractionKind.NONE:
            h = np.zeros((cfg.dim, cfg.dim), dtype=np.complex128)
        elif kind is InteractionKind.RWA:
            h = 1j * sys.g * (np.kron(a, b.conj().T) - np.kron(a.conj().T, b))
        elif kind is InteractionKind.LINEAR:
            h = 1j * sys.g * np.kron(a.conj().T + a, b.conj().T - b)
        else:  # pragma: no cover - enum is closed
            raise ModelError(f"unknown interaction kind {kind!r}")
        h.flat[:: cfg.dim + 1] += d_a + d_b  # H = V + H0 in place
    return HamiltonianParts(h=h, d_a=d_a, d_b=d_b)


def _plus_diagonal(mat: Matrix, diag) -> Matrix:
    """mat + diag(diag) without forming the dense diagonal matrix."""
    out = mat.copy()
    out.flat[:: out.shape[0] + 1] += diag
    return out


def sectors(*matrices: Matrix) -> list[NDArray[np.intp]]:
    """Connected components of the graph whose edges are the exactly nonzero
    entries of the given square matrices (their joint pattern).

    There is no tolerance: a rounding-level entry joins two sectors instead of
    being dropped, so every matrix is exactly zero between the sectors
    returned.  Each sector is an ascending index array; sectors are ordered by
    their smallest index.
    """
    pattern = np.zeros(matrices[0].shape, dtype=bool)
    for mat in matrices:
        pattern |= mat != 0
    rows, cols = np.nonzero(pattern | pattern.T)
    label = np.arange(pattern.shape[0])
    # Each index takes the smallest label among its neighbours and then its
    # label's label; labels only fall, and stop once every edge joins equal
    # labels, each the smallest index of its component.
    while True:
        low = label.copy()
        np.minimum.at(low, rows, label[cols])
        low = low[low]
        if np.array_equal(low, label):
            break
        label = low
    order = np.argsort(label, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(label[order])) + 1)


def _eigh_sectors(h: Matrix):
    """(index, energies, vectors) of h restricted to each of its sectors."""
    return tuple((index, *np.linalg.eigh(h[np.ix_(index, index)])) for index in sectors(h))


def thermal_weights(beta: float, omega: float, n: int, tail_tol: float | None = None):
    """Occupation probabilities of the truncated thermal state (renormalised)."""
    if not (beta > 0.0 and omega > 0.0):
        raise ModelError("thermal state needs beta > 0 and omega > 0")
    if tail_tol is not None:
        tail = math.exp(-beta * omega * n)
        if tail >= tail_tol:
            raise TruncationError(
                f"thermal tail {tail:.3g} above {n} levels exceeds tail_tol {tail_tol:g}"
            )
    log_w = -beta * omega * np.arange(n)
    w = np.exp(log_w)
    return w / w.sum()


def thermal_state(beta: float, omega: float, n: int, tail_tol: float | None = None) -> Matrix:
    """Truncated Gibbs state: diagonal geometric weights, trace exactly one."""
    return np.diag(thermal_weights(beta, omega, n, tail_tol)).astype(np.complex128)


def thermal_product_state(sys: OscillatorSystem, prep: ThermalPreparation, cfg: FockConfig):
    """Diagonal weights of rho_a_th (x) rho_b_th on the composite space.

    This is also the truncation check, so every caller takes the weights
    before it pays for an eigendecomposition.
    """
    w_a = thermal_weights(prep.beta_a, sys.omega_a, cfg.n_a, cfg.tail_tol)
    w_b = thermal_weights(prep.beta_b, sys.omega_b, cfg.n_b, cfg.tail_tol)
    return np.kron(w_a, w_b)


def _require_hermitian(mat: Matrix, what: str, atol: float = 1e-12) -> None:
    if not np.isfinite(mat).all():  # NaN would pass the comparison below
        raise ModelError(f"{what} must be finite")
    scale = max(1.0, float(np.abs(mat).max(initial=0.0)))
    if np.abs(mat - mat.conj().T).max(initial=0.0) > atol * scale:
        raise ModelError(f"{what} must be Hermitian")


# Cache entries hold O(dim^2) arrays at worst, so the capacities are
# deliberately small; callers that sweep many systems should finish one system
# before the next.
@functools.lru_cache(maxsize=3)
def eigensystem(sys: OscillatorSystem, cfg: FockConfig):
    """Cached Hermitian eigendecomposition of H, one sector at a time, shared
    read-only by the ops below: a tuple of (index, energies, vectors) with
    H[index][:, index] = vectors diag(energies) vectors^dag."""
    blocks = _eigh_sectors(build_hamiltonian(sys, cfg).h)
    for block in blocks:
        for arr in block:
            arr.setflags(write=False)
    return blocks


def _phases(times, energies):
    """exp(-i E t) over times x energies (over energies for one time); a time
    whose E t overflows is a ModelError, not NaN phases."""
    with np.errstate(over="ignore", invalid="ignore"):  # _finite raises ModelError instead
        return _finite(np.exp(-1j * np.multiply.outer(times, energies)), "time")


def _sector_unitary(energies, vectors, t: float) -> Matrix:
    return (vectors * _phases(t, energies)) @ vectors.conj().T


def _scatter(blocks, dim: int, sector_matrix) -> Matrix:
    """Dense matrix equal to sector_matrix(index, energies, vectors) on each
    sector and zero between sectors."""
    out = np.zeros((dim, dim), dtype=np.complex128)
    for index, energies, vectors in blocks:
        out[np.ix_(index, index)] = sector_matrix(index, energies, vectors)
    return out


def _evolved(blocks, t: float, w) -> Matrix:
    """rho(t) = U(t) diag(w) U(t)^dag for a state diagonal in the number basis."""
    t = _checked(t, "time")

    def sector_state(index, energies, vectors):
        u = _sector_unitary(energies, vectors, t)
        return (u * w[index]) @ u.conj().T

    return _scatter(blocks, len(w), sector_state)


def unitary_at(t: float, sys: OscillatorSystem, cfg: FockConfig) -> Matrix:
    """U(t) = exp(-i H t) from the cached sector eigendecompositions of H."""
    t = _checked(t, "time")
    blocks = eigensystem(sys, cfg)
    return _scatter(blocks, cfg.dim, lambda index, energies, vectors: _sector_unitary(energies, vectors, t))


def _state_at(t: float, sys: OscillatorSystem, prep: ThermalPreparation, cfg: FockConfig) -> Matrix:
    w = thermal_product_state(sys, prep, cfg)
    return _evolved(eigensystem(sys, cfg), t, w)


def _in_eigenbasis(vectors, diag) -> Matrix:
    """S^dag diag(d) S for the eigenvector matrix S and an operator diagonal in
    the number basis: one product, not two."""
    return vectors.conj().T @ (diag[:, None] * vectors)


@functools.lru_cache(maxsize=4)
def _heat_kernel(sys: OscillatorSystem, prep: ThermalPreparation, cfg: FockConfig):
    """Products that make tr(H_c rho(t)) an O(sum of sector sizes^2) evaluation per time.

    rho(0) and H_c are diagonal and H is block-diagonal, so tr(X rho(t)) is a
    sum over sectors.  With rho and X in a sector's eigenbasis, its term is
    sum_jk e^{-i E_j t} K_jk e^{i E_k t} for the kernel K = X^T * rho (elementwise).
    Returns (kernels, tr(H_a rho(0)), tr(H_b rho(0))) with kernels a tuple of
    (energies, K_a, K_b), one per sector.
    """
    w = thermal_product_state(sys, prep, cfg)
    d_a, d_b = _bare_levels(sys, cfg)
    kernels = []
    for index, energies, vectors in eigensystem(sys, cfg):
        rho_eig = _in_eigenbasis(vectors, w[index])
        k_a = _in_eigenbasis(vectors, d_a[index]).T * rho_eig
        k_b = _in_eigenbasis(vectors, d_b[index]).T * rho_eig
        for arr in (k_a, k_b):
            arr.setflags(write=False)
        kernels.append((energies, k_a, k_b))
    return tuple(kernels), float(d_a @ w), float(d_b @ w)


def _expectations(kernels, times) -> NDArray[np.float64]:
    """tr(H_a rho(t)) and tr(H_b rho(t)) over every time: per block of times,
    one GEMM per sector and kernel, summed over sectors."""
    out = np.zeros((2, len(times)))
    for start in range(0, len(times), _SERIES_BLOCK):
        block = slice(start, start + _SERIES_BLOCK)
        for energies, *sector_kernels in kernels:
            phases = _phases(times[block], energies)
            for values, kernel in zip(out, sector_kernels):
                values[block] += np.einsum("tj,tj->t", phases @ kernel, phases.conj()).real
    return out


def heat_changes_numeric(
    sys: OscillatorSystem, prep: ThermalPreparation, cfg: FockConfig, t: float
) -> HeatReport:
    """dQ_c = tr(H_c rho(t)) - tr(H_c rho(0)) from the cached sector kernels."""
    return heat_series_numeric(sys, prep, cfg, [t])[0]


def heat_series_numeric(
    sys: OscillatorSystem,
    prep: ThermalPreparation,
    cfg: FockConfig,
    times: Sequence[float],
) -> list[HeatReport]:
    """Heat reports over a time grid from the cached kernel, in blocks of times."""
    times = _checked(times, "evaluation times")
    if times.ndim != 1:
        raise ModelError("evaluation times must be a one-dimensional sequence")
    if times.size == 0:
        return []
    kernels, q_a0, q_b0 = _heat_kernel(sys, prep, cfg)
    e_a, e_b = _expectations(kernels, times)
    return [
        HeatReport.from_heats(t, dq_a, dq_b, prep, sys)
        for t, dq_a, dq_b in zip(times.tolist(), (e_a - q_a0).tolist(), (e_b - q_b0).tolist())
    ]


@dataclass(frozen=True)
class BareBasisAmplitudes:
    """Transition amplitudes <p_a, q_b| U(t) |n_a, m_b> indexed (p, q, n, m)."""

    amplitudes: NDArray[np.complex128]

    def unitarity_defect(self) -> float:
        """Worst deviation of any initial state's total transition probability from 1."""
        probs = np.abs(self.amplitudes) ** 2
        return float(np.abs(probs.sum(axis=(0, 1)) - 1.0).max())


def bare_amplitudes(
    t: float, sys: OscillatorSystem, cfg: FockConfig
) -> BareBasisAmplitudes:
    u = unitary_at(t, sys, cfg)
    return BareBasisAmplitudes(
        amplitudes=u.reshape(cfg.n_a, cfg.n_b, cfg.n_a, cfg.n_b)
    )


def _transitions(t: float, sys: OscillatorSystem, prep: ThermalPreparation, cfg: FockConfig):
    """(P, W): P[p, q, n, m] = |<p_a, q_b| U(t) |n_a, m_b>|^2 and the initial
    thermal weights W[n, m], taken first because they hold the truncation check."""
    w = thermal_product_state(sys, prep, cfg).reshape(cfg.n_a, cfg.n_b)
    return np.abs(bare_amplitudes(t, sys, cfg).amplitudes) ** 2, w


def _average(f, probs, w, sys: OscillatorSystem) -> float:
    """sum_pqnm W[n, m] P[p, q, n, m] f(E_a(n), E_b(m), E_a(p), E_b(q)) over the bare levels."""
    e_a, e_b = sys.omega_a * np.arange(w.shape[0]), sys.omega_b * np.arange(w.shape[1])
    initial = e_a[None, None, :, None], e_b[None, None, None, :]
    values = f(*initial, e_a[:, None, None, None], e_b[None, :, None, None])
    return float(np.einsum("pqnm,nm->", probs * values, w).real)


def _jarzynski(probs, w) -> float:
    # weight * exp(f) = exp(-beta_a w'_a) / Z_a * exp(-beta_b w'_b) / Z_b: the
    # thermal weights of the final level (p, q).
    return float(np.einsum("pqnm,pq->", probs, w))


def classical_average(
    f: Callable[..., NDArray[np.float64]],
    t: float,
    sys: OscillatorSystem,
    prep: ThermalPreparation,
    cfg: FockConfig,
) -> float:
    """Thermal-weighted average of f over bare-state transition probabilities.

    f receives four broadcastable arrays (initial a-energy, initial b-energy,
    final a-energy, final b-energy) of the bare levels n*omega and must return
    an array of the broadcast shape (p, q, n, m).
    """
    return _average(f, *_transitions(t, sys, prep, cfg), sys)


def jarzynski_identity(
    t: float, sys: OscillatorSystem, prep: ThermalPreparation, cfg: FockConfig
) -> float:
    """E[exp(beta_a(w_a - w'_a) + beta_b(w_b - w'_b))]_t, identically 1.

    The thermal weights are folded into the exponent before exponentiating, so
    deep-cold preparations cannot overflow.
    """
    return _jarzynski(*_transitions(t, sys, prep, cfg))


def jensen_bound(
    t: float, sys: OscillatorSystem, prep: ThermalPreparation, cfg: FockConfig
) -> tuple[float, float]:
    """(exp(E[f]), E[exp f]) for the entropy exponent f; the first never exceeds
    the second, which is the free-entropy second law in disguise."""
    probs, w = _transitions(t, sys, prep, cfg)
    beta_a, beta_b = prep.beta_a, prep.beta_b
    mean_f = _average(lambda ea0, eb0, ea1, eb1: beta_a * (ea0 - ea1) + beta_b * (eb0 - eb1), probs, w, sys)
    return math.exp(mean_f), _jarzynski(probs, w)


def partial_trace_b(mat: Matrix, n_a: int, n_b: int) -> Matrix:
    """Trace out mode b (a-major composite index convention)."""
    return np.einsum("ikjk->ij", mat.reshape(n_a, n_b, n_a, n_b))


def partial_trace_a(mat: Matrix, n_a: int, n_b: int) -> Matrix:
    """Trace out mode a."""
    return np.einsum("kikj->ij", mat.reshape(n_a, n_b, n_a, n_b))


def _density_eigs(rho: Matrix, what: str, floor: float = -1e-10):
    values, vectors = np.linalg.eigh(rho)
    if values.min(initial=0.0) < floor:
        raise PositivityError(f"{what} has eigenvalue {values.min():.3g} below {floor:g}")
    return values, vectors


def _shannon(p) -> float:
    """-sum p ln p over the positive entries, so 0 ln 0 = 0."""
    positive = p[p > 0.0]
    return -float(positive @ np.log(positive))


def von_neumann_entropy(rho: Matrix) -> float:
    """-tr(rho ln rho) with 0 ln 0 = 0; rejects meaningfully negative eigenvalues."""
    return _shannon(_density_eigs(rho, "density matrix")[0])


# Any genuinely occupied thermal direction representable in double precision
# sits far above this, so eigenvalues below it are "numerically zero" and mark
# the edge of sigma's support.
_SUPPORT_EIGENVALUE = 1e-30
_SUPPORT_MASS = 1e-12
_LOG_CLAMP = 1e-300


def relative_entropy(rho: Matrix, sigma: Matrix) -> float:
    """S(rho || sigma) = tr(rho ln rho) - tr(rho ln sigma).

    sigma eigenvalues are clamped at 1e-300 for the logarithm, but only after
    checking that rho carries no meaningful mass outside sigma's support.
    """
    rho_vals, _ = _density_eigs(rho, "relative-entropy first argument")
    sig_vals, sig_vecs = _density_eigs(sigma, "relative-entropy second argument")
    # Mass of rho in each eigendirection of sigma.
    masses = np.real(np.einsum("ij,jk,ki->i", sig_vecs.conj().T, rho, sig_vecs))
    outside = masses[sig_vals < _SUPPORT_EIGENVALUE]
    if outside.size and outside.sum() > _SUPPORT_MASS:
        raise PositivityError(
            f"first argument has mass {outside.sum():.3g} outside the support of the second"
        )
    tr_rho_ln_sigma = float(masses @ np.log(np.maximum(sig_vals, _LOG_CLAMP)))
    return -_shannon(rho_vals) - tr_rho_ln_sigma


@dataclass(frozen=True)
class EntropyProduction:
    """Change, irreversible production and reversible flux of mode a's entropy."""

    ds_a: float
    ds_i_a: float
    ds_e_a: float


def entropy_production(
    t: float, sys: OscillatorSystem, prep: ThermalPreparation, cfg: FockConfig
) -> EntropyProduction:
    """Split dS_a into entropy production S(rho(t) || rho_a(t) (x) rho_b(0))
    and the reversible flux -beta_b dQ_b(t).

    The relative entropy is evaluated through the product structure of its
    second argument: ln(rho_a(t) (x) rho_b(0)) splits into a clean mode-a
    eigenproblem plus the analytically known Gibbs logarithm of rho_b(0).
    Diagonalising the composite product directly would drown its deep
    eigenvalue products (below ~1e-30) in eigensolver noise.
    """
    rho_t = _state_at(t, sys, prep, cfg)
    s_a_t = von_neumann_entropy(partial_trace_b(rho_t, cfg.n_a, cfg.n_b))
    # rho_a(0) is diagonal in the number basis: its entropy is that of its weights.
    ds_a = s_a_t - _shannon(thermal_weights(prep.beta_a, sys.omega_a, cfg.n_a, cfg.tail_tol))
    # tr(rho(t) [ln rho_a(t) (x) I]) = -S(rho_a(t)); the mode-b term uses
    # ln w_b = -beta_b E_n - ln Z_b exactly, no clamping required.
    log_w_b = -prep.beta_b * sys.omega_b * np.arange(cfg.n_b)
    log_w_b -= math.log(np.exp(log_w_b).sum())
    rho_b_t_diag = np.real(np.diag(partial_trace_a(rho_t, cfg.n_a, cfg.n_b)))
    tr_rho_ln_sigma = -s_a_t + float(log_w_b @ rho_b_t_diag)
    # Unitary evolution keeps the spectrum: S(rho(t)) = S(rho(0)) = -sum w ln w.
    ds_i_a = -_shannon(thermal_product_state(sys, prep, cfg)) - tr_rho_ln_sigma
    ds_e_a = -prep.beta_b * heat_changes_numeric(sys, prep, cfg, t).dq_b
    return EntropyProduction(ds_a=ds_a, ds_i_a=ds_i_a, ds_e_a=ds_e_a)


def true_energies(sys: OscillatorSystem, cfg: FockConfig) -> tuple[Matrix, Matrix]:
    """Subsystem energies that absorb the interaction: (H - H_b, H - H_a)."""
    parts = build_hamiltonian(sys, cfg)
    return _plus_diagonal(parts.h, -parts.d_b), _plus_diagonal(parts.h, -parts.d_a)


@dataclass(frozen=True)
class TrueHeatReport:
    """Heat transfer computed from interaction-absorbing subsystem energies,
    alongside the bare-energy value and the Gibbs-reversed fluxes."""

    t: float
    dq_ab_true: float
    dq_ab: float
    reversed_flux_a: float
    reversed_flux_b: float


def true_heat_transfer_identity(
    t: float, sys: OscillatorSystem, prep: ThermalPreparation, cfg: FockConfig
) -> TrueHeatReport:
    """dQ_ab from H_c_true = H - H_other equals the bare-energy dQ_ab: the two
    interaction contributions cancel in the difference.

    The true heats are traced against the dense rho(t), a route independent of
    the spectral kernel behind the bare-energy report.
    """
    report = heat_changes_numeric(sys, prep, cfg, t)
    w = thermal_product_state(sys, prep, cfg)
    rho_t = _state_at(t, sys, prep, cfg)

    def delta(h_true: Matrix) -> float:
        # tr(X rho) = vdot(X, rho) for Hermitian X, and rho(0) = diag(w).
        return float(np.vdot(h_true, rho_t).real - np.diag(h_true).real @ w)

    dq_true_a, dq_true_b = (delta(h_true) for h_true in true_energies(sys, cfg))
    return TrueHeatReport(
        t=t,
        dq_ab_true=dq_true_b - dq_true_a,
        dq_ab=report.dq_ab,
        reversed_flux_a=-(prep.beta_b / prep.beta_a) * report.dq_b,
        reversed_flux_b=-(prep.beta_a / prep.beta_b) * report.dq_a,
    )


def effective_hamiltonian(
    t: float,
    sys: OscillatorSystem,
    prep: ThermalPreparation,
    cfg: FockConfig,
    interaction: Matrix | None = None,
) -> Matrix:
    """Mode-a effective Hamiltonian tr_b[ V (I (x) rho_b(t)) ].

    ``interaction`` overrides the system's own V (the state still evolves
    under H0 + interaction), which is how non-linear couplings are probed.
    """
    w = thermal_product_state(sys, prep, cfg)
    if interaction is None:
        v = build_hamiltonian(sys, cfg).v
        blocks = eigensystem(sys, cfg)
    else:
        _require_hermitian(interaction, "interaction override")
        d_a, d_b = _bare_levels(sys, cfg)
        v = interaction
        blocks = _eigh_sectors(_plus_diagonal(v, d_a + d_b))
    rho_b_t = partial_trace_a(_evolved(blocks, t, w), cfg.n_a, cfg.n_b)
    # tr_b[V (I (x) rho_b)]_ij = sum_kl V_(ik),(jl) (rho_b)_lk
    return np.einsum("ikjl,lk->ij", v.reshape(cfg.n_a, cfg.n_b, cfg.n_a, cfg.n_b), rho_b_t)


def diagonal_split(h_eff: Matrix) -> tuple[Matrix, Matrix]:
    """Split into the part diagonal in the number basis and the remainder."""
    diag = np.diag(np.diag(h_eff))
    return diag, h_eff - diag


def spectrum_match(
    sys_a: OscillatorSystem, sys_b: OscillatorSystem, cfg: FockConfig, k: int
) -> float:
    """Largest discrepancy among the lowest k eigenvalues of the two
    minimal-coupling Hamiltonians (unitarily equivalent in infinite dimension)."""
    if sys_a.kind is not InteractionKind.MINIMAL_A or sys_b.kind is not InteractionKind.MINIMAL_B:
        raise ModelError("spectrum_match compares kind=minimal-a against kind=minimal-b")
    if (sys_a.m, sys_a.q, sys_a.omega_a, sys_a.omega_b) != (
        sys_b.m,
        sys_b.q,
        sys_b.omega_a,
        sys_b.omega_b,
    ):
        raise ModelError("spectrum_match needs identical m, q and frequencies")
    if k > cfg.dim // 4:
        raise TruncationError(
            f"k={k} reaches into the truncation-contaminated band (limit {cfg.dim // 4})"
        )
    levels_a, levels_b = (_lowest_levels(build_hamiltonian(s, cfg).h, k) for s in (sys_a, sys_b))
    return float(np.abs(levels_a - levels_b).max())


def _lowest_levels(h: Matrix, k: int) -> NDArray[np.float64]:
    """The k lowest eigenvalues of h, merged from its sectors."""
    levels = [np.linalg.eigvalsh(h[np.ix_(index, index)]) for index in sectors(h)]
    return np.sort(np.concatenate(levels))[:k]
