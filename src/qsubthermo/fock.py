"""Truncated-Fock-space oracle: exact evolution and first-principles heat, in stacks of sectors.

Everything here is computed from truncated number-basis matrices with no input
from the closed forms in ``analytic`` (the two import only ``model``, which
holds the heat report and the time rule they share), so the two routes
cross-validate each other.  Composite indexing is a-major: basis state
|i_a, i_b> sits at row i_a * n_b + i_b, i.e. operators extend to the composite
space as numpy.kron(op_a, identity_b) and numpy.kron(identity_a, op_b).  The
bare energies H_a, H_b are diagonal in this basis, and every other term of H
is a kron of two single-mode matrices, so H is assembled as an edge list: each
term contributes the products of the nonzero entries of its two factors, and
no dim x dim array is formed.

H is block-diagonal: ``sectors`` reads its conserved sectors from the exactly
nonzero entries of H itself (never from the interaction kind), so N_a + N_b
shows up for the exchange coupling, (N_a + N_b) mod 2 for the linear and
minimal couplings, and single levels when uncoupled.  One breadth-first pass
over the edge list reads a real gauge: unit phases that make a spanning tree
of each sector's nonzero entries real and positive.  The same pass reads the
mode exchange (i_a, i_b) -> (i_b, i_a) where it is an exact symmetry of a
gauged block up to signs, as on resonance with equal cutoffs for the exchange
and linear couplings, and such a sector is kept as its two halves of
exchange parity +1 and -1 end to end.  Sectors of one size, split and type
share a stack of at most max(dim, k_max^2) entries for the largest sector
size k_max; each stack's halves are cut straight from the gauged edge list,
diagonalised with one eigh each and kept as their eigenvectors, so no k x k
block or eigenvector matrix of a split sector is formed.  Every H built here
gauges real (each entry is purely real or imaginary, i^{N_a} or i^{N_b} is
a real gauge, and the pass's phases are exactly +-1 or +-i), so the heat
and transition routes are real; only an ``interaction`` override's complex
stacks take the generic rho(t) routes.  Time evolution reuses those
eigendecompositions, never a generic matrix exponential: the phases e^{-iEt}
enter as the real pair cos(Et), sin(Et), and every route takes batched
half-size products one stack at a time, mapped back onto a sector's states
through the one coordinate per half each state has.  One list of a stack's
blocks (+, +), (-, -) and (+, -), each a sandwich Y_a^T diag(d) Y_b, serves
the heat kernel, weighted panels of columns that stop at a symmetric block's
diagonal, and rho(t), the blocks of V^dag diag(w) V with e^{-i(E_j - E_k)t}.
rho(t) vanishes between sectors, so partial traces, traces against H and
transition probabilities gather its sector blocks: no call returns a dim x dim
array.  One cached gather per time holds the reduced states, rho(t) on H and H
itself, assembled once and handed to the two routes that trace against it.
The thermal sums share one cached transition pass, which forms one stack's
|U|^2 at a time and hands it to per-stack sums.  Each cache drops its one key
before building another, so one system is held at a time and alternating
between two rebuilds.  An even series grid takes libm's phases for its first
block of times alone and turns each later block from the one before, one
rounding of E t more per block.  The decomposition audit reads [H0, H] from
the edge list of H alone, never from the stacks or their gauge.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from types import SimpleNamespace
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
    TAIL_TOL_DEFAULT,
    ThermalPreparation,
    TruncationError,
    _checked,
    _finite,
)

__all__ = [
    "FockConfig",
    "HamiltonianParts",
    "EntropyProduction",
    "TrueHeatReport",
    "destroy",
    "build_hamiltonian",
    "DecompositionAudit",
    "decomposition_audit",
    "heat_changes_numeric",
    "heat_series_numeric",
    "classical_average",
    "jarzynski_identity",
    "jensen_bound",
    "von_neumann_entropy",
    "entropy_production",
    "true_heat_transfer_identity",
    "effective_hamiltonian",
    "diagonal_split",
    "spectrum_match",
]

Matrix = NDArray[np.complex128]

_DIM_CAP = 64

# Times per GEMM in a heat series, and columns per panel of its kernel: bounds each
# (block x sector size) phase or kernel panel while keeping products large enough for BLAS.
_SERIES_BLOCK = 128
# A series grid is even when each t_j is within this times max |t| of t_0 + j step, as np.linspace leaves it.
_EVEN_TOL = 8 * np.finfo(float).eps


@dataclass(frozen=True)
class FockConfig:
    """Per-mode truncation dimensions and the thermal tail tolerance for the oracle."""

    n_a: int
    n_b: int
    tail_tol: float = TAIL_TOL_DEFAULT

    def __post_init__(self) -> None:
        if not all(isinstance(n, (int, np.integer)) and not isinstance(n, bool) for n in (self.n_a, self.n_b)):
            raise ModelError(f"Fock cutoffs must be integers, got n_a={self.n_a!r}, n_b={self.n_b!r}")
        if self.n_a < 2 or self.n_b < 2:
            raise ModelError("each mode needs at least two Fock levels")
        if not 0.0 < self.tail_tol < 1.0:  # NaN fails too
            raise ModelError(f"tail_tol must lie strictly between 0 and 1, got {self.tail_tol}")

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

        Both modes get the cutoff of the hotter one (the smaller beta*omega):
        the coupling moves its population into the colder mode's space.  The
        cutoff is the first that passes the check ``thermal_weights`` makes.
        """
        cls(2, 2, tail_tol)  # checks tail_tol before anything is sized
        beta, omega = min((prep.beta_a, sys.omega_a), (prep.beta_b, sys.omega_b), key=lambda mode: mode[0] * mode[1])
        for n in range(2, _DIM_CAP + 1):
            if _thermal_tail(beta, omega, n) < tail_tol:
                return cls(n_a=n, n_b=n, tail_tol=tail_tol)
        raise TruncationError(
            f"beta*omega = {beta * omega!r} needs more than {_DIM_CAP} levels for tail {tail_tol:g} "
            f"(beta*omega must exceed {math.log(1.0 / tail_tol) / _DIM_CAP!r})"
        )


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
    """Total Hamiltonian H on the composite space as an edge list, its exactly
    nonzero entries ``vals`` at (``rows``, ``cols``) in row-major order, and
    the bare energies H_a, H_b as their number-basis diagonals d_a, d_b."""

    rows: NDArray[np.intp]
    cols: NDArray[np.intp]
    vals: NDArray[np.complex128]
    d_a: NDArray[np.float64]
    d_b: NDArray[np.float64]

    @property
    def dim(self) -> int:
        return len(self.d_a)

    def entries(self, shift):
        """(rows, cols, values) of H + diag(shift): the off-diagonal edges of H,
        then its whole diagonal, shifted."""
        off = self.rows != self.cols
        diag = np.zeros(self.dim, dtype=np.complex128)
        diag[self.rows[~off]] = self.vals[~off]
        diag += shift
        index = np.arange(self.dim)
        return (
            np.concatenate([self.rows[off], index]),
            np.concatenate([self.cols[off], index]),
            np.concatenate([self.vals[off], diag]),
        )


def _nonzero_entries(mat: Matrix):
    """(rows, cols, values) of the exactly nonzero entries of a dense matrix, row-major."""
    rows, cols = np.nonzero(mat)
    return rows, cols, mat[rows, cols]


def _bare_levels(sys: OscillatorSystem, cfg: FockConfig):
    """Diagonals of H_a = omega_a a^dag a and H_b = omega_b b^dag b on the composite space."""
    d_a = np.repeat(sys.omega_a * np.arange(cfg.n_a), cfg.n_b)
    d_b = np.tile(sys.omega_b * np.arange(cfg.n_b), cfg.n_a)
    return d_a, d_b


def _kron_entries(terms, cfg: FockConfig):
    """(rows, cols, values): every position, row-major, on the diagonal or where
    some kron(A, B) of terms multiplies two nonzero entries, and each term's
    entries there, the products A[i, j] * B[k, l] that numpy.kron forms."""
    dim, n_b = cfg.dim, cfg.n_b
    keys = [np.arange(dim) * (dim + 1)]
    for a, b in terms:
        (ra, ca), (rb, cb) = np.nonzero(a), np.nonzero(b)
        keys.append(((ra * n_b)[:, None] + rb).ravel() * dim + ((ca * n_b)[:, None] + cb).ravel())
    keys = np.sort(np.concatenate(keys))  # deduplicated by hand: np.unique would import numpy.ma
    rows, cols = np.divmod(keys[np.append(True, keys[1:] != keys[:-1])], dim)
    (ra, rb), (ca, cb) = np.divmod(rows, n_b), np.divmod(cols, n_b)
    return rows, cols, [a[ra, ca] * b[rb, cb] for a, b in terms]


def build_hamiltonian(sys: OscillatorSystem, cfg: FockConfig) -> HamiltonianParts:
    """Assemble H = H0 + V for the system's interaction kind from single-mode blocks.

    The minimal-coupling kinds are built from the full quadratic forms
    (including the q^2 x^2 / 2m self-energy and zero-point offsets), with V
    defined as H - H0.  Each entry takes the arithmetic, in order, of the dense
    sum of kron terms, so the edge list holds exactly the nonzero entries of
    that dense H, bit for bit.
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
            factors, scale = (p_a, x_b), -(q / m)
        else:
            mode_a = mode_a + q * q / (2.0 * m) * (x_a @ x_a)
            factors, scale = (x_a, p_b), q / m
        # H = kron(mode_a, I) + kron(I, mode_b) + scale * kron(*factors)
        rows, cols, (vals, term_b, cross) = _kron_entries(
            [(mode_a, np.eye(cfg.n_b)), (np.eye(cfg.n_a), mode_b), factors], cfg
        )
        vals += term_b
        cross *= scale
        vals += cross
    else:
        a, b = destroy(cfg.n_a), destroy(cfg.n_b)
        a_dag, b_dag = a.conj().T, b.conj().T
        if kind is InteractionKind.NONE:
            rows, cols, _ = _kron_entries([], cfg)
            vals = np.zeros(len(rows), dtype=np.complex128)
        elif kind is InteractionKind.RWA:
            rows, cols, (vals, back) = _kron_entries([(a, b_dag), (a_dag, b)], cfg)
            vals -= back
            vals *= 1j * sys.g
        elif kind is InteractionKind.LINEAR:
            rows, cols, (vals,) = _kron_entries([(a_dag + a, b_dag - b)], cfg)
            vals *= 1j * sys.g
        diag = rows == cols
        vals[diag] += (d_a + d_b)[rows[diag]]  # H = V + H0
    keep = vals != 0
    return HamiltonianParts(rows[keep], cols[keep], vals[keep], d_a, d_b)


#: Commutator norms below this make a decomposition csl_safe.
COMMUTATOR_TOL = 1e-10


@dataclass(frozen=True)
class DecompositionAudit:
    """Frobenius norms of the three equivalent bare-energy commutators."""

    norm_h0v: float
    norm_hv: float
    norm_h0h: float
    csl_safe: bool


def decomposition_audit(sys: OscillatorSystem, cfg: FockConfig) -> DecompositionAudit:
    """Measure [H0, V], [H, V] and [H0, H] on the Fock oracle.

    The oracle defines V as H - H0, so [H, V] = [H0 + V, V] = [H0, V] =
    [H0, H] exactly, as matrices, and the three norms are one number, read
    from the edge list of H; csl_safe reports whether it vanishes, which is
    the sufficient condition for the Clausius sign rule.
    """
    parts = build_hamiltonian(sys, cfg)
    # H0 is diagonal, so [H0, X]_ij = (d_i - d_j) X_ij needs no product, and
    # the gaps vanish on the diagonal, where alone V and H differ.  The squares
    # are summed elementwise: np.linalg.norm takes a threaded BLAS dot, which in
    # a fresh process stalls about 8 ms at 10 001-19 999 entries.
    d = parts.d_a + parts.d_b
    v = (d[parts.rows] - d[parts.cols]) * parts.vals
    norm = float(np.sqrt(np.sum(v.real**2 + v.imag**2)))
    return DecompositionAudit(norm_h0v=norm, norm_hv=norm, norm_h0h=norm, csl_safe=norm < COMMUTATOR_TOL)


def sectors(parts: HamiltonianParts) -> list[NDArray[np.intp]]:
    """Connected components of the graph whose edges are the exactly nonzero
    entries of H, read from its edge list.

    There is no tolerance: a rounding-level entry joins two sectors instead of
    being dropped, so H is exactly zero between the sectors returned.  Each
    sector is an ascending index array; sectors are ordered by their smallest
    index.
    """
    rows, cols = parts.rows, parts.cols
    label = np.arange(parts.dim)
    # Each index takes the smallest label among its neighbours and then its
    # label's label; labels only fall, and stop once every edge joins equal
    # labels, each the smallest index of its component.
    while True:
        low = label.copy()
        np.minimum.at(low, rows, label[cols])
        np.minimum.at(low, cols, label[rows])
        low = low[low]
        if np.array_equal(low, label):
            break
        label = low
    order = np.argsort(label, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(label[order])) + 1)


def _grouped(owner, count: int):
    """Positions of the entries of owner that hold each value 0 .. count - 1, ascending."""
    order = np.argsort(owner, kind="stable")
    return np.split(order, np.cumsum(np.bincount(owner, minlength=count))[:-1])


def _stack_layout(stacks, dim: int):
    """(stack, member, local): for each state, the stack among the (m, k)
    index arrays that holds it, its sector's row there and its position in it."""
    stack, member, local = (np.empty(dim, dtype=np.intp) for _ in range(3))
    for s, index in enumerate(stacks):
        stack[index], member[index], local[index] = s, np.arange(len(index))[:, None], np.arange(index.shape[1])
    return stack, member, local


def _real_gauge(parts: HamiltonianParts, roots):
    """(z, tree): unit phases z on every state, read from the exactly nonzero
    entries of H in one breadth-first pass from roots, the first state of each
    sector, and the pass's levels as (children, the edge into each).

    Each state of a level takes its phase from the smallest-index state of
    the level before that links to it, so that z makes that link of
    conj(z) H z real and positive.
    """
    rows, cols, vals = parts.rows, parts.cols, parts.vals
    z = np.ones(parts.dim, dtype=np.complex128)
    level = np.zeros(parts.dim, dtype=bool)
    level[roots] = True
    reached, tree = level.copy(), []
    while level.any():
        links = np.flatnonzero(level[rows] & ~reached[cols])
        # the edges are row-major, so the first link into each child is from its smallest-index parent
        child, first = np.unique(cols[links], return_index=True)
        tree.append((child, links[first]))
        parent, edge = rows[links[first]], vals[links[first]]
        size = np.abs(edge)
        # conj(edge) / |edge| part by part: complex division by |edge| would
        # multiply by its rounded reciprocal and miss 1 for a real or imaginary edge
        z[child] = z[parent] * (edge.real / size - 1j * (edge.imag / size))
        reached[child] = True
        level[:] = False
        level[child] = True
    return z, tree


def _mode_exchange(parts: HamiltonianParts, gauged, tree, sector):
    """(mirror, sign) on every state: the mode exchange pi(i_a, i_b) = (i_b, i_a)
    and signs sigma with B[pi, pi] == sigma sigma^T * B, bit for bit, on the
    gauged block B of each sector that pi maps onto itself with d_a[pi] ==
    d_b and sigma[pi] == sigma; the identity and +1 on every other sector.

    sigma is read along the gauge's tree from each sector's first state, where
    it is +1, and then every gauged entry checks it, with no tolerance.
    """
    dim, d_a, d_b = parts.dim, parts.d_a, parts.d_b
    identity, sign = np.arange(dim), np.ones(dim)
    n = np.count_nonzero(d_a == d_a[0])  # n_b, so n_a == n_b exactly when n^2 == n_a n_b
    if n * n != dim:
        return identity, sign
    i_a, i_b = np.divmod(identity, n)
    swap = i_b * n + i_a
    rows, cols = parts.rows, parts.cols
    keys, wanted = rows * dim + cols, swap[rows] * dim + swap[cols]
    at = np.searchsorted(keys, wanted).clip(max=len(keys) - 1)
    mirrored = np.where(keys[at] == wanted, gauged[at], 0.0)  # B is zero where H has no entry
    flip = np.where(mirrored == -gauged, -1.0, 1.0)
    for child, edge in tree:
        sign[child] = sign[rows[edge]] * flip[edge]
    bad = (sector[swap] != sector) | (d_a[swap] != d_b) | (sign[swap] != sign)
    bad[rows[mirrored != sign[rows] * sign[cols] * gauged]] = True
    bad_sector = np.zeros(sector.max() + 1, dtype=bool)
    bad_sector[sector[bad]] = True
    bad = bad_sector[sector]
    return np.where(bad, identity, swap), np.where(bad, 1.0, sign)


def sector_blocks(parts: HamiltonianParts):
    """(index, z, plus, minus, sign) for each stack of sectors of H, filled
    straight from the gauged edge list: index (m, k) holds m sectors of k
    states, z (m, k) their gauge, and plus (m, h, h) and minus (m, k - h, k -
    h) the halves Q+^T B Q+ and Q-^T B Q- of their gauged blocks B = conj(z)
    H z.  This is the one place that tells real from complex: a stack is
    float64 where no gauged entry has an imaginary part, as for every system
    (each entry of H is purely real or imaginary, i^{N_a} or i^{N_b} is a
    real gauge, and z is exactly 1, -1, i or -i), and complex128 where an
    ``interaction`` override leaves one.

    A sector with the mode exchange of ``_mode_exchange`` lists its states as
    [F+ | H | F- | M]: the fixed points of sign +1, the pair heads (each
    below its mirror), the fixed points of sign -1, and the heads' mirrors in
    the heads' order; sign (m, n) holds sigma on its n heads, and h = |F+| +
    n.  The exchange diag(sigma) P is +1 on the columns of Q+, e_f for f in
    F+ and (e_j + sigma_j e_pi(j)) / sqrt(2) for each head j, and -1 on those
    of Q-, (e_j - sigma_j e_pi(j)) / sqrt(2) and e_f for f in F-.  B[pi, pi]
    == sigma sigma^T * B bit for bit, so each half is B on its states, plus
    or minus B[H, M] sigma between heads, and times sqrt(2) between heads and
    fixed points: no k x k block is formed.  Any other sector lists its
    states in ascending order as F+ alone, with h = k, n = 0, Q = 1 and an
    empty minus half.  Sectors of one size, layout and type share a stack,
    in the order of sectors(parts), of up to max(dim, k_max^2) entries of
    their k x k blocks.
    """
    found = sectors(parts)
    order, sizes = np.concatenate(found), np.fromiter(map(len, found), dtype=np.intp, count=len(found))
    starts = np.cumsum(sizes) - sizes
    z, tree = _real_gauge(parts, order[starts])
    rows, cols = parts.rows, parts.cols
    gauged = parts.vals * z[cols]
    gauged *= z[rows].conj()
    complex_sector = np.zeros(parts.dim, dtype=bool)
    complex_sector[rows[gauged.imag != 0]] = True
    complex_sector = np.logical_or.reduceat(complex_sector[order], starts)
    sector = np.empty(parts.dim, dtype=np.intp)
    sector[order] = np.repeat(np.arange(len(found)), sizes)
    mirror, sign = _mode_exchange(parts, gauged, tree, sector)
    state = np.arange(parts.dim)
    part = np.select([state < mirror, state > mirror, sign > 0], [1, 3, 0], 2)  # F+ 0, H 1, F- 2, M 3
    order = np.lexsort((np.minimum(state, mirror), part, sector))
    heads = np.add.reduceat(part[order] == 1, starts)
    halves = np.add.reduceat(part[order] == 0, starts) + heads
    cap, plan = max(parts.dim, int(sizes.max()) ** 2), []
    for k, h, n, is_complex in dict.fromkeys(zip(*(x.tolist() for x in (sizes, halves, heads, complex_sector)))):
        alike = np.flatnonzero((sizes == k) & (halves == h) & (heads == n) & (complex_sector == is_complex))
        for chunk in np.split(alike, range(cap // k**2, len(alike), cap // k**2)):
            plan.append((order[starts[chunk, None] + np.arange(k)], h, n, is_complex))
    del tree, sector, mirror, state, part  # dead while the caller diagonalises each stack
    stack, member, local = _stack_layout([index for index, *_ in plan], parts.dim)
    # no edge joins two sectors, so each belongs to the stack and member of its row
    for (index, h, n, is_complex), edges in zip(plan, _grouped(stack[rows], len(plan))):
        r, c = rows[edges], cols[edges]
        values = gauged[edges] if is_complex else gauged.real[edges]
        i, p, q = member[r], local[r], local[c]
        (m, k), fixed = index.shape, h - n
        on_head, to_head = (p >= fixed) & (p < h), (q >= fixed) & (q < h)
        across = on_head & (q >= k - n)  # B[H, M] sigma, added onto B[H, H]
        exchange, head = values[across] * sign[c[across]], q[across] - (k - h)
        values = np.where(on_head == to_head, values, values * math.sqrt(2.0))  # between heads and fixed points
        out = []
        for low, high, flip in ((0, h, exchange), (fixed, k - n, -exchange)):
            inside = (p >= low) & (p < high) & (q >= low) & (q < high)
            half = np.zeros((m, high - low, high - low), dtype=values.dtype)
            half[i[inside], p[inside] - low, q[inside] - low] = values[inside]
            half[i[across], p[across] - low, head - low] += flip
            out.append(half)
        yield index, z[index], *out, sign[index[:, fixed:h]]


def _eigh_sectors(parts: HamiltonianParts):
    """(index, energies, y_plus, y_minus, z, sign) for each stack of
    sector_blocks, one eigh per half: H restricted to each sector is diag(z)
    V diag(energies) V^dag diag(z)^dag for V = Q blockdiag(Y+, Y-), the
    energies ordered [+ | -] and Y real wherever z makes the block real."""
    stacks = []
    for index, z, plus, minus, sign in sector_blocks(parts):
        (e_plus, y_plus), (e_minus, y_minus) = np.linalg.eigh(plus), np.linalg.eigh(minus)
        stacks.append((index, np.concatenate([e_plus, e_minus], axis=1), y_plus, y_minus, z, sign))
    return tuple(stacks)


def _exchange_rows(k: int, h: int, sign):
    """(at, weight): the rows of Q+ (at[0], weight[0]) and Q- (at[1],
    weight[1]) for a stack of sectors, as each local position's coordinate
    in the half and its weight there, 0 where it has none: 1 on the fixed
    points, 1/sqrt(2) on the heads and +-sigma/sqrt(2) on their mirrors."""
    n = sign.shape[-1]
    fixed = h - n
    at, weight = np.zeros((2, k), dtype=np.intp), np.zeros((2, len(sign), k))
    at[0, :h], at[0, k - n :], at[1, fixed : k - n], at[1, k - n :] = np.arange(h), np.arange(fixed, h), np.arange(k - h), np.arange(n)
    weight[0, :, :h] = weight[1, :, fixed : k - n] = 1.0
    weight[:, :, fixed:h] = math.sqrt(0.5)
    weight[:, :, k - n :] = np.stack([sign, -sign]) * math.sqrt(0.5)
    return at, weight


def _half_diagonals(d, h: int, n: int):
    """(Q+^T D Q+, Q-^T D Q-, Q+^T D Q- on the heads) for D = diag(d) on the
    sectors of a stack: diag(d_F+, (d_H + d_M) / 2), diag((d_H + d_M) / 2,
    d_F-) and diag((d_H - d_M) / 2), zero off the heads' coordinates."""
    fixed_plus, heads, fixed_minus, mirrors = np.split(d, [h - n, h, d.shape[-1] - n], axis=-1)
    mean = (heads + mirrors) / 2.0
    return np.concatenate([fixed_plus, mean], axis=-1), np.concatenate([mean, fixed_minus], axis=-1), (heads - mirrors) / 2.0


def _half_blocks(h: int, k: int, n: int):
    """(a, b, rows, cols, left, right) for the (+, +), (-, -) and (+, -) blocks
    of a stack split at h with n heads, in the order of ``_half_diagonals``:
    halves a and b (0 for +, 1 for -), their energies, and the coordinates of
    Y_a and Y_b that Q_a^T D Q_b touches.  h == k keeps (+, +) alone."""
    plus, minus, every = slice(None, h), slice(h, None), slice(None)
    blocks = [(0, 0, plus, plus, every, every), (1, 1, minus, minus, every, every), (0, 1, plus, minus, slice(h - n, h), slice(None, n))]
    return blocks if h < k else blocks[:1]


def _sandwich(left, d, right):
    """left^T diag(d) right for each sector of a stack."""
    return left.swapaxes(-1, -2) @ (d[..., None] * right)


def _thermal_tail(beta: float, omega: float, n: int) -> float:
    """Thermal population above level n, exactly exp(-beta*omega*n): n holds when it is below tail_tol."""
    return math.exp(-beta * omega * n)


def thermal_weights(beta: float, omega: float, n: int, tail_tol: float | None = None):
    """Occupation probabilities of the truncated thermal state (renormalised)."""
    if not (beta > 0.0 and omega > 0.0):
        raise ModelError("thermal state needs beta > 0 and omega > 0")
    if tail_tol is not None:
        tail = _thermal_tail(beta, omega, n)
        if not tail < tail_tol:
            raise TruncationError(
                f"thermal tail {tail:.3g} above {n} levels exceeds tail_tol {tail_tol:g}"
            )
    log_w = -beta * omega * np.arange(n)
    w = np.exp(log_w)
    return w / w.sum()


def thermal_product_state(sys: OscillatorSystem, prep: ThermalPreparation, cfg: FockConfig):
    """Diagonal weights of rho_a_th (x) rho_b_th on the composite space.

    This is also the truncation check, so every caller takes the weights
    before it pays for an eigendecomposition.
    """
    w_a = thermal_weights(prep.beta_a, sys.omega_a, cfg.n_a, cfg.tail_tol)
    w_b = thermal_weights(prep.beta_b, sys.omega_b, cfg.n_b, cfg.tail_tol)
    return np.kron(w_a, w_b)


# An override is Hermitian when no entry of mat - mat^dag exceeds this times its largest entry.
_HERMITIAN_TOL = 1e-12


def _require_hermitian(mat: Matrix, what: str) -> None:
    if not np.isfinite(mat).all():  # NaN would pass the comparison below
        raise ModelError(f"{what} must be finite")
    scale = max(1.0, float(np.abs(mat).max(initial=0.0)))
    if np.abs(mat - mat.conj().T).max(initial=0.0) > _HERMITIAN_TOL * scale:
        raise ModelError(f"{what} must be Hermitian")


# Cache entries hold O(dim^2) arrays, so each cache keeps its latest key alone
# and drops it before computing another: two systems' arrays never coexist, and
# a caller that alternates between two systems rebuilds on every switch.
def _latest(fn):
    held, info = {}, {"hits": 0, "misses": 0}
    def cached(*args):
        info["hits" if args in held else "misses"] += 1
        if args not in held:
            held.clear()  # before fn runs, so the old entry is freed first
            held[args] = fn(*args)
        return held[args]
    cached.cache_clear = lambda: (held.clear(), info.update(hits=0, misses=0))
    cached.cache_info = lambda: SimpleNamespace(**info, currsize=len(held))
    return functools.update_wrapper(cached, fn)


@_latest
def eigensystem(sys: OscillatorSystem, cfg: FockConfig):
    """Cached Hermitian eigendecomposition of H, one stack of sectors at a
    time, shared read-only by the ops below: the tuple of ``_eigh_sectors``,
    each stack kept as the eigenvectors of its two halves."""
    stacks = _eigh_sectors(build_hamiltonian(sys, cfg))
    for stack in stacks:
        for arr in stack:
            arr.setflags(write=False)
    return stacks


def _phases(times, energies):
    """(cos E t, sin E t) over the broadcast of times and energies, so that
    e^{-iEt} = cos - i sin; a time whose E t overflows is a ModelError, not NaN
    phases."""
    with np.errstate(over="ignore", invalid="ignore"):  # _finite raises ModelError instead
        et = np.multiply(times, energies)
        return _finite(np.cos(et), "time"), np.sin(et, out=et)


def _sector_state(stack, t: float, w, n, p, q):
    """rho(t) = U(t) diag(w) U(t)^dag at local entries (p, q) of the sectors
    n of a stack, from the halves alone: diag(z) V (G o e^{-i(E_j - E_k)t})
    V^dag diag(z)^dag for V = Q blockdiag(Y+, Y-) and G = V^dag diag(w) V.
    Each block of ``_half_blocks`` is R_ab = Y_a (G_ab o e^{-i(E_a - E_b)t})
    Y_b^dag, G_ab being the kernel's rho with Y_a conjugated, and R_-+ =
    R_+-^dag; the phases' real and imaginary parts take two products each,
    real where Y is.  Each state has at most one coordinate per half, so each
    entry gathers one entry of each block: no k x k array is formed."""
    index, energies, *halves, z, sign = stack
    (_, k), h, heads = index.shape, halves[0].shape[-1], sign.shape[-1]
    (at, weight), (cos, sin) = _exchange_rows(k, h, sign), _phases(t, energies)
    out = np.zeros(len(p), dtype=np.complex128)
    for (a, b, rows, cols, left, right), diagonal in zip(_half_blocks(h, k, heads), _half_diagonals(w, h, heads)):
        g = _sandwich(halves[a][:, left].conj(), diagonal, halves[b][:, right])
        c_a, s_a, c_b, s_b = cos[:, rows, None], sin[:, rows, None], cos[:, None, cols], sin[:, None, cols]
        # e^{-i(E_a - E_b)t} = (c_a c_b + s_a s_b) + i (c_a s_b - s_a c_b), one part at a time
        for unit, (x, y, u, v) in ((1.0, (c_a, c_b, s_a, s_b)), (1j, (c_a, s_b, -s_a, c_b))):
            part = x * y
            part += u * v
            part = g * part
            part = halves[a] @ part
            part = part @ halves[b].conj().swapaxes(-1, -2)
            out += unit * part[n, at[a, p], at[b, q]] * weight[a, n, p] * weight[b, n, q]
            if a != b:  # R_-+ = R_+-^dag
                out += (unit * part[n, at[a, q], at[b, p]]).conj() * weight[b, n, p] * weight[a, n, q]
            del part
    return out * (z[n, p] * z[n, q].conj())


def _evolved(stacks, t: float, w, rows, cols):
    """rho(t) = U(t) diag(w) U(t)^dag at the entries (rows, cols), for a
    number-diagonal state w and a _checked time, one stack of sectors at a
    time: rho(t) vanishes between sectors."""
    stack, member, local = _stack_layout([index for index, *_ in stacks], len(w))
    # entries between two sectors make one more group, left at zero; the owners die before out is made
    same = (stack[rows] == stack[cols]) & (member[rows] == member[cols])
    groups = _grouped(np.where(same, stack[rows], len(stacks)), len(stacks) + 1)
    out = np.zeros(len(rows), dtype=np.complex128)
    for entry, picked in zip(stacks, groups):
        if picked.size:
            r, c = rows[picked], cols[picked]
            out[picked] = _sector_state(entry, t, w[entry[0]], member[r], local[r], local[c])
    return out


def _partial_traces(blocks, t: float, w, n_a: int, n_b: int, rows=(), cols=()):
    """(tr_b rho(t), tr_a rho(t), rho(t) at (rows, cols)) from one gather of the entries of rho(t)."""
    i, j, k = np.ogrid[:n_a, :n_a, :n_b]  # rho_a[i, j] sums rho[(i, k), (j, k)]
    traced_b = np.broadcast_arrays(i * n_b + k, j * n_b + k)
    i, j, k = np.ogrid[:n_b, :n_b, :n_a]  # rho_b[i, j] sums rho[(k, i), (k, j)]
    traced_a = np.broadcast_arrays(k * n_b + i, k * n_b + j)
    rows, cols = (np.concatenate([x.ravel(), y.ravel(), np.asarray(z, dtype=np.intp)]) for x, y, z in zip(traced_b, traced_a, (rows, cols)))
    values = _evolved(blocks, t, w, rows, cols)
    split, end = n_a * n_a * n_b, n_a * n_b * (n_a + n_b)
    return values[:split].reshape(n_a, n_a, n_b).sum(axis=2), values[split:end].reshape(n_b, n_b, n_a).sum(axis=2), values[end:].copy()


@_latest
def _state_at(t: float, sys: OscillatorSystem, prep: ThermalPreparation, cfg: FockConfig):
    """(rho_a(t), rho_b(t), rho(t) on ``HamiltonianParts.entries``, H) at a
    _checked time, shared read-only, so that H is assembled once per time."""
    w = thermal_product_state(sys, prep, cfg)
    parts = build_hamiltonian(sys, cfg)
    state = _partial_traces(eigensystem(sys, cfg), t, w, cfg.n_a, cfg.n_b, *parts.entries(0.0)[:2])
    for arr in (*state, *vars(parts).values()):
        arr.setflags(write=False)
    return (*state, parts)


@_latest
def _heat_kernel(sys: OscillatorSystem, prep: ThermalPreparation, cfg: FockConfig):
    """Products that make tr(H_c rho(t)) an O(sum of sector sizes^2) evaluation per time.

    rho(0) and H_c are diagonal and H is block-diagonal, so tr(X rho(t)) is a
    sum over sectors.  With rho and X in a sector's eigenbasis, its term is
    sum_jk e^{-i E_j t} K_jk e^{i E_k t} for the Hermitian kernel K = X^T * rho
    (elementwise).  The gauge cancels from a number-diagonal X, and every
    system has real eigenvectors V = Q blockdiag(Y+, Y-) (``sector_blocks``),
    so X = V^T diag V is symmetric and K = X * rho real.  Returns (kernels,
    tr(H_a rho(0)), tr(H_b rho(0))) with kernels a tuple of (energies,
    terms), one per stack of sectors, and terms a tuple of (rows, cols,
    panels, weights): the block K[rows, cols] of a kernel as panels (columns,
    end, K[:end, columns]) of ``_SERIES_BLOCK`` columns, whose real
    contraction times weights adds to (tr(H_a rho), tr(H_b rho)).  A
    symmetric block's panel ends at its diagonal, its rows above the panel
    doubled for the mirror not stored; (+, -) takes every row (end None).
    Each block of V^T diag V is the half-size ``_sandwich`` Y_a^T (Q_a^T diag
    Q_b) Y_b of a block of ``_half_blocks``, whose middle factor is diagonal
    (``_half_diagonals``); rho(t) reads the same blocks of rho.  This is the
    one place that weights a kernel's blocks on a stack's split h or knows
    which of them are symmetric.

    A stack split by the mode exchange (h < k) keeps K_a alone: the exchange
    P gives P D_a P^T = D_b and P V = diag(sigma) V S for S = +1 on the first
    h eigenvectors and -1 on the rest, so K_b = S K_a S.  Its terms are the
    (+, +), (-, -) and (+, -) blocks of K_a, weighted (1, 1), (1, 1) and
    (2, -2): the (-, +) block adds the (+, -) block's value again, K being
    Hermitian, and S flips the sign of the cross blocks alone.  Any other
    stack keeps K_a and K_b whole, weighted (1, 0) and (0, 1), on one rho.
    """
    w = thermal_product_state(sys, prep, cfg)
    d_a, d_b = _bare_levels(sys, cfg)
    kernels = []
    for index, energies, *halves, _, sign in eigensystem(sys, cfg):
        (_, k), h, n = index.shape, halves[0].shape[-1], sign.shape[-1]
        terms = []
        for block, (a, b, rows, cols, left, right) in enumerate(_half_blocks(h, k, n)):
            y_a, y_b = halves[a][:, left], halves[b][:, right]
            levels = [(d_a, (1.0, 1.0) if a == b else (2.0, -2.0))] if h < k else [(d_a, (1.0, 0.0)), (d_b, (0.0, 1.0))]
            middle = [_half_diagonals(x[index], h, n)[block] for x in (w, *(d for d, _ in levels))]
            panels = [[] for _ in levels]
            for start in range(0, y_b.shape[-1], _SERIES_BLOCK):
                columns, end = slice(start, start + _SERIES_BLOCK), start + _SERIES_BLOCK if a == b else None
                rho = _sandwich(y_a[..., :end], middle[0], y_b[..., columns])
                rho[..., : start if a == b else 0, :] *= 2.0  # a symmetric block's rows above the panel stand for their mirror too
                for kept, diagonal in zip(panels, middle[1:]):
                    kernel = _sandwich(y_a[..., :end], diagonal, y_b[..., columns])
                    kernel *= rho
                    kernel.setflags(write=False)
                    kept.append((columns, end, kernel))
            terms.extend((rows, cols, tuple(kept), weights) for kept, (_, weights) in zip(panels, levels))
        kernels.append((energies, tuple(terms)))
    return tuple(kernels), float(d_a @ w), float(d_b @ w)


def _expectations(kernels, times) -> NDArray[np.float64]:
    """tr(H_a rho(t)) and tr(H_b rho(t)) over every time: per stack of
    sectors and block of times, stacked GEMMs per panel of each term of its
    kernel, contracted on the phases of its rows and columns and added with
    its weights, summed over sectors.  On an even grid each later block turns the
    phases of the one before in place by the block's span, by angle addition."""
    out, count = np.zeros((2, len(times))), len(times)
    step = (times[-1] - times[0]) / max(count - 1, 1)
    even = count > _SERIES_BLOCK and np.abs(times - times[0] - np.arange(count) * step).max() <= _EVEN_TOL * np.abs(times).max()
    for energies, terms in kernels:
        for start in range(0, count, _SERIES_BLOCK):
            block = slice(start, start + _SERIES_BLOCK)
            if not even or start == 0:
                c, s = _phases(times[block, None], energies[:, None, :])  # sectors x times x energies
                if even:
                    _phases(times[-1], energies)  # the last time still checks for overflow
                    cos_b, sin_b = _phases(_SERIES_BLOCK * step, energies[:, None, :])
            else:
                behind = s * sin_b
                s *= cos_b
                s += c * sin_b
                c *= cos_b
                c -= behind
                c, s = c[:, : count - start], s[:, : count - start]  # the last block may be short
            for rows, cols, panels, weights in terms:
                # Re sum_jk e_j K_jk conj(e_k) = cKc + sKs for the phases e = c - i s, panel by panel
                form = sum(np.einsum("mtj,mtj->t", x[..., rows][..., :end] @ kernel, x[..., cols][..., columns])
                           for columns, end, kernel in panels for x in (c, s))
                out[:, block] += np.outer(weights, form)
        del c, s  # before the next stack's phases are formed
    return out


def heat_changes_numeric(
    sys: OscillatorSystem, prep: ThermalPreparation, cfg: FockConfig, t: float
) -> HeatReport:
    """dQ_c = tr(H_c rho(t)) - tr(H_c rho(0)) from the cached sector kernels."""
    return heat_series_numeric(sys, prep, cfg, [_checked(t, "time", scalar=True)])[0]


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
    series = HeatReport.from_heats(times, e_a - q_a0, e_b - q_b0, prep, sys)  # one array call for every verdict
    return [HeatReport(*row) for row in zip(*(getattr(series, field.name).tolist() for field in fields(HeatReport)))]


def _probabilities(t: float, stack):
    """P[n, i, j] = |<i| U(t) |j>|^2 between the states of sector n of a
    stack, for a _checked time; the gauge drops out of |U|."""
    index, energies, *halves, _, sign = stack
    (_, k), h = index.shape, halves[0].shape[-1]
    at, weight = _exchange_rows(k, h, sign)
    probs = None
    for phase in _phases(t, energies):  # |U|^2 = c^2 + s^2 for U = Q blockdiag(U+, U-) Q^T = c - i s
        part = None
        for a, _, rows, *_ in _half_blocks(h, k, sign.shape[-1])[:2]:  # (+, +), then (-, -) on a split stack
            y_t = halves[a].swapaxes(-1, -2)
            x = _sandwich(y_t, phase[:, rows], y_t)  # Y_a diag(phase) Y_a^T
            if h < k:  # Q_a x Q_a^T over every pair of states; Q = 1 on an unsplit sector
                x = x.take(at[a], axis=1).take(at[a], axis=2)
                x *= weight[a, :, :, None]
                x *= weight[a, :, None, :]
            part = x if part is None else np.add(part, x, out=part)
        del x
        part *= part
        probs = part if probs is None else np.add(probs, part, out=probs)
    return probs


def _transitions(t: float, sys: OscillatorSystem, prep: ThermalPreparation, cfg: FockConfig, *sums) -> list[float]:
    """Each of sums added over the stacks of sectors, called as sum(index, P,
    w, d_a, d_b) with a stack's states, its ``_probabilities`` and the thermal
    weights (first, as they hold the truncation check) and bare levels on its
    states.  U(t) vanishes between sectors; one stack's P is held at a time."""
    w = thermal_product_state(sys, prep, cfg)
    t = _checked(t, "time", scalar=True)
    d_a, d_b = _bare_levels(sys, cfg)
    totals = [0.0] * len(sums)
    for stack in eigensystem(sys, cfg):
        index, probs = stack[0], _probabilities(t, stack)
        totals = [total + add(index, probs, w[index], d_a[index], d_b[index]) for total, add in zip(totals, sums)]
        del probs  # before the next stack's P is formed
    return [float(total) for total in totals]


def _average(f):
    """The per-stack sum of w_j P_ij f_ij over final states i and initial states j,
    f called on their bare levels a and b, the initial ones as columns."""
    return lambda index, probs, w, a, b: ((probs * f(a[..., None, :], b[..., None, :], a[..., None], b[..., None])) @ w[..., None]).sum()


@_latest
def _thermal_sums(t: float, sys: OscillatorSystem, prep: ThermalPreparation, cfg: FockConfig) -> tuple[float, float]:
    """(E[f], E[exp f]) for the entropy exponent f at a _checked time, from one transition pass."""

    def exponent(ea0, eb0, ea1, eb1):
        return prep.beta_a * (ea0 - ea1) + prep.beta_b * (eb0 - eb1)

    # weight * exp(f) = exp(-beta_a w'_a - beta_b w'_b) / (Z_a Z_b), the final level's thermal weight
    return tuple(_transitions(t, sys, prep, cfg, _average(exponent), lambda index, probs, w, a, b: (w[..., None, :] @ probs).sum()))


def classical_average(
    f: Callable[..., NDArray[np.float64]],
    t: float,
    sys: OscillatorSystem,
    prep: ThermalPreparation,
    cfg: FockConfig,
) -> float:
    """Thermal-weighted average of f over bare-state transition probabilities.

    f receives four arrays (initial a-energy, initial b-energy, final a-energy,
    final b-energy) of the bare levels n*omega, broadcastable per stack of
    sectors, and must return an array of their broadcast shape.
    """
    return _transitions(t, sys, prep, cfg, _average(f))[0]


def jarzynski_identity(
    t: float, sys: OscillatorSystem, prep: ThermalPreparation, cfg: FockConfig
) -> float:
    """E[exp(beta_a(w_a - w'_a) + beta_b(w_b - w'_b))]_t, identically 1.

    The thermal weights are folded into the exponent before exponentiating, so
    deep-cold preparations cannot overflow.
    """
    return _thermal_sums(float(_checked(t, "time", scalar=True)), sys, prep, cfg)[1]


def jensen_bound(
    t: float, sys: OscillatorSystem, prep: ThermalPreparation, cfg: FockConfig
) -> tuple[float, float]:
    """(exp(E[f]), E[exp f]) for the entropy exponent f; the first never exceeds
    the second, which is the free-entropy second law in disguise."""
    mean, jarzynski = _thermal_sums(float(_checked(t, "time", scalar=True)), sys, prep, cfg)
    return math.exp(mean), jarzynski


# An eigenvalue of a density matrix below this is negative, not rounding.
_EIGENVALUE_FLOOR = -1e-10


def _shannon(p) -> float:
    """-sum p ln p over the positive entries, so 0 ln 0 = 0."""
    positive = p[p > 0.0]
    return -float(positive @ np.log(positive))


def von_neumann_entropy(rho: Matrix) -> float:
    """-tr(rho ln rho) with 0 ln 0 = 0; rejects meaningfully negative eigenvalues."""
    values = np.linalg.eigh(rho)[0]
    if values.min(initial=0.0) < _EIGENVALUE_FLOOR:
        raise PositivityError(f"density matrix has eigenvalue {values.min():.3g} below {_EIGENVALUE_FLOOR:g}")
    return _shannon(values)


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
    and the reversible flux -beta_b dQ_b(t), dQ_b read from the diagonal of
    rho_b(t) without the heat kernel.

    The relative entropy is evaluated through the product structure of its
    second argument: ln(rho_a(t) (x) rho_b(0)) splits into a clean mode-a
    eigenproblem plus the analytically known Gibbs logarithm of rho_b(0).
    Diagonalising the composite product directly would drown its deep
    eigenvalue products (below ~1e-30) in eigensolver noise.
    """
    t = float(_checked(t, "time", scalar=True))  # before the eigensystem, so a bad time costs nothing
    w = thermal_product_state(sys, prep, cfg)
    rho_a_t, rho_b_t, *_ = _state_at(t, sys, prep, cfg)
    s_a_t = von_neumann_entropy(rho_a_t)
    # rho_a(0) is diagonal in the number basis: its entropy is that of its weights.
    ds_a = s_a_t - _shannon(thermal_weights(prep.beta_a, sys.omega_a, cfg.n_a, cfg.tail_tol))
    # tr(rho(t) [ln rho_a(t) (x) I]) = -S(rho_a(t)); the mode-b term uses
    # ln w_b = -beta_b E_n - ln Z_b exactly, no clamping required.
    log_w_b = -prep.beta_b * sys.omega_b * np.arange(cfg.n_b)
    log_w_b -= math.log(np.exp(log_w_b).sum())
    rho_b_t_diag = np.real(np.diag(rho_b_t))
    tr_rho_ln_sigma = -s_a_t + float(log_w_b @ rho_b_t_diag)
    # Unitary evolution keeps the spectrum: S(rho(t)) = S(rho(0)) = -sum w ln w.
    ds_i_a = -_shannon(w) - tr_rho_ln_sigma
    dq_b = sys.omega_b * np.arange(cfg.n_b) @ (rho_b_t_diag - np.exp(log_w_b))
    ds_e_a = -prep.beta_b * float(dq_b)
    return EntropyProduction(ds_a=ds_a, ds_i_a=ds_i_a, ds_e_a=ds_e_a)


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

    The true heats are traced against rho(t) on the entries of H, sector by
    sector, a route independent of the spectral kernel behind the bare-energy
    report.
    """
    t_checked = float(_checked(t, "time", scalar=True))  # before the eigensystem, so a bad time costs nothing
    w = thermal_product_state(sys, prep, cfg)
    *_, rho_t, parts = _state_at(t_checked, sys, prep, cfg)
    # after the gather, so that the kernel this caches and the sector
    # temporaries of rho(t) are never alive together
    report = heat_changes_numeric(sys, prep, cfg, t)

    def delta(h_true) -> float:
        # tr(X rho) = vdot(X, rho) over the entries of a Hermitian X, and rho(0)
        # = diag(w), whose entries close the list.
        return float(np.vdot(h_true, rho_t).real - h_true[-cfg.dim :].real @ w)

    # H - H_b and H - H_a differ only on the diagonal: the entries of rho(t) on H serve both
    dq_true_a, dq_true_b = delta(parts.entries(-parts.d_b)[2]), delta(parts.entries(-parts.d_a)[2])
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
    t = float(_checked(t, "time", scalar=True))
    w = thermal_product_state(sys, prep, cfg)
    if interaction is None:
        _, rho_b_t, _, parts = _state_at(t, sys, prep, cfg)
        rows, cols, v = parts.entries(-(parts.d_a + parts.d_b))
    else:
        try:
            h = np.array(interaction, dtype=np.complex128)  # a copy, since H = V + H0 is built in it
        except (TypeError, ValueError) as err:
            raise ModelError(f"interaction override must be a numeric matrix: {err}") from None
        if h.shape != (cfg.dim, cfg.dim):
            raise ModelError(f"interaction override must be {cfg.dim} x {cfg.dim}, got shape {h.shape}")
        _require_hermitian(h, "interaction override")
        d_a, d_b = _bare_levels(sys, cfg)
        rows, cols, v = _nonzero_entries(h)
        h.flat[:: cfg.dim + 1] += d_a + d_b
        rho_b_t = _partial_traces(_eigh_sectors(HamiltonianParts(*_nonzero_entries(h), d_a, d_b)), t, w, cfg.n_a, cfg.n_b)[1]
    # tr_b[V (I (x) rho_b)]_ij = sum_kl V_(ik),(jl) (rho_b)_lk, over the entries of V
    (i, k), (j, l) = np.divmod(rows, cfg.n_b), np.divmod(cols, cfg.n_b)
    terms, target = v * rho_b_t[l, k], i * cfg.n_a + j
    size = cfg.n_a * cfg.n_a
    h_eff = np.bincount(target, terms.real, size) + 1j * np.bincount(target, terms.imag, size)
    return h_eff.reshape(cfg.n_a, cfg.n_a)


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
    if (sys_a.m, sys_a.q, sys_a.omega_a, sys_a.omega_b) != (sys_b.m, sys_b.q, sys_b.omega_a, sys_b.omega_b):
        raise ModelError("spectrum_match needs identical m, q and frequencies")
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or k < 1:
        raise ModelError(f"spectrum_match needs an integer k >= 1, got {k!r}")
    if k > cfg.dim // 4:
        raise TruncationError(
            f"k={k} reaches into the truncation-contaminated band (limit {cfg.dim // 4})"
        )
    levels_a, levels_b = (_lowest_levels(build_hamiltonian(s, cfg), k) for s in (sys_a, sys_b))
    return float(np.abs(levels_a - levels_b).max())


def _lowest_levels(parts: HamiltonianParts, k: int) -> NDArray[np.float64]:
    """The k lowest eigenvalues of H, merged from its stacks of sectors."""
    levels = [np.linalg.eigvalsh(half).ravel() for _, _, *halves, _ in sector_blocks(parts) for half in halves]
    return np.sort(np.concatenate(levels))[:k]
