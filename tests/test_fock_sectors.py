"""Conserved sectors of the oracle's Hamiltonians, read from their nonzero
pattern, the edge-list assembly against the dense kron sum, the one-pass gauge
and the size-stacked sectors against per-block references, and the
per-sector spectral routes checked against dense references."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense, dense_state, dense_unitary, exchange_basis, partial_traces
from qsubthermo import (
    FockConfig,
    HamiltonianParts,
    InteractionKind,
    OscillatorSystem,
    ThermalPreparation,
    build_hamiltonian,
    classical_average,
    decomposition_audit,
    effective_hamiltonian,
    entropy_production,
    heat_series_numeric,
    jarzynski_identity,
    jensen_bound,
    spectrum_match,
    true_heat_transfer_identity,
)
from qsubthermo.fock import (
    _eigh_sectors,
    _evolved,
    _heat_kernel,
    _nonzero_entries,
    _partial_traces,
    _quadratures,
    _transitions,
    destroy,
    eigensystem,
    sector_blocks,
    sectors,
    thermal_product_state,
)
from qsubthermo.model import MINIMAL_KINDS

SYSTEMS = {
    "rwa": OscillatorSystem(1.0, 1.0, InteractionKind.RWA, g=0.2),
    "linear": OscillatorSystem(1.0, 1.0, InteractionKind.LINEAR, g=0.2),
    "none": OscillatorSystem(1.0, 1.0, InteractionKind.NONE),
    "minimal-a": OscillatorSystem(1.0, 1.0, InteractionKind.MINIMAL_A, m=1.3, q=0.3),
    "minimal-b": OscillatorSystem(1.0, 1.0, InteractionKind.MINIMAL_B, m=0.7, q=0.2),
}
CFG12 = FockConfig(12, 12, tail_tol=1e-2)
CFG24 = FockConfig(24, 24, tail_tol=1e-4)
PREP = ThermalPreparation(0.5, 1.0)


def expected_sizes(kind: str, n: int) -> list[int]:
    if kind == "rwa":  # N_a + N_b = 0 .. 2n - 2
        return sorted(min(total + 1, 2 * n - 1 - total) for total in range(2 * n - 1))
    if kind == "none":
        return [1] * (n * n)
    return [n * n // 2] * 2  # (N_a + N_b) mod 2


def dense_kron_hamiltonian(sys_, cfg):
    """H as the dense sum of kron terms, in the order and arithmetic the
    oracle used before it assembled edge lists."""
    d_a = np.repeat(sys_.omega_a * np.arange(cfg.n_a), cfg.n_b)
    d_b = np.tile(sys_.omega_b * np.arange(cfg.n_b), cfg.n_a)
    if sys_.kind in MINIMAL_KINDS:
        m, q = sys_.mass(), float(sys_.q or 0.0)
        x_a, p_a = _quadratures(cfg.n_a, sys_.omega_a, m)
        x_b, p_b = _quadratures(cfg.n_b, sys_.omega_b, m)
        mode_a = p_a @ p_a / (2.0 * m) + 0.5 * m * sys_.omega_a**2 * (x_a @ x_a)
        mode_b = p_b @ p_b / (2.0 * m) + 0.5 * m * sys_.omega_b**2 * (x_b @ x_b)
        if sys_.kind is InteractionKind.MINIMAL_A:
            mode_b = mode_b + q * q / (2.0 * m) * (x_b @ x_b)
            factors, scale = (p_a, x_b), -(q / m)
        else:
            mode_a = mode_a + q * q / (2.0 * m) * (x_a @ x_a)
            factors, scale = (x_a, p_b), q / m
        h = np.kron(mode_a, np.eye(cfg.n_b))
        h += np.kron(np.eye(cfg.n_a), mode_b)
        cross = np.kron(*factors)
        cross *= scale
        h += cross
        return h
    a, b = destroy(cfg.n_a), destroy(cfg.n_b)
    if sys_.kind is InteractionKind.NONE:
        h = np.zeros((cfg.dim, cfg.dim), dtype=np.complex128)
    elif sys_.kind is InteractionKind.RWA:
        h = np.kron(a, b.conj().T)
        h -= np.kron(a.conj().T, b)
        h *= 1j * sys_.g
    else:
        h = np.kron(a.conj().T + a, b.conj().T - b)
        h *= 1j * sys_.g
    h.flat[:: cfg.dim + 1] += d_a + d_b
    return h


def edge_list(h, parts):
    """A dense matrix as an edge list, beside the bare energies of parts."""
    return HamiltonianParts(*_nonzero_entries(h), parts.d_a, parts.d_b)


def per_block_gauge(block):
    """The gauge as one breadth-first search per sector block, each child
    taking its phase from its smallest-index parent in the frontier: the
    reference the one pass over the whole edge list must reproduce bit for bit."""
    nonzero = block != 0
    z = np.ones(len(block), dtype=np.complex128)
    reached = np.zeros(len(block), dtype=bool)
    reached[0] = True
    frontier = np.array([0])
    while frontier.size:
        todo = np.flatnonzero(~reached)
        links = nonzero[np.ix_(frontier, todo)]
        new = links.any(axis=0)
        parent, child = frontier[links.argmax(axis=0)[new]], todo[new]
        edge = block[parent, child]
        size = np.abs(edge)
        z[child] = z[parent] * (edge.real / size - 1j * (edge.imag / size))
        reached[child] = True
        frontier = child
    return z


def gauged(block, z):
    """conj(z) block z in the order of the oracle's arithmetic."""
    out = block * z
    out *= z.conj()[:, None]
    return out


def stacked_sectors(parts):
    """(index, z, plus, minus, sign) for every sector of every stack of
    sector_blocks, in its stack's layout: a sector split by the mode exchange
    lists its states as [F+ | H | F- | M] there."""
    return [member for stack in sector_blocks(parts) for member in zip(*stack)]


def dense_halves(block, h, sign):
    """Q+^T B Q+ and Q-^T B Q- of a gauged block B in the layout [F+ | H | F- |
    M], by dense arithmetic on B: B on each half's states, plus or minus B[H,
    M] sigma between heads, and times sqrt(2) between heads and fixed points.
    An unsplit block (h = k) is its own plus half."""
    k, n = len(block), len(sign)
    fixed = h - n
    exchange = block[fixed:h, k - n :] * sign
    plus, minus = block[:h, :h].copy(), block[fixed : k - n, fixed : k - n].copy()
    plus[fixed:, fixed:] += exchange
    minus[:n, :n] -= exchange
    for half, edge in ((plus, fixed), (minus, n)):
        half[edge:, :edge] *= math.sqrt(2.0)
        half[:edge, edge:] *= math.sqrt(2.0)
    return plus, minus


def assert_gauge_is_per_block_search(parts):
    h = dense(parts)
    members = stacked_sectors(parts)
    assert sorted(np.sort(index).tobytes() for index, *_ in members) == sorted(index.tobytes() for index in sectors(parts))
    for index, z, plus, minus, sign in members:
        ascending = np.argsort(index)
        assert z[ascending].tobytes() == per_block_gauge(h[np.ix_(index[ascending], index[ascending])]).tobytes()
        want = gauged(h[np.ix_(index, index)], z)
        want = want if np.iscomplexobj(plus) else want.real
        # each half is the dense arithmetic on the gauged dense block bit for
        # bit, up to the sign of a zero: the stacks write their zeros instead
        # of gauging them, and + 0.0 makes every zero +0.0
        for got, expected in zip((plus, minus), dense_halves(want, plus.shape[-1], sign), strict=True):
            assert (got + 0.0).tobytes() == (expected + 0.0).tobytes()
    return members


GAUGE_CASES = [(kind, n) for n in (12, 24, 40) for kind in SYSTEMS] + [("rwa-detuned", 40)]


@pytest.mark.parametrize("kind,n", GAUGE_CASES)
def test_edge_list_is_the_dense_kron_sum_bit_for_bit(kind, n):
    sys_ = OscillatorSystem(1.0, 1.7, InteractionKind.RWA, g=0.3) if kind == "rwa-detuned" else SYSTEMS[kind]
    cfg = FockConfig(n, n, tail_tol=1e-2)
    parts = build_hamiltonian(sys_, cfg)
    reference = dense_kron_hamiltonian(sys_, cfg)
    nonzero = np.nonzero(reference)
    assert np.array_equal(parts.rows, nonzero[0]) and np.array_equal(parts.cols, nonzero[1])
    assert parts.vals.tobytes() == reference[nonzero].tobytes()
    # the finder reads a dense matrix through np.nonzero, the same edge list
    found = sectors(parts)
    assert all(np.array_equal(x, y) for x, y in zip(found, sectors(edge_list(reference, parts)), strict=True))
    # each stack's halves are the dense halves of the dense block, gauged by
    # the one-pass z, which is the per-block search's z bit for bit
    for _, _, plus, minus, _ in assert_gauge_is_per_block_search(parts):
        assert np.isrealobj(plus) and np.isrealobj(minus)


@pytest.mark.parametrize("entries,real", [([(0, 1)], True), ([(0, 1), (1, 13)], False)], ids=["bridge", "loop"])
def test_override_gauge_is_the_per_block_search(entries, real):
    # the rounding-level overrides below: one entry across the parities is a
    # bridge and gauges to real, a second closes a loop and stays complex
    parts = build_hamiltonian(SYSTEMS["linear"], CFG12)
    d = parts.d_a + parts.d_b
    override = dense(parts, -d)
    for i, j in entries:
        override[i, j] = override[j, i] = 1e-300
    ((_, _, plus, minus, _),) = assert_gauge_is_per_block_search(edge_list(np.diag(d) + override, parts))
    assert np.isrealobj(plus) == np.isrealobj(minus) == real


def check_exchange_layout(index, sign, h, n):
    """Checks one sector's layout [F+ | H | F- | M] of sector_blocks against
    the mode swap (i_a, i_b) -> (i_b, i_a) on n x n levels: the fixed points
    are its fixed points, and each mirror is its head's swap, above it."""
    k, pairs = len(index), len(sign)
    fixed, heads, mirrors = h - pairs, slice(h - pairs, h), slice(k - pairs, k)
    i_a, i_b = np.divmod(index, n)
    swapped = i_b * n + i_a
    assert np.array_equal(swapped[heads], index[mirrors]) and np.all(index[heads] < index[mirrors])
    assert np.array_equal(swapped[:fixed], index[:fixed])
    assert np.array_equal(swapped[h : k - pairs], index[h : k - pairs])


SPLIT_CASES = {
    "rwa": (SYSTEMS["rwa"], CFG24, True),
    "linear": (SYSTEMS["linear"], CFG24, True),
    "linear-0.7": (OscillatorSystem(0.7, 0.7, InteractionKind.LINEAR, g=0.2), FockConfig(24, 24, tail_tol=1e-2), True),
    "minimal-a": (SYSTEMS["minimal-a"], CFG24, False),
    "minimal-b": (SYSTEMS["minimal-b"], CFG24, False),
    "linear-detuned": (OscillatorSystem(1.0, 1.3, InteractionKind.LINEAR, g=0.2), CFG24, False),
    "linear-24x20": (SYSTEMS["linear"], FockConfig(24, 20, tail_tol=1e-2), False),
}


@pytest.mark.parametrize("case", SPLIT_CASES)
def test_exchange_splits_exactly_the_symmetric_sectors(case):
    # the split is read from H: the swap must map a sector onto itself, carry
    # d_a onto d_b and keep the gauged block up to the signs sigma, bit for
    # bit; anything short of that keeps the whole block (h = k, no heads).
    # A one-state sector is a fixed point of sign +1, which leaves it whole.
    sys_, cfg, splits = SPLIT_CASES[case]
    parts = build_hamiltonian(sys_, cfg)
    h_dense = dense(parts)
    for index, z, plus, minus, sign in sector_blocks(parts):
        h = plus.shape[-1]
        assert (h < index.shape[1]) == (splits and index.shape[1] > 1)
        if h == index.shape[1]:
            assert sign.shape == (len(index), 0) and minus.shape == (len(index), 0, 0)
            assert all(np.array_equal(states, np.sort(states)) for states in index)
            continue
        for states, phases, sigma_heads in zip(index, z, sign):
            block = gauged(h_dense[np.ix_(states, states)], phases).real
            check_exchange_layout(states, sigma_heads, h, cfg.n_a)
            k, pairs = len(states), len(sigma_heads)
            fixed = h - pairs
            # the swap as local positions in [F+ | H | F- | M], and sigma on each part
            swap = np.r_[0:fixed, k - pairs : k, h : k - pairs, fixed:h]
            sigma = np.r_[np.ones(fixed), sigma_heads, -np.ones(k - h - pairs), sigma_heads]
            assert np.array_equal(np.abs(sigma_heads), np.ones(pairs))
            assert np.array_equal(parts.d_a[states[swap]], parts.d_b[states])
            assert np.array_equal(block[np.ix_(swap, swap)], sigma[:, None] * sigma * block)


def test_exchange_needs_the_bare_energies_swapped():
    # H0 + V with omega_b = 1.5 and V = 0.5 N_a + 0.2 (a b^dag + a^dag b) is
    # swap-symmetric entry for entry (its diagonal is 1.5 (N_a + N_b),
    # exactly), but the swap does not carry d_a onto d_b, so K_b = S K_a S
    # would not hold: no sector splits
    cfg = CFG12
    parts = build_hamiltonian(OscillatorSystem(1.0, 1.5, InteractionKind.NONE), cfg)
    a, eye, h0 = destroy(cfg.n_a), np.eye(cfg.n_a), np.diag(parts.d_a + parts.d_b)
    hamiltonian = h0 + 0.5 * np.kron(a.conj().T @ a, eye) + 0.2 * (np.kron(a, a.conj().T) + np.kron(a.conj().T, a))
    i_a, i_b = np.divmod(np.arange(cfg.dim), cfg.n_b)
    swap = i_b * cfg.n_b + i_a
    assert np.array_equal(hamiltonian[np.ix_(swap, swap)], hamiltonian)
    assert not np.array_equal(parts.d_a[swap], parts.d_b)
    stacks = list(sector_blocks(edge_list(hamiltonian, parts)))
    assert len(stacks) > 1 and all(plus.shape[-1] == index.shape[1] for index, _, plus, _, _ in stacks)


def test_exchange_squaring_to_minus_one_is_refused():
    # the ring |1,0> - |2,0> - |0,1> - |0,2> - |1,0> on 12 levels, whose
    # last link has the opposite sign: the swap keeps the ring up to signs
    # sigma, but sigma[pi] = -sigma, so T = diag(sigma) P squares to -1 and
    # has no real halves.  The ring stays whole, and the effective
    # Hamiltonian still matches a dense evolution
    cfg, t = CFG12, 1.3
    bare = OscillatorSystem(1.0, 1.0, InteractionKind.NONE)
    parts = build_hamiltonian(bare, cfg)
    override = np.zeros((cfg.dim, cfg.dim), dtype=np.complex128)
    for i, j, x in [(12, 24, 0.3), (24, 1, 0.2), (1, 2, 0.3), (2, 12, -0.2)]:
        override[i, j] = override[j, i] = x
    hamiltonian = np.diag(parts.d_a + parts.d_b) + override
    stacks = list(sector_blocks(edge_list(hamiltonian, parts)))
    assert [index.shape[1] for index, *_ in stacks] == [1, 4]
    assert all(plus.shape[-1] == index.shape[1] for index, _, plus, _, _ in stacks)
    u = scipy.linalg.expm(-1j * hamiltonian * t)
    rho_t = (u * thermal_product_state(bare, PREP, cfg)) @ u.conj().T
    _, rho_b = partial_traces(rho_t, cfg.n_a, cfg.n_b)
    reference = np.einsum("ikjl,lk->ij", override.reshape(cfg.n_a, cfg.n_b, cfg.n_a, cfg.n_b), rho_b)
    assert np.abs(effective_hamiltonian(t, bare, PREP, cfg, interaction=override) - reference).max() < 1e-13


@pytest.mark.parametrize("case", SPLIT_CASES)
def test_split_and_whole_sectors_match_dense_evolution(case):
    # the heat series and the partial traces of rho(t), whether the exchange
    # splits the sectors or not, against rho(t) from a dense expm of H
    sys_, cfg, _ = SPLIT_CASES[case]
    parts = build_hamiltonian(sys_, cfg)
    w = thermal_product_state(sys_, PREP, cfg)
    times = [0.7, 2.9]
    for t, report in zip(times, heat_series_numeric(sys_, PREP, cfg, times), strict=True):
        u = scipy.linalg.expm(-1j * t * dense(parts))
        rho_t = (u * w) @ u.conj().T
        populations = np.real(np.diag(rho_t)) - w
        assert report.dq_a == pytest.approx(populations @ parts.d_a, abs=1e-12)
        assert report.dq_b == pytest.approx(populations @ parts.d_b, abs=1e-12)
        rho_a, rho_b = _partial_traces(eigensystem(sys_, cfg), t, w, cfg.n_a, cfg.n_b)
        want_a, want_b = partial_traces(rho_t, cfg.n_a, cfg.n_b)
        assert np.abs(rho_a - want_a).max() < 1e-13
        assert np.abs(rho_b - want_b).max() < 1e-13


def test_own_interaction_override_matches_the_default_path():
    # the override path reads the same exchange from H0 + V as the cached one
    sys_, t = SYSTEMS["linear"], 1.3
    parts = build_hamiltonian(sys_, CFG24)
    v = dense(parts, -(parts.d_a + parts.d_b))
    default = effective_hamiltonian(t, sys_, PREP, CFG24)
    assert np.abs(effective_hamiltonian(t, sys_, PREP, CFG24, interaction=v) - default).max() < 1e-13


@pytest.mark.parametrize("kind", SYSTEMS)
def test_stacked_eigh_is_per_block_eigh(kind, monkeypatch):
    # one eigh per half-stack, on the halves of sector_blocks bit for bit:
    # Q+^T B Q+ and Q-^T B Q- of each gauged block B to rounding, an unsplit
    # stack's plus half being B itself and its minus half empty; each
    # sector's energies [+ | -] and half eigenvectors Y+ and Y- repeat its
    # own eigh bit for bit
    seen = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: seen.append((a.copy(), *eigh(a))) or seen[-1][1:])
    parts = build_hamiltonian(SYSTEMS[kind], CFG24)
    stacks = _eigh_sectors(parts)
    monkeypatch.undo()
    calls, h_dense = iter(seen), dense(parts)
    for (index, energies, *ys, z, sign), (_, _, *halves, _) in zip(stacks, sector_blocks(parts), strict=True):
        h = ys[0].shape[-1]
        q = exchange_basis(index, sign, h)
        blocks = np.stack([gauged(h_dense[np.ix_(states, states)], phases).real for states, phases in zip(index, z)])
        for half, basis, e_half, y_half in zip(halves, (q[..., :h], q[..., h:]), np.split(energies, [h], axis=1), ys):
            half_input, *_ = next(calls)
            assert half_input.tobytes() == half.tobytes()
            want = basis.swapaxes(1, 2) @ blocks @ basis
            assert np.abs(half_input - want).max(initial=0.0) <= 4e-16 * max(1.0, np.abs(blocks).max())
            for block, e, y in zip(half_input, e_half, y_half):
                want_e, want_y = np.linalg.eigh(block)
                assert e.tobytes() == want_e.tobytes()
                assert y.tobytes() == want_y.tobytes()
    assert next(calls, None) is None


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_complex_split_override_matches_dense_evolution(seed):
    # an override made symmetric under the mode swap, with imaginary entries
    # on loops no gauge makes real: some sectors split into complex halves,
    # so rho(t) takes the generic half routes, and the effective Hamiltonian
    # still matches a dense evolution
    cfg, t = FockConfig(5, 5, tail_tol=0.5), 1.3
    bare = OscillatorSystem(1.0, 1.0, InteractionKind.NONE)
    parts = build_hamiltonian(bare, cfg)
    i_a, i_b = np.divmod(np.arange(cfg.dim), cfg.n_b)
    swap = i_b * cfg.n_b + i_a
    rng = np.random.default_rng(seed)
    half = np.zeros((cfg.dim, cfg.dim), dtype=np.complex128)
    half[tuple(rng.integers(cfg.dim, size=(2, 8)))] = rng.choice([0.3, -0.2, 0.25j, -0.1j, 0.2 + 0.1j], size=8)
    half += half.conj().T
    override = half + half[np.ix_(swap, swap)]
    hamiltonian = np.diag(parts.d_a + parts.d_b) + override
    stacks = list(sector_blocks(edge_list(hamiltonian, parts)))
    assert any(minus.size and np.iscomplexobj(minus) for _, _, _, minus, _ in stacks)
    u = scipy.linalg.expm(-1j * hamiltonian * t)
    rho_t = (u * thermal_product_state(bare, PREP, cfg)) @ u.conj().T
    _, rho_b = partial_traces(rho_t, cfg.n_a, cfg.n_b)
    reference = np.einsum("ikjl,lk->ij", override.reshape(cfg.n_a, cfg.n_b, cfg.n_a, cfg.n_b), rho_b)
    assert np.abs(effective_hamiltonian(t, bare, PREP, cfg, interaction=override) - reference).max() < 1e-12


def stack_cap(parts):
    """The most entries a stack may hold: H's diagonal or its largest sector, whichever is larger."""
    return max(parts.dim, max(len(index) for index in sectors(parts)) ** 2)


@pytest.mark.parametrize("n", [12, 24, 40, 48])
@pytest.mark.parametrize("kind", SYSTEMS)
def test_stacks_stay_within_the_cap(kind, n):
    parts = build_hamiltonian(SYSTEMS[kind], FockConfig(n, n, tail_tol=1e-2))
    cap, stacks, sizes = stack_cap(parts), {}, []
    for index, z, plus, minus, sign in sector_blocks(parts):
        (m, k), h = index.shape, plus.shape[-1]
        assert z.shape == index.shape and sign.shape[0] == m
        assert plus.shape == (m, h, h) and minus.shape == (m, k - h, k - h)
        assert m * k * k <= cap
        stacks.setdefault((k, h, sign.shape[1], np.iscomplexobj(plus)), []).append(m)
        sizes += [k] * m
    assert sorted(sizes) == expected_sizes(kind, n)
    # and no more stacks than the cap needs: all but the last of a size, layout and type are full
    for (k, *_), counts in stacks.items():
        assert all(m == cap // k**2 for m in counts[:-1])


@pytest.mark.parametrize("kind,n,calls", [("none", 24, 1), ("rwa", 40, 101), ("linear", 40, 4)])
def test_one_eigh_per_stack(kind, n, calls, monkeypatch):
    # none: 576 one-state sectors in one stack, which the exchange leaves
    # whole; rwa: sizes 1 to 28 in pairs (2 * 28^2 <= 40^2), 29 to 39 alone,
    # and the one sector of 40 states, each split in two but the pair of
    # one-state sectors |0, 0> and |39, 39>; linear: each parity half alone,
    # split in two.  One eigh per sector would be 576, 79 and 2, and one per
    # half-sector 576, 157 and 4.
    count = []
    eigh = np.linalg.eigh

    def counted(a):
        if a.size:  # the empty minus half of an unsplit stack decomposes nothing
            count.append(a.shape)
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    eigensystem.cache_clear()
    try:
        stacks = eigensystem(SYSTEMS[kind], FockConfig(n, n, tail_tol=1e-2))
    finally:
        eigensystem.cache_clear()
    assert len(count) == sum(1 + (y_plus.shape[-1] < index.shape[1]) for index, _, y_plus, *_ in stacks) == calls


@pytest.mark.parametrize("kind", SYSTEMS)
def test_sector_sizes_and_exact_zeros(kind):
    parts = build_hamiltonian(SYSTEMS[kind], CFG12)
    h = dense(parts)
    found = sectors(parts)
    assert sorted(len(index) for index in found) == expected_sizes(kind, CFG12.n_a)
    assert np.array_equal(np.sort(np.concatenate(found)), np.arange(CFG12.dim))
    inside = np.zeros(h.shape, dtype=bool)
    for index in found:
        inside[np.ix_(index, index)] = True
    assert np.all(h[~inside] == 0.0)


def _override_matches_dense_evolution(entries):
    """Joins the parities of the linear coupling with 1e-300 entries at the
    given index pairs, checks the effective Hamiltonian against a dense
    evolution, and returns the plus-half eigenvectors of the one joined
    sector, which no exchange splits."""
    cfg, t = CFG12, 1.3
    bare = OscillatorSystem(1.0, 1.0, InteractionKind.NONE)
    parts = build_hamiltonian(SYSTEMS["linear"], cfg)
    h0, v = np.diag(parts.d_a + parts.d_b), dense(parts, -(parts.d_a + parts.d_b))
    override = v.copy()
    for i, j in entries:
        override[i, j] = override[j, i] = 1e-300
    assert len(sectors(edge_list(h0 + v, parts))) == 2
    assert len(sectors(edge_list(h0 + override, parts))) == 1

    u = scipy.linalg.expm(-1j * (h0 + override) * t)
    rho_t = (u * thermal_product_state(bare, PREP, cfg)) @ u.conj().T
    _, rho_b = partial_traces(rho_t, cfg.n_a, cfg.n_b)
    reference = np.einsum("ikjl,lk->ij", override.reshape(cfg.n_a, cfg.n_b, cfg.n_a, cfg.n_b), rho_b)
    got = effective_hamiltonian(t, bare, PREP, cfg, interaction=override)
    assert np.abs(got - reference).max() < 1e-12
    ((_, _, y_plus, y_minus, _, _),) = _eigh_sectors(edge_list(h0 + override, parts))
    assert y_minus.size == 0
    return y_plus


def test_rounding_level_entry_joins_parities():
    # The linear coupling keeps parity; one 1e-300 entry across it makes one
    # sector, and the effective Hamiltonian still matches a dense evolution.
    # The entry is a bridge between the halves, which the gauge makes real
    # like any tree edge.
    assert np.isrealobj(_override_matches_dense_evolution([(0, 1)]))


def test_rounding_level_loop_stays_complex():
    # A second entry, |0_a 1_b> to |1_a 1_b> (index 13), closes the loop
    # |0 0> - |0 1> - |1 1> - |0 0> through one imaginary coupling.  No
    # diagonal gauge makes that loop real, so the sector keeps complex
    # eigenvectors, and every route built on them must still be exact.
    assert np.iscomplexobj(_override_matches_dense_evolution([(0, 1), (1, 13)]))


@pytest.mark.parametrize("kind", SYSTEMS)
def test_merged_energies_match_dense_spectrum(kind):
    sys_ = SYSTEMS[kind]
    stacks = eigensystem(sys_, CFG24)
    for index, energies, y_plus, y_minus, z, sign in stacks:
        (m, k), h = index.shape, y_plus.shape[-1]
        assert y_plus.shape == (m, h, h) and y_minus.shape == (m, k - h, k - h) and sign.shape[0] == m
        assert energies.shape == index.shape == z.shape
        assert np.isrealobj(y_plus) and np.isrealobj(y_minus)
    merged = np.sort(np.concatenate([energies.ravel() for _, energies, *_ in stacks]))
    levels = np.linalg.eigvalsh(dense(build_hamiltonian(sys_, CFG24)))
    assert np.all(np.abs(merged - levels) <= 1e-12 * np.maximum(1.0, np.abs(levels)))


@pytest.mark.parametrize("cfg", [CFG12, CFG24], ids=["n12", "n24"])
@pytest.mark.parametrize("kind", SYSTEMS)
def test_gauged_sector_blocks_are_exactly_real(kind, cfg):
    parts = build_hamiltonian(SYSTEMS[kind], cfg)
    h = dense(parts)
    for index, z, plus, minus, _ in stacked_sectors(parts):
        assert np.isrealobj(plus) and np.isrealobj(minus)
        assert np.all((np.conj(z)[:, None] * h[np.ix_(index, index)] * z).imag == 0.0)
        assert np.all(np.abs(z) == 1.0)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(
    st.sampled_from(InteractionKind),
    st.floats(0.2, 3.0),
    st.floats(0.2, 3.0),
    st.integers(2, 9),
    st.integers(2, 9),
    st.floats(0.0, 2.0),
    st.floats(0.1, 3.0),
    st.floats(0.0, 2.0),
)
def test_every_system_gauges_to_real_stacks(kind, omega_a, omega_b, n_a, n_b, g, m, q):
    # the invariant behind the oracle's real kernels and transitions: each
    # entry of H is purely real or purely imaginary and i^{N_a} or i^{N_b} is
    # a real gauge, so on or off resonance, with equal or unequal cutoffs and
    # g on either side of omega / 2, every stack is float64 and the one
    # pass's phases are exact quarter turns
    if kind in MINIMAL_KINDS:
        sys_ = OscillatorSystem(omega_a, omega_b, kind, m=m, q=q)
    else:
        sys_ = OscillatorSystem(omega_a, omega_b, kind, g=0.0 if kind is InteractionKind.NONE else g)
    for _, z, plus, minus, _ in sector_blocks(build_hamiltonian(sys_, FockConfig(n_a, n_b))):
        assert plus.dtype == minus.dtype == np.float64
        assert np.isin(z, [1.0, -1.0, 1j, -1j]).all()


@pytest.mark.parametrize("kind", SYSTEMS)
def test_unitary_matches_matrix_exponential(kind):
    sys_, t = SYSTEMS[kind], 1.7
    reference = scipy.linalg.expm(-1j * dense(build_hamiltonian(sys_, CFG24)) * t)
    assert np.abs(dense_unitary(t, sys_, CFG24) - reference).max() < 1e-12


@pytest.mark.parametrize("kind", SYSTEMS)
def test_audit_matches_dense_commutators(kind):
    parts = build_hamiltonian(SYSTEMS[kind], CFG12)
    audit = decomposition_audit(SYSTEMS[kind], CFG12)
    d = parts.d_a + parts.d_b
    h, h0, v = dense(parts), np.diag(d), dense(parts, -d)
    norms = [np.linalg.norm(h0 @ v - v @ h0), np.linalg.norm(h @ v - v @ h), np.linalg.norm(h0 @ h - h @ h0)]
    for got, want in zip((audit.norm_h0v, audit.norm_hv, audit.norm_h0h), norms):
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def dense_audit_strings(parts):
    """The three audit norms by the dense formula, printed as the audit prints
    them: [H, V] on the ungauged complex sector blocks of the dense H, and the
    gaps times H over the whole matrix."""
    h, d = dense(parts), parts.d_a + parts.d_b
    sector_norms = []
    for index in sectors(edge_list(h, parts)):
        block = h[np.ix_(index, index)]
        hv = block @ (block - np.diag(d[index]))
        sector_norms.append(np.linalg.norm(hv - hv.conj().T))
    for rows in np.array_split(np.arange(len(d)), 16):  # the gaps in place, a band of rows at a time
        h[rows] *= d[rows, None] - d[None, :]
    norm_h0v = float(np.linalg.norm(h))
    return "%.6e %.6e %.6e" % (norm_h0v, math.hypot(*sector_norms), norm_h0v)


AUDIT_CASES = [(kind, n) for n in (24, 40) for kind in SYSTEMS] + [("rwa-detuned", 64)]


@pytest.mark.parametrize("kind,n", AUDIT_CASES)
def test_audit_prints_as_the_dense_formula(kind, n):
    # the audit reads all three norms from the edge list, since [H, V] =
    # [H0, H] exactly; to the digits it prints, that is the dense formula
    sys_ = OscillatorSystem(1.0, 1.7, InteractionKind.RWA, g=0.3) if kind == "rwa-detuned" else SYSTEMS[kind]
    cfg = FockConfig(n, n, tail_tol=1e-2)
    audit = decomposition_audit(sys_, cfg)
    got = "%.6e %.6e %.6e" % (audit.norm_h0v, audit.norm_hv, audit.norm_h0h)
    assert got == dense_audit_strings(build_hamiltonian(sys_, cfg))


@pytest.mark.parametrize("levels", [(10, 7), (10, 10)], ids=["10x7", "10x10"])
@pytest.mark.parametrize("kind", SYSTEMS)
def test_sector_routes_match_dense_state(kind, levels):
    # every rho(t) route gathered from the sectors, against the dense rho(t)
    # and dense U(t): with unequal cutoffs, so that no index can swap modes,
    # and with equal ones, where the mode exchange splits rwa and linear
    sys_, cfg, t = SYSTEMS[kind], FockConfig(*levels, tail_tol=1e-2), 1.3
    parts = build_hamiltonian(sys_, cfg)
    rho_t = dense_state(t, sys_, PREP, cfg)
    w = thermal_product_state(sys_, PREP, cfg)
    rho_a, rho_b = _partial_traces(eigensystem(sys_, cfg), t, w, cfg.n_a, cfg.n_b)
    want_a, want_b = partial_traces(rho_t, cfg.n_a, cfg.n_b)
    assert np.abs(rho_a - want_a).max() < 1e-14
    assert np.abs(rho_b - want_b).max() < 1e-14

    h = dense(parts)
    v = dense(parts, -(parts.d_a + parts.d_b)).reshape(cfg.n_a, cfg.n_b, cfg.n_a, cfg.n_b)
    h_eff = np.einsum("ikjl,lk->ij", v, want_b)
    assert np.abs(effective_hamiltonian(t, sys_, PREP, cfg) - h_eff).max() < 1e-13

    def delta(h_true):
        return np.vdot(h_true, rho_t).real - np.diag(h_true).real @ w

    h_true_a, h_true_b = h - np.diag(parts.d_b), h - np.diag(parts.d_a)
    report = true_heat_transfer_identity(t, sys_, PREP, cfg)
    assert report.dq_ab_true == pytest.approx(delta(h_true_b) - delta(h_true_a), abs=1e-13)

    probs = np.abs(dense_unitary(t, sys_, cfg)) ** 2
    e_a, e_b = parts.d_a, parts.d_b
    f = PREP.beta_a * (e_a - e_a[:, None]) + PREP.beta_b * (e_b - e_b[:, None])
    mean_f, jarzynski = np.sum(probs * f * w), np.sum(probs * w[:, None])
    assert jarzynski_identity(t, sys_, PREP, cfg) == pytest.approx(jarzynski, abs=1e-14)
    assert jensen_bound(t, sys_, PREP, cfg) == pytest.approx((np.exp(mean_f), jarzynski), abs=1e-13)
    final_a = classical_average(lambda ea0, eb0, ea1, eb1: ea1 + 0 * (ea0 + eb0 + eb1), t, sys_, PREP, cfg)
    assert final_a == pytest.approx(np.sum(probs * e_a[:, None] * w), abs=1e-13)
    # a cross-mode f, so that a swapped mode or a transposed transition shows
    cross = classical_average(lambda ea0, eb0, ea1, eb1: ea1 * eb0 - ea0, t, sys_, PREP, cfg)
    assert cross == pytest.approx(np.sum(probs * (e_a[:, None] * e_b - e_a) * w), abs=1e-13)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(
    st.sampled_from([InteractionKind.RWA, InteractionKind.LINEAR]),
    st.sampled_from(["split", "unequal", "detuned"]),
    st.floats(0.05, 0.45),
    st.integers(3, 9),
    st.floats(0.0, 12.0),
)
def test_half_routes_match_dense_references(kind, layout, g, n, t):
    # resonant modes with equal cutoffs split every sector of more than one
    # state into exchange halves; unequal cutoffs or detuned modes leave them
    # whole.  Either way the heats, the partial traces, rho(t) on the entries
    # of H and the transition probabilities match the dense references
    # within 1e-12
    sys_ = OscillatorSystem(1.0, 1.3 if layout == "detuned" else 1.0, kind, g=g)
    cfg = FockConfig(n, n - 1 if layout == "unequal" else n, tail_tol=0.5)
    stacks = eigensystem(sys_, cfg)
    assert any(y_minus.size for _, _, _, y_minus, _, _ in stacks) == (layout == "split")
    parts, w = build_hamiltonian(sys_, cfg), thermal_product_state(sys_, PREP, cfg)
    u = dense_unitary(t, sys_, cfg)
    rho_t = (u * w) @ u.conj().T
    (report,) = heat_series_numeric(sys_, PREP, cfg, [t])
    populations = np.real(np.diag(rho_t)) - w
    assert abs(report.dq_a - populations @ parts.d_a) < 1e-12 and abs(report.dq_b - populations @ parts.d_b) < 1e-12
    for got, want in zip(_partial_traces(stacks, t, w, cfg.n_a, cfg.n_b), partial_traces(rho_t, cfg.n_a, cfg.n_b)):
        assert np.abs(got - want).max() < 1e-12
    rows, cols, _ = parts.entries(-parts.d_b)
    assert np.abs(_evolved(stacks, t, w, rows, cols) - rho_t[rows, cols]).max() < 1e-12
    _, transitions = _transitions(t, sys_, PREP, cfg)
    for index, probs in transitions:
        assert np.abs(probs - np.abs(u[index[..., :, None], index[..., None, :]]) ** 2).max() < 1e-12


# One dense complex H at 48 levels per mode, 16 dim^2 bytes (85 MB), bounds
# each oracle call: every route works on sector blocks and edge lists.
CFG48 = FockConfig(48, 48, tail_tol=1e-8)
PREP48 = ThermalPreparation(1.4, 2.5)
PEAK_SYSTEMS = {
    "none": OscillatorSystem(1.0, 1.0, InteractionKind.NONE),
    "rwa": OscillatorSystem(1.0, 1.0, InteractionKind.RWA, g=0.2),
    "linear": OscillatorSystem(1.0, 1.0, InteractionKind.LINEAR, g=0.2),
    "minimal-a": OscillatorSystem(1.0, 1.0, InteractionKind.MINIMAL_A, m=1.3, q=0.3),
}
PEAK_CALLS = {
    "eigensystem": lambda s: eigensystem(s, CFG48),
    "decomposition_audit": lambda s: decomposition_audit(s, CFG48),
    "_heat_kernel": lambda s: _heat_kernel(s, PREP48, CFG48),
    "heat_series_numeric": lambda s: heat_series_numeric(s, PREP48, CFG48, np.linspace(0.0, 10.0, 81)),
    "entropy_production": lambda s: entropy_production(1.7, s, PREP48, CFG48),
    "true_heat_transfer_identity": lambda s: true_heat_transfer_identity(1.7, s, PREP48, CFG48),
    "effective_hamiltonian": lambda s: effective_hamiltonian(1.7, s, PREP48, CFG48),
    "jarzynski_identity": lambda s: jarzynski_identity(1.7, s, PREP48, CFG48),
    "jensen_bound": lambda s: jensen_bound(1.7, s, PREP48, CFG48),
    "classical_average": lambda s: classical_average(lambda ea0, eb0, ea1, eb1: ea1 - ea0, 1.7, s, PREP48, CFG48),
    "spectrum_match": lambda s: spectrum_match(
        s, OscillatorSystem(1.0, 1.0, InteractionKind.MINIMAL_B, m=1.3, q=0.3), CFG48, 64
    ),
}


# Stacks are filled straight from the gauged edge list as the halves of the
# mode exchange, with no k x k block of a split sector and no complex
# stack-sized array: a cold LINEAR eigensystem holds the half blocks of one
# parity sector (576 states, 2.5 MiB each), their eigenvectors and those of
# the stack before it.  The rho(t) routes hold, one block at a time, G_ab and
# one real part of G_ab o e^{-i(E_a - E_b)t} with its product: three real
# squares of a half (7.6 MiB for LINEAR) or of a whole sector (30.4 MiB for
# minimal-a, 1152 states), besides the entries they gather.  Each bound below
# is the measured peak plus the margin named, and sits under the peaks of the
# routes before them, the U(t) diag(w) U(t)^dag halves and the whole sectors
# (numpy 2.4, 48 levels); spectrum_match keeps no eigenvectors at all.
TIGHTER_PEAKS = {
    ("linear", "eigensystem"): 20 * 2**20,  # 16.4 MiB + 22 %, whole sectors 39.1
    ("rwa", "eigensystem"): int(1.25 * 2**20),  # 1.15 MiB + 9 %, whole sectors 1.29
    ("linear", "entropy_production"): 26 * 2**20,  # 21.9 MiB + 19 %, U W U^dag halves 37.3, whole sectors 56.5
    ("linear", "effective_hamiltonian"): 26 * 2**20,  # 22.6 MiB + 15 %, U W U^dag halves 38.0, whole sectors 57.2
    ("linear", "true_heat_transfer_identity"): 28 * 2**20,  # 21.4 MiB + 31 %, U W U^dag halves 22.8, whole sectors 42.4
    ("minimal-a", "eigensystem"): 44 * 2**20,
    ("minimal-a", "spectrum_match"): 32 * 2**20,
    ("minimal-a", "entropy_production"): 50 * 2**20,  # 44.0 MiB + 14 %, U W U^dag 56.2
    ("minimal-a", "effective_hamiltonian"): 50 * 2**20,  # 45.3 MiB + 10 %, U W U^dag 57.5
}


def traced_peak(kind: str, call: str) -> int:
    """tracemalloc peak of one call alone: the eigensystem cold when it is the
    call, warm otherwise, and the heat kernel cold."""
    sys_ = PEAK_SYSTEMS[kind]
    if call == "eigensystem":
        eigensystem.cache_clear()
    else:
        eigensystem(sys_, CFG48)
    _heat_kernel.cache_clear()
    tracemalloc.start()
    try:
        PEAK_CALLS[call](sys_)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        _heat_kernel.cache_clear()


@pytest.mark.parametrize(
    "kind,call",
    [(kind, call) for kind in PEAK_SYSTEMS for call in PEAK_CALLS if call != "spectrum_match" or kind == "minimal-a"],
)
def test_oracle_calls_stay_below_one_dense_hamiltonian(kind, call):
    assert traced_peak(kind, call) < TIGHTER_PEAKS.get((kind, call), 16 * CFG48.dim**2)


def test_split_heat_kernel_forms_blocks_from_half_the_eigenvectors():
    # each LINEAR parity sector (1152 states, 10.1 MiB per real square) splits
    # into halves of 576, and its kernel is three half-size blocks of K_a,
    # each a product of half eigenvectors around a diagonal: whole-sector
    # products of V^T diag(w) V and V^T diag(d_a) V would hold four squares
    assert traced_peak("linear", "_heat_kernel") < 32 * 2**20
