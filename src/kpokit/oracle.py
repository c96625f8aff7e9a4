"""Exact-diagonalization verification on a truncated Fock space.

Builds the full lab-frame Hamiltonian (self-Kerr plus beam-splitter
couplings including their counter-rotating parts) by index lookup on the
table of occupation numbers, stored as its two dense blocks of even and odd
total excitation number. It gives dressed frequencies and effective
four-body couplings nonperturbatively, for cross-checking the perturbative
module, and a Kerr-dressed third-order four-body estimate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .perturbation import MIXING_LIMIT, CouplingGraph, ModeSpectrum

DENSE_LIMIT = 2048
OVERLAP_THRESHOLD = 0.5
REMAINDER_TOL = 1e-8  # largest Loewdin remainder bound of a gap scan point, relative to its gap
_LOWDIN_TRUNCATION = 3


@dataclass(frozen=True)
class FockHamiltonian:
    n_modes: int
    truncation: int
    even: np.ndarray  # rad/s, the states of even total excitation number, in lexicographic order
    odd: np.ndarray   # rad/s, the odd states likewise

    @property
    def dimension(self) -> int:
        return self.truncation**self.n_modes


def build_hamiltonian(
    spectrum: ModeSpectrum, couplings: CouplingGraph, d: int
) -> FockHamiltonian:
    """H = sum_j [w_j n_j - (K_j/2) a_j+^2 a_j^2] - sum_{j<k} h_jk (a_j - a_j+)(a_k - a_k+)
    - sum_j s_j g_j (a_j - a_j+)(a_g - a_g+), counter-rotating parts kept.

    Every element is placed by index lookup on the occupation table: the
    diagonal from the single-mode diagonals of a+ a and a+ a+ a a, and each
    two-mode term at its four (+-1, +-1) occupation offsets. Each term moves
    its own pair of modes, so no two elements share a position. Raises
    ValueError, before anything is allocated, when the even block would
    exceed DENSE_LIMIT states.
    """
    if d < 3:
        raise ValueError("truncation must be at least 3 to resolve Kerr terms")
    n_kpo = spectrum.n_kpo
    n_modes = n_kpo + 1 if spectrum.has_coupler else n_kpo
    # the even block is the larger one, by one state when d is odd
    dim = d**n_modes
    if (dim + 1) // 2 > DENSE_LIMIT:
        raise ValueError(
            f"the even block of the {d}**{n_modes}-state space holds {(dim + 1) // 2} states, "
            f"above DENSE_LIMIT = {DENSE_LIMIT}; lower the truncation"
        )

    omega = list(spectrum.omega)
    kerr = list(spectrum.kerr)
    if spectrum.has_coupler:
        omega.append(spectrum.coupler_omega)
        kerr.append(spectrum.coupler_kerr or 0.0)

    # the diagonals are read off the operator products themselves, not
    # computed as n and n(n-1): sqrt(2) * sqrt(2) is not exactly 2
    adag = np.diag(np.sqrt(np.arange(1.0, d)), -1)
    a = adag.T
    num = np.diag(adag @ a)
    kerr_op = np.diag(adag @ adag @ a @ a)
    occ = _occupations(n_modes, d)
    diagonal = np.zeros(dim)
    for m in range(n_modes):
        diagonal += omega[m] * num[occ[m]]
        diagonal -= 0.5 * kerr[m] * kerr_op[occ[m]]

    # (a - a+) lowers n by one with element +sqrt(n) and raises it by one
    # with -sqrt(n + 1); per mode, step (-1, +1) and state: the element and
    # whether the step stays inside the truncation
    root = np.sqrt(np.arange(d + 1.0))
    elements = np.stack([root[occ], -root[occ + 1]], axis=1)
    allowed = np.stack([occ > 0, occ < d - 1], axis=1)
    offsets = np.multiply.outer(d ** np.arange(n_modes - 1, -1, -1), [-1, 1])
    terms = [(j, k, couplings.h[j, k]) for j in range(n_kpo) for k in range(j + 1, n_kpo)]
    if couplings.g is not None and spectrum.has_coupler:
        terms += [(j, n_kpo, couplings.s[j] * couplings.g[j]) for j in range(n_kpo)]
    j, k, c = np.array([term for term in terms if term[2] != 0.0]).reshape(-1, 3).T
    j, k = j.astype(int), k.astype(int)

    # every term at its four (step_j, step_k) offsets at once, on the axes
    # (term, step of mode j, step of mode k, state)
    states = np.arange(dim)
    ok = allowed[j][:, :, None] & allowed[k][:, None, :]
    shift = offsets[j][:, :, None, None] + offsets[k][:, None, :, None]
    value = -(c[:, None, None, None] * (elements[j][:, :, None] * elements[k][:, None, :]))
    rows = [states, (states + shift)[ok]]
    cols = [states, np.broadcast_to(states, ok.shape)[ok]]
    data = [diagonal, value[ok]]
    rows, cols, data = (np.concatenate(part) for part in (rows, cols, data))
    even, odd = _parity_blocks(rows, cols, data, n_modes, d)
    return FockHamiltonian(n_modes=n_modes, truncation=d, even=even, odd=odd)


def _parity_blocks(
    rows: np.ndarray, cols: np.ndarray, data: np.ndarray, n_modes: int, d: int
) -> list[np.ndarray]:
    """The even and odd blocks of the matrix with elements data at (rows, cols).

    Every term of H changes the total excitation number by 0 or 2, so both
    sectors are closed. That is checked on the elements, not assumed: a
    ValueError is raised if any links an even state to an odd one, and each
    block must pass the Hermitian check.
    """
    parity, position = _parity_positions(n_modes, d)
    if np.any(parity[rows] != parity[cols]):
        raise ValueError("Hamiltonian couples even and odd total excitation numbers")
    blocks = []
    for p in (0, 1):
        keep = parity[cols] == p
        block = np.zeros((np.count_nonzero(parity == p),) * 2)
        block[position[rows[keep]], position[cols[keep]]] = data[keep]
        _check_hermitian(block)
        blocks.append(block)
    return blocks


def _check_hermitian(matrix: np.ndarray) -> None:
    """ValueError unless the real matrix is symmetric to 1e-12 of its largest element."""
    if abs(matrix - matrix.T).max() > 1e-12 * max(abs(matrix).max(), 1.0):
        raise ValueError("assembled Hamiltonian is not Hermitian")


def _occupations(n_modes: int, d: int) -> np.ndarray:
    """Occupation number of each mode (rows) in each basis state (columns)."""
    return np.indices((d,) * n_modes).reshape(n_modes, -1)


def _parity_positions(n_modes: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Total-excitation parity of each basis state (0 even, 1 odd) and the
    state's index within the block of its parity."""
    parity = _occupations(n_modes, d).sum(axis=0) % 2
    return parity, np.where(parity, np.cumsum(parity), np.cumsum(1 - parity)) - 1


def _pair_index(n_modes: int, d: int) -> np.ndarray:
    """Even-block indices of |1100> and |0011>, any coupler in its ground state."""
    pad = (0,) * (n_modes - 4)
    pair = np.transpose([(1, 1, 0, 0) + pad, (0, 0, 1, 1) + pad])
    return _parity_positions(n_modes, d)[1][np.ravel_multi_index(pair, (d,) * n_modes)]


def dressed_frequencies_exact(h: FockHamiltonian) -> np.ndarray:
    """Per-mode dressed frequency: single-excitation eigenvalue minus the
    ground energy, the ground state taken from the even block and the single
    excitations from the odd one, each identified by maximum bare-basis overlap."""
    n, d = h.n_modes, h.truncation
    # basis state 0 opens the even block; column m of the identity excites mode m
    singles = _parity_positions(n, d)[1][np.ravel_multi_index(np.eye(n, dtype=int), (d,) * n)]
    energies, held = [], []
    for block, bare in ((h.even, [0]), (h.odd, singles)):
        vals, vecs = np.linalg.eigh(block)
        overlaps = np.abs(vecs[bare]) ** 2
        energies.append(vals[overlaps.argmax(axis=1)])
        held.append(overlaps.max(axis=1))
    held = np.concatenate(held)
    weak = np.flatnonzero(held < OVERLAP_THRESHOLD)
    if weak.size:
        i = weak[0]
        what = ("ground-state identification" if i == 0
                else f"single-excitation state of mode {i - 1}")
        raise ValueError(f"{what} ambiguous (overlap {held[i]:.2f})")
    return energies[1] - energies[0]


def four_body_from_gap(
    spectrum: ModeSpectrum,
    couplings: CouplingGraph,
    d: int,
    scan_halfwidth: float,
    n_scan: int = 41,
) -> dict:
    """Effective four-body coupling from the |1100>-|0011> avoided crossing.

    A common offset delta is added to modes 1 and 2 (shifting w1 + w2
    through w3 + w4); the dressed levels descending from |1100> and
    |0011> anticross, and the minimum gap equals twice the effective
    coupling. H is assembled once and only its even block of total
    excitation number, which holds both states, is diagonalized, once; an
    offset only adds delta * D to that block, D = diag((n1 + n2) / 2).
    In the eigenbasis V of the block, Dt = V^T D V, and each offset is
    solved in the model space P of the eigenstates with more than half
    their weight on two total quanta, the rest Q, by second-order Loewdin
    partitioning about the pair's energy E (Winkler 2003, App. B):

        H_P(delta) = Lambda_P + delta Dt_PP
                     + delta^2 Dt_PQ diag(1 / (E - Lambda_Q)) Dt_QP.

    Its remainder at an eigenvalue theta of the pair is at most
    |delta Dt_PQ|^2 (|theta - E| + |delta| |Dt_QQ|) / min|E - Lambda_Q|^2.
    Near the crossing g^2 = c^2 (delta - delta_0)^2 + 4 h^2, so the minimum is
    refined by successive parabolic interpolation on g^2 (Brent's parabolic
    step) inside the bracket of the scan points around the lowest gap, until
    a step falls below 1e-6 of the half-width; the best point is returned.

    Returns the scan trace, the refined minimum and |h_eff|, with the size
    of the diagonalized block (`dimension`), the size of P
    (`manifold_dimension`), the largest remainder bound over the scan and
    the refinement (`remainder_bound`, rad/s) and `pair_weight`: the
    smallest weight, over the same points, that the two chosen
    eigenstates hold on {|1100>, |0011>} (at most 2). Raises ValueError
    when that weight falls below 2 * OVERLAP_THRESHOLD, where the pair is no
    longer identifiable; when the remainder bound exceeds REMAINDER_TOL of
    a point's gap; when P is not as large as the two-quantum manifold; and
    when the gaps barely vary over the scan, which is then too narrow to
    resolve the crossing.
    """
    if spectrum.n_kpo != 4:
        raise ValueError("gap extraction defined for four KPOs")
    if not 0.0 < scan_halfwidth < np.inf:
        raise ValueError(f"scan half-width must be positive and finite, got {scan_halfwidth}")
    if n_scan < 3:
        raise ValueError(f"gap scan needs at least 3 points, got {n_scan}")

    ham = build_hamiltonian(spectrum, couplings, d)
    occ = _occupations(ham.n_modes, d)
    occ = occ[:, occ.sum(axis=0) % 2 == 0]
    half_pair_number = 0.5 * occ[:2].sum(axis=0)
    levels, vecs = np.linalg.eigh(ham.even)
    # P: the eigenstates mostly on two total quanta, as |1100> and |0011> are
    two_quanta = occ.sum(axis=0) == 2
    in_p = (vecs[two_quanta] ** 2).sum(axis=0) > 0.5
    if np.count_nonzero(in_p) != np.count_nonzero(two_quanta):
        raise ValueError(
            f"{np.count_nonzero(in_p)} eigenstates lie mostly in the "
            f"{np.count_nonzero(two_quanta)}-state two-quantum manifold; "
            "it is not separated from the rest of the spectrum"
        )
    model, rest = np.flatnonzero(in_p), np.flatnonzero(~in_p)
    rotated = vecs.T @ (half_pair_number[:, None] * vecs)
    d_pp, d_pq = rotated[np.ix_(model, model)], rotated[np.ix_(model, rest)]
    amplitudes = vecs[np.ix_(_pair_index(ham.n_modes, d), model)]
    # the resolvent is taken at the pair's own energy, not the manifold's
    # mean, so |theta - E| and with it the remainder stay small
    energy = float(np.sum(amplitudes**2 * levels[model]) / np.sum(amplitudes**2))
    gaps_to_q = energy - levels[rest]
    second = (d_pq / gaps_to_q) @ d_pq.T
    reach = np.linalg.norm(d_pq, 2) ** 2 / np.min(abs(gaps_to_q)) ** 2
    pair_weights, bounds = [], []

    def gap(deltas: np.ndarray) -> np.ndarray:
        """Pair gaps at the given offsets; the energies are relative to E."""
        scale = deltas[:, None, None]
        theta, y = np.linalg.eigh(
            np.diag(levels[model] - energy) + scale * d_pp + scale**2 * second
        )
        overlaps = (amplitudes @ y) ** 2
        chosen = overlaps.argmax(axis=2)
        # near the crossing the two bare states hybridize 50/50; take
        # the two eigenstates with the largest combined overlap
        unclear = (overlaps.max(axis=2).min(axis=1) < OVERLAP_THRESHOLD) | (
            chosen[:, 0] == chosen[:, 1])
        chosen[unclear] = np.argsort(overlaps[unclear].sum(axis=1), axis=1)[:, -2:]
        weight = np.take_along_axis(overlaps, chosen[:, None, :], axis=2).sum(axis=(1, 2))
        lost = np.flatnonzero(weight < 2 * OVERLAP_THRESHOLD)
        if lost.size:
            i = lost[0]
            raise ValueError(
                f"|1100>, |0011> pair not identified at offset {deltas[i]:.6g} rad/s: "
                f"the chosen eigenstates hold weight {weight[i]:.3f} on it"
            )
        pair = np.take_along_axis(theta, chosen, axis=1)
        gaps = abs(pair[:, 0] - pair[:, 1])
        # |Dt_QQ| <= |Dt| = max(half_pair_number), Dt being D rotated
        bound = deltas**2 * reach * (
            abs(pair).max(axis=1) + abs(deltas) * half_pair_number.max())
        loose = np.flatnonzero(bound > REMAINDER_TOL * gaps)
        if loose.size:
            i = loose[0]
            raise ValueError(
                f"Loewdin remainder bound {bound[i]:.3g} rad/s at offset {deltas[i]:.6g} rad/s "
                f"exceeds {REMAINDER_TOL:g} of the gap {gaps[i]:.6g} rad/s"
            )
        pair_weights.append(weight.min())
        bounds.append(bound.max())
        return gaps

    offsets = np.linspace(-scan_halfwidth, scan_halfwidth, n_scan)
    gaps = gap(offsets)
    # each offset moves |1100> against |0011> by delta, so only a scan too
    # narrow to resolve the crossing comes out flat
    if np.ptp(gaps) < 1e-12 * max(abs(spectrum.omega).max(), 1.0):
        raise ValueError(
            f"the gaps vary by {np.ptp(gaps):.3g} rad/s over the scan, too little "
            "to resolve the avoided crossing; widen scan_halfwidth"
        )
    i_min = int(np.argmin(gaps))
    if i_min in (0, len(offsets) - 1):
        raise ValueError("no interior gap minimum in the scan range; widen scan_halfwidth")
    # g[1] is the lowest gap of the bracket x[0] < x[1] < x[2], so the vertex
    # lies between its midpoints; it replaces the middle if lower, else an end
    x = offsets[i_min - 1:i_min + 2].tolist()
    g = gaps[i_min - 1:i_min + 2].tolist()
    for _ in range(100):
        (a, m, b), (fa, fm, fb) = x, (v * v for v in g)
        p = (m - a) ** 2 * (fm - fb) - (m - b) ** 2 * (fm - fa)
        q = (m - a) * (fm - fb) - (m - b) * (fm - fa)
        u = m - 0.5 * p / q if q else m
        if not (abs(u - m) >= 1e-6 * scan_halfwidth and a < u < b):
            break
        g_u = float(gap(np.array([u]))[0])
        if g_u < g[1]:
            x, g = ([a, u, m], [g[0], g_u, g[1]]) if u < m else ([m, u, b], [g[1], g_u, g[2]])
        else:
            side = 0 if u < m else 2
            x[side], g[side] = u, g_u
    return {
        "offsets": offsets,
        "gaps": gaps,
        "offset_min": x[1],
        "gap_min": g[1],
        "h_eff": g[1] / 2.0,
        "pair_weight": float(min(pair_weights)),
        "remainder_bound": float(max(bounds)),
        "manifold_dimension": len(model),
        "dimension": len(ham.even),
    }


def four_body_kerr_dressed(spectrum: ModeSpectrum, couplings: CouplingGraph) -> float:
    """Four-body coupling |H_eff[1100, 0011]| from third-order Loewdin partitioning.

    H0 is the diagonal of the Fock Hamiltonian, w n - (K/2) n (n-1), so the
    Kerr energies of doubly occupied intermediate states stay in the
    denominators; V is every two-body coupling, counter-rotating parts
    included. The model space is {|1100>, |0011>} (coupler in its ground
    state) and the expansion follows Winkler (2003), App. B. To leading
    order in K/Delta this reproduces |h4_general|; the next order is what
    closes the gap to the exact avoided crossing. It is the four-body
    coupling when w1 + w2 = w3 + w4; away from that resonance the
    off-diagonal element picks up a basis-dependent part proportional to
    the detuning of the two model states.

    Every intermediate state is one hop of V from |1100> or |0011>, and V
    moves one quantum in each of two modes, so it holds at most 2 quanta
    per mode; the third-order sum uses V only between such states. A
    truncation of 3 (occupations 0, 1, 2) therefore holds every term
    exactly and is what is built. Raises ValueError when an intermediate
    state mixes with the model space by MIXING_LIMIT or more.
    """
    if spectrum.n_kpo != 4:
        raise ValueError("Kerr-dressed four-body estimate defined for four KPOs")
    ham = build_hamiltonian(spectrum, couplings, _LOWDIN_TRUNCATION)
    a, b = _pair_index(ham.n_modes, ham.truncation)
    v = ham.even
    energies = v.diagonal().copy()
    np.fill_diagonal(v, 0.0)
    # V is real symmetric and, being two-body, has no element inside the
    # model space, so the first-order and the model-space third-order
    # terms of the expansion vanish; every other term runs over the states
    # one hop from |1100> or |0011>, in basis order
    strength = np.maximum(abs(v[a]), abs(v[b]))
    strength[[a, b]] = 0.0
    hop = np.flatnonzero(strength)
    v_a, v_b, v_hop = v[a, hop], v[b, hop], v[np.ix_(hop, hop)]

    resolvents = []
    for e_m in (energies[a], energies[b]):
        den = e_m - energies[hop]
        with np.errstate(divide="ignore"):
            worst = float(np.max(strength[hop] / abs(den), initial=0.0))
        if worst >= MIXING_LIMIT:
            raise ValueError(
                f"intermediate-state mixing {worst:.3f} >= {MIXING_LIMIT}: not perturbative"
            )
        resolvents.append(1.0 / den)

    second = 0.5 * np.sum(v_a * v_b * (resolvents[0] + resolvents[1]))
    third = 0.5 * sum((v_a * r) @ (v_hop @ (v_b * r)) for r in resolvents)
    return float(abs(second + third))
