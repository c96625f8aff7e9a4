"""Exact-diagonalization verification on a truncated Fock space.

Builds the full lab-frame Hamiltonian (self-Kerr plus beam-splitter couplings
including their counter-rotating parts) by index lookup on the table of
occupation numbers, stored as its two dense blocks of even and odd total
excitation number. It gives dressed frequencies and effective four-body
couplings nonperturbatively, for cross-checking the perturbative module, and
a Kerr-dressed third-order four-body estimate; the gap scan's model-space
solve and that estimate take their terms from one routine, `_lowdin_terms`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .perturbation import MIXING_LIMIT, CouplingGraph, ModeSpectrum, check_coupling_shapes

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

    The index structure comes from the basis of its shape (`_fock_basis`),
    made once: the diagonal is summed from the single-mode diagonals of a+ a
    and a+ a+ a a, and each two-mode term is one scaled scatter of its
    element products into the two blocks. Raises ValueError when h, g or
    the coupler mode do not match the spectrum, and, before any basis is
    made, when the even block would exceed DENSE_LIMIT states.
    """
    if d < 3:
        raise ValueError("truncation must be at least 3 to resolve Kerr terms")
    check_coupling_shapes(spectrum, couplings)
    n_kpo = spectrum.n_kpo
    n_modes = n_kpo + 1 if spectrum.has_coupler else n_kpo
    # the even block is the larger one, by one state when d is odd
    dim = d**n_modes
    if (dim + 1) // 2 > DENSE_LIMIT:
        raise ValueError(
            f"the even block of the {d}**{n_modes}-state space holds {(dim + 1) // 2} states, "
            f"above DENSE_LIMIT = {DENSE_LIMIT}; lower the truncation"
        )

    omega = [*spectrum.omega, spectrum.coupler_omega][:n_modes]
    kerr = [*spectrum.kerr, spectrum.coupler_kerr or 0.0][:n_modes]
    basis = _fock_basis(n_modes, d)
    diagonal = np.zeros(dim)
    for m in range(n_modes):
        diagonal += omega[m] * basis.number[m]
        diagonal -= 0.5 * kerr[m] * basis.kerr[m]
    terms = [((j, k), couplings.h[j, k]) for j in range(n_kpo) for k in range(j + 1, n_kpo)]
    if couplings.g is not None:
        terms += [((j, n_kpo), couplings.s[j] * couplings.g[j]) for j in range(n_kpo)]
    blocks = [np.diag(diagonal[states]) for states in basis.block_states]
    for modes, c in terms:
        if c != 0.0:
            for block, (flat, product) in zip(blocks, basis.steps[modes]):
                block.ravel()[flat] = -(c * product)  # a view: np.diag returns a contiguous array
    for block in blocks:
        _check_hermitian(block)
    return FockHamiltonian(n_modes=n_modes, truncation=d, even=blocks[0], odd=blocks[1])


def _check_hermitian(matrix: np.ndarray) -> None:
    """ValueError unless the real matrix is symmetric to 1e-12 of its largest element."""
    if abs(matrix - matrix.T).max() > 1e-12 * max(abs(matrix).max(), 1.0):
        raise ValueError("assembled Hamiltonian is not Hermitian")


@dataclass(frozen=True)
class _FockBasis:
    """Index structure of the d**n_modes Fock space in lexicographic order;
    it depends on no frequency or coupling. Every array is read-only."""

    occupations: np.ndarray  # (n_modes, d**n_modes)
    block_states: tuple      # the states of even, then of odd total excitation number
    position: np.ndarray     # each state's index within the block of its parity
    pair: np.ndarray         # even-block indices of |1100>, |0011>; empty below 4 modes
    number: np.ndarray       # (n_modes, d**n_modes), the diagonal of a+ a per mode
    kerr: np.ndarray         # likewise of a+ a+ a a
    steps: dict              # (j, k) -> per block: flat positions and element products


@functools.lru_cache(maxsize=8)
def _fock_basis(n_modes: int, d: int) -> _FockBasis:
    """The basis of the d**n_modes space, made once per shape. Each term of H
    keeps the parity of the total excitation number and moves its own pair
    of modes; ValueError if an element links the parities or two share a position."""
    occ = np.indices((d,) * n_modes).reshape(n_modes, -1)
    parity = occ.sum(axis=0) % 2
    position = np.where(parity, np.cumsum(parity), np.cumsum(1 - parity)) - 1
    block_states = tuple(np.flatnonzero(parity == p) for p in (0, 1))
    elements = _pair_elements(occ, d)
    rows, cols = (np.concatenate([np.arange(d**n_modes)] + [e[i] for e in elements.values()])
                  for i in (0, 1))
    if np.any(parity[rows] != parity[cols]):
        raise ValueError("Hamiltonian couples even and odd total excitation numbers")
    if not np.all(np.diff(np.sort(rows * d**n_modes + cols))):
        raise ValueError("two Hamiltonian elements share a position")
    steps = {}
    for modes, (r, c, product) in elements.items():
        keep = [parity[c] == p for p in (0, 1)]
        steps[modes] = tuple((len(block_states[p]) * position[r[keep[p]]] + position[c[keep[p]]],
                             product[keep[p]]) for p in (0, 1))
    pad = (0,) * (n_modes - 4)
    bare = np.transpose([(1, 1, 0, 0) + pad, (0, 0, 1, 1) + pad])
    pair = position[np.ravel_multi_index(bare, (d,) * n_modes) if n_modes >= 4 else []]
    # the diagonals are read off the operator products themselves, not
    # computed as n and n(n-1): sqrt(2) * sqrt(2) is not exactly 2
    adag = np.diag(np.sqrt(np.arange(1.0, d)), -1)
    a = adag.T
    basis = _FockBasis(occ, block_states, position, pair, np.diag(adag @ a)[occ],
                       np.diag(adag @ adag @ a @ a)[occ], steps)
    for array in (occ, position, pair, basis.number, basis.kerr, *block_states,
                  *(x for blocks in steps.values() for block in blocks for x in block)):
        array.flags.writeable = False
    return basis


def _pair_elements(occ: np.ndarray, d: int) -> dict:
    """Rows, columns and elements of (a_j - a_j+)(a_k - a_k+) in the full
    space, for every mode pair j < k, over its four (+-1, +-1) steps."""
    n_modes, dim = occ.shape
    # (a - a+) lowers n by one with element +sqrt(n) and raises it by one
    # with -sqrt(n + 1); per mode, step (-1, +1) and state: the element and
    # whether the step stays inside the truncation
    root = np.sqrt(np.arange(d + 1.0))
    elements = np.stack([root[occ], -root[occ + 1]], axis=1)
    allowed = np.stack([occ > 0, occ < d - 1], axis=1)
    offsets = np.multiply.outer(d ** np.arange(n_modes - 1, -1, -1), [-1, 1])
    states = np.arange(dim)
    out = {}
    for j in range(n_modes):
        for k in range(j + 1, n_modes):
            # on the axes (step of mode j, step of mode k, state)
            ok = allowed[j][:, None] & allowed[k][None, :]
            shift = offsets[j][:, None, None] + offsets[k][None, :, None]
            product = elements[j][:, None] * elements[k][None, :]
            out[j, k] = ((states + shift)[ok], np.broadcast_to(states, ok.shape)[ok], product[ok])
    return out


def dressed_frequencies_exact(h: FockHamiltonian) -> np.ndarray:
    """Per-mode dressed frequency: single-excitation eigenvalue minus the
    ground energy, the ground state taken from the even block and the single
    excitations from the odd one, each identified by maximum bare-basis overlap."""
    n, d = h.n_modes, h.truncation
    # basis state 0 opens the even block; column m of the identity excites mode m
    singles = _fock_basis(n, d).position[np.ravel_multi_index(np.eye(n, dtype=int), (d,) * n)]
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


def four_body_from_gap(spectrum: ModeSpectrum, couplings: CouplingGraph, d: int,
                       scan_halfwidth: float, n_scan: int = 41) -> dict:
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
    partitioning (`_lowdin_terms`) about the pair's energy E:
    H_P(delta) = Lambda_P + delta Dt_PP + delta^2 Dt_PQ (E - Lambda_Q)^-1 Dt_QP.
    Its remainder at an eigenvalue theta of the pair is at most
    |delta Dt_PQ|^2 (|theta - E| + |delta| |Dt_QQ|) / min|E - Lambda_Q|^2.
    Near the crossing g^2 = c^2 (delta - delta_0)^2 + 4 h^2, so the minimum is
    refined by successive parabolic interpolation on g^2 (Brent's parabolic
    step) inside the bracket of the scan points around the lowest gap, until
    a step falls below 1e-6 of the half-width; the best point is returned.

    Returns the scan trace, the refined minimum and |h_eff|, with the size
    of the diagonalized block (`dimension`), the size of P
    (`manifold_dimension`), the largest remainder bound over the scan and
    the refinement (`remainder_bound`, rad/s), the eigensolve's round-off
    dimension * eps * max|Lambda| (`roundoff`, rad/s) and `pair_weight`: the
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
    basis = _fock_basis(ham.n_modes, d)
    occ = basis.occupations[:, basis.block_states[0]]
    half_pair_number = 0.5 * occ[:2].sum(axis=0)
    levels, vecs = np.linalg.eigh(ham.even)
    roundoff = len(levels) * np.finfo(float).eps * abs(levels).max()
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
    # only the P rows of Dt are needed: an order-2 term never reads Dt_QQ
    rotated = vecs[:, model].T @ (half_pair_number[:, None] * vecs)
    d_pp, d_pq = rotated[:, model], rotated[:, rest]
    amplitudes = vecs[np.ix_(basis.pair, model)]
    # the resolvent is taken at the pair's own energy, not the manifold's
    # mean, so |theta - E| and with it the remainder stay small
    energy = float(np.sum(amplitudes**2 * levels[model]) / np.sum(amplitudes**2))
    to_rest = energy - levels[rest]
    (second,) = _lowdin_terms(d_pq, None, 1.0 / to_rest, 2)
    reach = np.linalg.norm(d_pq, 2) ** 2 / np.min(abs(to_rest)) ** 2
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
                f"exceeds {REMAINDER_TOL:g} of the gap {gaps[i]:.6g} rad/s "
                f"(eigh round-off {roundoff:.3g} rad/s)"
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
        "roundoff": float(roundoff),
        "manifold_dimension": len(model),
        "dimension": len(ham.even),
    }


def four_body_kerr_dressed(spectrum: ModeSpectrum, couplings: CouplingGraph) -> float:
    """Four-body coupling |H_eff[1100, 0011]| from third-order Loewdin partitioning.

    H0 is the diagonal of the Fock Hamiltonian, w n - (K/2) n (n-1), so the Kerr
    energies of doubly occupied intermediate states stay in the denominators; V
    is every two-body coupling, counter-rotating parts included. The model space
    is {|1100>, |0011>} (coupler in its ground state); the terms are
    `_lowdin_terms` at the two model energies. To leading order in K/Delta this
    reproduces |h4_general|; the next order closes the gap to the exact avoided
    crossing. It is the four-body coupling when w1 + w2 = w3 + w4; away from
    that resonance the off-diagonal element picks up a basis-dependent part
    proportional to the detuning of the two model states.

    V is two-body: it has no element inside the model space (V_PP = 0) and
    moves one quantum in each of two modes. So every intermediate state is
    one hop of V from |1100> or |0011> and holds at most 2 quanta per mode,
    and the third-order term uses V only between such states. A truncation
    of 3 (occupations 0, 1, 2) therefore holds every term exactly and is
    what is built. Raises ValueError, before any term is formed, when an
    intermediate state mixes with the model space by MIXING_LIMIT or more.
    """
    if spectrum.n_kpo != 4:
        raise ValueError("Kerr-dressed four-body estimate defined for four KPOs")
    ham = build_hamiltonian(spectrum, couplings, _LOWDIN_TRUNCATION)
    a, b = _fock_basis(ham.n_modes, ham.truncation).pair
    v = ham.even
    energies = v.diagonal().copy()
    np.fill_diagonal(v, 0.0)
    strength = np.maximum(abs(v[a]), abs(v[b]))
    hop = np.flatnonzero(strength)
    den = energies[[a, b], None] - energies[hop]
    with np.errstate(divide="ignore"):
        worst = float(np.max(strength[hop] / abs(den), initial=0.0))
    if worst >= MIXING_LIMIT:
        raise ValueError(
            f"intermediate-state mixing {worst:.3f} >= {MIXING_LIMIT}: not perturbative"
        )
    terms = _lowdin_terms(v[np.ix_([a, b], hop)], v[np.ix_(hop, hop)], 1.0 / den, 3)
    return float(abs(sum(terms)[0, 1]))


def _lowdin_terms(v_pq: np.ndarray, v_qq: np.ndarray | None, resolvent: np.ndarray,
                  order: int) -> list:
    """Symmetrized Loewdin terms of orders 2 to `order` (at most 3) on a model space P.

    From X = V_PQ * R, elementwise, with R[m, l] = 1 / (E_m - e_l) (a row per
    model state, or one for all), each term is (X V_PQ^T + its transpose) / 2,
    and X <- (X V_QQ) * R between orders; order 2 never reads V_QQ. With one
    E this is Loewdin partitioning at E; with per-row unperturbed model
    energies E_m it equals Winkler (2003), App. B, only when V_PP = 0.
    """
    x = v_pq * resolvent
    terms = [x @ v_pq.T]
    for _ in range(3, order + 1):
        x = (x @ v_qq) * resolvent
        terms.append(x @ v_pq.T)
    return [0.5 * (term + term.T) for term in terms]
