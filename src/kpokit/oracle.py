"""Exact-diagonalization verification on a truncated Fock space.

The lab-frame Hamiltonian (self-Kerr plus beam-splitter couplings with their
counter-rotating parts) is a BosonicPolynomial; one builder makes each of its
matrices by one rule: prod_j a_j+^c_j a_j^a_j links |n> to |n - a + c> by the
product, in mode order, of the single-mode elements of a+^c a^a, and elements
at one position are summed in the polynomial's order. It builds the blocks of
even and odd total excitation number and the hop space of the Kerr-dressed
four-body estimate: |1100>, |0011> and the states one coupling from them. The
gap scan diagonalizes, for N = 4, 6 and 8 in turn, the even states of at most N
quanta with those of N + 2 folded in by a Schur complement, and last the whole
even block, each only where a quadratic residual bound does not prove that what
the tier before left out moves each level it reads by at most that solve's
round-off. The scan's model-space solve and the estimate share `_lowdin_terms`.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from . import _Record
from .operators import BosonicPolynomial
from .perturbation import (MIXING_LIMIT, CouplingGraph, ModeSpectrum, _coupling_matrix,
                           _mode_pairs)

DENSE_LIMIT = 2048
OVERLAP_THRESHOLD = 0.5
REMAINDER_TOL = 1e-8  # largest Loewdin remainder bound of a gap scan point, relative to its gap
_LOWDIN_TRUNCATION = 3
_SWEEPS = 2  # Jacobi sweeps of the fold's lift M after its first estimate


class FockHamiltonian(_Record):
    __slots__ = ("n_modes", "truncation", "even", "odd")

    def __init__(self, n_modes: int, truncation: int, even: np.ndarray, odd: np.ndarray | None):
        object.__setattr__(self, "n_modes", n_modes)
        object.__setattr__(self, "truncation", truncation)
        # rad/s, the states of even total excitation number, in lexicographic order
        object.__setattr__(self, "even", even)
        object.__setattr__(self, "odd", odd)  # rad/s, the odd states likewise; None when not built

    @property
    def dimension(self) -> int:
        return self.truncation**self.n_modes


def build_hamiltonian(
    spectrum: ModeSpectrum, couplings: CouplingGraph, d: int, *, odd: bool = True
) -> FockHamiltonian:
    """H = sum_j [w_j n_j - (K_j/2) a_j+^2 a_j^2] - sum_{j<k} c_jk (a_j - a_j+)(a_k - a_k+)
    over all modes, the coupler's included (c_jn = g_j, signed), counter-rotating parts kept.

    H is a polynomial (`_polynomial`); by the one rule of `_build`, each element
    is the sum, over the monomials at its position in the polynomial's order,
    of the coefficient times the product, in mode order, of the monomial's
    single-mode elements. With odd=False only the even block, which holds the
    ground state and every two-quantum state, is built and checked, and `odd`
    is None. Raises ValueError when h, g or the coupler mode do not match the
    spectrum, when an element or the diagonal leaves the floating-point range,
    when a block is not symmetric, and, before any basis is made, when the
    even block would exceed DENSE_LIMIT states.
    """
    if d < 3:
        raise ValueError("truncation must be at least 3 to resolve Kerr terms")
    polynomial = _polynomial(spectrum, couplings)
    n_modes = polynomial.n_modes
    # the even block is the larger one, by one state when d is odd
    states = (d**n_modes + 1) // 2
    if states > DENSE_LIMIT:
        raise ValueError(f"the even block of the {d}**{n_modes}-state space holds {states} "
                         f"states, above DENSE_LIMIT = {DENSE_LIMIT}; lower the truncation")
    blocks = _build(polynomial, d, (0, 1) if odd else (0,))
    return FockHamiltonian(n_modes, d, blocks[0], blocks[1] if odd else None)


def _polynomial(spectrum: ModeSpectrum, couplings: CouplingGraph) -> BosonicPolynomial:
    """H of `build_hamiltonian` in the order its matrices sum it: per mode,
    w a+ a and then -(K/2) a+^2 a^2; then the four monomials of
    -c_jk (a_j - a_j+)(a_k - a_k+) for each nonzero entry of the coupling
    matrix c (`perturbation._coupling_matrix`), the KPO pairs first and then
    the coupler's column. ValueError when h or g do not fit the spectrum."""
    omega, kerr, c = _coupling_matrix(spectrum, couplings)
    n_modes, c = len(omega), c.tolist()
    pairs = [((j, k), c[j][k]) for j, k in _mode_pairs(spectrum.n_kpo, n_modes) if c[j][k] != 0.0]
    coefficients = [x for w, k in zip(omega.tolist(), kerr.tolist()) for x in (w, -0.5 * k)]
    # -c (a_j - a_j+)(a_k - a_k+) = -c a_j a_k - c a_j+ a_k+ + c a_j+ a_k + c a_k+ a_j
    coefficients += [x for _, c in pairs for x in (-c, -c, c, c)]
    monomials = _monomials(n_modes, tuple(modes for modes, _ in pairs))
    return BosonicPolynomial(n_modes, dict(zip(monomials, coefficients)))


@functools.lru_cache(maxsize=16)
def _monomials(n_modes: int, pairs: tuple) -> tuple:
    """The monomials of `_polynomial`, in its order, for couplings on `pairs`."""
    def exponents(*modes: int) -> tuple:
        return tuple(modes.count(m) for m in range(n_modes))

    out = [(exponents(*e), exponents(*e)) for m in range(n_modes) for e in ((m,), (m, m))]
    for j, k in pairs:
        none, one_j, one_k, both = exponents(), exponents(j), exponents(k), exponents(j, k)
        out += [(none, both), (both, none), (one_j, one_k), (one_k, one_j)]
    return tuple(out)


def _build(polynomial: BosonicPolynomial, d: int, spaces: tuple) -> list:
    """The real matrix of `polynomial` on each of `spaces` of the d**n_modes
    basis (0 and 1 the even and odd blocks, 2 the hop space): coefficient
    times element, summed per position in the order of `_elements`.
    ValueError where an element or a sum leaves the floating-point range,
    naming the term's modes or the diagonal, and unless it is symmetric."""
    monomials = tuple(polynomial.terms)
    coefficients = np.array(list(polynomial.terms.values()))
    matrices = []
    for space in spaces:
        size, flat, element, term = _elements(polynomial.n_modes, d, space, monomials)
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            weights = coefficients[term] * element
        matrix = np.bincount(flat, weights, size * size).reshape(size, size)
        finite = np.isfinite(matrix.ravel()[flat])  # a position no element reaches holds 0
        if not finite.all():
            # the first term at the first position out of range
            t = term[np.argmax(flat == flat[~finite].min())]
            creation, annihilation = monomials[t]
            modes = tuple(m for m, ca in enumerate(zip(creation, annihilation)) if any(ca))
            what = ("the diagonal of the Hamiltonian" if creation == annihilation else
                    f"the term of modes {modes}, of coefficient {coefficients[t]:.3g} rad/s,")
            raise ValueError(f"{what} overflows the floating-point range")
        _check_hermitian(matrix)
        matrices.append(matrix)
    return matrices


@functools.lru_cache(maxsize=16)
def _elements(n_modes: int, d: int, space: int, monomials: tuple) -> tuple:
    """The size of space `space` of the d**n_modes basis, then the flat position,
    value and monomial of each element of `monomials` there, in their order;
    read-only, made once per shape, space and monomials. a+^c a^a is read off
    the product of its a+ and a matrices from the left, so a+^2 a^2 is
    ((a+ a+) a) a, not n (n - 1): sqrt(2) * sqrt(2) is not exactly 2.
    ValueError for a monomial that changes the total quanta by an odd number."""
    basis = _fock_basis(n_modes, d)
    states = basis.spaces[space]
    index = np.full(d**n_modes, -1)
    index[states] = np.arange(len(states))
    occ = basis.occupations[:, states]
    adag = np.diag(np.sqrt(np.arange(1.0, d)), -1)
    single = functools.cache(lambda c, a: functools.reduce(
        np.matmul, [adag] * c + [adag.T] * a, np.eye(d)))
    parts = []
    for t, (creation, annihilation) in enumerate(monomials):
        if (sum(creation) - sum(annihilation)) % 2:
            raise ValueError("Hamiltonian couples even and odd total excitation numbers")
        target = occ + np.subtract(creation, annihilation)[:, None]
        inside = np.flatnonzero(((target >= 0) & (target < d)).all(axis=0))
        element = np.ones(len(inside))
        for m, ca in enumerate(zip(creation, annihilation)):
            element = element * single(*ca)[target[m, inside], occ[m, inside]]
        rows = index[np.ravel_multi_index(target[:, inside], (d,) * n_modes)]
        keep = (element != 0.0) & (rows >= 0)
        parts.append((len(states) * rows[keep] + inside[keep], element[keep],
                      np.full(np.count_nonzero(keep), t)))
    arrays = [np.concatenate(part) for part in zip(*parts)]
    for array in arrays:
        array.flags.writeable = False
    return (len(states), *arrays)


def _check_hermitian(matrix: np.ndarray) -> None:
    """ValueError unless the real matrix is symmetric to 1e-12 of its largest
    element; the tolerant test runs only when the exact one fails."""
    if np.array_equal(matrix, matrix.T):
        return
    if abs(matrix - matrix.T).max() > 1e-12 * max(abs(matrix).max(), 1.0):
        raise ValueError("assembled Hamiltonian is not Hermitian")


class _ScanBlock(NamedTuple):
    """States of the even block that one tier of the gap scan solves, and
    what it reads of them; each array is read-only. The solved vectors have
    a row per kept state and then, in a fold, per folded state."""

    kept: np.ndarray              # the even-block indices diagonalized, ascending
    folded: np.ndarray | None     # those folded into them; None for the whole block
    dropped: np.ndarray | None    # the rest, perhaps none; None for the whole block
    half_pair_number: np.ndarray  # (n1 + n2) / 2 on each row
    two_quanta: np.ndarray        # which rows hold two total quanta
    pair: np.ndarray              # the rows of |1100>, |0011>


class _FockBasis(_Record):
    """Index structure of the d**n_modes Fock space in lexicographic order;
    it depends on no frequency or coupling. Every array is read-only."""

    __slots__ = ("occupations", "spaces", "pair", "scan")

    def __init__(self, occupations: np.ndarray, spaces: tuple, pair: np.ndarray, scan: tuple):
        object.__setattr__(self, "occupations", occupations)  # (n_modes, d**n_modes)
        # the ascending states of the even block, the odd block, the hop space
        object.__setattr__(self, "spaces", spaces)
        # even-block indices of |1100>, |0011>; empty below 4 modes
        object.__setattr__(self, "pair", pair)
        # each tier's _ScanBlock: the folds, by the quanta they keep, then the whole block
        object.__setattr__(self, "scan", scan)


@functools.lru_cache(maxsize=8)
def _fock_basis(n_modes: int, d: int) -> _FockBasis:
    """The basis of the d**n_modes space, made once per shape."""
    occ = np.indices((d,) * n_modes).reshape(n_modes, -1)
    parity = occ.sum(axis=0) % 2
    pad = (0,) * (n_modes - 4)
    bare = (np.transpose([(1, 1, 0, 0) + pad, (0, 0, 1, 1) + pad]) if n_modes >= 4
            else np.zeros((n_modes, 0), dtype=int))
    # the hop space: |1100>, |0011> and each state one (+-1, +-1) step of two modes from either
    hop = np.isin(((occ[:, :, None] - bare[:, None, :]) ** 2).sum(axis=0), (0, 2)).any(axis=1)
    spaces = tuple(np.flatnonzero(member) for member in (parity == 0, parity == 1, hop))
    pair = np.searchsorted(spaces[0], np.ravel_multi_index(bare, (d,) * n_modes))
    block_occ = occ[:, spaces[0]]
    total, every = block_occ.sum(axis=0), np.arange(len(spaces[0]))

    def tier(kept, folded=None, dropped=None):
        rows = kept if folded is None else np.concatenate([kept, folded])
        return _ScanBlock(kept, folded, dropped, 0.5 * block_occ[:2, rows].sum(axis=0),
                          total[rows] == 2, np.searchsorted(kept, pair))

    # tier N keeps the states of at most N quanta and folds in those of N + 2;
    # a fold of more than eight keeps nearly the whole block at d = 4
    scan = tuple(tier(every[total <= n], every[total == n + 2], every[total > n + 2])
                 for n in (4, 6, 8) if n + 2 <= total.max()) + (tier(every),)
    for array in (occ, pair, *spaces, *(x for block in scan for x in block if x is not None)):
        array.flags.writeable = False
    return _FockBasis(occ, spaces, pair, scan)


def dressed_frequencies_exact(h: FockHamiltonian) -> np.ndarray:
    """Per-mode dressed frequency: single-excitation eigenvalue minus the
    ground energy, the ground state taken from the even block and the single
    excitations from the odd one, each identified by maximum bare-basis overlap."""
    if h.odd is None:
        raise ValueError("dressed frequencies need the odd block; build it with odd=True")
    n, d = h.n_modes, h.truncation
    # basis state 0 opens the even block; state d**(n - 1 - m) excites mode m alone
    singles = np.searchsorted(_fock_basis(n, d).spaces[1], d ** np.arange(n - 1, -1, -1))
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
    coupling. Only the even block of H in total excitation number, which
    holds both states, is assembled, once; an offset only adds delta * D
    to that block, D = diag((n1 + n2) / 2). It is solved in tiers, each
    only where the one before is not certified, so once in the end:
    - the folds (`_fold`), for N = 4, 6 and 8 where states of N + 2 quanta
      exist: those states F are folded into the K of at most N quanta (44
      into 42 for four KPOs at d = 4 and N = 4) by one Schur complement at
      the pair's bare energy E, H_KK + H_KF (E - H_FF)^-1 H_FK, solved as
      the Ritz problem of H on the kept states lifted by their F
      amplitudes. A two-body term changes the total by 0 or 2, so the
      states above N quanta reach the two-quantum ones only through those
      of N, from at least about 2w away;
    - the whole even block.
    `_truncation_bound` bounds, by the quadratic residual bound (Mathias
    1998), how far the states a fold does not diagonalize move each model
    level at any offset of the scan, and gives the Galerkin term, the part
    of the model residual inside the lifted space; a fold is kept when
    their sum is at most its own round-off. It also bounds the share
    delta^2 k of the second-order term that the eigenvectors above N
    quanta, never formed, would add, and each point's remainder bound
    includes it.
    In the eigenbasis V of the solved block (in a fold, the lifted Ritz
    vectors), Dt = V^T D V, and each offset is
    solved in the model space P of the eigenstates with more than half
    their weight on two total quanta, the rest Q, by second-order Loewdin
    partitioning (`_lowdin_terms`) about the pair's energy E:
    H_P(delta) = Lambda_P + delta Dt_PP + delta^2 Dt_PQ (E - Lambda_Q)^-1 Dt_QP.
    Its remainder at an eigenvalue theta of the pair is at most
    |delta Dt_PQ|^2 (|theta - E| + |delta| |Dt_QQ|) / min|E - Lambda_Q|^2.
    The spectral norms the scan reads, |Dt_PQ|, the bound's residual and its
    Galerkin part, are each the square root of the largest eigenvalue of its
    Gram matrix on the side of P (`_two_norm`; at most 10 x 10, 15 x 15 with
    a coupler), not an SVD. The basis shape fixes which states each tier
    solves, their (n1 + n2) / 2, which hold two quanta and the rows of the
    pair (`_FockBasis.scan`), so none of that is recomputed per call.
    Near the crossing g^2 = c^2 (delta - delta_0)^2 + 4 h^2, so the minimum is
    refined by successive parabolic interpolation on g^2 (Brent's parabolic
    step) inside the bracket of the scan points around the lowest gap, until
    the gap error the next step would remove, about c^2 du^2 / (2 g) with c^2
    the parabola's curvature, is at most REMAINDER_TOL of the gap; so the
    accuracy does not depend on the scan's width. The best point is returned.

    Returns the scan trace, the refined minimum and |h_eff|, with the size
    of the diagonalized block (`dimension`), the number of states folded
    into it (`folded_dimension`), the size of P (`manifold_dimension`), the
    largest remainder bound over the scan and the refinement
    (`remainder_bound`, rad/s), the eigensolve's round-off
    dimension * eps * max|Lambda| (`roundoff`, rad/s), the bound on how far
    the states not diagonalized move a model level (`truncation_bound`,
    rad/s) and the Galerkin term (`galerkin_residual`, rad/s), both 0 for
    the whole even block, (kept, folded, truncation_bound) of each tier
    tried, inf where it was refused before its bound (`tiers`), and the
    smallest weight, over the same points, that the two chosen eigenstates
    hold on {|1100>, |0011>} (`pair_weight`, at most 2) and on either state
    alone (`state_weight`, at most 1). Raises ValueError when that weight
    falls below OVERLAP_THRESHOLD, where a third level takes part in the
    crossing; when the remainder bound exceeds REMAINDER_TOL of a point's
    gap; when P is not as large as the two-quantum manifold; when
    scan_halfwidth * max (n1 + n2)/2 is not below the distance from E to the
    nearest level outside P; and when the gaps barely vary over the scan,
    which is then too narrow to resolve it.
    """
    if spectrum.n_kpo != 4:
        raise ValueError("gap extraction defined for four KPOs")
    if not 0.0 < scan_halfwidth < np.inf:
        raise ValueError(f"scan half-width must be positive and finite, got {scan_halfwidth}")
    if n_scan < 3:
        raise ValueError(f"gap scan needs at least 3 points, got {n_scan}")

    ham = build_hamiltonian(spectrum, couplings, d, odd=False)
    basis = _fock_basis(ham.n_modes, d)
    # the folds, then the whole block, each where the tier before is not certified;
    # tiers holds (kept, folded, truncation_bound) of each tier tried, inf if refused
    tiers = []
    for block in basis.scan:
        folded = 0 if block.folded is None else len(block.folded)
        solved = _fold(ham.even, block, basis.pair) if folded else (*np.linalg.eigh(ham.even), None)
        if solved is not None:
            levels, vecs, fold = solved
            roundoff = len(levels) * np.finfo(float).eps * abs(levels).max()
            # P: the eigenstates mostly on two total quanta, as |1100> and |0011> are
            in_p = (vecs[block.two_quanta] ** 2).sum(axis=0) > 0.5
        if solved is None or np.count_nonzero(in_p) != np.count_nonzero(block.two_quanta):
            tiers.append((len(block.kept), folded, np.inf))
            continue
        model, rest = np.flatnonzero(in_p), np.flatnonzero(~in_p)
        # only the P rows of Dt are needed: an order-2 term never reads Dt_QQ
        v_p = vecs[:, model]
        rotated = v_p.T @ (block.half_pair_number[:, None] * vecs)
        d_pp, d_pq = rotated[:, model], rotated[:, rest]
        norm_pq = _two_norm(d_pq)
        truncation_bound = share = galerkin = 0.0
        if fold is not None:
            # (n1 + n2) / 2 is at most d - 1 on the block
            truncation_bound, share, galerkin = _truncation_bound(
                block, fold, levels, model, rest, v_p, scan_halfwidth, norm_pq, d - 1)
        tiers.append((len(block.kept), folded, truncation_bound))
        if truncation_bound + galerkin <= roundoff:
            break
    else:
        # the whole block, the last tier, is kept wherever it is separated
        raise ValueError(
            f"{np.count_nonzero(in_p)} eigenstates lie mostly in the "
            f"{np.count_nonzero(block.two_quanta)}-state two-quantum manifold; "
            "it is not separated from the rest of the spectrum"
        )
    amplitudes = vecs[np.ix_(block.pair, model)]
    # the resolvent is taken at the pair's own energy, not the manifold's
    # mean, so |theta - E| and with it the remainder stay small
    energy = float(np.sum(amplitudes**2 * levels[model]) / np.sum(amplitudes**2))
    to_rest = energy - levels[rest]
    separation = float(np.min(abs(to_rest)))
    largest_d = float(block.half_pair_number.max())
    # the expansion about E holds only while no offset's shift delta * D
    # reaches the nearest level outside P
    if not scan_halfwidth * largest_d < separation:
        raise ValueError(
            f"scan half-width {scan_halfwidth:.6g} rad/s times max (n1 + n2)/2 = {largest_d:g} "
            f"is {scan_halfwidth * largest_d:.6g} rad/s, not below the {separation:.6g} rad/s "
            "from the pair's energy to the nearest level outside the model space")
    (second,) = _lowdin_terms(d_pq, None, 1.0 / to_rest, 2)
    reach = norm_pq**2 / separation**2
    base = np.diag(levels[model] - energy)
    pair_weights, state_weights, bounds = [], [], []

    def gap(deltas: np.ndarray) -> np.ndarray:
        """Pair gaps at the given offsets; the energies are relative to E."""
        scale = deltas[:, None, None]
        theta, y = np.linalg.eigh(base + scale * d_pp + scale**2 * second)
        overlaps = (amplitudes @ y) ** 2
        chosen = overlaps.argmax(axis=2)
        # near the crossing the two bare states hybridize 50/50; take
        # the two eigenstates with the largest combined overlap
        unclear = (overlaps.max(axis=2).min(axis=1) < OVERLAP_THRESHOLD) | (
            chosen[:, 0] == chosen[:, 1])
        if unclear.any():
            chosen[unclear] = np.argsort(overlaps[unclear].sum(axis=1), axis=1)[:, -2:]
        points = np.arange(len(deltas))[:, None]
        # per bare state: a third level can take half of one while the sum looks whole;
        # held[i, k] is the weight of bare state k on the two chosen eigenstates of point i
        held = overlaps[points, :, chosen].sum(axis=1)
        if held.min() < OVERLAP_THRESHOLD:
            i, k = np.argwhere(held < OVERLAP_THRESHOLD)[0]
            raise ValueError(
                f"|1100>, |0011> pair not identified at offset {deltas[i]:.6g} rad/s: "
                f"{('|1100>', '|0011>')[k]} keeps weight {held[i, k]:.3f} in the chosen "
                "eigenstates, so the crossing is not two-level"
            )
        pair = theta[points, chosen]
        gaps = abs(pair[:, 0] - pair[:, 1])
        # |Dt_QQ| <= |Dt| = max(half_pair_number), Dt being D rotated
        bound = deltas**2 * (reach * (abs(pair).max(axis=1) + abs(deltas) * largest_d) + share)
        loose = bound > REMAINDER_TOL * gaps
        if loose.any():
            i = loose.argmax()  # the first point over its tolerance
            raise ValueError(
                f"Loewdin remainder bound {bound[i]:.3g} rad/s at offset {deltas[i]:.6g} rad/s "
                f"exceeds {REMAINDER_TOL:g} of the gap {gaps[i]:.6g} rad/s "
                f"(eigh round-off {roundoff:.3g} rad/s)"
            )
        pair_weights.append(held.sum(axis=1).min())
        state_weights.append(held.min())
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
        # the parabola's curvature is c^2 = -q / ((b - m)(m - a)(b - a)); the gap
        # at m exceeds the one at u by about c^2 (u - m)^2 / (2 g)
        left = -q * (u - m) ** 2 / ((b - m) * (m - a) * (b - a))
        if not (left > 2.0 * REMAINDER_TOL * g[1] ** 2 and a < u < b):
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
        "state_weight": float(min(state_weights)),
        "remainder_bound": float(max(bounds)),
        "roundoff": float(roundoff),
        "truncation_bound": float(truncation_bound),
        "manifold_dimension": len(model),
        "dimension": len(levels),
        "folded_dimension": folded,
        "galerkin_residual": float(galerkin),
        "tiers": tiers,
    }


def _fold(even: np.ndarray, block: _ScanBlock, pair: np.ndarray) -> tuple | None:
    """A fold tier's solve: the levels and orthonormal vectors (rows: kept
    states K, then folded ones F) of H compressed onto the kept states lifted
    by their folded amplitudes at the pair's bare energy E, and what
    `_truncation_bound` reads of it: M, H on the folded and dropped states
    (A), H_FK, H_KK, the lower edge of the spectrum outside and the coupling
    C. None where E does not lie below the Gershgorin discs of H_AA, or
    |M| >= 1, where the series below does not converge.

    M ~ (E - H_FF)^-1 H_FK is H_FK / (E - diag H_FF) refined by _SWEEPS
    Jacobi sweeps, which converge as E - H_FF is diagonally dominant there,
    its discs lying above E; with M exact, E + the Ritz matrix
    below is the Schur complement H_KK + H_KF M, but the solve is a Ritz
    solve for any M, and the bound reads its true residual. U = [I; M] spans
    the lifted states; with e = H_FK + (H_FF - E) M (0 for an exact M),
    U^T (H - E) U = H_KK - E + H_KF M + (H_KF M)^T + M^T (H_FF - E) M
    = H_KK - E + H_KF M + M^T e exactly. G, the binomial series of
    (U^T U)^-1/2 = (I + S)^-1/2 (S = M^T M) through S^k, k >= 3 the least
    with |M|^(2k + 2) <= eps, leaves |G U^T U G - I| below |S|^(k + 1) <= eps:
    at an eigenvalue s < 1 of S the series alternates with falling terms,
    so its remainder r is at most (35/128) s^(k + 1), and
    |g^2 (1 + s) - 1| <= |r| sqrt(1 + s) (2 + |r| sqrt(1 + s)) < s^(k + 1);
    its partial sums lie in [1 - s/2, 1], so |G| <= 1. So W = U G is
    orthonormal to round-off, and the eigenpairs (theta, Z) of
    G U^T (H - E) U G are the Ritz pairs of H on span(U): levels E + theta
    and vectors W Z.
    """
    kept, folded = block.kept, block.folded
    n_f = len(folded)
    energy = 0.5 * float(even[pair[0], pair[0]] + even[pair[1], pair[1]])
    above = np.concatenate([folded, block.dropped])
    h_aa = even.take(above, 0).take(above, 1)
    centre = h_aa.diagonal()
    edge = (centre - (abs(h_aa).sum(axis=1) - abs(centre))).min()  # H_AA's lowest Gershgorin edge
    if not energy < edge:
        return None
    h_fk = even.take(folded, 0).take(kept, 1)
    off = h_aa[:n_f, :n_f].copy()
    to_folded = energy - off.diagonal()[:, None]
    np.fill_diagonal(off, 0.0)
    m = h_fk / to_folded
    for _ in range(_SWEEPS):
        m = (h_fk + off @ m) / to_folded
    norm_m = _norm_bound(m)
    if not norm_m < 1.0:
        return None
    h_kk = even.take(kept, 0).take(kept, 1)
    x = h_fk.T @ m
    # (H - E) U = [X_K; e; H_DF M] with X_K = H_KK - E + H_KF M and
    # e = H_FK + (H_FF - E) M, where (H_FF - E) M = off M - (E - diag H_FF) M
    x_k = h_kk + x
    x_k.flat[::len(kept) + 1] -= energy
    h_m = off @ m - to_folded * m
    s = m.T @ m
    s2 = s @ s
    power, k, coefficient = s2 @ s, 3, -0.3125
    g = np.eye(len(kept)) - 0.5 * s + 0.375 * s2 + coefficient * power
    while norm_m ** (2 * k + 2) > np.finfo(float).eps:
        k += 1
        power, coefficient = power @ s, coefficient * (0.5 / k - 1.0)  # binom(-1/2, k)
        g += coefficient * power
    theta, z = np.linalg.eigh(g @ (x_k + x.T + m.T @ h_m) @ g)
    c = g @ z
    # the lowest edge of spec(W^T H W) and the coupling C of `_truncation_bound`
    norm_fk, norm_x = _norm_bound(h_fk), _norm_bound(x_k)
    coupling = norm_m * (norm_x + _norm_bound(h_aa[n_f:, :n_f])) + _norm_bound(h_fk + h_m)
    norm_kk = norm_x + abs(energy) + norm_fk * norm_m
    low = edge - norm_m * (2.0 * norm_fk + norm_m * (max(edge, 0.0) + norm_kk))
    return theta + energy, np.concatenate([c, m @ c]), (m, h_aa, h_fk, h_kk, low, coupling)


def _norm_bound(matrix: np.ndarray) -> float:
    """sqrt(|A|_1 |A|_inf), an upper bound on the spectral norm; 0 for an empty matrix."""
    size = abs(matrix)
    return math.sqrt(size.sum(axis=0).max(initial=0.0) * size.sum(axis=1).max(initial=0.0))


def _truncation_bound(block: _ScanBlock, fold: tuple, levels: np.ndarray, model: np.ndarray,
                      others: np.ndarray, v_p: np.ndarray, halfwidth: float, norm_pq: float,
                      largest: float) -> tuple:
    """Bound (rad/s) on how far the states of the even block outside a
    fold's solve move any of its model levels, at every scan offset
    |delta| <= delta_max; the coefficient k of the share delta^2 k that the
    scan adds to each point's remainder bound (both inf where a separation
    they need is not proven); and the Galerkin term gamma (rad/s). The solve's
    levels are `levels`, its model ones Theta = levels[model] with vectors
    V_P = `v_p` (rows as `block`'s), and `fold` what it reads of `_fold`.
    delta_max = `halfwidth`; with |Dt_QP| = `norm_pq` and max D <= `largest`,
    rotation = delta_max |Dt_QP| and shift = delta_max max D.

    Lemma (quadratic residual bound; Mathias, SIAM J. Matrix Anal. Appl.
    19, 541 (1998)): let A = [[A1, E^T], [E, A2]] be real symmetric and every
    eigenvalue of A1 lie at least eta > 0 from the spectrum of A2. Then each
    eigenvalue of A1 (+) A2 that belongs to A1 is within |E|^2 / eta of the
    eigenvalue of A of the same rank.

    At an offset, take the basis of the solve's eigenvectors V(delta) at
    delta, model P then rest Q, followed by an orthonormal basis W of the
    states outside the solve. The solve is the compression of H + delta D
    onto span(U), which V(0) diagonalizes, so A1 = Theta(delta),
    A2 = [[Lambda_Q(delta), S^T], [S, W^T (H + delta D) W]] and
    E = W^T (H + delta D) V_P(delta), with S = W^T (H + delta D) V_Q(delta).
    - W spans the vectors x = [-M^T b; b; c] (kept, folded, dropped rows)
      orthogonal to span(U), |b|, |c| <= 1 for a unit x; H couples no kept
      state to a dropped one. With z = [0; b; c],
      x^T H x >= g |z|^2 - 2 |M| |H_KF| - |M|^2 |H_KK|, g the lowest
      Gershgorin edge of H_AA, H on the folded and dropped states, and
      |z|^2 >= 1 - |M|^2; so spec(W^T H W) lies above
      low = g - |M| (2 |H_KF| + |M| (max(g, 0) + |H_KK|)), with
      |H_KK| <= |X_K| + |E| + |H_KF| |M|. For a unit w = U a in span(U),
      |a| <= 1, x^T U = 0 gives x^T H w = x^T (H - E) U a
      = -b^T M X_K a + b^T e a + c^T H_DF M a, X_K = H_KK - E + H_KF M;
      so |M| (|X_K| + |H_DF|) + |e|, plus `shift` for delta W^T D W_Q, is
      C >= |S|. With nothing dropped, H_DF is empty and its norm 0.
    - r = |R|, R = H V_P - V_P Theta, is computed on the whole even block,
      and t >= |W^T D V_P| is the Frobenius norm of D_F M C_P - M D_K C_P
      with V_P = [C_P; M C_P]: D V_P is no farther from its projection onto
      span(U) than from U D_K C_P.
    - eta: Theta lies within `shift` of [lo, hi], the range of the model
      levels at delta = 0, and Lambda_Q within `shift` of the other levels
      (Weyl). spec(A2) lies within |S| <= C of Lambda_Q and spec(W^T H W),
      which lies within `shift` of [low, inf) (Weyl). So
      eta >= eta_2 = dist([lo, hi], the other levels and [low, inf))
      - 2 shift - C.
    - |E|: V_P(delta) = V_P X + V_Q Z with |X| <= 1, and |Z| is the sine of
      the largest angle between the model spaces at delta and at 0. In the
      solve at delta, V_P has the residual delta V_Q Dt_QP and a Rayleigh
      quotient with spectrum within `shift` of [lo, hi], so
      |Z| <= rotation / eta_1 (Davis-Kahan sin-theta theorem), with
      eta_1 = dist([lo, hi], the other levels) - 2 shift. So
      |E| <= a + |delta| t with a = r + C rotation / eta_1.
    (a + |delta| t)^2 / eta_2 is (a^2 + 2 a delta_max t) / eta_2, the bound
    returned, plus delta^2 t^2 / eta_2, the share k = t^2 / eta_2, which the
    scan adds at each point, where the eigenvectors of the states N + 2
    quanta and above would enter Dt_PQ.
    - gamma: all this takes the Ritz matrix the solve diagonalized for the
      compression of H onto span(U). With V_P = U G Z_P, Kahan's theorem
      (Parlett, The Symmetric Eigenvalue Problem, Thm 11.5.1) puts |P| of
      its levels within |(U G)^T R| of Theta, 0 for an exact Ritz matrix;
      as |G| <= 1 (`_fold`), within |U^T R| = |r_K + M^T r_F| = gamma, r_K
      and r_F the kept and folded rows of R.
    |A| is bounded by sqrt(|A|_1 |A|_inf) (`_norm_bound`).
    """
    m, h_aa, h_fk, h_kk, low, coupling = fold
    theta, rotation, shift = levels[model], halfwidth * norm_pq, halfwidth * largest
    n_k, n_f = len(block.kept), len(block.folded)
    c_p, y_p = v_p[:n_k], v_p[n_k:]
    # R = H V_P - V_P Theta on the kept and folded states, then the dropped ones (H_DK = 0)
    r_k = h_kk @ c_p + h_fk.T @ y_p - c_p * theta
    r_f = h_fk @ c_p + h_aa[:n_f, :n_f] @ y_p - y_p * theta
    residual = _two_norm(np.concatenate([r_k, r_f, h_aa[n_f:, :n_f] @ y_p]))
    galerkin = _two_norm(r_k + m.T @ r_f)
    half = block.half_pair_number[:, None]
    leak = float(np.linalg.norm(half[n_k:] * y_p - m @ (half[:n_k] * c_p)))
    coupling += shift
    lo, hi, rest = theta.min(), theta.max(), levels[others]
    # dist([lo, hi], the other levels), then from [low, inf)
    to_rest = float(np.maximum(np.maximum(lo - rest, rest - hi), 0.0).min())
    eta_1 = to_rest - 2.0 * shift
    eta_2 = min(to_rest, max(low - hi, 0.0)) - 2.0 * shift - coupling
    if not min(eta_1, eta_2) > 0.0:
        return np.inf, np.inf, galerkin
    a = residual + coupling * rotation / eta_1
    return float(a * (a + 2.0 * halfwidth * leak) / eta_2), float(leak * leak / eta_2), galerkin


def _two_norm(matrix: np.ndarray) -> float:
    """The spectral norm, as the square root of the largest eigenvalue of the
    Gram matrix on the shorter side of `matrix`."""
    gram = matrix @ matrix.T if matrix.shape[0] <= matrix.shape[1] else matrix.T @ matrix
    return math.sqrt(max(np.linalg.eigvalsh(gram)[-1], 0.0))


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
    of 3 (occupations 0, 1, 2) therefore holds every term exactly. What is
    built is H on the hop space of that truncation: the two model states and
    the states one element of V from either (34 with a coupler), not the
    122-state even block. Raises ValueError when h or g do not fit the
    spectrum, when an element of that matrix would leave the floating-point
    range or it is not symmetric, and, before any term is formed, when an
    intermediate state mixes with the model space by MIXING_LIMIT or more.
    """
    if spectrum.n_kpo != 4:
        raise ValueError("Kerr-dressed four-body estimate defined for four KPOs")
    polynomial = _polynomial(spectrum, couplings)
    (v,) = _build(polynomial, _LOWDIN_TRUNCATION, (2,))
    basis = _fock_basis(polynomial.n_modes, _LOWDIN_TRUNCATION)
    a, b = np.searchsorted(basis.spaces[2], basis.spaces[0][basis.pair])
    energies = v.diagonal().copy()
    np.fill_diagonal(v, 0.0)
    strength = np.maximum(abs(v[a]), abs(v[b]))
    hop = np.flatnonzero(strength)
    den = energies[[a, b], None] - energies[hop]
    with np.errstate(divide="ignore", over="ignore"):  # an infinite ratio is refused below
        worst = float(np.max(strength[hop] / abs(den), initial=0.0))
    if worst >= MIXING_LIMIT:
        raise ValueError(
            f"intermediate-state mixing {worst:.3g} >= {MIXING_LIMIT}: not perturbative"
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
