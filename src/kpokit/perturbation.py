"""First-order Schrieffer-Wolff engine and closed-form coupling constants.

A coupler is one more mode, the last (n). Every first-order result reads
the signed coupling matrix c over all modes (c_jk = h_jk between KPOs,
c_jn = c_nj = s_j g_j) and the mixing matrix R_jk = c_jk / (w_j - w_k), so
R_jn = s_j gtilde_j = -R_nj. The engine substitutes, for every mode,

    a_j -> a_j + sum_k R_kj a_k    (so a_g -> a_g + sum_j s_j gtilde_j a_j)

into every self-Kerr term: the quartic of U = I + R^T
(operators.BosonicPolynomial.quartic), normal-ordered as written because
every transformed operator holds annihilators only. The closed forms
(four-body, residual, cross-Kerr, dressed spectrum) are independent
evaluations of specific monomial coefficients of that expansion, so the
two routes can be cross-checked to machine precision.

The four-body closed forms are two sums: h4_general over the KPO Kerr
terms and g4_closed_form over the coupler's. The named circuits evaluate
them on the detuning ladder of ladder_frequencies (g4_symmetric: KPOs
detuned from the coupler by +-2 eps, +-eps), where they reduce to

    h4_detuning       h_q^3 [(K2 - K1) + 3 (K3 - K4)] / (3 eps^3)
    h4_snail          h_QN^2 [-h_NN (K1 + 3 K4) + h_QQ (K2 + 3 K3)] / (3 eps^3)
    h4_tilde          -h'^3 K4 / eps^3
    h4_double_tilde   -h''^3 (K1 + 3 K4) / (3 eps^3)
    g4_symmetric      g^4 K_g / (2 eps^4)
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
import numpy as np

from . import _Record
from .operators import PRUNE_TOL, BosonicPolynomial, _magnitudes
from .pumpplan import RESONANCE_TOL, PumpAssignment, classify_relation

MIXING_WARN = 0.2   # perturbative-validity warning threshold on |htilde|, |gtilde|
MIXING_LIMIT = 0.5  # hard validity limit


class DegenerateModesError(ValueError):
    """Two coupled modes share a frequency, so the mixing ratio diverges."""


# --------------------------------------------------------------------------
# domain types
# --------------------------------------------------------------------------

class ModeSpectrum(_Record):
    """Per-KPO frequency/Kerr, plus an optional coupler mode."""

    __slots__ = ("omega", "kerr", "coupler_omega", "coupler_kerr")

    def __init__(self, omega: np.ndarray, kerr: np.ndarray, coupler_omega: float | None = None,
                 coupler_kerr: float | None = None):
        object.__setattr__(self, "omega", np.asarray(omega, dtype=float))  # rad/s
        object.__setattr__(self, "kerr", np.asarray(kerr, dtype=float))    # rad/s, signed
        object.__setattr__(self, "coupler_omega", coupler_omega)
        object.__setattr__(self, "coupler_kerr", coupler_kerr)
        if self.omega.shape != self.kerr.shape:
            raise ValueError("omega and kerr must have matching shapes")
        omega = self.omega.ravel().tolist()
        if not all(map(math.isfinite, omega + self.kerr.ravel().tolist())):
            raise ValueError("mode frequencies and Kerr coefficients must be finite")
        if self.coupler_kerr is not None and not math.isfinite(self.coupler_kerr):
            raise ValueError("coupler Kerr coefficient must be finite")
        if any(w <= 0.0 for w in omega):
            raise ValueError("mode frequencies must be positive")
        if self.coupler_omega is not None and not 0.0 < self.coupler_omega < math.inf:
            raise ValueError("coupler frequency must be positive and finite")
        if self.coupler_kerr is not None and self.coupler_omega is None:
            raise ValueError("coupler Kerr coefficient given without a coupler frequency")

    @property
    def n_kpo(self) -> int:
        return len(self.omega)

    @property
    def has_coupler(self) -> bool:
        return self.coupler_omega is not None


class CouplingGraph(_Record):
    """Two-body couplings: KPO-KPO matrix h and optional KPO-coupler vector g."""

    __slots__ = ("h", "g", "s")

    def __init__(self, h: np.ndarray, g: np.ndarray | None = None, s: np.ndarray | None = None):
        h = np.asarray(h, dtype=float)
        object.__setattr__(self, "h", h)  # (n, n) symmetric, rad/s, zero diagonal
        object.__setattr__(self, "g", g)  # (n,) rad/s
        object.__setattr__(self, "s", s)  # sign factors; default (+1, +1, -1, -1)
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise ValueError("h must be square")
        if not all(map(math.isfinite, h.ravel().tolist())):
            raise ValueError("h must be finite")
        if not np.all(abs(h - h.T) <= 1e-8 + 1e-5 * abs(h.T)):  # np.allclose(h, h.T)
            raise ValueError("h must be symmetric")
        if self.g is None and self.s is not None:
            raise ValueError("sign factors s given without coupler couplings g")
        if self.g is not None:
            g = np.asarray(self.g, dtype=float)
            object.__setattr__(self, "g", g)
            s = self.s
            if s is None:
                if h.shape[0] != 4:
                    raise ValueError("default sign factors need exactly 4 KPOs")
                s = np.array([1.0, 1.0, -1.0, -1.0])
            s = np.asarray(s, dtype=float)
            object.__setattr__(self, "s", s)
            if not all(map(math.isfinite, g.ravel().tolist() + s.ravel().tolist())):
                raise ValueError("g and s must be finite")
            if s.shape != g.shape:
                raise ValueError(f"s has shape {s.shape} but g has shape {g.shape}")
            if not np.all(abs(s) == 1.0):
                raise ValueError(f"sign factors s must be +1 or -1, got {s.tolist()}")


class MixingCoefficients(_Record):
    """Dimensionless first-order mixing ratios htilde_jk = h_jk/(w_j - w_k)."""

    __slots__ = ("h_tilde", "g_tilde", "s")

    def __init__(self, h_tilde: np.ndarray, g_tilde: np.ndarray | None = None,
                 s: np.ndarray | None = None):
        object.__setattr__(self, "h_tilde", h_tilde)  # (n, n) antisymmetric
        object.__setattr__(self, "g_tilde", g_tilde)  # (n,)
        object.__setattr__(self, "s", s)


class DressedSpectrum(_Record):
    __slots__ = ("omega_dressed", "kerr_dressed", "lamb_shift", "coupling_shift")

    def __init__(self, omega_dressed: np.ndarray, kerr_dressed: np.ndarray,
                 lamb_shift: np.ndarray, coupling_shift: np.ndarray):
        object.__setattr__(self, "omega_dressed", omega_dressed)    # rad/s
        object.__setattr__(self, "kerr_dressed", kerr_dressed)      # rad/s
        object.__setattr__(self, "lamb_shift", lamb_shift)          # rad/s (the -K_j term)
        object.__setattr__(self, "coupling_shift", coupling_shift)  # rad/s (Omega_j)


class ReportEntry(_Record):
    __slots__ = ("creation", "annihilation", "coefficient", "classification",
                 "rotation_residual")

    def __init__(self, creation: tuple[int, ...], annihilation: tuple[int, ...],
                 coefficient: complex, classification: str, rotation_residual: float):
        object.__setattr__(self, "creation", creation)
        object.__setattr__(self, "annihilation", annihilation)
        object.__setattr__(self, "coefficient", coefficient)  # rad/s
        object.__setattr__(self, "classification", classification)
        object.__setattr__(self, "rotation_residual", rotation_residual)  # rad/s


class FourBodyReport(_Record):
    __slots__ = ("entries",)

    def __init__(self, entries: list[ReportEntry] | None = None):
        object.__setattr__(self, "entries", [] if entries is None else entries)

    def by_class(self, name: str) -> list[ReportEntry]:
        return [e for e in self.entries if e.classification == name]

    def coefficient(self, creation, annihilation) -> complex:
        for e in self.entries:
            if e.creation == tuple(creation) and e.annihilation == tuple(annihilation):
                return e.coefficient
        return 0.0

    def to_rows(self) -> list[dict]:
        """Serialize entries (coefficients quoted as value/2pi in MHz)."""
        rows = []
        for e in self.entries:
            mono = "".join(f"+{m}^{c}" for m, c in enumerate(e.creation, 1) if c) + \
                   "".join(f"-{m}^{a}" for m, a in enumerate(e.annihilation, 1) if a)
            rows.append(
                {
                    "monomial": mono or "1",
                    "class": e.classification,
                    "coefficient_MHz": e.coefficient / (2 * np.pi * 1e6),
                    "rotation_residual_Hz": e.rotation_residual / (2 * np.pi),
                }
            )
        return rows


# --------------------------------------------------------------------------
# mixing coefficients
# --------------------------------------------------------------------------

def _finite_floats(values, what: str, shape: tuple[int, ...] | None = None) -> list:
    """`values` as (nested) Python floats; ValueError unless finite and of
    `shape` (by default, one-dimensional)."""
    values = np.asarray(values, dtype=float)
    if values.shape != (shape or (values.size,)):
        raise ValueError(f"{what} must have shape {shape or '(n,)'}, got {values.shape}")
    if not all(map(math.isfinite, values.ravel().tolist())):
        raise ValueError(f"{what} must be finite")
    return values.tolist()


def mixing_from_frequencies(h, omega, *, coupler: bool = False) -> np.ndarray:
    """htilde_jk = h_jk/(w_j - w_k) for every nonzero coupling.

    With `coupler`, the last mode is a coupler and errors name it so.
    Raises ValueError on a non-finite coupling or frequency and
    DegenerateModesError when a coupled pair is exactly degenerate;
    applies no perturbative-validity limit (sw_mixing adds those).
    """
    omega = _finite_floats(omega, "mode frequencies")
    n = len(omega)
    h = _finite_floats(h, "couplings", (n, n))
    h_tilde = [[0.0] * n for _ in range(n)]
    for j, (row, w_j) in enumerate(zip(h, omega)):
        for k, (h_jk, w_k) in enumerate(zip(row, omega)):
            if h_jk != 0.0 and j != k:
                delta = w_j - w_k
                if delta == 0.0:
                    pair = (f"KPO {j + 1} and the coupler" if coupler and k == n - 1
                            else f"KPOs {j + 1} and {k + 1}")
                    raise DegenerateModesError(f"{pair} are degenerate with a nonzero coupling")
                h_tilde[j][k] = h_jk / delta
    return np.array(h_tilde)


def _modes(spectrum: ModeSpectrum) -> tuple[np.ndarray, np.ndarray]:
    """w and K over all modes, the coupler (if any) last; a missing coupler Kerr is 0."""
    if not spectrum.has_coupler:
        return spectrum.omega, spectrum.kerr
    return (np.append(spectrum.omega, spectrum.coupler_omega),
            np.append(spectrum.kerr, spectrum.coupler_kerr or 0.0))


@functools.lru_cache(maxsize=16)
def _mode_pairs(n_kpo: int, n_modes: int) -> tuple[tuple[int, int], ...]:
    """The pairs j < k of all modes: the KPO pairs first, then those of the coupler."""
    return tuple(sorted(itertools.combinations(range(n_modes), 2), key=lambda jk: jk[1] == n_kpo))


def _coupling_matrix(spectrum: ModeSpectrum,
                     couplings: CouplingGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """w, K and the signed coupling matrix c over all modes, the coupler
    (if any) last as mode n: c_jk = h_jk between KPOs, c_jn = c_nj = s_j g_j,
    and a zero diagonal. ValueError unless h and g fit the spectrum's KPOs
    and g has a coupler mode to couple to."""
    n = spectrum.n_kpo
    if couplings.h.shape != (n, n):
        raise ValueError(f"h has shape {couplings.h.shape}, expected ({n}, {n}) for {n} KPOs")
    if couplings.g is not None:
        if couplings.g.shape != (n,):
            raise ValueError(f"g has shape {couplings.g.shape}, expected ({n},) for {n} KPOs")
        if not spectrum.has_coupler:
            raise ValueError("coupler couplings given but spectrum has no coupler mode")
    omega, kerr = _modes(spectrum)
    c = np.zeros((len(omega), len(omega)))
    c[:n, :n] = couplings.h
    c.flat[::len(omega) + 1] = 0.0
    if couplings.g is not None:
        c[:n, n] = c[n, :n] = couplings.s * couplings.g
    return omega, kerr, c


def _mixing_matrix(spectrum: ModeSpectrum,
                   mixing: MixingCoefficients) -> tuple[np.ndarray, np.ndarray]:
    """K and the mixing matrix R over the modes of `_coupling_matrix`:
    R_jk = htilde_jk between KPOs and R_jn = s_j gtilde_j = -R_nj.
    ValueError unless `mixing` fits `spectrum`, is finite and its s are signs."""
    n = spectrum.n_kpo
    if np.shape(mixing.h_tilde) != (n, n):
        raise ValueError(f"h_tilde has shape {np.shape(mixing.h_tilde)}, "
                         f"expected ({n}, {n}) for {n} KPOs")
    if mixing.g_tilde is not None:
        if not spectrum.has_coupler:
            raise ValueError("mixing has coupler ratios g_tilde but the spectrum "
                             "has no coupler mode")
        for name in ("g_tilde", "s"):
            value = getattr(mixing, name)
            if value is None or np.shape(value) != (n,):
                raise ValueError(f"{name} must have shape ({n},) for {n} KPOs, got "
                                 f"{None if value is None else np.shape(value)}")
    # refused here, where it can be named: a non-finite ratio makes
    # non-finite coefficients, and a prune by size drops a NaN as if it were 0
    for name in ("h_tilde", "g_tilde", "s"):
        value = getattr(mixing, name)
        if value is not None and not np.all(np.isfinite(value)):
            raise ValueError(f"{name} must be finite")
    if mixing.s is not None and not np.all(np.abs(mixing.s) == 1.0):
        raise ValueError(f"sign factors s must be +1 or -1, got {np.asarray(mixing.s).tolist()}")
    _, kerr = _modes(spectrum)
    r = np.zeros((len(kerr), len(kerr)))
    r[:n, :n] = mixing.h_tilde
    if mixing.g_tilde is not None:
        r[:n, n] = mixing.s * mixing.g_tilde
        r[n, :n] = -r[:n, n]
    return kerr, r


def sw_mixing(spectrum: ModeSpectrum, couplings: CouplingGraph) -> MixingCoefficients:
    """First-order mixing ratios R_jk = c_jk/(w_j - w_k) for every nonzero
    coupling of `_coupling_matrix`; gtilde_j = s_j R_jn = g_j/(w_j - w_g).

    Raises DegenerateModesError when a coupled pair is exactly degenerate.
    Warns when any ratio exceeds the perturbative-validity threshold.
    """
    omega, _, c = _coupling_matrix(spectrum, couplings)
    n = spectrum.n_kpo
    ratios = mixing_from_frequencies(c, omega, coupler=len(omega) > n)
    worst = np.max(np.abs(ratios), initial=0.0)
    if worst >= MIXING_LIMIT:
        raise ValueError(f"mixing ratio {worst:.3g} >= {MIXING_LIMIT}: not perturbative")
    if worst > MIXING_WARN:
        warnings.warn(f"mixing ratio {worst:.3g} exceeds {MIXING_WARN}; first-order results "
                      "degrade", stacklevel=2)
    g_tilde = None if couplings.g is None else couplings.s * ratios[:n, n]
    return MixingCoefficients(h_tilde=ratios[:n, :n], g_tilde=g_tilde, s=couplings.s)


# --------------------------------------------------------------------------
# transformed Kerr terms
# --------------------------------------------------------------------------

def transform_kerr(spectrum: ModeSpectrum, mixing: MixingCoefficients) -> BosonicPolynomial:
    """All self-Kerr terms with first-order transformed operators substituted.

    Row j of U = I + R^T (`_mixing_matrix`; the coupler, if any, is mode n)
    gives a'_j = sum_p U[j, p] a_p, and the result is
    sum_j (-K_j/2) a'_j^dag^2 a'_j^2: exact to all orders in the mixing
    ratios of the substituted quartic, Hermitian, and normal-ordered.
    ValueError when `mixing` does not fit `spectrum` or is not finite.
    """
    kerr, r = _mixing_matrix(spectrum, mixing)
    return BosonicPolynomial.quartic(np.eye(len(kerr)) + r.T, -kerr / 2.0)


def classify_monomial(creation, annihilation, coupler_mode: int | None = None) -> str:
    """Bucket a monomial by its net per-mode excitation pattern.

    A nonzero pattern is classified like the pump relation it needs
    (pumpplan.classify_relation); a number-conserving one is cross-Kerr
    when it has degree 2 in each of two modes.
    """
    net = [c - a for c, a in zip(creation, annihilation)]
    if coupler_mode is not None:
        del net[coupler_mode]
    if any(net):
        return classify_relation(tuple(net))
    degrees = sorted(c + a for c, a in zip(creation, annihilation) if c + a)
    return "cross-kerr" if degrees == [2, 2] else "other"


@functools.lru_cache(maxsize=16)
def _monomial_table(keys: tuple, n_modes: int, coupler_mode: int | None) -> tuple:
    """Per monomial of `keys`: its net exponents c - a over all modes,
    whether it changes the coupler, and its `classify_monomial` class; made
    once per key tuple and coupler mode, the arrays read-only."""
    net = np.array([[ci - ai for ci, ai in zip(c, a)] for c, a in keys],
                   dtype=float).reshape(len(keys), n_modes)
    moves_coupler = (net[:, coupler_mode] != 0 if coupler_mode is not None
                     else np.zeros(len(keys), dtype=bool))
    for array in (net, moves_coupler):
        array.flags.writeable = False
    return net, moves_coupler, tuple(classify_monomial(c, a, coupler_mode) for c, a in keys)


def rwa_filter(
    poly: BosonicPolynomial,
    pump: PumpAssignment,
    *,
    coupler_mode: int | None = None,
) -> FourBodyReport:
    """Keep monomials that are stationary in the frame rotating at omega_p/2.

    Each KPO mode rotates at half its pump frequency, and a monomial is
    kept when its rotation sum_j (c_j - a_j) omega_pj / 2 is below
    RESONANCE_TOL. The coupler (if any) is not pumped: monomials with
    unpaired coupler operators rotate at omega_g and are dropped outright.
    There must be one pump frequency per non-coupler mode; they are
    assigned to those modes in order, skipping the coupler. Coefficients of
    size PRUNE_TOL or less are skipped; a non-finite one raises ValueError.

    Every rotation is summed at once, one column of the net-exponent table
    (`_monomial_table`, made once per key tuple) per pumped mode in mode
    order, so each monomial's sum is the term-by-term one, bit for bit.
    """
    if isinstance(coupler_mode, bool) or not isinstance(coupler_mode,
                                                        (int, np.integer, type(None))):
        raise ValueError(f"coupler_mode must be an integer mode index, got {coupler_mode!r}")
    if coupler_mode is not None and coupler_mode not in range(poly.n_modes):
        raise ValueError(f"coupler_mode {coupler_mode} is not a mode of a "
                         f"{poly.n_modes}-mode polynomial")
    omega_p = np.asarray(pump.omega_p, dtype=float).tolist()
    kpo_modes = [mode for mode in range(poly.n_modes) if mode != coupler_mode]
    if len(omega_p) != len(kpo_modes):
        raise ValueError(f"{len(omega_p)} pump frequencies for {len(kpo_modes)} KPO modes")
    keys = tuple(poly.terms)
    values = list(poly.terms.values())
    net, moves_coupler, classes = _monomial_table(keys, poly.n_modes, coupler_mode)
    size = _magnitudes(values)
    non_finite = ~(size <= PRUNE_TOL) & ~(size < math.inf)
    if non_finite.any():
        first = int(non_finite.argmax())
        (c, a), v = keys[first], values[first]
        raise ValueError(f"coefficient {v} of monomial {c}|{a} is not finite")
    # the pumps are finite and positive, so a mode the monomial leaves
    # unchanged adds 0.0 exactly; an overflow gives inf or NaN, as on floats
    rotation = np.zeros(len(keys))
    with np.errstate(over="ignore", invalid="ignore"):
        for mode, w in zip(kpo_modes, omega_p):
            rotation += net[:, mode] * w / 2.0
    residual = np.abs(rotation)
    kept = (size > PRUNE_TOL) & ~moves_coupler & (residual < RESONANCE_TOL)
    entries = [ReportEntry(creation=keys[i][0], annihilation=keys[i][1], coefficient=values[i],
                           classification=classes[i], rotation_residual=float(residual[i]))
               for i in np.flatnonzero(kept).tolist()]
    entries.sort(key=lambda e: -abs(e.coefficient))
    return FourBodyReport(entries=entries)


# --------------------------------------------------------------------------
# closed forms
# --------------------------------------------------------------------------

def g4_closed_form(kerr_g: float, g_tilde) -> float:
    """Coupler-mediated four-body coupling 2*prod(gtilde_j)*K_g; ValueError unless finite."""
    g_tilde = _finite_floats(g_tilde, "the four mixing ratios", (4,))
    if not math.isfinite(kerr_g):
        raise ValueError(f"coupler Kerr coefficient must be finite, got {kerr_g}")
    g4 = 2.0 * math.prod(g_tilde) * kerr_g
    if not math.isfinite(g4):
        raise ValueError(f"g4 = {g4} is not finite: it leaves the floating-point range")
    return g4


def h4_general(kerr, h_tilde) -> float:
    """KPO-nonlinearity four-body coupling, the four-term mixing-ratio sum.

    h4 = sum_j 2 K_j * prod_{k != j} htilde_kj over the four KPOs.

    This is the leading order in K/Delta, with a relative error of
    O(K/Delta) (about 21% at K = 20 MHz, Delta = 100 MHz);
    oracle.four_body_kerr_dressed keeps the Kerr energies in the
    denominators and carries the next order.
    """
    kerr = _finite_floats(kerr, "the four Kerr coefficients", (4,))
    h_tilde = _finite_floats(h_tilde, "the 4x4 mixing ratios", (4, 4))
    total = 0.0
    for j, column in enumerate(zip(*h_tilde)):
        total += 2.0 * kerr[j] * math.prod(column[:j] + column[j + 1:])
    if not math.isfinite(total):
        raise ValueError(f"h4 = {total} is not finite: its terms leave the floating-point range")
    return total


def _unit_detuning(epsilon: float) -> float:
    if not 0 < epsilon < math.inf:
        raise ValueError(f"unit detuning must be positive and finite, got {epsilon}")
    return epsilon


def ladder_frequencies(epsilon: float, omega1: float = 0.0) -> list[float]:
    """The detuning ladder w1, w1 - 3 eps, w1 - eps, w1 - 2 eps, which meets
    w1 + w2 = w3 + w4."""
    epsilon = _unit_detuning(epsilon)
    return [omega1 + step * epsilon for step in (0.0, -3.0, -1.0, -2.0)]


def _ladder_mixing(epsilon: float, h: float, h14: float, h23: float) -> np.ndarray:
    """Mixing ratios on the detuning ladder: h14 and h23 on their pairs, h on the rest."""
    couplings = [[0.0, h, h, h14], [h, 0.0, h23, h], [h, h23, 0.0, h], [h14, h, h, 0.0]]
    return mixing_from_frequencies(couplings, ladder_frequencies(epsilon))


def g4_symmetric(g_g: float, epsilon: float, kerr_g: float) -> float:
    """g4_closed_form with coupling g_g to each KPO, the KPOs detuned from
    the coupler by (2, -2, 1, -1) eps: g_g^4 K_g / (2 eps^4)."""
    epsilon = _unit_detuning(epsilon)
    h = [[0.0] * 4 + [g_g] for _ in range(4)] + [[g_g] * 4 + [0.0]]
    omega = [2.0 * epsilon, -2.0 * epsilon, epsilon, -epsilon, 0.0]
    return g4_closed_form(kerr_g, mixing_from_frequencies(h, omega)[:4, 4])


def h4_detuning(h_q: float, epsilon: float, kerr) -> float:
    """h4_general on the detuning ladder with every coupling h_q:
    h_q^3 [(K2 - K1) + 3 (K3 - K4)] / (3 eps^3)."""
    return h4_general(kerr, _ladder_mixing(epsilon, h_q, h_q, h_q))


def h4_snail(h_qn: float, h_nn: float, h_qq: float, kerr, epsilon: float) -> float:
    """SNAIL/SQUID mixed circuit on the detuning ladder.

    h4_general with h14 = h_NN, h23 = h_QQ and h_QN on every other pair:
    h_QN^2 [-h_NN (K1 + 3 K4) + h_QQ (K2 + 3 K3)] / (3 eps^3);
    KPOs 1 and 4 are the SNAILs, 2 and 3 the SQUIDs.
    """
    return h4_general(kerr, _ladder_mixing(epsilon, h_qn, h_nn, h_qq))


def h4_tilde(h_prime: float, kerr4: float, epsilon: float) -> float:
    """Single-nonlinearity circuit on the detuning ladder: only K4 couples
    (KPO 4 mediates). h4_general with every coupling h':
    -h'^3 K4 / eps^3."""
    return h4_general((0.0, 0.0, 0.0, kerr4),
                      _ladder_mixing(epsilon, h_prime, h_prime, h_prime))


def h4_double_tilde(h_pp: float, kerr1: float, kerr4: float, epsilon: float) -> float:
    """Two-nonlinearity circuit on the detuning ladder: K1 and K4 both
    couple. h4_general with every coupling h'' (h23 does not enter):
    -h''^3 (K1 + 3 K4) / (3 eps^3)."""
    return h4_general((kerr1, 0.0, 0.0, kerr4), _ladder_mixing(epsilon, h_pp, h_pp, h_pp))


# --------------------------------------------------------------------------
# dressed spectrum and cross-Kerr
# --------------------------------------------------------------------------

def dressed_spectrum(spectrum: ModeSpectrum, couplings: CouplingGraph) -> DressedSpectrum:
    """Perturbatively dressed frequency and Kerr of each KPO.

    Over all modes, the coupler included (`_coupling_matrix`, `_mixing_matrix`),
    the coupling shift of the 0 -> 1 line is third order in c:
    diag(c R^T) + diag(R c R^T) - sum_k c_jk^2 / (w_j + w_k), the last term from
    the counter-rotating couplings; kerr_dressed = (1 - 2 sum_k R_jk^2) K_j.
    omega_dressed = omega - K + Omega: lamb_shift = -K reads omega as the
    plasma frequency, and omega + coupling_shift tracks
    oracle.dressed_frequencies_exact.
    """
    omega, _, c = _coupling_matrix(spectrum, couplings)
    _, r = _mixing_matrix(spectrum, sw_mixing(spectrum, couplings))
    n = spectrum.n_kpo
    shift = ((c * r).sum(axis=1) + ((r @ c) * r).sum(axis=1)
             - (c**2 / np.add.outer(omega, omega)).sum(axis=1))[:n]
    lamb = -spectrum.kerr.copy()
    return DressedSpectrum(omega_dressed=spectrum.omega + lamb + shift, lamb_shift=lamb,
                           kerr_dressed=(1.0 - 2.0 * (r**2).sum(axis=1)[:n]) * spectrum.kerr,
                           coupling_shift=shift)


def invert_dressed(omega_dressed: np.ndarray, kerr_dressed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Leading-order bare estimates from measured dressed values.

    omega = omega_dressed + kerr_dressed, kerr = kerr_dressed; higher-order
    corrections are neglected.
    """
    omega_dressed = np.asarray(omega_dressed, dtype=float)
    kerr_dressed = np.asarray(kerr_dressed, dtype=float)
    return omega_dressed + kerr_dressed, kerr_dressed.copy()


def cross_kerr(spectrum: ModeSpectrum, mixing: MixingCoefficients) -> list[dict]:
    """Cross-Kerr couplings chi = -2 R_jk^2 (K_j + K_k) for every pair with
    R_jk != 0 (`_mixing_matrix`): the KPO pairs first, then each KPO with
    the coupler, named "coupler"."""
    kerr, r = _mixing_matrix(spectrum, mixing)
    n = spectrum.n_kpo
    return [{"modes": (j, "coupler" if k == n else k),
             "chi": -2.0 * r[j, k] ** 2 * (kerr[j] + kerr[k])}
            for j, k in _mode_pairs(n, len(kerr)) if r[j, k] != 0.0]
