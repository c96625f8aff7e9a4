"""Pump-frequency planning for four-body mixing.

Classifies pump-frequency sets against the four-body mixing condition and
residual resonance collisions, and generates nine-frequency assignments
for parity-encoded lattices where every plaquette satisfies a four-body
condition by construction.
"""

from __future__ import annotations

import functools
import math
import numbers
import sys
from typing import TYPE_CHECKING

from . import _Record

if TYPE_CHECKING:
    import numpy as np

# rad/s, the one stationarity tolerance: a pump relation |sum n_j w_j|, a
# plaquette pairing residual or a monomial's rotation in the omega_p/2 frame
# counts as stationary when it is below this
RESONANCE_TOL = 2.0 * math.pi * 1e3

# periodic 3x3 pump-index pattern; row y, column x
LHZ_PATTERN = ((1, 3, 7), (9, 2, 8), (5, 4, 6))

# the three splits (a, b, c, d) of four pumps into pairs, w_a + w_b = w_c + w_d
PAIRINGS = ((0, 1, 2, 3), (0, 2, 1, 3), (0, 3, 1, 2))


class PumpAssignment(_Record):
    """Pump frequencies and phases, one per KPO."""

    __slots__ = ("omega_p", "theta_p")

    def __init__(self, omega_p: tuple[float, ...], theta_p: tuple[float, ...] = None):
        omega = tuple(float(w) for w in omega_p)
        object.__setattr__(self, "omega_p", omega)  # rad/s
        if not omega:
            raise ValueError("omega_p must hold at least one pump frequency")
        if not all(math.isfinite(w) and w > 0 for w in omega):
            raise ValueError("pump frequencies must be finite and positive")
        theta = theta_p  # radians
        if theta is None:
            theta = (0.0,) * len(omega)
        else:
            theta = tuple(float(t) for t in theta)
            if len(theta) != len(omega):
                raise ValueError("theta_p length must match omega_p")
            if not all(math.isfinite(t) for t in theta):
                raise ValueError("pump phases must be finite")
        object.__setattr__(self, "theta_p", theta)

    @property
    def theta_p_aggregate(self) -> float:
        """Plaquette pump phase theta_p1 + theta_p2 - theta_p3 - theta_p4."""
        t = self.theta_p
        if len(t) != 4:
            raise ValueError("aggregate phase defined for 4 KPOs")
        return t[0] + t[1] - t[2] - t[3]


class ResonanceCondition(_Record):
    """Primitive integer relation sum_j n_j omega_pj = 0."""

    __slots__ = ("coefficients", "residual", "classification")

    def __init__(self, coefficients: tuple[int, ...], residual: float, classification: str):
        object.__setattr__(self, "coefficients", coefficients)
        object.__setattr__(self, "residual", residual)  # rad/s, |sum n_j omega_pj|
        object.__setattr__(self, "classification", classification)

    @property
    def order(self) -> int:
        return sum(abs(n) for n in self.coefficients)


class LhzPlan(_Record):
    __slots__ = ("sites", "frequencies", "plaquettes", "spurious")

    def __init__(self, sites: dict, frequencies: dict, plaquettes: list,
                 spurious: list | None = None):
        object.__setattr__(self, "sites", sites)              # (x, y) -> pump index 1..9
        object.__setattr__(self, "frequencies", frequencies)  # pump index -> rad/s
        # dicts with corners, indices, condition, residual
        object.__setattr__(self, "plaquettes", plaquettes)
        object.__setattr__(self, "spurious", [] if spurious is None else spurious)

    def violations(self) -> list:
        return [p for p in self.plaquettes if p["residual"] >= RESONANCE_TOL]


# --------------------------------------------------------------------------
# classification helpers
# --------------------------------------------------------------------------

def classify_relation(coefficients: tuple[int, ...]) -> str:
    """Bucket an integer pump-frequency relation by its coefficient pattern."""
    nonzero = sorted(abs(n) for n in coefficients if n != 0)
    pos = sorted(n for n in coefficients if n > 0)
    neg = sorted(-n for n in coefficients if n < 0)
    if nonzero == [1, 1, 1, 1] and pos == [1, 1] and neg == [1, 1]:
        return "four-body"
    if nonzero == [1, 1, 2] and sum(coefficients) == 0:
        return "residual-1"
    if nonzero == [1, 2, 3] and sum(coefficients) == 0:
        return "residual-2"
    return "other"


def check_mixing(pump: PumpAssignment) -> list[str]:
    """Which pairings of four pumps satisfy w_a + w_b = w_c + w_d.

    Returns a subset of {"12|34", "13|24", "14|23"}. The first pairing
    makes the a1+ a2+ a3 a4 term stationary; the others make different
    four-body terms stationary instead.
    """
    w = pump.omega_p
    if len(w) != 4:
        raise ValueError("mixing check needs exactly four pump frequencies")
    return [
        f"{a + 1}{b + 1}|{c + 1}{d + 1}"
        for a, b, c, d in PAIRINGS
        if abs(w[a] + w[b] - w[c] - w[d]) < RESONANCE_TOL
    ]


# --------------------------------------------------------------------------
# integer-relation enumeration
# --------------------------------------------------------------------------

def _exact_rescale(omega: tuple[float, ...]) -> list | None:
    """Map frequencies on a common grid to exact integers via Fractions.

    Returns integers whose ratios reproduce omega to float precision, or
    None when no modest-denominator grid exists (generic inputs). A looser
    match would let the rounding break a true relation among the integers.
    """
    from fractions import Fraction

    scale = max(omega)
    fracs = []
    for w in omega:
        f = Fraction(w / scale).limit_denominator(10**6)
        if abs(float(f) - w / scale) > 4 * sys.float_info.epsilon:
            return None
        fracs.append(f)
    denom = math.lcm(*(f.denominator for f in fracs))
    return [int(f * denom) for f in fracs]


@functools.lru_cache(maxsize=8)
def _relation_candidates(n: int, max_order: int) -> np.ndarray:
    """Every primitive, sign-normalised integer vector of n entries with
    0 < sum |n_j| <= max_order, one per row, read-only.

    The L1 ball is built mode by mode: each partial vector carries the
    order it has left, and the next entry takes every value within it.
    It depends on (n, max_order) alone, so it is made once per shape and
    shared by every call: building it is most of a `detect_residual` call.
    """
    import numpy as np

    rows = np.zeros((1, 0), dtype=np.int8)
    left = np.array([max_order])
    for _ in range(n):
        choices = 2 * left + 1
        start = np.repeat(np.cumsum(choices) - choices, choices)
        left = np.repeat(left, choices)
        entry = np.arange(len(start)) - start - left
        rows = np.column_stack([np.repeat(rows, choices, axis=0), entry.astype(np.int8)])
        left = left - np.abs(entry)
    rows = rows[left < max_order]  # drop the zero vector
    first = rows[np.arange(len(rows)), np.argmax(rows != 0, axis=1)]
    rows = rows[(first > 0) & (np.gcd.reduce(np.abs(rows), axis=1) == 1)]
    rows.flags.writeable = False
    return rows


def detect_residual(pump: PumpAssignment, max_order: int = 8) -> list[ResonanceCondition]:
    """All primitive integer relations among the pump frequencies.

    Exhaustive over the L1 ball of coefficient vectors with
    0 < sum |n_j| <= max_order, deduplicated up to overall sign (the
    representative has its first nonzero coefficient positive). The ball
    holds sum_k 2^k C(n, k) C(max_order, k) vectors, k being the number of
    nonzero entries: 3,649 for four pumps at order 8, where the
    (2 max_order + 1)^n box holds 83,521. The ball is made once per
    (n, max_order) and kept read-only (`_relation_candidates`), since it
    does not depend on the frequencies. All candidates are checked at
    once, summing n_j w_j one pump at a time from the first, so each
    residual is the float sum taken in that order; a relation is kept when
    that residual is below RESONANCE_TOL, whatever the frequencies. When
    they sit on a common grid, each kept relation is also summed on the
    grid's Python integers (they can exceed 2**63), and one that holds
    exactly there gets residual 0.0 instead of its float rounding.
    """
    import numpy as np

    if isinstance(max_order, bool) or not isinstance(max_order, numbers.Integral):
        raise ValueError(f"max_order must be an integer, got {max_order!r}")
    if max_order > 8:
        raise ValueError("max_order capped at 8 (exhaustive enumeration bound)")
    if max_order < 1:
        raise ValueError(f"max_order must be at least 1, got {max_order}")
    omega = pump.omega_p
    coeffs = _relation_candidates(len(omega), max_order)
    residual = np.abs(sum(coeffs[:, j].astype(float) * w for j, w in enumerate(omega)))
    hits = residual < RESONANCE_TOL
    coeffs, residual = coeffs[hits], residual[hits]
    ints = _exact_rescale(omega)
    if ints is not None:
        total = sum(coeffs[:, j].astype(object) * k for j, k in enumerate(ints))
        residual[total == 0] = 0.0
    found = [
        ResonanceCondition(
            coefficients=c, residual=r, classification=classify_relation(c)
        )
        for c, r in zip(map(tuple, coeffs.tolist()), residual.tolist())
    ]
    found.sort(key=lambda r: (r.order, r.coefficients))
    return found


# --------------------------------------------------------------------------
# LHZ lattice plan
# --------------------------------------------------------------------------

# spacing multipliers solving the four-constraint system with the five
# free frequencies (1, 3, 5, 7, 9) at multiples (0, 1, 2, 4, 8); the
# dependent ones follow as 2 = 3+9-1, 8 = 7+9-1, 4 = 3+5-1, 6 = 7+5-1
LHZ_MULTIPLIERS = {1: 0, 3: 1, 5: 2, 7: 4, 9: 8, 2: 9, 8: 12, 4: 3, 6: 6}


def lhz_frequencies(base: float, spacing: float) -> dict[int, float]:
    """A concrete nine-frequency assignment satisfying the plaquette system.

    The four constraints
        w1 + w2 = w3 + w9,   w1 + w8 = w7 + w9,
        w1 + w4 = w3 + w5,   w1 + w6 = w7 + w5
    leave five free frequencies; the chosen spacing multipliers make all
    nine distinct; ValueError when rounding merges any (a spacing below the
    base's float resolution) or a sum overflows.
    """
    if not (math.isfinite(base) and math.isfinite(spacing)):
        raise ValueError("base and spacing must be finite")
    if spacing <= 0 or base <= 0:
        raise ValueError("base and spacing must be positive")
    table = {i: base + k * spacing for i, k in LHZ_MULTIPLIERS.items()}
    distinct = len({w for w in table.values() if w < math.inf})
    if distinct < len(table):
        raise ValueError(f"base {base:.6g} rad/s and spacing {spacing:.6g} rad/s give "
                         f"{distinct} distinct finite pump frequencies, not {len(table)}")
    return table


def lhz_plan(
    rows: int,
    base: float = 2.0 * math.pi * 9.0e9,
    spacing: float = 2.0 * math.pi * 20.0e6,
    frequencies: dict[int, float] | None = None,
) -> LhzPlan:
    """Tile a rows x rows plaquette lattice with the nine-frequency pattern.

    Sites live on an (rows+1) x (rows+1) grid; each unit square is a
    plaquette whose four pump frequencies satisfy one pairing condition
    derived from the four-constraint system. The validator recomputes
    every plaquette residual, so injected violations are reported rather
    than assumed away.
    """
    if isinstance(rows, bool) or not isinstance(rows, numbers.Integral):
        raise ValueError(f"rows must be an integer, got {rows!r}")
    if rows < 2:
        raise ValueError("need at least a 2x2 plaquette lattice")
    if frequencies is not None:
        freqs = frequencies
        # user-supplied table: residuals come from float sums
        resid, scale = dict(frequencies), 1.0
    else:
        freqs = lhz_frequencies(base, spacing)
        # generated table: the common base cancels in every pairing sum, so
        # residuals reduce to exact integer multiplier combinations times
        # the spacing and valid plaquettes come out exactly zero
        resid, scale = dict(LHZ_MULTIPLIERS), spacing
    if sorted(freqs) != list(range(1, 10)):
        raise ValueError("frequency table must assign pump indices 1..9")
    if not all(math.isfinite(w) for w in freqs.values()):
        raise ValueError("frequency table entries must be finite")

    sites = {
        (x, y): LHZ_PATTERN[y % 3][x % 3]
        for y in range(rows + 1)
        for x in range(rows + 1)
    }
    plaquettes = []
    for y in range(rows):
        for x in range(rows):
            corners = [(x, y), (x + 1, y), (x, y + 1), (x + 1, y + 1)]
            idx = [sites[c] for c in corners]
            w = [resid[i] for i in idx]
            condition, residual = _best_pairing(idx, w)
            residual *= scale
            plaquettes.append(
                {
                    "corners": corners,
                    "indices": tuple(idx),
                    "condition": condition,
                    "residual": residual,
                }
            )
    spurious = _spurious_report(sites, freqs, rows)
    return LhzPlan(sites=sites, frequencies=freqs, plaquettes=plaquettes, spurious=spurious)


def _best_pairing(idx: list[int], w: list) -> tuple[str, float]:
    """The pairing (a,b | c,d) of four corners with the smallest residual.

    The values may be frequencies in rad/s or exact integer grid offsets;
    integer input gives exact residuals.
    """
    best = None
    for pairing in PAIRINGS:
        a, b, c, d = pairing
        residual = abs(w[a] + w[b] - w[c] - w[d])
        if best is None or residual < best_residual:
            best, best_residual = pairing, residual
    a, b, c, d = best  # only the kept pairing's label is formatted
    return f"w{idx[a]}+w{idx[b]}=w{idx[c]}+w{idx[d]}", best_residual


def _spurious_report(sites: dict, freqs: dict, rows: int) -> list:
    """Extra mixing conditions met by non-plaquette KPO quadruples.

    Checks the diamond of lattice neighbors around each interior site for
    accidental third-order conditions, and reports the always-present
    fourth-order quadruples of same-frequency KPOs (the 3-periodic tiling
    repeats each pump index on a square sublattice, and four equal pump
    frequencies trivially satisfy the mixing condition).
    """
    out = []
    for (x, y), center in sites.items():
        neigh = [(x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)]
        if not all(c in sites for c in neigh):
            continue
        idx = [sites[c] for c in neigh]
        w = [freqs[i] for i in idx]
        label, residual = _best_pairing(idx, w)
        if residual < RESONANCE_TOL:
            out.append(
                {
                    "kind": "third-order diamond",
                    "center": (x, y),
                    "condition": label,
                    "negligible": False,
                }
            )
    if rows >= 3:
        for i in sorted(freqs):
            out.append(
                {
                    "kind": "fourth-order same-frequency quadruple",
                    "center": None,
                    "condition": f"2w{i}=2w{i} (KPOs with pump {i} on the period-3 sublattice)",
                    "negligible": True,
                }
            )
    return out
