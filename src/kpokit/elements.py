"""Resonance frequencies and Kerr nonlinearities of junction-based resonators.

Covers SQUID KPOs, KPOs with extra series junctions, single-junction
couplers, and SNAILs. All frequencies are angular (rad/s) internally;
conversion to/from GHz and MHz happens only at I/O boundaries.
"""

from __future__ import annotations

import functools
import math
from typing import TYPE_CHECKING

from . import _Record
from .constants import E_CHARGE, HBAR, PHI0_REDUCED

if TYPE_CHECKING:
    import numpy as np

_MAX_FLUX = 5000.0  # rad, largest |phi_x| the flux continuation follows: 10**5 steps of 0.05 rad


# --------------------------------------------------------------------------
# element variants
# --------------------------------------------------------------------------

class Squid(_Record):
    """Flux-tunable SQUID, modeled by its effective Josephson inductance."""

    __slots__ = ("l_j",)

    def __init__(self, l_j: float):
        object.__setattr__(self, "l_j", l_j)  # henries
        if not 0 < self.l_j < math.inf:
            raise ValueError(f"SQUID inductance must be positive and finite, got {self.l_j}")


class SingleJunction(_Record):
    __slots__ = ("i0",)

    def __init__(self, i0: float):
        object.__setattr__(self, "i0", i0)  # critical current, amperes
        if not 0 < self.i0 < math.inf:
            raise ValueError(f"critical current must be positive and finite, got {self.i0}")

    @property
    def l_j(self) -> float:
        return PHI0_REDUCED / self.i0


class SeriesStack(_Record):
    __slots__ = ("elements",)

    def __init__(self, elements: tuple):
        object.__setattr__(self, "elements", elements)
        if not self.elements:
            raise ValueError("series stack needs at least one element")
        if any(isinstance(e, Snail) for e in self.elements):
            raise ValueError("a series stack holds SQUIDs and junctions, not a SNAIL")


class Snail(_Record):
    """n junctions (critical current i0) in a loop with one gamma*i0 junction."""

    __slots__ = ("i0", "gamma", "n", "phi_x")

    def __init__(self, i0: float, gamma: float, n: int = 2, phi_x: float = 0.0):
        object.__setattr__(self, "i0", i0)        # amperes
        object.__setattr__(self, "gamma", gamma)  # critical-current ratio, 0 < gamma < 1
        object.__setattr__(self, "n", n)          # junction count on the large branch
        object.__setattr__(self, "phi_x", phi_x)  # external flux phase, radians
        if not 0 < self.i0 < math.inf:
            raise ValueError(f"critical current must be positive and finite, got {self.i0}")
        if not 0 < self.gamma < 1:
            raise ValueError("gamma must satisfy 0 < gamma < 1")
        if not 1 <= self.n < math.inf or int(self.n) != self.n:
            raise ValueError(f"n must be a positive integer, got {self.n}")
        if not -math.inf < self.phi_x < math.inf:
            raise ValueError(f"external flux phase must be finite, got {self.phi_x}")


JunctionElement = Squid | SingleJunction | SeriesStack | Snail


def junction_inductances(element: JunctionElement) -> list[float]:
    """Flatten an element into its list of junction inductances [H]."""
    if isinstance(element, Squid):
        return [element.l_j]
    if isinstance(element, SingleJunction):
        return [element.l_j]
    if isinstance(element, SeriesStack):
        out: list[float] = []
        for sub in element.elements:
            out.extend(junction_inductances(sub))
        return out
    raise TypeError(f"element {element!r} has no simple inductance list")


# --------------------------------------------------------------------------
# results
# --------------------------------------------------------------------------

class ModeParams(_Record):
    __slots__ = ("omega", "kerr")

    def __init__(self, omega: float, kerr: float):
        object.__setattr__(self, "omega", omega)  # rad/s
        object.__setattr__(self, "kerr", kerr)    # rad/s, signed
        if not 0 < self.omega < math.inf:
            raise ValueError(f"resonance frequency must be positive and finite, got {self.omega}")
        if not -math.inf < self.kerr < math.inf:
            raise ValueError(f"Kerr coefficient must be finite, got {self.kerr}")


class SnailExpansion(_Record):
    __slots__ = ("phi_bar", "c2", "c3", "c4", "participation")

    def __init__(self, phi_bar: float, c2: float, c3: float, c4: float, participation: float):
        object.__setattr__(self, "phi_bar", phi_bar)  # equilibrium phase, radians
        object.__setattr__(self, "c2", c2)
        object.__setattr__(self, "c3", c3)
        object.__setattr__(self, "c4", c4)
        object.__setattr__(self, "participation", participation)  # inductive participation p


class LinearFit(_Record):
    __slots__ = ("slope", "intercept", "residual_norm")

    def __init__(self, slope: float, intercept: float, residual_norm: float):
        object.__setattr__(self, "slope", slope)  # d kerr / d omega, dimensionless
        object.__setattr__(self, "intercept", intercept)  # rad/s
        object.__setattr__(self, "residual_norm", residual_norm)  # rad/s

    def kerr_at(self, omega: float) -> float:
        return self.slope * omega + self.intercept


# --------------------------------------------------------------------------
# SQUID / junction resonators
# --------------------------------------------------------------------------

def _check_resonator(c: float, l_geom: float) -> None:
    """Refuse a capacitance that is not positive and finite, and a geometric
    inductance that is negative or not finite (as `Branch.l_series` does)."""
    if not 0 < c < math.inf:
        raise ValueError(f"capacitance must be positive and finite, got {c}")
    if not 0 <= l_geom < math.inf:
        raise ValueError(f"geometric inductance must be non-negative and finite, got {l_geom}")


def _resonance(c: float, l_total: float) -> float:
    """1/sqrt(C L); ValueError when the product C L underflows to 0."""
    product = c * l_total
    if product == 0.0:
        raise ValueError(f"resonance unreachable: C = {c:.6g} F times L = {l_total:.6g} H "
                         "underflows the floating-point range")
    return 1.0 / math.sqrt(product)


def kpo_mode_params(c_eff: float, l_geom: float, element: JunctionElement) -> ModeParams:
    """Frequency and Kerr of a junction resonator.

    omega = 1/sqrt(C (L + sum L_J)); hbar*K = (sum L_J^3)/(L_total^3) * e^2/(2C),
    i.e. each junction's inductance enters cubed in the numerator.
    SNAILs are handled by `snail_mode_params` instead. ValueError where the
    cube of the total inductance leaves the floating-point range.
    """
    _check_resonator(c_eff, l_geom)
    if isinstance(element, Snail):
        raise TypeError("use snail_mode_params for SNAIL elements")
    l_js = junction_inductances(element)
    l_total = l_geom + sum(l_js)
    omega = _resonance(c_eff, l_total)
    try:
        kerr = sum(lj**3 for lj in l_js) / l_total**3 * E_CHARGE**2 / (2.0 * c_eff) / HBAR
    except OverflowError:  # L_total >= every L_J, so its cube overflows first
        raise ValueError(f"Kerr unreachable: junction inductance {max(l_js):.6g} H (total "
                         f"{l_total:.6g} H) cubed overflows the floating-point range") from None
    return ModeParams(omega=omega, kerr=kerr)


def squid_inductance_for_frequency(
    omega_target: float, c_eff: float, l_geom: float, l_jsr: float = 0.0
) -> float:
    """SQUID inductance that puts the resonator at `omega_target`.

    Inverts omega = 1/sqrt(C (L + L_Jsr + L_Jsq)); raises if the target lies
    above the cutoff set by the fixed inductances.
    """
    _check_resonator(c_eff, l_geom)
    if not 0 < omega_target < math.inf:
        raise ValueError(f"target frequency must be positive and finite, got {omega_target}")
    if not 0 <= l_jsr < math.inf:
        raise ValueError(f"series junction inductance must be non-negative and finite, got {l_jsr}")
    try:
        l_total = 1.0 / (omega_target**2 * c_eff)
    except OverflowError:  # the square of a finite target above about 1.3e154 rad/s
        l_total = 0.0
    if l_total == 0.0:
        raise ValueError(
            f"target frequency unreachable: {omega_target:.6g} rad/s on {c_eff:.6g} F "
            "needs a total inductance below the floating-point range"
        )
    l_jsq = l_total - l_geom - l_jsr
    if l_jsq <= 0:
        cutoff = 1.0 / math.sqrt(c_eff * (l_geom + l_jsr))
        raise ValueError(
            f"target frequency unreachable: needs L_Jsq <= 0 "
            f"(cutoff omega/2pi = {cutoff / (2 * math.pi) / 1e9:.3f} GHz)"
        )
    return l_jsq


# --------------------------------------------------------------------------
# SNAIL
# --------------------------------------------------------------------------

def snail_current(phi: np.ndarray | float, element: Snail) -> np.ndarray | float:
    """Circulating current I(phi, phi_X)/I0 at phase `phi` (equilibrium when 0).

    This is dU/dphi of the two-branch potential. The condition is
    gamma*sin(phi) - sin((phi_X - phi)/n) = 0.
    """
    import numpy as np

    return element.gamma * np.sin(phi) - np.sin((element.phi_x - phi) / element.n)


def _current(gamma: float, n: int, phi_x: float, phi: float) -> float:
    """`snail_current` of SNAIL (gamma, n, phi_x) at one float phase, on `math`'s sin."""
    return gamma * math.sin(phi) - math.sin((phi_x - phi) / n)


def snail_current_slope(phi: float, element: Snail) -> float:
    """d snail_current / dphi at `phi`, the potential's curvature c2 there."""
    return element.gamma * math.cos(phi) + math.cos((element.phi_x - phi) / element.n) / element.n


def snail_equilibrium_phase(element: Snail) -> float:
    """Equilibrium phase, on the branch continuously connected to 0 at phi_X = 0.

    A single-well SNAIL (n * gamma < 1) has exactly one root of the current
    in phi_X -+ n asin(gamma), and it is the branch (`_equilibrium_phase`);
    that root is refined there directly (`_refine_root`). Any other SNAIL is
    followed along the flux from 0 (`_continued_phase`), which refuses a
    flux beyond +-_MAX_FLUX (10**5 steps) with ValueError before it steps.
    A root not resolved to a residual of 1e-10 raises RuntimeError.

    The search runs once per `Snail` (`_equilibrium_phase`, a bounded
    cache): a circuit asks for a SNAIL's equilibrium and then for its mode
    parameters, which need the same equilibrium again.
    """
    return _equilibrium_phase(element)


@functools.lru_cache(maxsize=64)
def _equilibrium_phase(element: Snail) -> float:
    """snail_equilibrium_phase's search, cached on the frozen `Snail`. The
    public function stays a plain function, so that a tracer that wraps
    plain functions still sees it.

    Why the bracket of a single-well SNAIL holds the branch and nothing
    else: let u = (phi_X - phi)/n on the branch. It is continuous and starts
    at u = 0, and at a root sin u = gamma sin phi, so |sin u| <= gamma < 1;
    the branch therefore never leaves |u| <= asin(gamma). Across that
    bracket the current changes sign: I(lo) = gamma (sin lo - 1) <= 0 <=
    gamma (sin hi + 1) = I(hi). At a root in it, cos u =
    sqrt(1 - gamma^2 sin^2 phi), and the slope gamma cos phi + cos(u)/n is
    smallest at cos phi = -1, where it is 1/n - gamma; so when
    n * gamma < 1 (always for n = 1) every root in the bracket rises, the
    bracket holds exactly one root, and it is the branch. When the rounded
    ends do not straddle a sign change, the flux is followed instead.
    """
    target = element.phi_x
    if target == 0.0:
        return 0.0
    gamma, n = element.gamma, element.n
    phi_bar = None
    if n * gamma < 1.0:
        reach = n * math.asin(gamma)
        try:
            phi_bar = _refine_root(gamma, n, target, target - reach, target + reach)
        except ValueError:
            pass
    if phi_bar is None:
        phi_bar = _continued_phase(element)
    residual = abs(_current(gamma, n, target, phi_bar))
    if residual >= 1e-10:
        raise RuntimeError(f"equilibrium residual {residual:.3e} exceeds 1e-10")
    return float(phi_bar)


def _continued_phase(element: Snail) -> float:
    """The branch followed along the flux from phi_X = 0 to a nonzero phi_X.

    The flux is swept in steps of about 0.05 rad (at least 8), up to
    +-_MAX_FLUX. Each step takes the root of the current I nearest the
    previous root p, on plain floats. With s = dI/dphi at p and the new
    flux, and M = gamma + 1/n^2 >= |d^2I/dphi^2|, the slope exceeds
    s - M|phi - p| > 0 wherever |phi - p| < s/M: there I rises and holds at
    most one root. The bracket [q - rho, q + rho], centred on the prediction
    q along the tangent at p and the previous flux, with rho = s/M - |q - p|,
    lies in that interval. So when rho > 0 and I changes sign across it, its
    one root is the only root within s/M of p, and no root is nearer p; it
    is refined there (`_refine_root`). Otherwise the nearest root is
    bracketed on a 1e-3 rad grid (`_nearest_root`), on a `Snail` built for
    that flux step alone.
    """
    import numpy as np

    target = element.phi_x
    if abs(target) > _MAX_FLUX:
        raise ValueError(
            f"external flux phase {target:.6g} rad is beyond +-{_MAX_FLUX:g} rad (about "
            f"{_MAX_FLUX / (2 * math.pi):.0f} flux quanta), the 10**5 steps of 0.05 rad "
            "that the flux continuation takes at most"
        )
    n_steps = max(8, int(abs(target) / 0.05))
    fluxes = np.linspace(0.0, target, n_steps + 1).tolist()
    gamma, n = element.gamma, element.n
    curvature = gamma + 1.0 / n**2
    phi_bar = 0.0
    for previous_flux, flux in zip(fluxes, fluxes[1:]):
        # pull = -dI/dphi_X; slope and new_slope = dI/dphi at the previous
        # root, at the previous and at the new flux; small = the small
        # junction's part of both
        small = gamma * math.cos(phi_bar)
        pull = math.cos((previous_flux - phi_bar) / n) / n
        slope = small + pull
        root = None
        if slope > 0.0:
            predicted = phi_bar + pull / slope * (flux - previous_flux)
            new_slope = small + math.cos((flux - phi_bar) / n) / n
            reach = new_slope / curvature - abs(predicted - phi_bar)
            if reach > 0.0:
                try:
                    root = _refine_root(gamma, n, flux, predicted - reach, predicted + reach)
                except ValueError:
                    pass
        if root is None:
            root = _nearest_root(Snail(element.i0, gamma, n, flux), phi_bar, 1e-3)
        phi_bar = root
    return phi_bar


def _nearest_root(element: Snail, guess: float, grid_step: float) -> float:
    """Refined root nearest `guess` among the sign changes on a +-1.5 rad grid.

    The grid is centred on the guess and holds the same number of points
    for any guess, so its ends (and the error message that prints them)
    do not depend on the guess's last bits. It is searched whole: the
    continuation's brackets resolve most flux steps, so this search is rare.
    """
    import numpy as np

    half = round(1.5 / grid_step)
    grid = guess + grid_step * np.arange(-half, half + 1)
    vals = snail_current(grid, element)
    sign_flips = np.nonzero(np.signbit(vals[:-1]) != np.signbit(vals[1:]))[0]
    if len(sign_flips) == 0:
        raise RuntimeError(
            f"no root bracket found in [{grid[0]:.3f}, {grid[-1]:.3f}] rad "
            f"around previous solution {guess:.3f}"
        )
    roots = [_refine_root(element.gamma, element.n, element.phi_x, float(grid[i]),
                          float(grid[i + 1])) for i in sign_flips]
    return min(roots, key=lambda r: abs(r - guess))


def _refine_root(gamma: float, n: int, phi_x: float, lo: float, hi: float) -> float:
    """Root of the current of SNAIL (gamma, n, phi_x) in [lo, hi].

    Newton steps on plain floats (`math`'s sin and cos) from the midpoint.
    Each evaluation moves one end of the bracket onto the current point,
    and a step that would leave the bracket becomes a bisection. It stops
    once a step is at most max(1e-13 rad, one ulp of x): beyond 512 rad an
    ulp exceeds 1e-13 rad, so no nonzero step there is that small. It
    raises ValueError when the current does not change sign across [lo, hi].
    """
    f_lo = _current(gamma, n, phi_x, lo)
    if f_lo == 0.0:
        return lo
    f_hi = _current(gamma, n, phi_x, hi)
    if f_hi == 0.0:
        return hi
    if (f_lo < 0.0) == (f_hi < 0.0):
        raise ValueError("the current does not change sign across the bracket")
    x = 0.5 * (lo + hi)
    for _ in range(100):
        f = _current(gamma, n, phi_x, x)
        if f == 0.0:
            return x
        if (f < 0.0) == (f_lo < 0.0):
            lo = x
        else:
            hi = x
        x_next = 0.5 * (lo + hi)
        slope = gamma * math.cos(x) + math.cos((phi_x - x) / n) / n
        if slope != 0.0 and lo <= x - f / slope <= hi:
            x_next = x - f / slope
        if abs(x_next - x) <= max(1e-13, math.ulp(x)):
            return x_next
        x = x_next
    return x


def snail_expansion(element: Snail, phi_bar: float, l_geom: float = 0.0) -> SnailExpansion:
    """Taylor coefficients c2..c4 of the SNAIL potential at the equilibrium.

    c_k = (1/phi0*I0) d^k U / dphi^k |_{phi_bar}; participation
    p = phi0/(phi0 + c2*L*I0).
    """
    gamma, n, phi_x = element.gamma, element.n, element.phi_x
    residual = abs(_current(gamma, n, phi_x, phi_bar))
    if residual >= 1e-10:
        raise ValueError(f"phi_bar is not an equilibrium (residual {residual:.3e})")
    arg = (phi_x - phi_bar) / n
    c2 = snail_current_slope(phi_bar, element)
    c3 = -gamma * math.sin(phi_bar) + math.sin(arg) / n**2
    c4 = -gamma * math.cos(phi_bar) - math.cos(arg) / n**3
    if c2 <= 0:
        raise ValueError(f"c2 = {c2:.4f} <= 0: not a stable potential minimum")
    p = PHI0_REDUCED / (PHI0_REDUCED + c2 * l_geom * element.i0)
    return SnailExpansion(phi_bar=phi_bar, c2=c2, c3=c3, c4=c4, participation=p)


def snail_mode_params(c: float, l_geom: float, element: Snail) -> ModeParams:
    """Frequency and (signed) Kerr of a SNAIL resonator at its operating flux."""
    _check_resonator(c, l_geom)
    phi_bar = snail_equilibrium_phase(element)
    exp = snail_expansion(element, phi_bar, l_geom)
    p = exp.participation
    c32 = exp.c3**2 / exp.c2
    bracket = exp.c4 - 3.0 * c32 * (1.0 - p) - (5.0 / 3.0) * c32 * p
    kerr = -(p**3 / exp.c2) * bracket * E_CHARGE**2 / (2.0 * c) / HBAR
    omega = _resonance(c, l_geom + PHI0_REDUCED / (exp.c2 * element.i0))
    return ModeParams(omega=omega, kerr=kerr)


def snail_flux_sweep(
    c: float, l_geom: float, element: Snail, flux_values: np.ndarray
) -> list[ModeParams]:
    """Mode parameters over a grid of external flux phases (radians)."""
    return [
        snail_mode_params(c, l_geom, Snail(element.i0, element.gamma, element.n, flux))
        for flux in flux_values
    ]


def snail_kerr_frequency_fit(sweep: list[ModeParams]) -> LinearFit:
    """Least-squares line K(omega) through a flux sweep."""
    import numpy as np

    if len(sweep) < 3:
        raise ValueError("need at least 3 sweep points")
    omegas = np.array([m.omega for m in sweep])
    kerrs = np.array([m.kerr for m in sweep])
    if np.ptp(omegas) == 0.0:
        raise ValueError("degenerate sweep: all frequencies equal")
    slope, intercept = np.polyfit(omegas, kerrs, 1)
    residual = np.linalg.norm(kerrs - (slope * omegas + intercept))
    return LinearFit(slope=float(slope), intercept=float(intercept), residual_norm=float(residual))
