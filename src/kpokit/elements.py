"""Resonance frequencies and Kerr nonlinearities of junction-based resonators.

Covers SQUID KPOs, KPOs with extra series junctions, single-junction
couplers, and SNAILs. All frequencies are angular (rad/s) internally;
conversion to/from GHz and MHz happens only at I/O boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import E_CHARGE, HBAR, PHI0_REDUCED

_MAX_FLUX = 5000.0  # rad, |phi_x| of snail_equilibrium_phase: 10**5 steps of 0.05 rad


# --------------------------------------------------------------------------
# element variants
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Squid:
    """Flux-tunable SQUID, modeled by its effective Josephson inductance."""

    l_j: float  # henries

    def __post_init__(self):
        if not 0 < self.l_j < math.inf:
            raise ValueError(f"SQUID inductance must be positive and finite, got {self.l_j}")


@dataclass(frozen=True)
class SingleJunction:
    i0: float  # critical current, amperes

    def __post_init__(self):
        if not 0 < self.i0 < math.inf:
            raise ValueError(f"critical current must be positive and finite, got {self.i0}")

    @property
    def l_j(self) -> float:
        return PHI0_REDUCED / self.i0


@dataclass(frozen=True)
class SeriesStack:
    elements: tuple

    def __post_init__(self):
        if not self.elements:
            raise ValueError("series stack needs at least one element")
        if any(isinstance(e, Snail) for e in self.elements):
            raise ValueError("a series stack holds SQUIDs and junctions, not a SNAIL")


@dataclass(frozen=True)
class Snail:
    """n junctions (critical current i0) in a loop with one gamma*i0 junction."""

    i0: float           # amperes
    gamma: float        # critical-current ratio, 0 < gamma < 1
    n: int = 2          # junction count on the large branch
    phi_x: float = 0.0  # external flux phase, radians

    def __post_init__(self):
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

@dataclass(frozen=True)
class ModeParams:
    omega: float  # rad/s
    kerr: float   # rad/s, signed

    def __post_init__(self):
        if not 0 < self.omega < math.inf:
            raise ValueError(f"resonance frequency must be positive and finite, got {self.omega}")
        if not -math.inf < self.kerr < math.inf:
            raise ValueError(f"Kerr coefficient must be finite, got {self.kerr}")


@dataclass(frozen=True)
class SnailExpansion:
    phi_bar: float  # equilibrium phase, radians
    c2: float
    c3: float
    c4: float
    participation: float  # inductive participation p


@dataclass(frozen=True)
class LinearFit:
    slope: float       # d kerr / d omega, dimensionless
    intercept: float   # rad/s
    residual_norm: float  # rad/s

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


def kpo_mode_params(c_eff: float, l_geom: float, element: JunctionElement) -> ModeParams:
    """Frequency and Kerr of a junction resonator.

    omega = 1/sqrt(C (L + sum L_J)); hbar*K = (sum L_J^3)/(L_total^3) * e^2/(2C),
    i.e. each junction's inductance enters cubed in the numerator.
    SNAILs are handled by `snail_mode_params` instead.
    """
    _check_resonator(c_eff, l_geom)
    if isinstance(element, Snail):
        raise TypeError("use snail_mode_params for SNAIL elements")
    l_js = junction_inductances(element)
    l_total = l_geom + sum(l_js)
    if l_total <= 0:
        raise ValueError("total inductance must be positive")
    omega = 1.0 / math.sqrt(c_eff * l_total)
    kerr = sum(lj**3 for lj in l_js) / l_total**3 * E_CHARGE**2 / (2.0 * c_eff) / HBAR
    return ModeParams(omega=omega, kerr=kerr)


def squid_inductance_for_frequency(
    omega_target: float, c_eff: float, l_geom: float, l_jsr: float = 0.0
) -> float:
    """SQUID inductance that puts the resonator at `omega_target`.

    Inverts omega = 1/sqrt(C (L + L_Jsr + L_Jsq)); raises if the target lies
    above the cutoff set by the fixed inductances.
    """
    if omega_target <= 0 or c_eff <= 0:
        raise ValueError("frequency and capacitance must be positive")
    l_jsq = 1.0 / (omega_target**2 * c_eff) - l_geom - l_jsr
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
    return element.gamma * np.sin(phi) - np.sin((element.phi_x - phi) / element.n)


def snail_current_slope(phi: float, element: Snail) -> float:
    """d snail_current / dphi at `phi`, the potential's curvature c2 there."""
    return element.gamma * math.cos(phi) + math.cos((element.phi_x - phi) / element.n) / element.n


def snail_equilibrium_phase(element: Snail) -> float:
    """Equilibrium phase, on the branch continuously connected to 0 at phi_X = 0.

    The flux is swept from 0 to phi_X in steps of about 0.05 rad (at least
    8). Each step is predicted along the tangent
    dphi/dphi_X = -(dI/dphi_X)/(dI/dphi) at the previous root and corrected
    by Newton steps (`_continued_root`), all on plain floats. When the
    correction cannot be shown to have found the root nearest the previous
    one, that root is bracketed on a 1e-3 rad grid instead (`_nearest_root`),
    on a `Snail` built for that flux step alone. A flux beyond +-_MAX_FLUX
    (10**5 steps) is refused with ValueError before the grid is made.
    """
    target = element.phi_x
    if target == 0.0:
        return 0.0
    if abs(target) > _MAX_FLUX:
        raise ValueError(
            f"external flux phase {target:.6g} rad is beyond +-{_MAX_FLUX:g} rad (about "
            f"{_MAX_FLUX / (2 * math.pi):.0f} flux quanta), the 10**5 continuation steps "
            "of 0.05 rad that the equilibrium search takes at most"
        )
    n_steps = max(8, int(abs(target) / 0.05))
    fluxes = np.linspace(0.0, target, n_steps + 1).tolist()
    gamma, n = element.gamma, element.n
    phi_bar = 0.0
    for previous_flux, flux in zip(fluxes, fluxes[1:]):
        # pull = -dI/dphi_X and slope = dI/dphi at the previous root
        pull = math.cos((previous_flux - phi_bar) / n) / n
        slope = gamma * math.cos(phi_bar) + pull
        root = None
        if slope > 0.0:
            predicted = phi_bar + pull / slope * (flux - previous_flux)
            root = _continued_root(gamma, n, flux, phi_bar, predicted)
        if root is None:
            root = _nearest_root(Snail(element.i0, gamma, n, flux), phi_bar, 1e-3)
        phi_bar = root
    residual = abs(snail_current(phi_bar, element))
    if residual >= 1e-10:
        raise RuntimeError(f"equilibrium residual {residual:.3e} exceeds 1e-10")
    return float(phi_bar)


def _continued_root(
    gamma: float, n: int, phi_x: float, previous: float, predicted: float
) -> float | None:
    """Newton's root from `predicted` if it is provably the root nearest `previous`.

    The SNAIL is given by its ratio `gamma`, junction count `n` and flux
    `phi_x`. Scalar Newton steps on the current
    gamma*sin(x) - sin((phi_x - x)/n), with `math`'s sin and cos, stop once
    a step is at most 1e-13 rad, as in `_refine_root`. The root x is
    accepted when the slope there exceeds 2|x - previous|(gamma + 1/n^2):
    |d^2I/dphi^2| <= gamma + 1/n^2, so the current then rises monotonically
    across the whole interval within |x - previous| of `previous`, and x is
    the only root in it. None is returned when the slope is not positive,
    Newton takes more than 20 steps, or the test fails.
    """
    x = predicted
    for _ in range(20):
        arg = (phi_x - x) / n
        slope = gamma * math.cos(x) + math.cos(arg) / n
        if not slope > 0.0:
            return None
        step = (gamma * math.sin(x) - math.sin(arg)) / slope
        x -= step
        if abs(step) <= 1e-13:
            break
    else:
        return None
    bound = 2.0 * abs(x - previous) * (gamma + 1.0 / n**2)
    return x if gamma * math.cos(x) + math.cos((phi_x - x) / n) / n > bound else None


def _nearest_root(element: Snail, guess: float, grid_step: float) -> float:
    """Refined root nearest `guess` among the sign changes on a +-1.5 rad grid.

    The grid is centred on the guess and holds the same number of points
    for any guess, so its ends (and the error message that prints them)
    do not depend on the guess's last bits. It is searched whole: tangent
    continuation resolves almost every flux step, so this search is rare.
    """
    half = round(1.5 / grid_step)
    grid = guess + grid_step * np.arange(-half, half + 1)
    vals = snail_current(grid, element)
    sign_flips = np.nonzero(np.signbit(vals[:-1]) != np.signbit(vals[1:]))[0]
    if len(sign_flips) == 0:
        raise RuntimeError(
            f"no root bracket found in [{grid[0]:.3f}, {grid[-1]:.3f}] rad "
            f"around previous solution {guess:.3f}"
        )
    roots = [_refine_root(element, float(grid[i]), float(grid[i + 1])) for i in sign_flips]
    return min(roots, key=lambda r: abs(r - guess))


def _refine_root(element: Snail, lo: float, hi: float) -> float:
    """Root of snail_current in [lo, hi], across which it changes sign.

    Newton steps on scalars from the midpoint. Each evaluation moves
    one end of the bracket onto the current point, and a step that would
    leave the bracket becomes a bisection. It stops once a step is at most
    1e-13 rad.
    """
    f_lo = snail_current(lo, element)
    if f_lo == 0.0:
        return lo
    if snail_current(hi, element) == 0.0:
        return hi
    x = 0.5 * (lo + hi)
    for _ in range(100):
        f = snail_current(x, element)
        if f == 0.0:
            return x
        if (f < 0.0) == (f_lo < 0.0):
            lo = x
        else:
            hi = x
        x_next = 0.5 * (lo + hi)
        slope = snail_current_slope(x, element)
        if slope != 0.0 and lo <= x - f / slope <= hi:
            x_next = x - f / slope
        if abs(x_next - x) <= 1e-13:
            return x_next
        x = x_next
    return x


def snail_expansion(element: Snail, phi_bar: float, l_geom: float = 0.0) -> SnailExpansion:
    """Taylor coefficients c2..c4 of the SNAIL potential at the equilibrium.

    c_k = (1/phi0*I0) d^k U / dphi^k |_{phi_bar}; participation
    p = phi0/(phi0 + c2*L*I0).
    """
    residual = abs(snail_current(phi_bar, element))
    if residual >= 1e-10:
        raise ValueError(f"phi_bar is not an equilibrium (residual {residual:.3e})")
    gamma, n, phi_x = element.gamma, element.n, element.phi_x
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
    omega = 1.0 / math.sqrt(c * (l_geom + PHI0_REDUCED / (exp.c2 * element.i0)))
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
    if len(sweep) < 3:
        raise ValueError("need at least 3 sweep points")
    omegas = np.array([m.omega for m in sweep])
    kerrs = np.array([m.kerr for m in sweep])
    if np.ptp(omegas) == 0.0:
        raise ValueError("degenerate sweep: all frequencies equal")
    slope, intercept = np.polyfit(omegas, kerrs, 1)
    residual = np.linalg.norm(kerrs - (slope * omegas + intercept))
    return LinearFit(slope=float(slope), intercept=float(intercept), residual_norm=float(residual))
