"""Junction-resonator frequencies, Kerr nonlinearities, and SNAIL expansion."""

import inspect
import math
import re

import numpy as np
import pytest
from scipy.optimize import brentq

from kpokit import elements
from kpokit.constants import (
    E_CHARGE,
    GHZ,
    H_PLANCK,
    HBAR,
    MHZ,
    PHI0_REDUCED,
)
from kpokit.elements import (
    SeriesStack,
    SingleJunction,
    Snail,
    Squid,
    junction_inductances,
    kpo_mode_params,
    snail_current,
    snail_equilibrium_phase,
    snail_expansion,
    snail_flux_sweep,
    snail_kerr_frequency_fit,
    snail_mode_params,
    squid_inductance_for_frequency,
)


def test_physical_constants_exact():
    assert E_CHARGE == 1.602176634e-19
    assert H_PLANCK == 6.62607015e-34
    assert PHI0_REDUCED == pytest.approx(HBAR / (2.0 * E_CHARGE), rel=1e-15)


# --------------------------------------------------------------------------
# SQUID / junction resonators
# --------------------------------------------------------------------------

def test_coupler_kerr_kpo_like_set():
    l_j = squid_inductance_for_frequency(10 * GHZ, 500e-15, 100e-12)
    mode = kpo_mode_params(500e-15, 100e-12, SingleJunction(i0=PHI0_REDUCED / l_j))
    assert mode.omega == pytest.approx(10 * GHZ, rel=1e-12)
    assert mode.kerr / MHZ == pytest.approx(20.0297287, rel=1e-6)
    assert PHI0_REDUCED / l_j / 1e-9 == pytest.approx(809.3979053, rel=1e-6)


def test_coupler_kerr_transmon_like_set():
    l_j = squid_inductance_for_frequency(10 * GHZ, 100e-15, 100e-12)
    mode = kpo_mode_params(100e-15, 100e-12, SingleJunction(i0=PHI0_REDUCED / l_j))
    assert mode.kerr / MHZ == pytest.approx(171.6548764, rel=1e-6)
    assert PHI0_REDUCED / l_j / 1e-9 == pytest.approx(135.2659169, rel=1e-6)


def test_squid_inductance_values():
    l_jsr = PHI0_REDUCED / 1500e-9
    assert squid_inductance_for_frequency(10 * GHZ, 500e-15, 100e-12, l_jsr) / 1e-12 \
        == pytest.approx(187.2019326, rel=1e-6)
    assert squid_inductance_for_frequency(10 * GHZ, 500e-15, 100e-12) / 1e-12 \
        == pytest.approx(406.6059182, rel=1e-6)


def test_series_stack_kerr_values():
    l_jsr = PHI0_REDUCED / 1500e-9
    l_sq = squid_inductance_for_frequency(10 * GHZ, 500e-15, 100e-12, l_jsr)
    stack = SeriesStack((Squid(l_sq), SingleJunction(1500e-9)))
    mode = kpo_mode_params(500e-15, 100e-12, stack)
    assert mode.kerr / MHZ == pytest.approx(5.101655, rel=1e-5)
    squid_only = kpo_mode_params(
        500e-15, 100e-12, Squid(squid_inductance_for_frequency(10 * GHZ, 500e-15, 100e-12))
    )
    assert squid_only.kerr / MHZ == pytest.approx(20.0297287, rel=1e-6)


def test_frequency_inductance_round_trip():
    for c, l_geom, target in [(500e-15, 100e-12, 10 * GHZ), (120e-15, 50e-12, 7 * GHZ)]:
        l_j = squid_inductance_for_frequency(target, c, l_geom)
        mode = kpo_mode_params(c, l_geom, Squid(l_j))
        assert mode.omega == pytest.approx(target, rel=1e-12)


def test_unreachable_frequency_rejected():
    with pytest.raises(ValueError, match="unreachable"):
        squid_inductance_for_frequency(30 * GHZ, 500e-15, 100e-12)


@pytest.mark.parametrize("args", [(1e200, 500e-15, 100e-12), (1e160, 500e-15, 0.0),
                                  (1e150, 1e10, 0.0)],
                         ids=["square-overflows", "square-overflows-no-l-geom",
                              "product-overflows-no-l-geom"])
def test_frequency_whose_inductance_leaves_the_float_range_rejected(args):
    # the first two raised OverflowError from the square of the target, the
    # third ZeroDivisionError from the cutoff of a zero fixed inductance
    with pytest.raises(ValueError, match="unreachable: .* below the floating-point range"):
        squid_inductance_for_frequency(*args)


@pytest.mark.parametrize("args, message", [
    ((math.nan, 500e-15, 100e-12), "target frequency must be positive and finite"),
    ((math.inf, 500e-15, 100e-12), "target frequency must be positive and finite"),
    ((-10 * GHZ, 500e-15, 100e-12), "target frequency must be positive and finite"),
    ((10 * GHZ, math.nan, 100e-12), "capacitance must be positive and finite"),
    ((10 * GHZ, 500e-15, math.nan), "geometric inductance must be non-negative and finite"),
    ((10 * GHZ, 500e-15, -1e-10), "geometric inductance must be non-negative and finite"),
    ((10 * GHZ, 500e-15, 100e-12, math.nan), "series junction inductance must be non-negative"),
    ((10 * GHZ, 500e-15, 100e-12, -1e-12), "series junction inductance must be non-negative"),
])
def test_frequency_inversion_refuses_bad_input(args, message):
    # before, a NaN target or geometric inductance returned NaN, and a
    # negative geometric inductance returned a value
    with pytest.raises(ValueError, match=message):
        squid_inductance_for_frequency(*args)


@pytest.mark.parametrize("mode_params, args", [
    (kpo_mode_params, (1e-316, 1e-10, Squid(1e-9))),
    (kpo_mode_params, (1e-300, 0.0, SingleJunction(1e20))),
    (snail_mode_params, (1e-315, 1e-10, Snail(i0=3.75e-6, gamma=0.3, n=2, phi_x=2.5))),
], ids=["squid", "junction-no-l-geom", "snail"])
def test_resonator_whose_c_times_l_underflows_rejected(mode_params, args):
    # each raised ZeroDivisionError from 1 / sqrt(0)
    with pytest.raises(ValueError, match=r"C = .* F times L = .* H underflows"):
        mode_params(*args)


@pytest.mark.parametrize("args", [(500e-15, 1e-10, SingleJunction(1e-300)),
                                  (500e-15, 1e-10, Squid(1e120)),
                                  (500e-15, 1e120, Squid(1e-9))],
                         ids=["junction", "squid", "l-geom"])
def test_resonator_whose_inductance_cubed_overflows_rejected(args):
    # each raised OverflowError from the cube of the junction or total inductance
    with pytest.raises(ValueError, match=r"Kerr unreachable: junction inductance .* H "
                                         r"\(total .* H\) cubed overflows"):
        kpo_mode_params(*args)


def test_single_junction_stack_reduces_to_coupler_formula():
    # a one-junction series stack with no extra junction inductance must give
    # exactly the single-junction result
    junction = SingleJunction(i0=800e-9)
    direct = kpo_mode_params(500e-15, 100e-12, junction)
    stacked = kpo_mode_params(500e-15, 100e-12, SeriesStack((junction,)))
    assert stacked.omega == direct.omega
    assert stacked.kerr == direct.kerr


def test_junction_inductances_flatten():
    stack = SeriesStack((Squid(1e-10), SingleJunction(1e-6), SeriesStack((Squid(2e-10),))))
    assert junction_inductances(stack) == [1e-10, PHI0_REDUCED / 1e-6, 2e-10]


def test_a_snail_has_no_junction_inductance_list():
    # its inductance depends on the flux, so it is expanded about its equilibrium instead
    with pytest.raises(TypeError, match="has no simple inductance list"):
        junction_inductances(Snail(i0=1e-6, gamma=0.3))


def test_invalid_inputs_rejected():
    with pytest.raises(ValueError):
        Squid(l_j=-1e-12)
    with pytest.raises(ValueError):
        SingleJunction(i0=0.0)
    with pytest.raises(ValueError):
        SeriesStack(())
    with pytest.raises(ValueError):
        kpo_mode_params(-1e-15, 100e-12, SingleJunction(1e-6))
    with pytest.raises(TypeError):
        kpo_mode_params(500e-15, 100e-12, Snail(i0=1e-6, gamma=0.3))


# --------------------------------------------------------------------------
# SNAIL
# --------------------------------------------------------------------------

DESIGN_SNAIL = dict(i0=1250e-9, gamma=0.3, n=2)


def test_equilibrium_is_searched_once_per_snail():
    cases = [Snail(**DESIGN_SNAIL, phi_x=2 * math.pi * t) for t in (0.41, 0.43, -0.3)]
    cases.append(Snail(i0=1e-6, gamma=0.9, n=1, phi_x=2 * math.pi * 0.6))
    cached = [snail_equilibrium_phase(e) for e in cases]
    hits = elements._equilibrium_phase.cache_info().hits
    assert [snail_equilibrium_phase(e) for e in cases] == cached
    assert elements._equilibrium_phase.cache_info().hits == hits + len(cases)
    elements._equilibrium_phase.cache_clear()
    fresh = [snail_equilibrium_phase(e) for e in cases]
    assert [x.hex() for x in fresh] == [x.hex() for x in cached]
    # the mode parameters reuse the equilibrium the circuit already asked for
    snail_mode_params(500e-15, 100e-12, cases[0])
    assert elements._equilibrium_phase.cache_info().hits == 1
    # the public name stays a plain function, which a tracer can wrap
    assert inspect.isfunction(snail_equilibrium_phase)


def test_equilibrium_phase_zero_flux():
    assert snail_equilibrium_phase(Snail(**DESIGN_SNAIL, phi_x=0.0)) == 0.0


@pytest.mark.parametrize("flux", [5000.1, -5000.1, 2 * math.pi * 1e8, -1e300])
def test_equilibrium_phase_refuses_a_flux_beyond_the_step_bound(monkeypatch, flux):
    # the grid would hold |phi_x| / 0.05 points (1.3e10 at 1e8 turns); the
    # refusal comes before it is made
    def no_grid(*args, **kwargs):
        raise AssertionError("flux grid made for a refused flux")

    monkeypatch.setattr(np, "linspace", no_grid)
    with pytest.raises(ValueError, match=r"beyond \+-5000 rad \(about 796 flux quanta\)"):
        snail_equilibrium_phase(Snail(i0=1e-6, gamma=0.6, n=2, phi_x=flux))


@pytest.mark.parametrize("flux", [5000.1, -5000.1, 1e5])
def test_single_well_snail_is_solved_beyond_the_step_bound(flux):
    # the bound counts continuation steps, and a single-well SNAIL takes
    # none; before, each of these fluxes was refused
    element = Snail(**DESIGN_SNAIL, phi_x=flux)
    phi_bar = snail_equilibrium_phase(element)
    assert abs(snail_current(phi_bar, element)) < 1e-10
    assert snail_expansion(element, phi_bar).c2 > 0
    # on the branch, phi_bar - phi_X repeats with period 2 pi n in the flux
    near = Snail(**DESIGN_SNAIL, phi_x=math.remainder(flux, 4 * math.pi))
    assert phi_bar - flux == pytest.approx(snail_equilibrium_phase(near) - near.phi_x, abs=1e-9)


def test_single_well_snail_fails_loudly_where_its_flux_is_unresolved():
    # an ulp of 2 pi 1e8 rad is 1.2e-7 rad, too coarse for the residual check
    with pytest.raises(RuntimeError, match=r"equilibrium residual .* exceeds 1e-10"):
        snail_equilibrium_phase(Snail(**DESIGN_SNAIL, phi_x=2 * math.pi * 1e8))


def test_equilibrium_phase_antisymmetry():
    flux = 2 * math.pi * 0.31
    plus = snail_equilibrium_phase(Snail(**DESIGN_SNAIL, phi_x=flux))
    minus = snail_equilibrium_phase(Snail(**DESIGN_SNAIL, phi_x=-flux))
    assert minus == pytest.approx(-plus, rel=1e-9)


def test_equilibrium_residual_small():
    for turns in np.linspace(0.0, 0.5, 11):
        element = Snail(**DESIGN_SNAIL, phi_x=2 * math.pi * turns)
        phi_bar = snail_equilibrium_phase(element)
        assert abs(snail_current(phi_bar, element)) < 1e-10


def test_operating_point_values():
    element = Snail(**DESIGN_SNAIL, phi_x=2 * math.pi * 0.47)
    phi_bar = snail_equilibrium_phase(element)
    exp = snail_expansion(element, phi_bar, 100e-12)
    assert phi_bar == pytest.approx(2.6911065, rel=1e-6)
    assert exp.c2 == pytest.approx(0.22564553, rel=1e-6)
    assert exp.c3 == pytest.approx(-0.09796572, rel=1e-6)
    assert exp.c4 == pytest.approx(0.14614162, rel=1e-6)
    assert exp.participation == pytest.approx(0.92106138, rel=1e-6)
    mode = snail_mode_params(200e-15, 100e-12, element)
    assert mode.omega / GHZ == pytest.approx(9.9988466, rel=1e-6)
    assert mode.kerr / MHZ == pytest.approx(-23.737682, rel=1e-6)


def test_expansion_zero_flux():
    exp = snail_expansion(Snail(**DESIGN_SNAIL, phi_x=0.0), 0.0)
    assert exp.c2 == pytest.approx(0.8)
    assert exp.c3 == 0.0
    assert exp.c4 == pytest.approx(-(0.3 + 1.0 / 8.0))


def _potential(phi, element):
    # two-branch potential U/(phi0*I0): the small gamma junction plus the
    # n-junction arm threaded by the external flux
    return -element.gamma * np.cos(phi) \
        - element.n * np.cos((element.phi_x - phi) / element.n)


def test_expansion_matches_finite_differences():
    element = Snail(**DESIGN_SNAIL, phi_x=2 * math.pi * 0.47)
    phi_bar = snail_equilibrium_phase(element)
    exp = snail_expansion(element, phi_bar)
    h = 1e-2
    u = _potential(np.arange(-3, 4) * h + phi_bar, element)
    # fourth-order central stencils
    d2 = (-u[1] + 16 * u[2] - 30 * u[3] + 16 * u[4] - u[5]) / (12 * h**2)
    d3 = (u[0] - 8 * u[1] + 13 * u[2] - 13 * u[4] + 8 * u[5] - u[6]) / (8 * h**3)
    d4 = (-u[0] + 12 * u[1] - 39 * u[2] + 56 * u[3] - 39 * u[4] + 12 * u[5] - u[6]) / (6 * h**4)
    assert d2 == pytest.approx(exp.c2, rel=1e-6)
    assert d3 == pytest.approx(exp.c3, rel=1e-6)
    assert d4 == pytest.approx(exp.c4, rel=1e-6)


def test_expansion_requires_equilibrium():
    element = Snail(**DESIGN_SNAIL, phi_x=2 * math.pi * 0.47)
    with pytest.raises(ValueError, match="not an equilibrium"):
        snail_expansion(element, 0.3)


def test_expansion_refuses_a_potential_maximum():
    # at phi_x = pi, phi = pi balances the currents, but there
    # c2 = gamma cos(pi) + cos(0)/n = -0.8 + 1/3 < 0: the potential's maximum
    with pytest.raises(ValueError, match=r"c2 = -0\.4667 <= 0: not a stable potential minimum"):
        snail_expansion(Snail(i0=1e-6, gamma=0.8, n=3, phi_x=math.pi), math.pi)


def test_kerr_sign_flips_with_flux():
    positive = snail_mode_params(200e-15, 100e-12, Snail(**DESIGN_SNAIL, phi_x=0.0))
    negative = snail_mode_params(200e-15, 100e-12, Snail(**DESIGN_SNAIL, phi_x=2 * math.pi * 0.47))
    assert positive.kerr > 0
    assert negative.kerr < 0


def test_participation_one_limit():
    element = Snail(**DESIGN_SNAIL, phi_x=2 * math.pi * 0.47)
    phi_bar = snail_equilibrium_phase(element)
    exp = snail_expansion(element, phi_bar, 0.0)
    assert exp.participation == 1.0
    mode = snail_mode_params(200e-15, 0.0, element)
    c32 = exp.c3**2 / exp.c2
    expected = -(1.0 / exp.c2) * (exp.c4 - (5.0 / 3.0) * c32) * E_CHARGE**2 / (2 * 200e-15) / HBAR
    assert mode.kerr == pytest.approx(expected, rel=1e-12)


def _brentq_refine(element, lo, hi):
    return brentq(lambda p: snail_current(p, element), lo, hi, xtol=1e-13)


def _equilibrium_or_error(element):
    try:
        return snail_equilibrium_phase(element)
    except RuntimeError as exc:
        return str(exc)


GRID_CASES = [
    Snail(i0=1e-6, gamma=gamma, n=n, phi_x=2 * math.pi * turns)
    for gamma in (0.05, 0.3, 0.6, 0.9)
    for n in (1, 2, 3, 4)
    for turns in (-0.75, -0.5, -0.2, 0.1, 0.3, 0.5, 0.6, 0.75)
]


# multi-well SNAILs (n * gamma = 1.05 and 1.7) whose flux continuation
# searches a grid window that holds three or two sign changes, and then
# reaches its target
SEVERAL_ROOT_CASES = [
    Snail(i0=1e-6, gamma=gamma, n=n, phi_x=2 * math.pi * turns)
    for gamma, n, turns in [(0.35, 3, -0.5), (0.35, 3, 0.5), (0.35, 3, 0.7), (0.35, 3, 1.25),
                            (0.85, 2, -0.6), (0.85, 2, 0.6)]
]


def _window_sign_changes(element, guess, grid_step):
    """Sign changes of the current on the grid window `_nearest_root` searches."""
    half = round(1.5 / grid_step)
    vals = snail_current(guess + grid_step * np.arange(-half, half + 1), element)
    return int(np.count_nonzero(np.signbit(vals[:-1]) != np.signbit(vals[1:])))


def test_equilibrium_refinement_matches_brentq(monkeypatch):
    cases = GRID_CASES + SEVERAL_ROOT_CASES
    ours = [_equilibrium_or_error(e) for e in cases]
    windows = []
    nearest_root = elements._nearest_root

    def reference(gamma, n, phi_x, lo, hi):
        return _brentq_refine(Snail(1e-6, gamma, n, phi_x), lo, hi)

    def search(element, guess, grid_step):
        windows.append(_window_sign_changes(element, guess, grid_step))
        return nearest_root(element, guess, grid_step)

    monkeypatch.setattr(elements, "_refine_root", reference)
    monkeypatch.setattr(elements, "_nearest_root", search)
    elements._equilibrium_phase.cache_clear()  # search again, with the reference refinement
    theirs = [_equilibrium_or_error(e) for e in cases]
    for element, a, b in zip(cases, ours, theirs):
        if isinstance(b, str):
            assert a == b, element
            continue
        assert abs(a - b) <= 1e-13, element
        # converged to roundoff, not merely to within the step tolerance
        assert abs(snail_current(a, element)) <= 2e-15, element
    # some windows hold several sign changes, so the nearest root is chosen;
    # the grid cases alone give two such windows, the added cases six
    assert sum(count > 1 for count in windows) >= 4
    assert all(isinstance(r, float) for r in theirs[len(GRID_CASES):])
    assert sum(isinstance(b, float) for b in theirs) >= 100


def _full_window_nearest_root(element, guess, grid_step):
    """The root search as first written: every point of the +-1.5 rad window,
    on the guess-centred grid that `_nearest_root` builds."""
    half = round(1.5 / grid_step)
    grid = guess + grid_step * np.arange(-half, half + 1)
    vals = snail_current(grid, element)
    sign_flips = np.nonzero(np.signbit(vals[:-1]) != np.signbit(vals[1:]))[0]
    if len(sign_flips) == 0:
        raise RuntimeError(
            f"no root bracket found in [{grid[0]:.3f}, {grid[-1]:.3f}] rad "
            f"around previous solution {guess:.3f}"
        )
    roots = [elements._refine_root(element.gamma, element.n, element.phi_x,
                                   float(grid[i]), float(grid[i + 1]))
             for i in sign_flips]
    return min(roots, key=lambda r: abs(r - guess))


def _flux_stepper(element, nearest_root=None):
    """snail_equilibrium_phase before tangent continuation: the same flux
    steps, each solved by the root search alone (`_nearest_root` unless
    another search is given); the equilibrium, or the error message."""
    nearest_root = nearest_root or elements._nearest_root
    target = element.phi_x
    if target == 0.0:
        return 0.0
    n_steps = max(8, int(abs(target) / 0.05))
    phi_bar = 0.0
    try:
        for flux in np.linspace(0.0, target, n_steps + 1)[1:]:
            snapshot = Snail(element.i0, element.gamma, element.n, flux)
            phi_bar = nearest_root(snapshot, phi_bar, 1e-3)
    except RuntimeError as exc:
        return str(exc)
    residual = abs(snail_current(phi_bar, element))
    if residual >= 1e-10:
        return f"equilibrium residual {residual:.3e} exceeds 1e-10"
    return phi_bar


def _assert_continuation_matches_flux_stepper(cases):
    # error messages word for word; equilibria to 1e-15 rad, because the
    # last Newton step starts from a different point and may round to the
    # neighbouring double (4.4e-16 at most, measured)
    for element in cases:
        ours, theirs = _equilibrium_or_error(element), _flux_stepper(element)
        assert isinstance(ours, str) == isinstance(theirs, str), element
        if isinstance(theirs, str):
            assert ours == theirs, element
        else:
            assert abs(ours - theirs) <= 1e-15, element


DESIGN_FLUX_CASES = [Snail(**DESIGN_SNAIL, phi_x=2 * math.pi * turns)
                     for turns in np.linspace(0.40, 0.43, 31)]


def test_continuation_matches_flux_stepper_on_grid_cases():
    _assert_continuation_matches_flux_stepper(GRID_CASES + DESIGN_FLUX_CASES)
    assert sum(isinstance(_flux_stepper(e), str) for e in GRID_CASES) >= 10


def _seeded_sweep_cases():
    # the design range: gamma 0.05-0.45, n 2-3, flux 0-0.49 turns
    rng = np.random.default_rng(1717)
    return [Snail(i0=1e-6, gamma=rng.uniform(0.05, 0.45), n=int(rng.integers(2, 4)),
                  phi_x=2 * math.pi * rng.uniform(0.0, 0.49)) for _ in range(200)]


def test_continuation_matches_flux_stepper_on_seeded_sweep():
    _assert_continuation_matches_flux_stepper(_seeded_sweep_cases())


def _continuation_or_error(element):
    """The flux continuation alone (`_continued_phase`), with the residual
    check that snail_equilibrium_phase applies to it; the equilibrium, or
    the error message."""
    try:
        phi_bar = elements._continued_phase(element)
    except RuntimeError as exc:
        return str(exc)
    residual = abs(snail_current(phi_bar, element))
    if residual >= 1e-10:
        return f"equilibrium residual {residual:.3e} exceeds 1e-10"
    return float(phi_bar)


def test_snail_is_built_only_for_the_bracket_search(monkeypatch):
    built, searched = [], []
    nearest_root = elements._nearest_root

    class CountingSnail(Snail):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self.phi_x)

    def counting(snapshot, guess, grid_step):
        searched.append(snapshot.phi_x)
        return nearest_root(snapshot, guess, grid_step)

    monkeypatch.setattr(elements, "Snail", CountingSnail)
    monkeypatch.setattr(elements, "_nearest_root", counting)
    for element in DESIGN_FLUX_CASES:
        elements._continued_phase(element)
    assert built == searched == []
    # the fallback case of test_continuation_falls_back_to_the_bracket_search
    elements._continued_phase(Snail(i0=1e-6, gamma=0.9, n=1, phi_x=2 * math.pi * 0.6))
    assert len(built) == len(searched) > 0
    assert built == searched


def test_continuation_falls_back_to_the_bracket_search(monkeypatch):
    # at gamma = 0.9, n = 1 the equilibrium moves up to 0.5 rad per step
    # near phi_X = pi while the slope falls to 0.1, so the monotonicity test
    # fails there and those steps are bracketed; the result is still the
    # stepper's
    element = Snail(i0=1e-6, gamma=0.9, n=1, phi_x=2 * math.pi * 0.6)
    calls = []
    nearest_root = elements._nearest_root

    def counting(snapshot, guess, grid_step):
        calls.append(snapshot.phi_x)
        return nearest_root(snapshot, guess, grid_step)

    monkeypatch.setattr(elements, "_nearest_root", counting)
    ours = elements._continued_phase(element)
    n_steps = max(8, int(element.phi_x / 0.05))
    assert 0 < len(calls) < n_steps
    monkeypatch.undo()
    assert abs(ours - _flux_stepper(element)) <= 1e-15


def _ulps_apart(a, b):
    return abs(a - b) / math.ulp(max(abs(a), abs(b)))


def test_single_well_bracket_matches_the_continuation():
    # a single-well SNAIL's root is refined in its one bracket, not followed
    # along the flux; wherever the continuation ends on a minimum the two
    # agree to 2 ulp (1 ulp at most, measured). Any other SNAIL is followed
    # along the flux: equilibria bit for bit, error messages word for word
    single_well = multi_well = 0
    for element in GRID_CASES + _seeded_sweep_cases():
        ours, theirs = _equilibrium_or_error(element), _continuation_or_error(element)
        if element.n * element.gamma >= 1:
            assert ours == theirs, element
            multi_well += 1
        elif isinstance(theirs, float) and elements.snail_current_slope(theirs, element) > 0:
            assert _ulps_apart(ours, theirs) <= 2, element
            single_well += 1
    assert single_well >= 240 and multi_well >= 80


def test_single_junction_near_unit_gamma_stays_on_the_minimum():
    # n = 1 is single-well for every gamma < 1, but the continuation's
    # 0.05 rad steps lose the branch near gamma = 1: here they ended on a
    # potential maximum at 141 of these fluxes and found no root bracket at 19
    phases = []
    for turns in np.linspace(0.0, 3.0, 301):
        element = Snail(i0=1e-6, gamma=0.99, n=1, phi_x=2 * math.pi * turns)
        phases.append(snail_equilibrium_phase(element))
        assert snail_expansion(element, phases[-1]).c2 > 0, element
    # the branch rises with the flux: dphi/dphi_X = (cos(u)/n) / c2 > 0
    assert np.all(np.diff(phases) > 0)


@pytest.mark.parametrize("flux", [1100.0, 2000.0])
def test_newton_stops_at_an_ulp_beyond_512_rad(monkeypatch, flux):
    # beyond 512 rad an ulp of the phase exceeds 1e-13 rad, so a Newton step
    # computed below 1e-13 rad may never come: stopping on that alone, the
    # continuation bracketed 173 (1100 rad) and 2366 (2000 rad) of its steps
    # on the grid
    element = Snail(**DESIGN_SNAIL, phi_x=flux)
    searched = []
    nearest_root = elements._nearest_root

    def counting(snapshot, guess, grid_step):
        searched.append(snapshot.phi_x)
        return nearest_root(snapshot, guess, grid_step)

    monkeypatch.setattr(elements, "_nearest_root", counting)
    theirs = elements._continued_phase(element)
    assert searched == []
    assert _ulps_apart(snail_equilibrium_phase(element), theirs) <= 2


def test_continuation_brackets_rise_across_their_whole_width(monkeypatch):
    # each flux step's bracket lies within s/M of the previous root, where
    # the slope is provably positive; sampled at 2001 points, it is >= 0
    # across every bracket that the continuation hands to `_refine_root`
    # (the 1e-3 rad cells of the grid search are not its brackets)
    rng = np.random.default_rng(2501)
    refine_root, nearest_root = elements._refine_root, elements._nearest_root
    brackets, in_grid = [], []

    def recording(gamma, n, phi_x, lo, hi):
        if not in_grid:
            brackets.append((gamma, n, phi_x, lo, hi))
        return refine_root(gamma, n, phi_x, lo, hi)

    def grid_search(snapshot, guess, grid_step):
        in_grid.append(True)
        try:
            return nearest_root(snapshot, guess, grid_step)
        finally:
            in_grid.pop()

    monkeypatch.setattr(elements, "_refine_root", recording)
    monkeypatch.setattr(elements, "_nearest_root", grid_search)
    for _ in range(100):
        n = int(rng.integers(2, 5))
        gamma = rng.uniform(1.0 / n, 0.95)  # n * gamma >= 1: followed along the flux
        try:
            elements._continued_phase(Snail(i0=1e-6, gamma=gamma, n=n,
                                            phi_x=2 * math.pi * rng.uniform(-2.0, 2.0)))
        except RuntimeError:
            pass
    assert len(brackets) >= 3000
    for gamma, n, phi_x, lo, hi in brackets:
        x = np.linspace(lo, hi, 2001)
        slope = gamma * np.cos(x) + np.cos((phi_x - x) / n) / n
        assert slope.min() >= 0.0, (gamma, n, phi_x, lo, hi)


def test_narrow_first_root_search_matches_full_window():
    cases = GRID_CASES + DESIGN_FLUX_CASES
    ours = [_flux_stepper(e) for e in cases]
    theirs = [_flux_stepper(e, _full_window_nearest_root) for e in cases]
    # equilibria bit for bit, error messages word for word
    assert ours == theirs
    assert sum(isinstance(r, str) for r in theirs) >= 1
    assert all(isinstance(r, float) for r in theirs[len(GRID_CASES):])


@pytest.mark.parametrize("offset", [0.0, 0.03, 0.0639, 0.064, 0.0641, 0.065, 0.5, 1.2, 1.49])
def test_narrow_first_root_search_falls_back_to_full_window(offset):
    # guesses at and beyond the 64-point slice around the root at phi = 0
    element = Snail(**DESIGN_SNAIL, phi_x=0.0)
    for guess in (offset, -offset):
        assert (elements._nearest_root(element, guess, 1e-3)
                == _full_window_nearest_root(element, guess, 1e-3))


def test_root_search_window_does_not_depend_on_the_guess_last_bits():
    # np.arange(guess - 1.5, guess + 1.5 + step, step) holds 3001 or 3002
    # points depending on the guess's rounding; the centred grid always
    # holds 3001, so the window ends printed on failure are guess +- 1.5
    element = Snail(i0=1e-6, gamma=0.05, n=4, phi_x=0.0)
    guess = -2 * math.pi
    messages = set()
    for g in (guess, np.nextafter(guess, 0.0), np.nextafter(guess, -7.0)):
        with pytest.raises(RuntimeError) as info:
            elements._nearest_root(element, float(g), 1e-3)
        messages.add(str(info.value))
    assert len(messages) == 1


def test_root_on_a_grid_point_is_returned_exactly():
    element = Snail(**DESIGN_SNAIL, phi_x=0.0)
    # step 2**-10 puts phi = 0, where the current is exactly 0, on the grid
    assert elements._nearest_root(element, 0.0, 2.0**-10) == 0.0
    assert elements._refine_root(element.gamma, element.n, element.phi_x, -0.1, 0.0) == 0.0
    assert elements._refine_root(element.gamma, element.n, element.phi_x, 0.0, 0.1) == 0.0
    assert _brentq_refine(element, -2.0**-10, 0.0) == 0.0


def test_missing_root_bracket_raises():
    # on the n = 4 branch the current |sin((phi_X - phi)/4)| > 0.05 = gamma
    # across the whole window around phi = -2 pi
    element = Snail(i0=1e-6, gamma=0.05, n=4, phi_x=0.0)
    with pytest.raises(RuntimeError, match=r"no root bracket found in \[-7\.783, -4\.783\] rad "
                       r"around previous solution -6\.283"):
        elements._nearest_root(element, -2 * math.pi, 1e-3)


def test_branch_continuity_over_sweep():
    flux = 2 * math.pi * np.linspace(0.0, 0.5, 51)
    phases = [snail_equilibrium_phase(Snail(**DESIGN_SNAIL, phi_x=f)) for f in flux]
    jumps = np.abs(np.diff(phases))
    assert jumps.max() < 0.5


def test_flux_sweep_kerr_negative_near_operating_point():
    flux = 2 * math.pi * np.linspace(0.46, 0.49, 7)
    sweep = snail_flux_sweep(200e-15, 100e-12, Snail(**DESIGN_SNAIL), flux)
    assert all(m.kerr < 0 for m in sweep)


def test_linear_fit_recovers_exact_line():
    slope, intercept = -3.5e-3, 2 * math.pi * 11.0e6
    from kpokit.elements import ModeParams

    omegas = np.linspace(9.0, 10.0, 5) * GHZ
    sweep = [ModeParams(omega=w, kerr=slope * w + intercept) for w in omegas]
    fit = snail_kerr_frequency_fit(sweep)
    assert fit.slope == pytest.approx(slope, rel=1e-10)
    assert fit.intercept == pytest.approx(intercept, rel=1e-10)
    assert fit.residual_norm < 1e-3
    assert fit.kerr_at(omegas[0]) == pytest.approx(sweep[0].kerr, rel=1e-10)


def test_degenerate_fit_inputs_rejected():
    from kpokit.elements import ModeParams

    same = [ModeParams(omega=9 * GHZ, kerr=1.0)] * 3
    with pytest.raises(ValueError, match="degenerate"):
        snail_kerr_frequency_fit(same)
    with pytest.raises(ValueError, match="at least 3"):
        snail_kerr_frequency_fit(same[:2])


def test_snail_invariants_enforced():
    with pytest.raises(ValueError):
        Snail(i0=1e-6, gamma=1.2)
    with pytest.raises(ValueError):
        Snail(i0=-1e-6, gamma=0.3)
    with pytest.raises(ValueError):
        Snail(i0=1e-6, gamma=0.3, n=0)


@pytest.mark.parametrize("field, value, message", [
    ("phi_x", math.nan, "external flux phase must be finite"),
    ("phi_x", math.inf, "external flux phase must be finite"),
    ("phi_x", -math.inf, "external flux phase must be finite"),
    ("n", math.nan, "n must be a positive integer"),
    ("n", math.inf, "n must be a positive integer"),
])
def test_snail_refuses_non_finite_flux_and_junction_count(field, value, message):
    # before, a nan flux failed converting the step count, and an infinite
    # flux or n raised OverflowError
    with pytest.raises(ValueError, match=message):
        Snail(i0=1e-6, gamma=0.3, **{field: value})


@pytest.mark.parametrize("omega, kerr, message", [
    (math.nan, 1.0, "resonance frequency"),
    (math.inf, 1.0, "resonance frequency"),
    (0.0, 1.0, "resonance frequency"),
    (1e10, math.nan, "Kerr coefficient"),
    (1e10, -math.inf, "Kerr coefficient"),
])
def test_mode_params_refuse_non_finite_values(omega, kerr, message):
    from kpokit.elements import ModeParams

    with pytest.raises(ValueError, match=message):
        ModeParams(omega=omega, kerr=kerr)


SNAIL_AT_047 = Snail(**DESIGN_SNAIL, phi_x=2 * math.pi * 0.47)


@pytest.mark.parametrize("mode_params, element", [
    (kpo_mode_params, SingleJunction(1e-6)),
    (snail_mode_params, SNAIL_AT_047),
], ids=["kpo", "snail"])
@pytest.mark.parametrize("c, l_geom, message", [
    (math.nan, 100e-12, "capacitance must be positive and finite, got nan"),
    (math.inf, 100e-12, "capacitance must be positive and finite, got inf"),
    (-1e-15, 100e-12, "capacitance must be positive and finite"),
    (200e-15, math.nan, "geometric inductance must be non-negative and finite, got nan"),
    (200e-15, math.inf, "geometric inductance must be non-negative and finite, got inf"),
    (200e-15, -150e-12, "geometric inductance must be non-negative and finite, got -1.5e-10"),
])
def test_mode_params_refuse_bad_capacitance_and_inductance(mode_params, element, c, l_geom,
                                                           message):
    with pytest.raises(ValueError, match=re.escape(message)):
        mode_params(c, l_geom, element)
