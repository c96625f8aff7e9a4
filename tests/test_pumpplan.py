"""Pump-frequency classification and lattice plan generation."""

import itertools
import math

import numpy as np
import pytest

from kpokit.constants import GHZ, MHZ, TWO_PI
from kpokit.pumpplan import (
    LHZ_MULTIPLIERS,
    LHZ_PATTERN,
    RESONANCE_TOL,
    PumpAssignment,
    _exact_rescale,
    _relation_candidates,
    check_mixing,
    classify_relation,
    detect_residual,
    lhz_frequencies,
    lhz_plan,
)

SET_A = tuple(2 * x * GHZ for x in (9.270, 9.249, 9.290, 9.229))
SET_B = tuple(2 * x * GHZ for x in (9.270, 9.249, 9.289, 9.229))
SET_C = tuple(2 * x * GHZ for x in (9.270, 9.250, 9.290, 9.230))


def test_pump_assignment_validation():
    with pytest.raises(ValueError):
        PumpAssignment(omega_p=(1.0, -1.0))
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            PumpAssignment(omega_p=(1.0, bad))
    for empty in ((), [], np.array([])):
        with pytest.raises(ValueError, match="omega_p must hold at least one"):
            PumpAssignment(omega_p=empty)


def test_mixing_pairings_on_reference_sets():
    assert check_mixing(PumpAssignment(omega_p=SET_A)) == ["12|34"]
    assert check_mixing(PumpAssignment(omega_p=SET_B)) == []
    assert check_mixing(PumpAssignment(omega_p=SET_C)) == ["12|34"]


def test_mixing_check_refuses_three_pumps():
    with pytest.raises(ValueError, match="mixing check needs exactly four pump frequencies"):
        check_mixing(PumpAssignment(omega_p=SET_A[:3]))


def test_mixing_all_equal_satisfies_every_pairing():
    same = PumpAssignment(omega_p=(18.5 * GHZ,) * 4)
    assert check_mixing(same) == ["12|34", "13|24", "14|23"]


def test_classify_relation_patterns():
    assert classify_relation((1, 1, -1, -1)) == "four-body"
    assert classify_relation((1, -2, 0, 1)) == "residual-1"
    assert classify_relation((2, -1, -1, 0)) == "residual-1"
    assert classify_relation((1, 2, -3, 0)) == "residual-2"
    assert classify_relation((3, -1, -2, 0)) == "residual-2"
    assert classify_relation((1, 1, 1, -3)) == "other"
    assert classify_relation((1, 0, -1, 0)) == "other"


def test_residuals_clean_set_four_body_only_up_to_order_eight():
    found = detect_residual(PumpAssignment(omega_p=SET_A), max_order=8)
    assert [r.coefficients for r in found if r.order <= 4] == [(1, 1, -1, -1)]
    assert all(r.classification in ("four-body", "other") for r in found)
    assert all(r.residual == 0.0 for r in found)


def test_residuals_detuned_set_has_no_low_order_relation():
    found = detect_residual(PumpAssignment(omega_p=SET_B), max_order=4)
    assert found == []
    # an exact higher-order relation does exist on this grid
    order6 = detect_residual(PumpAssignment(omega_p=SET_B), max_order=6)
    assert (0, 3, -1, -2) in [r.coefficients for r in order6]


def test_residuals_collision_set():
    found = detect_residual(PumpAssignment(omega_p=SET_C), max_order=4)
    coeffs = {r.coefficients for r in found}
    assert (1, 1, -1, -1) in coeffs
    assert (1, -2, 0, 1) in coeffs
    assert (2, -1, -1, 0) in coeffs
    by_coeff = {r.coefficients: r.classification for r in found}
    assert by_coeff[(1, 1, -1, -1)] == "four-body"
    assert by_coeff[(1, -2, 0, 1)] == "residual-1"
    assert by_coeff[(2, -1, -1, 0)] == "residual-1"


def test_residuals_incommensurate_frequencies_empty():
    pump = PumpAssignment(omega_p=(np.pi * GHZ, np.e * GHZ, np.sqrt(2) * GHZ, 3.1 * GHZ))
    assert detect_residual(pump, max_order=4) == []


def test_off_grid_planted_relation_is_found():
    # generic pumps with w1 + w2 = w3 + w4 planted: no exact integer grid
    # reproduces them, so the relation must survive the float check
    draws = np.random.default_rng(3).uniform(9.5, 10.0, (20, 3)) * TWO_PI * GHZ
    for w1, w3, w4 in draws:
        omega = 2.0 * np.array([w1, w3 + w4 - w1, w3, w4])
        found = detect_residual(PumpAssignment(omega_p=tuple(omega)), max_order=4)
        assert (1, 1, -1, -1) in [r.coefficients for r in found]


def test_residual_representatives_are_primitive_and_sign_fixed():
    found = detect_residual(PumpAssignment(omega_p=SET_C), max_order=6)
    for r in found:
        nz = [c for c in r.coefficients if c != 0]
        assert nz[0] > 0
        assert np.gcd.reduce([abs(c) for c in r.coefficients]) == 1


def test_residual_order_cap():
    with pytest.raises(ValueError, match="capped"):
        detect_residual(PumpAssignment(omega_p=SET_A), max_order=9)


def test_residual_max_order_must_be_a_positive_integer():
    pump = PumpAssignment(omega_p=SET_A)
    for bad in (2.5, 4.0, True, "4", None, 0, -1):
        with pytest.raises(ValueError, match="max_order"):
            detect_residual(pump, max_order=bad)
    assert detect_residual(pump, max_order=np.int64(4)) == detect_residual(pump, max_order=4)


@pytest.mark.parametrize("max_order", range(1, 9))
def test_relation_ball_is_the_filtered_box(max_order):
    box = np.array(list(itertools.product(range(-max_order, max_order + 1), repeat=4)))
    order = np.abs(box).sum(axis=1)
    first = box[np.arange(len(box)), np.argmax(box != 0, axis=1)]
    keep = (order > 0) & (order <= max_order) & (first > 0)
    keep &= np.gcd.reduce(np.abs(box), axis=1) == 1
    ball = _relation_candidates(4, max_order)
    assert ball.dtype == np.int8
    np.testing.assert_array_equal(ball, box[keep])
    if max_order == 8:
        # the L1 ball holds 3,649 vectors (the zero vector among them), of
        # which 1,640 are primitive with a positive first entry
        assert np.count_nonzero(order <= max_order) == 3649
        assert len(ball) == 1640


def test_relation_ball_is_made_once_and_read_only():
    ball = _relation_candidates(4, 8)
    assert _relation_candidates(4, 8) is ball
    with pytest.raises(ValueError, match="read-only"):
        ball[0, 0] = 0
    # detect_residual filters a copy, never the shared table
    detect_residual(PumpAssignment(omega_p=SET_A), max_order=8)
    assert _relation_candidates(4, 8) is ball and not ball.flags.writeable


def box_walk(omega: tuple[float, ...], max_order: int) -> list[tuple]:
    """Reference enumeration: walk the (2 max_order + 1)^n box vector by
    vector, keep the primitive, sign-normalised relations, and sum n_j w_j
    left to right on Python ints (on a common grid) or floats."""
    ints = _exact_rescale(omega)
    found = []
    for coeffs in itertools.product(range(-max_order, max_order + 1), repeat=len(omega)):
        if not 0 < sum(map(abs, coeffs)) <= max_order:
            continue
        if math.gcd(*coeffs) != 1:
            continue
        if next(c for c in coeffs if c != 0) < 0:
            continue
        if ints is not None:
            if sum(c * k for c, k in zip(coeffs, ints)) != 0:
                continue
            residual = 0.0
        else:
            residual = abs(sum(c * w for c, w in zip(coeffs, omega)))
            if residual >= RESONANCE_TOL:
                continue
        found.append((coeffs, residual.hex(), classify_relation(coeffs)))
    found.sort(key=lambda f: (sum(map(abs, f[0])), f[0]))
    return found


OFF_GRID_DRAWS = np.random.default_rng(3).uniform(9.5, 10.0, (20, 3)) * TWO_PI * GHZ
REFERENCE_SETS = {
    "A": SET_A,
    "B": SET_B,
    "C": SET_C,
    "incommensurate": (np.pi * GHZ, np.e * GHZ, np.sqrt(2) * GHZ, 3.1 * GHZ),
    **{
        f"off-grid-{i}": tuple(2.0 * np.array([w1, w3 + w4 - w1, w3, w4]))
        for i, (w1, w3, w4) in enumerate(OFF_GRID_DRAWS)
    },
}


@pytest.mark.parametrize("name", sorted(REFERENCE_SETS))
def test_residuals_match_the_box_walk_bit_for_bit(name):
    omega = REFERENCE_SETS[name]
    # n = 1..4 are prefixes of the set; n = 5 adds the midpoint of pumps 1
    # and 3, planting w1 + w3 - 2 w5 = 0
    cases = [(omega[:n], 8) for n in range(1, 5)]
    cases.append((omega + ((omega[0] + omega[2]) / 2,), 5))
    for pumps, top in cases:
        # the filters do not depend on max_order, so lower orders are
        # prefixes of the top-order walk
        reference = box_walk(pumps, top)
        for order in range(1, top + 1):
            found = detect_residual(PumpAssignment(omega_p=pumps), max_order=order)
            got = [(r.coefficients, r.residual.hex(), r.classification) for r in found]
            assert got == [f for f in reference if sum(map(abs, f[0])) <= order]
            assert all(type(c) is int for r in found for c in r.coefficients)


def test_exact_branch_sums_grid_integers_beyond_int64():
    q1, q2, q3, q4 = 999983, 999979, 999961, 999959
    x1, x2 = 900001, 950003
    ratios = (1, x1 / q1, x2 / q1, (x1 + x2 - q1) / q1, 700001 / q2, 800011 / q3, 850009 / q4)
    pump = PumpAssignment(omega_p=tuple(20 * GHZ * r for r in ratios))
    assert max(_exact_rescale(pump.omega_p)) > 2**63
    found = detect_residual(pump, max_order=4)
    assert [(r.coefficients, r.residual) for r in found] == [((1, -1, -1, 1, 0, 0, 0), 0.0)]


def test_grid_keeps_a_near_resonance_under_the_tolerance():
    # the set sits on a common grid (denominator 21 * 999997); w2 + w3 - w4
    # misses it by one grid step, 10 GHz / (21 * 999997) = 476 Hz, which is
    # under RESONANCE_TOL, so it is reported with its float residual
    pump = PumpAssignment(omega_p=(10 * GHZ, 10 * GHZ / 3, 10 * GHZ / 7,
                                   10 * GHZ * 476189 / 999997))
    assert _exact_rescale(pump.omega_p) is not None
    found = {r.coefficients: r.residual for r in detect_residual(pump, 4)}
    assert sorted(found) == [(0, 1, 1, -1), (1, -3, 0, 0)]
    assert found[(1, -3, 0, 0)] == 0.0
    assert found[(0, 1, 1, -1)] == pytest.approx(2992, abs=1)


def test_residuals_of_the_nine_lattice_pumps_are_exact():
    freqs = lhz_frequencies(TWO_PI * 9.0e9, TWO_PI * 20.0e6)
    found = detect_residual(PumpAssignment(omega_p=tuple(freqs[i] for i in range(1, 10))), 4)
    coeffs = [r.coefficients for r in found]
    for plaquette in [(1, 1, -1, 0, 0, 0, 0, 0, -1), (1, 0, 0, 0, 0, 0, -1, 1, -1),
                      (1, 0, -1, 1, -1, 0, 0, 0, 0), (1, 0, 0, 0, -1, 1, -1, 0, 0)]:
        assert plaquette in coeffs
    assert all(r.residual == 0.0 for r in found)
    # every pump is 450 + k spacings: each relation holds on those integers
    grid = [450 + LHZ_MULTIPLIERS[i] for i in range(1, 10)]
    assert all(sum(c * k for c, k in zip(r, grid)) == 0 for r in coeffs)


def test_relation_set_invariant_under_common_shift():
    # shifting all pumps by the grid spacing preserves every sum-zero relation
    spacing = 2 * MHZ
    shifted = PumpAssignment(omega_p=tuple(w + 7 * spacing for w in SET_C))
    base = {r.coefficients for r in detect_residual(PumpAssignment(omega_p=SET_C), 4)
            if sum(r.coefficients) == 0}
    after = {r.coefficients for r in detect_residual(shifted, 4)
             if sum(r.coefficients) == 0}
    assert base == after


# --------------------------------------------------------------------------
# lattice plan
# --------------------------------------------------------------------------

def test_lhz_frequencies_distinct_and_consistent():
    freqs = lhz_frequencies(TWO_PI * 9.0e9, TWO_PI * 20.0e6)
    assert sorted(freqs) == list(range(1, 10))
    assert len(set(freqs.values())) == 9
    w = freqs
    for lhs, rhs in [((1, 2), (3, 9)), ((1, 8), (7, 9)), ((1, 4), (3, 5)), ((1, 6), (7, 5))]:
        assert w[lhs[0]] + w[lhs[1]] == pytest.approx(w[rhs[0]] + w[rhs[1]], rel=1e-14)


def test_plan_has_no_violations_at_zero_tolerance():
    plan = lhz_plan(rows=4)
    assert plan.violations() == []
    assert all(p["residual"] == 0.0 for p in plan.plaquettes)


def test_plan_counts_and_pattern():
    plan = lhz_plan(rows=2)
    assert len(plan.plaquettes) == 4
    assert len(plan.sites) == 9
    assert plan.sites[(0, 0)] == LHZ_PATTERN[0][0]
    assert plan.sites[(3, 3) if (3, 3) in plan.sites else (2, 2)] in range(1, 10)


def test_plan_rejects_degenerate_lattice():
    with pytest.raises(ValueError, match="at least"):
        lhz_plan(rows=1)
    for bad in (2.5, 3.0, True, "3", None):
        with pytest.raises(ValueError, match="rows must be an integer"):
            lhz_plan(rows=bad)
    assert lhz_plan(rows=np.int64(3)) == lhz_plan(rows=3)


def test_injected_violation_is_caught():
    freqs = lhz_frequencies(TWO_PI * 9.0e9, TWO_PI * 20.0e6)
    freqs[2] += 5 * MHZ
    plan = lhz_plan(rows=4, frequencies=freqs)
    assert len(plan.violations()) > 0


def test_user_table_requires_full_index_set():
    freqs = lhz_frequencies(TWO_PI * 9.0e9, TWO_PI * 20.0e6)
    del freqs[5]
    with pytest.raises(ValueError, match="1..9"):
        lhz_plan(rows=2, frequencies=freqs)


def test_spurious_report_flags_only_negligible_conditions():
    plan = lhz_plan(rows=4)
    diamonds = [s for s in plan.spurious if not s["negligible"]]
    assert diamonds == []
    quadruples = [s for s in plan.spurious if s["negligible"]]
    assert len(quadruples) == 9


def test_spurious_report_flags_the_diamonds_of_a_tiny_spacing():
    # at a 100 Hz spacing every interior diamond meets a pairing within
    # RESONANCE_TOL; these are the SIGNIFICANT lines of
    # `kpokit pump-plan --spacing-mhz 0.0001`
    plan = lhz_plan(rows=3, spacing=TWO_PI * 100.0)
    diamonds = [s for s in plan.spurious if not s["negligible"]]
    assert [(s["kind"], s["center"]) for s in diamonds] == [
        ("third-order diamond", (1, 1)), ("third-order diamond", (2, 1)),
        ("third-order diamond", (1, 2)), ("third-order diamond", (2, 2))]
    assert diamonds[0]["condition"] == "w8+w3=w9+w4"
    assert sum(s["negligible"] for s in plan.spurious) == 9


def test_invalid_frequency_parameters():
    with pytest.raises(ValueError):
        lhz_frequencies(0.0, TWO_PI * 20e6)
    with pytest.raises(ValueError):
        lhz_frequencies(TWO_PI * 9e9, -1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            lhz_frequencies(bad, TWO_PI * 20e6)
        with pytest.raises(ValueError, match="finite"):
            lhz_frequencies(TWO_PI * 9e9, bad)


@pytest.mark.parametrize("base, spacing, distinct", [
    (TWO_PI * 9e9, 1e-294, 1), (TWO_PI * 9e9, 4e-6, 7), (1.7e308, 1e307, 1),
    (1.7e308, 1e306, 8)],
    ids=["below-an-ulp", "near-an-ulp", "sums-overflow", "last-sum-overflows"])
def test_lhz_frequencies_refuse_a_table_with_coinciding_pumps(base, spacing, distinct):
    # each table was returned before: nine equal pumps for the first, an
    # infinite one for the last
    with pytest.raises(ValueError, match=f"give {distinct} distinct finite pump frequencies"):
        lhz_frequencies(base, spacing)


def test_user_table_rejects_non_finite_frequencies():
    for bad in (math.nan, math.inf, -math.inf):
        freqs = lhz_frequencies(TWO_PI * 9.0e9, TWO_PI * 20.0e6)
        freqs[4] = bad
        with pytest.raises(ValueError, match="finite"):
            lhz_plan(rows=3, frequencies=freqs)
