"""Pump-frequency classification and lattice plan generation."""

import numpy as np
import pytest

from kpokit.constants import GHZ, MHZ, TWO_PI
from kpokit.pumpplan import (
    LHZ_PATTERN,
    PumpAssignment,
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
    with pytest.raises(ValueError):
        PumpAssignment(omega_p=(1.0, 2.0), theta_p=(0.0,))
    p = PumpAssignment(omega_p=(1.0, 2.0, 3.0, 4.0), theta_p=(0.1, 0.2, 0.3, 0.4))
    assert p.theta_p_aggregate == pytest.approx(0.1 + 0.2 - 0.3 - 0.4)


def test_mixing_pairings_on_reference_sets():
    assert check_mixing(PumpAssignment(omega_p=SET_A)) == ["12|34"]
    assert check_mixing(PumpAssignment(omega_p=SET_B)) == []
    assert check_mixing(PumpAssignment(omega_p=SET_C)) == ["12|34"]


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
    assert plan.violations(tol=0.0) == [] or all(
        p["residual"] == 0.0 for p in plan.plaquettes
    )
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


def test_invalid_frequency_parameters():
    with pytest.raises(ValueError):
        lhz_frequencies(0.0, TWO_PI * 20e6)
    with pytest.raises(ValueError):
        lhz_frequencies(TWO_PI * 9e9, -1.0)
