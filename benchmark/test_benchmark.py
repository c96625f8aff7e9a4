"""The benchmark's own tests: each check rejects a corrupted result.

    PYTHONPATH=src python3 -m pytest -q benchmark
"""

import contextlib
import io
import math
import os
import sys

import numpy as np
import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))
sys.path.insert(0, BENCH_DIR)

import kpokit.cli  # noqa: E402

import checks  # noqa: E402
import drift  # noqa: E402
import inputs  # noqa: E402
import tasks  # noqa: E402


def test_correction_returns_raw_time_at_nominal_reference_speed():
    nominal = drift.NOMINAL_REF_S
    assert drift.correct(1.2345, nominal, nominal) == 1.2345
    assert drift.correct(1.0, 2.0 * nominal, 2.0 * nominal) == pytest.approx(0.5)
    assert drift.correct(1.0, nominal, 3.0 * nominal) == pytest.approx(0.5)


def test_inputs_depend_only_on_seed_and_index():
    a, b = inputs.gap_scan_input(7, 3), inputs.gap_scan_input(7, 3)
    assert all(np.array_equal(a[k], b[k]) for k in ("omega", "h"))
    assert not np.array_equal(a["h"], inputs.gap_scan_input(8, 3)["h"])
    assert np.array_equal(inputs.design_input(7, 3)["fit_table"],
                          inputs.design_input(7, 3)["fit_table"])


@pytest.fixture(scope="module")
def gap_scan():
    inp = inputs.gap_scan_input(0, 0)
    return inp, tasks.gap_scan_task(inp)


def test_gap_check_accepts_kpokit_and_rejects_a_gap_off_by_1e_3(gap_scan):
    inp, out = gap_scan
    assert checks.gap_scan_problems(inp, out) == []
    scan = dict(out["scan"], gap_min=out["scan"]["gap_min"] * (1 + 1e-3))
    scan["h_eff"] = scan["gap_min"] / 2.0
    assert any("own diagonalization" in p
               for p in checks.gap_scan_problems(inp, dict(out, scan=scan)))


def test_gap_check_rejects_h_eff_apart_from_gap_and_dressed_estimate(gap_scan):
    inp, out = gap_scan
    scan = dict(out["scan"], h_eff=out["scan"]["h_eff"] * (1 + 1e-12))
    assert "h_eff != gap_min / 2" in checks.gap_scan_problems(inp, dict(out, scan=scan))
    far = dict(out, kerr_dressed=out["kerr_dressed"] * 1.3)
    assert any("15%" in p for p in checks.gap_scan_problems(inp, far))


def test_gap_check_rejects_a_minimum_on_the_scan_edge(gap_scan):
    inp, out = gap_scan
    gaps = np.array(out["scan"]["gaps"], dtype=float)
    gaps[0] = 0.0
    scan = dict(out["scan"], gaps=gaps)
    assert "scan minimum is not interior" in checks.gap_scan_problems(inp, dict(out, scan=scan))


GRID_PUMPS = tuple(2.0 * math.pi * np.array([9.0, 9.3, 9.1, 9.2]) * 1e9)


def test_audit_check_rejects_a_dropped_or_sign_flipped_relation():
    truth = checks.true_relations(GRID_PUMPS, 8)
    returned = [r.coefficients for r in
                kpokit.detect_residual(kpokit.PumpAssignment(omega_p=GRID_PUMPS), 8)]
    assert inputs.PLANTED_RELATION in returned
    assert checks.audit_problems(returned, truth) == ([], [])

    dropped = [r for r in returned if r != inputs.PLANTED_RELATION]
    assert checks.audit_problems(dropped, truth) == ([], [inputs.PLANTED_RELATION])
    flipped = [tuple(-c for c in r) if r == returned[-1] else r for r in returned]
    problems, _ = checks.audit_problems(flipped, truth)
    assert any("sign-normalised" in p for p in problems)
    problems, _ = checks.audit_problems(returned + [returned[0]], truth)
    assert "duplicate relations" in problems
    problems, _ = checks.audit_problems(returned + [(1, 2, 0, 0)], truth)
    assert any("not resonant" in p for p in problems)


def test_audit_pool_is_off_grid_keeps_the_planted_relation_and_ignores_the_seed():
    assert len(set(inputs.AUDIT_POOL)) == inputs.AUDIT_DRAWS - len(inputs.AUDIT_FOUND_DRAWS)
    for pumps in inputs.AUDIT_POOL:
        assert checks.true_relations(pumps, inputs.AUDIT_ORDER) == {inputs.PLANTED_RELATION}
    assert [inputs.design_input(7, i)["audit_pumps"] for i in range(3)] == [
        inputs.design_input(8, i)["audit_pumps"] for i in range(3)] == list(inputs.AUDIT_POOL[:3])


@pytest.fixture(scope="module")
def design():
    inp = inputs.design_input(0, 0)
    return inp, tasks.design_task(inp)


def test_design_check_accepts_kpokit(design):
    assert checks.design_problems(*design) == []


def test_design_check_rejects_a_flipped_four_body_sign(design):
    inp, out = design
    flipped = dict(out, four_body=-out["four_body"])
    assert any("a1+a2+a3a4" in p for p in checks.design_problems(inp, flipped))


def test_design_check_rejects_wrong_modes_parity_and_fit(design):
    inp, out = design
    squid = out["squids"][0]
    moved = dict(out, squids=[type(squid)(omega=squid.omega * (1 + 1e-9), kerr=squid.kerr),
                              out["squids"][1]])
    assert any("KPO 2" in p for p in checks.design_problems(inp, moved))
    even = np.array(out["even"])
    even[0] += 1e-6
    assert any("even(0)" in p for p in checks.design_problems(inp, dict(out, even=even)))
    lam = dict(out["fit"].lam, **{"234": out["fit"].lam["234"] + 1e-6})
    fit = type(out["fit"])(eta=out["fit"].eta, lam=lam, mu=out["fit"].mu, nu=out["fit"].nu)
    assert any("seeded" in p for p in checks.design_problems(inp, dict(out, fit=fit)))
    terms = dict(out["poly_terms"])
    key = next(k for k in terms if k[0] != k[1])
    terms[key] *= 1.0 + 1e-6
    assert any("Hermitian" in p for p in checks.design_problems(inp, dict(out, poly_terms=terms)))


def _cli_stdout(argv: list[str]) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert kpokit.cli.main(argv) == 0
    return out.getvalue().encode()


@pytest.mark.parametrize("name", ["sweep", "boltzmann", "pump-plan", "parity"])
def test_cli_check_rejects_an_altered_row(name):
    argv = dict(tasks.cli_commands({"netlist": "", "table": "", "malformed": ""}))[name]
    stdout = _cli_stdout(argv)
    assert checks.cli_problems(name, stdout, {}) == []
    lines = stdout.decode().splitlines()
    row = max(i for i, line in enumerate(lines) if not line.startswith("#"))
    if name == "pump-plan":
        lines = [line.replace("violations: 0", "violations: 1") for line in lines]
    else:
        cells = lines[row].split(",")
        cells[-1] = repr(float(cells[-1]) * 1.01)
        lines[row] = ",".join(cells)
    altered = ("\n".join(lines) + "\n").encode()
    assert checks.cli_problems(name, altered, {}) != []
    assert checks.cli_problems(name, b"\n".join(stdout.splitlines()[:-1]), {}) != []


def test_cli_checks_of_generated_files(tmp_path):
    ctx = inputs.cli_input(5, str(tmp_path))
    paths = ctx["paths"]
    commands = dict(tasks.cli_commands(paths))
    for name in ("quantize", "couplings", "fit"):
        stdout = _cli_stdout(commands[name])
        assert checks.cli_problems(name, stdout, ctx) == []
    wrong = dict(ctx, fit_coeffs=ctx["fit_coeffs"] + 1e-5)
    assert checks.cli_problems("fit", _cli_stdout(commands["fit"]), wrong) != []


def test_malformed_inputs_must_end_in_kpokit_error_and_exit_2():
    assert checks.rejects_cleanly(2, b"KPOKIT-ERROR: netlist missing key\n")
    assert not checks.rejects_cleanly(1, b"Traceback ...\nKeyError: 'f_farads'\n")
    assert not checks.rejects_cleanly(0, b"")
