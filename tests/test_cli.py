"""Command-line interface: output format, determinism, and error paths."""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from kpokit.cli import ERROR_PREFIX, main

SQUID_20MHZ_PH = 406.6059182   # 10 GHz with 500 fF / 100 pH
SQUID_RETUNED_PH = 187.2019326  # same frequency with a 1500 nA junction in series


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _data_lines(text):
    return [l for l in text.splitlines() if l and not l.startswith("#")]


def _write_netlist(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def _coupler_netlist(tmp_path):
    doc = {
        "nodes": ["q"],
        "ground": "gnd",
        "capacitors": [{"a": "q", "b": "gnd", "f_farads": 500.0}],
        "branches": [
            {
                "node": "q",
                "element": {"kind": "squid", "l_j_ph": SQUID_20MHZ_PH},
                "l_henries": 100.0,
            }
        ],
    }
    return _write_netlist(tmp_path / "coupler.json", doc)


def _plaquette_netlist(tmp_path):
    stack = {
        "kind": "series",
        "elements": [
            {"kind": "squid", "l_j_ph": SQUID_RETUNED_PH},
            {"kind": "junction", "i0_na": 1500.0},
        ],
    }
    squid = {"kind": "squid", "l_j_ph": SQUID_20MHZ_PH}
    doc = {
        "nodes": ["q1", "q2", "q3", "q4"],
        "ground": "gnd",
        "capacitors": [
            {"a": f"q{i}", "b": "gnd", "f_farads": 500.0} for i in range(1, 5)
        ],
        "branches": [
            {"node": "q1", "element": stack, "l_henries": 100.0},
            {"node": "q2", "element": squid, "l_henries": 100.0},
            {"node": "q3", "element": squid, "l_henries": 100.0},
            {"node": "q4", "element": stack, "l_henries": 100.0},
        ],
    }
    return _write_netlist(tmp_path / "plaquette.json", doc)


def _unit_netlist(tmp_path, c_c_ff=1.0):
    doc = {
        "nodes": ["q1", "q2", "q3", "q4", "c5", "c6"],
        "ground": "gnd",
        "capacitors": [
            {"a": f"q{i}", "b": "gnd", "f_farads": 500.0} for i in range(1, 5)
        ]
        + [
            {"a": "c5", "b": "c6", "f_farads": 500.0},
            {"a": "q1", "b": "c5", "f_farads": c_c_ff},
            {"a": "q2", "b": "c5", "f_farads": c_c_ff},
            {"a": "q3", "b": "c6", "f_farads": c_c_ff},
            {"a": "q4", "b": "c6", "f_farads": c_c_ff},
        ],
    }
    return _write_netlist(tmp_path / "unit.json", doc)


# --------------------------------------------------------------------------
# general behaviour
# --------------------------------------------------------------------------

def test_repeat_runs_byte_identical(capsys):
    _, first, _ = _run(capsys, ["sweep", "--points", "5"])
    _, second, _ = _run(capsys, ["sweep", "--points", "5"])
    assert first == second


def test_metadata_header_present(capsys):
    _, out, _ = _run(capsys, ["sweep", "--points", "3"])
    header = [l for l in out.splitlines() if l.startswith("#")]
    assert any("command: sweep" in l for l in header)
    assert any(l.startswith("# config: ") for l in header)


def test_errors_go_to_stderr_with_prefix_and_exit_2(capsys):
    code, out, err = _run(capsys, ["sweep", "--start-mhz", "100", "--stop-mhz", "50"])
    assert code == 2
    assert out == ""
    assert err.startswith(f"{ERROR_PREFIX}: ")


def test_missing_file_reported(capsys):
    code, _, err = _run(capsys, ["quantize", "/nonexistent/netlist.json"])
    assert code == 2
    assert ERROR_PREFIX in err


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "kpokit.cli", "boltzmann"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "state,probability" in proc.stdout


SCIPY_GUARD = """
import sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import kpokit
import kpokit.cli
assert scipy_modules() == [], scipy_modules()
assert kpokit.cli.main(["boltzmann"]) == 0
assert scipy_modules() == [], scipy_modules()

# a gap scan within oracle.DENSE_LIMIT loads no SciPy module either
import numpy as np
from kpokit.constants import GHZ, MHZ
omega = np.array([10.0, 9.7, 9.9, 9.8]) * GHZ
h = np.full((4, 4), 5.0 * MHZ)
np.fill_diagonal(h, 0.0)
result = kpokit.four_body_from_gap(
    kpokit.ModeSpectrum(omega=omega, kerr=np.array([5.1, 20.0, 20.0, 5.1]) * MHZ),
    kpokit.CouplingGraph(h=h), d=3, scan_halfwidth=2 * MHZ, n_scan=11,
)
assert result["h_eff"] > 0.0, result["h_eff"]
assert scipy_modules() == [], scipy_modules()

# nor does a 2,401-state Hamiltonian (d = 7), its dressed frequencies, the
# Kerr-dressed estimate, or an oracle run refused above DENSE_LIMIT
spectrum = kpokit.ModeSpectrum(omega=omega, kerr=np.array([5.1, 20.0, 20.0, 5.1]) * MHZ)
ham = kpokit.build_hamiltonian(spectrum, kpokit.CouplingGraph(h=h), d=7)
assert ham.dimension == 2401 and len(ham.even) + len(ham.odd) == 2401
assert kpokit.dressed_frequencies_exact(ham).shape == (4,)
assert kpokit.four_body_kerr_dressed(spectrum, kpokit.CouplingGraph(h=h)) > 0.0
assert kpokit.cli.main(["oracle", "--truncation", "9"]) == 2
assert scipy_modules() == [], scipy_modules()
"""


def test_no_scipy_module_is_loaded():
    # a fresh interpreter: this test process has SciPy loaded already
    proc = subprocess.run([sys.executable, "-c", SCIPY_GUARD], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--start-mhz", "nan"],
        ["sweep", "--stop-mhz", "inf"],
        ["boltzmann", "--eta", "nan"],
        ["parity", "--h4-mhz", "nan"],
        ["pump-plan", "--spacing-mhz", "nan"],
    ],
    ids=["sweep-start-nan", "sweep-stop-inf", "boltzmann-eta-nan", "parity-h4-nan",
         "pump-plan-spacing-nan"],
)
def test_non_finite_numbers_rejected(capsys, argv):
    code, out, err = _run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"{ERROR_PREFIX}: {argv[1]} must be finite")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["boltzmann", "--nu", "0,0"], "--nu needs four"),
        (["boltzmann", "--nu", "0,0,0,inf"], "--nu values must be finite"),
        (["parity", "--alpha", "5.9,4.5,1.3"], "--alpha needs four"),
        (["parity", "--alpha", "5.9,nan,1.3,5.3"], "--alpha values must be finite"),
    ],
    ids=["nu-short", "nu-inf", "alpha-short", "alpha-nan"],
)
def test_malformed_number_lists_rejected(capsys, argv, message):
    code, out, err = _run(capsys, argv)
    assert code == 2
    assert out == ""
    assert message in err


@pytest.mark.parametrize("points", ["0", "1"])
def test_parity_needs_two_points(capsys, points):
    code, out, err = _run(capsys, ["parity", "--points", points])
    assert code == 2
    assert out == ""
    assert "at least 2 points" in err


# --------------------------------------------------------------------------
# quantize / couplings
# --------------------------------------------------------------------------

def _branch_netlist(element, **branch):
    return {
        "nodes": ["q"],
        "ground": "gnd",
        "capacitors": [{"a": "q", "b": "gnd", "f_farads": 500.0}],
        "branches": [dict({"node": "q", "element": element, "l_henries": 100.0}, **branch)],
    }


@pytest.mark.parametrize(
    "doc, key",
    [
        ({"nodes": ["q"], "ground": "gnd", "capacitors": [{"a": "q", "b": "gnd"}]},
         "f_farads"),
        ({"nodes": ["q"], "ground": "gnd",
          "capacitors": [{"a": "q", "b": "gnd", "f_farads": 500.0}],
          "branches": [{"element": {"kind": "squid", "l_j_ph": 400.0}}]},
         "node"),
        (_branch_netlist({"kind": "snail", "i0_na": 3750.0, "n": 2}), "gamma"),
    ],
    ids=["capacitor", "branch", "snail"],
)
def test_netlist_missing_key_named(tmp_path, capsys, doc, key):
    code, out, err = _run(capsys, ["quantize", _write_netlist(tmp_path / "bad.json", doc)])
    assert code == 2
    assert out == ""
    assert err.startswith(ERROR_PREFIX)
    assert f"missing required key {key!r}" in err


SQUID_BRANCH = _branch_netlist({"kind": "squid", "l_j_ph": 400.0})


@pytest.mark.parametrize(
    "doc, message",
    [
        (dict(SQUID_BRANCH, capacitors=[{"a": "q", "b": "gnd", "f_farads": "500"}]),
         "netlist capacitor 'f_farads' must be a number, got '500'"),
        (dict(SQUID_BRANCH, capacitors=[["q", "gnd", 500.0]]),
         "netlist capacitor must be a JSON object"),
        (dict(SQUID_BRANCH, nodes=5), "netlist 'nodes' must be a list, got 5"),
        (_branch_netlist({"kind": "squid", "l_j_ph": 400.0}, l_henries=None),
         "netlist branch 'l_henries' must be a number, got None"),
        (_branch_netlist({"kind": "snail", "i0_na": 3750.0, "gamma": 0.3, "n": "2"}),
         "netlist snail element 'n' must be a number, got '2'"),
        (_branch_netlist({"kind": "series", "elements": "ab"}),
         "netlist series element 'elements' must be a list, got 'ab'"),
        (_branch_netlist({"kind": "series",
                          "elements": [{"kind": "snail", "i0_na": 3750.0, "gamma": 0.3}]}),
         "a series stack holds SQUIDs and junctions, not a SNAIL"),
        (dict(SQUID_BRANCH, nodes=[["q"]]),
         "netlist 'nodes' must hold node names as strings, got ['q']"),
        (_branch_netlist({"kind": "squid", "l_j_ph": 400.0}, node=[["q"]]),
         "netlist branch 'node' must hold node names as strings, got ['q']"),
    ],
    ids=["f-farads-string", "capacitor-list", "nodes-number", "l-henries-null",
         "snail-n-string", "elements-string", "snail-in-series", "node-name-list",
         "branch-node-name-list"],
)
def test_netlist_wrong_types_rejected(tmp_path, capsys, doc, message):
    code, out, err = _run(capsys, ["quantize", _write_netlist(tmp_path / "bad.json", doc)])
    assert code == 2
    assert out == ""
    assert err.startswith(f"{ERROR_PREFIX}: {message}")


DATA_DIR = Path(__file__).parent / "data"


@pytest.mark.parametrize("effective", [False, True], ids=["quantize", "effective"])
@pytest.mark.parametrize(
    "where, message",
    [("capacitor", "capacitance q1-gnd must be positive and finite, got nan"),
     ("branch", "series inductance must be non-negative and finite, got nan")],
)
def test_netlist_nan_values_rejected(tmp_path, capsys, effective, where, message):
    doc = json.loads((DATA_DIR / "unit.json").read_text())
    if where == "capacitor":
        doc["capacitors"][0]["f_farads"] = math.nan
    else:
        doc["branches"][0]["l_henries"] = math.nan
    # json.dumps writes the JSON literal NaN, which load_netlist reads back as nan
    argv = ["quantize", *(["--effective"] if effective else []),
            _write_netlist(tmp_path / "nan.json", doc)]
    code, out, err = _run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"{ERROR_PREFIX}: {message}")


@pytest.mark.parametrize(
    "column, value, message",
    [(3, "nan", "probabilities must be finite"), (0, "inf", "phases theta_d4 must be finite")],
    ids=["probability-nan", "theta-inf"],
)
def test_fit_rejects_non_finite_data(tmp_path, capsys, column, value, message):
    lines = (DATA_DIR / "probabilities.csv").read_text().splitlines()
    fields = lines[1].split(",")
    fields[column] = value
    lines[1] = ",".join(fields)
    path = tmp_path / "probs.csv"
    path.write_text("\n".join(lines) + "\n")
    code, out, err = _run(capsys, ["fit", str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith(f"{ERROR_PREFIX}: {message}")


def test_quantize_coupler(tmp_path, capsys):
    code, out, _ = _run(capsys, ["quantize", _coupler_netlist(tmp_path)])
    assert code == 0
    rows = [l.split(",") for l in _data_lines(out)[1:]]
    assert rows[0][0] == "q"
    assert float(rows[0][1]) == pytest.approx(10.0, rel=1e-6)
    assert float(rows[0][2]) == pytest.approx(20.0297287, rel=1e-6)


def test_quantize_plaquette_kerr_column(tmp_path, capsys):
    code, out, _ = _run(capsys, ["quantize", _plaquette_netlist(tmp_path)])
    assert code == 0
    kerr = [float(l.split(",")[2]) for l in _data_lines(out)[1:]]
    assert kerr == pytest.approx([5.101655, 20.0297287, 20.0297287, 5.101655], rel=1e-5)


def test_quantize_missing_ground_capacitor(tmp_path, capsys):
    doc = {
        "nodes": ["q", "r"],
        "ground": "gnd",
        "capacitors": [{"a": "q", "b": "r", "f_farads": 100.0},
                       {"a": "r", "b": "gnd", "f_farads": 100.0}],
        "branches": [
            {"node": "q", "element": {"kind": "squid", "l_j_ph": 400.0},
             "l_henries": 100.0}
        ],
    }
    code, _, err = _run(capsys, ["quantize", _write_netlist(tmp_path / "bad.json", doc)])
    assert code == 2
    assert "no capacitor to ground" in err


def test_couplings_unit_circuit(tmp_path, capsys):
    code, out, _ = _run(
        capsys,
        [
            "couplings", _unit_netlist(tmp_path),
            "--kpo-nodes", "q1,q2,q3,q4",
            "--coupler-nodes", "c5,c6",
            "--freq-ghz", "10,10,10,10",
            "--coupler-freq-ghz", "10",
        ],
    )
    assert code == 0
    rows = {l.split(",")[0]: l.split(",")[1:] for l in _data_lines(out)[1:]}
    # all four coupler couplings present and near the 5 MHz design value
    for j in range(1, 5):
        exact, approx = (float(x) for x in rows[f"g{j}"])
        assert approx == pytest.approx(5.0, rel=1e-9)
        assert exact == pytest.approx(5.0, rel=0.01)


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--freq-ghz", "10,10,10,10", "--coupler-freq-ghz", "0"], "coupler frequency"),
        (["--freq-ghz", "10,10,10"], "--freq-ghz needs four"),
        (["--freq-ghz", "10,10,nan,10"], "--freq-ghz values must be finite"),
    ],
    ids=["coupler-zero", "freq-short", "freq-nan"],
)
def test_couplings_bad_frequencies_rejected(tmp_path, capsys, extra, message):
    code, out, err = _run(
        capsys,
        ["couplings", _unit_netlist(tmp_path), "--kpo-nodes", "q1,q2,q3,q4",
         "--coupler-nodes", "c5,c6", *extra],
    )
    assert code == 2
    assert out == ""
    assert message in err


# --------------------------------------------------------------------------
# sweep
# --------------------------------------------------------------------------

def _sweep_table(capsys, argv):
    _, out, _ = _run(capsys, argv)
    lines = _data_lines(out)
    header = lines[0].split(",")
    data = np.array([[float(x) for x in l.split(",")] for l in lines[1:]])
    return header, data


def test_sweep_anchor_row(capsys):
    header, data = _sweep_table(
        capsys, ["sweep", "--start-mhz", "50", "--stop-mhz", "100", "--points", "2"]
    )
    row = dict(zip(header, data[0]))
    assert row["eps_MHz"] == 50.0
    assert row["g4_kpo_like"] == pytest.approx(1.0e-3, rel=0.02)
    assert row["h4_tilde"] == pytest.approx(2.0e-2, rel=1e-6)
    assert row["h4_squid"] == pytest.approx(1.98667e-2, rel=1e-4)


def test_sweep_slopes_and_ratio(capsys):
    header, data = _sweep_table(
        capsys,
        ["sweep", "--start-mhz", "20", "--stop-mhz", "500", "--points", "25", "--log"],
    )
    cols = {name: data[:, i] for i, name in enumerate(header)}
    log_eps = np.log(cols["eps_MHz"])
    slope_g4 = np.polyfit(log_eps, np.log(cols["g4_kpo_like"]), 1)[0]
    slope_h4 = np.polyfit(log_eps, np.log(cols["h4_tilde"]), 1)[0]
    assert slope_g4 == pytest.approx(-4.0, abs=0.01)
    assert slope_h4 == pytest.approx(-3.0, abs=0.01)
    ratio = cols["h4_squid"] / cols["h4_tilde"]
    assert np.allclose(ratio, 0.9933, atol=0.001)
    # stronger Kerr wins for the coupler-mediated path
    assert np.all(cols["g4_transmon_like"] > cols["g4_kpo_like"])


# --------------------------------------------------------------------------
# snail / pump-plan
# --------------------------------------------------------------------------

def test_snail_sweep_output(capsys):
    code, out, _ = _run(capsys, ["snail", "--points", "5"])
    assert code == 0
    lines = _data_lines(out)
    assert lines[0] == "flux_turns,freq_GHz,kerr_MHz"
    kerr = [float(l.split(",")[2]) for l in lines[1:]]
    # the default window straddles the Kerr sign change near 0.47 turns
    assert kerr[-1] < 0
    assert kerr == sorted(kerr, reverse=True)
    assert any("fit: slope" in l for l in out.splitlines() if l.startswith("#"))


@pytest.mark.parametrize("l_ph, shown", [("-150", "-1.5e-10"), ("-5000", "-5e-09")],
                         ids=["small", "past-the-junction"])
def test_snail_rejects_a_negative_inductance(capsys, l_ph, shown):
    # before, -150 pH printed a table and -5000 pH ended in a math domain error
    code, out, err = _run(capsys, ["snail", "--l-ph", l_ph])
    assert code == 2
    assert out == ""
    assert err == (f"{ERROR_PREFIX}: geometric inductance must be non-negative and finite, "
                   f"got {shown}\n")


@pytest.mark.parametrize("argv", [["--flux-stop", "1e8"], ["--flux-start=-1e8"]],
                         ids=["stop", "start"])
def test_snail_refuses_a_flux_beyond_the_step_bound(capsys, argv):
    # 1e8 turns would ask for a flux grid of about 1.3e10 points
    code, out, err = _run(capsys, ["snail", *argv])
    assert code == 2
    assert out == ""
    assert err.startswith(f"{ERROR_PREFIX}: external flux phase ")
    assert "rad is beyond +-5000 rad (about 796 flux quanta)" in err


def test_pump_plan_no_violations(capsys):
    code, out, _ = _run(capsys, ["pump-plan", "--rows", "4"])
    assert code == 0
    assert "plaquette violations: 0" in out
    lines = _data_lines(out)
    assert len(lines) == 1 + 25  # header + (rows+1)^2 sites


def test_pump_plan_rejects_small_lattice(capsys):
    code, _, err = _run(capsys, ["pump-plan", "--rows", "1"])
    assert code == 2
    assert "at least" in err


# --------------------------------------------------------------------------
# parity / boltzmann / fit / oracle
# --------------------------------------------------------------------------

def test_parity_defaults(capsys):
    code, out, _ = _run(capsys, ["parity"])
    assert code == 0
    lines = _data_lines(out)
    first = [float(x) for x in lines[1].split(",")]
    assert first[1] == pytest.approx(0.641, abs=1e-6)
    mid = [float(x) for x in lines[1 + 40].split(",")]  # theta_p = 2*pi
    assert mid[1] == pytest.approx(0.359, abs=0.001)


def test_boltzmann_uniform(capsys):
    code, out, _ = _run(capsys, ["boltzmann"])
    assert code == 0
    lines = _data_lines(out)
    probs = [float(l.split(",")[1]) for l in lines[1:]]
    assert len(probs) == 16
    assert all(p == pytest.approx(1 / 16, rel=1e-9) for p in probs)


def test_boltzmann_eta_splits_parity(capsys):
    _, out, _ = _run(capsys, ["boltzmann", "--eta", "-0.29"])
    lines = _data_lines(out)
    table = {l.split(",")[0]: float(l.split(",")[1]) for l in lines[1:]}
    even = sum(p for s, p in table.items() if s.count("-") % 2 == 0)
    assert even == pytest.approx(1 / (1 + math.exp(-2 * 0.29)), rel=1e-6)


def test_fit_round_trip_via_file(tmp_path, capsys):
    from kpokit.spinmodel import (
        SPIN_STATES,
        EffectiveEnergyModel,
        boltzmann_probabilities,
    )

    model = EffectiveEnergyModel(eta=-0.3, nu=(0.1, -0.2, 0.05, 0.4))
    thetas = np.linspace(0.05, 2 * math.pi - 0.05, 20)
    path = tmp_path / "probs.csv"
    with open(path, "w") as fh:
        fh.write("theta," + ",".join("s" + str(i) for i in range(16)) + "\n")
        for t in thetas:
            probs = boltzmann_probabilities(model, theta_d4=t)
            fh.write(",".join([f"{t:.12g}"] + [f"{probs[s]:.12g}" for s in SPIN_STATES]) + "\n")
    code, out, _ = _run(capsys, ["fit", str(path)])
    assert code == 0
    table = {l.split(",")[0]: float(l.split(",")[1]) for l in _data_lines(out)[1:]}
    assert table["eta"] == pytest.approx(-0.3, abs=1e-6)
    assert table["nu4"] == pytest.approx(0.4, abs=1e-6)
    assert table["mu12"] == pytest.approx(0.0, abs=1e-6)


def test_fit_rejects_malformed_rows(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("0.1,0.5,0.5\n")
    code, _, err = _run(capsys, ["fit", str(path)])
    assert code == 2
    assert "expected 17" in err


def test_fit_rejects_empty_file(tmp_path, capsys):
    path = tmp_path / "empty.csv"
    path.write_text("# nothing here\n")
    code, _, err = _run(capsys, ["fit", str(path)])
    assert code == 2
    assert "no rows" in err


def test_oracle_above_dense_limit_rejected(capsys):
    # 9**4 states: the even block of 3,281 exceeds oracle.DENSE_LIMIT
    code, out, err = _run(capsys, ["oracle", "--truncation", "9"])
    assert code == 2
    assert out == ""
    assert err.startswith(f"{ERROR_PREFIX}: ")
    assert "above DENSE_LIMIT = 2048" in err


def test_oracle_metadata_and_scan(capsys):
    code, out, _ = _run(capsys, ["oracle", "--truncation", "3", "--scan-mhz", "3"])
    assert code == 0
    meta = {
        l.split(":")[0].lstrip("# "): l.split(":", 1)[1].strip()
        for l in out.splitlines()
        if l.startswith("#") and ":" in l
    }
    h_eff = float(meta["|h_eff|_MHz"])
    perturbative = float(meta["perturbative_MHz"])
    # 19.8667 kHz at 50 MHz detuning, scaled by (50/100)^3 at the default
    assert perturbative == pytest.approx(0.00248333, rel=1e-4)
    assert 0.0 < h_eff < 0.1
    lines = _data_lines(out)
    assert lines[0] == "scan_offset_MHz,gap_MHz"
    assert len(lines) == 1 + 41


@pytest.mark.parametrize("scan_mhz", ["0", "-2"])
def test_oracle_rejects_non_positive_scan_width(capsys, scan_mhz):
    code, out, err = _run(capsys, ["oracle", "--truncation", "3", "--scan-mhz", scan_mhz])
    assert code == 2
    assert out == ""
    assert err.startswith(f"{ERROR_PREFIX}: scan half-width must be positive")


def test_oracle_rejects_a_scan_too_narrow_to_see_the_crossing(capsys):
    # +-1e-9 MHz: the gaps vary by ~0.01 rad/s, and half the unshifted gap
    # (39x the avoided-crossing value) must not be reported as |h_eff|
    code, out, err = _run(capsys, ["oracle", "--truncation", "3", "--scan-mhz", "1e-9"])
    assert code == 2
    assert out == ""
    assert err.startswith(f"{ERROR_PREFIX}: ")
    assert "widen scan_halfwidth" in err
