"""Command-line interface: output format, determinism, and error paths."""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from kpokit.cli import ERROR_PREFIX, PUMP_PLAN_MAX_ROWS, main

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


def test_module_entry_point():
    # `python -m kpokit.cli`; the installed `kpokit` script runs in CI
    proc = subprocess.run(
        [sys.executable, "-m", "kpokit.cli", "boltzmann"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "state,probability" in proc.stdout


@pytest.mark.parametrize(
    "argv, message",
    [
        (["oracel"], "argument command: invalid choice: 'oracel'"),
        ([], "the following arguments are required: command"),
        (["sweep", "--points"], "argument --points: expected one argument"),
        (["sweep", "--points", "abc"], "argument --points: invalid int value: 'abc'"),
        (["fit"], "the following arguments are required: data"),
        (["boltzmann", "--beta", "1"], "unrecognized arguments: --beta 1"),
        (["sweep", "--points", "1"], "sweep needs at least 2 points"),
    ],
    ids=["unknown-subcommand", "no-subcommand", "missing-value", "not-an-int",
         "missing-positional", "unknown-option", "sweep-one-point"],
)
def test_usage_errors_keep_the_error_contract(capsys, argv, message):
    # argparse's own errors end as any bad input does, as does an argument
    # argparse takes but the subcommand refuses: main returns 2
    code, out, err = _run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"{ERROR_PREFIX}: {message}")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [["--help"], ["oracle", "--help"]], ids=["top", "subcommand"])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: kpokit")


def test_negative_value_in_exponent_form(capsys):
    # before Python 3.13, argparse read -2.9e-1 as an unknown option
    code, exponent, _ = _run(capsys, ["boltzmann", "--eta", "-2.9e-1"])
    assert code == 0
    assert exponent == _run(capsys, ["boltzmann", "--eta", "-0.29"])[1]


@pytest.mark.parametrize(
    "argv, shown",
    [
        (["boltzmann", "--eta", "-inf"], "-inf"),
        (["boltzmann", "--eta", "-Infinity"], "-inf"),
        (["parity", "--h4-mhz", "-nan"], "nan"),
        (["parity", "--h4-mhz", "-NaN"], "nan"),
    ],
    ids=["eta-inf", "eta-infinity", "h4-nan", "h4-nan-mixed-case"],
)
def test_negative_non_finite_value_as_its_own_token(capsys, argv, shown):
    # argparse reads "-inf" and "-nan" as unknown options unless told otherwise
    code, out, err = _run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err == f"{ERROR_PREFIX}: {argv[1]} must be finite, got {shown}\n"


SCIPY_GUARD = """
import io
import sys
from contextlib import redirect_stdout

def loaded(package):
    return sorted(m for m in sys.modules if m == package or m.startswith(package + "."))

def scipy_modules():
    return loaded("scipy")

# no kpokit process generates dataclass code or parses exact fractions
UNUSED = ["dataclasses", "fractions"]

def unused_modules():
    return [m for m in UNUSED if m in sys.modules]

# the bare package loads none of its modules, nor NumPy
import kpokit
assert loaded("kpokit") == ["kpokit"], loaded("kpokit")
assert "numpy" not in sys.modules
import kpokit.cli
assert loaded("kpokit") == ["kpokit", "kpokit.cli", "kpokit.constants"], loaded("kpokit")
assert "numpy" not in sys.modules
assert unused_modules() == [], unused_modules()
# what the CLI imports besides kpokit, and NumPy, load neither
import argparse, csv, hashlib, numpy
assert unused_modules() == [], unused_modules()

# each subcommand loads only the library modules it uses; kpokit's modules
# are dropped before each, as if it ran in a fresh `kpokit` process
DATA = sys.argv[1]
PERTURBATION = ["operators", "perturbation", "pumpplan"]
LOADS = [
    (["quantize", f"{DATA}/unit.json"], ["elements", "netlist"]),
    (["couplings", f"{DATA}/unit.json", "--kpo-nodes", "q1,q2,q3,q4", "--coupler-nodes",
      "c5,c6", "--freq-ghz", "10,10,10,10"], ["elements", "netlist", *PERTURBATION]),
    (["sweep", "--points", "3"], ["elements", *PERTURBATION]),
    (["snail"], ["elements"]),
    (["pump-plan"], ["pumpplan"]),
    (["parity", "--points", "3"], ["spinmodel"]),
    (["boltzmann"], ["spinmodel"]),
    (["fit", f"{DATA}/probabilities.csv"], ["spinmodel"]),
    (["oracle", "--truncation", "3"], ["oracle", *PERTURBATION]),
]
for argv, modules in LOADS:
    for name in loaded("kpokit"):
        del sys.modules[name]
    import kpokit.cli
    with redirect_stdout(io.StringIO()):
        assert kpokit.cli.main(argv) == 0, argv
    expected = ["kpokit", "kpokit.cli", "kpokit.constants"] + [f"kpokit.{m}" for m in modules]
    assert loaded("kpokit") == sorted(expected), (argv, loaded("kpokit"))
    assert unused_modules() == [], (argv, unused_modules())
assert scipy_modules() == [], scipy_modules()

# a bare `import kpokit` reaches a module as an attribute
for name in loaded("kpokit"):
    del sys.modules[name]
import kpokit
assert kpokit.oracle is sys.modules["kpokit.oracle"]
import kpokit.cli
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
    # a fresh interpreter: this test process has SciPy and every kpokit module
    # loaded already
    data = Path(__file__).parent / "data"
    proc = subprocess.run([sys.executable, "-c", SCIPY_GUARD, str(data)], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr


# a branch that quantize or the netlist refuses, and the refusal naming its node
REFUSED_BRANCHES = {
    "linear-branch": {"node": "q3", "l_henries": 100.0},
    "ground-branch": {"node": "gnd", "l_henries": 100.0,
                      "element": {"kind": "squid", "l_j_ph": 400.0}},
}
REFUSALS = {
    "linear-branch": "branch on node 'q3' has no junction element: quantize reads junction "
                     "branches",
    "ground-branch": "branch references the ground node 'gnd': a branch to ground names its "
                     "other node alone",
}


# runs each argv of sys.argv[1] (JSON) through kpokit.cli.main in a process
# where any NumPy import raises, and prints their stdout, stderr and codes
NUMPY_BLOCKED = """
import io, json, sys
from contextlib import redirect_stderr, redirect_stdout

sys.modules["numpy"] = None
from kpokit.cli import main

results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""


def test_numpy_free_invocations_run_without_numpy(tmp_path, capsys):
    # quantize, pump-plan and the refused inputs use no array, so a `kpokit`
    # process of theirs must not pay for NumPy's import
    doc = json.loads((DATA_DIR / "unit.json").read_text())
    del doc["capacitors"][0]["f_farads"]
    refused = [_write_netlist(tmp_path / "missing-key.json", doc)]
    for name, branch in REFUSED_BRANCHES.items():
        doc = json.loads((DATA_DIR / "unit.json").read_text())
        doc["branches"].append(branch)
        refused.append(_write_netlist(tmp_path / f"{name}.json", doc))
    invocations = [
        ["quantize", str(DATA_DIR / "unit.json")],
        ["pump-plan"],
        *(["quantize", *flag, path] for path in refused for flag in ([], ["--effective"])),
        ["sweep", "--start-mhz", "nan"],
    ]
    proc = subprocess.run([sys.executable, "-c", NUMPY_BLOCKED, json.dumps(invocations)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    blocked = json.loads(proc.stdout)
    assert blocked == [list(_run(capsys, argv)) for argv in invocations]
    assert [code for code, _, _ in blocked] == [0, 0] + [2] * 7


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


@pytest.mark.parametrize(
    "argv, message",
    [
        (["parity", "--alpha", "1e200,1e200,1,1"], "not finite and nonzero"),
        (["parity", "--h4-mhz", "1e-320"], "not finite and nonzero"),
        (["boltzmann", "--eta", "1e308", "--nu", "1e308,-1e308,0,0"],
         "state energies are not finite"),
        (["snail", "--c-ff", "1e-300"], "C = 1e-315 F times L = 1.10441e-09 H underflows"),
        (["pump-plan", "--spacing-mhz", "1e-300"], "give 1 distinct finite pump frequencies"),
    ],
    ids=["alpha-overflows-h4", "h4-underflows-beta", "energies-overflow", "snail-c-l-underflows",
         "pump-plan-spacing-below-an-ulp"],
)
def test_overflow_fails_loudly(capsys, argv, message):
    # the first three printed nan probabilities with exit 0 before; the snail
    # sweep ended in a ZeroDivisionError traceback, and the pump plan printed
    # nine identical pumps with no violation
    code, out, err = _run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"{ERROR_PREFIX}: ")
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
        (_branch_netlist({"kind": "capacitor"}), "unknown element kind 'capacitor'"),
        (dict(SQUID_BRANCH, capacitors=[{"a": "q", "b": "gnd", "f_farads": 500.0},
                                        {"a": "q", "b": "q", "f_farads": 1.0}]),
         "capacitor shorted on node q"),
        (_branch_netlist({"kind": "squid", "l_j_ph": 400.0}, node="r"),
         "branch references unknown node 'r'"),
        (dict(SQUID_BRANCH, branches=[]), "netlist has no junction branches to quantize"),
        (dict(SQUID_BRANCH, capacitors=[{"a": "q", "b": "gnd", "f_farads": 1e-300}]),
         "resonance unreachable: C = 1e-315 F times L = 5e-10 H underflows"),
        # raised OverflowError from the cube of the junction inductance
        (_branch_netlist({"kind": "squid", "l_j_ph": 1e120}),
         "Kerr unreachable: junction inductance 1e+108 H"),
    ],
    ids=["f-farads-string", "capacitor-list", "nodes-number", "l-henries-null",
         "snail-n-string", "elements-string", "snail-in-series", "node-name-list",
         "branch-node-name-list", "unknown-kind", "shorted-capacitor", "branch-unknown-node",
         "no-junction-branch", "c-l-underflows", "kerr-overflows"],
)
def test_netlist_wrong_types_rejected(tmp_path, capsys, doc, message):
    code, out, err = _run(capsys, ["quantize", _write_netlist(tmp_path / "bad.json", doc)])
    assert code == 2
    assert out == ""
    assert err.startswith(f"{ERROR_PREFIX}: {message}")


@pytest.mark.parametrize(
    "doc, message",
    [(dict(SQUID_BRANCH, nodes=["q", "x"], capacitors=[
        *SQUID_BRANCH["capacitors"], {"a": "x", "b": "gnd", "f_farads": 1e-300}]),
      "capacitance of node(s) x (1e-315 F) underflows the inversion"),
     (dict(SQUID_BRANCH, capacitors=[{"a": "q", "b": "gnd", "f_farads": 1e-300}]),
      "capacitance of node(s) q (1e-315 F) underflows the inversion")],
    ids=["isolated-node", "c-l-underflows"],
)
def test_effective_quantize_names_the_node_whose_capacitance_underflows(
        tmp_path, capsys, doc, message):
    # before, the isolated node's inverse capacitance was inf and the mode of
    # q printed with exit 0; a lone 1e-300 fF node was refused only as
    # "inversion residual inf exceeds 1e-10"
    argv = ["quantize", "--effective", _write_netlist(tmp_path / "tiny.json", doc)]
    code, out, err = _run(capsys, argv)
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


@pytest.mark.parametrize("effective", [False, True], ids=["quantize", "effective"])
def test_quantize_refuses_a_branch_across_two_nodes(tmp_path, capsys, effective):
    # before, the branch was quantized on c5 alone: with --effective its row
    # printed with exit 0, while the coupler mode across c5, c6 sits elsewhere
    doc = json.loads((DATA_DIR / "unit.json").read_text())
    doc["branches"].append({"node": ["c5", "c6"], "l_henries": 100.0,
                            "element": {"kind": "squid", "l_j_ph": SQUID_20MHZ_PH}})
    argv = ["quantize", *(["--effective"] if effective else []),
            _write_netlist(tmp_path / "coupler-branch.json", doc)]
    code, out, err = _run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err == (f"{ERROR_PREFIX}: branch across nodes c5, c6: quantize reads branches "
                   "from one node to ground\n")


@pytest.mark.parametrize("effective", [False, True], ids=["quantize", "effective"])
def test_quantize_refuses_two_junction_branches_on_one_node(tmp_path, capsys, effective):
    # before, each branch was quantized as if the other were absent, and q1's
    # row printed twice with exit 0; the node has one mode, the two
    # inductances in parallel
    doc = json.loads((DATA_DIR / "unit.json").read_text())
    doc["branches"].insert(1, doc["branches"][0])
    argv = ["quantize", *(["--effective"] if effective else []),
            _write_netlist(tmp_path / "two-branches.json", doc)]
    code, out, err = _run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err == (f"{ERROR_PREFIX}: node 'q1' has more than one junction branch: quantize "
                   "reads one branch per node\n")


@pytest.mark.parametrize("effective", [False, True], ids=["quantize", "effective"])
@pytest.mark.parametrize("name", REFUSED_BRANCHES)
def test_quantize_refuses_a_branch_naming_its_node(tmp_path, capsys, effective, name):
    # before, a branch with no junction element was dropped with exit 0, and
    # one on the ground node was refused without its cause
    doc = json.loads((DATA_DIR / "unit.json").read_text())
    doc["branches"].append(REFUSED_BRANCHES[name])
    argv = ["quantize", *(["--effective"] if effective else []),
            _write_netlist(tmp_path / f"{name}.json", doc)]
    code, out, err = _run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err == f"{ERROR_PREFIX}: {REFUSALS[name]}\n"


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


LINKS = [("q1", "c5"), ("q2", "c5"), ("q3", "c6"), ("q4", "c6")]


@pytest.mark.parametrize(
    "drop, add, message",
    [
        # c5 grounded on its own, so that C stays invertible without the links
        (LINKS, [{"a": "c5", "b": "gnd", "f_farads": 500.0}],
         "no KPO-coupler coupling capacitors found"),
        ([("c5", "c6")], [], "no capacitor between the two coupler nodes"),
        ([("q4", "gnd")], [], "node 'q4' has no capacitor to ground"),
    ],
    ids=["no-links", "no-coupler-capacitor", "kpo-not-grounded"],
)
def test_couplings_refuse_a_netlist_without_a_unit_circuit_capacitor(
        tmp_path, capsys, drop, add, message):
    doc = json.loads(Path(_unit_netlist(tmp_path)).read_text())
    doc["capacitors"] = [c for c in doc["capacitors"] if (c["a"], c["b"]) not in drop] + add
    code, out, err = _run(
        capsys,
        ["couplings", _write_netlist(tmp_path / "bad.json", doc), "--kpo-nodes", "q1,q2,q3,q4",
         "--coupler-nodes", "c5,c6", "--freq-ghz", "10,10,10,10", "--coupler-freq-ghz", "10"],
    )
    assert code == 2
    assert out == ""
    assert err.startswith(f"{ERROR_PREFIX}: {message}")


def test_couplings_refuse_a_node_named_twice(tmp_path, capsys):
    # q1 twice had printed the diagonal G11 (5000 MHz) as h12 and exited 0
    code, out, err = _run(
        capsys,
        ["couplings", _unit_netlist(tmp_path), "--kpo-nodes", "q1,q1,q3,q4",
         "--coupler-nodes", "c5,c6", "--freq-ghz", "10,10,10,10", "--coupler-freq-ghz", "10"],
    )
    assert code == 2
    assert out == ""
    assert err.startswith(f"{ERROR_PREFIX}: node 'q1' is named more than once")


# --------------------------------------------------------------------------
# sweep
# --------------------------------------------------------------------------

def _sweep_table(capsys, argv):
    _, out, _ = _run(capsys, argv)
    lines = _data_lines(out)
    header = lines[0].split(",")
    data = np.array([[float(x) for x in l.split(",")] for l in lines[1:]])
    return header, data


def test_sweep_refuses_a_range_where_the_couplings_overflow(capsys):
    # h4 and g4 grow as 1/eps^3 and 1/eps^4: at 1e-100 MHz the table had
    # printed inf and nan and exited 0
    code, out, err = _run(
        capsys, ["sweep", "--start-mhz", "1e-100", "--stop-mhz", "1e-99", "--points", "2"])
    assert code == 2
    assert out == ""
    assert err.startswith(f"{ERROR_PREFIX}: ")
    assert "is not finite" in err


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


@pytest.mark.parametrize(
    "argv", [["--flux-stop", "1e8"], ["--flux-start=-1e8"], ["--flux-start", "-1e8"]],
    ids=["stop", "start", "start-as-separate-value"])
def test_snail_refuses_a_flux_beyond_the_step_bound(capsys, argv):
    # 1e8 turns would ask for a flux grid of about 1.3e10 points; n * gamma
    # = 1.2, so the flux is followed in steps
    code, out, err = _run(capsys, ["snail", "--gamma", "0.6", *argv])
    assert code == 2
    assert out == ""
    assert err.startswith(f"{ERROR_PREFIX}: external flux phase ")
    assert "rad is beyond +-5000 rad (about 796 flux quanta)" in err


def test_single_well_snail_at_an_unresolved_flux_fails_loudly(capsys):
    # the default SNAIL is single-well and takes no flux steps, but an ulp
    # of 2.5e7 turns is too coarse for its residual check
    code, out, err = _run(capsys, ["snail", "--flux-stop", "1e8"])
    assert code == 2
    assert out == ""
    assert err.startswith(f"{ERROR_PREFIX}: equilibrium residual ")


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


def test_pump_plan_rows_limit(capsys):
    # the table grows as rows^2: 1,000 rows took 24 s and printed 9.8 MB
    code, out, _ = _run(capsys, ["pump-plan", "--rows", str(PUMP_PLAN_MAX_ROWS)])
    assert code == 0
    assert len(_data_lines(out)) == 1 + (PUMP_PLAN_MAX_ROWS + 1) ** 2
    code, out, err = _run(capsys, ["pump-plan", "--rows", str(PUMP_PLAN_MAX_ROWS + 1)])
    assert code == 2
    assert out == ""
    assert err == (f"{ERROR_PREFIX}: --rows {PUMP_PLAN_MAX_ROWS + 1} exceeds the limit of "
                   f"{PUMP_PLAN_MAX_ROWS} rows\n")


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


@pytest.mark.parametrize("thetas", [[0.7] * 20, [0.3, math.pi - 0.3] * 10],
                         ids=["one-phase", "equal-sines"])
def test_fit_refuses_an_unidentifiable_reference_curve(tmp_path, capsys, thetas):
    # every phase has the same sine, so ln A and B of the reference curve
    # cannot be told apart; before, np.polyfit warned and returned arbitrary ones
    path = tmp_path / "probs.csv"
    path.write_text("".join(f"{t!r}," + ",".join(["0.0625"] * 16) + "\n" for t in thetas))
    code, out, err = _run(capsys, ["fit", str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith(f"{ERROR_PREFIX}: reference curve unidentifiable")


def test_fit_refuses_a_reference_amplitude_that_underflows(tmp_path, capsys):
    # p_ref swinging from 1e-12 to 0.9 across sines 1e-7 apart extrapolates
    # to ln A = -2.3e8; before, the fit printed A = 0 and B = 3.6e8, exit 0
    path = tmp_path / "probs.csv"
    path.write_text("".join(
        f"{t!r}," + ",".join(["0.0625"] * 15 + [p]) + "\n"
        for t, p in [(0.7, "1e-12"), (0.7 + 1e-7, "0.9")] * 10))
    code, out, err = _run(capsys, ["fit", str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith(f"{ERROR_PREFIX}: reference amplitude A = exp(-2.3")
    assert "underflows" in err


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


@pytest.mark.parametrize("eps_mhz", ["0", "-50"])
def test_oracle_rejects_a_non_positive_detuning(capsys, eps_mhz):
    # the ladder's one detuning check; -50 had scanned the mirrored ladder
    code, out, err = _run(capsys, ["oracle", "--truncation", "3", "--eps-mhz", eps_mhz])
    assert code == 2
    assert out == ""
    assert err.startswith(f"{ERROR_PREFIX}: unit detuning must be positive and finite")
    # named as given, in MHz: -50 MHz had been reported as -314159265.3589793 rad/s
    assert f"got --eps-mhz {eps_mhz}\n" in err
    assert "314159265" not in err


def test_oracle_refuses_a_scan_that_reaches_outside_the_model_space(capsys):
    # it once overflowed in the scan's delta**2 and ended in "KPOKIT-ERROR:
    # Eigenvalues did not converge"
    code, out, err = _run(capsys, ["oracle", "--scan-mhz", "1e300"])
    assert code == 2
    assert out == ""
    assert err.startswith(f"{ERROR_PREFIX}: scan half-width 6.28319e+306 rad/s times max "
                          "(n1 + n2)/2 = 3 is 1.88496e+307 rad/s, not below the ")
    assert err.endswith(" rad/s from the pair's energy to the nearest level outside the "
                        "model space\n")


def test_oracle_rejects_a_scan_too_narrow_to_see_the_crossing(capsys):
    # +-1e-9 MHz: the gaps vary by ~0.01 rad/s, and half the unshifted gap
    # (39x the avoided-crossing value) must not be reported as |h_eff|
    code, out, err = _run(capsys, ["oracle", "--truncation", "3", "--scan-mhz", "1e-9"])
    assert code == 2
    assert out == ""
    assert err.startswith(f"{ERROR_PREFIX}: ")
    assert "widen scan_halfwidth" in err


def test_oracle_refuses_a_crossing_that_is_not_two_level(capsys):
    # at 20 MHz the +-10 MHz scan finds one of two anticrossings of |1100>;
    # it once printed |h_eff|_MHz: 0.344246177 with exit 0
    code, out, err = _run(capsys, ["oracle", "--eps-mhz", "20", "--scan-mhz", "10"])
    assert code == 2
    assert out == ""
    assert err.startswith(f"{ERROR_PREFIX}: |1100>, |0011> pair not identified")
    assert "not two-level" in err
