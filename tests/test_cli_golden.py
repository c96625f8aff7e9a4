"""Golden CLI output: stdout pinned byte for byte.

Each invocation's stdout was recorded once into tests/data/golden/ and
must not move. File arguments are given relative to this directory, so
the `# config:` digest (which hashes the argument values) is stable.
Only one small `oracle` run is pinned: its gap digits are eigensolver
roundoff, and at larger truncations they move in the ninth digit when
the diagonalized matrix changes shape.
"""

from pathlib import Path

import pytest

from kpokit.cli import main

HERE = Path(__file__).parent
GOLDEN_DIR = HERE / "data" / "golden"

COUPLINGS = ["couplings", "data/unit.json", "--kpo-nodes", "q1,q2,q3,q4",
             "--coupler-nodes", "c5,c6", "--freq-ghz", "10,10,10,10",
             "--coupler-freq-ghz", "10"]

GOLDEN = {
    "sweep": ["sweep"],
    "sweep-log": ["sweep", "--log"],
    "parity": ["parity"],
    "boltzmann": ["boltzmann"],
    "boltzmann-eta-nu": ["boltzmann", "--eta", "-0.29", "--nu", "0,0,0,0.4"],
    "pump-plan": ["pump-plan"],
    "snail": ["snail"],
    # n * gamma = 1.2: a multi-well SNAIL, whose equilibrium follows the flux
    "snail-gamma0.6-n2": ["snail", "--gamma", "0.6", "--n", "2"],
    "quantize": ["quantize", "data/unit.json"],
    "quantize-effective": ["quantize", "--effective", "data/unit.json"],
    "couplings": COUPLINGS,
    "fit": ["fit", "data/probabilities.csv"],
    # a two-level crossing: |0011> keeps 0.91 of its weight in the chosen pair
    "oracle-eps50-d3": ["oracle", "--eps-mhz", "50", "--truncation", "3"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_stdout_matches_recorded(name, capsys, monkeypatch):
    monkeypatch.chdir(HERE)
    code = main(GOLDEN[name])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN_DIR / f"{name}.out").read_text()
