"""The package namespace: its public names, and how they load.

``import kpokit`` loads no module; a public name loads with its module on
first use. tests/test_cli.py checks in a fresh interpreter which modules
the bare import and each CLI subcommand load.
"""

import importlib
import sys

import pytest

import kpokit

PUBLIC_NAMES = [
    "BosonicPolynomial", "Branch", "CapacitanceMatrix", "Capacitor", "CircuitNetlist",
    "CouplingGraph", "DegenerateModesError", "DressedSpectrum", "EffectiveEnergyModel",
    "FitResult", "FockHamiltonian", "FourBodyReport", "InteractionSet", "InverseCapacitance",
    "LhzPlan", "LinearFit", "MixingCoefficients", "ModeParams", "ModeSpectrum",
    "OscillationConfig", "PumpAssignment", "ReducedModes", "ResonanceCondition",
    "SPIN_FEATURES", "SPIN_STATES", "SeriesStack", "SingleJunction", "Snail",
    "SnailExpansion", "Squid", "beta_for_even_parity", "boltzmann_probabilities",
    "build_capacitance_matrix", "build_hamiltonian", "check_mixing", "coupling_constants",
    "cross_kerr", "detect_residual", "dressed_frequencies_exact", "dressed_spectrum",
    "effective_coefficients", "estimate_h4", "extract_bare", "fit_energy_model",
    "four_body_from_gap", "four_body_kerr_dressed", "g4_closed_form", "g4_symmetric",
    "ground_capacitances", "h4_detuning", "h4_double_tilde", "h4_general", "h4_snail",
    "h4_tilde", "invert_capacitance", "invert_dressed", "kpo_mode_params",
    "ladder_frequencies", "lhz_frequencies", "lhz_plan", "load_netlist", "mixing_from_frequencies",
    "mode_reduce", "model_from_coefficients", "parity_curve", "parity_split", "rwa_filter",
    "snail_equilibrium_phase", "snail_expansion", "snail_flux_sweep",
    "snail_kerr_frequency_fit", "snail_mode_params", "squid_inductance_for_frequency",
    "state_energy", "sw_mixing", "transform_kerr", "unit_circuit",
]


def test_public_names_are_pinned():
    assert sorted(kpokit.__all__) == PUBLIC_NAMES


def test_each_name_is_its_home_module_object():
    for module, names in kpokit._EXPORTS.items():
        home = importlib.import_module(f"kpokit.{module}")
        for name in names:
            assert getattr(kpokit, name) is getattr(home, name), (module, name)


def _unbind(monkeypatch, module):
    """Drop a module's exports from the package namespace, restored after the test."""
    for name in kpokit._EXPORTS[module]:
        monkeypatch.delitem(vars(kpokit), name, raising=False)


@pytest.mark.parametrize("module", sorted(kpokit._EXPORTS))
def test_one_name_binds_every_export_of_its_module(monkeypatch, module):
    # benchmark/tracer.py wraps the functions it finds in vars(kpokit), so
    # touching four_body_from_gap must bind build_hamiltonian as well
    _unbind(monkeypatch, module)
    getattr(kpokit, kpokit._EXPORTS[module][-1])
    home = sys.modules[f"kpokit.{module}"]
    for name in kpokit._EXPORTS[module]:
        assert vars(kpokit)[name] is getattr(home, name), name


def test_a_submodule_attribute_loads_and_binds_its_module(monkeypatch):
    _unbind(monkeypatch, "oracle")
    monkeypatch.delitem(vars(kpokit), "oracle", raising=False)
    assert kpokit.oracle is sys.modules["kpokit.oracle"]
    assert vars(kpokit)["build_hamiltonian"] is kpokit.oracle.build_hamiltonian


@pytest.mark.parametrize("name", ["no_such_name", "numpy"])
def test_an_unknown_attribute_raises_attribute_error(name):
    with pytest.raises(AttributeError, match=f"module 'kpokit' has no attribute '{name}'"):
        getattr(kpokit, name)
    assert not hasattr(kpokit, name)


def test_dir_lists_every_public_name():
    assert set(kpokit.__all__) <= set(dir(kpokit))
