"""The package namespace: its public names, and how they load; and the
records its modules return.

``import kpokit`` loads no module; a public name loads with its module on
first use. tests/test_cli.py checks in a fresh interpreter which modules
the bare import and each CLI subcommand load.
"""

import copy
import importlib
import pickle
import sys

import numpy as np
import pytest

import kpokit
from kpokit import elements
from kpokit.elements import (LinearFit, ModeParams, SeriesStack, SingleJunction, Snail,
                             SnailExpansion, Squid)
from kpokit.netlist import (Branch, CapacitanceMatrix, Capacitor, CircuitNetlist, DiscardedMode,
                            InverseCapacitance, ReducedModes)
from kpokit.oracle import FockHamiltonian, _FockBasis
from kpokit.perturbation import (CouplingGraph, DressedSpectrum, FourBodyReport,
                                 MixingCoefficients, ModeSpectrum, ReportEntry)
from kpokit.pumpplan import LhzPlan, PumpAssignment, ResonanceCondition
from kpokit.spinmodel import EffectiveEnergyModel, FitResult, InteractionSet, OscillationConfig

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


SQUID = "Squid(l_j=4e-10)"
CAPACITOR = "Capacitor(node_a='q', node_b='gnd', capacitance=5e-13)"
BRANCH = f"Branch(nodes=('q',), element={SQUID}, l_series=1e-10)"
DISCARDED = "DiscardedMode(capacitance=1e-12, high_frequency=True)"
ENTRY = ("ReportEntry(creation=(1, 1, 0, 0), annihilation=(0, 0, 1, 1), coefficient=(2+0.5j), "
         "classification='four-body', rotation_residual=0.0)")
MODEL = ("EffectiveEnergyModel(eta=0.5, lam={'234': 0.25, '134': 0.0, '124': 0.0, '123': 0.0}, "
         "mu={'12': -0.125, '13': 0.0, '14': 0.0, '23': 0.0, '24': 0.0, '34': 0.0}, "
         "nu=(0.0, 0.0, 0.0, 1.0))")
_MODEL_FIELDS = dict(eta=0.5, lam={"234": 0.25}, mu={"12": -0.125}, nu=(0.0, 0.0, 0.0, 1.0))

# every record type: a sample's fields, whether it is hashable (none holding
# an array, a dict or a list is), and its repr
RECORDS = [
    (Squid, dict(l_j=4e-10), True, SQUID),
    (SingleJunction, dict(i0=1.5e-6), True, "SingleJunction(i0=1.5e-06)"),
    (SeriesStack, dict(elements=(Squid(4e-10), SingleJunction(1.5e-6))), True,
     f"SeriesStack(elements=({SQUID}, SingleJunction(i0=1.5e-06)))"),
    (Snail, dict(i0=1.25e-6, gamma=0.3, n=2, phi_x=0.125), True,
     "Snail(i0=1.25e-06, gamma=0.3, n=2, phi_x=0.125)"),
    (ModeParams, dict(omega=6.25e10, kerr=-1.25e8), True,
     "ModeParams(omega=62500000000.0, kerr=-125000000.0)"),
    (SnailExpansion, dict(phi_bar=0.5, c2=1.5, c3=-0.25, c4=0.125, participation=0.75), True,
     "SnailExpansion(phi_bar=0.5, c2=1.5, c3=-0.25, c4=0.125, participation=0.75)"),
    (LinearFit, dict(slope=-0.5, intercept=3e9, residual_norm=0.0), True,
     "LinearFit(slope=-0.5, intercept=3000000000.0, residual_norm=0.0)"),
    (Capacitor, dict(node_a="q", node_b="gnd", capacitance=5e-13), True, CAPACITOR),
    (Branch, dict(nodes=("q",), element=Squid(4e-10), l_series=1e-10), True, BRANCH),
    (CircuitNetlist, dict(nodes=("q",), ground="gnd", capacitors=(Capacitor("q", "gnd", 5e-13),),
                          branches=(Branch(("q",), Squid(4e-10), 1e-10),)), True,
     f"CircuitNetlist(nodes=('q',), ground='gnd', capacitors=({CAPACITOR},), "
     f"branches=({BRANCH},))"),
    (CapacitanceMatrix, dict(matrix=np.array([[2.0]]), node_order=("a",)), False,
     "CapacitanceMatrix(matrix=array([[2.]]), node_order=('a',))"),
    (InverseCapacitance, dict(matrix=np.array([[0.5]]), node_order=("a",)), False,
     "InverseCapacitance(matrix=array([[0.5]]), node_order=('a',))"),
    (DiscardedMode, dict(capacitance=1e-12, high_frequency=True), True, DISCARDED),
    (ReducedModes, dict(g_r=np.array([[1.0]]), discarded=DiscardedMode(1e-12, True),
                        bare={"c_c": 2e-15}), False,
     f"ReducedModes(g_r=array([[1.]]), discarded={DISCARDED}, bare={{'c_c': 2e-15}})"),
    (ModeSpectrum, dict(omega=np.array([1.0, 2.0]), kerr=np.array([0.5, 0.25]),
                        coupler_omega=3.0, coupler_kerr=0.125), False,
     "ModeSpectrum(omega=array([1., 2.]), kerr=array([0.5 , 0.25]), coupler_omega=3.0, "
     "coupler_kerr=0.125)"),
    (CouplingGraph, dict(h=np.array([[0.0]]), g=np.array([0.5]), s=np.array([-1.0])), False,
     "CouplingGraph(h=array([[0.]]), g=array([0.5]), s=array([-1.]))"),
    (MixingCoefficients, dict(h_tilde=np.array([[0.0]]), g_tilde=None, s=None), False,
     "MixingCoefficients(h_tilde=array([[0.]]), g_tilde=None, s=None)"),
    (DressedSpectrum, dict(omega_dressed=np.array([1.0]), kerr_dressed=np.array([0.5]),
                           lamb_shift=np.array([-0.25]), coupling_shift=np.array([0.125])), False,
     "DressedSpectrum(omega_dressed=array([1.]), kerr_dressed=array([0.5]), "
     "lamb_shift=array([-0.25]), coupling_shift=array([0.125]))"),
    (ReportEntry, dict(creation=(1, 1, 0, 0), annihilation=(0, 0, 1, 1), coefficient=2 + 0.5j,
                       classification="four-body", rotation_residual=0.0), True, ENTRY),
    (FourBodyReport, dict(entries=[ReportEntry((1, 1, 0, 0), (0, 0, 1, 1), 2 + 0.5j, "four-body",
                                               0.0)]), False,
     f"FourBodyReport(entries=[{ENTRY}])"),
    (PumpAssignment, dict(omega_p=(1.0, 2.0), theta_p=(0.0, 0.5)), True,
     "PumpAssignment(omega_p=(1.0, 2.0), theta_p=(0.0, 0.5))"),
    (ResonanceCondition, dict(coefficients=(1, 1, -1, -1), residual=0.0,
                              classification="four-body"), True,
     "ResonanceCondition(coefficients=(1, 1, -1, -1), residual=0.0, classification='four-body')"),
    (LhzPlan, dict(sites={(0, 0): 1}, frequencies={1: 2.0}, plaquettes=[], spurious=[]), False,
     "LhzPlan(sites={(0, 0): 1}, frequencies={1: 2.0}, plaquettes=[], spurious=[])"),
    (OscillationConfig, dict(alpha=np.array([1.0, 1.0, 1.0, 1.0]),
                             epsilon_d=np.array([0.0, 0.0, 0.0, 0.5]),
                             theta_d=np.array([0.0, 0.0, 0.0, 0.25]),
                             theta_p=np.array([0.0, 0.0, 0.0, 0.0])), False,
     "OscillationConfig(alpha=array([1., 1., 1., 1.]), epsilon_d=array([0. , 0. , 0. , 0.5]), "
     "theta_d=array([0.  , 0.  , 0.  , 0.25]), theta_p=array([0., 0., 0., 0.]))"),
    (InteractionSet, dict(h4=1.0, g1=0.5, g2=0.25, g3=0.125, g4=0.0), True,
     "InteractionSet(h4=1.0, g1=0.5, g2=0.25, g3=0.125, g4=0.0)"),
    (EffectiveEnergyModel, _MODEL_FIELDS, False, MODEL),
    (FitResult, dict(model=EffectiveEnergyModel(**_MODEL_FIELDS), reference={"A": 1.0},
                     residual_norm=0.0, condition_number=2.0), False,
     f"FitResult(model={MODEL}, reference={{'A': 1.0}}, residual_norm=0.0, condition_number=2.0)"),
    (FockHamiltonian, dict(n_modes=1, truncation=3, even=np.array([[2.0]]), odd=None), False,
     "FockHamiltonian(n_modes=1, truncation=3, even=array([[2.]]), odd=None)"),
    (_FockBasis, dict(occupations=np.array([[0, 1, 2]]), spaces=(), pair=np.array([0]), scan=()),
     False, "_FockBasis(occupations=array([[0, 1, 2]]), spaces=(), pair=array([0]), scan=())"),
]


@pytest.mark.parametrize("record_type, fields, hashable, shown", RECORDS,
                         ids=[entry[0].__name__ for entry in RECORDS])
def test_a_record_compares_hashes_shows_and_copies_by_its_fields(record_type, fields, hashable,
                                                                  shown):
    record, twin = record_type(**fields), record_type(**fields)
    # an array field is the same object in both, so the fields compare equal
    assert record == twin and not record != twin
    assert repr(record) == shown
    if hashable:
        assert hash(record) == hash(twin)
    else:
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)
    name, value = next(iter(fields.items()))
    with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
        setattr(record, name, value)
    for copied in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
        assert type(copied) is record_type and copied is not record
        assert repr(copied) == shown
        if hashable:
            assert copied == record and hash(copied) == hash(record)


def test_an_equal_snail_reads_the_cached_equilibrium():
    fields = dict(i0=1.25e-6, gamma=0.3, n=2, phi_x=0.375)
    first, second = Snail(**fields), Snail(**fields)
    phase = elements.snail_equilibrium_phase(first)
    before = elements._equilibrium_phase.cache_info()
    assert elements.snail_equilibrium_phase(second) == phase
    after = elements._equilibrium_phase.cache_info()
    assert (after.hits - before.hits, after.misses - before.misses) == (1, 0)
