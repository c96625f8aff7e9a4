"""Design and verification toolkit for Kerr-parametric-oscillator circuits.

``import kpokit`` loads none of the package's modules. The first use of a
public name imports its module and binds every name that module exports
here, so ``vars(kpokit)`` then holds the whole module's exports.
"""

import importlib

__version__ = "0.1.0"

# public names by home module
_EXPORTS = {
    "elements": (
        "LinearFit",
        "ModeParams",
        "SeriesStack",
        "SingleJunction",
        "Snail",
        "SnailExpansion",
        "Squid",
        "kpo_mode_params",
        "snail_equilibrium_phase",
        "snail_expansion",
        "snail_flux_sweep",
        "snail_kerr_frequency_fit",
        "snail_mode_params",
        "squid_inductance_for_frequency",
    ),
    "netlist": (
        "Branch",
        "Capacitor",
        "CapacitanceMatrix",
        "CircuitNetlist",
        "InverseCapacitance",
        "ReducedModes",
        "build_capacitance_matrix",
        "coupling_constants",
        "extract_bare",
        "ground_capacitances",
        "invert_capacitance",
        "load_netlist",
        "mode_reduce",
        "unit_circuit",
    ),
    "operators": ("BosonicPolynomial",),
    "oracle": (
        "FockHamiltonian",
        "build_hamiltonian",
        "dressed_frequencies_exact",
        "four_body_from_gap",
        "four_body_kerr_dressed",
    ),
    "perturbation": (
        "CouplingGraph",
        "DegenerateModesError",
        "DressedSpectrum",
        "FourBodyReport",
        "MixingCoefficients",
        "ModeSpectrum",
        "cross_kerr",
        "dressed_spectrum",
        "g4_closed_form",
        "g4_symmetric",
        "h4_detuning",
        "h4_double_tilde",
        "h4_general",
        "h4_snail",
        "h4_tilde",
        "invert_dressed",
        "ladder_frequencies",
        "mixing_from_frequencies",
        "rwa_filter",
        "sw_mixing",
        "transform_kerr",
    ),
    "pumpplan": (
        "LhzPlan",
        "PumpAssignment",
        "ResonanceCondition",
        "check_mixing",
        "detect_residual",
        "lhz_frequencies",
        "lhz_plan",
    ),
    "spinmodel": (
        "SPIN_FEATURES",
        "SPIN_STATES",
        "EffectiveEnergyModel",
        "FitResult",
        "InteractionSet",
        "OscillationConfig",
        "beta_for_even_parity",
        "boltzmann_probabilities",
        "effective_coefficients",
        "estimate_h4",
        "fit_energy_model",
        "model_from_coefficients",
        "parity_curve",
        "parity_split",
        "state_energy",
    ),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name: str):
    # a public name, or a submodule reached as an attribute (kpokit.oracle)
    module = _HOME.get(name, name)
    if module not in _EXPORTS and module != "constants":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    loaded = importlib.import_module(f".{module}", __name__)
    for export in _EXPORTS.get(module, ()):
        globals()[export] = getattr(loaded, export)
    return loaded if name == module else globals()[name]


def __dir__():
    return sorted(set(globals()) | set(__all__))


class _Record:
    """Base of the package's immutable records. A subclass names its fields
    in ``__slots__``, in the order of its ``__init__``, which sets each with
    ``object.__setattr__``. A record compares and hashes by its class and
    fields (one holding an array or a dict is unhashable), reprs as
    ``Name(field=value, ...)``, refuses assignment, and pickles and copies
    by calling its class on its fields."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._fields()
