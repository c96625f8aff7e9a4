"""Command-line front end.

Subcommands: quantize, couplings, sweep, snail, pump-plan, parity,
boltzmann, fit, oracle. All tables are CSV with '#'-prefixed metadata
lines and fixed 9-significant-digit float formatting, so identical
inputs produce byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import math
import re
import sys

from . import __version__
from .constants import GHZ, MHZ, PHI0_REDUCED

# Each subcommand imports the library modules it uses, and NumPy only where
# it handles arrays, so a `kpokit` process loads only those: `parity` loads
# spinmodel alone, and `quantize`, `pump-plan` and an input refused before
# any array is made load no NumPy.

ERROR_PREFIX = "KPOKIT-ERROR"


def _fmt(x: float) -> str:
    return f"{float(x):.9g}"


def _emit(out, meta: list[str], header: list[str], rows: list[list]) -> None:
    for line in meta:
        out.write(f"# {line}\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    # a NumPy scalar can reach here only once NumPy is loaded
    np = sys.modules.get("numpy")
    numeric = (int, float) if np is None else (int, float, np.floating)
    for row in rows:
        writer.writerow([_fmt(v) if isinstance(v, numeric) else v for v in row])


def _four_floats(text: str, option: str) -> list[float]:
    """The four finite numbers of a comma-separated option value."""
    values = [float(x) for x in text.split(",")]
    if len(values) != 4:
        raise ValueError(f"{option} needs four comma-separated values")
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"{option} values must be finite, got {text!r}")
    return values


def _meta(command: str, args) -> list[str]:
    config = sorted((k, repr(v)) for k, v in vars(args).items() if k != "func")
    digest = hashlib.sha256(repr(config).encode()).hexdigest()[:16]
    return [f"kpokit {__version__}", f"command: {command}", f"config: {digest}"]


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------

def cmd_quantize(args, out) -> int:
    from .elements import Snail, kpo_mode_params, snail_mode_params
    from .netlist import (
        build_capacitance_matrix,
        ground_capacitances,
        invert_capacitance,
        load_netlist,
    )

    net = load_netlist(args.netlist)
    if not net.branches:
        raise ValueError("netlist has no junction branches to quantize")
    # every branch is checked before C is inverted, so a refusal loads no NumPy
    quantized = set()
    for br in net.branches:
        if len(br.nodes) != 1:
            raise ValueError(f"branch across nodes {', '.join(br.nodes)}: quantize reads "
                             "branches from one node to ground")
        node = br.nodes[0]
        if br.element is None:
            raise ValueError(f"branch on node {node!r} has no junction element: quantize "
                             "reads junction branches")
        if node in quantized:
            # one node is one mode, its branches' inductances in parallel
            raise ValueError(f"node {node!r} has more than one junction branch: quantize "
                             "reads one branch per node")
        quantized.add(node)
    if args.effective:
        g = invert_capacitance(build_capacitance_matrix(net), net)
        capacitance = {n: 1.0 / g.matrix[i, i] for i, n in enumerate(g.node_order)}
    else:
        capacitance = ground_capacitances(net)
    rows = []
    for br in net.branches:
        node = br.nodes[0]
        if node not in capacitance:
            raise ValueError(f"node {node!r} has no capacitor to ground")
        if isinstance(br.element, Snail):
            mode = snail_mode_params(capacitance[node], br.l_series, br.element)
        else:
            mode = kpo_mode_params(capacitance[node], br.l_series, br.element)
        rows.append([node, mode.omega / GHZ, mode.kerr / MHZ])
    _emit(out, _meta("quantize", args), ["node", "freq_GHz", "kerr_MHz"], rows)
    return 0


def cmd_couplings(args, out) -> int:
    import numpy as np

    from .netlist import (
        build_capacitance_matrix,
        coupling_constants,
        extract_bare,
        invert_capacitance,
        load_netlist,
        mode_reduce,
    )
    from .perturbation import ModeSpectrum

    net = load_netlist(args.netlist)
    kpo_nodes = tuple(args.kpo_nodes.split(","))
    coupler_pair = tuple(args.coupler_nodes.split(","))
    freqs = [f * GHZ for f in _four_floats(args.freq_ghz, "--freq-ghz")]
    coupler_omega = float(args.coupler_freq_ghz) * GHZ if args.coupler_freq_ghz else None
    spectrum = ModeSpectrum(
        omega=np.array(freqs),
        kerr=np.zeros(4),
        coupler_omega=coupler_omega,
        coupler_kerr=0.0 if coupler_omega else None,
    )
    c = build_capacitance_matrix(net)
    g = invert_capacitance(c, net)
    bare = extract_bare(net, kpo_nodes, coupler_pair)
    modes = mode_reduce(g, kpo_nodes, coupler_pair, bare=bare)
    graphs = coupling_constants(modes, spectrum)
    rows = []
    for j in range(4):
        for k in range(j + 1, 4):
            rows.append(
                [
                    f"h{j + 1}{k + 1}",
                    graphs["exact"].h[j, k] / MHZ,
                    graphs["approx"].h[j, k] / MHZ,
                ]
            )
    if coupler_omega is not None:
        for j in range(4):
            rows.append(
                [f"g{j + 1}", abs(graphs["exact"].g[j]) / MHZ,
                 abs(graphs["approx"].g[j]) / MHZ]
            )
    _emit(out, _meta("couplings", args), ["coupling", "exact_MHz", "approx_MHz"], rows)
    return 0


def _snail_design_kerr() -> float:
    """SNAIL KPO Kerr [rad/s] at the 10 GHz design frequency, from the
    linear Kerr-vs-frequency fit over the operating flux window."""
    import numpy as np

    from .elements import Snail, snail_flux_sweep, snail_kerr_frequency_fit

    element = Snail(i0=1250e-9, gamma=0.3, n=2)
    # negative-Kerr branch of the flux sweep; the linear fit is the
    # one-to-one Kerr-frequency correspondence used for the design point
    flux = 2.0 * np.pi * np.linspace(0.465, 0.495, 9)
    sweep = snail_flux_sweep(200e-15, 100e-12, element, flux)
    fit = snail_kerr_frequency_fit(sweep)
    return fit.kerr_at(10.0 * GHZ)


# the SQUID system of the detuning ladder, shared by `sweep` (h4_squid) and `oracle`
LADDER_KERR_MHZ = (5.1, 20.0, 20.0, 5.1)
LADDER_COUPLING = 5.0 * MHZ


def sweep_parameter_sets() -> dict:
    """Fixed 10 GHz design values behind the coupling-vs-detuning sweep.

    Two-body couplings are all 5 MHz by construction (the coupling
    capacitors are chosen for that); the SNAIL-circuit neighbors scale
    with the KPO capacitance ratio sqrt(C_qj C_qk).
    """
    import numpy as np

    from .elements import SingleJunction, kpo_mode_params

    k_g_kpo = kpo_mode_params(
        500e-15, 100e-12, SingleJunction(i0=_i0_for(500e-15, 100e-12))
    ).kerr
    k_g_transmon = kpo_mode_params(
        100e-15, 100e-12, SingleJunction(i0=_i0_for(100e-15, 100e-12))
    ).kerr
    k_snail = _snail_design_kerr()
    h_qn = 5.0 * MHZ
    scale = math.sqrt(200.0 * 500.0)
    return {
        "g_g": 5.0 * MHZ,
        "h_q": LADDER_COUPLING,
        "h_qn": h_qn,
        "h_nn": h_qn * scale / 200.0,
        "h_qq": h_qn * scale / 500.0,
        "k_g_kpo": k_g_kpo,
        "k_g_transmon": k_g_transmon,
        "kerr_squid": np.array(LADDER_KERR_MHZ) * MHZ,
        "kerr_snail": np.array([k_snail, 20.0 * MHZ, 20.0 * MHZ, k_snail]),
        "k4": 20.0 * MHZ,
    }


def _i0_for(c: float, l_geom: float) -> float:
    """Critical current putting a junction resonator at 10 GHz."""
    from .elements import squid_inductance_for_frequency

    return PHI0_REDUCED / squid_inductance_for_frequency(10.0 * GHZ, c, l_geom)


def cmd_sweep(args, out) -> int:
    import numpy as np

    from .perturbation import g4_symmetric, h4_detuning, h4_snail, h4_tilde

    if args.start_mhz <= 0 or args.stop_mhz <= args.start_mhz:
        raise ValueError("sweep range must satisfy 0 < start < stop")
    if args.points < 2:
        raise ValueError("sweep needs at least 2 points")
    if args.log:
        eps_grid = np.geomspace(args.start_mhz, args.stop_mhz, args.points)
    else:
        eps_grid = np.linspace(args.start_mhz, args.stop_mhz, args.points)
    p = sweep_parameter_sets()
    rows = []
    for eps_mhz in eps_grid:
        eps = eps_mhz * MHZ
        rows.append(
            [
                eps_mhz,
                abs(g4_symmetric(p["g_g"], eps, p["k_g_kpo"])) / MHZ,
                abs(g4_symmetric(p["g_g"], eps, p["k_g_transmon"])) / MHZ,
                abs(h4_detuning(p["h_q"], eps, p["kerr_squid"])) / MHZ,
                abs(h4_snail(p["h_qn"], p["h_nn"], p["h_qq"], p["kerr_snail"], eps)) / MHZ,
                abs(h4_tilde(p["h_q"], p["k4"], epsilon=eps)) / MHZ,
            ]
        )
    meta = _meta("sweep", args) + ["two-body couplings fixed at 5 MHz (detuning reference)"]
    _emit(
        out,
        meta,
        ["eps_MHz", "g4_kpo_like", "g4_transmon_like", "h4_squid", "h4_snail", "h4_tilde"],
        rows,
    )
    return 0


def cmd_snail(args, out) -> int:
    import numpy as np

    from .elements import Snail, snail_flux_sweep, snail_kerr_frequency_fit

    element = Snail(i0=args.i0_na * 1e-9, gamma=args.gamma, n=args.n)
    flux = 2.0 * np.pi * np.linspace(args.flux_start, args.flux_stop, args.points)
    sweep = snail_flux_sweep(args.c_ff * 1e-15, args.l_ph * 1e-12, element, flux)
    fit = snail_kerr_frequency_fit(sweep)
    meta = _meta("snail", args) + [
        f"kerr(omega) fit: slope {_fmt(fit.slope)} , intercept_MHz {_fmt(fit.intercept / MHZ)}"
        f" , residual_MHz {_fmt(fit.residual_norm / MHZ)}"
    ]
    rows = [
        [f / (2.0 * np.pi), m.omega / GHZ, m.kerr / MHZ]
        for f, m in zip(flux, sweep)
    ]
    _emit(out, meta, ["flux_turns", "freq_GHz", "kerr_MHz"], rows)
    return 0


# the largest `pump-plan --rows`: the table holds (rows + 1)^2 sites, so 100
# rows print about 81 kB in about 0.3 s, while the time and the output grow
# as rows^2 (1,000 rows: 24 s and 9.8 MB)
PUMP_PLAN_MAX_ROWS = 100


def cmd_pump_plan(args, out) -> int:
    from .pumpplan import lhz_plan

    if args.rows > PUMP_PLAN_MAX_ROWS:
        raise ValueError(f"--rows {args.rows} exceeds the limit of {PUMP_PLAN_MAX_ROWS} rows")
    plan = lhz_plan(args.rows, base=args.base_ghz * GHZ, spacing=args.spacing_mhz * MHZ)
    meta = _meta("pump-plan", args)
    for i in sorted(plan.frequencies):
        meta.append(f"pump {i}: {_fmt(plan.frequencies[i] / GHZ)} GHz")
    violations = plan.violations()
    meta.append(f"plaquette violations: {len(violations)}")
    for s in plan.spurious:
        tag = "negligible" if s["negligible"] else "SIGNIFICANT"
        meta.append(f"spurious [{tag}] {s['kind']}: {s['condition']}")
    rows = [
        [x, y, plan.sites[(x, y)]]
        for y in range(args.rows + 1)
        for x in range(args.rows + 1)
    ]
    _emit(out, meta, ["x", "y", "pump_index"], rows)
    return 0


def cmd_parity(args, out) -> int:
    import numpy as np

    from .spinmodel import InteractionSet, OscillationConfig, beta_for_even_parity, parity_curve

    if args.points < 2:
        raise ValueError("parity needs at least 2 points")
    alpha = np.array(_four_floats(args.alpha, "--alpha"))
    config = OscillationConfig(
        alpha=alpha,
        epsilon_d=np.zeros(4),
        theta_d=np.full(4, math.pi / 2.0),
        theta_p=np.zeros(4),
    )
    ints = InteractionSet(h4=args.h4_mhz * MHZ)
    beta = beta_for_even_parity(config, ints, target_even=args.target_even)
    grid = np.linspace(0.0, 4.0 * math.pi, args.points)
    even, odd = parity_curve(config, ints, grid, beta)
    meta = _meta("parity", args) + [f"beta fixed by even-parity maximum {_fmt(args.target_even)}"]
    rows = [[t, e, o] for t, e, o in zip(grid, even, odd)]
    _emit(out, meta, ["theta_p_rad", "even", "odd"], rows)
    return 0


def _state_label(s: tuple[int, ...]) -> str:
    return "".join("+" if x > 0 else "-" for x in s)


def cmd_boltzmann(args, out) -> int:
    from .spinmodel import EffectiveEnergyModel, boltzmann_probabilities

    model = EffectiveEnergyModel(
        eta=args.eta,
        nu=tuple(_four_floats(args.nu, "--nu")),
    )
    probs = boltzmann_probabilities(model, theta_d4=args.theta_d4)
    rows = [[_state_label(s), p] for s, p in probs.items()]
    _emit(out, _meta("boltzmann", args), ["state", "probability"], rows)
    return 0


def cmd_fit(args, out) -> int:
    import numpy as np

    from .spinmodel import fit_energy_model

    thetas, table = [], []
    with open(args.data) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#") or line.startswith("theta"):
                continue
            parts = line.split(",")
            if len(parts) != 17:
                raise ValueError(f"data row has {len(parts)} fields, expected 17")
            thetas.append(float(parts[0]))
            table.append([float(x) for x in parts[1:]])
    if not thetas:
        raise ValueError("data file contains no rows")
    result = fit_energy_model(np.array(thetas), np.array(table))
    m = result.model
    rows = [["eta", m.eta]]
    rows += [[f"lambda{k}", v] for k, v in m.lam.items()]
    rows += [[f"mu{k}", v] for k, v in m.mu.items()]
    rows += [[f"nu{j + 1}", m.nu[j]] for j in range(4)]
    rows += [["A", result.reference["A"]], ["B", result.reference["B"]],
             ["C", result.reference["C"]]]
    meta = _meta("fit", args) + [
        f"residual: {_fmt(result.residual_norm)}",
        f"condition number: {_fmt(result.condition_number)}",
    ]
    _emit(out, meta, ["coefficient", "value"], rows)
    return 0


def cmd_oracle(args, out) -> int:
    import numpy as np

    from .oracle import four_body_from_gap
    from .perturbation import (CouplingGraph, ModeSpectrum, h4_general, ladder_frequencies,
                               mixing_from_frequencies)

    if not args.eps_mhz > 0:
        raise ValueError("unit detuning must be positive and finite, "
                         f"got --eps-mhz {args.eps_mhz:g}")
    omega = np.array(ladder_frequencies(args.eps_mhz * MHZ, 10.0 * GHZ))
    kerr = np.array(LADDER_KERR_MHZ) * MHZ
    h = np.full((4, 4), LADDER_COUPLING)
    np.fill_diagonal(h, 0.0)
    result = four_body_from_gap(
        ModeSpectrum(omega=omega, kerr=kerr), CouplingGraph(h=h), d=args.truncation,
        scan_halfwidth=args.scan_mhz * MHZ,
    )
    prediction = abs(h4_general(kerr, mixing_from_frequencies(h, omega)))
    meta = _meta("oracle", args) + [
        f"|h_eff|_MHz: {_fmt(result['h_eff'] / MHZ)}",
        f"perturbative_MHz: {_fmt(prediction / MHZ)}",
    ]
    rows = [[o / MHZ, gp / MHZ] for o, gp in zip(result["offsets"], result["gaps"])]
    _emit(out, meta, ["scan_offset_MHz", "gap_MHz"], rows)
    return 0


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """argparse whose usage errors end in KPOKIT-ERROR, exit 2, like any bad input."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's negative-number rule misses "-1e8" (before Python 3.13),
        # "-inf" and "-nan", and reads them as options; no kpokit option looks
        # like a number, so every token that float() reads as negative is a value
        self._negative_number_matcher = re.compile(
            r"-(?:\.?\d|(?:inf|infinity|nan)$)", re.IGNORECASE)

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="kpokit", description="KPO circuit design and verification toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("quantize", help="mode frequencies and Kerr from a netlist")
    p.add_argument("netlist")
    p.add_argument("--effective", action="store_true",
                   help="use inverse-matrix effective capacitances")
    p.set_defaults(func=cmd_quantize)

    p = sub.add_parser("couplings", help="two-body couplings of a unit circuit")
    p.add_argument("netlist")
    p.add_argument("--kpo-nodes", required=True)
    p.add_argument("--coupler-nodes", required=True)
    p.add_argument("--freq-ghz", required=True)
    p.add_argument("--coupler-freq-ghz", default=None)
    p.set_defaults(func=cmd_couplings)

    p = sub.add_parser("sweep", help="four-body couplings vs unit detuning")
    p.add_argument("--start-mhz", type=float, default=20.0)
    p.add_argument("--stop-mhz", type=float, default=500.0)
    p.add_argument("--points", type=int, default=49)
    p.add_argument("--log", action="store_true")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("snail", help="SNAIL flux sweep and Kerr-frequency fit")
    p.add_argument("--c-ff", type=float, default=200.0)
    p.add_argument("--l-ph", type=float, default=100.0)
    p.add_argument("--i0-na", type=float, default=1250.0)
    p.add_argument("--gamma", type=float, default=0.3)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--flux-start", type=float, default=0.45)
    p.add_argument("--flux-stop", type=float, default=0.49)
    p.add_argument("--points", type=int, default=9)
    p.set_defaults(func=cmd_snail)

    p = sub.add_parser("pump-plan", help="nine-frequency lattice pump plan")
    p.add_argument("--rows", type=int, default=3,
                   help=f"plaquette rows, 2 to {PUMP_PLAN_MAX_ROWS} (default 3)")
    p.add_argument("--base-ghz", type=float, default=9.0)
    p.add_argument("--spacing-mhz", type=float, default=20.0)
    p.set_defaults(func=cmd_pump_plan)

    p = sub.add_parser("parity", help="even/odd parity totals vs pump phase")
    p.add_argument("--h4-mhz", type=float, default=0.1)
    p.add_argument("--alpha", default="5.9,4.5,1.3,5.3")
    p.add_argument("--target-even", type=float, default=0.641)
    p.add_argument("--points", type=int, default=81)
    p.set_defaults(func=cmd_parity)

    p = sub.add_parser("boltzmann", help="16-state Boltzmann probabilities")
    p.add_argument("--eta", type=float, default=0.0)
    p.add_argument("--nu", default="0,0,0,0")
    p.add_argument("--theta-d4", type=float, default=math.pi / 2.0, dest="theta_d4")
    p.set_defaults(func=cmd_boltzmann)

    p = sub.add_parser("fit", help="fit energy coefficients from probability data")
    p.add_argument("data")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("oracle", help="exact-diagonalization four-body extraction")
    p.add_argument("--eps-mhz", type=float, default=100.0)
    p.add_argument("--truncation", type=int, default=4)
    p.add_argument("--scan-mhz", type=float, default=2.0)
    p.set_defaults(func=cmd_oracle)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        for name, value in vars(args).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"--{name.replace('_', '-')} must be finite, got {value}")
        return args.func(args, sys.stdout)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"{ERROR_PREFIX}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
