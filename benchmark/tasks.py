"""One task of each workload, calling kpokit's public functions.

A task returns what its checks need and nothing is checked here: the
checks in ``checks.py`` run after the timed loop.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys

import numpy as np

import kpokit
from kpokit.constants import GHZ, MHZ, PHI0_REDUCED

from inputs import AUDIT_ORDER, COUPLER_NODES, KPO_NODES, LADDER_KERR_MHZ, ladder

FOUR_BODY_KEY = ((1, 1, 0, 0, 0), (0, 0, 1, 1, 0))


# --------------------------------------------------------------------------
# gap-scan
# --------------------------------------------------------------------------

def gap_scan_task(inp: dict) -> dict:
    spectrum = kpokit.ModeSpectrum(omega=inp["omega"], kerr=inp["kerr"])
    couplings = kpokit.CouplingGraph(h=inp["h"])
    scan = kpokit.four_body_from_gap(
        spectrum, couplings, d=inp["truncation"], scan_halfwidth=inp["scan_halfwidth"]
    )
    dressed = kpokit.four_body_kerr_dressed(spectrum, couplings)
    return {"scan": scan, "kerr_dressed": dressed}


# --------------------------------------------------------------------------
# design
# --------------------------------------------------------------------------

def design_task(inp: dict) -> dict:
    """A unit circuit from capacitances to the spin-model fit.

    SNAILs sit on KPOs 1 and 4; the SQUIDs on KPOs 2 and 3 are tuned to
    the resonant ladder their frequencies define, and a single-junction
    coupler is the fifth mode. The pump audit is its own operation.
    """
    net = kpokit.unit_circuit(inp["c_q"], inp["c_g"], inp["c_c"])
    cmat = kpokit.build_capacitance_matrix(net)
    inverse = kpokit.invert_capacitance(cmat, net)
    bare = kpokit.extract_bare(net, KPO_NODES, COUPLER_NODES)
    modes = kpokit.mode_reduce(inverse, KPO_NODES, COUPLER_NODES, bare=bare)
    c_eff = modes.c_q_eff
    l_geom = inp["l_geom"]

    snails, phi_bars, snail_modes = [], [], []
    for kpo, flux in zip((0, 3), inp["snail_flux"]):
        element = kpokit.Snail(i0=inp["snail_i0"], gamma=inp["snail_gamma"], n=2,
                               phi_x=2.0 * math.pi * flux)
        snails.append(element)
        phi_bars.append(kpokit.snail_equilibrium_phase(element))
        snail_modes.append(kpokit.snail_mode_params(c_eff[kpo], l_geom, element))
    w1, w4 = snail_modes[0].omega, snail_modes[1].omega
    eps = 0.5 * (w1 - w4)
    targets = ladder(w1, eps)

    squid_l = [kpokit.squid_inductance_for_frequency(targets[k], c_eff[k], l_geom)
               for k in (1, 2)]
    squids = [kpokit.kpo_mode_params(c_eff[k], l_geom, kpokit.Squid(l))
              for k, l in zip((1, 2), squid_l)]
    coupler_l = kpokit.squid_inductance_for_frequency(
        w1 + inp["coupler_offset"], modes.c_g_eff, l_geom)
    coupler = kpokit.kpo_mode_params(modes.c_g_eff, l_geom,
                                     kpokit.SingleJunction(i0=PHI0_REDUCED / coupler_l))

    omega = np.array([w1, squids[0].omega, squids[1].omega, w4])
    kerr = np.array([snail_modes[0].kerr, squids[0].kerr, squids[1].kerr, snail_modes[1].kerr])
    spectrum = kpokit.ModeSpectrum(omega=omega, kerr=kerr, coupler_omega=coupler.omega,
                                   coupler_kerr=coupler.kerr)
    couplings = kpokit.coupling_constants(modes, spectrum)["exact"]
    mixing = kpokit.sw_mixing(spectrum, couplings)
    poly = kpokit.transform_kerr(spectrum, mixing)
    report = kpokit.rwa_filter(poly, kpokit.PumpAssignment(omega_p=tuple(2.0 * omega)),
                               coupler_mode=4)
    h4 = kpokit.four_body_kerr_dressed(spectrum, couplings)

    audit = kpokit.detect_residual(kpokit.PumpAssignment(omega_p=inp["audit_pumps"]),
                                   AUDIT_ORDER)

    plan = kpokit.lhz_plan(inp["lattice_rows"])

    config = kpokit.OscillationConfig(alpha=inp["alpha"], epsilon_d=np.zeros(4),
                                      theta_d=np.full(4, math.pi / 2.0), theta_p=np.zeros(4))
    interactions = kpokit.InteractionSet(h4=h4)
    beta = kpokit.beta_for_even_parity(config, interactions, target_even=inp["target_even"])
    grid = np.linspace(0.0, 8.0 * math.pi, inp["parity_points"])
    even, odd = kpokit.parity_curve(config, interactions, grid, beta)
    fit = kpokit.fit_energy_model(inp["fit_thetas"], inp["fit_table"])

    return {
        "c_eff": c_eff, "c_g_eff": modes.c_g_eff, "l_geom": l_geom,
        "squid_l": squid_l, "squids": squids,
        "coupler_l": coupler_l, "coupler": coupler,
        "snails": snails, "phi_bars": phi_bars, "snail_modes": snail_modes,
        "spectrum": spectrum, "couplings": couplings,
        "poly_terms": poly.terms,
        "four_body": report.coefficient(*FOUR_BODY_KEY),
        "h4": h4,
        "audit": [r.coefficients for r in audit],
        "plan_rows": inp["lattice_rows"],
        "plan_frequencies": dict(plan.frequencies), "plan_plaquettes": plan.plaquettes,
        "parity_grid": grid, "even": even, "odd": odd, "target_even": inp["target_even"],
        "fit": fit.model,
    }


# --------------------------------------------------------------------------
# cli
# --------------------------------------------------------------------------

SUBCOMMANDS = ("quantize", "couplings", "sweep", "snail", "pump-plan", "parity",
               "boltzmann", "fit", "oracle")
MALFORMED = ("missing-key", "nan-start")


def cli_commands(paths: dict) -> list[tuple[str, list[str]]]:
    """One cycle: the README's nine invocations, then two malformed ones."""
    return [
        ("quantize", ["quantize", paths["netlist"]]),
        ("couplings", ["couplings", paths["netlist"], "--kpo-nodes", ",".join(KPO_NODES),
                       "--coupler-nodes", ",".join(COUPLER_NODES),
                       "--freq-ghz", "10,10,10,10", "--coupler-freq-ghz", "10"]),
        ("sweep", ["sweep", "--start-mhz", "20", "--stop-mhz", "500", "--points", "49", "--log"]),
        ("snail", ["snail", "--flux-start", "0.45", "--flux-stop", "0.49", "--points", "9"]),
        ("pump-plan", ["pump-plan", "--rows", "3", "--base-ghz", "9", "--spacing-mhz", "20"]),
        ("parity", ["parity", "--h4-mhz", "0.1", "--target-even", "0.641"]),
        ("boltzmann", ["boltzmann", "--eta", "-0.29", "--nu", "0,0,0,0.4"]),
        ("fit", ["fit", paths["table"]]),
        ("oracle", ["oracle", "--eps-mhz", "100", "--truncation", "4", "--scan-mhz", "2"]),
        ("missing-key", ["quantize", paths["malformed"]]),
        ("nan-start", ["sweep", "--start-mhz", "nan"]),
    ]


def cli_oracle_reference() -> float:
    """four_body_kerr_dressed [MHz] for the ladder `kpokit oracle` scans."""
    h = np.full((4, 4), 5.0 * MHZ)
    np.fill_diagonal(h, 0.0)
    spectrum = kpokit.ModeSpectrum(omega=ladder(10.0 * GHZ, 100.0 * MHZ),
                                   kerr=np.array(LADDER_KERR_MHZ) * MHZ)
    return kpokit.four_body_kerr_dressed(spectrum, kpokit.CouplingGraph(h=h)) / MHZ


def child_env(src_dir: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir
    return env


def run_cli(argv: list[str], env: dict, out_path: str, err_path: str) -> dict:
    """Run one fresh `python -m kpokit.cli` process to completion.

    Returns its exit code, output and peak resident set.
    """
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen([sys.executable, "-m", "kpokit.cli", *argv],
                                stdout=out, stderr=err, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as fh:
        stdout = fh.read()
    with open(err_path, "rb") as fh:
        stderr = fh.read()
    return {"code": proc.returncode, "stdout": stdout, "stderr": stderr,
            "rss_mb": usage.ru_maxrss / 1024.0}
