"""Two-body couplings of the six-node unit circuit.

Builds the Maxwell capacitance matrix for four KPOs linked pairwise to a
two-node coupler, inverts it, reduces to mode capacitances, and compares
the exact inverse-matrix couplings against the small-C_c closed forms.
The coupling capacitors are sized so every design coupling is 5 MHz.
"""

import numpy as np

from kpokit.constants import GHZ, MHZ
from kpokit.netlist import (
    build_capacitance_matrix,
    coupling_constants,
    extract_bare,
    invert_capacitance,
    mode_reduce,
    unit_circuit,
)
from kpokit.perturbation import ModeSpectrum

KPO_NODES = ("q1", "q2", "q3", "q4")
COUPLER_NODES = ("c5", "c6")


def reduced(c_q, c_g, c_c):
    net = unit_circuit(c_q, c_g, c_c)
    g = invert_capacitance(build_capacitance_matrix(net), net)
    bare = extract_bare(net, KPO_NODES, COUPLER_NODES)
    return mode_reduce(g, KPO_NODES, COUPLER_NODES, bare=bare)


spectrum = ModeSpectrum(
    omega=np.full(4, 10 * GHZ), kerr=np.zeros(4),
    coupler_omega=10 * GHZ, coupler_kerr=0.0,
)

for label, c_c in (("C_c = 1 fF (coupler-mediated, g)", 1e-15),
                   ("C_c = 2 fF (direct, h)", 2e-15)):
    modes = reduced(500e-15, 500e-15, c_c)
    graphs = coupling_constants(modes, spectrum)
    print(f"=== {label} ===")
    print(f"reduced capacitances: C_q = {modes.c_q_eff[0] / 1e-15:.2f} fF, "
          f"C_g = {modes.c_g_eff / 1e-15:.2f} fF")
    print("coupling   exact [MHz]   approx [MHz]   rel diff")
    for j in range(4):
        for k in range(j + 1, 4):
            e, a = graphs["exact"].h[j, k] / MHZ, graphs["approx"].h[j, k] / MHZ
            print(f"  h{j + 1}{k + 1}     {e:10.5f}   {a:10.5f}   {abs(e - a) / e:8.2e}")
    for j in range(4):
        e, a = abs(graphs["exact"].g[j]) / MHZ, abs(graphs["approx"].g[j]) / MHZ
        print(f"  g{j + 1}      {e:10.5f}   {a:10.5f}   {abs(e - a) / e:8.2e}")
    print(f"(agreement bound 3 C_c/C_q = {3 * c_c / 500e-15:.1%})")
    print()
