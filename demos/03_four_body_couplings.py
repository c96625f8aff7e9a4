"""Effective four-body couplings vs. unit detuning.

Sweeps the ladder detuning and evaluates every closed form: the
coupler-mediated g4 (falls as 1/eps^4) for two coupler nonlinearities, and
the detuning-mediated h4 variants (fall as 1/eps^3) for the SQUID and
SNAIL Kerr patterns. Then cross-checks one point against the exact
expansion of the Kerr terms, the quartic built from the mode-mixing matrix.
"""

import numpy as np

from kpokit.cli import sweep_parameter_sets
from kpokit.constants import GHZ, KHZ, MHZ
from kpokit.perturbation import (
    CouplingGraph,
    ModeSpectrum,
    g4_symmetric,
    h4_detuning,
    h4_general,
    h4_snail,
    h4_tilde,
    ladder_frequencies,
    sw_mixing,
    transform_kerr,
)

p = sweep_parameter_sets()
print("fixed design parameters:")
print(f"  coupler Kerr: {p['k_g_kpo'] / MHZ:.2f} MHz (KPO-like), "
      f"{p['k_g_transmon'] / MHZ:.2f} MHz (transmon-like)")
print(f"  SQUID Kerr set: {np.round(p['kerr_squid'] / MHZ, 2)} MHz")
print(f"  all two-body couplings: 5 MHz")
print()

print("eps/2pi   g4 kpo    g4 transmon   h4 squid   h4 snail   h4 tilde   [kHz]")
for eps_mhz in (25, 50, 100, 200, 400):
    eps = eps_mhz * MHZ
    row = (
        abs(g4_symmetric(p["g_g"], eps, p["k_g_kpo"])) / KHZ,
        abs(g4_symmetric(p["g_g"], eps, p["k_g_transmon"])) / KHZ,
        abs(h4_detuning(p["h_q"], eps, p["kerr_squid"])) / KHZ,
        abs(h4_snail(p["h_qn"], p["h_nn"], p["h_qq"], p["kerr_snail"], eps)) / KHZ,
        abs(h4_tilde(p["h_q"], p["k4"], epsilon=eps)) / KHZ,
    )
    print(f"{eps_mhz:5d}   " + "   ".join(f"{v:8.4f}" for v in row))
print()

# exact engine check at eps = 100 MHz: transform the Kerr Hamiltonian
# under the mixing substitution and read the a1+ a2+ a3 a4 coefficient
omega = np.array(ladder_frequencies(100 * MHZ, 10 * GHZ))
spectrum = ModeSpectrum(omega=omega, kerr=p["kerr_squid"])
h = np.full((4, 4), 5 * MHZ)
np.fill_diagonal(h, 0.0)
mix = sw_mixing(spectrum, CouplingGraph(h=h))
engine = -transform_kerr(spectrum, mix).coefficient((1, 1, 0, 0), (0, 0, 1, 1))
closed = h4_general(p["kerr_squid"], mix.h_tilde)
print(f"engine vs closed form at eps = 100 MHz: "
      f"{engine / KHZ:.6f} vs {closed / KHZ:.6f} kHz "
      f"(rel diff {abs(engine - closed) / abs(closed):.1e})")
