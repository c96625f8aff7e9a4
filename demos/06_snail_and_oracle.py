"""SNAIL working point and exact-diagonalization cross-check.

First half: track the SNAIL equilibrium phase across flux, expand the
potential at the 0.47-turn working point, and fit the Kerr-frequency line
over the negative-Kerr branch. Second half: verify a perturbative
four-body coupling against the avoided-crossing gap of the exact
truncated-Fock-space Hamiltonian, including the truncation convergence and
the expected next-order discrepancy of about K/eps.
"""

import math

import numpy as np

from kpokit.constants import GHZ, KHZ, MHZ
from kpokit.elements import (
    Snail,
    snail_equilibrium_phase,
    snail_expansion,
    snail_flux_sweep,
    snail_kerr_frequency_fit,
    snail_mode_params,
)
from kpokit.oracle import four_body_from_gap
from kpokit.perturbation import (
    CouplingGraph,
    ModeSpectrum,
    h4_general,
    ladder_frequencies,
    mixing_from_frequencies,
)

print("=== SNAIL (I0 = 1250 nA, gamma = 0.3, n = 2) ===")
element = Snail(i0=1250e-9, gamma=0.3, n=2, phi_x=2 * math.pi * 0.47)
phi_bar = snail_equilibrium_phase(element)
exp = snail_expansion(element, phi_bar, 100e-12)
mode = snail_mode_params(200e-15, 100e-12, element)
print(f"working point 0.47 turns: phi_bar = {phi_bar:.4f} rad")
print(f"  c2 = {exp.c2:+.5f}  c3 = {exp.c3:+.5f}  c4 = {exp.c4:+.5f}  "
      f"p = {exp.participation:.4f}")
print(f"  f = {mode.omega / GHZ:.4f} GHz, K/2pi = {mode.kerr / MHZ:+.2f} MHz")

flux = 2 * math.pi * np.linspace(0.45, 0.49, 9)
sweep = snail_flux_sweep(200e-15, 100e-12, Snail(i0=1250e-9, gamma=0.3, n=2), flux)
fit = snail_kerr_frequency_fit(sweep)
kerr = np.array([m.kerr for m in sweep])
rms = fit.residual_norm / math.sqrt(len(sweep)) / (kerr.max() - kerr.min())
print(f"Kerr-frequency fit over 0.45-0.49 turns: slope {fit.slope:.4e}, "
      f"RMS residual {rms:.1%} of range")

print()
print("=== exact diagonalization vs third-order perturbation ===")
kerr4 = np.array([5.1, 20.0, 20.0, 5.1]) * MHZ
h = np.full((4, 4), 5.0 * MHZ)
np.fill_diagonal(h, 0.0)
print("eps/2pi   exact |h_eff|   perturbative   deviation")
for eps_mhz in (100.0, 200.0, 300.0):
    omega = np.array(ladder_frequencies(eps_mhz * MHZ, 10 * GHZ))
    spectrum = ModeSpectrum(omega=omega, kerr=kerr4)
    result = four_body_from_gap(spectrum, CouplingGraph(h=h), d=4, scan_halfwidth=3 * MHZ)
    predicted = abs(h4_general(kerr4, mixing_from_frequencies(h, omega)))
    dev = abs(result["h_eff"] - predicted) / predicted
    print(f"{eps_mhz:6.0f}   {result['h_eff'] / KHZ:10.4f} kHz  "
          f"{predicted / KHZ:10.4f} kHz   {dev:6.1%}")
print("(the deviation tracks K2/eps, the next order beyond the closed form)")
