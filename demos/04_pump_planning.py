"""Pump-frequency selection: residual collisions and lattice tiling.

Three four-pump sets around 18.5 GHz illustrate the trade-off: one meets
the four-body condition cleanly, one deliberately breaks it, and one meets
it while also colliding with two third-order residual processes. The
second half generates a nine-frequency tiling of a plaquette lattice whose
mixing conditions hold exactly by construction.
"""

from kpokit.constants import GHZ, MHZ, TWO_PI
from kpokit.pumpplan import PumpAssignment, check_mixing, detect_residual, lhz_plan

SETS = {
    "clean": (9.270, 9.249, 9.290, 9.229),
    "detuned": (9.270, 9.249, 9.289, 9.229),
    "collision": (9.270, 9.250, 9.290, 9.230),
}

for name, half in SETS.items():
    pump = PumpAssignment(omega_p=tuple(2 * x * GHZ for x in half))
    pairings = check_mixing(pump)
    relations = detect_residual(pump, max_order=4)
    print(f"=== {name}: pumps at 2 x {half} GHz ===")
    print(f"  stationary pairings: {pairings or 'none'}")
    if relations:
        for r in relations:
            print(f"  order-{r.order} relation {r.coefficients}: {r.classification}")
    else:
        print("  no integer relations up to order 4")
    print()

print("=== nine-frequency plaquette lattice (4 x 4 plaquettes) ===")
plan = lhz_plan(rows=4, base=TWO_PI * 9.0e9, spacing=TWO_PI * 20.0e6)
for i in sorted(plan.frequencies):
    print(f"  pump {i}: {plan.frequencies[i] / GHZ:.4f} GHz")
print("site assignment (pump index per lattice site):")
for y in range(5):
    print("  " + " ".join(str(plan.sites[(x, y)]) for x in range(5)))
print(f"plaquettes checked: {len(plan.plaquettes)}, "
      f"violations: {len(plan.violations())} (exact arithmetic)")
significant = [s for s in plan.spurious if not s["negligible"]]
print(f"spurious conditions: {len(plan.spurious)} reported, "
      f"{len(significant)} significant")
