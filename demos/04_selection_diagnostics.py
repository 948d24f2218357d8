"""Can the penalized stage recover the invalid set on this design?

Two sufficient-condition diagnostics for the selection stage:

* the irrepresentable condition — correlation between valid and invalid
  TCP columns, routed through the invalid block's Gram inverse, must stay
  below one for sign-consistent selection to be possible at all;
* a restricted-isometry margin — near-isometry of small column subsets of
  the TCP block (minus crosstalk with the fitted OCP and the residualized
  treatment) certifies exact support recovery at a suitable penalty.

Both are certificates computed by brute-force subset enumeration, so a
guard refuses combinatorially infeasible requests instead of silently
approximating.

Run: python demos/04_selection_diagnostics.py
"""

import numpy as np

from proxsel import (
    SimConfig,
    generate_invalid_tcp_data,
    irrepresentable_diagnostic,
    rip_recovery_margin,
)
from proxsel.estimators import _reduced_rows
from proxsel.exceptions import CombinatorialBlowup

config = SimConfig(n=2500, p_z=8, s_z=2, seed=3)
data = generate_invalid_tcp_data(config, rep_index=0)
design, d_tilde, what = _reduced_rows(data, 0)

print("irrepresentable condition (invalid set = {0, 1}):")
rep = irrepresentable_diagnostic(design, [0, 1])
print(f"  value = {rep.irrepresentable_value:.3f}  holds: {rep.irrepresentable_holds}")

# A valid column aligned with the *sum* of the invalid ones breaks the
# condition: the valid block can mimic the whole invalid signal.
shadow = design.copy()
shadow[:, 2] = shadow[:, 0] + shadow[:, 1]
rep = irrepresentable_diagnostic(shadow, [0, 1])
print("with a valid column aligned to the invalid block:")
print(f"  value = {rep.irrepresentable_value:.3f}  holds: {rep.irrepresentable_holds}")

print("\nrestricted-isometry recovery margin (2 invalid TCPs):")
# The margin's sign is invariant to rescaling Z; dividing by sqrt(n) just
# keeps the isometry constants O(1) for display.
rep = rip_recovery_margin(data.Z / np.sqrt(data.n), what, d_tilde, s_z=2)
for label, (lo, hi) in rep.rip.items():
    print(f"  {label:15s}: isometry constants [{lo:.3f}, {hi:.3f}]")
print(f"  margin = {rep.recovery_margin:.3f} (positive certifies recovery)")
print("  (a negative margin means the certificate is silent, not that")
print("   selection fails: the condition is sufficient, not necessary)")

print("\ncombinatorial guard:")
wide = np.random.default_rng(0).standard_normal((100, 30))
try:
    rip_recovery_margin(wide, wide[:, 0], wide[:, 1], s_z=10)
except CombinatorialBlowup as err:
    print(f"  refused: {err}")
