"""End-to-end mask design: optimum, trade-off curve, robustness.

The design problem collapses to one dimension: pick the noise-to-noise
ratio alpha, then realize it with any (m, n) pair on the line
n = alpha*(m+w).  Setting m = 0 is mathematically cost-optimal, but the achieved
ratio then inherits every percent of error in the modeled process noise;
a nonzero downlink mask damps that sensitivity.
"""

import numpy as np

from privmask import (
    SystemParams,
    masks_from_nnr,
    robustness_sweep,
    tradeoff_curve,
)

SYS = SystemParams(a=1.0, k=-1.0, w=0.05, q=1.0, r=1.0)

# one quartic solve gives the optimum and the trade-off below it
report = tradeoff_curve(SYS, [0.0, 0.5, 1.0, 2.0, 10.0])
print(f"plant: a={SYS.a}, k={SYS.k}, w={SYS.w}, cost weights q={SYS.q}, r={SYS.r}")
print(f"optimal ratio alpha* = {report.alpha_star:.6f} "
      f"(quartic residual {report.residual:.1e})")
print(f"minimal privacy-loss rate = {report.mi_min:.6f} nats/step")
masks = masks_from_nnr(report.alpha_star, SYS.w, m=0.0)
print(f"pure-privacy design at m=0: n = {masks.n:.5f}\n")

print("privacy/cost trade-off (weight lambda on the cost):")
print(f"{'lambda':>7} {'alpha':>9} {'rate':>9} {'cost':>9} {'objective':>10}")
for pt in report.tradeoff:
    print(f"{pt.lam:7.1f} {pt.alpha:9.4f} {pt.mi:9.4f} {pt.cost:9.4f} {pt.objective:10.4f}")
print("heavier cost weights buy cheaper control with a larger privacy loss;\n"
      "alpha never exceeds alpha*, where both terms would grow.\n")

print("robustness: design n for the nominal w, then live with the true w")
m_choices = [0.0, 0.05, 0.15]
w_true = [0.04, 0.05, 0.06, 0.08]
grid = robustness_sweep(SYS, report.alpha_star, m_choices, w_true)
header = "".join(f"  w_true={w:<6}" for w in w_true)
print(f"{'m':>6} {header}   (achieved alpha; design target {report.alpha_star:.4f})")
for i, m in enumerate(m_choices):
    cells = "".join(f"  {grid.alpha[i, j]:<12.4f}" for j in range(len(w_true)))
    print(f"{m:6.2f} {cells}")
print(f"\n{'m':>6} {header}   (achieved rate; optimum {report.mi_min:.4f})")
for i, m in enumerate(m_choices):
    cells = "".join(f"  {grid.mi[i, j]:<12.4f}" for j in range(len(w_true)))
    print(f"{m:6.2f} {cells}")
print("\nlarger m pulls every achieved ratio toward the design target: the "
      "downlink mask is insurance against misknowing w")
