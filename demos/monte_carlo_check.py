"""Monte Carlo validation of the closed-form cost and error variance.

Simulates the full loop (plant, masks, cloud filter) with counter-based
per-trajectory noise streams and compares time-averaged statistics against
the closed forms.  Rerunning with the same seed reproduces every byte.
"""

import numpy as np

from privmask import (
    MaskParams,
    SystemParams,
    control_cost_rate,
    empirical_cost,
    empirical_prediction_error,
    simulate,
    solve_are,
)

SYS = SystemParams(a=1.0, k=-1.0, w=0.05, q=1.0, r=1.0)
MASKS = MaskParams(m=0.0, n=0.05)
HORIZON, TRAJECTORIES, SEED = 100_000, 64, 7

print(f"simulating {TRAJECTORIES} trajectories of {HORIZON} steps (seed {SEED}) ...")
batch = simulate(SYS, MASKS, HORIZON, TRAJECTORIES, seed=SEED)

cost, cost_se = empirical_cost(batch)
cost_cf = control_cost_rate(SYS, MASKS)
sigma, sigma_se = empirical_prediction_error(batch)
sigma_cf = solve_are(SYS.a, MASKS.m + SYS.w, MASKS.n)

print(f"\ncontrol cost      : {cost:.6f} +- {cost_se:.6f}   closed form {cost_cf}")
print(f"prediction error  : {sigma:.6f} +- {sigma_se:.6f}   closed form {sigma_cf:.6f}")
print(f"both within 3 standard errors: "
      f"{abs(cost-cost_cf) <= 3*cost_se and abs(sigma-sigma_cf) <= 3*sigma_se}")

# the filter's optimality, read off the sample paths
sl = slice(1001, None)
err = batch.x[:, sl] - batch.xhat[:, sl]
orth = (batch.xhat[:, sl] * err).mean(axis=1)
innov = batch.y[:, sl] - batch.xhat_pred[:, sl]
rho1 = (innov[:, 1:] * innov[:, :-1]).mean(axis=1)
print(f"\nestimate-error correlation (should be ~0): {orth.mean():+.2e} "
      f"+- {orth.std(ddof=1)/np.sqrt(len(orth)):.2e}")
print(f"innovation lag-1 autocovariance (should be ~0): {rho1.mean():+.2e} "
      f"+- {rho1.std(ddof=1)/np.sqrt(len(rho1)):.2e}")

x = batch.x
del batch, err, innov  # keep one batch in memory at a time
rerun = simulate(SYS, MASKS, HORIZON, TRAJECTORIES, seed=SEED)
print(f"\nrerun bit-identical: {np.array_equal(x, rerun.x)}")
