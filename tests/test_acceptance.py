"""Acceptance gate: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion; the test names are numbered to match the criteria list in the
README.

Criterion 3 is marked as a strict expected failure: with the pinned
zero-initial-covariance filter the estimate path is not an invertible
function of the measurement path (the time-0 measurement never enters the
filter), and I(X^T; Xhat^T) genuinely falls short of I(X^T; Y^T) for
T >= 2 by I(X^T; Y_0 | Xhat^T) > 0: e.g. ln(2*sqrt(370)/37) ~ 0.039 nats
at the reference parameters with T = 2, confirmed in exact arithmetic.
The deficit is bounded in T, so the per-step rates still agree; the
measurement-target conservation checks (criterion 2) hold to 1e-9.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from privmask import (
    MaskDiagnosis,
    MaskParams,
    SystemParams,
    boundary_diagnostics,
    empirical_cost,
    empirical_prediction_error,
    exact_directed_info,
    exact_mi,
    finite_horizon_info,
    gain_schedule,
    joint_covariance,
    mi_rate,
    mi_rate_from_nnr,
    optimal_nnr,
    simulate,
    solve_are,
    tradeoff_curve,
)

ANCHOR = SystemParams(a=1, k=-1, w=0.05, q=1, r=1)
ANCHOR_MASKS = MaskParams(m=0, n=0.05)
LN2 = math.log(2)


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def conditioned_tuples(count: int, seed: int):
    """Random tuples keeping horizon-20 oracle runs well conditioned."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        a = rng.uniform(-1.2, 1.2)
        k = rng.choice([-1, 1]) * rng.uniform(0.2, 1.3)
        if abs(a + k) > 1.15:
            continue
        out.append((
            SystemParams(a=a, k=k, w=rng.uniform(0.02, 0.4), q=1, r=1),
            MaskParams(m=rng.uniform(0, 0.4), n=rng.uniform(0.02, 0.5)),
        ))
    return out


def test_01_riccati_closed_form_vs_iteration():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_gap = worst_residual = 0.0
    settled = True
    for _ in range(1000):
        a = rng.uniform(-2, 2)
        p = 1.0 - rng.uniform(0, 1)  # (0, 1]
        n = 1.0 - rng.uniform(0, 1)
        closed = solve_are(a, p, n)
        s = gain_schedule(a, p, n, 1000)[0]
        settled = settled and s[-1] == s[-3]
        worst_gap = max(worst_gap, abs(closed - s[-1]))
        residual = abs((a * a * n / (closed + n) - 1.0) * closed + p)
        worst_residual = max(worst_residual, residual / max(1.0, closed))
    elapsed = time.perf_counter() - t0
    report(1, settled and worst_gap <= 1e-10 and worst_residual <= 1e-12 and elapsed < 1.0,
           f"1000 tuples, schedules settled: {settled}, |closed-recursion| <= {worst_gap:.2e}, "
           f"relative residual <= {worst_residual:.2e}, {elapsed:.2f}s")


def test_02_conservation_of_information():
    t0 = time.perf_counter()
    di = exact_directed_info(ANCHOR, ANCHOR_MASKS, 1, "Y")
    assert di.forward == pytest.approx(0.5 * LN2, abs=1e-12)
    assert di.backward == pytest.approx(0.5 * LN2, abs=1e-12)
    jc = joint_covariance(ANCHOR, ANCHOR_MASKS, 1, ["X_1", "Y_0", "Y_1"])
    assert exact_mi(jc, ["X_1"], ["Y_0", "Y_1"]) == pytest.approx(LN2, abs=1e-12)

    worst = 0.0
    for sys_, masks in conditioned_tuples(50, seed=202):
        for T in (1, 5, 10, 20):
            x = [f"X_{t}" for t in range(1, T + 1)]
            y = [f"Y_{t}" for t in range(T + 1)]
            mi = exact_mi(joint_covariance(sys_, masks, T, x + y), x, y)
            closed = finite_horizon_info(sys_, masks, T).total
            worst = max(worst, abs(mi - closed))
    elapsed = time.perf_counter() - t0
    report(2, worst <= 1e-9 and elapsed < 10.0,
           f"50 tuples x T in (1,5,10,20): |oracle - closed sums| <= {worst:.2e}, "
           f"T=1 anchor ln2 splits evenly, {elapsed:.2f}s")


@pytest.mark.xfail(
    strict=True,
    reason="the zero-initial-covariance filter never uses Y_0, so the estimate "
    "path is not an invertible function of the measurement path; for T >= 2 "
    "the totals differ by I(X^T; Y_0 | Xhat^T) > 0 (0.039 nats at the "
    "reference point, T=2, exact value ln(2*sqrt(370)/37)); only the T = 1 "
    "case and the per-step rate limit attain equality",
)
def test_03_invertibility_totals():
    worst = 0.0
    for sys_, masks in conditioned_tuples(50, seed=202):
        for T in (1, 5, 10, 20):
            x = [f"X_{t}" for t in range(1, T + 1)]
            y = [f"Y_{t}" for t in range(T + 1)]
            xh = [f"Xhat_{t}" for t in range(1, T + 1)]
            jc = joint_covariance(sys_, masks, T, x + y + xh)
            worst = max(worst, abs(exact_mi(jc, x, y) - exact_mi(jc, x, xh)))
    report(3, worst <= 1e-9,
           f"I(X;Y) vs I(X;Xhat) totals: max deviation {worst:.2e}")


def test_04_rate_depends_only_on_noise_ratio():
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(20):
        sys_ = SystemParams(a=rng.uniform(-2, 2), k=rng.choice([-1, 1]) * rng.uniform(0.1, 2),
                            w=rng.uniform(0.01, 0.5), q=1, r=1)
        alpha = 10 ** rng.uniform(-1.5, 1.5)
        totals = [mi_rate(sys_, MaskParams(m=m, n=alpha * (m + sys_.w))).total
                  for m in np.linspace(0.0, 1.0, 5)]
        worst = max(worst, max(totals) - min(totals))
    report(4, worst <= 1e-12,
           f"20 random (a,k,alpha), 5 mask pairs per ratio line: spread <= {worst:.2e}")


def test_05_optimal_ratio_anchors_and_global_minimality():
    t0 = time.perf_counter()
    factoring = optimal_nnr(0.0, 0.5)
    assert factoring.alpha_star == pytest.approx(2.0, abs=1e-9)
    assert factoring.mi_min == pytest.approx(math.log(1.5), abs=1e-9)
    anchor = optimal_nnr(1.0, -1.0)
    assert 0.8840 <= anchor.alpha_star <= 0.8853

    rng = np.random.default_rng(505)
    grid = np.geomspace(1e-3, 1e3, 601)
    ok = True
    for _ in range(50):
        a = rng.uniform(-2, 2)
        k = rng.choice([-1, 1]) * rng.uniform(0.05, 2)
        sys_ = SystemParams(a=a, k=k, w=0.1)
        best = optimal_nnr(a, k).mi_min
        ok = ok and best <= min(mi_rate_from_nnr(sys_, g).total for g in grid) + 1e-9
    elapsed = time.perf_counter() - t0
    report(5, ok and elapsed < 5.0,
           f"alpha*(0,1/2)=2 and ln(1.5) exact; alpha*(1,-1)={anchor.alpha_star:.5f}; "
           f"50 random (a,k) beat the 601-point grid, {elapsed:.2f}s")


def test_06_interior_minimum_in_uplink_variance():
    astar = optimal_nnr(1.0, -1.0).alpha_star
    n_grid = np.linspace(0.005, 0.5, 200)
    totals = np.array([mi_rate(ANCHOR, MaskParams(m=0, n=float(n))).total for n in n_grid])
    i = int(np.argmin(totals))
    step = n_grid[1] - n_grid[0]
    target = astar * 0.05
    interior = 0 < i < len(n_grid) - 1
    report(6, interior and abs(n_grid[i] - target) <= step,
           f"n-sweep minimum at n={n_grid[i]:.4f}, expected {target:.4f} "
           f"within one grid step ({step:.4f})")


def test_07_monte_carlo_cost_and_prediction_error():
    t0 = time.perf_counter()
    batch = simulate(ANCHOR, ANCHOR_MASKS, 100_000, 64, seed=7)
    cost, cost_se = empirical_cost(batch)
    sigma, sigma_se = empirical_prediction_error(batch)
    sigma_cf = solve_are(1.0, 0.05, 0.05)
    elapsed = time.perf_counter() - t0
    ok = abs(cost - 0.25) <= 3 * cost_se and abs(sigma - sigma_cf) <= 3 * sigma_se
    report(7, ok and elapsed < 30.0,
           f"cost {cost:.5f}+-{cost_se:.5f} vs 0.25; "
           f"pred-error {sigma:.6f}+-{sigma_se:.6f} vs {sigma_cf:.6f}, {elapsed:.1f}s")


def test_08_divergence_toward_missing_masks():
    totals = [mi_rate(ANCHOR, MaskParams(m=0, n=10.0**-e)).total for e in range(1, 9)]
    monotone = all(b > a for a, b in zip(totals, totals[1:]))
    # dominance oracle: the total tracks 0.5*ln(1 + p/n) as n shrinks
    dominance = [0.5 * math.log1p(0.05 / 10.0**-e) for e in range(1, 9)]
    tracks = all(abs(t - d) <= 0.05 * d for t, d in zip(totals[3:], dominance[3:]))
    # the oracle value crosses 5 nats at n = 1e-6 (4.26 nats at 1e-5)
    crosses = totals[5] > 5.0 and dominance[5] > 5.0
    flags = (boundary_diagnostics(MaskParams(m=0.1, n=0), 0.0) is MaskDiagnosis.UPLINK_UNBOUNDED
             and boundary_diagnostics(MaskParams(m=0, n=0.1), 0.0) is MaskDiagnosis.DOWNLINK_UNBOUNDED
             and boundary_diagnostics(MaskParams(m=0, n=0.1), 0.05) is MaskDiagnosis.OK)
    report(8, monotone and tracks and crosses and flags,
           f"rate grows monotonically as n -> 0 (value {totals[4]:.3f} at 1e-5, "
           f"{totals[5]:.3f} > 5 at 1e-6, tracking the 0.5*ln(1+p/n) growth); "
           f"boundary diagnostics flag both regimes")


def test_09_tradeoff_dominance():
    astar = optimal_nnr(1.0, -1.0).alpha_star
    points = tradeoff_curve(ANCHOR, [0.0, 0.5, 1.0, 2.0, 10.0])
    alphas = [pt.alpha for pt in points]
    ok = (all(al <= astar + 1e-9 for al in alphas)
          and all(a2 <= a1 for a1, a2 in zip(alphas, alphas[1:]))
          and alphas[0] == astar)
    report(9, ok, "alpha(lambda) = " + ", ".join(f"{al:.4f}" for al in alphas)
           + f" nonincreasing, all <= alpha*={astar:.4f}, lambda=0 exact")


def test_10_simulation_cli_byte_determinism(tmp_path):
    args = [sys.executable, "-m", "privmask.cli", "simulate", "--a", "1", "--k", "-1",
            "--T", "20000", "--trajectories", "32", "--seed", "7"]
    runs = []
    for extra in ([], [], ["--workers", "4"]):
        proc = subprocess.run(args + extra, capture_output=True, check=True)
        runs.append(proc.stdout)
    ok = runs[0] == runs[1] == runs[2] and json.loads(runs[0])["pass"] is True
    report(10, ok, "simulate output byte-identical across reruns and worker counts")
