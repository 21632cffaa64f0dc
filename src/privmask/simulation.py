"""Monte Carlo closed-loop simulation of plant, masks and cloud filter.

Noise generation is counter-based: every draw is a pure function of
``(seed, trajectory index, time index, channel)``, realized as one Philox
stream per trajectory read in a fixed layout and mapped through the inverse
normal CDF.  A Philox stream can be read in pieces without changing it, so
the closed loop runs time-major in blocks of ``BLOCK_STEPS`` steps: only one
block of noise and signals is in memory at a time, in buffers every block
reuses.  ``simulate`` copies the blocks into a full ``TrajectoryBatch``;
``simulate_moments`` reduces them as they finish.  Both are bit-reproducible
for a given ``(seed, horizon, n_trajectories)``.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.random import Philox
from scipy.special import ndtri

from .errors import HorizonTooShort, NonPositiveCount
from .params import MaskParams, SystemParams, require_stable
from .riccati import gain_schedule

DEFAULT_BURN_IN = 1000

# time steps per block: bounds the working set at ~12 arrays of
# BLOCK_STEPS x n_trajectories float64, whatever the horizon
BLOCK_STEPS = 4096

# fixed channel layout inside each trajectory's raw stream: slot 3*t + channel
_CH_W, _CH_N, _CH_M = 0, 1, 2

SIGNALS = ("x", "n", "y", "u", "m", "v", "w", "xhat_pred", "xhat")


@dataclass(frozen=True)
class TrajectoryBatch:
    """Closed-loop sample paths with the filter's internals.

    Signal arrays have shape ``(n_trajectories, horizon+1)`` indexed by
    time ``t = 0..horizon``; ``s_pred`` and ``gain`` are shared by all
    trajectories (the covariance recursion is deterministic).  Time-0
    entries of ``w``, ``xhat_pred``, ``s_pred`` and ``gain`` are zero by
    convention (the state starts known at zero and the first update happens
    at t = 1).
    """

    sys: SystemParams
    masks: MaskParams
    horizon: int
    n_trajectories: int
    seed: int
    x: np.ndarray
    n: np.ndarray
    y: np.ndarray
    u: np.ndarray
    m: np.ndarray
    v: np.ndarray
    w: np.ndarray
    xhat_pred: np.ndarray
    xhat: np.ndarray
    s_pred: np.ndarray
    gain: np.ndarray


def _noise(z: np.ndarray, streams: list, cols: slice, scales: dict) -> None:
    """Fill columns ``cols`` of ``z`` (``3*steps`` rows) with scaled normal noise.

    Column ``traj`` reads the next ``3*steps`` words of ``streams[traj]``.  Each
    operation is elementwise, so any split of the columns gives the same bits.
    """
    part = z[:, cols]
    for col, stream in zip(part.T, streams[cols]):
        col[...] = stream.random_raw(len(col)) >> np.uint64(11)
    # top 53 bits -> uniform strictly inside (0, 1), then inverse normal CDF
    part += 0.5
    part *= 2.0**-53
    ndtri(part, out=part)
    for ch, scale in scales.items():
        part[ch::3] *= scale


def _blocks(sys: SystemParams, masks: MaskParams, horizon: int,
            n_trajectories: int, seed: int, gains: np.ndarray):
    """Yield ``(t0, block)`` for consecutive time blocks of the closed loop.

    ``block`` maps each name in ``SIGNALS`` to a ``(steps, n_trajectories)``
    array holding times ``t0 .. t0+steps-1``; ``gains[t-1]`` is the filter
    gain applied at time ``t``.  Every step does the same arithmetic, in the
    same order, as a full-horizon recursion, so the split into blocks never
    changes a bit.  All blocks share one set of buffers, so a block's arrays
    are overwritten once the generator resumes: read or copy them first.

    A helper thread draws the noise of the second half of the trajectories
    while this thread draws the first, and is joined before the step loop:
    it never runs beside the loop, which holds the GIL, nor outlives the
    block.  Each stream is read in order by one thread, so no bit depends on
    thread scheduling.
    """
    streams = [Philox(key=np.array([np.uint64(seed), np.uint64(traj)], dtype=np.uint64))
               for traj in range(n_trajectories)]
    scales = {_CH_W: np.sqrt(sys.w), _CH_N: np.sqrt(masks.n), _CH_M: np.sqrt(masks.m)}
    half = (n_trajectories + 1) // 2
    # 0-d arrays, positional out and zip over rows keep per-step dispatch low
    a, k = np.array(sys.a, dtype=float), np.array(sys.k, dtype=float)
    multiply, add, subtract = np.multiply, np.add, np.subtract
    rows = min(BLOCK_STEPS, horizon + 1)
    # reused by every block, so no block faults in fresh pages
    z_all = np.empty((3 * rows, n_trajectories))
    signals_all = np.empty((6, rows, n_trajectories))
    x = v = u = xh = None  # state carried across block boundaries
    for t0 in range(0, horizon + 1, BLOCK_STEPS):
        steps = min(BLOCK_STEPS, horizon + 1 - t0)
        z = z_all[:3 * steps]
        with ThreadPoolExecutor(max_workers=1) as pool:
            helper = pool.submit(_noise, z, streams, slice(half, None), scales)
            _noise(z, streams, slice(0, half), scales)
            helper.result()
        W, N, M = (z[ch::3] for ch in (_CH_W, _CH_N, _CH_M))
        X, Y, U, V, XhP, Xh = signals_all[:, :steps]
        first = 0
        if t0 == 0:
            W[0] = 0.0  # no process noise acts before t = 1
            X[0] = XhP[0] = Xh[0] = 0.0  # X_0 = 0 is known to the filter
            Y[0] = N[0]
            U[0] = k * Y[0]
            V[0] = U[0] + M[0]
            x, v, u, xh = X[0], V[0], U[0], Xh[0]
            first = 1
        for xt, yt, ut, vt, pred, xht, wj, nj, mj, gj in zip(
                *(arr[first:] for arr in (X, Y, U, V, XhP, Xh, W, N, M)),
                gains[t0 + first - 1:t0 + steps - 1]):
            multiply(a, x, xt)
            xt += v
            xt += wj
            add(xt, nj, yt)
            multiply(k, yt, ut)
            add(ut, mj, vt)
            multiply(a, xh, pred)
            pred += u
            subtract(yt, pred, xht)
            xht *= gj
            xht += pred
            x, v, u, xh = xt, vt, ut, xht
        # copies, since the next block overwrites these rows
        x, v, u, xh = x.copy(), v.copy(), u.copy(), xh.copy()
        yield t0, {"x": X, "n": N, "y": Y, "u": U, "m": M, "v": V, "w": W,
                   "xhat_pred": XhP, "xhat": Xh}


def _check_sizes(horizon: int, n_trajectories: int) -> None:
    if horizon < 1:
        raise HorizonTooShort(f"horizon must be >= 1, got {horizon}")
    if n_trajectories < 1:
        raise NonPositiveCount(f"n_trajectories must be >= 1, got {n_trajectories}")


def simulate(sys: SystemParams, masks: MaskParams, horizon: int,
             n_trajectories: int, seed: int, workers: int = 1) -> TrajectoryBatch:
    """Simulate the closed loop and the cloud's filter along with it.

    The result is bit-identical for a fixed ``(seed, horizon,
    n_trajectories)``: each trajectory owns an independent noise stream and
    the recursion never couples trajectories.  ``workers`` is accepted for
    compatibility and ignored: the noise is always drawn on this thread and
    one helper thread, and results do not depend on thread scheduling.
    """
    _check_sizes(horizon, n_trajectories)
    s_seq, gains = gain_schedule(sys.a, masks.m + sys.w, masks.n, horizon)
    full = {name: np.empty((n_trajectories, horizon + 1)) for name in SIGNALS}
    for t0, block in _blocks(sys, masks, horizon, n_trajectories, seed, gains):
        for name, rows in block.items():
            full[name][:, t0:t0 + len(rows)] = rows.T
    return TrajectoryBatch(
        sys=sys, masks=masks, horizon=horizon, n_trajectories=n_trajectories,
        seed=seed, s_pred=np.concatenate([[0.0], s_seq]),
        gain=np.concatenate([[0.0], gains]), **full,
    )


def simulate_moments(sys: SystemParams, masks: MaskParams, horizon: int,
                     n_trajectories: int, seed: int, q: float, r: float,
                     burn_in: int = DEFAULT_BURN_IN) -> tuple:
    """Streaming ``(empirical_cost, empirical_prediction_error)`` of a simulation.

    Returns ``((cost, cost_se), (sigma, sigma_se))`` for the same paths that
    ``simulate`` with these arguments produces, without ever holding the full
    batch: memory grows with ``n_trajectories * BLOCK_STEPS``, and the only
    allocation that grows with the horizon is the shared gain schedule.  The
    per-trajectory sums run in another order than the full-batch
    estimators, so results agree with them to rounding, not bit for bit.
    """
    _check_sizes(horizon, n_trajectories)
    _check_moment_preconditions(sys, horizon, burn_in)
    _, gains = gain_schedule(sys.a, masks.m + sys.w, masks.n, horizon)
    cost_sum = np.zeros(n_trajectories)
    err_sum = np.zeros(n_trajectories)
    scratch = np.empty((2, min(BLOCK_STEPS, horizon + 1), n_trajectories))
    for t0, block in _blocks(sys, masks, horizon, n_trajectories, seed, gains):
        lo = max(burn_in + 1 - t0, 0)  # first row with t > burn_in
        x, u, pred = block["x"][lo:], block["u"][lo:], block["xhat_pred"][lo:]
        c1, c2 = scratch[:, :len(x)]
        # q*x**2 + r*u**2 and (x - pred)**2 into scratch rows every block reuses
        np.multiply(q, np.square(x, out=c1), out=c1)
        np.multiply(r, np.square(u, out=c2), out=c2)
        cost_sum += np.add(c1, c2, out=c1).sum(axis=0)
        err_sum += np.square(np.subtract(x, pred, out=c1), out=c1).sum(axis=0)
    count = horizon - burn_in
    return _mean_stderr(cost_sum / count), _mean_stderr(err_sum / count)


def _check_moment_preconditions(sys: SystemParams, horizon: int, burn_in: int) -> None:
    if horizon <= burn_in:
        raise HorizonTooShort(
            f"horizon {horizon} must exceed the burn-in of {burn_in} steps")
    require_stable(sys)


def empirical_cost(batch: TrajectoryBatch, q: float, r: float,
                   burn_in: int = DEFAULT_BURN_IN) -> tuple:
    """Mean and standard error of the per-step cost q*X^2 + r*U^2.

    Averages over t > burn_in within each trajectory first; the standard
    error is taken across trajectory means, which sidesteps the
    within-trajectory autocorrelation.
    """
    _check_moment_preconditions(batch.sys, batch.horizon, burn_in)
    sl = slice(burn_in + 1, None)
    per_traj = (q * batch.x[:, sl] ** 2 + r * batch.u[:, sl] ** 2).mean(axis=1)
    return _mean_stderr(per_traj)


def empirical_prediction_error(batch: TrajectoryBatch,
                               burn_in: int = DEFAULT_BURN_IN) -> tuple:
    """Mean and standard error of the squared one-step prediction error.

    The estimate converges to the steady prediction variance from
    ``riccati.solve_are`` (the error has zero mean, so the raw second
    moment is the variance estimator).
    """
    _check_moment_preconditions(batch.sys, batch.horizon, burn_in)
    sl = slice(burn_in + 1, None)
    per_traj = ((batch.x[:, sl] - batch.xhat_pred[:, sl]) ** 2).mean(axis=1)
    return _mean_stderr(per_traj)


def _mean_stderr(per_traj: np.ndarray) -> tuple:
    mean = float(per_traj.mean())
    if len(per_traj) > 1:
        stderr = float(per_traj.std(ddof=1) / np.sqrt(len(per_traj)))
    else:
        stderr = 0.0
    return mean, stderr

