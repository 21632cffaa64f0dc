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

from .errors import HorizonTooShort, NonPositiveCount, PrivmaskError
from .params import MaskParams, SystemParams, require_stable
from .riccati import gain_schedule

DEFAULT_BURN_IN = 1000

# time steps per block: bounds the working set at ~12 arrays of
# BLOCK_STEPS x n_trajectories float64, whatever the horizon
BLOCK_STEPS = 1024

# trajectories whose noise is converted together in one contiguous block
_GROUP = 8

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


def _noise(z: np.ndarray, streams: list, lo: int, hi: int, scales: np.ndarray,
           work: np.ndarray) -> None:
    """Fill columns ``lo:hi`` of ``z`` (``3*steps`` rows) with scaled normal noise.

    Column ``traj`` reads the next ``3*steps`` words of ``streams[traj]``.
    ``_GROUP`` trajectories at a time are converted and scaled in contiguous
    rows of ``work``, then copied into ``z``; ``scales`` holds each row's
    channel scale.  Each operation is elementwise, so any split of the
    columns gives the same bits.
    """
    words = len(z)
    for g0 in range(lo, hi, _GROUP):
        g1 = min(g0 + _GROUP, hi)
        part = work[:g1 - g0, :words]
        for row, stream in zip(part, streams[g0:g1]):
            row[...] = stream.random_raw(words) >> np.uint64(11)
        # top 53 bits -> uniform strictly inside (0, 1), then inverse normal CDF
        part += 0.5
        part *= 2.0**-53
        ndtri(part, out=part)
        part *= scales[:words]
        z[:, g0:g1] = part.T


def _blocks(sys: SystemParams, masks: MaskParams, horizon: int,
            n_trajectories: int, seed: int, gains: np.ndarray):
    """Yield ``(t0, block)`` for consecutive time blocks of the closed loop.

    ``block`` maps each name in ``SIGNALS`` to a ``(steps, n_trajectories)``
    array holding times ``t0 .. t0+steps-1``; ``gains[t-1]`` is the filter
    gain applied at time ``t``.  Every step does the same arithmetic, in the
    same order, as a full-horizon recursion, so the split into blocks never
    changes a bit.  All blocks share one set of buffers, so a block's arrays
    are overwritten once the generator resumes: read or copy them first.

    Each step's ``x, xhat, v, u, y`` are adjacent rows of one slab, so one
    ``multiply`` and one ``add`` give ``a*x + v`` and ``a*xhat + u`` (the
    prediction) together; the filter then corrects ``xhat`` in place through
    one scratch row.  ``xhat_pred`` is rebuilt after the loop by the same two
    operations over the whole block.  Each distinct gain is one 0-d array.

    A helper thread draws the noise of the second half of the trajectories
    while this thread draws the first, and is joined before the step loop:
    it never runs beside the loop, which holds the GIL, nor outlives the
    block.  Each stream is read in order by one thread, so no bit depends on
    thread scheduling.
    """
    streams = [Philox(key=np.array([np.uint64(seed), np.uint64(traj)], dtype=np.uint64))
               for traj in range(n_trajectories)]
    rows = min(BLOCK_STEPS, horizon + 1)
    scales = np.empty((rows, 3))  # the scale of each noise row, slot 3*t + channel
    scales[:, [_CH_W, _CH_N, _CH_M]] = np.sqrt([sys.w, masks.n, masks.m])
    scales = scales.reshape(-1)
    half = (n_trajectories + 1) // 2
    # 0-d arrays, positional out and zip over rows keep per-step dispatch low
    a, k = np.array(sys.a, dtype=float), np.array(sys.k, dtype=float)
    multiply, add, subtract = np.multiply, np.add, np.subtract
    # reused by every block, so no block faults in fresh pages
    z_all = np.empty((3 * rows, n_trajectories))
    work = np.empty((2, _GROUP, 3 * rows))  # one conversion block per noise thread
    # slab[1 + i] holds rows x, xhat, v, u, y of the block's step i;
    # slab[0] carries the last step of the previous block
    slab = np.empty((rows + 1, 5, n_trajectories))
    pred_all = np.empty((rows, n_trajectories))
    scratch = np.empty(n_trajectories)
    for t0 in range(0, horizon + 1, BLOCK_STEPS):
        steps = min(BLOCK_STEPS, horizon + 1 - t0)
        z = z_all[:3 * steps]
        with ThreadPoolExecutor(max_workers=1) as pool:
            helper = pool.submit(_noise, z, streams, half, n_trajectories, scales, work[1])
            _noise(z, streams, 0, half, scales, work[0])
            helper.result()
        W, N, M = (z[ch::3] for ch in (_CH_W, _CH_N, _CH_M))
        S = slab[:steps + 1]
        XXh, VU = S[:, 0:2], S[:, 2:4]
        X, Xh, V, U, Y = (S[1:, i] for i in range(5))
        XhP = pred_all[:steps]
        first = 0
        if t0 == 0:
            W[0] = 0.0  # no process noise acts before t = 1
            X[0] = XhP[0] = Xh[0] = 0.0  # X_0 = 0 is known to the filter
            Y[0] = N[0]
            U[0] = k * Y[0]
            V[0] = U[0] + M[0]
            first = 1
        gs = gains[t0 + first - 1:t0 + steps - 1].tolist()
        shared = {g: np.array(g) for g in set(gs)}  # equal gains share one 0-d array
        gs = [shared[g] for g in gs]
        xx, vu = XXh[first], VU[first]
        for xxt, vut, xt, xht, yt, ut, vt, wj, nj, mj, gj in zip(
                XXh[first + 1:], VU[first + 1:],
                *(arr[first:] for arr in (X, Xh, Y, U, V, W, N, M)), gs):
            multiply(a, xx, xxt)  # a*x, a*xhat
            add(xxt, vu, xxt)  # x <- a*x + v, xhat <- a*xhat + u (the prediction)
            add(xt, wj, xt)
            add(xt, nj, yt)
            multiply(k, yt, ut)
            add(ut, mj, vt)
            subtract(yt, xht, scratch)
            multiply(scratch, gj, scratch)
            add(xht, scratch, xht)
            xx, vu = xxt, vut
        multiply(a, S[first:steps, 1], XhP[first:])
        add(XhP[first:], S[first:steps, 3], XhP[first:])
        S[0] = S[steps]  # carried into the next block
        yield t0, {"x": X, "n": N, "y": Y, "u": U, "m": M, "v": V, "w": W,
                   "xhat_pred": XhP, "xhat": Xh}


def _check_inputs(horizon: int, n_trajectories: int, seed: int) -> None:
    if horizon < 1:
        raise HorizonTooShort(f"horizon must be >= 1, got {horizon}")
    if n_trajectories < 1:
        raise NonPositiveCount(f"n_trajectories must be >= 1, got {n_trajectories}")
    if not 0 <= seed < 2**64:  # one word of the Philox key
        raise PrivmaskError(f"seed must be in 0..2**64-1, got {seed}")


def simulate(sys: SystemParams, masks: MaskParams, horizon: int,
             n_trajectories: int, seed: int) -> TrajectoryBatch:
    """Simulate the closed loop and the cloud's filter along with it.

    The result is bit-identical for a fixed ``(seed, horizon,
    n_trajectories)``: each trajectory owns an independent noise stream and
    the recursion never couples trajectories.  The noise is drawn on this
    thread and one helper thread, and results do not depend on thread
    scheduling.
    """
    _check_inputs(horizon, n_trajectories, seed)
    s_seq, gains = gain_schedule(sys.a, masks.m + sys.w, masks.n, horizon)
    full = {name: np.empty((n_trajectories, horizon + 1)) for name in SIGNALS}
    for t0, block in _blocks(sys, masks, horizon, n_trajectories, seed, gains):
        for name, rows in block.items():
            full[name][:, t0:t0 + len(rows)] = rows.T
    return TrajectoryBatch(
        sys=sys, masks=masks, seed=seed, s_pred=np.concatenate([[0.0], s_seq]),
        gain=np.concatenate([[0.0], gains]), **full,
    )


def simulate_moments(sys: SystemParams, masks: MaskParams, horizon: int,
                     n_trajectories: int, seed: int, burn_in: int = DEFAULT_BURN_IN) -> tuple:
    """Streaming ``(empirical_cost, empirical_prediction_error)`` of a simulation.

    Returns ``((cost, cost_se), (sigma, sigma_se))``, the cost weighted by
    ``sys.q`` and ``sys.r``, for the same paths that ``simulate`` with these
    arguments produces, without ever holding the full batch: memory grows
    with ``n_trajectories * BLOCK_STEPS``, and the only
    allocation that grows with the horizon is the shared gain schedule.
    Each trajectory's terms are added in time order in one sequential sum
    carried across blocks, so the result does not depend on the block
    length.  The full-batch estimators sum in another order, so results
    agree with them to rounding, not bit for bit.
    """
    _check_inputs(horizon, n_trajectories, seed)
    _check_moment_preconditions(sys, horizon, burn_in)
    _, gains = gain_schedule(sys.a, masks.m + sys.w, masks.n, horizon)
    # per step: the cost terms of every trajectory, then their squared errors
    terms = np.empty((min(BLOCK_STEPS, horizon + 1), 2, n_trajectories))
    running = np.zeros(2 * n_trajectories)
    for t0, block in _blocks(sys, masks, horizon, n_trajectories, seed, gains):
        lo = max(burn_in + 1 - t0, 0)  # first row with t > burn_in
        x, u, pred = block["x"][lo:], block["u"][lo:], block["xhat_pred"][lo:]
        if not len(x):
            continue  # the block lies wholly inside the burn-in
        c = terms[:len(x)]
        cost, err = c[:, 0], c[:, 1]
        # q*x**2 + r*u**2 and (x - pred)**2
        np.multiply(sys.q, np.square(x, out=cost), out=cost)
        np.multiply(sys.r, np.square(u, out=err), out=err)
        np.add(cost, err, out=cost)
        np.square(np.subtract(x, pred, out=err), out=err)
        # rows of 2n >= 2 columns reduce row after row, never pairwise
        c = c.reshape(len(x), -1)
        np.add(c[0], running, out=c[0])
        np.add.reduce(c, axis=0, out=running)
    count = horizon - burn_in
    return (_mean_stderr(running[:n_trajectories] / count),
            _mean_stderr(running[n_trajectories:] / count))


def _check_moment_preconditions(sys: SystemParams, horizon: int, burn_in: int) -> None:
    if horizon <= burn_in:
        raise HorizonTooShort(
            f"horizon {horizon} must exceed the burn-in of {burn_in} steps")
    require_stable(sys)


def empirical_cost(batch: TrajectoryBatch, burn_in: int = DEFAULT_BURN_IN) -> tuple:
    """Mean and standard error of the per-step cost q*X^2 + r*U^2.

    The weights q and r are the plant's, ``batch.sys``.  Averages over
    t > burn_in within each trajectory first; the standard error is taken
    across trajectory means, which sidesteps the within-trajectory
    autocorrelation.
    """
    _check_moment_preconditions(batch.sys, batch.x.shape[1] - 1, burn_in)
    sl = slice(burn_in + 1, None)
    per_traj = (batch.sys.q * batch.x[:, sl] ** 2 + batch.sys.r * batch.u[:, sl] ** 2).mean(axis=1)
    return _mean_stderr(per_traj)


def empirical_prediction_error(batch: TrajectoryBatch,
                               burn_in: int = DEFAULT_BURN_IN) -> tuple:
    """Mean and standard error of the squared one-step prediction error.

    The estimate converges to the steady prediction variance from
    ``riccati.solve_are`` (the error has zero mean, so the raw second
    moment is the variance estimator).
    """
    _check_moment_preconditions(batch.sys, batch.x.shape[1] - 1, burn_in)
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

