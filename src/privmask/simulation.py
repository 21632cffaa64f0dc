"""Monte Carlo closed-loop simulation of plant, masks and cloud filter.

Noise generation is counter-based: every draw is a pure function of
``(seed, trajectory index, time index, channel)``, realized as one Philox
stream per trajectory read in a fixed layout and mapped through the inverse
normal CDF.  A Philox stream can be read in pieces without changing it, so
the closed loop runs time-major in blocks of ``BLOCK_STEPS`` steps: only one
block of noise and signals is in memory at a time.  ``simulate`` copies the
blocks into a full ``TrajectoryBatch``; ``simulate_moments`` reduces them as
they finish.  Both are bit-reproducible for a given
``(seed, horizon, n_trajectories)``.
"""

from __future__ import annotations

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


def _blocks(sys: SystemParams, masks: MaskParams, horizon: int,
            n_trajectories: int, seed: int, gains: np.ndarray):
    """Yield ``(t0, block)`` for consecutive time blocks of the closed loop.

    ``block`` maps each name in ``SIGNALS`` to a ``(steps, n_trajectories)``
    array holding times ``t0 .. t0+steps-1``; ``gains[t-1]`` is the filter
    gain applied at time ``t``.  Every step does the same arithmetic, in the
    same order, as a full-horizon recursion, so the split into blocks never
    changes a bit.
    """
    streams = [Philox(key=np.array([np.uint64(seed), np.uint64(traj)], dtype=np.uint64))
               for traj in range(n_trajectories)]
    a, k = sys.a, sys.k
    x = v = u = xh = None  # state carried across block boundaries
    for t0 in range(0, horizon + 1, BLOCK_STEPS):
        steps = min(BLOCK_STEPS, horizon + 1 - t0)
        # top 53 bits -> uniform strictly inside (0, 1), then inverse normal CDF
        z = np.empty((3 * steps, n_trajectories))
        for traj, stream in enumerate(streams):
            z[:, traj] = stream.random_raw(3 * steps) >> np.uint64(11)
        z += 0.5
        z *= 2.0**-53
        ndtri(z, out=z)
        W, N, M = (z.reshape(steps, 3, n_trajectories)[:, ch] for ch in (_CH_W, _CH_N, _CH_M))
        W *= np.sqrt(sys.w)
        N *= np.sqrt(masks.n)
        M *= np.sqrt(masks.m)
        X, Y, U, V, XhP, Xh = (np.empty_like(W) for _ in range(6))
        first = 0
        if t0 == 0:
            W[0] = 0.0  # no process noise acts before t = 1
            X[0] = XhP[0] = Xh[0] = 0.0  # X_0 = 0 is known to the filter
            Y[0] = N[0]
            U[0] = k * Y[0]
            V[0] = U[0] + M[0]
            x, v, u, xh = X[0], V[0], U[0], Xh[0]
            first = 1
        for j in range(first, steps):
            xt, yt, ut, vt, pred, xht = X[j], Y[j], U[j], V[j], XhP[j], Xh[j]
            np.multiply(a, x, out=xt)
            xt += v
            xt += W[j]
            np.add(xt, N[j], out=yt)
            np.multiply(k, yt, out=ut)
            np.add(ut, M[j], out=vt)
            np.multiply(a, xh, out=pred)
            pred += u
            np.subtract(yt, pred, out=xht)
            xht *= gains[t0 + j - 1]
            xht += pred
            x, v, u, xh = xt, vt, ut, xht
        # copies, so the carry does not keep this block's arrays alive
        x, v, u, xh = x.copy(), v.copy(), u.copy(), xh.copy()
        yield t0, {"x": X, "n": N, "y": Y, "u": U, "m": M, "v": V, "w": W,
                   "xhat_pred": XhP, "xhat": Xh}
        # free this block before the next one draws its noise
        del z, X, N, Y, U, M, V, W, XhP, Xh, xt, yt, ut, vt, pred, xht


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
    compatibility and ignored; results never depended on it.
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
    for t0, block in _blocks(sys, masks, horizon, n_trajectories, seed, gains):
        lo = max(burn_in + 1 - t0, 0)  # first row with t > burn_in
        x, u, pred = block["x"][lo:], block["u"][lo:], block["xhat_pred"][lo:]
        cost_sum += (q * x ** 2 + r * u ** 2).sum(axis=0)
        err_sum += ((x - pred) ** 2).sum(axis=0)
        del block, x, u, pred  # let _blocks free this block before the next
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

