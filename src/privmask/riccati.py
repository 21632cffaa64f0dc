"""Steady-state estimation covariance and second moments of the closed loop.

The cloud's one-step prediction error variance ``sigma`` is the unique
nonnegative root of

    sigma**2 - ((a**2 - 1)*n + p) * sigma - p*n = 0,      p = m + w,

which is the algebraic Riccati equation of the scalar filtering recursion
cleared of its denominator.  ``solve_are`` evaluates the root in closed
form; it is the fixed point of the filtering recursion that
``gain_schedule`` runs, step by step, for the oracle and the simulator.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NegativeVariance
from .params import MaskParams, SystemParams, closed_loop_stable

_MIN_NORMAL = float.fromhex("0x1p-1022")  # the smallest normal double


def solve_are(a: float, p: float, n: float) -> float:
    """Closed-form nonnegative root of the prediction-covariance equation.

    Parameters are the state coefficient ``a``, the unpredicted input
    variance ``p = m + w`` and the uplink mask variance ``n``.

    ``n = 0`` is accepted and returns ``p`` (the noiseless-uplink limit).
    ``p = n = 0`` returns 0 for every ``a``: with no noise at all the state
    is known exactly, which is also the limit as p -> 0 or n -> 0.
    """
    if p < 0 or n < 0:
        raise NegativeVariance(f"p and n must be >= 0, got p={p}, n={n}")
    b = (a * a - 1.0) * n + p
    # hypot form avoids overflow of b*b and p*n for extreme magnitudes
    disc = math.hypot(b, 2.0 * math.sqrt(p) * math.sqrt(n))
    if b >= 0:
        return 0.5 * (b + disc)
    # b < 0: the direct formula cancels; recover the positive root from the
    # product of roots (-p*n) via the stable negative root.
    r_neg = 0.5 * (b - disc)
    pn = p * n
    if _MIN_NORMAL <= pn < math.inf:
        return -pn / r_neg
    # the product underflowed (or overflowed): divide first; abs turns p = -0.0 into 0.0
    return abs(p) * (n / -r_neg)


def _gain(s_pred: float, n: float) -> float:
    """Filter gain l = s_pred/(s_pred + n), 0 where s_pred + n = 0."""
    return s_pred / (s_pred + n) if s_pred + n > 0 else 0.0


def prediction_covariances(a: float, p: float, n: float, horizon: int) -> np.ndarray:
    """Prediction variances S_t for t = 1..horizon from S_1 = p.

    Runs the exact filtering recursion (prediction, gain, measurement
    update) started from a known initial state, so S_1 = p.
    """
    return gain_schedule(a, p, n, horizon)[0]


def gain_schedule(a: float, p: float, n: float, horizon: int) -> tuple:
    """Prediction variances S_t and filter gains S_t/(S_t + n), t = 1..horizon.

    One pass of the recursion behind ``prediction_covariances`` fills both.
    The gain is 0 where S_t + n = 0: with no noise at all there is nothing
    to correct.  The recursion's whole state is the posterior variance, so
    once that repeats exactly (same value, same sign of zero) the steps
    repeat too.  Some plants settle into a two-step cycle of last bits
    rather than a fixed point, so the pass compares with the posterior two
    steps back, which a fixed point also passes one step later.  It stops
    there and fills the rest with the repeating pair of steps, with the
    same bits as running to the end.
    """
    if p < 0 or n < 0:
        raise NegativeVariance(f"p and n must be >= 0, got p={p}, n={n}")
    s_pred = np.empty(horizon)
    gains = np.empty(horizon)
    post2, post1 = math.nan, 0.0  # the posterior two steps back (none yet) and one step back
    for t in range(horizon):
        s = a * a * post1 + p
        l = _gain(s, n)
        s_pred[t] = s
        gains[t] = l
        post = (1.0 - l) ** 2 * s + l * l * n
        if post == post2 and math.copysign(1.0, post) == math.copysign(1.0, post2):
            s_pred[t + 1::2], s_pred[t + 2::2] = s_pred[t - 1], s
            gains[t + 1::2], gains[t + 2::2] = gains[t - 1], l
            break
        post2, post1 = post1, post
    return s_pred, gains


def steady_state_second_moment(sys: SystemParams, masks: MaskParams) -> float:
    """Steady state second moment P = (m + k^2 n + w) / (1 - (a+k)^2).

    Equals the limit of P_t = (a+k)^2 P_{t-1} + m + k^2 n + w from P_0 = 0.
    An unstable closed loop has no finite limit and returns ``inf``, except
    when m = n = w = 0: the state then stays at 0 and P = 0.
    """
    stable, margin = closed_loop_stable(sys)
    if stable:
        return (masks.m + sys.k * sys.k * masks.n + sys.w) / margin
    noiseless = masks.m == 0 and masks.n == 0 and sys.w == 0
    return 0.0 if noiseless else math.inf
