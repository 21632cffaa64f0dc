"""Closed-form privacy-loss and control-cost rates, plus finite-horizon sums.

Per step, the uplink information flow costs ``0.5*log(1 + sigma/n)`` nats
and the downlink flow ``0.5*log(1 + k^2 n/(m+w))`` nats, where ``sigma`` is
the steady prediction variance from :mod:`privmask.riccati`.  Both are
computed by one kernel, ``_flow``.  Their sum, the total privacy-loss rate
``mi_rate``, depends on the masks only through the noise-to-noise ratio
``alpha = n/(m+w)``.  ``finite_horizon_info`` gives their finite-horizon
sums as the ``DirectedInformation`` the exact oracle returns too.

Divergent regimes are reported in-band as IEEE infinities, never as
exceptions, so parameter sweeps that touch boundary points complete without
aborting: a missing mask gives an infinite flow, an unstable closed loop
an infinite cost.  Only the ``_from_nnr`` cost forms, which feed the
trade-off search, refuse unstable loops.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMasks, HorizonTooShort, NonPositiveAlpha
from .params import MaskParams, SystemParams, require_stable
from .riccati import prediction_covariances, solve_are, steady_state_second_moment


@dataclass(frozen=True)
class PrivacyRates:
    """Per-step information flows in nats: uplink, downlink and their sum."""

    uplink: float
    downlink: float
    total: float


@dataclass(frozen=True)
class DirectedInformation:
    """Directed-information decomposition toward a target sequence, in nats.

    ``forward`` sums the per-step flows from the state path into the target
    (terms in ``forward_terms``), ``backward`` the flows from the delayed
    target back into the state path (in ``backward_terms``).  Their sum is
    the mutual information between the two paths exactly (chain rule).
    """

    forward: float
    backward: float
    forward_terms: np.ndarray
    backward_terms: np.ndarray


def _flow(num: float, den: float, scale: float = 1.0) -> float:
    """Information flow 0.5*log(1 + scale*num/den) in nats, for num, den, scale >= 0.

    Returns ``inf`` when only ``den`` is 0 (an unmasked signal leaks without
    bound) and 0.0 when both are (no signal).  Where scale*num/den overflows,
    the flow is 0.5*(lr + log1p(exp(-lr))) with lr = log(scale*num) - log den,
    log(scale*num) taken as log scale + log num where the product overflows.
    """
    if den == 0:
        return math.inf if num > 0 else 0.0
    signal = scale * num
    ratio = signal / den
    if ratio == math.inf:
        log_signal = math.log(signal) if signal < math.inf else math.log(scale) + math.log(num)
        lr = log_signal - math.log(den)
        return 0.5 * (lr + math.log1p(math.exp(-lr)))
    return 0.5 * math.log1p(ratio)


def mi_rate(sys: SystemParams, masks: MaskParams) -> PrivacyRates:
    """Total privacy-loss rate: uplink + downlink flows, in nats/step.

    A missing mask gives ``inf``: the uplink flow when n = 0 < m + w, the
    downlink flow when m + w = 0 < n.  With no noise at all both are 0.0.
    """
    p = masks.m + sys.w
    up = _flow(solve_are(sys.a, p, masks.n), masks.n)
    down = _flow(masks.n, p, sys.k * sys.k)
    return PrivacyRates(uplink=up, downlink=down, total=up + down)


def nnr_prediction_ratio(a: float, alpha: float) -> float:
    """Positive root s(alpha) of s^2 - (a^2 - 1 + 1/alpha)*s - 1/alpha = 0.

    This is sigma/n for any mask pair on the line n = alpha*(m+w); the
    uplink rate is 0.5*log(1 + s(alpha)).
    """
    if not alpha > 0:  # NaN fails too
        raise NonPositiveAlpha(f"alpha must be > 0, got {alpha}")
    return solve_are(a, 1.0 / alpha, 1.0)


def mi_rate_from_nnr(sys: SystemParams, alpha: float) -> PrivacyRates:
    """Privacy-loss rate as a function of the noise-to-noise ratio alone.

    Identical to ``mi_rate`` for every mask pair with n = alpha*(m+w).
    Where s(alpha) overflows (1/alpha does below about 5.6e-309), the
    uplink is taken as the flow of solve_are(a, 1, alpha)/alpha.
    """
    s = nnr_prediction_ratio(sys.a, alpha)
    up = _flow(s, 1.0) if s < math.inf else _flow(solve_are(sys.a, 1.0, alpha), alpha)
    down = _flow(alpha, 1.0, sys.k * sys.k)
    return PrivacyRates(uplink=up, downlink=down, total=up + down)


def mi_rate_from_nnr_derivative(sys: SystemParams, alpha: float) -> float:
    """Exact d/d(alpha) of the total rate from ``mi_rate_from_nnr``, with no root s(alpha).

    The uplink term -1/(2 alpha^2 sqrt(D)), D = b^2 + 4/alpha, b = a^2 - 1 + 1/alpha, is taken
    as -0.5/(alpha*hypot(alpha*b, 2 sqrt(alpha))): alpha*b = alpha*(a-1)(a+1) + 1 does not
    cancel near |a| = 1 and stays finite where 1/alpha overflows.
    """
    if not alpha > 0:  # NaN fails too
        raise NonPositiveAlpha(f"alpha must be > 0, got {alpha}")
    k2 = sys.k * sys.k
    up = -0.5 / (alpha * math.hypot(alpha * ((sys.a - 1.0) * (sys.a + 1.0)) + 1.0, 2.0 * math.sqrt(alpha)))
    return up + k2 / (2.0 * (1.0 + k2 * alpha))


def mi_rate_from_nnr_alt(sys: SystemParams, alpha: float) -> float:
    """Variant total rate with the uplink term taken as 0.5*log(s(alpha)).

    Both conventions for the uplink term appear in the literature; this one
    drops the +1 inside the logarithm.  The gap 0.5*log((1+s)/s) varies
    with alpha, so this curve sits lower *and has a different minimizer*
    than ``mi_rate_from_nnr``.  Emitted by the CLI sweeps for comparison
    only; all design routines optimize ``mi_rate_from_nnr``, whose uplink
    term is the one the finite-horizon sums and the exact oracle confirm.
    Where s(alpha) overflows, log s is taken as log solve_are(a, 1, alpha) - log alpha.
    """
    s = nnr_prediction_ratio(sys.a, alpha)
    log_s = math.log(s) if s < math.inf else math.log(solve_are(sys.a, 1.0, alpha)) - math.log(alpha)
    return 0.5 * log_s + _flow(alpha, 1.0, sys.k * sys.k)


def control_cost_rate(sys: SystemParams, masks: MaskParams) -> float:
    """Steady cost rate (q + r k^2) P + r k^2 n, P from ``steady_state_second_moment``.

    ``q = r = 0`` costs 0.0 for every loop.  Otherwise an unstable loop
    costs ``inf``, except when m = n = w = 0, where the state stays at 0
    and so does the cost.
    """
    if sys.q == 0 and sys.r == 0:
        return 0.0
    p_ss = steady_state_second_moment(sys, masks)
    if math.isinf(p_ss):
        # r*k^2 can underflow to 0 when q = 0, and 0*inf would be nan
        return math.inf
    k2 = sys.k * sys.k
    return (sys.q + sys.r * k2) * p_ss + sys.r * k2 * masks.n


def control_cost_rate_from_nnr(sys: SystemParams, alpha: float) -> float:
    """Cost rate along the m = 0 line, n = alpha*w, as a function of alpha.

    This is the cost that remains after the downlink mask has been removed
    (its contribution to the cost is pure overhead for a fixed ratio).
    """
    if not alpha > 0:  # NaN fails too
        raise NonPositiveAlpha(f"alpha must be > 0, got {alpha}")
    margin = require_stable(sys)
    k2 = sys.k * sys.k
    return (sys.q + sys.r * k2) * sys.w * (1.0 + k2 * alpha) / margin + sys.r * k2 * alpha * sys.w


def control_cost_rate_from_nnr_derivative(sys: SystemParams) -> float:
    """Exact d/d(alpha) of ``control_cost_rate_from_nnr`` (affine in alpha)."""
    margin = require_stable(sys)
    k2 = sys.k * sys.k
    return (sys.q + sys.r * k2) * sys.w * k2 / margin + sys.r * k2 * sys.w


def finite_horizon_info(sys: SystemParams, masks: MaskParams, horizon: int) -> DirectedInformation:
    """Exact directed information toward Y over t = 1..horizon, in closed form.

    Forward term t is ``0.5*log(1 + S_t/n)``, every backward term the downlink flow.
    Requires n > 0 and m + w > 0 (otherwise the sums are unbounded or the per-step
    terms degenerate).  ``forward/horizon`` converges to the ``mi_rate`` uplink flow.
    """
    if horizon < 1:
        raise HorizonTooShort(f"horizon must be >= 1, got {horizon}")
    p = masks.m + sys.w
    if masks.n == 0 or p == 0:
        raise DegenerateMasks(f"finite sums need n > 0 and m + w > 0, got n={masks.n}, m+w={p}")
    s_pred = prediction_covariances(sys.a, p, masks.n, horizon)
    forward_terms = 0.5 * np.log1p(s_pred / masks.n)
    down = _flow(masks.n, p, sys.k * sys.k)
    return DirectedInformation(float(forward_terms.sum()), horizon * down,
                               forward_terms, np.full(horizon, down))
