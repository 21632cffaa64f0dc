"""Optimal mask design: best noise-to-noise ratio, trade-offs, diagnostics.

The privacy-loss rate, viewed as a function of the noise-to-noise ratio
``alpha = n/(m+w)`` alone, is uniquely minimized at the single positive
root ``alpha*`` of the quartic

    (a^2-1)^2 alpha^4 + 2(a^2+1) alpha^3 - (2/k^2) alpha - 1/k^4 = 0.

The quartic is negative at 0 and grows to +infinity with exactly one sign
change on (0, inf), so bracketing plus bisection is globally safe,
including when ``a^2 = 1`` collapses the leading coefficient and the
quartic degenerates to a cubic.  Closed-form quartic solutions are
numerically fragile exactly there, hence the bracketing route.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    EmptyInput,
    IllDefinedNnr,
    NegativeVariance,
    NegativeWeight,
    NoConvergence,
    NonPositiveAlpha,
    ZeroGain,
    ZeroProcessNoise,
)
from .params import MaskParams, SystemParams, require_stable
from .rates import (
    control_cost_rate_from_nnr,
    control_cost_rate_from_nnr_array,
    control_cost_rate_from_nnr_derivative,
    mi_rate_from_nnr,
    mi_rate_from_nnr_array,
    mi_rate_from_nnr_derivative,
)

BISECT_WIDTH = 1e-12
RESIDUAL_RTOL = 1e-10
TRADEOFF_GRID_POINTS = 601
TRADEOFF_LO_FACTOR = 1e-3
TRADEOFF_REFINE_TOL = 1e-10
FIRST_ORDER_TOL = 1e-8

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class DesignReport:
    """Optimal noise-to-noise ratio and how well it was located.

    ``coefficients`` are (c4, c3, c1, c0) of the optimality quartic;
    ``residual`` is |quartic(alpha_star)| relative to the largest term.
    """

    alpha_star: float
    coefficients: tuple
    residual: float
    mi_min: float


@dataclass(frozen=True)
class TradeoffPoint:
    """One scalarized privacy/cost optimum.

    ``at_boundary`` marks a minimizer pinned at the search floor (very
    large weights push alpha below the default grid range).
    """

    lam: float
    alpha: float
    mi: float
    cost: float
    objective: float
    at_boundary: bool = False


@dataclass(frozen=True)
class RobustnessGrid:
    """Achieved ratio and privacy rate when the true w differs from nominal.

    ``alpha[i, j]`` and ``mi[i, j]`` correspond to ``m_values[i]`` and
    ``w_true_values[j]``; ``n_design[i]`` is the uplink variance frozen at
    design time from the nominal w.
    """

    m_values: np.ndarray
    w_true_values: np.ndarray
    n_design: np.ndarray
    alpha: np.ndarray
    mi: np.ndarray


class MaskDiagnosis(enum.Enum):
    OK = "ok"
    UPLINK_UNBOUNDED = "uplink_unbounded"
    DOWNLINK_UNBOUNDED = "downlink_unbounded"


def quartic_coefficients(a: float, k: float) -> tuple:
    """(c4, c3, c1, c0) of the optimality quartic (the alpha^2 term is 0)."""
    if k == 0:
        raise ZeroGain("feedback gain k must be nonzero")
    k2 = k * k
    return ((a * a - 1.0) ** 2, 2.0 * (a * a + 1.0), -2.0 / k2, -1.0 / (k2 * k2))


def _quartic(coeffs: tuple, alpha: float) -> float:
    c4, c3, c1, c0 = coeffs
    return ((c4 * alpha + c3) * alpha * alpha + c1) * alpha + c0


def optimal_nnr(a: float, k: float) -> DesignReport:
    """Unique positive root of the optimality quartic, by bracket + bisect.

    The bracket starts at [0, 1] and doubles the upper end until the
    quartic turns positive; bisection then narrows to width 1e-12 and a
    single Newton step polishes the root.
    """
    coeffs = quartic_coefficients(a, k)
    lo, hi = 0.0, 1.0
    while _quartic(coeffs, hi) <= 0:
        hi *= 2.0
        if hi > 1e30:
            raise NoConvergence("no sign change found while bracketing the quartic root")
    # width is relative for large roots: the absolute target can fall below
    # one ulp there and a fixed-width loop would never terminate
    while hi - lo > BISECT_WIDTH * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if _quartic(coeffs, mid) <= 0:
            lo = mid
        else:
            hi = mid
    alpha = 0.5 * (lo + hi)

    c4, c3, c1, _ = coeffs
    slope = ((4.0 * c4 * alpha + 3.0 * c3) * alpha * alpha) + c1
    if slope != 0:
        polished = alpha - _quartic(coeffs, alpha) / slope
        if lo <= polished <= hi:
            alpha = polished

    scale = max(abs(coeffs[0]) * alpha**4, abs(coeffs[1]) * alpha**3,
                abs(coeffs[2]) * alpha, abs(coeffs[3]))
    residual = abs(_quartic(coeffs, alpha)) / scale
    rate = mi_rate_from_nnr(SystemParams(a=a, k=k, w=0.0), alpha)
    return DesignReport(alpha_star=alpha, coefficients=coeffs,
                        residual=residual, mi_min=rate.total)


def min_privacy_rate(a: float, k: float) -> float:
    """Smallest achievable privacy-loss rate over all mask pairs, nats/step."""
    return optimal_nnr(a, k).mi_min


def masks_from_nnr(alpha: float, w: float, m: float = 0.0) -> MaskParams:
    """Mask pair realizing a target ratio: n = alpha*(m+w) for the given m.

    ``m`` is a free choice, deliberately not forced to 0: a zero downlink
    mask is mathematically optimal but maximizes sensitivity of the achieved
    ratio to errors in w (see ``robustness_sweep``).
    """
    if alpha <= 0:
        raise NonPositiveAlpha(f"alpha must be > 0, got {alpha}")
    if w < 0 or m < 0:
        raise NegativeVariance(f"w and m must be >= 0, got w={w}, m={m}")
    if m + w == 0:
        raise IllDefinedNnr("m + w = 0: no uplink variance can realize the ratio")
    return MaskParams(m=m, n=alpha * (m + w))


def _objective(sys: SystemParams, lam: float):
    def J(alpha: float) -> float:
        return mi_rate_from_nnr(sys, alpha).total + lam * control_cost_rate_from_nnr(sys, alpha)
    return J


def _objective_on_grid(sys: SystemParams, lam: float, grid: np.ndarray) -> np.ndarray:
    """The ``_objective`` value at every point of ``grid``, in one numpy evaluation."""
    return (mi_rate_from_nnr_array(sys, grid).total
            + lam * control_cost_rate_from_nnr_array(sys, grid))


def _golden_section(J, lo: float, hi: float, tol: float) -> float:
    a, b = lo, hi
    x1 = b - _INV_PHI * (b - a)
    x2 = a + _INV_PHI * (b - a)
    f1, f2 = J(x1), J(x2)
    # the width test carries an ulp-scaled floor so intervals around large
    # minima terminate once no representable interior points remain
    while b - a > tol + 1e-15 * (abs(a) + abs(b)):
        if not a < x1 < x2 < b:
            break
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INV_PHI * (b - a)
            f1 = J(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INV_PHI * (b - a)
            f2 = J(x2)
    return 0.5 * (a + b)


def tradeoff_point(sys: SystemParams, lam: float, *,
                   grid_points: int = TRADEOFF_GRID_POINTS,
                   lo_factor: float = TRADEOFF_LO_FACTOR,
                   refine_tol: float = TRADEOFF_REFINE_TOL) -> TradeoffPoint:
    """Minimize privacy rate + lam * cost rate over the ratio alpha.

    The search runs on a logarithmic grid over [lo_factor*alpha*, alpha*]
    (ratios above alpha* increase both terms and are dominated), followed
    by golden-section refinement and Newton polish on the exact objective
    derivative.  The returned point satisfies |dJ/d(alpha)| <= 1e-8 unless
    it sits on the search floor, which is flagged via ``at_boundary``.
    """
    if lam < 0:
        raise NegativeWeight(f"trade-off weight must be >= 0, got {lam}")
    require_stable(sys)
    if sys.w == 0:
        raise ZeroProcessNoise(
            "w = 0: the cost along the m = 0 line is unrealizable (no finite "
            "ratio keeps the privacy loss bounded as m vanishes)")

    report = optimal_nnr(sys.a, sys.k)
    alpha_star = report.alpha_star
    J = _objective(sys, lam)
    if lam == 0:
        # the cost term vanishes: the optimum is the quartic root itself
        return TradeoffPoint(lam=0.0, alpha=alpha_star, mi=report.mi_min,
                             cost=control_cost_rate_from_nnr(sys, alpha_star),
                             objective=report.mi_min)

    grid = np.geomspace(lo_factor * alpha_star, alpha_star, grid_points)
    values = _objective_on_grid(sys, lam, grid)
    best = int(np.argmin(values))
    at_boundary = best == 0
    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, grid_points - 1)]
    alpha = _golden_section(J, lo, hi, refine_tol) if hi > lo else grid[best]

    cost_slope = control_cost_rate_from_nnr_derivative(sys)

    def deriv(x: float) -> float:
        return mi_rate_from_nnr_derivative(sys, x) + lam * cost_slope

    # function values alone cannot localize the minimum beyond ~sqrt(eps),
    # and central differences of the summed objective drown in cancellation
    # for large lam; polish on the exact derivative instead
    if not at_boundary:
        for _ in range(8):
            g = deriv(alpha)
            if abs(g) <= 0.01 * FIRST_ORDER_TOL:
                break
            h2 = max(alpha * 1e-5, 1e-12)
            curv = (deriv(alpha + h2) - deriv(alpha - h2)) / (2.0 * h2)
            if curv <= 0:
                break
            alpha = min(max(alpha - g / curv, lo), hi)

    first_order = abs(deriv(alpha))
    if first_order > FIRST_ORDER_TOL and not at_boundary:
        raise NoConvergence(
            f"first-order residual {first_order:.3e} above {FIRST_ORDER_TOL} "
            f"at alpha={alpha} (lam={lam})")

    rate = mi_rate_from_nnr(sys, alpha)
    cost = control_cost_rate_from_nnr(sys, alpha)
    return TradeoffPoint(lam=lam, alpha=alpha, mi=rate.total, cost=cost,
                         objective=rate.total + lam * cost, at_boundary=at_boundary)


def tradeoff_curve(sys: SystemParams, lambdas: Sequence[float]) -> list:
    """Pointwise trade-off optima for a list of weights."""
    lam_list = list(lambdas)
    if not lam_list:
        raise EmptyInput("lambda list must be nonempty")
    return [tradeoff_point(sys, lam) for lam in lam_list]


def boundary_diagnostics(masks: MaskParams, w: float) -> MaskDiagnosis:
    """Flag the two unbounded-privacy-loss regimes.

    A missing uplink mask (n = 0, m + w > 0) leaks the state directly; a
    noiseless downlink with no process noise (m + w = 0, n > 0) lets the
    cloud reconstruct the state from its own commands.
    """
    if w < 0:
        raise NegativeVariance(f"process-noise variance w={w} < 0")
    p = masks.m + w
    if masks.n == 0 and p > 0:
        return MaskDiagnosis.UPLINK_UNBOUNDED
    if p == 0 and masks.n > 0:
        return MaskDiagnosis.DOWNLINK_UNBOUNDED
    return MaskDiagnosis.OK


def robustness_sweep(sys: SystemParams, alpha_design: float,
                     m_list: Sequence[float], w_true_list: Sequence[float]) -> RobustnessGrid:
    """Achieved ratio and rate when the modeled w is wrong.

    For each downlink variance m the uplink variance is frozen at design
    time as ``n = alpha_design * (m + w_nominal)`` with the nominal w taken
    from ``sys``; each cell then reports the ratio and privacy rate
    actually achieved under ``w_true``.  Larger m damps the deviation: the
    achieved ratio is ``alpha_design * (m + w_nom)/(m + w_true)``.
    """
    if alpha_design <= 0:
        raise NonPositiveAlpha(f"alpha_design must be > 0, got {alpha_design}")
    m_vals = np.asarray(list(m_list), dtype=float)
    w_vals = np.asarray(list(w_true_list), dtype=float)
    if m_vals.size == 0 or w_vals.size == 0:
        raise EmptyInput("m_list and w_true_list must be nonempty")
    if (m_vals < 0).any() or (w_vals < 0).any():
        raise NegativeVariance("masks and variances must be >= 0")
    denom = m_vals[:, None] + w_vals[None, :]
    if (denom == 0).any():
        i, j = np.argwhere(denom == 0)[0]
        raise IllDefinedNnr(
            f"m + w_true = 0 at cell (m={m_vals[i]}, w_true={w_vals[j]})")

    n_design = alpha_design * (m_vals + sys.w)
    alpha = n_design[:, None] / denom
    mi = mi_rate_from_nnr_array(sys, alpha).total
    return RobustnessGrid(m_values=m_vals, w_true_values=w_vals,
                          n_design=n_design, alpha=alpha, mi=mi)
