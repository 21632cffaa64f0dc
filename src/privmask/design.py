"""Optimal mask design: best noise-to-noise ratio, trade-offs, diagnostics.

The privacy-loss rate, viewed as a function of the noise-to-noise ratio
``alpha = n/(m+w)`` alone, is uniquely minimized at the single positive
root ``alpha*`` of the quartic

    (a^2-1)^2 alpha^4 + 2(a^2+1) alpha^3 - (2/k^2) alpha - 1/k^4 = 0.

The quartic is negative at 0 and grows to +infinity with exactly one sign
change on (0, inf), so a bracketing solver is globally safe, including
when ``a^2 = 1`` collapses the leading coefficient and the quartic
degenerates to a cubic.  Closed-form quartic solutions are numerically
fragile exactly there, hence the bracketing route.  A design solves it
once: ``tradeoff_curve`` fills in the report of ``optimal_nnr``.

Both design roots, alpha* and each trade-off point, come from one Brent
solver, ``_bracketed_root``: inverse quadratic and secant steps that fall
back to bisection, run until the bracket ends are adjacent doubles.  On
the certify benchmark's plants it takes about 9.5 evaluations per root
(at most 21), where halving the bracket took 54.5.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Sequence

from .errors import (
    EmptyInput,
    IllDefinedNnr,
    NegativeVariance,
    NegativeWeight,
    NoConvergence,
    NonPositiveAlpha,
    PrivmaskError,
    ZeroGain,
    ZeroProcessNoise,
)
from .params import MaskParams, SystemParams, require_stable
from .rates import (
    control_cost_rate_from_nnr,
    control_cost_rate_from_nnr_derivative,
    mi_rate_from_nnr,
    mi_rate_from_nnr_derivative,
)

if TYPE_CHECKING:
    import numpy as np

TRADEOFF_LO_FACTOR = 1e-3
FIRST_ORDER_TOL = 1e-8
_SQRT_HALF = math.sqrt(0.5)


@dataclass(frozen=True)
class DesignReport:
    """Optimal noise-to-noise ratio, how well it was located, and the trade-off below it.

    ``residual`` is |quartic(alpha_star)| relative to the largest term.  ``tradeoff``
    has a point per weight from ``tradeoff_curve``, none from ``optimal_nnr``.
    """

    alpha_star: float
    residual: float
    mi_min: float
    tradeoff: tuple[TradeoffPoint, ...] = ()


@dataclass(frozen=True)
class TradeoffPoint:
    """One scalarized privacy/cost optimum.

    ``at_boundary`` marks a minimizer pinned at the search floor
    ``TRADEOFF_LO_FACTOR * alpha*``: the objective already rises there, as
    it does for very large weights.
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

    ``alpha[i, j]`` and ``mi[i, j]`` belong to the i-th downlink variance m
    and the j-th true w passed to ``robustness_sweep``.
    """

    alpha: np.ndarray
    mi: np.ndarray


class MaskDiagnosis(enum.Enum):
    OK = "ok"
    UPLINK_UNBOUNDED = "uplink_unbounded"
    DOWNLINK_UNBOUNDED = "downlink_unbounded"


def quartic_coefficients(a: float, k: float) -> tuple:
    """(c4, c3, c1, c0) of the optimality quartic (the alpha^2 term is 0), all finite."""
    if k == 0:
        raise ZeroGain("feedback gain k must be nonzero")
    k2 = k * k
    k4 = k2 * k2
    if not (a * a * a * a < math.inf and 0 < k4 < math.inf):  # NaN fails too
        raise PrivmaskError(
            f"the optimality quartic needs finite a^4 and k^4 > 0, got a={a!r}, k={k!r}")
    if not 1.0 / k4 < math.inf:  # for |k| below about 8.6e-78
        raise PrivmaskError(f"the optimality quartic needs a finite 1/k^4, got k={k!r}")
    return ((a * a - 1.0) ** 2, 2.0 * (a * a + 1.0), -2.0 / k2, -1.0 / k4)


def _quartic(coeffs: tuple, alpha: float) -> float:
    c4, c3, c1, c0 = coeffs
    return ((c4 * alpha + c3) * alpha * alpha + c1) * alpha + c0


def _bracketed_root(f, lo: float, hi: float, f_lo: float, f_hi: float) -> tuple:
    """Root of ``f`` in [lo, hi] and its f value, given f_lo = f(lo) <= 0 < f_hi = f(hi).

    Brent's method (Brent 1973, ch. 4): the first step is the midpoint;
    each later one interpolates the root inversely through both ends and the
    end replaced last, or along the secant of the ends, and is kept only if
    it lands within 3/4 of the bracket from the better end and is shorter
    than half the step before last; otherwise it is the midpoint.  A step
    shorter than an ulp of the better end is stretched to one ulp, so the
    root is soon bracketed from both sides.  The midpoint is also taken
    while the bracket is wider than the first one halved every two
    evaluations, which bounds the evaluations by about twice bisection's.
    Ends when lo and hi are adjacent doubles and returns the end with the
    smaller |f|.  ``f`` runs only strictly inside the current bracket, never
    twice at a point nor at the ends, and a NaN or infinite value or a zero
    denominator makes the step the midpoint, so the loop ends for any ``f``.
    """
    dropped = f_dropped = math.nan  # the end replaced last
    cap = hi - lo
    last = before = 0.0  # lengths of the last two steps: none yet, so the first is the midpoint
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        b, far = (lo, hi) if abs(f_lo) <= abs(f_hi) else (hi, lo)
        tol = math.ulp(b)
        x = math.nan
        if before > tol and hi - lo <= cap:
            d = f_hi - f_lo
            if f_dropped != f_lo and f_dropped != f_hi:  # inverse quadratic
                d_lo, d_hi = f_dropped - f_lo, f_dropped - f_hi
                if (den_hi := d * d_hi) and (den_dropped := d_lo * d_hi):
                    x = (lo - (hi - lo) * (f_lo * f_dropped / den_hi)
                         + (dropped - lo) * (f_lo * f_hi / den_dropped))
            elif d:
                x = lo - (hi - lo) * (f_lo / d)
        step = abs(x - b)
        if step < 0.5 * before and step < 0.75 * abs(far - b):  # NaN fails
            if step < tol:
                x = b + tol if far > b else b - tol
        else:
            x, last = mid, abs(mid - b)
        if not lo < x < hi:
            x = mid
        before, last = last, abs(x - b)
        f_x = f(x)
        cap *= _SQRT_HALF
        if f_x <= 0:
            dropped, f_dropped, lo, f_lo = lo, f_lo, x, f_x
        else:
            dropped, f_dropped, hi, f_hi = hi, f_hi, x, f_x
    return (lo, f_lo) if abs(f_lo) <= abs(f_hi) else (hi, f_hi)


def optimal_nnr(a: float, k: float) -> DesignReport:
    """Unique positive root of the optimality quartic, by bracket + Brent.

    The bracket moves up from [0, 1] to [hi, 2 hi] until the quartic turns positive, below
    about 1e103 as c3 >= 2 and c1, c0 are finite; ``_bracketed_root`` then narrows it to
    adjacent doubles.
    """
    coeffs = quartic_coefficients(a, k)
    lo, f_lo, hi = 0.0, coeffs[3], 1.0
    while (f_hi := _quartic(coeffs, hi)) <= 0:
        lo, f_lo, hi = hi, f_hi, 2.0 * hi
    alpha, f_alpha = _bracketed_root(lambda x: _quartic(coeffs, x), lo, hi, f_lo, f_hi)

    c4, c3, c1, c0 = map(abs, coeffs)
    # alpha**4 raises OverflowError from alpha = 2**256 on, where a product gives inf
    if alpha < 2.0**256 and (scale := max(c4 * alpha**4, c3 * alpha**3, c1 * alpha, c0)) < math.inf:
        residual = abs(f_alpha) / scale
    else:  # alpha > 1: the terms over alpha^3 are finite
        residual = (abs(f_alpha) / alpha / alpha / alpha
                    / max(c4 * alpha, c3, c1 / alpha / alpha, c0 / alpha / alpha / alpha))
    rate = mi_rate_from_nnr(SystemParams(a=a, k=k, w=0.0), alpha)
    return DesignReport(alpha_star=alpha, residual=residual, mi_min=rate.total)


def masks_from_nnr(alpha: float, w: float, m: float = 0.0) -> MaskParams:
    """Mask pair realizing a target ratio: n = alpha*(m+w) for the given m.

    ``m`` is a free choice, deliberately not forced to 0: a zero downlink
    mask is mathematically optimal but maximizes sensitivity of the achieved
    ratio to errors in w (see ``robustness_sweep``).
    """
    if not alpha > 0:  # NaN fails too
        raise NonPositiveAlpha(f"alpha must be > 0, got {alpha}")
    if w < 0 or m < 0:
        raise NegativeVariance(f"w and m must be >= 0, got w={w}, m={m}")
    if m + w == 0:
        raise IllDefinedNnr("m + w = 0: no uplink variance can realize the ratio")
    return MaskParams(m=m, n=alpha * (m + w))


def tradeoff_curve(sys: SystemParams, lambdas: Sequence[float]) -> DesignReport:
    """Minimize privacy rate + lam * cost rate over the ratio alpha, for each weight.

    Returns the report of ``optimal_nnr``, solved first, with the points in ``tradeoff``.
    Ratios above alpha* increase both terms and are dominated, so the
    search runs over [TRADEOFF_LO_FACTOR*alpha*, alpha*], from one quartic
    solve for all weights.  The cost is affine in alpha with slope c1 >= 0,
    so the exact derivative ``dJ/d(alpha) = mi_rate_from_nnr_derivative +
    lam*c1`` rises through zero at most once there, and the optimum is its
    root, found by ``_bracketed_root``.  The rate derivative is evaluated once per
    curve at each end of that bracket, and each weight adds its own lam*c1.
    Each point satisfies |dJ/d(alpha)| <= 1e-8 unless the derivative is
    already >= 0 at the floor; alpha is then the floor, flagged via
    ``at_boundary``.  A zero ``lam*c1`` (lam = 0, q = r = 0, or a product
    that underflows) leaves the rate alone: alpha is alpha*.
    """
    report = optimal_nnr(sys.a, sys.k)
    lam_list = list(lambdas)
    if not lam_list:
        raise EmptyInput("lambda list must be nonempty")
    for lam in lam_list:
        if not 0 <= lam < math.inf:  # NaN fails too
            raise NegativeWeight(f"trade-off weight must be finite and >= 0, got {lam}")
    require_stable(sys)
    if sys.w == 0:
        raise ZeroProcessNoise(
            "w = 0: the cost along the m = 0 line is unrealizable (no finite "
            "ratio keeps the privacy loss bounded as m vanishes)")
    ends = (TRADEOFF_LO_FACTOR * report.alpha_star, report.alpha_star)
    rate_slopes = tuple(mi_rate_from_nnr_derivative(sys, x) for x in ends)
    c1 = control_cost_rate_from_nnr_derivative(sys)
    return replace(report, tradeoff=tuple(
        _tradeoff_point(sys, lam, lam * c1, ends, rate_slopes) for lam in lam_list))


def _tradeoff_point(sys: SystemParams, lam: float, cost_slope: float,
                    ends: tuple, rate_slopes: tuple) -> TradeoffPoint:
    (floor, alpha_star), (rate_floor, rate_star) = ends, rate_slopes

    def deriv(x: float) -> float:
        return mi_rate_from_nnr_derivative(sys, x) + cost_slope

    alpha, at_boundary = alpha_star, False
    if cost_slope != 0:
        f_floor = rate_floor + cost_slope
        at_boundary = f_floor >= 0
        if at_boundary:
            alpha = floor
        else:
            alpha, f_alpha = _bracketed_root(deriv, floor, alpha_star, f_floor,
                                             rate_star + cost_slope)
            first_order = abs(f_alpha)
            if not first_order <= FIRST_ORDER_TOL:  # a NaN residual fails too
                raise NoConvergence(
                    f"first-order residual {first_order:.3e} above {FIRST_ORDER_TOL} "
                    f"at alpha={alpha} (lam={lam})")

    rate = mi_rate_from_nnr(sys, alpha)
    cost = control_cost_rate_from_nnr(sys, alpha)
    # abs folds a weight of -0.0 into 0.0
    return TradeoffPoint(lam=abs(lam), alpha=alpha, mi=rate.total, cost=cost,
                         objective=rate.total + lam * cost, at_boundary=at_boundary)


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
    import numpy as np

    if not alpha_design > 0:  # NaN fails too
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
    mi = np.array([mi_rate_from_nnr(sys, x).total for x in alpha.ravel().tolist()])
    return RobustnessGrid(alpha=alpha, mi=mi.reshape(alpha.shape))
