import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from privmask import design, rates
from privmask import (
    EmptyInput,
    IllDefinedNnr,
    MaskDiagnosis,
    MaskParams,
    NegativeVariance,
    NegativeWeight,
    NonPositiveAlpha,
    PrivmaskError,
    SystemParams,
    UnstableClosedLoop,
    ZeroGain,
    ZeroProcessNoise,
    boundary_diagnostics,
    control_cost_rate_from_nnr,
    control_cost_rate_from_nnr_derivative,
    masks_from_nnr,
    mi_rate_from_nnr,
    mi_rate_from_nnr_alt,
    mi_rate_from_nnr_derivative,
    nnr_prediction_ratio,
    optimal_nnr,
    quartic_coefficients,
    robustness_sweep,
    tradeoff_curve,
)

ANCHOR = SystemParams(a=1, k=-1, w=0.05, q=1, r=1)
# the nonzero trade-off weights of the certify benchmark workload
WORKLOAD_LAMBDAS = (1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0, 1e3, 1e4)


def stable_system(rng):
    """Plant with |a + k| < 0.8 and |k| >= 0.1, as the certify workload draws them."""
    while True:
        a = rng.uniform(-1.5, 1.5)
        k = rng.uniform(-0.8, 0.8) - a
        if abs(k) >= 0.1:
            return SystemParams(a=a, k=k, w=rng.uniform(0.01, 0.5), q=1, r=1)


def front_point(sys_, s):
    """(alpha, lam) of the trade-off front at s = sigma/n, in closed form.

    alpha(s) = (s+1)/(s(s - a^2 + 1)) inverts the Riccati root s(alpha);
    lam(s) = -(dmi/dalpha)/c1 zeroes the objective's derivative there, with
    ds/dalpha = 1/(dalpha/ds) and c1 the constant slope of the cost in alpha.
    """
    a, k, w, q, r = sys_.a, sys_.k, sys_.w, sys_.q, sys_.r
    b = a * a - 1.0
    d = s * (s - b)
    alpha = (s + 1.0) / d
    dalpha_ds = (d - (s + 1.0) * (2.0 * s - b)) / (d * d)
    k2 = k * k
    dmi = 1.0 / (2.0 * (1.0 + s) * dalpha_ds) + k2 / (2.0 * (1.0 + k2 * alpha))
    c1 = (q + r * k2) * w * k2 / (1.0 - (a + k) ** 2) + r * k2 * w
    return alpha, -dmi / c1


class TestBisect:
    def test_brackets_a_root_to_adjacent_doubles(self):
        root, f_root = design._bisect(lambda x: x * x - 2.0, 0.0, 2.0, -2.0, 2.0)
        assert abs(root - math.sqrt(2.0)) <= np.spacing(math.sqrt(2.0))
        assert f_root == root * root - 2.0

    def test_terminates_on_nan(self):
        assert 0.0 <= design._bisect(lambda x: math.nan, 0.0, 1.0, math.nan, math.nan)[0] <= 1.0
        assert 1.0 <= design._bisect(lambda x: math.nan if x > 1.5 else -1.0,
                                     1.0, 2.0, -1.0, math.nan)[0] <= 2.0


def near_unit_system(rng, small_gain):
    """Stable plant with |a| = 1 +- 10^U(-12, -1), or |a| just below 1 and 0 < |k| < 0.1."""
    sign = rng.choice([-1.0, 1.0])
    if small_gain:
        a = sign * (1.0 - 10.0 ** rng.uniform(-12, -1))
        return SystemParams(a=a, k=-sign * 10.0 ** rng.uniform(-9, -1), w=rng.uniform(0.01, 0.5),
                            q=1, r=1)
    while True:
        a = sign * (1.0 + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-12, -1))
        k = rng.uniform(-0.8, 0.8) - a
        if abs(k) >= 0.1:
            return SystemParams(a=a, k=k, w=rng.uniform(0.01, 0.5), q=1, r=1)


def rises(sys_, cost_slope, x):
    """Exact sign test dJ/d(alpha) > 0 at x, in rationals, for the float slope lam*c1.

    With t = 2 x^2 (k^2/(2(1 + k^2 x)) + lam*c1), b = a^2 - 1 + 1/x and
    D = b^2 + 4/x, dJ/d(alpha) = (t - 1/sqrt(D))/(2 x^2): negative when t <= 0,
    otherwise of the sign of t^2 D - 1.
    """
    a, k2, x = Fraction(sys_.a), Fraction(sys_.k) ** 2, Fraction(x)
    t = 2 * x * x * (k2 / (2 * (1 + k2 * x)) + Fraction(cost_slope))
    if t <= 0:
        return False
    b = a * a - 1 + 1 / x
    return t * t * (b * b + 4 / x) > 1


def ulps_from_exact_bracket(sys_, cost_slope, alpha):
    """0 if alpha is an end of the adjacent doubles around the exact root, else the ulps past it."""
    side = rises(sys_, cost_slope, alpha)
    x, off = alpha, 0
    while rises(sys_, cost_slope, x := math.nextafter(x, -math.inf if side else math.inf)) == side:
        off += 1
    return off


def quartic(a, k, alpha):
    c4, c3, c1, c0 = quartic_coefficients(a, k)
    return c4 * alpha**4 + c3 * alpha**3 + c1 * alpha + c0


class TestOptimalNnr:
    def test_factoring_case_is_exact(self):
        # a=0, k=1/2: the quartic factors as (alpha+2)(alpha^3-8)
        report = optimal_nnr(0.0, 0.5)
        assert report.alpha_star == pytest.approx(2.0, abs=1e-9)
        assert report.mi_min == pytest.approx(math.log(1.5), abs=1e-12)
        assert quartic_coefficients(0.0, 0.5) == (1.0, 2.0, -8.0, -16.0)

    def test_anchor_root(self):
        report = optimal_nnr(1.0, -1.0)
        assert 0.8840 <= report.alpha_star <= 0.8853
        assert report.residual <= 1e-10
        assert report.mi_min == pytest.approx(0.8261659593066051, abs=1e-9)

    def test_sign_of_gain_is_irrelevant(self):
        assert optimal_nnr(1.0, 1.0).alpha_star == optimal_nnr(1.0, -1.0).alpha_star
        assert optimal_nnr(0.3, 0.7).alpha_star == optimal_nnr(0.3, -0.7).alpha_star

    def test_zero_gain_rejected(self):
        with pytest.raises(ZeroGain):
            optimal_nnr(1.0, 0.0)

    def test_quartic_sign_structure(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            a = rng.uniform(-2, 2)
            k = rng.choice([-1, 1]) * rng.uniform(0.05, 2)
            astar = optimal_nnr(a, k).alpha_star
            assert quartic(a, k, 0.0) < 0
            grid = np.geomspace(1e-4 * astar, 1e4 * astar, 400)
            signs = np.sign([quartic(a, k, g) for g in grid])
            flips = np.count_nonzero(np.diff(signs[signs != 0]))
            assert flips == 1

    def test_extreme_gains_still_converge(self):
        # roots span many orders of magnitude; the bracketing must not rely
        # on an absolute interval width (one ulp of a 1e4-sized root is
        # larger than 1e-12)
        for k in (1e-4, 1e-2, 1e2, 1e4):
            report = optimal_nnr(0.9, k)
            assert report.residual <= 1e-10
            assert quartic(0.9, k, report.alpha_star) == pytest.approx(0.0, abs=1e-4)

    @pytest.mark.parametrize("a", [0.0, 1.0, -1.0, 1 + 1e-12, 2.0])
    @pytest.mark.parametrize("k", [1e-23, -1e-31, 1e-60, 8.7e-78, -8.7e-78])
    def test_tiny_gains_down_to_the_last_finite_coefficients(self, a, k):
        # alpha* reaches 3.5e102 at |a| = 1 and |k| = 8.7e-78, and alpha**4 overflows
        # from 2**256 (1.2e77) on
        report = optimal_nnr(a, k)
        if a == 0:  # the quartic factors as (alpha^2 - 1/k^2)(alpha^2 + 2 alpha + 1/k^2)
            assert report.alpha_star == pytest.approx(1 / abs(k), rel=1e-15)
        coeffs = quartic_coefficients(a, k)
        alpha = mpmath.mpf(report.alpha_star)
        scale = max(abs(mpmath.mpf(c)) * alpha**p for c, p in zip(coeffs, (4, 3, 1, 0)))
        f = abs(design._quartic(coeffs, report.alpha_star))
        assert report.residual == pytest.approx(float(f / scale), rel=1e-12, abs=0)
        assert report.residual <= 1e-14
        assert 0 < report.mi_min < math.inf

    def test_gain_whose_fourth_power_has_no_finite_inverse_is_refused(self):
        with pytest.raises(PrivmaskError) as exc:
            optimal_nnr(1.0, 8e-78)
        assert str(exc.value) == (
            "the optimality quartic needs finite a^4 and k^4 > 0, got a=1.0, k=8e-78")

    def test_minimizer_beats_dense_grid(self):
        rng = np.random.default_rng(37)
        grid = np.geomspace(1e-3, 1e3, 601)
        for _ in range(25):
            a = rng.uniform(-2, 2)
            k = rng.choice([-1, 1]) * rng.uniform(0.05, 2)
            sys = SystemParams(a=a, k=k, w=0.1)
            best = optimal_nnr(a, k).mi_min
            sampled = min(mi_rate_from_nnr(sys, g).total for g in grid)
            assert best <= sampled + 1e-9


class TestMasksFromNnr:
    def test_simple_values(self):
        assert masks_from_nnr(2.0, 0.05, 0.05) == MaskParams(m=0.05, n=0.2)
        assert masks_from_nnr(1.0, 0.05, 0.0) == MaskParams(m=0.0, n=0.05)

    def test_anchor_design_point(self):
        masks = masks_from_nnr(optimal_nnr(1.0, -1.0).alpha_star, 0.05, 0.0)
        assert masks.n == pytest.approx(0.04423, abs=2e-5)

    def test_round_trips_through_nnr_of(self):
        masks = masks_from_nnr(2.0, 0.05, 0.05)
        assert masks.n / (masks.m + 0.05) == pytest.approx(2.0, rel=1e-15)

    @pytest.mark.parametrize("w, m", [(-0.1, 0.0), (0.05, -0.1)])
    def test_negative_variance_rejected(self, w, m):
        with pytest.raises(NegativeVariance) as exc:
            masks_from_nnr(1.0, w, m)
        assert str(exc.value) == f"w and m must be >= 0, got w={w}, m={m}"

    def test_degenerate_inputs(self):
        with pytest.raises(IllDefinedNnr):
            masks_from_nnr(1.0, 0.0, 0.0)
        with pytest.raises(NonPositiveAlpha):
            masks_from_nnr(0.0, 0.05, 0.0)


class TestTradeoff:
    def test_fills_in_the_report_of_optimal_nnr(self):
        report = optimal_nnr(1.0, -1.0)
        assert report.tradeoff == ()
        full = tradeoff_curve(ANCHOR, [0.0, 1.0])
        assert (full.alpha_star, full.residual, full.mi_min) == (
            report.alpha_star, report.residual, report.mi_min)
        assert [pt.lam for pt in full.tradeoff] == [0.0, 1.0]

    def test_zero_weight_reduces_to_optimal_nnr(self):
        report = optimal_nnr(1.0, -1.0)
        (pt,) = tradeoff_curve(ANCHOR, [0.0]).tradeoff
        assert pt.alpha == report.alpha_star
        assert pt.mi == report.mi_min
        assert pt.objective == pt.mi

    def test_unit_weight_reference_point(self):
        # frozen against an independent dense-grid search of the objective
        (pt,) = tradeoff_curve(ANCHOR, [1.0]).tradeoff
        assert pt.alpha == pytest.approx(0.5875289592, abs=1e-6)
        assert pt.objective == pytest.approx(1.0323804589, abs=1e-9)
        assert pt.cost == pytest.approx(0.1 + 0.15 * pt.alpha, rel=1e-12)

    def test_heavy_weight_pushes_alpha_down_but_positive(self):
        (pt,) = tradeoff_curve(ANCHOR, [1000.0]).tradeoff
        assert 0 < pt.alpha < 0.05
        assert not pt.at_boundary

    def test_matches_independent_grid_search(self):
        lam = 2.0
        (pt,) = tradeoff_curve(ANCHOR, [lam]).tradeoff
        grid = np.geomspace(1e-4, optimal_nnr(1.0, -1.0).alpha_star, 200_001)
        vals = [mi_rate_from_nnr(ANCHOR, g).total + lam * (0.1 + 0.15 * g) for g in grid]
        j = int(np.argmin(vals))
        assert pt.alpha == pytest.approx(grid[j], rel=1e-4)
        assert pt.objective <= vals[j] + 1e-12

    def test_dominance_and_monotonicity(self):
        astar = optimal_nnr(1.0, -1.0).alpha_star
        points = tradeoff_curve(ANCHOR, [0.0, 0.5, 1.0, 2.0, 10.0]).tradeoff
        alphas = [pt.alpha for pt in points]
        assert all(al <= astar + 1e-9 for al in alphas)
        assert all(a2 <= a1 for a1, a2 in zip(alphas, alphas[1:]))
        costs = [pt.cost for pt in points]
        mis = [pt.mi for pt in points]
        assert all(c2 <= c1 for c1, c2 in zip(costs, costs[1:]))
        assert all(m2 >= m1 for m1, m2 in zip(mis, mis[1:]))

    def test_tiny_gain_large_root(self):
        # alpha* ~ 1e6 here; the refinement must cope with intervals whose
        # width target is below one ulp of the endpoints
        sys_ = SystemParams(a=0.0, k=1e-6, w=0.05, q=1, r=1)
        (pt,) = tradeoff_curve(sys_, [1e-3]).tradeoff
        assert 0 < pt.alpha <= optimal_nnr(0.0, 1e-6).alpha_star + 1e-3

    def test_recovers_the_closed_form_front(self):
        # needs no root finding: at s = sigma/n the ratio is alpha(s) and the
        # weight lam(s) zeroes dJ/d(alpha) there, so the trade-off point at
        # lam(s) must land on alpha(s)
        rng = np.random.default_rng(20240605)
        systems = [stable_system(rng) for _ in range(60)]
        systems.append(SystemParams(a=0.0, k=1e-6, w=0.05, q=1, r=1))  # alpha* ~ 1e6
        for sys_ in systems:
            astar = optimal_nnr(sys_.a, sys_.k).alpha_star
            s_star = nnr_prediction_ratio(sys_.a, astar)
            s_floor = nnr_prediction_ratio(sys_.a, design.TRADEOFF_LO_FACTOR * astar)
            for u in (0.02, 0.1, 0.3, 0.5, 0.7, 0.9, 0.98):
                alpha, lam = front_point(sys_, s_star * (s_floor / s_star) ** u)
                (pt,) = tradeoff_curve(sys_, [lam]).tradeoff
                assert not pt.at_boundary, (sys_, lam)
                assert pt.alpha == pytest.approx(alpha, rel=1e-12), (sys_, lam)

    def test_interior_points_sit_on_the_exact_bracket(self):
        # 100 plants as the certify workload draws them, 100 with |a| = 1 +- 10^U(-12, -1) and
        # 100 with |a| just below 1 and a small gain, which puts alpha* far above 1.  Of the
        # 2,051 interior points, 1,825 (89%) are an end of the exact bracket and none is more
        # than 2 ulps past it (the derivative through the root s(alpha), in which a*a - 1
        # cancels, read 1,532 and up to 2,777 ulps)
        rng = np.random.default_rng(2311)
        systems = [stable_system(rng) for _ in range(100)]
        systems += [near_unit_system(rng, small_gain=i % 2 == 1) for i in range(200)]
        offs = []
        for sys_ in systems:
            c1 = control_cost_rate_from_nnr_derivative(sys_)
            for pt in tradeoff_curve(sys_, WORKLOAD_LAMBDAS).tradeoff:
                if not pt.at_boundary:
                    offs.append(ulps_from_exact_bracket(sys_, pt.lam * c1, pt.alpha))
        assert max(offs) <= 2
        assert offs.count(0) >= 0.85 * len(offs)

    def test_each_bracket_end_evaluated_once(self, monkeypatch):
        derivative_at, quartic_at, riccati_calls = [], [], []
        kernel, quartic_kernel, ratio = (design.mi_rate_from_nnr_derivative, design._quartic,
                                         rates.nnr_prediction_ratio)

        def counting(sys_, x):
            before = len(riccati_calls)
            derivative_at.append(x)
            value = kernel(sys_, x)
            assert len(riccati_calls) == before  # no Riccati root under the derivative
            return value

        monkeypatch.setattr(design, "mi_rate_from_nnr_derivative", counting)
        solve = rates.solve_are
        monkeypatch.setattr(design, "_quartic",
                            lambda c, x: quartic_at.append(x) or quartic_kernel(c, x))
        monkeypatch.setattr(rates, "nnr_prediction_ratio",
                            lambda a, x: riccati_calls.append(x) or ratio(a, x))
        monkeypatch.setattr(rates, "solve_are",
                            lambda a, p, n: riccati_calls.append(n) or solve(a, p, n))
        rng = np.random.default_rng(5)
        for sys_ in [ANCHOR] + [stable_system(rng) for _ in range(10)]:
            for calls in (derivative_at, quartic_at, riccati_calls):
                calls.clear()
            points = tradeoff_curve(sys_, (0.0,) + WORKLOAD_LAMBDAS).tradeoff
            astar = points[0].alpha
            # the quartic is never taken at 0 (its value there is c0) nor twice anywhere
            assert 0.0 not in quartic_at and len(set(quartic_at)) == len(quartic_at)
            assert derivative_at[:2] == [design.TRADEOFF_LO_FACTOR * astar, astar]
            assert derivative_at.count(derivative_at[0]) == derivative_at.count(astar) == 1
            # each point's bisection runs only at midpoints, never at the root it returns
            for pt in points[1:]:
                if not pt.at_boundary:
                    derivative_at.clear()
                    tradeoff_curve(sys_, [pt.lam])
                    assert len(set(derivative_at)) == len(derivative_at)
            # one ratio and the solve_are under it for alpha*'s rate and for each point's rate,
            # none in the search
            riccati_calls.clear()
            tradeoff_curve(sys_, (0.0,) + WORKLOAD_LAMBDAS)
            assert len(riccati_calls) == 2 * (1 + len(points))

    def test_weight_past_the_floor_pins_alpha_to_it(self):
        rng = np.random.default_rng(11)
        for sys_ in [ANCHOR] + [stable_system(rng) for _ in range(20)]:
            astar = optimal_nnr(sys_.a, sys_.k).alpha_star
            floor = design.TRADEOFF_LO_FACTOR * astar
            alpha, lam = front_point(sys_, 2.0 * nnr_prediction_ratio(sys_.a, floor))
            assert alpha < floor
            (pt,) = tradeoff_curve(sys_, [lam]).tradeoff
            assert pt.at_boundary
            assert pt.alpha == floor

    def test_zero_cost_slope_returns_alpha_star_exactly(self):
        astar = optimal_nnr(1.0, -1.0).alpha_star
        free = SystemParams(a=1, k=-1, w=0.05, q=0, r=0)
        for sys_, lam in ((free, 1.0), (free, 1e4), (ANCHOR, 5e-324)):  # 5e-324 * c1 underflows
            assert lam * control_cost_rate_from_nnr_derivative(sys_) == 0
            (pt,) = tradeoff_curve(sys_, [lam]).tradeoff
            assert pt.alpha == astar
            assert not pt.at_boundary

    def test_fields_are_plain_floats(self):
        for lam in (0.0,) + WORKLOAD_LAMBDAS:
            (pt,) = tradeoff_curve(ANCHOR, [lam]).tradeoff
            for field in ("alpha", "mi", "cost", "objective"):
                assert type(getattr(pt, field)) is float, (lam, field)

    def test_grid_is_not_scored_one_scalar_at_a_time(self, monkeypatch):
        scalar_calls = []
        kernel = design.mi_rate_from_nnr

        def counting(sys_, alpha):
            scalar_calls.append(alpha)
            return kernel(sys_, alpha)

        monkeypatch.setattr(design, "mi_rate_from_nnr", counting)
        for lam in (1e-4, 1.0, 1e4):
            scalar_calls.clear()
            tradeoff_curve(ANCHOR, [lam])
            assert len(scalar_calls) < 200

    def test_validation(self):
        for lam in (-0.5, math.nan, math.inf, -math.inf):
            with pytest.raises(NegativeWeight):
                tradeoff_curve(ANCHOR, [lam])
        with pytest.raises(UnstableClosedLoop):
            tradeoff_curve(SystemParams(a=0.9, k=0.2, w=0.05, q=1, r=1), [1.0])
        with pytest.raises(ZeroProcessNoise):
            tradeoff_curve(SystemParams(a=1, k=-1, w=0.0, q=1, r=1), [1.0])
        with pytest.raises(EmptyInput):
            tradeoff_curve(ANCHOR, [])


class TestBoundaryDiagnostics:
    def test_negative_process_noise_rejected(self):
        with pytest.raises(NegativeVariance) as exc:
            boundary_diagnostics(MaskParams(m=0, n=0.1), -0.05)
        assert str(exc.value) == "process-noise variance w=-0.05 < 0"

    def test_three_regimes(self):
        assert boundary_diagnostics(MaskParams(m=0.1, n=0), 0.0) is MaskDiagnosis.UPLINK_UNBOUNDED
        assert boundary_diagnostics(MaskParams(m=0, n=0.1), 0.0) is MaskDiagnosis.DOWNLINK_UNBOUNDED
        assert boundary_diagnostics(MaskParams(m=0, n=0.1), 0.05) is MaskDiagnosis.OK

    def test_all_zero_is_ok(self):
        assert boundary_diagnostics(MaskParams(m=0, n=0), 0.0) is MaskDiagnosis.OK


class TestRobustnessSweep:
    def test_ratio_algebra(self):
        grid = robustness_sweep(ANCHOR, 1.0, m_list=[0.0, 0.05], w_true_list=[0.05, 0.06])
        # m=0: achieved alpha scales by w_nom/w_true
        assert grid.alpha[0, 0] == pytest.approx(1.0)
        assert grid.alpha[0, 1] == pytest.approx(0.05 / 0.06, rel=1e-12)
        # m=0.05 damps the deviation: (m+w_nom)/(m+w_true)
        assert grid.alpha[1, 1] == pytest.approx(0.1 / 0.11, rel=1e-12)

    def test_exact_when_model_is_right(self):
        grid = robustness_sweep(ANCHOR, 0.7, m_list=[0.0, 0.1, 0.3], w_true_list=[0.05])
        assert np.allclose(grid.alpha[:, 0], 0.7, atol=0)

    def test_damping_is_monotone_in_m(self):
        grid = robustness_sweep(ANCHOR, 1.0, m_list=np.linspace(0, 0.5, 11),
                                w_true_list=[0.08])
        deviation = np.abs(grid.alpha[:, 0] - 1.0)
        assert np.all(np.diff(deviation) < 0)

    def test_mi_values_match_rate_function(self):
        grid = robustness_sweep(ANCHOR, 1.0, m_list=[0.0], w_true_list=[0.06])
        assert grid.mi[0, 0] == pytest.approx(
            mi_rate_from_nnr(ANCHOR, grid.alpha[0, 0]).total)

    def test_cells_match_the_scalar_kernel(self):
        sys_ = SystemParams(a=0.3, k=-0.6, w=0.2, q=1, r=1)  # a^2 < 1: both root branches
        grid = robustness_sweep(sys_, 0.8, m_list=np.linspace(0, 2, 9),
                                w_true_list=np.geomspace(1e-3, 5, 13))
        for i, j in np.ndindex(grid.mi.shape):
            assert grid.mi[i, j] == mi_rate_from_nnr(sys_, float(grid.alpha[i, j])).total

    def test_degenerate_cell_rejected(self):
        sys = SystemParams(a=1, k=-1, w=0.05)
        with pytest.raises(IllDefinedNnr):
            robustness_sweep(sys, 1.0, m_list=[0.0], w_true_list=[0.0])

    @pytest.mark.parametrize("alpha, m_list, w_list, error, message", [
        (0.0, [0.0], [0.05], NonPositiveAlpha, "alpha_design must be > 0, got 0.0"),
        (-1.0, [0.0], [0.05], NonPositiveAlpha, "alpha_design must be > 0, got -1.0"),
        (1.0, [], [0.05], EmptyInput, "m_list and w_true_list must be nonempty"),
        (1.0, [0.0], [], EmptyInput, "m_list and w_true_list must be nonempty"),
        (1.0, [-0.1], [0.05], NegativeVariance, "masks and variances must be >= 0"),
        (1.0, [0.0], [-0.05], NegativeVariance, "masks and variances must be >= 0"),
    ])
    def test_invalid_inputs_rejected(self, alpha, m_list, w_list, error, message):
        with pytest.raises(error) as exc:
            robustness_sweep(ANCHOR, alpha, m_list, w_list)
        assert str(exc.value) == message


# every function that takes a noise-to-noise ratio, and the name its message gives it
ALPHA_TAKERS = {
    "nnr_prediction_ratio": (lambda x: nnr_prediction_ratio(ANCHOR.a, x), "alpha"),
    "mi_rate_from_nnr": (lambda x: mi_rate_from_nnr(ANCHOR, x), "alpha"),
    "mi_rate_from_nnr_alt": (lambda x: mi_rate_from_nnr_alt(ANCHOR, x), "alpha"),
    "mi_rate_from_nnr_derivative": (lambda x: mi_rate_from_nnr_derivative(ANCHOR, x), "alpha"),
    "control_cost_rate_from_nnr": (lambda x: control_cost_rate_from_nnr(ANCHOR, x), "alpha"),
    "masks_from_nnr": (lambda x: masks_from_nnr(x, 0.1), "alpha"),
    "robustness_sweep": (lambda x: robustness_sweep(ANCHOR, x, [0.1], [0.1]), "alpha_design"),
}


@pytest.mark.parametrize("name", ALPHA_TAKERS)
@pytest.mark.parametrize("alpha", [math.nan, 0.0, -0.0, -1.0, -math.inf])
def test_alpha_guards_refuse_nan_and_non_positive_ratios(name, alpha):
    call, label = ALPHA_TAKERS[name]
    with pytest.raises(NonPositiveAlpha) as exc:
        call(alpha)
    assert str(exc.value) == f"{label} must be > 0, got {alpha}"
