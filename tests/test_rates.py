import math

import mpmath
import numpy as np
import pytest

from privmask import (
    DegenerateMasks,
    HorizonTooShort,
    MaskParams,
    NonPositiveAlpha,
    SystemParams,
    control_cost_rate,
    control_cost_rate_from_nnr,
    control_cost_rate_from_nnr_derivative,
    finite_horizon_info,
    mi_rate,
    mi_rate_from_nnr,
    mi_rate_from_nnr_alt,
    mi_rate_from_nnr_derivative,
    nnr_prediction_ratio,
    solve_are,
)

ANCHOR = SystemParams(a=1, k=-1, w=0.05, q=1, r=1)
ANCHOR_MASKS = MaskParams(m=0, n=0.05)
GOLDEN = (1 + math.sqrt(5)) / 2


class TestUplinkRate:
    def test_anchor_is_log_golden_ratio(self):
        assert mi_rate(ANCHOR, ANCHOR_MASKS).uplink == pytest.approx(math.log(GOLDEN), abs=1e-12)

    def test_divergent_without_uplink_mask(self):
        assert mi_rate(ANCHOR, MaskParams(m=0, n=0)).uplink == math.inf

    def test_memoryless_half_log_two(self):
        s = SystemParams(a=0, k=0.5, w=0.05)
        assert mi_rate(s, MaskParams(m=0.1, n=0.15)).uplink == pytest.approx(
            0.5 * math.log(2), abs=1e-12)

    def test_all_zero_noise_gives_zero(self):
        s = SystemParams(a=0.5, k=-0.2, w=0.0)
        assert mi_rate(s, MaskParams(m=0, n=0)).uplink == 0.0


class TestDownlinkRate:
    def test_anchor(self):
        assert mi_rate(ANCHOR, ANCHOR_MASKS).downlink == pytest.approx(
            0.5 * math.log(2), abs=1e-12)

    def test_zero_without_uplink_mask(self):
        assert mi_rate(ANCHOR, MaskParams(m=0.3, n=0)).downlink == 0.0

    def test_divergent_with_noiseless_dynamics(self):
        s = SystemParams(a=0.5, k=-0.2, w=0.0)
        assert mi_rate(s, MaskParams(m=0, n=0.1)).downlink == math.inf


class TestFlowOverflow:
    """A flow whose signal-to-noise ratio overflows a double stays finite."""

    def test_uplink_with_a_subnormal_mask(self):
        # sigma/n is about 5e318; the flow is 366.9 nats
        n = 1e-320
        sigma = solve_are(1.0, 0.05, n)
        up = mi_rate(SystemParams(a=1, k=-1, w=0.05), MaskParams(m=0, n=n)).uplink
        assert up == pytest.approx(float(0.5 * mpmath.log1p(mpmath.mpf(sigma) / n)), rel=1e-15)

    def test_downlink_with_a_subnormal_denominator(self):
        # k^2 n/(m+w) = 1e320; the flow is 368.4 nats
        down = mi_rate(SystemParams(a=1, k=-1, w=0), MaskParams(m=1e-320, n=1)).downlink
        assert down == pytest.approx(float(0.5 * mpmath.log1p(1 / mpmath.mpf(1e-320))), rel=1e-15)

    def test_downlink_whose_signal_overflows(self):
        # k^2 n = 1e310; the flow is 356.9 nats
        exact = float(0.5 * mpmath.log1p(mpmath.mpf(1e150) ** 2 * mpmath.mpf(1e10)))
        s = SystemParams(a=0, k=1e150, w=0)
        masks = MaskParams(m=1, n=1e10)
        assert mi_rate(s, masks).downlink == pytest.approx(exact, rel=1e-15)
        assert finite_horizon_info(s, masks, 3).backward == pytest.approx(3 * exact, rel=1e-15)

    def test_downlink_whose_signal_overflows_over_a_large_denominator(self):
        # k^2 n = 2e308 overflows, but k^2 n/(m+w) is only 4; the flow is 0.5*log 5.
        # The logs of k^2 and m+w (about 709) cancel, which costs a few ulps.
        exact = float(0.5 * mpmath.log1p(mpmath.mpf(1e154) ** 2 * 2 / mpmath.mpf(5e307)))
        s = SystemParams(a=0, k=1e154, w=0)
        masks = MaskParams(m=5e307, n=2)
        assert mi_rate(s, masks).downlink == pytest.approx(exact, rel=1e-13, abs=0)
        assert finite_horizon_info(s, masks, 3).backward == pytest.approx(3 * exact, rel=1e-13, abs=0)

    def test_nnr_downlink_whose_signal_overflows(self):
        # k^2 alpha = 1e320; the flow is 368.4 nats
        s, alpha = SystemParams(a=0.5, k=1e10, w=1), 1e300
        exact = float(0.5 * mpmath.log1p(mpmath.mpf(1e10) ** 2 * mpmath.mpf(alpha)))
        assert mi_rate_from_nnr(s, alpha).downlink == pytest.approx(exact, rel=1e-15)
        alt_up = 0.5 * math.log(nnr_prediction_ratio(s.a, alpha))
        assert mi_rate_from_nnr_alt(s, alpha) - alt_up == pytest.approx(exact, rel=1e-15)

    @pytest.mark.parametrize("alpha", [1e-308, 1e-320, 5e-324])
    def test_nnr_uplink_where_s_overflows(self, alpha):
        # s(alpha) is about 1/alpha, beyond the largest double (1/alpha itself from 5.6e-309 down)
        a = 0.5
        b = a * a - 1 + 1 / mpmath.mpf(alpha)
        s_exact = (b + mpmath.sqrt(b * b + 4 / mpmath.mpf(alpha))) / 2
        sys_ = SystemParams(a=a, k=-1, w=1)
        rates = mi_rate_from_nnr(sys_, alpha)
        assert rates.uplink == pytest.approx(float(0.5 * mpmath.log1p(s_exact)), rel=1e-15)
        assert mi_rate_from_nnr_alt(sys_, alpha) - rates.downlink == pytest.approx(
            float(0.5 * mpmath.log(s_exact)), rel=1e-15)

    @pytest.mark.parametrize("a", [0.0, 0.5, -0.999, 1.0, -1.0, 1.0 + 2**-52, -1.5, 3.0])
    @pytest.mark.parametrize("k", [-0.7, 3e-150])
    def test_alt_total_at_an_infinite_ratio_is_its_limit(self, a, k):
        # s(inf) is 0 for |a| <= 1, so the uplink term 0.5*log s is -inf against a downlink
        # flow of +inf; for |a| < 1, s*alpha tends to 1/(1 - a^2), and the total to
        # log|k| - 0.5*log(1 - a^2), while from |a| = 1 on it diverges
        sys_ = SystemParams(a=a, k=k, w=0.05)
        alt = mi_rate_from_nnr_alt(sys_, math.inf)
        assert mi_rate_from_nnr(sys_, math.inf).total == math.inf
        if abs(a) < 1:
            limit = mpmath.log(abs(k)) - 0.5 * mpmath.log(1 - mpmath.mpf(a) ** 2)
            assert alt == pytest.approx(float(limit), rel=1e-15)
            if (alpha := 1e200 / (k * k)) < math.inf:  # the total nears its limit once k^2 alpha >> 1
                assert mi_rate_from_nnr_alt(sys_, alpha) == pytest.approx(alt, rel=0, abs=1e-12)
        else:
            assert alt == math.inf

    def test_missing_mask_still_diverges(self):
        assert mi_rate(SystemParams(a=1, k=-1, w=1e-320), MaskParams(m=0, n=0)).uplink == math.inf
        # k^2 n underflows to 0, but the signal is there
        s = SystemParams(a=0.5, k=1e-200, w=0)
        assert mi_rate(s, MaskParams(m=0, n=1)).downlink == math.inf


class TestMiRate:
    def test_anchor_total(self):
        rates = mi_rate(ANCHOR, ANCHOR_MASKS)
        assert rates.total == pytest.approx(0.8277854153395761, abs=1e-12)
        assert rates.total == rates.uplink + rates.downlink

    def test_divergent_flag(self):
        assert math.isinf(mi_rate(ANCHOR, MaskParams(m=0, n=0)).total)

    def test_memoryless_closed_form(self):
        # a=0 collapses the root to 1/alpha
        s = SystemParams(a=0, k=0.5, w=0.05)
        rates = mi_rate(s, MaskParams(m=0, n=0.1))
        assert rates.total == pytest.approx(math.log(1.5), abs=1e-12)

    def test_nnr_invariance_along_mask_lines(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            s = SystemParams(a=rng.uniform(-2, 2), k=rng.uniform(0.1, 2), w=rng.uniform(0.01, 0.5))
            alpha = 10 ** rng.uniform(-1.5, 1.5)
            totals = []
            for m in np.linspace(0, 0.8, 5):
                masks = MaskParams(m=m, n=alpha * (m + s.w))
                totals.append(mi_rate(s, masks).total)
            assert max(totals) - min(totals) <= 1e-12


class TestMiRateFromNnr:
    def test_matches_mask_based_rate(self):
        by_nnr = mi_rate_from_nnr(ANCHOR, 1.0)
        by_masks = mi_rate(ANCHOR, ANCHOR_MASKS)
        assert by_nnr.total == pytest.approx(by_masks.total, abs=1e-12)
        assert by_nnr.uplink == pytest.approx(by_masks.uplink, abs=1e-12)

    def test_memoryless_value(self):
        s = SystemParams(a=0, k=0.5, w=0.05)
        assert mi_rate_from_nnr(s, 2.0).total == pytest.approx(math.log(1.5), abs=1e-12)
        assert nnr_prediction_ratio(0.0, 2.0) == pytest.approx(0.5, abs=1e-15)

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(NonPositiveAlpha):
            mi_rate_from_nnr(ANCHOR, 0.0)
        with pytest.raises(NonPositiveAlpha):
            mi_rate_from_nnr(ANCHOR, -1.0)

    def test_grows_unboundedly_toward_zero_alpha(self):
        values = [mi_rate_from_nnr(ANCHOR, 10.0**-e).total for e in range(1, 8)]
        assert np.all(np.diff(values) > 0)
        assert values[-1] > 7

    def test_alt_form_sits_below(self):
        for alpha in (0.1, 1.0, 10.0):
            assert mi_rate_from_nnr_alt(ANCHOR, alpha) < mi_rate_from_nnr(ANCHOR, alpha).total

    def test_derivative_matches_central_difference(self):
        for alpha in (0.05, 0.4, 1.0, 5.0):
            h = alpha * 1e-6
            num = (mi_rate_from_nnr(ANCHOR, alpha + h).total
                   - mi_rate_from_nnr(ANCHOR, alpha - h).total) / (2 * h)
            assert mi_rate_from_nnr_derivative(ANCHOR, alpha) == pytest.approx(num, abs=1e-8)


    @pytest.mark.parametrize("alpha", [1e-155, 1e-160, 1e-165])
    def test_derivative_where_alpha_squared_is_not_normal(self, alpha):
        # alpha**2 is subnormal (1e-155, 1e-160) or 0 (1e-165); the derivative is about -0.5/alpha
        mp = mpmath.mp.clone()
        mp.dps = 80
        a, k2 = mp.mpf(ANCHOR.a), mp.mpf(ANCHOR.k) ** 2

        def total(x):
            b = a * a - 1 + 1 / x
            s = (b + mp.sqrt(b * b + 4 / x)) / 2
            return (mp.log1p(s) + mp.log1p(k2 * x)) / 2

        x = mp.mpf(alpha)
        h = x * mp.mpf(10) ** -30
        exact = (total(x + h) - total(x - h)) / (2 * h)
        assert mi_rate_from_nnr_derivative(ANCHOR, alpha) == pytest.approx(float(exact), rel=1e-14)

    def test_derivative_matches_mpmath_near_unit_a(self):
        # |a| = 1 +- 10^U(-12, -1), alpha from 1e-165 to 1e150; the two terms can cancel, so the
        # error is taken relative to |uplink term| + |downlink term|.  Over these 2,000 points
        # it reads 1.11 eps (2.03 for the form through the root s(alpha) it replaced)
        mp = mpmath.mp.clone()
        mp.dps = 80
        rng = np.random.default_rng(2310)
        worst = 0.0
        for _ in range(2000):
            offset = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-12, -1)
            a = float(rng.choice([-1.0, 1.0]) * (1.0 + offset))
            k = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-2, 1))
            alpha = float(10.0 ** rng.uniform(-165, 150))
            got = mi_rate_from_nnr_derivative(SystemParams(a=a, k=k, w=0.1), alpha)
            x, k2 = mp.mpf(alpha), mp.mpf(k) ** 2
            b = mp.mpf(a) ** 2 - 1 + 1 / x
            up = -1 / (2 * x * x * mp.sqrt(b * b + 4 / x))
            down = k2 / (2 * (1 + k2 * x))
            worst = max(worst, float(abs(got - (up + down)) / (abs(up) + abs(down))))
        assert worst <= 1.5 * 2.0**-52

    @pytest.mark.parametrize("alpha", [3e-309, 4e-309, 5.5e-309])
    def test_derivative_where_one_over_alpha_overflows(self, alpha):
        # 1/alpha is inf but the derivative, about -0.5/alpha, is still finite
        assert 1.0 / alpha == math.inf
        mp = mpmath.mp.clone()
        mp.dps = 80
        x, k2 = mp.mpf(alpha), mp.mpf(ANCHOR.k) ** 2
        b = mp.mpf(ANCHOR.a) ** 2 - 1 + 1 / x
        exact = -1 / (2 * x * x * mp.sqrt(b * b + 4 / x)) + k2 / (2 * (1 + k2 * x))
        assert mi_rate_from_nnr_derivative(ANCHOR, alpha) == float(exact)

    @pytest.mark.parametrize("alpha", [0.0, -0.0, -5e-324, -1.0, -math.inf])
    def test_derivative_rejects_nonpositive_alpha(self, alpha):
        with pytest.raises(NonPositiveAlpha):
            mi_rate_from_nnr_derivative(ANCHOR, alpha)


class TestCostRate:
    def test_anchor_quarter(self):
        assert control_cost_rate(ANCHOR, ANCHOR_MASKS) == pytest.approx(0.25, abs=1e-15)

    def test_zero_weights(self):
        s = SystemParams(a=1, k=-1, w=0.05, q=0, r=0)
        assert control_cost_rate(s, ANCHOR_MASKS) == 0.0

    def test_unstable_rejected(self):
        cost = control_cost_rate(SystemParams(a=0.9, k=0.2, w=0.05, q=1, r=1), ANCHOR_MASKS)
        assert cost == math.inf

    @pytest.mark.parametrize("sys_, masks, want", [
        # q = r = 0 costs nothing on any loop
        (SystemParams(a=0.9, k=0.2, w=0.05, q=0, r=0), ANCHOR_MASKS, 0.0),
        # m = n = w = 0: the state stays at 0
        (SystemParams(a=0.9, k=0.2, w=0.0, q=1, r=1), MaskParams(m=0, n=0), 0.0),
        (SystemParams(a=1.5, k=0.5, w=0.0, q=0, r=1), MaskParams(m=0, n=0), 0.0),
        # any noise at all diverges
        (SystemParams(a=0.9, k=0.2, w=0.0, q=1, r=1), MaskParams(m=0, n=0.1), math.inf),
        (SystemParams(a=0.9, k=0.2, w=0.0, q=1, r=0), MaskParams(m=0.1, n=0), math.inf),
        (SystemParams(a=-1.5, k=0.3, w=0.05, q=0, r=1), MaskParams(m=0, n=0), math.inf),
        # r k^2 underflows to 0: still inf, never nan
        (SystemParams(a=1.5, k=1e-200, w=0.05, q=0, r=1), ANCHOR_MASKS, math.inf),
    ], ids=["no-weights", "noise-free", "noise-free-q0", "uplink-mask", "downlink-mask",
            "process-noise", "rk2-underflow"])
    def test_unstable_loop_rules(self, sys_, masks, want):
        assert control_cost_rate(sys_, masks) == want

    def test_nnr_form_matches_masks_on_line(self):
        # C(alpha, 0, 0) is the cost at m=0, n=alpha*w
        for alpha in (0.2, 1.0, 3.0):
            masks = MaskParams(m=0, n=alpha * ANCHOR.w)
            assert control_cost_rate_from_nnr(ANCHOR, alpha) == pytest.approx(
                control_cost_rate(ANCHOR, masks), rel=1e-14)
        assert control_cost_rate_from_nnr_derivative(ANCHOR) == pytest.approx(0.15)


class TestFiniteHorizon:
    def test_one_step_splits_evenly_at_anchor(self):
        fh = finite_horizon_info(ANCHOR, ANCHOR_MASKS, 1)
        assert fh.forward == pytest.approx(0.5 * math.log(2), abs=1e-12)
        assert fh.backward == pytest.approx(0.5 * math.log(2), abs=1e-12)
        assert fh.forward + fh.backward == pytest.approx(math.log(2), abs=1e-12)

    def test_two_steps(self):
        fh = finite_horizon_info(ANCHOR, ANCHOR_MASKS, 2)
        # S_2 = a^2*Sigma_1 + p = 0.075, so the step-2 term is 0.5*ln(2.5)
        assert fh.forward_terms[1] == pytest.approx(0.5 * math.log(2.5), abs=1e-12)
        assert fh.forward == pytest.approx(0.8047189562170503, abs=1e-12)

    def test_cesaro_limit_is_uplink_rate(self):
        fh = finite_horizon_info(ANCHOR, ANCHOR_MASKS, 400)
        uplink = mi_rate(ANCHOR, ANCHOR_MASKS).uplink
        assert fh.forward / 400 == pytest.approx(uplink, abs=1e-3)
        assert fh.forward_terms[-1] == pytest.approx(uplink, abs=1e-12)

    def test_conservation_by_construction(self):
        fh = finite_horizon_info(ANCHOR, ANCHOR_MASKS, 7)
        assert fh.forward == float(fh.forward_terms.sum())
        assert fh.backward == 7 * fh.backward_terms[0]
        assert (fh.backward_terms == mi_rate(ANCHOR, ANCHOR_MASKS).downlink).all()

    @pytest.mark.parametrize("horizon", [0, -3])
    def test_short_horizon_rejected(self, horizon):
        with pytest.raises(HorizonTooShort) as exc:
            finite_horizon_info(ANCHOR, ANCHOR_MASKS, horizon)
        assert str(exc.value) == f"horizon must be >= 1, got {horizon}"

    def test_degenerate_masks_rejected(self):
        with pytest.raises(DegenerateMasks):
            finite_horizon_info(ANCHOR, MaskParams(m=0, n=0), 5)
        with pytest.raises(DegenerateMasks):
            finite_horizon_info(SystemParams(a=1, k=-1, w=0), MaskParams(m=0, n=0.1), 5)


class TestShapeInN:
    """Shape of the two flows as functions of the uplink variance n."""

    N_GRID = np.linspace(0.005, 0.6, 120)

    def test_uplink_nonincreasing_convex(self):
        vals = np.array([mi_rate(ANCHOR, MaskParams(m=0, n=float(n))).uplink for n in self.N_GRID])
        d1 = np.diff(vals)
        assert np.all(d1 <= 1e-12)
        assert np.all(np.diff(d1) >= -1e-9)

    def test_downlink_nondecreasing_concave(self):
        vals = np.array([mi_rate(ANCHOR, MaskParams(m=0, n=float(n))).downlink
                         for n in self.N_GRID])
        d1 = np.diff(vals)
        assert np.all(d1 >= -1e-12)
        assert np.all(np.diff(d1) <= 1e-9)

    def test_total_not_monotone(self):
        total = lambda n: mi_rate(ANCHOR, MaskParams(m=0, n=n)).total
        n1, n2, n3 = 0.01, 0.044, 0.5
        assert total(n1) > total(n2)
        assert total(n2) < total(n3)
