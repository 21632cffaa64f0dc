import math

import mpmath
import numpy as np
import pytest

from privmask import (
    MaskParams,
    NegativeVariance,
    SystemParams,
    prediction_covariances,
    solve_are,
    steady_state_second_moment,
)
from privmask import riccati
from privmask.riccati import _gain, gain_schedule

GOLDEN = (1 + math.sqrt(5)) / 2


MP = mpmath.mp.clone()
MP.dps = 50


def exact_root(a, p, n):
    """Nonnegative root of s^2 - ((a^2-1)n + p)s - pn = 0, in 50 digits, as the nearest double.

    Every double is exact in mpmath.  Where b = (a^2-1)n + p < 0 the root
    is taken as 2pn/(sqrt(D) - b), which does not cancel.
    """
    a, p, n = MP.mpf(a), MP.mpf(p), MP.mpf(n)
    b = (a * a - 1) * n + p
    d = MP.sqrt(b * b + 4 * p * n)
    return float(2 * p * n / (d - b) if b < 0 else (b + d) / 2)


def quadratic_residual(a, p, n, sigma):
    """Residual of the cleared covariance equation at sigma."""
    return abs((a * a * n / (sigma + n) - 1.0) * sigma + p)


class TestSolveAre:
    def test_memoryless_plant_returns_p(self):
        assert solve_are(0.0, 0.15, 0.3) == pytest.approx(0.15, abs=1e-15)

    def test_golden_ratio_fixed_point(self):
        # a=1 with p=n makes sigma/n the golden ratio
        assert solve_are(1.0, 0.05, 0.05) == pytest.approx(0.05 * GOLDEN, abs=1e-15)

    def test_noiseless_uplink_limit(self):
        assert solve_are(1.0, 0.1, 0.0) == pytest.approx(0.1, abs=0)

    def test_negative_inputs_rejected(self):
        with pytest.raises(NegativeVariance):
            solve_are(1.0, -0.1, 0.1)
        with pytest.raises(NegativeVariance):
            solve_are(1.0, 0.1, -0.1)

    def test_root_within_4_ulp_of_the_exact_root(self):
        rng = np.random.default_rng(11)
        # a^2 < 1 and a^2 > 1, small and large p, so both root branches occur
        p = np.concatenate([[0.0, 1e-300, 1e300], rng.uniform(1e-6, 3.0, 200)]).tolist()
        cases = [(a, x, n) for a in (0.0, 0.4, 1.0, 1.7) for n in (0.0, 1e-12, 0.3, 5.0)
                 for x in p]
        # b < 0 with p*n out of range: subnormal above (p = 1e-300, n = 1e-12), 0.0 and inf here
        cases += [(0.0, 1e-300, 1e-30), (0.0, 1e200, 1e300)]
        for a, x, n in cases:
            exact = exact_root(a, x, n)
            assert abs(solve_are(a, x, n) - exact) <= 4 * math.ulp(exact), (a, x, n)

    def test_degenerate_all_stable_vs_unstable(self):
        assert solve_are(0.5, 0.0, 0.0) == 0.0
        assert solve_are(1.0, 0.0, 0.0) == 0.0

    def test_cancellation_free_branch(self):
        # (a**2-1)*n + p < 0 exercises the product-of-roots branch
        a, p, n = 0.1, 1e-12, 1.0
        sigma = solve_are(a, p, n)
        assert sigma > 0
        assert quadratic_residual(a, p, n, sigma) <= 1e-12 * max(1.0, sigma)

    def test_extreme_magnitudes_do_not_overflow(self):
        assert solve_are(0.5, 1e300, 1.0) == pytest.approx(1e300, rel=1e-12)
        assert solve_are(100.0, 1e-8, 1.0) == pytest.approx(9999.0, rel=1e-6)
        assert math.isfinite(solve_are(0.0, 1e-12, 1e6))

    @pytest.mark.parametrize("a, p, n", [(1.0, 1e308, 1.0), (2.0, 1e308, 1e307), (0.5, 1.7e308, 1e300)])
    def test_finite_root_whose_sum_overflows(self, a, p, n):
        # b + disc exceeds the largest double, the root (b + disc)/2 does not
        exact = exact_root(a, p, n)
        assert math.isfinite(exact)
        assert abs(solve_are(a, p, n) - exact) <= 4 * math.ulp(exact)

    def test_root_selection_and_sign_structure(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            a = rng.uniform(-2, 2)
            p = rng.uniform(1e-6, 1)
            n = rng.uniform(1e-6, 1)
            sigma = solve_are(a, p, n)
            b = (a * a - 1) * n + p
            assert sigma >= max(0.0, b) - 1e-15
            other = b - sigma  # sum of roots = b
            assert other <= 1e-12

    def test_monotone_in_p_and_n(self):
        ps = np.linspace(0.01, 1, 25)
        for a in (-1.5, -1.0, 0.3, 1.0, 2.0):
            sig = [solve_are(a, p, 0.2) for p in ps]
            assert np.all(np.diff(sig) > 0)
        ns = np.linspace(0.01, 1, 25)
        for a in (-2.0, -1.0, 1.0, 1.5):  # |a| >= 1: nondecreasing in n
            sig = [solve_are(a, 0.3, n) for n in ns]
            assert np.all(np.diff(sig) >= -1e-15)


def schedule(a, p, n):
    """The prediction variances S_1..S_1000 of the filtering recursion."""
    return gain_schedule(a, p, n, 1000)[0]


class TestIteration:
    """``solve_are`` against the last value of the recursion ``gain_schedule`` runs."""

    def test_matches_closed_form_at_anchor(self):
        s = schedule(1.0, 0.05, 0.05)
        assert s[-1] == pytest.approx(solve_are(1.0, 0.05, 0.05), abs=1e-15)

    def test_memoryless_converges_in_one_step(self):
        assert (schedule(0.0, 0.15, 0.3) == 0.15).all()  # S_1 = p, and every step after

    def test_unstable_noiseless_uplink_settles_at_p(self):
        # n = 0 pins the gain at 1, so every step predicts p, solve_are's limit
        assert (schedule(1.5, 0.1, 0.0) == solve_are(1.5, 0.1, 0.0)).all()

    @pytest.mark.parametrize("a", [0.5, 1.0, 1.5])
    def test_all_zero_noise_converges_to_zero(self, a):
        assert (schedule(a, 0.0, 0.0) == solve_are(a, 0.0, 0.0)).all()
        assert solve_are(a, 0.0, 0.0) == 0.0

    def test_stable_noiseless_uplink_converges(self):
        assert (schedule(0.5, 0.1, 0.0) == 0.1).all()

    def test_transient_monotone_to_limit(self):
        s = schedule(0.9, 0.02, 0.3)
        assert np.all(np.diff(s) >= 0)
        assert s[0] == 0.02
        assert s[-1] == s[-3]  # settled
        assert s[-1] == pytest.approx(solve_are(0.9, 0.02, 0.3), abs=1e-15)

    def test_oracle_equivalence_random_tuples(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(1000):
            a = rng.uniform(-2, 2)
            p = 1.0 - rng.uniform(0, 1)  # (0, 1]
            n = 1.0 - rng.uniform(0, 1)
            closed = solve_are(a, p, n)
            s = schedule(a, p, n)
            assert s[-1] == s[-3]
            worst = max(worst, abs(closed - s[-1]))
            assert quadratic_residual(a, p, n, closed) <= 1e-12 * max(1.0, closed)
        assert worst <= 1e-10


class TestPredictionCovariances:
    def test_first_terms(self):
        s = prediction_covariances(1.0, 0.05, 0.05, 3)
        assert s[0] == 0.05
        assert s[1] == pytest.approx(0.075)
        # converging toward the golden-ratio root
        assert abs(s[2] - 0.05 * GOLDEN) < abs(s[1] - 0.05 * GOLDEN)


def full_schedule(a, p, n, horizon):
    """``gain_schedule`` without its early stop: every step of the recursion."""
    s_pred, gains = np.empty(horizon), np.empty(horizon)
    post = 0.0
    for t in range(horizon):
        s = a * a * post + p
        l = _gain(s, n)
        s_pred[t], gains[t] = s, l
        post = (1.0 - l) ** 2 * s + l * l * n
    return s_pred, gains


# the posterior variance of this plant ends in a two-step cycle of last bits,
# so it never repeats from one step to the next
NEVER_SETTLES = (-0.6571286931664613, 0.0005768443638769796, 0.0008813993627586025)


class TestGainSchedule:
    @pytest.mark.parametrize("a, p, n", [
        (0.9, 0.07, 0.05),
        (1.0, 0.05, 0.05),
        (0.5, 0.0, 0.0),  # p = n = 0
        (1.3, 0.0, 0.0),
        (0.5, -0.0, 0.0),  # a negative zero p
        (0.7, 0.2, 0.0),  # n = 0
        (1.2, 0.2, 0.0),  # n = 0 with |a| >= 1
        (-1.5, 0.1, 0.3),  # |a| >= 1
        (1.0, 1e-9, 10.0),  # slow to settle
        NEVER_SETTLES,
    ])
    @pytest.mark.parametrize("horizon", [1, 2, 7, 3000])
    def test_early_stop_matches_the_full_recursion(self, a, p, n, horizon):
        got = gain_schedule(a, p, n, horizon)
        want = full_schedule(a, p, n, horizon)
        for g, w in zip(got, want):  # bytes compare the sign of zero too
            assert g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("p, n", [(-1.0, 0.1), (0.1, -1.0)])
    def test_negative_variance_rejected(self, p, n):
        with pytest.raises(NegativeVariance) as exc:
            gain_schedule(0.9, p, n, 5)
        assert str(exc.value) == f"p and n must be >= 0, got p={p}, n={n}"

    def test_never_settling_schedule_has_no_repeat(self, monkeypatch):
        steps = []
        monkeypatch.setattr(riccati, "_gain", lambda s, n: steps.append(s) or _gain(s, n))
        _, gains = gain_schedule(*NEVER_SETTLES, 3000)
        assert (np.diff(gains[-100:]) != 0).all()
        assert len(steps) < 100  # the two-step cycle stops the loop early


class TestSecondMoment:
    def test_anchor(self):
        s = SystemParams(a=1, k=-1, w=0.05, q=1, r=1)
        assert steady_state_second_moment(s, MaskParams(m=0, n=0.05)) == pytest.approx(0.1)

    def test_zero_loop_gain(self):
        s = SystemParams(a=0.5, k=-0.5, w=0.05)
        assert steady_state_second_moment(s, MaskParams(m=0, n=0.2)) == pytest.approx(0.1)

    def test_matches_recursion_limit(self):
        s = SystemParams(a=0.6, k=-0.9, w=0.04, q=1, r=1)
        masks = MaskParams(m=0.02, n=0.1)
        p = 0.0
        drive = masks.m + s.k**2 * masks.n + s.w
        for _ in range(2000):
            p = (s.a + s.k) ** 2 * p + drive
        assert steady_state_second_moment(s, masks) == pytest.approx(p, rel=1e-12)

    def test_unstable_rejected(self):
        s = SystemParams(a=0.9, k=0.2, w=0.05)
        assert steady_state_second_moment(s, MaskParams(m=0.1, n=0.1)) == math.inf

    @pytest.mark.parametrize("a", [0.5, 1.0, 1.5])
    def test_noiseless_loop_stays_at_zero(self, a):
        s = SystemParams(a=a, k=0.3, w=0.0)
        assert steady_state_second_moment(s, MaskParams(m=0, n=0)) == 0.0
