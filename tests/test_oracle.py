import math

import numpy as np
import pytest

from privmask import (
    HorizonTooLarge,
    HorizonTooShort,
    MaskParams,
    SingularBlock,
    SystemParams,
    consistency_report,
    exact_directed_info,
    exact_mi,
    finite_horizon_info,
    joint_covariance,
)

ANCHOR = SystemParams(a=1, k=-1, w=0.05, q=1, r=1)
ANCHOR_MASKS = MaskParams(m=0, n=0.05)
LN2 = math.log(2)


def random_tuple(rng):
    """Well-conditioned parameter tuple for horizon-20 oracle runs."""
    a = rng.uniform(-1.2, 1.2)
    while True:
        k = rng.choice([-1, 1]) * rng.uniform(0.2, 1.3)
        if abs(a + k) <= 1.15:
            break
    return (
        SystemParams(a=a, k=k, w=rng.uniform(0.02, 0.4), q=1, r=1),
        MaskParams(m=rng.uniform(0, 0.4), n=rng.uniform(0.02, 0.5)),
    )


class TestJointCovariance:
    def test_hand_values_one_step(self):
        jc = joint_covariance(ANCHOR, ANCHOR_MASKS, 1, ["X_1", "Y_0", "Y_1"])
        expected = np.array([
            [0.10, -0.05, 0.10],
            [-0.05, 0.05, -0.05],
            [0.10, -0.05, 0.15],
        ])
        assert np.allclose(jc.cov, expected, atol=1e-15)

    def test_hand_values_estimate(self):
        jc = joint_covariance(ANCHOR, ANCHOR_MASKS, 1, ["X_1", "Xhat_1"])
        assert jc.cov[1, 1] == pytest.approx(0.075, abs=1e-15)
        assert jc.cov[0, 1] == pytest.approx(0.075, abs=1e-15)

    def test_first_state_variance(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            sys, masks = random_tuple(rng)
            jc = joint_covariance(sys, masks, 1, ["X_1"])
            expected = sys.k**2 * masks.n + masks.m + sys.w
            assert jc.cov[0, 0] == pytest.approx(expected, rel=1e-12)

    def test_zero_noise_gives_zero_matrix(self):
        sys = SystemParams(a=0.7, k=-0.4, w=0.0)
        jc = joint_covariance(sys, MaskParams(m=0, n=0), 3, ["X_1", "Y_2", "Xhat_3"])
        assert np.all(jc.cov == 0.0)

    def test_psd_and_symmetric(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            sys, masks = random_tuple(rng)
            labels = [f"X_{t}" for t in range(1, 9)] + [f"Y_{t}" for t in range(9)] \
                + [f"Xhat_{t}" for t in range(1, 9)]
            jc = joint_covariance(sys, masks, 8, labels)
            assert np.allclose(jc.cov, jc.cov.T, atol=1e-14)
            eig = np.linalg.eigvalsh(jc.cov)
            assert eig.min() >= -1e-12 * np.trace(jc.cov)

    def test_horizon_cap(self):
        with pytest.raises(HorizonTooLarge):
            joint_covariance(ANCHOR, ANCHOR_MASKS, 65, ["X_1"])

    def test_label_validation(self):
        with pytest.raises(ValueError):
            joint_covariance(ANCHOR, ANCHOR_MASKS, 2, ["X_0"])  # X starts at 1
        with pytest.raises(ValueError):
            joint_covariance(ANCHOR, ANCHOR_MASKS, 2, ["U_2"])  # U stops at T-1
        with pytest.raises(ValueError):
            joint_covariance(ANCHOR, ANCHOR_MASKS, 2, ["Z_1"])


class TestExactMi:
    def test_one_step_anchor(self):
        jc = joint_covariance(ANCHOR, ANCHOR_MASKS, 1, ["X_1", "Y_0", "Y_1"])
        assert exact_mi(jc, ["X_1"], ["Y_0", "Y_1"]) == pytest.approx(LN2, abs=1e-12)

    def test_one_step_estimate(self):
        jc = joint_covariance(ANCHOR, ANCHOR_MASKS, 1, ["X_1", "Xhat_1"])
        assert exact_mi(jc, ["X_1"], ["Xhat_1"]) == pytest.approx(LN2, abs=1e-12)

    def test_independent_blocks(self):
        # with a+k = 0 the states are driven by disjoint fresh noises
        jc = joint_covariance(ANCHOR, ANCHOR_MASKS, 3, ["X_2", "X_3"])
        assert exact_mi(jc, ["X_2"], ["X_3"]) == pytest.approx(0.0, abs=1e-12)

    def test_overlapping_blocks_rejected(self):
        jc = joint_covariance(ANCHOR, ANCHOR_MASKS, 2, ["X_1", "X_2", "Y_1"])
        with pytest.raises(ValueError):
            exact_mi(jc, ["X_1", "Y_1"], ["Y_1"])

    def test_singular_block_detected(self):
        jc = joint_covariance(ANCHOR, ANCHOR_MASKS, 2, ["X_1", "Y_1", "U_1"])
        with pytest.raises(SingularBlock):
            exact_mi(jc, ["X_1"], ["Y_1", "U_1"])  # U_1 = k*Y_1 exactly

    def test_data_processing_inequality(self):
        rng = np.random.default_rng(17)
        for _ in range(8):
            sys, masks = random_tuple(rng)
            T = int(rng.integers(2, 9))
            x = [f"X_{t}" for t in range(1, T + 1)]
            y = [f"Y_{t}" for t in range(T + 1)]
            xh = [f"Xhat_{t}" for t in range(1, T + 1)]
            jc = joint_covariance(sys, masks, T, x + y + xh)
            assert exact_mi(jc, x, xh) <= exact_mi(jc, x, y) + 1e-9


class TestDirectedInfo:
    def test_one_step_anchor_measurement_target(self):
        di = exact_directed_info(ANCHOR, ANCHOR_MASKS, 1, "Y")
        assert di.forward == pytest.approx(0.5 * LN2, abs=1e-12)
        assert di.backward == pytest.approx(0.5 * LN2, abs=1e-12)

    def test_one_step_anchor_estimate_target(self):
        # the filter ignores Y_0, so the estimate target absorbs the
        # backward step into the forward one at t=1; the total is unchanged
        di = exact_directed_info(ANCHOR, ANCHOR_MASKS, 1, "Xhat")
        assert di.forward == pytest.approx(LN2, abs=1e-12)
        assert di.backward == pytest.approx(0.0, abs=1e-12)

    def test_chain_rule_totals(self):
        rng = np.random.default_rng(23)
        for _ in range(6):
            sys, masks = random_tuple(rng)
            T = int(rng.integers(1, 8))
            x = [f"X_{t}" for t in range(1, T + 1)]
            for target, z in (("Y", [f"Y_{t}" for t in range(T + 1)]),
                              ("Xhat", [f"Xhat_{t}" for t in range(1, T + 1)])):
                di = exact_directed_info(sys, masks, T, target)
                jc = joint_covariance(sys, masks, T, x + z)
                assert di.forward + di.backward == pytest.approx(
                    exact_mi(jc, x, z), abs=1e-9)

    def test_forward_terms_match_closed_form(self):
        rng = np.random.default_rng(29)
        for _ in range(5):
            sys, masks = random_tuple(rng)
            T = int(rng.integers(1, 10))
            di = exact_directed_info(sys, masks, T, "Y")
            fh = finite_horizon_info(sys, masks, T)
            assert np.allclose(di.forward_terms, fh.forward_terms, atol=1e-9)
            per_step = fh.backward_sum / T
            assert np.allclose(di.backward_terms, per_step, atol=1e-9)

    def test_invalid_target(self):
        with pytest.raises(ValueError):
            exact_directed_info(ANCHOR, ANCHOR_MASKS, 2, "U")

    def test_horizon_cap(self):
        with pytest.raises(HorizonTooLarge):
            exact_directed_info(ANCHOR, ANCHOR_MASKS, 33, "Y")


class TestConsistencyReport:
    def test_anchor_gating_checks_pass(self):
        report = consistency_report(ANCHOR, ANCHOR_MASKS, 10)
        for check in report:
            if not check.informational:
                assert check.passed, check
                assert check.abs_err <= 1e-9

    def test_second_reference_tuple(self):
        sys = SystemParams(a=0.5, k=-0.4, w=0.03, q=1, r=1)
        report = consistency_report(sys, MaskParams(m=0.02, n=0.1), 10)
        assert all(c.passed for c in report if not c.informational)

    def test_one_step_values(self):
        report = {c.name: c for c in consistency_report(ANCHOR, ANCHOR_MASKS, 1)}
        assert report["conservation_measurement"].lhs == pytest.approx(LN2, abs=1e-12)
        assert report["forward_sum_closed_form"].lhs == pytest.approx(0.5 * LN2, abs=1e-12)
        assert report["backward_sum_closed_form"].lhs == pytest.approx(0.5 * LN2, abs=1e-12)
        # at one step the estimate target still carries the full information
        assert report["mi_estimate_vs_measurement"].abs_err <= 1e-12

    def test_estimate_totals_fall_short_beyond_one_step(self):
        # the filter discards Y_0 (zero initial gain), and from T=2 on the
        # lost direction carries smoothing information about the state path:
        # the exact deficit at the anchor, T=2, is ln(2*sqrt(370)/37)
        report = {c.name: c for c in consistency_report(ANCHOR, ANCHOR_MASKS, 2)}
        row = report["mi_estimate_vs_measurement"]
        assert row.informational
        assert row.abs_err == pytest.approx(math.log(2 * math.sqrt(370) / 37), abs=1e-12)
        assert row.lhs < row.rhs

    def test_horizon_cap(self):
        with pytest.raises(HorizonTooLarge):
            consistency_report(ANCHOR, ANCHOR_MASKS, 21)


@pytest.mark.parametrize("call", [
    lambda T: joint_covariance(ANCHOR, ANCHOR_MASKS, T, ["X_1"]),
    lambda T: exact_directed_info(ANCHOR, ANCHOR_MASKS, T, "Y"),
    lambda T: consistency_report(ANCHOR, ANCHOR_MASKS, T),
], ids=["joint_covariance", "exact_directed_info", "consistency_report"])
@pytest.mark.parametrize("horizon", [0, -1])
def test_short_horizon_is_too_short_not_too_large(call, horizon):
    with pytest.raises(HorizonTooShort):
        call(horizon)
