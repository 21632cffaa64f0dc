import math

import mpmath
import numpy as np
import pytest

from privmask import oracle, rates
from privmask import (
    DegenerateMasks,
    HorizonTooLarge,
    HorizonTooShort,
    MaskParams,
    SingularBlock,
    SystemParams,
    consistency_report,
    exact_directed_info,
    exact_mi,
    finite_horizon_info,
    gain_schedule,
    joint_covariance,
    mi_rate,
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


def block(jc, labels):
    """The covariance of the labelled signals of ``jc``, in the order given."""
    idx = [jc.index(label) for label in labels]
    return jc.cov[np.ix_(idx, idx)]


def labels_of(kind, horizon):
    """The labels of X^T, Y^T or Xhat^T: X_1..X_T, Y_0..Y_T, Xhat_1..Xhat_T."""
    return [f"{kind}_{t}" for t in range(kind != "Y", horizon + 1)]


def stepwise_covariance(sys, masks, T):
    """Reference covariance: every coefficient row built by the loop's own recursion, step by step."""
    nb = (T + 1) + T + T
    var = np.concatenate([np.full(T + 1, masks.n), np.full(T, masks.m), np.full(T, sys.w)])
    _, gains = gain_schedule(sys.a, masks.m + sys.w, masks.n, T)
    rows = np.zeros((3 * (T + 1), nb))
    y, x, xh = rows.reshape(3, T + 1, nb)
    y[0, 0] = 1.0
    for t in range(1, T + 1):
        u = sys.k * y[t - 1]
        x[t] = sys.a * x[t - 1] + u
        x[t, (T + 1) + (t - 1)] += 1.0  # M_{t-1}
        x[t, (T + 1) + T + (t - 1)] += 1.0  # W_t
        y[t] = x[t]
        y[t, t] += 1.0  # N_t
        pred = sys.a * xh[t - 1] + u
        xh[t] = pred + gains[t - 1] * (y[t] - pred)
    return (rows * var) @ rows.T


class TestJointCovariance:
    @pytest.mark.parametrize("horizon, plants", [(1, 40), (2, 40), (20, 40), (256, 4)])
    def test_equals_the_stepwise_recursion_to_the_bit(self, horizon, plants):
        # |a| up to 3, either sign of a and k, |a + k| <= 1.5, masks from 1e-150 to 1e150
        rng = np.random.default_rng(horizon)
        variance = lambda: 10.0 ** rng.uniform(-150, 150) if rng.random() < 0.3 else rng.uniform(0, 1)
        for _ in range(plants):
            a = rng.uniform(-3, 3)
            k = rng.uniform(-1.5, 1.5) - a
            sys = SystemParams(a=a, k=k, w=variance())
            masks = MaskParams(m=variance(), n=variance())
            cov = joint_covariance(sys, masks, horizon).cov
            assert np.array_equal(cov, stepwise_covariance(sys, masks, horizon))

    def test_hand_values_one_step(self):
        jc = joint_covariance(ANCHOR, ANCHOR_MASKS, 1)
        expected = np.array([
            [0.10, -0.05, 0.10],
            [-0.05, 0.05, -0.05],
            [0.10, -0.05, 0.15],
        ])
        assert np.allclose(block(jc, ["X_1", "Y_0", "Y_1"]), expected, atol=1e-15)

    def test_hand_values_estimate(self):
        cov = block(joint_covariance(ANCHOR, ANCHOR_MASKS, 1), ["X_1", "Xhat_1"])
        assert cov[1, 1] == pytest.approx(0.075, abs=1e-15)
        assert cov[0, 1] == pytest.approx(0.075, abs=1e-15)

    def test_first_state_variance(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            sys, masks = random_tuple(rng)
            jc = joint_covariance(sys, masks, 1)
            expected = sys.k**2 * masks.n + masks.m + sys.w
            assert jc.cov[jc.index("X_1"), jc.index("X_1")] == pytest.approx(expected, rel=1e-12)

    def test_zero_noise_gives_zero_matrix(self):
        sys = SystemParams(a=0.7, k=-0.4, w=0.0)
        jc = joint_covariance(sys, MaskParams(m=0, n=0), 3)
        assert np.all(jc.cov == 0.0)

    def test_psd_and_symmetric(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            sys, masks = random_tuple(rng)
            jc = joint_covariance(sys, masks, 8)
            assert np.allclose(jc.cov, jc.cov.T, atol=1e-14)
            eig = np.linalg.eigvalsh(jc.cov)
            assert eig.min() >= -1e-12 * np.trace(jc.cov)

    def test_horizon_cap(self):
        with pytest.raises(HorizonTooLarge):
            joint_covariance(ANCHOR, ANCHOR_MASKS, 257)

    def test_label_validation(self):
        # U_t = k*Y_t is not offered; X and Xhat start at 1; Y_3 is past T = 2;
        # "²" is a digit to str.isdigit, yet int("²") raises a bare ValueError
        jc = joint_covariance(ANCHOR, ANCHOR_MASKS, 2)
        for label in ("U_1", "X_0", "Xhat_0", "Y_3", "Z_1", "X_", "X_-1", "X_²"):
            with pytest.raises(ValueError, match=r"expected one of Y_0\.\.Y_2, X_1\.\.X_2 and Xhat_1"):
                jc.index(label)


class TestExactMi:
    def test_one_step_anchor(self):
        jc = joint_covariance(ANCHOR, ANCHOR_MASKS, 1)
        assert exact_mi(jc, ["X_1"], ["Y_0", "Y_1"]) == pytest.approx(LN2, abs=1e-12)

    def test_one_step_estimate(self):
        jc = joint_covariance(ANCHOR, ANCHOR_MASKS, 1)
        assert exact_mi(jc, ["X_1"], ["Xhat_1"]) == pytest.approx(LN2, abs=1e-12)

    def test_independent_blocks(self):
        # with a+k = 0 the states are driven by disjoint fresh noises
        jc = joint_covariance(ANCHOR, ANCHOR_MASKS, 3)
        assert exact_mi(jc, ["X_2"], ["X_3"]) == pytest.approx(0.0, abs=1e-12)

    def test_overlapping_blocks_rejected(self):
        jc = joint_covariance(ANCHOR, ANCHOR_MASKS, 2)
        with pytest.raises(ValueError):
            exact_mi(jc, ["X_1", "Y_1"], ["Y_1"])

    def test_singular_block_detected(self):
        jc = joint_covariance(ANCHOR, ANCHOR_MASKS, 2)
        with pytest.raises(SingularBlock, match=r"block B=\['Y_1', 'Y_1'\]"):
            exact_mi(jc, ["X_1"], ["Y_1", "Y_1"])  # a repeated signal is singular

    def test_data_processing_inequality(self):
        rng = np.random.default_rng(17)
        for _ in range(8):
            sys, masks = random_tuple(rng)
            T = int(rng.integers(2, 9))
            x, y, xh = (labels_of(kind, T) for kind in ("X", "Y", "Xhat"))
            jc = joint_covariance(sys, masks, T)
            assert exact_mi(jc, x, xh) <= exact_mi(jc, x, y) + 1e-9


def column_cholesky(mat):
    """Reference Cholesky factor, one column at a time."""
    a = np.array(mat, dtype=float)
    L = np.zeros_like(a)
    for j in range(a.shape[0]):
        L[j, j] = math.sqrt(a[j, j] - L[j, :j] @ L[j, :j])
        L[j + 1 :, j] = (a[j + 1 :, j] - L[j + 1 :, :j] @ L[j, :j]) / L[j, j]
    return L


class TestChol:
    def test_matches_the_column_loop_on_oracle_blocks(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            sys, masks = random_tuple(rng)
            T = int(rng.integers(1, 21))
            cov = block(joint_covariance(sys, masks, T), labels_of("Y", T) + labels_of("X", T))
            L = oracle._chol(cov, "test")
            ref = column_cholesky(cov)
            assert np.allclose(L, ref, rtol=1e-12, atol=1e-12 * math.sqrt(cov.diagonal().max()))

    def test_small_pivot_names_its_index(self):
        with pytest.raises(SingularBlock, match=r"block B .* at pivot 1 \(1\.000e-09"):
            oracle._chol(np.diag([1.0, 1e-9, 1.0]), "B")

    def test_indefinite_block_is_singular(self):
        # LAPACK refuses this one outright (its second pivot would be -3)
        with pytest.raises(SingularBlock, match="block C"):
            oracle._chol(np.array([[1.0, 2.0], [2.0, 1.0]]), "C")


class TestPivots:
    @pytest.mark.parametrize("horizon", [1, 5, 20, 64])
    def test_blocks_are_the_gathered_covariance_to_the_bit(self, monkeypatch, horizon):
        # spans are read as slice views and other orderings through take; their pivots
        # must equal, bit for bit, those of the block gathered with np.ix_
        asked = []
        pivots = oracle.JointCovariance.pivots

        def recording(jc, idx, block):
            asked.append((jc, np.asarray(idx), block))
            return pivots(jc, idx, block)

        monkeypatch.setattr(oracle.JointCovariance, "pivots", recording)
        rng = np.random.default_rng(2026)
        for _ in range(5):
            asked.clear()
            consistency_report(*random_tuple(rng), horizon)
            assert len({ix.tobytes() for _, ix, _ in asked}) == (6 if horizon == 1 else 7)
            for jc, ix, block in asked:
                expected = oracle._chol(jc.cov[np.ix_(ix, ix)], block).diagonal() ** 2
                assert np.array_equal(pivots(jc, ix, block), expected), block

    def test_a_range_and_a_list_share_one_factorization(self, monkeypatch):
        blocks = []
        chol = oracle._chol
        monkeypatch.setattr(oracle, "_chol", lambda mat, block: blocks.append(block) or chol(mat, block))
        jc = joint_covariance(ANCHOR, ANCHOR_MASKS, 5)
        span = jc.span("X")
        assert jc.pivots(span, "X^5") is jc.pivots(list(span), "X^5 again")
        assert blocks == ["X^5"]

    def test_a_range_past_the_covariance_is_refused(self):
        # a slice would clip it to the covariance and cache that block under its positions
        jc = joint_covariance(ANCHOR, ANCHOR_MASKS, 2)
        with pytest.raises(IndexError):
            jc.pivots(range(len(jc.cov) + 1), "too long")

    @pytest.mark.parametrize("mat, message", [
        ([[1.0, 2.0], [2.0, 1.0]], "covariance block C is singular or too ill-conditioned for the "
                                   "1e-09 checks: not positive definite (largest diagonal 1.000e+00)"),
        ([[1.0, 0.0, 0.0], [0.0, 1e-9, 0.0], [0.0, 0.0, 1.0]],
         "covariance block C is singular or too ill-conditioned for the 1e-09 checks at pivot 1 "
         "(1.000e-09, largest diagonal 1.000e+00)"),
    ], ids=["not positive definite", "small pivot"])
    def test_singular_block_messages(self, mat, message):
        jc = oracle.JointCovariance(1, np.array(mat))
        with pytest.raises(SingularBlock) as exc:
            jc.pivots(list(range(len(mat))), "C")
        assert str(exc.value) == message


class TestDirectedInfo:
    def test_one_step_anchor_measurement_target(self):
        di = exact_directed_info(joint_covariance(ANCHOR, ANCHOR_MASKS, 1), "Y")
        assert di.forward == pytest.approx(0.5 * LN2, abs=1e-12)
        assert di.backward == pytest.approx(0.5 * LN2, abs=1e-12)

    def test_one_step_anchor_estimate_target(self):
        # the filter ignores Y_0, so the estimate target absorbs the
        # backward step into the forward one at t=1; the total is unchanged
        di = exact_directed_info(joint_covariance(ANCHOR, ANCHOR_MASKS, 1), "Xhat")
        assert di.forward == pytest.approx(LN2, abs=1e-12)
        assert di.backward == pytest.approx(0.0, abs=1e-12)

    def test_chain_rule_totals(self):
        rng = np.random.default_rng(23)
        for _ in range(6):
            sys, masks = random_tuple(rng)
            T = int(rng.integers(1, 8))
            jc = joint_covariance(sys, masks, T)
            for target in ("Y", "Xhat"):
                di = exact_directed_info(jc, target)
                assert di.forward + di.backward == pytest.approx(
                    exact_mi(jc, labels_of("X", T), labels_of(target, T)), abs=1e-9)

    def test_forward_terms_match_closed_form(self):
        rng = np.random.default_rng(29)
        for _ in range(5):
            sys, masks = random_tuple(rng)
            T = int(rng.integers(1, 10))
            di = exact_directed_info(joint_covariance(sys, masks, T), "Y")
            fh = finite_horizon_info(sys, masks, T)
            assert np.allclose(di.forward_terms, fh.forward_terms, atol=1e-9)
            assert np.allclose(di.backward_terms, fh.backward_terms, atol=1e-9)

    def test_one_result_type_for_the_closed_form_and_the_oracle(self):
        assert rates.DirectedInformation is oracle.DirectedInformation
        di = exact_directed_info(joint_covariance(ANCHOR, ANCHOR_MASKS, 3), "Y")
        assert type(di) is type(finite_horizon_info(ANCHOR, ANCHOR_MASKS, 3))

    def test_invalid_target(self):
        with pytest.raises(ValueError):
            exact_directed_info(joint_covariance(ANCHOR, ANCHOR_MASKS, 2), "U")

    def test_horizon_cap(self):
        with pytest.raises(HorizonTooLarge):
            exact_directed_info(joint_covariance(ANCHOR, ANCHOR_MASKS, 257), "Y")

    @pytest.mark.parametrize("target", ["Y", "Xhat"])
    @pytest.mark.parametrize("horizon", [1, 5, 40])
    def test_three_factorizations_whatever_the_horizon(self, monkeypatch, target, horizon):
        blocks = []
        chol = oracle._chol

        def counting(mat, block):
            blocks.append(block)
            return chol(mat, block)

        monkeypatch.setattr(oracle, "_chol", counting)
        exact_directed_info(joint_covariance(ANCHOR, ANCHOR_MASKS, horizon), target)
        assert len(blocks) == 3

    def test_shares_its_factorizations_with_exact_mi(self, monkeypatch):
        # Y^T and X^T come from the cache; only the block [X Y] is new
        blocks = []
        chol = oracle._chol

        def counting(mat, block):
            blocks.append(block)
            return chol(mat, block)

        monkeypatch.setattr(oracle, "_chol", counting)
        jc = joint_covariance(ANCHOR, ANCHOR_MASKS, 5)
        exact_directed_info(jc, "Y")
        exact_mi(jc, labels_of("X", 5), labels_of("Y", 5))
        assert len(blocks) == 4

    def test_long_horizon_terms_reach_the_rates(self):
        # a = 1, k = -1 is stable; by T = 200 the prediction variance has
        # settled, so the last forward term is the steady-state uplink rate
        di = exact_directed_info(joint_covariance(ANCHOR, ANCHOR_MASKS, 200), "Y")
        rates = mi_rate(ANCHOR, ANCHOR_MASKS)
        assert di.forward_terms[-1] == pytest.approx(rates.uplink, abs=1e-12)
        assert np.allclose(di.backward_terms, rates.downlink, rtol=0, atol=1e-12)


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
            consistency_report(ANCHOR, ANCHOR_MASKS, 257)

    def test_estimate_deficit_saturates(self):
        # README: the deficit saturates near 0.059 nats as T grows
        deficit = [
            {c.name: c for c in consistency_report(ANCHOR, ANCHOR_MASKS, T)}
            ["mi_estimate_vs_measurement"].abs_err
            for T in (64, 128)
        ]
        assert deficit[0] == pytest.approx(deficit[1], abs=1e-9)
        assert deficit[1] == pytest.approx(0.0590501096, abs=1e-9)

    @pytest.mark.parametrize("horizon, factorizations", [(1, 6), (5, 7), (40, 7)])
    def test_each_ordering_factored_once(self, monkeypatch, horizon, factorizations):
        # X, Y, Xhat, the two interleaved orderings and the blocks [X Y], [X Xhat];
        # at T = 1, (X_1, Xhat_1) is both the interleaved and the block ordering
        blocks = []
        chol = oracle._chol

        def counting(mat, block):
            blocks.append(block)
            return chol(mat, block)

        monkeypatch.setattr(oracle, "_chol", counting)
        consistency_report(ANCHOR, ANCHOR_MASKS, horizon)
        assert len(blocks) == factorizations

    @pytest.mark.parametrize("horizon", [1, 5, 40])
    def test_mutual_information_rows_are_exact_mi(self, horizon):
        report = {c.name: c for c in consistency_report(ANCHOR, ANCHOR_MASKS, horizon)}
        jc = joint_covariance(ANCHOR, ANCHOR_MASKS, horizon)
        x = labels_of("X", horizon)
        assert exact_mi(jc, x, labels_of("Y", horizon)) == report["conservation_measurement"].lhs
        assert exact_mi(jc, x, labels_of("Xhat", horizon)) == report["conservation_estimate"].lhs

    @pytest.mark.parametrize("sys_, masks", [
        (ANCHOR, MaskParams(m=0.1, n=0.0)),
        (SystemParams(a=1, k=-1, w=0.0), MaskParams(m=0.0, n=0.05)),
    ], ids=["n=0", "m+w=0"])
    def test_degenerate_masks_rejected(self, sys_, masks):
        with pytest.raises(DegenerateMasks) as exc:
            consistency_report(sys_, masks, 5)
        assert str(exc.value) == "consistency_report needs n > 0 and m + w > 0"

    def test_stable_loops_pass_at_the_cap(self):
        for a in (0.5, 1.0, 1.5):
            sys = SystemParams(a=a, k=-a + 0.3, w=0.05, q=1, r=1)
            report = consistency_report(sys, MaskParams(m=0.02, n=0.05), 256)
            assert max(c.abs_err for c in report if not c.informational) <= 1e-12


def _mp_report(sys, masks, T):
    """Every ``consistency_report`` row as (lhs, rhs), from 50-digit arithmetic.

    Builds the loop's noise coefficients, the filter recursion and the
    covariances from the model equations, independently of ``privmask``.
    Directed sums come from mp Cholesky pivots of the three orderings per
    target, mutual information from mp determinants.
    """
    mp = mpmath.mp.clone()
    mp.dps = 50
    a, k, w, m, n = (mp.mpf(v) for v in (sys.a, sys.k, sys.w, masks.m, masks.n))
    # basis [N_0..N_T, M_0..M_{T-1}, W_1..W_T]
    var = [n] * (T + 1) + [m] * T + [w] * T
    zero = lambda: [mp.mpf(0)] * len(var)
    axpy = lambda c, u, v: [c * ui + vi for ui, vi in zip(u, v)]
    x, y, u, xh = [zero()], [zero()], [zero()], [zero()]
    y[0][0] = mp.mpf(1)
    u[0] = [k * c for c in y[0]]
    post, s_pred = mp.mpf(0), []
    for t in range(1, T + 1):
        xt = axpy(a, x[t - 1], u[t - 1])
        xt[T + t] += 1  # M_{t-1}
        xt[2 * T + t] += 1  # W_t
        yt = list(xt)
        yt[t] += 1  # N_t
        s = a * a * post + m + w
        s_pred.append(s)
        gain = s / (s + n)
        post = (1 - gain) ** 2 * s + gain ** 2 * n
        pred = axpy(a, xh[t - 1], u[t - 1])
        x.append(xt)
        y.append(yt)
        u.append([k * c for c in yt])
        xh.append(axpy(gain, [yi - pi for yi, pi in zip(yt, pred)], pred))
    cov = lambda rows: mp.matrix(
        [[mp.fsum(r1[i] * r2[i] * var[i] for i in range(len(var))) for r2 in rows] for r1 in rows])
    pivots = lambda rows: [mp.cholesky(cov(rows))[j, j] ** 2 for j in range(len(rows))]
    mi = lambda zs: (mp.log(mp.det(cov(x[1:]))) + mp.log(mp.det(cov(zs)))
                     - mp.log(mp.det(cov(x[1:] + zs)))) / 2

    def directed(zs, pre):
        # zs[pre + t - 1] is Z_t; the interleaved ordering puts X_t before Z_t
        inter = zs[:pre] + [r for t in range(1, T + 1) for r in (x[t], zs[pre + t - 1])]
        pz, px, pi = pivots(zs)[pre:], pivots(x[1:]), pivots(inter)
        fwd = [mp.log(pz[j] / pi[pre + 2 * j + 1]) / 2 for j in range(T)]
        bwd = [mp.log(px[j] / pi[pre + 2 * j]) / 2 for j in range(T)]
        return fwd, mp.fsum(fwd), mp.fsum(bwd)

    terms_y, fwd_y, bwd_y = directed(y, 1)
    _, fwd_xh, bwd_xh = directed(xh[1:], 0)
    mi_y, mi_xh = mi(y), mi(xh[1:])
    closed = [mp.log1p(s / n) / 2 for s in s_pred]
    rows = {
        "conservation_measurement": (mi_y, fwd_y + bwd_y),
        "forward_sum_closed_form": (fwd_y, mp.fsum(closed)),
        "backward_sum_closed_form": (bwd_y, T * mp.log1p(k * k * n / (m + w)) / 2),
    }
    rows.update((f"uplink_term_{t}", (terms_y[t - 1], closed[t - 1])) for t in range(1, T + 1))
    rows.update({
        "conservation_estimate": (mi_xh, fwd_xh + bwd_xh),
        "mi_estimate_vs_measurement": (mi_xh, mi_y),
        "forward_estimate_vs_measurement": (fwd_xh, fwd_y),
        "backward_estimate_vs_measurement": (bwd_xh, bwd_y),
    })
    return rows, mp


@pytest.mark.parametrize("sys_, masks", [
    (ANCHOR, ANCHOR_MASKS),
    (SystemParams(a=1.3, k=-0.8, w=0.2, q=1, r=1), MaskParams(m=0.1, n=0.3)),
], ids=["anchor", "open-loop-unstable"])
def test_every_row_matches_fifty_digit_arithmetic(sys_, masks):
    ref, _ = _mp_report(sys_, masks, 3)
    report = consistency_report(sys_, masks, 3)
    assert [c.name for c in report] == list(ref)
    for c in report:
        lhs, rhs = ref[c.name]
        assert abs(c.lhs - float(lhs)) <= 1e-12, c
        assert abs(c.rhs - float(rhs)) <= 1e-12, c
        assert abs(c.abs_err - float(abs(lhs - rhs))) <= 1e-12, c


def test_two_step_deficit_matches_fifty_digit_arithmetic():
    ref, mp = _mp_report(ANCHOR, ANCHOR_MASKS, 2)
    mi_xh, mi_y = ref["mi_estimate_vs_measurement"]
    deficit = mi_y - mi_xh
    assert abs(deficit - mp.log(2 * mp.sqrt(370) / 37)) < mp.mpf(10) ** -45
    report = {c.name: c for c in consistency_report(ANCHOR, ANCHOR_MASKS, 2)}
    assert abs(report["mi_estimate_vs_measurement"].abs_err - float(deficit)) <= 1e-14


@pytest.mark.parametrize("call", [
    lambda T: joint_covariance(ANCHOR, ANCHOR_MASKS, T),
    lambda T: exact_directed_info(joint_covariance(ANCHOR, ANCHOR_MASKS, T), "Y"),
    lambda T: consistency_report(ANCHOR, ANCHOR_MASKS, T),
], ids=["joint_covariance", "exact_directed_info", "consistency_report"])
@pytest.mark.parametrize("horizon", [0, -1])
def test_short_horizon_is_too_short_not_too_large(call, horizon):
    with pytest.raises(HorizonTooShort):
        call(horizon)
