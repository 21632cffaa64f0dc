import threading
import tracemalloc

import numpy as np
import pytest
from numpy.random import Philox
from scipy.special import ndtri

from privmask import (
    HorizonTooShort,
    MaskParams,
    NonPositiveCount,
    SystemParams,
    UnstableClosedLoop,
    empirical_cost,
    empirical_prediction_error,
    simulate,
    simulate_moments,
    solve_are,
)
from privmask import simulation
from privmask.riccati import gain_schedule
from privmask.simulation import BLOCK_STEPS, SIGNALS

ANCHOR = SystemParams(a=1, k=-1, w=0.05, q=1, r=1)
ANCHOR_MASKS = MaskParams(m=0, n=0.05)


def small_batch(**kw):
    args = dict(sys=ANCHOR, masks=ANCHOR_MASKS, horizon=3000, n_trajectories=16, seed=11)
    args.update(kw)
    return simulate(args.pop("sys"), args.pop("masks"), args.pop("horizon"),
                    args.pop("n_trajectories"), args.pop("seed"), **args)


class TestDeterminism:
    def test_same_seed_same_batch(self):
        b1 = small_batch()
        b2 = small_batch()
        for field in ("x", "n", "y", "u", "m", "v", "w", "xhat_pred", "xhat"):
            assert np.array_equal(getattr(b1, field), getattr(b2, field))

    def test_worker_count_irrelevant(self):
        b1 = small_batch(workers=1)
        b3 = small_batch(workers=3)
        b5 = small_batch(workers=5)
        for field in ("x", "n", "y", "u", "m", "v", "w", "xhat_pred", "xhat"):
            assert np.array_equal(getattr(b1, field), getattr(b3, field))
            assert np.array_equal(getattr(b1, field), getattr(b5, field))

    def test_different_seeds_differ(self):
        assert not np.array_equal(small_batch().x, small_batch(seed=12).x)

    def test_trajectory_streams_do_not_depend_on_count(self):
        # appending trajectories must not disturb the ones already drawn
        b8 = small_batch(horizon=50, n_trajectories=8)
        b16 = small_batch(horizon=50, n_trajectories=16)
        assert np.array_equal(b8.x, b16.x[:8])


class TestDynamicsInvariants:
    def test_state_recursion_holds_exactly(self):
        b = small_batch(horizon=200)
        lhs = b.x[:, 1:]
        rhs = b.sys.a * b.x[:, :-1] + b.v[:, :-1] + b.w[:, 1:]
        assert np.array_equal(lhs, rhs)

    def test_signal_definitions(self):
        b = small_batch(horizon=200)
        assert np.array_equal(b.y, b.x + b.n)
        assert np.array_equal(b.u, b.sys.k * b.y)
        assert np.array_equal(b.v, b.u + b.m)

    def test_filter_consistency_bit_exact(self):
        # re-running the filter recursion on the stored measurements must
        # reproduce the stored estimates bit for bit
        b = small_batch(horizon=500, n_trajectories=4)
        for i in range(b.n_trajectories):
            xhat = 0.0
            for t in range(1, b.horizon + 1):
                pred = b.sys.a * xhat + b.u[i, t - 1]
                assert pred == b.xhat_pred[i, t]
                xhat = pred + b.gain[t] * (b.y[i, t] - pred)
                assert xhat == b.xhat[i, t]

    def test_zero_noise_zero_signals(self):
        b = simulate(SystemParams(a=0.7, k=-0.4, w=0.0), MaskParams(m=0, n=0), 100, 3, seed=2)
        for field in ("x", "n", "y", "u", "m", "v", "w", "xhat_pred", "xhat"):
            assert np.all(getattr(b, field) == 0.0)

    def test_gain_and_covariance_are_shared(self):
        b = small_batch(horizon=50)
        assert b.s_pred.shape == (51,)
        assert b.gain.shape == (51,)
        assert b.s_pred[1] == pytest.approx(b.masks.m + b.sys.w)


class TestMomentEstimators:
    def test_cost_matches_closed_form(self):
        b = small_batch(horizon=20_000, n_trajectories=32)
        mean, se = empirical_cost(b, 1.0, 1.0)
        assert abs(mean - 0.25) <= 3 * se
        assert se > 0

    def test_prediction_error_matches_riccati(self):
        b = small_batch(horizon=20_000, n_trajectories=32)
        mean, se = empirical_prediction_error(b)
        assert abs(mean - solve_are(1.0, 0.05, 0.05)) <= 3 * se

    def test_memoryless_prediction_error(self):
        sys = SystemParams(a=0, k=0.5, w=0.05, q=1, r=1)
        b = simulate(sys, MaskParams(m=0.1, n=0.15), 20_000, 32, seed=3)
        mean, se = empirical_prediction_error(b)
        assert abs(mean - 0.15) <= 3 * se

    def test_zero_weights_zero_cost(self):
        b = small_batch(horizon=1500)
        mean, se = empirical_cost(b, 0.0, 0.0)
        assert mean == 0.0 and se == 0.0

    def test_burn_in_guard(self):
        b = small_batch(horizon=500)
        with pytest.raises(HorizonTooShort):
            empirical_cost(b, 1.0, 1.0)

    def test_unstable_loop_refused(self):
        sys = SystemParams(a=0.9, k=0.2, w=0.05, q=1, r=1)
        b = simulate(sys, ANCHOR_MASKS, 1200, 2, seed=5)  # simulatable ...
        with pytest.raises(UnstableClosedLoop):
            empirical_cost(b, 1.0, 1.0)  # ... but not reportable

    def test_orthogonality_of_estimate_and_error(self):
        b = small_batch(horizon=20_000, n_trajectories=32)
        sl = slice(1001, None)
        err = b.x[:, sl] - b.xhat[:, sl]
        per_traj = (b.xhat[:, sl] * err).mean(axis=1)
        se = per_traj.std(ddof=1) / np.sqrt(len(per_traj))
        assert abs(per_traj.mean()) <= 3 * se + 1e-12

    def test_innovation_whiteness(self):
        b = small_batch(horizon=20_000, n_trajectories=32)
        sl = slice(1001, None)
        innov = b.y[:, sl] - b.xhat_pred[:, sl]
        for lag in (1, 2, 5):
            per_traj = (innov[:, lag:] * innov[:, :-lag]).mean(axis=1)
            se = per_traj.std(ddof=1) / np.sqrt(len(per_traj))
            assert abs(per_traj.mean()) <= 3 * se + 1e-12


# spans two block boundaries and ends inside a third block
LONG_HORIZON = 2 * BLOCK_STEPS + 777


class TestBlockBoundaries:
    def test_noise_equals_one_shot_stream_read(self):
        b = small_batch(masks=MaskParams(m=0.02, n=0.05), horizon=LONG_HORIZON,
                        n_trajectories=3)
        for i in range(3):
            key = np.array([np.uint64(11), np.uint64(i)], dtype=np.uint64)
            raw = Philox(key=key).random_raw(3 * (LONG_HORIZON + 1))
            z = ndtri(((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53)
            assert np.array_equal(b.w[i, 1:], np.sqrt(0.05) * z[3::3])
            assert np.array_equal(b.n[i], np.sqrt(0.05) * z[1::3])
            assert np.array_equal(b.m[i], np.sqrt(0.02) * z[2::3])
        assert np.all(b.w[:, 0] == 0.0)

    def test_identities_hold_bit_for_bit(self):
        b = small_batch(horizon=LONG_HORIZON, n_trajectories=3)
        assert np.array_equal(b.x[:, 1:], b.sys.a * b.x[:, :-1] + b.v[:, :-1] + b.w[:, 1:])
        assert np.array_equal(b.y, b.x + b.n)
        assert np.array_equal(b.u, b.sys.k * b.y)
        assert np.array_equal(b.v, b.u + b.m)
        for i in range(b.n_trajectories):
            xhat = 0.0
            for t in range(1, b.horizon + 1):
                pred = b.sys.a * xhat + b.u[i, t - 1]
                assert pred == b.xhat_pred[i, t]
                xhat = pred + b.gain[t] * (b.y[i, t] - pred)
                assert xhat == b.xhat[i, t]

    def test_block_length_irrelevant(self, monkeypatch):
        ref = small_batch(horizon=100, n_trajectories=5)
        monkeypatch.setattr(simulation, "BLOCK_STEPS", 7)
        short = small_batch(horizon=100, n_trajectories=5)
        for field in SIGNALS:
            assert np.array_equal(getattr(ref, field), getattr(short, field))

    @pytest.mark.parametrize("burn_in", [1000, BLOCK_STEPS - 1, BLOCK_STEPS + 500])
    def test_streaming_moments_match_full_batch(self, burn_in):
        b = small_batch(horizon=LONG_HORIZON, n_trajectories=16)
        cost, sigma = simulate_moments(ANCHOR, ANCHOR_MASKS, LONG_HORIZON, 16, 11,
                                       1.0, 1.0, burn_in=burn_in)
        np.testing.assert_allclose(cost, empirical_cost(b, 1.0, 1.0, burn_in), rtol=1e-12)
        np.testing.assert_allclose(sigma, empirical_prediction_error(b, burn_in), rtol=1e-12)

    def test_streaming_memory_flat_in_horizon(self, monkeypatch):
        # A full batch of 16 trajectories holds at least 9 * 8 * 16 bytes per
        # step.  The streaming path holds one block plus the shared gain
        # schedule, a few float64 vectors of length T.
        monkeypatch.setattr(simulation, "BLOCK_STEPS", 32)
        peaks = []
        for horizon in (1000, 4000):
            tracemalloc.start()
            try:
                simulate_moments(ANCHOR, ANCHOR_MASKS, horizon, 16, 3, 1.0, 1.0, burn_in=10)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 32 * 3000

    def test_streaming_memory_holds_one_block(self, monkeypatch):
        # The working set is about 12 arrays of BLOCK_STEPS x n_trajectories
        # float64.  Keeping one block alive while the next is allocated adds
        # a constant, which test_streaming_memory_flat_in_horizon cannot see.
        block, n = 1024, 32
        monkeypatch.setattr(simulation, "BLOCK_STEPS", block)
        tracemalloc.start()
        try:
            simulate_moments(ANCHOR, ANCHOR_MASKS, 4 * block + 100, n, 3, 1.0, 1.0, burn_in=10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * 12 * block * n * 8

    def test_guards(self):
        with pytest.raises(NonPositiveCount):
            simulate(ANCHOR, ANCHOR_MASKS, 10, 0, seed=1)
        with pytest.raises(NonPositiveCount):
            simulate_moments(ANCHOR, ANCHOR_MASKS, 2000, 0, 1, 1.0, 1.0)
        with pytest.raises(HorizonTooShort):
            simulate_moments(ANCHOR, ANCHOR_MASKS, 1000, 2, 1, 1.0, 1.0)
        with pytest.raises(UnstableClosedLoop):
            simulate_moments(SystemParams(a=0.9, k=0.2, w=0.05), ANCHOR_MASKS, 2000, 2, 1, 1.0, 1.0)


def reference_paths(sys, masks, horizon, n_trajectories, seed):
    """The closed loop on one thread, one time step at a time: ``(T+1, n)`` arrays."""
    z = np.empty((horizon + 1, 3, n_trajectories))
    for i in range(n_trajectories):
        key = np.array([np.uint64(seed), np.uint64(i)], dtype=np.uint64)
        raw = Philox(key=key).random_raw(3 * (horizon + 1))
        uniform = ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
        z[:, :, i] = ndtri(uniform).reshape(horizon + 1, 3)
    w, n, m = np.sqrt(sys.w) * z[:, 0], np.sqrt(masks.n) * z[:, 1], np.sqrt(masks.m) * z[:, 2]
    w[0] = 0.0
    x, y, u, v, pred, xhat = (np.zeros_like(w) for _ in range(6))
    _, gains = gain_schedule(sys.a, masks.m + sys.w, masks.n, horizon)
    y[0] = n[0]
    u[0] = sys.k * y[0]
    v[0] = u[0] + m[0]
    for t in range(1, horizon + 1):
        x[t] = sys.a * x[t - 1] + v[t - 1] + w[t]
        y[t] = x[t] + n[t]
        u[t] = sys.k * y[t]
        v[t] = u[t] + m[t]
        pred[t] = sys.a * xhat[t - 1] + u[t - 1]
        xhat[t] = (y[t] - pred[t]) * gains[t - 1] + pred[t]
    return {"x": x, "n": n, "y": y, "u": u, "m": m, "v": v, "w": w,
            "xhat_pred": pred, "xhat": xhat}


SPLIT_BLOCK = 8


class TestTwoThreadNoise:
    """The noise is drawn in two column halves on two threads; no bit may move."""

    # 1 leaves the helper's half empty; 3 and 65 make one half a column wider.
    # 2*SPLIT_BLOCK - 1 ends on a block edge, 2*SPLIT_BLOCK one step past it.
    @pytest.mark.parametrize("n_trajectories", [1, 2, 3, 65])
    @pytest.mark.parametrize("horizon", [2 * SPLIT_BLOCK - 1, 2 * SPLIT_BLOCK])
    def test_bit_identical_to_one_thread(self, monkeypatch, n_trajectories, horizon):
        monkeypatch.setattr(simulation, "BLOCK_STEPS", SPLIT_BLOCK)
        sys = SystemParams(a=0.9, k=-0.5, w=0.05, q=1.5, r=0.5)
        masks = MaskParams(m=0.0, n=0.05)  # a zero-variance channel
        ref = reference_paths(sys, masks, horizon, n_trajectories, seed=7)
        b = simulate(sys, masks, horizon, n_trajectories, seed=7)
        for field in SIGNALS:
            assert np.array_equal(getattr(b, field), ref[field].T), field

        burn_in = 3
        cost_sum = np.zeros(n_trajectories)
        err_sum = np.zeros(n_trajectories)
        for t0 in range(0, horizon + 1, SPLIT_BLOCK):
            rows = slice(max(t0, burn_in + 1), t0 + SPLIT_BLOCK)
            x, u, pred = ref["x"][rows], ref["u"][rows], ref["xhat_pred"][rows]
            cost_sum += (sys.q * x ** 2 + sys.r * u ** 2).sum(axis=0)
            err_sum += ((x - pred) ** 2).sum(axis=0)
        count = horizon - burn_in
        expected = (simulation._mean_stderr(cost_sum / count),
                    simulation._mean_stderr(err_sum / count))
        assert simulate_moments(sys, masks, horizon, n_trajectories, 7, sys.q, sys.r,
                                burn_in=burn_in) == expected

    def _generator(self, horizon=100):
        _, gains = gain_schedule(ANCHOR.a, ANCHOR_MASKS.m + ANCHOR.w, ANCHOR_MASKS.n, horizon)
        return simulation._blocks(ANCHOR, ANCHOR_MASKS, horizon, 5, 1, gains)

    def test_no_thread_outlives_simulate_moments(self):
        before = threading.active_count()
        simulate_moments(ANCHOR, ANCHOR_MASKS, 2 * BLOCK_STEPS, 5, 1, 1.0, 1.0)
        assert threading.active_count() == before

    def test_no_thread_outlives_an_early_close(self, monkeypatch):
        monkeypatch.setattr(simulation, "BLOCK_STEPS", 16)
        before = threading.active_count()
        blocks = self._generator()
        next(blocks)
        assert threading.active_count() == before  # no helper runs beside the consumer
        blocks.close()
        assert threading.active_count() == before

    def test_no_thread_outlives_a_raising_consumer(self, monkeypatch):
        monkeypatch.setattr(simulation, "BLOCK_STEPS", 16)
        before = threading.active_count()
        with pytest.raises(RuntimeError):
            for _ in self._generator():
                raise RuntimeError("consumer failed")
        assert threading.active_count() == before
