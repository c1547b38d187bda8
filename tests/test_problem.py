"""Tests for problem construction, residual evaluation, and the solver.

Oracles: factor/dimension counting by hand, central finite differences of
the raw residual against the sparse Jacobian, exact gauge transforms, cost
equality between differently built but mathematically identical problems,
and the weighted quadratic model and Huber cost built by hand from the
unweighted residual evaluation.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from infocal.camera import FeatureObservation
from infocal.geometry import UnitQuaternion, so3_exp
from infocal.imu import ImuSample, inertial_error, inertial_error_jacobians, preintegrate
from infocal.problem import (
    CALIB_DIM,
    KF_DIM,
    KeyframeState,
    Landmark,
    SolveOptions,
    _model_decrease,
    _slice_imu_stream,
    anchor_projectors,
    bridge_blocks,
    build_batch_problem,
    build_segment_problem,
    camera_blocks,
    evaluate_residuals,
    inertial_blocks,
    partition_segments,
    problem_cost,
    refresh_preintegrations,
    solve,
)

import support


@pytest.fixture(scope="module")
def scene():
    return support.make_scene(seed=1, n_keyframes=6, n_landmarks=20)


def build_from_scene(sc):
    return build_batch_problem(
        sc.keyframes, sc.landmarks, sc.observations, sc.imu_stream, sc.calibration, sc.noise
    )


def slice_one_interval(imu_stream, t0, t1):
    """Reference for _slice_imu_stream: one interval's samples with
    t0 <= t <= t1 (tolerant at the ends), the stream's times rebuilt on
    every call."""
    ts = np.array([s.t for s in imu_stream])
    lo = int(np.searchsorted(ts, t0 - 1e-9, side="left"))
    hi = int(np.searchsorted(ts, t1 + 1e-9, side="right"))
    return imu_stream[lo:hi]


class TestBuildBatch:
    def test_counting_minimal(self):
        sc = support.make_scene(seed=2, n_keyframes=2, n_landmarks=1)
        # exactly one landmark seen from both keyframes
        assert len(sc.observations) == 2
        prob = build_from_scene(sc)
        assert len(prob.inertial_factors) == 1
        assert len(prob.camera_factors) == 2
        ev = evaluate_residuals(prob)
        assert ev.residual.shape == (2 * 2 + 15,)
        assert ev.jacobian.shape == (19, 2 * KF_DIM + 3 + CALIB_DIM)
        assert ev.dropped == 0

    def test_factor_counts(self, scene):
        prob = build_from_scene(scene)
        assert len(prob.inertial_factors) == len(scene.keyframes) - 1
        assert len(prob.camera_factors) == len(scene.observations)
        assert len(prob.partitions) == 1
        assert prob.partitions[0].anchor_keyframe_id == 0

    def test_dangling_keyframe_raises(self, scene):
        bad = list(scene.observations) + [FeatureObservation(99, 0, np.zeros(2), 0.5)]
        with pytest.raises(ValueError):
            build_batch_problem(
                scene.keyframes, scene.landmarks, bad, scene.imu_stream, scene.calibration, scene.noise
            )

    def test_dangling_landmark_raises(self, scene):
        bad = list(scene.observations) + [FeatureObservation(0, 999, np.zeros(2), 0.5)]
        with pytest.raises(ValueError):
            build_batch_problem(
                scene.keyframes, scene.landmarks, bad, scene.imu_stream, scene.calibration, scene.noise
            )

    def test_empty_keyframes_raises(self, scene):
        with pytest.raises(ValueError):
            build_batch_problem([], [], [], scene.imu_stream, scene.calibration, scene.noise)

    def _build_with_sample(self, scene, i, sample):
        stream = list(scene.imu_stream)
        stream[i] = sample
        return build_batch_problem(
            scene.keyframes, scene.landmarks, scene.observations, stream, scene.calibration, scene.noise
        )

    def test_non_increasing_imu_times_raise(self, scene):
        # sample 25 lies inside the interval between keyframes 2 and 3
        s = scene.imu_stream[25]
        repeated = ImuSample(scene.imu_stream[24].t, s.omega_meas, s.accel_meas)
        with pytest.raises(ValueError, match="interval 2-3 .*not strictly increasing"):
            self._build_with_sample(scene, 25, repeated)

    def test_non_finite_imu_sample_raises(self, scene):
        s = scene.imu_stream[25]
        with pytest.raises(ValueError, match="interval 2-3 has non-finite"):
            self._build_with_sample(scene, 25, ImuSample(s.t, s.omega_meas, [np.nan, 0.0, 0.0]))

    def test_imu_slices_match_per_interval_reference(self, scene):
        # interval ends on sample times, within the 1e-9 tolerance of one,
        # and halfway between two
        stream = scene.imu_stream
        ts = np.array([s.t for s in stream])
        rng = np.random.default_rng(3)
        near = ts[5::11] + rng.uniform(-5e-10, 5e-10, size=ts[5::11].size)
        ends = np.unique(np.concatenate([ts[::7], 0.5 * (ts[3::9] + ts[4::9]), near]))
        got = _slice_imu_stream(stream, ends[:-1], ends[1:])
        assert len(got) == ends.size - 1
        for t0, t1, samples in zip(ends[:-1], ends[1:], got):
            ref = slice_one_interval(stream, t0, t1)
            assert len(samples) == len(ref) and all(a is b for a, b in zip(samples, ref))

    def test_mixed_interval_sample_counts(self, scene):
        # without keyframe 3 the interval 2-4 holds twice the samples of the
        # others, so refresh preintegrates two sample-count groups
        drop = 3
        keyframes = scene.keyframes[:drop] + scene.keyframes[drop + 1 :]
        obs = [
            replace(o, keyframe_id=o.keyframe_id - (o.keyframe_id > drop))
            for o in scene.observations
            if o.keyframe_id != drop
        ]
        prob = build_batch_problem(keyframes, scene.landmarks, obs, scene.imu_stream, scene.calibration, scene.noise)
        assert sorted(f.times.shape[0] for f in prob.inertial_factors) == [11, 11, 11, 21]
        assert problem_cost(prob) < 1e-12
        for i, f in enumerate(prob.inertial_factors):
            kf0, kf1 = prob.keyframes[f.k0], prob.keyframes[f.k1]
            samples = [s for s in scene.imu_stream if kf0.t - 1e-9 <= s.t <= kf1.t + 1e-9]
            ref = preintegrate(samples, prob.calibration.imu, (kf0.b_g, kf0.b_a), prob.noise)
            support.assert_same_preintegration(prob.preintegrated[i], ref)


class TestResidualEvaluation:
    def test_zero_at_truth(self, scene):
        prob = build_from_scene(scene)
        ev = evaluate_residuals(prob)
        assert np.max(np.abs(ev.residual)) < 1e-8
        assert problem_cost(prob) < 1e-12

    def test_row_order_camera_then_inertial(self, scene):
        prob = build_from_scene(scene)
        n_cam = len(prob.camera_factors)
        ev = evaluate_residuals(prob)
        expected = 2 * n_cam + 15 * len(prob.inertial_factors)
        assert ev.residual.shape == (expected,)
        # weight blocks tile the rows exactly
        covered = sum(b.shape[0] for _, b in ev.weights)
        assert covered == expected
        offsets = [o for o, _ in ev.weights]
        assert offsets == sorted(offsets)

    def test_weights_reproduce_cost(self, scene):
        prob = build_from_scene(scene)
        rng = np.random.default_rng(0)
        # perturb states so the residual is non-trivial
        prob.keyframes = [
            k.retract(rng.normal(scale=1e-3, size=KF_DIM)) for k in prob.keyframes
        ]
        ev = evaluate_residuals(prob)
        cost = 0.0
        for off, W in ev.weights:
            r = ev.residual[off : off + W.shape[0]]
            cost += 0.5 * float(r @ W @ r)
        assert cost == pytest.approx(problem_cost(prob), rel=1e-12)

    def test_behind_camera_dropped_and_counted(self, scene):
        prob = build_from_scene(scene)
        # move one landmark far behind every camera
        prob.landmarks[0] = Landmark(np.array([0.0, 0.0, -50.0]), prob.landmarks[0].id)
        ev = evaluate_residuals(prob)
        n_obs0 = int(np.sum(prob._cam_lm == 0))
        assert n_obs0 > 0
        assert ev.dropped == n_obs0
        rows = np.flatnonzero(prob._cam_lm == 0)
        for i in rows:
            assert np.all(ev.residual[2 * i : 2 * i + 2] == 0.0)

    def test_jacobian_matches_finite_differences(self):
        sc = support.make_scene(seed=3, n_keyframes=3, n_landmarks=6)
        prob = build_from_scene(sc)
        rng = np.random.default_rng(4)
        # move off the optimum so second-order terms are exercised
        prob.keyframes = [k.retract(rng.normal(scale=2e-3, size=KF_DIM)) for k in prob.keyframes]
        prob.landmarks = [
            Landmark(lm.l_G + rng.normal(scale=2e-3, size=3), lm.id) for lm in prob.landmarks
        ]
        base_kf = list(prob.keyframes)
        base_lm = list(prob.landmarks)
        base_cal = prob.calibration
        J = evaluate_residuals(prob).jacobian.toarray()

        K, L = len(base_kf), len(base_lm)
        n_cols = K * KF_DIM + L * 3 + CALIB_DIM
        h = 1e-6

        def residual_at(delta):
            prob.keyframes = [
                k.retract(delta[i * KF_DIM : (i + 1) * KF_DIM]) for i, k in enumerate(base_kf)
            ]
            lm0 = K * KF_DIM
            prob.landmarks = [
                Landmark(lm.l_G + delta[lm0 + 3 * i : lm0 + 3 * i + 3], lm.id)
                for i, lm in enumerate(base_lm)
            ]
            prob.calibration = base_cal.retract(delta[K * KF_DIM + 3 * L :])
            return evaluate_residuals(prob).residual

        J_fd = np.zeros_like(J)
        for c in range(n_cols):
            d = np.zeros(n_cols)
            d[c] = h
            J_fd[:, c] = (residual_at(d) - residual_at(-d)) / (2 * h)
        prob.keyframes, prob.landmarks, prob.calibration = base_kf, base_lm, base_cal

        scale = np.maximum(np.abs(J), 1.0)
        assert np.max(np.abs(J - J_fd) / scale) < 1e-4


class TestInertialWhitening:
    def test_whitened_blocks_match_inertial_weight(self, scene):
        # bias steps that grow along the trajectory leave non-zero gyro- and
        # accel-bias walk residuals on every inertial factor
        prob = build_from_scene(scene)
        prob.keyframes = [
            KeyframeState(k.q_GI, k.p_GI, k.v_GI, k.b_a + 1e-3 * i, k.b_g + 1e-4 * i, k.t)
            for i, k in enumerate(prob.keyframes)
        ]
        refresh_preintegrations(prob)
        g = prob.noise.gravity_vector()
        # all factors in one pass against each factor through the batch-of-one adapters
        k0, k1, rw, J0w, J1w, Jthw = inertial_blocks(prob)
        assert k0.tolist() == [f.k0 for f in prob.inertial_factors]
        assert k1.tolist() == [f.k1 for f in prob.inertial_factors]
        for i, f in enumerate(prob.inertial_factors):
            x0, x1 = prob.keyframes[f.k0], prob.keyframes[f.k1]
            r, W = inertial_error(x0, x1, prob.preintegrated[i], g)
            assert np.all(r[9:15] != 0.0)
            assert 0.5 * rw[i] @ rw[i] == pytest.approx(0.5 * r @ W @ r, rel=1e-12)
            J = np.hstack(inertial_error_jacobians(x0, x1, prob.preintegrated[i], g))
            Jw = np.hstack([J0w[i], J1w[i], Jthw[i]])
            H = J.T @ W @ J
            assert np.linalg.norm(Jw.T @ Jw - H) <= 1e-12 * np.linalg.norm(H)


class TestGaugeInvariance:
    def test_cost_invariant_under_gauge_transform(self, scene):
        prob = build_from_scene(scene)
        rng = np.random.default_rng(5)
        prob.keyframes = [k.retract(rng.normal(scale=1e-3, size=KF_DIM)) for k in prob.keyframes]
        c0 = problem_cost(prob)
        assert c0 > 1e-4

        yaw = 0.83
        t = np.array([0.4, -1.2, 2.0])
        R_y = so3_exp(np.array([0.0, 0.0, yaw]))
        q_y = UnitQuaternion.from_matrix(R_y)
        prob.keyframes = [
            KeyframeState(
                q_GI=q_y.multiply(k.q_GI),
                p_GI=R_y @ k.p_GI + t,
                v_GI=R_y @ k.v_GI,
                b_a=k.b_a,
                b_g=k.b_g,
                t=k.t,
            )
            for k in prob.keyframes
        ]
        prob.landmarks = [Landmark(R_y @ lm.l_G + t, lm.id) for lm in prob.landmarks]
        c1 = problem_cost(prob)
        assert c1 == pytest.approx(c0, rel=1e-9)


class TestSolve:
    def test_identity_at_truth(self, scene):
        prob = build_from_scene(scene)
        prob, report = solve(prob, SolveOptions())
        assert report.converged
        assert report.iterations <= 2
        assert report.final_cost <= report.initial_cost
        assert report.final_cost < 1e-12

    def test_recovers_focal_offset(self, scene):
        prob = build_from_scene(scene)
        cal = prob.calibration
        d = np.zeros(CALIB_DIM)
        d[0:2] = 5.0
        prob.calibration = cal.retract(d)
        prob, report = solve(prob, SolveOptions(max_iters=30))
        assert report.converged
        np.testing.assert_allclose(prob.calibration.camera.f, cal.camera.f, atol=1e-3)

    def test_accepted_costs_monotone(self, scene):
        prob = build_from_scene(scene)
        rng = np.random.default_rng(6)
        prob.keyframes = [k.retract(rng.normal(scale=3e-3, size=KF_DIM)) for k in prob.keyframes]
        prob.landmarks = [
            Landmark(lm.l_G + rng.normal(scale=5e-3, size=3), lm.id) for lm in prob.landmarks
        ]
        prob, report = solve(prob, SolveOptions(max_iters=40))
        hist = report.cost_history
        assert len(hist) >= 2
        assert all(b < a for a, b in zip(hist, hist[1:]))
        # the weakly observable intrinsics directions make the tail slow;
        # six orders below the per-residual scale is deep convergence here
        assert report.final_cost < 1e-6

    def test_anchor_position_bitwise_unchanged(self, scene):
        prob = build_from_scene(scene)
        rng = np.random.default_rng(7)
        prob.keyframes = [k.retract(rng.normal(scale=2e-3, size=KF_DIM)) for k in prob.keyframes]
        p_anchor = prob.keyframes[0].p_GI.copy()
        prob, report = solve(prob, SolveOptions())
        assert report.final_cost < report.initial_cost
        assert prob.keyframes[0].p_GI.tobytes() == p_anchor.tobytes()

    @pytest.mark.parametrize("seed", [7, 8, 9])
    def test_anchor_rotation_step_has_no_yaw(self, scene, seed):
        # the anchor's rotation update lies perpendicular to the gravity
        # axis expressed in the anchor body frame
        prob = build_from_scene(scene)
        rng = np.random.default_rng(seed)
        prob.keyframes = [k.retract(rng.normal(scale=2e-3, size=KF_DIM)) for k in prob.keyframes]
        q0 = prob.keyframes[0].q_GI
        u = q0.matrix().T @ np.array([0.0, 0.0, 1.0])
        prob, report = solve(prob, SolveOptions(max_iters=1))
        assert len(report.cost_history) == 2
        d = q0.local(prob.keyframes[0].q_GI)
        assert np.linalg.norm(d) > 0.0
        assert abs(u @ d) < 1e-6 * np.linalg.norm(d)

    def test_fix_calibration(self, scene):
        prob = build_from_scene(scene)
        rng = np.random.default_rng(8)
        prob.keyframes = [k.retract(rng.normal(scale=1e-3, size=KF_DIM)) for k in prob.keyframes]
        cal_before = prob.calibration
        prob, report = solve(prob, SolveOptions(fix_calibration=True, max_iters=60))
        assert prob.calibration is cal_before
        assert report.final_cost < 1e-8


def _weighted_cost(ev, step):
    """0.5 (r + J step)^T W (r + J step) from an unweighted evaluation."""
    v = ev.residual + ev.jacobian @ step
    return sum(0.5 * v[o : o + W.shape[0]] @ W @ v[o : o + W.shape[0]] for o, W in ev.weights)


class TestLevenbergMarquardtModel:
    def test_model_decrease_matches_weighted_linearization(self, scene):
        # the gap between the two segments becomes a bias bridge
        segs = support.scene_segments(scene, kf_per_segment=2, keep=[0, 2])
        prob = build_segment_problem(segs, scene.calibration, scene.noise)
        assert len(prob.bridge_factors) == 1
        rng = np.random.default_rng(14)
        prob.keyframes = [k.retract(rng.normal(scale=1e-3, size=KF_DIM)) for k in prob.keyframes]
        ev = evaluate_residuals(prob)
        K, L = len(prob.keyframes), len(prob.landmarks)
        delta = (
            rng.normal(scale=1e-3, size=(K, KF_DIM)),
            rng.normal(scale=1e-3, size=(L, 3)),
            rng.normal(scale=1e-3, size=CALIB_DIM),
        )
        flat = np.concatenate([d.ravel() for d in delta])
        expected = _weighted_cost(ev, np.zeros_like(flat)) - _weighted_cost(ev, flat)
        pred = _model_decrease(prob, camera_blocks(prob), inertial_blocks(prob), bridge_blocks(prob), delta)
        assert abs(expected) > 1.0
        assert pred == pytest.approx(expected, rel=1e-9)


class TestHuber:
    def test_solve_with_one_outlier(self, scene):
        obs = list(scene.observations)
        obs[7] = replace(obs[7], uv=obs[7].uv + np.array([40.0, 0.0]))
        prob = build_batch_problem(scene.keyframes, scene.landmarks, obs, scene.imu_stream, scene.calibration, scene.noise)
        rng = np.random.default_rng(15)
        prob.keyframes = [k.retract(rng.normal(scale=1e-3, size=KF_DIM)) for k in prob.keyframes]
        k = SolveOptions().huber_threshold
        prob, report = solve(prob, SolveOptions(huber=True, max_iters=20))
        hist = report.cost_history
        assert len(hist) >= 2
        assert all(b < a for a, b in zip(hist, hist[1:]))

        # by hand: Huber on each camera factor's whitened norm, squares elsewhere
        ev = evaluate_residuals(prob)
        n_cam_rows = 2 * len(prob.camera_factors)
        expected, outliers = 0.0, 0
        for o, W in ev.weights:
            r = ev.residual[o : o + W.shape[0]]
            e2 = float(r @ W @ r)
            if o < n_cam_rows and math.sqrt(e2) > k:
                expected += k * math.sqrt(e2) - 0.5 * k * k
                outliers += 1
            else:
                expected += 0.5 * e2
        assert outliers == 1
        assert problem_cost(prob, huber=True) == pytest.approx(expected, rel=1e-12)
        assert problem_cost(prob, huber=True) == pytest.approx(report.final_cost, rel=1e-12)


class _Seg:
    """Minimal stand-in for partitioning tests only."""

    def __init__(self, id, session_id, first, n, lm_ids):
        self.id = id
        self.session_id = session_id
        self.keyframe_ids = list(range(first, first + n))
        self.landmark_ids = set(lm_ids)


class TestPartitioning:
    def test_shared_pair_and_singleton(self):
        a = _Seg(0, "s", 0, 10, range(0, 30))
        b = _Seg(1, "s", 20, 10, range(15, 40))  # shares 15 with a
        c = _Seg(2, "s", 40, 10, range(100, 120))
        parts = partition_segments([a, b, c], max_shared=10)
        groups = sorted(tuple(sorted(p.segment_ids)) for p in parts)
        assert groups == [(0, 1), (2,)]

    def test_contiguous_segments_merge(self):
        segs = [_Seg(i, "s", i * 10, 10, range(1000 * i, 1000 * i + 5)) for i in range(4)]
        parts = partition_segments(segs, max_shared=10)
        assert len(parts) == 1
        assert parts[0].segment_ids == (0, 1, 2, 3)
        assert parts[0].anchor_keyframe_id == 0
        assert parts[0].keyframe_ranges == ((0, 39),)

    def test_transitive_sharing_chain(self):
        a = _Seg(0, "s", 0, 10, range(0, 20))
        b = _Seg(1, "s", 50, 10, range(9, 31))  # shares 11 with a, 11 with c
        c = _Seg(2, "s", 100, 10, range(20, 40))
        assert len(set(a.landmark_ids) & set(c.landmark_ids)) == 0
        parts = partition_segments([a, b, c], max_shared=10)
        assert len(parts) == 1

    def test_exactly_max_shared_does_not_merge(self):
        a = _Seg(0, "s", 0, 10, range(0, 10))
        b = _Seg(1, "s", 50, 10, range(0, 10))  # shares exactly 10
        parts = partition_segments([a, b], max_shared=10)
        assert len(parts) == 2

    def test_order_invariance(self):
        rng = np.random.default_rng(9)
        segs = [
            _Seg(0, "s", 0, 10, range(0, 30)),
            _Seg(1, "s", 10, 10, range(100, 130)),
            _Seg(2, "s", 40, 10, range(20, 50)),
            _Seg(3, "s", 80, 10, range(200, 230)),
        ]
        ref = sorted(tuple(sorted(p.segment_ids)) for p in partition_segments(segs, 10))
        for _ in range(5):
            shuffled = list(segs)
            rng.shuffle(shuffled)
            got = sorted(tuple(sorted(p.segment_ids)) for p in partition_segments(shuffled, 10))
            assert got == ref


class TestSegmentProblem:
    def test_all_segments_reproduce_batch_cost(self, scene):
        batch = build_from_scene(scene)
        segs = support.scene_segments(scene, kf_per_segment=2)
        assert len(segs) == 3
        segprob = build_segment_problem(segs, scene.calibration, scene.noise)
        assert len(segprob.partitions) == 1
        assert len(segprob.keyframes) == len(batch.keyframes)
        assert len(segprob.inertial_factors) == len(batch.inertial_factors)
        assert not segprob.bridge_factors
        c_batch = problem_cost(batch)
        c_seg = problem_cost(segprob)
        assert c_seg == pytest.approx(c_batch, rel=1e-12, abs=1e-18)

    def test_all_segments_reproduce_batch_cost_perturbed(self, scene):
        # equality must hold at arbitrary identical states, not just truth
        batch = build_from_scene(scene)
        segs = support.scene_segments(scene, kf_per_segment=3)
        segprob = build_segment_problem(segs, scene.calibration, scene.noise)
        rng = np.random.default_rng(10)
        deltas = [rng.normal(scale=1e-3, size=KF_DIM) for _ in batch.keyframes]
        batch.keyframes = [k.retract(d) for k, d in zip(batch.keyframes, deltas)]
        segprob.keyframes = [k.retract(d) for k, d in zip(segprob.keyframes, deltas)]
        assert problem_cost(segprob) == pytest.approx(problem_cost(batch), rel=1e-12)

    def test_gap_becomes_bias_bridge(self, scene):
        segs = support.scene_segments(scene, kf_per_segment=2, keep=[0, 2])
        segprob = build_segment_problem(segs, scene.calibration, scene.noise)
        assert len(segprob.bridge_factors) == 1
        br = segprob.bridge_factors[0]
        gap = scene.keyframes[4].t - scene.keyframes[1].t
        assert br.dt == pytest.approx(gap)
        # full inertial factors only inside segments
        assert len(segprob.inertial_factors) == 2

    def test_bridge_cost_is_bias_walk(self, scene):
        segs = support.scene_segments(scene, kf_per_segment=2, keep=[0, 2])
        segprob = build_segment_problem(segs, scene.calibration, scene.noise)
        base = problem_cost(segprob)
        # shift the biases of the second block only
        db_g = np.array([3e-4, 0.0, 0.0])
        new_kfs = list(segprob.keyframes)
        for i in range(2, 4):
            k = new_kfs[i]
            new_kfs[i] = KeyframeState(k.q_GI, k.p_GI, k.v_GI, k.b_a, k.b_g + db_g, k.t)
        segprob.keyframes = new_kfs
        br = segprob.bridge_factors[0]
        expected = 0.5 * float(db_g @ db_g) / (scene.noise.sigma_bg**2 * br.dt)
        got = problem_cost(segprob)
        # the bridge term dominates; the second segment's internal factor
        # re-preintegrates at the shifted bias and leaks a ~1e-4 relative
        # mismatch against the fixed measurements
        assert got - base == pytest.approx(expected, rel=1e-3)

    def test_single_segment_matches_batch_problem(self, scene):
        # the two builders on the same data build the same problem
        batch = build_from_scene(scene)
        [seg] = support.scene_segments(scene, kf_per_segment=len(scene.keyframes))
        segprob = build_segment_problem([seg], scene.calibration, scene.noise)
        for name in ("camera_factors", "inertial_factors", "bridge_factors", "partitions"):
            assert len(getattr(segprob, name)) == len(getattr(batch, name))
        [(a_seg, _, u_seg)] = anchor_projectors(segprob)
        [(a_batch, _, u_batch)] = anchor_projectors(batch)
        assert a_seg == a_batch and np.array_equal(u_seg, u_batch)
        rng = np.random.default_rng(10)
        deltas = [rng.normal(scale=1e-3, size=KF_DIM) for _ in batch.keyframes]
        batch.keyframes = [k.retract(d) for k, d in zip(batch.keyframes, deltas)]
        segprob.keyframes = [k.retract(d) for k, d in zip(segprob.keyframes, deltas)]
        assert problem_cost(segprob) == problem_cost(batch)

    def test_unknown_keyframe_raises(self, scene):
        segs = support.scene_segments(scene, kf_per_segment=3)
        landmark = next(iter(segs[0].landmark_ids))
        segs[0].observations.append(FeatureObservation(77, landmark, np.zeros(2), 0.5))
        with pytest.raises(ValueError, match="segment 0: .*unknown keyframe 77"):
            build_segment_problem(segs, scene.calibration, scene.noise)

    def test_unknown_landmark_raises(self, scene):
        segs = support.scene_segments(scene, kf_per_segment=3)
        segs[1].observations.append(FeatureObservation(segs[1].keyframe_ids[0], 999, np.zeros(2), 0.5))
        with pytest.raises(ValueError, match="segment 1: .*unknown landmark 999"):
            build_segment_problem(segs, scene.calibration, scene.noise)

    def test_overlapping_segments_raise(self, scene):
        segs = support.scene_segments(scene, kf_per_segment=3)
        segs[1].keyframe_ids = segs[0].keyframe_ids
        with pytest.raises(ValueError):
            build_segment_problem(segs, scene.calibration, scene.noise)

    def test_solve_with_bridge(self, scene):
        segs = support.scene_segments(scene, kf_per_segment=2, keep=[0, 2])
        segprob = build_segment_problem(segs, scene.calibration, scene.noise)
        # both segments observe the same wall, so sharing merges them
        assert len(segprob.partitions) == 1
        rng = np.random.default_rng(11)
        segprob.keyframes = [k.retract(rng.normal(scale=1e-3, size=KF_DIM)) for k in segprob.keyframes]
        segprob, report = solve(segprob, SolveOptions(max_iters=60))
        assert report.final_cost < 1e-7

    def test_bridge_jacobian_matches_finite_differences(self, scene):
        # the batch FD test never sees a bridge factor; this one does
        segs = support.scene_segments(scene, kf_per_segment=2, keep=[0, 2])
        prob = build_segment_problem(segs, scene.calibration, scene.noise)
        assert len(prob.bridge_factors) == 1
        rng = np.random.default_rng(13)
        prob.keyframes = [k.retract(rng.normal(scale=1e-3, size=KF_DIM)) for k in prob.keyframes]
        base_kf = list(prob.keyframes)
        base_lm = list(prob.landmarks)
        base_cal = prob.calibration
        J = evaluate_residuals(prob).jacobian.toarray()

        K, L = len(base_kf), len(base_lm)
        n_cols = K * KF_DIM + L * 3 + CALIB_DIM
        h = 1e-6

        def residual_at(delta):
            prob.keyframes = [
                k.retract(delta[i * KF_DIM : (i + 1) * KF_DIM]) for i, k in enumerate(base_kf)
            ]
            lm0 = K * KF_DIM
            prob.landmarks = [
                Landmark(lm.l_G + delta[lm0 + 3 * i : lm0 + 3 * i + 3], lm.id)
                for i, lm in enumerate(base_lm)
            ]
            prob.calibration = base_cal.retract(delta[K * KF_DIM + 3 * L :])
            return evaluate_residuals(prob).residual

        J_fd = np.zeros_like(J)
        for c in range(n_cols):
            d = np.zeros(n_cols)
            d[c] = h
            J_fd[:, c] = (residual_at(d) - residual_at(-d)) / (2 * h)
        prob.keyframes, prob.landmarks, prob.calibration = base_kf, base_lm, base_cal

        scale = np.maximum(np.abs(J), 1.0)
        assert np.max(np.abs(J - J_fd) / scale) < 1e-4

    def test_solve_cross_partition_bridge(self, scene):
        # disjoint landmark views split the partitions; the bridge then
        # couples them through the boundary keyframe system
        segs = support.scene_segments(scene, kf_per_segment=2, keep=[0, 2])
        for seg, keep_ids in zip(segs, (set(range(10)), set(range(10, 20)))):
            seg.observations = [o for o in seg.observations if o.landmark_id in keep_ids]
            seg.landmark_ids = {o.landmark_id for o in seg.observations}
            seg.landmarks = {i: seg.landmarks[i] for i in seg.landmark_ids}
        segprob = build_segment_problem(segs, scene.calibration, scene.noise)
        assert len(segprob.partitions) == 2
        assert len(segprob.bridge_factors) == 1
        assert problem_cost(segprob) < 1e-12
        rng = np.random.default_rng(12)
        segprob.keyframes = [k.retract(rng.normal(scale=1e-3, size=KF_DIM)) for k in segprob.keyframes]
        segprob, report = solve(segprob, SolveOptions(max_iters=60))
        assert report.final_cost < 1e-7
