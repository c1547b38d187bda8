"""Tests for problem construction, residual evaluation, and the solver.

Oracles: factor/dimension counting by hand, central finite differences of
the raw residual against the sparse Jacobian, exact gauge transforms, cost
equality between differently built but mathematically identical problems,
and the weighted quadratic model, Huber cost and damped LM step built by
hand from the unweighted residual evaluation.  Failed LM trials are forced
by replacing the damped step, and the damping sequence they cause is
checked against Nielsen's rule.  Every linearisation of a solve and of a
scoring call is checked to read preintegrations taken at the current
state.
"""

import math
import sys
import weakref
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import infocal.problem
from infocal import imu
from infocal.camera import FeatureObservation
from infocal.geometry import Transform, UnitQuaternion, quat_mul, quat_to_matrix, so3_exp
from infocal.imu import ImuSample, inertial_error_jacobians, preintegrate
from infocal.problem import (
    CALIB_DIM,
    BRIDGE_DTYPE,
    HUBER_THRESHOLD,
    KF_DIM,
    KeyframeState,
    Landmark,
    SolveOptions,
    _LAMBDA_INIT,
    _LM_DIAG_FLOOR,
    _MAX_LAMBDA,
    _band_span,
    _damped_step,
    _block_forward_solve,
    _forward_solve,
    _keyframe_band,
    _landmark_pairs,
    _normal_equations,
    _pair_span,
    _predicted_decrease,
    _retract_problem,
    _run_blocks,
    _slice_imu_stream,
    _workspace,
    anchor_projectors,
    bridge_blocks,
    build_batch_problem,
    build_segment_problem,
    gauged_blocks,
    inertial_blocks,
    partition_segments,
    problem_cost,
    refresh_preintegrations,
    solve,
)

import support
from support import evaluate_residuals, inertial_error, quat_local

sys.path[:0] = [str(Path(__file__).resolve().parents[1] / "bench")]

import sim  # noqa: E402
import workloads  # noqa: E402


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
        assert prob.partitions[0].anchor == 0

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
        with pytest.raises(ValueError, match="segment 0: keyframe interval 2-3 .*not strictly increasing"):
            self._build_with_sample(scene, 25, repeated)

    def test_non_finite_imu_sample_raises(self, scene):
        s = scene.imu_stream[25]
        with pytest.raises(ValueError, match="segment 0: keyframe interval 2-3 has non-finite"):
            self._build_with_sample(scene, 25, ImuSample(s.t, s.omega_meas, [np.nan, 0.0, 0.0]))

    def test_interval_without_two_samples_raises(self, scene):
        # keyframe 2 is at sample 20: only that sample is left in interval 2-3
        stream = scene.imu_stream[:21] + scene.imu_stream[31:]
        with pytest.raises(ValueError, match="segment 0: keyframe interval 2-3 covered by fewer than 2"):
            build_batch_problem(scene.keyframes, scene.landmarks, scene.observations, stream, scene.calibration, scene.noise)

    def test_imu_slices_match_per_interval_reference(self, scene):
        # interval ends on sample times, within the 1e-9 tolerance of one,
        # and halfway between two
        stream = scene.imu_stream
        ts = np.array([s.t for s in stream])
        rng = np.random.default_rng(3)
        near = ts[5::11] + rng.uniform(-5e-10, 5e-10, size=ts[5::11].size)
        ends = np.unique(np.concatenate([ts[::7], 0.5 * (ts[3::9] + ts[4::9]), near]))
        lo, hi = _slice_imu_stream(ts, ends[:-1], ends[1:])
        assert lo.size == hi.size == ends.size - 1
        for t0, t1, a, b in zip(ends[:-1], ends[1:], lo, hi):
            ref = slice_one_interval(stream, t0, t1)
            samples = stream[a:b]
            assert len(samples) == len(ref) and all(x is y for x, y in zip(samples, ref))

    @pytest.mark.parametrize("t0", [10.0, 1.7e9])
    def test_imu_slices_keep_end_samples_at_epoch_times(self, t0):
        # interval ends one ULP inside the first and the last sample keep
        # both: at 1.7e9 s one ULP is 2.4e-7 s, and t - 1e-9 is t
        ts = t0 + 0.01 * np.arange(11)
        lo, hi = _slice_imu_stream(ts, [np.nextafter(ts[0], np.inf)], [np.nextafter(ts[-1], -np.inf)])
        assert (lo.tolist(), hi.tolist()) == ([0], [11])

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
        pre = refresh_preintegrations(prob)
        for i, f in enumerate(prob.inertial_factors):
            kf0, kf1 = keyframes[f.k0], keyframes[f.k1]
            samples = [s for s in scene.imu_stream if kf0.t - 1e-9 <= s.t <= kf1.t + 1e-9]
            ref = preintegrate(samples, prob.calibration.imu, (kf0.b_g, kf0.b_a), prob.noise)
            support.assert_same_preintegration(pre[i], ref)

    def test_mixed_interval_sample_counts_refresh_in_one_call(self, scene, monkeypatch):
        # intervals of 11 and 21 samples go through one call, padded to 21
        keyframes = scene.keyframes[:3] + scene.keyframes[4:]
        obs = [replace(o, keyframe_id=o.keyframe_id - (o.keyframe_id > 3)) for o in scene.observations if o.keyframe_id != 3]
        prob = build_batch_problem(keyframes, scene.landmarks, obs, scene.imu_stream, scene.calibration, scene.noise)
        assert len({f.times.shape[0] for f in prob.inertial_factors}) == 2
        calls = []
        kernel = imu.preintegrate_intervals
        monkeypatch.setattr(imu, "preintegrate_intervals", lambda *a: calls.append(a[0].shape) or kernel(*a))
        refresh_preintegrations(prob)
        assert calls == [(len(prob.inertial_factors), 21)]


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
        prob.keyframes = prob.keyframes.retract(rng.normal(scale=1e-3, size=(len(prob.keyframes), KF_DIM)))
        ev = evaluate_residuals(prob)
        cost = 0.0
        for off, W in ev.weights:
            r = ev.residual[off : off + W.shape[0]]
            cost += 0.5 * float(r @ W @ r)
        assert cost == pytest.approx(problem_cost(prob), rel=1e-12)

    def test_behind_camera_dropped_and_counted(self, scene):
        prob = build_from_scene(scene)
        # move one landmark far behind every camera
        prob.landmarks = np.vstack([[0.0, 0.0, -50.0], prob.landmarks[1:]])
        ev = evaluate_residuals(prob)
        n_obs0 = int(np.sum(prob.camera_factors["lm"] == 0))
        assert n_obs0 > 0
        assert ev.dropped == n_obs0
        rows = np.flatnonzero(prob.camera_factors["lm"] == 0)
        for i in rows:
            assert np.all(ev.residual[2 * i : 2 * i + 2] == 0.0)

    def test_jacobian_matches_finite_differences(self):
        sc = support.make_scene(seed=3, n_keyframes=3, n_landmarks=6)
        prob = build_from_scene(sc)
        rng = np.random.default_rng(4)
        # move off the optimum so second-order terms are exercised
        prob.keyframes = prob.keyframes.retract(rng.normal(scale=2e-3, size=(len(prob.keyframes), KF_DIM)))
        prob.landmarks = prob.landmarks + rng.normal(scale=2e-3, size=(len(prob.landmarks), 3))
        base_kf = prob.keyframes
        base_lm = prob.landmarks
        base_cal = prob.calibration
        J = evaluate_residuals(prob).jacobian.toarray()

        K, L = len(base_kf), len(base_lm)
        n_cols = K * KF_DIM + L * 3 + CALIB_DIM
        h = 1e-6

        def residual_at(delta):
            prob.keyframes = base_kf.retract(delta[: K * KF_DIM])
            lm0 = K * KF_DIM
            prob.landmarks = base_lm + delta[lm0 : lm0 + 3 * L].reshape(L, 3)
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
        x, i = prob.keyframes, np.arange(len(prob.keyframes))[:, None]
        prob.keyframes = replace(x, b_a=x.b_a + 1e-3 * i, b_g=x.b_g + 1e-4 * i)
        pre = refresh_preintegrations(prob)
        # all factors in one pass against each factor through the batch-of-one adapters
        k0, k1, rw, J0w, J1w, Jthw = inertial_blocks(prob)
        assert k0.tolist() == [f.k0 for f in prob.inertial_factors]
        assert k1.tolist() == [f.k1 for f in prob.inertial_factors]
        for i, f in enumerate(prob.inertial_factors):
            x0, x1 = prob.keyframes.take(f.k0), prob.keyframes.take(f.k1)
            r, W = inertial_error(x0, x1, pre[i])
            assert np.all(r[9:15] != 0.0)
            assert 0.5 * rw[i] @ rw[i] == pytest.approx(0.5 * r @ W @ r, rel=1e-12)
            J = np.hstack(inertial_error_jacobians(x0, x1, pre[i]))
            Jw = np.hstack([J0w[i], J1w[i], Jthw[i]])
            H = J.T @ W @ J
            assert np.linalg.norm(Jw.T @ Jw - H) <= 1e-12 * np.linalg.norm(H)


class TestGaugeInvariance:
    def test_cost_invariant_under_gauge_transform(self, scene):
        prob = build_from_scene(scene)
        rng = np.random.default_rng(5)
        prob.keyframes = prob.keyframes.retract(rng.normal(scale=1e-3, size=(len(prob.keyframes), KF_DIM)))
        c0 = problem_cost(prob)
        assert c0 > 1e-4

        yaw = 0.83
        t = np.array([0.4, -1.2, 2.0])
        R_y = so3_exp(np.array([0.0, 0.0, yaw]))
        q_y = UnitQuaternion.from_matrix(R_y)
        x = prob.keyframes
        prob.keyframes = replace(x, q_GI=quat_mul(q_y.wxyz, x.q_GI), p_GI=x.p_GI @ R_y.T + t, v_GI=x.v_GI @ R_y.T)
        prob.landmarks = prob.landmarks @ R_y.T + t
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
        prob.keyframes = prob.keyframes.retract(rng.normal(scale=3e-3, size=(len(prob.keyframes), KF_DIM)))
        prob.landmarks = prob.landmarks + rng.normal(scale=5e-3, size=(len(prob.landmarks), 3))
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
        prob.keyframes = prob.keyframes.retract(rng.normal(scale=2e-3, size=(len(prob.keyframes), KF_DIM)))
        p_anchor = prob.keyframes.p_GI[0].copy()
        prob, report = solve(prob, SolveOptions())
        assert report.final_cost < report.initial_cost
        assert prob.keyframes.p_GI[0].tobytes() == p_anchor.tobytes()

    @pytest.mark.parametrize("seed", [7, 8, 9])
    def test_anchor_rotation_step_has_no_yaw(self, scene, seed):
        # the anchor's rotation update lies perpendicular to the gravity
        # axis expressed in the anchor body frame
        prob = build_from_scene(scene)
        rng = np.random.default_rng(seed)
        prob.keyframes = prob.keyframes.retract(rng.normal(scale=2e-3, size=(len(prob.keyframes), KF_DIM)))
        q0 = prob.keyframes.q_GI[0]
        u = quat_to_matrix(q0).T @ np.array([0.0, 0.0, 1.0])
        prob, report = solve(prob, SolveOptions(max_iters=1))
        assert len(report.cost_history) == 2
        d = quat_local(q0, prob.keyframes.q_GI[0])
        assert np.linalg.norm(d) > 0.0
        assert abs(u @ d) < 1e-6 * np.linalg.norm(d)

    def test_solve_works_on_arrays_only(self, scene, monkeypatch):
        # a solve builds no state records and restacks no states; it
        # retracts into new arrays, leaving those it started from as they were
        prob = build_from_scene(scene)
        rng = np.random.default_rng(6)
        prob.keyframes = prob.keyframes.retract(rng.normal(scale=3e-3, size=(len(prob.keyframes), KF_DIM)))
        prob.landmarks = prob.landmarks + rng.normal(scale=5e-3, size=prob.landmarks.shape)
        start = [*prob.keyframes.arrays(), prob.landmarks]
        saved = [a.copy() for a in start]
        calls = []
        for cls in (KeyframeState, Landmark):
            monkeypatch.setattr(cls, "__post_init__", lambda self, f=cls.__post_init__: calls.append(type(self)) or f(self))
        of = imu.StateStack.of
        monkeypatch.setattr(imu.StateStack, "of", classmethod(lambda cls, states: calls.append(cls) or of(states)))
        prob, report = solve(prob, SolveOptions(max_iters=5))
        assert len(report.cost_history) >= 2
        assert calls == []
        for a, b in zip(start, saved):
            assert a.tobytes() == b.tobytes()
        # the counters count: a record's retraction restacks and rebuilds it
        scene.keyframes[0].retract(np.zeros(KF_DIM))
        assert calls == [imu.StateStack, KeyframeState]

    def test_report_names_the_elimination(self, scene):
        # the band's half-bandwidth, its landmarks and its chains: the batch
        # scene at the pair span, its 20 landmarks all dense, in one chain;
        # the split scene with its 58 landmarks in the band, in four
        for prob, layout in ((build_from_scene(scene), (1, 0, 1)), (support.split_sessions(), (2, 58, 4))):
            _, report = solve(_perturbed(prob), SolveOptions(max_iters=1))
            assert report.iterations == 1
            assert (report.band_span, report.band_landmarks, report.chains) == layout

    @pytest.mark.parametrize(
        "field, value", [("max_iters", 2.5), ("max_iters", -1), ("tol", math.nan), ("tol", math.inf), ("tol", -1e-9)]
    )
    def test_options_fail_at_the_boundary(self, field, value):
        with pytest.raises(ValueError, match=field):
            SolveOptions(**{field: value})

    def test_non_finite_trial_rejected(self, scene):
        prob = build_from_scene(scene)
        zero = (np.zeros((len(prob.keyframes), KF_DIM)), np.zeros((len(prob.landmarks), 3)), np.zeros(CALIB_DIM))
        assert _retract_problem(prob, zero) is not None
        # a rotation, a position and a landmark delta that leave the reals
        for part, index, value in ((0, (2, 0), np.nan), (0, (3, 4), np.inf), (1, (1, 2), np.nan)):
            delta = [d.copy() for d in zero]
            delta[part][index] = value
            assert _retract_problem(prob, tuple(delta)) is None

    def test_each_state_is_linearised_once(self, scene, monkeypatch):
        # one refresh, one set of blocks and one gauge per evaluated state
        # (the start and each trial): an accepted trial's blocks are the
        # next iteration's linearisation
        segs = support.scene_segments(scene, kf_per_segment=2, keep=[0, 2])
        prob = build_segment_problem(segs, scene.calibration, scene.noise)
        assert len(prob.bridge_factors) == 1
        rng = np.random.default_rng(11)
        prob.keyframes = prob.keyframes.retract(rng.normal(scale=1e-3, size=(len(prob.keyframes), KF_DIM)))
        calls = Counter()
        for name in ("refresh_preintegrations", "camera_blocks", "anchor_projectors"):
            f = getattr(infocal.problem, name)
            monkeypatch.setattr(infocal.problem, name, lambda problem, f=f, name=name: calls.update([name]) or f(problem))
        prob, report = solve(prob, SolveOptions(max_iters=5))
        assert report.iterations == 5 and len(report.cost_history) == 6
        assert calls["camera_blocks"] == calls["refresh_preintegrations"] >= 6
        assert calls["anchor_projectors"] == calls["refresh_preintegrations"]

    def test_landmark_pairs_built_once_per_solve(self, scene, monkeypatch):
        # the landmark Schur layout depends only on the camera factors, so a
        # solve whose band holds every landmark builds it once, not once per
        # trial
        segs = support.scene_segments(scene, kf_per_segment=2, keep=[0, 2])
        prob = build_segment_problem(segs, scene.calibration, scene.noise)
        assert _band_span(prob) == _keyframe_band(prob)
        rng = np.random.default_rng(11)
        prob.keyframes = prob.keyframes.retract(rng.normal(scale=1e-3, size=(len(prob.keyframes), KF_DIM)))
        calls = []
        monkeypatch.setattr(infocal.problem, "_landmark_pairs", lambda kf, lm: calls.append(kf.size) or _landmark_pairs(kf, lm))
        prob, report = solve(prob, SolveOptions(max_iters=5))
        assert report.iterations == 5 and len(report.cost_history) == 6
        assert calls == [len(prob.camera_factors)]

    @pytest.mark.parametrize(
        "rejected, huber", [(False, False), (True, False), (False, True)], ids=["accepted", "rejected", "huber"]
    )
    def test_solve_keeps_one_iteration_alive(self, scene, monkeypatch, rejected, huber):
        # each iteration's normal equations are gone before the next are
        # built, and no camera or pair array of an earlier linearisation (or
        # of its Huber copy) is alive when a trial is linearised; only the
        # anchors, which the trials use, outlive their normal equations
        prob = _perturbed(build_from_scene(scene))
        normal, linear = [], []

        def watch(refs, arrays):
            refs.extend(weakref.ref(a) for a in arrays)

        def normal_equations(problem, cam, pairs):
            assert all(r() is None for r in normal)
            ne = _normal_equations(problem, cam, pairs)
            normal.append(weakref.ref(ne))
            return ne

        def blocks(problem):
            assert all(r() is None for r in linear)
            cam, pairs, anchors = gauged_blocks(problem)
            watch(linear, (*cam, *pairs))
            return cam, pairs, anchors

        def huberized(cam, huberize=infocal.problem._huberize):
            cam = huberize(cam)
            watch(linear, cam)
            return cam

        monkeypatch.setattr(infocal.problem, "_normal_equations", normal_equations)
        monkeypatch.setattr(infocal.problem, "gauged_blocks", blocks)
        monkeypatch.setattr(infocal.problem, "_huberize", huberized)
        if rejected:
            support.spy_damped_steps(monkeypatch, lambda call, ne, step: support.uphill(step) if call == 0 else step)
        prob, report = solve(prob, SolveOptions(max_iters=3, huber=huber))
        assert report.iterations == 3 and len(report.cost_history) == 4
        assert len(normal) == 3 and len(linear) == 11 * (4 + rejected) + 5 * 3 * huber

    @pytest.mark.parametrize("uphill", [False, True], ids=["max_iters", "no_step"])
    def test_dropped_observations_at_the_returned_estimate(self, scene, monkeypatch, uphill):
        # one landmark far behind every camera: its observations stay
        # dropped, on either exit of the solve
        prob = _perturbed(build_from_scene(scene))
        prob.landmarks = np.vstack([[0.0, 0.0, -50.0], prob.landmarks[1:]])
        behind = int(np.sum(prob.camera_factors["lm"] == 0))
        assert behind > 0
        if uphill:
            support.spy_damped_steps(monkeypatch, lambda call, ne, step: support.uphill(step))
        prob, report = solve(prob, SolveOptions(max_iters=2))
        if uphill:
            assert report.reason == "no cost-decreasing step within the damping limit"
            assert len(report.cost_history) == 1
        else:
            assert report.reason == "max_iters" and len(report.cost_history) == 3
        assert report.dropped_observations == evaluate_residuals(prob).dropped == behind

    def test_steps_without_camera_information(self, scene):
        # no observation: the camera calibration has no information, and its
        # damped diagonal is zero until floored; the keyframes and the IMU
        # intrinsics still step, and the camera calibration stays as it was
        prob = build_batch_problem(scene.keyframes, [], [], scene.imu_stream, scene.calibration, scene.noise)
        rng = np.random.default_rng(6)
        prob.keyframes = prob.keyframes.retract(rng.normal(scale=3e-3, size=(len(prob.keyframes), KF_DIM)))
        start = prob.calibration
        prob, report = solve(prob, SolveOptions(max_iters=5))
        assert len(report.cost_history) >= 2
        assert report.final_cost < 1e-3 * report.initial_cost

        def camera(c):
            T = c.extrinsics.T_CI
            return np.concatenate([c.camera.f, c.camera.c, [c.camera.w], T.rotation.wxyz, T.translation])

        assert camera(prob.calibration).tobytes() == camera(start).tobytes()
        assert np.abs(prob.calibration.imu.s_g - start.imu.s_g).max() > 0.0


def _perturbed(prob):
    prob.keyframes = prob.keyframes.retract(np.random.default_rng(6).normal(scale=3e-3, size=(len(prob.keyframes), KF_DIM)))
    return prob


class TestFailedTrials:
    # each failed trial multiplies the damping by nu and doubles nu, from
    # nu = 2, and leaves the problem as it was

    def test_uphill_steps_end_the_solve_untouched(self, scene, monkeypatch):
        prob = _perturbed(build_from_scene(scene))
        start = (*prob.keyframes.arrays(), prob.landmarks)
        saved = [a.copy() for a in start]
        calibration = prob.calibration
        lams = support.spy_damped_steps(monkeypatch, lambda call, ne, step: support.uphill(step))
        prob, report = solve(prob, SolveOptions(max_iters=5))
        assert report.iterations == 1 and report.converged
        assert report.reason == "no cost-decreasing step within the damping limit"
        assert report.cost_history == [report.initial_cost] and report.final_cost == report.initial_cost
        for a, b in zip((*prob.keyframes.arrays(), prob.landmarks), saved):
            assert a.tobytes() == b.tobytes()
        assert prob.calibration is calibration
        # lam_k = lam_0 2^(1 + 2 + ... + k): 1, 2, 8, 64, ... times lam_0
        expected = [_LAMBDA_INIT * 2.0 ** (k * (k + 1) // 2) for k in range(12)]
        assert lams == [lam for lam in expected if lam <= _MAX_LAMBDA]
        assert len(lams) == 10

    def _fail_first(self, scene, monkeypatch, fail):
        # the first trial fails by fail(step); the second, at twice the
        # damping, sees the problem as it was and is accepted
        prob = _perturbed(build_from_scene(scene))
        seen = []

        def alter(call, ne, step):
            seen.append((prob.keyframes, prob.landmarks, prob.calibration))
            return fail(step) if call == 0 else step

        lams = support.spy_damped_steps(monkeypatch, alter)
        prob, report = solve(prob, SolveOptions(max_iters=1))
        assert lams == [_LAMBDA_INIT, 2.0 * _LAMBDA_INIT]
        assert all(a is b for a, b in zip(*seen))
        assert len(report.cost_history) == 2 and report.final_cost < report.initial_cost

    def test_singular_damped_system_doubles_the_damping(self, scene, monkeypatch):
        def singular(step):
            raise np.linalg.LinAlgError("not positive definite")

        self._fail_first(scene, monkeypatch, singular)

    def test_step_out_of_the_calibration_domain_doubles_the_damping(self, scene, monkeypatch):
        def negative_focal(step):
            d_th = step[2].copy()
            d_th[0:2] = -2.0 * scene.calibration.camera.f
            return step[0], step[1], d_th

        self._fail_first(scene, monkeypatch, negative_focal)


def _weighted_cost(ev, step):
    """0.5 (r + J step)^T W (r + J step) from an unweighted evaluation."""
    v = ev.residual + ev.jacobian @ step
    return sum(0.5 * v[o : o + W.shape[0]] @ W @ v[o : o + W.shape[0]] for o, W in ev.weights)


class TestLevenbergMarquardtModel:
    def test_model_decrease_matches_weighted_linearization(self, scene):
        # the predicted decrease of the solved damped step, from the normal
        # equations, against the weighted linear model built by hand, at both
        # ends of the band's half-bandwidth and between them; the gap between
        # the two segments becomes a bias bridge
        segs = support.scene_segments(scene, kf_per_segment=2, keep=[0, 2])
        prob = build_segment_problem(segs, scene.calibration, scene.noise)
        assert len(prob.bridge_factors) == 1
        rng = np.random.default_rng(14)
        prob.keyframes = prob.keyframes.retract(rng.normal(scale=1e-3, size=(len(prob.keyframes), KF_DIM)))
        ev = evaluate_residuals(prob)
        cam, pairs, anchors = gauged_blocks(prob)
        ne = _normal_equations(prob, cam, pairs)
        for lam in (1e-4, 0.1, 10.0):
            for end in BAND_ENDS.values():
                delta = _damped_step(ne, lam, anchors, _workspace(prob, end(prob)))
                flat = np.concatenate([d.ravel() for d in delta])
                expected = _weighted_cost(ev, np.zeros_like(flat)) - _weighted_cost(ev, flat)
                assert abs(expected) > 1.0
                assert _predicted_decrease(ne, lam, delta) == pytest.approx(expected, rel=1e-9)


def dense_damped_step(prob, lam):
    """The update triple of the damped, gauged normal equations, solved
    densely: whitened Jacobian from the unweighted evaluation, each
    anchor's rotation columns projected and position columns cleared,
    H + lam diag(H) (and the landmark floor), the anchor's rotation block B
    replaced by P B P + u u^T and unit information on its position."""
    ev = evaluate_residuals(prob)
    J = ev.jacobian.toarray()
    A, r = np.zeros_like(J), np.zeros_like(ev.residual)
    for off, W in ev.weights:
        C = np.linalg.cholesky(W).T
        A[off : off + W.shape[0]] = C @ J[off : off + W.shape[0]]
        r[off : off + W.shape[0]] = C @ ev.residual[off : off + W.shape[0]]
    anchors = anchor_projectors(prob)
    for a, P, _ in anchors:
        A[:, a * KF_DIM : a * KF_DIM + 3] = A[:, a * KF_DIM : a * KF_DIM + 3] @ P
        A[:, a * KF_DIM + 3 : a * KF_DIM + 6] = 0.0
    H = A.T @ A
    H[np.diag_indices_from(H)] *= 1.0 + lam
    K, L = len(prob.keyframes), len(prob.landmarks)
    lm = np.arange(K * KF_DIM, K * KF_DIM + 3 * L)
    H[lm, lm] += _LM_DIAG_FLOOR
    for a, P, u in anchors:
        rot, pos = slice(a * KF_DIM, a * KF_DIM + 3), slice(a * KF_DIM + 3, a * KF_DIM + 6)
        H[rot, rot] = P @ H[rot, rot] @ P + np.outer(u, u)
        H[pos, pos] += np.eye(3)
    x = np.linalg.solve(H, -A.T @ r)
    return x[: K * KF_DIM].reshape(K, KF_DIM), x[lm].reshape(L, 3), x[-CALIB_DIM:]


def bridged_partitions():
    """Segments 0, 2 and 4 of a 10-keyframe scene: 0 and 4 keep the 16
    landmarks both see, 2 sees only others.  Two partitions, the first's
    band spans the second, and both bias bridges cross between them."""
    sc = support.make_scene(seed=3, n_keyframes=10, n_landmarks=60)
    segs = support.scene_segments(sc, kf_per_segment=2, keep=[0, 2, 4])
    shared = segs[0].landmarks.keys() & segs[2].landmarks.keys()
    for seg, keep_ids in zip(segs, (shared, segs[1].landmarks.keys() - shared, shared)):
        support.keep_landmarks(seg, keep_ids)
    prob = build_segment_problem(segs, sc.calibration, sc.noise)
    assert [p.segment_ids for p in prob.partitions] == [(0, 4), (2,)]
    assert prob.bridge_factors[["k0", "k1"]].tolist() == [(1, 2), (3, 4)]
    return prob


def corridor_batch():
    """A 50-keyframe batch problem on the bench's corridor: no landmark is
    seen across more than 25 consecutive keyframes, so the landmark band is
    narrower than the session."""
    s = sim.make_session(0, n_keyframes=50, steps=10, corridor=True)
    return build_batch_problem(s.keyframes, sim.landmark_list(s.landmarks), s.observations, s.imu, s.calibration, s.noise)


def repeated_observations(sc):
    """The batch problem with two observations each made twice from the
    same keyframe, with other pixels: repeated (kf, lm) camera factors."""
    extra = [replace(o, uv=o.uv + np.array([0.7, -0.4])) for o in sc.observations[3:5]]
    prob = build_batch_problem(sc.keyframes, sc.landmarks, sc.observations + extra, sc.imu_stream, sc.calibration, sc.noise)
    keys = prob.camera_factors[["kf", "lm"]].tolist()
    assert len(keys) - len(set(keys)) == 2
    return prob


# The band's half-bandwidth s: its two ends are named by the elimination
# orders they make.  At the pair span the band holds the pair factors and
# the landmarks that fit it, and the keyframes are eliminated from the
# others; at _keyframe_band every landmark is eliminated into the band.
# One below that, the landmarks of the widest span alone join the dense
# block.
BAND_ENDS = {
    "landmarks_first": _keyframe_band,
    "interior": lambda prob: _keyframe_band(prob) - 1,
    "keyframes_first": _pair_span,
}


# The keyframe bounds of the band's chains at half-bandwidth s.  The
# bridged scene's shared landmarks cross its gaps once they are in the band
# (s = 4), and below that only bias bridges do; the split scene's landmarks
# never cross between its segments, so it is cut at every gap.
CHAINS = {
    "batch": lambda s: [0, 6],
    "bridged": lambda s: [0, 6] if s == 4 else [0, 2, 4, 6],
    "corridor": lambda s: [0, 50],
    "repeated": lambda s: [0, 6],
    "split": lambda s: [0, 3, 6, 9, 12],
}


class TestDampedElimination:
    # every s from the pair span to band, the widest landmark or pair-factor
    # span, on the same state, in two halves: from the pair span
    # (keyframes_first), and up to band (landmarks_first); the split scene's
    # chains take the block sweep at the pair span and dtbtrs at band
    @pytest.mark.parametrize("half", ["landmarks_first", "keyframes_first"])
    @pytest.mark.parametrize(
        "case, band",
        [("batch", 5), ("bridged", 4), ("corridor", 24), ("repeated", 5), ("split", 2)],
        ids=["batch", "bridged", "corridor", "repeated", "split"],
    )
    def test_step_matches_dense_solution(self, scene, case, band, half):
        build = {
            "batch": lambda: build_from_scene(scene),
            "bridged": bridged_partitions,
            "corridor": corridor_batch,
            "repeated": lambda: repeated_observations(scene),
            "split": support.split_sessions,
        }
        prob = build[case]()
        rng = np.random.default_rng(18)
        prob.keyframes = prob.keyframes.retract(rng.normal(scale=1e-3, size=(len(prob.keyframes), KF_DIM)))
        prob.landmarks = prob.landmarks + rng.normal(scale=1e-3, size=prob.landmarks.shape)
        prob.calibration = prob.calibration.retract(rng.normal(scale=1e-3, size=CALIB_DIM))
        assert _keyframe_band(prob) == band
        spans = range(_pair_span(prob), band + 1)
        half_spans = {"keyframes_first": spans[: len(spans) // 2], "landmarks_first": spans[len(spans) // 2 :]}[half]
        assert half_spans
        lam = 1e-3
        cam, pairs, anchors = gauged_blocks(prob)
        ne = _normal_equations(prob, cam, pairs)
        ref = dense_damped_step(prob, lam)
        for s in half_spans:
            work = _workspace(prob, s)
            assert work.chains.tolist() == CHAINS[case](s)
            # no two keyframe pairs share a band position, so the step writes
            # the band landmarks' Schur blocks by one indexed subtraction per
            # block of runs
            at = np.concatenate([np.zeros((0, 2), int)] + [np.stack(block[3], axis=1) for block in work.pairs])
            assert len(np.unique(at, axis=0)) == len(at)
            got = _damped_step(ne, lam, anchors, work)
            for a, P, u in anchors:
                # an anchor's yaw step is zero up to rounding (about 1e-11
                # here, in both), so the comparison projects it out
                for d in (got[0], ref[0]):
                    assert abs(u @ d[a, :3]) < 1e-6 * np.linalg.norm(d[a, :3])
                    d[a, :3] = P @ d[a, :3]
            for g, e in zip(got, ref):
                assert np.linalg.norm(g - e) <= 1e-9 * np.linalg.norm(e)

    @pytest.mark.parametrize("end", ["landmarks_first", "keyframes_first"])
    def test_step_without_camera_factors(self, scene, end):
        # no observation and no landmark: the camera calibration then has no
        # information, so it gets unit information, as from a prior
        prob = build_batch_problem(scene.keyframes, [], [], scene.imu_stream, scene.calibration, scene.noise)
        assert not len(prob.camera_factors)
        cam, pairs, anchors = gauged_blocks(prob)
        ne = _normal_equations(prob, cam, pairs)
        ne.Htt[:11, :11] += np.eye(11)
        got = _damped_step(ne, 1e-3, anchors, _workspace(prob, BAND_ENDS[end](prob)))
        assert [d.shape for d in got] == [(len(prob.keyframes), KF_DIM), (0, 3), (CALIB_DIM,)]
        assert all(np.isfinite(d).all() for d in got)
        assert np.linalg.norm(got[0]) > 0.0

    def test_band_one_keyframe_high(self, scene):
        # one-keyframe segments of two sessions, each with its own landmarks:
        # no pair factor and no landmark span, so s = 0 and the band is one
        # keyframe high, cut between them with no coupling to carry; the
        # step is the step of the band factored as one chain
        segs = support.scene_segments(scene, 1, keep=[0]) + support.scene_segments(scene, 1, keep=[3], session_id="s1")
        for seg, ids in zip(segs, (range(10), range(10, 20))):
            support.keep_landmarks(seg, ids)
        prob = _perturbed(build_segment_problem(segs, scene.calibration, scene.noise))
        assert _band_span(prob) == 0
        cam, pairs, anchors = gauged_blocks(prob)
        ne = _normal_equations(prob, cam, pairs)
        work = _workspace(prob, 0)
        assert work.band.shape[0] == KF_DIM and work.chains.tolist() == [0, 1, 2]
        got = _damped_step(ne, 1e-3, anchors, work)
        ref = _damped_step(ne, 1e-3, anchors, _workspace(prob, 0)._replace(chains=np.array([0, 2])))
        for g, r in zip(got, ref):
            assert np.isfinite(g).all() and np.linalg.norm(g - r) <= 1e-12 * np.linalg.norm(r)

    @pytest.mark.parametrize("end", list(BAND_ENDS))
    def test_reused_workspace_leaves_nothing_stale(self, end):
        # one workspace, poisoned with NaN, through steps at two dampings,
        # two failed factorisations (the band's last chain, then the dense
        # Schur block) and a second linearisation: each step is bitwise the
        # step of a fresh workspace.  Two scenes: seven keyframes in one
        # chain, so that the band's order is no multiple of its height, with
        # landmarks of two spans, so that the interior s splits them between
        # the band and the dense block; and the split scene's four chains,
        # whose last fails after the others are factored
        sc = support.make_scene(seed=1, n_keyframes=7, n_landmarks=20)
        for build, chains in ((lambda: build_from_scene(sc), 1), (support.split_sessions, 4)):
            prob = _perturbed(build())
            cam, pairs, anchors = gauged_blocks(prob)
            ne = _normal_equations(prob, cam, pairs)
            moved = _perturbed(build())
            moved.landmarks = moved.landmarks + 1e-3
            cam, pairs, anchors2 = gauged_blocks(moved)
            ne2 = _normal_equations(moved, cam, pairs)
            s = BAND_ENDS[end](prob)
            work = _workspace(prob, s)
            assert len(work.chains) - 1 == chains
            if chains == 1:
                assert (0 < work.dense.size < len(prob.landmarks)) == (end == "interior")
            # the last chain's columns negated
            bad = ne.band.copy()
            bad[:, KF_DIM * work.chains[-2] :] *= -1.0
            steps = [
                (ne, 1e-3, anchors),
                (replace(ne, band=bad), 1e-3, anchors),
                (replace(ne, Htt=-ne.Htt), 1e-3, anchors),
                (ne, 1e-2, anchors),
                (ne2, 1e-3, anchors2),
            ]
            for a in (work.band, work.C, work.S):
                a.fill(np.nan)
            for k, step in enumerate(steps):
                if k in (1, 2):
                    with pytest.raises(np.linalg.LinAlgError, match="dpbtrf" if k == 1 else None):
                        _damped_step(*step, work)
                    continue
                got = _damped_step(*step, work)
                ref = _damped_step(*step, _workspace(prob, s))
                assert all(np.isfinite(g).all() and g.tobytes() == r.tobytes() for g, r in zip(got, ref))


def random_band(rng, n, m):
    """A random SPD matrix of order n and half-bandwidth m - 1 as a LAPACK
    lower band (m, n), entries past the matrix zero; diagonally dominant."""
    band = rng.uniform(-1.0, 1.0, size=(m, n))
    band[0] = 2.0 * m + rng.uniform(0.0, 1.0, size=n)
    band[np.arange(m)[:, None] + np.arange(n) >= n] = 0.0
    return band


def band_solve(cb, C):
    Y, info = scipy.linalg.lapack.dtbtrs(cb, C, uplo="L")
    assert info == 0
    return Y


class TestForwardSolve:
    # the block sweep against dtbtrs, column by column; m = 30 is the
    # height of a band whose pair factors span one keyframe
    @pytest.mark.parametrize("n, m", [(15, 30), (30, 30), (105, 30), (120, 30), (150, 45)])
    @pytest.mark.parametrize("width", [3, 31, 97])
    def test_block_sweep_matches_band_solve(self, n, m, width, monkeypatch):
        # each solve writes over the C it is given, so each gets a copy
        rng = np.random.default_rng(n + width)
        cb = scipy.linalg.cholesky_banded(random_band(rng, n, m), lower=True)
        C = rng.normal(size=(n, width))
        ref = band_solve(cb, C.copy())
        Y = C.copy()
        got = _block_forward_solve(cb, Y)
        assert np.shares_memory(got, Y) and np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)
        # _forward_solve sweeps exactly when C is wider than the band, and
        # else solves with dtbtrs a Fortran-ordered C, as _workspace
        # allocates it; also one chain's rows of such a C, which dtbtrs
        # solves as a copy, written back over those rows alone
        swept = []
        monkeypatch.setattr(infocal.problem, "_block_forward_solve", lambda cb, C: swept.append(C) or _block_forward_solve(cb, C))
        Y = np.array(C, order="F" if width <= m else "C")
        got = _forward_solve(cb, Y)
        assert np.shares_memory(got, Y) and np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)
        assert len(swept) == (width > m)
        whole = np.array(np.vstack([C, C, C]), order="F" if width <= m else "C")
        got = _forward_solve(cb, whole[n : 2 * n])
        assert np.shares_memory(got, whole) and np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)
        assert whole[:n].tobytes() == whole[2 * n :].tobytes() == C.tobytes()

    def test_batch_session_band(self, monkeypatch):
        # the band and right-hand side of a step of the benchmark's batch
        # session, at the pair span, which takes the block sweep, copied
        # before the step solves over them; and their leading n - 7 rows, n
        # then no multiple of m, with entries of L below the leading block
        # left in the band
        prob = workloads.WORKLOADS["batch_session"]().inputs(0)["build"]()
        cam, pairs, anchors = gauged_blocks(prob)
        seen = []
        monkeypatch.setattr(infocal.problem, "_forward_solve", lambda cb, C: seen.append((cb.copy(), C.copy())) or _forward_solve(cb, C))
        _damped_step(_normal_equations(prob, cam, pairs), 1e-4, anchors, _workspace(prob, _band_span(prob)))
        ((cb, C),) = seen
        assert C.shape[1] > cb.shape[0] and cb.shape[1] % cb.shape[0] == 0
        ref = band_solve(cb, C.copy())
        for Y in (C.copy(), C[:-7].copy()):
            got = _block_forward_solve(cb[:, : len(Y)], Y)
            assert np.shares_memory(got, Y)
            assert np.linalg.norm(got - ref[: len(got)]) <= 1e-12 * np.linalg.norm(ref[: len(got)])

    def test_batch_session_workspace_is_held_once(self):
        # the benchmark's batch session at the pair span: besides the band
        # the workspace is one n x (3 L_dense + 27) right-hand side and one
        # (3 L_dense + 26)^2 Schur complement, L_dense the landmarks that do
        # not fit the band, and a step allocates little beyond them (with a
        # separate forward solve and dense block, it peaked at 2.2 times
        # their bytes)
        prob = workloads.WORKLOADS["batch_session"]().inputs(0)["build"]()
        work, peak = workspace_and_step(prob)
        assert peak < 1.5 * sum(a.nbytes for a in (work.band, work.C, work.S))
        n, m = KF_DIM * len(prob.keyframes), 3 * work.dense.size + CALIB_DIM
        assert 0 < work.dense.size < len(prob.landmarks)
        assert [a.shape for a in (work.band, work.C, work.S)] == [(work.band.shape[0], n), (n, m + 1), (m, m)]
        # its few band landmarks' Schur terms fit one block
        assert len(work.pairs) == len(work.poses) == 1

    def test_segment_calib_step_is_held_to_its_workspace(self, segment_calib):
        # the benchmark's segment calibration, every landmark in the band:
        # the band landmarks' Schur terms, taken in blocks of whole runs
        # whose products are no larger than C, add little to the workspace
        # (taken whole, their temporaries peaked at 3.0 times its bytes)
        prob = segment_calib()
        assert _band_span(prob) == _keyframe_band(prob)
        work, peak = workspace_and_step(prob)
        assert peak < 2.0 * sum(a.nbytes for a in (work.band, work.C, work.S))
        assert work.dense.size == 0 and len(work.pairs) > 1 and len(work.poses) > 1

    def test_blocks_add_what_one_block_adds(self, segment_calib, monkeypatch):
        # no run is split between blocks, so the segment calibration's step
        # is bitwise the step of one block of every run
        prob = segment_calib()
        cam, pairs, anchors = gauged_blocks(prob)
        ne = _normal_equations(prob, cam, pairs)
        s = _band_span(prob)
        work = _workspace(prob, s)
        assert len(work.pairs) > 1 and len(work.poses) > 1
        got = _damped_step(ne, 1e-4, anchors, work)
        monkeypatch.setattr(infocal.problem, "_run_blocks", lambda first, n, size: _run_blocks(first, n, n))
        one = _workspace(prob, s)
        assert len(one.pairs) == len(one.poses) == 1
        ref = _damped_step(ne, 1e-4, anchors, one)
        assert all(g.tobytes() == r.tobytes() for g, r in zip(got, ref))


@pytest.fixture(scope="module")
def segment_calib():
    """The builder of the benchmark's segment calibration at seed 0."""
    return workloads.WORKLOADS["segment_calib"]().inputs(0)["build"]


def workspace_and_step(prob):
    """The workspace of prob's band span, after one damped step, and the
    tracemalloc peak of building it and taking the step."""
    cam, pairs, anchors = gauged_blocks(prob)
    ne = _normal_equations(prob, cam, pairs)
    del cam, pairs

    def step():
        work = _workspace(prob, _band_span(prob))
        _damped_step(ne, 1e-4, anchors, work)
        return work

    return support.traced_peak(step)


class TestRunBlocks:
    # runs of 3, 1, 4, 1 and 5 items
    FIRST = np.array([0, 3, 4, 8, 9])

    def test_blocks_hold_whole_runs(self):
        # at most 4 items a block, the run of 5 alone in its own
        blocks = [(p, start.tolist(), r) for p, start, r in _run_blocks(self.FIRST, 14, 4)]
        assert blocks == [
            (slice(0, 4), [0, 3], slice(0, 2)),
            (slice(4, 8), [0], slice(2, 3)),
            (slice(8, 9), [0], slice(3, 4)),
            (slice(9, 14), [0], slice(4, 5)),
        ]

    @pytest.mark.parametrize("size, runs", [(0, [1, 1, 1, 1, 1]), (5, [2, 2, 1]), (14, [5])])
    def test_blocks_cover_every_run_in_order(self, size, runs):
        blocks = _run_blocks(self.FIRST, 14, size)
        assert [r.stop - r.start for _, _, r in blocks] == runs
        assert np.concatenate([p.start + start for p, start, _ in blocks]).tolist() == self.FIRST.tolist()
        assert [p.stop for p, _, _ in blocks][-1] == 14

    def test_no_runs(self):
        assert _run_blocks(np.zeros(0, dtype=int), 0, 4) == []


class TestLandmarkPairs:
    @staticmethod
    def brute_force(kf, lm):
        return sorted((a, b) for a in range(len(lm)) for b in range(len(lm)) if lm[a] == lm[b] and kf[a] >= kf[b])

    def test_pairs_match_double_loop(self):
        # sorted by (kf, lm): landmark 1 and 2 are seen once, landmark 0 from
        # keyframes 0, 1, 3 and twice from 5, landmark 3 from 0 and 2
        kf = np.array([0, 0, 1, 2, 2, 3, 5, 5, 5])
        lm = np.array([0, 3, 0, 1, 3, 0, 0, 0, 2])
        a, b = _landmark_pairs(kf, lm)
        assert sorted(zip(a.tolist(), b.tolist())) == self.brute_force(kf, lm)
        by_pair = list(zip(kf[a].tolist(), kf[b].tolist()))
        assert by_pair == sorted(by_pair)

    def test_problem_pairs_match_double_loop(self):
        cf = bridged_partitions().camera_factors
        a, b = _landmark_pairs(cf["kf"], cf["lm"])
        assert sorted(zip(a.tolist(), b.tolist())) == self.brute_force(cf["kf"], cf["lm"])

    def test_no_camera_factors(self):
        a, b = _landmark_pairs(np.zeros(0, dtype=int), np.zeros(0, dtype=int))
        assert a.size == 0 and b.size == 0


class TestHuber:
    def test_solve_with_one_outlier(self, scene):
        obs = list(scene.observations)
        obs[7] = replace(obs[7], uv=obs[7].uv + np.array([40.0, 0.0]))
        prob = build_batch_problem(scene.keyframes, scene.landmarks, obs, scene.imu_stream, scene.calibration, scene.noise)
        rng = np.random.default_rng(15)
        prob.keyframes = prob.keyframes.retract(rng.normal(scale=1e-3, size=(len(prob.keyframes), KF_DIM)))
        k = HUBER_THRESHOLD
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

    def test_outliers_bias_the_calibration_only_without_huber(self):
        # a noisy 40-keyframe session, 10 of its pixels moved by 40 px in
        # each axis (80 sigma), solved from the benchmark's perturbed start:
        # at this seed Huber errs by 0.62 px and 7.0 mm, plain least
        # squares by 14 px and 183 mm; the bounds leave about 3x margin
        s = sim.make_session(0, n_keyframes=40, steps=10, n_landmarks=80)
        rng = np.random.default_rng(0)
        obs = list(s.observations)
        for i in rng.choice(len(obs), 10, replace=False):
            obs[i] = replace(obs[i], uv=obs[i].uv + 40.0 * rng.choice([-1.0, 1.0], size=2))
        calib0 = sim.perturb_calibration(s.calibration, rng)
        keyframes = sim.perturb_keyframes(s.keyframes, rng)
        landmarks = sim.landmark_list(sim.perturb_landmarks(s.landmarks, rng))
        errors = {}
        for huber in (True, False):
            prob = build_batch_problem(keyframes, landmarks, obs, s.imu, calib0, s.noise)
            prob, _ = solve(prob, SolveOptions(huber=huber, max_iters=50))
            errors[huber] = workloads.calibration_errors(prob.calibration, s.calibration)
        assert errors[True]["err_f_px"] < 2.0 and errors[True]["err_p_CI_mm"] < 20.0
        for name in ("err_f_px", "err_p_CI_mm"):
            assert errors[True][name] < errors[False][name]


class _Seg:
    """Minimal stand-in for partitioning tests only."""

    def __init__(self, id, session_id, first, n, lm_ids):
        self.id = id
        self.session_id = session_id
        self.keyframe_ids = list(range(first, first + n))
        self.landmarks = dict.fromkeys(lm_ids)


class TestPartitioning:
    def test_shared_pair_and_singleton(self):
        a = _Seg(0, "s", 0, 10, range(0, 30))
        b = _Seg(1, "s", 20, 10, range(15, 40))  # shares 15 with a
        c = _Seg(2, "s", 40, 10, range(100, 120))
        assert partition_segments([a, b, c]) == [(0, 1), (2,)]

    def test_contiguous_segments_merge(self):
        segs = [_Seg(i, "s", i * 10, 10, range(1000 * i, 1000 * i + 5)) for i in range(4)]
        assert partition_segments(segs) == [(0, 1, 2, 3)]

    def test_transitive_sharing_chain(self):
        a = _Seg(0, "s", 0, 10, range(0, 20))
        b = _Seg(1, "s", 50, 10, range(9, 31))  # shares 11 with a, 11 with c
        c = _Seg(2, "s", 100, 10, range(20, 40))
        assert not a.landmarks.keys() & c.landmarks.keys()
        assert partition_segments([a, b, c]) == [(0, 1, 2)]

    def test_exactly_max_shared_does_not_merge(self):
        a = _Seg(0, "s", 0, 10, range(0, 10))
        b = _Seg(1, "s", 50, 10, range(0, 10))  # shares exactly 10
        assert partition_segments([a, b]) == [(0,), (1,)]

    def test_order_invariance(self):
        rng = np.random.default_rng(9)
        segs = [
            _Seg(0, "s", 0, 10, range(0, 30)),
            _Seg(1, "s", 10, 10, range(100, 130)),
            _Seg(2, "s", 40, 10, range(20, 50)),
            _Seg(3, "s", 80, 10, range(200, 230)),
        ]
        ref = [tuple(segs[i].id for i in p) for p in partition_segments(segs)]
        assert ref == [(0, 1), (2,), (3,)]
        for _ in range(5):
            shuffled = list(segs)
            rng.shuffle(shuffled)
            assert [tuple(shuffled[i].id for i in p) for p in partition_segments(shuffled)] == ref


class TestSegmentProblem:
    def test_all_segments_reproduce_batch_cost(self, scene):
        batch = build_from_scene(scene)
        segs = support.scene_segments(scene, kf_per_segment=2)
        assert len(segs) == 3
        segprob = build_segment_problem(segs, scene.calibration, scene.noise)
        assert len(segprob.partitions) == 1
        assert len(segprob.keyframes) == len(batch.keyframes)
        assert len(segprob.inertial_factors) == len(batch.inertial_factors)
        assert len(segprob.bridge_factors) == 0
        c_batch = problem_cost(batch)
        c_seg = problem_cost(segprob)
        assert c_seg == pytest.approx(c_batch, rel=1e-12, abs=1e-18)

    def test_all_segments_reproduce_batch_cost_perturbed(self, scene):
        # equality must hold at arbitrary identical states, not just truth
        batch = build_from_scene(scene)
        segs = support.scene_segments(scene, kf_per_segment=3)
        segprob = build_segment_problem(segs, scene.calibration, scene.noise)
        rng = np.random.default_rng(10)
        deltas = rng.normal(scale=1e-3, size=(len(batch.keyframes), KF_DIM))
        batch.keyframes = batch.keyframes.retract(deltas)
        segprob.keyframes = segprob.keyframes.retract(deltas)
        assert problem_cost(segprob) == pytest.approx(problem_cost(batch), rel=1e-12)

    def test_gap_becomes_bias_bridge(self, scene):
        segs = support.scene_segments(scene, kf_per_segment=2, keep=[0, 2])
        segprob = build_segment_problem(segs, scene.calibration, scene.noise)
        assert len(segprob.bridge_factors) == 1
        br = segprob.bridge_factors[0]
        gap = scene.keyframes[4].t - scene.keyframes[1].t
        assert br["dt"] == pytest.approx(gap)
        # full inertial factors only inside segments
        assert len(segprob.inertial_factors) == 2

    def test_bridge_cost_is_bias_walk(self, scene):
        segs = support.scene_segments(scene, kf_per_segment=2, keep=[0, 2])
        segprob = build_segment_problem(segs, scene.calibration, scene.noise)
        base = problem_cost(segprob)
        # shift the biases of the second block only
        db_g = np.array([3e-4, 0.0, 0.0])
        shift = np.zeros((len(segprob.keyframes), 3))
        shift[2:4] = db_g
        segprob.keyframes = replace(segprob.keyframes, b_g=segprob.keyframes.b_g + shift)
        br = segprob.bridge_factors[0]
        expected = 0.5 * float(db_g @ db_g) / (scene.noise.sigma_bg**2 * br["dt"])
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
        deltas = rng.normal(scale=1e-3, size=(len(batch.keyframes), KF_DIM))
        batch.keyframes = batch.keyframes.retract(deltas)
        segprob.keyframes = segprob.keyframes.retract(deltas)
        assert problem_cost(segprob) == problem_cost(batch)

    def test_unknown_keyframe_raises(self, scene):
        segs = support.scene_segments(scene, kf_per_segment=3)
        landmark = next(iter(segs[0].landmarks))
        segs[0].observations.append(FeatureObservation(77, landmark, np.zeros(2), 0.5))
        with pytest.raises(ValueError, match="segment 0: .*unknown keyframe 77"):
            build_segment_problem(segs, scene.calibration, scene.noise)

    def test_unknown_landmark_raises(self, scene):
        segs = support.scene_segments(scene, kf_per_segment=3)
        segs[1].observations.append(FeatureObservation(segs[1].keyframe_ids[0], 999, np.zeros(2), 0.5))
        with pytest.raises(ValueError, match="segment 1: .*unknown landmark 999"):
            build_segment_problem(segs, scene.calibration, scene.noise)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("keyframe_ids", [], "segment 1: no keyframes"),
            ("keyframe_ids", [3, 5, 4], "segment 1: keyframe ids must be strictly increasing"),
            ("keyframe_ids", [3, 3, 5], "segment 1: keyframe ids must be strictly increasing"),
            ("keyframe_ids", [3, 4], "segment 1: 2 keyframe ids for 3 keyframes"),
            ("keyframes", "swap", "segment 1: keyframes must be temporally ordered"),
            ("keyframes", "repeat", "segment 1: keyframes must be temporally ordered"),
        ],
    )
    def test_malformed_segment_raises(self, scene, field, value, message):
        segs = support.scene_segments(scene, kf_per_segment=3)
        kfs = segs[1].keyframes
        if value == "swap":
            value = [kfs[1], kfs[0], kfs[2]]
        elif value == "repeat":
            value = [kfs[0], kfs[0], kfs[2]]
        if field == "keyframe_ids" and not value:
            segs[1].keyframes = []
        setattr(segs[1], field, value)
        with pytest.raises(ValueError, match=message):
            build_segment_problem(segs, scene.calibration, scene.noise)

    def test_camera_factor_rows_map_to_local_indices(self, scene):
        # landmark 9 is seen by both segments, which share no other landmark
        # and so fall into two partitions joined by a bias bridge; each
        # partition gets its own instance of it
        segs = support.scene_segments(scene, kf_per_segment=2, keep=[0, 2])
        rng = np.random.default_rng(16)
        for seg, keep_ids in zip(segs, (set(range(10)), set(range(9, 20)))):
            support.keep_landmarks(seg, keep_ids)
            rng.shuffle(seg.observations)
        assert segs[0].landmarks.keys() & segs[1].landmarks.keys() == {9}
        prob = build_segment_problem(segs[::-1], scene.calibration, scene.noise)
        assert len(prob.partitions) == 2 and len(prob.bridge_factors) == 1

        # reference: dict maps filled in the builder's documented order, segments
        # by first keyframe, each segment's landmarks by id, first seen per partition
        part_of = {sid: p for p, part in enumerate(prob.partitions) for sid in part.segment_ids}
        kf_local, lm_local, ref = {}, {}, []
        for seg in sorted(segs, key=lambda s: s.keyframe_ids[0]):
            for kid in seg.keyframe_ids:
                kf_local[(seg.session_id, kid)] = len(kf_local)
            for lid in sorted(seg.landmarks):
                lm_local.setdefault((part_of[seg.id], lid), len(lm_local))
            for o in seg.observations:
                kf, lm = kf_local[(seg.session_id, o.keyframe_id)], lm_local[(part_of[seg.id], o.landmark_id)]
                ref.append((kf, lm, o.uv, o.sigma))
        ref.sort(key=lambda row: row[:2])

        assert prob.landmark_ids.tolist().count(9) == 2
        assert prob.landmark_ids.tolist() == [lid for _, lid in lm_local]
        assert prob.keyframe_ids == [kid for _, kid in kf_local]
        assert len(prob.camera_factors) == len(ref)
        for row, (kf, lm, uv, sigma) in zip(prob.camera_factors, ref):
            assert (row["kf"], row["lm"], row["sigma"]) == (kf, lm, sigma)
            assert row["uv"].tobytes() == uv.tobytes()

    def _two_sessions(self, scene, landmark_sets):
        """Segment 0, keyframes 0-2, of each of sessions s0 and s1, seeing
        landmark_sets; both segments keep the id 0."""
        segs = []
        for i, keep_ids in enumerate(landmark_sets):
            [seg] = support.scene_segments(scene, kf_per_segment=3, keep=[0], session_id=f"s{i}")
            support.keep_landmarks(seg, keep_ids)
            segs.append(seg)
        return segs

    def _assert_anchored_at_own_first_keyframes(self, prob):
        # two partitions, each anchored at its own first keyframe: 3 LM
        # iterations leave both anchor positions bitwise where they were
        assert [p.anchor for p in prob.partitions] == [0, 3]
        assert [a for a, _, _ in anchor_projectors(prob)] == [0, 3]
        rng = np.random.default_rng(17)
        prob.keyframes = prob.keyframes.retract(rng.normal(scale=1e-3, size=(len(prob.keyframes), KF_DIM)))
        p_anchors = [prob.keyframes.p_GI[a].copy() for a in (0, 3)]
        prob, report = solve(prob, SolveOptions(max_iters=3))
        assert report.final_cost < report.initial_cost
        for a, p in zip((0, 3), p_anchors):
            assert prob.keyframes.p_GI[a].tobytes() == p.tobytes()

    def test_sessions_repeating_keyframe_ids_anchor_their_own_partitions(self, scene):
        # two sessions with the same keyframe ids and disjoint landmarks
        segs = self._two_sessions(scene, (range(10), range(10, 20)))
        segs[1].id = 1
        prob = build_segment_problem(segs, scene.calibration, scene.noise)
        assert prob.keyframe_ids == [0, 1, 2, 0, 1, 2]
        self._assert_anchored_at_own_first_keyframes(prob)

    def test_sessions_repeating_segment_ids_anchor_their_own_partitions(self, scene):
        segs = self._two_sessions(scene, (range(10), range(10, 20)))
        assert [s.id for s in segs] == [0, 0]
        self._assert_anchored_at_own_first_keyframes(build_segment_problem(segs, scene.calibration, scene.noise))

    def test_sessions_repeating_segment_ids_share_no_landmark_column(self, scene):
        # landmarks 6-9, at most MAX_SHARED_LANDMARKS, are seen from both
        # sessions: two partitions, each with its own instance of them
        prob = build_segment_problem(self._two_sessions(scene, (range(10), range(6, 16))), scene.calibration, scene.noise)
        assert len(prob.partitions) == 2
        cf = prob.camera_factors
        partition_of_kf = cf["kf"] // 3  # each partition is one 3-keyframe segment
        assert all(len(set(partition_of_kf[cf["lm"] == lm])) == 1 for lm in range(len(prob.landmarks)))
        assert sorted(prob.landmark_ids.tolist()) == sorted(list(range(10)) + list(range(6, 16)))

    @pytest.mark.parametrize("k, value", [(0, -np.inf), (1, np.nan), (2, np.inf)])
    def test_non_finite_keyframe_time_raises(self, scene, k, value):
        # the first or last keyframe time of a segment out of range passes
        # the order check
        segs = support.scene_segments(scene, kf_per_segment=3)
        segs[1].keyframes = [replace(kf, t=value) if i == k else kf for i, kf in enumerate(segs[1].keyframes)]
        with pytest.raises(ValueError, match="segment 1: keyframe times must be finite"):
            build_segment_problem(segs, scene.calibration, scene.noise)

    @pytest.mark.parametrize("bad", [0, 1])
    def test_non_finite_landmark_raises(self, scene, bad):
        # a landmark the first two of three adjacent segments list, so the
        # second segment's position is not the partition's first
        segs = support.scene_segments(scene, kf_per_segment=2)
        landmark = min(segs[0].landmarks.keys() & segs[1].landmarks.keys())
        segs[bad].landmarks = {**segs[bad].landmarks, landmark: np.array([np.nan, 0.0, 3.0])}
        with pytest.raises(ValueError, match=f"segment {bad}: landmark coordinates must be finite"):
            build_segment_problem(segs, scene.calibration, scene.noise)

    @pytest.mark.parametrize("field, value", [("p_GI", np.nan), ("v_GI", np.inf), ("b_a", np.nan), ("b_g", -np.inf)])
    def test_non_finite_keyframe_state_raises(self, scene, field, value):
        # keyframe 4, the second of segment 1
        segs = support.scene_segments(scene, kf_per_segment=3)
        kf = segs[1].keyframes[1]
        bad = getattr(kf, field).copy()
        bad[1] = value
        segs[1].keyframes = [segs[1].keyframes[0], replace(kf, **{field: bad}), *segs[1].keyframes[2:]]
        with pytest.raises(ValueError, match="segment 1: keyframe states must be finite"):
            build_segment_problem(segs, scene.calibration, scene.noise)

    @pytest.mark.parametrize("field", ["c", "p_CI", "m_g"])
    def test_non_finite_calibration_raises(self, scene, field):
        cal = scene.calibration
        with pytest.raises(ValueError, match=f"calibration {field} must be finite"):
            if field == "c":
                cal = replace(cal, camera=replace(cal.camera, c=np.array([np.nan, 240.0])))
            elif field == "p_CI":
                T = cal.extrinsics.T_CI
                cal = replace(cal, extrinsics=replace(cal.extrinsics, T_CI=Transform(T.rotation, [0.0, np.inf, 0.0])))
            else:
                cal = replace(cal, imu=replace(cal.imu, m_g=np.array([0.0, 0.0, -np.inf])))
            build_segment_problem(support.scene_segments(scene, kf_per_segment=3), cal, scene.noise)

    def test_bridge_gap_must_be_positive(self, scene):
        # a later segment of the session whose keyframes start before the
        # earlier segment ends
        segs = support.scene_segments(scene, kf_per_segment=2, keep=[0, 2])
        late = segs[1]
        late.keyframes = [replace(k, t=k.t - 10.0) for k in late.keyframes]
        late.imu_samples = [replace(s, t=s.t - 10.0) for s in late.imu_samples]
        with pytest.raises(ValueError, match="segments 0 and 2: bridge gap must be positive"):
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
        segprob.keyframes = segprob.keyframes.retract(rng.normal(scale=1e-3, size=(len(segprob.keyframes), KF_DIM)))
        segprob, report = solve(segprob, SolveOptions(max_iters=60))
        assert report.final_cost < 1e-7

    def test_bridge_is_bias_walk_rows_of_inertial_factor(self, scene):
        # a bridge over an inertial factor's own keyframes and duration
        # gives that factor's whitened rows 9:15; its other rows are zero
        prob = build_from_scene(scene)
        x, i = prob.keyframes, np.arange(len(prob.keyframes))[:, None]
        prob.keyframes = replace(x, b_a=x.b_a + 1e-3 * i, b_g=x.b_g + 1e-4 * i)
        f = 2
        k0, k1, r, J0, J1, _ = inertial_blocks(prob)
        bridge = np.array([(k0[f], k1[f], refresh_preintegrations(prob).duration[f])], dtype=BRIDGE_DTYPE)
        b0, b1, rb, B0, B1, Bth = bridge_blocks(replace(prob, bridge_factors=bridge))
        assert (b0.tolist(), b1.tolist()) == ([k0[f]], [k1[f]])
        assert np.all(r[f, 9:15] != 0.0)
        np.testing.assert_allclose(rb[0, 9:15], r[f, 9:15], rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(B0[0, 9:15], J0[f, 9:15], rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(B1[0, 9:15], J1[f, 9:15], rtol=1e-12, atol=0.0)
        for block in (rb[:, :9], B0[:, :9], B1[:, :9], Bth):
            assert not block.any()

    def test_bridge_jacobian_matches_finite_differences(self, scene):
        # the batch FD test never sees a bridge factor; this one does
        segs = support.scene_segments(scene, kf_per_segment=2, keep=[0, 2])
        prob = build_segment_problem(segs, scene.calibration, scene.noise)
        assert len(prob.bridge_factors) == 1
        rng = np.random.default_rng(13)
        prob.keyframes = prob.keyframes.retract(rng.normal(scale=1e-3, size=(len(prob.keyframes), KF_DIM)))
        base_kf = prob.keyframes
        base_lm = prob.landmarks
        base_cal = prob.calibration
        J = evaluate_residuals(prob).jacobian.toarray()

        K, L = len(base_kf), len(base_lm)
        n_cols = K * KF_DIM + L * 3 + CALIB_DIM
        h = 1e-6

        def residual_at(delta):
            prob.keyframes = base_kf.retract(delta[: K * KF_DIM])
            lm0 = K * KF_DIM
            prob.landmarks = base_lm + delta[lm0 : lm0 + 3 * L].reshape(L, 3)
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
        # couples them as a pair factor in the keyframe band
        segs = support.scene_segments(scene, kf_per_segment=2, keep=[0, 2])
        for seg, keep_ids in zip(segs, (set(range(10)), set(range(10, 20)))):
            support.keep_landmarks(seg, keep_ids)
        segprob = build_segment_problem(segs, scene.calibration, scene.noise)
        assert len(segprob.partitions) == 2
        assert len(segprob.bridge_factors) == 1
        assert problem_cost(segprob) < 1e-12
        rng = np.random.default_rng(12)
        segprob.keyframes = segprob.keyframes.retract(rng.normal(scale=1e-3, size=(len(segprob.keyframes), KF_DIM)))
        segprob, report = solve(segprob, SolveOptions(max_iters=60))
        assert report.final_cost < 1e-7
