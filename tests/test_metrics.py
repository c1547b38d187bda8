"""Tests for segment scoring: the calibration marginal covariance and the
scalar criteria computed from it.

Oracles: the calibration block of the inverse of the full information
matrix J^T W J, built densely from the unweighted residual evaluation, and
the closed forms of trace, determinant, largest eigenvalue and Gaussian
entropy of a diagonal covariance.  Properties: the covariance does not
move under a global yaw and translation of the states, and more data never
makes it larger (Loewner order).  The covariance and normalisation records
reject malformed input at construction, reference_sigmas takes medians of
the full-rank corpus, and normalize_covariance is diag(s)^-1 Sigma
diag(s)^-1.
"""

import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from infocal.geometry import UnitQuaternion, quat_mul, so3_exp
from infocal.metrics import (
    MarginalCovariance,
    MetricNormalization,
    normalize_covariance,
    reference_sigmas,
    score,
    segment_marginal_covariance,
)
from infocal.problem import CALIB_DIM, KF_DIM, anchor_projectors, build_segment_problem

import support
from support import evaluate_residuals

sys.path[:0] = [str(Path(__file__).resolve().parents[1] / "bench")]

import workloads  # noqa: E402


def dense_calibration_covariance(problem):
    """Calibration block of (J^T W J)^-1 over the gauge-free columns.

    The anchor's position columns are removed and its rotation columns
    kept on a 2-column basis perpendicular to the gravity axis (any such
    basis gives the same calibration block).
    The inverse is formed from a pivot-free QR of the whitened,
    column-normalized Jacobian, as R22^-1 R22^-T of its trailing
    calibration triangle R22, rather than by inverting J^T W J, whose
    condition number is the square of the Jacobian's (chained positions
    and bias walks make it about 1e15 here).
    """
    ev = evaluate_residuals(problem)
    J = ev.jacobian.toarray()
    A = np.zeros_like(J)
    for off, W in ev.weights:
        m = W.shape[0]
        A[off : off + m] = np.linalg.cholesky(W).T @ J[off : off + m]
    n = J.shape[1]
    [(a, _, u)] = anchor_projectors(problem)
    anchor = range(a * KF_DIM, a * KF_DIM + 6)
    basis = np.eye(n)[:, a * KF_DIM : a * KF_DIM + 3] @ scipy.linalg.null_space(u[None, :])
    T = np.column_stack([basis] + [np.eye(n)[:, j] for j in range(n) if j not in anchor])
    A = A @ T
    d = 1.0 / np.linalg.norm(A, axis=0)
    R = scipy.linalg.qr(A * d, mode="r")[0][: A.shape[1]]
    R22 = R[-CALIB_DIM:, -CALIB_DIM:]
    # the un-normalized block diag(d) R22^-1 R22^-T diag(d), as Y^T Y
    Y = scipy.linalg.solve_triangular(R22, np.diag(d[-CALIB_DIM:]), trans="T")
    return Y.T @ Y


def thinned(segment, landmark_id, keep):
    """Copy of a segment in which one landmark keeps only its first `keep`
    observations; keep=0 drops the landmark."""
    seen = [o for o in segment.observations if o.landmark_id == landmark_id][:keep]
    ids = segment.landmarks.keys() - ({landmark_id} if keep == 0 else set())
    return replace(
        segment,
        observations=[o for o in segment.observations if o.landmark_id != landmark_id] + seen,
        landmarks={i: segment.landmarks[i] for i in ids},
    )


def correlation_scaled(delta, sigma):
    """delta scaled entrywise by 1 / (s_i s_j), s the standard deviations of
    the covariance sigma."""
    e = 1.0 / np.sqrt(np.diag(sigma))
    return e[:, None] * delta * e[None, :]


def short_scoring_scene(seed):
    """The segment_scoring workload's scene, cut short to three segments."""
    short = type("ShortScoring", (workloads.SegmentScoring,), {"N_SEGMENTS": 3})
    return short().inputs(seed)


def seed4_segment():
    # a 1.1 s segment: long enough for all 26 calibration parameters
    sc = support.make_scene(seed=4, n_keyframes=12, n_landmarks=30)
    [seg] = support.scene_segments(sc, kf_per_segment=12)
    return seg, sc.calibration, sc.noise


class TestSegmentMarginalCovariance:
    def test_matches_dense_inverse(self):
        seg, calib, noise = seed4_segment()
        # landmark 0 seen exactly twice leaves one row after its elimination
        prob = build_segment_problem([thinned(seg, 0, 2)], calib, noise)
        counts = np.bincount(prob.camera_factors["lm"])
        assert 2 in counts and len(np.unique(counts)) >= 2
        rng = np.random.default_rng(5)
        prob.keyframes = prob.keyframes.retract(rng.normal(scale=1e-3, size=(len(prob.keyframes), KF_DIM)))
        cov = segment_marginal_covariance(prob)
        assert not cov.rank_deficient
        ref = dense_calibration_covariance(prob)
        # compared as correlations: entry (i, j) over the oracle's sigma_i sigma_j.
        # Measured on this scene: 5.3e-10, against 1.1e-9 from an oracle
        # that inverted through an SVD of the same Jacobian.
        assert np.abs(correlation_scaled(cov.matrix - ref, ref)).max() < 1e-8

    @pytest.mark.parametrize("seed", [0, 7])
    def test_matches_dense_inverse_on_bench_segments(self, seed):
        inp = short_scoring_scene(seed)
        for seg in inp["segments"]:
            prob = build_segment_problem([seg], inp["calibration"], inp["noise"])
            cov = segment_marginal_covariance(prob)
            assert not cov.rank_deficient
            ref = dense_calibration_covariance(prob)
            # measured on these six segments: at most 1.3e-9 (4.1e-9 from
            # the SVD oracle)
            assert np.abs(correlation_scaled(cov.matrix - ref, ref)).max() < 1e-8

    def test_camera_rows_meet_pose_and_calibration_columns_only(self, monkeypatch):
        # two QRs: the pair rows alone over [velocity and biases | pose |
        # IMU block], then the camera and gauge rows with the pair rows left
        # past the velocity and bias pivots over [pose | calibration]; no
        # QR holds camera rows and velocity or bias columns together
        seg, calib, noise = seed4_segment()
        prob = build_segment_problem([seg], calib, noise)
        shapes = []
        geqrt = scipy.linalg.lapack.dgeqrt
        monkeypatch.setattr(scipy.linalg.lapack, "dgeqrt", lambda nb, a, **kw: shapes.append((a.shape, a.flags.f_contiguous)) or geqrt(nb, a, **kw))
        monkeypatch.setattr(scipy.linalg.lapack, "dgeqrf", None)  # a dgeqrf call fails
        assert not segment_marginal_covariance(prob).rank_deficient
        K = len(prob.keyframes)
        counts = np.bincount(prob.camera_factors["lm"])
        n_cam = int(np.maximum(2 * counts - 3, 0).sum()) + 4
        assert shapes == [
            ((15 * (K - 1), 9 * K + 6 * K + 15), True),
            ((n_cam + 15 * (K - 1) - 9 * K, 6 * K + CALIB_DIM), True),
        ]

    @pytest.mark.parametrize("k, deficient", [(2, True), (5, True), (6, True), (8, False), (10, False), (12, False)])
    def test_rank_decision(self, k, deficient):
        # the first segment of k keyframes: with k = 2, 15 pair rows cannot
        # pin 18 velocity and bias columns; with 5 and 6 a pivot of the
        # triangles falls under RANK_TOLERANCE
        sc = support.make_scene(seed=4, n_keyframes=12, n_landmarks=30)
        seg = support.scene_segments(sc, kf_per_segment=k)[0]
        cov = segment_marginal_covariance(build_segment_problem([seg], sc.calibration, sc.noise))
        assert cov.rank_deficient == deficient
        assert np.isinf(np.diag(cov.matrix)).all() == deficient

    @pytest.mark.parametrize("routine", ["dgeqrt", "dtrtri"])
    def test_lapack_failure_raises(self, routine, monkeypatch):
        # a nonzero info from a factorisation is an error, never a covariance
        seg, calib, noise = seed4_segment()
        prob = build_segment_problem([seg], calib, noise)
        call = getattr(scipy.linalg.lapack, routine)
        monkeypatch.setattr(scipy.linalg.lapack, routine, lambda *args, **kw: (*call(*args, **kw)[:-1], 1))
        with pytest.raises(np.linalg.LinAlgError, match=f"{routine}: info 1"):
            segment_marginal_covariance(prob)

    def test_single_view_landmark_adds_nothing(self):
        # two image rows cannot pin a landmark's three coordinates, so a
        # landmark seen once tells nothing about the calibration
        seg, calib, noise = seed4_segment()
        with_it = score(segment_marginal_covariance(build_segment_problem([thinned(seg, 0, 1)], calib, noise)))
        without = score(segment_marginal_covariance(build_segment_problem([thinned(seg, 0, 0)], calib, noise)))
        assert not with_it.rank_deficient and not without.rank_deficient
        for name in ("a_opt", "d_opt", "e_opt", "entropy"):
            assert getattr(with_it, name) == pytest.approx(getattr(without, name), rel=1e-12)


    def test_invariant_under_global_yaw_and_translation(self):
        # from a perturbed start: at the truth the same transform moved the
        # covariance by 1.2e-8 to 4.7e-8 on this scene.  Measured here: 1.5e-10.
        seg, calib, noise = seed4_segment()
        prob = build_segment_problem([seg], calib, noise)
        rng = np.random.default_rng(5)
        prob.keyframes = prob.keyframes.retract(rng.normal(scale=1e-3, size=(len(prob.keyframes), KF_DIM)))
        before = segment_marginal_covariance(prob)
        R = so3_exp(np.array([0.0, 0.0, 0.83]))
        t = np.array([0.4, -1.2, 2.0])
        x = prob.keyframes
        q = quat_mul(UnitQuaternion.from_matrix(R).wxyz, x.q_GI)
        prob.keyframes = replace(x, q_GI=q, p_GI=x.p_GI @ R.T + t, v_GI=x.v_GI @ R.T)
        prob.landmarks = prob.landmarks @ R.T + t
        after = segment_marginal_covariance(prob)
        assert not before.rank_deficient and not after.rank_deficient
        assert np.abs(correlation_scaled(after.matrix - before.matrix, before.matrix)).max() < 1e-8

    @pytest.mark.parametrize("seed", [0, 7])
    def test_more_data_never_increases_covariance(self, seed):
        # segment 0 alone against segment 0 with the temporally adjacent
        # segment 1 (one inertial chain) and with segment 2 (a bias bridge
        # across segment 1's gap): Sigma_A - Sigma_AB is positive
        # semi-definite.  Smallest eigenvalue measured at correlation
        # level: 7.4e-8 or more.
        inp = short_scoring_scene(seed)
        seg, calib, noise = inp["segments"], inp["calibration"], inp["noise"]
        alone = segment_marginal_covariance(build_segment_problem([seg[0]], calib, noise))
        for other, bridges in ((1, 0), (2, 1)):
            prob = build_segment_problem([seg[0], seg[other]], calib, noise)
            assert len(prob.bridge_factors) == bridges
            joint = segment_marginal_covariance(prob)
            assert not alone.rank_deficient and not joint.rank_deficient
            gain = correlation_scaled(alone.matrix - joint.matrix, alone.matrix)
            assert np.linalg.eigvalsh(gain).min() >= -1e-9


class TestScore:
    def test_closed_forms_of_diagonal_covariance(self):
        d = np.geomspace(0.2, 3.0, CALIB_DIM)
        sc = score(MarginalCovariance(np.diag(d)))
        assert not sc.rank_deficient
        assert sc.a_opt == pytest.approx(d.sum(), rel=1e-12)
        assert sc.d_opt == pytest.approx(np.prod(d), rel=1e-12)
        assert sc.e_opt == pytest.approx(3.0, rel=1e-12)
        assert sc.entropy == pytest.approx(0.5 * (CALIB_DIM * math.log(2 * math.pi * math.e) + np.log(d).sum()), rel=1e-12)

    def test_volume_beyond_the_largest_float(self):
        # log det = 26 ln 1e20, about 1197, past the largest exponent exp
        # can return (about 709): the volume is inf, the entropy finite
        sc = score(MarginalCovariance(np.eye(CALIB_DIM) * 1e20))
        assert not sc.rank_deficient
        assert sc.d_opt == math.inf
        assert sc.entropy == pytest.approx(0.5 * CALIB_DIM * (math.log(2 * math.pi * math.e) + math.log(1e20)), rel=1e-12)
        assert sc.a_opt == pytest.approx(CALIB_DIM * 1e20, rel=1e-12) and sc.e_opt == pytest.approx(1e20, rel=1e-12)


def _with(m, i, j, value):
    m = m.copy()
    m[i, j] = value
    return m


def _deficient():
    return MarginalCovariance(np.diag(np.full(CALIB_DIM, np.inf)), rank_deficient=True)


class TestCovarianceRecords:
    @pytest.mark.parametrize(
        "matrix, message",
        [
            (np.eye(CALIB_DIM - 1), "must be 26x26"),
            (_with(np.eye(CALIB_DIM), 3, 3, np.nan), "non-finite"),
            (_with(np.eye(CALIB_DIM), 0, 5, 0.5), "not symmetric"),
            (np.diag(np.r_[-1.0, np.ones(CALIB_DIM - 1)]), "not positive semi-definite"),
        ],
        ids=["shape", "nan", "asymmetric", "indefinite"],
    )
    def test_covariance_rejects(self, matrix, message):
        with pytest.raises(ValueError, match=message):
            MarginalCovariance(matrix)

    @pytest.mark.parametrize(
        "first, n, message",
        [(0.0, CALIB_DIM, "positive"), (-1.0, CALIB_DIM, "positive"), (np.inf, CALIB_DIM, "finite"), (1.0, CALIB_DIM + 1, "26 entries")],
        ids=["zero", "negative", "inf", "length"],
    )
    def test_normalization_rejects(self, first, n, message):
        with pytest.raises(ValueError, match=message):
            MetricNormalization(np.r_[first, np.ones(n - 1)])

    @pytest.mark.parametrize("covariances", [[], [_deficient(), _deficient()]], ids=["empty", "all_deficient"])
    def test_reference_sigmas_need_a_full_rank_covariance(self, covariances):
        with pytest.raises(ValueError, match="full-rank"):
            reference_sigmas(covariances)

    def test_reference_sigmas_are_medians_of_full_rank_sigmas(self):
        covs = [MarginalCovariance(np.diag(np.full(CALIB_DIM, v))) for v in (1.0, 4.0, 9.0)]
        ref = reference_sigmas(covs + [_deficient()])
        np.testing.assert_array_equal(ref.sigma_ref, np.full(CALIB_DIM, 2.0))

    def test_deficient_covariance_passes_normalization_unchanged(self):
        sigma = _deficient()
        assert normalize_covariance(sigma, MetricNormalization(np.full(CALIB_DIM, 3.0))) is sigma

    def test_normalization_is_the_closed_form(self):
        A = np.random.default_rng(2).normal(size=(CALIB_DIM, CALIB_DIM))
        m = A @ A.T + CALIB_DIM * np.eye(CALIB_DIM)
        s = np.geomspace(1e-3, 10.0, CALIB_DIM)
        got = normalize_covariance(MarginalCovariance(m), MetricNormalization(s))
        np.testing.assert_allclose(got.matrix, np.diag(1.0 / s) @ m @ np.diag(1.0 / s), rtol=1e-14)
