"""Tests for segment scoring: the calibration marginal covariance and the
scalar criteria computed from it.

Oracles: the calibration block of the inverse of the full information
matrix J^T W J, built densely from the unweighted residual evaluation, and
the closed forms of trace, determinant, largest eigenvalue and Gaussian
entropy of a diagonal covariance.
"""

import math

import numpy as np
import pytest
import scipy.linalg

from infocal.metrics import MarginalCovariance, score, segment_marginal_covariance
from infocal.problem import CALIB_DIM, KF_DIM, anchor_projectors, build_segment_problem, evaluate_residuals

import support


def dense_calibration_covariance(problem):
    """Calibration block of (J^T W J)^-1 over the gauge-free columns.

    The anchor's position columns are removed and its rotation columns
    kept on a 2-column basis perpendicular to the gravity axis (any such
    basis gives the same calibration block).
    The inverse is formed from an SVD of the whitened, column-normalized
    Jacobian rather than by inverting J^T W J, whose condition number is
    the square of the Jacobian's (chained positions and bias walks make
    it about 1e15 here).
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
    _, s, Vt = np.linalg.svd(A * d, full_matrices=False)
    Vc = Vt.T[-CALIB_DIM:] * d[-CALIB_DIM:, None]
    return (Vc / s**2) @ Vc.T


def thinned(segment, landmark_id, keep):
    """Copy of a segment in which one landmark keeps only its first `keep`
    observations; keep=0 drops the landmark."""
    seen = [o for o in segment.observations if o.landmark_id == landmark_id][:keep]
    ids = set(segment.landmark_ids) - ({landmark_id} if keep == 0 else set())
    return support.FakeSegment(
        segment.id,
        segment.session_id,
        segment.keyframe_ids,
        segment.keyframes,
        segment.imu_samples,
        [o for o in segment.observations if o.landmark_id != landmark_id] + seen,
        ids,
        {i: segment.landmarks[i] for i in ids},
    )


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
        counts = np.bincount([f.landmark_id for f in prob.camera_factors])
        assert 2 in counts and len(np.unique(counts)) >= 2
        rng = np.random.default_rng(5)
        prob.keyframes = [k.retract(rng.normal(scale=1e-3, size=KF_DIM)) for k in prob.keyframes]
        cov = segment_marginal_covariance(prob)
        assert not cov.rank_deficient
        ref = dense_calibration_covariance(prob)
        # compared as correlations: entry (i, j) over the oracle's sigma_i sigma_j.
        # Measured on this scene: 9.6e-10 with one QR per landmark, 1.1e-9
        # with the landmarks' QRs batched by observation count, 1.3e-9 with
        # the gauge applied as four unit rows instead of a reduced basis.
        e = 1.0 / np.sqrt(np.diag(ref))
        assert np.abs(e[:, None] * (cov.matrix - ref) * e[None, :]).max() < 1e-8

    def test_single_view_landmark_adds_nothing(self):
        # two image rows cannot pin a landmark's three coordinates, so a
        # landmark seen once tells nothing about the calibration
        seg, calib, noise = seed4_segment()
        with_it = score(segment_marginal_covariance(build_segment_problem([thinned(seg, 0, 1)], calib, noise)))
        without = score(segment_marginal_covariance(build_segment_problem([thinned(seg, 0, 0)], calib, noise)))
        assert not with_it.rank_deficient and not without.rank_deficient
        for name in ("a_opt", "d_opt", "e_opt", "entropy"):
            assert getattr(with_it, name) == pytest.approx(getattr(without, name), rel=1e-12)


class TestScore:
    def test_closed_forms_of_diagonal_covariance(self):
        d = np.geomspace(0.2, 3.0, CALIB_DIM)
        sc = score(MarginalCovariance(np.diag(d)))
        assert not sc.rank_deficient
        assert sc.a_opt == pytest.approx(d.sum(), rel=1e-12)
        assert sc.d_opt == pytest.approx(np.prod(d), rel=1e-12)
        assert sc.e_opt == pytest.approx(3.0, rel=1e-12)
        assert sc.entropy == pytest.approx(0.5 * (CALIB_DIM * math.log(2 * math.pi * math.e) + np.log(d).sum()), rel=1e-12)
