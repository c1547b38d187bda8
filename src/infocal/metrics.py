"""Information scoring of calibration segments.

How much a segment of trajectory would sharpen the calibration estimate is
measured through the marginal covariance of the calibration parameters in
that segment's own estimation problem.  The chain is:

    problem.gauged_blocks: camera rows and one stack of pair-factor rows
    (inertial factors, preintegrated at the current state, then bias
    bridges) with the gauge's anchors
      -> pair QR: the pair rows over [velocity and biases | pose | IMU]
      -> merged QR: camera rows with landmarks eliminated, the gauge rows
         and the pair rows left by the pair QR, over [pose | calibration]
      -> trailing 26x26 triangle R22  ->  Sigma = R22^-1 R22^-T
      -> normalization by reference sigmas  ->  scalar criteria

The gauge is the solver's: the blocks come with each anchor's rotation
columns projected perpendicular to its gravity axis u and its position
columns cleared, and scoring only appends four unit rows per anchor (u on
the rotation columns, one per position axis).  No data row touches those
four directions, so R22 is that of the gauge-free parametrization.

The trailing block of R is unaffected by the elimination order, so each
group of columns is eliminated on the rows that touch it (square-root
smoothing, Dellaert & Kaess, IJRR 2006).  Landmarks go first: each
landmark's 2n x 3 Jacobian (n observations) is factored on its own,
batched over the landmarks with equal n, and only its rows orthogonal to
those three columns go on (Demmel et al., Square Root BA, CVPR 2021).  A
landmark seen once leaves no rows and carries no calibration information.

Only the pair rows, 15 per inertial factor or bridge, touch the 9
velocity and bias columns of a keyframe: the pair QR's first 9K pivots (K
keyframes) are final, and its rows past them span only pose and IMU
columns.  The camera and gauge rows touch only pose and CAM_BLOCK
columns, so the merged QR spans 6K + 26 columns.  Both QRs are one
in-place LAPACK dgeqrt each, and dtrtri inverts R22.

The scalar criteria on the normalized covariance: trace (a_opt),
determinant (d_opt, log-domain internally), largest eigenvalue (e_opt),
and the Gaussian differential entropy 0.5*ln((2*pi*e)^26 * det).
Lower is better for all of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .problem import (
    CALIB_DIM,
    CAM_BLOCK,
    IMU_BLOCK,
    KF_DIM,
    POSE_DIM,
    gauged_blocks,
    refresh_preintegrations,  # noqa: F401  (traced as metrics.refresh_preintegrations by the benchmark)
)

# relative floor under which a triangular diagonal counts as zero rank
RANK_TOLERANCE = 1e-10

_LN_2PIE = math.log(2.0 * math.pi * math.e)


@dataclass(frozen=True)
class MarginalCovariance:
    """26x26 covariance of the calibration parameters, minimal ordering.

    A rank-deficient scoring problem yields the flag instead of a usable
    matrix; the stored matrix then has +inf variances.
    """

    matrix: np.ndarray
    rank_deficient: bool = False

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (CALIB_DIM, CALIB_DIM):
            raise ValueError("marginal covariance must be 26x26")
        object.__setattr__(self, "matrix", m)
        if self.rank_deficient:
            return
        if not np.all(np.isfinite(m)):
            raise ValueError("non-finite covariance")
        scale = max(float(np.abs(m).max()), 1e-300)
        if np.abs(m - m.T).max() > 1e-9 * scale:
            raise ValueError("covariance not symmetric")
        eigs = np.linalg.eigvalsh(0.5 * (m + m.T))
        if eigs.min() < -1e-9 * max(float(np.abs(eigs).max()), 1e-300):
            raise ValueError("covariance not positive semi-definite")


def _deficient_covariance():
    m = np.zeros((CALIB_DIM, CALIB_DIM))
    np.fill_diagonal(m, np.inf)
    return MarginalCovariance(m, rank_deficient=True)


@dataclass(frozen=True)
class MetricNormalization:
    """Per-parameter reference standard deviations."""

    sigma_ref: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.sigma_ref, dtype=float)
        if s.shape != (CALIB_DIM,):
            raise ValueError("sigma_ref must have 26 entries")
        if not np.all(s > 0.0) or not np.all(np.isfinite(s)):
            raise ValueError("sigma_ref entries must be positive and finite")
        object.__setattr__(self, "sigma_ref", s)


@dataclass(frozen=True)
class SegmentScore:
    a_opt: float
    d_opt: float
    e_opt: float
    entropy: float
    rank_deficient: bool = False


def _qr_in_place(a):
    """R of the Fortran-ordered a = QR in its upper triangle, Householder
    vectors below: one LAPACK dgeqrt."""
    _, _, info = lapack.dgeqrt(min(16, *a.shape), a, overwrite_a=True)
    if info:
        raise np.linalg.LinAlgError(f"dgeqrt: info {info}")


def _place_blocks(a, cols, J):
    """Write the (n, r, c) blocks J into rows r i : r (i + 1), columns cols[i], of a."""
    n, r, _ = J.shape
    a[np.arange(n * r).reshape(n, r, 1), cols[:, None, :]] = J


def _merged_rows(problem, cam, anchors, left):
    """The rows of the merged QR, Fortran-ordered over [keyframe pose (6
    per keyframe) | calibration]: the camera rows left after eliminating
    every landmark's three columns, the gauge's four unit rows per anchor,
    then the pair rows left, over [pose | IMU_BLOCK]; and the |diagonal| of
    each landmark's triangle, for the rank test, one array per observation
    count.  Without the gauge rows the anchor's gauged columns are
    rank-deficient, and the non-pivoted QR's pivot on rounding noise costs
    accuracy (2-4x on ill-conditioned segments).
    """
    n_pose = len(problem.keyframes) * POSE_DIM
    n_cols = n_pose + CAM_BLOCK.stop
    _, Jp, Jl, Jth, _ = cam
    ki = problem.camera_factors["kf"]
    counts = np.bincount(problem.camera_factors["lm"], minlength=len(problem.landmarks))
    by_landmark = np.argsort(problem.camera_factors["lm"], kind="stable")
    first = np.concatenate([[0], np.cumsum(counts)[:-1]])
    # a landmark seen n >= 2 times leaves 2n - 3 rows, one seen once none
    n_rows = int(np.maximum(2 * counts - 3, 0).sum())
    out = np.zeros((n_rows + 4 * len(anchors) + len(left), n_pose + CALIB_DIM), order="F")
    diag_values = []
    row = 0
    for n in np.unique(counts[counts >= 2]):
        obs = by_landmark[first[counts == n][:, None] + np.arange(n)].ravel()
        # whitened rows over [keyframe pose columns | CAM_BLOCK]
        rows = np.zeros((2 * obs.size, n_cols))
        _place_blocks(rows, ki[obs, None] * POSE_DIM + np.arange(POSE_DIM), Jp[obs])
        rows[:, n_pose:] = Jth[obs].reshape(-1, CAM_BLOCK.stop)
        Q, R = np.linalg.qr(Jl[obs].reshape(-1, 2 * n, 3), mode="complete")
        diag_values.append(np.abs(np.diagonal(R, axis1=-2, axis2=-1)).ravel())
        rest = (np.swapaxes(Q[:, :, 3:], -1, -2) @ rows.reshape(-1, 2 * n, n_cols)).reshape(-1, n_cols)
        out[row : row + len(rest), :n_cols] = rest
        row += len(rest)
    for a, _, u in anchors:
        out[row, a * POSE_DIM : a * POSE_DIM + 3] = u
        out[row + 1 : row + 4, a * POSE_DIM + 3 : a * POSE_DIM + 6] = np.eye(3)
        row += 4
    out[row:, :n_pose] = left[:, :n_pose]
    out[row:, n_pose + IMU_BLOCK.start :] = left[:, n_pose:]
    return out, diag_values


def segment_marginal_covariance(problem):
    """Calibration marginal covariance of one standalone segment problem,
    in the gauge of its anchor_projectors."""
    K = len(problem.keyframes)
    n_pose, n_vb, n_imu = K * POSE_DIM, K * (KF_DIM - POSE_DIM), IMU_BLOCK.stop - IMU_BLOCK.start
    cam, (k0, k1, _, J0, J1, Jthi), anchors = gauged_blocks(problem)
    if 15 * k0.size < n_vb:
        return _deficient_covariance()

    # pair QR over [velocity and biases | pose | IMU_BLOCK]; cols[k] are keyframe k's 15 columns
    pairs = np.zeros((15 * k0.size, n_vb + n_pose + n_imu), order="F")
    cols = np.concatenate([n_vb + np.arange(n_pose).reshape(K, -1), np.arange(n_vb).reshape(K, -1)], axis=1)
    _place_blocks(pairs, cols[k0], J0)
    _place_blocks(pairs, cols[k1], J1)
    pairs[:, n_vb + n_pose :] = Jthi.reshape(-1, n_imu)
    _qr_in_place(pairs)
    # its rows past the velocity and bias pivots, over [pose | IMU_BLOCK]
    left = pairs[n_vb : n_vb + n_pose + n_imu, n_vb:]
    left[np.tril_indices(left.shape[0], -1, left.shape[1])] = 0.0

    n2 = n_pose + CALIB_DIM
    merged, diag_values = _merged_rows(problem, cam, anchors, left)
    if merged.shape[0] < n2:
        return _deficient_covariance()
    _qr_in_place(merged)
    diag_values = np.concatenate(diag_values + [np.abs(np.diag(pairs)[:n_vb]), np.abs(np.diag(merged))])
    if diag_values.min() < RANK_TOLERANCE * max(diag_values.max(), 1e-300):
        return _deficient_covariance()

    # R22 is in the leading n2 rows, above dgeqrt's Householder vectors
    X, info = lapack.dtrtri(merged[n2 - CALIB_DIM : n2, n2 - CALIB_DIM :])
    if info:
        raise np.linalg.LinAlgError(f"dtrtri: info {info}")
    X = np.triu(X)  # dtrtri reads and writes only the upper triangle
    sigma = X @ X.T
    return MarginalCovariance(0.5 * (sigma + sigma.T))


def normalize_covariance(sigma: MarginalCovariance, ref: MetricNormalization) -> MarginalCovariance:
    """Rescale to reference units: diag(s)^-1 Sigma diag(s)^-1."""
    if sigma.rank_deficient:
        return sigma
    s = ref.sigma_ref
    return MarginalCovariance(sigma.matrix / np.outer(s, s))


def score(sigma_norm: MarginalCovariance) -> SegmentScore:
    """Scalar optimality criteria of a normalized marginal covariance,
    which MarginalCovariance has checked to be positive semi-definite."""
    if sigma_norm.rank_deficient:
        inf = float("inf")
        return SegmentScore(inf, inf, inf, inf, rank_deficient=True)
    m = sigma_norm.matrix
    k = m.shape[0]
    eigs = np.linalg.eigvalsh(0.5 * (m + m.T))
    a_opt = float(np.trace(m))
    e_opt = float(eigs.max())
    try:
        C = np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        # numerically singular but PSD within tolerance: no volume left
        return SegmentScore(a_opt, 0.0, e_opt, float("-inf"))
    logdet = 2.0 * float(np.sum(np.log(np.diag(C))))
    try:
        d_opt = math.exp(logdet)
    except OverflowError:  # a volume beyond the largest float; logdet is finite
        d_opt = float("inf")
    return SegmentScore(a_opt, d_opt, e_opt, 0.5 * (k * _LN_2PIE + logdet))


def reference_sigmas(covariances) -> MetricNormalization:
    """Per-parameter median of the corpus standard deviations."""
    usable = [c for c in covariances if not c.rank_deficient]
    if not usable:
        raise ValueError("no full-rank covariances to take reference sigmas from")
    diags = np.stack([np.sqrt(np.diag(c.matrix)) for c in usable])
    return MetricNormalization(np.median(diags, axis=0))
