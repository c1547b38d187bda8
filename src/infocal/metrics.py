"""Information scoring of calibration segments.

How much a segment of trajectory would sharpen the calibration estimate is
measured through the marginal covariance of the calibration parameters in
that segment's own estimation problem.  The chain is:

    problem.gauged_blocks: camera rows and one stack of pair-factor rows
    (inertial factors, preintegrated at the current state, then bias
    bridges) with the gauge's anchors
      -> camera rows with landmarks eliminated, reduced to one triangle
      -> that triangle over the pair rows, [keyframe | calibration] columns
      -> QR  ->  trailing 26x26 triangle R22  ->  Sigma = R22^-1 R22^-T
      -> normalization by reference sigmas  ->  scalar criteria

The gauge is the solver's: the blocks come with each anchor's rotation
columns projected perpendicular to its gravity axis u and its position
columns cleared, and scoring only appends four unit rows per anchor (u on
the rotation columns, one per position axis).  No data row touches those
four directions, so R22 is that of the gauge-free parametrization.

Landmark columns are eliminated first: each landmark's 2n x 3 Jacobian
(n observations) is factored on its own, batched over the landmarks with
equal n, and only its rows orthogonal to those three columns go on.  The
trailing block of R is unaffected by the elimination order.  A landmark
seen once leaves no rows and carries no calibration information.

The camera rows left touch only the 6 pose coordinates of their keyframes
and the 11 camera calibration coordinates (CAM_BLOCK), never velocity,
biases or IMU intrinsics; so do the gauge rows.  One QR over those 6K + 11
columns (K keyframes) reduces camera and gauge rows to a triangle of at
most 6K + 11 rows before they meet the pair rows, 15 per inertial factor
or bridge, so the final QR of a segment without bridges has at most
(6K + 11) + 15(K - 1) rows.  This is exact: left-multiplying a block of
rows by an orthogonal matrix leaves R unchanged up to row signs.  Both
QRs are one LAPACK dgeqrf call each, whose R alone is kept, and dtrtri
inverts R22.

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


def _triangle(a):
    """The leading min(m, n) rows of R in a = QR, a (m, n): one LAPACK
    dgeqrf with its optimal workspace, which may overwrite a."""
    lwork, _ = lapack.dgeqrf_lwork(*a.shape)
    return np.triu(lapack.dgeqrf(a, lwork=int(lwork), overwrite_a=True)[0][: min(a.shape)])


def _covariance_from_triangle(R22):
    X, _ = lapack.dtrtri(R22)
    sigma = X @ X.T
    return MarginalCovariance(0.5 * (sigma + sigma.T))


def _place_blocks(rows, cols, J):
    """Write the (n, r, c) blocks J into columns cols[i] : cols[i] + c of
    rows[i] (n, r, n_cols)."""
    n, r, c = J.shape
    rows[np.arange(n)[:, None, None], np.arange(r)[:, None], cols[:, None, None] + np.arange(c)] = J


def _camera_triangle(problem, cam, anchors):
    """The camera rows left after eliminating every landmark's three
    columns, with the gauge's four unit rows per anchor, reduced to one
    triangle over [keyframe pose columns (6 per keyframe) | CAM_BLOCK];
    and the |diagonal| of each landmark's triangle, for the rank test, as
    one array per observation count.

    cam are the gauged camera blocks.  Each landmark's 2n x 3 Jacobian (n
    observations) is factored on its own, batched over the landmarks seen
    n times; the rows orthogonal to its columns say what the landmark
    tells about keyframes and calibration, untouched by eliminating it
    first.  A landmark seen once leaves no rows.  The rows left touch no
    other column, and one QR reduces them to at most 6K + 11 rows.  The
    gauge rows touch only anchor pose columns; without them the anchor's
    gauged columns are rank-deficient, and the non-pivoted QR's pivot on
    rounding noise costs accuracy (2-4x on ill-conditioned segments).
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
    out = np.zeros((n_rows + 4 * len(anchors), n_cols))
    diag_values = []
    row = 0
    for n in np.unique(counts[counts >= 2]):
        obs = by_landmark[first[counts == n][:, None] + np.arange(n)].ravel()
        # whitened rows over [keyframe pose columns | CAM_BLOCK]
        rows = np.zeros((obs.size, 2, n_cols))
        _place_blocks(rows, ki[obs] * POSE_DIM, Jp[obs])
        rows[:, :, n_pose:] = Jth[obs]
        Q, R = np.linalg.qr(Jl[obs].reshape(-1, 2 * n, 3), mode="complete")
        diag_values.append(np.abs(np.diagonal(R, axis1=-2, axis2=-1)).ravel())
        rest = (np.swapaxes(Q[:, :, 3:], -1, -2) @ rows.reshape(-1, 2 * n, n_cols)).reshape(-1, n_cols)
        out[row : row + len(rest)] = rest
        row += len(rest)
    for (a, _, u), gauge in zip(anchors, out[n_rows:].reshape(-1, 4, n_cols)):
        gauge[0, a * POSE_DIM : a * POSE_DIM + 3] = u
        gauge[1:, a * POSE_DIM + 3 : a * POSE_DIM + 6] = np.eye(3)
    return _triangle(out), diag_values


def segment_marginal_covariance(problem):
    """Calibration marginal covariance of one standalone segment problem,
    in the gauge of its anchor_projectors."""
    K = len(problem.keyframes)
    th0 = K * KF_DIM
    n_cols = th0 + CALIB_DIM
    cam, (k0, k1, _, J0, J1, Jthi), anchors = gauged_blocks(problem)
    R_cam, diag_values = _camera_triangle(problem, cam, anchors)
    n_cam = R_cam.shape[0]
    A = np.zeros((n_cam + 15 * k0.size, n_cols))
    if A.shape[0] < n_cols:
        return _deficient_covariance()

    pose_cols = (np.arange(K)[:, None] * KF_DIM + np.arange(POSE_DIM)).ravel()
    A[:n_cam, np.concatenate([pose_cols, th0 + np.arange(CAM_BLOCK.start, CAM_BLOCK.stop)])] = R_cam
    pairs = A[n_cam:].reshape(-1, 15, n_cols)
    _place_blocks(pairs, k0 * KF_DIM, J0)
    _place_blocks(pairs, k1 * KF_DIM, J1)
    pairs[:, :, th0 + IMU_BLOCK.start : th0 + IMU_BLOCK.stop] = Jthi

    R = _triangle(A)
    diag_values = np.concatenate(diag_values + [np.abs(np.diag(R))])
    if diag_values.min() < RANK_TOLERANCE * max(diag_values.max(), 1e-300):
        return _deficient_covariance()
    return _covariance_from_triangle(R[-CALIB_DIM:, -CALIB_DIM:])


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
        logdet = 2.0 * float(np.sum(np.log(np.diag(C))))
        d_opt = math.exp(logdet)
        entropy = 0.5 * (k * _LN_2PIE + logdet)
    except np.linalg.LinAlgError:
        # numerically singular but PSD within tolerance: no volume left
        d_opt = 0.0
        entropy = float("-inf")
    return SegmentScore(a_opt, d_opt, e_opt, entropy)


def reference_sigmas(covariances) -> MetricNormalization:
    """Per-parameter median of the corpus standard deviations."""
    usable = [c for c in covariances if not c.rank_deficient]
    if not usable:
        raise ValueError("no full-rank covariances to take reference sigmas from")
    diags = np.stack([np.sqrt(np.diag(c.matrix)) for c in usable])
    return MetricNormalization(np.median(diags, axis=0))
