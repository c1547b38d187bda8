"""Information scoring of calibration segments.

How much a segment of trajectory would sharpen the calibration estimate is
measured through the marginal covariance of the calibration parameters in
that segment's own estimation problem.  The chain is:

    whitened Jacobian over [keyframe columns | calibration columns],
    with the gauge of problem.anchor_projectors applied as in the solver
      -> QR  ->  trailing 26x26 triangle R22  ->  Sigma = R22^-1 R22^-T
      -> normalization by reference sigmas  ->  scalar criteria

The gauge: each anchor's rotation columns are projected perpendicular to
its gravity axis u and its position columns cleared, and four unit rows
(u on the rotation columns, one per position axis) restore the rank.  No
data row touches those four directions, so R22 is that of the gauge-free
parametrization.

Landmark columns are eliminated first: each landmark's 2n x 3 Jacobian
(n observations) is factored on its own, batched over the landmarks with
equal n, and only its rows orthogonal to those three columns go on, so the
final dense factorization spans keyframe and calibration columns alone.
The trailing block of R is unaffected by the elimination order.  A
landmark seen once leaves no rows and carries no calibration information.

The scalar criteria on the normalized covariance: trace (a_opt),
determinant (d_opt, log-domain internally), largest eigenvalue (e_opt),
and the Gaussian differential entropy 0.5*ln((2*pi*e)^26 * det).
Lower is better for all of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .problem import (
    CALIB_DIM,
    CAM_BLOCK,
    IMU_BLOCK,
    KF_DIM,
    anchor_projectors,
    bridge_blocks,
    camera_blocks,
    inertial_blocks,
    refresh_preintegrations,
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

    def value(self, metric):
        """Scalar for ranking; metric is one of a_opt / d_opt / e_opt."""
        if metric not in ("a_opt", "d_opt", "e_opt"):
            raise ValueError(f"unknown metric {metric!r}")
        return getattr(self, metric)


def _covariance_from_triangle(R22):
    X = scipy.linalg.solve_triangular(R22, np.eye(R22.shape[0]), check_finite=False)
    sigma = X @ X.T
    return MarginalCovariance(0.5 * (sigma + sigma.T))


def _place_blocks(rows, k, J):
    """Write the (n, r, c) blocks J into the first c columns of keyframe
    k[i] in rows[i] (n, r, n_cols)."""
    np.put_along_axis(rows, (k * KF_DIM)[:, None, None] + np.arange(J.shape[2]), J, axis=2)


def _eliminate_landmarks(problem, counts, out):
    """Write into `out` the camera rows left after eliminating every
    landmark's three columns; returns the |diagonal| of each landmark's
    triangle, for the rank test, as one array per observation count.
    counts holds each landmark's number of observations.

    Each landmark's 2n x 3 Jacobian (n observations) is factored on its
    own, batched over the landmarks seen n times; the rows orthogonal to
    its columns say what the landmark tells about keyframes and
    calibration, untouched by eliminating it first.  A landmark seen once
    leaves no rows.  Rows are built one group at a time and written in
    place, and the group temporaries are freed on return, so none of them
    is alive during the final factorisation (peak memory).
    """
    n_cols = out.shape[1]
    th0 = n_cols - CALIB_DIM
    _, Jp, Jl, Jth, _ = camera_blocks(problem)
    ki = problem._cam_kf
    by_landmark = np.argsort(problem._cam_lm, kind="stable")
    first = np.concatenate([[0], np.cumsum(counts)[:-1]])
    diag_values = []
    row = 0
    for n in np.unique(counts[counts >= 2]):
        obs = by_landmark[first[counts == n][:, None] + np.arange(n)].ravel()
        m = obs.size
        # whitened rows over [keyframe columns | calibration]
        rows = np.zeros((m, 2, n_cols))
        _place_blocks(rows, ki[obs], Jp[obs])
        rows[:, :, th0 + CAM_BLOCK.start : th0 + CAM_BLOCK.stop] = Jth[obs]
        Q, R = np.linalg.qr(Jl[obs].reshape(-1, 2 * n, 3), mode="complete")
        diag_values.append(np.abs(np.diagonal(R, axis1=-2, axis2=-1)).ravel())
        rest = (np.swapaxes(Q[:, :, 3:], -1, -2) @ rows.reshape(-1, 2 * n, n_cols)).reshape(-1, n_cols)
        out[row : row + len(rest)] = rest
        row += len(rest)
    return diag_values


def segment_marginal_covariance(problem):
    """Calibration marginal covariance of one standalone segment problem,
    in the gauge of its anchor_projectors."""
    refresh_preintegrations(problem)
    th0 = len(problem.keyframes) * KF_DIM
    n_cols = th0 + CALIB_DIM
    k0, k1, _, J0, J1, Jthi = inertial_blocks(problem)
    b0, b1, _, B0, B1 = bridge_blocks(problem)
    anchors = anchor_projectors(problem)
    # a landmark seen n >= 2 times leaves 2n - 3 camera rows, one seen once none
    counts = np.bincount(problem._cam_lm, minlength=len(problem.landmarks))
    n_cam = int(np.maximum(2 * counts - 3, 0).sum())
    n_inertial = 15 * k0.size
    n_data = n_cam + n_inertial + 6 * b0.size
    A = np.zeros((n_data + 4 * len(anchors), n_cols))
    if A.shape[0] < n_cols:
        return _deficient_covariance()

    diag_values = _eliminate_landmarks(problem, counts, A[:n_cam])
    inertial = A[n_cam : n_cam + n_inertial].reshape(-1, 15, n_cols)
    _place_blocks(inertial, k0, J0)
    _place_blocks(inertial, k1, J1)
    inertial[:, :, th0 + IMU_BLOCK.start : th0 + IMU_BLOCK.stop] = Jthi
    bridge = A[n_cam + n_inertial : n_data].reshape(-1, 6, n_cols)
    _place_blocks(bridge, b0, B0)
    _place_blocks(bridge, b1, B1)
    gauge = A[n_data:].reshape(-1, 4, n_cols)
    for (a, P, u), rows in zip(anchors, gauge):
        rot, pos = slice(a * KF_DIM, a * KF_DIM + 3), slice(a * KF_DIM + 3, a * KF_DIM + 6)
        A[:, rot] = A[:, rot] @ P
        A[:, pos] = 0.0
        rows[0, rot] = u
        rows[1:, pos] = np.eye(3)

    R = scipy.linalg.qr(A, mode="r", check_finite=False)[0][:n_cols, :]
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
    """Scalar optimality criteria of a normalized marginal covariance."""
    if sigma_norm.rank_deficient:
        inf = float("inf")
        return SegmentScore(inf, inf, inf, inf, rank_deficient=True)
    m = sigma_norm.matrix
    k = m.shape[0]
    eigs = np.linalg.eigvalsh(0.5 * (m + m.T))
    if eigs.min() < -1e-9 * max(float(np.abs(eigs).max()), 1e-300):
        raise ValueError("covariance not positive semi-definite")
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
