"""Information scoring of calibration segments.

How much a segment of trajectory would sharpen the calibration estimate is
measured through the marginal covariance of the calibration parameters in
that segment's own estimation problem.  The chain is:

    whitened Jacobian (calibration columns last, gauge modes removed)
      -> QR  ->  trailing 26x26 triangle R22  ->  Sigma = R22^-1 R22^-T
      -> normalization by reference sigmas  ->  scalar criteria

Landmark columns are eliminated first by small per-landmark QR factors so
the final dense factorization only spans keyframe and calibration columns;
the trailing block of R is unaffected by the elimination order.

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


def _perp_basis(u):
    """Orthonormal 3x2 basis of the plane perpendicular to unit u."""
    e = np.zeros(3)
    e[int(np.argmin(np.abs(u)))] = 1.0
    b1 = e - (e @ u) * u
    b1 /= np.linalg.norm(b1)
    b2 = np.cross(u, b1)
    return np.column_stack([b1, b2])


def _keyframe_transforms(problem):
    """Per-keyframe 15 x n_k maps onto retained gauge-free columns.

    Anchor rotations map onto a 2-column basis perpendicular to the gravity
    axis; masked coordinates are dropped entirely.
    """
    anchor_axis = {a: u for a, _, u in anchor_projectors(problem)}
    maps, offsets = [], []
    off = 0
    for k in range(len(problem.keyframes)):
        masked = problem.constant_mask["keyframes"][k]
        cols = []
        start = 0
        if k in anchor_axis:
            B = _perp_basis(anchor_axis[k])
            for j in range(2):
                col = np.zeros(KF_DIM)
                col[0:3] = B[:, j]
                cols.append(col)
            start = 3
        for i in range(start, KF_DIM):
            if not masked[i]:
                col = np.zeros(KF_DIM)
                col[i] = 1.0
                cols.append(col)
        T = np.column_stack(cols) if cols else np.zeros((KF_DIM, 0))
        maps.append(T)
        offsets.append(off)
        off += T.shape[1]
    return maps, offsets, off


def _covariance_from_triangle(R22):
    X = scipy.linalg.solve_triangular(R22, np.eye(R22.shape[0]), check_finite=False)
    sigma = X @ X.T
    return MarginalCovariance(0.5 * (sigma + sigma.T))


def segment_marginal_covariance(problem):
    """Calibration marginal covariance of one standalone segment problem.

    The problem carries its own gauge fixing (anchor position masked,
    anchor yaw projected); those modes are removed from the column space
    before factorization so the information matrix is invertible.
    """
    refresh_preintegrations(problem)
    maps, offsets, n_kf_cols = _keyframe_transforms(problem)
    if np.any(problem.constant_mask["landmarks"]):
        raise ValueError("masked landmark coordinates are not supported in scoring")
    L = len(problem.landmarks)
    n_cols = n_kf_cols + CALIB_DIM
    th0 = n_kf_cols

    r_c, Jp, Jl, Jth, _ = camera_blocks(problem)
    ki = problem._cam_kf
    li = problem._cam_lm
    diag_values = []
    remainder_rows = []

    # eliminate each landmark's three columns with a local QR; what the
    # remaining rows say about keyframes and calibration is untouched by
    # doing this first
    for m in range(L):
        sel = np.flatnonzero(li == m)
        n_obs = sel.size
        if 2 * n_obs < 3:
            return _deficient_covariance()
        kfs = sorted(set(int(ki[i]) for i in sel))
        loc = {k: j for j, k in enumerate(kfs)}
        widths = [maps[k].shape[1] for k in kfs]
        starts = np.concatenate([[0], np.cumsum(widths)])[:-1]
        w_all = int(sum(widths))
        M = np.zeros((2 * n_obs, 3 + w_all + 11))
        for j, i in enumerate(sel):
            k = int(ki[i])
            s0 = 3 + starts[loc[k]]
            M[2 * j : 2 * j + 2, 0:3] = Jl[i]
            M[2 * j : 2 * j + 2, s0 : s0 + widths[loc[k]]] = Jp[i] @ maps[k][:6]
            M[2 * j : 2 * j + 2, 3 + w_all :] = Jth[i]
        R = scipy.linalg.qr(M, mode="r", check_finite=False)[0]
        diag_values.extend(np.abs(np.diag(R)[:3]))
        rest = R[3:, 3:]
        cols = np.concatenate(
            [offsets[k] + np.arange(maps[k].shape[1]) for k in kfs]
            + [th0 + np.arange(CAM_BLOCK.start, CAM_BLOCK.stop)]
        )
        for row in rest:
            full = np.zeros(n_cols)
            full[cols] = row
            remainder_rows.append(full)

    inertial = inertial_blocks(problem)
    bridges = bridge_blocks(problem)
    n_tail = len(remainder_rows) + 15 * len(inertial[0]) + 6 * len(bridges[0])
    A = np.zeros((n_tail, n_cols))
    if remainder_rows:
        A[: len(remainder_rows)] = np.asarray(remainder_rows)
    base = len(remainder_rows)
    for k0, k1, rw, J0w, J1w, Jthw in zip(*inertial):
        A[base : base + 15, offsets[k0] : offsets[k0] + maps[k0].shape[1]] = J0w @ maps[k0]
        A[base : base + 15, offsets[k1] : offsets[k1] + maps[k1].shape[1]] = J1w @ maps[k1]
        A[base : base + 15, th0 + IMU_BLOCK.start : th0 + IMU_BLOCK.stop] = Jthw
        base += 15
    for k0, k1, rw, J0w, J1w in zip(*bridges):
        A[base : base + 6, offsets[k0] : offsets[k0] + maps[k0].shape[1]] = J0w @ maps[k0]
        A[base : base + 6, offsets[k1] : offsets[k1] + maps[k1].shape[1]] = J1w @ maps[k1]
        base += 6

    if A.shape[0] < n_cols:
        return _deficient_covariance()
    R = scipy.linalg.qr(A, mode="r", check_finite=False)[0][:n_cols, :]
    diag_values.extend(np.abs(np.diag(R)))
    diag_values = np.asarray(diag_values)
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
