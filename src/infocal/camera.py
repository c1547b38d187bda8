"""Pinhole camera with field-of-view (fisheye) radial distortion.

The model maps a camera-frame point l_C through perspective division
p_bar = (l_x/l_z, l_y/l_z), scales by the radial factor beta(r) with
r = |p_bar|, and applies focal lengths and principal point:

    uv = (beta * f_x * p_bar_x + c_x, beta * f_y * p_bar_y + c_y)
    beta(r) = arctan(2 tan(w/2) r) / (w r)

Below SERIES_SWITCH_R the quotient is evaluated by its even Taylor series
to avoid the 0/0 at the image center.  All Jacobians here are analytic;
finite differences are only used in tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import MAX_MAGNITUDE, Transform, quat_to_matrix, so3_hat

SERIES_SWITCH_R = 1e-4


@dataclass(frozen=True)
class CameraIntrinsics:
    """Focal lengths (px), principal point (px), FOV distortion parameter."""

    f: np.ndarray
    c: np.ndarray
    w: float

    def __post_init__(self):
        object.__setattr__(self, "f", np.array(self.f, dtype=float).reshape(2))
        object.__setattr__(self, "c", np.array(self.c, dtype=float).reshape(2))
        object.__setattr__(self, "w", float(self.w))
        if not (self.f > 0.0).all():
            raise ValueError("focal lengths must be positive")
        if not 0.0 < self.w < math.pi:
            raise ValueError("distortion parameter w must lie in (0, pi)")


@dataclass(frozen=True)
class CameraExtrinsics:
    """Pose of the camera frame relative to the IMU frame, p_C = T_CI(p_I)."""

    T_CI: Transform


@dataclass(frozen=True)
class FeatureObservation:
    keyframe_id: int
    landmark_id: int
    uv: np.ndarray
    sigma: float

    def __post_init__(self):
        object.__setattr__(self, "uv", np.array(self.uv, dtype=float).reshape(2))
        object.__setattr__(self, "sigma", float(self.sigma))
        if not (math.isfinite(self.sigma) and self.sigma > 0.0):
            raise ValueError("observation sigma must be positive and finite")
        if not (np.abs(self.uv) <= MAX_MAGNITUDE).all():
            raise ValueError(f"observation pixel coordinates must be finite and within {MAX_MAGNITUDE:g}")


def distortion_factor(r, w):
    """Radial scaling beta(r); series expansion below SERIES_SWITCH_R."""
    r = np.asarray(r, dtype=float)
    if np.any(r < 0.0):
        raise ValueError("radius must be non-negative")
    a = 2.0 * math.tan(0.5 * w)
    small = r < SERIES_SWITCH_R
    rs = np.where(small, 0.0, r)
    with np.errstate(invalid="ignore", divide="ignore"):
        general = np.arctan(a * rs) / (w * np.where(small, 1.0, rs))
    ar2 = (a * r) ** 2
    series = (a / w) * (1.0 - ar2 / 3.0 + ar2 * ar2 / 5.0)
    out = np.where(small, series, general)
    return float(out) if out.ndim == 0 else out


def distortion_gradients(r, w):
    """(beta, beta_r/r, dbeta/dw) for the FOV model, batched over r.

    beta_r/r is returned instead of beta_r because the Jacobian assembly
    needs exactly that quotient and it stays finite at r = 0.
    """
    r = np.asarray(r, dtype=float)
    t = math.tan(0.5 * w)
    a = 2.0 * t
    a_w = 1.0 + t * t  # da/dw
    beta = distortion_factor(r, w)
    beta = np.asarray(beta, dtype=float)
    u2 = (a * r) ** 2
    small = r < SERIES_SWITCH_R
    rs = np.where(small, 1.0, r)
    with np.errstate(invalid="ignore", divide="ignore"):
        general = (a / (w * (1.0 + u2)) - beta) / (rs * rs)
    series = (a / w) * (-2.0 * a * a / 3.0 + 0.8 * (a ** 4) * r * r)
    beta_r_over_r = np.where(small, series, general)
    dbeta_dw = a_w / (w * (1.0 + u2)) - beta / w
    return beta, beta_r_over_r, dbeta_dw


def _uv_core_jacobians(l_C, intr: CameraIntrinsics):
    """(uv, A=duv/dl_C, duv/df, duv/dw) batched over leading dims of l_C."""
    l_C = np.asarray(l_C, dtype=float)
    z = l_C[..., 2]
    zs = np.where(z > 0.0, z, 1.0)
    p_bar = l_C[..., :2] / zs[..., None]
    r = np.linalg.norm(p_bar, axis=-1)
    beta, beta_r_over_r, dbeta_dw = distortion_gradients(r, intr.w)
    uv = beta[..., None] * intr.f * p_bar + intr.c

    # duv/dp_bar = diag(f) (beta I + (beta_r/r) p_bar p_bar^T)
    outer = p_bar[..., :, None] * p_bar[..., None, :]
    duv_dpbar = beta[..., None, None] * np.broadcast_to(np.eye(2), outer.shape).copy()
    duv_dpbar = duv_dpbar + beta_r_over_r[..., None, None] * outer
    duv_dpbar = intr.f[:, None] * duv_dpbar

    # dp_bar/dl_C = [[1/z, 0, -x/z^2], [0, 1/z, -y/z^2]]
    dpbar_dl = np.zeros(l_C.shape[:-1] + (2, 3), dtype=float)
    inv_z = 1.0 / zs
    dpbar_dl[..., 0, 0] = inv_z
    dpbar_dl[..., 1, 1] = inv_z
    dpbar_dl[..., 0, 2] = -p_bar[..., 0] * inv_z
    dpbar_dl[..., 1, 2] = -p_bar[..., 1] * inv_z

    A = duv_dpbar @ dpbar_dl
    duv_df = np.zeros(l_C.shape[:-1] + (2, 2), dtype=float)
    duv_df[..., 0, 0] = beta * p_bar[..., 0]
    duv_df[..., 1, 1] = beta * p_bar[..., 1]
    duv_dw = (intr.f * p_bar) * dbeta_dw[..., None]
    return uv, A, duv_df, duv_dw


def camera_factor_blocks(q_GI, p_GI, R_CI, p_CI, l_G, intr: CameraIntrinsics):
    """Vectorized residual-model blocks for many observations at once.

    q_GI, p_GI: (N,4), (N,3) keyframe poses (global from IMU).
    l_G: (N,3) landmark positions matched per observation.
    Returns (uv_pred, valid, J_pose (N,2,6), J_l (N,2,3), J_extr (N,2,6),
    J_intr (N,2,5)); rows with valid=False carry zeros.
    """
    R_GI = quat_to_matrix(q_GI)
    d = l_G - p_GI
    l_I = (d[:, None, :] @ R_GI)[:, 0]  # R_GI^T d
    l_C = l_I @ R_CI.T + p_CI
    z = l_C[:, 2]
    valid = z > 0.0
    uv, A, duv_df, duv_dw = _uv_core_jacobians(l_C, intr)

    R_CIG = R_CI @ R_GI.swapaxes(-1, -2)  # R_CI @ R_GI^T per row
    A_RCI = A @ R_CI
    J_l = A @ R_CIG
    A_RCI_li = A_RCI @ so3_hat(l_I)
    J_pose = np.concatenate([A_RCI_li, -J_l], axis=-1)
    J_extr = np.concatenate([-A_RCI_li, A], axis=-1)
    eye2 = np.broadcast_to(np.eye(2), duv_df.shape).copy()
    J_intr = np.concatenate([duv_df, eye2, duv_dw[:, :, None]], axis=-1)

    m = valid[:, None]
    uv = np.where(m, uv, 0.0)
    mm = valid[:, None, None]
    return (
        uv,
        valid,
        np.where(mm, J_pose, 0.0),
        np.where(mm, J_l, 0.0),
        np.where(mm, J_extr, 0.0),
        np.where(mm, J_intr, 0.0),
    )

