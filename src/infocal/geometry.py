"""Rotation and rigid-transform primitives.

Quaternions are Hamilton, stored (w, x, y, z), and used passively: the
quaternion q_AB (equivalently the matrix R_AB) maps coordinates of a vector
from frame B into frame A, p_A = R_AB p_B + p_AB.  Solver increments live in
the tangent space and are applied by right-multiplication of the exponential
map, q' = q * exp(delta), so states never leave the unit sphere.

Most functions accept stacked inputs (leading batch dimensions) because the
factor assembly works on whole keyframe arrays at once.
"""

from __future__ import annotations

import numpy as np

# the largest magnitude of an input quantity in SI units and pixels, which
# keeps the cost finite; times exempt (epoch timestamps are about 1.7e9 s)
MAX_MAGNITUDE = 1e9
_SMALL_ANGLE = 1e-8


def quat_normalize(q):
    q = np.asarray(q, dtype=float)
    return q / np.linalg.norm(q, axis=-1, keepdims=True)


def quat_mul(a, b):
    """Hamilton product a*b; composes rotations q_AC = q_AB * q_BC."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    aw, ax, ay, az = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    bw, bx, by, bz = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    return np.stack(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ],
        axis=-1,
    )


def quat_conj(q):
    q = np.asarray(q, dtype=float)
    out = q.copy()
    out[..., 1:] *= -1.0
    return out


def quat_to_matrix(q):
    """Rotation matrix R with R @ p equal to rotating p by q."""
    q = np.asarray(q, dtype=float)
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    xx, yy, zz = x * x, y * y, z * z
    xy, xz, yz = x * y, x * z, y * z
    wx, wy, wz = w * x, w * y, w * z
    m = np.empty(q.shape[:-1] + (3, 3), dtype=float)
    m[..., 0, 0] = 1.0 - 2.0 * (yy + zz)
    m[..., 0, 1] = 2.0 * (xy - wz)
    m[..., 0, 2] = 2.0 * (xz + wy)
    m[..., 1, 0] = 2.0 * (xy + wz)
    m[..., 1, 1] = 1.0 - 2.0 * (xx + zz)
    m[..., 1, 2] = 2.0 * (yz - wx)
    m[..., 2, 0] = 2.0 * (xz - wy)
    m[..., 2, 1] = 2.0 * (yz + wx)
    m[..., 2, 2] = 1.0 - 2.0 * (xx + yy)
    return m


def matrix_to_quat(m):
    """Inverse of quat_to_matrix (Shepperd's method), w >= 0."""
    m = np.asarray(m, dtype=float)
    m00, m11, m22 = m[..., 0, 0], m[..., 1, 1], m[..., 2, 2]
    t = m00 + m11 + m22
    d21, d02, d10 = m[..., 2, 1] - m[..., 1, 2], m[..., 0, 2] - m[..., 2, 0], m[..., 1, 0] - m[..., 0, 1]
    s01, s02, s12 = m[..., 0, 1] + m[..., 1, 0], m[..., 0, 2] + m[..., 2, 0], m[..., 1, 2] + m[..., 2, 1]
    # All four candidates; the branches not taken may divide by zero or
    # take the root of a negative number.
    with np.errstate(invalid="ignore", divide="ignore"):
        s0, s1, s2, s3 = (
            np.sqrt(x) * 2.0
            for x in (t + 1.0, 1.0 + m00 - m11 - m22, 1.0 - m00 + m11 - m22, 1.0 - m00 - m11 + m22)
        )
        cand = np.stack(
            [
                np.stack([0.25 * s0, d21 / s0, d02 / s0, d10 / s0], axis=-1),
                np.stack([d21 / s1, 0.25 * s1, s01 / s1, s02 / s1], axis=-1),
                np.stack([d02 / s2, s01 / s2, 0.25 * s2, s12 / s2], axis=-1),
                np.stack([d10 / s3, s02 / s3, s12 / s3, 0.25 * s3], axis=-1),
            ],
            axis=-2,
        )
    # Branch on the largest of (trace, m00, m11, m22) for stability.
    choice = np.argmax(np.stack([t, m00, m11, m22], axis=-1), axis=-1)
    q = np.take_along_axis(cand, choice[..., None, None], axis=-2)[..., 0, :]
    return quat_normalize(np.where(q[..., :1] < 0.0, -q, q))


def quat_exp(phi):
    """Map a rotation vector (axis * angle, rad) to a unit quaternion."""
    phi = np.asarray(phi, dtype=float)
    angle = np.linalg.norm(phi, axis=-1, keepdims=True)
    half = 0.5 * angle
    # sin(a/2)/a with series fallback near zero
    small = angle < _SMALL_ANGLE
    with np.errstate(invalid="ignore", divide="ignore"):
        k = np.where(small, 0.5 - angle * angle / 48.0, np.sin(half) / np.where(angle == 0.0, 1.0, angle))
    w = np.cos(half)
    return np.concatenate([w, k * phi], axis=-1)


def quat_log(q):
    """Rotation vector of q; inverse of quat_exp; magnitude in [0, pi]."""
    q = np.asarray(q, dtype=float)
    q = np.where(q[..., :1] < 0.0, -q, q)
    n = np.linalg.norm(q[..., 1:], axis=-1, keepdims=True)
    w = q[..., :1]
    angle = 2.0 * np.arctan2(n, w)
    small = n < _SMALL_ANGLE
    with np.errstate(invalid="ignore", divide="ignore"):
        k = np.where(small, 2.0 / np.where(w == 0.0, 1.0, w), angle / np.where(n == 0.0, 1.0, n))
    return k * q[..., 1:]


def so3_hat(v):
    v = np.asarray(v, dtype=float)
    out = np.zeros(v.shape[:-1] + (3, 3), dtype=float)
    out[..., 0, 1] = -v[..., 2]
    out[..., 0, 2] = v[..., 1]
    out[..., 1, 0] = v[..., 2]
    out[..., 1, 2] = -v[..., 0]
    out[..., 2, 0] = -v[..., 1]
    out[..., 2, 1] = v[..., 0]
    return out


def so3_exp(phi):
    """Rodrigues formula, batched, with series fallback near zero."""
    phi = np.asarray(phi, dtype=float)
    theta2 = np.sum(phi * phi, axis=-1)
    theta = np.sqrt(theta2)
    small = theta < _SMALL_ANGLE
    with np.errstate(invalid="ignore", divide="ignore"):
        a = np.where(small, 1.0 - theta2 / 6.0, np.sin(theta) / np.where(theta == 0.0, 1.0, theta))
        b = np.where(small, 0.5 - theta2 / 24.0, (1.0 - np.cos(theta)) / np.where(theta2 == 0.0, 1.0, theta2))
    k = so3_hat(phi)
    kk = k @ k
    eye = np.broadcast_to(np.eye(3), k.shape)
    return eye + a[..., None, None] * k + b[..., None, None] * kk


def so3_log(rot):
    return quat_log(matrix_to_quat(rot))


def so3_right_jacobian(phi):
    """J_r with Exp(phi + d) ~ Exp(phi) Exp(J_r(phi) d)."""
    phi = np.asarray(phi, dtype=float)
    theta2 = np.sum(phi * phi, axis=-1)
    theta = np.sqrt(theta2)
    small = theta < _SMALL_ANGLE
    with np.errstate(invalid="ignore", divide="ignore"):
        b = np.where(small, 0.5 - theta2 / 24.0, (1.0 - np.cos(theta)) / np.where(theta2 == 0.0, 1.0, theta2))
        c = np.where(
            small,
            1.0 / 6.0 - theta2 / 120.0,
            (theta - np.sin(theta)) / np.where(theta2 == 0.0, 1.0, theta2 * theta),
        )
    k = so3_hat(phi)
    kk = k @ k
    eye = np.broadcast_to(np.eye(3), k.shape)
    return eye - b[..., None, None] * k + c[..., None, None] * kk


def so3_right_jacobian_inv(phi):
    phi = np.asarray(phi, dtype=float)
    theta2 = np.sum(phi * phi, axis=-1)
    theta = np.sqrt(theta2)
    small = theta < _SMALL_ANGLE
    with np.errstate(invalid="ignore", divide="ignore"):
        half = 0.5 * theta
        cot = np.where(small, 0.0, np.cos(half) / np.where(theta == 0.0, 1.0, np.sin(half)))
        d = np.where(
            small,
            1.0 / 12.0 + theta2 / 720.0,
            (1.0 / np.where(theta2 == 0.0, 1.0, theta2)) - cot / (2.0 * np.where(theta == 0.0, 1.0, theta)),
        )
    k = so3_hat(phi)
    kk = k @ k
    eye = np.broadcast_to(np.eye(3), k.shape)
    return eye + 0.5 * k + d[..., None, None] * kk


def quat_retract(q, delta):
    """Apply a MinimalRotationDelta: q' = q * exp(delta)."""
    return quat_normalize(quat_mul(q, quat_exp(delta)))


def rotation_angle(q):
    """Absolute rotation angle of q in radians, in [0, pi]."""
    return np.linalg.norm(quat_log(q), axis=-1)


class UnitQuaternion:
    """Unit quaternion (w, x, y, z); normalized on construction."""

    __slots__ = ("wxyz",)

    def __init__(self, w, x, y, z):
        arr = np.array([w, x, y, z], dtype=float)
        n = np.linalg.norm(arr)
        if not np.isfinite(n) or n == 0.0:
            raise ValueError("cannot normalize zero or non-finite quaternion")
        self.wxyz = arr / n

    @classmethod
    def from_array(cls, q):
        q = np.asarray(q, dtype=float)
        return cls(q[0], q[1], q[2], q[3])

    @classmethod
    def from_rotation_vector(cls, phi):
        return cls.from_array(quat_exp(np.asarray(phi, dtype=float)))

    @classmethod
    def from_matrix(cls, m):
        return cls.from_array(matrix_to_quat(m))

    def matrix(self):
        return quat_to_matrix(self.wxyz)

    def retract(self, delta):
        return UnitQuaternion.from_array(quat_retract(self.wxyz, delta))

    def angle_to(self, other):
        return float(rotation_angle(quat_mul(quat_conj(self.wxyz), other.wxyz)))

    def __repr__(self):
        return "UnitQuaternion(w=%.9g, x=%.9g, y=%.9g, z=%.9g)" % tuple(self.wxyz)


class Transform:
    """Rigid transform T_AB: p_A = R_AB p_B + p_AB."""

    __slots__ = ("rotation", "translation")

    def __init__(self, rotation: UnitQuaternion, translation):
        self.rotation = rotation
        self.translation = np.array(translation, dtype=float).reshape(3)

    def __repr__(self):
        return "Transform(%r, %s)" % (self.rotation, self.translation)
