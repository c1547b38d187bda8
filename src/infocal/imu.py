"""Inertial measurement models and preintegration.

Measurement models (gyro and accelerometer):

    omega_meas = T_g * omega + b_g + eta_g
    accel_meas = T_a * R_AI * R_IG * (a_G - g_G) + b_a + eta_a

T_g and T_a are upper-triangular correction matrices carrying scale and
misalignment, R_AI rotates the accelerometer triad relative to the gyro
frame, and g_G = (0, 0, -gravity_magnitude) in the gravity-aligned global
frame.  Biases follow independent random walks.

Preintegration integrates corrected samples over keyframe intervals with
the midpoint rule, in one recursion batched over intervals of equal sample
count (preintegrate_intervals; preintegrate is a batch of one).  The stored
delta_velocity / delta_position include the nominal-gravity contribution
evaluated as if the interval started at identity attitude, so a static
interval integrates to exactly zero deltas; inertial_error removes that
contribution again using its gravity argument before comparing against the
state difference.  The 9x9 covariance (rot, vel, pos) and the first-order
sensitivities to the bias linearization point and to the IMU intrinsics are
propagated step by step alongside the deltas.

The noise model of the 15-dim inertial residual (preintegration covariance,
then the gyro- and accel-bias random walks over the interval, in residual
row order) is defined once, by inertial_sqrt_information; inertial_weight
and every whitened inertial block derive from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .geometry import (
    UnitQuaternion,
    matrix_to_quat,
    quat_to_matrix,
    so3_exp,
    so3_hat,
    so3_log,
    so3_right_jacobian,
    so3_right_jacobian_inv,
)

STANDARD_GRAVITY = 9.80665

# Column layout of the 21 preintegration sensitivity parameters:
# biases first (the classic 9x6 bias Jacobian), then the 15 IMU intrinsics
# in calibration order.
_P_BG = slice(0, 3)
_P_BA = slice(3, 6)
_P_SG = slice(6, 9)
_P_SA = slice(9, 12)
_P_MG = slice(12, 15)
_P_MA = slice(15, 18)
_P_QAI = slice(18, 21)
N_IMU_PARAMS = 15


def correction_matrix(s, m):
    """Upper-triangular scale/misalignment matrix.

    Diagonal carries the scale factors, the strict upper triangle the
    misalignment terms in the order (0,1), (0,2), (1,2).
    """
    s = np.asarray(s, dtype=float).reshape(3)
    m = np.asarray(m, dtype=float).reshape(3)
    return np.array(
        [
            [s[0], m[0], m[1]],
            [0.0, s[1], m[2]],
            [0.0, 0.0, s[2]],
        ]
    )


@dataclass(frozen=True)
class ImuIntrinsics:
    """Gyro/accelerometer scale, misalignment, and accelerometer rotation."""

    s_g: np.ndarray
    s_a: np.ndarray
    m_g: np.ndarray
    m_a: np.ndarray
    q_AI: UnitQuaternion

    def __post_init__(self):
        for name in ("s_g", "s_a", "m_g", "m_a"):
            object.__setattr__(self, name, np.array(getattr(self, name), dtype=float).reshape(3))
        if not (self.s_g > 0.0).all() or not (self.s_a > 0.0).all():
            raise ValueError("correction-matrix diagonals must stay positive")

    @classmethod
    def nominal(cls):
        return cls(np.ones(3), np.ones(3), np.zeros(3), np.zeros(3), UnitQuaternion.identity())

    def T_g(self):
        return correction_matrix(self.s_g, self.m_g)

    def T_a(self):
        return correction_matrix(self.s_a, self.m_a)

    def R_AI(self):
        return self.q_AI.matrix()


@dataclass(frozen=True)
class ImuSample:
    t: float
    omega_meas: np.ndarray
    accel_meas: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "omega_meas", np.array(self.omega_meas, dtype=float).reshape(3))
        object.__setattr__(self, "accel_meas", np.array(self.accel_meas, dtype=float).reshape(3))


@dataclass(frozen=True)
class NoiseModel:
    """Continuous-time noise densities plus the fixed gravity magnitude."""

    sigma_g: float = 2.0e-4
    sigma_a: float = 2.0e-3
    sigma_bg: float = 1.0e-5
    sigma_ba: float = 1.0e-4
    sigma_c: float = 0.5
    gravity_magnitude: float = STANDARD_GRAVITY

    def __post_init__(self):
        for name in ("sigma_g", "sigma_a", "sigma_bg", "sigma_ba", "sigma_c", "gravity_magnitude"):
            if getattr(self, name) <= 0.0:
                raise ValueError("%s must be strictly positive" % name)

    def gravity_vector(self):
        return np.array([0.0, 0.0, -self.gravity_magnitude])


def simulate_gyro(omega_true_I, intr: ImuIntrinsics, b_g, noise):
    """Forward gyro model: T_g * omega + b_g + noise sample."""
    return intr.T_g() @ np.asarray(omega_true_I, dtype=float) + np.asarray(b_g, dtype=float) + np.asarray(noise, dtype=float)


def simulate_accel(a_true_G, R_IG_k, intr: ImuIntrinsics, b_a, noise, gravity=None):
    """Forward accelerometer model: T_a R_AI R_IG (a_G - g_G) + b_a + noise."""
    if gravity is None:
        gravity = np.array([0.0, 0.0, -STANDARD_GRAVITY])
    f_I = np.asarray(R_IG_k, dtype=float) @ (np.asarray(a_true_G, dtype=float) - np.asarray(gravity, dtype=float))
    return intr.T_a() @ (intr.R_AI() @ f_I) + np.asarray(b_a, dtype=float) + np.asarray(noise, dtype=float)


def correct_measurements(sample: ImuSample, intr: ImuIntrinsics, biases):
    """Invert the measurement models at given biases.

    Returns (omega, specific_force) in the IMU frame; exact inverse of
    simulate_gyro / simulate_accel at zero noise.
    """
    b_g, b_a = (np.asarray(b, dtype=float).reshape(3) for b in biases)
    omega = np.linalg.solve(intr.T_g(), sample.omega_meas - b_g)
    f = intr.R_AI().T @ np.linalg.solve(intr.T_a(), sample.accel_meas - b_a)
    return omega, f


@dataclass(frozen=True)
class PreintegratedImu:
    """Inter-keyframe IMU constraint built from one sample run.

    covariance rows/columns are ordered (rotation, velocity, position);
    bias_jacobians columns are (gyro bias, accel bias); param_jacobians
    columns follow the IMU-intrinsics calibration order
    (s_g, s_a, m_g, m_a, accelerometer rotation).
    """

    delta_rotation_matrix: np.ndarray
    delta_velocity: np.ndarray
    delta_position: np.ndarray
    duration: float
    covariance: np.ndarray
    bias_linearization: tuple
    bias_jacobians: np.ndarray
    param_jacobians: np.ndarray
    noise: NoiseModel

    def __post_init__(self):
        if self.duration <= 0.0:
            raise ValueError("preintegration duration must be positive")

    @property
    def delta_rotation(self) -> UnitQuaternion:
        return UnitQuaternion.from_array(matrix_to_quat(self.delta_rotation_matrix))


def preintegrate(samples, intr: ImuIntrinsics, bias_lin, noise: NoiseModel) -> PreintegratedImu:
    """Midpoint-rule preintegration of one keyframe interval.

    samples must hold at least two entries with strictly increasing
    timestamps; bias_lin = (b_g, b_a) is the linearization point baked into
    the deltas and recorded for later first-order re-correction.  A batch of
    one for preintegrate_intervals.
    """
    if len(samples) < 2:
        raise ValueError("need at least two samples to integrate")
    t = np.array([s.t for s in samples])
    if not np.all(np.diff(t) > 0.0):
        raise ValueError("sample timestamps must be strictly increasing")
    return preintegrate_intervals(
        t[None],
        np.stack([s.omega_meas for s in samples])[None],
        np.stack([s.accel_meas for s in samples])[None],
        intr,
        np.asarray(bias_lin[0], dtype=float).reshape(1, 3),
        np.asarray(bias_lin[1], dtype=float).reshape(1, 3),
        noise,
    )[0]


def _rotmat(q):
    """Rotation matrix from either a UnitQuaternion or a (w,x,y,z) array."""
    if isinstance(q, UnitQuaternion):
        return q.matrix()
    return quat_to_matrix(np.asarray(q, dtype=float))


def _bias_corrected_deltas(pre: PreintegratedImu, b_g, b_a, gravity):
    """Deltas re-corrected to (b_g, b_a), gravity contribution removed."""
    db_g = np.asarray(b_g, dtype=float) - pre.bias_linearization[0]
    db_a = np.asarray(b_a, dtype=float) - pre.bias_linearization[1]
    J = pre.bias_jacobians
    xi = J[0:3, 0:3] @ db_g
    dR = pre.delta_rotation_matrix @ so3_exp(xi)
    dt = pre.duration
    g = np.asarray(gravity, dtype=float)
    dv = pre.delta_velocity - g * dt + J[3:6, 0:3] @ db_g + J[3:6, 3:6] @ db_a
    dp = pre.delta_position - 0.5 * g * dt * dt + J[6:9, 0:3] @ db_g + J[6:9, 3:6] @ db_a
    return dR, dv, dp, xi


def inertial_error(x_k, x_k1, pre: PreintegratedImu, gravity):
    """15-residual (rot, vel, pos, gyro-bias walk, accel-bias walk) + weight.

    x_k and x_k1 expose q_GI, p_GI, v_GI, b_a, b_g.  The weight is the
    inverse of blockdiag(preintegration covariance, bias random-walk
    covariances over the interval).
    """
    r = _inertial_residual(x_k, x_k1, pre, gravity)
    return r, inertial_weight(pre)


def _inertial_residual(x_k, x_k1, pre, gravity):
    # orientation: preintegrated delta minus the state-implied delta, so a
    # position bump on x_k1 moves the position block by -R_k^T delta; bias
    # rows keep the plain forward difference b(k+1) - b(k)
    g = np.asarray(gravity, dtype=float)
    dt = pre.duration
    dR, dv, dp, _ = _bias_corrected_deltas(pre, x_k.b_g, x_k.b_a, g)
    R_k = _rotmat(x_k.q_GI)
    R_k1 = _rotmat(x_k1.q_GI)
    e_rot = so3_log(R_k1.T @ R_k @ dR)
    e_v = dv - R_k.T @ (x_k1.v_GI - x_k.v_GI - g * dt)
    e_p = dp - R_k.T @ (x_k1.p_GI - x_k.p_GI - x_k.v_GI * dt - 0.5 * g * dt * dt)
    e_bg = x_k1.b_g - x_k.b_g
    e_ba = x_k1.b_a - x_k.b_a
    return np.concatenate([e_rot, e_v, e_p, e_bg, e_ba])


def bias_walk_sigmas(noise: NoiseModel, dt):
    """Standard deviations of the bias random-walk residual (gyro, accel) over dt."""
    return np.repeat([noise.sigma_bg, noise.sigma_ba], 3) * math.sqrt(dt)


def inertial_sqrt_information(pre: PreintegratedImu):
    """15x15 whitening A of the inertial residual in its row order.

    A = blockdiag(L^-1, diag(1 / bias_walk_sigmas)) with L the lower
    Cholesky factor of the preintegration covariance, so A r has unit
    covariance and the weight is A^T A.
    """
    A = np.zeros((15, 15))
    L = np.linalg.cholesky(pre.covariance)
    A[0:9, 0:9] = scipy.linalg.solve_triangular(L, np.eye(9), lower=True, check_finite=False)
    A[9:15, 9:15] = np.diag(1.0 / bias_walk_sigmas(pre.noise, pre.duration))
    return A


def inertial_weight(pre: PreintegratedImu):
    """Inverse block-diagonal covariance of the 15-dim inertial residual,
    A^T A of inertial_sqrt_information."""
    A = inertial_sqrt_information(pre)
    return A.T @ A


def inertial_error_jacobians(x_k, x_k1, pre: PreintegratedImu, gravity):
    """Analytic Jacobians of the 15-residual.

    Returns (J_k, J_k1, J_imu): 15x15 blocks wrt the two keyframe minimal
    deltas in the order (rotation, position, velocity, accel bias, gyro
    bias), and a 15x15 block wrt the IMU intrinsics in calibration order.
    Rotation deltas act by right-multiplied exponential.
    """
    g = np.asarray(gravity, dtype=float)
    dt = pre.duration
    dR, dv, dp, xi = _bias_corrected_deltas(pre, x_k.b_g, x_k.b_a, g)
    R_k = _rotmat(x_k.q_GI)
    R_k1 = _rotmat(x_k1.q_GI)
    e_rot = so3_log(R_k1.T @ R_k @ dR)
    inv_jr = so3_right_jacobian_inv(e_rot)
    inv_jl = so3_right_jacobian_inv(-e_rot)

    w_v = R_k.T @ (x_k1.v_GI - x_k.v_GI - g * dt)
    w_p = R_k.T @ (x_k1.p_GI - x_k.p_GI - x_k.v_GI * dt - 0.5 * g * dt * dt)

    Jb = pre.bias_jacobians
    A_corr = so3_exp(xi)
    Jr_xi = so3_right_jacobian(xi)

    # column slices of the keyframe minimal coordinates
    TH, PO, VE, BA, BG = slice(0, 3), slice(3, 6), slice(6, 9), slice(9, 12), slice(12, 15)

    J_k = np.zeros((15, 15))
    J_k1 = np.zeros((15, 15))
    # rotation residual rows
    J_k[0:3, TH] = inv_jr @ dR.T
    J_k[0:3, BG] = inv_jr @ Jr_xi @ Jb[0:3, 0:3]
    J_k1[0:3, TH] = -inv_jl
    # velocity residual rows
    J_k[3:6, TH] = -so3_hat(w_v)
    J_k[3:6, VE] = R_k.T
    J_k[3:6, BG] = Jb[3:6, 0:3]
    J_k[3:6, BA] = Jb[3:6, 3:6]
    J_k1[3:6, VE] = -R_k.T
    # position residual rows
    J_k[6:9, TH] = -so3_hat(w_p)
    J_k[6:9, PO] = R_k.T
    J_k[6:9, VE] = R_k.T * dt
    J_k[6:9, BG] = Jb[6:9, 0:3]
    J_k[6:9, BA] = Jb[6:9, 3:6]
    J_k1[6:9, PO] = -R_k.T
    # bias random-walk rows
    J_k[9:12, BG] = -np.eye(3)
    J_k1[9:12, BG] = np.eye(3)
    J_k[12:15, BA] = -np.eye(3)
    J_k1[12:15, BA] = np.eye(3)

    J_imu = np.zeros((15, 15))
    Dp = pre.param_jacobians
    J_imu[0:3, :] = inv_jr @ A_corr.T @ Dp[0:3]
    J_imu[3:6, :] = Dp[3:6]
    J_imu[6:9, :] = Dp[6:9]
    return J_k, J_k1, J_imu


def preintegrate_intervals(times, omega_meas, accel_meas, intr: ImuIntrinsics, bias_lin_g, bias_lin_a, noise: NoiseModel):
    """Midpoint-rule preintegration of K intervals with equal sample counts.

    times: (K, S+1), strictly increasing along each row; omega_meas and
    accel_meas: (K, S+1, 3); bias_lin_g/a: (K, 3) per-interval
    linearization biases.  Returns one PreintegratedImu per interval.  The
    only preintegration recursion: preintegrate is a batch of one, and
    problem.refresh_preintegrations makes one call per sample count.
    """
    K, S1 = times.shape
    Tg_inv = np.linalg.inv(intr.T_g())
    Ta_inv = np.linalg.inv(intr.T_a())
    R_IA = intr.R_AI().T
    omega = np.einsum("ij,ksj->ksi", Tg_inv, omega_meas - bias_lin_g[:, None, :])
    z_a = np.einsum("ij,ksj->ksi", Ta_inv, accel_meas - bias_lin_a[:, None, :])
    f = np.einsum("ij,ksj->ksi", R_IA, z_a)

    # per-sample derivatives of the corrected (omega, f) wrt the 21
    # sensitivity parameters
    M = R_IA @ Ta_inv
    d_omega = np.zeros((K, S1, 3, 21))
    d_f = np.zeros((K, S1, 3, 21))
    d_omega[:, :, :, _P_BG] = -Tg_inv
    d_f[:, :, :, _P_BA] = -M
    # scale factors: derivative through T^{-1} is -T^{-1} E_jj (.)
    for j in range(3):
        d_omega[:, :, :, 6 + j] = -Tg_inv[:, j][None, None, :] * omega[:, :, j, None]
        d_f[:, :, :, 9 + j] = -M[:, j][None, None, :] * z_a[:, :, j, None]
    # misalignments occupy (0,1), (0,2), (1,2)
    for j, (r, c) in enumerate(((0, 1), (0, 2), (1, 2))):
        d_omega[:, :, :, 12 + j] = -Tg_inv[:, r][None, None, :] * omega[:, :, c, None]
        d_f[:, :, :, 15 + j] = -M[:, r][None, None, :] * z_a[:, :, c, None]
    # accelerometer frame rotation: f(delta) = Exp(-delta) f
    d_f[:, :, :, _P_QAI] = so3_hat(f)

    sigma_w = Tg_inv @ Tg_inv.T * noise.sigma_g ** 2
    sigma_f_dir = M @ M.T * noise.sigma_a ** 2

    dR = np.broadcast_to(np.eye(3), (K, 3, 3)).copy()
    dv = np.zeros((K, 3))
    dp = np.zeros((K, 3))
    D = np.zeros((K, 9, 21))
    P = np.zeros((K, 9, 9))
    eye3 = np.eye(3)
    for s in range(S1 - 1):
        dt = (times[:, s + 1] - times[:, s])[:, None, None]
        dt1 = dt[:, :, 0]
        theta = 0.5 * (omega[:, s] + omega[:, s + 1]) * dt1
        Rstep = so3_exp(theta)
        Jr = so3_right_jacobian(theta)
        dR_next = dR @ Rstep

        fi = f[:, s]
        fn = f[:, s + 1]
        a_i = np.einsum("kij,kj->ki", dR, fi)
        a_n = np.einsum("kij,kj->ki", dR_next, fn)
        a_mid = 0.5 * (a_i + a_n)

        # parameter sensitivities propagate through the same recursion
        S_omega = 0.5 * dt * (d_omega[:, s] + d_omega[:, s + 1])
        D_R = D[:, 0:3]
        RstepT = np.swapaxes(Rstep, -1, -2)
        D_R_next = RstepT @ D_R + Jr @ S_omega
        hat_fi = so3_hat(fi)
        hat_fn = so3_hat(fn)
        A_i = dR @ (d_f[:, s] - hat_fi @ D_R)
        A_n = dR_next @ (d_f[:, s + 1] - hat_fn @ D_R_next)
        S_a = 0.5 * (A_i + A_n)
        D_next = np.empty_like(D)
        D_next[:, 0:3] = D_R_next
        D_next[:, 3:6] = D[:, 3:6] + dt * S_a
        D_next[:, 6:9] = D[:, 6:9] + dt * D[:, 3:6] + 0.5 * dt * dt * S_a

        # covariance: delta-state transition and noise input blocks
        F = np.zeros((K, 9, 9))
        F[:, 0:3, 0:3] = RstepT
        F_vtheta = -0.5 * dt * (dR @ hat_fi + dR_next @ hat_fn @ RstepT)
        F[:, 3:6, 0:3] = F_vtheta
        F[:, 3:6, 3:6] = eye3
        F[:, 6:9, 0:3] = 0.5 * dt * F_vtheta
        F[:, 6:9, 3:6] = dt * eye3
        F[:, 6:9, 6:9] = eye3

        G_tw = dt * Jr
        G_vw = -0.5 * dt * dR_next @ hat_fn @ G_tw
        G_vf = 0.5 * dt * (dR + dR_next)
        GQG = np.zeros((K, 9, 9))
        sw = sigma_w / dt1[:, :, None]
        sf = sigma_f_dir / dt1[:, :, None]
        # assemble G Q G^T blockwise; Q = blkdiag(sw, sf)
        tw_sw = G_tw @ sw
        vw_sw = G_vw @ sw
        vf_sf = G_vf @ sf
        GQG[:, 0:3, 0:3] = tw_sw @ np.swapaxes(G_tw, -1, -2)
        GQG[:, 0:3, 3:6] = tw_sw @ np.swapaxes(G_vw, -1, -2)
        GQG[:, 0:3, 6:9] = 0.5 * dt * GQG[:, 0:3, 3:6]
        GQG[:, 3:6, 0:3] = np.swapaxes(GQG[:, 0:3, 3:6], -1, -2)
        GQG[:, 3:6, 3:6] = vw_sw @ np.swapaxes(G_vw, -1, -2) + vf_sf @ np.swapaxes(G_vf, -1, -2)
        GQG[:, 3:6, 6:9] = 0.5 * dt * GQG[:, 3:6, 3:6]
        GQG[:, 6:9, 0:3] = np.swapaxes(GQG[:, 0:3, 6:9], -1, -2)
        GQG[:, 6:9, 3:6] = np.swapaxes(GQG[:, 3:6, 6:9], -1, -2)
        GQG[:, 6:9, 6:9] = 0.25 * dt * dt * GQG[:, 3:6, 3:6]
        P = F @ P @ np.swapaxes(F, -1, -2) + GQG
        P = 0.5 * (P + np.swapaxes(P, -1, -2))

        dp = dp + dt1 * dv + 0.5 * dt1 * dt1 * a_mid
        dv = dv + dt1 * a_mid
        dR = dR_next
        D = D_next

    durations = times[:, -1] - times[:, 0]
    g = noise.gravity_vector()
    delta_velocity = dv + g * durations[:, None]
    delta_position = dp + 0.5 * g * (durations ** 2)[:, None]
    return [
        PreintegratedImu(
            delta_rotation_matrix=dR[k],
            delta_velocity=delta_velocity[k],
            delta_position=delta_position[k],
            duration=float(durations[k]),
            covariance=P[k],
            bias_linearization=(bias_lin_g[k].copy(), bias_lin_a[k].copy()),
            bias_jacobians=D[k, :, 0:6],
            param_jacobians=D[k, :, 6:21],
            noise=noise,
        )
        for k in range(K)
    ]
