"""Inertial measurement models and preintegration.

Measurement models (gyro and accelerometer):

    omega_meas = T_g * omega + b_g + eta_g
    accel_meas = T_a * R_AI * R_IG * (a_G - g_G) + b_a + eta_a

T_g and T_a are upper-triangular correction matrices carrying scale and
misalignment, R_AI rotates the accelerometer triad relative to the gyro
frame, and g_G = (0, 0, -gravity_magnitude) in the gravity-aligned global
frame.  Biases follow independent random walks.

Preintegration integrates corrected samples over keyframe intervals with
the midpoint rule, batched over intervals (preintegrate_intervals, which
returns a stack of PreintegratedImu; preintegrate is a batch of one).  An
interval with fewer samples than the longest is padded by repeating its
last sample; a padded step has dt = 0, so every term it adds is zero.  The
stored delta_velocity / delta_position include the nominal-gravity
contribution evaluated as if the interval started at identity attitude, so
a static interval integrates to exactly zero deltas; the inertial residual
removes it again with its noise model's gravity.  Alongside come the 9x9
covariance (rot, vel, pos) and the sensitivities to the biases and IMU
intrinsics; the residual has no first-order bias correction, so a solver
re-preintegrates at the current biases.
Only the rotation chain is a loop over the steps.  Every other output is
the closed form of its recursion (Forster et al., "On-Manifold
Preintegration", T-RO 2017, unrolled): a sum over all steps at once.

The 15-dim inertial residual and its Jacobians are computed for a whole
stack of factors in one vectorised pass (inertial_factor_blocks), on
keyframe states held as arrays (StateStack); inertial_error_jacobians is a
batch of one.

The noise model of the 15-dim inertial residual (preintegration covariance,
then the gyro- and accel-bias random walks over the interval, in residual
row order) is defined once, by inertial_sqrt_information; inertial_weight
and every whitened inertial block derive from it.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from .geometry import (
    MAX_MAGNITUDE,
    UnitQuaternion,
    matrix_to_quat,  # noqa: F401  (traced as imu.matrix_to_quat by the benchmark)
    quat_retract,
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
# each sensor's scale and misalignment columns, in _correction_jacobian order
_P_GYRO_SM = np.r_[_P_SG, _P_MG]
_P_ACCEL_SM = np.r_[_P_SA, _P_MA]
N_IMU_PARAMS = 15
# d(bias random-walk residual rows (gyro, accel)) / d(right keyframe's
# minimal delta), whose accel bias is at 9:12 and gyro bias at 12:15
BIAS_WALK_ROWS = np.eye(15)[[12, 13, 14, 9, 10, 11]]


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


@dataclass(frozen=True)
class PreintegratedImu:
    """Inter-keyframe IMU constraint built from one sample run, or a stack
    of them: a stack carries one leading interval axis on every field but
    noise.

    covariance rows/columns are ordered (rotation, velocity, position);
    bias_jacobians columns are (gyro bias, accel bias), the sensitivities to
    the biases the samples were corrected by; param_jacobians columns follow
    the IMU-intrinsics calibration order (s_g, s_a, m_g, m_a, accelerometer
    rotation).
    """

    delta_rotation_matrix: np.ndarray
    delta_velocity: np.ndarray
    delta_position: np.ndarray
    duration: float
    covariance: np.ndarray
    bias_jacobians: np.ndarray
    param_jacobians: np.ndarray
    noise: NoiseModel

    def __post_init__(self):
        if np.any(np.asarray(self.duration) <= 0.0):
            raise ValueError("preintegration duration must be positive")

    def __getitem__(self, index):
        """Interval(s) `index` of a stack; pre[None] is a stack of one."""
        return replace(self, **{name: np.asarray(getattr(self, name))[index] for name in _STACKED_FIELDS})


_STACKED_FIELDS = tuple(f.name for f in fields(PreintegratedImu) if f.name != "noise")


def check_sample_runs(times, omega_meas, accel_meas, lo, hi, name):
    """Raise a ValueError for the first of the runs lo[i]:hi[i] of one
    sample stream (times (n,), omega_meas and accel_meas (n, 3)) that
    preintegration cannot take: fewer than two samples, a non-finite
    sample or one beyond MAX_MAGNITUDE, or timestamps that do not strictly
    increase.  name(i) names run i in the message.  The one check of the
    sample-run contract."""
    # running counts of bad samples and of bad steps between samples, so a
    # run's count is a difference at its bounds; one more step count, so
    # that a run starting past the last sample (a short one) indexes it too
    bounded = np.isfinite(times) & (np.abs(np.hstack([omega_meas, accel_meas])) <= MAX_MAGNITUDE).all(1)
    bad_samples = np.concatenate([[0], np.cumsum(~bounded)])
    bad_steps = np.concatenate([[0], np.cumsum(~(np.diff(times) > 0.0)), [0]])
    short = hi - lo < 2
    non_finite = bad_samples[hi] > bad_samples[lo]
    non_increasing = bad_steps[np.maximum(hi - 1, lo)] > bad_steps[lo]
    bad = np.flatnonzero(short | non_finite | non_increasing)
    if bad.size:
        i = bad[0]
        if short[i]:
            raise ValueError(f"{name(i)} covered by fewer than 2 IMU samples")
        if non_finite[i]:
            raise ValueError(f"{name(i)} has non-finite IMU samples or ones beyond {MAX_MAGNITUDE:g}")
        raise ValueError(f"{name(i)} has IMU timestamps that are not strictly increasing")


def preintegrate(samples, intr: ImuIntrinsics, bias, noise: NoiseModel) -> PreintegratedImu:
    """Midpoint-rule preintegration of one keyframe interval.

    samples must hold at least two finite entries with strictly increasing
    timestamps (check_sample_runs); bias = (b_g, b_a) are the biases the
    samples are corrected by.  A batch of one for preintegrate_intervals.
    """
    t = np.array([s.t for s in samples], dtype=float)
    omega = np.array([s.omega_meas for s in samples], dtype=float).reshape(-1, 3)
    accel = np.array([s.accel_meas for s in samples], dtype=float).reshape(-1, 3)
    check_sample_runs(t, omega, accel, np.array([0]), np.array([t.size]), lambda i: "sample run")
    return preintegrate_intervals(
        t[None],
        omega[None],
        accel[None],
        intr,
        np.asarray(bias[0], dtype=float).reshape(1, 3),
        np.asarray(bias[1], dtype=float).reshape(1, 3),
        noise,
    )[0]


@dataclass(frozen=True, eq=False)
class StateStack:
    """Keyframe states as arrays on a leading keyframe axis, fields named
    as KeyframeState's: q_GI (K, 4) as (w, x, y, z); p_GI, v_GI, b_a, b_g
    (K, 3).  len() counts keyframes.

    A problem's keyframe estimate is one StateStack, and every kernel reads
    its arrays.  take and retract return new arrays and nothing writes into
    them, so a stack can be kept and restored by reference.
    """

    q_GI: np.ndarray
    p_GI: np.ndarray
    v_GI: np.ndarray
    b_a: np.ndarray
    b_g: np.ndarray

    def __len__(self):
        return self.q_GI.shape[0]

    def arrays(self):
        return self.q_GI, self.p_GI, self.v_GI, self.b_a, self.b_g

    @classmethod
    def of(cls, states):
        """Stack of states exposing q_GI (a UnitQuaternion or (w, x, y, z)),
        p_GI, v_GI, b_a, b_g."""
        quats = [x.q_GI.wxyz if isinstance(x.q_GI, UnitQuaternion) else x.q_GI for x in states]
        return cls(
            np.asarray(quats, dtype=float),
            *(np.asarray([getattr(x, f.name) for x in states], dtype=float) for f in fields(cls)[1:]),
        )

    def take(self, index):
        return StateStack(*(a[index] for a in self.arrays()))

    def retract(self, delta):
        """The states moved by minimal deltas (K, 15) ordered (rotation,
        position, velocity, accel bias, gyro bias): rotations by
        right-multiplied exponential, the rest by addition.  The only
        keyframe retraction."""
        d = np.asarray(delta, dtype=float).reshape(len(self), 15)
        return StateStack(
            quat_retract(self.q_GI, d[:, 0:3]),
            self.p_GI + d[:, 3:6],
            self.v_GI + d[:, 6:9],
            self.b_a + d[:, 9:12],
            self.b_g + d[:, 12:15],
        )


def inertial_factor_blocks(x_k, x_k1, pre: PreintegratedImu):
    """Residuals and analytic Jacobians of F inertial factors in one pass.

    x_k, x_k1: StateStacks of the factors' left and right keyframes; pre:
    the stack of their preintegrations (F intervals), which must have been
    integrated at x_k's biases and the current IMU intrinsics; gravity is
    pre.noise's.  Returns (r, J_k, J_k1, J_imu): the (F, 15) residuals with
    rows (rot, vel, pos, gyro-bias walk, accel-bias walk), and (F, 15, 15)
    Jacobians wrt the two keyframe minimal deltas, ordered (rotation,
    position, velocity, accel bias, gyro bias), and wrt the IMU intrinsics
    in calibration order.  Rotation deltas act by right-multiplied
    exponential.  The only implementation of the inertial residual and its
    Jacobians; inertial_error_jacobians is a batch of one.
    """
    # orientation: preintegrated delta minus the state-implied delta, so a
    # position bump on x_k1 moves the position block by -R_k^T delta; bias
    # rows keep the plain forward difference b(k+1) - b(k)
    g = pre.noise.gravity_vector()
    dt = pre.duration[:, None]
    dR = pre.delta_rotation_matrix
    dv = pre.delta_velocity - g * dt
    dp = pre.delta_position - 0.5 * g * dt * dt
    R_k = quat_to_matrix(x_k.q_GI)
    R_kT = np.swapaxes(R_k, -1, -2)
    e_rot = so3_log(np.swapaxes(quat_to_matrix(x_k1.q_GI), -1, -2) @ R_k @ dR)
    w_v = (R_kT @ (x_k1.v_GI - x_k.v_GI - g * dt)[..., None])[..., 0]
    w_p = (R_kT @ (x_k1.p_GI - x_k.p_GI - x_k.v_GI * dt - 0.5 * g * dt * dt)[..., None])[..., 0]
    r = np.concatenate([e_rot, dv - w_v, dp - w_p, x_k1.b_g - x_k.b_g, x_k1.b_a - x_k.b_a], axis=-1)

    inv_jr = so3_right_jacobian_inv(e_rot)
    Jb = pre.bias_jacobians
    # column slices of the keyframe minimal coordinates
    TH, PO, VE, BA, BG = slice(0, 3), slice(3, 6), slice(6, 9), slice(9, 12), slice(12, 15)
    J_k = np.zeros(r.shape + (15,))
    J_k1 = np.zeros(r.shape + (15,))
    # rotation residual rows
    J_k[:, 0:3, TH] = inv_jr @ np.swapaxes(dR, -1, -2)
    J_k[:, 0:3, BG] = inv_jr @ Jb[:, 0:3, 0:3]
    # J_r^-1(-e) = J_r^-1(e)^T, bit for bit
    J_k1[:, 0:3, TH] = -np.swapaxes(inv_jr, -1, -2)
    # velocity and position residual rows
    J_k[:, 3:6, TH] = -so3_hat(w_v)
    J_k[:, 3:6, VE] = R_kT
    J_k1[:, 3:6, VE] = -R_kT
    J_k[:, 6:9, TH] = -so3_hat(w_p)
    J_k[:, 6:9, PO] = R_kT
    J_k[:, 6:9, VE] = R_kT * dt[:, :, None]
    J_k1[:, 6:9, PO] = -R_kT
    J_k[:, 3:9, BG] = Jb[:, 3:9, 0:3]
    J_k[:, 3:9, BA] = Jb[:, 3:9, 3:6]
    J_k[:, 9:15] = -BIAS_WALK_ROWS
    J_k1[:, 9:15] = BIAS_WALK_ROWS

    J_imu = np.zeros(r.shape + (N_IMU_PARAMS,))
    Dp = pre.param_jacobians
    J_imu[:, 0:3] = inv_jr @ Dp[:, 0:3]
    J_imu[:, 3:9] = Dp[:, 3:9]
    return r, J_k, J_k1, J_imu


def inertial_error_jacobians(x_k, x_k1, pre: PreintegratedImu):
    """Analytic Jacobians (J_k, J_k1, J_imu) of one inertial residual; a
    batch of one for inertial_factor_blocks, which documents them."""
    _, J_k, J_k1, J_imu = inertial_factor_blocks(StateStack.of([x_k]), StateStack.of([x_k1]), pre[None])
    return J_k[0], J_k1[0], J_imu[0]


def bias_walk_sigmas(noise: NoiseModel, dt):
    """Standard deviations of the bias random-walk residual (gyro, accel)
    over dt; a stack of dt gives one row each."""
    return np.repeat([noise.sigma_bg, noise.sigma_ba], 3) * np.sqrt(np.asarray(dt, dtype=float))[..., None]


def inertial_sqrt_information(pre: PreintegratedImu):
    """15x15 whitening A of the inertial residual in its row order, one per
    interval of a stack.

    A = blockdiag(L^-1, diag(1 / bias_walk_sigmas)) with L the lower
    Cholesky factor of the preintegration covariance, so A r has unit
    covariance and the weight is A^T A.  L^-1 is one batched np.linalg.inv
    of the stack (a scipy triangular solve loops over a stack in Python).
    """
    L = np.linalg.cholesky(pre.covariance)
    A = np.zeros(L.shape[:-2] + (15, 15))
    A[..., 0:9, 0:9] = np.linalg.inv(L)
    A[..., 9:15, 9:15] = np.eye(6) * (1.0 / bias_walk_sigmas(pre.noise, pre.duration))[..., None, :]
    return A


def inertial_weight(pre: PreintegratedImu):
    """Inverse block-diagonal covariance of the 15-dim inertial residual,
    A^T A of inertial_sqrt_information."""
    A = inertial_sqrt_information(pre)
    return np.swapaxes(A, -1, -2) @ A


def _correction_jacobian(B, x):
    """Derivative of A T^-1 z wrt the scale and misalignment entries of T
    (correction_matrix order: s_0, s_1, s_2, m_01, m_02, m_12), given B =
    A T^-1 and x = T^-1 z, stacked alike or B alone (3, 3); returns (...,
    3, 6).  Since d(T^-1) = -T^-1 dT T^-1, entry (r, c) adds -B[:, r] x[c]."""
    rows, cols = [0, 1, 2, 0, 0, 1], [0, 1, 2, 1, 2, 2]
    return -B[..., rows] * x[..., None, cols]


def preintegrate_intervals(times, omega_meas, accel_meas, intr: ImuIntrinsics, bias_g, bias_a, noise: NoiseModel):
    """Midpoint-rule preintegration of K intervals in one batch.

    times: (K, S+1), strictly increasing along each row up to its padding;
    omega_meas and accel_meas: (K, S+1, 3); bias_g/a: (K, 3) per-interval
    biases the samples are corrected by.  Returns the stack of the K
    intervals' PreintegratedImu (stack[k] is interval k).  The only
    preintegration kernel: preintegrate is a batch of one, and
    problem.refresh_preintegrations makes one call for all intervals.  An
    interval with fewer than S+1 samples is padded by repeating its last
    sample: a step of dt = 0, whose every term below is zero.

    Only the rotation chain R_j (R_0 = I) is a loop.  Step s turns from
    sample s to s + 1 by theta_s; f_j is the corrected specific force,
    a_j = R_j f_j, t_left_s = t_S - (t_s + t_{s+1}) / 2, and C_j sums
    R_{s+1} J_r(theta_s) d theta_s / d(21 sensitivity parameters) over
    s <= j.  The rotation sensitivity at sample j is R_j^T C_{j-1}, which
    adds -a_j^ C_{j-1} to the rotated specific force's.  The velocity and
    position deltas and sensitivities are sums over the steps weighted by
    w_s = (dt_s, dt_s t_left_s).  The covariance recursion
    P <- F P F^T + G (Q / dt) G^T unrolls to sum_s X_s X_s^T, with the
    9 x 6 X_s = [[R_S^T N_s, 0], [-nu_s^ N_s, E_s], [-pi_s^ N_s, t_left_s E_s]]:
    N_s = sigma_g sqrt(dt_s) R_{s+1} J_r(theta_s) T_g^-1,
    E_s = sigma_a sqrt(dt_s) (R_s + R_{s+1}) R_AI^T T_a^-1 / 2, and
    (nu_s, pi_s) = sum_{i>s} w_i (a_i + a_{i+1}) / 2 + w_s a_{s+1} / 2,
    since F_{S-1} ... F_{s+1} has the blocks R_S^T R_{s+1},
    -nu_s'^ R_{s+1}, -pi_s'^ R_{s+1} and (t_S - t_{s+1}) I, with nu_s' and
    pi_s' the sums over i > s alone.
    """
    K, S1 = times.shape
    Tg_inv = np.linalg.inv(intr.T_g())
    Ta_inv = np.linalg.inv(intr.T_a())
    R_IA = intr.R_AI().T
    M = R_IA @ Ta_inv
    omega = (omega_meas - bias_g[:, None, :]) @ Tg_inv.T
    z_a = (accel_meas - bias_a[:, None, :]) @ Ta_inv.T
    f = z_a @ R_IA.T

    # step s turns from sample s to sample s + 1 at the mean of their rates
    dt = np.diff(times, axis=1)
    omega_mid = 0.5 * (omega[:, :-1] + omega[:, 1:])
    thetas = omega_mid * dt[..., None]
    Rsteps = so3_exp(thetas)
    dRs = np.empty((K, S1, 3, 3))
    dRs[:, 0] = np.eye(3)
    for s in range(S1 - 1):
        dRs[:, s + 1] = dRs[:, s] @ Rsteps[:, s]
    # B_s = R_{s+1} J_r(theta_s) T_g^-1 takes step s's gyro noise and
    # rotation-vector sensitivities into the interval's start frame
    B = dRs[:, 1:] @ so3_right_jacobian(thetas) @ Tg_inv
    # each step's term of C, then C_{j-1} at every sample j (a running sum
    # over the steps is a product with a triangle of ones); this and each
    # array below of that size is freed after its last use, so that few are
    # alive at once (peak memory)
    dC = np.zeros((K, S1 - 1, 3, 21))
    dC[..., _P_BG] = -B
    dC[..., _P_GYRO_SM] = _correction_jacobian(B, omega_mid)
    dC *= dt[..., None, None]
    C = (np.tri(S1, S1 - 1, -1) @ dC.reshape(K, S1 - 1, -1)).reshape(K, S1, 3, 21)
    del dC

    # the corrected specific force (column 0) and its sensitivities at every
    # sample, rotated by the chain and averaged over each step's two
    # samples: the recursion v += dt y, p += dt v + dt^2/2 y sums to
    # v = sum dt y and p = sum dt t_left y
    X = np.zeros((K, S1, 3, 22))
    X[..., 0] = f
    d_f = X[..., 1:]
    d_f[..., _P_BA] = -M
    d_f[..., _P_ACCEL_SM] = _correction_jacobian(M, z_a)
    # accelerometer frame rotation: f(delta) = Exp(-delta) f
    d_f[..., _P_QAI] = so3_hat(f)
    del d_f
    Y = dRs @ X
    del X
    a = Y[..., 0].copy()
    Y[..., 1:] -= so3_hat(a) @ C
    D_R = np.swapaxes(dRs[:, -1], -1, -2) @ C[:, -1]
    del C
    Y_mid = 0.5 * (Y[:, :-1] + Y[:, 1:])
    del Y
    t_left = times[:, -1:] - 0.5 * (times[:, :-1] + times[:, 1:])
    w = np.stack([dt, dt * t_left], axis=-1)
    vp = (np.swapaxes(w, 1, 2) @ Y_mid.reshape(K, S1 - 1, -1)).reshape(K, 2, 3, 22)
    v, p = vp[:, 0], vp[:, 1]

    # covariance: X_s of every step, then sum_s X_s X_s^T as one product
    u = w[..., None] * Y_mid[:, :, None, :, 0]
    del Y_mid
    nu_pi = (np.tri(S1 - 1, S1 - 1, -1).T @ u.reshape(K, S1 - 1, 6)).reshape(u.shape) + 0.5 * w[..., None] * a[:, 1:, None]
    sqrt_dt = np.sqrt(dt)[..., None, None]
    N = (noise.sigma_g * sqrt_dt) * B
    E = (0.5 * noise.sigma_a * sqrt_dt) * (dRs[:, :-1] + dRs[:, 1:]) @ M
    Xs = np.zeros((K, S1 - 1, 9, 6))
    Xs[..., 0:3, 0:3] = np.swapaxes(dRs[:, -1:], -1, -2) @ N
    Xs[..., 3:9, 0:3] = (-so3_hat(nu_pi) @ N[:, :, None]).reshape(K, S1 - 1, 6, 3)
    Xs[..., 3:6, 3:6] = E
    Xs[..., 6:9, 3:6] = t_left[..., None, None] * E
    Z = np.swapaxes(Xs, 1, 2).reshape(K, 9, -1)
    P = Z @ np.swapaxes(Z, -1, -2)

    D = np.concatenate([D_R, v[..., 1:], p[..., 1:]], axis=1)
    durations = times[:, -1] - times[:, 0]
    g = noise.gravity_vector()
    return PreintegratedImu(
        delta_rotation_matrix=dRs[:, -1].copy(),
        delta_velocity=v[..., 0] + g * durations[:, None],
        delta_position=p[..., 0] + 0.5 * g * (durations ** 2)[:, None],
        duration=durations,
        covariance=0.5 * (P + np.swapaxes(P, -1, -2)),
        bias_jacobians=D[:, :, 0:6],
        param_jacobians=D[:, :, 6:21],
        noise=noise,
    )
