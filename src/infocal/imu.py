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
last sample; a padded step has dt = 0 and its noise input masked to zero,
so it changes nothing.  The stored delta_velocity / delta_position include
the nominal-gravity contribution evaluated as if the interval started at
identity attitude, so a static interval integrates to exactly zero deltas;
the inertial residual removes that contribution again using its gravity
argument before comparing against the state difference.  Alongside the
deltas come the 9x9 covariance (rot, vel, pos) and the first-order
sensitivities to the bias linearization point and to the IMU intrinsics.
Two recursions remain step by step: the rotation chain with its
sensitivities, and the covariance.  Every other term is computed for all
steps at once, and the velocity and position deltas and sensitivities are
weighted sums over the steps.

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


@dataclass(frozen=True)
class PreintegratedImu:
    """Inter-keyframe IMU constraint built from one sample run, or a stack
    of them: a stack carries one leading interval axis on every field but
    noise.

    covariance rows/columns are ordered (rotation, velocity, position);
    bias_linearization rows are (gyro bias, accel bias); bias_jacobians
    columns are (gyro bias, accel bias); param_jacobians columns follow the
    IMU-intrinsics calibration order (s_g, s_a, m_g, m_a, accelerometer
    rotation).
    """

    delta_rotation_matrix: np.ndarray
    delta_velocity: np.ndarray
    delta_position: np.ndarray
    duration: float
    covariance: np.ndarray
    bias_linearization: np.ndarray
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
    sample, or timestamps that do not strictly increase.  name(i) names run
    i in the message.  The one check of the sample-run contract."""
    # running counts of bad samples and of bad steps between samples, so a
    # run's count is a difference at its bounds; one more step count, so
    # that a run starting past the last sample (a short one) indexes it too
    finite = np.isfinite(times) & np.isfinite(omega_meas).all(1) & np.isfinite(accel_meas).all(1)
    bad_samples = np.concatenate([[0], np.cumsum(~finite)])
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
            raise ValueError(f"{name(i)} has non-finite IMU samples")
        raise ValueError(f"{name(i)} has IMU timestamps that are not strictly increasing")


def preintegrate(samples, intr: ImuIntrinsics, bias_lin, noise: NoiseModel) -> PreintegratedImu:
    """Midpoint-rule preintegration of one keyframe interval.

    samples must hold at least two finite entries with strictly increasing
    timestamps (check_sample_runs); bias_lin = (b_g, b_a) is the
    linearization point baked into the deltas and recorded for later
    first-order re-correction.  A batch of one for preintegrate_intervals.
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
        np.asarray(bias_lin[0], dtype=float).reshape(1, 3),
        np.asarray(bias_lin[1], dtype=float).reshape(1, 3),
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


def _mv(A, x):
    """Stacked matrix-vector products."""
    return np.einsum("...ij,...j->...i", A, x)


def _bias_corrected_deltas(pre: PreintegratedImu, b_g, b_a, gravity):
    """Deltas re-corrected to (b_g, b_a), gravity contribution removed;
    pre may be a stack, with the biases stacked alike."""
    db_g = np.asarray(b_g, dtype=float) - pre.bias_linearization[..., 0, :]
    db_a = np.asarray(b_a, dtype=float) - pre.bias_linearization[..., 1, :]
    J = pre.bias_jacobians
    xi = _mv(J[..., 0:3, 0:3], db_g)
    dR = pre.delta_rotation_matrix @ so3_exp(xi)
    dt = np.asarray(pre.duration)[..., None]
    g = np.asarray(gravity, dtype=float)
    dv = pre.delta_velocity - g * dt + _mv(J[..., 3:6, 0:3], db_g) + _mv(J[..., 3:6, 3:6], db_a)
    dp = pre.delta_position - 0.5 * g * dt * dt + _mv(J[..., 6:9, 0:3], db_g) + _mv(J[..., 6:9, 3:6], db_a)
    return dR, dv, dp, xi


def inertial_factor_blocks(x_k, x_k1, pre: PreintegratedImu, gravity):
    """Residuals and analytic Jacobians of F inertial factors in one pass.

    x_k, x_k1: StateStacks of the factors' left and right keyframes; pre:
    the stack of their preintegrations (F intervals).  Returns (r, J_k,
    J_k1, J_imu): the (F, 15) residuals with rows (rot, vel, pos, gyro-bias
    walk, accel-bias walk), and (F, 15, 15) Jacobians wrt the two keyframe
    minimal deltas, ordered (rotation, position, velocity, accel bias, gyro
    bias), and wrt the IMU intrinsics in calibration order.  Rotation
    deltas act by right-multiplied exponential.  The only implementation
    of the inertial residual and its Jacobians; inertial_error_jacobians is
    a batch of one.
    """
    # orientation: preintegrated delta minus the state-implied delta, so a
    # position bump on x_k1 moves the position block by -R_k^T delta; bias
    # rows keep the plain forward difference b(k+1) - b(k)
    g = np.asarray(gravity, dtype=float)
    dt = pre.duration[:, None]
    dR, dv, dp, xi = _bias_corrected_deltas(pre, x_k.b_g, x_k.b_a, g)
    R_k = quat_to_matrix(x_k.q_GI)
    R_kT = np.swapaxes(R_k, -1, -2)
    e_rot = so3_log(np.swapaxes(quat_to_matrix(x_k1.q_GI), -1, -2) @ R_k @ dR)
    w_v = _mv(R_kT, x_k1.v_GI - x_k.v_GI - g * dt)
    w_p = _mv(R_kT, x_k1.p_GI - x_k.p_GI - x_k.v_GI * dt - 0.5 * g * dt * dt)
    r = np.concatenate([e_rot, dv - w_v, dp - w_p, x_k1.b_g - x_k.b_g, x_k1.b_a - x_k.b_a], axis=-1)

    inv_jr = so3_right_jacobian_inv(e_rot)
    Jb = pre.bias_jacobians
    # column slices of the keyframe minimal coordinates
    TH, PO, VE, BA, BG = slice(0, 3), slice(3, 6), slice(6, 9), slice(9, 12), slice(12, 15)
    J_k = np.zeros(r.shape + (15,))
    J_k1 = np.zeros(r.shape + (15,))
    # rotation residual rows
    J_k[:, 0:3, TH] = inv_jr @ np.swapaxes(dR, -1, -2)
    J_k[:, 0:3, BG] = inv_jr @ so3_right_jacobian(xi) @ Jb[:, 0:3, 0:3]
    J_k1[:, 0:3, TH] = -so3_right_jacobian_inv(-e_rot)
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
    J_imu[:, 0:3] = inv_jr @ np.swapaxes(so3_exp(xi), -1, -2) @ Dp[:, 0:3]
    J_imu[:, 3:9] = Dp[:, 3:9]
    return r, J_k, J_k1, J_imu


def inertial_error_jacobians(x_k, x_k1, pre: PreintegratedImu, gravity):
    """Analytic Jacobians (J_k, J_k1, J_imu) of one inertial residual; a
    batch of one for inertial_factor_blocks, which documents them."""
    _, J_k, J_k1, J_imu = inertial_factor_blocks(StateStack.of([x_k]), StateStack.of([x_k1]), pre[None], gravity)
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
    of the stack (scipy's solve_triangular loops over a stack in Python).
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
    (correction_matrix order: s_0, s_1, s_2, m_01, m_02, m_12), given
    B = A T^-1 and x = T^-1 z stacked (..., 3); returns (..., 3, 6).
    Since d(T^-1) = -T^-1 dT T^-1, entry (r, c) contributes -B[:, r] x[c]."""
    rows, cols = [0, 1, 2, 0, 0, 1], [0, 1, 2, 1, 2, 2]
    return -B[:, rows] * x[..., None, cols]


def preintegrate_intervals(times, omega_meas, accel_meas, intr: ImuIntrinsics, bias_lin_g, bias_lin_a, noise: NoiseModel):
    """Midpoint-rule preintegration of K intervals in one batch.

    times: (K, S+1), strictly increasing along each row up to its padding;
    omega_meas and accel_meas: (K, S+1, 3); bias_lin_g/a: (K, 3)
    per-interval linearization biases.  Returns the stack of the K
    intervals' PreintegratedImu (stack[k] is interval k).  The only
    preintegration recursion: preintegrate is a batch of one, and
    problem.refresh_preintegrations makes one call for all intervals.

    An interval with fewer than S+1 samples is padded by repeating its last
    sample.  A padded step has dt = 0 and its noise input (sigma / dt)
    masked to zero, so it changes no output.  Only the rotation chain dR
    with its sensitivity D_R, and the covariance P, are carried from step
    to step.  Every other term is computed for all steps at once, and the
    velocity and position deltas and sensitivities are weighted sums over
    the steps.
    """
    K, S1 = times.shape
    Tg_inv = np.linalg.inv(intr.T_g())
    Ta_inv = np.linalg.inv(intr.T_a())
    R_IA = intr.R_AI().T
    M = R_IA @ Ta_inv
    omega = np.einsum("ij,ksj->ksi", Tg_inv, omega_meas - bias_lin_g[:, None, :])
    z_a = np.einsum("ij,ksj->ksi", Ta_inv, accel_meas - bias_lin_a[:, None, :])
    f = np.einsum("ij,ksj->ksi", R_IA, z_a)
    hat_f = so3_hat(f)

    # continuous noise densities of the corrected gyro and accel samples
    Q = np.zeros((6, 6))
    Q[0:3, 0:3] = Tg_inv @ Tg_inv.T * noise.sigma_g ** 2
    Q[3:6, 3:6] = M @ M.T * noise.sigma_a ** 2

    # step s turns from sample s to sample s + 1 at the mean of their rates
    dts = np.diff(times, axis=1)[:, :, None, None]
    omega_mid = 0.5 * (omega[:, :-1] + omega[:, 1:])
    thetas = omega_mid * dts[..., 0]
    Rsteps = so3_exp(thetas)
    RstepTs = np.swapaxes(Rsteps, -1, -2)
    Jrs = so3_right_jacobian(thetas)
    # each step's rotation vector wrt the 21 sensitivity parameters; this
    # and each array below of that size is freed after its last use, so
    # that few are alive at once (peak memory)
    d_theta = np.zeros((K, S1 - 1, 3, 21))
    d_theta[..., _P_BG] = -Tg_inv
    d_theta[..., _P_GYRO_SM] = _correction_jacobian(Tg_inv, omega_mid)
    d_theta *= dts
    Jr_d_thetas = Jrs @ d_theta
    del d_theta

    # the rotation chain and its sensitivity at every sample
    dRs = np.empty((K, S1, 3, 3))
    D_Rs = np.empty((K, S1, 3, 21))
    dRs[:, 0] = np.eye(3)
    D_Rs[:, 0] = 0.0
    for s in range(S1 - 1):
        dRs[:, s + 1] = dRs[:, s] @ Rsteps[:, s]
        D_Rs[:, s + 1] = RstepTs[:, s] @ D_Rs[:, s] + Jr_d_thetas[:, s]
    del Jr_d_thetas

    # the corrected specific force (column 0) and its sensitivities at every
    # sample, rotated by the chain and averaged over each step's two
    # samples: the recursion v += dt y, p += dt v + dt^2/2 y sums to
    # v = sum dt y and p = sum dt (t_end - t_mid) y
    X = np.zeros((K, S1, 3, 22))
    X[..., 0] = f
    d_f = X[..., 1:]
    d_f[..., _P_BA] = -M
    d_f[..., _P_ACCEL_SM] = _correction_jacobian(M, z_a)
    # accelerometer frame rotation: f(delta) = Exp(-delta) f
    d_f[..., _P_QAI] = hat_f
    d_f -= hat_f @ D_Rs
    D_R = D_Rs[:, -1].copy()
    del d_f, D_Rs
    Y = dRs @ X
    del X
    Y = 0.5 * (Y[:, :-1] + Y[:, 1:]).reshape(K, S1 - 1, -1)
    dt = dts[:, :, 0, 0]
    t_left = times[:, -1:] - 0.5 * (times[:, :-1] + times[:, 1:])
    vp = (np.stack([dt, dt * t_left], axis=1) @ Y).reshape(K, 2, 3, 22)
    v, p = vp[:, 0], vp[:, 1]
    del Y

    # covariance: delta-state transition F and noise input G (columns gyro,
    # accel) of every step; the discrete noise Q / dt is zero on the padded
    # steps
    H = dRs @ hat_f
    eye3 = np.eye(3)
    Fs = np.zeros((K, S1 - 1, 9, 9))
    F_vtheta = -0.5 * dts * (H[:, :-1] + H[:, 1:] @ RstepTs)
    Fs[..., 0:3, 0:3] = RstepTs
    Fs[..., 3:6, 0:3] = F_vtheta
    Fs[..., 3:6, 3:6] = eye3
    Fs[..., 6:9, 0:3] = 0.5 * dts * F_vtheta
    Fs[..., 6:9, 3:6] = dts * eye3
    Fs[..., 6:9, 6:9] = eye3
    G = np.zeros((K, S1 - 1, 9, 6))
    G[..., 0:3, 0:3] = dts * Jrs
    G[..., 3:6, 0:3] = -0.5 * dts * H[:, 1:] @ G[..., 0:3, 0:3]
    G[..., 3:6, 3:6] = 0.5 * dts * (dRs[:, :-1] + dRs[:, 1:])
    G[..., 6:9, :] = 0.5 * dts * G[..., 3:6, :]
    inv_dts = np.divide(1.0, dts, out=np.zeros_like(dts), where=dts > 0.0)
    GQG = G @ Q @ np.swapaxes(G, -1, -2)
    GQG *= inv_dts
    FsT = np.swapaxes(Fs, -1, -2)
    P = np.zeros((K, 9, 9))
    for s in range(S1 - 1):
        P = Fs[:, s] @ P @ FsT[:, s] + GQG[:, s]
        P = 0.5 * (P + np.swapaxes(P, -1, -2))

    D = np.concatenate([D_R, v[..., 1:], p[..., 1:]], axis=1)
    durations = times[:, -1] - times[:, 0]
    g = noise.gravity_vector()
    delta_velocity = v[..., 0] + g * durations[:, None]
    delta_position = p[..., 0] + 0.5 * g * (durations ** 2)[:, None]
    return PreintegratedImu(
        delta_rotation_matrix=dRs[:, -1].copy(),
        delta_velocity=delta_velocity,
        delta_position=delta_position,
        duration=durations,
        covariance=P,
        bias_linearization=np.stack([bias_lin_g, bias_lin_a], axis=1),
        bias_jacobians=D[:, :, 0:6],
        param_jacobians=D[:, :, 6:21],
        noise=noise,
    )
