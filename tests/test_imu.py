"""Tests for inertial models, preintegration, and the inertial residual.

Oracles: closed-form constant-rate rotation and constant-acceleration
kinematics, simulate/correct round trips, scalar random-walk weighting,
central finite differences for every Jacobian block (re-preintegrating
for the bias and intrinsics columns), single-interval calls for the
batched preintegration, and the per-step recursion, on plain and on
padded intervals, for the preintegration that unrolls it in closed form.
"""

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

from infocal.geometry import UnitQuaternion, quat_log, so3_exp, so3_hat, so3_right_jacobian
from infocal.imu import (
    STANDARD_GRAVITY,
    ImuIntrinsics,
    ImuSample,
    NoiseModel,
    PreintegratedImu,
    correction_matrix,
    inertial_error_jacobians,
    preintegrate,
    preintegrate_intervals,
    simulate_accel,
    simulate_gyro,
)

import support
from support import delta_rotation, identity_quat, inertial_error, nominal_imu

GRAVITY = np.array([0.0, 0.0, -STANDARD_GRAVITY])


def perturbed_intrinsics():
    return ImuIntrinsics(
        s_g=np.array([1.004, 0.997, 1.002]),
        s_a=np.array([0.995, 1.006, 1.001]),
        m_g=np.array([1.5e-3, -2.0e-3, 0.8e-3]),
        m_a=np.array([-1.2e-3, 0.9e-3, 2.1e-3]),
        q_AI=UnitQuaternion.from_rotation_vector(np.array([0.004, -0.006, 0.003])),
    )


def static_samples(n=101, duration=1.0, gravity_magnitude=STANDARD_GRAVITY):
    ts = np.linspace(0.0, duration, n)
    accel = np.array([0.0, 0.0, gravity_magnitude])
    return [ImuSample(t, np.zeros(3), accel) for t in ts]


def correct_measurements(sample: ImuSample, intr: ImuIntrinsics, biases):
    """Invert the measurement models at given biases.

    Returns (omega, specific_force) in the IMU frame; exact inverse of
    simulate_gyro / simulate_accel at zero noise.
    """
    b_g, b_a = (np.asarray(b, dtype=float).reshape(3) for b in biases)
    omega = np.linalg.solve(intr.T_g(), sample.omega_meas - b_g)
    f = intr.R_AI().T @ np.linalg.solve(intr.T_a(), sample.accel_meas - b_a)
    return omega, f


class TestMeasurementModels:
    def test_correction_matrix_nominal_identity(self):
        np.testing.assert_array_equal(correction_matrix(np.ones(3), np.zeros(3)), np.eye(3))

    def test_correction_matrix_scale_diagonal(self):
        np.testing.assert_array_equal(
            correction_matrix([1.01, 1.0, 1.0], np.zeros(3)), np.diag([1.01, 1.0, 1.0])
        )

    def test_correction_matrix_misalignment_slots(self):
        T = correction_matrix(np.ones(3), [0.1, 0.2, 0.3])
        expected = np.eye(3)
        expected[0, 1] = 0.1
        expected[0, 2] = 0.2
        expected[1, 2] = 0.3
        np.testing.assert_array_equal(T, expected)

    def test_intrinsics_reject_nonpositive_scale(self):
        with pytest.raises(ValueError):
            ImuIntrinsics(np.array([1.0, -0.5, 1.0]), np.ones(3), np.zeros(3), np.zeros(3), identity_quat())

    def test_gyro_nominal_passthrough(self):
        w = np.array([0.3, -0.2, 0.9])
        out = simulate_gyro(w, nominal_imu(), np.zeros(3), np.zeros(3))
        np.testing.assert_allclose(out, w, atol=1e-15)

    def test_gyro_zero_rate_returns_bias_plus_noise(self):
        b = np.array([1e-3, -2e-3, 5e-4])
        eta = np.array([1e-4, 0.0, -1e-4])
        out = simulate_gyro(np.zeros(3), nominal_imu(), b, eta)
        np.testing.assert_allclose(out, b + eta, atol=1e-15)

    def test_gyro_scale(self):
        intr = ImuIntrinsics(np.array([1.004, 1.0, 1.0]), np.ones(3), np.zeros(3), np.zeros(3), identity_quat())
        out = simulate_gyro(np.array([1.0, 0.0, 0.0]), intr, np.zeros(3), np.zeros(3))
        np.testing.assert_allclose(out, [1.004, 0.0, 0.0], atol=1e-15)

    def test_accel_rest_reads_gravity_reaction(self):
        out = simulate_accel(np.zeros(3), np.eye(3), nominal_imu(), np.zeros(3), np.zeros(3))
        np.testing.assert_allclose(out, [0.0, 0.0, STANDARD_GRAVITY], atol=1e-12)

    def test_accel_free_fall_reads_bias(self):
        b = np.array([0.01, -0.02, 0.005])
        out = simulate_accel(GRAVITY, np.eye(3), nominal_imu(), b, np.zeros(3))
        np.testing.assert_allclose(out, b, atol=1e-12)

    def test_accel_rotated_frame_matches_matrix_oracle(self):
        ang = math.radians(1.0)
        q_AI = UnitQuaternion.from_rotation_vector(np.array([0.0, 0.0, ang]))
        intr = ImuIntrinsics(np.ones(3), np.ones(3), np.zeros(3), np.zeros(3), q_AI)
        rng = np.random.default_rng(7)
        dq = UnitQuaternion.from_rotation_vector(rng.normal(size=3) * 0.3)
        R_IG = dq.matrix().T
        out = simulate_accel(np.zeros(3), R_IG, intr, np.zeros(3), np.zeros(3))
        oracle = q_AI.matrix() @ R_IG @ (-GRAVITY)
        np.testing.assert_allclose(out, oracle, atol=1e-12)

    def test_correct_nominal_is_identity(self):
        s = ImuSample(0.0, [0.1, 0.2, 0.3], [1.0, -2.0, 9.0])
        w, f = correct_measurements(s, nominal_imu(), (np.zeros(3), np.zeros(3)))
        np.testing.assert_allclose(w, s.omega_meas, atol=1e-15)
        np.testing.assert_allclose(f, s.accel_meas, atol=1e-15)

    def test_round_trip_gyro(self):
        rng = np.random.default_rng(11)
        intr = perturbed_intrinsics()
        for _ in range(20):
            w = rng.normal(size=3)
            b = rng.normal(size=3) * 1e-2
            meas = simulate_gyro(w, intr, b, np.zeros(3))
            w_back, _ = correct_measurements(ImuSample(0.0, meas, np.zeros(3)), intr, (b, np.zeros(3)))
            np.testing.assert_allclose(w_back, w, atol=1e-12)

    def test_round_trip_accel(self):
        rng = np.random.default_rng(12)
        intr = perturbed_intrinsics()
        for _ in range(20):
            a_G = rng.normal(size=3)
            b = rng.normal(size=3) * 1e-2
            R_IG = UnitQuaternion.from_rotation_vector(rng.normal(size=3)).matrix().T
            meas = simulate_accel(a_G, R_IG, intr, b, np.zeros(3))
            _, f_back = correct_measurements(ImuSample(0.0, np.zeros(3), meas), intr, (np.zeros(3), b))
            oracle = R_IG @ (a_G - GRAVITY)
            np.testing.assert_allclose(f_back, oracle, atol=1e-12)

    def test_noise_model_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            NoiseModel(sigma_g=0.0)
        with pytest.raises(ValueError):
            NoiseModel(sigma_c=-1.0)


class TestPreintegrate:
    def test_static_integrates_to_zero_deltas(self):
        pre = preintegrate(static_samples(), nominal_imu(), (np.zeros(3), np.zeros(3)), NoiseModel())
        assert delta_rotation(pre).angle_to(identity_quat()) < 1e-9
        np.testing.assert_allclose(pre.delta_velocity, np.zeros(3), atol=1e-9)
        np.testing.assert_allclose(pre.delta_position, np.zeros(3), atol=1e-9)
        assert pre.duration == pytest.approx(1.0)

    def test_constant_rate_rotation_matches_closed_form(self):
        w = np.array([0.0, 0.0, math.pi / 2])
        ts = np.arange(101) / 100.0
        samples = [ImuSample(t, w, np.zeros(3)) for t in ts]
        pre = preintegrate(samples, nominal_imu(), (np.zeros(3), np.zeros(3)), NoiseModel())
        expected = UnitQuaternion.from_rotation_vector(w * 1.0)
        assert math.degrees(delta_rotation(pre).angle_to(expected)) < 0.01
        rv = quat_log(delta_rotation(pre).wxyz)
        np.testing.assert_allclose(rv / np.linalg.norm(rv), [0.0, 0.0, 1.0], atol=1e-9)

    def test_constant_acceleration_matches_kinematics(self):
        accel = np.array([1.0, 0.0, STANDARD_GRAVITY])
        ts = np.arange(101) / 100.0
        samples = [ImuSample(t, np.zeros(3), accel) for t in ts]
        pre = preintegrate(samples, nominal_imu(), (np.zeros(3), np.zeros(3)), NoiseModel())
        np.testing.assert_allclose(pre.delta_velocity, [1.0, 0.0, 0.0], atol=1e-3)
        np.testing.assert_allclose(pre.delta_position, [0.5, 0.0, 0.0], atol=1e-3)

    def test_too_few_samples_raises(self):
        with pytest.raises(ValueError):
            preintegrate(static_samples(n=1), nominal_imu(), (np.zeros(3), np.zeros(3)), NoiseModel())

    def test_non_monotone_timestamps_raise(self):
        samples = static_samples(n=5)
        samples[2] = ImuSample(samples[1].t, samples[2].omega_meas, samples[2].accel_meas)
        with pytest.raises(ValueError):
            preintegrate(samples, nominal_imu(), (np.zeros(3), np.zeros(3)), NoiseModel())

    @pytest.mark.parametrize("field, value", [("omega_meas", np.nan), ("accel_meas", np.inf), ("accel_meas", -np.inf)])
    def test_non_finite_samples_raise(self, field, value):
        samples = static_samples(n=5)
        samples[2] = dataclasses.replace(samples[2], **{field: [0.0, value, 0.0]})
        with pytest.raises(ValueError, match="non-finite IMU samples"):
            preintegrate(samples, nominal_imu(), (np.zeros(3), np.zeros(3)), NoiseModel())

    def test_covariance_symmetric_psd_and_monotone_trace(self):
        samples = _rich_samples(np.random.default_rng(3), n=61)
        noise = NoiseModel()
        intr = nominal_imu()
        traces = []
        for n in (11, 21, 41, 61):
            pre = preintegrate(samples[:n], intr, (np.zeros(3), np.zeros(3)), noise)
            P = pre.covariance
            np.testing.assert_allclose(P, P.T, atol=1e-18)
            assert np.linalg.eigvalsh(P).min() > -1e-18
            traces.append(np.trace(P))
        assert all(b > a for a, b in zip(traces, traces[1:]))

    def test_resampling_invariance(self):
        intr = perturbed_intrinsics()
        b_g = np.array([2e-3, -1e-3, 5e-4])
        b_a = np.array([-0.02, 0.01, 0.03])
        pre1 = preintegrate(_smooth_samples(100, intr, b_g, b_a), intr, (b_g, b_a), NoiseModel())
        pre2 = preintegrate(_smooth_samples(200, intr, b_g, b_a), intr, (b_g, b_a), NoiseModel())
        assert delta_rotation(pre1).angle_to(delta_rotation(pre2)) < 1e-3
        np.testing.assert_allclose(pre1.delta_velocity, pre2.delta_velocity, rtol=0, atol=1e-3 * max(1.0, np.linalg.norm(pre2.delta_velocity)))
        np.testing.assert_allclose(pre1.delta_position, pre2.delta_position, rtol=0, atol=1e-3 * max(1.0, np.linalg.norm(pre2.delta_position)))


def _rich_samples(rng, n=61, duration=0.6):
    """Measurement stream with nontrivial rotation and acceleration."""
    ts = np.linspace(0.0, duration, n)
    out = []
    for t in ts:
        w = np.array([0.8 * math.sin(3 * t), -0.5 * math.cos(2 * t), 0.6 * math.sin(5 * t + 0.3)])
        a = np.array([1.2 * math.cos(4 * t), 0.7 * math.sin(3 * t), STANDARD_GRAVITY + 0.4 * math.sin(2 * t)])
        out.append(ImuSample(t, w, a))
    return out


def _smooth_samples(rate_hz, intr, b_g, b_a, duration=1.0):
    """Samples of a closed-form single-axis rotation plus smooth world accel.

    The attitude R(t) = Exp((0,0,phi(t))) keeps omega = (0,0,phi'(t)) exact,
    so streams at different rates describe the same continuous motion.
    """
    n = int(round(rate_hz * duration)) + 1
    ts = np.linspace(0.0, duration, n)
    out = []
    for t in ts:
        phi = 0.7 * math.sin(2.0 * t)
        phidot = 1.4 * math.cos(2.0 * t)
        R_GI = so3_exp(np.array([0.0, 0.0, phi]))
        a_G = np.array([0.9 * math.sin(3.0 * t), -0.6 * math.cos(2.5 * t), 0.3 * math.sin(1.5 * t)])
        w_meas = simulate_gyro(np.array([0.0, 0.0, phidot]), intr, b_g, np.zeros(3))
        a_meas = simulate_accel(a_G, R_GI.T, intr, b_a, np.zeros(3))
        out.append(ImuSample(t, w_meas, a_meas))
    return out


def _random_state(rng, b_g, b_a):
    return SimpleNamespace(
        q_GI=UnitQuaternion.from_rotation_vector(rng.normal(size=3)),
        p_GI=rng.normal(size=3),
        v_GI=rng.normal(size=3) * 0.5,
        b_g=np.asarray(b_g, dtype=float),
        b_a=np.asarray(b_a, dtype=float),
    )


def _propagate_state(x_k, pre):
    """State at the end of the interval exactly consistent with pre."""
    g = pre.noise.gravity_vector()
    dt = pre.duration
    R_k = x_k.q_GI.matrix()
    return SimpleNamespace(
        q_GI=UnitQuaternion.from_matrix(R_k @ pre.delta_rotation_matrix),
        p_GI=x_k.p_GI + x_k.v_GI * dt + 0.5 * g * dt * dt + R_k @ (pre.delta_position - 0.5 * g * dt * dt),
        v_GI=x_k.v_GI + g * dt + R_k @ (pre.delta_velocity - g * dt),
        b_g=x_k.b_g.copy(),
        b_a=x_k.b_a.copy(),
    )


def _perturb_state(x, delta):
    delta = np.asarray(delta, dtype=float)
    return SimpleNamespace(
        q_GI=x.q_GI.retract(delta[0:3]),
        p_GI=x.p_GI + delta[3:6],
        v_GI=x.v_GI + delta[6:9],
        b_a=x.b_a + delta[9:12],
        b_g=x.b_g + delta[12:15],
    )


class TestInertialError:
    def _setup(self, seed=0, intr=None):
        rng = np.random.default_rng(seed)
        intr = intr or perturbed_intrinsics()
        b_g = np.array([1e-3, -0.5e-3, 0.8e-3])
        b_a = np.array([0.01, -0.02, 0.015])
        samples = _smooth_samples(100, intr, b_g, b_a, duration=0.5)
        noise = NoiseModel()
        pre = preintegrate(samples, intr, (b_g, b_a), noise)
        x_k = _random_state(rng, b_g, b_a)
        x_k1 = _propagate_state(x_k, pre)
        return pre, x_k, x_k1, noise, samples, intr, (b_g, b_a)

    def test_consistent_states_zero_residual(self):
        pre, x_k, x_k1, noise, _, _, _ = self._setup()
        r, W = inertial_error(x_k, x_k1, pre)
        np.testing.assert_allclose(r, np.zeros(15), atol=1e-9)
        assert W.shape == (15, 15)

    def test_weight_inverts_preintegration_covariance(self):
        pre, x_k, x_k1, noise, _, _, _ = self._setup()
        _, W = inertial_error(x_k, x_k1, pre)
        np.testing.assert_allclose(W[0:9, 0:9] @ pre.covariance, np.eye(9), atol=1e-6)

    def test_bias_random_walk_scalar_oracle(self):
        pre, x_k, x_k1, noise, _, _, _ = self._setup()
        step = np.array([1e-3, 0.0, 0.0])
        x_k1.b_g = x_k.b_g + step
        r, W = inertial_error(x_k, x_k1, pre)
        np.testing.assert_allclose(r[9:12], step, atol=1e-15)
        chi2 = r[9:12] @ W[9:12, 9:12] @ r[9:12]
        assert chi2 == pytest.approx(1e-6 / (noise.sigma_bg**2 * pre.duration), rel=1e-12)

    def test_position_perturbation_moves_position_block(self):
        pre, x_k, x_k1, noise, _, _, _ = self._setup(seed=5)
        x_k.q_GI = identity_quat()
        x_k1 = _propagate_state(x_k, pre)
        r0, _ = inertial_error(x_k, x_k1, pre)
        delta = np.array([3e-4, -2e-4, 1e-4])
        x_pert = _perturb_state(x_k1, np.concatenate([np.zeros(3), delta, np.zeros(9)]))
        r1, _ = inertial_error(x_k, x_pert, pre)
        change = r1 - r0
        np.testing.assert_allclose(change[6:9], -delta, atol=1e-4 * np.linalg.norm(delta) + 1e-12)
        np.testing.assert_allclose(np.delete(change, slice(6, 9)), np.zeros(12), atol=1e-10)

    def test_state_jacobians_match_finite_differences(self):
        for seed in range(4):
            _, x_k, x_k1, noise, samples, intr, (b_g, b_a) = self._setup(seed=seed)
            # x_k's biases off the samples' own; the residual is evaluated as
            # the solver does, preintegrated at its left state's biases, so
            # the x_k bias columns difference a re-preintegration
            x_k.b_g = b_g + 2e-4 * np.array([1.0, -1.0, 0.5])
            x_k.b_a = b_a + 2e-4 * np.array([-0.5, 1.0, 1.0])

            def residual(xa, xb):
                return inertial_error(xa, xb, preintegrate(samples, intr, (xa.b_g, xa.b_a), noise))[0]

            J_k, J_k1, _ = inertial_error_jacobians(x_k, x_k1, preintegrate(samples, intr, (x_k.b_g, x_k.b_a), noise))
            h = 1e-6
            for which, x_ref, J in ((0, x_k, J_k), (1, x_k1, J_k1)):
                fd = np.zeros((15, 15))
                for c in range(15):
                    d = np.zeros(15)
                    d[c] = h
                    xp = _perturb_state(x_ref, d)
                    xm = _perturb_state(x_ref, -d)
                    if which == 0:
                        fd[:, c] = (residual(xp, x_k1) - residual(xm, x_k1)) / (2 * h)
                    else:
                        fd[:, c] = (residual(x_k, xp) - residual(x_k, xm)) / (2 * h)
                err = np.linalg.norm(fd - J) / max(np.linalg.norm(J), 1.0)
                assert err < 1e-4, f"seed {seed} state {which}: {err}"

    def test_intrinsics_jacobian_matches_re_preintegration(self):
        pre, x_k, x_k1, noise, samples, intr, bias = self._setup(seed=9)
        _, _, J_imu = inertial_error_jacobians(x_k, x_k1, pre)
        h = 1e-6
        fd = np.zeros((15, 15))
        for c in range(15):
            d = np.zeros(15)
            d[c] = h
            r_pm = []
            for sign in (1.0, -1.0):
                intr_p = _perturb_intrinsics(intr, sign * d)
                pre_p = preintegrate(samples, intr_p, bias, noise)
                r, _ = inertial_error(x_k, x_k1, pre_p)
                r_pm.append(r)
            fd[:, c] = (r_pm[0] - r_pm[1]) / (2 * h)
        err = np.linalg.norm(fd - J_imu) / max(np.linalg.norm(J_imu), 1.0)
        assert err < 1e-4, err


def _perturb_intrinsics(intr, d):
    return ImuIntrinsics(
        s_g=intr.s_g + d[0:3],
        s_a=intr.s_a + d[3:6],
        m_g=intr.m_g + d[6:9],
        m_a=intr.m_a + d[9:12],
        q_AI=intr.q_AI.retract(d[12:15]),
    )


def _preintegrate_intervals_loop(times, omega_meas, accel_meas, intr, bias_g, bias_a, noise):
    """The step recursion that preintegrate_intervals unrolls in closed
    form; the reference."""
    K, S1 = times.shape
    Tg_inv = np.linalg.inv(intr.T_g())
    Ta_inv = np.linalg.inv(intr.T_a())
    R_IA = intr.R_AI().T
    omega = np.einsum("ij,ksj->ksi", Tg_inv, omega_meas - bias_g[:, None, :])
    z_a = np.einsum("ij,ksj->ksi", Ta_inv, accel_meas - bias_a[:, None, :])
    f = np.einsum("ij,ksj->ksi", R_IA, z_a)

    # per-sample derivatives of the corrected (omega, f) wrt the 21
    # sensitivity parameters
    M = R_IA @ Ta_inv
    d_omega = np.zeros((K, S1, 3, 21))
    d_f = np.zeros((K, S1, 3, 21))
    d_omega[:, :, :, 0:3] = -Tg_inv
    d_f[:, :, :, 3:6] = -M
    # scale factors: derivative through T^{-1} is -T^{-1} E_jj (.)
    for j in range(3):
        d_omega[:, :, :, 6 + j] = -Tg_inv[:, j][None, None, :] * omega[:, :, j, None]
        d_f[:, :, :, 9 + j] = -M[:, j][None, None, :] * z_a[:, :, j, None]
    # misalignments occupy (0,1), (0,2), (1,2)
    for j, (r, c) in enumerate(((0, 1), (0, 2), (1, 2))):
        d_omega[:, :, :, 12 + j] = -Tg_inv[:, r][None, None, :] * omega[:, :, c, None]
        d_f[:, :, :, 15 + j] = -M[:, r][None, None, :] * z_a[:, :, c, None]
    # accelerometer frame rotation: f(delta) = Exp(-delta) f
    d_f[:, :, :, 18:21] = so3_hat(f)

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
    return PreintegratedImu(
        delta_rotation_matrix=dR,
        delta_velocity=delta_velocity,
        delta_position=delta_position,
        duration=durations,
        covariance=P,
        bias_jacobians=D[:, :, 0:6],
        param_jacobians=D[:, :, 6:21],
        noise=noise,
    )


class TestBatchedPreintegration:
    def test_matches_scalar_path(self):
        # a batch of K intervals against K single-interval calls
        rng = np.random.default_rng(21)
        K, S = 4, 10
        intr = perturbed_intrinsics()
        noise = NoiseModel()
        t0 = np.arange(K)[:, None] * 0.11
        times = t0 + np.linspace(0.0, 0.1, S + 1)[None, :]
        omega = rng.normal(size=(K, S + 1, 3)) * 0.5
        accel = rng.normal(size=(K, S + 1, 3)) + np.array([0.0, 0.0, STANDARD_GRAVITY])
        bias_g = rng.normal(size=(K, 3)) * 1e-3
        bias_a = rng.normal(size=(K, 3)) * 1e-2
        out = preintegrate_intervals(times, omega, accel, intr, bias_g, bias_a, noise)
        assert out.duration.shape == (K,)
        for k in range(K):
            samples = [ImuSample(times[k, s], omega[k, s], accel[k, s]) for s in range(S + 1)]
            pre = preintegrate(samples, intr, (bias_g[k], bias_a[k]), noise)
            support.assert_same_preintegration(out[k], pre)

    @pytest.mark.parametrize(
        "K, S",
        [(4, 10), (1, 10), (3, 1)],
        ids=["non_uniform_spacing", "single_interval", "single_step"],
    )
    def test_matches_step_loop(self, K, S):
        rng = np.random.default_rng(22)
        intr = perturbed_intrinsics()
        noise = NoiseModel()
        times = np.cumsum(rng.uniform(0.004, 0.016, size=(K, S + 1)), axis=1)
        omega = rng.normal(size=(K, S + 1, 3)) * 0.5
        accel = rng.normal(size=(K, S + 1, 3)) + np.array([0.0, 0.0, STANDARD_GRAVITY])
        bias_g = rng.normal(size=(K, 3)) * 1e-3
        bias_a = rng.normal(size=(K, 3)) * 1e-2
        args = (times, omega, accel, intr, bias_g, bias_a, noise)
        got, ref = preintegrate_intervals(*args), _preintegrate_intervals_loop(*args)
        for field in dataclasses.fields(PreintegratedImu):
            a, b = getattr(got, field.name), getattr(ref, field.name)
            if field.name == "noise":
                assert a == b
            else:
                np.testing.assert_allclose(a, b, rtol=1e-14, atol=1e-14 * np.abs(b).max())

    def test_padded_intervals_match_their_own_samples(self):
        # unequal sample counts, padded by repeating each interval's last
        # sample as CalibrationProblem does: a padded step (dt = 0) adds
        # nothing, through its sqrt(dt) noise weight or otherwise
        rng = np.random.default_rng(23)
        intr = perturbed_intrinsics()
        noise = NoiseModel()
        counts = np.array([11, 4, 8, 2])
        K = counts.size
        runs = [
            (np.cumsum(rng.uniform(0.004, 0.016, size=n)), rng.normal(size=(n, 3)) * 0.5, rng.normal(size=(n, 3)) - GRAVITY)
            for n in counts
        ]
        bias_g = rng.normal(size=(K, 3)) * 1e-3
        bias_a = rng.normal(size=(K, 3)) * 1e-2
        padded = [np.stack([run[i][np.minimum(np.arange(counts.max()), len(run[0]) - 1)] for run in runs]) for i in range(3)]
        got = preintegrate_intervals(*padded, intr, bias_g, bias_a, noise)
        for k, run in enumerate(runs):
            ref = _preintegrate_intervals_loop(*(x[None] for x in run), intr, bias_g[k : k + 1], bias_a[k : k + 1], noise)
            for field in dataclasses.fields(PreintegratedImu):
                if field.name != "noise":
                    a, b = getattr(got, field.name)[k], getattr(ref, field.name)[0]
                    np.testing.assert_allclose(a, b, rtol=1e-14, atol=1e-14 * np.abs(b).max())
