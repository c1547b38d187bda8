import math

import numpy as np
import pytest

from infocal.camera import (
    CameraIntrinsics,
    FeatureObservation,
    camera_factor_blocks,
    distortion_factor,
    distortion_gradients,
    _uv_core_jacobians,
)
from infocal.geometry import Transform, UnitQuaternion, so3_hat

from support import apply, identity_quat, identity_transform, invert

W_REF = 0.9203


def beta_oracle(r, w):
    # independent scalar evaluation of the distortion quotient
    return math.atan(2.0 * math.tan(w / 2.0) * r) / (w * r)


def default_intr():
    return CameraIntrinsics(f=(256.0, 256.0), c=(313.0, 243.0), w=W_REF)


def project(l_C, intr):
    """Reference projection of one camera-frame point with positive z."""
    l_C = np.asarray(l_C, dtype=float).reshape(3)
    if l_C[2] <= 0.0:
        raise ValueError("point behind camera: z=%g" % l_C[2])
    p_bar = l_C[:2] / l_C[2]
    return distortion_factor(np.linalg.norm(p_bar), intr.w) * intr.f * p_bar + intr.c


def undistort_radius(r_d, w):
    """Inverse of r -> beta(r) r, in closed form: tan(w r_d) / (2 tan(w/2))."""
    r_d = np.asarray(r_d, dtype=float)
    assert np.all(w * r_d < 0.5 * math.pi), "distorted radius outside the invertible domain"
    return np.tan(w * r_d) / (2.0 * math.tan(0.5 * w))


def undistort_point(uv, intr):
    """Pixel coordinates to undistorted normalized coordinates (unit z)."""
    pd = (np.asarray(uv, dtype=float) - intr.c) / intr.f
    r_d = np.linalg.norm(pd)
    return pd if r_d < 1e-12 else pd * undistort_radius(r_d, intr.w) / r_d


def predict_observation(T_IG_k, T_CI, l_G, intr):
    """Reference pixel prediction of a global landmark from keyframe k:
    T_IG_k maps global coordinates into the IMU frame, T_CI the IMU frame
    into the camera frame."""
    return project(apply(T_CI, apply(T_IG_k, np.asarray(l_G, dtype=float))), intr)


def predict(T_GIs, T_CI, l_Gs, intr):
    """camera_factor_blocks' (uv, valid) for keyframe poses T_GIs (global
    from IMU) and global landmarks l_Gs, one observation each."""
    q = np.stack([T.rotation.wxyz for T in T_GIs])
    p = np.stack([T.translation for T in T_GIs])
    l_G = np.asarray(l_Gs, dtype=float).reshape(-1, 3)
    uv, valid, _, _, _, _ = camera_factor_blocks(q, p, T_CI.rotation.matrix(), T_CI.translation, l_G, intr)
    return uv, valid


def observe(l_C, intr):
    """camera_factor_blocks' (uv, valid) for camera-frame points: keyframe,
    IMU and camera frames all at the origin."""
    l_C = np.asarray(l_C, dtype=float).reshape(-1, 3)
    return predict([identity_transform()] * len(l_C), identity_transform(), l_C, intr)


class TestDistortionFactor:
    def test_zero_radius_limit(self):
        limit = 2.0 * math.tan(0.46015) / W_REF
        assert abs(distortion_factor(0.0, W_REF) - limit) < 1e-12

    def test_unit_radius(self):
        val = distortion_factor(1.0, W_REF)
        assert abs(val - beta_oracle(1.0, W_REF)) < 1e-12
        assert abs(val - 0.848) < 1e-3

    def test_monotone_decreasing(self):
        rs = np.linspace(1e-3, 3.0, 200)
        vals = distortion_factor(rs, W_REF)
        assert np.all(np.diff(vals) < 0)

    def test_series_continuity(self):
        r = 1e-4
        lo = distortion_factor(r * (1.0 - 1e-9), W_REF)
        hi = distortion_factor(r * (1.0 + 1e-9), W_REF)
        assert abs(lo - hi) < 1e-12

    def test_matches_oracle_above_switch(self):
        for r in [2e-4, 1e-3, 0.05, 0.5, 1.7]:
            assert abs(distortion_factor(r, W_REF) - beta_oracle(r, W_REF)) < 1e-12

    def test_gradient_finite_difference(self):
        eps = 1e-7
        for r in [0.0, 5e-5, 2e-4, 0.01, 0.4, 1.3]:
            for w in [0.3, W_REF, 1.5]:
                beta, brr, dbdw = distortion_gradients(r, w)
                fd_w = (distortion_factor(r, w + eps) - distortion_factor(r, w - eps)) / (2 * eps)
                assert abs(dbdw - fd_w) < 1e-6 * max(1.0, abs(fd_w))
                if r > 0:
                    fd_r = (distortion_factor(r + eps, w) - distortion_factor(max(r - eps, 0), w)) / (2 * eps)
                    assert abs(brr * r - fd_r) < 1e-5 * max(1.0, abs(fd_r))


class TestProject:
    def test_optical_axis(self):
        intr = default_intr()
        uv, valid = observe([0.0, 0.0, 1.0], intr)
        assert valid.all()
        np.testing.assert_allclose(uv[0], intr.c, atol=1e-12)

    def test_offaxis_oracle(self):
        intr = default_intr()
        uv, _ = observe([0.1, 0.0, 1.0], intr)
        expected_u = intr.c[0] + 256.0 * 0.1 * beta_oracle(0.1, W_REF)
        np.testing.assert_allclose(uv[0], [expected_u, intr.c[1]], atol=1e-10)

    def test_odd_symmetry(self):
        intr = default_intr()
        rng = np.random.default_rng(0)
        for _ in range(20):
            x, y = rng.uniform(-0.8, 0.8, 2)
            z = rng.uniform(0.5, 3.0)
            uv, _ = observe([[x, y, z], [-x, -y, z]], intr)
            np.testing.assert_allclose(uv[0] - intr.c, -(uv[1] - intr.c), atol=1e-10)

    def test_behind_camera(self):
        # not an error: the observation is flagged invalid and its rows are zero
        n = 3
        l_C = np.array([[0.1, 0.1, 1.0], [0.1, 0.1, -0.5], [0.1, 0.1, 0.0]])
        uv, valid, J_pose, J_l, J_extr, J_intr = camera_factor_blocks(
            np.tile([1.0, 0.0, 0.0, 0.0], (n, 1)), np.zeros((n, 3)), np.eye(3), np.zeros(3), l_C, default_intr()
        )
        assert valid.tolist() == [True, False, False]
        for block in (uv, J_pose, J_l, J_extr, J_intr):
            assert np.all(block[1:] == 0.0) and np.any(block[0] != 0.0)

    def test_batched_matches_single(self):
        intr = default_intr()
        rng = np.random.default_rng(1)
        pts = rng.uniform(-1, 1, (30, 3))
        pts[:, 2] = rng.uniform(0.3, 4.0, 30)
        uv, valid = observe(pts, intr)
        assert valid.all()
        for i in range(30):
            np.testing.assert_allclose(uv[i], project(pts[i], intr), atol=1e-12)

    def test_invariants_intrinsics(self):
        with pytest.raises(ValueError):
            CameraIntrinsics(f=(0.0, 256.0), c=(0, 0), w=0.9)
        with pytest.raises(ValueError):
            CameraIntrinsics(f=(256.0, 256.0), c=(0, 0), w=3.5)
        for sigma in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="sigma"):
                FeatureObservation(0, 0, (1.0, 2.0), sigma)
        for uv in ((math.nan, 2.0), (1.0, -math.inf)):
            with pytest.raises(ValueError, match="pixel"):
                FeatureObservation(0, 0, uv, 0.5)


class TestUndistort:
    def test_radius_roundtrip(self):
        rng = np.random.default_rng(2)
        r = rng.uniform(0.0, 2.5, 200)
        r_d = distortion_factor(r, W_REF) * r
        np.testing.assert_allclose(undistort_radius(r_d, W_REF), r, atol=1e-9)

    def test_point_roundtrip(self):
        intr = default_intr()
        rng = np.random.default_rng(3)
        for _ in range(50):
            p = rng.uniform(-1.2, 1.2, 2)
            uv, _ = observe([p[0], p[1], 1.0], intr)
            back = undistort_point(uv[0], intr)
            np.testing.assert_allclose(back, p, atol=1e-9)


def random_config(rng):
    q = rng.standard_normal(4)
    q_GI = UnitQuaternion.from_array(q / np.linalg.norm(q))
    p_GI = rng.uniform(-2, 2, 3)
    T_GI = Transform(q_GI, p_GI)
    qe = np.array([1.0, *rng.uniform(-0.05, 0.05, 3)])
    T_CI = Transform(UnitQuaternion.from_array(qe / np.linalg.norm(qe)), rng.uniform(-0.05, 0.05, 3))
    # landmark drawn in front of the camera, then mapped to global coords
    l_C = np.array([rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8), rng.uniform(0.5, 5.0)])
    l_I = apply(invert(T_CI), l_C)
    l_G = apply(T_GI, l_I)
    return T_GI, T_CI, l_G


class TestPredictObservation:
    def test_identity(self):
        intr = default_intr()
        uv, _ = predict([identity_transform()], identity_transform(), [0, 0, 1.0], intr)
        np.testing.assert_allclose(uv[0], intr.c, atol=1e-12)

    def test_translation_chain(self):
        intr = default_intr()
        T_GI = Transform(identity_quat(), [0.0, 0.0, -1.0])
        uv, _ = predict([T_GI], identity_transform(), [0, 0, 1.0], intr)
        np.testing.assert_allclose(uv[0], project([0.0, 0.0, 2.0], intr), atol=1e-12)

    def test_compositional_oracle(self):
        intr = default_intr()
        rng = np.random.default_rng(4)
        for _ in range(25):
            T_GI, T_CI, l_G = random_config(rng)
            uv, valid = predict([T_GI], T_CI, l_G, intr)
            l_C = apply(T_CI, apply(invert(T_GI), l_G))
            assert valid.all()
            np.testing.assert_allclose(uv[0], project(l_C, intr), atol=1e-10)


def fd_jacobians(T_GI, T_CI, l_G, intr, eps=1e-6):
    """Central finite differences of predict_observation, all four blocks."""

    def predict(T_GI_, T_CI_, l_G_, intr_):
        return predict_observation(invert(T_GI_), T_CI_, l_G_, intr_)

    J_pose = np.zeros((2, 6))
    for k in range(6):
        d = np.zeros(6)
        d[k] = eps
        Tp = Transform(T_GI.rotation.retract(d[:3]), T_GI.translation + d[3:])
        d[k] = -eps
        Tm = Transform(T_GI.rotation.retract(d[:3]), T_GI.translation + d[3:])
        J_pose[:, k] = (predict(Tp, T_CI, l_G, intr) - predict(Tm, T_CI, l_G, intr)) / (2 * eps)

    J_l = np.zeros((2, 3))
    for k in range(3):
        d = np.zeros(3)
        d[k] = eps
        J_l[:, k] = (predict(T_GI, T_CI, l_G + d, intr) - predict(T_GI, T_CI, l_G - d, intr)) / (2 * eps)

    J_extr = np.zeros((2, 6))
    for k in range(6):
        d = np.zeros(6)
        d[k] = eps
        Tp = Transform(T_CI.rotation.retract(d[:3]), T_CI.translation + d[3:])
        d[k] = -eps
        Tm = Transform(T_CI.rotation.retract(d[:3]), T_CI.translation + d[3:])
        J_extr[:, k] = (predict(T_GI, Tp, l_G, intr) - predict(T_GI, Tm, l_G, intr)) / (2 * eps)

    J_intr = np.zeros((2, 5))
    base = np.array([intr.f[0], intr.f[1], intr.c[0], intr.c[1], intr.w])
    for k in range(5):
        d = np.zeros(5)
        d[k] = eps
        ip = CameraIntrinsics(base[:2] + d[:2], base[2:4] + d[2:4], base[4] + d[4])
        im = CameraIntrinsics(base[:2] - d[:2], base[2:4] - d[2:4], base[4] - d[4])
        J_intr[:, k] = (predict(T_GI, T_CI, l_G, ip) - predict(T_GI, T_CI, l_G, im)) / (2 * eps)
    return J_pose, J_l, J_extr, J_intr


def projection_jacobians(T_IG_k: Transform, T_CI: Transform, l_G, intr: CameraIntrinsics):
    """Analytic Jacobian blocks of predict_observation at one point: the
    single-point reference that camera_factor_blocks batches.

    Returns (duv_dpose, duv_dl, duv_dextr, duv_dintr):
      duv_dpose: 2x6 wrt the keyframe pose T_GI minimal delta
                 [rotation delta (right exp on q_GI), position delta],
      duv_dl:    2x3 wrt the global landmark,
      duv_dextr: 2x6 wrt the extrinsics T_CI minimal delta
                 [rotation delta (right exp on q_CI), translation delta],
      duv_dintr: 2x5 wrt (f_x, f_y, c_x, c_y, w).
    """
    l_G = np.asarray(l_G, dtype=float).reshape(3)
    l_I = apply(T_IG_k, l_G)
    l_C = apply(T_CI, l_I)
    if l_C[2] <= 0.0:
        raise ValueError("point behind camera: z=%g" % l_C[2])
    _, A, duv_df, duv_dw = _uv_core_jacobians(l_C, intr)

    R_CI = T_CI.rotation.matrix()
    R_IG = T_IG_k.rotation.matrix()
    li_hat = so3_hat(l_I)

    duv_dl = A @ (R_CI @ R_IG)
    duv_dpose = np.concatenate([A @ (R_CI @ li_hat), -A @ (R_CI @ R_IG)], axis=-1)
    duv_dextr = np.concatenate([-(A @ R_CI) @ li_hat, A], axis=-1)
    duv_dintr = np.concatenate([duv_df, np.broadcast_to(np.eye(2), duv_df.shape).copy(), duv_dw[:, None]], axis=-1)
    return duv_dpose, duv_dl, duv_dextr, duv_dintr


def rel_err(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-9)


class TestProjectionJacobians:
    def test_principal_point_block(self):
        intr = default_intr()
        rng = np.random.default_rng(5)
        for _ in range(5):
            T_GI, T_CI, l_G = random_config(rng)
            _, _, _, J_intr = projection_jacobians(invert(T_GI), T_CI, l_G, intr)
            np.testing.assert_allclose(J_intr[:, 2:4], np.eye(2), atol=1e-12)

    def test_axis_point_focal_block(self):
        intr = default_intr()
        _, _, _, J_intr = projection_jacobians(
            identity_transform(), identity_transform(), [0.0, 0.0, 2.0], intr
        )
        np.testing.assert_allclose(J_intr[:, :2], 0.0, atol=1e-12)

    def test_finite_differences(self):
        intr = default_intr()
        rng = np.random.default_rng(6)
        for _ in range(30):
            T_GI, T_CI, l_G = random_config(rng)
            J_pose, J_l, J_extr, J_intr = projection_jacobians(invert(T_GI), T_CI, l_G, intr)
            F_pose, F_l, F_extr, F_intr = fd_jacobians(T_GI, T_CI, l_G, intr)
            assert rel_err(J_pose, F_pose) < 1e-4
            assert rel_err(J_l, F_l) < 1e-4
            assert rel_err(J_extr, F_extr) < 1e-4
            assert rel_err(J_intr, F_intr) < 1e-4

    def test_batched_blocks_match_single(self):
        intr = default_intr()
        rng = np.random.default_rng(7)
        configs = [random_config(rng) for _ in range(12)]
        q = np.stack([c[0].rotation.wxyz for c in configs])
        p = np.stack([c[0].translation for c in configs])
        T_CI = configs[0][1]
        lm = np.stack([c[2] for c in configs])
        R_CI = T_CI.rotation.matrix()
        uv, valid, J_pose, J_l, J_extr, J_intr = camera_factor_blocks(
            q, p, R_CI, T_CI.translation, lm, intr
        )
        assert valid.all()
        for i, (T_GI, _, l_G) in enumerate(configs):
            s_pose, s_l, s_extr, s_intr = projection_jacobians(invert(T_GI), T_CI, l_G, intr)
            np.testing.assert_allclose(uv[i], predict_observation(invert(T_GI), T_CI, l_G, intr), atol=1e-10)
            np.testing.assert_allclose(J_pose[i], s_pose, atol=1e-9)
            np.testing.assert_allclose(J_l[i], s_l, atol=1e-9)
            np.testing.assert_allclose(J_extr[i], s_extr, atol=1e-9)
            np.testing.assert_allclose(J_intr[i], s_intr, atol=1e-9)
