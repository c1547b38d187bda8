import numpy as np

from infocal.geometry import (
    _SMALL_ANGLE,
    Transform,
    UnitQuaternion,
    matrix_to_quat,
    quat_conj,
    quat_exp,
    quat_log,
    quat_mul,
    quat_to_matrix,
    so3_exp,
    so3_right_jacobian,
    so3_right_jacobian_inv,
)

from support import apply, identity_quat, identity_transform, invert, quat_local, quat_rotate


def random_quat(rng):
    q = rng.standard_normal(4)
    return UnitQuaternion.from_array(q / np.linalg.norm(q))


def random_transform(rng, scale=1.0):
    return Transform(random_quat(rng), rng.standard_normal(3) * scale)


def compose(T_AB, T_BC):
    """Reference T_AC, whose apply chains T_AB.apply after T_BC.apply."""
    rot = UnitQuaternion.from_array(quat_mul(T_AB.rotation.wxyz, T_BC.rotation.wxyz))
    return Transform(rot, apply(T_AB, T_BC.translation))


class TestTransformPoint:
    def test_identity(self):
        T = identity_transform()
        np.testing.assert_allclose(apply(T, [1.0, 2.0, 3.0]), [1.0, 2.0, 3.0])

    def test_pure_translation(self):
        T = Transform(identity_quat(), [0.0, 0.0, 1.0])
        np.testing.assert_allclose(apply(T, [0.0, 0.0, 0.0]), [0.0, 0.0, 1.0])

    def test_yaw_90(self):
        # Hand-evaluated rotation matrix for +90 deg about z:
        # [[0,-1,0],[1,0,0],[0,0,1]] maps (1,0,0) to (0,1,0).
        q = UnitQuaternion.from_rotation_vector([0.0, 0.0, np.pi / 2])
        T = Transform(q, np.zeros(3))
        np.testing.assert_allclose(apply(T, [1.0, 0.0, 0.0]), [0.0, 1.0, 0.0], atol=1e-12)
        oracle = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        np.testing.assert_allclose(q.matrix(), oracle, atol=1e-12)

    def test_norm_preserved(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            q = random_quat(rng)
            p = rng.standard_normal(3)
            np.testing.assert_allclose(np.linalg.norm(quat_rotate(q.wxyz, p)), np.linalg.norm(p), atol=1e-12)


class TestCompose:
    def test_identity(self):
        rng = np.random.default_rng(0)
        T = random_transform(rng)
        C = compose(identity_transform(), T)
        np.testing.assert_allclose(C.rotation.wxyz, T.rotation.wxyz, atol=1e-12)
        np.testing.assert_allclose(C.translation, T.translation, atol=1e-12)

    def test_inverse(self):
        rng = np.random.default_rng(1)
        T = random_transform(rng)
        C = compose(T, invert(T))
        np.testing.assert_allclose(abs(C.rotation.wxyz[0]), 1.0, atol=1e-9)
        np.testing.assert_allclose(C.translation, np.zeros(3), atol=1e-9)

    def test_pointwise_oracle(self):
        # compose must agree with sequential application on random points
        rng = np.random.default_rng(2)
        T_ab = random_transform(rng)
        T_bc = random_transform(rng)
        T_ac = compose(T_ab, T_bc)
        pts = rng.standard_normal((100, 3))
        chained = apply(T_ab, apply(T_bc, pts))
        np.testing.assert_allclose(apply(T_ac, pts), chained, atol=1e-9)

    def test_associativity(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            A, B, C = (random_transform(rng) for _ in range(3))
            left = compose(compose(A, B), C)
            right = compose(A, compose(B, C))
            pts = rng.standard_normal((5, 3))
            np.testing.assert_allclose(apply(left, pts), apply(right, pts), atol=1e-9)


class TestTangentSpace:
    def test_retract_local_roundtrip(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            q = random_quat(rng)
            delta = rng.uniform(-1, 1, 3)
            delta *= rng.uniform(0.0, 0.1) / max(np.linalg.norm(delta), 1e-12)
            q2 = q.retract(delta)
            np.testing.assert_allclose(quat_local(q.wxyz, q2.wxyz), delta, atol=1e-9)

    def test_exp_log_roundtrip_raw(self):
        rng = np.random.default_rng(10)
        phi = rng.uniform(-1.5, 1.5, (200, 3))
        np.testing.assert_allclose(quat_log(quat_exp(phi)), phi, atol=1e-9)

    def test_exp_small_angle_series(self):
        phi = np.array([1e-10, -2e-10, 5e-11])
        q = quat_exp(phi)
        np.testing.assert_allclose(q[1:], phi / 2, rtol=1e-6)
        np.testing.assert_allclose(quat_log(q), phi, rtol=1e-6)

    def test_matrix_quat_roundtrip(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            q = random_quat(rng).wxyz
            q2 = matrix_to_quat(quat_to_matrix(q))
            assert min(np.linalg.norm(q2 - q), np.linalg.norm(q2 + q)) < 1e-9

    def test_so3_exp_matches_quat_exp(self):
        rng = np.random.default_rng(12)
        phi = rng.uniform(-2, 2, (50, 3))
        np.testing.assert_allclose(so3_exp(phi), quat_to_matrix(quat_exp(phi)), atol=1e-12)

    def test_right_jacobian_finite_difference(self):
        rng = np.random.default_rng(13)
        eps = 1e-7
        for _ in range(20):
            phi = rng.uniform(-1, 1, 3)
            J = so3_right_jacobian(phi)
            J_fd = np.zeros((3, 3))
            for k in range(3):
                d = np.zeros(3)
                d[k] = eps
                # Exp(phi + d) = Exp(phi) Exp(J_r d)  =>  columns via log
                delta = quat_log(quat_mul(quat_conj(quat_exp(phi)), quat_exp(phi + d)))
                J_fd[:, k] = delta / eps
            np.testing.assert_allclose(J, J_fd, atol=1e-6)
            np.testing.assert_allclose(so3_right_jacobian_inv(phi) @ J, np.eye(3), atol=1e-9)

    def test_right_jacobian_inv_of_negated_angle_is_its_transpose(self):
        # exactly, as imu.inertial_factor_blocks relies on: zero, the small-
        # angle series, the closed form, and angles near and beyond pi
        rng = np.random.default_rng(15)
        axes = rng.normal(size=(6001, 3))
        axes /= np.linalg.norm(axes, axis=1, keepdims=True)
        angles = np.concatenate(
            [
                [0.0],
                _SMALL_ANGLE * np.array([1e-6, 0.1, 0.5, 0.999]),
                np.linspace(_SMALL_ANGLE, 3.0, 5000),
                np.pi + np.linspace(-1e-3, 1e-3, 996),
            ]
        )
        phi = axes * angles[:, None]
        J = so3_right_jacobian_inv(phi)
        assert np.array_equal(so3_right_jacobian_inv(-phi), np.swapaxes(J, -1, -2))

    def test_double_cover(self):
        rng = np.random.default_rng(14)
        q = random_quat(rng)
        q_neg = UnitQuaternion.from_array(-q.wxyz)
        assert q.angle_to(q_neg) < 1e-9
        p = rng.standard_normal(3)
        np.testing.assert_allclose(quat_rotate(q.wxyz, p), quat_rotate(q_neg.wxyz, p), atol=1e-12)


def _matrix_to_quat_loop(m):
    """Per-element Shepperd loop that matrix_to_quat replaced; the reference."""
    m = np.asarray(m, dtype=float)
    single = m.ndim == 2
    if single:
        m = m[None]
    t = np.einsum("...ii->...", m)
    q = np.empty(m.shape[:-2] + (4,), dtype=float)
    choice = np.argmax(np.stack([t, m[..., 0, 0], m[..., 1, 1], m[..., 2, 2]], axis=-1), axis=-1)
    for idx in np.ndindex(m.shape[:-2]):
        mm = m[idx]
        c = choice[idx]
        if c == 0:
            s = np.sqrt(t[idx] + 1.0) * 2.0
            q[idx] = [0.25 * s, (mm[2, 1] - mm[1, 2]) / s, (mm[0, 2] - mm[2, 0]) / s, (mm[1, 0] - mm[0, 1]) / s]
        elif c == 1:
            s = np.sqrt(1.0 + mm[0, 0] - mm[1, 1] - mm[2, 2]) * 2.0
            q[idx] = [(mm[2, 1] - mm[1, 2]) / s, 0.25 * s, (mm[0, 1] + mm[1, 0]) / s, (mm[0, 2] + mm[2, 0]) / s]
        elif c == 2:
            s = np.sqrt(1.0 - mm[0, 0] + mm[1, 1] - mm[2, 2]) * 2.0
            q[idx] = [(mm[0, 2] - mm[2, 0]) / s, (mm[0, 1] + mm[1, 0]) / s, 0.25 * s, (mm[1, 2] + mm[2, 1]) / s]
        else:
            s = np.sqrt(1.0 - mm[0, 0] - mm[1, 1] + mm[2, 2]) * 2.0
            q[idx] = [(mm[1, 0] - mm[0, 1]) / s, (mm[0, 2] + mm[2, 0]) / s, (mm[1, 2] + mm[2, 1]) / s, 0.25 * s]
    neg = q[..., 0] < 0.0
    q[neg] *= -1.0
    q = q / np.linalg.norm(q, axis=-1, keepdims=True)
    return q[0] if single else q


class TestMatrixToQuat:
    def _matrices(self):
        # 5000 random rotations, the identity, and the exact rotations by pi
        # about x, y and z: their trace branch divides by zero and their w is
        # exactly zero
        rng = np.random.default_rng(15)
        q = rng.standard_normal((5000, 4))
        m = quat_to_matrix(q / np.linalg.norm(q, axis=-1, keepdims=True))
        special = [np.eye(3)] + [np.diag(2.0 * e - 1.0) for e in np.eye(3)]
        return np.concatenate([m, np.stack(special)])

    def test_bitwise_equal_to_per_element_loop(self):
        m = self._matrices()
        branch = np.argmax(np.stack([np.einsum("...ii->...", m), m[:, 0, 0], m[:, 1, 1], m[:, 2, 2]], axis=-1), axis=-1)
        assert set(branch.tolist()) == {0, 1, 2, 3}
        assert branch[-3:].tolist() == [1, 2, 3]
        np.testing.assert_array_equal(matrix_to_quat(m), _matrix_to_quat_loop(m))

    def test_two_leading_dimensions_and_single_matrix(self):
        m = self._matrices()[:5000].reshape(50, 100, 3, 3)
        np.testing.assert_array_equal(matrix_to_quat(m), _matrix_to_quat_loop(m))
        for mm in self._matrices()[-4:]:
            np.testing.assert_array_equal(matrix_to_quat(mm), _matrix_to_quat_loop(mm))
