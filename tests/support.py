"""Shared scene construction, reference evaluations and small geometry
helpers for the tests.

Builds small consistent visual-inertial scenes with exactly zero residual
at the ground truth: IMU measurements come from the forward measurement
models, keyframe states are chained with the same midpoint integration the
preintegration uses, and image observations are exact projections.
evaluate_residuals is the unweighted residual, block weights and sparse
Jacobian of a whole problem, the reference the finite-difference, model
decrease, damped step and dense covariance tests compare against.  The remaining
helpers (quat_rotate, quat_local, apply, identity_quat, identity_transform,
invert, nominal_imu, delta_rotation, inertial_error) are conveniences only
tests use; spy_damped_steps and uphill force failed Levenberg-Marquardt
trials.  split_sessions builds a problem whose keyframe band the solver
cuts into chains.  traced_table reads the benchmark's TRACED table, and
traced_peak measures what a call allocates.
"""

import ast
import math
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np
import scipy.sparse

import infocal.problem
from infocal.camera import CameraExtrinsics, CameraIntrinsics, FeatureObservation, camera_factor_blocks
from infocal.geometry import Transform, UnitQuaternion, quat_conj, quat_log, quat_mul, quat_to_matrix, so3_exp
from infocal.imu import (
    ImuIntrinsics,
    ImuSample,
    NoiseModel,
    StateStack,
    bias_walk_sigmas,
    inertial_factor_blocks,
    inertial_weight,
    preintegrate,
    simulate_accel,
    simulate_gyro,
)
from infocal.problem import (
    CALIB_DIM,
    IMU_BLOCK,
    KF_DIM,
    LM_DIM,
    CalibrationState,
    KeyframeState,
    Landmark,
    Segment,
    bridge_blocks,
    build_segment_problem,
    camera_blocks,
    refresh_preintegrations,
)


RUN_PY = Path(__file__).resolve().parents[1] / "bench" / "run.py"


def traced_table():
    """(module, attribute) of each entry of bench/run.py's TRACED table,
    the module as its import name.  run.py is read with ast, not imported:
    importing it pins BLAS environment variables."""
    tree = ast.parse(RUN_PY.read_text())
    aliases = {
        alias.asname or alias.name: "infocal." + alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module == "infocal"
        for alias in node.names
    }
    (node,) = [n.value for n in tree.body if isinstance(n, ast.Assign) and [ast.unparse(t) for t in n.targets] == ["TRACED"]]
    table = []
    for entry in node.elts:
        head, _, rest = ast.unparse(entry.elts[0]).partition(".")
        module = ".".join(filter(None, (aliases.get(head, head), rest)))
        table.append((module, ast.literal_eval(entry.elts[1])))
    return table


def traced_peak(fn):
    """(fn(), the tracemalloc peak in bytes while it ran): the most that
    fn held at once of what it allocated, its result included."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def assert_same_preintegration(got, ref):
    """Two PreintegratedImu results agree to rounding."""
    np.testing.assert_allclose(got.delta_rotation_matrix, ref.delta_rotation_matrix, atol=1e-12)
    np.testing.assert_allclose(got.delta_velocity, ref.delta_velocity, atol=1e-12)
    np.testing.assert_allclose(got.delta_position, ref.delta_position, atol=1e-12)
    np.testing.assert_allclose(got.covariance, ref.covariance, atol=1e-15)
    np.testing.assert_allclose(got.bias_jacobians, ref.bias_jacobians, atol=1e-12)
    np.testing.assert_allclose(got.param_jacobians, ref.param_jacobians, atol=1e-12)
    np.testing.assert_allclose(got.duration, ref.duration, rtol=1e-12)


def true_calibration():
    camera = CameraIntrinsics(f=np.array([400.0, 402.0]), c=np.array([318.0, 242.0]), w=0.9)
    extr = CameraExtrinsics(
        Transform(
            UnitQuaternion.from_rotation_vector(np.array([0.01, -0.02, 0.015])),
            np.array([0.025, -0.012, 0.008]),
        )
    )
    imu = ImuIntrinsics(
        s_g=np.array([1.003, 0.998, 1.001]),
        s_a=np.array([0.997, 1.004, 1.002]),
        m_g=np.array([1.2e-3, -0.8e-3, 1.5e-3]),
        m_a=np.array([-1.0e-3, 1.8e-3, 0.6e-3]),
        q_AI=UnitQuaternion.from_rotation_vector(np.array([0.003, -0.004, 0.002])),
    )
    return CalibrationState(camera, extr, imu)


@dataclass
class Scene:
    keyframes: list
    landmarks: list
    observations: list
    imu_stream: list
    calibration: CalibrationState
    noise: NoiseModel
    cam_dt: float
    imu_rate: float
    landmark_positions: dict = field(default_factory=dict)


def _omega_true(t):
    # rotation-rich motion; weakly excited scenes leave IMU intrinsics in
    # near-null directions that stall the optimizer tail
    return np.array(
        [
            2.0 * math.sin(2.1 * t + 0.4),
            -1.7 * math.cos(1.7 * t),
            1.8 * math.sin(2.9 * t + 1.1),
        ]
    )


def _accel_true(t):
    return np.array(
        [
            3.5 * math.cos(2.3 * t),
            -2.8 * math.sin(1.9 * t + 0.5),
            2.4 * math.sin(2.7 * t),
        ]
    )


def make_scene(
    seed=0,
    n_keyframes=6,
    n_landmarks=20,
    cam_rate=10.0,
    imu_rate=100.0,
    obs_fraction=1.0,
    omega_fn=None,
    accel_fn=None,
    v0=None,
):
    """Noise-free scene; residuals at the returned states are ~1e-12."""
    rng = np.random.default_rng(seed)
    calib = true_calibration()
    noise = NoiseModel()
    g = noise.gravity_vector()
    cam_dt = 1.0 / cam_rate
    steps_per_kf = int(round(imu_rate / cam_rate))
    n_samples = (n_keyframes - 1) * steps_per_kf + 1
    ts = np.arange(n_samples) / imu_rate

    b_g = np.array([2e-3, -1e-3, 1.5e-3])
    b_a = np.array([0.02, -0.015, 0.01])

    omega_fn = omega_fn or _omega_true
    accel_fn = accel_fn or _accel_true
    # attitude chain at IMU rate with the same midpoint rule the
    # preintegration uses, so the whole pipeline is exactly consistent
    omegas = np.stack([omega_fn(t) for t in ts])
    accels = np.stack([accel_fn(t) for t in ts])
    q0 = UnitQuaternion.from_rotation_vector(np.array([0.05, -0.03, 0.08]))
    R = [q0.matrix()]
    dt = 1.0 / imu_rate
    for i in range(n_samples - 1):
        R.append(R[-1] @ so3_exp(0.5 * (omegas[i] + omegas[i + 1]) * dt))

    imu_stream = []
    for i, t in enumerate(ts):
        w_meas = simulate_gyro(omegas[i], calib.imu, b_g, np.zeros(3))
        a_meas = simulate_accel(accels[i], R[i].T, calib.imu, b_a, np.zeros(3), gravity=g)
        imu_stream.append(ImuSample(t, w_meas, a_meas))

    # keyframe states chained through preintegration of the same stream
    if v0 is None:
        v0 = np.array([0.05, -0.02, 0.03])
    x = KeyframeState(q_GI=q0, p_GI=np.zeros(3), v_GI=np.asarray(v0, dtype=float), b_a=b_a, b_g=b_g, t=0.0)
    keyframes = [x]
    for k in range(n_keyframes - 1):
        lo, hi = k * steps_per_kf, (k + 1) * steps_per_kf + 1
        pre = preintegrate(imu_stream[lo:hi], calib.imu, (b_g, b_a), noise)
        R_k = x.q_GI.matrix()
        T = pre.duration
        x = KeyframeState(
            q_GI=UnitQuaternion.from_matrix(R_k @ pre.delta_rotation_matrix),
            p_GI=x.p_GI + x.v_GI * T + 0.5 * g * T * T + R_k @ (pre.delta_position - 0.5 * g * T * T),
            v_GI=x.v_GI + g * T + R_k @ (pre.delta_velocity - g * T),
            b_a=b_a,
            b_g=b_g,
            t=float(ts[hi - 1]),
        )
        keyframes.append(x)

    landmarks = []
    for i in range(n_landmarks):
        l = np.array(
            [
                rng.uniform(-1.0, 1.0),
                rng.uniform(-0.8, 0.8),
                rng.uniform(2.5, 4.5),
            ]
        )
        landmarks.append(Landmark(l, i))

    q_arr = np.stack([k.q_GI.wxyz for k in keyframes])
    p_arr = np.stack([k.p_GI for k in keyframes])
    l_arr = np.stack([lm.l_G for lm in landmarks])
    T_CI = calib.extrinsics.T_CI
    observations = []
    for k in range(n_keyframes):
        qs = np.repeat(q_arr[k : k + 1], n_landmarks, axis=0)
        ps = np.repeat(p_arr[k : k + 1], n_landmarks, axis=0)
        uv, valid, _, _, _, _ = camera_factor_blocks(
            qs, ps, T_CI.rotation.matrix(), T_CI.translation, l_arr, calib.camera
        )
        for m in range(n_landmarks):
            if not valid[m]:
                continue
            if obs_fraction < 1.0 and rng.uniform() > obs_fraction:
                continue
            observations.append(FeatureObservation(k, m, uv[m].copy(), noise.sigma_c))

    return Scene(
        keyframes=keyframes,
        landmarks=landmarks,
        observations=observations,
        imu_stream=imu_stream,
        calibration=calib,
        noise=noise,
        cam_dt=cam_dt,
        imu_rate=imu_rate,
        landmark_positions={lm.id: lm.l_G.copy() for lm in landmarks},
    )


def scene_segments(scene, kf_per_segment, keep=None, session_id="s0"):
    """Chop a scene into consecutive segments of kf_per_segment keyframes.

    Each segment's IMU span extends one camera interval past its last
    keyframe (except at the session end) so adjacent segments can be
    chained without a bridge.  `keep` selects segment indices.
    """
    K = len(scene.keyframes)
    n_seg = K // kf_per_segment
    steps_per_kf = int(round(scene.imu_rate * scene.cam_dt))
    segments = []
    for s in range(n_seg):
        k0 = s * kf_per_segment
        k1 = k0 + kf_per_segment - 1
        lo = k0 * steps_per_kf
        hi = min((k1 + 1) * steps_per_kf, len(scene.imu_stream) - 1)
        obs = [o for o in scene.observations if k0 <= o.keyframe_id <= k1]
        lm_ids = {o.landmark_id for o in obs}
        segments.append(
            Segment(
                id=s,
                session_id=session_id,
                keyframe_ids=list(range(k0, k1 + 1)),
                keyframes=scene.keyframes[k0 : k1 + 1],
                imu_samples=scene.imu_stream[lo : hi + 1],
                observations=obs,
                landmarks={i: scene.landmark_positions[i] for i in lm_ids},
            )
        )
    if keep is not None:
        segments = [segments[i] for i in keep]
    return segments


def keep_landmarks(segment, ids):
    """Drop a segment's observations of landmarks outside ids, and the
    landmarks it then no longer observes."""
    segment.observations = [o for o in segment.observations if o.landmark_id in ids]
    segment.landmarks = {o.landmark_id: segment.landmarks[o.landmark_id] for o in segment.observations}


def split_sessions():
    """A problem whose keyframe band the solver cuts into four chains of
    three keyframes: session s0 keeps segments 0, 2 and 4 of a 15-keyframe
    scene, so bias bridges cross its two gaps, and session s1 keeps segment
    1, so nothing crosses between the sessions.  Each segment sees its own
    20 of the 80 landmarks, some from only one or two of its keyframes."""
    sc = make_scene(seed=4, n_keyframes=15, n_landmarks=80, obs_fraction=0.8)
    segs = scene_segments(sc, 3, keep=[0, 2, 4]) + scene_segments(sc, 3, keep=[1], session_id="s1")
    for i, seg in enumerate(segs):
        keep_landmarks(seg, range(20 * i, 20 * i + 20))
    return build_segment_problem(segs, sc.calibration, sc.noise)


def spy_damped_steps(monkeypatch, alter):
    """Route solve's damped steps through alter(call, ne, step), call the
    0-based index of the _damped_step call, ne its normal equations and
    step its update triple; returns the list of each call's damping."""
    lams, damped_step = [], infocal.problem._damped_step

    def spy(ne, lam, anchors, work):
        lams.append(lam)
        return alter(len(lams) - 1, ne, damped_step(ne, lam, anchors, work))

    monkeypatch.setattr(infocal.problem, "_damped_step", spy)
    return lams


def uphill(step):
    """The update triple reversed: a step that raises the cost."""
    return tuple(-d for d in step)


class ResidualEvaluation(NamedTuple):
    residual: np.ndarray
    weights: list  # (row offset, weight block) pairs, block-diagonal overall
    jacobian: scipy.sparse.csr_matrix
    dropped: int


def evaluate_residuals(problem):
    """Stacked residual, block weights, and the sparse Jacobian.

    Row order: camera factors sorted by (keyframe, landmark), then
    inertial-type factors by left keyframe.  Column order: keyframe
    blocks, landmark blocks, calibration last.  Residual and Jacobian are
    unweighted; the returned (offset, block) weight list is block-diagonal
    and the cost is half of r^T W r.  No gauge is applied: every column is
    the plain derivative.  Behind-camera observations contribute zero rows
    and are counted in the `dropped` field.
    """
    pre = refresh_preintegrations(problem)
    K = len(problem.keyframes)
    L = len(problem.landmarks)
    n_cols = K * KF_DIM + L * LM_DIM + CALIB_DIM
    lm_base = K * KF_DIM
    th_base = lm_base + L * LM_DIM

    rows, cols, vals = [], [], []

    def place(row0, col0, B):
        """Blocks B (n, r, c) with top-left corners at (row0, col0)."""
        rows.append(np.broadcast_to(row0[:, None, None] + np.arange(B.shape[1])[None, :, None], B.shape).ravel())
        cols.append(np.broadcast_to(col0[:, None, None] + np.arange(B.shape[2])[None, None, :], B.shape).ravel())
        vals.append(B.ravel())

    # the solver's blocks are whitened: camera and bridge rows are
    # un-whitened by their sigmas, inertial rows come from the raw kernel
    r_c, Jp, Jl, Jth, valid = camera_blocks(problem)
    sigma = problem.camera_factors["sigma"]
    r_c, Jp, Jl, Jth = r_c * sigma[:, None], Jp * sigma[:, None, None], Jl * sigma[:, None, None], Jth * sigma[:, None, None]
    N = r_c.shape[0]
    place(2 * np.arange(N), problem.camera_factors["kf"] * KF_DIM, Jp)
    place(2 * np.arange(N), lm_base + problem.camera_factors["lm"] * LM_DIM, Jl)
    place(2 * np.arange(N), np.full(N, th_base), Jth)
    weights = [(2 * i, np.eye(2) / s2) for i, s2 in enumerate(problem.camera_factors["sigma"] ** 2)]

    # inertial-type rows by left keyframe, an inertial factor before a bridge
    k0 = np.array([f.k0 for f in problem.inertial_factors], dtype=int)
    k1 = np.array([f.k1 for f in problem.inertial_factors], dtype=int)
    x = problem.keyframes
    r_i, J0, J1, Jth_i = inertial_factor_blocks(x.take(k0), x.take(k1), pre)
    # a bridge's rows are the bias-walk rows 9:15 of its pair-factor blocks
    b0, b1, r_b, B0, B1, _ = bridge_blocks(problem)
    walk = bias_walk_sigmas(problem.noise, problem.bridge_factors["dt"])
    r_b, B0, B1 = r_b[:, 9:15] * walk, B0[:, 9:15] * walk[:, :, None], B1[:, 9:15] * walk[:, :, None]
    is_bridge = np.repeat([False, True], [k0.size, b0.size])
    sizes = np.where(is_bridge, 6, 15)
    order = np.lexsort((is_bridge, np.concatenate([k0, b0])))
    start = np.empty_like(sizes)
    start[order] = 2 * N + np.cumsum(sizes[order]) - sizes[order]
    s_i, s_b = start[: k0.size], start[k0.size :]
    place(s_i, k0 * KF_DIM, J0)
    place(s_i, k1 * KF_DIM, J1)
    place(s_i, np.full(k0.size, th_base + IMU_BLOCK.start), Jth_i)
    place(s_b, b0 * KF_DIM, B0)
    place(s_b, b1 * KF_DIM, B1)
    residual = np.concatenate([r_c.reshape(-1), np.zeros(sizes.sum())])
    residual[s_i[:, None] + np.arange(15)] = r_i
    residual[s_b[:, None] + np.arange(6)] = r_b
    W_i = inertial_weight(pre) if k0.size else []
    W_b = [np.diag(w) for w in walk**-2.0]
    weights += sorted([*zip(s_i.tolist(), W_i), *zip(s_b.tolist(), W_b)], key=lambda e: e[0])

    data = (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols)))
    J = scipy.sparse.csr_matrix(data, shape=(residual.shape[0], n_cols))
    return ResidualEvaluation(residual, weights, J, int((~valid).sum()))


def quat_rotate(q, p):
    """Rotate point(s) p by quaternion(s) q, stored (w, x, y, z)."""
    return np.einsum("...ij,...j->...i", quat_to_matrix(q), np.asarray(p, dtype=float))


def quat_local(q_ref, q):
    """Tangent delta with quat_retract(q_ref, delta) == q."""
    return quat_log(quat_mul(quat_conj(q_ref), q))


def apply(T: Transform, p):
    """T_AB applied to point(s) p given in frame B."""
    return quat_rotate(T.rotation.wxyz, p) + T.translation


def identity_quat():
    return UnitQuaternion(1.0, 0.0, 0.0, 0.0)


def identity_transform():
    return Transform(identity_quat(), np.zeros(3))


def nominal_imu():
    """IMU intrinsics without scale error, misalignment or rotation."""
    return ImuIntrinsics(np.ones(3), np.ones(3), np.zeros(3), np.zeros(3), identity_quat())


def invert(T: Transform) -> Transform:
    """Reference inverse of a rigid transform."""
    rot = UnitQuaternion.from_array(quat_conj(T.rotation.wxyz))
    return Transform(rot, -quat_rotate(rot.wxyz, T.translation))


def delta_rotation(pre) -> UnitQuaternion:
    """The preintegrated rotation of one interval as a UnitQuaternion."""
    return UnitQuaternion.from_matrix(pre.delta_rotation_matrix)


def inertial_error(x_k, x_k1, pre):
    """15-residual (rot, vel, pos, gyro-bias walk, accel-bias walk) + weight
    of one inertial factor.

    x_k and x_k1 expose q_GI, p_GI, v_GI, b_a, b_g; pre was integrated at
    x_k's biases.  The weight is the inverse of blockdiag(preintegration
    covariance, bias random-walk covariances over the interval).  A batch
    of one for inertial_factor_blocks.
    """
    r = inertial_factor_blocks(StateStack.of([x_k]), StateStack.of([x_k1]), pre[None])[0]
    return r[0], inertial_weight(pre)
