"""Factor-graph construction and the nonlinear least-squares solve.

State layout (minimal coordinates):
  keyframe (15): rotation delta, position, velocity, accel bias, gyro bias
  landmark (3):  position
  calibration (26), always the trailing block:
    [0:2] focal  [2:4] principal point  [4] distortion w
    [5:8] camera-IMU rotation delta  [8:11] camera-IMU translation
    [11:26] IMU intrinsics (gyro scale, accel scale, gyro misalignment,
            accel misalignment, accelerometer-frame rotation delta)

Rotation deltas act by right-multiplied exponential retraction.

Gauge freedom (global translation plus rotation about gravity, per
partition) is fixed by masking the anchor keyframe's position coordinates
and projecting its rotation delta to remove the component about the world
gravity axis.

The solver is Levenberg-Marquardt on the whitened residuals.  Landmarks
are eliminated per partition by dense Schur complement, then the
partition's interior keyframes; keyframes touched by a cross-partition
bias bridge survive into a small dense system over [calibration |
boundary keyframes] that is solved last, after which everything
back-substitutes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np
import scipy.linalg
import scipy.sparse

from . import camera as cam
from . import imu as im
from .geometry import Transform, UnitQuaternion

KF_DIM = 15
LM_DIM = 3
CALIB_DIM = 26
# camera factors touch calibration coords [0:11], inertial factors [11:26]
CAM_BLOCK = slice(0, 11)
IMU_BLOCK = slice(11, 26)

_WORLD_Z = np.array([0.0, 0.0, 1.0])
# keyframe delta coordinates (accel bias 9:12, gyro bias 12:15) of the
# bias random-walk residual rows (gyro, accel)
_BIAS_WALK_ROWS = np.eye(KF_DIM)[[12, 13, 14, 9, 10, 11]]
_LM_DIAG_FLOOR = 1e-12


@dataclass(frozen=True)
class KeyframeState:
    """Pose, velocity, and biases of the sensor system at one timestep."""

    q_GI: UnitQuaternion
    p_GI: np.ndarray
    v_GI: np.ndarray
    b_a: np.ndarray
    b_g: np.ndarray
    t: float

    def __post_init__(self):
        for name in ("p_GI", "v_GI", "b_a", "b_g"):
            object.__setattr__(self, name, np.array(getattr(self, name), dtype=float).reshape(3))

    def retract(self, delta):
        delta = np.asarray(delta, dtype=float).reshape(KF_DIM)
        return KeyframeState(
            q_GI=self.q_GI.retract(delta[0:3]),
            p_GI=self.p_GI + delta[3:6],
            v_GI=self.v_GI + delta[6:9],
            b_a=self.b_a + delta[9:12],
            b_g=self.b_g + delta[12:15],
            t=self.t,
        )


@dataclass(frozen=True)
class Landmark:
    l_G: np.ndarray
    id: int

    def __post_init__(self):
        object.__setattr__(self, "l_G", np.array(self.l_G, dtype=float).reshape(3))
        if not np.isfinite(self.l_G).all():
            raise ValueError("landmark coordinates must be finite")


@dataclass(frozen=True)
class CalibrationState:
    """Full sensor calibration; minimal dimension 26."""

    camera: cam.CameraIntrinsics
    extrinsics: cam.CameraExtrinsics
    imu: im.ImuIntrinsics

    def retract(self, delta):
        d = np.asarray(delta, dtype=float).reshape(CALIB_DIM)
        intr = cam.CameraIntrinsics(self.camera.f + d[0:2], self.camera.c + d[2:4], self.camera.w + d[4])
        T = self.extrinsics.T_CI
        extr = cam.CameraExtrinsics(Transform(T.rotation.retract(d[5:8]), T.translation + d[8:11]))
        i = self.imu
        imu = im.ImuIntrinsics(
            s_g=i.s_g + d[11:14],
            s_a=i.s_a + d[14:17],
            m_g=i.m_g + d[17:20],
            m_a=i.m_a + d[20:23],
            q_AI=i.q_AI.retract(d[23:26]),
        )
        return CalibrationState(intr, extr, imu)


@dataclass(frozen=True)
class Partition:
    """Gauge unit of a problem: co-observing, inertially chained segments."""

    segment_ids: tuple
    keyframe_ranges: tuple  # ((first_id, last_id), ...) in session keyframe ids
    anchor_keyframe_id: int


class InertialFactor:
    """Full 15-dim constraint between consecutive keyframes.

    Keeps the raw measurement slice, validated at build time.  pre is
    written only by refresh_preintegrations, at the current bias estimate
    of the left keyframe and the current IMU intrinsics; it is None until
    the first refresh.
    """

    __slots__ = ("k0", "k1", "times", "omega", "accel", "pre")

    def __init__(self, k0, k1, times, omega, accel, pre=None):
        self.k0 = int(k0)
        self.k1 = int(k1)
        self.times = np.asarray(times, dtype=float)
        self.omega = np.asarray(omega, dtype=float)
        self.accel = np.asarray(accel, dtype=float)
        self.pre = pre


class BiasBridgeFactor:
    """Bias-random-walk-only constraint across a removed gap."""

    __slots__ = ("k0", "k1", "dt")

    def __init__(self, k0, k1, dt):
        self.k0 = int(k0)
        self.k1 = int(k1)
        self.dt = float(dt)
        if self.dt <= 0.0:
            raise ValueError("bridge gap must be positive")


@dataclass
class CalibrationProblem:
    """A fully assembled calibration problem over one or more partitions.

    camera_factors reference keyframes and landmarks by LOCAL index
    (position in the keyframes/landmarks lists); keyframe_ids maps local
    index back to the session-level id.  Landmarks observed from multiple
    partitions are instantiated once per partition so no camera term
    couples partitions.
    """

    keyframes: list
    keyframe_ids: list
    landmarks: list
    calibration: CalibrationState
    camera_factors: list
    inertial_factors: list
    bridge_factors: list
    partitions: list
    noise: im.NoiseModel
    constant_mask: dict = field(default_factory=dict)
    kf_partition: np.ndarray = None
    lm_partition: np.ndarray = None

    def __post_init__(self):
        K = len(self.keyframes)
        L = len(self.landmarks)
        if not self.constant_mask:
            self.constant_mask = {
                "keyframes": np.zeros((K, KF_DIM), dtype=bool),
                "landmarks": np.zeros((L, LM_DIM), dtype=bool),
                "calibration": np.zeros(CALIB_DIM, dtype=bool),
            }
        self._cam_kf = np.array([f.keyframe_id for f in self.camera_factors], dtype=int)
        self._cam_lm = np.array([f.landmark_id for f in self.camera_factors], dtype=int)
        self._cam_uv = (
            np.stack([f.uv for f in self.camera_factors]) if self.camera_factors else np.zeros((0, 2))
        )
        self._cam_sigma = np.array([f.sigma for f in self.camera_factors])
        self._anchor_local = [self.keyframe_ids.index(p.anchor_keyframe_id) for p in self.partitions]

    @property
    def num_states(self):
        return len(self.keyframes) * KF_DIM + len(self.landmarks) * LM_DIM + CALIB_DIM


class ResidualEvaluation(NamedTuple):
    residual: np.ndarray
    weights: list  # (row offset, weight block) pairs, block-diagonal overall
    jacobian: scipy.sparse.csr_matrix
    dropped: int


@dataclass
class SolveOptions:
    max_iters: int = 50
    lambda_init: float = 1e-4
    tol: float = 1e-9
    cost_floor: float = 1e-18  # absolute cost below which iteration is pointless
    max_lambda: float = 1e12
    fix_calibration: bool = False
    huber: bool = False
    huber_threshold: float = 2.0


@dataclass
class SolveReport:
    iterations: int
    initial_cost: float
    final_cost: float
    converged: bool
    reason: str = ""
    dropped_observations: int = 0
    cost_history: list = field(default_factory=list)  # accepted costs, initial first


# ---------------------------------------------------------------- building


def _slice_imu_stream(imu_stream, t0, t1):
    """Samples with t0 <= t <= t1 (tolerant at the ends)."""
    ts = np.array([s.t for s in imu_stream])
    lo = int(np.searchsorted(ts, t0 - 1e-9, side="left"))
    hi = int(np.searchsorted(ts, t1 + 1e-9, side="right"))
    return imu_stream[lo:hi]


def _interval_factor(k0, k1, samples):
    if len(samples) < 2:
        raise ValueError(f"keyframe interval {k0}-{k1} covered by fewer than 2 IMU samples")
    times = np.array([s.t for s in samples])
    omega = np.stack([s.omega_meas for s in samples])
    accel = np.stack([s.accel_meas for s in samples])
    if not (np.isfinite(times).all() and np.isfinite(omega).all() and np.isfinite(accel).all()):
        raise ValueError(f"keyframe interval {k0}-{k1} has non-finite IMU samples")
    if not np.all(np.diff(times) > 0.0):
        raise ValueError(f"keyframe interval {k0}-{k1} has IMU timestamps that are not strictly increasing")
    return InertialFactor(k0, k1, times, omega, accel)


def build_batch_problem(keyframes, landmarks, observations, imu_stream, calib_init, noise):
    """One camera factor per observation, one inertial factor per interval.

    Observations reference keyframes by index into `keyframes` and
    landmarks by Landmark.id.  The first keyframe anchors the gauge.
    """
    if not keyframes:
        raise ValueError("empty keyframe list")
    times = [k.t for k in keyframes]
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ValueError("keyframes must be temporally ordered")
    lm_index = {lm.id: i for i, lm in enumerate(landmarks)}
    cam_factors = []
    for obs in observations:
        if not 0 <= obs.keyframe_id < len(keyframes):
            raise ValueError(f"observation references unknown keyframe {obs.keyframe_id}")
        if obs.landmark_id not in lm_index:
            raise ValueError(f"observation references unknown landmark {obs.landmark_id}")
        cam_factors.append(replace(obs, landmark_id=lm_index[obs.landmark_id]))
    cam_factors.sort(key=lambda f: (f.keyframe_id, f.landmark_id))

    inertial = []
    for k in range(len(keyframes) - 1):
        samples = _slice_imu_stream(imu_stream, keyframes[k].t, keyframes[k + 1].t)
        inertial.append(_interval_factor(k, k + 1, samples))

    part = Partition(segment_ids=(), keyframe_ranges=((0, len(keyframes) - 1),), anchor_keyframe_id=0)
    problem = CalibrationProblem(
        keyframes=list(keyframes),
        keyframe_ids=list(range(len(keyframes))),
        landmarks=list(landmarks),
        calibration=calib_init,
        camera_factors=cam_factors,
        inertial_factors=inertial,
        bridge_factors=[],
        partitions=[part],
        noise=noise,
        kf_partition=np.zeros(len(keyframes), dtype=int),
        lm_partition=np.zeros(len(landmarks), dtype=int),
    )
    _mask_anchor_positions(problem)
    return problem


def _mask_anchor_positions(problem):
    for a in problem._anchor_local:
        problem.constant_mask["keyframes"][a, 3:6] = True


def _temporally_adjacent(a, b):
    return a.session_id == b.session_id and b.keyframe_ids[0] == a.keyframe_ids[-1] + 1


def partition_segments(segments, max_shared):
    """Connected components over shared-landmark / temporal-adjacency edges.

    Two segments join the same partition when they are temporally adjacent
    (inertial connectivity) or share strictly more than max_shared
    landmarks, transitively.
    """
    n = len(segments)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)

    order = sorted(range(n), key=lambda i: (segments[i].session_id, segments[i].keyframe_ids[0]))
    for a, b in zip(order, order[1:]):
        if _temporally_adjacent(segments[a], segments[b]):
            union(a, b)
    for i in range(n):
        for j in range(i + 1, n):
            if len(segments[i].landmark_ids & segments[j].landmark_ids) > max_shared:
                union(i, j)

    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    partitions = []
    for members in groups.values():
        segs = sorted((segments[i] for i in members), key=lambda s: (s.session_id, s.keyframe_ids[0]))
        ranges = []
        for s in segs:
            first, last = s.keyframe_ids[0], s.keyframe_ids[-1]
            if ranges and ranges[-1][2] == s.session_id and ranges[-1][1] + 1 == first:
                ranges[-1] = (ranges[-1][0], last, s.session_id)
            else:
                ranges.append((first, last, s.session_id))
        anchor = min(s.keyframe_ids[0] for s in segs)
        partitions.append(
            Partition(
                segment_ids=tuple(s.id for s in segs),
                keyframe_ranges=tuple((r[0], r[1]) for r in ranges),
                anchor_keyframe_id=anchor,
            )
        )
    partitions.sort(key=lambda p: p.keyframe_ranges[0][0])
    return partitions


def build_segment_problem(segments, calib_init, noise, max_shared=10):
    """Joint problem over retained segments.

    Within segments: full camera and inertial factors.  Between temporal
    neighbors separated by a gap: a bias-random-walk bridge only.  Each
    co-visibility partition gets its own gauge anchor and its own landmark
    instances.
    """
    if not segments:
        raise ValueError("empty segment list")
    segs = sorted(segments, key=lambda s: (s.session_id, s.keyframe_ids[0]))
    seen = set()
    for s in segs:
        ids = set((s.session_id, k) for k in s.keyframe_ids)
        if ids & seen:
            raise ValueError("segments overlap in keyframe ids")
        seen |= ids

    partitions = partition_segments(segs, max_shared)
    seg_partition = {}
    for p_idx, part in enumerate(partitions):
        for sid in part.segment_ids:
            seg_partition[sid] = p_idx

    keyframes, keyframe_ids, kf_part = [], [], []
    local_of = {}
    for s in segs:
        for kf, kid in zip(s.keyframes, s.keyframe_ids):
            local_of[(s.session_id, kid)] = len(keyframes)
            keyframes.append(kf)
            keyframe_ids.append(kid)
            kf_part.append(seg_partition[s.id])

    landmarks, lm_part = [], []
    lm_local = {}
    for s in segs:
        p_idx = seg_partition[s.id]
        for lid in sorted(s.landmark_ids):
            key = (p_idx, lid)
            if key not in lm_local:
                lm_local[key] = len(landmarks)
                landmarks.append(Landmark(np.asarray(s.landmarks[lid], dtype=float), lid))
                lm_part.append(p_idx)

    cam_factors = []
    for s in segs:
        p_idx = seg_partition[s.id]
        for obs in s.observations:
            cam_factors.append(
                replace(
                    obs,
                    keyframe_id=local_of[(s.session_id, obs.keyframe_id)],
                    landmark_id=lm_local[(p_idx, obs.landmark_id)],
                )
            )
    cam_factors.sort(key=lambda f: (f.keyframe_id, f.landmark_id))

    inertial, bridges = [], []
    for s in segs:
        for kid0, kid1 in zip(s.keyframe_ids, s.keyframe_ids[1:]):
            k0 = local_of[(s.session_id, kid0)]
            k1 = local_of[(s.session_id, kid1)]
            samples = _slice_imu_stream(s.imu_samples, keyframes[k0].t, keyframes[k1].t)
            inertial.append(_interval_factor(k0, k1, samples))
    for a, b in zip(segs, segs[1:]):
        if a.session_id != b.session_id:
            continue
        k0 = local_of[(a.session_id, a.keyframe_ids[-1])]
        k1 = local_of[(b.session_id, b.keyframe_ids[0])]
        if _temporally_adjacent(a, b):
            # no gap: the IMU span of `a` extends through the joint interval
            samples = _slice_imu_stream(a.imu_samples, keyframes[k0].t, keyframes[k1].t)
            inertial.append(_interval_factor(k0, k1, samples))
        else:
            bridges.append(BiasBridgeFactor(k0, k1, keyframes[k1].t - keyframes[k0].t))

    problem = CalibrationProblem(
        keyframes=keyframes,
        keyframe_ids=keyframe_ids,
        landmarks=landmarks,
        calibration=calib_init,
        camera_factors=cam_factors,
        inertial_factors=inertial,
        bridge_factors=bridges,
        partitions=partitions,
        noise=noise,
        kf_partition=np.array(kf_part, dtype=int),
        lm_partition=np.array(lm_part, dtype=int),
    )
    _mask_anchor_positions(problem)
    return problem


# ------------------------------------------------------------- evaluation


def refresh_preintegrations(problem):
    """Re-preintegrate every inertial factor at its left keyframe's biases.

    The only writer of InertialFactor.pre: factors are grouped by sample
    count, one batched preintegrate_intervals call per group.  Keeps the
    bias linearization point equal to the current estimate so the
    first-order bias correction inside the residual is exact.
    """
    groups = {}
    for f in problem.inertial_factors:
        groups.setdefault(f.times.shape[0], []).append(f)
    for facs in groups.values():
        kf0 = [problem.keyframes[f.k0] for f in facs]
        pres = im.preintegrate_intervals(
            np.stack([f.times for f in facs]),
            np.stack([f.omega for f in facs]),
            np.stack([f.accel for f in facs]),
            problem.calibration.imu,
            np.stack([k.b_g for k in kf0]),
            np.stack([k.b_a for k in kf0]),
            problem.noise,
        )
        for f, pre in zip(facs, pres):
            f.pre = pre


def _camera_blocks(problem, whiten=True):
    """Residuals and Jacobian blocks of all camera factors.

    Returns (r, J_pose, J_lm, J_theta, valid); J_theta covers calibration
    coords [0:11].  Rows of behind-camera observations are zero.
    """
    calib = problem.calibration
    N = problem._cam_kf.shape[0]
    if N == 0:
        return (
            np.zeros((0, 2)),
            np.zeros((0, 2, 6)),
            np.zeros((0, 2, 3)),
            np.zeros((0, 2, 11)),
            np.ones(0, dtype=bool),
        )
    q = np.stack([k.q_GI.wxyz for k in problem.keyframes])
    p = np.stack([k.p_GI for k in problem.keyframes])
    l_all = np.stack([lm.l_G for lm in problem.landmarks])
    ki = problem._cam_kf
    li = problem._cam_lm
    T = calib.extrinsics.T_CI
    uv_pred, valid, J_pose, J_l, J_extr, J_intr = cam.camera_factor_blocks(
        q[ki], p[ki], T.rotation.matrix(), T.translation, l_all[li], calib.camera
    )
    r = np.where(valid[:, None], uv_pred - problem._cam_uv, 0.0)
    J_theta = np.concatenate([J_intr, J_extr], axis=-1)
    if whiten:
        inv_sigma = 1.0 / problem._cam_sigma
        r = r * inv_sigma[:, None]
        s3 = inv_sigma[:, None, None]
        J_pose = J_pose * s3
        J_l = J_l * s3
        J_theta = J_theta * s3
    return r, J_pose, J_l, J_theta, valid


def _inertial_blocks(problem):
    """Whitened residual and Jacobians per full inertial factor."""
    g = problem.noise.gravity_vector()
    out = []
    for f in problem.inertial_factors:
        x0 = problem.keyframes[f.k0]
        x1 = problem.keyframes[f.k1]
        A = im.inertial_sqrt_information(f.pre)
        r = im._inertial_residual(x0, x1, f.pre, g)
        J0, J1, Jth = im.inertial_error_jacobians(x0, x1, f.pre, g)
        out.append((f.k0, f.k1, A @ r, A @ J0, A @ J1, A @ Jth))
    return out


def _bridge_blocks(problem, whiten=True):
    """Bias random-walk residual per bridge, rows (gyro, accel) like
    inertial rows 9:15, with its keyframe Jacobians; whitened or raw."""
    out = []
    for f in problem.bridge_factors:
        x0 = problem.keyframes[f.k0]
        x1 = problem.keyframes[f.k1]
        r = np.concatenate([x1.b_g - x0.b_g, x1.b_a - x0.b_a])
        w = 1.0 / im.bias_walk_sigmas(problem.noise, f.dt) if whiten else np.ones(6)
        J1 = w[:, None] * _BIAS_WALK_ROWS
        out.append((f.k0, f.k1, w * r, -J1, J1))
    return out


def anchor_projectors(problem):
    """Per-partition (anchor index, rotation projector, gravity axis).

    The projector removes the rotation-delta component about the world
    vertical expressed in the anchor body frame, evaluated at the current
    anchor attitude.
    """
    out = []
    for a in problem._anchor_local:
        u = problem.keyframes[a].q_GI.matrix().T @ _WORLD_Z
        u = u / np.linalg.norm(u)
        out.append((a, np.eye(3) - np.outer(u, u), u))
    return out


def evaluate_residuals(problem, apply_gauge=True):
    """Stacked residual, block weights, and the sparse Jacobian.

    Row order: camera factors sorted by (keyframe, landmark), then
    inertial-type factors by left keyframe.  Column order: keyframe
    blocks, landmark blocks, calibration last.  Residual and Jacobian are
    unweighted; the returned (offset, block) weight list is block-diagonal
    and the cost is half of r^T W r.

    With apply_gauge, gauge-fixed coordinates get their columns zeroed and
    the anchor rotation columns are projected along the gravity axis.
    Behind-camera observations contribute zero rows and are counted in the
    `dropped` field.
    """
    refresh_preintegrations(problem)
    K = len(problem.keyframes)
    L = len(problem.landmarks)
    n_cols = K * KF_DIM + L * LM_DIM + CALIB_DIM
    lm_base = K * KF_DIM
    th_base = lm_base + L * LM_DIM

    rows, cols, vals = [], [], []
    res_parts, weights = [], []

    r_c, Jp, Jl, Jth, valid = _camera_blocks(problem, whiten=False)
    N = r_c.shape[0]
    if N:
        res_parts.append(r_c.reshape(-1))
        sig2 = problem._cam_sigma**2
        for i in range(N):
            weights.append((2 * i, np.eye(2) / sig2[i]))
        rr = (2 * np.arange(N))[:, None, None] + np.array([0, 1])[None, :, None]
        kf_cols = (problem._cam_kf * KF_DIM)[:, None, None] + np.arange(6)[None, None, :]
        rows.append(np.broadcast_to(rr, (N, 2, 6)).ravel())
        cols.append(np.broadcast_to(kf_cols, (N, 2, 6)).ravel())
        vals.append(Jp.ravel())
        lm_cols = (lm_base + problem._cam_lm * LM_DIM)[:, None, None] + np.arange(3)[None, None, :]
        rows.append(np.broadcast_to(rr, (N, 2, 3)).ravel())
        cols.append(np.broadcast_to(lm_cols, (N, 2, 3)).ravel())
        vals.append(Jl.ravel())
        th_cols = th_base + np.arange(11)[None, None, :]
        rows.append(np.broadcast_to(rr, (N, 2, 11)).ravel())
        cols.append(np.broadcast_to(th_cols, (N, 2, 11)).ravel())
        vals.append(Jth.ravel())

    pending = []
    g = problem.noise.gravity_vector()
    for f in problem.inertial_factors:
        x0 = problem.keyframes[f.k0]
        x1 = problem.keyframes[f.k1]
        r, W = im.inertial_error(x0, x1, f.pre, g)
        J0, J1, Jth_i = im.inertial_error_jacobians(x0, x1, f.pre, g)
        blocks = ((f.k0 * KF_DIM, J0), (f.k1 * KF_DIM, J1), (th_base + IMU_BLOCK.start, Jth_i))
        pending.append((f.k0, 0, r, W, blocks))
    for f, (k0, k1, r, J0, J1) in zip(problem.bridge_factors, _bridge_blocks(problem, whiten=False)):
        W = np.diag(im.bias_walk_sigmas(problem.noise, f.dt) ** -2.0)
        pending.append((k0, 1, r, W, ((k0 * KF_DIM, J0), (k1 * KF_DIM, J1))))
    pending.sort(key=lambda e: (e[0], e[1]))

    base = 2 * N
    for _, _, r, W, blocks in pending:
        res_parts.append(r)
        weights.append((base, W))
        for col0, B in blocks:
            nr, nc = B.shape
            r_idx = base + np.arange(nr)[:, None]
            c_idx = col0 + np.arange(nc)[None, :]
            rows.append(np.broadcast_to(r_idx, B.shape).ravel())
            cols.append(np.broadcast_to(c_idx, B.shape).ravel())
            vals.append(B.ravel())
        base += r.shape[0]

    residual = np.concatenate(res_parts) if res_parts else np.zeros(0)
    if vals:
        data = (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols)))
    else:
        data = (np.zeros(0), (np.zeros(0, dtype=int), np.zeros(0, dtype=int)))
    J = scipy.sparse.csr_matrix(data, shape=(residual.shape[0], n_cols))

    if apply_gauge:
        mask = np.zeros(n_cols, dtype=bool)
        mask[: K * KF_DIM] = problem.constant_mask["keyframes"].reshape(-1)
        mask[lm_base:th_base] = problem.constant_mask["landmarks"].reshape(-1)
        mask[th_base:] = problem.constant_mask["calibration"]
        scale = scipy.sparse.lil_matrix((n_cols, n_cols))
        keep = np.flatnonzero(~mask)
        scale[keep, keep] = 1.0
        for a, P, _ in anchor_projectors(problem):
            i0 = a * KF_DIM
            scale[i0 : i0 + 3, i0 : i0 + 3] = P
        J = (J @ scale.tocsr()).tocsr()
    return ResidualEvaluation(residual, weights, J, int((~valid).sum()))


def problem_cost(problem, huber=False, huber_threshold=2.0):
    """Half squared whitened residual norm at the current states."""
    refresh_preintegrations(problem)
    return _cost_from_blocks(problem, huber, huber_threshold)


def _cost_from_blocks(problem, huber=False, huber_threshold=2.0):
    r_c, _, _, _, _ = _camera_blocks(problem)
    if huber and r_c.shape[0]:
        nrm = np.linalg.norm(r_c, axis=1)
        k = huber_threshold
        cost = float(np.sum(np.where(nrm <= k, 0.5 * nrm**2, k * nrm - 0.5 * k * k)))
    else:
        cost = 0.5 * float(np.sum(r_c**2))
    g = problem.noise.gravity_vector()
    for f in problem.inertial_factors:
        r = im._inertial_residual(problem.keyframes[f.k0], problem.keyframes[f.k1], f.pre, g)
        rw = im.inertial_sqrt_information(f.pre) @ r
        cost += 0.5 * float(rw @ rw)
    for _, _, rw, _, _ in _bridge_blocks(problem):
        cost += 0.5 * float(rw @ rw)
    return cost


# ------------------------------------------------------------------ solve


class _PartitionSystem:
    """Undamped normal-equation pieces of one partition (whitened blocks)."""

    __slots__ = ("kf_idx", "lm_idx", "Hkk", "Hkl", "Hll", "Hkth", "Hlth", "Hthth", "gk", "gl", "gth", "anchor")


def _assemble_partition_systems(problem, cam_blocks, inertial_blocks, bridge_blocks):
    """Accumulate dense per-partition normal equations; returns also the
    cross-partition bridge terms that cannot live inside one partition."""
    n_p = len(problem.partitions)
    kf_of = [np.flatnonzero(problem.kf_partition == p) for p in range(n_p)]
    lm_of = [np.flatnonzero(problem.lm_partition == p) for p in range(n_p)]
    kf_pos = np.zeros(len(problem.keyframes), dtype=int)
    lm_pos = np.zeros(max(len(problem.landmarks), 1), dtype=int)
    for p in range(n_p):
        kf_pos[kf_of[p]] = np.arange(len(kf_of[p]))
        lm_pos[lm_of[p]] = np.arange(len(lm_of[p]))

    systems = []
    for p in range(n_p):
        s = _PartitionSystem()
        s.kf_idx = kf_of[p]
        s.lm_idx = lm_of[p]
        nk, nl = len(s.kf_idx) * KF_DIM, len(s.lm_idx) * LM_DIM
        s.Hkk = np.zeros((nk, nk))
        s.Hkl = np.zeros((nk, nl))
        s.Hll = np.zeros((len(s.lm_idx), LM_DIM, LM_DIM))
        s.Hkth = np.zeros((nk, CALIB_DIM))
        s.Hlth = np.zeros((nl, CALIB_DIM))
        s.Hthth = np.zeros((CALIB_DIM, CALIB_DIM))
        s.gk = np.zeros(nk)
        s.gl = np.zeros(nl)
        s.gth = np.zeros(CALIB_DIM)
        s.anchor = problem._anchor_local[p]
        systems.append(s)

    r_c, Jp, Jl, Jth, _ = cam_blocks
    if r_c.shape[0]:
        ki = problem._cam_kf
        li = problem._cam_lm
        pi = problem.kf_partition[ki]
        Hpp = np.einsum("nri,nrj->nij", Jp, Jp)
        Hpl = np.einsum("nri,nrj->nij", Jp, Jl)
        Hll_o = np.einsum("nri,nrj->nij", Jl, Jl)
        Hpt = np.einsum("nri,nrj->nij", Jp, Jth)
        Hlt = np.einsum("nri,nrj->nij", Jl, Jth)
        gp = -np.einsum("nri,nr->ni", Jp, r_c)
        glo = -np.einsum("nri,nr->ni", Jl, r_c)
        gto = -np.einsum("nri,nr->ni", Jth, r_c)
        for p, s in enumerate(systems):
            sel = np.flatnonzero(pi == p)
            if not sel.size:
                continue
            # camera factors touch only the pose coords (first 6) of a keyframe
            r6 = (kf_pos[ki[sel]] * KF_DIM)[:, None] + np.arange(6)[None, :]
            c3 = (lm_pos[li[sel]] * LM_DIM)[:, None] + np.arange(3)[None, :]
            np.add.at(s.Hkk, (r6[:, :, None], r6[:, None, :]), Hpp[sel])
            np.add.at(s.Hkl, (r6[:, :, None], c3[:, None, :]), Hpl[sel])
            np.add.at(s.Hll, (lm_pos[li[sel]],), Hll_o[sel])
            np.add.at(s.Hkth[:, CAM_BLOCK], (r6,), Hpt[sel])
            np.add.at(s.Hlth[:, CAM_BLOCK], (c3,), Hlt[sel])
            s.Hthth[CAM_BLOCK, CAM_BLOCK] += np.einsum("nri,nrj->ij", Jth[sel], Jth[sel])
            np.add.at(s.gk, (r6,), gp[sel])
            np.add.at(s.gl, (c3,), glo[sel])
            s.gth[CAM_BLOCK] += gto[sel].sum(axis=0)

    for k0, k1, rw, J0w, J1w, Jthw in inertial_blocks:
        s = systems[int(problem.kf_partition[k0])]
        i0 = kf_pos[k0] * KF_DIM
        i1 = kf_pos[k1] * KF_DIM
        s.Hkk[i0 : i0 + 15, i0 : i0 + 15] += J0w.T @ J0w
        s.Hkk[i1 : i1 + 15, i1 : i1 + 15] += J1w.T @ J1w
        X = J0w.T @ J1w
        s.Hkk[i0 : i0 + 15, i1 : i1 + 15] += X
        s.Hkk[i1 : i1 + 15, i0 : i0 + 15] += X.T
        s.Hkth[i0 : i0 + 15, IMU_BLOCK] += J0w.T @ Jthw
        s.Hkth[i1 : i1 + 15, IMU_BLOCK] += J1w.T @ Jthw
        s.Hthth[IMU_BLOCK, IMU_BLOCK] += Jthw.T @ Jthw
        s.gk[i0 : i0 + 15] += -J0w.T @ rw
        s.gk[i1 : i1 + 15] += -J1w.T @ rw
        s.gth[IMU_BLOCK] += -Jthw.T @ rw

    cross = []
    for k0, k1, rw, J0, J1 in bridge_blocks:
        p0 = int(problem.kf_partition[k0])
        p1 = int(problem.kf_partition[k1])
        if p0 == p1:
            s = systems[p0]
            i0 = kf_pos[k0] * KF_DIM
            i1 = kf_pos[k1] * KF_DIM
            s.Hkk[i0 : i0 + 15, i0 : i0 + 15] += J0.T @ J0
            s.Hkk[i1 : i1 + 15, i1 : i1 + 15] += J1.T @ J1
            X = J0.T @ J1
            s.Hkk[i0 : i0 + 15, i1 : i1 + 15] += X
            s.Hkk[i1 : i1 + 15, i0 : i0 + 15] += X.T
            s.gk[i0 : i0 + 15] += -J0.T @ rw
            s.gk[i1 : i1 + 15] += -J1.T @ rw
        else:
            cross.append((k0, k1, J0, J1, rw))
    return systems, cross


def _gauge_partition(problem, s, Hkk, Hkl, Hkth, gk, P_rot):
    """Apply gauge masking and the anchor yaw projection in place.

    Masked coordinates get zeroed rows/columns and a unit diagonal so
    their update is exactly zero.  The projector removes the yaw direction
    from the anchor rotation block; the lost rank is restored on the
    diagonal so the factorization stays positive definite.
    """
    j = int(np.flatnonzero(s.kf_idx == s.anchor)[0])
    i0 = j * KF_DIM
    P, u = P_rot
    Hkk[i0 : i0 + 3, :] = P @ Hkk[i0 : i0 + 3, :]
    Hkk[:, i0 : i0 + 3] = Hkk[:, i0 : i0 + 3] @ P
    Hkk[i0 : i0 + 3, i0 : i0 + 3] += np.outer(u, u)
    Hkth[i0 : i0 + 3] = P @ Hkth[i0 : i0 + 3]
    gk[i0 : i0 + 3] = P @ gk[i0 : i0 + 3]
    Hkl[i0 : i0 + 3, :] = P @ Hkl[i0 : i0 + 3, :]

    masked = []
    for jj, k in enumerate(s.kf_idx):
        flags = problem.constant_mask["keyframes"][k]
        masked.extend(jj * KF_DIM + i for i in np.flatnonzero(flags))
    masked = np.array(masked, dtype=int)
    if masked.size:
        Hkk[masked, :] = 0.0
        Hkk[:, masked] = 0.0
        Hkk[masked, masked] = 1.0
        Hkl[masked, :] = 0.0
        Hkth[masked, :] = 0.0
        gk[masked] = 0.0


def _solve_normal_equations(problem, systems, cross, lam, fix_calibration, anchors):
    """Damped elimination: landmarks, interior keyframes, then a dense
    [calibration | boundary keyframe] system.  Returns the update triple."""
    boundary = sorted({k for (k0, k1, _, _, _) in cross for k in (k0, k1)})
    b_of = {k: i for i, k in enumerate(boundary)}
    nB = len(boundary) * KF_DIM
    S = np.zeros((CALIB_DIM + nB, CALIB_DIM + nB))
    g = np.zeros(CALIB_DIM + nB)
    anchor_of = {a: (P, u) for a, P, u in anchors}

    for k0, k1, J0, J1, rw in cross:
        i0 = CALIB_DIM + b_of[k0] * KF_DIM
        i1 = CALIB_DIM + b_of[k1] * KF_DIM
        B00, B11, B01 = J0.T @ J0, J1.T @ J1, J0.T @ J1
        S[i0 : i0 + 15, i0 : i0 + 15] += B00 + lam * np.diag(np.diag(B00))
        S[i1 : i1 + 15, i1 : i1 + 15] += B11 + lam * np.diag(np.diag(B11))
        S[i0 : i0 + 15, i1 : i1 + 15] += B01
        S[i1 : i1 + 15, i0 : i0 + 15] += B01.T
        g[i0 : i0 + 15] += -J0.T @ rw
        g[i1 : i1 + 15] += -J1.T @ rw

    back = []
    for s in systems:
        nk = s.Hkk.shape[0]
        n_lm = len(s.lm_idx)

        Hll_d = s.Hll.copy()
        ii = np.arange(LM_DIM)
        Hll_d[:, ii, ii] += lam * s.Hll[:, ii, ii] + _LM_DIAG_FLOOR
        Hll_inv = np.linalg.inv(Hll_d) if n_lm else np.zeros((0, 3, 3))

        Hkk = s.Hkk.copy()
        Hkk[np.diag_indices(nk)] += lam * np.diag(s.Hkk)
        Hkl = s.Hkl.copy()
        Hkth = s.Hkth.copy()
        gk = s.gk.copy()
        S[:CALIB_DIM, :CALIB_DIM] += lam * np.diag(np.diag(s.Hthth))

        _gauge_partition(problem, s, Hkk, Hkl, Hkth, gk, anchor_of[s.anchor])

        if n_lm:
            Hkl_r = Hkl.reshape(nk, n_lm, 3)
            T = np.einsum("knj,nji->kni", Hkl_r, Hll_inv).reshape(nk, n_lm * 3)
            S_XX = Hkk - T @ Hkl.T
            S_Xth = Hkth - T @ s.Hlth
            g_X = gk - T @ s.gl
            Hlth_r = s.Hlth.reshape(n_lm, 3, CALIB_DIM)
            gl_r = s.gl.reshape(n_lm, 3)
            S[:CALIB_DIM, :CALIB_DIM] += s.Hthth - np.einsum("nic,nij,njd->cd", Hlth_r, Hll_inv, Hlth_r)
            g[:CALIB_DIM] += s.gth - np.einsum("nic,nij,nj->c", Hlth_r, Hll_inv, gl_r)
        else:
            S_XX, S_Xth, g_X = Hkk, Hkth, gk
            S[:CALIB_DIM, :CALIB_DIM] += s.Hthth
            g[:CALIB_DIM] += s.gth

        loc_b = [j for j, k in enumerate(s.kf_idx) if int(k) in b_of]
        loc_i = [j for j, k in enumerate(s.kf_idx) if int(k) not in b_of]
        if loc_b:
            idx = np.concatenate([j * KF_DIM + np.arange(KF_DIM) for j in loc_i + loc_b]).astype(int)
            S_XX = S_XX[np.ix_(idx, idx)]
            S_Xth = S_Xth[idx]
            g_X = g_X[idx]
            g_cols = np.concatenate(
                [CALIB_DIM + b_of[int(s.kf_idx[j])] * KF_DIM + np.arange(KF_DIM) for j in loc_b]
            ).astype(int)
        else:
            g_cols = np.zeros(0, dtype=int)
        nI = len(loc_i) * KF_DIM

        if loc_b:
            # pieces of [th | B] untouched by interior elimination
            S[np.ix_(g_cols, np.arange(CALIB_DIM))] += S_Xth[nI:]
            S[np.ix_(np.arange(CALIB_DIM), g_cols)] += S_Xth[nI:].T
            S[np.ix_(g_cols, g_cols)] += S_XX[nI:, nI:]
            g[g_cols] += g_X[nI:]
        if nI:
            Cfac = scipy.linalg.cho_factor(S_XX[:nI, :nI], lower=True, check_finite=False)
            M = np.hstack([S_Xth[:nI], S_XX[:nI, nI:], g_X[:nI, None]])
            sol = scipy.linalg.cho_solve(Cfac, M, check_finite=False)
            red = M.T @ sol
            cols_all = np.concatenate([np.arange(CALIB_DIM), g_cols]).astype(int)
            S[np.ix_(cols_all, cols_all)] -= red[:-1, :-1]
            g[cols_all] -= red[:-1, -1]
            back.append((s, Cfac, S_Xth, S_XX, g_X, nI, loc_i, loc_b, g_cols, Hll_inv, Hkl))
        else:
            back.append((s, None, S_Xth, S_XX, g_X, 0, loc_i, loc_b, g_cols, Hll_inv, Hkl))

    S = 0.5 * (S + S.T)
    cal_mask = problem.constant_mask["calibration"].copy()
    if fix_calibration:
        cal_mask[:] = True
    idx = np.flatnonzero(cal_mask)
    if idx.size:
        S[idx, :] = 0.0
        S[:, idx] = 0.0
        S[idx, idx] = 1.0
        g[idx] = 0.0
    Ctop = scipy.linalg.cho_factor(S, lower=True, check_finite=False)
    x = scipy.linalg.cho_solve(Ctop, g, check_finite=False)
    d_th = x[:CALIB_DIM]

    K = len(problem.keyframes)
    delta_kf = np.zeros((K, KF_DIM))
    for i, k in enumerate(boundary):
        delta_kf[k] = x[CALIB_DIM + i * KF_DIM : CALIB_DIM + (i + 1) * KF_DIM]

    L = len(problem.landmarks)
    delta_lm = np.zeros((L, LM_DIM))
    for s, Cfac, S_Xth, S_XX, g_X, nI, loc_i, loc_b, g_cols, Hll_inv, Hkl in back:
        if nI:
            rhs = g_X[:nI] - S_Xth[:nI] @ d_th
            if loc_b:
                rhs = rhs - S_XX[:nI, nI:] @ x[g_cols]
            dI = scipy.linalg.cho_solve(Cfac, rhs, check_finite=False).reshape(-1, KF_DIM)
            for j, loc in enumerate(loc_i):
                delta_kf[s.kf_idx[loc]] = dI[j]
        n_lm = len(s.lm_idx)
        if n_lm:
            dX = delta_kf[s.kf_idx].reshape(-1)
            rhs_l = (
                s.gl.reshape(n_lm, 3)
                - s.Hlth.reshape(n_lm, 3, CALIB_DIM) @ d_th
                - np.einsum("kni,k->ni", Hkl.reshape(-1, n_lm, 3), dX)
            )
            delta_lm[s.lm_idx] = np.einsum("nij,nj->ni", Hll_inv, rhs_l)
    return delta_kf, delta_lm, d_th


def _huberize(cam_blocks, k):
    r_c, Jp, Jl, Jth, valid = cam_blocks
    nrm = np.linalg.norm(r_c, axis=1)
    scale = np.sqrt(np.where(nrm > k, k / np.maximum(nrm, 1e-300), 1.0))
    s3 = scale[:, None, None]
    return r_c * scale[:, None], Jp * s3, Jl * s3, Jth * s3, valid


def _model_decrease(problem, cam_blocks, inertial_blocks, bridge_blocks, delta):
    """Cost drop the linearized model predicts for this step.

    Evaluates 0.5*||r||^2 - 0.5*||r + J d||^2 on the whitened blocks; the
    ratio of actual to predicted decrease drives the damping schedule.
    """
    delta_kf, delta_lm, d_th = delta
    pred = 0.0
    r_c, Jp, Jl, Jth, _ = cam_blocks
    if r_c.shape[0]:
        lin = (
            np.einsum("nri,ni->nr", Jp, delta_kf[problem._cam_kf, :6])
            + np.einsum("nri,ni->nr", Jl, delta_lm[problem._cam_lm])
            + Jth @ d_th[CAM_BLOCK]
        )
        pred += 0.5 * float(np.sum(r_c**2) - np.sum((r_c + lin) ** 2))
    for k0, k1, rw, J0w, J1w, Jthw in inertial_blocks:
        lin = J0w @ delta_kf[k0] + J1w @ delta_kf[k1] + Jthw @ d_th[IMU_BLOCK]
        pred += 0.5 * float(rw @ rw - (rw + lin) @ (rw + lin))
    for k0, k1, rw, J0w, J1w in bridge_blocks:
        lin = J0w @ delta_kf[k0] + J1w @ delta_kf[k1]
        pred += 0.5 * float(rw @ rw - (rw + lin) @ (rw + lin))
    return pred


def _retract_problem(problem, delta):
    """Trial states from an update triple; None if a constraint is violated."""
    delta_kf, delta_lm, d_th = delta
    try:
        keyframes = [k.retract(d) for k, d in zip(problem.keyframes, delta_kf)]
        landmarks = [Landmark(lm.l_G + d, lm.id) for lm, d in zip(problem.landmarks, delta_lm)]
        # an exactly-zero calibration update (fixed calibration) keeps the object
        calibration = problem.calibration.retract(d_th) if d_th.any() else problem.calibration
    except ValueError:
        return None
    return keyframes, landmarks, calibration


def solve(problem, options: SolveOptions = None):
    """Levenberg-Marquardt minimization of the whitened squared residual.

    Keyframes, landmarks, and calibration in the problem are updated in
    place to the solution; gauge-masked coordinates are never touched.
    Accepted steps strictly decrease the cost.
    """
    options = options or SolveOptions()
    refresh_preintegrations(problem)
    cost = _cost_from_blocks(problem, options.huber, options.huber_threshold)
    if not np.isfinite(cost):
        raise ValueError("non-finite cost at the initial estimate")
    initial_cost = cost
    history = [cost]
    lam = options.lambda_init
    n_iters = 0
    converged = False
    reason = "max_iters"
    dropped = 0

    if cost <= options.cost_floor:
        # Already at (numerical) zero; any further step only reshuffles
        # floating-point noise.
        cam_blocks = _camera_blocks(problem)
        return problem, SolveReport(
            iterations=0,
            initial_cost=initial_cost,
            final_cost=cost,
            converged=True,
            reason="cost below absolute floor",
            dropped_observations=int((~cam_blocks[4]).sum()),
            cost_history=history,
        )

    for n_iters in range(1, options.max_iters + 1):
        cam_blocks = _camera_blocks(problem)
        dropped = int((~cam_blocks[4]).sum())
        if options.huber:
            cam_blocks = _huberize(cam_blocks, options.huber_threshold)
        inertial_blocks = _inertial_blocks(problem)
        bridge_blocks = _bridge_blocks(problem)
        systems, cross = _assemble_partition_systems(problem, cam_blocks, inertial_blocks, bridge_blocks)
        anchors = anchor_projectors(problem)

        step_accepted = False
        nu = 2.0
        while lam <= options.max_lambda and not step_accepted:
            try:
                delta = _solve_normal_equations(problem, systems, cross, lam, options.fix_calibration, anchors)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            # backtracking keeps the (well-aimed) direction when only the
            # step length exceeds the quadratic model's validity
            for alpha in (1.0, 0.5, 0.25):
                scaled = (alpha * delta[0], alpha * delta[1], alpha * delta[2])
                trial = _retract_problem(problem, scaled)
                if trial is None:
                    continue
                kf_save, lm_save, cal_save = problem.keyframes, problem.landmarks, problem.calibration
                pre_save = [f.pre for f in problem.inertial_factors]
                problem.keyframes, problem.landmarks, problem.calibration = trial
                refresh_preintegrations(problem)
                new_cost = _cost_from_blocks(problem, options.huber, options.huber_threshold)
                if np.isfinite(new_cost) and new_cost < cost:
                    step_accepted = True
                    pred = _model_decrease(problem, cam_blocks, inertial_blocks, bridge_blocks, scaled)
                    ratio = (cost - new_cost) / pred if pred > 0 else 1.0
                    rel = (cost - new_cost) / max(cost, 1e-300)
                    cost = new_cost
                    history.append(cost)
                    if alpha == 1.0:
                        # grows the damping when the quadratic model
                        # overpromises, shrinks it when the prediction holds
                        lam = max(lam * max(1.0 / 3.0, 1.0 - (2.0 * ratio - 1.0) ** 3), 1e-12)
                    if rel < options.tol:
                        converged = True
                        reason = "relative cost decrease below tol"
                    elif cost <= options.cost_floor:
                        converged = True
                        reason = "cost below absolute floor"
                    break
                problem.keyframes, problem.landmarks, problem.calibration = kf_save, lm_save, cal_save
                for f, pre in zip(problem.inertial_factors, pre_save):
                    f.pre = pre
            if not step_accepted:
                lam *= nu
                nu *= 2.0
        if not step_accepted:
            converged = True
            reason = "no cost-decreasing step within the damping limit"
            break
        if converged:
            break

    return problem, SolveReport(
        iterations=n_iters,
        initial_cost=initial_cost,
        final_cost=cost,
        converged=converged,
        reason=reason,
        dropped_observations=dropped,
        cost_history=history,
    )
