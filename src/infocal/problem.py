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
partition) is fixed at each partition's anchor keyframe, and only there:
its position is held fixed and its rotation delta is projected to remove
the component about the world gravity axis (anchor_projectors).  Solver
and scoring apply this one rule in one form: the anchor rotation columns
are projected, the anchor position columns cleared, and unit information
is added on the gravity axis and on the three position axes, columns that
no data row touches.

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
POSE_DIM = 6  # rotation and position, the keyframe coords camera factors touch
LM_DIM = 3
CALIB_DIM = 26
# camera factors touch calibration coords [0:11], inertial factors [11:26]
CAM_BLOCK = slice(0, 11)
IMU_BLOCK = slice(11, 26)

_WORLD_Z = np.array([0.0, 0.0, 1.0])
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

    Keeps the raw measurement slice, validated at build time; its
    preintegration lives in the problem's stack (CalibrationProblem).
    """

    __slots__ = ("k0", "k1", "times", "omega", "accel")

    def __init__(self, k0, k1, times, omega, accel):
        self.k0 = int(k0)
        self.k1 = int(k1)
        self.times = np.asarray(times, dtype=float)
        self.omega = np.asarray(omega, dtype=float)
        self.accel = np.asarray(accel, dtype=float)


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

    preintegrated is the stack of the inertial factors' preintegrations in
    factor order, at the current bias estimates of their left keyframes
    and the current IMU intrinsics.  Only refresh_preintegrations writes
    it; it is None until the first refresh.
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
    kf_partition: np.ndarray = None
    lm_partition: np.ndarray = None

    def __post_init__(self):
        self._cam_kf = np.array([f.keyframe_id for f in self.camera_factors], dtype=int)
        self._cam_lm = np.array([f.landmark_id for f in self.camera_factors], dtype=int)
        self._cam_uv = (
            np.stack([f.uv for f in self.camera_factors]) if self.camera_factors else np.zeros((0, 2))
        )
        self._cam_sigma = np.array([f.sigma for f in self.camera_factors])
        self._anchor_local = [self.keyframe_ids.index(p.anchor_keyframe_id) for p in self.partitions]
        self._inertial_k0 = np.array([f.k0 for f in self.inertial_factors], dtype=int)
        self._inertial_k1 = np.array([f.k1 for f in self.inertial_factors], dtype=int)
        # raw samples stacked once per sample count: refresh makes one
        # preintegrate_intervals call per group, then restores factor order
        groups = {}
        for i, f in enumerate(self.inertial_factors):
            groups.setdefault(f.times.shape[0], []).append(i)
        self._imu_groups = []
        for idx in groups.values():
            facs = [self.inertial_factors[i] for i in idx]
            stacked = (np.stack([getattr(f, a) for f in facs]) for a in ("times", "omega", "accel"))
            self._imu_groups.append((np.array(idx), *stacked))
        self._imu_order = np.argsort(np.concatenate(list(groups.values()))) if groups else None
        self._bridge_k0 = np.array([f.k0 for f in self.bridge_factors], dtype=int)
        self._bridge_k1 = np.array([f.k1 for f in self.bridge_factors], dtype=int)
        self._bridge_dt = np.array([f.dt for f in self.bridge_factors])
        self.preintegrated = None

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
    """Per interval i, the samples with t0[i] <= t <= t1[i] (tolerant at
    the ends); the stream's times are read once for all intervals."""
    ts = np.array([s.t for s in imu_stream])
    lo = np.searchsorted(ts, np.asarray(t0, dtype=float) - 1e-9, side="left")
    hi = np.searchsorted(ts, np.asarray(t1, dtype=float) + 1e-9, side="right")
    return [imu_stream[a:b] for a, b in zip(lo.tolist(), hi.tolist())]


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

    slices = _slice_imu_stream(imu_stream, times[:-1], times[1:])
    inertial = [_interval_factor(k, k + 1, samples) for k, samples in enumerate(slices)]

    part = Partition(segment_ids=(), keyframe_ranges=((0, len(keyframes) - 1),), anchor_keyframe_id=0)
    return CalibrationProblem(
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
        kf_ids = set(s.keyframe_ids)
        for obs in s.observations:
            if obs.keyframe_id not in kf_ids:
                raise ValueError(f"segment {s.id}: observation references unknown keyframe {obs.keyframe_id}")
            if obs.landmark_id not in s.landmark_ids:
                raise ValueError(f"segment {s.id}: observation references unknown landmark {obs.landmark_id}")
            cam_factors.append(
                replace(
                    obs,
                    keyframe_id=local_of[(s.session_id, obs.keyframe_id)],
                    landmark_id=lm_local[(p_idx, obs.landmark_id)],
                )
            )
    cam_factors.sort(key=lambda f: (f.keyframe_id, f.landmark_id))

    # one slicing pass per segment stream: its own intervals, then the joint
    # interval into a temporally adjacent successor, through which its IMU
    # span extends; factor order stays segment intervals, then joint ones
    inertial, joint, bridges = [], [], []
    for a, b in zip(segs, segs[1:] + [None]):
        ks = [local_of[(a.session_id, kid)] for kid in a.keyframe_ids]
        pairs = list(zip(ks, ks[1:]))
        if b is not None and a.session_id == b.session_id:
            k1 = local_of[(b.session_id, b.keyframe_ids[0])]
            if _temporally_adjacent(a, b):
                pairs.append((ks[-1], k1))
            else:
                bridges.append(BiasBridgeFactor(ks[-1], k1, keyframes[k1].t - keyframes[ks[-1]].t))
        ends = np.array([[keyframes[k0].t, keyframes[k1].t] for k0, k1 in pairs]).reshape(-1, 2)
        slices = _slice_imu_stream(a.imu_samples, ends[:, 0], ends[:, 1])
        factors = [_interval_factor(k0, k1, x) for (k0, k1), x in zip(pairs, slices)]
        inertial += factors[: len(ks) - 1]
        joint += factors[len(ks) - 1 :]
    inertial += joint

    return CalibrationProblem(
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


# ------------------------------------------------------------- evaluation


def refresh_preintegrations(problem):
    """Re-preintegrate every inertial factor at its left keyframe's biases.

    The only writer of problem.preintegrated: one batched
    preintegrate_intervals call per sample count, stacked in factor order.
    Keeps the bias linearization point equal to the current estimate so
    the first-order bias correction inside the residual is exact.
    """
    if not problem._imu_groups:
        return
    x = im.StateStack.of(problem.keyframes)
    k0 = problem._inertial_k0
    intr, noise = problem.calibration.imu, problem.noise
    stacks = [
        im.preintegrate_intervals(times, omega, accel, intr, x.b_g[k0[idx]], x.b_a[k0[idx]], noise)
        for idx, times, omega, accel in problem._imu_groups
    ]
    problem.preintegrated = im.concatenate_preintegrations(stacks)[problem._imu_order]


def camera_blocks(problem, whiten=True):
    """Residuals and Jacobian blocks of all camera factors.

    Returns (r, J_pose, J_lm, J_theta, valid) stacked over the factors;
    J_pose covers the keyframe pose coords [0:6], J_theta calibration
    coords [0:11].  Rows of behind-camera observations are zero.
    Whitened by the pixel sigma, or raw.
    """
    calib = problem.calibration
    N = problem._cam_kf.shape[0]
    if N == 0:
        return (
            np.zeros((0, 2)),
            np.zeros((0, 2, POSE_DIM)),
            np.zeros((0, 2, 3)),
            np.zeros((0, 2, 11)),
            np.ones(0, dtype=bool),
        )
    x = im.StateStack.of(problem.keyframes)
    l_all = np.stack([lm.l_G for lm in problem.landmarks])
    ki = problem._cam_kf
    li = problem._cam_lm
    T = calib.extrinsics.T_CI
    uv_pred, valid, J_pose, J_l, J_extr, J_intr = cam.camera_factor_blocks(
        x.q_GI[ki], x.p_GI[ki], T.rotation.matrix(), T.translation, l_all[li], calib.camera
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


def inertial_blocks(problem, whiten=True):
    """Residuals and Jacobian blocks of all inertial factors, in one pass.

    Returns (k0, k1, r, J0, J1, J_theta) stacked over the factors in
    factor order: the two keyframe indices, the 15-dim residuals, and their
    15x15 Jacobians wrt the two keyframes and wrt the IMU intrinsics
    (calibration coords [11:26]).  Whitened by inertial_sqrt_information,
    or raw.  Reads the preintegrations of the last refresh.
    """
    k0, k1 = problem._inertial_k0, problem._inertial_k1
    if not k0.size:
        empty = np.zeros((0, 15, 15))
        return k0, k1, np.zeros((0, 15)), empty, empty, empty
    x = im.StateStack.of(problem.keyframes)
    pre = problem.preintegrated
    r, J0, J1, Jth = im.inertial_factor_blocks(x.take(k0), x.take(k1), pre, problem.noise.gravity_vector())
    if whiten:
        A = im.inertial_sqrt_information(pre)
        r = np.einsum("fij,fj->fi", A, r)
        J0, J1, Jth = A @ J0, A @ J1, A @ Jth
    return k0, k1, r, J0, J1, Jth


def bridge_blocks(problem, whiten=True):
    """Bias random-walk residuals of all bridges, rows (gyro, accel) like
    inertial rows 9:15, with their keyframe Jacobians.

    Returns (k0, k1, r, J0, J1) stacked over the bridges: the two keyframe
    indices, the 6-dim residuals and their 6x15 Jacobians; whitened or raw.
    """
    k0, k1 = problem._bridge_k0, problem._bridge_k1
    x = im.StateStack.of(problem.keyframes)
    r = np.concatenate([x.b_g[k1] - x.b_g[k0], x.b_a[k1] - x.b_a[k0]], axis=-1)
    w = 1.0 / im.bias_walk_sigmas(problem.noise, problem._bridge_dt) if whiten else np.ones_like(r)
    J1 = w[:, :, None] * im.BIAS_WALK_ROWS
    return k0, k1, w * r, -J1, J1


def anchor_projectors(problem):
    """The gauge: per partition (anchor index, rotation projector P,
    gravity axis u).

    u is the world vertical expressed in the anchor body frame at the
    current anchor attitude, and P = I - u u^T removes the rotation-delta
    component about it.  The anchor's position is fixed as well; no other
    coordinate of a problem is ever held fixed.
    """
    out = []
    for a in problem._anchor_local:
        u = problem.keyframes[a].q_GI.matrix().T @ _WORLD_Z
        u = u / np.linalg.norm(u)
        out.append((a, np.eye(3) - np.outer(u, u), u))
    return out


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
    refresh_preintegrations(problem)
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

    r_c, Jp, Jl, Jth, valid = camera_blocks(problem, whiten=False)
    N = r_c.shape[0]
    place(2 * np.arange(N), problem._cam_kf * KF_DIM, Jp)
    place(2 * np.arange(N), lm_base + problem._cam_lm * LM_DIM, Jl)
    place(2 * np.arange(N), np.full(N, th_base), Jth)
    weights = [(2 * i, np.eye(2) / s2) for i, s2 in enumerate(problem._cam_sigma**2)]

    # inertial-type rows by left keyframe, an inertial factor before a bridge
    k0, k1, r_i, J0, J1, Jth_i = inertial_blocks(problem, whiten=False)
    b0, b1, r_b, B0, B1 = bridge_blocks(problem, whiten=False)
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
    W_i = im.inertial_weight(problem.preintegrated) if k0.size else []
    W_b = [np.diag(w) for w in im.bias_walk_sigmas(problem.noise, problem._bridge_dt) ** -2.0]
    weights += sorted([*zip(s_i.tolist(), W_i), *zip(s_b.tolist(), W_b)], key=lambda e: e[0])

    data = (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols)))
    J = scipy.sparse.csr_matrix(data, shape=(residual.shape[0], n_cols))
    return ResidualEvaluation(residual, weights, J, int((~valid).sum()))


def problem_cost(problem, huber=False, huber_threshold=2.0):
    """Half squared whitened residual norm at the current states."""
    refresh_preintegrations(problem)
    return _cost_from_blocks(problem, huber, huber_threshold)


def _cost_from_blocks(problem, huber=False, huber_threshold=2.0):
    r_c, _, _, _, _ = camera_blocks(problem)
    if huber and r_c.shape[0]:
        nrm = np.linalg.norm(r_c, axis=1)
        k = huber_threshold
        cost = float(np.sum(np.where(nrm <= k, 0.5 * nrm**2, k * nrm - 0.5 * k * k)))
    else:
        cost = 0.5 * float(np.sum(r_c**2))
    for blocks in (inertial_blocks(problem), bridge_blocks(problem)):
        cost += 0.5 * float(np.sum(blocks[2] ** 2))
    return cost


# ------------------------------------------------------------------ solve


class _PartitionSystem:
    """Undamped normal-equation pieces of one partition (whitened blocks).

    Hkl keeps only the pose rows (POSE_DIM per keyframe) of the
    keyframe-landmark block: camera factors, its only source, touch no
    other keyframe coordinate.
    """

    __slots__ = ("kf_idx", "lm_idx", "Hkk", "Hkl", "Hll", "Hkth", "Hlth", "Hthth", "gk", "gl", "gth", "anchor")


def _assemble_partition_systems(problem, cam, inertial, bridges):
    """Accumulate dense per-partition normal equations; returns also the
    bridge blocks of the cross-partition bridges, which cannot live inside
    one partition."""
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
        s.Hkl = np.zeros((len(s.kf_idx) * POSE_DIM, nl))
        s.Hll = np.zeros((len(s.lm_idx), LM_DIM, LM_DIM))
        s.Hkth = np.zeros((nk, CALIB_DIM))
        s.Hlth = np.zeros((nl, CALIB_DIM))
        s.Hthth = np.zeros((CALIB_DIM, CALIB_DIM))
        s.gk = np.zeros(nk)
        s.gl = np.zeros(nl)
        s.gth = np.zeros(CALIB_DIM)
        s.anchor = problem._anchor_local[p]
        systems.append(s)

    r_c, Jp, Jl, Jth, _ = cam
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
            # camera factors touch only the pose coords of a keyframe
            r6 = (kf_pos[ki[sel]] * KF_DIM)[:, None] + np.arange(POSE_DIM)[None, :]
            p6 = (kf_pos[ki[sel]] * POSE_DIM)[:, None] + np.arange(POSE_DIM)[None, :]
            c3 = (lm_pos[li[sel]] * LM_DIM)[:, None] + np.arange(3)[None, :]
            np.add.at(s.Hkk, (r6[:, :, None], r6[:, None, :]), Hpp[sel])
            np.add.at(s.Hkl, (p6[:, :, None], c3[:, None, :]), Hpl[sel])
            np.add.at(s.Hll, (lm_pos[li[sel]],), Hll_o[sel])
            np.add.at(s.Hkth[:, CAM_BLOCK], (r6,), Hpt[sel])
            np.add.at(s.Hlth[:, CAM_BLOCK], (c3,), Hlt[sel])
            s.Hthth[CAM_BLOCK, CAM_BLOCK] += np.einsum("nri,nrj->ij", Jth[sel], Jth[sel])
            np.add.at(s.gk, (r6,), gp[sel])
            np.add.at(s.gl, (c3,), glo[sel])
            s.gth[CAM_BLOCK] += gto[sel].sum(axis=0)

    k0, k1, rw, J0w, J1w, Jthw = inertial
    for p, s in enumerate(systems):
        sel = np.flatnonzero(problem.kf_partition[k0] == p)
        rows0, rows1 = _kf_rows(kf_pos[k0[sel]]), _kf_rows(kf_pos[k1[sel]])
        Jth_s = Jthw[sel]
        _add_keyframe_pairs(s.Hkk, s.gk, rows0, rows1, rw[sel], J0w[sel], J1w[sel])
        np.add.at(s.Hkth[:, IMU_BLOCK], (rows0,), np.einsum("fri,frj->fij", J0w[sel], Jth_s))
        np.add.at(s.Hkth[:, IMU_BLOCK], (rows1,), np.einsum("fri,frj->fij", J1w[sel], Jth_s))
        s.Hthth[IMU_BLOCK, IMU_BLOCK] += np.einsum("fri,frj->ij", Jth_s, Jth_s)
        s.gth[IMU_BLOCK] -= np.einsum("fri,fr->i", Jth_s, rw[sel])

    k0, k1, rw, J0, J1 = bridges
    p0, p1 = problem.kf_partition[k0], problem.kf_partition[k1]
    for p, s in enumerate(systems):
        sel = np.flatnonzero((p0 == p) & (p1 == p))
        _add_keyframe_pairs(s.Hkk, s.gk, _kf_rows(kf_pos[k0[sel]]), _kf_rows(kf_pos[k1[sel]]), rw[sel], J0[sel], J1[sel])
    return systems, tuple(a[p0 != p1] for a in bridges)


def _kf_rows(pos):
    """(n, 15) rows of the keyframes at block positions pos."""
    return (pos * KF_DIM)[:, None] + np.arange(KF_DIM)[None, :]


def _add_keyframe_pairs(H, g, rows0, rows1, rw, J0, J1):
    """Add J^T J and -J^T r of factors on keyframe pairs to H and g;
    rows0, rows1 (F, 15) index the rows of each factor's two keyframes."""
    for ra, Ja in ((rows0, J0), (rows1, J1)):
        for rb, Jb in ((rows0, J0), (rows1, J1)):
            np.add.at(H, (ra[:, :, None], rb[:, None, :]), np.einsum("fri,frj->fij", Ja, Jb))
        np.add.at(g, (ra,), -np.einsum("fri,fr->fi", Ja, rw))


def _gauge_partition(s, Hkk, Hkl, Hkth, gk, P_rot):
    """Apply the anchor gauge of anchor_projectors in place.

    The projector removes the yaw direction from the anchor rotation block
    and the anchor position rows/columns are cleared; unit information on
    the gravity axis and on the position axes restores the lost rank, so
    the factorization stays positive definite.  The anchor's position
    update is exactly zero and its rotation update has no yaw component.
    """
    j = int(np.flatnonzero(s.kf_idx == s.anchor)[0])
    i0 = j * KF_DIM
    P, u = P_rot
    Hkk[i0 : i0 + 3, :] = P @ Hkk[i0 : i0 + 3, :]
    Hkk[:, i0 : i0 + 3] = Hkk[:, i0 : i0 + 3] @ P
    Hkk[i0 : i0 + 3, i0 : i0 + 3] += np.outer(u, u)
    Hkth[i0 : i0 + 3] = P @ Hkth[i0 : i0 + 3]
    gk[i0 : i0 + 3] = P @ gk[i0 : i0 + 3]
    Hkl[j * POSE_DIM : j * POSE_DIM + 3, :] = P @ Hkl[j * POSE_DIM : j * POSE_DIM + 3, :]

    pos = slice(i0 + 3, i0 + 6)
    Hkk[pos, :] = 0.0
    Hkk[:, pos] = 0.0
    Hkk[pos, pos] = np.eye(3)
    Hkl[j * POSE_DIM + 3 : j * POSE_DIM + 6, :] = 0.0
    Hkth[pos, :] = 0.0
    gk[pos] = 0.0


def _solve_normal_equations(problem, systems, cross, lam, fix_calibration, anchors):
    """Damped elimination: landmarks, interior keyframes, then a dense
    [calibration | boundary keyframe] system.  Returns the update triple."""
    k0, k1, rw, J0, J1 = cross
    boundary = np.unique(np.concatenate([k0, k1]))
    b_of = {int(k): i for i, k in enumerate(boundary)}
    nB = len(boundary) * KF_DIM
    S = np.zeros((CALIB_DIM + nB, CALIB_DIM + nB))
    g = np.zeros(CALIB_DIM + nB)
    anchor_of = {a: (P, u) for a, P, u in anchors}

    # the cross-partition bridges couple boundary keyframes directly
    B = np.zeros((nB, nB))
    rows0, rows1 = (_kf_rows(np.searchsorted(boundary, k)) for k in (k0, k1))
    _add_keyframe_pairs(B, g[CALIB_DIM:], rows0, rows1, rw, J0, J1)
    S[CALIB_DIM:, CALIB_DIM:] = B + lam * np.diag(np.diag(B))

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

        _gauge_partition(s, Hkk, Hkl, Hkth, gk, anchor_of[s.anchor])

        if n_lm:
            # landmark Schur update, in place on the pose rows: the only
            # rows where Hkl is non-zero, also after the gauge projection
            nkf = len(s.kf_idx)
            T = (Hkl.reshape(-1, n_lm, 3).transpose(1, 0, 2) @ Hll_inv).transpose(1, 0, 2).reshape(-1, n_lm * 3)
            Hkk_pose = Hkk.reshape(nkf, KF_DIM, nkf, KF_DIM)[:, :POSE_DIM, :, :POSE_DIM]
            Hkk_pose -= (T @ Hkl.T).reshape(Hkk_pose.shape)
            Hkth.reshape(nkf, KF_DIM, CALIB_DIM)[:, :POSE_DIM] -= (T @ s.Hlth).reshape(nkf, POSE_DIM, CALIB_DIM)
            gk.reshape(nkf, KF_DIM)[:, :POSE_DIM] -= (T @ s.gl).reshape(nkf, POSE_DIM)
            Hlth_r = s.Hlth.reshape(n_lm, 3, CALIB_DIM)
            gl_r = s.gl.reshape(n_lm, 3)
            S[:CALIB_DIM, :CALIB_DIM] += s.Hthth - np.einsum("nic,nij,njd->cd", Hlth_r, Hll_inv, Hlth_r)
            g[:CALIB_DIM] += s.gth - np.einsum("nic,nij,nj->c", Hlth_r, Hll_inv, gl_r)
        else:
            S[:CALIB_DIM, :CALIB_DIM] += s.Hthth
            g[:CALIB_DIM] += s.gth
        S_XX, S_Xth, g_X = Hkk, Hkth, gk

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
        back.append((s, Cfac if nI else None, S_Xth, S_XX, g_X, nI, loc_i, loc_b, g_cols, Hll_inv, Hkl))

    S = 0.5 * (S + S.T)
    if fix_calibration:
        S[:CALIB_DIM, :] = 0.0
        S[:, :CALIB_DIM] = 0.0
        S[:CALIB_DIM, :CALIB_DIM] = np.eye(CALIB_DIM)
        g[:CALIB_DIM] = 0.0
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
            dX = delta_kf[s.kf_idx, :POSE_DIM].reshape(-1)
            rhs_l = s.gl.reshape(n_lm, 3) - s.Hlth.reshape(n_lm, 3, CALIB_DIM) @ d_th - (Hkl.T @ dX).reshape(n_lm, 3)
            delta_lm[s.lm_idx] = np.einsum("nij,nj->ni", Hll_inv, rhs_l)
    return delta_kf, delta_lm, d_th


def _huberize(cam, k):
    r_c, Jp, Jl, Jth, valid = cam
    nrm = np.linalg.norm(r_c, axis=1)
    scale = np.sqrt(np.where(nrm > k, k / np.maximum(nrm, 1e-300), 1.0))
    s3 = scale[:, None, None]
    return r_c * scale[:, None], Jp * s3, Jl * s3, Jth * s3, valid


def _model_decrease(problem, cam, inertial, bridges, delta):
    """Cost drop the linearized model predicts for this step.

    Evaluates 0.5*||r||^2 - 0.5*||r + J d||^2 on the whitened blocks; the
    ratio of actual to predicted decrease drives the damping schedule.
    """
    delta_kf, delta_lm, d_th = delta
    pred = 0.0
    r_c, Jp, Jl, Jth, _ = cam
    if r_c.shape[0]:
        lin = (
            np.einsum("nri,ni->nr", Jp, delta_kf[problem._cam_kf, :6])
            + np.einsum("nri,ni->nr", Jl, delta_lm[problem._cam_lm])
            + Jth @ d_th[CAM_BLOCK]
        )
        pred += 0.5 * float(np.sum(r_c**2) - np.sum((r_c + lin) ** 2))
    # inertial factors, then bridges, which do not touch the calibration
    for (k0, k1, rw, J0w, J1w), lin in ((inertial[:5], inertial[5] @ d_th[IMU_BLOCK]), (bridges, 0.0)):
        lin = lin + np.einsum("fri,fi->fr", J0w, delta_kf[k0]) + np.einsum("fri,fi->fr", J1w, delta_kf[k1])
        pred += 0.5 * float(np.sum(rw**2) - np.sum((rw + lin) ** 2))
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
    place to the solution, except for the gauge of anchor_projectors: each
    anchor keeps its position, and its rotation update has no component
    about the gravity axis.
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
        cam = camera_blocks(problem)
        return problem, SolveReport(
            iterations=0,
            initial_cost=initial_cost,
            final_cost=cost,
            converged=True,
            reason="cost below absolute floor",
            dropped_observations=int((~cam[4]).sum()),
            cost_history=history,
        )

    for n_iters in range(1, options.max_iters + 1):
        cam = camera_blocks(problem)
        dropped = int((~cam[4]).sum())
        if options.huber:
            cam = _huberize(cam, options.huber_threshold)
        inertial = inertial_blocks(problem)
        bridges = bridge_blocks(problem)
        systems, cross = _assemble_partition_systems(problem, cam, inertial, bridges)
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
                pre_save = problem.preintegrated
                problem.keyframes, problem.landmarks, problem.calibration = trial
                refresh_preintegrations(problem)
                new_cost = _cost_from_blocks(problem, options.huber, options.huber_threshold)
                if np.isfinite(new_cost) and new_cost < cost:
                    step_accepted = True
                    pred = _model_decrease(problem, cam, inertial, bridges, scaled)
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
                problem.preintegrated = pre_save
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
