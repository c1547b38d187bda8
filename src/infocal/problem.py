"""Factor-graph construction and the nonlinear least-squares solve.

One builder, build_segment_problem, makes every CalibrationProblem from
Segments; the batch problem is the same call on one segment that spans
the whole session.  The input records (KeyframeState, Landmark, Segment)
are stacked into arrays once, by the builder: a problem's estimate is one
imu.StateStack of keyframe states, an (L, 3) array of landmark positions
and the CalibrationState, and its camera and bridge factors are structured
arrays.  Only the inertial factors stay objects (InertialFactor), each
holding its interval's samples.

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
partition, partition_segments) is fixed at each partition's anchor
keyframe, the first keyframe of its first segment in (session, first
keyframe) order, and only there: its position is held fixed and its
rotation delta is projected to remove the component about the world
gravity axis (anchor_projectors).  The gauge
is applied once, to the whitened Jacobian blocks (gauged_blocks): each
anchor's rotation columns are projected and its position columns cleared.
Solver and scoring then add unit information on the gravity axis and on
the three position axes, the four directions no data row touches.

A bias bridge, the bias random walk across a gap between two retained
segments of a session, is a pair factor like an inertial factor: its
whitened rows are rows 9:15 of an inertial factor over the gap, and
bridge_blocks returns them in the inertial factors' 15-row form with rows
0:9 and the calibration Jacobian zero.  gauged_blocks stacks the inertial
factors, then the bridges, into one pair stack, and the cost, the normal
equations and the scoring read only that stack.

The solver is Levenberg-Marquardt on the whitened residuals, in the form
of Madsen, Nielsen & Tingleff ("Methods for Non-Linear Least Squares
Problems", 2004, sec. 3.2): the gain ratio's predicted decrease comes
from the solved normal equations (_predicted_decrease), and a failed
trial only raises the damping, by Nielsen's rule (solve).  Each evaluated
state, the start and every trial, is linearised once (gauged_blocks):
its blocks give its cost and, once accepted, the next step.  The
linearisation re-preintegrates every inertial factor at the state's own
biases and IMU intrinsics (inertial_blocks), so nothing computed from an
earlier state is kept between evaluations.  Each trial
solves the damped, gauged normal equations by one block elimination
(_eliminate), the Schur ordering of Triggs et al. ("Bundle Adjustment: A
Modern Synthesis", 2000).  Its keyframe block is one LAPACK lower band of
half-bandwidth s keyframes.  Each landmark seen over a keyframe span of at
most s (_landmark_keyframes) is eliminated into the band, as one 6x6 pose
block per pair of its observations; the other landmarks join the
calibration in the dense block.  A solve picks s from the problem's sizes
(_band_span): the widest span w of a landmark or a pair factor
(_keyframe_band), with every landmark in the band, which costs O(K w^2)
on a corridor; or the pair span when the landmarks and the calibration
(3L + 26 coordinates) are fewer than the band's 15 (w + 1) rows, which
costs O(K (3L + 26)^2) on a bounded scene.

One banded Cholesky L L^T eliminates the keyframes from the dense block,
which is Cholesky-factored, and the rest back-substitutes.  The forward
solve Y = L^-1 [H_k,dense g_k] has two forms, picked by the width of its
right-hand side (_forward_solve).  No wider than the band, as the 27
columns of a corridor whose landmarks all fit in the band, it is one
LAPACK band solve (dtbtrs), which solves one column at a time.  Wider, as
the 3L_d + 27 columns of a bounded scene with L_d landmarks outside the
band, it is a sweep over blocks of band height, two matrix products per
block (_block_forward_solve).  Which landmarks go where, and where their
blocks go in the band and in the right-hand side, depends only on the
camera factors, so a solve works it out once (_workspace).

The band is cut into chains at each keyframe boundary that no inertial
factor and no band landmark crosses (_chains): on retained segments, the
gaps between partitions, where at most a bias bridge, one 15x15 block just
below the diagonal, couples the band.  Each chain is factored and
forward-solved by one LAPACK call on its own columns, and the bridge's
block is carried across the cut, the block-tridiagonal form of the
Cholesky factor (_band_schur_solve), so that a chain pays for its own
order, not the whole band's: the benchmark's segment calibration factors
four chains of 300 rows in a band 300 rows high, in about half the time
of one factor over its 1200 rows.  A problem of one chain, as a batch
session, makes one call of each.

A trial's large arrays, the band, the right-hand side C and the dense
block's Schur complement S, are sized by the problem, so they live for
the solve (_workspace), sparing each trial the page faults of fresh
ones, and each trial overwrites them; the small per-landmark and
calibration blocks stay a trial's own.  Each is held once: the forward
solve writes Y over C, and S is -Y^T Y with the dense block's nonzeros
added in place, so the dense block is never built.  On the benchmark's
batch session the workspace is then 7.9 MB, where a separate Y and dense
block, with every landmark dense, made it 16.3 MB.  The band landmarks'
Schur terms, a 6x6 product per pair of one landmark's observations and a
6x27 one per observation, are summed in blocks of whole runs (one
keyframe pair's, or one keyframe's, products) that hold no more than C
(_run_blocks), so a trial's temporaries stay below the workspace: on the
benchmark's segment calibration, where every landmark is in the band,
workspace and step peak at 1.6 times band, C and S, and at 3.0 with the
products taken whole.  Around the trials a solve holds one iteration: a
state's camera and pair blocks go once its normal equations are built,
a rejected trial's blocks before the next trial, and the normal
equations before the next iteration builds its own (solve).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.linalg
import scipy.linalg.lapack

from . import camera as cam
from . import imu as im
from .geometry import MAX_MAGNITUDE, Transform, UnitQuaternion, quat_to_matrix

KF_DIM = 15
POSE_DIM = 6  # rotation and position, the keyframe coords camera factors touch
LM_DIM = 3
CALIB_DIM = 26
# camera factors touch calibration coords [0:11], inertial factors [11:26]
CAM_BLOCK = slice(0, 11)
IMU_BLOCK = slice(11, 26)

_WORLD_Z = np.array([0.0, 0.0, 1.0])
# the least pivot of the damped system: added to each landmark diagonal
# entry, and the floor of every other, so that a coordinate without
# information still factors
_LM_DIAG_FLOOR = 1e-12
# Levenberg-Marquardt damping: its start, and the limit beyond which no
# step is sought; and the absolute cost below which iteration is pointless
_LAMBDA_INIT = 1e-4
_MAX_LAMBDA = 1e12
_COST_FLOOR = 1e-18
# whitened pixel-residual norm beyond which the Huber cost grows linearly
HUBER_THRESHOLD = 2.0
# segments sharing more landmarks than this fall into one partition
MAX_SHARED_LANDMARKS = 10

# one camera factor: local keyframe and landmark index, pixel, pixel sigma
CAMERA_FACTOR_DTYPE = np.dtype([("kf", int), ("lm", int), ("uv", float, (2,)), ("sigma", float)])
# one bias bridge across a removed gap: local keyframe indices, gap length (s)
BRIDGE_DTYPE = np.dtype([("k0", int), ("k1", int), ("dt", float)])


@dataclass(frozen=True)
class KeyframeState:
    """Pose, velocity, and biases of the sensor system at one timestep; an
    input record, stacked into an imu.StateStack by the builder."""

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
        """A batch of one of StateStack.retract."""
        x = im.StateStack.of([self]).retract(delta)
        return KeyframeState(UnitQuaternion.from_array(x.q_GI[0]), x.p_GI[0], x.v_GI[0], x.b_a[0], x.b_g[0], self.t)


@dataclass(frozen=True)
class Landmark:
    """A landmark's position and id; an input record, stacked into the
    problem's landmark array by the builder."""

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

    def __post_init__(self):
        # the fields whose own types let NaN and inf through
        fields = {"c": self.camera.c, "p_CI": self.extrinsics.T_CI.translation, "m_g": self.imu.m_g, "m_a": self.imu.m_a}
        for name, v in fields.items():
            if not np.isfinite(v).all():
                raise ValueError(f"calibration {name} must be finite")

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
    """Gauge unit of a problem: co-observing, inertially chained segments.

    segment_ids are its segments' ids in (session, first keyframe) order;
    anchor is the local index of its gauge anchor keyframe, the first
    keyframe of its first segment.
    """

    segment_ids: tuple
    anchor: int


class InertialFactor(NamedTuple):
    """Full 15-dim constraint between the consecutive keyframes k0 and k1
    (local indices): views of its interval's raw samples, validated at
    build time and preintegrated at each linearisation (inertial_blocks)."""

    k0: int
    k1: int
    times: np.ndarray
    omega: np.ndarray
    accel: np.ndarray


@dataclass
class Segment:
    """Consecutive keyframes of one session and the measurements on them.

    keyframe_ids are session keyframe ids, strictly increasing, one per
    entry of keyframes.  imu_samples cover the segment's keyframe
    intervals and, when the next segment of the session starts at the
    following keyframe, the interval into it.  observations
    (camera.FeatureObservation) reference keyframes by session id and
    landmarks by id; landmarks maps each landmark id of the segment to its
    position, and its keys are the segment's landmark set.  The id names
    the segment in error messages; ids may repeat across sessions.
    """

    id: int
    session_id: str
    keyframe_ids: list
    keyframes: list
    imu_samples: list
    observations: list
    landmarks: dict


@dataclass
class CalibrationProblem:
    """A fully assembled calibration problem over one or more partitions.

    The estimate is arrays: keyframes is an imu.StateStack (K keyframes),
    landmarks an (L, 3) array of positions, with landmark_ids (L,) their
    ids, and calibration a CalibrationState.  Solving replaces these with
    retracted copies and never writes into them, so a rejected trial step
    restores the estimate by reference.

    camera_factors is one CAMERA_FACTOR_DTYPE array, a row per
    observation sorted by (kf, lm), whose kf and lm are LOCAL indices
    (positions along the keyframe and landmark axes); keyframe_ids maps
    local index back to the session-level id.  Landmarks observed from
    multiple partitions are instantiated once per partition so no camera
    term couples partitions.  bridge_factors is one BRIDGE_DTYPE array, a
    row per bias bridge.  inertial_factors is a list of InertialFactor in
    left-keyframe order, whose times also give each interval's real sample
    count.  partitions is a list of Partition, each holding the local index
    of its anchor keyframe.
    """

    keyframes: im.StateStack
    keyframe_ids: list
    landmarks: np.ndarray
    landmark_ids: np.ndarray
    calibration: CalibrationState
    camera_factors: np.ndarray
    inertial_factors: list
    bridge_factors: np.ndarray
    partitions: list
    noise: im.NoiseModel

    def __post_init__(self):
        self._inertial_k0 = np.array([f.k0 for f in self.inertial_factors], dtype=int)
        self._inertial_k1 = np.array([f.k1 for f in self.inertial_factors], dtype=int)
        # the factors' samples stacked once, each interval padded to the
        # longest by repeating its last sample (a step of dt = 0, which
        # preintegrate_intervals leaves without effect): one refresh is one
        # preintegrate_intervals call
        self._imu_samples = None
        if self.inertial_factors:
            counts = np.array([f.times.shape[0] for f in self.inertial_factors])
            last = np.cumsum(counts) - 1
            take = np.minimum((last - counts + 1)[:, None] + np.arange(counts.max()), last[:, None])
            self._imu_samples = tuple(
                np.concatenate([getattr(f, a) for f in self.inertial_factors])[take] for a in ("times", "omega", "accel")
            )

    @property
    def num_states(self):
        return len(self.keyframes) * KF_DIM + len(self.landmarks) * LM_DIM + CALIB_DIM


@dataclass
class SolveOptions:
    max_iters: int = 50
    tol: float = 1e-9
    huber: bool = False  # Huber cost on the camera factors, at HUBER_THRESHOLD

    def __post_init__(self):
        if not isinstance(self.max_iters, numbers.Integral) or self.max_iters < 0:
            raise ValueError(f"max_iters must be a non-negative integer, got {self.max_iters!r}")
        if not (math.isfinite(self.tol) and self.tol >= 0):
            raise ValueError(f"tol must be finite and non-negative, got {self.tol!r}")


@dataclass
class SolveReport:
    iterations: int
    initial_cost: float
    final_cost: float
    converged: bool
    reason: str = ""
    dropped_observations: int = 0  # behind-camera observations at the final estimate
    cost_history: list = field(default_factory=list)  # accepted costs, initial first
    # the elimination the solve chose (_workspace): the band's half-bandwidth
    # s in keyframes, the landmarks eliminated into the band, and the chains
    # the band is factored in
    band_span: int = 0
    band_landmarks: int = 0
    chains: int = 0


# ---------------------------------------------------------------- building


def _slice_imu_stream(ts, t0, t1):
    """Per interval i, the bounds lo[i]:hi[i] of the samples of the stream
    times ts with t0[i] <= t <= t1[i], tolerant at the ends by 1e-9 s plus
    four ULPs of the end time: at epoch times (about 1.7e9 s, one ULP
    2.4e-7 s) t - 1e-9 is t itself."""
    t0, t1 = (np.asarray(t, dtype=float) for t in (t0, t1))
    lo = np.searchsorted(ts, t0 - (1e-9 + 4.0 * np.spacing(np.abs(t0))), side="left")
    hi = np.searchsorted(ts, t1 + (1e-9 + 4.0 * np.spacing(np.abs(t1))), side="right")
    return lo, hi


def _interval_factors(seg, pairs, times, keyframe_ids):
    """InertialFactors of local keyframe pairs from segment seg's IMU
    stream, stacked into arrays once; each factor holds views of its
    interval's samples.  times and keyframe_ids are per local keyframe.  The
    first interval that preintegration cannot take raises a ValueError
    (imu.check_sample_runs) naming seg and the interval's keyframe ids."""
    ts = np.array([s.t for s in seg.imu_samples], dtype=float)
    omega = np.array([s.omega_meas for s in seg.imu_samples], dtype=float).reshape(-1, 3)
    accel = np.array([s.accel_meas for s in seg.imu_samples], dtype=float).reshape(-1, 3)
    ends = times[np.array(pairs, dtype=int).reshape(-1, 2)]
    lo, hi = _slice_imu_stream(ts, ends[:, 0], ends[:, 1])

    def name(i):
        return "segment {}: keyframe interval {}-{}".format(seg.id, *(keyframe_ids[k] for k in pairs[i]))

    im.check_sample_runs(ts, omega, accel, lo, hi, name)
    return [InertialFactor(k0, k1, ts[a:b], omega[a:b], accel[a:b]) for (k0, k1), a, b in zip(pairs, lo, hi)]


def build_batch_problem(keyframes, landmarks, observations, imu_stream, calib_init, noise):
    """The whole session as one segment, through build_segment_problem.

    The segment has keyframe ids range(K), the whole IMU stream and every
    listed landmark, observed or not.  Observations reference keyframes by
    index into `keyframes` and landmarks by Landmark.id.  The first
    keyframe anchors the gauge.  Landmark columns come sorted by id,
    whatever the order of `landmarks`.
    """
    seg = Segment(
        id=0,
        session_id="batch",
        keyframe_ids=list(range(len(keyframes))),
        keyframes=list(keyframes),
        imu_samples=imu_stream,
        observations=observations,
        landmarks={lm.id: lm.l_G for lm in landmarks},
    )
    return build_segment_problem([seg], calib_init, noise)


def _check_segment(s):
    """Reject a segment whose keyframes cannot be indexed by position."""
    ids = np.asarray(s.keyframe_ids)
    if not ids.size:
        raise ValueError(f"segment {s.id}: no keyframes")
    if ids.size != len(s.keyframes):
        raise ValueError(f"segment {s.id}: {ids.size} keyframe ids for {len(s.keyframes)} keyframes")
    if not np.all(np.diff(ids) > 0):
        raise ValueError(f"segment {s.id}: keyframe ids must be strictly increasing")
    t = np.array([k.t for k in s.keyframes], dtype=float)
    if not np.isfinite(t).all():
        raise ValueError(f"segment {s.id}: keyframe times must be finite")
    if not np.all(np.diff(t) > 0.0):
        raise ValueError(f"segment {s.id}: keyframes must be temporally ordered")


def _positions(sorted_ids, ids, error):
    """Index of each of `ids` in the strictly increasing `sorted_ids`;
    ValueError(error + first missing id) if one is absent."""
    pos = np.searchsorted(sorted_ids, ids)
    found = pos < len(sorted_ids)
    found[found] = sorted_ids[pos[found]] == ids[found]
    if not found.all():
        raise ValueError(f"{error} {ids[~found][0]}")
    return pos


def _temporally_adjacent(a, b):
    return a.session_id == b.session_id and b.keyframe_ids[0] == a.keyframe_ids[-1] + 1


def partition_segments(segments):
    """Connected components over shared-landmark / temporal-adjacency
    edges, each a tuple of positions in segments.

    Two segments join the same partition when they are temporally adjacent
    (inertial connectivity) or share strictly more than
    MAX_SHARED_LANDMARKS landmarks, transitively.  Partitions, and the
    positions within one, come in (session, first keyframe) order.
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
            if len(segments[i].landmarks.keys() & segments[j].landmarks.keys()) > MAX_SHARED_LANDMARKS:
                union(i, j)

    groups = {}
    for i in order:
        groups.setdefault(find(i), []).append(i)
    return [tuple(g) for g in groups.values()]


def build_segment_problem(segments, calib_init, noise):
    """Joint problem over retained segments.

    Within segments: full camera and inertial factors.  Between temporal
    neighbors separated by a gap: a bias-random-walk bridge only.  Each
    co-visibility partition (partition_segments) gets its own gauge anchor,
    the first keyframe of its first segment, and its own landmark
    instances.  Segments are validated here, the batch problem's single
    segment included: keyframe states, landmark coordinates and IMU
    samples must be finite and within MAX_MAGNITUDE, as the pixels of
    camera.FeatureObservation must.
    """
    if not segments:
        raise ValueError("empty segment list")
    for s in segments:
        _check_segment(s)
    segs = sorted(segments, key=lambda s: (s.session_id, s.keyframe_ids[0]))
    for a, b in zip(segs, segs[1:]):
        if a.session_id == b.session_id and b.keyframe_ids[0] <= a.keyframe_ids[-1]:
            raise ValueError(f"segments {a.id} and {b.id} overlap in keyframe ids")

    # segment i holds the local keyframes first[i] .. first[i + 1] - 1
    first = np.cumsum([0] + [len(s.keyframes) for s in segs]).tolist()
    keyframes = im.StateStack.of([kf for s in segs for kf in s.keyframes])
    bad = np.flatnonzero(~(np.abs(np.hstack(keyframes.arrays())) <= MAX_MAGNITUDE).all(1))
    if bad.size:
        seg = segs[np.searchsorted(first, bad[0], side="right") - 1]
        raise ValueError(f"segment {seg.id}: keyframe states must be finite and within {MAX_MAGNITUDE:g}")
    times = np.array([kf.t for s in segs for kf in s.keyframes], dtype=float)
    keyframe_ids = [kid for s in segs for kid in s.keyframe_ids]
    # segs is in partition_segments' order, so a partition's first position
    # is its first segment
    groups = partition_segments(segs)
    partitions = [Partition(tuple(segs[i].id for i in g), first[g[0]]) for g in groups]
    part_of = {i: p for p, g in enumerate(groups) for i in g}

    positions, landmark_ids, cam_factors = [], [], []
    lm_local = {}
    for i, (s, first_kf) in enumerate(zip(segs, first)):
        p_idx = part_of[i]
        ids = sorted(s.landmarks)
        listed = np.array([s.landmarks[lid] for lid in ids], dtype=float).reshape(len(ids), LM_DIM)
        if not (np.abs(listed) <= MAX_MAGNITUDE).all():
            raise ValueError(f"segment {s.id}: landmark coordinates must be finite and within {MAX_MAGNITUDE:g}")
        new = [j for j, lid in enumerate(ids) if (p_idx, lid) not in lm_local]
        for j in new:
            lm_local[(p_idx, ids[j])] = len(landmark_ids)
            landmark_ids.append(ids[j])
        positions.append(listed[new])
        cols = np.array([lm_local[(p_idx, lid)] for lid in ids], dtype=int)
        rows = [(o.keyframe_id, o.landmark_id, o.uv, o.sigma) for o in s.observations]
        obs = np.array(rows, dtype=CAMERA_FACTOR_DTYPE)
        unknown = f"segment {s.id}: observation references unknown"
        obs["kf"] = first_kf + _positions(np.asarray(s.keyframe_ids), obs["kf"], unknown + " keyframe")
        obs["lm"] = cols[_positions(np.array(ids, dtype=int), obs["lm"], unknown + " landmark")]
        cam_factors.append(obs)
    cam_factors = np.concatenate(cam_factors)
    cam_factors = cam_factors[np.lexsort((cam_factors["lm"], cam_factors["kf"]))]
    landmarks = np.concatenate(positions)

    # one slicing pass per segment stream: its own intervals and the one
    # into a temporally adjacent successor, through which its IMU span
    # extends
    inertial, bridges = [], []
    for i, (a, b) in enumerate(zip(segs, segs[1:] + [None])):
        ks = list(range(first[i], first[i + 1]))
        pairs = list(zip(ks, ks[1:]))
        if b is not None and a.session_id == b.session_id:
            k1 = first[i + 1]
            if _temporally_adjacent(a, b):
                pairs.append((ks[-1], k1))
            else:
                gap = times[k1] - times[ks[-1]]
                if gap <= 0.0:
                    raise ValueError(f"segments {a.id} and {b.id}: bridge gap must be positive")
                bridges.append((ks[-1], k1, gap))
        inertial += _interval_factors(a, pairs, times, keyframe_ids)

    return CalibrationProblem(
        keyframes=keyframes,
        keyframe_ids=keyframe_ids,
        landmarks=landmarks,
        landmark_ids=np.array(landmark_ids, dtype=int),
        calibration=calib_init,
        camera_factors=cam_factors,
        inertial_factors=inertial,
        bridge_factors=np.array(bridges, dtype=BRIDGE_DTYPE),
        partitions=partitions,
        noise=noise,
    )


# ------------------------------------------------------------- evaluation


def refresh_preintegrations(problem):
    """The stack of every inertial factor's preintegration, in factor
    order, at its left keyframe's current biases and the current IMU
    intrinsics: one preintegrate_intervals call over every factor's padded
    samples.  The inertial residual takes the deltas as they are, so
    inertial_blocks preintegrates at each linearisation; the problem must
    have inertial factors.
    """
    x = problem.keyframes
    k0 = problem._inertial_k0
    return im.preintegrate_intervals(*problem._imu_samples, problem.calibration.imu, x.b_g[k0], x.b_a[k0], problem.noise)


def camera_blocks(problem):
    """Whitened residuals and Jacobian blocks of all camera factors.

    Returns (r, J_pose, J_lm, J_theta, valid) stacked over the factors;
    J_pose covers the keyframe pose coords [0:6], J_theta calibration
    coords [0:11].  Rows of behind-camera observations are zero.
    Whitened by the pixel sigma.
    """
    calib = problem.calibration
    cf = problem.camera_factors
    x = problem.keyframes
    ki, li = cf["kf"], cf["lm"]
    T = calib.extrinsics.T_CI
    uv_pred, valid, J_pose, J_l, J_extr, J_intr = cam.camera_factor_blocks(
        x.q_GI[ki], x.p_GI[ki], T.rotation.matrix(), T.translation, problem.landmarks[li], calib.camera
    )
    r = np.where(valid[:, None], uv_pred - cf["uv"], 0.0)
    J_theta = np.concatenate([J_intr, J_extr], axis=-1)
    inv_sigma = 1.0 / cf["sigma"]
    s3 = inv_sigma[:, None, None]
    return r * inv_sigma[:, None], J_pose * s3, J_l * s3, J_theta * s3, valid


def inertial_blocks(problem):
    """Whitened residuals and Jacobian blocks of all inertial factors, in
    one pass.

    Returns (k0, k1, r, J0, J1, J_theta) stacked over the factors in
    factor order: the two keyframe indices, the 15-dim residuals, and their
    15x15 Jacobians wrt the two keyframes and wrt the IMU intrinsics
    (calibration coords [11:26]), linearised at the current state with
    preintegrations taken there (refresh_preintegrations).  Whitened by
    inertial_sqrt_information.
    """
    k0, k1 = problem._inertial_k0, problem._inertial_k1
    if not k0.size:
        empty = np.zeros((0, 15, 15))
        return k0, k1, np.zeros((0, 15)), empty, empty, empty
    x = problem.keyframes
    pre = refresh_preintegrations(problem)
    r, J0, J1, Jth = im.inertial_factor_blocks(x.take(k0), x.take(k1), pre)
    A = im.inertial_sqrt_information(pre)
    return k0, k1, (A @ r[..., None])[..., 0], A @ J0, A @ J1, A @ Jth


def bridge_blocks(problem):
    """Whitened blocks of all bias bridges as pair factors, in the form of
    inertial_blocks.

    Returns (k0, k1, r, J0, J1, J_theta) stacked over the bridges.  Rows
    9:15 hold the whitened bias random walk over the gap, (gyro, accel) like
    an inertial factor's rows 9:15; rows 0:9 and J_theta are zero.
    """
    bf = problem.bridge_factors
    k0, k1 = bf["k0"], bf["k1"]
    x = problem.keyframes
    w = 1.0 / im.bias_walk_sigmas(problem.noise, bf["dt"])
    r = np.zeros((k0.size, 15))
    r[:, 9:15] = w * np.concatenate([x.b_g[k1] - x.b_g[k0], x.b_a[k1] - x.b_a[k0]], axis=-1)
    J1 = np.zeros((k0.size, 15, 15))
    J1[:, 9:15] = w[:, :, None] * im.BIAS_WALK_ROWS
    return k0, k1, r, -J1, J1, np.zeros_like(J1)


def anchor_projectors(problem):
    """The gauge: per partition (anchor index, rotation projector P,
    gravity axis u).

    u is the world vertical expressed in the anchor body frame at the
    current anchor attitude, and P = I - u u^T removes the rotation-delta
    component about it.  The anchor's position is fixed as well; no other
    coordinate of a problem is ever held fixed.
    """
    out = []
    for a in (p.anchor for p in problem.partitions):
        u = quat_to_matrix(problem.keyframes.q_GI[a]).T @ _WORLD_Z
        u = u / np.linalg.norm(u)
        out.append((a, np.eye(3) - np.outer(u, u), u))
    return out


def gauged_blocks(problem):
    """The one linearisation of the current state: (camera, pairs,
    anchors).

    camera is camera_blocks; pairs is inertial_blocks followed by
    bridge_blocks, stacked into one (k0, k1, r, J0, J1, J_theta); anchors is
    anchor_projectors.  The Jacobian columns of each anchor's rotation are
    projected by P and those of its position cleared, so no data row
    touches an anchor's gravity axis or position; solve and the scoring add
    unit information on exactly those four directions.
    """
    cam = camera_blocks(problem)
    pairs = tuple(np.concatenate(b) for b in zip(inertial_blocks(problem), bridge_blocks(problem)))
    anchors = anchor_projectors(problem)
    keyed = ((problem.camera_factors["kf"], cam[1]), (pairs[0], pairs[3]), (pairs[1], pairs[4]))
    for a, P, _ in anchors:
        for k, J in keyed:
            at = k == a
            J[at, :, 0:3] = J[at, :, 0:3] @ P
            J[at, :, 3:6] = 0.0
    return cam, pairs, anchors


def problem_cost(problem, huber=False):
    """Half squared whitened residual norm at the current states."""
    return _cost(gauged_blocks(problem), huber)


def _cost(blocks, huber=False):
    """Half squared whitened residual norm of gauged_blocks, with the
    Huber cost on the camera factors if huber."""
    (r_c, *_), pairs, _ = blocks
    if huber:
        nrm = np.linalg.norm(r_c, axis=1)
        k = HUBER_THRESHOLD
        cost = float(np.sum(np.where(nrm <= k, 0.5 * nrm**2, k * nrm - 0.5 * k * k)))
    else:
        cost = 0.5 * float(np.sum(r_c**2))
    return cost + 0.5 * float(np.sum(pairs[2] ** 2))


# ------------------------------------------------------------------ solve


def _pair_span(problem):
    """The widest keyframe span of a pair factor, inertial or bridge: the
    half-bandwidth, in keyframes, of the normal equations' keyframe band."""
    bf = problem.bridge_factors
    spans = (problem._inertial_k1 - problem._inertial_k0, bf["k1"] - bf["k0"])
    return int(np.concatenate(spans).max(initial=0))


def _landmark_keyframes(problem):
    """The smallest and the largest keyframe index of each landmark's
    observations, two (L,) arrays, both 0 for an unobserved landmark; their
    difference is the landmark's keyframe span."""
    cf = problem.camera_factors
    by_lm = np.argsort(cf["lm"], kind="stable")
    kf, lm = cf["kf"][by_lm], cf["lm"][by_lm]
    first = _run_starts(lm)
    lo, hi = np.zeros((2, len(problem.landmarks)), dtype=int)
    lo[lm[first]] = np.minimum.reduceat(kf, first)
    hi[lm[first]] = np.maximum.reduceat(kf, first)
    return lo, hi


def _keyframe_band(problem):
    """Half-bandwidth w, in keyframes, of the keyframe block once every
    landmark is eliminated: the widest keyframe span of one landmark's
    observations or of a pair factor."""
    lo, hi = _landmark_keyframes(problem)
    return max(int((hi - lo).max(initial=0)), _pair_span(problem))


def _band_span(problem):
    """The band's half-bandwidth s of a solve, from the problem's sizes:
    the pair span when the landmark and calibration system (3L + 26
    coordinates) is narrower than the band that holds every landmark
    (15 (w + 1) rows, w = _keyframe_band(problem)), and w otherwise."""
    w = _keyframe_band(problem)
    return _pair_span(problem) if LM_DIM * len(problem.landmarks) + CALIB_DIM < KF_DIM * (w + 1) else w


def _landmark_pairs(kf, lm):
    """The ordered pairs (a, b) of camera factors on one landmark with
    kf[a] >= kf[b], each factor with itself included, as two index arrays
    sorted by (kf[a], kf[b]): the landmark Schur blocks on or below the
    keyframe band's diagonal."""
    order = np.argsort(lm, kind="stable")
    _, starts, size = np.unique(lm[order], return_index=True, return_counts=True)
    # every ordered pair (i, j) within each landmark's run of sorted factors
    run = np.repeat(np.arange(starts.size), size**2)
    t = np.arange(run.size) - np.repeat(np.cumsum(size**2) - size**2, size**2)
    a, b = order[starts[run] + t // size[run]], order[starts[run] + t % size[run]]
    a, b = a[kf[a] >= kf[b]], b[kf[a] >= kf[b]]
    by_pair = np.lexsort((kf[b], kf[a]))
    return a[by_pair], b[by_pair]


def _run_starts(key):
    """Where each run of equal entries of key starts."""
    return np.flatnonzero(np.diff(key, prepend=key[:1] - 1))


def _band_entries(rows, cols):
    """Positions (i, j), in a LAPACK lower band, of the entries
    (rows[..., :, None], cols[..., None, :]) on or below the diagonal, and
    the mask that selects those entries."""
    r, c = rows[..., :, None], cols[..., None, :]
    lower = r >= c
    return ((r - c)[lower], np.broadcast_to(c, lower.shape)[lower]), lower


def _tmul(A, B):
    """A^T B per factor: the last two axes of A transposed, times B."""
    return A.swapaxes(-1, -2) @ B


def _sum_by(index, values, n):
    """values (N, ...) summed over equal entries of index (N,) into (n,
    ...); np.bincount, which returns ints when there are no values."""
    m = math.prod(values.shape[1:])
    flat = (index[:, None] * m + np.arange(m)).ravel()
    return np.bincount(flat, values.ravel(), minlength=n * m).astype(float, copy=False).reshape((n,) + values.shape[1:])


def _keyframe_sums(kf, values, K):
    """values (N, ...) summed per keyframe into (K, ...); kf (N,) sorted."""
    out = np.zeros((K,) + values.shape[1:])
    first = _run_starts(kf)
    out[kf[first]] = np.add.reduceat(values, first, axis=0)
    return out


@dataclass
class _NormalEquations:
    """Undamped normal equations of the gauged, whitened blocks.

    band holds the keyframe block H_kk (n = 15K coordinates) as a LAPACK
    lower band, band[i - j, j] = H_kk[i, j] for 0 <= i - j < 15(w + 1), w
    the widest pair-factor span.  The landmark blocks are per landmark
    (Hll (L, 3, 3), Hlt (L, 3, 26), gl (L, 3)), and H_kl per camera factor:
    Hpl (N, 6, 3) = J_pose^T J_lm on the pose of keyframe kf (N,) and on
    landmark lm (N,), the camera factors' indices, sorted by (kf, lm).
    """

    band: np.ndarray
    Hkt: np.ndarray
    gk: np.ndarray
    Hll: np.ndarray
    Hlt: np.ndarray
    gl: np.ndarray
    Htt: np.ndarray
    gt: np.ndarray
    Hpl: np.ndarray
    kf: np.ndarray
    lm: np.ndarray


def _normal_equations(problem, cam, pairs):
    """Accumulate the normal equations of the gauged blocks
    (_NormalEquations)."""
    K, L = len(problem.keyframes), len(problem.landmarks)
    n = K * KF_DIM
    r_c, Jp, Jl, Jth, _ = cam
    ki, li = problem.camera_factors["kf"], problem.camera_factors["lm"]
    k0, k1, rw, J0, J1, Jti = pairs
    u = (_pair_span(problem) + 1) * KF_DIM - 1

    Hkt = np.zeros((n, CALIB_DIM))
    Hkt.reshape(K, KF_DIM, CALIB_DIM)[:, :POSE_DIM, CAM_BLOCK] = _keyframe_sums(ki, _tmul(Jp, Jth), K)
    gk = np.zeros(n)
    gk.reshape(K, KF_DIM)[:, :POSE_DIM] = -_keyframe_sums(ki, _tmul(Jp, r_c[..., None])[..., 0], K)
    Hll = _sum_by(li, _tmul(Jl, Jl), L)
    Hlt = np.zeros((L, LM_DIM, CALIB_DIM))
    Hlt[:, :, CAM_BLOCK] = _sum_by(li, _tmul(Jl, Jth), L)
    gl = -_sum_by(li, _tmul(Jl, r_c[..., None])[..., 0], L)
    # the calibration blocks sum over all rows: one product of the stacked rows
    Jth2, Jti2 = (J.reshape(-1, J.shape[-1]) for J in (Jth, Jti))
    Htt = np.zeros((CALIB_DIM, CALIB_DIM))
    Htt[CAM_BLOCK, CAM_BLOCK] = _tmul(Jth2, Jth2)
    Htt[IMU_BLOCK, IMU_BLOCK] = _tmul(Jti2, Jti2)
    gt = -np.concatenate([_tmul(Jth2, r_c.reshape(-1)), _tmul(Jti2, rw.reshape(-1))])

    # the camera factors' pose blocks, summed per keyframe, on the diagonal
    pose = (np.arange(K) * KF_DIM)[:, None] + np.arange(POSE_DIM)
    (i, j), lower = _band_entries(pose, pose)
    at, values = [i * n + j], [_keyframe_sums(ki, _tmul(Jp, Jp), K)[lower]]
    # pair factors on two keyframes: their keyframe blocks on or below the
    # diagonal, and their IMU-intrinsics columns
    rows = [(k * KF_DIM)[:, None] + np.arange(KF_DIM) for k in (k0, k1)]
    for k, ra, Ja in zip((k0, k1), rows, (J0, J1)):
        for rb, Jb in zip(rows, (J0, J1)):
            (i, j), lower = _band_entries(ra, rb)
            at.append(i * n + j)
            values.append(_tmul(Ja, Jb)[lower])
        gk -= _sum_by(k, _tmul(Ja, rw[..., None])[..., 0], K).reshape(n)
        Hkt[:, IMU_BLOCK] += _sum_by(k, _tmul(Ja, Jti), K).reshape(n, -1)
    band = _sum_by(np.concatenate(at), np.concatenate(values), (u + 1) * n).reshape(u + 1, n)
    return _NormalEquations(band, Hkt, gk, Hll, Hlt, gl, Htt, gt, _tmul(Jp, Jl), ki, li)


class _Workspace(NamedTuple):
    """The elimination of a solve, worked out once from the camera factors
    for a band of half-bandwidth s, and the arrays every trial overwrites.

    lm, f and f_lm are the band landmarks, their camera factors and each of
    those factors' landmark among them; when every landmark is in the band,
    full slices and the factors' own landmarks, so that they index by views.
    The band landmarks' two Schur terms are taken in blocks of whole runs
    (_run_blocks), each block's product no larger than C, so that no run's
    sum is split and every sum adds the same terms in the same order.
    pairs holds (a, b, first, at, lower) per block of keyframe-pair runs:
    its factor pairs (_landmark_pairs, among the band factors), where each
    keyframe pair's run of them starts in the block, and the positions and
    mask (_band_entries) of the runs' summed 6x6 blocks in the band; each
    run is one keyframe pair, so no two entries share a position.  poses
    holds (factors, first, k) per block of keyframe runs: a slice of the
    band factors, where each keyframe's run starts in it, and the runs'
    keyframes.  dense is the other landmarks, and kl is (factors, run, at):
    their camera factors, the start of each run of them on one keyframe
    and landmark, and the positions in C of the run's summed 6x3 H_kl
    block.  chains is the keyframe bounds, from 0 to K, of the chains the
    band is cut into (_chains), which _band_schur_solve factors and
    forward-solves one at a time.  Then the damped band, the right-hand
    side C of _band_schur_solve, which its forward solve overwrites with
    L^-1 C, and the dense block's Schur complement S; band and S
    Fortran-ordered, so factored in place, a chain's columns of the band
    too.  A trial writes every entry that it reads."""

    lm: object
    f: object
    f_lm: np.ndarray
    pairs: tuple
    poses: tuple
    dense: np.ndarray
    kl: tuple
    chains: np.ndarray
    band: np.ndarray
    C: np.ndarray
    S: np.ndarray


def _run_blocks(first, n, size):
    """The runs of n items that start at first, in blocks of whole runs of
    at most size items each, a longer run alone in its block: per block,
    the slice of its items, where its runs start in that slice, and the
    slice of its runs."""
    ends = np.append(first[1:], n)
    blocks, r = [], 0
    while r < first.size:
        r1 = max(int(np.searchsorted(ends, first[r] + size, side="right")), r + 1)
        blocks.append((slice(int(first[r]), int(ends[r1 - 1])), first[r:r1] - first[r], slice(r, r1)))
        r = r1
    return blocks


def _chains(problem, lo, hi):
    """The keyframe bounds, from 0 to K, of the chains of the keyframe
    band: it is cut at each keyframe boundary k | k + 1 that no inertial
    factor and no band landmark, observed from keyframes lo to hi,
    crosses.  Only a bias bridge that spans exactly that boundary may cross
    a cut, so the band couples two chains by at most one 15x15 block, just
    below its diagonal, which _band_schur_solve carries across the cut."""
    K = len(problem.keyframes)
    bf = problem.bridge_factors
    wide = bf["k1"] - bf["k0"] > 1
    k0 = np.concatenate([lo, problem._inertial_k0, bf["k0"][wide]])
    k1 = np.concatenate([hi, problem._inertial_k1, bf["k1"][wide]])
    # how many of them cross each boundary k | k + 1, k0 <= k < k1
    crossed = np.cumsum(np.bincount(k0, minlength=K) - np.bincount(k1, minlength=K))[:-1]
    return np.concatenate([[0], np.flatnonzero(crossed == 0) + 1, [K]])


def _workspace(problem, s):
    """The _Workspace of a band of half-bandwidth s, at least the pair
    span: the landmarks whose keyframe span (_landmark_keyframes) is at most
    s go into the band, the others into the dense block, and the band is
    cut into chains where only bias bridges couple it (_chains)."""
    K, L = len(problem.keyframes), len(problem.landmarks)
    kf, lm = problem.camera_factors["kf"], problem.camera_factors["lm"]
    lo, hi = _landmark_keyframes(problem)
    in_band = hi - lo <= s
    # each landmark's index among the band, or among the dense, landmarks
    local = np.where(in_band, np.cumsum(in_band), np.cumsum(~in_band)) - 1
    bl, f = (slice(None),) * 2 if in_band.all() else (np.flatnonzero(in_band), np.flatnonzero(in_band[lm]))
    fd = np.flatnonzero(~in_band[lm])
    (kb, lb), (kd, ld) = (kf[f], lm[f]), (kf[fd], lm[fd])
    n, m, height = K * KF_DIM, LM_DIM * int((~in_band).sum()) + CALIB_DIM, KF_DIM * (s + 1)
    # C in the order its forward solve overwrites: C for the block sweep's
    # GEMMs, Fortran for dtbtrs to solve it in place
    C = np.empty((n, m + 1), order="F" if m + 1 <= height else "C")
    a, b = _landmark_pairs(kb, lb)
    first = _run_starts(kb[a] * K + kb[b])
    pose = [(kb[c[first]] * KF_DIM)[:, None] + np.arange(POSE_DIM) for c in (a, b)]
    blocks = _run_blocks(first, a.size, C.nbytes // (POSE_DIM * POSE_DIM * C.itemsize))
    pairs = tuple((a[p], b[p], start, *_band_entries(pose[0][r], pose[1][r])) for p, start, r in blocks)
    first = _run_starts(kb)
    blocks = _run_blocks(first, kb.size, C.nbytes // (POSE_DIM * (CALIB_DIM + 1) * C.itemsize))
    poses = tuple((p, start, kb[first[r]]) for p, start, r in blocks)
    run = _run_starts(kd * L + ld)
    rows = (kd[run] * KF_DIM)[:, None, None] + np.arange(POSE_DIM)[:, None]
    cols = (local[ld[run]] * LM_DIM)[:, None, None] + np.arange(LM_DIM)
    chains = _chains(problem, lo[in_band], hi[in_band])
    layout = (bl, f, local[lb], pairs, poses, np.flatnonzero(~in_band), (fd, run, (rows, cols)), chains)
    return _Workspace(*layout, np.empty((height, n), order="F"), C, np.empty((m, m), order="F"))


def _forward_solve(cb, C):
    """L^-1 C written over C, for the lower band Cholesky factor L stored
    in cb, one chain's (_band_schur_solve).  dtbtrs solves one column at a
    time, at LAPACK level 2, which suits a right-hand side no wider than
    the band; it solves a Fortran-ordered C in place, as the whole C of a
    one-chain band, and otherwise a copy, as of one chain's rows, which is
    written back.  A wider C goes to _block_forward_solve, at level 3."""
    if C.shape[1] > cb.shape[0]:
        return _block_forward_solve(cb, C)
    X, info = scipy.linalg.lapack.dtbtrs(cb, C, uplo="L", overwrite_b=1)
    if info:
        raise np.linalg.LinAlgError(f"dtbtrs: info {info}")
    if X is not C:
        C[...] = X
    return C


def _block_forward_solve(cb, C):
    """L^-1 C over C as _forward_solve, in blocks of m = cb.shape[0] rows.

    L's half-bandwidth is below m, so in those blocks L is block lower
    bidiagonal, with lower triangular diagonal blocks L_k and subdiagonal
    blocks S_k.  The inverses of the L_k and M_k = L_k^-1 S_k are batched
    up front, and a sweep of two GEMMs per block, Y_k = L_k^-1 C_k -
    M_k Y_(k-1), writes Y = L^-1 C over C one block at a time.
    """
    m, n = cb.shape
    blocks = -(-n // m)
    # the band over m zero rows, so that offsets past it read zero, padded
    # to whole blocks with a unit diagonal; a padded block's inverse holds
    # the inverse of its leading block
    ext = np.zeros((2 * m, blocks * m))
    ext[:m, :n] = cb
    ext[0, n:] = 1.0
    i, j = np.arange(m)[:, None], np.arange(m)
    cols = (np.arange(blocks) * m)[:, None, None] + j
    Linv = ext[i - j, cols]
    for k in range(blocks):
        Linv[k], info = scipy.linalg.lapack.dtrtri(Linv[k], lower=1)
        if info:
            raise np.linalg.LinAlgError(f"dtrtri: info {info}")
    M = Linv[1:] @ ext[m + i - j, cols[:-1]]
    for k in range(blocks):
        a, b = k * m, min(k * m + m, n)
        C[a:b] = Linv[k, : b - a, : b - a] @ C[a:b]
        if k:
            C[a:b] -= M[k - 1, : b - a] @ C[a - m : a]
    return C


def _coupling(a):
    """Band positions of the 15x15 block of H (or L) on the rows of the
    keyframe whose columns start at a and the columns of the keyframe
    before it: the block just below the diagonal."""
    i, j = np.arange(KF_DIM)[:, None], np.arange(KF_DIM)
    return KF_DIM + i - j, a - KF_DIM + j


def _band_schur_solve(work, dense, gd):
    """(x, d) solving [[H, Ck], [Ck^T, D]] [x; d] = [g; gd] in the
    workspace work (_Workspace): H its lower band, C = [Ck g] its C, and D
    the sum of dense, pairs (index, values) of D's nonzeros at S[index],
    read in its lower triangle.  A banded Cholesky L L^T of H, in place;
    Y = L^-1 C over work.C; -Y^T Y into work.S, D's nonzeros added there
    and S = D - Y^T Y Cholesky-factored in place; and x back-substituted
    by one dtbtrs over the whole band.  C and S are the only arrays of
    their size, and work's, which lives for the solve.

    The band is factored and forward-solved one chain (work.chains) at a
    time, each by one LAPACK call on its columns (dpbtrf), so a chain no
    longer than the band costs its own order cubed, not the band's
    height squared per column.  Across a cut H couples only the last
    keyframe k of one chain and the first, k + 1, of the next, by the
    block A (_coupling; a bias bridge's, or zero).  Before the next chain
    is factored, X = A L_kk^-T is written over A and X X^T comes off the
    next chain's first diagonal block (the block-tridiagonal Cholesky), so
    the band then holds the whole L.  The forward solve (_forward_solve:
    one dtbtrs when C is no wider than the band, else a sweep over blocks
    of band height) takes X y_k off the next chain's first rows before it
    solves them.  A problem of one chain makes one call of each."""
    band = work.band
    cols = [(a * KF_DIM, b * KF_DIM) for a, b in zip(work.chains[:-1], work.chains[1:])]
    # a band one keyframe high (s = 0, no pair factor) couples no two
    # keyframes, and has no room for a coupling block
    coupled = band.shape[0] > KF_DIM
    i, j = np.tril_indices(KF_DIM)
    for a, b in cols:
        if a and coupled:
            at = _coupling(a)
            Lkk = np.zeros((KF_DIM, KF_DIM))
            Lkk[i, j] = band[i - j, a - KF_DIM + j]
            Xt, info = scipy.linalg.lapack.dtrtrs(Lkk, band[at].T, lower=1)
            if info:
                raise np.linalg.LinAlgError(f"dtrtrs: info {info}")
            band[at] = Xt.T
            band[i - j, a + j] -= (Xt.T @ Xt)[i, j]
        chain = band[:, a:b]
        c, info = scipy.linalg.lapack.dpbtrf(chain, lower=1, overwrite_ab=1)
        if info:
            raise np.linalg.LinAlgError(f"dpbtrf: info {info}")
        if c is not chain:
            raise ValueError("dpbtrf factors in place only a Fortran-ordered band")
    Y = work.C
    for a, b in cols:
        if a and coupled:
            Y[a : a + KF_DIM] -= band[_coupling(a)] @ Y[a - KF_DIM : a]
        _forward_solve(band[:, a:b], Y[a:b])
    Yc, y = Y[:, :-1], Y[:, -1]
    S = np.negative(np.matmul(Yc.T, Yc, out=work.S), out=work.S)
    for index, values in dense:
        S[index] += values
    c = scipy.linalg.cho_factor(S, lower=True, overwrite_a=True, check_finite=False)
    d = scipy.linalg.cho_solve(c, gd - Yc.T @ y, check_finite=False)
    x, info = scipy.linalg.lapack.dtbtrs(band, (y - Yc @ d)[:, None], uplo="L", trans="T")
    if info:
        raise np.linalg.LinAlgError(f"dtbtrs: info {info}")
    return x[:, 0], d


def _damped_step(ne, lam, anchors, work):
    """One damped elimination of the normal equations ne (_eliminate);
    returns the update triple (keyframes, landmarks, calibration), as new
    arrays.  work is the solve's _Workspace.

    Damping adds lam times the diagonal, and _LM_DIAG_FLOOR to the
    landmarks'.  The gauge: each anchor's damped rotation block B becomes
    P B P + u u^T and its position block the identity, so the anchor's
    position update is exactly zero and its rotation update has no
    component about u.  Any other keyframe or calibration diagonal entry
    below _LM_DIAG_FLOOR is raised to it, so a coordinate without
    information still factors and gets no update.

    The damped band overwrites work.band, which lives for the solve, its
    rows past ne.band's zeroed; the small per-landmark and calibration
    blocks are the trial's own arrays.
    """
    h = ne.band.shape[0]
    band = work.band
    band[:h] = ne.band
    band[h:] = 0.0
    band[0] *= 1.0 + lam
    i, j = np.tril_indices(3)
    for a, P, u in anchors:
        rot = (i - j, a * KF_DIM + j)
        B = np.zeros((3, 3))
        B[i, j] = B[j, i] = band[rot]
        band[rot] = (P @ B @ P + np.outer(u, u))[i, j]
        band[0, a * KF_DIM + 3 : a * KF_DIM + 6] += 1.0
    np.maximum(band[0], _LM_DIAG_FLOOR, out=band[0])

    ii = np.arange(LM_DIM)
    Hll = ne.Hll.copy()
    Hll[:, ii, ii] += lam * ne.Hll[:, ii, ii] + _LM_DIAG_FLOOR
    Htt = ne.Htt + lam * np.diag(np.diag(ne.Htt))
    np.fill_diagonal(Htt, np.maximum(np.diag(Htt), _LM_DIAG_FLOOR))
    return _eliminate(ne, work, Hll, Htt)


def _eliminate(ne, work, Hll, Htt):
    """The update triple of the normal equations ne, work.band, Hll and
    Htt damped and gauged, eliminated in the layout of work (_Workspace).

    A band landmark's Schur complement, one 6x6 block H_pl,a Hll^-1
    H_pl,b^T per pair of its camera factors, is summed per keyframe pair
    and taken off work.band by one indexed subtraction; H_kl Hll^-1
    [H_l,theta g_l] comes off [H_k,theta g_k] and R = H_theta,l Hll^-1
    [H_l,theta g_l] off [Htt g_theta]; the landmark is back-substituted.
    Both band-landmark terms are summed in work's blocks of whole runs,
    the 6x6 blocks per run of keyframe pairs (work.pairs) and the H_kl
    Hll^-1 [H_l,theta g_l] blocks per run of keyframes (work.poses), each
    block's product no larger than work.C; a problem whose products fit in
    C takes one block of each.  The dense landmarks and the calibration
    are the dense block of _band_schur_solve, given as nonzeros: their Hll
    on the diagonal 3x3 blocks, H_l,theta^T below them, and Htt - R.  The
    right-hand side [H_k,dense H_k,theta g_k] is written over work.C."""
    K = ne.gk.size // KF_DIM
    lm, f, f_lm = work.lm, work.f, work.f_lm
    Hll_inv = np.linalg.inv(Hll[lm])
    Hlt, gl, Hpl, kf = ne.Hlt[lm], ne.gl[lm], ne.Hpl[f], ne.kf[f]
    Hlg = np.concatenate([Hlt, gl[..., None]], axis=-1)  # [H_l,theta g_l]
    R = _tmul(Hlt.reshape(-1, CALIB_DIM), (Hll_inv @ Hlg).reshape(-1, CALIB_DIM + 1))
    T = Hpl @ Hll_inv[f_lm]
    for a, b, first, at, lower in work.pairs:
        work.band[at] -= np.add.reduceat(T[a] @ Hpl[b].swapaxes(-1, -2), first, axis=0)[lower]
    # [0 H_k,theta g_k] over every entry of C, where the last trial's
    # forward solve left its Y, then the band landmarks' terms and H_kl
    C = work.C
    C[:, : -CALIB_DIM - 1] = 0.0
    C[:, -CALIB_DIM - 1 : -1] = ne.Hkt
    C[:, -1] = ne.gk
    Ck = C.reshape(K, KF_DIM, -1)[:, :POSE_DIM, -CALIB_DIM - 1 :]
    for p, first, k in work.poses:
        Ck[k] -= np.add.reduceat(T[p] @ Hlg[f_lm[p]], first, axis=0)
    fd, run, at = work.kl
    C[at] = np.add.reduceat(ne.Hpl[fd], run, axis=0)

    n_d = LM_DIM * work.dense.size
    dl = np.arange(n_d).reshape(-1, LM_DIM)
    Htl = ne.Hlt[work.dense].reshape(n_d, CALIB_DIM).T
    dense = [((dl[:, :, None], dl[:, None, :]), Hll[work.dense]), (np.s_[n_d:, :n_d], Htl), (np.s_[n_d:, n_d:], Htt - R[:, :-1])]
    x, d = _band_schur_solve(work, dense, np.concatenate([ne.gl[work.dense].reshape(-1), ne.gt - R[:, -1]]))
    x_pose = x.reshape(K, KF_DIM)[kf, :POSE_DIM]
    rhs = gl - Hlt @ d[n_d:] - _sum_by(f_lm, _tmul(Hpl, x_pose[..., None])[..., 0], len(Hll_inv))
    d_lm = np.empty((len(Hll), LM_DIM))
    d_lm[lm] = (Hll_inv @ rhs[..., None])[..., 0]
    d_lm[work.dense] = d[:n_d].reshape(-1, LM_DIM)
    return x.reshape(-1, KF_DIM), d_lm, d[n_d:]


def _huberize(cam):
    r_c, Jp, Jl, Jth, valid = cam
    nrm = np.linalg.norm(r_c, axis=1)
    k = HUBER_THRESHOLD
    scale = np.sqrt(np.where(nrm > k, k / np.maximum(nrm, 1e-300), 1.0))
    s3 = scale[:, None, None]
    return r_c * scale[:, None], Jp * s3, Jl * s3, Jth * s3, valid


def _predicted_decrease(ne, lam, delta):
    """The cost drop the linearised model predicts for the update triple
    delta = _damped_step(ne, lam, ...): as delta solves (H + lam D) delta
    = g, D = diag(H), g^T delta - delta^T H delta / 2 is (g^T delta +
    lam delta^T D delta) / 2.  The gauge adds nothing on delta (an anchor's
    rotation step is perpendicular to u, its position step zero), nor do
    the diagonal floors, which act only where H, and so delta, is zero."""
    d_kf, d_lm, d_th = (d.reshape(-1) for d in delta)
    g = ne.gk @ d_kf + ne.gl.reshape(-1) @ d_lm + ne.gt @ d_th
    D_lm = np.diagonal(ne.Hll, axis1=1, axis2=2).reshape(-1)
    damped = ne.band[0] @ d_kf**2 + D_lm @ d_lm**2 + np.diag(ne.Htt) @ d_th**2
    return 0.5 * float(g + lam * damped)


def _retract_problem(problem, delta):
    """Trial states from an update triple, as new arrays; None if a state
    is not finite or the calibration leaves its domain."""
    delta_kf, delta_lm, d_th = delta
    keyframes = problem.keyframes.retract(delta_kf)
    landmarks = problem.landmarks + delta_lm
    if not all(np.isfinite(a).all() for a in (*keyframes.arrays(), landmarks)):
        return None
    try:
        calibration = problem.calibration.retract(d_th)
    except ValueError:
        return None
    return keyframes, landmarks, calibration


def solve(problem, options: SolveOptions = None):
    """Levenberg-Marquardt minimization of the whitened squared residual.

    The problem's keyframes, landmarks, and calibration are replaced by
    the solution (new arrays; the old ones are left as they were), except
    for the gauge of anchor_projectors: each anchor keeps its position, and
    its rotation update has no component about the gravity axis.
    Accepted steps strictly decrease the cost.  Each evaluated state is
    linearised once: the blocks that give a trial's cost give, once it is
    accepted, the next step.  A rejected trial puts back the three
    estimate references and nothing else: the linearisation derives the
    rest, the preintegrations included, from the state it is given.

    Each damping lam gives one trial at the full step h, which solves
    (H + lam D) h = g, D = diag(H).  A trial fails when _damped_step raises
    LinAlgError, the retracted state is not finite, or the cost is not
    finite or does not drop; each failure sets lam <- nu lam and
    nu <- 2 nu, nu starting at 2 in each iteration (Nielsen's rule).  An
    accepted trial scales lam by max(1/3, 1 - (2 rho - 1)^3), rho the
    actual over the predicted decrease (g^T h + lam h^T D h) / 2 (Madsen,
    Nielsen & Tingleff, 2004, sec. 3.2).  Past _MAX_LAMBDA the solve ends.

    The band's half-bandwidth is picked once per solve (_band_span), and
    with it which landmarks are eliminated into the band and where the
    band is cut into chains; the report records the three.  The trials'
    large arrays live for the solve (_workspace), and each trial, a failed
    one included, overwrites them.  Of the rest, one iteration is alive at
    a time: once the normal equations of a linearisation are built, only
    they, its anchors and its count of behind-camera observations are
    kept, not its camera and pair blocks (nor their Huber copy); a
    rejected trial's blocks go before the next trial, and the normal
    equations before the next iteration builds its own.
    """
    options = options or SolveOptions()
    blocks = gauged_blocks(problem)
    cost = _cost(blocks, options.huber)
    if not np.isfinite(cost):
        raise ValueError("non-finite cost at the initial estimate")
    dropped = int((~blocks[0][4]).sum())
    history = [cost]
    lam = _LAMBDA_INIT
    n_iters = 0
    # at (numerical) zero cost any further step only reshuffles
    # floating-point noise
    converged = cost <= _COST_FLOOR
    reason = "cost below absolute floor" if converged else "max_iters"

    s = _band_span(problem)
    work = _workspace(problem, s)
    while not converged and n_iters < options.max_iters:
        n_iters += 1
        # the trials need only ne and the anchors of this linearisation
        cam, pairs, anchors = blocks
        blocks = None
        if options.huber:
            cam = _huberize(cam)
        ne = _normal_equations(problem, cam, pairs)
        cam = pairs = None

        nu = 2.0
        while lam <= _MAX_LAMBDA:
            try:
                delta = _damped_step(ne, lam, anchors, work)
            except np.linalg.LinAlgError:
                trial = None
            else:
                trial = _retract_problem(problem, delta)
            if trial is not None:
                saved = problem.keyframes, problem.landmarks, problem.calibration
                problem.keyframes, problem.landmarks, problem.calibration = trial
                blocks = gauged_blocks(problem)
                new_cost = _cost(blocks, options.huber)
                if np.isfinite(new_cost) and new_cost < cost:
                    break
                blocks = None
                problem.keyframes, problem.landmarks, problem.calibration = saved
            lam *= nu
            nu *= 2.0
        else:  # no damping up to _MAX_LAMBDA lowered the cost
            converged = True
            reason = "no cost-decreasing step within the damping limit"
            break

        pred = _predicted_decrease(ne, lam, delta)
        ne = None
        ratio = (cost - new_cost) / pred if pred > 0 else 1.0
        rel = (cost - new_cost) / max(cost, 1e-300)
        cost = new_cost
        dropped = int((~blocks[0][4]).sum())
        history.append(cost)
        # grows the damping when the quadratic model overpromises, shrinks
        # it when the prediction holds
        lam = max(lam * max(1.0 / 3.0, 1.0 - (2.0 * ratio - 1.0) ** 3), 1e-12)
        if rel < options.tol:
            converged = True
            reason = "relative cost decrease below tol"
        elif cost <= _COST_FLOOR:
            converged = True
            reason = "cost below absolute floor"

    return problem, SolveReport(
        iterations=n_iters,
        initial_cost=history[0],
        final_cost=cost,
        converged=converged,
        reason=reason,
        dropped_observations=dropped,
        cost_history=history,
        band_span=s,
        band_landmarks=len(problem.landmarks) - work.dense.size,
        chains=len(work.chains) - 1,
    )
