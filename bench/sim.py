"""Seeded visual-inertial scene generator for the benchmark.

Uses only infocal's public API.  The true trajectory is fixed by smooth
angular-rate and position functions; IMU samples come from the forward
measurement models, and keyframe states are chained from the public deltas
of `preintegrate` on the noise-free samples, so a noise-free scene has zero
residual at the returned truth.  Noisy scenes then add white IMU noise,
a piecewise-constant bias random walk and pixel noise, all drawn from the
`NoiseModel` densities, to the measurements only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from infocal.camera import CameraExtrinsics, CameraIntrinsics, FeatureObservation, camera_factor_blocks
from infocal.geometry import Transform, UnitQuaternion, so3_exp
from infocal.imu import ImuIntrinsics, ImuSample, NoiseModel, preintegrate, simulate_accel, simulate_gyro
from infocal.problem import CalibrationState, KeyframeState, Landmark

IMU_RATE = 100.0
IMAGE_SIZE = (640.0, 480.0)
MAX_RANGE = 3.5  # metres; a tracking front end loses features farther away

# fixed perturbation scales of the LM start (calibration and states)
CALIB_PERTURBATION = {
    "f": 3.0,
    "c": 2.0,
    "w": 0.01,
    "R_CI": 5e-3,
    "p_CI": 0.01,
    "imu": 1e-3,
    "q_AI": 1e-3,
}
STATE_PERTURBATION = {"rot": 1e-3, "pos": 0.005, "vel": 0.005, "b_a": 1e-3, "b_g": 1e-4, "landmark": 0.01}


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
class Session:
    """One simulated recording; observations index keyframes by position."""

    keyframes: list  # true KeyframeState per keyframe
    kf_sample: np.ndarray  # index into imu of each keyframe's sample
    imu: list  # measured ImuSample stream
    landmarks: dict  # landmark id -> true position
    observations: list  # FeatureObservation, keyframe_id = session index
    calibration: CalibrationState  # truth
    noise: NoiseModel


@dataclass
class Segment:
    """Consecutive keyframes of a session, in the shape build_segment_problem reads."""

    id: int
    session_id: str
    keyframe_ids: list
    keyframes: list
    imu_samples: list
    observations: list
    landmark_ids: set
    landmarks: dict


def _rates(t, phase):
    # vigorous rotation and acceleration, as in a calibration motion: with
    # half these amplitudes the accelerometer bias, scale and attitude of a
    # 2-second partition form a shallow valley that LM crawls along for
    # 10-40 iterations depending on the noise draw
    return np.array(
        [
            4.0 * math.sin(2.1 * t + 0.4 + phase[0]),
            -3.4 * math.cos(1.7 * t + phase[1]),
            3.6 * math.sin(2.9 * t + 1.1 + phase[2]),
        ]
    )


_AMP = np.array([1.2, 1.0, 0.8])
_FREQ = np.array([2.3, 1.9, 2.7])


def _accel(t, phase):
    # second derivative of a bounded oscillation; a constant walking speed
    # along x rides on the initial velocity
    return -_AMP * _FREQ**2 * np.sin(_FREQ * t + phase)


def _velocity0(phase, speed):
    return _AMP * _FREQ * np.cos(phase) + np.array([speed, 0.0, 0.0])


def make_session(seed, n_keyframes, steps, corridor=False, n_landmarks=120, noisy=True, density=10.0, rotation_scale=1.0):
    """Simulate one session.

    steps: IMU sample steps per keyframe interval, an int or an inclusive
    (lo, hi) range drawn per interval.  corridor=False puts `n_landmarks`
    on a shell around a bounded trajectory; corridor=True walks along +x at
    1.5 m/s with `density` landmarks per metre on the corridor walls, floor
    and ceiling.  Landmarks seen from fewer than two keyframes are dropped.
    rotation_scale multiplies the angular rates of the motion profile.
    """
    rng = np.random.default_rng(seed)
    calib = true_calibration()
    noise = NoiseModel()
    g = noise.gravity_vector()
    dt = 1.0 / IMU_RATE

    if isinstance(steps, int):
        gaps = np.full(n_keyframes - 1, steps)
    else:
        gaps = rng.integers(steps[0], steps[1] + 1, size=n_keyframes - 1)
    kf_sample = np.concatenate([[0], np.cumsum(gaps)]).astype(int)
    n_samples = int(kf_sample[-1]) + 1
    ts = np.arange(n_samples) * dt

    # the motion profile is fixed so that seeds vary noise, landmark layout
    # and keyframe spacing, not how well the session excites the calibration
    phase = np.array([0.3, 1.2, 2.0])
    speed = 1.5 if corridor else 0.0
    omegas = rotation_scale * np.stack([_rates(t, phase) for t in ts])
    accels = np.stack([_accel(t, phase) for t in ts])
    q0 = UnitQuaternion.from_rotation_vector(np.array([0.05, -0.03, 0.08]))
    R = np.empty((n_samples, 3, 3))
    R[0] = q0.matrix()
    for i in range(n_samples - 1):
        R[i + 1] = R[i] @ so3_exp(0.5 * (omegas[i] + omegas[i + 1]) * dt)

    # piecewise-constant biases: interval k (and its start sample) uses b[k]
    b_g = np.empty((n_keyframes, 3))
    b_a = np.empty((n_keyframes, 3))
    b_g[0] = rng.uniform(-3e-3, 3e-3, size=3)
    b_a[0] = rng.uniform(-0.03, 0.03, size=3)
    for k in range(n_keyframes - 1):
        T = gaps[k] * dt
        walk = math.sqrt(T) if noisy else 0.0
        b_g[k + 1] = b_g[k] + rng.normal(scale=noise.sigma_bg * walk, size=3)
        b_a[k + 1] = b_a[k] + rng.normal(scale=noise.sigma_ba * walk, size=3)
    kf_of_sample = np.searchsorted(kf_sample, np.arange(n_samples), side="right") - 1

    clean = []
    for i, t in enumerate(ts):
        k = kf_of_sample[i]
        w = simulate_gyro(omegas[i], calib.imu, b_g[k], np.zeros(3))
        a = simulate_accel(accels[i], R[i].T, calib.imu, b_a[k], np.zeros(3), gravity=g)
        clean.append(ImuSample(t, w, a))

    x = KeyframeState(q0, np.zeros(3), _velocity0(phase, speed), b_a[0], b_g[0], 0.0)
    keyframes = [x]
    for k in range(n_keyframes - 1):
        lo, hi = kf_sample[k], kf_sample[k + 1]
        pre = preintegrate(clean[lo : hi + 1], calib.imu, (b_g[k], b_a[k]), noise)
        R_k = x.q_GI.matrix()
        T = pre.duration
        x = KeyframeState(
            q_GI=UnitQuaternion.from_matrix(R_k @ pre.delta_rotation_matrix),
            p_GI=x.p_GI + x.v_GI * T + R_k @ (pre.delta_position - 0.5 * g * T * T) + 0.5 * g * T * T,
            v_GI=x.v_GI + R_k @ (pre.delta_velocity - g * T) + g * T,
            b_a=b_a[k + 1],
            b_g=b_g[k + 1],
            t=float(ts[hi]),
        )
        keyframes.append(x)

    if noisy:
        sg = noise.sigma_g / math.sqrt(dt)
        sa = noise.sigma_a / math.sqrt(dt)
        imu = [
            ImuSample(s.t, s.omega_meas + rng.normal(scale=sg, size=3), s.accel_meas + rng.normal(scale=sa, size=3))
            for s in clean
        ]
    else:
        imu = clean

    positions = np.stack([k.p_GI for k in keyframes])
    if corridor:
        l_all = _corridor_landmarks(rng, positions, density)
    else:
        l_all = _shell_landmarks(rng, positions, n_landmarks)
    observations = _observe(rng, keyframes, l_all, calib, noise, noisy)
    seen = {}
    for o in observations:
        seen.setdefault(o.landmark_id, set()).add(o.keyframe_id)
    kept = {m for m, kfs in seen.items() if len(kfs) >= 2}
    observations = [o for o in observations if o.landmark_id in kept]
    landmarks = {m: l_all[m].copy() for m in sorted(kept)}
    return Session(keyframes, kf_sample, imu, landmarks, observations, calib, noise)


def _shell_landmarks(rng, positions, n):
    centre = positions.mean(axis=0)
    d = rng.normal(size=(n, 3))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    return centre + d * rng.uniform(2.5, 3.5, size=(n, 1))


def _corridor_landmarks(rng, positions, density):
    # walls, floor and ceiling 2.2 m / 1.8 m from the path's centre line,
    # clear of its lateral and vertical swing
    x0, x1 = positions[:, 0].min() - 2.0, positions[:, 0].max() + 2.0
    yc, zc = positions[:, 1].mean(), positions[:, 2].mean()
    n = int(density * (x1 - x0))
    x = rng.uniform(x0, x1, size=n)
    side = rng.integers(0, 4, size=n)
    y = rng.uniform(-2.2, 2.2, size=n)
    z = rng.uniform(-1.8, 1.8, size=n)
    y = np.where(side == 0, -2.2, np.where(side == 1, 2.2, y))
    z = np.where(side == 2, -1.8, np.where(side == 3, 1.8, z))
    return np.column_stack([x, y + yc, z + zc])


def _observe(rng, keyframes, l_all, calib, noise, noisy):
    T_CI = calib.extrinsics.T_CI
    R_CI, p_CI = T_CI.rotation.matrix(), T_CI.translation
    out = []
    for k, kf in enumerate(keyframes):
        near = np.flatnonzero(np.linalg.norm(l_all - kf.p_GI, axis=1) <= MAX_RANGE)
        if not near.size:
            continue
        n = near.size
        uv, valid, _, _, _, _ = camera_factor_blocks(
            np.repeat(kf.q_GI.wxyz[None], n, axis=0), np.repeat(kf.p_GI[None], n, axis=0), R_CI, p_CI, l_all[near], calib.camera
        )
        inside = valid & (uv[:, 0] >= 0.0) & (uv[:, 0] < IMAGE_SIZE[0]) & (uv[:, 1] >= 0.0) & (uv[:, 1] < IMAGE_SIZE[1])
        for j in np.flatnonzero(inside):
            pix = uv[j] + (rng.normal(scale=noise.sigma_c, size=2) if noisy else 0.0)
            out.append(FeatureObservation(k, int(near[j]), pix, noise.sigma_c))
    return out


def cut_segments(session, kf_per_segment, session_id="s0"):
    """Consecutive segments of kf_per_segment keyframes.

    Each segment's IMU span runs to the next segment's first keyframe so
    adjacent retained segments chain without a bridge.  Landmarks seen from
    only one keyframe of a segment are dropped from it.
    """
    K = len(session.keyframes)
    segments = []
    for s in range(K // kf_per_segment):
        k0 = s * kf_per_segment
        k1 = k0 + kf_per_segment - 1
        lo = session.kf_sample[k0]
        hi = session.kf_sample[min(k1 + 1, K - 1)]
        obs = [o for o in session.observations if k0 <= o.keyframe_id <= k1]
        seen = {}
        for o in obs:
            seen.setdefault(o.landmark_id, set()).add(o.keyframe_id)
        kept = {m for m, kfs in seen.items() if len(kfs) >= 2}
        obs = [o for o in obs if o.landmark_id in kept]
        segments.append(
            Segment(
                id=s,
                session_id=session_id,
                keyframe_ids=list(range(k0, k1 + 1)),
                keyframes=session.keyframes[k0 : k1 + 1],
                imu_samples=session.imu[lo : hi + 1],
                observations=obs,
                landmark_ids=kept,
                landmarks={m: session.landmarks[m] for m in kept},
            )
        )
    return segments


def perturb_calibration(calib, rng):
    """Calibration offset by the fixed CALIB_PERTURBATION scales, random signs."""
    p = CALIB_PERTURBATION

    def draw(scale, n):
        return scale * rng.choice([-1.0, 1.0], size=n) * rng.uniform(0.5, 1.0, size=n)

    delta = np.concatenate(
        [
            draw(p["f"], 2),
            draw(p["c"], 2),
            draw(p["w"], 1),
            draw(p["R_CI"], 3),
            draw(p["p_CI"], 3),
            draw(p["imu"], 12),
            draw(p["q_AI"], 3),
        ]
    )
    return calib.retract(delta)


def perturb_keyframes(keyframes, rng):
    s = STATE_PERTURBATION
    scale = np.repeat([s["rot"], s["pos"], s["vel"], s["b_a"], s["b_g"]], 3)
    return [k.retract(rng.normal(size=15) * scale) for k in keyframes]


def perturb_landmarks(landmarks, rng):
    """{id: position} -> {id: perturbed position}."""
    s = STATE_PERTURBATION["landmark"]
    return {m: l + rng.normal(scale=s, size=3) for m, l in landmarks.items()}


def landmark_list(landmarks):
    return [Landmark(l, m) for m, l in landmarks.items()]
