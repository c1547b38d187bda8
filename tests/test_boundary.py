"""Property test of the builder's input boundary.

One input of a valid three-segment build is corrupted through the public
record constructors: a keyframe state, time, attitude or id, an IMU
sample, dropped or repeated, an observation's pixel, sigma or ids, or a
landmark position.  The
build must then fail at the boundary, with a ValueError from the record's
own constructor or one from the builder that names a segment, or build a
problem whose cost is finite and whose calibration covariance is finite or
flagged rank_deficient.

Finite corrupt values are drawn within 1e6 of zero, far beyond the scale
of the scene's SI quantities; non-finite ones are drawn on their own.
Larger finite values meet the input magnitude bound,
geometry.MAX_MAGNITUDE: an input beyond it fails at the boundary, and one
at it builds a finite problem.
"""

import math
import re
from dataclasses import replace

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from infocal.geometry import MAX_MAGNITUDE, UnitQuaternion  # noqa: E402
from infocal.metrics import segment_marginal_covariance  # noqa: E402
from infocal.problem import build_segment_problem, problem_cost  # noqa: E402

import support  # noqa: E402

SCENE = support.make_scene(seed=1, n_keyframes=24, n_landmarks=30)
# six-keyframe segments 0 and 1 chained by a joint interval, 1 and 3 by a
# bias bridge; uncorrupted, their calibration covariance is full rank
KF_PER_SEGMENT = 6
KEEP = [0, 1, 3]

VALUES = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf]), st.floats(-1e6, 1e6))
# a keyframe time may also move to another keyframe's, out of order
TIMES = st.one_of(VALUES, st.sampled_from([k.t for k in SCENE.keyframes]))


def _set(vector, i, value):
    out = np.array(vector, dtype=float)
    out[i] = value
    return out


def _replace_item(items, i, make):
    items = list(items)
    items[i % len(items)] = make(items[i % len(items)])
    return items


KINDS = {
    "state": st.sampled_from(["p_GI", "v_GI", "b_a", "b_g"]),
    "time": st.none(),
    "attitude": st.lists(VALUES, min_size=4, max_size=4),
    "keyframe_id": st.integers(-2, len(SCENE.keyframes) + 2),
    "imu": st.sampled_from(["t", "omega_meas", "accel_meas"]),
    "drop_sample": st.none(),
    "repeat_sample": st.none(),
    "observation": st.sampled_from(["uv", "sigma"]),
    "observation_id": st.integers(-2, max(len(SCENE.keyframes), len(SCENE.landmarks)) + 2),
    "landmark": st.none(),
}


@st.composite
def corruptions(draw):
    """(segment position, kind, detail, index, component, value): what to
    corrupt, and how."""
    kind = draw(st.sampled_from(sorted(KINDS)))
    return (
        draw(st.integers(0, len(KEEP) - 1)),
        kind,
        draw(KINDS[kind]),
        draw(st.integers(0, 10**6)),
        draw(st.integers(0, 2)),
        draw(TIMES if kind == "time" else VALUES),
    )


def corrupt(seg, kind, detail, i, c, value):
    """Corrupt segment seg in place; record constructors validate."""
    if kind == "state":
        seg.keyframes = _replace_item(seg.keyframes, i, lambda k: replace(k, **{detail: _set(getattr(k, detail), c, value)}))
    elif kind == "time":
        seg.keyframes = _replace_item(seg.keyframes, i, lambda k: replace(k, t=value))
    elif kind == "attitude":
        seg.keyframes = _replace_item(seg.keyframes, i, lambda k: replace(k, q_GI=UnitQuaternion(*detail)))
    elif kind == "keyframe_id":
        seg.keyframe_ids = _replace_item(seg.keyframe_ids, i, lambda _: detail)
    elif kind == "imu":
        seg.imu_samples = _replace_item(
            seg.imu_samples, i, lambda s: replace(s, **{detail: value if detail == "t" else _set(getattr(s, detail), c, value)})
        )
    elif kind == "drop_sample":
        del seg.imu_samples[i % len(seg.imu_samples)]
    elif kind == "repeat_sample":
        j = i % len(seg.imu_samples)
        seg.imu_samples.insert(j, seg.imu_samples[j])
    elif kind == "observation":
        seg.observations = _replace_item(
            seg.observations, i, lambda o: replace(o, **{detail: value if detail == "sigma" else _set(o.uv, c % 2, value)})
        )
    elif kind == "observation_id":
        seg.observations = _replace_item(seg.observations, i, lambda o: replace(o, **{("keyframe_id", "landmark_id")[c % 2]: detail}))
    else:
        lid = sorted(seg.landmarks)[i % len(seg.landmarks)]
        seg.landmarks = {**seg.landmarks, lid: _set(seg.landmarks[lid], c, value)}


def check_boundary(pos, *how):
    """The property, for the corruption `how` of the segment at pos; True
    if the input failed at the boundary, False if it built a problem."""
    segs = support.scene_segments(SCENE, kf_per_segment=KF_PER_SEGMENT, keep=KEEP)
    try:
        corrupt(segs[pos], *how)
    except ValueError:
        return True  # the record's own constructor refused the value
    try:
        prob = build_segment_problem(segs, SCENE.calibration, SCENE.noise)
    except ValueError as e:
        named = re.match(r"segments? (\d+)", str(e))
        assert named and int(named.group(1)) in KEEP, str(e)
        return True
    assert math.isfinite(problem_cost(prob))
    cov = segment_marginal_covariance(prob)
    assert cov.rank_deficient or np.isfinite(cov.matrix).all()
    return False


def test_uncorrupted_scene_is_full_rank():
    # so the property below also sees full-rank covariances
    segs = support.scene_segments(SCENE, kf_per_segment=KF_PER_SEGMENT, keep=KEEP)
    assert not segment_marginal_covariance(build_segment_problem(segs, SCENE.calibration, SCENE.noise)).rank_deficient


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(corruptions())
# segment 0's last keyframe moved past the end of its IMU stream: the joint
# interval into segment 1 starts after the stream's last sample
@example((0, "time", None, KF_PER_SEGMENT - 1, 0, SCENE.keyframes[KF_PER_SEGMENT + 1].t))
def test_corrupt_input_fails_at_the_boundary_or_builds_a_finite_problem(case):
    check_boundary(*case)


# without the bound the first three build unusable problems: an
# accelerometer sample above about 6e10 m/s^2 makes a preintegration
# covariance that Cholesky rejects, and states or samples above about 1e150
# overflow the cost to inf
@pytest.mark.parametrize(
    "case",
    [
        (2, "imu", "accel_meas", 3, 1, 1e11),
        (1, "state", "v_GI", 0, 1, 1e160),
        (0, "imu", "omega_meas", 4, 2, 1e160),
        (2, "landmark", None, 3, 2, -np.nextafter(MAX_MAGNITUDE, math.inf)),
        (0, "observation", "uv", 5, 0, np.nextafter(MAX_MAGNITUDE, math.inf)),
    ],
)
def test_input_beyond_the_magnitude_bound_fails_at_the_boundary(case):
    assert check_boundary(*case)


@pytest.mark.parametrize(
    "case",
    [
        (1, "state", "v_GI", 0, 1, MAX_MAGNITUDE),
        (2, "landmark", None, 3, 2, -MAX_MAGNITUDE),
        (0, "imu", "omega_meas", 4, 2, MAX_MAGNITUDE),
        (2, "imu", "accel_meas", 3, 1, MAX_MAGNITUDE),
        (0, "observation", "uv", 5, 0, -MAX_MAGNITUDE),
    ],
)
def test_input_at_the_magnitude_bound_builds_a_finite_problem(case):
    assert not check_boundary(*case)
