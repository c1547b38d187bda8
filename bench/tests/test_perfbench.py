"""Self-tests of the benchmark: generator, span arithmetic, metric names.

    python3 -m pytest bench/tests -q
"""

import json
import re
import types

import numpy as np
import pytest

import run
import sim
import spans
from infocal import problem as P

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _flatten(session):
    kf = np.concatenate([np.r_[k.q_GI.wxyz, k.p_GI, k.v_GI, k.b_a, k.b_g, k.t] for k in session.keyframes])
    imu = np.concatenate([np.r_[s.t, s.omega_meas, s.accel_meas] for s in session.imu])
    obs = np.concatenate([np.r_[o.keyframe_id, o.landmark_id, o.uv] for o in session.observations])
    lms = np.concatenate([np.r_[m, l] for m, l in session.landmarks.items()])
    return kf, imu, obs, lms


class TestGenerator:
    def test_same_seed_same_scene(self):
        a = sim.make_session([3, 0, 0], n_keyframes=12, steps=(7, 13), corridor=True)
        b = sim.make_session([3, 0, 0], n_keyframes=12, steps=(7, 13), corridor=True)
        for x, y in zip(_flatten(a), _flatten(b)):
            assert np.array_equal(x, y)

    def test_other_seed_other_scene(self):
        a = sim.make_session([3, 0, 0], n_keyframes=12, steps=10)
        b = sim.make_session([4, 0, 0], n_keyframes=12, steps=10)
        assert not np.array_equal(_flatten(a)[1], _flatten(b)[1])

    def test_noise_free_batch_scene_has_zero_cost(self):
        s = sim.make_session([5, 0, 0], n_keyframes=20, steps=10, n_landmarks=80, noisy=False)
        prob = P.build_batch_problem(s.keyframes, sim.landmark_list(s.landmarks), s.observations, s.imu, s.calibration, s.noise)
        assert len(prob.camera_factors) > 50
        assert P.problem_cost(prob) < 1e-12

    def test_noise_free_segment_scene_has_zero_cost(self):
        # unequal interval lengths, a temporally adjacent pair and a bridge
        s = sim.make_session([6, 0, 0], n_keyframes=50, steps=(7, 13), corridor=True, noisy=False)
        segs = sim.cut_segments(s, 10)
        prob = P.build_segment_problem([segs[0], segs[1], segs[4]], s.calibration, s.noise)
        assert len(prob.bridge_factors) == 1
        assert len({f.times.shape[0] for f in prob.inertial_factors}) > 1
        assert P.problem_cost(prob) < 1e-12

    def test_every_segment_landmark_seen_twice(self):
        s = sim.make_session([7, 0, 0], n_keyframes=30, steps=10, corridor=True)
        for seg in sim.cut_segments(s, 10):
            for m in seg.landmark_ids:
                assert len({o.keyframe_id for o in seg.observations if o.landmark_id == m}) >= 2


class TestSpans:
    def test_self_time_subtracts_covered_union(self):
        S = spans.Span
        s = [
            S("root", 0.0, 10.0, -1, 0.0),
            S("a", 1.0, 3.0, 0, 0.0),
            S("b", 2.0, 4.0, 0, 0.0),  # overlaps a: union 1..4
            S("c", 9.0, 12.0, 0, 0.0),  # clipped to the parent's end
            S("d", 1.5, 2.5, 1, 0.0),  # grandchild: only a's self time shrinks
        ]
        own = spans.self_times(s)
        assert own == pytest.approx([10.0 - 3.0 - 1.0, 2.0 - 1.0, 2.0, 3.0, 1.0])

    def test_summary_adds_calls_time_and_size(self):
        S = spans.Span
        s = [S("x", 0.0, 2.0, -1, 3.0), S("y", 0.5, 1.0, 0, 0.0), S("x", 3.0, 4.0, -1, 4.0)]
        out = spans.summarize(s)
        assert out["x"] == pytest.approx({"calls": 2, "s": 3.0, "self_s": 2.5, "size": 7.0})
        assert spans.within(s, 1, "x") and not spans.within(s, 2, "x")

    def test_subtree_sizes_count_each_top_level_span_and_its_descendants(self):
        S = spans.Span
        s = [S("x", 0, 4, -1, 0), S("y", 1, 2, 0, 0), S("z", 1, 1.5, 1, 0), S("w", 5, 6, -1, 0), S("x", 7, 8, -1, 0)]
        assert spans.subtree_sizes(s, "x") == [3, 1]
        assert spans.subtree_sizes(s, "y") == []

    def test_tracer_records_nesting_and_restores(self):
        mod = types.SimpleNamespace()
        mod.inner = lambda v: v + 1
        mod.outer = lambda v: mod.inner(v) * 2
        inner, outer = mod.inner, mod.outer
        with spans.Tracer() as tr:
            tr.wrap(mod, "inner", "m.inner", size=lambda a, k: a[0])
            tr.wrap(mod, "outer", "m.outer")
            assert mod.outer(4) == 10
        assert mod.inner is inner and mod.outer is outer
        names = [(sp.name, sp.parent, sp.size) for sp in tr.spans]
        assert names == [("m.outer", -1, 0.0), ("m.inner", 0, 4.0)]
        assert tr.spans[0].start <= tr.spans[1].start <= tr.spans[1].end <= tr.spans[0].end


class TestBudgetChecks:
    @staticmethod
    def report(iterations, accepted, reason, converged):
        costs = [100.0 - k for k in range(accepted + 1)]
        return P.SolveReport(iterations, costs[0], costs[-1], converged, reason, cost_history=costs)

    def test_full_budget_passes(self):
        n = run.workloads.LM_BUDGET.max_iters
        assert run.workloads.budget_problems(self.report(n, n, "max_iters", False)) == []

    def test_converged_with_a_final_stalled_iteration_passes(self):
        reason = "no cost-decreasing step within the damping limit"
        assert run.workloads.budget_problems(self.report(4, 3, reason, True)) == []

    def test_early_stop_without_convergence_fails(self):
        assert run.workloads.budget_problems(self.report(1, 1, "max_iters", False))

    def test_rejected_iteration_fails(self):
        n = run.workloads.LM_BUDGET.max_iters
        assert run.workloads.budget_problems(self.report(n, n - 1, "max_iters", False))


def test_fastest_sums_each_items_best_time():
    Outcome = run.workloads.Outcome
    reps = [Outcome([1.0, 5.0], [2.0], 1, 0, {}), Outcome([3.0, 4.0], [1.5], 1, 0, {})]
    assert run.fastest(reps, "setup_items") == pytest.approx(5.0)
    assert run.fastest(reps, "compute_items") == pytest.approx(1.5)


class TestNames:
    @pytest.fixture(scope="class")
    def spec(self):
        return json.loads((run.ROOT / "BENCHMARK.json").read_text())

    def test_names_are_well_formed(self, spec):
        names = [w["name"] for w in spec["workloads"]] + [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        assert len(names) == len(set(names))
        assert all(NAME.match(n) for n in names)

    def test_spec_matches_what_the_run_prints(self, spec):
        assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.workloads.WORKLOADS)
        shape = dict.fromkeys(("keyframes", "landmarks", "observations", "partitions", "bridges", "distinct_interval_lengths"), 1)
        outcome = run.workloads.Outcome([1.0], [2.0], 1, 0, shape, {})
        e2e = run.end_to_end([outcome])
        layers = run.layer_metrics([], outcome, 0.0)
        for printed, listed in ((e2e, spec["end_to_end"]), (layers, spec["per_layer"])):
            assert {m["name"]: m["unit"] for m in listed} == {k: v["unit"] for k, v in printed.items()}
