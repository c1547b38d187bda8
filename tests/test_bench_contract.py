"""The names and problem fields the benchmark takes from infocal still exist.

bench/run.py wraps each (module, attribute) of its TRACED table with a
tracer, which raises AttributeError for a missing name; bench/sim.py
imports infocal names and bench/workloads.py calls them as module
attributes, and every keyword argument either passes must be a parameter
of the callable it is passed to; bench/sim.py's Segment has every field
of infocal's, which the builder reads.  Those files are read with ast, not
imported: run.py pins BLAS environment variables when it is imported.  bench/workloads.py is
imported to run its problem_shape and cost_per_dof, which read the fields
of built problems, on problems from both builders, to run each workload's
timed path once, and to check that its two LM workloads fall on opposite
sides of the solver's elimination-order and forward-solve rules and of
its split of the keyframe band into chains.  The
solver's stop reason when no damping lowers the cost starts with the
prefix workloads.NO_STEP, the one solver string the benchmark parses.
"""

import ast
import dataclasses
import importlib
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

import infocal.problem
from infocal.problem import (
    CALIB_DIM,
    KF_DIM,
    SolveOptions,
    _band_span,
    _keyframe_band,
    _pair_span,
    _workspace,
    build_batch_problem,
    build_segment_problem,
    solve,
)

import support

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path[:0] = [str(BENCH)]

import sim  # noqa: E402
import workloads  # noqa: E402


def _tree(name):
    return ast.parse((BENCH / name).read_text())


def _infocal_modules(tree):
    """Local name -> module, for each `from infocal import <module> [as name]`."""
    return {
        a.asname or a.name: "infocal." + a.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module == "infocal"
        for a in node.names
    }


def test_traced_table_resolves():
    table = support.traced_table()
    assert table
    for module, attr in table:
        assert hasattr(importlib.import_module(module), attr), "%s.%s" % (module, attr)


def test_simulator_imports_resolve():
    imports = [n for n in ast.walk(_tree("sim.py")) if isinstance(n, ast.ImportFrom) and n.module.startswith("infocal.")]
    assert imports
    for node in imports:
        module = importlib.import_module(node.module)
        for a in node.names:
            assert hasattr(module, a.name), "%s.%s" % (node.module, a.name)


def test_workload_calls_resolve():
    tree = _tree("workloads.py")
    aliases = _infocal_modules(tree)
    assert aliases
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
            module = importlib.import_module(aliases[node.value.id])
            assert hasattr(module, node.attr), "%s.%s" % (module.__name__, node.attr)


def _infocal_names(tree):
    """Local name -> infocal object, for each `from infocal import <module>
    [as name]` and `from infocal.<module> import <name>`."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "infocal":
            for a in node.names:
                if node.module == "infocal":
                    names[a.asname or a.name] = importlib.import_module("infocal." + a.name)
                else:
                    names[a.asname or a.name] = getattr(importlib.import_module(node.module), a.name)
    return names


@pytest.mark.parametrize("name", ["workloads.py", "sim.py"])
def test_keyword_arguments_are_parameters(name):
    tree = _tree(name)
    names = _infocal_names(tree)
    checked = 0
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        head, *attrs = ast.unparse(node.func).split(".")
        if head not in names:
            continue
        target = names[head]
        for attr in attrs:
            target = getattr(target, attr)
        params = inspect.signature(target).parameters
        if any(p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()):
            continue
        for k in node.keywords:
            if k.arg is not None:
                assert k.arg in params, "%s: %s(%s=...)" % (name, ast.unparse(node.func), k.arg)
                checked += 1
    assert checked


def test_segment_fields_are_simulator_fields():
    # build_segment_problem reads the simulator's segments by the fields of
    # infocal's Segment
    fields = {f.name for f in dataclasses.fields(infocal.problem.Segment)}
    assert fields <= {f.name for f in dataclasses.fields(sim.Segment)}


def _batch(sc):
    return build_batch_problem(sc.keyframes, sc.landmarks, sc.observations, sc.imu_stream, sc.calibration, sc.noise)


def _segments(sc):
    # two segments with a gap between them: one bias bridge
    segs = support.scene_segments(sc, kf_per_segment=2, keep=[0, 2])
    return build_segment_problem(segs, sc.calibration, sc.noise)


@pytest.mark.parametrize("build, keyframes, bridges", [(_batch, 6, 0), (_segments, 4, 1)])
def test_problem_fields_the_benchmark_reads(build, keyframes, bridges):
    scene = support.make_scene(seed=1, n_keyframes=6, n_landmarks=20)
    prob = build(scene)
    seen = [o for o in scene.observations if o.keyframe_id in prob.keyframe_ids]
    landmarks = len({o.landmark_id for o in seen})
    assert workloads.problem_shape([prob, prob]) == {
        "keyframes": 2 * keyframes,
        "landmarks": 2 * landmarks,
        "observations": 2 * len(seen),
        "partitions": 2,
        "bridges": 2 * bridges,
        "distinct_interval_lengths": 1,
    }
    # one observation dropped; four gauge coordinates in the one partition
    rows = 2 * (len(seen) - 1) + 15 * (keyframes - 1 - bridges) + 6 * bridges
    free = 15 * keyframes + 3 * landmarks + 26 - 4
    assert workloads.cost_per_dof(prob, 3.0, 1) == pytest.approx(3.0 / (rows - free), rel=1e-15)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_timed_path_runs(name):
    # one unchecked repetition at seed 0, segment_scoring cut to three
    # segments: it reads SolveReport and problem fields as the benchmark does
    workload = workloads.WORKLOADS[name]()
    if name == "segment_scoring":
        workload.N_SEGMENTS = 3
    outcome = workload.run(workload.inputs(0), check=False)
    assert outcome.attempted >= 1
    assert outcome.failed == 0
    assert not outcome.details.get("checks_failed")


# the keyframe bounds of each LM workload's band chains at seed 0: the
# batch session is one chain, and the segment calibration is cut at the
# gaps between its four partitions of two adjacent segments, where only
# bias bridges cross
CHAINS = {"batch_session": [0, 100], "segment_calib": [0, 20, 40, 60, 80]}


@pytest.mark.parametrize("name, pair_span", [("batch_session", True), ("segment_calib", False)])
def test_lm_workloads_straddle_the_elimination_order(name, pair_span, monkeypatch):
    # one LM workload on each side of the band's size rule, so both ends
    # stay measured; and so of the forward-solve rule, and of the band's
    # split into chains.  At the pair span some landmarks fit the band and
    # the right-hand side is wider than it (the block sweep); at the widest
    # landmark span every landmark is in the band and the right-hand side is
    # 27 columns (dtbtrs), solved one chain at a time
    problem = workloads.WORKLOADS[name]().inputs(0)["build"]()
    s = _band_span(problem)
    work = _workspace(problem, s)
    dense = work.dense.size
    if pair_span:
        assert s == _pair_span(problem) < _keyframe_band(problem)
        assert 0 < dense < len(problem.landmarks)
    else:
        assert s == _keyframe_band(problem) and dense == 0
    assert work.chains.tolist() == CHAINS[name]
    chains = len(CHAINS[name]) - 1
    shapes, forward = [], infocal.problem._forward_solve

    def spy(cb, C):
        shapes.append((C.shape[1], cb.shape[0]))
        return forward(cb, C)

    monkeypatch.setattr(infocal.problem, "_forward_solve", spy)
    _, report = solve(problem, SolveOptions(max_iters=1))
    assert (report.band_span, report.band_landmarks, report.chains) == (s, len(problem.landmarks) - dense, chains)
    # one call per chain and trial
    assert shapes and len(shapes) % chains == 0
    assert all((width > height) == pair_span for width, height in shapes)
    assert pair_span or all(width == CALIB_DIM + 1 for width, _ in shapes)


@pytest.mark.parametrize("accepted", [1, 0])
def test_no_step_ending_is_the_one_the_benchmark_parses(accepted, monkeypatch):
    # every damped step after the first `accepted` iterations goes uphill,
    # so the budget ends on the solver's no-step reason; budget_problems
    # then counts one iteration without a step, and only a budget that
    # accepted nothing fails, for its cost
    prob = _batch(support.make_scene(seed=1, n_keyframes=6, n_landmarks=20))
    prob.keyframes = prob.keyframes.retract(np.random.default_rng(6).normal(scale=3e-3, size=(len(prob.keyframes), KF_DIM)))
    iterations = []  # each iteration's normal equations

    def alter(call, ne, step):
        if not iterations or iterations[-1] is not ne:
            iterations.append(ne)
        return step if len(iterations) <= accepted else support.uphill(step)

    support.spy_damped_steps(monkeypatch, alter)
    _, report = solve(prob, workloads.LM_BUDGET)
    assert report.reason.startswith(workloads.NO_STEP)
    assert report.iterations == accepted + 1 and len(report.cost_history) == accepted + 1
    failed = [] if accepted else ["budget: final cost not finite or not below initial"]
    assert workloads.budget_problems(report) == failed
