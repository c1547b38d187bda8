"""Benchmark of infocal: one workload, one seed, one run.

    python3 bench/run.py --workload batch_session --seed 0 --seconds 35 --trace 0

Run from the repository root.  The last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"}: with --trace 0
the end-to-end metrics, with --trace 1 the per-layer metrics of one
traced repetition after the untraced ones, with the tracing overhead
estimated from the cost of one traced call.  The line before it holds
the details: provenance, each repetition's solve report or scoring
counts, and the per-workload metrics of bench/DESIGN.md where they apply.
Traced runs also write their spans to bench/traces/.  See bench/DESIGN.md
for why the workloads and metrics are what they are.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# One BLAS thread (at most nproc): on a 2-core machine one OpenBLAS thread
# was measured solving K=40 faster than two (3.8 s against 5.2 s), and one
# thread keeps timings steadier on a shared host.  Set before numpy loads.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def _import_program():
    src = ROOT / "src"
    if not (src / "infocal").is_dir():
        sys.exit("bench/run.py: no infocal sources under %s; run from a repository checkout" % src)
    sys.path.insert(0, str(src))


_import_program()

import gc  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import types  # noqa: E402
import platform  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import scipy.linalg  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402
from infocal import camera, geometry, imu, metrics, problem  # noqa: E402


def provenance():
    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                env={**os.environ, "GIT_DIR": str(ROOT / ".git")},
                capture_output=True,
                text=True,
                timeout=10,
            )
            sha = out.stdout.strip() or sha
        except (OSError, subprocess.TimeoutExpired):
            pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": src_lines,
    }


def measure(workload, inp, seconds):
    """Repetitions on `inp` until the next one would overrun `seconds`; at
    least one.  The first repetition also runs the correctness checks,
    whose time does not count towards the length of a repetition."""
    start = time.perf_counter()
    outcomes, longest = [], 0.0
    while True:
        gc.collect()  # every repetition starts without the last one's garbage
        outcome = workload.run(inp, check=not outcomes)
        outcomes.append(outcome)
        longest = max(longest, outcome.setup_s + outcome.compute_s)
        if time.perf_counter() - start + longest > seconds:
            return outcomes


def _cho_gflop(args, kwargs):
    n = np.shape(args[0])[0]
    return n**3 / 3.0 / 1e9


TRACED = (
    (imu, "preintegrate", "imu.preintegrate", None),
    (imu, "preintegrate_intervals", "imu.preintegrate_intervals", lambda a, k: np.shape(a[0])[0]),
    (imu, "inertial_error_jacobians", "imu.inertial_error_jacobians", None),
    (imu, "inertial_weight", "imu.inertial_weight", None),
    (camera, "camera_factor_blocks", "camera.camera_factor_blocks", lambda a, k: 2 * np.shape(a[0])[0]),
    (geometry, "matrix_to_quat", "geometry.matrix_to_quat", None),
    (imu, "matrix_to_quat", "geometry.matrix_to_quat", None),
    (scipy.linalg, "cho_factor", "linalg.cho_factor", _cho_gflop),
    (scipy.linalg, "qr", "linalg.qr", None),
    (problem, "refresh_preintegrations", "problem.refresh_preintegrations", None),
    (metrics, "refresh_preintegrations", "problem.refresh_preintegrations", None),
    (problem, "solve", "problem.solve", None),
    (problem, "build_batch_problem", "problem.build", None),
    (problem, "build_segment_problem", "problem.build", None),
    (metrics, "segment_marginal_covariance", "metrics.segment_marginal_covariance", None),
    (metrics, "reference_sigmas", "metrics.reference_sigmas", None),
    (metrics, "normalize_covariance", "metrics.normalize_covariance", None),
    (metrics, "score", "metrics.score", None),
)


def traced_run(workload, inp):
    with spans.Tracer() as tracer:
        for module, attr, name, size in TRACED:
            tracer.wrap(module, attr, name, size)
        outcome = workload.run(inp, check=False)
    return outcome, tracer.spans


def traced_call_cost_s(calls=10000, batches=5):
    """Wall time that tracing adds to one call: a traced no-op against the
    bare one, fastest of several batches each."""
    target = types.SimpleNamespace(noop=lambda: None)

    def batch():
        t0 = time.perf_counter()
        for _ in range(calls):
            target.noop()
        return time.perf_counter() - t0

    bare = min(batch() for _ in range(batches))
    with spans.Tracer() as tracer:
        tracer.wrap(target, "noop", "noop")
        traced = min(batch() for _ in range(batches))
    return (traced - bare) / calls


def layer_metrics(span_list, outcome, call_cost_s):
    """The per-layer metrics of one traced repetition.

    The tracing overhead is the number of spans recorded times the cost
    of one traced call: over the solve, and for the median scored segment
    (its covariance subtree plus one normalize_covariance and one score).
    """
    summary = spans.summarize(span_list)
    per_segment = spans.subtree_sizes(span_list, "metrics.segment_marginal_covariance")
    solve_overhead_s = sum(spans.subtree_sizes(span_list, "problem.solve")) * call_cost_s
    score_overhead_ms = 1e3 * (statistics.median(per_segment) + 2) * call_cost_s if per_segment else 0.0

    def get(name, key):
        return summary.get(name, {}).get(key, 0.0)

    solves = [i for i, s in enumerate(span_list) if s.name == "problem.solve"]
    solve_s = sum(span_list[i].end - span_list[i].start for i in solves)
    refresh_in_solve = sum(
        1 for i, s in enumerate(span_list) if s.name == "problem.refresh_preintegrations" and spans.within(span_list, i, "problem.solve")
    )
    pre_in_solve = sum(
        s.end - s.start for i, s in enumerate(span_list) if s.name == "imu.preintegrate" and spans.within(span_list, i, "problem.solve")
    )
    cho_in_solve = sum(
        s.end - s.start for i, s in enumerate(span_list) if s.name == "linalg.cho_factor" and spans.within(span_list, i, "problem.solve")
    )
    iterations = outcome.details.get("iterations", 0)
    accepted = outcome.details.get("accepted_steps", 0)
    trials = max(refresh_in_solve - len(solves), 0)  # one refresh per solve precedes the first trial
    shape = outcome.shape
    out = {
        "imu.preintegrate.calls": (get("imu.preintegrate", "calls"), "count"),
        "imu.preintegrate.s": (get("imu.preintegrate", "s"), "s"),
        "imu.preintegrate.solve_share": (pre_in_solve / solve_s if solve_s else 0.0, "ratio"),
        "imu.preintegrate_intervals.calls": (get("imu.preintegrate_intervals", "calls"), "count"),
        "imu.preintegrate_intervals.s": (get("imu.preintegrate_intervals", "s"), "s"),
        "imu.preintegrate_intervals.intervals": (get("imu.preintegrate_intervals", "size"), "count"),
        "imu.inertial_error_jacobians.calls": (get("imu.inertial_error_jacobians", "calls"), "count"),
        "imu.inertial_error_jacobians.s": (get("imu.inertial_error_jacobians", "s"), "s"),
        "imu.inertial_weight.calls": (get("imu.inertial_weight", "calls"), "count"),
        "imu.inertial_weight.s": (get("imu.inertial_weight", "s"), "s"),
        "imu.distinct_interval_lengths": (shape["distinct_interval_lengths"], "count"),
        "camera.camera_factor_blocks.calls": (get("camera.camera_factor_blocks", "calls"), "count"),
        "camera.camera_factor_blocks.s": (get("camera.camera_factor_blocks", "s"), "s"),
        "camera.camera_factor_blocks.rows": (get("camera.camera_factor_blocks", "size"), "count"),
        "geometry.matrix_to_quat.calls": (get("geometry.matrix_to_quat", "calls"), "count"),
        "geometry.matrix_to_quat.s": (get("geometry.matrix_to_quat", "s"), "s"),
        "linalg.cho_factor.calls": (get("linalg.cho_factor", "calls"), "count"),
        "linalg.cho_factor.s": (get("linalg.cho_factor", "s"), "s"),
        "linalg.cho_factor.gflop": (get("linalg.cho_factor", "size"), "gflop-computed"),
        "linalg.cho_factor.solve_share": (cho_in_solve / solve_s if solve_s else 0.0, "ratio"),
        "linalg.qr.calls": (get("linalg.qr", "calls"), "count"),
        "linalg.qr.s": (get("linalg.qr", "s"), "s"),
        "problem.refresh_preintegrations.calls": (get("problem.refresh_preintegrations", "calls"), "count"),
        "problem.refresh_preintegrations.s": (get("problem.refresh_preintegrations", "s"), "s"),
        "problem.solve.s": (solve_s, "s"),
        "problem.solve.iterations": (iterations, "count"),
        "problem.solve.trials": (trials, "count"),
        "problem.solve.accept_ratio": (accepted / trials if trials else 0.0, "ratio"),
        "problem.solve.ms_per_iter": (1e3 * solve_s / iterations if iterations else 0.0, "ms"),
        "problem.solve.self_s": (get("problem.solve", "self_s"), "s"),
        "problem.build.s": (get("problem.build", "s"), "s"),
        "problem.build.self_s": (get("problem.build", "self_s"), "s"),
        "problem.keyframes": (shape["keyframes"], "count"),
        "problem.landmarks": (shape["landmarks"], "count"),
        "problem.observations": (shape["observations"], "count"),
        "problem.partitions": (shape["partitions"], "count"),
        "problem.bridges": (shape["bridges"], "count"),
        "metrics.segment_marginal_covariance.calls": (get("metrics.segment_marginal_covariance", "calls"), "count"),
        "metrics.segment_marginal_covariance.s": (get("metrics.segment_marginal_covariance", "s"), "s"),
        "metrics.segment_marginal_covariance.self_s": (get("metrics.segment_marginal_covariance", "self_s"), "s"),
        "metrics.score.s": (get("metrics.score", "s"), "s"),
        "metrics.rank_deficient": (outcome.details.get("rank_deficient", 0), "count"),
        "trace.overhead.solve_s": (solve_overhead_s, "s"),
        "trace.overhead.score_ms_p50": (score_overhead_ms, "ms"),
    }
    return {k: {"value": float(v), "unit": u} for k, (v, u) in out.items()}


def fastest(outcomes, items):
    """Sum over the units of work of each unit's fastest time in the run."""
    return sum(min(times) for times in zip(*(getattr(o, items) for o in outcomes)))


def end_to_end(outcomes):
    return {
        "setup_s": {"value": fastest(outcomes, "setup_items"), "unit": "s"},
        "compute_s": {"value": fastest(outcomes, "compute_items"), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
    }


def detail_metrics(name, outcomes):
    """The per-workload metrics of the details line, each where it applies."""
    out = {"setup_s": fastest(outcomes, "setup_items")}
    if name == "segment_scoring":
        items = [1e3 * t for o in outcomes for t in o.compute_items[:-1]]  # the last is reference_sigmas
        q = statistics.quantiles(items, n=10)
        out.update(score_ms_p50=statistics.median(items), score_ms_p90=q[-1], score_samples=len(items))
    else:
        out["solve_budget_s"] = fastest(outcomes, "compute_items")
        for key in ("err_f_px", "err_R_CI_deg", "err_p_CI_mm", "err_imu_ppm"):
            out[key] = outcomes[0].details[key]
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be non-negative and --seconds positive")

    workload = workloads.WORKLOADS[args.workload]()
    inp = workload.inputs(args.seed)
    workload.warm_up(inp)
    outcomes = measure(workload, inp, args.seconds)
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "provenance": provenance(),
        "repetitions": len(outcomes),
        "metrics": detail_metrics(args.workload, outcomes),
        "runs": [dict(o.details, setup_s=o.setup_s, compute_s=o.compute_s) for o in outcomes],
    }
    if args.trace:
        gc.collect()
        outcome, span_list = traced_run(workload, inp)
        attempted += outcome.attempted
        failed += outcome.failed
        call_cost_s = traced_call_cost_s()
        metrics_out = layer_metrics(span_list, outcome, call_cost_s)
        details["traced_run"] = dict(outcome.details, setup_s=outcome.setup_s, compute_s=outcome.compute_s)
        details["traced_call_cost_s"] = call_cost_s
        out_dir = BENCH_DIR / "traces"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / ("%s-seed%d.json" % (args.workload, args.seed))
        path.write_text(json.dumps({"details": details, "spans": [list(s) for s in span_list]}))
        details["trace_file"] = str(path.relative_to(ROOT))
    else:
        metrics_out = end_to_end(outcomes)
    print(json.dumps(details))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics_out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
