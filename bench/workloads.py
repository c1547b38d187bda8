"""The benchmark's workloads: inputs from a seed, one measured repetition, checks.

Every call into infocal goes through a module attribute (`P.solve`,
`M.score`, ...) so that the tracer in spans.py sees it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

import sim
from infocal import metrics as M
from infocal import problem as P

# The timed solve is a fixed budget of LM iterations from a fixed start
# (library defaults otherwise).  On seeds 0-19 and 100-119 of both LM
# workloads every one of its five iterations took exactly one cost
# evaluation, so each repetition does the same work, except on batch seed
# 114, which converged after three steps and spent its fourth iteration
# raising the damping.  Solving to a tolerance instead took 6 to 56 cost
# evaluations at identical problem size, depending on the noise draw, so
# its time measured the seed more than the code (see DESIGN.md).
LM_BUDGET = P.SolveOptions(max_iters=5)
# The untimed check solve continues from the budget to this tolerance (the
# function tolerance Ceres uses by default).  Some seeds crawl along a
# shallow valley to it: segment_calib seed 302 took 64 iterations, so the
# library's default of 50 is raised.
LM_TO_TOL = P.SolveOptions(tol=1e-6, max_iters=200)
# The checked repetition builds this many times and keeps the fastest, so
# that setup_s has several samples even in a run whose check leaves room
# for one repetition (segment_calib seed 302 spends about 30 s in it).
CHECKED_BUILDS = 5

# The LM start is the same offset for every seed (seeds vary the noise,
# landmarks, biases and keyframe spacing).
PERTURBATION_SEED = 20190121

# Fixed acceptance limits of an LM solution.  The final cost per degree of
# freedom of a consistent estimator is about 1/2; development runs gave
# 0.47-0.57.  Calibration error is set by the noise draw, so its limits are
# two to six times the largest error seen in development runs (batch:
# 0.34 px, 0.11 deg, 2.8 mm, 1200 ppm; segments: 1.0 px, 0.19 deg, 5.5 mm,
# 8700 ppm), not a tolerance that a correct solve sits close to.
COST_PER_DOF = (0.4, 0.65)
# The timed budget must itself do the work it is timed for, not leave it to
# the untimed continuation: it ends at LM_BUDGET.max_iters or by converging,
# every iteration accepts a step (except a final one that finds none), and
# its cost lies within BUDGET_GAP of the converged cost, relative.  Seeds
# 0-19 and 100-119 gave gaps of at most 0.122 (batch) and 0.023 (segments).
# A solve that needs more steps fails against STEPS_TO_NEAR: accepted steps
# from the LM start, budget included, until the cost is within NEAR of the
# converged cost.  Unlike the iterations to LM_TO_TOL (14 to 64 by seed on
# segment_calib), this leaves out the crawl at the end.  Seeds 0-9 and
# 300-309 took 5-16 (batch) and 10-20 (segments) steps.  Each limit is two
# to three times the worst seen.
BUDGET_GAP = 0.3
NEAR = 1e-3
STEPS_TO_NEAR = {"batch_session": 40, "segment_calib": 50}
NO_STEP = "no cost-decreasing step"  # start of the solver's stop reason
ERROR_LIMITS = {
    "batch_session": {"err_f_px": 2.0, "err_R_CI_deg": 0.3, "err_p_CI_mm": 10.0, "err_imu_ppm": 3000.0},
    "segment_calib": {"err_f_px": 3.0, "err_R_CI_deg": 0.5, "err_p_CI_mm": 20.0, "err_imu_ppm": 20000.0},
}


@dataclass
class Outcome:
    """One measured repetition of a workload.

    setup_items / compute_items hold the wall time of each unit of work in
    the repetition (one build, one solve, one segment scored), in the same
    order in every repetition of a run; setup_s / compute_s are their
    totals as the repetition ran.
    """

    setup_items: list
    compute_items: list
    attempted: int
    failed: int
    shape: dict  # sizes of the built problems; the problems are not kept
    details: dict = field(default_factory=dict)

    @property
    def setup_s(self):
        return sum(self.setup_items)

    @property
    def compute_s(self):
        return sum(self.compute_items)


def problem_shape(problems):
    """Summed sizes of the problems of one repetition, and the number of
    distinct IMU sample counts per interval (the most in any one problem)."""
    return {
        "keyframes": sum(len(p.keyframes) for p in problems),
        "landmarks": sum(len(p.landmarks) for p in problems),
        "observations": sum(len(p.camera_factors) for p in problems),
        "partitions": sum(len(p.partitions) for p in problems),
        "bridges": sum(len(p.bridge_factors) for p in problems),
        "distinct_interval_lengths": max(len({f.times.shape[0] for f in p.inertial_factors}) for p in problems),
    }


def calibration_errors(est, truth):
    T, T0 = est.extrinsics.T_CI, truth.extrinsics.T_CI
    imu_groups = ("s_g", "s_a", "m_g", "m_a")
    return {
        "err_f_px": float(np.abs(est.camera.f - truth.camera.f).max()),
        "err_R_CI_deg": math.degrees(T.rotation.angle_to(T0.rotation)),
        "err_p_CI_mm": 1e3 * float(np.linalg.norm(T.translation - T0.translation)),
        "err_imu_ppm": 1e6 * max(float(np.abs(getattr(est.imu, g) - getattr(truth.imu, g)).max()) for g in imu_groups),
    }


def cost_per_dof(problem, final_cost, dropped):
    """Final cost over residual dimensions minus free parameters (about 1/2)."""
    rows = 2 * (len(problem.camera_factors) - dropped) + 15 * len(problem.inertial_factors) + 6 * len(problem.bridge_factors)
    gauge = 4 * len(problem.partitions)  # anchor position and yaw
    return final_cost / (rows - (problem.num_states - gauge))


def budget_problems(budget):
    """Why the timed LM budget's report fails its checks (empty if it passes)."""
    found = []
    if not (math.isfinite(budget.final_cost) and budget.final_cost < budget.initial_cost):
        found.append("budget: final cost not finite or not below initial")
    if budget.iterations < LM_BUDGET.max_iters and not budget.converged:
        found.append("budget: stopped after %d iterations without converging" % budget.iterations)
    accepted = len(budget.cost_history) - 1
    if accepted != budget.iterations - budget.reason.startswith(NO_STEP):
        found.append("budget: %d steps accepted in %d iterations (%s)" % (accepted, budget.iterations, budget.reason))
    return found


class LmWorkload:
    """Build one problem from perturbed states, run the LM budget on it.

    Every repetition of a run rebuilds and re-solves the same scene.  The
    checked repetition then solves on to LM_TO_TOL, untimed, and checks the
    solution.
    """

    name = ""

    def inputs(self, seed):
        raise NotImplementedError

    def warm_up(self, inp):
        """One LM iteration on the full-size problem, so allocator and BLAS
        buffers are warm before the first timed repetition."""
        P.solve(inp["build"](), P.SolveOptions(max_iters=1))

    def run(self, inp, check):
        setup = []
        for _ in range(CHECKED_BUILDS if check else 1):
            t0 = time.perf_counter()
            problem = inp["build"]()
            setup.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        problem, budget = P.solve(problem, LM_BUDGET)
        compute_s = time.perf_counter() - t0

        problems_found = budget_problems(budget)
        details = {"budget_reason": budget.reason, "budget_cost": budget.final_cost}
        if check:
            problem, report = P.solve(problem, LM_TO_TOL)
            errors = calibration_errors(problem.calibration, inp["truth"])
            cpd = cost_per_dof(problem, report.final_cost, report.dropped_observations)
            gap = (budget.final_cost - report.final_cost) / report.final_cost
            history = budget.cost_history + report.cost_history[1:]
            steps_to_near = next(i for i, c in enumerate(history) if c <= report.final_cost * (1 + NEAR))
            if not report.converged:
                problems_found.append("not converged")
            if not (math.isfinite(report.final_cost) and report.final_cost <= budget.final_cost):
                problems_found.append("final cost not finite or above the budget's")
            if not gap <= BUDGET_GAP:
                problems_found.append("budget cost %.4g above the converged cost by more than %g" % (gap, BUDGET_GAP))
            if not steps_to_near <= STEPS_TO_NEAR[self.name]:
                problems_found.append("%d steps to near the optimum, limit %d" % (steps_to_near, STEPS_TO_NEAR[self.name]))
            if not COST_PER_DOF[0] <= cpd <= COST_PER_DOF[1]:
                problems_found.append("cost per dof %.4f outside %s" % (cpd, COST_PER_DOF))
            for key, limit in ERROR_LIMITS[self.name].items():
                if not errors[key] <= limit:
                    problems_found.append("%s %.4g above %g" % (key, errors[key], limit))
            details.update(
                reason=report.reason,
                iterations_to_tol=budget.iterations + report.iterations,
                steps_to_near=steps_to_near,
                budget_gap=gap,
                initial_cost=budget.initial_cost,
                final_cost=report.final_cost,
                cost_per_dof=cpd,
                **errors,
            )
        details["checks_failed"] = problems_found
        details["accepted_steps"] = len(budget.cost_history) - 1
        details["iterations"] = budget.iterations
        return Outcome([min(setup)], [compute_s], 1 + check, int(bool(problems_found)), problem_shape([problem]), details)


class BatchSession(LmWorkload):
    name = "batch_session"

    def inputs(self, seed):
        s = sim.make_session([seed, 0], n_keyframes=100, steps=10, n_landmarks=170)
        rng = np.random.default_rng(PERTURBATION_SEED)
        calib0 = sim.perturb_calibration(s.calibration, rng)
        keyframes = sim.perturb_keyframes(s.keyframes, rng)
        landmarks = sim.landmark_list(sim.perturb_landmarks(s.landmarks, rng))

        def build():
            return P.build_batch_problem(keyframes, landmarks, s.observations, s.imu, calib0, s.noise)

        return {"build": build, "truth": s.calibration}


class SegmentCalib(LmWorkload):
    name = "segment_calib"
    # 20 ten-keyframe segments; the retained pairs are 4 segments apart, far
    # enough along the corridor that they share no landmarks
    N_SEGMENTS = 20
    RETAINED = (0, 1, 6, 7, 12, 13, 18, 19)

    def inputs(self, seed):
        s = sim.make_session([seed, 0], n_keyframes=10 * self.N_SEGMENTS, steps=(7, 13), corridor=True, density=60.0)
        rng = np.random.default_rng(PERTURBATION_SEED)
        calib0 = sim.perturb_calibration(s.calibration, rng)
        s.keyframes = sim.perturb_keyframes(s.keyframes, rng)
        s.landmarks = sim.perturb_landmarks(s.landmarks, rng)
        segments = sim.cut_segments(s, 10)
        retained = [segments[i] for i in self.RETAINED]

        def build():
            return P.build_segment_problem(retained, calib0, s.noise)

        return {"build": build, "truth": s.calibration}


class SegmentScoring:
    """Score every ten-keyframe segment of one session; no LM."""

    name = "segment_scoring"
    N_SEGMENTS = 110  # p90 of the per-segment time then has 11 samples beyond it
    # Half the LM workloads' rotation rates, about 2 rad/s: at the full rates
    # the views of some keyframe triples share no landmark, and a segment
    # with several such breaks has no visual scale chain and came out
    # rank-deficient (about 1 segment in 1000; see DESIGN.md).
    ROTATION_SCALE = 0.5

    def inputs(self, seed):
        s = sim.make_session(
            [seed, 0], n_keyframes=10 * self.N_SEGMENTS, steps=10, corridor=True, density=60.0, rotation_scale=self.ROTATION_SCALE
        )
        return {"segments": sim.cut_segments(s, 10), "calibration": s.calibration, "noise": s.noise}

    def warm_up(self, inp):
        for seg in inp["segments"][:3]:
            M.segment_marginal_covariance(P.build_segment_problem([seg], inp["calibration"], inp["noise"]))

    def run(self, inp, check):
        """Build, then score, every segment; scoring checks every pass."""
        problems, build_s = [], []
        for seg in inp["segments"]:
            t0 = time.perf_counter()
            problems.append(P.build_segment_problem([seg], inp["calibration"], inp["noise"]))
            build_s.append(time.perf_counter() - t0)

        covs, item_s, errors = [], [], []
        for prob in problems:
            t0 = time.perf_counter()
            try:
                covs.append(M.segment_marginal_covariance(prob))
            except Exception as exc:  # counted as a failed operation, run goes on
                covs.append(None)
                errors.append(repr(exc))
            item_s.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        usable = [c for c in covs if c is not None]
        ref = M.reference_sigmas(usable) if any(not c.rank_deficient for c in usable) else None
        ref_s = time.perf_counter() - t0
        failed = 0
        rank_deficient = 0
        scores = []
        for i, cov in enumerate(covs):
            if cov is None:
                failed += 1
                continue
            if cov.rank_deficient:
                rank_deficient += 1
                failed += 1
                continue
            t0 = time.perf_counter()
            sc = M.score(M.normalize_covariance(cov, ref))
            item_s[i] += time.perf_counter() - t0
            values = (sc.a_opt, sc.d_opt, sc.e_opt, sc.entropy)
            if not (np.all(np.isfinite(cov.matrix)) and all(math.isfinite(v) for v in values)):
                failed += 1
            scores.append(sc.d_opt)
        details = {"rank_deficient": rank_deficient, "errors": errors[:5], "median_d_opt": float(np.median(scores)) if scores else None}
        # reference_sigmas is one more unit of compute work, shared by all segments
        return Outcome(build_s, item_s + [ref_s], len(problems), failed, problem_shape(problems), details)


WORKLOADS = {w.name: w for w in (BatchSession, SegmentCalib, SegmentScoring)}
