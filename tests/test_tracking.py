"""Step variants, fixed points, the tracking loop and full-step solves."""

import numpy as np
import pytest
from dataclasses import replace

from scptrack import ipm as ipm_module
from scptrack import tracking as tracking_module
from scptrack.cascade import CascadeConfig, cascade_problem, steady_start, steady_state
from scptrack.errors import DimensionError, OracleError, ProjectionError, StepError, UsageError
from scptrack.jacobians import (
    EvalCounters,
    HessianStrategy,
    IterateState,
    JacobianStrategy,
    correction_vector,
    finite_difference_jacobian,
    init_state,
)
from scptrack.problem import (
    ParametricNLP,
    PrimalDual,
    QuadraticObjective,
    kkt_residual,
    slack_reformulate,
)
from scptrack.region import (
    AffineInequality,
    ConvexRegion,
    Ellipsoid,
    SecondOrderCone,
    project_region,
    region_violation,
)
from scptrack.subproblem import SolveStatus, SolverOptions
from scptrack.tracking import (
    TrackerConfig,
    _linearize_region,
    apcscp_step,
    fascp_solve,
    oracle_solution,
    pcscp_step,
    rtgn_step,
    track,
)
from scptrack.tutorial import tutorial_problem, tutorial_solution

TOL = 1e-8


def _sweep(count=10, start=1.2, step=0.25):
    return [np.array([start + k * step]) for k in range(count)]


def _exact_state(problem, xi, config):
    z0, _ = tutorial_solution(float(xi))
    return init_state(problem, z0, config.jacobian, config.hessian, None)


def test_config_validation():
    with pytest.raises(UsageError):
        TrackerConfig(variant="newton")
    # exact-Jacobian variants reject inexact strategies
    with pytest.raises(UsageError):
        TrackerConfig(variant="pcscp", jacobian=JacobianStrategy("frozen"))
    with pytest.raises(UsageError):
        TrackerConfig(variant="rtgn", jacobian=JacobianStrategy("broyden"))
    TrackerConfig(variant="pcscp", jacobian=JacobianStrategy("fd"))


@pytest.mark.parametrize(
    "step_fn,variant,jac",
    [
        (apcscp_step, "apcscp", "exact"),
        (apcscp_step, "apcscp", "frozen"),
        (pcscp_step, "pcscp", "exact"),
        (rtgn_step, "rtgn", "exact"),
    ],
)
def test_exact_kkt_point_is_fixed(step_fn, variant, jac):
    # unchanged parameter: the step reproduces the point within solver noise
    problem = tutorial_problem()
    config = TrackerConfig(
        variant=variant,
        jacobian=JacobianStrategy(jac),
        solver_opts=SolverOptions(tol=TOL),
    )
    xi = 1.45
    state = _exact_state(problem, xi, config)
    new = step_fn(state, problem, xi, config)
    drift = np.linalg.norm(new.z.x - state.z.x)
    assert drift <= 10.0 * TOL
    assert kkt_residual(problem, new.z, xi).total <= 10.0 * TOL


def test_wrong_frozen_jacobian_is_repaired_at_fixed_point():
    # the correction term absorbs the model error, so the point still holds
    problem = tutorial_problem()
    config = TrackerConfig(
        variant="apcscp",
        jacobian=JacobianStrategy("frozen"),
        solver_opts=SolverOptions(tol=TOL),
    )
    xi = 1.45
    state = _exact_state(problem, xi, config)
    wrong = state.A + np.array([[0.7, -0.4]])
    state = replace(
        state, A=wrong, m_corr=correction_vector(problem, state.z.x, state.z.y, wrong)
    )
    new = apcscp_step(state, problem, xi, config)
    assert np.linalg.norm(new.z.x - state.z.x) <= 10.0 * TOL


def test_track_record_layout_and_counters():
    problem = tutorial_problem()
    z0, _ = tutorial_solution(1.2)
    config = TrackerConfig(variant="pcscp", jacobian=JacobianStrategy("exact"))
    sweep = _sweep()
    trace = track(problem, sweep, z0, config)

    assert not trace.aborted
    assert len(trace) == len(sweep) + 1
    assert trace.records[0].step_status is None
    assert trace.records[0].solver_iters is None
    assert [r.k for r in trace] == list(range(len(sweep) + 1))
    np.testing.assert_allclose(trace.records[0].xi, sweep[0])
    assert all(r.step_status is SolveStatus.OPTIMAL for r in trace.records[1:])
    # one g and one Jacobian per step plus initialization; adjoint only at init
    assert trace.counters.g_evals == len(sweep) + 1
    assert trace.counters.jacobian_evals == len(sweep) + 1
    assert trace.counters.adjoint_evals == 1
    assert trace.counters.solver_iters > 0


def test_track_frozen_apcscp_counts_one_jacobian():
    problem = tutorial_problem()
    calls = {"g": 0, "g_adjoint": 0}

    def counted(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped

    problem = replace(problem, g=counted("g", problem.g),
                      g_adjoint=counted("g_adjoint", problem.g_adjoint))
    z0, _ = tutorial_solution(1.2)
    config = TrackerConfig(variant="apcscp", jacobian=JacobianStrategy("frozen"))
    trace = track(problem, _sweep(), z0, config)
    assert trace.counters.jacobian_evals == 1
    # one adjoint correction per step plus initialization
    assert trace.counters.adjoint_evals == len(trace.records)
    # the records reuse the model update's g(x) and g'(x)^T y
    assert calls == {"g": trace.counters.g_evals, "g_adjoint": trace.counters.adjoint_evals}


@pytest.mark.parametrize("jacobian, retry, evals", [
    # the start model, then an exact Jacobian at samples 4 and 8
    (JacobianStrategy("broyden", reset_period=4), False, 3),
    # no subproblem fails, so the fresh-Jacobian retry never evaluates one
    (JacobianStrategy("frozen"), True, 1),
])
def test_track_jacobian_settings_on_the_tutorial_sweep(jacobian, retry, evals):
    z0, _ = tutorial_solution(1.2)
    config = TrackerConfig(variant="apcscp", jacobian=jacobian, retry_fresh_jacobian=retry)
    trace = track(tutorial_problem(), _sweep(), z0, config)
    assert not trace.aborted
    assert [r.step_status for r in trace.records[1:]] == [SolveStatus.OPTIMAL] * len(_sweep())
    assert trace.counters.jacobian_evals == evals


def _counted(fn, calls):
    """fn, appending each call's first argument to calls."""
    def wrapped(*args):
        calls.append(np.array(args[0]))
        return fn(*args)
    return wrapped


def test_fd_step_makes_n_plus_one_counted_g_calls():
    # each step: g at the accepted point, then one forward-difference column
    # per coordinate, which reuses that g(x); the start model likewise
    problem = tutorial_problem()
    calls = []
    counted = replace(problem, g=_counted(problem.g, calls))
    z0, _ = tutorial_solution(1.2)
    config = TrackerConfig(variant="pcscp", jacobian=JacobianStrategy("fd"))
    trace = track(counted, _sweep(), z0, config)
    assert not trace.aborted
    assert len(calls) == len(trace.records) * (problem.n + 1)
    assert trace.counters.g_evals == len(calls)
    # the model is a difference quotient, never g_jac: every record measures it
    assert all(r.jac_error > 0.0 for r in trace.records)

    # the columns difference against the cached g(x): the same bytes as a
    # difference that evaluates g(x) itself
    state = init_state(problem, z0, config.jacobian, config.hessian)
    for xi in _sweep(4):
        fd = finite_difference_jacobian(problem.g, state.z.x, problem.m, config.jacobian.fd_step)
        np.testing.assert_array_equal(state.A, fd)
        state = pcscp_step(state, problem, xi, config)


@pytest.mark.parametrize("jacobian, variant", [
    (JacobianStrategy("exact"), "pcscp"),
    (JacobianStrategy("broyden", reset_period=3), "apcscp"),
    (JacobianStrategy("frozen"), "apcscp"),
])
def test_record_reuses_the_model_update_g_jac(jacobian, variant):
    # a record whose state's A is g_jac at its own x reads jac_error 0.0
    # without calling g_jac; every other record makes one diagnostic call
    problem = tutorial_problem()
    calls = []
    counted = replace(problem, g_jac=_counted(problem.g_jac, calls))
    z0, _ = tutorial_solution(1.2)
    config = TrackerConfig(variant=variant, jacobian=jacobian)
    trace = track(counted, _sweep(), z0, config)
    assert not trace.aborted
    fresh = [r.k == 0 or jacobian.kind == "exact"
             or (jacobian.kind == "broyden" and r.k % jacobian.reset_period == 0)
             for r in trace.records]
    assert len(calls) == trace.counters.jacobian_evals + fresh.count(False)
    for rec, reused in zip(trace.records, fresh):
        assert (rec.jac_error == 0.0) if reused else (rec.jac_error > 0.0)
    if jacobian.kind == "frozen":
        # the start model, then one diagnostic call per record after record 0
        assert len(calls) == len(trace.records)
        for rec, x in zip(trace.records[1:], calls[1:]):
            np.testing.assert_array_equal(x, rec.x)


def test_exact_jacobian_record_makes_no_g_adjoint_call():
    # an exact pcscp model is g_jac at the record's x, so the record reads
    # A'y from the model update: the start model's adjoint is the only call
    problem = tutorial_problem()
    calls = []
    counted = replace(problem, g_adjoint=_counted(problem.g_adjoint, calls))
    z0, _ = tutorial_solution(1.2)
    trace = track(counted, _sweep(), z0, TrackerConfig(variant="pcscp"))
    assert not trace.aborted
    assert len(calls) == trace.counters.adjoint_evals == 1
    np.testing.assert_array_equal(calls[0], z0.x)


def _short_track(setup):
    """(problem, samples, start) of a short track on the tutorial or the 3x8 cascade."""
    if setup == "tutorial":
        z0, _ = tutorial_solution(1.2)
        return tutorial_problem(), _sweep(5), z0
    cfg = CascadeConfig(n_tanks=3, horizon=8)
    steady = steady_state(cfg, 1.0)
    samples = [steady[0] * (1.0 + 0.05 * k) for k in range(1, 6)]
    return cascade_problem(cfg, steady), samples, steady_start(cfg, steady)


@pytest.mark.parametrize("variant", ["pcscp", "apcscp", "rtgn"])
@pytest.mark.parametrize("setup", ["tutorial", "cascade"])
def test_records_reuse_what_the_step_certified(monkeypatch, setup, variant):
    # every record's region distance is bit for bit what a fresh kkt_residual
    # computes, and its stationarity (from A'y on an exact model) agrees to
    # rounding.  Solves 3 and 4 report max_iter: step 3 refreshes the held
    # state's models, fails again and records that refreshed state
    calls = []
    solve = tracking_module.solve_subproblem

    def failing(sp, opts, warm, fixed):
        calls.append(None)
        sol = solve(sp, opts, warm, fixed)
        return replace(sol, status=SolveStatus.MAX_ITER) if len(calls) in (3, 4) else sol

    monkeypatch.setattr(tracking_module, "solve_subproblem", failing)
    problem, samples, z0 = _short_track(setup)
    config = TrackerConfig(variant=variant, retry_fresh_jacobian=True)
    trace = track(problem, samples, z0, config)
    assert trace.aborted and trace.message.startswith("step 3: subproblem returned max_iter")
    assert len(calls) == 4  # step 3 was retried after the refresh
    assert [r.k for r in trace.records] == [0, 1, 2, 3]
    assert trace.records[3].step_status is SolveStatus.MAX_ITER
    for rec in trace.records:
        fresh = kkt_residual(problem, PrimalDual(rec.x, rec.y), rec.xi)
        assert rec.kkt.region_distance == fresh.region_distance
        assert rec.kkt.equality == fresh.equality
        assert abs(rec.kkt.stationarity - fresh.stationarity) <= 1e-13


def test_track_fd_jacobians_on_a_perturbed_cascade():
    # pcscp with forward-difference Jacobians on the 3-tank, 8-step cascade:
    # the start model and one model per sample come from differences of g
    cfg = CascadeConfig(n_tanks=3, horizon=8)
    steady = steady_state(cfg, 1.0)
    problem = cascade_problem(cfg, steady)
    z0 = steady_start(cfg, steady)
    shift = 0.05 * np.random.default_rng(5).uniform(-1.0, 1.0, problem.n)
    samples = [steady[0] * (1.0 + 0.05 * k) for k in range(1, 5)]
    config = TrackerConfig(variant="pcscp", jacobian=JacobianStrategy("fd"))
    trace = track(problem, samples, PrimalDual(z0.x + shift, z0.y), config)
    assert not trace.aborted
    assert [r.step_status for r in trace.records[1:]] == [SolveStatus.OPTIMAL] * len(samples)
    assert trace.counters.jacobian_evals == 1 + len(samples)
    # forward differences at steps h_j = 1e-7 (1 + |x_j|) err by about
    # h_j |g''| / 2 + 2 eps |g| / h_j per entry, of order 1e-7 here; over the
    # 27 x 36 entries that stays below 1e-6 (1 + ||g'||_F).  jac_error > 0
    # shows the model was differenced, not read from g_jac
    for rec in trace.records:
        bound = 1e-6 * (1.0 + np.linalg.norm(problem.g_jac(rec.x)))
        assert 0.0 < rec.jac_error <= bound


def test_rtgn_warm_start_far_outside_the_region_is_retried_cold(monkeypatch):
    # rtgn on the 8-tank, 24-step cascade with every tank level falling from
    # 1.3 by 0.02 per sample: the warm-started iteration of sample 6 stalls
    # into a false infeasible, and the solve is repeated once from the cold
    # start; each record reports the iterations of both attempts
    cfg = CascadeConfig(n_tanks=8, horizon=24)
    steady = steady_state(cfg, 1.0)
    attempts = []
    ipm = ipm_module._ipm

    def spy(sp, opts, warm, fixed):
        sol = ipm(sp, opts, warm, fixed)
        attempts.append((warm is None, sol.status, sol.iterations))
        return sol

    monkeypatch.setattr(ipm_module, "_ipm", spy)
    samples = [(1.3 - 0.02 * k) * np.ones(8) for k in range(12)]
    trace = track(cascade_problem(cfg, steady), samples, steady_start(cfg, steady),
                  TrackerConfig(variant="rtgn", jacobian=JacobianStrategy("exact")))
    assert not trace.aborted
    assert [r.step_status for r in trace.records[1:]] == [SolveStatus.OPTIMAL] * len(samples)
    # the tracker always warm-starts, so every cold attempt is a retry, and
    # it follows a warm attempt that ended other than optimal
    retries = [i for i, (cold, _, _) in enumerate(attempts) if cold]
    assert retries
    assert all(not attempts[i - 1][0] and attempts[i - 1][1] is not SolveStatus.OPTIMAL
               for i in retries)
    assert sum(r.solver_iters for r in trace.records[1:]) == sum(a[2] for a in attempts)
    assert trace.counters.solver_iters == sum(a[2] for a in attempts)


def test_track_callable_source_stops_on_none():
    problem = tutorial_problem()
    z0, _ = tutorial_solution(1.2)

    def source(z, k):
        return np.array([1.2 + 0.1 * k]) if k < 4 else None

    trace = track(problem, source, z0, TrackerConfig(variant="pcscp"))
    assert len(trace) == 5
    assert not trace.aborted


def test_track_oracle_errors_recorded():
    problem = tutorial_problem()
    z0, _ = tutorial_solution(1.2)
    config = TrackerConfig(
        variant="pcscp",
        jacobian=JacobianStrategy("exact"),
        record_oracle_error=True,
    )
    trace = track(problem, _sweep(count=4), z0, config)
    errors = trace.column("oracle_error")
    assert all(e is not None for e in errors)
    # start point solves the first sample exactly
    assert errors[0] <= 1e-8
    assert max(errors) <= 0.5


@pytest.mark.parametrize("variant, jac, hess, lo, hi", [
    ("pcscp", "exact", "projected", 1.8, np.inf),
    ("apcscp", "frozen", "projected", 1.8, np.inf),
    ("pcscp", "exact", "zero", 0.85, 1.15),
    ("apcscp", "frozen", "zero", 0.85, 1.15),
    ("rtgn", "exact", "zero", 0.85, 1.15),
])
def test_one_step_error_has_the_order_of_the_contraction_estimate(variant, jac, hess, lo, hi):
    # one step from the exact solution at xi = 1.5 to 1.5 + h: the contraction
    # estimate bounds its oracle error by the parameter step, to second order
    # with the projected Lagrangian Hessian as curvature model and to first
    # order with none.  The frozen Jacobian is exact at the start, so it
    # matches pcscp.  rtgn's tangent halfspace drops the cone's curvature, so
    # the projected model does not make it second order and is not checked
    problem = tutorial_problem()
    z0, _ = tutorial_solution(1.5)
    config = TrackerConfig(variant=variant, jacobian=JacobianStrategy(jac),
                           hessian=HessianStrategy(hess), record_oracle_error=True)
    hs = 0.2 / 2.0 ** np.arange(5)
    errors = [track(problem, [np.array([1.5 + h])], z0, config).records[1].oracle_error
              for h in hs]
    # the order between successive halvings of h: 1.88-1.98 with the projected
    # model, 0.93-0.98 with the zero one
    orders = np.diff(np.log(errors)) / np.diff(np.log(hs))
    assert np.all((orders >= lo) & (orders <= hi)), orders


def test_track_empty_sequence_rejected():
    problem = tutorial_problem()
    z0, _ = tutorial_solution(1.2)
    with pytest.raises(UsageError):
        track(problem, [], z0, TrackerConfig(variant="pcscp"))


def _box_problem():
    # x1 + x2 = xi inside the unit box: infeasible once xi > 2
    return ParametricNLP(
        c=[1.0, 0.0],
        g=lambda x: np.array([x[0] + x[1]]),
        g_adjoint=lambda x, y: y[0] * np.array([1.0, 1.0]),
        M=[[-1.0]],
        region=ConvexRegion(lower=[0.0, 0.0], upper=[1.0, 1.0]),
        g_jac=lambda x: np.array([[1.0, 1.0]]),
    )


def test_track_abort_appends_failure_record():
    problem = _box_problem()
    z0 = PrimalDual([0.0, 1.0], [0.0])
    config = TrackerConfig(
        variant="pcscp",
        solver_opts=SolverOptions(tikhonov_retry=False),
    )
    sweep = [np.array([1.0]), np.array([1.5]), np.array([5.0]), np.array([1.0])]
    trace = track(problem, sweep, z0, config)
    assert trace.aborted
    assert "step 3" in trace.message
    # record 0 plus two good samples plus the failure record
    assert len(trace) == 4
    last = trace.records[-1]
    assert last.step_status is SolveStatus.INFEASIBLE
    # held iterate: the failure record repeats the last good point
    np.testing.assert_allclose(last.x, trace.records[-2].x)


def test_track_oracle_failure_keeps_finished_records():
    problem = tutorial_problem()
    z0, _ = tutorial_solution(1.2)
    config = TrackerConfig(jacobian=JacobianStrategy("frozen"), record_oracle_error=True)
    calls = []

    def oracle(problem, xi, hint):
        calls.append(xi)
        if len(calls) == 4:
            raise OracleError("reference solve failed")
        return oracle_solution(problem, xi, hint)

    sweep = _sweep(count=10, start=1.2, step=0.05)
    trace = track(problem, sweep, z0, config, oracle=oracle)
    assert trace.aborted
    assert trace.message == "record 3: reference solve failed"
    # records 0-2 finished; the record whose oracle failed is left out
    assert len(trace) == 3
    assert [r.k for r in trace.records] == [0, 1, 2]
    assert all(r.oracle_error is not None for r in trace.records)

    # a failed record-0 diagnostic leaves an aborted trace with no record
    def failing(problem, xi, hint):
        raise OracleError("no reference point")

    trace = track(problem, sweep, z0, config, oracle=failing)
    assert trace.aborted
    assert trace.message == "record 0: no reference point"
    assert len(trace) == 0


def test_retry_fresh_jacobian_repairs_bad_model():
    problem = _box_problem()
    z0 = PrimalDual([0.5, 0.5], [0.0])
    base = TrackerConfig(variant="apcscp", jacobian=JacobianStrategy("frozen"))
    state = init_state(problem, z0, base.jacobian, base.hessian, None)
    # a zeroed model makes the linearized equality unsatisfiable
    bad = replace(state, A=np.zeros((1, 2)),
                  m_corr=correction_vector(problem, z0.x, z0.y, np.zeros((1, 2))))

    with pytest.raises(StepError):
        apcscp_step(bad, problem, 1.5, replace(base, retry_fresh_jacobian=False))

    fixed = apcscp_step(bad, problem, 1.5, replace(base, retry_fresh_jacobian=True))
    assert kkt_residual(problem, fixed.z, 1.5).total <= 1e-6


def test_fascp_converges_quadratically_near_solution():
    problem = tutorial_problem()
    z_star, _ = tutorial_solution(1.2)
    z0 = PrimalDual(z_star.x + 0.1, z_star.y)
    config = TrackerConfig(hessian=HessianStrategy("projected"))
    z, trace = fascp_solve(problem, 1.2, z0, config, eps=1e-9, max_iter=30)
    assert trace.converged
    assert trace.final_kkt.total <= 1e-8
    assert len(trace) <= 10
    errors = [np.linalg.norm(r.z.x - z_star.x) for r in trace.records]
    assert errors[-1] <= 1e-7


def test_fascp_runs_the_adjoint_corrected_step_for_any_variant():
    # a pcscp config is run as apcscp: the same iterates, and one counted
    # adjoint product per step after the start model's (pcscp would make none)
    problem = tutorial_problem()
    z_star, _ = tutorial_solution(1.2)
    z0 = PrimalDual(z_star.x + 0.1, z_star.y)
    config = TrackerConfig(variant="pcscp", hessian=HessianStrategy("projected"))
    _, trace = fascp_solve(problem, 1.2, z0, config, eps=1e-9, max_iter=30)
    _, ref = fascp_solve(problem, 1.2, z0, replace(config, variant="apcscp"), eps=1e-9,
                         max_iter=30)
    assert trace.converged
    assert [r.z.x.tobytes() for r in trace.records] == [r.z.x.tobytes() for r in ref.records]
    assert trace.counters.adjoint_evals == 1 + len(trace) == ref.counters.adjoint_evals


def test_scalar_g_and_row_g_jac_stand_for_one_constraint():
    # with m = 1, g may return a float and g_jac a 1-D row: each is read with a
    # 1-long leading axis, and the run is bit for bit the array-valued one
    problem = tutorial_problem()
    loose = replace(problem, g=lambda x: float(problem.g(x)[0]),
                    g_jac=lambda x: problem.g_jac(x)[0])
    assert np.ndim(loose.g(np.ones(2))) == 0 and np.shape(loose.g_jac(np.ones(2))) == (2,)
    z0, _ = tutorial_solution(1.2)
    config = TrackerConfig(variant="pcscp", jacobian=JacobianStrategy("exact"))
    runs = [track(p, _sweep(), z0, config) for p in (problem, loose)]
    assert not runs[1].aborted
    for a, b in zip(*(run.records for run in runs), strict=True):
        assert (a.x.tobytes(), a.y.tobytes(), a.kkt, a.jac_error) == (
            b.x.tobytes(), b.y.tobytes(), b.kkt, b.jac_error)


def test_fascp_kkt_stop_short_circuits():
    problem = tutorial_problem()
    z_star, _ = tutorial_solution(1.2)
    z0 = PrimalDual(z_star.x + 0.1, z_star.y)
    config = TrackerConfig(hessian=HessianStrategy("projected"))
    _, full = fascp_solve(problem, 1.2, z0, config, eps=1e-12, max_iter=12)
    _, early = fascp_solve(problem, 1.2, z0, config, eps=1e-12, max_iter=12, kkt_stop=1e-3)
    assert early.converged
    assert len(early) < len(full)


def test_fascp_budget_flags_nonconvergence():
    problem = tutorial_problem()
    z_star, _ = tutorial_solution(1.2)
    z0 = PrimalDual(z_star.x + 0.3, z_star.y)
    _, trace = fascp_solve(problem, 1.2, z0, TrackerConfig(), eps=1e-14, max_iter=2)
    assert not trace.converged
    assert len(trace) == 2
    assert trace.final_kkt is not None


def test_fascp_validation():
    problem = tutorial_problem()
    z0, _ = tutorial_solution(1.2)
    with pytest.raises(UsageError):
        fascp_solve(problem, 1.2, z0, eps=0.0)
    with pytest.raises(UsageError):
        fascp_solve(problem, 1.2, z0, max_iter=0)


def test_fascp_step_failure_carries_partial_trace():
    problem = _box_problem()
    z0 = PrimalDual([0.5, 0.5], [0.0])
    # parameter outside the reachable set: first subproblem is infeasible
    config = TrackerConfig(solver_opts=SolverOptions(tikhonov_retry=False))
    with pytest.raises(StepError) as info:
        fascp_solve(problem, 5.0, z0, config)
    assert info.value.trace is not None
    assert not info.value.trace.converged


def test_oracle_solution_accuracy_and_warmth():
    problem = tutorial_problem()
    z_hint, _ = tutorial_solution(1.7)
    z_star, _ = tutorial_solution(1.75)
    z = oracle_solution(problem, 1.75, z_hint)
    assert np.linalg.norm(z.x - z_star.x) <= 1e-7
    assert kkt_residual(problem, z, 1.75).total <= 1e-8


def test_linearize_region_tangent_rows():
    rng = np.random.default_rng(71)
    n = 3
    box = (np.full(n, -3.0), np.full(n, 3.0))
    halfspace = AffineInequality(rng.normal(size=n), 2.0)
    B = rng.normal(size=(n, n))
    cone = SecondOrderCone(rng.normal(size=(2, n)), rng.normal(size=2) * 0.2,
                           rng.normal(size=n) * 0.3, 1.5)
    ell = Ellipsoid(rng.normal(size=n) * 0.3, B @ B.T / n + 0.3 * np.eye(n), 2.0)
    region = ConvexRegion(*box, (halfspace,), (cone,), (ell,))
    members = (cone, ell)
    for x in [rng.normal(size=n) * 2.0 for _ in range(3)] + [m.project(np.full(n, 5.0))
                                                              for m in members]:
        lin = _linearize_region(region, x)
        assert lin.cones == () and lin.ellipsoids == ()
        np.testing.assert_array_equal(lin.lower, region.lower)
        np.testing.assert_array_equal(lin.upper, region.upper)
        assert lin.affine[0] is halfspace and len(lin.affine) == 3
        scale = 1.0 + np.linalg.norm(x)
        for m, row in zip(members, lin.affine[1:]):
            # exact at x, so a boundary point lies on its own hyperplane
            assert row.violation(x) == pytest.approx(m.violation(x), abs=1e-12 * scale)
            # convexity: every point of the member satisfies its tangent row
            for _ in range(20):
                y = m.project(rng.normal(size=n) * 3.0)
                assert row.violation(y) <= 1e-9 * (1.0 + np.linalg.norm(y))
        # and so does every point of the region, for every row
        for _ in range(10):
            y = project_region(region, rng.normal(size=n) * 3.0)
            assert region_violation(lin, y) <= 1e-8

    # at the apex of a ball cone the gradient vanishes: dropped when the
    # member is satisfied there, kept as an unsatisfiable row when violated
    center = np.array([0.5, -0.5, 1.0])
    for f, kept in ((1.0, False), (-1.0, True)):
        ball = SecondOrderCone(np.eye(n), -center, np.zeros(n), f)
        lin = _linearize_region(ConvexRegion(*box, cones=(ball,)), center)
        assert len(lin.affine) == int(kept)
        if kept:
            assert not lin.affine[0].a.any() and lin.affine[0].b < 0.0
            assert region_violation(lin, rng.normal(size=n)) > 0.0
    # an ellipsoid at its center: zero gradient, satisfied, dropped
    lin = _linearize_region(ConvexRegion(*box, ellipsoids=(ell,)), ell.center)
    assert lin.affine == ()


def test_non_finite_sample_aborts_with_finished_records(monkeypatch):
    # a nan parameter reaches the subproblem through its equality right-hand
    # side; that sample's finite A is not presolved for a solve that cannot run
    presolved, _ = _presolve_probe(monkeypatch)
    problem = tutorial_problem()
    z0, _ = tutorial_solution(1.2)
    xs = _sweep(5)
    xs[3] = np.array([np.nan])
    trace = track(problem, xs, z0, TrackerConfig())
    assert trace.aborted
    ok = SolveStatus.OPTIMAL
    assert [r.step_status for r in trace.records] == [None, ok, ok, ok, SolveStatus.MAX_ITER]
    assert trace.records[-1].solver_iters == 0
    assert len(presolved) == 3  # one per exact model of a finished sample


def test_projection_error_in_a_solve_aborts_with_finished_records(monkeypatch):
    # the third sample's interior-point solve raises ProjectionError
    calls = []
    ipm = ipm_module._ipm

    def flaky(sp, opts, warm, fixed):
        calls.append(None)
        if len(calls) == 3:
            raise ProjectionError("no verified projection")
        return ipm(sp, opts, warm, fixed)

    monkeypatch.setattr(ipm_module, "_ipm", flaky)
    problem = tutorial_problem()
    z0, _ = tutorial_solution(1.2)
    trace = track(problem, _sweep(5), z0, TrackerConfig())
    assert trace.aborted
    ok = SolveStatus.OPTIMAL
    assert [r.step_status for r in trace.records] == [None, ok, ok, SolveStatus.MAX_ITER]
    assert trace.records[-1].solver_iters == 0
    # the failure record holds the last good iterate
    np.testing.assert_array_equal(trace.records[-1].x, trace.records[-2].x)


def _malformed_on_call(fn, call, shape):
    """fn, except that its call-th call returns an output of the given shape."""
    calls = []

    def wrapped(*args):
        calls.append(None)
        out = fn(*args)
        return np.resize(out, shape) if len(calls) == call else out
    return wrapped


def _tracking_setup(setup, problem, z0):
    """(problem, start, config) of one malformed-output case on the tutorial."""
    if setup == "frozen":
        return problem, z0, TrackerConfig(variant="apcscp", jacobian=JacobianStrategy("frozen"))
    if setup == "fd":
        return problem, z0, TrackerConfig(variant="pcscp", jacobian=JacobianStrategy("fd"))
    # a convex quadratic cost over an epigraph slack, projected curvature
    objective = QuadraticObjective(0.1 * np.eye(2), [-1.0, 0.0])
    start = PrimalDual(np.append(z0.x, objective.value(z0.x) + 0.1), z0.y)
    config = TrackerConfig(hessian=HessianStrategy("projected"))
    return slack_reformulate(objective, problem), start, config


@pytest.mark.parametrize("oracle, call, shape, records, message, setup", [
    # g's 6th call is step 5's model update
    ("g", 6, (2,), 5, "step 5: g returned shape (2,), expected (1,)", "frozen"),
    # g_adjoint's 6th call is step 5's correction vector
    ("g_adjoint", 6, (3,), 5, "step 5: adjoint returned shape (3,), expected (2,)", "frozen"),
    # g_jac's 3rd call is record 2's Jacobian error (the start model, then record 1;
    # record 0 reuses the start model, which is g_jac at the start point)
    ("g_jac", 3, (1, 3), 2, "record 2: g_jac returned shape (1, 3), expected (1, 2)", "frozen"),
    # g's 8th call is step 2's first finite-difference column (3 calls build the
    # start model, then each step makes 3: g at the new point, then 2 columns)
    ("g", 8, (2,), 2, "step 2: g returned shape (2,), expected (1,)", "fd"),
    # g_adjoint's 3rd call is record 2's stationarity (the start model, then record 1):
    # a difference-quotient model is not g_jac, so its record evaluates the adjoint
    ("g_adjoint", 3, (3,), 2, "record 2: adjoint returned shape (3,), expected (2,)", "fd"),
    # the inner lagrangian_hessian's 3rd call is step 2's curvature model
    ("lagrangian_hessian", 3, (3, 3), 2,
     "step 2: lagrangian_hessian returned shape (3, 3), expected (2, 2)", "slack"),
])
def test_malformed_oracle_output_aborts_with_finished_records(oracle, call, shape, records,
                                                              message, setup):
    problem = tutorial_problem()
    bad = _malformed_on_call(getattr(problem, oracle), call, shape)
    problem = replace(problem, **{oracle: bad})
    z0, _ = tutorial_solution(1.2)
    problem, z0, config = _tracking_setup(setup, problem, z0)
    trace = track(problem, _sweep(), z0, config)
    assert trace.aborted
    assert trace.message == message
    assert [r.k for r in trace.records] == list(range(records))
    assert all(r.step_status is SolveStatus.OPTIMAL for r in trace.records[1:])


def test_fascp_malformed_output_carries_partial_trace():
    # g_adjoint's 3rd call is iteration 2's correction vector (the start model, iteration 1)
    problem = tutorial_problem()
    problem = replace(problem, g_adjoint=_malformed_on_call(problem.g_adjoint, 3, (3,)))
    z, _ = tutorial_solution(1.3)
    z0 = PrimalDual(z.x + np.array([0.05, -0.05]), 1.1 * z.y)
    config = TrackerConfig(jacobian=JacobianStrategy("frozen"))
    with pytest.raises(DimensionError) as info:
        fascp_solve(problem, 1.3, z0, config)
    assert str(info.value) == "adjoint returned shape (3,), expected (2,)"
    trace = info.value.trace
    assert [r.j for r in trace.records] == [1]
    assert not trace.converged
    assert trace.final_kkt is not None


def test_step_on_a_state_without_cached_g_evaluates_it_once():
    problem = tutorial_problem()
    calls = []
    counted = replace(problem, g=lambda x: (calls.append(None), problem.g(x))[1])
    z0, _ = tutorial_solution(1.3)
    config = TrackerConfig(jacobian=JacobianStrategy("frozen"))
    seeded = init_state(problem, z0, config.jacobian, config.hessian)
    state = IterateState(z=seeded.z, A=seeded.A, H=seeded.H, m_corr=seeded.m_corr)
    counters = EvalCounters()
    apcscp_step(state, counted, np.array([1.35]), config, counters)
    # g at the carried iterate, then g at the accepted one; both counted
    assert len(calls) == 2
    assert counters.g_evals == 2


def _presolve_probe(monkeypatch):
    """The list of matrices ``_presolve_equalities`` is called on, by the tracker
    or by the solver, and the list of (A_eq, fixed) that each
    ``solve_subproblem`` call of the tracker gets."""
    presolved, solves = [], []
    presolve, solve = ipm_module._presolve_equalities, tracking_module.solve_subproblem

    def counted(A):
        presolved.append(A)
        return presolve(A)

    def spied(sp, opts, warm, fixed):
        solves.append((sp.A_eq, fixed))
        return solve(sp, opts, warm, fixed)

    monkeypatch.setattr(ipm_module, "_presolve_equalities", counted)
    monkeypatch.setattr(tracking_module, "_presolve_equalities", counted)
    monkeypatch.setattr(tracking_module, "solve_subproblem", spied)
    return presolved, solves


@pytest.mark.parametrize("jacobian, variant", [("frozen", "apcscp"), ("exact", "pcscp")])
def test_the_presolve_is_built_once_per_jacobian_model(monkeypatch, jacobian, variant):
    # a frozen model is presolved at the first solve and carried to every
    # later one; an exact model is new at every sample, and so is its presolve
    presolved, solves = _presolve_probe(monkeypatch)
    problem, samples, z0 = _short_track("cascade")
    config = TrackerConfig(variant=variant, jacobian=JacobianStrategy(jacobian))
    trace = track(problem, samples, z0, config)
    assert not trace.aborted and len(solves) == len(samples)
    assert len(presolved) == (1 if jacobian == "frozen" else len(samples))
    for A, fixed in solves:
        assert fixed.A is A  # each solve takes the presolve of its own model


def test_a_secant_model_is_presolved_once_per_changed_matrix(monkeypatch):
    # Broyden steps shorter than the skip threshold keep the model matrix and
    # its presolve; every other step makes a new matrix and one new presolve
    presolved, solves = _presolve_probe(monkeypatch)
    z0, _ = tutorial_solution(1.2)
    samples = [np.array([xi]) for xi in (1.45,) * 6 + (1.7,) * 6]
    config = TrackerConfig(jacobian=JacobianStrategy("broyden", skip_threshold=1e-6))
    trace = track(tutorial_problem(), samples, z0, config)
    assert not trace.aborted
    models = [A for i, (A, _) in enumerate(solves) if i == 0 or A is not solves[i - 1][0]]
    assert 1 < len(models) < len(solves)
    assert len(presolved) == len(models)
    assert all(p is A for p, A in zip(presolved, models))


def test_retry_fresh_jacobian_rebuilds_the_presolve(monkeypatch):
    # the zeroed frozen model fails; the refreshed model gets its own presolve,
    # which the next state carries
    presolved, solves = _presolve_probe(monkeypatch)
    problem = _box_problem()
    z0 = PrimalDual([0.5, 0.5], [0.0])
    config = TrackerConfig(jacobian=JacobianStrategy("frozen"), retry_fresh_jacobian=True)
    state = init_state(problem, z0, config.jacobian, config.hessian, None)
    bad = replace(state, A=np.zeros((1, 2)),
                  m_corr=correction_vector(problem, z0.x, z0.y, np.zeros((1, 2))))
    new = apcscp_step(bad, problem, 1.5, config)
    assert len(solves) == 2 and len(presolved) == 2
    assert solves[0][1].kept.size == 0  # the zero row is dropped
    assert solves[1][1].A is solves[1][0] and np.any(solves[1][0])
    assert new.A is solves[1][0] and new.fixed is solves[1][1]


@pytest.mark.parametrize("jacobian", ["exact", "frozen"])
def test_an_oracle_that_refills_one_array_gets_a_fresh_presolve(monkeypatch, jacobian):
    # g_jac writes every evaluation into one array and returns it, so each
    # exact model is the same object with new values: every solve still gets
    # the presolve of the values it solves with, and the trace is bit for bit
    # that of an oracle returning new arrays
    problem, samples, z0 = _short_track("cascade")
    buffer = np.empty((problem.m, problem.n))

    def refilled(x):
        buffer[:] = problem.g_jac(x)
        return buffer

    config = TrackerConfig(jacobian=JacobianStrategy(jacobian), retry_fresh_jacobian=True)
    fresh = track(problem, samples, z0, config)
    presolved, solves = _presolve_probe(monkeypatch)
    spied = tracking_module.solve_subproblem
    nulls = []

    def checked(sp, opts, warm, fixed):
        nulls.append(np.linalg.norm(sp.A_eq @ fixed.Z) / np.linalg.norm(sp.A_eq))
        return spied(sp, opts, warm, fixed)

    monkeypatch.setattr(tracking_module, "solve_subproblem", checked)
    reused = track(replace(problem, g_jac=refilled), samples, z0, config)
    assert len(presolved) == (len(samples) if jacobian == "exact" else 1)
    assert len(nulls) == len(samples) and max(nulls) <= 1e-12
    for a, b in zip(fresh, reused):
        assert (a.step_status, a.solver_iters) == (b.step_status, b.solver_iters)
        assert a.x.tobytes() == b.x.tobytes() and a.y.tobytes() == b.y.tobytes()


def test_a_state_given_another_matrix_gets_its_presolve(monkeypatch):
    # a state that carries the presolve of its A, replaced by one with another
    # A, is presolved again for that A before the solve
    problem, samples, z0 = _short_track("cascade")
    config = TrackerConfig(jacobian=JacobianStrategy("frozen"))
    state = init_state(problem, z0, config.jacobian, config.hessian, None)
    state = apcscp_step(state, problem, samples[0], config)
    assert state.fixed is not None and state.fixed.A is state.A
    presolved, solves = _presolve_probe(monkeypatch)
    other = replace(state, A=1.01 * state.A)
    new = apcscp_step(other, problem, samples[1], config)
    assert len(presolved) == 1 and presolved[0] is other.A
    assert solves[0][1].A is other.A
    assert np.linalg.norm(other.A @ solves[0][1].Z) <= 1e-12 * np.linalg.norm(other.A)
    assert new.A is other.A and new.fixed is solves[0][1]


def test_carried_presolve_gives_the_trace_of_a_fresh_one(monkeypatch):
    # the same frozen track, once with the carried presolve and once with
    # every solve building its own: bit for bit the same trace
    problem, samples, z0 = _short_track("cascade")
    config = TrackerConfig(jacobian=JacobianStrategy("frozen"))
    carried = track(problem, samples, z0, config)
    solve = tracking_module.solve_subproblem
    monkeypatch.setattr(tracking_module, "solve_subproblem",
                        lambda sp, opts, warm, fixed: solve(sp, opts, warm, None))
    fresh = track(problem, samples, z0, config)
    assert len(carried) == len(fresh) == len(samples) + 1
    for a, b in zip(carried, fresh):
        assert (a.step_status, a.solver_iters) == (b.step_status, b.solver_iters)
        assert a.x.tobytes() == b.x.tobytes() and a.y.tobytes() == b.y.tobytes()


def test_a_non_finite_jacobian_model_ends_max_iter_without_a_presolve():
    problem = tutorial_problem()
    z0, _ = tutorial_solution(1.2)
    config = TrackerConfig(jacobian=JacobianStrategy("frozen"))
    state = init_state(problem, z0, config.jacobian, config.hessian, None)
    bad = replace(state, A=np.full_like(state.A, np.nan))
    with pytest.raises(StepError) as info:
        apcscp_step(bad, problem, np.array([1.45]), config)
    sol = info.value.solution
    assert (sol.status, sol.iterations) == (SolveStatus.MAX_ITER, 0)
    assert info.value.state.fixed is None
