"""Online tracking algorithms and the offline full-step solver.

One convex subproblem per parameter sample.  The adjoint-corrected step
(apcscp_step) works with an inexact equality Jacobian and repairs the
mismatch through the correction vector; the exact-Jacobian variant
(pcscp_step) carries no correction term; the Gauss-Newton baseline
(rtgn_step) additionally replaces cone and ellipsoid members by tangent
halfspaces, so its subproblem is a plain QP.  fascp_solve iterates the
corrected step at a fixed parameter until the primal step stalls, and
track drives a step function across a parameter schedule, recording one
diagnostic row per sample.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .errors import DimensionError, OracleError, ProjectionError, StepError, UsageError
from .jacobians import (
    EvalCounters,
    HessianStrategy,
    IterateState,
    JacobianStrategy,
    adjoint_product,
    correction_vector,
    full_jacobian,
    init_state,
    model_is_g_jac,
    update_hessian,
    update_jacobian,
)
from .ipm import _presolve_equalities, solve_subproblem
from .problem import KKTResidual, PrimalDual, checked_output, kkt_residual
from .region import AffineInequality, ConvexRegion, region_violation
from .subproblem import SolveStatus, SolverOptions, build_subproblem

_VARIANTS = ("apcscp", "pcscp", "rtgn")
_EXACT_KINDS = ("exact", "fd")


@dataclass(frozen=True, eq=False)
class TrackerConfig:
    """Which step variant runs and how its models evolve.

    The exact-Jacobian variants (pcscp, rtgn) reject frozen and secant
    Jacobian strategies; the adjoint-corrected variant accepts any.
    With retry_fresh_jacobian set, a failed subproblem holds the iterate,
    rebuilds every model from an exact Jacobian and retries the sample
    once before giving up.
    """

    variant: str = "apcscp"
    jacobian: JacobianStrategy = JacobianStrategy()
    hessian: HessianStrategy = HessianStrategy()
    solver_opts: SolverOptions = SolverOptions()
    record_oracle_error: bool = False
    retry_fresh_jacobian: bool = False

    def __post_init__(self):
        if self.variant not in _VARIANTS:
            raise UsageError(f"unknown tracking variant {self.variant!r}")
        if self.variant != "apcscp" and self.jacobian.kind not in _EXACT_KINDS:
            raise UsageError(
                f"variant {self.variant!r} needs an exact or fd jacobian "
                f"strategy, got {self.jacobian.kind!r}"
            )


@dataclass(frozen=True, eq=False)
class TrackRecord:
    """One row of a tracking trace, evaluated against P(xi) at this sample.

    step_status and solver_iters are None on the initial record (no
    subproblem was solved to produce the start point); jac_error and
    oracle_error are None when the diagnostic is unavailable or disabled.
    """

    k: int
    xi: np.ndarray
    x: np.ndarray
    y: np.ndarray
    step_status: Optional[SolveStatus]
    solver_iters: Optional[int]
    kkt: KKTResidual
    region_violation: float
    jac_error: Optional[float] = None
    oracle_error: Optional[float] = None


@dataclass
class TrackingTrace:
    """Per-sample records plus run-level accounting.

    Record 0 is the supplied start point evaluated against the first
    sample; each processed sample appends one record, so a completed run
    over N samples holds N + 1 records.  An aborted run additionally
    holds one record for the failed sample (held iterate, failure
    status) and stops there; when the diagnostics of a record fail
    (oracle, projection or a callback's output shape), or a step gets a
    callback output of the wrong shape (g, its finite-difference columns,
    g_adjoint, g_jac or lagrangian_hessian), the run stops without that
    record.  message names the step or record and the failure.
    """

    records: list = field(default_factory=list)
    counters: EvalCounters = field(default_factory=EvalCounters)
    aborted: bool = False
    message: str = ""

    def __len__(self):
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def column(self, name):
        """One trace field across all records, None entries included."""
        return [getattr(r, name) for r in self.records]


@dataclass(frozen=True, eq=False)
class FascpRecord:
    """One full-step iteration: accepted iterate, step norm, residuals."""

    j: int
    z: PrimalDual
    step_inf_norm: float
    kkt: KKTResidual
    solver_iters: int = 0


@dataclass
class FascpTrace:
    """Iteration log of one fixed-parameter solve."""

    records: list = field(default_factory=list)
    converged: bool = False
    final_kkt: Optional[KKTResidual] = None
    counters: EvalCounters = field(default_factory=EvalCounters)

    def __len__(self):
        return len(self.records)

    def __iter__(self):
        return iter(self.records)


def _linearize_region(region, x):
    """Tangent-halfspace relaxation of the curved members at x.

    Box and affine members pass through unchanged.  Each curved member
    becomes the first-order expansion of its boundary function at x (for
    a cone at its apex, with the subgradient -e); for an ellipsoid this is
    the tangent halfspace of its boundary level set through x.  Members
    with a vanishing gradient are dropped when locally satisfied and kept
    as an unsatisfiable row otherwise, so infeasibility stays visible.
    """
    scale = 1.0 + float(np.linalg.norm(x))
    affine = list(region.affine)
    for m in region.cones + region.ellipsoids:
        phi, grad = m.boundary(x)
        if np.linalg.norm(grad) > 1e-14 * scale or phi > 0.0:
            affine.append(AffineInequality(grad, float(grad @ x) - phi))
    return ConvexRegion(region.lower, region.upper, tuple(affine), (), ())


def _attempt(problem, state, xi, config, counters, region=None):
    """One subproblem solve at xi around the carried iterate: (state, solution).

    The returned state carries the presolve of its A, built here when the
    state has none or one of another matrix (``fixed.A`` is the A it was
    built from); a non-finite A gets none, and its solve ends max_iter.
    """
    sp = build_subproblem(problem, state, xi)
    if region is not None:
        sp = replace(sp, region=region)
    if state.fixed is None or state.fixed.A is not sp.A_eq:
        finite = np.all(np.isfinite(sp.A_eq))
        state = replace(state, fixed=_presolve_equalities(sp.A_eq) if finite else None)
    sol = solve_subproblem(sp, config.solver_opts, state.z, state.fixed)
    counters.solver_iters += sol.iterations
    return state, sol


def _carried(problem, z, A, is_g_jac, config, counters):
    """(m_corr, adj_y) of a state at z with Jacobian model A.

    apcscp: one adjoint product at z and the correction vector against A.
    The exact-Jacobian variants carry no correction term, and cache A' y
    when A is g_jac at z.
    """
    if config.variant == "apcscp":
        counters.adjoint_evals += 1
        adj = adjoint_product(problem, z.x, z.y)
        return correction_vector(problem, z.x, z.y, A, adj), adj
    return np.zeros(problem.n), (A.T @ z.y if is_g_jac else None)


def _refresh_state(problem, state, config, counters):
    """Hold the iterate, rebuild the models from an exact Jacobian; the held
    x keeps its certified distance, and the presolve of the old A is dropped."""
    A = full_jacobian(problem, state.z.x, config.jacobian.fd_step, counters, state.g_x)
    is_g_jac = problem.g_jac is not None
    m, adj = _carried(problem, state.z, A, is_g_jac, config, counters)
    return replace(state, A=A, A_is_g_jac=is_g_jac, m_corr=m, adj_y=adj, fixed=None)


def _model_update(problem, state, config, sol, counters):
    """Advance the carried models to the accepted iterate.

    Exactly one g evaluation (cached for the next right-hand side) and,
    for the adjoint-corrected variant, one adjoint product against the
    refreshed Jacobian model; the exact-Jacobian variants cache A' y when
    A is g_jac at the new x.  Frozen and secant strategies never see a
    full Jacobian evaluation here.  The new state keeps the solve's
    certified region distance, except under rtgn, whose region is the
    linearised one, and the presolve of A when update_jacobian returns the
    same A (a frozen model, a skipped secant step; a fresh evaluation is a
    new array, ``checked_output``).
    """
    z_new = PrimalDual(sol.x, sol.y)
    counters.g_evals += 1
    g_new = checked_output("g", problem.g(z_new.x), (problem.m,))
    k_new = state.k + 1
    A_new = update_jacobian(
        config.jacobian, problem, state.A, state.z.x, z_new.x, state.g_x, g_new, k_new, counters
    )
    is_g_jac = model_is_g_jac(config.jacobian, problem, k_new)
    m_new, adj_new = _carried(problem, z_new, A_new, is_g_jac, config, counters)
    H_new = update_hessian(config.hessian, problem, z_new.x, z_new.y)
    dist = None if config.variant == "rtgn" else sol.residuals.region_distance
    return IterateState(
        z=z_new, A=A_new, H=H_new, m_corr=m_new, k=k_new, g_x=g_new, adj_y=adj_new,
        A_is_g_jac=is_g_jac, region_distance=dist,
        fixed=state.fixed if A_new is state.A else None,
    )


def _tracked_step(problem, state, xi, config, counters=None):
    """One tracking step: (new state, subproblem solution).  Counts into fresh
    counters when given none; a state without a cached g(x) gets it here."""
    counters = counters or EvalCounters()
    if state.g_x is None:
        counters.g_evals += 1
        state = replace(state, g_x=checked_output("g", problem.g(state.z.x), (problem.m,)))
    region = _linearize_region(problem.region, state.z.x) if config.variant == "rtgn" else None
    state, sol = _attempt(problem, state, xi, config, counters, region)
    if sol.status is not SolveStatus.OPTIMAL and config.retry_fresh_jacobian:
        state = _refresh_state(problem, state, config, counters)
        state, sol = _attempt(problem, state, xi, config, counters, region)
    if sol.status is not SolveStatus.OPTIMAL:
        raise StepError(
            f"subproblem returned {sol.status.value} at sample {state.k + 1}",
            state=state,
            solution=sol,
        )
    return _model_update(problem, state, config, sol, counters), sol


def apcscp_step(state, problem, xi_next, config, counters=None):
    """Adjoint-corrected step to the next parameter sample.

    One subproblem solve warm-started at the carried iterate, one g
    evaluation at the accepted point, one adjoint product.  The Jacobian
    model evolves per the configured strategy; the correction vector
    repairs whatever mismatch remains.
    """
    cfg = config if config.variant == "apcscp" else replace(config, variant="apcscp")
    state, _ = _tracked_step(problem, state, xi_next, cfg, counters)
    return state


def pcscp_step(state, problem, xi_next, config, counters=None):
    """Exact-Jacobian step: A recomputed at each iterate, no correction."""
    cfg = config if config.variant == "pcscp" else replace(config, variant="pcscp")
    state, _ = _tracked_step(problem, state, xi_next, cfg, counters)
    return state


def rtgn_step(state, problem, xi_next, config, counters=None):
    """Gauss-Newton baseline: curved members linearized at the iterate.

    The subproblem region keeps boxes and affine members and swaps each
    cone and ellipsoid for its tangent halfspace, so the step solves a
    QP.  The curvature model still enters the objective unchanged.
    """
    cfg = config if config.variant == "rtgn" else replace(config, variant="rtgn")
    state, _ = _tracked_step(problem, state, xi_next, cfg, counters)
    return state


def _state_kkt(problem, state, xi):
    """KKT residual of the carried iterate, reusing its cached g, adjoint and
    region distance."""
    return kkt_residual(problem, state.z, xi, g_x=state.g_x, adj_y=state.adj_y,
                        region_distance=state.region_distance)


def fascp_solve(problem, xi, z0, config=None, eps=1e-8, max_iter=50, kkt_stop=None):
    """Full-step iteration at a fixed parameter until the step stalls.

    Runs the adjoint-corrected update with the configured Jacobian and
    curvature strategies, taking the full subproblem step each time.
    Stops once the infinity norm of the primal step drops to eps, or
    earlier when kkt_stop is given and the residual already sits below
    it (consecutive warm solves wobble at the solver's placement noise,
    so a step-norm test tighter than that noise would never fire).  When
    max_iter runs out first, the trace is flagged non-converged and the
    iterate with the smallest KKT residual is returned.  A subproblem
    failure (StepError) or a callback output of the wrong shape in a step
    (DimensionError) is raised with the partial trace attached as
    err.trace, its final_kkt the best residual so far.
    """
    if eps <= 0.0:
        raise UsageError("eps must be positive")
    if max_iter < 1:
        raise UsageError("max_iter must be at least 1")
    config = config or TrackerConfig()
    if config.variant != "apcscp":
        config = replace(config, variant="apcscp")
    xi = problem.check_xi(xi)
    counters = EvalCounters()
    trace = FascpTrace(counters=counters)
    state = init_state(problem, z0, config.jacobian, config.hessian, counters)
    kkt = _state_kkt(problem, state, xi)
    best = (kkt.total, state.z, kkt)
    for j in range(1, max_iter + 1):
        x_prev = state.z.x
        try:
            state, sol = _tracked_step(problem, state, xi, config, counters)
        except (StepError, DimensionError) as err:
            trace.final_kkt = best[2]
            err.trace = trace
            raise
        step_norm = float(np.max(np.abs(state.z.x - x_prev)))
        kkt = _state_kkt(problem, state, xi)
        trace.records.append(FascpRecord(j, state.z, step_norm, kkt, sol.iterations))
        if kkt.total < best[0]:
            best = (kkt.total, state.z, kkt)
        if step_norm <= eps or (kkt_stop is not None and kkt.total <= kkt_stop):
            trace.converged = True
            trace.final_kkt = kkt
            return state.z, trace
    trace.final_kkt = best[2]
    return best[1], trace


def oracle_solution(problem, xi, hint):
    """High-accuracy solution of P(xi), warm-started at hint.

    Full-step iteration with exact Jacobians, projected Lagrangian
    curvature when the problem carries a second-order callback, and a
    tight step tolerance.  Anything short of an accurate KKT point is an
    oracle failure, never silently reported as a tracking error.
    """
    hess = "projected" if problem.lagrangian_hessian is not None else "zero"
    cfg = TrackerConfig(
        jacobian=JacobianStrategy(kind="exact"),
        hessian=HessianStrategy(kind=hess),
        solver_opts=SolverOptions(tol=1e-10, max_iter=300),
    )
    z, trace = fascp_solve(problem, xi, hint, cfg, eps=1e-10, max_iter=100, kkt_stop=1e-9)
    if trace.final_kkt.total > 1e-8:
        raise OracleError(
            f"reference solve stalled at kkt {trace.final_kkt.total:.3e} for xi={xi}"
        )
    return z


def _make_record(problem, xi, state, status, iters, config, oracle, k):
    """Diagnostics of the carried iterate against P(xi); jac_error is 0.0
    without a g_jac call when the state's A is g_jac at its own x."""
    z = state.z
    kkt = _state_kkt(problem, state, xi)
    viol = region_violation(problem.region, z.x)
    jac_err = None
    if state.A_is_g_jac:
        jac_err = 0.0
    elif problem.g_jac is not None:
        exact = checked_output("g_jac", problem.g_jac(z.x), (problem.m, problem.n))
        jac_err = float(np.linalg.norm(exact - state.A))
    oracle_err = None
    if config.record_oracle_error and oracle is not None:
        zbar = oracle(problem, xi, z)
        oracle_err = float(
            np.linalg.norm(np.concatenate([z.x - zbar.x, z.y - zbar.y]))
        )
    return TrackRecord(
        k=k,
        xi=np.array(xi),
        x=np.array(z.x),
        y=np.array(z.y),
        step_status=status,
        solver_iters=iters,
        kkt=kkt,
        region_violation=float(viol),
        jac_error=jac_err,
        oracle_error=oracle_err,
    )


def _append_record(trace, problem, xi, state, status, iters, config, oracle, k):
    """Append record k; a failed diagnostic aborts the trace instead."""
    try:
        trace.records.append(_make_record(problem, xi, state, status, iters, config, oracle, k))
    except (DimensionError, OracleError, ProjectionError) as err:
        note = f"record {k}: {err}"
        trace.message = f"{trace.message}; {note}" if trace.message else note
        trace.aborted = True
        return False
    return True


def track(problem, xi_sequence, z0, config=None, oracle=None):
    """Drive the configured step variant across a parameter schedule.

    xi_sequence is either an iterable of parameter values or a callable
    (z, k) -> xi-or-None that produces sample k after seeing the current
    iterate (closed-loop use; None ends the run).  Record 0 evaluates
    the supplied start point against the first sample, then each sample
    appends one record.  When oracle errors are enabled, the reference
    point per sample comes from a tight full-step solve warm-started at
    the current iterate (or from the supplied oracle callable).  A
    failed sample appends a record with the failure status and the held
    iterate, marks the trace aborted and returns it.  An oracle or
    projection failure while evaluating a record, and a callback output
    of the wrong shape (DimensionError) in a step or a record, likewise
    return the trace aborted, holding the records finished before it.
    Only a failure while building the start models raises.
    """
    config = config or TrackerConfig()
    counters = EvalCounters()
    trace = TrackingTrace(counters=counters)

    if callable(xi_sequence):
        sample = xi_sequence
    else:
        seq = [problem.check_xi(v) for v in xi_sequence]

        def sample(z, k):
            return seq[k] if k < len(seq) else None

    state = init_state(problem, z0, config.jacobian, config.hessian, counters)
    if config.variant != "apcscp":
        # exact-Jacobian variants carry no correction term
        state = replace(state, m_corr=np.zeros(problem.n))
    xi = sample(state.z, 0)
    if xi is None:
        raise UsageError("parameter schedule is empty")
    xi = problem.check_xi(xi)
    fn = oracle if oracle is not None else oracle_solution
    if not _append_record(trace, problem, xi, state, None, None, config, fn, 0):
        return trace
    k = 0
    while xi is not None:
        try:
            state, sol = _tracked_step(problem, state, xi, config, counters)
        except StepError as err:  # a failed solve: record the held iterate
            trace.aborted = True
            trace.message = f"step {k + 1}: {err}"
            failed = err.solution
            _append_record(
                trace, problem, xi, err.state, failed.status, failed.iterations,
                config, None, k + 1,
            )
            return trace
        except DimensionError as err:
            trace.aborted = True
            trace.message = f"step {k + 1}: {err}"
            return trace
        if not _append_record(
            trace, problem, xi, state, sol.status, sol.iterations, config, fn, k + 1
        ):
            return trace
        k += 1
        xi = sample(state.z, k)
        if xi is not None:
            xi = problem.check_xi(xi)
    return trace
