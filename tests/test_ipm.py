"""Conic subproblem solver against closed-form and sampled oracles."""

import time
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
import scipy.sparse

from conftest import feasible_samples, random_subproblem
from scptrack import (
    ClosedLoopPlant,
    HessianStrategy,
    JacobianStrategy,
    TrackerConfig,
    steady_start,
    track,
)
from scptrack import ipm as ipm_module
from scptrack import region as region_module
from scptrack.errors import ProjectionError
from scptrack.problem import PrimalDual
from scptrack.cascade import CascadeConfig, cascade_problem, steady_state
from scptrack.jacobians import init_state
from scptrack.tutorial import tutorial_problem, tutorial_solution
from scptrack.ipm import (
    _Cones,
    _NullSpaceKKT,
    _bands,
    _Scaling,
    _lu_presolve,
    _polish_duals,
    _presolve_equalities,
    assemble_cones,
    solve_subproblem,
)
from scptrack.region import (
    AffineInequality,
    ConvexRegion,
    Ellipsoid,
    SecondOrderCone,
    project_region,
    region_violation,
)
from scptrack.subproblem import ConvexSubproblem, SolveStatus, SolverOptions, build_subproblem


def _plain(c, region, H=None, A=None, b=None, x_ref=None):
    n = len(c)
    return ConvexSubproblem(
        c=c,
        m_corr=np.zeros(n),
        H=np.zeros((n, n)) if H is None else H,
        x_ref=np.zeros(n) if x_ref is None else x_ref,
        A_eq=np.zeros((0, n)) if A is None else A,
        b_eq=np.zeros(0) if b is None else b,
        region=region,
    )


def test_box_lp_hits_vertex():
    region = ConvexRegion(lower=[-1.0, -2.0, 0.0], upper=[2.0, 1.0, 3.0])
    sol = solve_subproblem(_plain([1.0, -1.0, 2.0], region))
    assert sol.status is SolveStatus.OPTIMAL
    np.testing.assert_allclose(sol.x, [-1.0, 1.0, 0.0], atol=1e-8)


def test_equality_qp_matches_kkt_solve():
    rng = np.random.default_rng(31)
    n, m = 5, 2
    B = rng.normal(size=(n, n))
    H = B @ B.T + 0.5 * np.eye(n)
    c = rng.normal(size=n)
    A = rng.normal(size=(m, n))
    x_feas = rng.normal(size=n) * 0.1

    kkt = np.zeros((n + m, n + m))
    kkt[:n, :n] = H
    kkt[:n, n:] = A.T
    kkt[n:, :n] = A
    rhs = np.concatenate([-c, A @ x_feas])
    ref = np.linalg.solve(kkt, rhs)

    # an inactive box goes through the interior-point loop; the unbounded
    # region has no cone and goes through the equality-constrained QP path
    for region in (
        ConvexRegion(lower=np.full(n, -50.0), upper=np.full(n, 50.0)),
        ConvexRegion.unbounded(n),
    ):
        sol = solve_subproblem(_plain(c, region, H=H, A=A, b=-(A @ x_feas)))
        assert sol.status is SolveStatus.OPTIMAL
        np.testing.assert_allclose(sol.x, ref[:n], atol=1e-7)
        np.testing.assert_allclose(sol.y, ref[n:], atol=1e-6)


def test_ball_lp_closed_form():
    # min c.x over ||x|| <= f: optimum is -f c/||c||
    c = np.array([3.0, -4.0])
    region = ConvexRegion(
        lower=[-np.inf, -np.inf],
        upper=[np.inf, np.inf],
        cones=(SecondOrderCone(D=np.eye(2), d=np.zeros(2), e=np.zeros(2), f=2.0),),
    )
    sol = solve_subproblem(_plain(c, region))
    assert sol.status is SolveStatus.OPTIMAL
    np.testing.assert_allclose(sol.x, -2.0 * c / 5.0, atol=1e-7)


def test_ellipsoid_lp_closed_form():
    # min c.x over (x-w).S.(x-w) <= r: x* = w - S^-1 c sqrt(r / c.S^-1.c)
    rng = np.random.default_rng(33)
    B = rng.normal(size=(3, 3))
    S = B @ B.T + 0.5 * np.eye(3)
    w = rng.normal(size=3)
    c = rng.normal(size=3)
    r = 2.3
    region = ConvexRegion(
        lower=np.full(3, -np.inf),
        upper=np.full(3, np.inf),
        ellipsoids=(Ellipsoid(center=w, shape=S, radius=r),),
    )
    sinv_c = np.linalg.solve(S, c)
    want = w - sinv_c * np.sqrt(r / (c @ sinv_c))
    sol = solve_subproblem(_plain(c, region))
    assert sol.status is SolveStatus.OPTIMAL
    np.testing.assert_allclose(sol.x, want, atol=1e-6)


def test_halfspace_qp_projection():
    # min ||x - v||^2 over a.x <= b is the halfspace projection
    a = np.array([1.0, 1.0])
    v = np.array([2.0, 2.0])
    region = ConvexRegion(
        lower=[-np.inf, -np.inf],
        upper=[np.inf, np.inf],
        affine=(AffineInequality(a, 1.0),),
    )
    sp = _plain(-v, region, H=np.eye(2))
    sol = solve_subproblem(sp)
    assert sol.status is SolveStatus.OPTIMAL
    want = v - ((a @ v - 1.0) / 2.0) * a
    np.testing.assert_allclose(sol.x, want, atol=1e-8)


def test_infeasible_box_equality():
    region = ConvexRegion(lower=[0.0, 0.0], upper=[1.0, 1.0])
    sp = _plain(
        [1.0, 0.0], region, A=np.array([[1.0, 0.0]]), b=np.array([-5.0])
    )
    sol = solve_subproblem(sp, SolverOptions(tikhonov_retry=False))
    assert sol.status is SolveStatus.INFEASIBLE


def test_infeasible_cone_equality():
    region = ConvexRegion(
        lower=[-np.inf, -np.inf],
        upper=[np.inf, np.inf],
        cones=(SecondOrderCone(D=np.eye(2), d=np.zeros(2), e=np.zeros(2), f=1.0),),
    )
    sp = _plain(
        [0.0, 1.0], region, A=np.array([[1.0, 0.0]]), b=np.array([-3.0])
    )
    sol = solve_subproblem(sp, SolverOptions(tikhonov_retry=False))
    assert sol.status is SolveStatus.INFEASIBLE


def test_inconsistent_duplicate_rows_detected():
    A = np.array([[1.0, 1.0], [1.0, 1.0]])
    for region in (ConvexRegion(lower=[0.0, 0.0], upper=[2.0, 2.0]), ConvexRegion.unbounded(2)):
        sp = _plain([1.0, 0.0], region, A=A, b=np.array([-1.0, -1.5]))
        sol = solve_subproblem(sp, SolverOptions(tikhonov_retry=False))
        assert sol.status is SolveStatus.INFEASIBLE
        # the dropped row is checked once, before the first iteration
        assert sol.iterations == 0


def test_consistent_duplicate_rows_solved():
    region = ConvexRegion(lower=[0.0, 0.0], upper=[2.0, 2.0])
    A = np.array([[1.0, 1.0], [2.0, 2.0]])
    sp = _plain([1.0, 0.0], region, A=A, b=np.array([-1.0, -2.0]))
    sol = solve_subproblem(sp)
    assert sol.status is SolveStatus.OPTIMAL
    np.testing.assert_allclose(sol.x, [0.0, 1.0], atol=1e-8)


def test_unbounded_direction_detected():
    # a half-open box, and no bound or member at all, which the no-cone path
    # decides by itself
    for region in (ConvexRegion(lower=[0.0, -np.inf], upper=[1.0, np.inf]),
                   ConvexRegion.unbounded(2)):
        sp = _plain([0.0, 1.0], region)
        sol = solve_subproblem(sp, SolverOptions(tikhonov_retry=False))
        assert sol.status is SolveStatus.UNBOUNDED
        assert not sol.regularized
        raw = sol
        # by default the zero curvature model is retried with a tikhonov term
        sol = solve_subproblem(sp)
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.regularized
        # the retry is the subproblem with H = tik I, and both attempts count
        tik = 1e-6 * (1.0 + np.linalg.norm(sp.c))
        retry = solve_subproblem(replace(sp, H=tik * np.eye(2)))
        assert sol.iterations == raw.iterations + retry.iterations
        # centred at x_ref: the term is tik ||x - x_ref||^2 / 2
        sp = _plain([0.0, 1.0], region, x_ref=np.array([0.5, -3.0]))
        sol = solve_subproblem(sp)
        retry = solve_subproblem(replace(sp, H=tik * np.eye(2)))
        assert sol.status is retry.status is SolveStatus.OPTIMAL
        assert sol.regularized and not retry.regularized
        np.testing.assert_allclose(sol.x, retry.x, rtol=0.0,
                                   atol=1e-9 * (1.0 + np.linalg.norm(retry.x)))


def test_warm_start_reconverges_fast():
    rng = np.random.default_rng(35)
    sp = random_subproblem("cone", rng)
    cold = solve_subproblem(sp)
    assert cold.status is SolveStatus.OPTIMAL
    warm = solve_subproblem(sp, warm=PrimalDual(cold.x, cold.y))
    assert warm.status is SolveStatus.OPTIMAL
    assert warm.iterations <= cold.iterations
    np.testing.assert_allclose(warm.x, cold.x, atol=1e-6)


@pytest.mark.parametrize("kind", ["box", "affine", "cone", "ellipsoid"])
def test_random_instances_kkt_and_objective(kind):
    rng = np.random.default_rng(37)
    for _ in range(12):
        sp = random_subproblem(kind, rng)
        sol = solve_subproblem(sp)
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.residuals.total <= 1e-7
        assert region_violation(sp.region, sol.x) <= 1e-7

        # no sampled feasible point does better
        obj = sp.objective(sol.x)
        scale = 1.0 + abs(obj)
        samples = feasible_samples(sp, rng)
        assert len(samples) == 10
        for w in samples:
            assert obj <= sp.objective(w) + 1e-5 * scale


def test_tight_tolerance_solutions():
    rng = np.random.default_rng(39)
    opts = SolverOptions(tol=1e-10)
    for kind in ("cone", "ellipsoid"):
        sp = random_subproblem(kind, rng)
        sol = solve_subproblem(sp, opts)
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.residuals.stationarity <= 1e-9
        assert sol.residuals.equality <= 1e-10


def test_iteration_budget_is_respected():
    rng = np.random.default_rng(41)
    sp = random_subproblem("ellipsoid", rng)
    opts = SolverOptions(max_iter=1, tikhonov_retry=False)
    sol = solve_subproblem(sp, opts)
    assert sol.iterations <= 1
    # a spent budget is max_iter unless the returned pair is certified, and a
    # certified pair reports the residuals it was certified on
    assert sol.status in (SolveStatus.OPTIMAL, SolveStatus.MAX_ITER)
    res = sol.residuals
    if sol.status is SolveStatus.OPTIMAL:
        assert res.stationarity <= 10.0 * opts.tol
        assert max(res.equality, res.region_distance) <= opts.tol
        assert res.total <= 10.0 * opts.tol


def _assemble_rows_reference(region):
    """Conic rows built one at a time, ellipsoids by their own square root."""
    rows, rhs = [], []
    for i in np.flatnonzero(np.isfinite(region.lower)):
        rows.append(-np.eye(region.n)[i])
        rhs.append(-region.lower[i])
    for i in np.flatnonzero(np.isfinite(region.upper)):
        rows.append(np.eye(region.n)[i])
        rhs.append(region.upper[i])
    for m in region.affine:
        rows.append(m.a)
        rhs.append(m.b)
    l, dims = len(rows), []
    for m in region.cones:
        rows += [-m.e] + [-r for r in m.D]
        rhs += [m.f] + list(m.d)
        dims.append(m.D.shape[0] + 1)
    for m in region.ellipsoids:
        lam, u = np.linalg.eigh(m.shape)
        keep = lam > 1e-14 * max(1.0, lam[-1])
        root = np.sqrt(lam[keep])[:, None] * u[:, keep].T
        rows += [np.zeros(region.n)] + [-r for r in root]
        rhs += [np.sqrt(m.radius)] + list(-(root @ m.center))
        dims.append(root.shape[0] + 1)
    return np.array(rows).reshape(-1, region.n), np.array(rhs, dtype=float), l, dims


def test_assemble_cones_matches_row_by_row_reference():
    rng = np.random.default_rng(43)
    regions = [ConvexRegion.unbounded(3)]
    for n_tanks, horizon in ((3, 8), (8, 24)):
        cfg = CascadeConfig(n_tanks=n_tanks, horizon=horizon)
        regions.append(cascade_problem(cfg, steady_state(cfg, 1.0)).region)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        ranks = rng.integers(1, n + 1, size=rng.integers(0, 3))
        ellipsoids = []
        for k in ranks:
            B = rng.normal(size=(n, k))
            ellipsoids.append(Ellipsoid(rng.normal(size=n), B @ B.T, rng.uniform(0.5, 2.0)))
        regions.append(ConvexRegion(
            np.where(rng.random(n) < 0.3, -np.inf, rng.uniform(-3.0, -0.5, n)),
            np.where(rng.random(n) < 0.3, np.inf, rng.uniform(0.5, 3.0, n)),
            tuple(AffineInequality(rng.normal(size=n), 1.0) for _ in range(rng.integers(0, 3))),
            tuple(SecondOrderCone(rng.normal(size=(2, n)), rng.normal(size=2),
                                  rng.normal(size=n), 2.0) for _ in range(rng.integers(0, 3))),
            tuple(ellipsoids),
        ))
    for region in regions:
        G, Gt, h, cones = assemble_cones(region)
        G_ref, h_ref, l_ref, dims_ref = _assemble_rows_reference(region)
        np.testing.assert_array_equal(_dense(G), G_ref)
        np.testing.assert_array_equal(_dense(Gt), G_ref.T)
        np.testing.assert_array_equal(h, h_ref)
        assert (cones.l, cones.soc_dims) == (l_ref, dims_ref)


def _dense(M):
    return M.toarray() if scipy.sparse.issparse(M) else M


def test_cascade_conic_rows_are_csr_at_8x24_and_dense_at_3x8():
    # a dense product of the 8x24 rows (475 x 225, 1% nonzero) costs about
    # three CSR products; at 3x8 (81 x 36) a dense one is cheaper
    for (n_tanks, horizon), sparse in (((3, 8), False), ((8, 24), True)):
        cfg = CascadeConfig(n_tanks=n_tanks, horizon=horizon)
        region = cascade_problem(cfg, steady_state(cfg, 1.0)).region
        G, Gt, h, cones = assemble_cones(region)
        assert scipy.sparse.issparse(G) is scipy.sparse.issparse(Gt) is sparse
        if sparse:
            assert G.format == Gt.format == "csr"
        else:
            assert Gt.base is G
        # built once per region
        assert assemble_cones(region)[0] is G
        G_ref, h_ref, l_ref, dims_ref = _assemble_rows_reference(region)
        np.testing.assert_array_equal(_dense(G), G_ref)
        np.testing.assert_array_equal(_dense(Gt), G_ref.T)
        np.testing.assert_array_equal(h, h_ref)
        assert (cones.l, cones.soc_dims) == (l_ref, dims_ref)


def test_dual_refit_bounds_a_negative_normal_multiplier():
    # the unbounded fit of grad0 + A' y + N' lam = 0 gives an active normal a
    # negative lam, so the refit returns None and leaves the interior point's y
    rng = np.random.default_rng(11)
    n = 4
    lower = np.array([0.0, 0.0, -np.inf, -np.inf])
    region = ConvexRegion(lower, np.full(n, np.inf))
    A = rng.normal(size=(2, n))
    sp = _plain(np.zeros(n), region, A=A, b=np.zeros(2))
    x = np.array([0.0, 0.0, 1.0, -1.0])  # both lower bounds active
    N = -np.eye(n)[:2]
    M = np.hstack([A.T, N.T])
    grad0 = -(M @ np.array([0.5, -1.0, 2.0, -3.0])) + 0.1 * rng.normal(size=n)
    unbounded, *_ = np.linalg.lstsq(M, -grad0, rcond=None)
    assert np.any(unbounded[2:] < 0.0)
    fixed = _presolve_equalities(A)
    assert _polish_duals(sp, x, grad0, fixed) is None

    # with every normal multiplier nonnegative the unbounded fit is returned
    grad0 = -(M @ np.array([0.5, -1.0, 2.0, 3.0]))
    np.testing.assert_allclose(_polish_duals(sp, x, grad0, fixed), [0.5, -1.0], rtol=1e-12)


def _normal_fit_case(rng, A):
    """Lower bounds on x_0 and x_1, both active at x, and a gradient that a
    nonnegative multiplier on each nearly balances."""
    n = A.shape[1]
    region = ConvexRegion(np.r_[0.0, 0.0, np.full(n - 2, -np.inf)], np.full(n, np.inf))
    sp = _plain(np.zeros(n), region, A=A, b=np.zeros(A.shape[0]))
    x = np.r_[0.0, 0.0, rng.normal(size=n - 2)]
    M = np.hstack([A.T, -np.eye(n)[:2].T])
    grad0 = -(M @ np.r_[rng.normal(size=A.shape[0]), 2.0, 3.0]) + 0.01 * rng.normal(size=n)
    return sp, x, M, grad0


def _natural_map(sp, x, grad):
    return np.linalg.norm(x - project_region(sp.region, x - grad))


def test_dual_refit_on_the_null_space_matches_the_full_fit():
    # full row rank: the fit on Z' N' followed by y = -A+' (grad0 + N' lam) is
    # the least-squares fit of the whole [A_eq' N']
    rng = np.random.default_rng(13)
    A = rng.normal(size=(3, 7))
    sp, x, M, grad0 = _normal_fit_case(rng, A)
    ref, *_ = np.linalg.lstsq(M, -grad0, rcond=None)
    assert np.all(ref[3:] > 0.0)
    y = _polish_duals(sp, x, grad0, _presolve_equalities(A))
    assert np.linalg.norm(y - ref[:3]) <= 1e-12 * np.linalg.norm(ref[:3])

    # a duplicated row: the presolve drops one copy, whose multiplier is 0,
    # and the fit certifies x exactly as the full minimum-norm fit does
    A = np.vstack([A, A[1]])
    sp, x, M, grad0 = _normal_fit_case(rng, A)
    fixed = _presolve_equalities(A)
    dropped = np.setdiff1d(np.arange(4), fixed.kept)
    assert dropped.size == 1
    ref, *_ = np.linalg.lstsq(M, -grad0, rcond=None)
    y = _polish_duals(sp, x, grad0, fixed)
    assert y[dropped] == 0.0
    want = _natural_map(sp, x, grad0 + A.T @ ref[:4])
    assert abs(_natural_map(sp, x, grad0 + A.T @ y) - want) <= 1e-12 * np.linalg.norm(grad0)


def _finish_with_spy(monkeypatch, sp, x, y, opts):
    """ipm._finish of (x, y) as an iterate of the loop (no verdict), with every
    certification projection's input recorded."""
    seen = []

    def spy(region, v):
        seen.append(np.array(v))
        return project_region(region, v)

    monkeypatch.setattr(ipm_module, "project_region", spy)
    fixed = _presolve_equalities(sp.A_eq)
    sol = ipm_module._finish(sp, x, y, fixed, None, 1, opts.tol)
    return sol, seen


def test_dual_refit_within_ten_tol_skips_the_interior_point_projection(monkeypatch):
    # min c.x on 0 <= x <= 2 with x_0 + x_1 + x_2 = 1: the answer (1, 0, 0)
    # has multiplier y = -1, and the interior point's y lags by 1e-3
    region = ConvexRegion(np.zeros(3), np.full(3, 2.0))
    sp = _plain(np.array([1.0, 2.0, 3.0]), region, A=np.ones((1, 3)), b=np.array([-1.0]))
    x, y_ipm = np.array([1.0, 0.0, 0.0]), np.array([-1.0 + 1e-3])
    opts = SolverOptions()
    assert _natural_map(sp, x, sp.gradient(x) + sp.A_eq.T @ y_ipm) > 10.0 * opts.tol
    y_refit = _polish_duals(sp, x, sp.gradient(x), _presolve_equalities(sp.A_eq))
    sol, seen = _finish_with_spy(monkeypatch, sp, x, y_ipm, opts)
    assert sol.status is SolveStatus.OPTIMAL
    np.testing.assert_array_equal(sol.y, y_refit)
    assert sol.residuals.stationarity <= 10.0 * opts.tol
    # the refit's natural map and the region distance; the interior point's y
    # is never projected
    assert len(seen) == 2
    np.testing.assert_array_equal(seen[0], x - (sp.gradient(x) + sp.A_eq.T @ y_refit))
    np.testing.assert_array_equal(seen[1], x)


def test_interior_point_y_is_certified_when_there_is_no_refit(monkeypatch):
    # no equality row and no active normal: there is nothing to refit
    region = ConvexRegion(np.zeros(2), np.ones(2))
    sp = _plain(np.array([-0.5, -0.25]), region, H=np.eye(2))
    x, y_ipm, opts = np.array([0.5, 0.25]), np.zeros(0), SolverOptions()
    assert _polish_duals(sp, x, sp.gradient(x), _presolve_equalities(sp.A_eq)) is None
    sol, seen = _finish_with_spy(monkeypatch, sp, x, y_ipm, opts)
    assert sol.status is SolveStatus.OPTIMAL
    np.testing.assert_array_equal(sol.x, x)
    np.testing.assert_array_equal(sol.y, y_ipm)
    assert sol.residuals.stationarity == _natural_map(sp, x, sp.gradient(x))
    # the interior point's natural map and the region distance
    assert len(seen) == 2
    np.testing.assert_array_equal(seen[0], x - sp.gradient(x))
    np.testing.assert_array_equal(seen[1], x)


def test_a_refit_that_falls_short_goes_to_the_primal_polish(monkeypatch):
    # x_0 sits 2e-6 above its active lower bound, beyond the refit's 1e-7
    # active test: the refit misses that normal and smears its multiplier into
    # y.  That y is the one candidate (the interior point's y = -1, within
    # 10 tol, is not projected), so the polish runs and certifies x_0 on its
    # bound; the curvature centred at x gives its Newton step a unique answer
    region = ConvexRegion([0.0, -np.inf, -np.inf], np.full(3, np.inf))
    x, A = np.array([2e-6, 0.3, 0.4]), np.array([[1.0, 1.0, 0.0]])
    sp = _plain(np.array([2.0, 1.0, 0.0]), region, H=np.eye(3), A=A, b=np.zeros(1), x_ref=x)
    y_ipm, opts = np.array([-1.0]), SolverOptions(tol=1e-6)
    y_refit = _polish_duals(sp, x, sp.gradient(x), _presolve_equalities(A))
    assert _natural_map(sp, x, sp.gradient(x) + A.T @ y_refit) > 10.0 * opts.tol
    assert _natural_map(sp, x, sp.gradient(x) + A.T @ y_ipm) <= 10.0 * opts.tol
    sol, seen = _finish_with_spy(monkeypatch, sp, x, y_ipm, opts)
    assert sol.status is SolveStatus.OPTIMAL
    assert abs(sol.x[0]) <= 1e-15  # on its bound to rounding
    assert sol.residuals.total <= 10.0 * opts.tol
    # the refit's natural map, the polished pair's and the region distance
    assert len(seen) == 3
    np.testing.assert_array_equal(seen[0], x - (sp.gradient(x) + A.T @ y_refit))
    np.testing.assert_array_equal(seen[2], sol.x)
    assert not any(np.array_equal(v, x - (sp.gradient(x) + A.T @ y_ipm)) for v in seen)


def _spectral_rule(A):
    _, r, piv = scipy.linalg.qr(A.T, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    return np.sort(piv[: int(np.sum(diag > 1e-10 * np.linalg.norm(A, 2)))]), diag


def test_presolve_keeps_the_spectral_norm_rule_rows():
    # a last pivot swept through 1e-10 |r_00| <= 1e-10 ||A||_2 <= 1e-10 ||A||_F:
    # inside that band the spectral norm decides, outside it any of the three does
    rng = np.random.default_rng(5)
    Q, _ = np.linalg.qr(rng.normal(size=(12, 12)))
    banded = set()
    for delta in np.geomspace(2e-11, 2e-9, 15):
        for A in (
            np.vstack([Q[:9], Q[0] + delta * Q[10]]),  # ||A||_F > ||A||_2 = |r_00| sqrt 2
            np.vstack([Q[0] + 1e-3 * Q[1:10], Q[0] + 1e-3 * Q[1] + delta * Q[11]]),  # ||A||_2 ~ 3 |r_00|
        ):
            ref, diag = _spectral_rule(A)
            np.testing.assert_array_equal(_presolve_equalities(A).kept, ref)
            if 1e-10 * diag[0] < diag[-1] <= 1e-10 * np.linalg.norm(A):
                banded.add(ref.size)
    assert banded == {A.shape[0] - 1, A.shape[0]}
    for empty in (np.zeros((0, 3)), np.zeros((2, 0)), np.zeros((2, 3))):
        assert _presolve_equalities(empty).kept.size == 0
    # small integer matrices, full of exact ties, where a condition estimate
    # can read low by a factor 2-3 (Hager's method read 1.17 on the first one,
    # against ||S^-1||_1 = 3); the rule's factor 1000 of margin keeps the QR's
    # rows, and the LU path is taken exactly when the rows are independent
    rng = np.random.default_rng(29)
    tied = [np.array([[0.0, 0.0, -1.0, 1.0], [-1.0, -1.0, -1.0, 1.0]])]
    for _ in range(2000):
        m, n = rng.integers(1, 5), rng.integers(1, 8)
        tied.append(rng.integers(-2, 3, size=(m, n)).astype(float))
    for A in tied:
        fixed = _presolve_equalities(A)
        np.testing.assert_array_equal(fixed.kept, _spectral_rule(A)[0])
        independent = A.shape[0] <= A.shape[1] and np.linalg.matrix_rank(A) == A.shape[0]
        assert (_storage(fixed.aplus) != "qr") == independent
        eye = np.eye(fixed.kept.size)
        assert all(np.abs(fixed.A @ (fixed.aplus @ c) - c).max() <= 1e-12 for c in eye)


def _full_rank_cases():
    """Random full-row-rank matrices and the 3x8 and 8x24 cascade Jacobians."""
    rng = np.random.default_rng(71)
    shapes = ((1, 4), (3, 7), (6, 6), (9, 15))
    cases = {f"random-{m}x{n}": rng.normal(size=(m, n)) for m, n in shapes}
    for n_tanks, horizon in ((3, 8), (8, 24)):
        cases[f"cascade-{n_tanks}x{horizon}"] = _cascade_jacobian(n_tanks, horizon)
    return cases


def _cascade_jacobian(n_tanks, horizon):
    """g_jac of the tank cascade at its steady start."""
    cfg = CascadeConfig(n_tanks=n_tanks, horizon=horizon)
    steady = steady_state(cfg, 1.0)
    return cascade_problem(cfg, steady).g_jac(steady_start(cfg, steady).x)


def _storage(aplus):
    """How the presolve holds A+: "band" or "dense" for the LU of S, read from
    its factor, or "qr" for the pivoted QR's array."""
    if isinstance(aplus, np.ndarray):
        return "qr"
    return "dense" if aplus.lu.bands is None else "band"


def _force_path(monkeypatch, path):
    """Make ``_presolve_equalities`` take path: the band LU at any bands, the
    dense LU, or the pivoted QR; "lu" leaves the choice to ``_narrow_bands``."""
    if path == "band":
        monkeypatch.setattr(ipm_module, "_narrow_bands", _bands)
    elif path == "dense":
        monkeypatch.setattr(ipm_module, "_narrow_bands", lambda A: None)
    elif path == "qr":
        monkeypatch.setattr(ipm_module, "_lu_presolve", lambda A: None)


@pytest.mark.parametrize("path", ["lu", "band", "dense", "qr"])
def test_presolve_gives_an_orthonormal_null_basis_and_the_pseudo_inverse(monkeypatch, path):
    # each LU path (the one the bands choose, and each forced) and the pivoted
    # QR forced in its place: Z is an orthonormal basis of null(A), A A+ = I,
    # and A+ and A+' are the Moore-Penrose inverse and its transpose
    _force_path(monkeypatch, path)
    for name, A in _full_rank_cases().items():
        m, n = A.shape
        fixed = _presolve_equalities(A)
        Z, aplus = fixed.Z, fixed.aplus
        assert _storage(aplus) in (("band", "dense") if path == "lu" else (path,)), name
        np.testing.assert_array_equal(fixed.kept, _spectral_rule(A)[0])
        np.testing.assert_array_equal(fixed.A, A)
        assert np.linalg.norm(A @ Z) <= 1e-12 * np.linalg.norm(A), name
        assert np.linalg.norm(Z.T @ Z - np.eye(n - m)) <= 1e-12, name
        dense = np.column_stack([aplus @ e for e in np.eye(m)])
        dense_t = np.column_stack([aplus.T @ e for e in np.eye(n)])
        pinv = np.linalg.pinv(A)
        _close(A @ dense, np.eye(m), 1e-12)
        _close(dense, pinv, 1e-12)
        _close(dense_t, pinv.T, 1e-12)


def test_the_band_lu_is_taken_where_its_solves_are_cheaper():
    # the 8x24 and 8x40 cascades are banded; at 3x8 the two LUs cost about
    # the same; a row coupling the first and last states, a secant update
    # (which fills A) and a dense A widen the bands to about n
    rng = np.random.default_rng(79)
    wide = _cascade_jacobian(8, 24)
    coupled = np.vstack([wide, np.eye(wide.shape[1])[0] - np.eye(wide.shape[1])[-1]])
    dx = rng.normal(size=wide.shape[1])
    secant = wide + np.outer(rng.normal(size=wide.shape[0]) - wide @ dx, dx) / (dx @ dx)
    cases = {"cascade-8x24": (wide, "band"),
             "cascade-8x40": (_cascade_jacobian(8, 40), "band"),
             "cascade-3x8": (_cascade_jacobian(3, 8), "dense"),
             "coupled-8x24": (coupled, "dense"),
             "secant-8x24": (secant, "dense"),
             "dense": (rng.normal(size=(20, 60)), "dense")}
    for name, (A, storage) in cases.items():
        m, n = A.shape
        kl, ku, _ = _bands(A)
        assert (n * (2 * kl + ku) < m * m) is (storage == "band"), name
        fixed = _presolve_equalities(A)
        assert _storage(fixed.aplus) == storage, name
        assert np.linalg.norm(A @ fixed.Z) <= 1e-12 * np.linalg.norm(A), name
        _close(fixed.aplus @ np.ones(m), np.linalg.pinv(A) @ np.ones(m), 1e-12)


def test_presolve_takes_the_pivoted_qr_for_near_dependent_rows():
    # a duplicated row, more rows than columns, and the banded matrices of
    # test_presolve_keeps_the_spectral_norm_rule_rows fail the LU path's rank
    # guard, so the pivoted QR decides which rows are kept
    rng = np.random.default_rng(73)
    A = rng.normal(size=(4, 9))
    Q, _ = np.linalg.qr(rng.normal(size=(12, 12)))
    cases = [np.vstack([A, A[2]]), rng.normal(size=(5, 3))]
    for delta in np.geomspace(2e-11, 2e-9, 15):
        cases += [np.vstack([Q[:9], Q[0] + delta * Q[10]]),
                  np.vstack([Q[0] + 1e-3 * Q[1:10], Q[0] + 1e-3 * Q[1] + delta * Q[11]])]
    for M in cases:
        if M.shape[0] <= M.shape[1]:
            assert _lu_presolve(M) is None
        fixed = _presolve_equalities(M)
        assert _storage(fixed.aplus) == "qr"
        np.testing.assert_array_equal(fixed.kept, _spectral_rule(M)[0])
        np.testing.assert_array_equal(fixed.A, M[fixed.kept])
    assert _presolve_equalities(cases[0]).kept.size == 4  # one copy of the duplicate dropped


def _banded(rng, m, n, lo, hi):
    """A random m x n A with A[j, i] nonzero exactly where lo <= i - j <= hi."""
    offset = np.arange(n)[None, :] - np.arange(m)[:, None]
    return np.where((offset >= lo) & (offset <= hi), rng.normal(size=(m, n)), 0.0)


def _pivot_rows(ipiv, n):
    """The rows of A' that LAPACK's interchanges ipiv move to the top, in order."""
    rows = np.arange(n)
    for j, p in enumerate(ipiv):
        rows[[j, p]] = rows[[p, j]]
    return rows[: len(ipiv)]


# (m, n, lo, hi): A[j, i] is nonzero for lo <= i - j <= hi, so A' has the
# bands kl = max(hi, 0) and ku = max(-lo, 0)
_BAND_CASES = {
    "diagonal": (8, 12, 0, 0),
    "upper-only": (8, 12, -3, 0),
    "lower-only": (8, 12, 0, 4),
    "both": (8, 12, -2, 5),
    "off-diagonal": (8, 12, 2, 5),
    "off-diagonal-narrow": (8, 12, 3, 4),
    "square": (6, 6, -1, 2),
    "dense": (5, 9, -4, 8),
    "one-row": (1, 7, 0, 6),
    "one-row-sparse": (1, 7, 2, 3),
}


@pytest.mark.parametrize("name", sorted(_BAND_CASES))
def test_band_presolve_matches_the_dense_references(monkeypatch, name):
    # the band LU, forced at any bands, reads its bands from A's pattern,
    # picks the pivot rows of a dense LU of A', and gives an orthonormal null
    # basis and the Moore-Penrose inverse; a near-dependent row still goes to
    # the pivoted QR
    _force_path(monkeypatch, "band")
    m, n, lo, hi = _BAND_CASES[name]
    rng = np.random.default_rng(sum(map(ord, name)))
    A = _banded(rng, m, n, lo, hi)
    fixed = _presolve_equalities(A)
    aplus = fixed.aplus
    assert aplus.lu.bands == (max(hi, 0), max(-lo, 0))
    p, _, _ = scipy.linalg.lu(A.T)
    basis = np.argmax(p, axis=0)[:m]
    np.testing.assert_array_equal(_pivot_rows(aplus.lu.ipiv[:m], n), basis)
    np.testing.assert_array_equal(fixed.kept, np.arange(m))
    assert np.linalg.norm(A @ fixed.Z) <= 1e-12 * np.linalg.norm(A)
    assert np.linalg.norm(fixed.Z.T @ fixed.Z - np.eye(n - m)) <= 1e-12
    pinv = np.linalg.pinv(A)
    _close(np.column_stack([aplus @ e for e in np.eye(m)]), pinv, 1e-12)
    _close(np.column_stack([aplus.T @ e for e in np.eye(n)]), pinv.T, 1e-12)
    _force_path(monkeypatch, "dense")  # which picks the same basis columns
    dense = _presolve_equalities(A).aplus.lu
    assert dense.bands is None
    np.testing.assert_array_equal(_pivot_rows(dense.ipiv[:m], n), basis)
    _force_path(monkeypatch, "band")
    if m > 1:
        near = np.array(A)
        near[-1] = A[-2] + 1e-13 * np.linalg.norm(A) * rng.normal(size=n)
        assert _lu_presolve(near) is None
        fixed = _presolve_equalities(near)
        assert _storage(fixed.aplus) == "qr"
        np.testing.assert_array_equal(fixed.kept, _spectral_rule(near)[0])
        assert fixed.kept.size == m - 1


@pytest.mark.parametrize("name", sorted(_BAND_CASES) + ["cascade-3x8", "cascade-8x24"])
def test_the_condition_estimate_is_gecons_on_either_storage(monkeypatch, name):
    # 1 / rcond is LAPACK's estimate of ||S^-1||_1 for the completed factor of
    # S = [A' | E_N], gecon's on dense storage and gbcon's on band storage;
    # both factor the same S, and these A have no ties for the estimator's
    # largest entry, so the two agree.  Either is at most ||S^-1||_1, which
    # is at least ||A_B^-T||_1: the rank proof of _lu_presolve
    if name.startswith("cascade"):
        A = _cascade_jacobian(*map(int, name.split("-")[1].split("x")))
    else:
        m, n, lo, hi = _BAND_CASES[name]
        A = _banded(np.random.default_rng(sum(map(ord, name))), m, n, lo, hi)
    m, n = A.shape
    lus = {}
    for storage in ("band", "dense"):
        _force_path(monkeypatch, storage)
        lus[storage] = _presolve_equalities(A).aplus.lu
    est = {storage: 1.0 / lu.rcond() for storage, lu in lus.items()}
    _close(est["band"], est["dense"], 1e-12)
    rows = _pivot_rows(lus["dense"].ipiv, n)  # B, then N in the order of S's unit columns
    S = np.zeros((n, n))
    S[:, :m] = A.T
    S[rows[m:], np.arange(m, n)] = 1.0
    norm = np.linalg.norm(np.linalg.inv(S), 1)
    assert max(est.values()) <= norm * (1.0 + 1e-12)
    assert np.linalg.norm(np.linalg.inv(A[:, rows[:m]]).T, 1) <= norm * (1.0 + 1e-12)


def _close(got, want, rtol):
    assert np.linalg.norm(got - want) <= rtol * max(np.linalg.norm(want), 1e-300)


def _interior(cones, rng):
    """A point strictly inside the cone product."""
    u = rng.normal(size=cones.dim)
    u[: cones.l] = rng.uniform(0.1, 2.0, cones.l)
    for h, t, e in cones.blocks:
        u[h] = np.linalg.norm(u[t:e]) + rng.uniform(0.1, 1.0)
    return u


def _dense_w(W):
    """Block-diagonal W from the scaling's parts: sqrt(s/z) and eta (2 v v' - J)."""
    Wd = np.zeros((W.cones.dim, W.cones.dim))
    Wd[: W.cones.l, : W.cones.l] = np.diag(W.diag[: W.cones.l])
    for (eta, _, v, _), (h, _, e) in zip(W.soc, W.cones.blocks):
        J = np.diag(np.r_[1.0, -np.ones(v.size - 1)])
        Wd[h:e, h:e] = eta * (2.0 * np.outer(v, v) - J)
    return Wd


def _mixed_region(rng, n):
    B = rng.normal(size=(n, n))
    return ConvexRegion(
        np.where(rng.random(n) < 0.3, -np.inf, rng.uniform(-3.0, -0.5, n)),
        np.where(rng.random(n) < 0.3, np.inf, rng.uniform(0.5, 3.0, n)),
        (AffineInequality(rng.normal(size=n), 1.0),),
        (SecondOrderCone(rng.normal(size=(3, n)), rng.normal(size=3), rng.normal(size=n), 2.0),),
        (Ellipsoid(rng.normal(size=n), B @ B.T + 0.1 * np.eye(n), 1.5),),
    )


def test_nt_scaling_products_match_dense_blocks():
    rng = np.random.default_rng(61)
    cones = _Cones(4, [2, 5, 3])
    for _ in range(5):
        s, z = _interior(cones, rng), _interior(cones, rng)
        W = _Scaling(cones, s, z)
        Wd = _dense_w(W)
        Wi = np.linalg.inv(Wd)
        # the defining property of the Nesterov-Todd point
        _close(Wd @ z, W.lam, 1e-12)
        _close(Wi @ s, W.lam, 1e-12)
        u, U = rng.normal(size=cones.dim), rng.normal(size=(cones.dim, 3))
        _close(W.mul_w(u), Wd @ u, 1e-12)
        _close(W.mul_winv(u), Wi @ u, 1e-12)
        _close(W.mul_winv(U), Wi @ U, 1e-12)
        _close(W.mul_winv2(u), Wi @ Wi @ u, 1e-12)
    # the cold start factors at the scaling of (e, e): every product returns
    # its input unchanged, so that scaling is the identity
    cones = _Cones(4, [1, 2, 5, 3])
    e = cones.unit()
    W = _Scaling(cones, e, e)
    for _ in range(200):
        u, U = rng.normal(size=cones.dim), rng.normal(size=(cones.dim, 26))
        for product in (W.mul_w, W.mul_winv, W.mul_winv2):
            np.testing.assert_array_equal(product(u), u)
        np.testing.assert_array_equal(W.mul_winv(U), U)


def _jordan_blocks(cones, a, b):
    """a o b block by block: elementwise on the orthant, (a'b, a0 b1 + b0 a1) per cone."""
    out = [a[: cones.l] * b[: cones.l]]
    for h, _, e in cones.blocks:
        ab, bb = a[h:e], b[h:e]
        out.append(np.r_[ab @ bb, ab[0] * bb[1:] + bb[0] * ab[1:]])
    return np.concatenate(out)


def test_cone_kernels_match_blockwise_references():
    rng = np.random.default_rng(61)
    cones = _Cones(4, [2, 5, 3])
    for _ in range(20):
        lam, u, d = _interior(cones, rng), _interior(cones, rng), rng.normal(size=cones.dim)
        _close(cones.prod(lam, cones.inv_prod(lam, d)), d, 1e-12)
        _close(cones.prod(u, d), _jordan_blocks(cones, u, d), 1e-15)
        for w in (u, d):
            ref = min([w[: cones.l].min()] + [w[h] - np.linalg.norm(w[t:e]) for h, t, e in cones.blocks])
            assert cones.margin(w) == pytest.approx(ref, rel=1e-15, abs=1e-15)
        # the largest step is where the path leaves the cone product, and inf
        # exactly for a direction inside it
        for du in (d, 3.0 * rng.normal(size=cones.dim), _interior(cones, rng)):
            alpha = cones.max_step(u, du)
            assert np.isfinite(alpha) == (cones.margin(du) < 0.0)
            if np.isfinite(alpha):
                assert cones.margin(u + (1.0 - 1e-9) * alpha * du) >= 0.0
                assert cones.margin(u + (1.0 + 1e-9) * alpha * du) < 0.0
            else:
                assert cones.margin(u + 1e6 * du) > 0.0


def _near_boundary_interior(cones, rng, scale):
    """A point inside the cone product whose margins are about 10^-(1..10) scale."""
    u = scale * rng.normal(size=cones.dim)
    u[: cones.l] = scale * 10.0 ** rng.uniform(-10.0, 0.0, cones.l)
    for h, t, e in cones.blocks:
        u[h] = np.linalg.norm(u[t:e]) + scale * 10.0 ** rng.uniform(-10.0, -1.0)
    return u


def _step_direction(cones, rng, u, kind):
    if kind == "into":  # into the cone product: no boundary on the ray
        return rng.uniform(0.1, 10.0) * _interior(cones, rng)
    if kind == "apex":  # straight at the apex of every block
        return -10.0 ** rng.uniform(-3.0, 3.0) * u
    if kind == "ray":  # along a mirror-cone ray: a = 0 in every block with a tail
        du = rng.normal(size=cones.dim)
        for h, t, e in cones.blocks:
            k = 2.0 ** int(rng.integers(-10, 11))
            du[t:e] = 0.0
            if e - t >= 2:
                du[h], du[t], du[t + 1] = -5.0 * k, 3.0 * k, 4.0 * k
            else:
                du[h] = -4.0 * k
                du[t:e] = rng.choice([-4.0, 4.0]) * k
        return du
    du = 10.0 ** rng.uniform(-3.0, 3.0) * rng.normal(size=cones.dim)
    if kind == "head":  # out through the heads: the tails barely move
        for h, t, e in cones.blocks:
            du[t:e] *= 1e-3
            du[h] = -abs(du[h]) - 10.0 ** rng.uniform(-1.0, 2.0) * abs(u[h])
    return du


def test_fraction_to_boundary_step_stays_interior():
    # the interior point steps alpha = min(1, 0.99 max_step) with no margin
    # check after it: s and z must stay strictly inside for every direction,
    # also from points near the boundary, out through a block's head, through
    # its apex, along a mirror ray (the step's quadratic is then linear) and on
    # blocks of order 1
    rng = np.random.default_rng(20261019)
    kinds = ("any", "head", "into", "apex", "ray")
    for i in range(5000):
        cones = _Cones(int(rng.integers(0, 6)), list(rng.integers(1, 7, rng.integers(0, 4))))
        if cones.dim == 0:
            continue
        scale = 10.0 ** rng.uniform(-4.0, 4.0)
        near = (i // len(kinds)) % 2 == 1
        s, z = ((_near_boundary_interior(cones, rng, scale) if near
                 else scale * _interior(cones, rng)) for _ in range(2))
        kind = kinds[i % len(kinds)]
        ds, dz = (_step_direction(cones, rng, u, kind) for u in (s, z))
        steps = cones.max_step(s, ds), cones.max_step(z, dz)
        if kind == "into":
            assert steps == (np.inf, np.inf)
        alpha = min(1.0, 0.99 * min(steps))
        assert alpha > 0.0
        assert cones.margin(s + alpha * ds) > 0.0
        assert cones.margin(z + alpha * dz) > 0.0


def test_reduced_hessian_matches_dense_hm():
    # with no equality row Z = I and the reduced Hessian is Hm itself; at the
    # identity scaling of the cold start, Hm = P + G' G
    rng = np.random.default_rng(63)
    n = 6
    region = _mixed_region(rng, n)
    G, Gt, h, cones = assemble_cones(region)
    assert cones.l > 0 and len(cones.soc_dims) == 2
    B = rng.normal(size=(n, n))
    P = B @ B.T
    W = _Scaling(cones, _interior(cones, rng), _interior(cones, rng))
    Wi = np.linalg.inv(_dense_w(W))
    unit = _Scaling(cones, cones.unit(), cones.unit())
    for m in (0, 2):
        fixed = _presolve_equalities(rng.normal(size=(m, n)) if m else np.zeros((0, n)))
        Z = fixed.Z
        kkt = _NullSpaceKKT(P, G, fixed)
        _close(kkt.reduced_hessian(W), Z.T @ (P + G.T @ Wi @ Wi @ G) @ Z, 1e-12)
        _close(kkt.reduced_hessian(unit), Z.T @ (P + G.T @ G) @ Z, 1e-12)
        if not m:
            np.testing.assert_array_equal(Z, np.eye(n))


@pytest.mark.parametrize("p", [0, 3, 7])
def test_null_space_step_matches_dense_bordered_solve(p):
    rng = np.random.default_rng(65 + p)
    n = 7
    region = _mixed_region(rng, n)
    G, Gt, h, cones = assemble_cones(region)
    B = rng.normal(size=(n, n))
    A = rng.normal(size=(p, n))
    fixed = _presolve_equalities(A)
    assert fixed.kept.size == p and fixed.Z.shape == (n, n - p)
    W = _Scaling(cones, _interior(cones, rng), _interior(cones, rng))
    Wi2 = np.linalg.matrix_power(np.linalg.inv(_dense_w(W)), 2)
    rx, ry, rz = rng.normal(size=n), rng.normal(size=p), rng.normal(size=cones.dim)
    rc = rng.normal(size=cones.dim)
    G_csr = scipy.sparse.csr_array(G)
    for P in (0.1 * B @ B.T, None):
        Pd = np.zeros((n, n)) if P is None else P
        K = np.block([[Pd + G.T @ Wi2 @ G, A.T], [A, np.zeros((p, p))]])
        for Gk in (G, G_csr):
            kkt = _NullSpaceKKT(P, Gk, fixed)
            assert kkt.factor(W) == 0.0
            part = kkt.particular(rx, ry)
            # the corrector form with a complementarity term, then the
            # predictor form.  rx holds no A' y (y = 0), and the multiplier
            # fitted at the stepped point, -A+' (rx + P dx + G' dz), is the
            # bordered y + dy
            for c in (rc, 0.0):
                ref = np.linalg.solve(K, np.concatenate([-rx - G.T @ Wi2 @ (rz + c), -ry]))
                dx, dz, ds = kkt.solve(part, rz, c)
                _close(dx, ref[:n], 1e-10)
                _close(fixed.fit(rx + Pd @ dx + G.T @ dz), ref[n:], 1e-10)
                _close(dz, Wi2 @ (G @ ref[:n] + rz + c), 1e-10)
                _close(ds, -rz - G @ ref[:n], 1e-10)


def test_singular_reduced_hessian_takes_the_shift(monkeypatch):
    # x2 is free, costs nothing and has no curvature: Z' Hm Z is exactly singular
    region = ConvexRegion(lower=[0.0, -1.0, -np.inf], upper=[1.0, 1.0, np.inf])
    G, Gt, h, cones = assemble_cones(region)
    W = _Scaling(cones, np.ones(cones.dim), np.ones(cones.dim))
    for A in (np.zeros((0, 3)), np.array([[1.0, 1.0, 0.0]])):
        assert _NullSpaceKKT(np.zeros((3, 3)), G, _presolve_equalities(A)).factor(W) == 1e-12

    shifts = []
    factor = _NullSpaceKKT.factor

    def spy(self, W):
        shifts.append(factor(self, W))
        return shifts[-1]

    monkeypatch.setattr(_NullSpaceKKT, "factor", spy)
    sol = solve_subproblem(_plain([1.0, -1.0, 0.0], region))
    assert sol.status is SolveStatus.OPTIMAL
    np.testing.assert_allclose(sol.x[:2], [0.0, 1.0], atol=1e-8)
    assert 1e-12 in shifts


def test_the_reduced_hessian_lu_is_scipys_to_the_bit():
    # dgetrf and dgetrs, called directly, give scipy.linalg.lu_factor's factor
    # and lu_solve's step byte for byte: on a regular reduced Hessian, and on
    # the exactly singular one above, where lu_factor warns and the 1e-12
    # shift fires
    rng = np.random.default_rng(67)
    region = _mixed_region(rng, 7)
    G, _, _, cones = assemble_cones(region)
    B = rng.normal(size=(7, 7))
    W = _Scaling(cones, _interior(cones, rng), _interior(cones, rng))
    regular = (0.1 * B @ B.T, G, _presolve_equalities(rng.normal(size=(3, 7))), W, 0.0)
    box = ConvexRegion(lower=[0.0, -1.0, -np.inf], upper=[1.0, 1.0, np.inf])
    G, _, _, cones = assemble_cones(box)
    W = _Scaling(cones, np.ones(cones.dim), np.ones(cones.dim))
    singular = (None, G, _presolve_equalities(np.zeros((0, 3))), W, 1e-12)
    for P, G, fixed, W, shift in (regular, singular):
        kkt = _NullSpaceKKT(P, G, fixed)
        assert kkt.factor(W) == shift
        Hr = kkt.reduced_hessian(W)
        if shift:
            with pytest.warns(scipy.linalg.LinAlgWarning):
                scipy.linalg.lu_factor(Hr)
            Hr = Hr + shift * max(1.0, np.abs(Hr).max()) * np.eye(len(Hr))
        lu, piv = scipy.linalg.lu_factor(Hr)
        assert kkt.lu[0].tobytes() == lu.tobytes() and kkt.lu[1].tobytes() == piv.tobytes()
        n, m = fixed.Z.shape[0], fixed.kept.size
        rx, ry, rz, rc = (rng.normal(size=k) for k in (n, m, G.shape[0], G.shape[0]))
        part = xp, gxp, t = kkt.particular(rx, ry)
        rzc = rz + rc
        w = scipy.linalg.lu_solve((lu, piv), t - kkt.GZ.T @ W.mul_winv2(gxp + rzc))
        gdx = gxp + kkt.GZ @ w
        want = (xp + fixed.Z @ w, W.mul_winv2(gdx + rzc), -rz - gdx)
        assert [v.tobytes() for v in kkt.solve(part, rz, rc)] == [v.tobytes() for v in want]


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_data_return_max_iter(bad):
    region = ConvexRegion(lower=-np.ones(3), upper=np.ones(3))
    A = np.array([[1.0, 1.0, 0.0]])
    for c, b in (([bad, 1.0, 0.0], [0.0]), ([1.0, 1.0, 0.0], [bad])):
        sp = _plain(c, region, A=A, b=np.array(b))
        for warm in (None, PrimalDual(np.zeros(3), np.zeros(1))):
            sol = solve_subproblem(sp, warm=warm)
            assert sol.status is SolveStatus.MAX_ITER
            assert sol.iterations == 0
            assert sol.residuals.total == np.inf
            assert sol.fixed is None  # no presolve is built for such data


def _tracked_subproblem(name):
    """(subproblem, warm start) of a tracking step from an exact ``init_state``:
    the tutorial from its solution at xi = 1.2 to the sample 1.45, or the 3x8
    cascade from its steady start to 1.2 times the steady sample."""
    if name == "tutorial":
        (z0, _), problem, xi = tutorial_solution(1.2), tutorial_problem(), np.array([1.45])
    else:
        cfg = CascadeConfig(n_tanks=3, horizon=8)
        steady = steady_state(cfg, 1.0)
        problem, z0, xi = cascade_problem(cfg, steady), steady_start(cfg, steady), 1.2 * steady[0]
    state = init_state(problem, z0, JacobianStrategy("exact"), HessianStrategy(), None)
    return build_subproblem(problem, state, xi), state.z


def test_a_stale_presolve_is_rebuilt():
    # the presolve of another A (rows 3 and up scaled by 1.0001) is not used:
    # the solve builds the presolve of its own A and is the fixed=None solve
    # bit for bit; a presolve of this very A is used as given
    sp, warm = _tracked_subproblem("cascade")
    A = sp.A_eq.copy()
    A[3:] *= 1.0001
    sol = solve_subproblem(sp, None, warm, _presolve_equalities(A))
    fresh = solve_subproblem(sp, None, warm)
    assert (sol.status, sol.iterations) == (fresh.status, fresh.iterations) == (
        SolveStatus.OPTIMAL, 6)
    assert sol.x.tobytes() == fresh.x.tobytes() and sol.y.tobytes() == fresh.y.tobytes()
    assert sol.fixed.A is sp.A_eq and fresh.fixed.A is sp.A_eq
    assert solve_subproblem(sp, None, warm, fresh.fixed).fixed is fresh.fixed


@pytest.mark.parametrize("value", [1e18, 1e100, 1e200, np.nan])
@pytest.mark.parametrize("name", ["tutorial", "cascade"])
def test_a_warm_start_far_outside_the_region_starts_cold(name, value):
    # a warm.x this far out is not finite, overflows, or shifts the slack onto
    # a cone's boundary in floating point: the solve is the cold one
    sp, warm = _tracked_subproblem(name)
    cold = solve_subproblem(sp)
    sol = solve_subproblem(sp, warm=PrimalDual(np.full(sp.n, value), warm.y))
    assert cold.status is SolveStatus.OPTIMAL
    assert (sol.status, sol.iterations) == (cold.status, cold.iterations)
    assert sol.x.tobytes() == cold.x.tobytes()


def test_a_projection_error_in_the_warm_attempt_takes_the_cold_retry(monkeypatch):
    calls = []
    project = ipm_module.project_region

    def failing_first(region, v):
        calls.append(None)
        if len(calls) == 1:
            raise ProjectionError("no verified projection")
        return project(region, v)

    # the warm solve's first certification is its last, so the attempt that
    # raises there has run as many iterations as the warm solve; both count
    sp, warm = _tracked_subproblem("tutorial")
    cold, warm_only = solve_subproblem(sp), solve_subproblem(sp, warm=warm)
    monkeypatch.setattr(ipm_module, "project_region", failing_first)
    sol = solve_subproblem(sp, warm=warm)
    assert len(calls) > 1 and warm_only.iterations == 14
    assert (sol.status, sol.iterations) == (cold.status, warm_only.iterations + cold.iterations)
    assert sol.x.tobytes() == cold.x.tobytes()


def test_a_scaled_point_on_a_cone_boundary_ends_the_attempt(monkeypatch):
    # rounding can put the scaled point lam on a cone's boundary, where
    # lam o x = d divides by zero; the attempt then ends as at a singular step
    calls = []
    inv_prod = _Cones.inv_prod

    def singular_second(self, lam, d):
        calls.append(None)
        if len(calls) == 2:  # the warm attempt's first corrector, after its dual guess
            raise ZeroDivisionError("float division by zero")
        return inv_prod(self, lam, d)

    sp, warm = _tracked_subproblem("tutorial")
    cold = solve_subproblem(sp)
    monkeypatch.setattr(_Cones, "inv_prod", singular_second)
    sol = solve_subproblem(sp, warm=warm)
    assert (sol.status, sol.iterations) == (cold.status, 1 + cold.iterations)
    assert sol.x.tobytes() == cold.x.tobytes()


def test_certification_where_an_ellipsoid_crosses_a_box_corner():
    # the answer sits on the lower x_1 face and on the ellipsoid, a corner
    # where the certification projections cannot rely on Dykstra alone
    ell = Ellipsoid([-0.41, 0.32], [[0.76, -0.09], [-0.09, 0.69]], 2.69)
    region = ConvexRegion([-1.36, -1.35], [0.42, 2.38], ellipsoids=(ell,))
    H = np.array([[1.51, -0.27], [-0.27, 0.08]])
    x_ref = np.array([0.38, 0.22])
    sp = ConvexSubproblem(c=np.array([-0.95, 1.51]), m_corr=np.array([0.07, 0.16]), H=H,
                          x_ref=x_ref, A_eq=np.zeros((0, 2)), b_eq=np.zeros(0), region=region)
    start = time.perf_counter()
    sol = solve_subproblem(sp)
    elapsed = time.perf_counter() - start
    assert sol.status is SolveStatus.OPTIMAL
    assert elapsed < 1.0
    ref = scipy.optimize.minimize(
        sp.objective, x_ref,
        bounds=list(zip(region.lower, region.upper)),
        constraints=[{"type": "ineq", "fun": lambda x: -ell.violation(x)}],
        method="SLSQP", options={"maxiter": 400, "ftol": 1e-14},
    )
    assert region_violation(region, ref.x) <= 1e-9
    assert abs(sp.objective(sol.x) - sp.objective(ref.x)) <= 1e-6


def test_projection_error_in_certification_returns_max_iter(monkeypatch):
    def fail(region, v):
        raise ProjectionError("no verified projection")

    monkeypatch.setattr(ipm_module, "project_region", fail)
    region = ConvexRegion(lower=-np.ones(2), upper=np.ones(2))
    x_ref = np.array([0.5, -0.5])
    sol = solve_subproblem(_plain([1.0, -1.0], region, x_ref=x_ref))
    assert sol.status is SolveStatus.MAX_ITER
    assert sol.iterations == 0
    np.testing.assert_array_equal(sol.x, x_ref)
    assert sol.residuals.total == np.inf


def test_primal_polish_solves_on_the_null_space_of_the_equality_rows(monkeypatch):
    # the transient samples of the 8x24 exact-Jacobian closed loop reach the
    # polish; each of its Newton steps must solve a KKT matrix of order at
    # most n - rank A_eq + working rows + curved members (25 + k here), where
    # the bordered matrix was of order n + rank A_eq + k
    free, bound, steps = [], [None], []
    polish, newton, lstsq = (ipm_module._primal_polish, region_module._active_set_newton,
                             region_module._min_norm_lstsq)

    def polish_spy(sp, x, fixed):
        free.append(sp.n - np.linalg.matrix_rank(sp.A_eq))
        try:
            return polish(sp, x, fixed)
        finally:
            free.append(None)

    def newton_spy(grad, hess, fixed, rhs, E, r, curved, x, scale, tol):
        if free and free[-1] is not None:
            bound[0] = free[-1] + E.shape[0] + len(curved)
        return newton(grad, hess, fixed, rhs, E, r, curved, x, scale, tol)

    def step_spy(M, rhs):
        if free and free[-1] is not None:
            steps.append((M.shape[0], bound[0]))
        return lstsq(M, rhs)

    monkeypatch.setattr(ipm_module, "_primal_polish", polish_spy)
    monkeypatch.setattr(region_module, "_active_set_newton", newton_spy)
    monkeypatch.setattr(region_module, "_min_norm_lstsq", step_spy)
    cfg = CascadeConfig(n_tanks=8, horizon=24)
    steady = steady_state(cfg, 1.0)
    plant = ClosedLoopPlant(cfg, steady, 1.4 * steady[0], n_samples=2, noise=0.0, seed=0)
    trace = track(cascade_problem(cfg, steady), plant, steady_start(cfg, steady),
                  TrackerConfig(variant="pcscp", jacobian=JacobianStrategy("exact")))
    assert not trace.aborted
    assert set(free) == {25, None}
    assert steps and all(order <= most for order, most in steps)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="Mehrotra without a safeguard cycles here (gap 0.39/0.92, "
                   "period 4) and returns max_iter after 200 iterations")
def test_box_and_halfspace_qp_that_makes_mehrotra_cycle():
    region = ConvexRegion([-1.75, -1.02], [1.04, 1.06],
                          affine=(AffineInequality([1.08, 0.87], 0.0033),
                                  AffineInequality([-0.07, 0.59], 0.55)))
    sp = ConvexSubproblem(c=np.array([0.32, -1.28]), m_corr=np.array([-0.03, -0.01]),
                          H=np.array([[0.41, 0.58], [0.58, 0.96]]), x_ref=np.array([0.30, -0.08]),
                          A_eq=np.zeros((0, 2)), b_eq=np.zeros(0), region=region)
    sol = solve_subproblem(sp)
    ref = scipy.optimize.minimize(
        sp.objective, sp.x_ref,
        bounds=list(zip(region.lower, region.upper)),
        constraints=[{"type": "ineq", "fun": lambda x, m=m: -m.violation(x)} for m in region.affine],
        method="SLSQP", options={"maxiter": 400, "ftol": 1e-14},
    )
    assert region_violation(region, ref.x) <= 1e-9
    assert sol.status is SolveStatus.OPTIMAL
    assert abs(sp.objective(sol.x) - sp.objective(ref.x)) <= 1e-6
