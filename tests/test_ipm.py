"""Conic subproblem solver against closed-form and sampled oracles."""

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

from conftest import feasible_samples, random_subproblem, subproblem_objective
from scptrack.problem import PrimalDual
from scptrack.cascade import CascadeConfig, cascade_problem, steady_state
from scptrack.ipm import _polish_duals, _presolve_equalities, assemble_cones, solve_subproblem
from scptrack.region import (
    AffineInequality,
    ConvexRegion,
    Ellipsoid,
    SecondOrderCone,
    project_region,
    region_violation,
)
from scptrack.subproblem import ConvexSubproblem, SolveStatus, SolverOptions


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


def test_consistent_duplicate_rows_solved():
    region = ConvexRegion(lower=[0.0, 0.0], upper=[2.0, 2.0])
    A = np.array([[1.0, 1.0], [2.0, 2.0]])
    sp = _plain([1.0, 0.0], region, A=A, b=np.array([-1.0, -2.0]))
    sol = solve_subproblem(sp)
    assert sol.status is SolveStatus.OPTIMAL
    np.testing.assert_allclose(sol.x, [0.0, 1.0], atol=1e-8)


def test_unbounded_direction_detected():
    region = ConvexRegion(lower=[0.0, -np.inf], upper=[1.0, np.inf])
    sp = _plain([0.0, 1.0], region)
    sol = solve_subproblem(sp, SolverOptions(tikhonov_retry=False))
    assert sol.status is SolveStatus.UNBOUNDED
    assert not sol.regularized
    # by default the zero curvature model is retried with a tikhonov term
    sol = solve_subproblem(sp)
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.regularized


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
        obj = subproblem_objective(sp, sol.x)
        scale = 1.0 + abs(obj)
        samples = feasible_samples(sp, rng)
        assert len(samples) == 10
        for w in samples:
            assert obj <= subproblem_objective(sp, w) + 1e-5 * scale


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
    sol = solve_subproblem(sp, SolverOptions(max_iter=1, tikhonov_retry=False))
    assert sol.iterations <= 1


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
        G, h, cones = assemble_cones(region)
        G_ref, h_ref, l_ref, dims_ref = _assemble_rows_reference(region)
        np.testing.assert_array_equal(G, G_ref)
        np.testing.assert_array_equal(h, h_ref)
        assert (cones.l, cones.soc_dims) == (l_ref, dims_ref)


def test_dual_refit_bounds_a_negative_normal_multiplier():
    # the unbounded fit of grad0 + A' y + N' lam = 0 gives an active normal a
    # negative lam, so the refit must return the bounded fit's y
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
    bounded = scipy.optimize.lsq_linear(M, -grad0, bounds=([-np.inf, -np.inf, 0.0, 0.0], np.inf))
    y = _polish_duals(sp, x, grad0)
    np.testing.assert_allclose(y, bounded.x[:2], rtol=1e-12, atol=1e-14)
    assert np.max(np.abs(y - unbounded[:2])) > 1e-3

    # with every normal multiplier nonnegative the unbounded fit is returned
    grad0 = -(M @ np.array([0.5, -1.0, 2.0, 3.0]))
    np.testing.assert_allclose(_polish_duals(sp, x, grad0), [0.5, -1.0], rtol=1e-12)


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
            np.testing.assert_array_equal(_presolve_equalities(A), ref)
            if 1e-10 * diag[0] < diag[-1] <= 1e-10 * np.linalg.norm(A):
                banded.add(ref.size)
    assert banded == {A.shape[0] - 1, A.shape[0]}
    for empty in (np.zeros((0, 3)), np.zeros((2, 0)), np.zeros((2, 3))):
        assert _presolve_equalities(empty).size == 0
