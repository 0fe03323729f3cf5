"""Projection and membership tests against closed-form oracles."""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
import scipy.sparse
from scipy.optimize import minimize

from conftest import random_region
from scptrack import region as region_module
from scptrack.cascade import CascadeConfig, cascade_problem, steady_start, steady_state
from scptrack.errors import DimensionError, ProjectionError, UsageError
from scptrack.ipm import _presolve_equalities, assemble_cones
from scptrack.region import (
    AffineInequality,
    ConvexRegion,
    Ellipsoid,
    SecondOrderCone,
    _FixedRows,
    _active_set_newton,
    _kkt_step,
    _min_norm_lstsq,
    _verify_projection,
    _working_set_solve,
    extend_region,
    project_region,
    quadratic_epigraph,
    region_violation,
)


def test_box_projection_is_clip():
    region = ConvexRegion(lower=[-1.0, 0.0], upper=[2.0, 0.5])
    v = np.array([3.0, -4.0])
    np.testing.assert_allclose(project_region(region, v), [2.0, 0.0])


def test_halfspace_projection_closed_form():
    a = np.array([1.0, 2.0])
    member = AffineInequality(a, 1.0)
    v = np.array([2.0, 2.0])
    # v - ((a.v - b)/||a||^2) a
    want = v - ((a @ v - 1.0) / 5.0) * a
    np.testing.assert_allclose(member.project(v), want, atol=1e-12)
    assert member.violation(want) == pytest.approx(0.0, abs=1e-12)
    inside = np.array([-1.0, 0.0])
    np.testing.assert_allclose(member.project(inside), inside)


def test_lorentz_cone_projection_closed_form():
    # x3 >= ||(x1, x2)||: classic three-case projection
    cone = SecondOrderCone(
        D=np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
        d=np.zeros(2),
        e=np.array([0.0, 0.0, 1.0]),
        f=0.0,
    )
    inside = np.array([0.3, 0.4, 1.0])
    np.testing.assert_allclose(cone.project(inside), inside)
    polar = np.array([0.3, 0.4, -1.0])
    np.testing.assert_allclose(cone.project(polar), np.zeros(3), atol=1e-10)
    v = np.array([3.0, 4.0, 0.0])
    alpha = (5.0 + 0.0) / 2.0
    want = np.array([alpha * 3.0 / 5.0, alpha * 4.0 / 5.0, alpha])
    np.testing.assert_allclose(cone.project(v), want, atol=1e-9)
    # the root lies beyond the pole of the secular equation (lam = 1.5 > 1)
    np.testing.assert_allclose(cone.project(np.array([3.0, 4.0, -1.0])), [1.2, 1.6, 2.0],
                               atol=1e-9)


def test_ball_cone_projection():
    # ||x|| <= f is a cone member with e = 0
    cone = SecondOrderCone(D=np.eye(2), d=np.zeros(2), e=np.zeros(2), f=2.0)
    v = np.array([3.0, 4.0])
    np.testing.assert_allclose(cone.project(v), v * (2.0 / 5.0), atol=1e-9)


def test_ellipsoid_ball_projection():
    # unit shape matrix: Euclidean ball of radius sqrt(r) around the center
    member = Ellipsoid(center=np.array([1.0, 1.0]), shape=np.eye(2), radius=4.0)
    v = np.array([1.0, 6.0])
    np.testing.assert_allclose(member.project(v), [1.0, 3.0], atol=1e-9)
    inside = np.array([1.5, 0.5])
    np.testing.assert_allclose(member.project(inside), inside)


def test_anisotropic_ellipsoid_projection_stationarity():
    # projection satisfies v - p = lam * S (p - w) with lam >= 0 on the boundary
    S = np.array([[2.0, 0.3], [0.3, 0.5]])
    member = Ellipsoid(center=np.zeros(2), shape=S, radius=1.0)
    v = np.array([3.0, -2.0])
    p = member.project(v)
    assert member.violation(p) == pytest.approx(0.0, abs=1e-9)
    grad = S @ p
    resid = v - p
    lam = (resid @ grad) / (grad @ grad)
    assert lam > 0.0
    np.testing.assert_allclose(resid, lam * grad, atol=1e-8)


def test_region_violation_signs():
    region = ConvexRegion(
        lower=[0.0, 0.0],
        upper=[2.0, 2.0],
        affine=(AffineInequality([1.0, 1.0], 3.0),),
    )
    assert region_violation(region, np.array([1.0, 1.0])) == pytest.approx(-1.0)
    assert region_violation(region, np.array([3.0, 1.0])) == pytest.approx(1.0)


@pytest.mark.parametrize("kind", ["box", "affine", "cone", "ellipsoid"])
def test_projection_matches_nlp_oracle(kind):
    # Dykstra vs a general-purpose solver on the same nearest-point problem
    rng = np.random.default_rng(61)
    for _ in range(5):
        n = int(rng.integers(2, 5))
        region = random_region(n, kind, rng)
        v = rng.normal(size=n) * 2.0

        cons = [
            {"type": "ineq", "fun": lambda x, m=m: -m.violation(x)}
            for m in region.members
        ]
        ref = minimize(
            lambda x: 0.5 * np.sum((x - v) ** 2),
            np.clip(v, region.lower, region.upper),
            jac=lambda x: x - v,
            bounds=list(zip(region.lower, region.upper)),
            constraints=cons,
            method="SLSQP",
            options={"maxiter": 400, "ftol": 1e-14},
        )
        p = project_region(region, v)
        assert region_violation(region, p) <= 1e-8
        assert np.linalg.norm(p - ref.x) <= 1e-5 * (1.0 + np.linalg.norm(v))


@pytest.mark.parametrize("kind", ["box", "affine", "cone", "ellipsoid"])
def test_projection_variational_inequality(kind):
    # (v - p).(w - p) <= 0 for every feasible w characterizes the projection
    rng = np.random.default_rng(62)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        region = random_region(n, kind, rng)
        v = rng.normal(size=n) * 2.0
        p = project_region(region, v)
        assert region_violation(region, p) <= 1e-8
        for _ in range(20):
            w = project_region(region, rng.normal(size=n))
            assert (v - p) @ (w - p) <= 1e-7 * (1.0 + np.linalg.norm(v))


def test_projection_identity_inside():
    rng = np.random.default_rng(63)
    region = random_region(4, "ellipsoid", rng)
    x = project_region(region, rng.normal(size=4) * 0.1)
    np.testing.assert_allclose(project_region(region, x), x, atol=1e-9)


def test_extend_region_leaves_new_coordinates_free():
    rng = np.random.default_rng(64)
    region = random_region(3, "cone", rng)
    ext = extend_region(region, 2)
    assert ext.n == 5
    v = np.concatenate([rng.normal(size=3) * 2.0, [7.0, -7.0]])
    p = project_region(ext, v)
    # trailing coordinates are unconstrained, leading ones project as before
    np.testing.assert_allclose(p[3:], [7.0, -7.0])
    np.testing.assert_allclose(p[:3], project_region(region, v[:3]), atol=1e-8)


def test_region_validation_errors():
    with pytest.raises(UsageError):
        ConvexRegion(lower=[1.0], upper=[0.0])
    # a nan bound is neither finite nor infinite: region.rows would drop it
    for lower, upper in (([np.nan, -1.0, -1.0], [1.0, 1.0, 1.0]), ([-1.0], [np.nan])):
        with pytest.raises(UsageError):
            ConvexRegion(lower=lower, upper=upper)
    with pytest.raises(DimensionError):
        ConvexRegion(lower=[0.0, 0.0], upper=[1.0])
    with pytest.raises(DimensionError):
        ConvexRegion(
            lower=[0.0, 0.0],
            upper=[1.0, 1.0],
            affine=(AffineInequality([1.0], 0.0),),
        )
    with pytest.raises(DimensionError):
        SecondOrderCone(D=np.eye(2), d=np.zeros(3), e=np.zeros(2), f=0.0)
    with pytest.raises(DimensionError, match="affine member coefficient must be a vector"):
        AffineInequality(np.eye(2), 0.0)
    cone3 = SecondOrderCone(D=np.eye(3), d=np.zeros(3), e=np.zeros(3), f=1.0)
    with pytest.raises(DimensionError, match="cone member dimension mismatch"):
        ConvexRegion(lower=[0.0, 0.0], upper=[1.0, 1.0], cones=(cone3,))
    ball3 = Ellipsoid(np.zeros(3), np.eye(3), 1.0)
    with pytest.raises(DimensionError, match="ellipsoid member dimension mismatch"):
        ConvexRegion(lower=[0.0, 0.0], upper=[1.0, 1.0], ellipsoids=(ball3,))
    with pytest.raises(DimensionError, match="ellipsoid shape matrix size mismatch"):
        Ellipsoid(np.zeros(2), np.eye(3), 1.0)
    for radius in (0.0, -1.0):
        with pytest.raises(UsageError, match="ellipsoid radius must be positive"):
            Ellipsoid(np.zeros(2), np.eye(2), radius)
    with pytest.raises(UsageError, match="ellipsoid shape matrix must be positive semidefinite"):
        Ellipsoid(np.zeros(2), np.diag([1.0, -1.0]), 1.0)
    with pytest.raises(DimensionError, match="point has shape"):
        project_region(ConvexRegion(lower=[0.0, 0.0], upper=[1.0, 1.0]), np.zeros(3))


_MEMBER_DATA = {
    "a": (AffineInequality, {"a": [1.0, 2.0], "b": 1.0}),
    "b": (AffineInequality, {"a": [1.0, 2.0], "b": 1.0}),
    "D": (SecondOrderCone, {"D": np.eye(2), "d": [0.0, 1.0], "e": [0.5, 0.0], "f": 1.0}),
    "d": (SecondOrderCone, {"D": np.eye(2), "d": [0.0, 1.0], "e": [0.5, 0.0], "f": 1.0}),
    "e": (SecondOrderCone, {"D": np.eye(2), "d": [0.0, 1.0], "e": [0.5, 0.0], "f": 1.0}),
    "f": (SecondOrderCone, {"D": np.eye(2), "d": [0.0, 1.0], "e": [0.5, 0.0], "f": 1.0}),
    "center": (Ellipsoid, {"center": [0.0, 1.0], "shape": np.eye(2), "radius": 1.0}),
    "shape": (Ellipsoid, {"center": [0.0, 1.0], "shape": np.eye(2), "radius": 1.0}),
    "radius": (Ellipsoid, {"center": [0.0, 1.0], "shape": np.eye(2), "radius": 1.0}),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("field", sorted(_MEMBER_DATA))
def test_member_data_must_be_finite(field, bad):
    # a nan in an ellipsoid's shape dropped out of its cone form (the solve
    # returned optimal), an inf radius or cone e made the interior point's
    # products warn, and a nan affine row ran the solve to max_iter
    cls, data = _MEMBER_DATA[field]
    cls(**data)
    value = np.array(data[field], dtype=float)
    value.flat[-1] = bad
    with pytest.raises(UsageError, match="data must be finite"):
        cls(**{**data, field: value})


def test_unbounded_region_projection_is_identity():
    region = ConvexRegion.unbounded(3)
    v = np.array([1e6, -1e6, 0.0])
    np.testing.assert_allclose(project_region(region, v), v)


def _central_differences(fun, x, h=1e-6):
    eye = np.eye(x.size)
    return np.array([(fun(x + h * ei) - fun(x - h * ei)) / (2.0 * h) for ei in eye])


def test_member_boundary_and_cone_form():
    rng = np.random.default_rng(65)
    for _ in range(5):
        n = int(rng.integers(2, 6))
        B = rng.normal(size=(n, n))
        members = (
            SecondOrderCone(rng.normal(size=(3, n)), rng.normal(size=3), rng.normal(size=n),
                            rng.normal()),
            Ellipsoid(rng.normal(size=n), B @ B.T / n + 0.1 * np.eye(n), rng.uniform(0.5, 2.0)),
        )
        for m in members:
            x = rng.normal(size=n)
            phi, grad = m.boundary(x)
            assert phi == m.violation(x)
            np.testing.assert_allclose(grad, _central_differences(m.violation, x), atol=1e-6)
            hess = m.curvature(x, 1.0)
            fd = _central_differences(lambda p: m.boundary(p)[1], x)
            np.testing.assert_allclose(hess, fd, atol=1e-5)
            np.testing.assert_array_equal(m.curvature(x, 1.0, -2.5), -2.5 * hess)
            assert m.curvature(x, 1.0, 0.0) == 0.0

    # at the exact apex the subgradient -e stands in, and there is no Hessian
    cone = SecondOrderCone(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]), [-1.0, 2.0],
                           [0.3, -0.2, 1.0], 0.5)
    apex = np.array([1.0, -2.0, 0.7])
    phi, grad = cone.boundary(apex)
    assert phi == cone.violation(apex)
    np.testing.assert_array_equal(grad, -cone.e)
    # the apex check holds whatever the weight
    assert cone.curvature(apex, 1.0) is None
    assert cone.curvature(apex, 1.0, 0.0) is None

    # the cone form of an ellipsoid, full rank and rank-deficient
    n = 4
    B = rng.normal(size=(n, n))
    thin = rng.normal(size=(n, 2))
    for shape in (B @ B.T / n + 0.2 * np.eye(n), thin @ thin.T):
        ell = Ellipsoid(rng.normal(size=n) * 0.3, shape, rng.uniform(0.5, 2.0))
        cone = ell.cone
        assert ell.cone is cone
        np.testing.assert_allclose(cone.D.T @ cone.D, ell.shape, atol=1e-12)
        for _ in range(200):
            x = ell.center + rng.normal(size=n) * 2.0
            q = ell.violation(x) + ell.radius
            assert np.sign(cone.violation(x)) == np.sign(ell.violation(x))
            assert cone.violation(x) == pytest.approx(
                np.sqrt(max(q, 0.0)) - np.sqrt(ell.radius), abs=1e-9
            )

        # compiling the ellipsoid or its cone form gives the same conic rows
        lower = np.array([-1.0, -np.inf, -2.0, -np.inf])
        upper = np.array([np.inf, 1.0, 2.0, np.inf])
        affine = (AffineInequality(rng.normal(size=n), 1.0),)
        other = SecondOrderCone(rng.normal(size=(2, n)), rng.normal(size=2), np.zeros(n), 2.0)
        with_ell = ConvexRegion(lower, upper, affine, (other,), (ell,))
        with_cone = ConvexRegion(lower, upper, affine, (other, cone))
        G1, _, h1, k1 = assemble_cones(with_ell)
        G2, _, h2, k2 = assemble_cones(with_cone)
        np.testing.assert_array_equal(G1, G2)
        np.testing.assert_array_equal(h1, h2)
        assert (k1.l, k1.soc_dims) == (k2.l, k2.soc_dims) == (5, [3, cone.D.shape[0] + 1])
        # h - G x lies in the cone product exactly when x lies in the region
        for _ in range(100):
            x = rng.normal(size=n) * 1.5
            viol = region_violation(with_ell, x)
            if abs(viol) > 1e-9:
                assert (k1.margin(h1 - G1 @ x) >= 0.0) == (viol < 0.0)


def test_ellipsoid_acts_on_its_support_like_the_dense_quadratic():
    # a full block on 3 of 7 coordinates, and a rank-2 shape on 5 of them
    rng = np.random.default_rng(67)
    n = 7
    B, thin = rng.normal(size=(3, 3)), rng.normal(size=(5, 2))
    blocked, deficient = np.zeros((n, n)), np.zeros((n, n))
    blocked[np.ix_([1, 3, 4], [1, 3, 4])] = B @ B.T + 0.1 * np.eye(3)
    deficient[np.ix_([0, 2, 3, 5, 6], [0, 2, 3, 5, 6])] = thin @ thin.T
    for shape, support in ((blocked, [1, 3, 4]), (deficient, [0, 2, 3, 5, 6])):
        ell = Ellipsoid(rng.normal(size=n), shape, rng.uniform(0.5, 2.0))
        np.testing.assert_array_equal(ell._support[0], support)
        for _ in range(50):
            x = ell.center + 2.0 * rng.normal(size=n)
            dx = x - ell.center
            want = dx @ ell.shape @ dx - ell.radius
            phi, grad = ell.boundary(x)
            assert phi == ell.violation(x)
            assert phi == pytest.approx(want, rel=1e-12, abs=1e-12)
            np.testing.assert_allclose(grad, 2.0 * ell.shape @ dx, rtol=1e-12, atol=1e-12)


def test_cone_curvature_from_the_cached_gram_matrix():
    # (D'D - g g') / ||u|| with g = D' u / ||u|| is D' (D - uh uh' D) / ||u||
    rng = np.random.default_rng(69)
    for k, n in ((3, 5), (6, 4), (1, 3)):
        cone = SecondOrderCone(rng.normal(size=(k, n)), rng.normal(size=k), rng.normal(size=n), 1.0)
        for _ in range(10):
            x = rng.normal(size=n)
            u = cone.D @ x + cone.d
            nu = np.linalg.norm(u)
            uh = u / nu
            want = cone.D.T @ (cone.D - np.outer(uh, uh @ cone.D)) / nu
            got = cone.curvature(x, 1.0)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_large_epigraph_acts_through_csr_like_its_dense_twin(monkeypatch):
    # the 8x24 cost's epigraph has D of 225 x 225 and u of 224 x 224, both over
    # _CSR_MIN_ENTRIES; its twin, built with the threshold out of reach, is dense
    cfg = CascadeConfig(n_tanks=8, horizon=24)
    steady = steady_state(cfg, 1.0)
    problem = cascade_problem(cfg, steady)
    epigraph = problem.region.cones[0]
    assert epigraph.D.size > region_module._CSR_MIN_ENTRIES
    assert scipy.sparse.issparse(epigraph._ops[0]) and scipy.sparse.issparse(epigraph._u_ops[0])
    monkeypatch.setattr(region_module, "_CSR_MIN_ENTRIES", np.inf)
    twin = dataclasses.replace(epigraph)
    assert isinstance(twin._ops[0], np.ndarray) and isinstance(twin._u_ops[0], np.ndarray)
    rng = np.random.default_rng(71)
    x0 = steady_start(cfg, steady).x
    points = [x0, x0 + 0.1 * rng.normal(size=x0.size)]
    points += [x0 + np.r_[0.3 * rng.normal(size=x0.size - 1), t] for t in (-5.0, 5.0, -100.0)]
    for x in points:
        scale = 1.0 + np.linalg.norm(x)
        phi, grad = epigraph.boundary(x)
        phi2, grad2 = twin.boundary(x)
        assert abs(epigraph.violation(x) - twin.violation(x)) <= 1e-12 * scale
        assert abs(phi - phi2) <= 1e-12 * scale
        assert np.linalg.norm(grad - grad2) <= 1e-12 * np.linalg.norm(grad2)
        hess, hess2 = epigraph.curvature(x, scale), twin.curvature(x, scale)
        assert np.linalg.norm(hess - hess2) <= 1e-12 * np.linalg.norm(hess2)
        assert np.linalg.norm(epigraph.project(x) - twin.project(x)) <= 1e-12 * scale
    assert np.linalg.norm(twin.project(points[-1]) - points[-1]) > 1.0  # far below the graph


def test_near_boundary_point_of_epigraph_cone_projects_to_itself():
    # the steady start sits on the cascade's epigraph cone to rounding
    cfg = CascadeConfig()
    steady = steady_state(cfg, 1.0)
    problem = cascade_problem(cfg, steady)
    x = steady_start(cfg, steady).x
    cone = problem.region.cones[0]
    assert abs(cone.violation(x)) <= 1e-14
    assert np.linalg.norm(cone.project(x) - x) <= 1e-12
    assert np.linalg.norm(project_region(problem.region, x) - x) <= 1e-12


def test_thin_ellipsoid_projection_matches_nlp_oracle():
    # shape eigenvalues 1 and 1e-8: a long, narrow member
    th = 0.3
    Q = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    S = Q @ np.diag([1.0, 1e-8]) @ Q.T
    ell = Ellipsoid(np.array([0.2, -0.1]), S, 1.0)
    region = ConvexRegion(np.full(2, -np.inf), np.full(2, np.inf), ellipsoids=(ell,))
    for coords in ([2.0, 3.0], [-3.0, -5000.0], [1.5, 9000.0]):
        v = ell.center + Q @ np.array(coords)
        assert ell.violation(v) > 0.0
        ref = minimize(
            lambda x: 0.5 * np.sum((x - v) ** 2),
            v,
            jac=lambda x: x - v,
            constraints=[{"type": "ineq", "fun": lambda x: -ell.violation(x),
                          "jac": lambda x: -2.0 * S @ (x - ell.center)}],
            method="SLSQP",
            options={"maxiter": 400, "ftol": 1e-14},
        )
        # SLSQP's own flag can report failure on a converged point
        assert ell.violation(ref.x) <= 1e-8
        assert np.linalg.norm(ell.project(v) - ref.x) <= 1e-6
        assert np.linalg.norm(project_region(region, v) - ref.x) <= 1e-6


def _onto_boundary(member, inside, outside):
    """Bisect the segment inside -> outside to rounding; the outer end."""
    for _ in range(100):
        mid = 0.5 * (inside + outside)
        if member.violation(mid) > 0.0:
            outside = mid
        else:
            inside = mid
    return outside


def _near_boundary_members(rng, n):
    """(member, inside point, outside points) for four member families."""
    x0 = rng.normal(size=n)
    out = []
    for pole in (True, False):
        B = rng.normal(size=(n - 1, n))
        e = 2.0 * rng.normal(size=n) if pole else rng.normal(size=n)
        # a row equal to e makes D'D - ee' positive semidefinite: no pole
        D = B if pole else np.vstack([B, e])
        d = rng.normal(size=D.shape[0])
        f = float(np.linalg.norm(D @ x0 + d) - e @ x0 + 1.0)
        cone = SecondOrderCone(D, d, e, f)
        assert (np.linalg.eigvalsh(D.T @ D - np.outer(e, e))[0] < -1e-9) == pole
        # e.x + f = -s < 0 puts a point outside the cone
        far = []
        for s in rng.uniform(0.1, 20.0, 16):
            w = 5.0 * rng.normal(size=n)
            far.append(x0 - (e @ x0 + f + s) / (e @ e) * e + w - (w @ e) / (e @ e) * e)
        out.append((cone, x0, far))
    for rank in (n, n - 2):
        A = rng.normal(size=(n, rank))
        ell = Ellipsoid(x0, A @ A.T + (0.1 * np.eye(n) if rank == n else 0.0), 1.5)
        far = [x0 + 50.0 * A @ rng.normal(size=rank) for _ in range(16)]
        out.append((ell, x0, far))
    return out


def test_near_boundary_points_project_to_themselves():
    # points bisected onto a member's boundary (0 < violation <= 1e-12): the
    # membership test and the root search must agree that they barely move
    rng = np.random.default_rng(20261018)
    checked = 0
    for n in (3, 5, 8):
        for member, inside, far in _near_boundary_members(rng, n):
            kind = "cones" if isinstance(member, SecondOrderCone) else "ellipsoids"
            for outside in far:
                assert member.violation(outside) > 0.0
                v = _onto_boundary(member, inside, outside)
                assert 0.0 < member.violation(v) <= 1e-12
                tol = 1e-9 * (1.0 + np.linalg.norm(v))
                assert np.linalg.norm(member.project(v) - v) <= tol
                region = ConvexRegion(v - 1.0, v + 1.0, **{kind: (member,)})
                assert np.linalg.norm(project_region(region, v) - v) <= tol
                checked += 1
    assert checked == 3 * 4 * 16


def _kkt_matrix(H, C):
    n, m = H.shape[0], C.shape[0]
    J = np.zeros((n + m, n + m))
    J[:n, :n] = H
    J[:n, n:] = C.T
    J[n:, :n] = C
    return J


def test_newton_step_matches_minimum_norm_least_squares():
    # regular or singular, the step with no fixed row is the SVD
    # least-squares step of the full KKT matrix
    rng = np.random.default_rng(7)
    n = 8
    B = rng.normal(size=(n, n))
    C = rng.normal(size=(3, n))
    A = rng.normal(size=(2, n))
    A[1] = np.eye(n)[2]  # an equality row fixing x_2 ...
    box = -np.eye(n)[2:3]  # ... and the lower bound of x_2, active too
    cases = [
        (B @ B.T / n + np.eye(n), C, False),
        # a linear objective at the first step (curved multipliers still at
        # zero): rank J = 2 rank C although C has full row rank
        (np.zeros((n, n)), C, True),
        (np.eye(n), np.vstack([A, box]), True),
    ]
    for H, rows, singular in cases:
        J = _kkt_matrix(H, rows)
        rank = np.linalg.matrix_rank(J)
        assert (rank < J.shape[0]) == singular
        F = rng.normal(size=J.shape[0])
        step = _kkt_step(H, _FixedRows.none(n), rows, F)
        ref, *_ = np.linalg.lstsq(J, -F, rcond=None)
        assert np.linalg.norm(step - ref) <= 1e-12 * np.linalg.norm(ref)
    J = _kkt_matrix(cases[1][0], cases[1][1])
    assert J.shape[0] - np.linalg.matrix_rank(J) == n - 3


def test_newton_kernel_rejects_non_finite_systems():
    v = np.array([2.0, 1.0, 3.0])
    cone = SecondOrderCone(np.eye(3)[:2], np.zeros(2), np.eye(3)[2], 0.0)
    x = np.array([1.5, 0.5, 1.0])
    E = np.eye(3)[:1]
    r = np.array([1.5])

    def run(grad, hess):
        return _active_set_newton(grad, hess, _FixedRows.none(3), E, r, [cone], x, np.zeros(0),
                                  1.0, 1e-13)

    assert run(lambda p: p - v, np.eye(3)) is not None
    for bad in (np.nan, np.inf):
        # a non-finite residual F, then a non-finite matrix J
        assert run(lambda p: bad * (p - v), np.eye(3)) is None
        assert run(lambda p: p - v, np.full((3, 3), bad)) is None
        # the least-squares kernel itself, on a non-finite matrix or rhs
        for M, rhs in ((np.diag([1.0, bad, 1.0]), np.ones(3)), (np.eye(3), np.array([bad, 1.0, 1.0]))):
            assert _min_norm_lstsq(M, rhs) is None


def _fixed_kkt_case(rng, n, A, H, box):
    """Fixed rows A (with their null space and pseudo-inverse), working rows
    box and an ellipsoid's gradient, the dense bordered J and a right-hand
    side F = -J s0 that J can meet."""
    kept, Z, aplus = _presolve_equalities(A)
    assert kept.size == A.shape[0]
    fixed = _FixedRows(A, rng.normal(size=A.shape[0]), Z, aplus)
    C = rng.normal(size=(n, n))
    ell = Ellipsoid(rng.normal(size=n), C @ C.T / n + 0.5 * np.eye(n), 2.0)
    B = np.vstack([box, ell.boundary(rng.normal(size=n))[1]])
    J = _kkt_matrix(H, np.vstack([A, B]))
    return fixed, B, J, -(J @ rng.normal(size=J.shape[0]))


def test_null_space_kkt_step_matches_the_dense_bordered_step(monkeypatch):
    # fixed rows, two working box rows and a curved member's gradient, with a
    # Hessian that carries the member's curvature: the step on the null space
    # is the bordered step, from a reduced matrix of order n - p + k
    orders = []
    lstsq = region_module._min_norm_lstsq
    monkeypatch.setattr(region_module, "_min_norm_lstsq",
                        lambda M, rhs: orders.append(M.shape[0]) or lstsq(M, rhs))
    rng = np.random.default_rng(23)
    n, p = 9, 4
    C = rng.normal(size=(n, n))
    H = C @ C.T / n + np.eye(n) + Ellipsoid(np.zeros(n), np.eye(n), 1.0).curvature(None, 1.0, 0.7)
    fixed, B, J, _ = _fixed_kkt_case(rng, n, rng.normal(size=(p, n)), H,
                                     np.array([-np.eye(n)[1], np.eye(n)[5]]))
    F = rng.normal(size=J.shape[0])
    ref = np.linalg.solve(J, -F)
    step = _kkt_step(H, fixed, B, F)
    assert np.linalg.norm(step - ref) <= 1e-12 * np.linalg.norm(ref)
    assert orders == [n - p + B.shape[0]]


def test_null_space_kkt_step_meets_singular_systems(monkeypatch):
    # the first step of a linear objective (zero Hessian, the curved
    # multiplier still at zero), then a box row that repeats a fixed row: the
    # reduced matrix is singular, and the step still solves J s = -F
    fallbacks = []
    fallback = region_module._min_norm_lstsq
    monkeypatch.setattr(region_module, "_min_norm_lstsq",
                        lambda M, rhs: fallbacks.append(M.shape) or fallback(M, rhs))
    rng = np.random.default_rng(29)
    n = 9
    A = rng.normal(size=(3, n))
    A[2] = np.eye(n)[2]  # a fixed row x_2 = r_2 ...
    repeat = -np.eye(n)[2]  # ... and the lower bound of x_2 in the working set
    C = rng.normal(size=(n, n))
    for H, box in ((np.zeros((n, n)), np.eye(n)[[0, 4]]),
                   (C @ C.T / n + np.eye(n), np.array([repeat, np.eye(n)[6]]))):
        fixed, B, J, F = _fixed_kkt_case(rng, n, A, H, box)
        assert np.linalg.matrix_rank(J) < J.shape[0]
        fallbacks.clear()
        step = _kkt_step(H, fixed, B, F)
        assert np.all(np.isfinite(step))
        assert np.linalg.norm(J @ step + F) <= 1e-12 * np.linalg.norm(F)
        assert fallbacks == [(n - A.shape[0] + B.shape[0],) * 2]


def test_working_set_drops_faces_the_answer_leaves(monkeypatch):
    # each start point sits on a face that the projection of v leaves, so the
    # first round's multiplier of that face is negative and the face is dropped
    calls = []
    newton = region_module._active_set_newton

    def spy(grad, hess, fixed, E, r, curved, x, y, scale, tol):
        calls.append((E.shape[0], len(curved)))
        return newton(grad, hess, fixed, E, r, curved, x, y, scale, tol)

    monkeypatch.setattr(region_module, "_active_set_newton", spy)
    ball = Ellipsoid(np.zeros(2), np.eye(2), 1.0)
    region = ConvexRegion([-2.0, -2.0], [0.8, 2.0], ellipsoids=(ball,))
    cases = [
        # on the face x_0 <= 0.8 and the ball; the answer is on the ball only,
        # and the face's multiplier in the first round is -3.7
        (np.array([0.8, -0.6]), np.array([0.3, -3.0]), [(1, 1), (0, 1)]),
        # on the ball; v lies inside it, so the answer is v with no face at all
        (np.array([0.6, 0.8]), np.array([0.1, 0.2]), [(0, 1), (0, 0)]),
    ]
    for x, v, rounds in cases:
        calls.clear()
        p, y = _working_set_solve(region, lambda p: p - v, np.eye(2), _FixedRows.none(2),
                                  np.zeros(0), x, 1e-9, 1.0, 1e-13)
        assert calls == rounds
        assert y.size == 0
        want = v if region_violation(region, v) <= 0.0 else v / np.linalg.norm(v)
        np.testing.assert_allclose(p, want, atol=1e-12)


def _polish_spy(monkeypatch):
    calls = []
    polish = region_module._polish_projection

    def spy(region, v, x, scale):
        calls.append(x)
        return polish(region, v, x, scale)

    monkeypatch.setattr(region_module, "_polish_projection", spy)
    return calls


def _slsqp_projection(region, v, constraints):
    ref = minimize(
        lambda x: 0.5 * np.sum((x - v) ** 2),
        region.clip_box(v),
        jac=lambda x: x - v,
        bounds=list(zip(region.lower, region.upper)),
        constraints=constraints,
        method="SLSQP",
        options={"maxiter": 400, "ftol": 1e-15},
    )
    return ref.x


def test_box_and_ellipsoid_projection_verifies_the_dykstra_iterate(monkeypatch):
    # the workloads' shape: boxed states and inputs, a terminal ellipsoid on
    # coordinates no box bounds, a free slack; v lies outside both.  Dykstra
    # settles in a few sweeps and its iterate passes the KKT check as it is
    calls = _polish_spy(monkeypatch)
    shape = np.zeros((8, 8))
    shape[4:7, 4:7] = [[2.0, 0.3, 0.0], [0.3, 1.0, 0.2], [0.0, 0.2, 0.5]]
    ell = Ellipsoid(np.r_[np.zeros(4), 1.0, 1.0, 1.0, 0.0], shape, 0.5)
    region = ConvexRegion(np.r_[np.zeros(4), np.full(4, -np.inf)],
                          np.r_[np.full(4, 4.0), np.full(4, np.inf)], ellipsoids=(ell,))
    cons = [{"type": "ineq", "fun": lambda x: -ell.boundary(x)[0],
             "jac": lambda x: -ell.boundary(x)[1]}]
    rng = np.random.default_rng(71)
    for _ in range(5):
        # v_3 = 5 lies above its box bound, and v_4:7 beyond the ellipsoid
        d = rng.normal(size=3)
        d *= rng.uniform(1.05, 1.5) / np.sqrt(d @ shape[4:7, 4:7] @ d / ell.radius)
        v = np.r_[rng.uniform(-0.5, 4.5, 3), 5.0, 1.0 + d, rng.normal()]
        assert ell.violation(v) > 0.0
        p = project_region(region, v)
        assert region_violation(region, p) <= 1e-9
        # SLSQP's own flag is not checked: it can report failure on a converged point
        ref = _slsqp_projection(region, v, cons)
        assert np.linalg.norm(p - ref) <= 1e-9 * (1.0 + np.linalg.norm(v))
    assert calls == []


@pytest.mark.parametrize("eps", [1e-2, 1e-3])
def test_nearly_parallel_halfspaces_still_go_through_the_polish(monkeypatch, eps):
    # x_0 <= 0 and x_0 + eps x_1 <= 0 meet at a sharp edge; v projects onto it,
    # and Dykstra zig-zags between the two faces without settling
    a = np.array([1.0, eps]) / np.hypot(1.0, eps)
    region = ConvexRegion(np.full(2, -np.inf), np.full(2, np.inf),
                          affine=(AffineInequality([1.0, 0.0], 0.0), AffineInequality(a, 0.0)))
    v = np.array([1.0, 0.5 * eps])
    with monkeypatch.context() as m:
        m.setattr(region_module, "_DYKSTRA_SWEEPS", 19)
        with pytest.raises(ProjectionError):
            project_region(region, v)
    calls = _polish_spy(monkeypatch)
    p = project_region(region, v)
    assert len(calls) >= 1
    cons = [{"type": "ineq", "fun": lambda x, m=m: m.b - m.a @ x, "jac": lambda x, m=m: -m.a}
            for m in region.affine]
    assert np.linalg.norm(p - _slsqp_projection(region, v, cons)) <= 1e-9


@st.composite
def _crossing_regions(draw):
    """A box with one ellipsoid or cone member that sticks out through one of
    its faces, and a point to project."""
    n = draw(st.integers(2, 6))
    floats = st.floats(-1.0, 1.0, allow_nan=False, allow_subnormal=False)
    lo = -1.0 - draw(arrays(float, n, elements=st.floats(0.0, 1.0)))
    hi = 1.0 + draw(arrays(float, n, elements=st.floats(0.0, 1.0)))
    center = lo + (hi - lo) * draw(arrays(float, n, elements=st.floats(0.2, 0.8)))
    B = draw(arrays(float, (n, n), elements=floats))
    shape = B @ B.T / n + 0.2 * np.eye(n)
    # the member reaches past the face x_i = hi_i (or lo_i) by the factor 1 + t
    i, upper, t = draw(st.integers(0, n - 1)), draw(st.booleans()), draw(st.floats(0.05, 1.0))
    dist = hi[i] - center[i] if upper else center[i] - lo[i]
    radius = (dist * (1.0 + t)) ** 2 / np.linalg.inv(shape)[i, i]
    ell = Ellipsoid(center, shape, radius)
    # a convex member holding every vertex holds the whole box
    vertices = itertools.product(*zip(lo, hi))
    assume(any(ell.violation(np.array(x)) > 0.0 for x in vertices))
    if draw(st.booleans()):
        members = {"ellipsoids": (ell,)}
    else:
        # the cone form, tilted: e != 0 can give the secular equation a pole
        tilt = 0.5 * draw(arrays(float, n, elements=floats))
        cone = ell.cone
        members = {"cones": (SecondOrderCone(cone.D, cone.d, tilt, cone.f - tilt @ center),)}
    # q: where a line in the face plane, from the face point below the
    # member's tip, leaves the member; v: q pushed out along both normals
    sign = 1.0 if upper else -1.0
    tip = center + sign * np.sqrt(radius / np.linalg.inv(shape)[i, i]) * np.linalg.inv(shape)[:, i]
    tip[i] = hi[i] if upper else lo[i]
    d = draw(arrays(float, n, elements=floats))
    d[i] = 0.0
    assume(np.linalg.norm(d) > 0.1)
    u = tip - center
    a, b, c = d @ shape @ d, 2.0 * d @ shape @ u, u @ shape @ u - radius
    assume(c < 0.0)
    q = tip + (-b + np.sqrt(b * b - 4.0 * a * c)) / (2.0 * a) * d
    normal = shape @ (q - center)
    v = q + draw(st.floats(0.0, 2.0)) * normal / np.linalg.norm(normal)
    v[i] += sign * draw(st.floats(0.0, 2.0))
    return ConvexRegion(lo, hi, **members), v


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(_crossing_regions())
def test_projection_matches_slsqp_where_members_cross_box_faces(case):
    # the family where the box and a curved member are both active at the
    # projection; Dykstra alone creeps there
    region, v = case
    (member,) = region.members
    ref = _slsqp_projection(region, v, [{"type": "ineq", "fun": lambda x: -member.boundary(x)[0],
                                         "jac": lambda x: -member.boundary(x)[1]}])
    # SLSQP's own flag is not checked: it can report failure on a converged point
    p = project_region(region, v)
    assert region_violation(region, p) <= 1e-9
    assert np.linalg.norm(p - ref) <= 1e-6


@st.composite
def _epigraph_cases(draw):
    """A convex quadratic f of rank <= n <= 6 with q partly outside range(P),
    and a point (x, t) inside its epigraph, on it, far outside, or far below."""
    n = draw(st.integers(1, 6))
    rank = draw(st.integers(1, n))
    where = draw(st.sampled_from(["inside", "boundary", "far outside", "far below"]))
    floats = st.floats(-2.0, 2.0, allow_nan=False, allow_subnormal=False)
    # steep graphs need the root to full relative precision; far below them
    # the plain cone's own rounding (its gap squares the cone residual)
    # passes 1e-10, so depth is drawn at unit scale only
    steep = 1.0 if where == "far below" else draw(st.sampled_from([1.0, 10.0]))
    B = draw(arrays(float, (n, rank), elements=floats)) * steep
    lam, u = np.linalg.eigh(B @ B.T)
    keep = lam > 1e-14 * max(1.0, lam[-1])
    assume(np.any(keep))
    q = draw(arrays(float, n, elements=floats))
    offset = draw(floats)
    x = draw(arrays(float, n, elements=floats)) * (100.0 if where == "far outside" else 1.0)
    fx = 0.5 * x @ B @ B.T @ x + q @ x + offset
    t = {"inside": fx + draw(st.floats(1e-6, 10.0)), "boundary": fx,
         "far outside": fx - draw(st.floats(1.0, 100.0)),
         "far below": -draw(st.floats(1e2, 1e4))}[where]
    return (lam[keep], u[:, keep], u[:, ~keep], q, offset), np.append(x, t)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(_epigraph_cases())
def test_epigraph_projection_matches_its_cone_form(case):
    # the epigraph projects in P's eigen-coordinates; its cone data, and so
    # the conic form the interior point solves, are the plain cone's
    data, v = case
    epigraph = quadratic_epigraph(*data)
    plain = SecondOrderCone(epigraph.D, epigraph.d, epigraph.e, epigraph.f)
    n = v.size
    free = np.full(n, np.inf)
    region = ConvexRegion(-free, free, cones=(epigraph,))
    for a, b in zip(region.conic, ConvexRegion(-free, free, cones=(plain,)).conic):
        np.testing.assert_array_equal(a, b)
    scale = 1.0 + np.linalg.norm(v)
    p = epigraph.project(v)
    assert np.linalg.norm(p - plain.project(v)) <= 1e-10 * scale
    assert _verify_projection(region, v, p, scale) is not None


def test_steep_epigraph_projection_is_verified_just_below_its_graph():
    # a rank-one quadratic with gradient norm about 26 at x and the point
    # 1e-3 below the graph: the multiplier is about 1.5e-6, so Brent's
    # method must stop relative to it, not at an absolute 2e-12
    b = np.array([-9.05, -5.35, 12.26, -2.73, 2.71])
    q = np.array([0.14, -1.11, 1.53, -1.98, 0.23])
    x = np.array([0.34, 0.52, 0.06, -0.82, 0.45])
    lam, u = np.linalg.eigh(np.outer(b, b))
    keep = lam > 1e-14 * lam[-1]
    epigraph = quadratic_epigraph(lam[keep], u[:, keep], u[:, ~keep], q, -1.61)
    v = np.append(x, 0.5 * (b @ x) ** 2 + q @ x - 1.61 - 1e-3)
    free = np.full(6, np.inf)
    region = ConvexRegion(-free, free, cones=(epigraph,))
    scale = 1.0 + np.linalg.norm(v)
    p = epigraph.project(v)
    plain = SecondOrderCone(epigraph.D, epigraph.d, epigraph.e, epigraph.f)
    assert np.linalg.norm(p - plain.project(v)) <= 1e-10 * scale
    assert _verify_projection(region, v, p, scale) is not None


def _exit_time(h, d):
    """Largest t with h(t d) <= 0 along the ray from the origin, which every set
    holds inside; inf when the ray never leaves within 1e6."""
    lo, hi = 0.0, 1.0
    while h(hi * d) <= 0.0:
        lo, hi = hi, 2.0 * hi
        if hi > 1e6:
            return np.inf
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if h(mid * d) <= 0.0 else (lo, mid)
    return lo


@st.composite
def _one_violated_cases(draw):
    """A box, one cone member or quadratic epigraph and one ellipsoid, each
    holding the origin inside, and a point outside exactly one of them: on a
    ray from the origin, past the first set it leaves, short of the second.

    Returns the region, the point and each set's constraint h(x) <= 0,
    written out from the drawn data (not from the package's members)."""
    n = draw(st.integers(2, 6))
    floats = st.floats(-1.0, 1.0, allow_nan=False, allow_subnormal=False)
    # the set grown 3-fold is less likely to be the one left first
    grow = draw(st.sampled_from(["box", "member", "ellipsoid"]))
    lo = -draw(arrays(float, n, elements=st.floats(0.3, 2.0))) * (3.0 if grow == "box" else 1.0)
    hi = draw(arrays(float, n, elements=st.floats(0.3, 2.0))) * (3.0 if grow == "box" else 1.0)
    B = draw(arrays(float, (n, n), elements=floats))
    S = B @ B.T / n + 0.2 * np.eye(n)
    c = 0.3 * draw(arrays(float, n, elements=floats))
    r = (c @ S @ c + draw(st.floats(0.1, 2.0))) * (9.0 if grow == "ellipsoid" else 1.0)
    ellipsoid = Ellipsoid(c, S, r)
    member_scale = 3.0 if grow == "member" else 1.0
    if draw(st.booleans()):
        D = draw(arrays(float, (2, n), elements=floats))
        d = 0.2 * draw(arrays(float, 2, elements=floats))
        f = (np.linalg.norm(d) + draw(st.floats(0.2, 2.0))) * member_scale
        cones = (SecondOrderCone(D, d, np.zeros(n), f),)

        def member(x):
            return np.sum((D @ x + d) ** 2) - f * f
    else:
        # 0.5 x.P.x + q.x + offset <= s over the last coordinate s, which the box leaves free
        k = n - 1
        C = draw(arrays(float, (k, draw(st.integers(1, k))), elements=floats))
        P = C @ C.T
        lam, u = np.linalg.eigh(P)
        keep = lam > 1e-12 * max(1.0, lam[-1])
        assume(np.any(keep))
        q = draw(arrays(float, k, elements=floats))
        offset = -draw(st.floats(0.2, 2.0)) * member_scale
        cones = (quadratic_epigraph(lam[keep], u[:, keep], u[:, ~keep], q, offset),)
        lo[-1], hi[-1] = -np.inf, np.inf

        def member(x):
            return 0.5 * x[:-1] @ P @ x[:-1] + q @ x[:-1] + offset - x[-1]

    def box(x):
        return np.max(np.maximum(lo - x, x - hi))

    def ball(x):
        return (x - c) @ S @ (x - c) - r

    sets = (box, member, ball)
    direction = draw(arrays(float, n, elements=floats))
    assume(np.linalg.norm(direction) > 0.1)
    first, second = sorted(_exit_time(h, direction) for h in sets)[:2]
    assume(first < np.inf and second > 1.01 * first)
    t = first + draw(st.floats(0.01, 0.99)) * (min(second, 10.0 * first) - first)
    v = t * direction
    assume(sum(h(v) > 0.0 for h in sets) == 1)
    return ConvexRegion(lo, hi, cones=cones, ellipsoids=(ellipsoid,)), v, (member, ball)


def _reference_projection(region, v, constraints):
    """SLSQP projection of v onto the box and the sets h(x) <= 0 of constraints."""
    return _slsqp_projection(region, v, [{"type": "ineq", "fun": lambda x, h=h: -h(x)}
                                         for h in constraints])


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(_one_violated_cases())
def test_projection_of_a_point_outside_one_set_matches_slsqp(case):
    # the violated set's own projection is the answer whenever it lands in the
    # region (P_S(v) in C, C in S, gives P_C(v) = P_S(v)); the check decides
    region, v, constraints = case
    p = project_region(region, v)
    scale = 1.0 + np.linalg.norm(v)
    assert _verify_projection(region, v, p, scale) is not None
    # SLSQP's own flag is not checked: it can report failure on a converged point
    assert np.linalg.norm(p - _reference_projection(region, v, constraints)) <= 1e-7


def _counted_ellipsoid_projections(monkeypatch):
    calls = []
    project = Ellipsoid.project

    def spy(self, v):
        calls.append(None)
        return project(self, v)

    monkeypatch.setattr(Ellipsoid, "project", spy)
    return calls


@pytest.mark.parametrize("v, violated", [
    # only the box: its clip (1, 0.7) leaves the ball, so the check rejects it
    ([1.1, 0.7], [True, False]),
    # the box and the ball
    ([1.5, 1.5], [True, True]),
])
def test_projection_outside_the_one_set_shortcut_takes_dykstra(monkeypatch, v, violated):
    # the box [-1, 1]^2 and the ball of radius 1.2 about (2, 0) meet in a lens
    ball = Ellipsoid([2.0, 0.0], np.eye(2), 1.44)
    region = ConvexRegion([-1.0, -1.0], [1.0, 1.0], ellipsoids=(ball,))
    v = np.array(v)
    assert [region_violation(ConvexRegion(region.lower, region.upper), v) > 0.0,
            ball.violation(v) > 0.0] == violated
    scale = 1.0 + np.linalg.norm(v)
    assert _verify_projection(region, v, region.clip_box(v), scale) is None
    calls = _counted_ellipsoid_projections(monkeypatch)
    p = project_region(region, v)
    assert calls  # Dykstra's sweeps project onto the ball
    assert _verify_projection(region, v, p, scale) is not None
    ref = _reference_projection(region, v, [lambda x: (x - ball.center) @ (x - ball.center) - 1.44])
    assert np.linalg.norm(p - ref) <= 1e-7
