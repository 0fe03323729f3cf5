"""Subproblem assembly: the linearized equality and gradient pieces."""

import dataclasses

import numpy as np
import pytest

import scptrack
from scptrack.errors import DimensionError
from scptrack.jacobians import IterateState
from scptrack.problem import ParametricNLP, PrimalDual, eval_constraints
from scptrack.region import ConvexRegion
from scptrack.subproblem import (
    ConvexSubproblem,
    SolverOptions,
    SubproblemResiduals,
    build_subproblem,
)


def _quadratic_constraint_problem():
    # g(x) = (x1^2 + x2, x1 - x2), M = -I2
    def g(x):
        return np.array([x[0] ** 2 + x[1], x[0] - x[1]])

    def jac(x):
        return np.array([[2.0 * x[0], 1.0], [1.0, -1.0]])

    return ParametricNLP(
        c=[1.0, -1.0],
        g=g,
        g_adjoint=lambda x, y: jac(x).T @ y,
        M=-np.eye(2),
        region=ConvexRegion.unbounded(2),
        g_jac=jac,
    )


def test_dimension_validation():
    region = ConvexRegion.unbounded(2)
    with pytest.raises(DimensionError):
        ConvexSubproblem(
            c=[1.0, 0.0], m_corr=[0.0], H=np.zeros((2, 2)),
            x_ref=[0.0, 0.0], A_eq=np.zeros((1, 2)), b_eq=[0.0], region=region,
        )
    with pytest.raises(DimensionError):
        ConvexSubproblem(
            c=[1.0, 0.0], m_corr=[0.0, 0.0], H=np.zeros((3, 3)),
            x_ref=[0.0, 0.0], A_eq=np.zeros((1, 2)), b_eq=[0.0], region=region,
        )
    with pytest.raises(DimensionError):
        ConvexSubproblem(
            c=[1.0, 0.0], m_corr=[0.0, 0.0], H=np.zeros((2, 2)),
            x_ref=[0.0, 0.0], A_eq=np.zeros((1, 3)), b_eq=[0.0], region=region,
        )


def test_build_subproblem_linearization_identity():
    problem = _quadratic_constraint_problem()
    rng = np.random.default_rng(17)
    x_ref = rng.normal(size=2)
    xi = rng.normal(size=2)
    A = problem.g_jac(x_ref)
    state = IterateState(
        z=PrimalDual(x_ref, np.zeros(2)),
        A=A,
        H=np.zeros((2, 2)),
        m_corr=np.zeros(2),
    )
    sp = build_subproblem(problem, state, xi)

    np.testing.assert_allclose(sp.c, problem.c)
    np.testing.assert_allclose(sp.A_eq, A)
    np.testing.assert_allclose(sp.x_ref, x_ref)
    # at the reference point the linearized residual is the true residual
    np.testing.assert_allclose(
        sp.A_eq @ (x_ref - sp.x_ref) + sp.b_eq,
        eval_constraints(problem, x_ref, xi),
    )
    # and it is exact to first order in the step
    for _ in range(5):
        dx = rng.normal(size=2) * 1e-5
        lin = sp.A_eq @ dx + sp.b_eq
        true = eval_constraints(problem, x_ref + dx, xi)
        assert np.linalg.norm(lin - true) <= 1e-8


def test_build_subproblem_uses_cached_g():
    problem = _quadratic_constraint_problem()
    calls = {"g": 0}
    counted = ParametricNLP(
        c=problem.c,
        g=lambda x: (calls.__setitem__("g", calls["g"] + 1), problem.g(x))[1],
        g_adjoint=problem.g_adjoint,
        M=problem.M,
        region=problem.region,
    )
    x_ref = np.array([0.5, -0.5])
    state = IterateState(
        z=PrimalDual(x_ref, np.zeros(2)),
        A=np.eye(2),
        H=np.zeros((2, 2)),
        m_corr=np.zeros(2),
        g_x=problem.g(x_ref),
    )
    sp = build_subproblem(counted, state, np.zeros(2))
    assert calls["g"] == 0
    np.testing.assert_allclose(sp.b_eq, problem.g(x_ref))


def test_correction_enters_gradient_not_equality():
    problem = _quadratic_constraint_problem()
    x_ref = np.array([1.0, 2.0])
    m_corr = np.array([0.3, -0.1])
    state = IterateState(
        z=PrimalDual(x_ref, np.zeros(2)),
        A=problem.g_jac(x_ref),
        H=np.eye(2),
        m_corr=m_corr,
    )
    sp = build_subproblem(problem, state, np.zeros(2))
    np.testing.assert_allclose(sp.m_corr, m_corr)
    np.testing.assert_allclose(sp.H, np.eye(2))
    # c.x + m.(x - x_ref) + 0.5 |x - x_ref|^2 at x = (2, 0), dx = (1, -2):
    # 2 + 0.5 + 2.5; (c + m).x would add m.x_ref = 0.1
    assert sp.objective(np.array([2.0, 0.0])) == pytest.approx(5.0, abs=1e-12)


def test_residual_total_is_worst_component():
    # a solution reports the subproblem's natural-map KKT residual
    assert SubproblemResiduals is scptrack.KKTResidual
    r = SubproblemResiduals(1e-9, 3e-8, 2e-9)
    assert r.total == pytest.approx(3e-8)


def test_solver_options_are_tolerance_budget_and_retry():
    # the solver settings a caller can set; step fraction, warm start,
    # tikhonov weight and printing are fixed by the solver, not options
    fields = tuple((f.name, f.default) for f in dataclasses.fields(SolverOptions))
    assert fields == (("tol", 1e-8), ("max_iter", 200), ("tikhonov_retry", True))
    for name in scptrack.__all__:
        assert getattr(scptrack, name) is not None
