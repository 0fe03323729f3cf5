"""Jacobian models, adjoint identities, curvature projection."""

from dataclasses import replace

import numpy as np
import pytest

from scptrack.cascade import CascadeConfig, cascade_problem, steady_state
from scptrack.errors import DimensionError, UsageError
from scptrack.jacobians import (
    EvalCounters,
    HessianStrategy,
    IterateState,
    JacobianStrategy,
    adjoint_product,
    correction_vector,
    finite_difference_jacobian,
    full_jacobian,
    init_state,
    update_hessian,
    update_jacobian,
)
from scptrack.problem import ParametricNLP, PrimalDual
from scptrack.region import ConvexRegion
from scptrack.tutorial import tutorial_problem, tutorial_solution


def _poly_problem():
    # dense nonlinearity so secant errors are visible
    def g(x):
        return np.array(
            [x[0] ** 2 + np.sin(x[1]) + x[2], x[0] * x[1] - np.exp(0.3 * x[2])]
        )

    def jac(x):
        return np.array(
            [
                [2.0 * x[0], np.cos(x[1]), 1.0],
                [x[1], x[0], -0.3 * np.exp(0.3 * x[2])],
            ]
        )

    return ParametricNLP(
        c=[1.0, 0.0, 0.0],
        g=g,
        g_adjoint=lambda x, y: jac(x).T @ y,
        M=-np.eye(2),
        region=ConvexRegion.unbounded(3),
        g_jac=jac,
    )


def test_adjoint_matches_fd_transpose():
    problems = [
        _poly_problem(),
        tutorial_problem(),
        cascade_problem(cfg := CascadeConfig(), steady_state(cfg, 1.0)),
    ]
    rng = np.random.default_rng(71)
    for problem in problems:
        base = np.abs(rng.normal(size=problem.n)) + 0.5
        for _ in range(10):
            x = base + rng.normal(size=problem.n) * 0.05
            y = rng.normal(size=problem.m)
            fd = finite_difference_jacobian(problem.g, x, problem.m, 1e-7)
            got = adjoint_product(problem, x, y)
            want = fd.T @ y
            denom = max(1.0, np.linalg.norm(want))
            assert np.linalg.norm(got - want) / denom <= 1e-6


def test_fd_jacobian_matches_exact():
    problem = _poly_problem()
    rng = np.random.default_rng(72)
    for _ in range(5):
        x = rng.normal(size=3)
        fd = finite_difference_jacobian(problem.g, x, 2, 1e-7)
        assert np.linalg.norm(fd - problem.g_jac(x)) <= 1e-5


def test_full_jacobian_prefers_callback_and_counts():
    problem = _poly_problem()
    counters = EvalCounters()
    x = np.array([0.2, -0.4, 0.1])
    np.testing.assert_allclose(full_jacobian(problem, x, counters=counters), problem.g_jac(x))
    assert counters.jacobian_evals == 1
    # exact on a problem with no g_jac: forward differences at the strategy's
    # step, which still count as one evaluation
    no_jac = replace(problem, g_jac=None)
    A = update_jacobian(JacobianStrategy("exact", fd_step=1e-6), no_jac, np.zeros((2, 3)), x,
                        x + 0.1, problem.g(x), problem.g(x + 0.1), 1, counters)
    assert counters.jacobian_evals == 2
    np.testing.assert_array_equal(A, finite_difference_jacobian(problem.g, x + 0.1, 2, 1e-6))


def test_correction_vanishes_for_exact_jacobian():
    problem = _poly_problem()
    rng = np.random.default_rng(73)
    x = rng.normal(size=3)
    y = rng.normal(size=2)
    m = correction_vector(problem, x, y, problem.g_jac(x))
    assert np.linalg.norm(m) <= 1e-12
    wrong = problem.g_jac(x) + 0.1
    m = correction_vector(problem, x, y, wrong)
    np.testing.assert_allclose(m, -(0.1 * np.ones((2, 3))).T @ y, atol=1e-12)


def test_update_exact_and_frozen():
    problem = _poly_problem()
    rng = np.random.default_rng(74)
    x_old = rng.normal(size=3)
    x_new = rng.normal(size=3)
    A = problem.g_jac(x_old)
    counters = EvalCounters()
    exact = update_jacobian(
        JacobianStrategy("exact"), problem, A, x_old, x_new,
        problem.g(x_old), problem.g(x_new), 1, counters,
    )
    np.testing.assert_allclose(exact, problem.g_jac(x_new))
    assert counters.jacobian_evals == 1
    frozen = update_jacobian(
        JacobianStrategy("frozen"), problem, A, x_old, x_new,
        problem.g(x_old), problem.g(x_new), 1, counters,
    )
    assert frozen is A
    assert counters.jacobian_evals == 1


def test_broyden_secant_identity():
    # after a non-skipped update the model reproduces the sampled difference
    problem = _poly_problem()
    rng = np.random.default_rng(75)
    strategy = JacobianStrategy("broyden")
    x = rng.normal(size=3)
    A = problem.g_jac(x)
    for k in range(1, 20):
        x_new = x + rng.normal(size=3) * 0.1
        g_old, g_new = problem.g(x), problem.g(x_new)
        A = update_jacobian(strategy, problem, A, x, x_new, g_old, g_new, k)
        s = x_new - x
        resid = np.linalg.norm(A @ s - (g_new - g_old))
        assert resid <= 1e-12 * max(1.0, np.linalg.norm(g_new - g_old))
        x = x_new


def test_broyden_skip_and_reset():
    problem = _poly_problem()
    rng = np.random.default_rng(76)
    x = rng.normal(size=3)
    A = np.zeros((2, 3))

    # tiny steps below the threshold leave the model untouched
    skip = JacobianStrategy("broyden", skip_threshold=1e-3)
    x_new = x + 1e-6
    out = update_jacobian(skip, problem, A, x, x_new, problem.g(x), problem.g(x_new), 3)
    assert out is A

    # periodic reset recomputes the exact matrix
    reset = JacobianStrategy("broyden", reset_period=4)
    counters = EvalCounters()
    x_new = x + 0.2
    out = update_jacobian(
        reset, problem, A, x, x_new, problem.g(x), problem.g(x_new), 4, counters
    )
    np.testing.assert_allclose(out, problem.g_jac(x_new))
    assert counters.jacobian_evals == 1


def test_hessian_strategies():
    problem = tutorial_problem()
    x = np.array([1.0, 2.0])
    y = np.array([0.25])
    zero = update_hessian(HessianStrategy("zero"), problem, x, y)
    assert not zero.any()

    proj = update_hessian(HessianStrategy("projected"), problem, x, y)
    # tutorial curvature is diag(2 y1, 0), already PSD for positive y1
    np.testing.assert_allclose(proj, np.diag([0.5, 0.0]), atol=1e-12)

    # negative multiplier flips the sign; projection clips it back
    neg = update_hessian(HessianStrategy("projected"), problem, x, -y)
    assert np.linalg.eigvalsh(neg)[0] >= -1e-12
    np.testing.assert_allclose(neg, np.zeros((2, 2)), atol=1e-12)

    floored = update_hessian(HessianStrategy("projected", eig_floor=0.1), problem, x, -y)
    assert np.linalg.eigvalsh(floored)[0] >= 0.1 - 1e-12


def test_projected_hessian_is_psd_on_random_data():
    problem = _poly_problem()
    lh = lambda x, y: (
        y[0] * np.array([[2.0, 0.0, 0.0], [0.0, -np.sin(x[1]), 0.0], [0.0, 0.0, 0.0]])
        + y[1] * np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0],
                           [0.0, 0.0, -0.09 * np.exp(0.3 * x[2])]])
    )
    with_h = ParametricNLP(
        c=problem.c, g=problem.g, g_adjoint=problem.g_adjoint, M=problem.M,
        region=problem.region, g_jac=problem.g_jac, lagrangian_hessian=lh,
    )
    rng = np.random.default_rng(77)
    strategy = HessianStrategy("projected")
    for _ in range(20):
        x = rng.normal(size=3)
        y = rng.normal(size=2)
        H = update_hessian(strategy, with_h, x, y)
        assert np.linalg.eigvalsh(H)[0] >= -1e-12
        np.testing.assert_allclose(H, H.T)


def test_projected_needs_second_order_callback():
    problem = _poly_problem()
    with pytest.raises(UsageError):
        update_hessian(HessianStrategy("projected"), problem, np.zeros(3), np.zeros(2))


def test_strategy_validation():
    with pytest.raises(UsageError):
        JacobianStrategy("newton")
    with pytest.raises(UsageError):
        JacobianStrategy("fd", fd_step=0.0)
    with pytest.raises(UsageError):
        HessianStrategy("fixed")
    with pytest.raises(UsageError):
        HessianStrategy("fixed", matrix=[[-1.0]])
    with pytest.raises(UsageError, match="reset_period must be >= 0"):
        JacobianStrategy("broyden", reset_period=-1)
    with pytest.raises(UsageError, match="unknown hessian strategy"):
        HessianStrategy("bfgs")
    with pytest.raises(UsageError, match="eig_floor must be >= 0"):
        HessianStrategy("projected", eig_floor=-1e-3)


def test_init_state_counters_and_consistency():
    problem = tutorial_problem()
    z0, _ = tutorial_solution(1.45)
    counters = EvalCounters()
    state = init_state(
        problem, z0, JacobianStrategy("exact"), HessianStrategy("zero"), counters
    )
    assert (counters.jacobian_evals, counters.adjoint_evals, counters.g_evals) == (1, 1, 1)
    np.testing.assert_allclose(state.A, problem.g_jac(z0.x))
    np.testing.assert_allclose(state.g_x, problem.g(z0.x))
    assert np.linalg.norm(state.m_corr) <= 1e-12
    assert state.k == 0


def test_adjoint_product_shape_check():
    problem = _poly_problem()
    with pytest.raises(DimensionError):
        correction_vector(problem, np.zeros(3), np.zeros(2), np.zeros((3, 3)))
