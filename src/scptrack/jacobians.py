"""Jacobian and curvature models for the tracking iteration.

The correction vector m = g'(x)^T y - A^T y repairs an inexact equality
Jacobian A in the subproblem gradient: the adjoint product supplies the
exact directional information while A may be frozen, finite-differenced
or secant-updated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from .errors import DimensionError, UsageError
from .problem import PrimalDual, checked_output

_JAC_KINDS = ("exact", "fd", "frozen", "broyden")
_HESS_KINDS = ("zero", "fixed", "projected")


@dataclass(frozen=True, eq=False)
class JacobianStrategy:
    """How the equality Jacobian model A_k evolves across steps.

    exact   recompute g'(x) every step (g_jac, or finite differences);
    fd      forward finite differences every step;
    frozen  keep the initial matrix;
    broyden rank-one secant updates, optional periodic reset to exact.
    """

    kind: str = "exact"
    fd_step: float = 1e-7
    reset_period: int = 0
    skip_threshold: Optional[float] = None

    def __post_init__(self):
        if self.kind not in _JAC_KINDS:
            raise UsageError(f"unknown jacobian strategy {self.kind!r}")
        if self.fd_step <= 0.0:
            raise UsageError("fd_step must be positive")
        if self.reset_period < 0:
            raise UsageError("reset_period must be >= 0")


@dataclass(frozen=True, eq=False)
class HessianStrategy:
    """Curvature model H_k: zero, a fixed PSD matrix, or the Lagrangian
    Hessian projected to the PSD cone (eigenvalues clamped at eig_floor)."""

    kind: str = "zero"
    matrix: Optional[np.ndarray] = None
    eig_floor: float = 0.0

    def __post_init__(self):
        if self.kind not in _HESS_KINDS:
            raise UsageError(f"unknown hessian strategy {self.kind!r}")
        if self.kind == "fixed":
            if self.matrix is None:
                raise UsageError("fixed hessian strategy needs a matrix")
            m = np.atleast_2d(np.asarray(self.matrix, dtype=float))
            m = (m + m.T) / 2.0
            if np.linalg.eigvalsh(m)[0] < -1e-10 * max(1.0, np.linalg.norm(m)):
                raise UsageError("fixed hessian matrix must be positive semidefinite")
            object.__setattr__(self, "matrix", m)
        if self.eig_floor < 0.0:
            raise UsageError("eig_floor must be >= 0")


@dataclass
class EvalCounters:
    """Work counters for one tracking run (diagnostic calls excluded);
    g_evals counts finite-difference columns too."""

    g_evals: int = 0
    jacobian_evals: int = 0
    adjoint_evals: int = 0
    solver_iters: int = 0


@dataclass(frozen=True, eq=False)
class IterateState:
    """Everything one step carries to the next: iterate, models, correction."""

    z: PrimalDual
    A: np.ndarray
    H: np.ndarray
    m_corr: np.ndarray
    k: int = 0
    g_x: Optional[np.ndarray] = None  # cached g(x), one evaluation per step
    adj_y: Optional[np.ndarray] = None  # cached g'(x)^T y, when a step computed it
    A_is_g_jac: bool = False  # A is g_jac evaluated at z.x itself
    region_distance: Optional[float] = None  # ||x - P(x)||, when the step certified it
    fixed: Any = None  # the last solve's sol.fixed; a solve rebuilds it unless fixed.A is A


def adjoint_product(problem, x, y):
    """g'(x)^T y through the problem's adjoint oracle."""
    x = np.asarray(x, dtype=float)
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if x.shape != (problem.n,) or y.shape != (problem.m,):
        raise DimensionError("adjoint product received wrong shapes")
    return checked_output("adjoint", problem.g_adjoint(x, y), (problem.n,))


def correction_vector(problem, x, y, A, adj=None):
    """m = g'(x)^T y - A^T y (adj: g'(x)^T y, when already known); zero for exact A."""
    if A.shape != (problem.m, problem.n):
        raise DimensionError("jacobian model has wrong shape")
    return (adjoint_product(problem, x, y) if adj is None else adj) - A.T @ y


def finite_difference_jacobian(g, x, m, step_scale=1e-7, g_x=None):
    """Forward differences with per-coordinate step step_scale*(1+|x_j|);
    g_x is g(x) when the caller holds it, so only the n columns call g."""
    x = np.asarray(x, dtype=float)
    n = x.size
    jac = np.empty((m, n))
    g0 = checked_output("g", g(x) if g_x is None else g_x, (m,))
    for j in range(n):
        h = step_scale * (1.0 + abs(x[j]))
        xp = np.array(x)
        xp[j] += h
        jac[:, j] = (checked_output("g", g(xp), (m,)) - g0) / h
    return jac


def _differenced_jacobian(problem, x, fd_step, counters, g_x):
    """finite_difference_jacobian of the problem's g, its g calls counted."""
    if counters is not None:
        counters.jacobian_evals += 1
        counters.g_evals += np.size(x) + (g_x is None)
    return finite_difference_jacobian(problem.g, x, problem.m, fd_step, g_x)


def full_jacobian(problem, x, fd_step=1e-7, counters=None, g_x=None):
    """Exact Jacobian: g_jac when provided, otherwise finite differences
    (g_x: g(x), when the caller holds it)."""
    if problem.g_jac is None:
        return _differenced_jacobian(problem, x, fd_step, counters, g_x)
    if counters is not None:
        counters.jacobian_evals += 1
    return checked_output("g_jac", problem.g_jac(x), (problem.m, problem.n))


def _evaluates_jacobian(strategy, k):
    """Whether update_jacobian evaluates a fresh Jacobian at step k: every
    step for exact and fd, each reset_period-th step for broyden."""
    reset = (strategy.kind == "broyden" and strategy.reset_period > 0 and k > 0
             and k % strategy.reset_period == 0)
    return strategy.kind in ("exact", "fd") or reset


def model_is_g_jac(strategy, problem, k):
    """Whether the A that init_state (k = 0) or update_jacobian at step k
    builds is g_jac at the new point: a fresh Jacobian of any strategy but fd,
    when the problem has g_jac."""
    fresh = k == 0 or _evaluates_jacobian(strategy, k)
    return fresh and strategy.kind != "fd" and problem.g_jac is not None


def _evaluate_jacobian(strategy, problem, x, counters, g_x):
    """A fresh Jacobian at x: finite differences for fd, full_jacobian otherwise."""
    if strategy.kind != "fd":
        return full_jacobian(problem, x, strategy.fd_step, counters, g_x)
    return _differenced_jacobian(problem, x, strategy.fd_step, counters, g_x)


def update_jacobian(strategy, problem, A, x_old, x_new, g_old, g_new, k, counters=None):
    """Next Jacobian model after the step x_old -> x_new (g_new = g(x_new)
    serves the finite differences)."""
    if _evaluates_jacobian(strategy, k):
        return _evaluate_jacobian(strategy, problem, x_new, counters, g_new)
    if strategy.kind == "frozen":
        return A
    # broyden
    dx = x_new - x_old
    nrm = np.linalg.norm(dx)
    skip = strategy.skip_threshold
    if skip is None:
        skip = 1e-12 * (1.0 + np.linalg.norm(x_new))
    if nrm <= skip:
        return A
    dg = g_new - g_old
    return A + np.outer(dg - A @ dx, dx) / (nrm * nrm)


def update_hessian(strategy, problem, x, y):
    """Next curvature model at (x, y)."""
    n = problem.n
    if strategy.kind == "zero":
        return np.zeros((n, n))
    if strategy.kind == "fixed":
        return np.array(strategy.matrix)
    if problem.lagrangian_hessian is None:
        raise UsageError(
            "projected hessian strategy needs the problem's lagrangian_hessian callback"
        )
    h = checked_output("lagrangian_hessian", problem.lagrangian_hessian(x, y), (n, n))
    h = (h + h.T) / 2.0
    lam, u = np.linalg.eigh(h)
    return (u * np.maximum(lam, strategy.eig_floor)) @ u.T


def init_state(problem, z0, jacobian, hessian, counters=None):
    """State before the first step: model matrices built at z0.

    The exact Jacobian at x0 seeds every strategy except fd (which
    differences immediately, from the g(x0) the state caches); the
    correction vector is consistent with the seeded A, hence zero for exact
    initialization.
    """
    x0, y0 = z0.x, z0.y
    if counters is not None:
        counters.g_evals += 1
    g0 = checked_output("g", problem.g(x0), (problem.m,))
    A0 = _evaluate_jacobian(jacobian, problem, x0, counters, g0)
    H0 = update_hessian(hessian, problem, x0, y0)
    adj0 = adjoint_product(problem, x0, y0)
    m0 = correction_vector(problem, x0, y0, A0, adj0)
    if counters is not None:
        counters.adjoint_evals += 1
    return IterateState(z=z0, A=A0, H=H0, m_corr=m0, k=0, g_x=g0, adj_y=adj0,
                        A_is_g_jac=model_is_g_jac(jacobian, problem, 0))
