"""Convex tracking subproblem: linearized equalities, exact region.

min  c.x + m.(x - x_ref) + 0.5 (x - x_ref).H.(x - x_ref)
s.t. A_eq (x - x_ref) + b_eq = 0,   x in region
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError
from .problem import KKTResidual, checked_output
from .region import ConvexRegion


class SolveStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    MAX_ITER = "max_iter"


@dataclass(frozen=True, eq=False)
class SolverOptions:
    tol: float = 1e-8
    max_iter: int = 200
    tikhonov_retry: bool = True


@dataclass(frozen=True, eq=False)
class ConvexSubproblem:
    c: np.ndarray
    m_corr: np.ndarray
    H: np.ndarray
    x_ref: np.ndarray
    A_eq: np.ndarray
    b_eq: np.ndarray
    region: ConvexRegion

    def __post_init__(self):
        for name in ("c", "m_corr", "x_ref", "b_eq"):
            object.__setattr__(self, name, np.atleast_1d(np.asarray(getattr(self, name), float)))
        object.__setattr__(self, "H", np.atleast_2d(np.asarray(self.H, dtype=float)))
        object.__setattr__(self, "A_eq", np.atleast_2d(np.asarray(self.A_eq, dtype=float)))
        n = self.c.size
        if self.m_corr.size != n or self.x_ref.size != n:
            raise DimensionError("gradient pieces disagree on dimension")
        if self.H.shape != (n, n):
            raise DimensionError("curvature matrix has wrong shape")
        if self.A_eq.shape != (self.b_eq.size, n):
            raise DimensionError("equality blocks disagree on dimension")
        if self.region.n != n:
            raise DimensionError("region dimension mismatch")

    @property
    def n(self):
        return self.c.size

    @property
    def m(self):
        return self.b_eq.size

    @property
    def grad_const(self):
        """Constant part of the gradient: c + m_corr - H.x_ref."""
        return self.c + self.m_corr - self.H @ self.x_ref

    def gradient(self, x):
        return self.grad_const + self.H @ x

    def objective(self, x):
        dx = x - self.x_ref
        return float(self.c @ x + self.m_corr @ dx + 0.5 * dx @ self.H @ dx)


# a solution's residuals are the natural-map KKT residuals of its (x, y)
SubproblemResiduals = KKTResidual


@dataclass(frozen=True, eq=False)
class SubproblemSolution:
    """A solve's result.  fixed is the equality presolve it used (None for data
    that are not finite), which a next solve of the same A_eq takes as given."""

    x: np.ndarray
    y: np.ndarray
    status: SolveStatus
    iterations: int
    residuals: KKTResidual
    regularized: bool = False
    fixed: object = field(default=None, repr=False)


def build_subproblem(problem, state, xi):
    """Subproblem at parameter xi around the carried iterate.

    Equality right-hand side is g(x_k) + M.xi; the cached g value in the
    state keeps this at zero extra g evaluations per step.
    """
    xi = problem.check_xi(xi)
    x_ref = state.z.x
    g_x = checked_output("g", problem.g(x_ref) if state.g_x is None else state.g_x, (problem.m,))
    return ConvexSubproblem(
        c=problem.c,
        m_corr=state.m_corr,
        H=state.H,
        x_ref=x_ref,
        A_eq=state.A,
        b_eq=g_x + problem.M @ xi,
        region=problem.region,
    )
