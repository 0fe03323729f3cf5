"""Parametric NLP description and KKT machinery.

Problems have a linear objective c.x, equality constraints g(x) + M.xi = 0
with a smooth nonlinear g, and a closed convex region x in Omega.  Convex
objectives enter through an epigraph slack variable so the tracking core
only ever sees linear costs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import DimensionError, UnsupportedObjectiveError
from .region import ConvexRegion, extend_region, project_region, quadratic_epigraph


@dataclass(frozen=True, eq=False)
class PrimalDual:
    """Primal point and equality multiplier."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "y", np.atleast_1d(np.asarray(self.y, dtype=float)))


@dataclass(frozen=True)
class KKTResidual:
    stationarity: float
    equality: float
    region_distance: float

    @property
    def total(self):
        return max(self.stationarity, self.equality, self.region_distance)


@dataclass(frozen=True, eq=False)
class ParametricNLP:
    """min c.x  s.t.  g(x) + M.xi = 0,  x in region.

    g_adjoint(x, y) returns g'(x)^T y without materializing the Jacobian;
    g_jac is optional and only consulted by exact-Jacobian strategies and
    diagnostics.  lagrangian_hessian(x, y) = sum_i y_i Hess(g_i)(x) feeds
    the curvature model when available.
    """

    c: np.ndarray
    g: Callable[[np.ndarray], np.ndarray]
    g_adjoint: Callable[[np.ndarray, np.ndarray], np.ndarray]
    M: np.ndarray
    region: ConvexRegion
    g_jac: Optional[Callable[[np.ndarray], np.ndarray]] = None
    lagrangian_hessian: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    name: str = ""

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        m_mat = np.atleast_2d(np.asarray(self.M, dtype=float))
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "M", m_mat)
        if self.region.n != c.size:
            raise DimensionError("region dimension does not match objective length")

    @property
    def n(self):
        return self.c.size

    @property
    def m(self):
        return self.M.shape[0]

    @property
    def p(self):
        return self.M.shape[1]

    def check_xi(self, xi):
        xi = np.atleast_1d(np.asarray(xi, dtype=float))
        if xi.shape != (self.p,):
            raise DimensionError(f"parameter has shape {xi.shape}, expected ({self.p},)")
        return xi


def checked_output(what, value, shape):
    """A callback's output (what: its name) as a float array of the given
    shape; the library reads every g, g_adjoint, g_jac and
    lagrangian_hessian output through here."""
    out = np.asarray(value, dtype=float)
    if out.ndim < len(shape):  # a scalar or a row stands for a 1-long leading axis
        out = out.reshape((1,) * (len(shape) - out.ndim) + out.shape)
    if out.shape != shape:
        raise DimensionError(f"{what} returned shape {out.shape}, expected {shape}")
    return out


def eval_constraints(problem, x, xi, g_x=None):
    """Equality residual g(x) + M.xi (g_x: g(x) when the caller holds it)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (problem.n,):
        raise DimensionError(f"point has shape {x.shape}, expected ({problem.n},)")
    xi = problem.check_xi(xi)
    g = checked_output("g", problem.g(x) if g_x is None else g_x, (problem.m,))
    return g + problem.M @ xi


def kkt_residual(problem, z, xi, g_x=None, adj_y=None, region_distance=None):
    """Natural-map KKT residual of z = (x, y) for the problem at xi.

    stationarity = ||x - P(x - (c + g'(x)^T y))||, equality = ||g(x) + M.xi||,
    region_distance = ||x - P(x)||, with P the verified region projection
    ``project_region``.  g_x = g(x), adj_y = g'(x)^T y and region_distance
    are evaluated unless the caller already holds them (a subproblem solve
    over this region certifies the last at its solution).
    """
    x, y = z.x, z.y
    if y.shape != (problem.m,):
        raise DimensionError(f"multiplier has shape {y.shape}, expected ({problem.m},)")
    eq = eval_constraints(problem, x, xi, g_x)
    if adj_y is None:
        adj_y = checked_output("adjoint", problem.g_adjoint(x, y), (problem.n,))
    grad = problem.c + adj_y
    stat = np.linalg.norm(x - project_region(problem.region, x - grad))
    if region_distance is None:
        region_distance = np.linalg.norm(x - project_region(problem.region, x))
    return KKTResidual(float(stat), float(np.linalg.norm(eq)), float(region_distance))


@dataclass(frozen=True, eq=False)
class LinearObjective:
    """f(x) = c.x + offset."""

    c: np.ndarray
    offset: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "c", np.asarray(self.c, dtype=float))
        object.__setattr__(self, "offset", float(self.offset))

    def value(self, x):
        return float(self.c @ x + self.offset)

    def gradient(self, x):
        return np.array(self.c)


@dataclass(frozen=True, eq=False)
class QuadraticObjective:
    """f(x) = 0.5 x.P.x + q.x + offset with P symmetric positive semidefinite."""

    P: np.ndarray
    q: np.ndarray
    offset: float = 0.0

    def __post_init__(self):
        p = np.atleast_2d(np.asarray(self.P, dtype=float))
        p = (p + p.T) / 2.0
        object.__setattr__(self, "P", p)
        object.__setattr__(self, "q", np.asarray(self.q, dtype=float))
        object.__setattr__(self, "offset", float(self.offset))
        if p.shape != (self.q.size, self.q.size):
            raise DimensionError("quadratic objective shapes are inconsistent")

    def value(self, x):
        return float(0.5 * x @ self.P @ x + self.q @ x + self.offset)

    def gradient(self, x):
        return self.P @ x + self.q


def slack_reformulate(objective, problem):
    """Rewrite a convex objective as a linear one over an epigraph slack.

    Affine objectives only replace the cost vector.  Convex quadratics append
    one slack variable s, minimize s and add the rotated-cone member
    ||(B x, (w-1)/2)|| <= (w+1)/2 with w = s - q.x - offset and
    0.5 x.P.x = ||B x||^2, which is exactly f(x) <= s.  The member is built
    by ``region.quadratic_epigraph`` from the eigendecomposition of P that
    gives B, and projects in those eigen-coordinates.  Anything else is
    unsupported.
    """
    if isinstance(objective, LinearObjective):
        if objective.c.size != problem.n:
            raise DimensionError("objective length does not match problem")
        if np.array_equal(objective.c, problem.c):
            return problem
        return replace(problem, c=np.array(objective.c))

    if not isinstance(objective, QuadraticObjective):
        raise UnsupportedObjectiveError(
            f"cannot reformulate objective of type {type(objective).__name__}; "
            "only affine and convex quadratic objectives are supported"
        )
    if objective.q.size != problem.n:
        raise DimensionError("objective length does not match problem")
    lam, u = np.linalg.eigh(objective.P)
    if lam[0] < -1e-10 * max(1.0, abs(lam[-1])):
        raise UnsupportedObjectiveError("quadratic objective is not convex")
    keep = lam > 1e-14 * max(1.0, lam[-1])
    if not np.any(keep):
        # curvature numerically vanished: the objective is affine
        return slack_reformulate(LinearObjective(objective.q, objective.offset), problem)
    epigraph = quadratic_epigraph(lam[keep], u[:, keep], u[:, ~keep], objective.q,
                                  objective.offset)

    n = problem.n
    region = extend_region(problem.region, 1)
    region = replace(region, cones=region.cones + (epigraph,))

    c_new = np.zeros(n + 1)
    c_new[n] = 1.0

    g_inner, adj_inner = problem.g, problem.g_adjoint
    jac_inner, lh_inner = problem.g_jac, problem.lagrangian_hessian

    def g_ext(x):
        return g_inner(x[:n])

    def adj_ext(x, y):
        return np.concatenate([checked_output("adjoint", adj_inner(x[:n], y), (n,)), [0.0]])

    jac_ext = None
    if jac_inner is not None:

        def jac_ext(x):
            j = checked_output("g_jac", jac_inner(x[:n]), (problem.m, n))
            return np.hstack([j, np.zeros((problem.m, 1))])

    lh_ext = None
    if lh_inner is not None:

        def lh_ext(x, y):
            h = np.zeros((n + 1, n + 1))
            h[:n, :n] = checked_output("lagrangian_hessian", lh_inner(x[:n], y), (n, n))
            return h

    return ParametricNLP(
        c=c_new,
        g=g_ext,
        g_adjoint=adj_ext,
        M=problem.M,
        region=region,
        g_jac=jac_ext,
        lagrangian_hessian=lh_ext,
        name=problem.name,
    )
