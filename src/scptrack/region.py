"""Closed convex regions built from box, affine, second-order-cone and
ellipsoid members, with exact member projections and Dykstra's alternating
projection onto the intersection.

Member projections solve a 1D secular equation in the Lagrange multiplier
(eigendecomposition cached per member); Dykstra then combines them, unless
the projection onto one of the sets that the point violates lands in the
region: it is then the region's projection (``project_region``).  Cone
members and ellipsoids share one secular solver, ``SecondOrderCone.project``:
an ellipsoid projects through its cone form.  The equation decreases up to
its pole, so that branch is bracketed from a Newton step and refined by
Brent's method; only the branch beyond the pole is scanned on a grid.  The
epigraph of a convex quadratic (``quadratic_epigraph``, the member
``problem.slack_reformulate`` adds) is a cone member that projects on its
own: its multiplier equation, in the eigen-coordinates of the quadratic's
matrix, decreases with no pole and costs O(rank) per evaluation.

Curved members own their geometry, each at its own sparsity: ``boundary``
gives the violation and the outward gradient, ``curvature`` the Hessian of
the boundary function, and ``Ellipsoid.cone`` the ellipsoid as a
second-order cone (the form ``ipm`` compiles).  An ellipsoid's violation and
boundary act on the block of its shape's support (the cascade's terminal set:
8 of 225 coordinates).  A cone member applies D, and the epigraph its
eigenvectors, as the rows of ``ConvexRegion.conic`` are applied: as CSR arrays
above ``_CSR_MIN_ENTRIES`` entries (``_operators``).  A cone's curvature is
(D'D - g g') / ||D x + d||, g = D' (D x + d) / ||D x + d||, from a cached D'D.
The linear constraints are built once, as ``ConvexRegion.rows``.  Member data
must be finite.  The working set, the projection check, the Newton kernel and
the tangent relaxation in ``tracking`` all go through these.

Both polishing steps share one working-set solve, ``_working_set_solve``:
``_polish_projection`` turns a slow Dykstra run (at most 100 sweeps) into an
exactly verified projection with it, and ``ipm._primal_polish`` refines
interior-point iterates.  Each round of it is solved by the Newton kernel
``_active_set_newton``.  Rows held fixed are the interior point's presolve,
one ``_FixedRows`` value (``none``, Z = I, for the projection), with their
right-hand side beside it; they are eliminated through its null-space basis
Z and pseudo-inverse, so each step (``_kkt_step``) solves only the reduced
KKT matrix [[Z' H Z, (BZ)'], [BZ, 0]], B the working rows and curved
gradients, and their multipliers are fitted, not stepped (``fit``).  That
matrix is singular at the first step of a linear objective (zero Hessian
block, the curved multipliers still at zero) and when an active box row
repeats a fixed row, so every step is its minimum-norm least-squares
solution (``_min_norm_lstsq``, complete orthogonal factorization), which is
the exact solution wherever the matrix is regular.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Any, NamedTuple

import numpy as np
import scipy.sparse
from scipy.linalg.lapack import dgelsy, dgelsy_lwork
from scipy.optimize import brentq, nnls

from .errors import DimensionError, ProjectionError, UsageError

_ROOT_RTOL = 4 * np.finfo(float).eps
_DYKSTRA_STOP = 1e-10  # largest sweep move at which a Dykstra iterate goes to the check
_DYKSTRA_SWEEPS = 100  # sweeps before a projection that verified no point gives up
# the conic rows, and a member's D or eigenvectors, are CSR when the matrix has
# more entries than this; below it a dense product costs no more than a CSR one
_CSR_MIN_ENTRIES = 20000


def _freeze(a):
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


def _operators(M):
    """(M, M') for products: CSR arrays when M has more than
    ``_CSR_MIN_ENTRIES`` entries, M and its transposed view otherwise."""
    if M.size > _CSR_MIN_ENTRIES:
        M = scipy.sparse.csr_array(M)
        return M, M.T.tocsr()
    return M, M.T


def _check_finite(what, *data):
    # a nan or inf entry would drop out of, or poison, the member's cone form
    if not all(np.all(np.isfinite(a)) for a in data):
        raise UsageError(f"{what} data must be finite")


def _monotone_root(gfun, pole, slope):
    """The root of gfun on [0, pole), where it decreases, or None.

    lam = 0 whenever gfun(0) <= 0; otherwise a geometric bracket from the
    Newton step gfun(0) / -slope that never steps onto the pole, refined by
    Brent's method to the relative tolerance 4 eps (h + lam), with h that
    first bracket end (for a convex gfun at most the root).
    """
    lo, g = 0.0, gfun(0.0)
    if g <= 0.0:
        return 0.0
    step = g / -slope if slope < 0.0 else 1.0
    hi = min(step if 0.0 < step < np.inf else 1.0, 0.5 * pole)
    xtol = _ROOT_RTOL * hi
    while lo < hi < min(pole, 2.0**64) and np.isfinite(g):
        g = gfun(hi)
        if g <= 0.0:
            return hi if g == 0.0 else brentq(gfun, lo, hi, xtol=xtol, rtol=_ROOT_RTOL,
                                              maxiter=200)
        lo, hi = hi, min(2.0 * hi, 0.5 * (hi + pole))
    return None


def _secular_root(gfun, pole, accept, slope):
    """First multiplier lam >= 0 with gfun(lam) = 0 passing the accept test.

    gfun is rational in lam with at most one positive pole and decreases on
    [0, pole) (slope = gfun'(0)), so that branch is bracketed.  Beyond the
    pole it is not monotone: that branch alone is scanned on a geometric
    grid.  Both refine by Brent's method on gfun itself.
    """
    lam = _monotone_root(gfun, pole, slope)
    if lam is not None and accept(lam):
        return lam
    if pole == np.inf:
        return None
    grid = pole * (1.0 + 2.0 ** np.concatenate([-np.arange(48, 0, -1), np.arange(0, 64)]))
    lam_prev, g_prev = grid[0], gfun(grid[0])
    for lam in grid[1:]:
        g = gfun(lam)
        if np.isfinite(g) and np.isfinite(g_prev) and g_prev * g < 0.0:
            # the point varies like 1/(lam - pole): xtol is relative to that distance
            root = brentq(gfun, lam_prev, lam, xtol=_ROOT_RTOL * (lam_prev - pole),
                          rtol=_ROOT_RTOL, maxiter=200)
            if accept(root):
                return root
        elif g == 0.0 and accept(lam):
            return lam
        lam_prev, g_prev = lam, g
    return None


@dataclass(frozen=True, eq=False)
class AffineInequality:
    """Halfspace {x : a.x <= b}."""

    a: np.ndarray
    b: float

    def __post_init__(self):
        object.__setattr__(self, "a", _freeze(np.atleast_1d(self.a)))
        object.__setattr__(self, "b", float(self.b))
        if self.a.ndim != 1:
            raise DimensionError("affine member coefficient must be a vector")
        _check_finite("affine member", self.a, self.b)

    def violation(self, x):
        return float(self.a @ x - self.b)

    def project(self, v):
        gap = self.a @ v - self.b
        if gap <= 0.0:
            return np.array(v)
        return v - (gap / (self.a @ self.a)) * self.a


@dataclass(frozen=True, eq=False)
class SecondOrderCone:
    """Member {x : ||D x + d|| <= e.x + f}."""

    D: np.ndarray
    d: np.ndarray
    e: np.ndarray
    f: float

    def __post_init__(self):
        object.__setattr__(self, "D", _freeze(np.atleast_2d(self.D)))
        object.__setattr__(self, "d", _freeze(np.atleast_1d(self.d)))
        object.__setattr__(self, "e", _freeze(np.atleast_1d(self.e)))
        object.__setattr__(self, "f", float(self.f))
        if self.D.shape != (self.d.size, self.e.size):
            raise DimensionError("cone member shapes are inconsistent")
        _check_finite("cone member", self.D, self.d, self.e, self.f)

    @cached_property
    def _ops(self):
        # D and D' for products: CSR for the 8x24 cost's epigraph (225 x 225)
        return _operators(self.D)

    @cached_property
    def _DtD(self):
        return self.D.T @ self.D

    @cached_property
    def _eig(self):
        # curvature matrix of the squared-residual secular equation; a
        # rank-one downdate of D'D, so it has at most one negative eigenvalue
        m = self._DtD - np.outer(self.e, self.e)
        return np.linalg.eigh((m + m.T) / 2.0)

    @cached_property
    def _vertex(self):
        # affine set {D x = -d, e.x = -f}; empty for every member this
        # package constructs, kept for closure of the projection
        E = np.vstack([self.D, self.e])
        r = np.concatenate([-self.d, [-self.f]])
        sol, *_ = np.linalg.lstsq(E, r, rcond=None)
        attained = np.linalg.norm(E @ sol - r) <= 1e-9 * (1.0 + np.linalg.norm(r))
        return attained, E, r

    def violation(self, x):
        u = self._ops[0] @ x + self.d
        return float(math.sqrt(u @ u) - (self.e @ x + self.f))

    def _upper_nappe(self, x):
        """e.x + f >= 0 to 1e-10 relative: x lies on the cone, not its mirror."""
        return self.e @ x + self.f >= -1e-10 * (1.0 + np.linalg.norm(x))

    def boundary(self, x):
        """Violation and outward gradient at x; the subgradient -e at the apex."""
        D, Dt = self._ops
        u = D @ x + self.d
        nu = math.sqrt(u @ u)
        grad = (Dt @ u / nu if nu > 0.0 else 0.0) - self.e
        return float(nu - (self.e @ x + self.f)), grad

    def curvature(self, x, scale, weight=1.0):
        """weight times the Hessian of the boundary function at x (0.0 when
        weight is 0); None within 1e-12 scale of the apex, whatever the weight.
        D' (I - uu'/u'u) D / ||u||, u = D x + d, is (D'D - g g') / ||u||."""
        D, Dt = self._ops
        u = D @ x + self.d
        nu = math.sqrt(u @ u)
        if nu <= 1e-12 * scale:
            return None
        if not weight:
            return 0.0
        g = Dt @ (u / nu)
        return weight * ((self._DtD - np.outer(g, g)) / nu)

    def project(self, v):
        t = float(self.e @ v + self.f)
        D, Dt = self._ops
        if t >= 0.0 and np.linalg.norm(D @ v + self.d) <= t:
            return np.array(v)
        lam_m, u = self._eig
        vu = u.T @ v
        wu = u.T @ (Dt @ self.d - self.f * self.e)
        with np.errstate(over="ignore"):  # a rounding-size negative eigenvalue: no pole
            pole = np.inf if lam_m[0] >= 0.0 else 1.0 / -lam_m[0]

        def point(lam):
            return u @ ((vu - lam * wu) / (1.0 + lam * lam_m))

        def gap(lam):
            x = point(lam)
            return float(np.sum((D @ x + self.d) ** 2) - (self.e @ x + self.f) ** 2)

        # on [0, pole) the gap has derivative -2 sum g_i^2 / (1 + lam mu_i)^3,
        # with M = u diag(mu) u' and g = u'(M v + w)
        slope = -2.0 * float(np.sum((lam_m * vu + wu) ** 2))
        root = _secular_root(gap, pole, lambda lam: self._upper_nappe(point(lam)), slope)
        if root is not None:
            return point(root)
        if pole < np.inf:
            hard = self._hard_case(v, vu, wu, lam_m, u, pole)
            if hard is not None:
                return hard
        attained, E, r = self._vertex
        if not attained:
            raise ProjectionError("cone member projection found no valid root")
        corr, *_ = np.linalg.lstsq(E, E @ v - r, rcond=None)
        return v - corr

    def _hard_case(self, v, vu, wu, lam_m, u, pole):
        # multiplier exactly at the pole: the stationarity system is singular
        # there and the solution keeps a free component along the pole
        # eigenvector (the trust-region "hard case" analogue)
        rhs = vu - pole * wu
        if abs(rhs[0]) > 1e-9 * (1.0 + np.linalg.norm(rhs)):
            return None
        x_p = u @ np.concatenate([[0.0], rhs[1:] / (1.0 + pole * lam_m[1:])])
        u_neg = u[:, 0]
        r0 = self.D @ x_p + self.d
        du = self.D @ u_neg
        t0 = self.e @ x_p + self.f
        eu = self.e @ u_neg
        a = du @ du - eu * eu  # = lam_m[0] < 0
        b = 2.0 * (r0 @ du - t0 * eu)
        c = r0 @ r0 - t0 * t0
        disc = b * b - 4.0 * a * c
        if disc < 0.0:
            return None
        taus = ((-b - np.sqrt(disc)) / (2.0 * a), (-b + np.sqrt(disc)) / (2.0 * a))
        cands = [x for x in (x_p + tau * u_neg for tau in taus) if self._upper_nappe(x)]
        return min(cands, key=lambda x: float(np.sum((x - v) ** 2)), default=None)


@dataclass(frozen=True, eq=False)
class _Epigraph(SecondOrderCone):
    """The epigraph {(x, s) : 0.5 x.P.x + q.x + offset <= s} of a convex
    quadratic, as ``quadratic_epigraph`` builds it: a cone member with the
    eigenpairs (lam, u) of P's positive spectrum, q's coordinates qu = u'q
    and its part q_perp outside range(P)."""

    lam: np.ndarray
    u: np.ndarray
    qu: np.ndarray
    q_perp: np.ndarray
    offset: float

    @cached_property
    def _u_ops(self):
        # u and u' for products: CSR at 8x24, where u has 280 nonzeros of 50176
        return _operators(self.u)

    def project(self, v):
        """Projection from the epigraph's own multiplier equation.

        With x(mu) = (I + mu P)^-1 (x_v - mu q) and s = t + mu for v = (x_v, t),
        phi(mu) = 0.5 x.P.x + q.x + offset - (t + mu) strictly decreases on
        mu >= 0 and has no pole; in P's eigen-coordinates each evaluation is
        O(rank P).  mu = 0 (v inside) is decided from phi(0).
        """
        x, t = v[:-1], float(v[-1])
        lam, qu, half = self.lam, self.qu, 0.5 * self.lam
        u, ut = self._u_ops
        vu = ut @ x
        qq = float(self.q_perp @ self.q_perp)
        rest = float(self.q_perp @ x) + self.offset - t

        def coords(mu):
            return (vu - mu * qu) / (1.0 + mu * lam)

        def phi(mu):
            # the part of f(x(mu)) outside range(P) is q_perp.x_v - mu |q_perp|^2
            xu = coords(mu)
            return float(xu @ (half * xu + qu)) + rest - mu * (qq + 1.0)

        # phi'(0) = -(||P x_v + q||^2 + 1), and phi is convex: the Newton step
        # from 0 bounds the root from below, so Brent's tolerance scales with it
        slope = -(float(np.sum((lam * vu + qu) ** 2)) + qq + 1.0)
        mu = _monotone_root(phi, np.inf, slope)
        if mu is None:
            raise ProjectionError("epigraph projection found no root")
        if mu == 0.0:
            return np.array(v)
        return np.concatenate([x + u @ (coords(mu) - vu) - mu * self.q_perp, [t + mu]])


def quadratic_epigraph(lam, u, u_null, q, offset):
    """The member f(x) <= s over (x, s), f(x) = 0.5 x.P.x + q.x + offset with
    P = u diag(lam) u' (lam > 0) and u_null the rest of P's orthonormal
    eigenvectors, which carry q's part outside range(P).

    As a cone it is ||(B x, (w-1)/2)|| <= (w+1)/2 with w = s - q.x - offset
    and B = diag(sqrt(lam / 2)) u', so 0.5 x.P.x = ||B x||^2; ``project``
    works on (lam, u) directly.
    """
    n, k = u.shape
    D = np.zeros((k + 1, n + 1))
    D[:k, :n] = np.sqrt(lam / 2.0)[:, None] * u.T
    D[k, :n] = -q / 2.0
    D[k, n] = 0.5
    d = np.zeros(k + 1)
    d[k] = (-offset - 1.0) / 2.0
    e = np.concatenate([-q / 2.0, [0.5]])
    return _Epigraph(D, d, e, (1.0 - offset) / 2.0, _freeze(lam), _freeze(u), _freeze(u.T @ q),
                     _freeze(u_null @ (u_null.T @ q)), float(offset))


@dataclass(frozen=True, eq=False)
class Ellipsoid:
    """Member {x : (x - center).shape.(x - center) <= radius}."""

    center: np.ndarray
    shape: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", _freeze(np.atleast_1d(self.center)))
        s = np.atleast_2d(np.asarray(self.shape, dtype=float))
        s = (s + s.T) / 2.0
        object.__setattr__(self, "shape", _freeze(s))
        object.__setattr__(self, "radius", float(self.radius))
        if s.shape != (self.center.size, self.center.size):
            raise DimensionError("ellipsoid shape matrix size mismatch")
        _check_finite("ellipsoid", self.center, s, self.radius)
        if self.radius <= 0.0:
            raise UsageError("ellipsoid radius must be positive")
        lam = np.linalg.eigvalsh(s)
        if lam[0] < -1e-10 * max(1.0, lam[-1]):
            raise UsageError("ellipsoid shape matrix must be positive semidefinite")

    @cached_property
    def cone(self):
        """The member as a cone, ||S^1/2 (x - center)|| <= sqrt(radius), with
        S^1/2 taken over the numerically positive eigenvalues of the shape.
        Projections onto the ellipsoid go through this form."""
        lam, u = np.linalg.eigh(self.shape)
        keep = lam > 1e-14 * max(1.0, lam[-1])
        root = np.sqrt(lam[keep])[:, None] * u[:, keep].T
        return SecondOrderCone(root, -(root @ self.center), np.zeros(self.center.size),
                               np.sqrt(self.radius))

    @cached_property
    def _support(self):
        # the coordinates the shape touches, its block on them and the centre there
        idx = np.flatnonzero(np.any(self.shape != 0.0, axis=0))
        return idx, self.shape[np.ix_(idx, idx)], self.center[idx]

    def violation(self, x):
        idx, S, c = self._support
        dx = np.asarray(x)[idx] - c
        return float(dx @ S @ dx - self.radius)

    def boundary(self, x):
        """Violation and outward gradient at x, both from the shape's support."""
        idx, S, c = self._support
        dx = np.asarray(x)[idx] - c
        grad = np.zeros(self.center.size)
        grad[idx] = 2.0 * S @ dx
        return float(dx @ S @ dx - self.radius), grad

    def curvature(self, x, scale, weight=1.0):
        """weight times the Hessian of the boundary function (constant)."""
        return weight * (2.0 * self.shape) if weight else 0.0

    def project(self, v):
        if self.violation(v) <= 0.0:
            return np.array(v)
        return self.cone.project(v)


@dataclass(frozen=True, eq=False)
class ConvexRegion:
    """Intersection of a box with affine, cone and ellipsoid members."""

    lower: np.ndarray
    upper: np.ndarray
    affine: tuple = ()
    cones: tuple = ()
    ellipsoids: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "lower", _freeze(np.atleast_1d(self.lower)))
        object.__setattr__(self, "upper", _freeze(np.atleast_1d(self.upper)))
        object.__setattr__(self, "affine", tuple(self.affine))
        object.__setattr__(self, "cones", tuple(self.cones))
        object.__setattr__(self, "ellipsoids", tuple(self.ellipsoids))
        n = self.lower.size
        if self.upper.size != n:
            raise DimensionError("box bounds have different lengths")
        # region.rows would drop a nan bound, a lower one of +inf or an upper one
        # of -inf as if the coordinate were free (nan fails both comparisons)
        if not (np.all(self.lower < np.inf) and np.all(self.upper > -np.inf)):
            raise UsageError("box bound is nan, a lower bound +inf or an upper bound -inf")
        if np.any(self.lower > self.upper):
            raise UsageError("box has lower > upper")
        for m in self.affine:
            if m.a.size != n:
                raise DimensionError("affine member dimension mismatch")
        for m in self.cones:
            if m.e.size != n:
                raise DimensionError("cone member dimension mismatch")
        for m in self.ellipsoids:
            if m.center.size != n:
                raise DimensionError("ellipsoid member dimension mismatch")

    @property
    def n(self):
        return self.lower.size

    @property
    def members(self):
        return tuple(self.affine) + tuple(self.cones) + tuple(self.ellipsoids)

    @cached_property
    def rows(self):
        """The linear constraints as N x <= b: the finite lower bounds
        (-x_i <= -lower_i), the finite upper bounds, then the affine members."""
        lo, up = np.isfinite(self.lower), np.isfinite(self.upper)
        eye = np.eye(self.n)
        N = np.vstack([-eye[lo], eye[up]] + [m.a for m in self.affine])
        b = np.concatenate([-self.lower[lo], self.upper[up], [m.b for m in self.affine]])
        return _freeze(N), _freeze(b)

    @cached_property
    def conic(self):
        """The region in the conic form ``ipm`` solves, G x + s = h with s in
        R^l_+ x SOC(soc_dims[0]) x ..., as (G, G', h, l, soc_dims).

        The orthant holds ``rows``; each cone member, then each ellipsoid
        (through ``Ellipsoid.cone``), adds one block [-e'; -D] x + s = [f; d].
        G and G' are CSR arrays when G has more than ``_CSR_MIN_ENTRIES``
        entries (the 8x24 cascade: 475 x 225, 1% nonzero); otherwise G is
        dense and G' its transposed view.
        """
        N, b = self.rows
        cones = self.cones + tuple(m.cone for m in self.ellipsoids)
        G = np.vstack([N] + [np.vstack([-m.e, -m.D]) for m in cones])
        h = np.concatenate([b] + [np.concatenate([[m.f], m.d]) for m in cones])
        dims = tuple(m.D.shape[0] + 1 for m in cones)
        return *_operators(_freeze(G)), _freeze(h), b.size, dims

    def clip_box(self, v):
        return np.clip(v, self.lower, self.upper)

    @classmethod
    def unbounded(cls, n):
        return cls(np.full(n, -np.inf), np.full(n, np.inf))


def _violations(region, x):
    """Signed violation of the box, then of each member (<= 0 means satisfied)."""
    box = float(np.max(np.maximum(region.lower - x, x - region.upper), initial=-np.inf))
    return [box] + [m.violation(x) for m in region.members]


def region_violation(region, x):
    """Signed worst-case violation over all members (<= 0 means feasible)."""
    return max(_violations(region, x))


def _active_normals(region, x, eps):
    """Outward normals of the members active at x (within eps)."""
    N, b = region.rows
    curved = [m for m in region.cones + region.ellipsoids if m.violation(x) >= -eps]
    return list(N[b - N @ x <= eps]) + [m.boundary(x)[1] for m in curved]


def _verify_projection(region, v, cand, scale):
    """cand if it is provably the projection of v (KKT with nonneg weights)."""
    if not region_violation(region, cand) <= 1e-11 * scale:  # nan fails too
        return None
    r = v - cand
    if np.linalg.norm(r) <= 1e-11 * scale:
        return cand
    normals = _active_normals(region, cand, 1e-9 * scale)
    if not normals:
        return None
    _, rnorm = nnls(np.array(normals).T, r)
    # r carries the rounding of cand, a few eps * scale: the floor acts beyond scale 1e6
    if rnorm <= max(1e-9 * (1.0 + np.linalg.norm(r)), 1e-15 * scale):
        return cand
    return None


def _min_norm_lstsq(M, rhs):
    """Minimum-norm least-squares solution of M z = rhs by complete orthogonal
    factorization, with numpy's rank cutoff eps * max(M.shape); None when M or
    rhs is not finite.  LAPACK's gelsy is called as scipy.linalg.lstsq calls it
    (its workspace query, zeros for an empty M), so the two give the same bits."""
    if not (np.all(np.isfinite(M)) and np.all(np.isfinite(rhs))):
        return None
    m, n = M.shape
    if m == 0 or n == 0:
        return np.zeros(n)
    cond = np.finfo(float).eps * max(m, n)
    lwork = int(dgelsy_lwork(m, n, 1, cond)[0])
    b = np.zeros(max(m, n))  # gelsy writes the n-vector z over rhs
    b[:m] = rhs
    return dgelsy(M, b, np.zeros(n, dtype=np.int32), cond, lwork)[1][:n]


class _FixedRows(NamedTuple):
    """The null-space elimination of equality rows, built from their matrix alone.

    A has full row rank, Z is an orthonormal basis of its null space and
    aplus its pseudo-inverse (A aplus = I), as ``ipm._presolve_equalities``
    builds them: the pivoted QR's array, or ``ipm._PseudoInverse``, which
    applies ``aplus @ v`` and ``aplus.T @ u`` to vectors by solves with one
    LU of S = [A' | E_N] in band or dense storage.  A is the rows ``kept``
    of m rows, and the multipliers are reported on all m.  ``none`` has no
    kept row and Z = I.
    The rows' right-hand side is passed beside the value.
    """

    A: np.ndarray
    Z: np.ndarray
    aplus: Any
    kept: np.ndarray
    m: int

    @classmethod
    def none(cls, n, m=0):
        return cls(np.zeros((0, n)), np.eye(n), np.zeros((n, 0)), np.zeros(0, int), m)

    def fit(self, r):
        """y = -A+' r on the kept rows, 0 on the rest of the m rows: the
        least-squares fit of r + A' y = 0.  Every equality multiplier is
        this fit at the point where it is wanted, never an iterate: a Newton
        step on the null space of A moves nothing else with y."""
        y = np.zeros(self.m)
        y[self.kept] = -(self.aplus.T @ r)
        return y


def _kkt_step(hess, fixed, B, F):
    """Newton step (dp, dl) of the KKT system

        [[hess, A', B'], [A, 0, 0], [B, 0, 0]] (dp, dy, dl) = -F,   F = (F_p, F_A, F_B),

    taken on the null space of the fixed rows A (Nocedal & Wright, Numerical
    Optimization, 16.2): dp = -A+ F_A + Z dv, where (dv, dl) solves the
    reduced matrix [[Z' hess Z, (BZ)'], [BZ, 0]] in the minimum-norm
    least-squares sense (``_min_norm_lstsq``).  dy moves neither (Z' A' dy = 0)
    and is not formed.  With no fixed row the reduced matrix is the full one.
    None when the system is not finite.
    """
    n, nf, k = hess.shape[0], fixed.A.shape[0], B.shape[0]
    f_p, f_a, f_b = F[:n], F[n : n + nf], F[n + nf :]
    Z = fixed.Z
    if nf:
        dp = -(fixed.aplus @ f_a)
        ZHZ, BZ, rhs = Z.T @ hess @ Z, B @ Z, np.concatenate([(f_p + hess @ dp) @ Z, f_b + B @ dp])
    else:
        ZHZ, BZ, rhs = hess, B, F
    nz = ZHZ.shape[0]
    red = _min_norm_lstsq(np.block([[ZHZ, BZ.T], [BZ, np.zeros((k, k))]]), -rhs)
    if red is None:
        return None
    return (dp + Z @ red[:nz] if nf else red[:nz]), red[nz:]


def _active_set_newton(grad, hess, fixed, rhs, E, r, curved, x, scale, tol):
    """Newton's method for min f(p) s.t. the fixed rows A p = rhs, E p = r and
    every curved boundary.

    f has gradient grad and constant Hessian hess.  The multipliers of E and
    of the curved members start from zero; those of the fixed rows
    (``_FixedRows``) are fitted at every step, y = -A+' (grad f + B' w).
    Returns (p, y, w, mu), the multipliers of the fixed rows, of E and of the
    curved members, once the whole KKT residual is at most tol in max norm,
    otherwise None (40 steps, a cone apex or a non-finite step).

    Each step is ``_kkt_step``: the fixed rows are eliminated through their
    null space, and the reduced KKT matrix gets its minimum-norm
    least-squares solution.  That matrix can be singular without any
    dependent constraint: with hess = 0 (a linear objective) and the curved
    multipliers still at zero, the first step's Hessian block vanishes, and
    the matrix has rank 2 rank [E; grads] Z < its size whenever fewer than
    n - rank A constraints are active.  Truly dependent rows (a box-active
    coordinate that a fixed row also fixes) make it singular too.
    """
    le = E.shape[0]
    p = np.array(x)
    w = np.zeros(le + len(curved))
    for _ in range(40):
        terms = [m.boundary(p) for m in curved]
        B = np.vstack([E] + [t[1] for t in terms])
        g = grad(p) + B.T @ w
        y = fixed.fit(g)
        F = np.concatenate([g + fixed.A.T @ y[fixed.kept], fixed.A @ p - rhs, E @ p - r,
                            [t[0] for t in terms]])
        converged = np.max(np.abs(F)) <= tol
        # the apex check runs on every iteration; a Hessian is formed only
        # for a step to take and a nonzero multiplier
        hessians = [m.curvature(p, scale, 0.0 if converged else m_i)
                    for m, m_i in zip(curved, w[le:])]
        if any(h is None for h in hessians):
            return None
        if converged:
            return p, y, w[:le], w[le:]
        step = _kkt_step(hess + sum(hessians), fixed, B, F)
        if step is None or not all(np.all(np.isfinite(d)) for d in step):
            return None
        p, w = p + step[0], w + step[1]
    return None


def _working_set_solve(region, grad, hess, fixed, rhs, x, eps, scale, tol):
    """Working-set solve of min f(p) s.t. the fixed rows and p in the region.

    f has gradient grad and constant Hessian hess; the fixed rows
    (``_FixedRows``, A p = rhs) are eliminated through their null space in
    every Newton step, and their multipliers are fitted.  The working set starts
    from the rows of ``region.rows`` and the curved members active at x
    within eps, and each round solves on it with ``_active_set_newton``.  The
    round then adds the most violated constraint outside the set or, when
    none is violated by more than tol, drops the one with the most negative
    multiplier (below -tol) inside it (Nocedal & Wright, Numerical
    Optimization, 16.5).  Returns (p, y) with y the multipliers of the fixed
    rows on all m of them once neither exists; None when a Newton solve fails or
    2 (rows + curved) + 1 rounds do not settle the set.
    """
    N, b = region.rows
    curved = region.cones + region.ellipsoids

    def slack(p):
        return np.concatenate([N @ p - b, [m.violation(p) for m in curved]])

    on = slack(x) >= -eps
    p = x
    for _ in range(2 * on.size + 1):
        rows = on[: b.size]
        sol = _active_set_newton(grad, hess, fixed, rhs, N[rows], b[rows],
                                 [m for m, k in zip(curved, on[b.size :]) if k], p, scale, tol)
        if sol is None:
            return None
        p, y_fixed, w, mu = sol
        viol = np.where(on, -np.inf, slack(p))
        mult = np.full(on.size, np.inf)
        mult[on] = np.concatenate([w, mu])
        if viol.max(initial=0.0) > tol:
            on[np.argmax(viol)] = True
        elif mult.min(initial=0.0) < -tol:
            on[np.argmin(mult)] = False
        else:
            return p, y_fixed
    return None


def _polish_projection(region, v, x, scale):
    """Exact projection candidate from the working set near x.

    The working-set solve of min 0.5 ||p - v||^2 from the members active at
    x; the candidate is returned only when it passes the KKT verification.
    """
    n = region.n
    sol = _working_set_solve(region, lambda p: p - v, np.eye(n), _FixedRows.none(n), np.zeros(0),
                             x, 1e-9 * scale, scale, 1e-13 * scale)
    return None if sol is None else _verify_projection(region, v, sol[0], scale)


def project_region(region, v):
    """Euclidean projection of v onto the region via Dykstra's iteration.

    v outside the region first tries P_S(v) for each set S (the box or one
    member) that it violates: when P_S(v) lies in the region C, a subset of
    S, it is P_C(v) as well.  The check ``_verify_projection`` decides that,
    as it does for every Dykstra iterate; if it rejects each, Dykstra runs.
    Sweeps cycle through the box and every member.  An iterate that a sweep
    moves by at most ``_DYKSTRA_STOP`` (1e-10, in the max norm) is returned
    once it passes the exact optimality check ``_verify_projection``.
    Failing that, and every 20 sweeps, a working-set candidate from it is
    tried on the same check: nearly parallel halfspaces make plain Dykstra
    creep, and the candidate short-circuits the crawl.  A run that verifies
    no point within ``_DYKSTRA_SWEEPS`` (100) sweeps raises ProjectionError.
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (region.n,):
        raise DimensionError(f"point has shape {v.shape}, region dimension {region.n}")
    members = region.members
    if not members:
        return region.clip_box(v)
    violated = [i for i, w in enumerate(_violations(region, v)) if not w <= 0.0]
    if not violated:
        return np.array(v)

    scale = 1.0 + float(np.linalg.norm(v))
    projectors = [region.clip_box] + [m.project for m in members]
    for i in violated:
        cand = _verify_projection(region, v, projectors[i](v), scale)
        if cand is not None:
            return cand
    x = np.array(v)
    corrections = [np.zeros_like(v) for _ in projectors]
    for sweep in range(1, _DYKSTRA_SWEEPS + 1):
        x_prev = x
        for i, proj in enumerate(projectors):
            y = proj(x + corrections[i])
            corrections[i] = x + corrections[i] - y
            x = y
        stopped = float(np.max(np.abs(x - x_prev))) <= _DYKSTRA_STOP
        if stopped and _verify_projection(region, v, x, scale) is not None:
            return x
        if stopped or sweep % 20 == 0:
            cand = _polish_projection(region, v, x, scale)
            if cand is not None:
                return cand
    raise ProjectionError(
        f"Dykstra projection did not reach tol={_DYKSTRA_STOP} in {_DYKSTRA_SWEEPS} sweeps")


def extend_region(region, extra):
    """Same region viewed in extra trailing coordinates that are left free."""
    pad = np.zeros(extra)
    affine = tuple(
        AffineInequality(np.concatenate([m.a, pad]), m.b) for m in region.affine
    )
    cones = tuple(
        SecondOrderCone(np.pad(m.D, ((0, 0), (0, extra))), m.d, np.concatenate([m.e, pad]), m.f)
        for m in region.cones
    )
    ellipsoids = tuple(
        Ellipsoid(np.concatenate([m.center, pad]), np.pad(m.shape, (0, extra)), m.radius)
        for m in region.ellipsoids
    )
    return ConvexRegion(
        np.concatenate([region.lower, np.full(extra, -np.inf)]),
        np.concatenate([region.upper, np.full(extra, np.inf)]),
        affine,
        cones,
        ellipsoids,
    )
