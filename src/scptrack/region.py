"""Closed convex regions built from box, affine, second-order-cone and
ellipsoid members, with exact member projections and Dykstra's alternating
projection onto the intersection.

Member projections solve a 1D secular equation in the Lagrange multiplier
(eigendecomposition cached per member); Dykstra then combines them.  There
is one secular solver, ``SecondOrderCone.project``: an ellipsoid projects
through its cone form.  The equation decreases up to its pole, so that branch
is bracketed from a Newton step and refined by Brent's method; only the
branch beyond the pole is scanned on a grid.

Curved members own their geometry: ``boundary`` gives the violation and the
outward gradient, ``curvature`` the Hessian of the boundary function, and
``Ellipsoid.cone`` the ellipsoid as a second-order cone (the form ``ipm``
compiles).  The active-set scan, the projection check, the Newton kernel and
the tangent relaxation in ``tracking`` all go through these methods.

Both polishing steps share one active-set Newton kernel, ``_active_set_newton``:
``_polish_projection`` turns a slow Dykstra run into an exactly verified
projection with it, and ``ipm._primal_polish`` refines interior-point iterates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.optimize import brentq, nnls

from .errors import DimensionError, ProjectionError, UsageError

_ROOT_RTOL = 4 * np.finfo(float).eps


def _freeze(a):
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


def _monotone_root(gfun, pole, slope):
    """The root of gfun on [0, pole), where it decreases, or None.

    lam = 0 whenever gfun(0) <= 0; otherwise a geometric bracket from the
    Newton step gfun(0) / -slope that never steps onto the pole.
    """
    lo, g = 0.0, gfun(0.0)
    if g <= 0.0:
        return 0.0
    step = g / -slope if slope < 0.0 else 1.0
    hi = min(step if 0.0 < step < np.inf else 1.0, 0.5 * pole)
    while lo < hi < min(pole, 2.0**64) and np.isfinite(g):
        g = gfun(hi)
        if g <= 0.0:
            return hi if g == 0.0 else brentq(gfun, lo, hi, rtol=_ROOT_RTOL, maxiter=200)
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
            root = brentq(gfun, lam_prev, lam, rtol=_ROOT_RTOL, maxiter=200)
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

    @cached_property
    def _eig(self):
        # curvature matrix of the squared-residual secular equation; a
        # rank-one downdate of D'D, so it has at most one negative eigenvalue
        m = self.D.T @ self.D - np.outer(self.e, self.e)
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
        return float(np.linalg.norm(self.D @ x + self.d) - (self.e @ x + self.f))

    def _upper_nappe(self, x):
        """e.x + f >= 0 to 1e-10 relative: x lies on the cone, not its mirror."""
        return self.e @ x + self.f >= -1e-10 * (1.0 + np.linalg.norm(x))

    def boundary(self, x):
        """Violation and outward gradient at x; the subgradient -e at the apex."""
        u = self.D @ x + self.d
        nu = np.linalg.norm(u)
        grad = (self.D.T @ u / nu if nu > 0.0 else 0.0) - self.e
        return float(nu - (self.e @ x + self.f)), grad

    def curvature(self, x, scale):
        """Hessian of the boundary function at x; None within 1e-12 scale of the apex."""
        u = self.D @ x + self.d
        nu = np.linalg.norm(u)
        if nu <= 1e-12 * scale:
            return None
        uh = u / nu
        return self.D.T @ (self.D - np.outer(uh, uh @ self.D)) / nu

    def project(self, v):
        t = float(self.e @ v + self.f)
        if t >= 0.0 and np.linalg.norm(self.D @ v + self.d) <= t:
            return np.array(v)
        lam_m, u = self._eig
        vu = u.T @ v
        wu = u.T @ (self.D.T @ self.d - self.f * self.e)
        pole = np.inf if lam_m[0] >= 0.0 else 1.0 / -lam_m[0]

        def point(lam):
            return u @ ((vu - lam * wu) / (1.0 + lam * lam_m))

        def gap(lam):
            x = point(lam)
            return float(np.sum((self.D @ x + self.d) ** 2) - (self.e @ x + self.f) ** 2)

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
            raise ProjectionError("cone member projection found no valid root", best=v)
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

    def violation(self, x):
        dx = x - self.center
        return float(dx @ self.shape @ dx - self.radius)

    def boundary(self, x):
        """Violation and outward gradient at x."""
        dx = x - self.center
        return float(dx @ self.shape @ dx - self.radius), 2.0 * self.shape @ dx

    def curvature(self, x, scale):
        """Hessian of the boundary function (constant)."""
        return 2.0 * self.shape

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

    def clip_box(self, v):
        return np.clip(v, self.lower, self.upper)

    @classmethod
    def unbounded(cls, n):
        return cls(np.full(n, -np.inf), np.full(n, np.inf))


def region_violation(region, x):
    """Signed worst-case violation over all members (<= 0 means feasible)."""
    worst = float(np.max(np.maximum(region.lower - x, x - region.upper), initial=-np.inf))
    for m in region.members:
        worst = max(worst, m.violation(x))
    return worst


def _active_set(region, x, eps):
    """Members active at x (within eps): linear rows as outward normals N with
    offsets b (N x = b on their boundary), then the curved members."""
    lo, up = region.lower, region.upper
    at_lo = np.flatnonzero(np.isfinite(lo) & (x - lo <= eps))
    at_up = np.flatnonzero(np.isfinite(up) & (up - x <= eps))
    affine = [m for m in region.affine if m.b - m.a @ x <= eps]
    box = np.zeros((at_lo.size + at_up.size, region.n))
    box[np.arange(at_lo.size), at_lo] = -1.0
    box[np.arange(at_lo.size, box.shape[0]), at_up] = 1.0
    N = np.vstack([box] + [m.a for m in affine])
    b = np.concatenate([-lo[at_lo], up[at_up], [m.b for m in affine]])
    curved = [m for m in region.cones + region.ellipsoids if m.violation(x) >= -eps]
    return N, b, curved


def _active_normals(region, x, eps):
    """Outward normals of the members active at x (within eps)."""
    N, _, curved = _active_set(region, x, eps)
    return list(N) + [m.boundary(x)[1] for m in curved]


def _verify_projection(region, v, cand, scale):
    """cand if it is provably the projection of v (KKT with nonneg weights)."""
    if region_violation(region, cand) > 1e-11 * scale:
        return None
    r = v - cand
    if np.linalg.norm(r) <= 1e-11 * scale:
        return cand
    normals = _active_normals(region, cand, 1e-9 * scale)
    if not normals:
        return None
    _, rnorm = nnls(np.array(normals).T, r)
    if rnorm <= 1e-9 * (1.0 + np.linalg.norm(r)):
        return cand
    return None


def _active_set_newton(grad, hess, E, r, curved, x, w, scale, tol):
    """Newton's method for min f(p) s.t. E p = r and every curved boundary.

    f has gradient grad and constant Hessian hess; the rows of E start from
    multipliers w, the curved members from zero.  Returns (p, w) once the KKT
    residual is at most tol in max norm, otherwise None (40 steps, a cone
    apex or a non-finite step).  The active set is a guess: callers check p.
    """
    n, le, k = x.size, E.shape[0], len(curved)
    p = np.array(x)
    mu = np.zeros(k)
    for _ in range(40):
        hessians = [m.curvature(p, scale) for m in curved]
        if any(h is None for h in hessians):
            return None
        terms = [m.boundary(p) for m in curved]
        grads = np.array([t[1] for t in terms]) if k else np.zeros((0, n))
        hsum = sum(m_i * h for m_i, h in zip(mu, hessians)) if k else 0.0
        F = np.concatenate([grad(p) + E.T @ w + grads.T @ mu, E @ p - r, [t[0] for t in terms]])
        if np.max(np.abs(F)) <= tol:
            return p, w
        J = np.zeros((n + le + k, n + le + k))
        J[:n, :n] = hess + hsum
        J[:n, n : n + le] = E.T
        J[:n, n + le :] = grads.T
        J[n : n + le, :n] = E
        J[n + le :, :n] = grads
        step, *_ = np.linalg.lstsq(J, -F, rcond=None)
        if not np.all(np.isfinite(step)):
            return None
        p = p + step[:n]
        w = w + step[n : n + le]
        mu = mu + step[n + le :]
    return None


def _polish_projection(region, v, x, eps_act, scale):
    """Exact projection candidate from the active set near x.

    The active-set Newton solve of min 0.5 ||p - v||^2 on the members active
    at x; the candidate is returned only when it passes the KKT verification,
    so a wrong guess costs nothing.
    """
    N, b, curved = _active_set(region, x, eps_act)
    if N.shape[0] + len(curved) == 0:
        return None
    sol = _active_set_newton(
        lambda p: p - v, np.eye(region.n), N, b, curved, x, np.zeros(N.shape[0]),
        scale, 1e-13 * scale,
    )
    return None if sol is None else _verify_projection(region, v, sol[0], scale)


def project_region(region, v, tol=1e-10, max_iter=10000):
    """Euclidean projection of v onto the region via Dykstra's iteration.

    Sweeps cycle through the box and every member.  The iteration stops when
    a full sweep moves the iterate by at most tol and the iterate is feasible;
    for slow sweeps an active-set candidate is tried and accepted when it
    passes an exact optimality check (nearly parallel halfspaces make plain
    Dykstra creep, and the candidate then short-circuits the crawl).  A run
    that verifies no point raises ProjectionError with the best iterate: the
    least violated, then the closest to v.
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (region.n,):
        raise DimensionError(f"point has shape {v.shape}, region dimension {region.n}")
    members = region.members
    if not members:
        return region.clip_box(v)
    if region_violation(region, v) <= 0.0:
        return np.array(v)

    scale = 1.0 + float(np.linalg.norm(v))
    projectors = [region.clip_box] + [m.project for m in members]
    x = np.array(v)
    corrections = [np.zeros_like(v) for _ in projectors]
    best = (np.inf, np.inf, x)
    stalled = 0
    for sweep in range(1, max_iter + 1):
        x_prev = x
        for i, proj in enumerate(projectors):
            y = proj(x + corrections[i])
            corrections[i] = x + corrections[i] - y
            x = y
        change = float(np.max(np.abs(x - x_prev)))
        viol = max(region_violation(region, x), 0.0)
        key = (viol, float(np.linalg.norm(x - v)), x)
        if key[:2] < best[:2]:
            best = key
        if change <= tol or sweep % 20 == 0:
            # the ladder reaches far because sweeps can creep: tiny steps do
            # not mean the iterate is near the projection, so wide active-set
            # guesses are tried and the verification keeps wrong ones out
            for eps_act in (1e-9, 1e-6, 1e-3, 3e-2, 3e-1):
                cand = _polish_projection(region, v, x, eps_act * scale, scale)
                if cand is not None:
                    return cand
        if change <= tol and viol <= 1e-9 * scale:
            cand = _verify_projection(region, v, np.array(x), scale)
            if cand is not None:
                return cand
        stalled = stalled + 1 if change <= tol else 0
        if stalled >= 50:
            break
    raise ProjectionError(
        f"Dykstra projection did not reach tol={tol} in {max_iter} sweeps", best=best[2]
    )


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
