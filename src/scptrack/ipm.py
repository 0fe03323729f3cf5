"""Primal-dual interior-point solver for the convex tracking subproblems.

The region is compiled to conic standard form

    min 0.5 x.P.x + q.x   s.t.  A x = b,   G x + s = h,   s in K,

with K a product of a nonnegative orthant (finite bounds, affine members)
and second-order cones (cone members, and ellipsoids through
``Ellipsoid.cone``).  Steps are Mehrotra predictor-corrector with Nesterov-Todd
scaling; a fraction-to-boundary rule stops each step at ``_STEP_FRACTION``
(0.99) of the distance to the cone boundary.  Each cone block of the scaling
is kept as (eta, v), W = eta (2 v v' - J), and applied by products; no block
matrix is formed.  Numerically dependent equality rows are removed up front
by one pivoted QR of A': a row is kept when its pivot exceeds
1e-10 ||A||_2, and the spectral norm is computed only for a pivot that
|r_00| <= ||A||_2 <= ||A||_F leaves undecided.  The same QR gives a basis Z
of the null space of the kept rows and their pseudo-inverse, so each
iteration LU-factors only the reduced Hessian Z' (P + G' W^-2 G) Z, of order
n minus the number of kept rows, instead of the bordered KKT matrix.

Iterates are certified in ``_finish`` on the natural-map residuals of the
returned (x, y), the dual refit's y first: the interior point's own y is
projected only when the refit's residual exceeds 10 tol.  The rescue paths
that remain all fire in the test suite: the dual refit, the primal polish (the
working-set solve of ``region``), the best-iterate restore, the tikhonov retry
and the 1e-12 shift of a singular reduced Hessian.  The two certification
rescues reuse the presolve's (kept, Z, A+): the dual refit fits the normal
multipliers on Z' N' and recovers the kept rows' multipliers through A+, and
the primal polish keeps the kept rows fixed on their null space, so neither
solves a system that stacks the equality rows.  The dual refit is an unbounded
minimum-norm least-squares fit; the bounded fit (``lsq_linear``, on the full
rows) runs only when that fit gives an active normal a negative multiplier,
which only its own test reaches.  The dropped rows get multiplier 0 and are
re-checked on all of A_eq.  A certification projection that verifies no point
raises ``ProjectionError``, and the solve then returns max_iter with no
iterate.  Regions with no cone at all are solved as an equality-constrained QP
on the same null space.
"""

from __future__ import annotations

import warnings
from dataclasses import replace

import numpy as np
import scipy.linalg
import scipy.optimize

from .errors import ProjectionError
from .region import (
    _active_normals,
    _FixedRows,
    _min_norm_lstsq,
    _working_set_solve,
    project_region,
)
from .subproblem import (
    SolveStatus,
    SolverOptions,
    SubproblemResiduals,
    SubproblemSolution,
)

_DIVERGE_DUAL = 1e10
_DIVERGE_OBJ = -1e10
_STALL_PRES = 1e-6
_STEP_FRACTION = 0.99


def _quad_max_step(a, b, c):
    """Largest alpha >= 0 with a*alpha^2 + b*alpha + c >= 0 given c >= 0."""
    if abs(a) < 1e-300:
        if b >= 0.0:
            return np.inf
        return c / -b
    disc = b * b - 4.0 * a * c
    if a > 0.0:
        # feasible outside the root interval
        if disc <= 0.0:
            return np.inf
        sq = np.sqrt(disc)
        r1 = (-b - sq) / (2.0 * a)
        r2 = (-b + sq) / (2.0 * a)
        if r2 <= 0.0:
            return np.inf
        return r1 if r1 > 0.0 else 0.0
    # a < 0: feasible between the roots, which straddle alpha = 0
    sq = np.sqrt(max(disc, 0.0))
    return max((-b - sq) / (2.0 * a), 0.0)


class _Cones:
    """Block structure and Jordan/NT operations for R^l_+ x SOC x ... x SOC."""

    def __init__(self, l, soc_dims):
        self.l = l
        self.soc_dims = list(soc_dims)
        self.slices = []
        start = l
        for d in self.soc_dims:
            self.slices.append(slice(start, start + d))
            start += d
        self.dim = start
        self.degree = l + len(self.soc_dims)

    def unit(self):
        e = np.zeros(self.dim)
        e[: self.l] = 1.0
        for sl in self.slices:
            e[sl.start] = 1.0
        return e

    def margin(self, u):
        vals = [np.inf]
        if self.l:
            vals.append(np.min(u[: self.l]))
        for sl in self.slices:
            blk = u[sl]
            vals.append(blk[0] - np.linalg.norm(blk[1:]))
        return min(vals)

    def max_step(self, u, du):
        alpha = np.inf
        # overflow to inf in the ratios is the intended limit behaviour
        with np.errstate(over="ignore", divide="ignore"):
            if self.l:
                neg = du[: self.l] < 0.0
                if np.any(neg):
                    alpha = np.min(-u[: self.l][neg] / du[: self.l][neg])
            for sl in self.slices:
                ub, db = u[sl], du[sl]
                a = db[0] ** 2 - db[1:] @ db[1:]
                b = 2.0 * (ub[0] * db[0] - ub[1:] @ db[1:])
                c = ub[0] ** 2 - ub[1:] @ ub[1:]
                alpha = min(alpha, _quad_max_step(a, b, max(c, 0.0)))
        return alpha

    def prod(self, a, b):
        out = np.empty(self.dim)
        out[: self.l] = a[: self.l] * b[: self.l]
        for sl in self.slices:
            ab, bb = a[sl], b[sl]
            out[sl.start] = ab @ bb
            out[sl.start + 1 : sl.stop] = ab[0] * bb[1:] + bb[0] * ab[1:]
        return out

    def inv_prod(self, lam, d):
        """Solve lam o x = d blockwise."""
        out = np.empty(self.dim)
        out[: self.l] = d[: self.l] / lam[: self.l]
        for sl in self.slices:
            lb, db = lam[sl], d[sl]
            det = lb[0] ** 2 - lb[1:] @ lb[1:]
            x0 = (lb[0] * db[0] - lb[1:] @ db[1:]) / det
            out[sl.start] = x0
            out[sl.start + 1 : sl.stop] = (db[1:] - x0 * lb[1:]) / lb[0]
        return out


class _Scaling:
    """Nesterov-Todd scaling point: W z = W^{-1} s = lam.

    An orthant entry is the scalar sqrt(s_i / z_i).  A second-order-cone block
    is kept as (eta, [Jv; v], v'v), J = diag(1, -1, ..., -1), with
    W = eta (2 v v' - J) and W^{-1} = (2 Jv Jv' - J) / eta, so a product costs
    one or two dot products and no block matrix is formed.
    """

    def __init__(self, cones, s, z):
        self.cones = cones
        if cones.l:
            # iterates headed for an unboundedness verdict can drive one of the
            # pair to a denormal; the clamp keeps the scaling finite until the
            # divergence guards fire
            with np.errstate(over="ignore", divide="ignore"):
                ratio = np.clip(s[: cones.l] / z[: cones.l], 1e-280, 1e280)
            self.w_orth = np.sqrt(ratio)
        else:
            self.w_orth = np.empty(0)
        self.w_orth2 = self.w_orth**2
        self.soc = []
        for sl in cones.slices:
            sb, zb = s[sl], z[sl]
            js = max((sb[0] - np.linalg.norm(sb[1:])) * (sb[0] + np.linalg.norm(sb[1:])), 1e-280)
            jz = max((zb[0] - np.linalg.norm(zb[1:])) * (zb[0] + np.linalg.norm(zb[1:])), 1e-280)
            sbar, zbar = sb / np.sqrt(js), zb / np.sqrt(jz)
            gamma = np.sqrt((1.0 + sbar @ zbar) / 2.0)
            wbar = np.array(sbar)
            wbar[0] += zbar[0]
            wbar[1:] -= zbar[1:]
            wbar /= 2.0 * gamma
            v = np.array(wbar)
            v[0] += 1.0
            v /= np.sqrt(2.0 * (wbar[0] + 1.0))
            jv = -v
            jv[0] = v[0]
            # rows Jv and v, so both dot products of W^{-2} u are one product
            self.soc.append((float((js / jz) ** 0.25), np.array([jv, v]), float(v @ v)))
        self.lam = self.mul_w(z)

    def mul_w(self, u):
        out = np.empty(self.cones.dim)
        out[: self.cones.l] = self.w_orth * u[: self.cones.l]
        for (eta, (_, v), _), sl in zip(self.soc, self.cones.slices):
            blk = u[sl] * eta  # -eta J u, then + 2 eta (v'u) v
            blk[0] = -blk[0]
            blk += (2.0 * eta * float(v @ u[sl])) * v
            out[sl] = blk
        return out

    def mul_winv(self, u):
        """W^{-1} u for a vector u, or for each column of a matrix u."""
        out = np.empty(u.shape)
        l = self.cones.l
        out[:l] = u[:l] / self.w_orth.reshape((l,) + (1,) * (u.ndim - 1))
        for (eta, (jv, _), _), sl in zip(self.soc, self.cones.slices):
            blk = u[sl] / eta  # -J u / eta, then + 2 Jv (Jv'u) / eta
            blk[0] = -blk[0]
            blk += np.multiply.outer((2.0 / eta) * jv, jv @ u[sl])
            out[sl] = blk
        return out

    def mul_winv2(self, u):
        """W^{-2} u in one pass: (u + (4 v'v a - 2 b) Jv - 2 a v) / eta^2, a = Jv'u, b = v'u."""
        out = np.empty(self.cones.dim)
        out[: self.cones.l] = u[: self.cones.l] / self.w_orth2
        for (eta, jv_v, vv), sl in zip(self.soc, self.cones.slices):
            ub = u[sl]
            a, b = jv_v @ ub
            out[sl] = (ub + np.array([4.0 * vv * a - 2.0 * b, -2.0 * a]) @ jv_v) / eta**2
        return out


def assemble_cones(region):
    """Conic rows (G, h) and block structure for a region.

    The orthant holds the finite bounds and the affine members; each cone
    member, then each ellipsoid (through its cone form), adds one block.
    """
    N, b = region.rows
    cones = region.cones + tuple(m.cone for m in region.ellipsoids)
    G = np.vstack([N] + [np.vstack([-m.e, -m.D]) for m in cones])
    h = np.concatenate([b] + [np.concatenate([[m.f], m.d]) for m in cones])
    return G, h, _Cones(b.size, [m.D.shape[0] + 1 for m in cones])


def _presolve_equalities(A):
    """Kept rows of A, a basis Z of their null space, and their pseudo-inverse.

    One pivoted QR, A'[:, piv] = [Y Z] R.  Row piv[i] is kept when its pivot
    |r_ii| exceeds 1e-10 ||A||_2; the kept rows (returned in sorted order) have
    full row rank, Z spans their null space and A+ = Y R11^{-T} (columns in
    the kept order) is their pseudo-inverse, A A+ = I.
    """
    n = A.shape[1]
    if A.size == 0:
        return np.array([], dtype=int), np.eye(n), np.zeros((n, 0))
    q, r, piv = scipy.linalg.qr(A.T, pivoting=True)
    diag = np.abs(np.diag(r))
    # |r_00| (the largest row norm) <= ||A||_2 <= ||A||_F, so only a pivot
    # between those two thresholds needs the spectral norm; the factor-2
    # margins absorb the rounding of the three norms
    lo, hi = 1e-10 * diag[0], 1e-10 * np.linalg.norm(A)
    if np.any((diag > 0.5 * lo) & (diag <= 2.0 * hi)):
        thresh = 1e-10 * max(np.linalg.norm(A, 2), 1e-300)
    else:
        thresh = lo
    rank = int(np.sum(diag > thresh))
    order = np.argsort(piv[:rank])
    aplus = scipy.linalg.solve_triangular(r[:rank, :rank], q[:, :rank].T, check_finite=False).T
    return piv[:rank][order], q[:, rank:], aplus[:, order]


class _NullSpaceKKT:
    """The Newton system of the conic iteration, solved on the null space of A.

    For residuals (rx, ry, rz) and a scaling W (the identity at the cold
    start), the step solves

        Hm dx + A' dy = -rx - G' W^{-2} rz,   A dx = -ry,   dz = W^{-2} (G dx + rz),

    with Hm = P + G' W^{-2} G.  With Z a basis of null(A) and A+ the
    pseudo-inverse of A, dx = -A+ ry + Z w, where the reduced Hessian
    Z' Hm Z = Z'PZ + (W^{-1} G Z)' (W^{-1} G Z) is the only matrix formed and
    LU-factored, and dy = A+' (-rx - P dx - G' dz).
    """

    def __init__(self, P, G, Z, aplus):
        self.P, self.G, self.Z, self.aplus = P, G, Z, aplus
        self.GZ = G @ Z
        self.ZPZ = Z.T @ P @ Z
        self.W = None
        self.lu = None

    def reduced_hessian(self, W=None):
        """Z' Hm Z for the scaling W (None: the identity)."""
        RZ = self.GZ if W is None else W.mul_winv(self.GZ)
        return self.ZPZ + RZ.T @ RZ

    def factor(self, W=None):
        """LU-factor Z' Hm Z for W; returns the diagonal shift that was needed."""
        self.W = W
        Hr = self.reduced_hessian(W)
        # rescue: a shift catches a singular reduced Hessian, e.g. no curvature
        # on a free direction
        for reg in (0.0, 1e-12):
            Hs = Hr + reg * max(1.0, np.abs(Hr).max()) * np.eye(len(Hr)) if reg else Hr
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
                try:
                    lu = scipy.linalg.lu_factor(Hs)
                except (scipy.linalg.LinAlgError, ValueError):
                    continue
            pivots = np.diag(lu[0])
            if np.all(np.isfinite(pivots) & (pivots != 0.0)):
                self.lu = lu
                return reg
        raise np.linalg.LinAlgError("reduced KKT matrix is numerically singular")

    def _winv2(self, u):
        return u if self.W is None else self.W.mul_winv2(u)

    def solve(self, rx, ry, rz):
        """(dx, dy, dz) for the last factored W."""
        G = self.G
        xp = -(self.aplus @ ry)
        t = -rx - self.P @ xp - G.T @ self._winv2(G @ xp + rz)
        dx = xp + self.Z @ scipy.linalg.lu_solve(self.lu, self.Z.T @ t, check_finite=False)
        dz = self._winv2(G @ dx + rz)
        dy = self.aplus.T @ (-rx - self.P @ dx - G.T @ dz)
        if not (np.all(np.isfinite(dx)) and np.all(np.isfinite(dy))):
            raise np.linalg.LinAlgError("non-finite KKT step")
        return dx, dy, dz


def _polish_duals(sp, x, grad0, presolve):
    """Equality multipliers refit against the active normals at x.

    The interior-point duals for constraints that sit on zero rows of the
    conic matrix converge slowly; a least-squares refit of
    grad0 + A_eq' y + N' lam = 0 recovers the limit multipliers directly
    once x is accurate.  The fit runs on the presolve's null space
    (kept, Z, A+): lam is the minimum-norm fit of Z' N' lam = -Z' grad0, and
    y = -A+' (grad0 + N' lam) on the kept rows, 0 on the dropped ones.  That
    fit is kept when every lam >= 0; only a negative lam calls the bounded
    least squares (lam >= 0) on the full [A_eq' N'].
    """
    kept, Z, aplus = presolve
    normals = _active_normals(sp.region, x, 1e-7 * (1.0 + float(np.linalg.norm(x))))
    nmat = np.array(normals).T if normals else np.zeros((sp.n, 0))
    m, k = sp.m, nmat.shape[1]
    if m + k == 0:
        return None
    y = np.zeros(m)
    try:
        lam = _min_norm_lstsq(Z.T @ nmat, -(Z.T @ grad0))
        y[kept] = -(aplus.T @ (grad0 + nmat @ lam))
        if np.any(lam < 0.0):
            M = np.hstack([sp.A_eq.T, nmat])
            lb = np.concatenate([np.full(m, -np.inf), np.zeros(k)])
            y = scipy.optimize.lsq_linear(M, -grad0, bounds=(lb, np.full(m + k, np.inf))).x[:m]
    except (ValueError, np.linalg.LinAlgError):
        return None
    if not np.all(np.isfinite(y)):
        return None
    return y


def _primal_polish(sp, x, y, tik, presolve):
    """Working-set refinement of (x, y) from the constraints active at x.

    The interior-point iterate is accurate to about sqrt(mu) when a curved
    member is active; the working-set Newton solve on the boundary equations
    restores full precision.  The kept equality rows are its fixed rows,
    eliminated through the presolve's (Z, A+) as in the interior point, so
    each Newton step solves a KKT matrix of order n - rank A_eq plus the
    working set.  Returns (x, y) with 0 on the dropped rows, which the caller
    re-checks on all of A_eq; candidates are screened by the caller through
    the natural-map residuals.
    """
    kept, Z, aplus = presolve
    scale = 1.0 + float(np.linalg.norm(x))
    fixed = _FixedRows(sp.A_eq[kept], (sp.A_eq @ sp.x_ref - sp.b_eq)[kept], Z, aplus)
    sol = _working_set_solve(sp.region, lambda p: sp.gradient(p) + tik * p,
                             sp.H + tik * np.eye(sp.n), fixed, y[kept], x, 1e-7 * scale, scale,
                             1e-12 * scale)
    if sol is None:
        return None
    y_full = np.zeros(sp.m)
    y_full[kept] = sol[1]
    return sol[0], y_full


def _finish(sp, x, y_kept, presolve, s, z, status, iters, tol, tik):
    kept = presolve[0]
    y = np.zeros(sp.m)
    if kept.size:
        y[kept] = y_kept
    # residuals are measured against the objective actually solved, so the
    # retry's tikhonov term belongs in the gradient
    grad0 = sp.gradient(x) + tik * x
    rescue = status in (SolveStatus.OPTIMAL, SolveStatus.MAX_ITER)
    # rescue: conic duals of constraints on zero rows of G lag behind x, so the refit
    # goes first.  Within 10 tol no later step (polish, status) tells its y apart; past
    # that, the interior point's y is projected too and the smaller residual is kept
    y2 = _polish_duals(sp, x, grad0, presolve) if rescue else None
    stat = stat2 = np.inf
    if y2 is not None:
        stat2 = float(np.linalg.norm(x - project_region(sp.region, x - (grad0 + sp.A_eq.T @ y2))))
    if not stat2 <= 10.0 * tol:
        stat = float(np.linalg.norm(x - project_region(sp.region, x - (grad0 + sp.A_eq.T @ y))))
    if stat2 < stat:
        y, stat = y2, stat2
    dist = None
    if stat > 10.0 * tol and rescue:
        # rescue: an x only sqrt(mu)-accurate because a curved member is active
        pol = _primal_polish(sp, x, y, tik, presolve)
        if pol is not None:
            x3, y3 = pol
            grad3 = sp.gradient(x3) + tik * x3 + sp.A_eq.T @ y3
            stat3 = float(np.linalg.norm(x3 - project_region(sp.region, x3 - grad3)))
            dist3 = float(np.linalg.norm(x3 - project_region(sp.region, x3)))
            if stat3 < stat and dist3 <= tol:
                x, y, stat, dist = x3, y3, stat3, dist3
    r_eq = sp.A_eq @ (x - sp.x_ref) + sp.b_eq
    eq = float(np.linalg.norm(r_eq))
    eq_kept = float(np.linalg.norm(r_eq[kept])) if kept.size < sp.m else eq
    if dist is None:
        dist = float(np.linalg.norm(x - project_region(sp.region, x)))
    gap = float(s @ z) if s is not None else 0.0
    res = SubproblemResiduals(stat, eq, dist, gap)
    # the internal conic gap is reported but never gated on: natural-map
    # stationarity of the returned (x, y) already certifies complementarity,
    # while s.z can stall above tol when a cone is active at the solution
    within = stat <= 10.0 * tol and eq <= tol and dist <= tol
    bad_eq = eq > 1e-6 * (1.0 + np.linalg.norm(sp.b_eq))
    if status is SolveStatus.OPTIMAL:
        # dependent rows were dropped; an inconsistent right-hand side
        # surfaces here as a large equality residual
        if bad_eq:
            status = SolveStatus.INFEASIBLE
    elif status is SolveStatus.MAX_ITER:
        if bad_eq and eq_kept <= 1e-6 * (1.0 + np.linalg.norm(sp.b_eq)):
            # the reduced system was solved, only dropped rows are violated
            status = SolveStatus.INFEASIBLE
        elif within:
            # the iteration stalled on a point that already meets the contract
            status = SolveStatus.OPTIMAL
    return SubproblemSolution(x=x, y=y, status=status, iterations=iters, residuals=res)


def _solve_no_cones(sp, P, q, b, presolve, tol, tik):
    """Equality-constrained QP fallback for regions without members."""
    kept, Z, aplus = presolve
    x_ls = aplus @ b
    # the rows the presolve dropped count too: a duplicate row may disagree
    b_all = sp.A_eq @ sp.x_ref - sp.b_eq
    if np.linalg.norm(sp.A_eq @ x_ls - b_all) > 1e-8 * (1.0 + np.linalg.norm(b_all)):
        return _finish(sp, x_ls, np.zeros(kept.size), presolve, None, None,
                       SolveStatus.INFEASIBLE, 0, tol, tik)
    Hr = Z.T @ P @ Z
    gr = Z.T @ (P @ x_ls + q)
    x = x_ls
    if Hr.size:
        lam, u = np.linalg.eigh((Hr + Hr.T) / 2.0)
        null_mask = lam <= 1e-12 * max(1.0, abs(lam[-1]))
        if np.any(null_mask) and np.linalg.norm((u[:, null_mask].T @ gr)) > 1e-10:
            return _finish(sp, x_ls, np.zeros(kept.size), presolve, None, None,
                           SolveStatus.UNBOUNDED, 0, tol, tik)
        x = x_ls - Z @ (u @ np.divide(u.T @ gr, lam, out=np.zeros_like(lam), where=~null_mask))
    return _finish(sp, x, -aplus.T @ (P @ x + q), presolve, None, None, SolveStatus.OPTIMAL, 0,
                   tol, tik)


def _ipm(sp, opts, warm, tik):
    n = sp.n
    P = sp.H + (tik * np.eye(n) if tik else 0.0)
    P = np.atleast_2d(P)
    q = sp.grad_const
    presolve = kept, Z, aplus = _presolve_equalities(sp.A_eq)
    A = sp.A_eq[kept]
    b = (sp.A_eq @ sp.x_ref - sp.b_eq)[kept]
    G, h, cones = assemble_cones(sp.region)
    if cones.dim == 0:
        # a region with no finite bound and no member leaves no cone to step in
        return _solve_no_cones(sp, P, q, b, presolve, opts.tol, tik)

    p = A.shape[0]
    e = cones.unit()
    kkt = _NullSpaceKKT(P, G, Z, aplus)

    if warm is not None:
        x = np.array(warm.x, dtype=float)
        y = np.array(warm.y, dtype=float)[kept] if p else np.zeros(0)
        s = h - G @ x
        shift = max(0.0, 1e-4 * (1.0 + np.linalg.norm(h, np.inf)) - cones.margin(s))
        s = s + shift * e
        z = 1e-2 * cones.inv_prod(s, e)  # centred dual guess: s o z ~ 1e-2 e
        if cones.margin(z) <= 0.0:
            z = np.array(e)
    else:
        try:
            kkt.factor()
            x, y, zhat = kkt.solve(q, -b, -h)  # min 0.5 x'Px + q'x + 0.5 ||Gx - h||^2
        except np.linalg.LinAlgError:
            return _unsolved(sp)
        s = -zhat
        ms = cones.margin(s)
        if ms <= 0.0:
            s = s + (1.0 - ms) * e
        z = np.array(zhat)
        mz = cones.margin(z)
        if mz <= 0.0:
            z = z + (1.0 - mz) * e

    best = None
    n_ver = 0
    status = SolveStatus.MAX_ITER
    it = 0
    small_steps = 0
    b_scale = max(1.0, np.linalg.norm(b) if p else 0.0, np.linalg.norm(h))
    q_scale = max(1.0, np.linalg.norm(q))

    for it in range(1, opts.max_iter + 1):
        rx = P @ x + q + G.T @ z + (A.T @ y if p else 0.0)
        ry = A @ x - b if p else np.zeros(0)
        rz = G @ x + s - h
        gap = float(s @ z)
        mu = gap / cones.degree
        pobj = float(0.5 * x @ P @ x + q @ x)
        pres = max(np.linalg.norm(ry) if p else 0.0, np.linalg.norm(rz)) / b_scale
        # the dual residual rx is left out: null-row dual components drift once
        # mu collapses, so iterate selection tracks pres and the relative gap
        merit = max(pres, gap / max(1.0, abs(pobj)))
        if best is None or merit < best[0]:
            best = (merit, np.array(x), np.array(y), np.array(s), np.array(z), pobj, pres)

        # conic dual residuals can stay noisy once mu collapses (components of z
        # that multiply zero rows of G drift freely), so acceptance is decided on
        # the natural-map residuals of the (x, y) pair that is actually returned
        tol = opts.tol * 0.5
        if pres <= tol and (gap <= tol * max(1.0, abs(pobj)) or mu <= tol) and n_ver < 60:
            n_ver += 1
            sol = _finish(sp, x, y, presolve, s, z, SolveStatus.MAX_ITER, it, opts.tol, tik)
            if sol.status in (SolveStatus.OPTIMAL, SolveStatus.INFEASIBLE):
                return sol

        if pobj < _DIVERGE_OBJ * max(1.0, q_scale) or np.linalg.norm(x) > 1e12:
            status = SolveStatus.UNBOUNDED
            break
        if (np.linalg.norm(z, 1) + (np.linalg.norm(y, 1) if p else 0.0)) > _DIVERGE_DUAL and (
            pres > _STALL_PRES
        ):
            status = SolveStatus.INFEASIBLE
            break

        W = _Scaling(cones, s, z)
        lam = W.lam
        try:
            kkt.factor(W)

            # predictor: target zero complementarity, dlam = -lam
            dx, dy, dz = kkt.solve(rx, ry, rz - W.mul_w(lam))
            ds = -rz - G @ dx
            alpha_aff = min(cones.max_step(s, ds), cones.max_step(z, dz), 1.0)
            gap_aff = float((s + alpha_aff * ds) @ (z + alpha_aff * dz))
            sigma = min(1.0, max(0.0, gap_aff / gap)) ** 3

            # corrector: recentre and compensate the affine cross term
            corr = cones.prod(W.mul_winv(ds), W.mul_w(dz))  # (W^-1 ds) o (W dz)
            rhs_comp = sigma * mu * e - cones.prod(lam, lam) - corr
            dlam = cones.inv_prod(lam, rhs_comp)
            dx, dy, dz = kkt.solve(rx, ry, rz + W.mul_w(dlam))
        except np.linalg.LinAlgError:
            status = SolveStatus.MAX_ITER
            break
        ds = -rz - G @ dx

        alpha = min(1.0, _STEP_FRACTION * min(cones.max_step(s, ds), cones.max_step(z, dz)))
        for _ in range(40):
            if (
                cones.margin(s + alpha * ds) > 0.0
                and cones.margin(z + alpha * dz) > 0.0
            ):
                break
            alpha *= 0.5
        else:
            status = SolveStatus.MAX_ITER
            break
        x = x + alpha * dx
        y = y + alpha * dy if p else y
        s = s + alpha * ds
        z = z + alpha * dz
        small_steps = small_steps + 1 if alpha < 1e-8 else 0
        if small_steps >= 3:
            status = SolveStatus.INFEASIBLE if pres > _STALL_PRES else SolveStatus.MAX_ITER
            break

    if status is SolveStatus.MAX_ITER and best is not None:
        # rescue: a loop that ends on a worse iterate than one it passed
        _, bx, by, bs, bz, bpobj, bpres = best
        if bpres > _STALL_PRES:
            status = SolveStatus.INFEASIBLE
        elif bpobj < _DIVERGE_OBJ:
            status = SolveStatus.UNBOUNDED
        x, y, s, z = bx, by, bs, bz
    return _finish(sp, x, y, presolve, s, z, status, it, opts.tol, tik)


def _unsolved(sp):
    """No certified point: max_iter at x_ref after no iteration, residuals infinite."""
    return SubproblemSolution(x=np.array(sp.x_ref), y=np.zeros(sp.m), status=SolveStatus.MAX_ITER,
                              iterations=0, residuals=SubproblemResiduals(*[np.inf] * 4))


def solve_subproblem(sp, opts=None, warm=None):
    """Solve one convex subproblem to opts.tol within opts.max_iter iterations.

    The iteration warm-starts from warm (a PrimalDual) when one is given and
    starts cold otherwise.  When the curvature model is zero and the solve
    diverges toward an unbounded ray, one retry with a tikhonov term
    1e-6 (1 + ||c||) ||x||^2 / 2 is attempted and flagged on the returned
    solution; opts.tikhonov_retry = False returns the raw verdict.  Data with
    a nan or inf entry, a cold start whose KKT system cannot be solved, and a
    certification projection that verifies no point (ProjectionError) return
    status max_iter with 0 iterations, x = x_ref, y = 0 and infinite
    residuals; the tracker then ends its trace as aborted.
    """
    opts = opts or SolverOptions()
    if not all(np.all(np.isfinite(a)) for a in (sp.c, sp.m_corr, sp.H, sp.x_ref, sp.A_eq, sp.b_eq)):
        return _unsolved(sp)
    try:
        sol = _ipm(sp, opts, warm, 0.0)
        if sol.status is SolveStatus.UNBOUNDED and opts.tikhonov_retry and not np.any(sp.H):
            # rescue: a zero curvature model whose linear objective runs off a ray
            tik = 1e-6 * (1.0 + np.linalg.norm(sp.c))
            sol = replace(_ipm(sp, opts, warm, tik), regularized=True)
    except ProjectionError:
        return _unsolved(sp)
    return sol
