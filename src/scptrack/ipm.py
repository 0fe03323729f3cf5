"""Primal-dual interior-point solver for the convex tracking subproblems.

The region is compiled to conic standard form

    min 0.5 x.P.x + q.x   s.t.  A x = b,   G x + s = h,   s in K,

with K a product of a nonnegative orthant (finite bounds, affine members)
and second-order cones (cone members, and ellipsoids through
``Ellipsoid.cone``).  Steps are Mehrotra predictor-corrector with Nesterov-Todd
scaling; a fraction-to-boundary rule stops each step at ``_STEP_FRACTION``
(0.99) of the distance to the cone boundary (``_Cones.max_step``, capped at
each block head's zero so that a path through an apex counts), which keeps s
and z interior with no margin check or step halving after it.  The kernels
cost a few array operations per cone block: ``_Cones`` holds each block as
integer bounds (head, tail start, stop) and reads its head as a Python float,
and the scaling, W = eta (2 v v' - J) per block, applies its diagonal part to
every coordinate in one product and then each block's rank-one terms; no
block matrix is formed.

The equality rows are presolved (``_presolve_equalities``) into one
``region._FixedRows`` value that depends on A alone: the kept rows, an
orthonormal basis Z of their null space and their pseudo-inverse A+.  Every
solve attempt and every consumer below takes that value: ``solve_subproblem``
builds it unless given that of this very A (``fixed.A is sp.A_eq``), and
reports it as ``SubproblemSolution.fixed`` for the tracker to pass on.
A row is kept when its pivot in a pivoted QR of A' exceeds 1e-10 ||A||_2.
That QR runs only for dependent or near-dependent rows.  Otherwise one LU
with partial pivoting of A' picks basis columns B of A, and unit columns on
the other rows N complete it to the LU of the square S = [A' | E_N]
(``_lu_presolve``).  Solves with S give Z, by one solve and an economic QR
of its n - m columns, and A+ = (I - Z Z') R, R = A_B^-1 on the rows B, as
one operator that is never formed (``_PseudoInverse``).  Only the factor's
storage depends on A: LAPACK's band storage (gbtrf, at the bands of A's
nonzero pattern) when its solves cost fewer flops than dense ones, as on
the shooting-structured cascade at 8 tanks and 24 steps, and dense (getrf)
otherwise.  The LU path is taken only when LAPACK's condition estimate of S,
on either storage (gecon, gbcon: ``_LU.rcond``), proves that the QR would keep
every row: each of its pivots is at least sigma_min(A) >= sigma_min(A_B).
Each iteration LU-factors only the reduced Hessian Z' (P + G' W^-2 G) Z, of
order n minus the number of kept rows, instead of the bordered KKT matrix;
the cold start factors it at the NT scaling of (e, e), which is exactly the
identity.  It and ``region``'s least-squares fits call LAPACK directly, as
the presolve does (getrf, getrs, gelsy): scipy.linalg's wrappers cost more
than LAPACK at these small orders and give the same bits.  Each iteration
computes one particular solution -A+ ry, which the predictor and the
corrector share; G dx comes from the kept G Z, and a zero P takes part in no
product (``_NullSpaceKKT``).  The conic rows are built once per region
(``ConvexRegion.conic``), as CSR arrays when G is large (the 8x24 cascade:
475 x 225, 1% nonzero).

The equality multipliers are fitted, never iterated: Z' A' y = 0 moves none
of x, s and z, and an iterated y, after a step of any length alpha, keeps
y_k+1 - fit_k+1 = (1 - alpha)(y_k - fit_k) for fit = -A+' (q + P x + G' z).
So the loop carries (x, s, z) alone, never reads ``warm.y``, and passes
``_finish`` that fit (``_FixedRows.fit``).

One status rule: only ``_finish`` returns ``optimal``, for an (x, y) whose
natural-map residuals meet the contract (stationarity within 10 tol,
equality and region distance within tol); every other end of the loop is
``max_iter``.  The loop decides only ``unbounded`` (a diverging objective or
x) and ``infeasible`` (a diverging sum |z|, or a stall above
``_STALL_PRES``); ``solve_subproblem`` decides dropped equality rows that
disagree with the kept ones as ``infeasible`` once, before any attempt.
``_finish`` certifies one multiplier candidate, with one projection: the dual
refit's y when the refit gives one, else the interior point's fitted y.  A
stationarity above 10 tol goes to the primal polish, whose pair is kept when
its stationarity is lower.  The rescue paths that remain all fire in the
test suite: the dual refit, the primal polish (the working-set solve of
``region``), the cold retry of a warm start that ends other than optimal,
the tikhonov retry and the 1e-12 shift of a singular reduced Hessian.  The
two certification rescues reuse the presolve's value, so neither solves a
system that stacks the equality rows (``_polish_duals``, ``_primal_polish``).

Every attempt returns a solution.  A step that is singular, divides by zero
on a cone's boundary, or overflows or turns invalid in floating point
(``np.errstate`` raises it) ends the loop.  A certification projection that
verifies no point (``ProjectionError``) ends the attempt as max_iter at
x_ref, with infinite residuals and the iterations it ran; a warm attempt
then goes to the cold retry.  A region with no cone at all starts cold, and
its cold-start step, on the null space at W = I, is the equality-constrained
QP's solution; a step that does not certify ran along a descent direction
with no curvature, and the attempt is ``unbounded`` at A+ b.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import NamedTuple

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dgbtrf, dgbtrs, dgecon, dgeqrf, dgetrf, dgetrs, dorgqr

from .errors import ProjectionError
from .problem import KKTResidual
from .region import (
    _active_normals,
    _FixedRows,
    _min_norm_lstsq,
    _working_set_solve,
    project_region,
)
from .subproblem import SolveStatus, SolverOptions, SubproblemSolution

# older SciPy releases, which pyproject.toml allows, lack gbcon: dense storage only
dgbcon = getattr(scipy.linalg.lapack, "dgbcon", None)
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
        sq = math.sqrt(disc)
        r1 = (-b - sq) / (2.0 * a)
        r2 = (-b + sq) / (2.0 * a)
        if r2 <= 0.0:
            return np.inf
        return r1 if r1 > 0.0 else 0.0
    # a < 0: feasible between the roots, which straddle alpha = 0
    sq = math.sqrt(max(disc, 0.0))
    return max((-b - sq) / (2.0 * a), 0.0)


class _Cones:
    """Block structure and Jordan/NT operations for R^l_+ x SOC x ... x SOC;
    ``blocks`` holds each cone block as (head, tail start, stop)."""

    def __init__(self, l, soc_dims):
        self.l = l
        self.soc_dims = list(soc_dims)
        self.blocks = []
        start = l
        for d in self.soc_dims:
            self.blocks.append((start, start + 1, start + d))
            start += d
        self.dim = start
        self.degree = l + len(self.soc_dims)

    def unit(self):
        e = np.zeros(self.dim)
        e[: self.l] = 1.0
        for h, _, _ in self.blocks:
            e[h] = 1.0
        return e

    def margin(self, u):
        m = float(u[: self.l].min()) if self.l else np.inf
        for h, t, e in self.blocks:
            tail = u[t:e]
            m = min(m, u.item(h) - math.sqrt(tail @ tail))
        return m

    def max_step(self, u, du):
        alpha = np.inf
        if self.l:
            # u > 0 on the orthant, so the most negative du/u is the first
            # crossing; overflow to inf in it is the intended limit behaviour
            with np.errstate(over="ignore", divide="ignore"):
                r = float((du[: self.l] / u[: self.l]).min())
            if r < 0.0:
                alpha = -1.0 / r
        for h, t, e in self.blocks:
            u0, d0, ut, dt = u.item(h), du.item(h), u[t:e], du[t:e]
            a = d0 * d0 - float(dt @ dt)
            b = 2.0 * (u0 * d0 - float(ut @ dt))
            c = u0 * u0 - float(ut @ ut)
            alpha = min(alpha, _quad_max_step(a, b, max(c, 0.0)))
            if d0 < 0.0:
                # the quadratic is >= 0 on the mirror cone too, so it misses a path
                # through the apex (du along -u, or a block of order 1)
                alpha = min(alpha, u0 / -d0)
        return alpha

    def prod(self, a, b):
        out = np.empty(self.dim)
        out[: self.l] = a[: self.l] * b[: self.l]
        for h, t, e in self.blocks:
            out[h] = a[h:e] @ b[h:e]
            out[t:e] = a.item(h) * b[t:e] + b.item(h) * a[t:e]
        return out

    def interior(self, u):
        """Whether ``inv_prod`` can divide by u: its orthant entries, block
        heads and each u0^2 - ||ut||^2 positive in floating point."""
        return (not self.l or u[: self.l].min() > 0.0) and all(
            u.item(h) > 0.0 and u.item(h) * u.item(h) - float(u[t:e] @ u[t:e]) > 0.0
            for h, t, e in self.blocks)

    def inv_prod(self, lam, d):
        """Solve lam o x = d blockwise."""
        out = np.empty(self.dim)
        out[: self.l] = d[: self.l] / lam[: self.l]
        for h, t, e in self.blocks:
            l0, lt, dt = lam.item(h), lam[t:e], d[t:e]
            x0 = (l0 * d.item(h) - float(lt @ dt)) / (l0 * l0 - float(lt @ lt))
            out[h] = x0
            out[t:e] = (dt - x0 * lt) / l0
        return out


class _Scaling:
    """Nesterov-Todd scaling point: W z = W^{-1} s = lam.

    An orthant entry is the scalar sqrt(s_i / z_i).  A second-order-cone block
    is kept as (eta, Jv, v, v'v), J = diag(1, -1, ..., -1), with
    W = eta (2 v v' - J) and W^{-1} = (2 Jv Jv' - J) / eta, so a product costs
    one or two dot products and no block matrix is formed.  ``diag`` holds the
    diagonal parts, w on the orthant and -eta J on a block.
    """

    def __init__(self, cones, s, z):
        self.cones = cones
        l = cones.l
        # iterates headed for an unboundedness verdict can drive one of the
        # pair to a denormal; the clamp keeps the scaling finite until the
        # divergence guards fire
        with np.errstate(over="ignore", divide="ignore"):
            ratio = s[:l] / z[:l]
        diag = np.empty(cones.dim)
        diag[:l] = np.sqrt(np.clip(ratio, 1e-280, 1e280))
        self.soc = []
        for h, t, e in cones.blocks:
            s0, z0, st, zt = s.item(h), z.item(h), s[t:e], z[t:e]
            ns, nz = math.sqrt(st @ st), math.sqrt(zt @ zt)
            rs = math.sqrt(max((s0 - ns) * (s0 + ns), 1e-280))
            rz = math.sqrt(max((z0 - nz) * (z0 + nz), 1e-280))
            # the pair normalised to the hyperboloid, s / rs and z / rz, has the
            # scaling point wbar = (s / rs + J z / rz) / (2 gamma), and
            # v = (wbar + e0) / sqrt(2 (wbar_0 + 1))
            gamma = math.sqrt((1.0 + float(s[h:e] @ z[h:e]) / (rs * rz)) / 2.0)
            w0 = (s0 / rs + z0 / rz) / (2.0 * gamma)
            c = 1.0 / math.sqrt(2.0 * (w0 + 1.0))
            v = (s[h:e] / rs - z[h:e] / rz) * (c / (2.0 * gamma))
            v[0] = (w0 + 1.0) * c
            jv = -v
            jv[0] = v[0]
            eta = math.sqrt(rs / rz)
            diag[h] = -eta
            diag[t:e] = eta
            self.soc.append((eta, jv, v, float(v @ v)))
        self.diag, self.diag_inv = diag, 1.0 / diag
        self.diag_inv2 = self.diag_inv**2
        self.lam = self.mul_w(z)

    def mul_w(self, u):
        """W u: -eta J u + 2 eta (v'u) v on a block."""
        out = u * self.diag
        for (eta, _, v, _), (h, _, e) in zip(self.soc, self.cones.blocks):
            out[h:e] += (2.0 * eta * float(v @ u[h:e])) * v
        return out

    def mul_winv(self, u):
        """W^{-1} u for a vector u, or for each column of a matrix u:
        -J u / eta + 2 Jv (Jv'u) / eta on a block."""
        out = u * (self.diag_inv if u.ndim == 1 else self.diag_inv[:, None])
        for (eta, jv, _, _), (h, _, e) in zip(self.soc, self.cones.blocks):
            out[h:e] += np.multiply.outer((2.0 / eta) * jv, jv @ u[h:e])
        return out

    def mul_winv2(self, u):
        """W^{-2} u in one pass: (u + (4 v'v a - 2 b) Jv - 2 a v) / eta^2, a = Jv'u, b = v'u."""
        out = u * self.diag_inv2
        for (eta, jv, v, vv), (h, _, e) in zip(self.soc, self.cones.blocks):
            ub = u[h:e]
            a, b = float(jv @ ub), float(v @ ub)
            e2 = eta * eta
            out[h:e] += ((4.0 * vv * a - 2.0 * b) / e2) * jv - (2.0 * a / e2) * v
        return out


def assemble_cones(region):
    """Conic rows (G, G', h) and block structure of a region.

    The rows are ``ConvexRegion.conic``, built once per region: the orthant
    holds the finite bounds and the affine members; each cone member, then
    each ellipsoid (through its cone form), adds one block.  G and G' are CSR
    arrays when G is large, dense arrays otherwise.
    """
    G, Gt, h, l, soc_dims = region.conic
    return G, Gt, h, _Cones(l, soc_dims)


class _LU(NamedTuple):
    """LAPACK's LU of the square S = [A' | E_N] of ``_lu_presolve``: factor
    and row interchanges ipiv in dense storage (getrf's) when bands is None,
    in band storage (gbtrf's, bands (kl, ku)) otherwise."""

    factor: np.ndarray
    ipiv: np.ndarray
    bands: tuple | None

    def solve(self, b, trans=0):
        """S^-1 b, or S^-T b for trans = 1, for a vector or a matrix b."""
        if self.bands is None:
            return dgetrs(self.factor, self.ipiv, b, trans=trans)[0]
        return dgbtrs(self.factor, *self.bands, b, self.ipiv, trans=trans)[0]

    def rcond(self):
        """1 / LAPACK's estimate of ||S^-1||_1 (gecon, gbcon), at most the norm."""
        if self.bands is None:
            return dgecon(self.factor, 1.0)[0]
        return dgbcon(*self.bands, self.factor, self.ipiv, 1.0)[0]


class _PseudoInverse:
    """The pseudo-inverse A+ = (I - Z Z') R of a full-row-rank m x n A, never formed.

    lu is the ``_LU`` of the square S = [A' | E_N]: the LU of A' picks basis
    columns B of A, and unit columns on the other rows N complete it.
    S' w = (v, 0) reads A w = v, w_N = 0, so R v = S^-T (v, 0) is A_B^-1 v
    on the rows B and 0 on N, and A R = I.  Z is an orthonormal basis of
    null(A) and I - Z Z' projects onto the row space of A, so this is the
    Moore-Penrose inverse.  ``A+ @ v`` and ``A+.T @ u`` = (S^-1 (I - Z Z') u)[:m]
    (vectors) each take one LAPACK solve on the factor and two products with Z.
    """

    def __init__(self, lu, Z):
        self.lu, self.Z = lu, Z
        self.m = Z.shape[0] - Z.shape[1]
        # T holds the parts, not self: a cycle would keep the factor and Z
        # alive until the cycle collector runs
        self.T = _Transposed(lu, Z, self.m)

    def __matmul__(self, v):
        b = np.zeros(len(self.Z))
        b[: self.m] = v
        r = self.lu.solve(b, 1)
        return r - self.Z @ (self.Z.T @ r)


class _Transposed(NamedTuple):
    """A+' of a ``_PseudoInverse``: A+' u = (S^-1 (I - Z Z') u)[:m]."""

    lu: _LU
    Z: np.ndarray
    m: int

    def __matmul__(self, u):
        return self.lu.solve(u - self.Z @ (self.Z.T @ u))[: self.m]


def _bands(A):
    """(kl, ku, nonzero): the bands of A' and the flat indices of A's nonzeros."""
    nonzero = np.flatnonzero(A != 0.0)
    rows, cols = np.divmod(nonzero, A.shape[1])
    band = cols - rows  # A'[i, j] = A[j, i] lies on the band i - j
    return int(band.max(initial=0)), int(-band.min(initial=0)), nonzero


def _narrow_bands(A):
    """``_bands(A)`` when a band LU of A' costs less than a dense one, else None.

    A band solve with S costs about n (2 kl + ku) multiply-adds, a dense one
    n^2, of which about m^2 are A_B's (``_lu_presolve``); band storage is
    taken only where it beats the A_B part alone.  The bands hold at most
    m (kl + ku + 1) nonzeros, so A with m (m^2 / n + 1) or more is not read.
    """
    m, n = A.shape
    if dgbcon is None or np.count_nonzero(A != 0.0) * n >= m * (m * m + n):
        return None
    kl, ku, _ = bands = _bands(A)
    return bands if n * (2 * kl + ku) < m * m else None


def _lu_presolve(A):
    """``_presolve_equalities``'s value from one LU of A', or None.

    An LU with partial pivoting of A' picks basis columns B of A: its m
    pivot rows.  Unit columns on the other rows N complete it to the LU of
    the square S = [A' | E_N] (``_LU``), and every later step is a solve
    with S: Z0 = S^-T (0; I) has A Z0 = 0 and Z0[N] = I, so it spans
    null(A), Z is its economic QR factor, and A+ is a ``_PseudoInverse``
    on S.  Only the storage of the factor depends on A.  It is LAPACK's
    band one (gbtrf), at the bands (kl, ku) of A' read from A's nonzero
    pattern, when its solves cost fewer flops than dense ones
    (``_narrow_bands``), and dense (getrf) otherwise; gbtrf pivots as getrf
    does, so both pick the same B.  The shooting-structured cascade's A'
    has bands (24, 15) at 8 tanks and 24 steps and takes band storage; at
    3 tanks and 8 steps, bands (8, 5), the two cost about the same and
    dense storage is taken.  A row that couples the first and last states,
    or a secant update, which fills A, widens the bands to about n; there
    a band LU took twice the dense presolve's time and up to five times
    its time per A+ application.  LAPACK is called directly.

    None unless the factor proves that the QR rule keeps every row.  Each
    pivoted-QR |r_ii| >= sigma_min(A) (a column's distance from the span of
    those before it), sigma_min(A) >= sigma_min(A_B) (A A' >= A_B A_B'), and
    sigma_min(A_B) >= 1 / (sqrt(m) ||A_B^-T||_1).  The first m rows of S^-1
    hold A_B^-T on the columns B, so ||S^-1||_1 >= ||A_B^-T||_1, and
    ``_LU.rcond`` of S is an estimate from above of a number below
    1 / ||A_B^-T||_1.  The estimate is in practice within a small factor of
    the norm it bounds, so rcond > 1e-7 sqrt(m) ||A||_F leaves a factor 1000
    over 1e-10 ||A||_F.
    """
    m, n = A.shape
    bands = _narrow_bands(A)
    if bands is None:
        lu, piv, info = dgetrf(A.T)
        diagonal = np.arange(m, n)
    else:
        kl, ku, nonzero = bands
        rows, cols = np.divmod(nonzero, n)
        # LAPACK band storage of A', with kl rows above it for the factor's fill
        ab = np.zeros((2 * kl + ku + 1, m), order="F")
        ab[kl + ku + cols - rows, rows] = A.ravel()[nonzero]
        lu, piv, info = dgbtrf(ab, kl, ku, m=n, n=m, overwrite_ab=1)
        diagonal, bands = kl + ku, (kl, ku)
    if info != 0 or not np.all(np.isfinite(lu)):
        return None
    # the unit columns of E_N: U's diagonal entries in the columns m..n-1
    factor = np.zeros((lu.shape[0], n), order="F")
    factor[:, :m] = lu
    factor[diagonal, np.arange(m, n)] = 1.0
    lu = _LU(factor, np.concatenate([piv, np.arange(m, n, dtype=piv.dtype)]), bands)
    rcond = lu.rcond()
    if not rcond > 1e-7 * np.sqrt(m) * np.linalg.norm(A):
        return None
    qr, tau, _, _ = dgeqrf(lu.solve(np.eye(n, n - m, -m), 1))  # Z0 = S^-T (0; I)
    Z = dorgqr(qr, tau)[0]
    return _FixedRows(A, Z, _PseudoInverse(lu, Z), np.arange(m), m)


def _presolve_equalities(A):
    """The kept rows of A, an orthonormal basis Z of their null space and their
    pseudo-inverse, as one ``region._FixedRows`` value that depends on A alone.

    Row piv[i] is kept when the pivot |r_ii| of a pivoted QR, A'[:, piv] = Q R,
    exceeds 1e-10 ||A||_2; the kept rows (in sorted order) have full row
    rank, Z spans their null space and A+ is their pseudo-inverse,
    A A+ = I, with columns in the kept order.  A+ is anything with ``@`` and
    ``.T @`` on vectors.  For m <= n rows, one LU of S = [A' | E_N], in band
    or dense storage, gives the value, with A+ a ``_PseudoInverse`` operator
    (``_lu_presolve``), when the condition estimate of S proves that the
    rule keeps every row: each |r_ii| >= sigma_min(A) >= sigma_min(A_B) >
    1e-10 ||A||_2 for the LU's basis columns A_B.
    Otherwise (dependent or near-dependent rows, or m > n) the pivoted QR
    itself runs: Z is the trailing part of Q and A+ = Q1 R11^{-T}, formed.
    """
    m, n = A.shape
    if A.size == 0:
        return _FixedRows.none(n, m)
    fixed = _lu_presolve(A) if m <= n else None
    if fixed is not None:
        return fixed
    q, r, piv = scipy.linalg.qr(A.T, pivoting=True)
    rank = int(np.sum(np.abs(np.diag(r)) > 1e-10 * max(np.linalg.norm(A, 2), 1e-300)))
    order = np.argsort(piv[:rank])
    aplus = scipy.linalg.solve_triangular(r[:rank, :rank], q[:, :rank].T, check_finite=False).T
    kept = piv[:rank][order]
    return _FixedRows(A[kept], q[:, rank:], aplus[:, order], kept, m)


class _NullSpaceKKT:
    """The Newton system of the conic iteration, solved on the null space of A.

    For residuals (rx, ry, rz), a complementarity term rc and a scaling W (at
    the cold start that of (e, e), the identity), the step solves

        Hm dx + A' dy = -rx - G' W^{-2} (rz + rc),   A dx = -ry,
        dz = W^{-2} (G dx + rz + rc),   ds = -rz - G dx,

    with Hm = P + G' W^{-2} G.  With Z a basis of null(A) and A+ the
    pseudo-inverse of A (both from the presolve), dx = xp + Z w with the
    particular solution xp = -A+ ry, where the reduced Hessian
    Z' Hm Z = Z'PZ + (W^{-1} G Z)' (W^{-1} G Z)
    is the only matrix formed and LU-factored.  dy is not formed: Z' A' dy = 0,
    so it moves no other part of the step, and rx need not hold A' y.

    The predictor and the corrector of one iteration share (rx, ry), so
    ``particular`` computes xp, G xp and Z'(-rx - P xp) once for both.  The
    reduced right-hand side then needs only the kept GZ = G Z, and so does
    G dx = G xp + GZ w, from which dz and ds follow.  P is None for zero
    curvature, and every product with it is skipped.  G is dense or CSR, as
    ``ConvexRegion.conic`` chose.
    """

    def __init__(self, P, G, fixed):
        self.P, self.G, self.Z, self.aplus = P, G, fixed.Z, fixed.aplus
        self.GZ = G @ self.Z
        self.ZPZ = None if P is None else self.Z.T @ P @ self.Z
        self.W = self.lu = None

    def reduced_hessian(self, W):
        """Z' Hm Z for the scaling W."""
        RZ = W.mul_winv(self.GZ)
        return RZ.T @ RZ if self.ZPZ is None else self.ZPZ + RZ.T @ RZ

    def factor(self, W):
        """LU-factor Z' Hm Z for W; returns the diagonal shift that was needed."""
        self.W = W
        Hr = self.reduced_hessian(W)
        # rescue: a shift catches a singular reduced Hessian, e.g. no curvature
        # on a free direction.  Finiteness is checked on the pivots alone: a nan
        # that misses them still reaches the solve's check
        for reg in (0.0, 1e-12):
            Hs = Hr + reg * max(1.0, np.abs(Hr).max()) * np.eye(len(Hr)) if reg else Hr
            lu, piv, _ = dgetrf(Hs) if len(Hs) else (Hs, None, 0)  # LAPACK takes no order 0
            pivots = np.diagonal(lu)
            if np.isfinite(pivots).all() and pivots.all():
                self.lu = lu, piv
                return reg
        raise np.linalg.LinAlgError("reduced KKT matrix is numerically singular")

    def particular(self, rx, ry):
        """The part every step for (rx, ry) shares: (xp, G xp, Z'(-rx - P xp))."""
        xp = -(self.aplus @ ry)
        t = -(self.Z.T @ rx)
        if self.P is not None:
            t -= self.Z.T @ (self.P @ xp)
        return xp, self.G @ xp, t

    def solve(self, part, rz, rc=0.0):
        """(dx, dz, ds) for the last factored W."""
        xp, gxp, t = part
        rzc = rz + rc
        w = t - self.GZ.T @ self.W.mul_winv2(gxp + rzc)
        w = dgetrs(*self.lu, w, overwrite_b=1)[0] if len(w) else w
        gdx = gxp + self.GZ @ w
        dx, dz = xp + self.Z @ w, self.W.mul_winv2(gdx + rzc)
        if not (np.all(np.isfinite(dx)) and np.all(np.isfinite(dz))):
            raise np.linalg.LinAlgError("non-finite KKT step")
        return dx, dz, -rz - gdx


def _polish_duals(sp, x, grad0, fixed):
    """Equality multipliers refit against the active normals at x.

    The interior-point duals for constraints that sit on zero rows of the
    conic matrix converge slowly; a least-squares refit of
    grad0 + A_eq' y + N' lam = 0 recovers the limit multipliers directly
    once x is accurate.  The fit runs on the presolve's null space Z: lam is
    the minimum-norm fit of Z' N' lam = -Z' grad0, and
    y = -A+' (grad0 + N' lam) on the kept rows, 0 on the dropped ones
    (``_FixedRows.fit``).  None when the fit gives an active normal a
    negative multiplier: the interior point's y is then the only candidate.
    """
    normals = _active_normals(sp.region, x, 1e-7 * (1.0 + float(np.linalg.norm(x))))
    nmat = np.array(normals).T if normals else np.zeros((sp.n, 0))
    if sp.m + nmat.shape[1] == 0:
        return None
    lam = _min_norm_lstsq(fixed.Z.T @ nmat, -(fixed.Z.T @ grad0))
    if lam is None or np.any(lam < 0.0):
        return None
    y = fixed.fit(grad0 + nmat @ lam)
    return y if np.all(np.isfinite(y)) else None


def _primal_polish(sp, x, fixed):
    """Working-set refinement of x, and its y, from the constraints active at x.

    The interior-point iterate is accurate to about sqrt(mu) when a curved
    member is active; the working-set Newton solve on the boundary equations
    restores full precision.  The presolve's ``_FixedRows`` are its fixed
    rows, eliminated through their (Z, A+) as in the interior point, so
    each Newton step solves a KKT matrix of order n - rank A_eq plus the
    working set.  Returns (x, y), y fitted at x with 0 on the dropped rows,
    which the caller re-checks on all of A_eq; candidates are screened by the
    caller through the natural-map residuals.
    """
    scale = 1.0 + float(np.linalg.norm(x))
    rhs = (sp.A_eq @ sp.x_ref - sp.b_eq)[fixed.kept]
    return _working_set_solve(sp.region, sp.gradient, sp.H, fixed, rhs, x, 1e-7 * scale, scale,
                              1e-12 * scale)


def _finish(sp, x, y, fixed, verdict, iters, tol):
    """The solution at (x, y), and the only place that decides ``optimal``.

    With no verdict, one multiplier candidate is certified: the dual refit's y
    when ``_polish_duals`` gives one, else the given y, the interior point's fit.
    A stationarity above 10 tol goes to the primal polish, whose pair is kept
    when its stationarity is lower; the result is ``optimal`` within the
    contract, else ``max_iter``.  A verdict keeps its status, with the residuals
    of (x, y) alone.  A certification projection that verifies no point
    (ProjectionError) ends the attempt: max_iter at x_ref after iters
    iterations, with infinite residuals (``_unsolved``)."""
    try:
        grad0 = sp.gradient(x)
        rescue = verdict is None
        # rescue: conic duals of constraints on zero rows of G lag behind x
        refit = _polish_duals(sp, x, grad0, fixed) if rescue else None
        if refit is not None:
            y = refit
        stat = float(np.linalg.norm(x - project_region(sp.region, x - (grad0 + sp.A_eq.T @ y))))
        if stat > 10.0 * tol and rescue:
            # rescue: an x only sqrt(mu)-accurate because a curved member is active
            pol = _primal_polish(sp, x, fixed)
            if pol is not None:
                x3, y3 = pol
                grad3 = sp.gradient(x3) + sp.A_eq.T @ y3
                stat3 = float(np.linalg.norm(x3 - project_region(sp.region, x3 - grad3)))
                if stat3 < stat:
                    x, y, stat = x3, y3, stat3
        eq = float(np.linalg.norm(sp.A_eq @ (x - sp.x_ref) + sp.b_eq))
        dist = float(np.linalg.norm(x - project_region(sp.region, x)))
    except ProjectionError:
        return _unsolved(sp, fixed, iters)
    within = stat <= 10.0 * tol and eq <= tol and dist <= tol
    status = verdict or (SolveStatus.OPTIMAL if within else SolveStatus.MAX_ITER)
    return SubproblemSolution(x=x, y=y, status=status, iterations=iters,
                              residuals=KKTResidual(stat, eq, dist), fixed=fixed)


def _ipm(sp, opts, warm, fixed):
    P, q = sp.H, sp.grad_const
    A, b = fixed.A, (sp.A_eq @ sp.x_ref - sp.b_eq)[fixed.kept]
    G, Gt, h, cones = assemble_cones(sp.region)
    if cones.dim == 0:
        warm = None  # no cone to step in: the cold-start step is the whole solve
    if not np.any(P):
        P = None  # zero curvature: every product with P is skipped

    e = cones.unit()
    kkt = _NullSpaceKKT(P, G, fixed)

    if warm is not None:
        x = np.array(warm.x, dtype=float)
        # a point far outside the region can overflow here, or shift s onto the
        # boundary in floating point; such a start is taken cold
        with np.errstate(over="ignore", invalid="ignore"):
            s = h - G @ x
            s = s + max(0.0, 1e-4 * (1.0 + np.linalg.norm(h, np.inf)) - cones.margin(s)) * e
        if not (np.all(np.isfinite(x)) and cones.interior(s)):
            warm = None
    if warm is not None:
        z = 1e-2 * cones.inv_prod(s, e)  # centred dual guess: s o z ~ 1e-2 e
        if cones.margin(z) <= 0.0:
            z = np.array(e)
    else:
        try:
            kkt.factor(_Scaling(cones, e, e))
            # min 0.5 x'Px + q'x + 0.5 ||Gx - h||^2
            x, zhat, _ = kkt.solve(kkt.particular(q, -b), -h)
        except np.linalg.LinAlgError:
            return _unsolved(sp, fixed)
        if cones.dim == 0:
            # the step minimises the QP on the null space of the equality rows,
            # which are consistent; one that does not certify ran along a
            # descent direction with no curvature
            sol = _finish(sp, x, fixed.fit(q if P is None else P @ x + q), fixed, None, 0, opts.tol)
            if sol.status is SolveStatus.OPTIMAL:
                return sol
            return _finish(sp, fixed.aplus @ b, np.zeros(sp.m), fixed, SolveStatus.UNBOUNDED, 0,
                           opts.tol)
        s = -zhat
        ms = cones.margin(s)
        if ms <= 0.0:
            s = s + (1.0 - ms) * e
        z = np.array(zhat)
        mz = cones.margin(z)
        if mz <= 0.0:
            z = z + (1.0 - mz) * e

    verdict = None  # set only by the divergence and stall tests below
    it = 0
    small_steps = 0
    b_scale = max(1.0, np.linalg.norm(b), np.linalg.norm(h))
    q_scale = max(1.0, np.linalg.norm(q))

    for it in range(1, opts.max_iter + 1):
        rx = (q if P is None else P @ x + q) + Gt @ z
        ry = A @ x - b
        rz = G @ x + s - h
        gap = float(s @ z)
        mu = gap / cones.degree
        pobj = float(q @ x if P is None else 0.5 * x @ P @ x + q @ x)
        pres = math.sqrt(max(ry @ ry, rz @ rz)) / b_scale

        # conic dual residuals can stay noisy once mu collapses (components of z
        # that multiply zero rows of G drift freely), so acceptance is decided on
        # the natural-map residuals of the (x, y) pair that is actually returned
        tol = opts.tol * 0.5
        if pres <= tol and (gap <= tol * max(1.0, abs(pobj)) or mu <= tol):
            sol = _finish(sp, x, fixed.fit(rx), fixed, None, it, opts.tol)
            # certified, or a certification projection failed (infinite residuals)
            if sol.status is SolveStatus.OPTIMAL or sol.residuals.total == np.inf:
                return sol

        if pobj < _DIVERGE_OBJ * max(1.0, q_scale) or x @ x > 1e24:
            verdict = SolveStatus.UNBOUNDED
            break
        if np.abs(z).sum() > _DIVERGE_DUAL and pres > _STALL_PRES:
            verdict = SolveStatus.INFEASIBLE
            break

        try:
            # an overflowing or invalid step raises rather than warns
            with np.errstate(over="raise", invalid="raise"):
                W = _Scaling(cones, s, z)
                lam = W.lam
                kkt.factor(W)
                part = kkt.particular(rx, ry)

                # predictor: target zero complementarity, dlam = -lam
                _, dz, ds = kkt.solve(part, rz, -W.mul_w(lam))
                alpha_aff = min(cones.max_step(s, ds), cones.max_step(z, dz), 1.0)
                gap_aff = float((s + alpha_aff * ds) @ (z + alpha_aff * dz))
                sigma = min(1.0, max(0.0, gap_aff / gap)) ** 3

                # corrector: recentre and compensate the affine cross term
                corr = cones.prod(W.mul_winv(ds), W.mul_w(dz))  # (W^-1 ds) o (W dz)
                rhs_comp = sigma * mu * e - cones.prod(lam, lam) - corr
                dlam = cones.inv_prod(lam, rhs_comp)
                dx, dz, ds = kkt.solve(part, rz, W.mul_w(dlam))

                # no margin check follows: 0.99 of the way to the boundary keeps s
                # and z interior (test_ipm.py::test_fraction_to_boundary_step_stays_interior)
                alpha = min(1.0, _STEP_FRACTION * min(cones.max_step(s, ds), cones.max_step(z, dz)))
        except (np.linalg.LinAlgError, ZeroDivisionError, FloatingPointError):
            # a singular reduced Hessian, a scaled point lam that rounding puts
            # on a cone's boundary, where lam o x = d is singular too, or a step
            # that overflows on badly scaled data
            break

        x = x + alpha * dx
        s = s + alpha * ds
        z = z + alpha * dz
        small_steps = small_steps + 1 if alpha < 1e-8 else 0
        if small_steps >= 3:
            verdict = SolveStatus.INFEASIBLE if pres > _STALL_PRES else None
            break

    y = fixed.fit((q if P is None else P @ x + q) + Gt @ z)
    return _finish(sp, x, y, fixed, verdict, it, opts.tol)


def _unsolved(sp, fixed=None, iterations=0):
    """No certified point: max_iter at x_ref, residuals infinite."""
    return SubproblemSolution(np.array(sp.x_ref), np.zeros(sp.m), SolveStatus.MAX_ITER,
                              iterations, KKTResidual(np.inf, np.inf, np.inf), fixed=fixed)


def solve_subproblem(sp, opts=None, warm=None, fixed=None):
    """Solve one convex subproblem to opts.tol within opts.max_iter iterations.

    The equality rows are presolved once, for every attempt below, and the
    solution reports that value as ``fixed``: the given fixed only when it was
    built from this very matrix (``fixed.A is sp.A_eq``), else one built here.
    Dropped rows that disagree with the kept ones are ``infeasible`` with no
    attempt.
    Every attempt returns a solution, and the attempts form one ladder.  The
    first warm-starts from warm.x (warm a PrimalDual, whose y is not read)
    when one is given and starts cold otherwise, or when warm.x is not finite
    or too far outside the region for a strictly interior slack in floating
    point.  A warm-started attempt that ends other than optimal is repeated
    once from the cold start.  When the curvature model is zero and the solve
    diverges toward an unbounded ray, it is solved once more with
    H = tik I, tik = 1e-6 (1 + ||c||), centred at x_ref like its own
    curvature; that solution is flagged ``regularized`` and certified on the
    regularized subproblem.  Each rung reports the iterations of every
    attempt before it too.  opts.tikhonov_retry = False returns the raw
    verdict.  An attempt whose certification projection verifies no point
    (ProjectionError) ends as max_iter after the iterations it ran, and a
    cold start whose KKT system cannot be solved as max_iter after 0
    iterations, as do data with a nan or inf entry (fixed None): x = x_ref,
    y = 0 and infinite residuals; the tracker then ends its trace as aborted.
    """
    opts = opts or SolverOptions()
    if not all(np.all(np.isfinite(a)) for a in (sp.c, sp.m_corr, sp.H, sp.x_ref, sp.A_eq, sp.b_eq)):
        return _unsolved(sp)
    if fixed is None or fixed.A is not sp.A_eq:
        fixed = _presolve_equalities(sp.A_eq)
    if fixed.kept.size < sp.m:
        b_all = sp.A_eq @ sp.x_ref - sp.b_eq
        x_ls = fixed.aplus @ b_all[fixed.kept]
        if np.linalg.norm(sp.A_eq @ x_ls - b_all) > 1e-8 * (1.0 + np.linalg.norm(b_all)):
            return _finish(sp, x_ls, np.zeros(sp.m), fixed, SolveStatus.INFEASIBLE, 0, opts.tol)
    sol = _ipm(sp, opts, warm, fixed)
    if warm is not None and sol.status is not SolveStatus.OPTIMAL:
        # rescue: an iteration warm-started far outside the region can stall
        # into a false verdict; the cold start does not depend on warm
        cold = _ipm(sp, opts, None, fixed)
        sol = replace(cold, iterations=sol.iterations + cold.iterations)
    if sol.status is SolveStatus.UNBOUNDED and opts.tikhonov_retry and not np.any(sp.H):
        # rescue: a zero curvature model whose linear objective runs off a ray
        tik = 1e-6 * (1.0 + np.linalg.norm(sp.c))
        reg = _ipm(replace(sp, H=tik * np.eye(sp.n)), opts, warm, fixed)
        sol = replace(reg, iterations=sol.iterations + reg.iterations, regularized=True)
    return sol
