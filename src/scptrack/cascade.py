"""Desk-scale NMPC benchmark: a cascade of tanks with Torricelli outflow.

A single inflow feeds the first tank and each tank drains into the next
through q = c_i sqrt(h_i).  Multiple shooting over H intervals turns the
steady-state tracking NMPC into a parametric NLP whose parameter is the
measured initial state: equality rows pin s_0 to the parameter and chain
the integrated dynamics across shooting nodes, the region collects the
control and state boxes plus a terminal ellipsoid, and the quadratic
tracking objective is routed through an epigraph slack so the tracked
cost is linear.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg

from .errors import ConfigError, DimensionError, ModelError, UsageError
from .problem import ParametricNLP, PrimalDual, QuadraticObjective, slack_reformulate
from .region import ConvexRegion, Ellipsoid

_EPS_H = 1e-6  # smoothing floor under the outflow square root
_SAMPLE_SEED = 734  # fixed seed for the invariance sample
_N_SAMPLES = 500


@dataclass(frozen=True, eq=False)
class CascadeConfig:
    """Plant and horizon description for the tank-cascade benchmark.

    One control, the inflow to the first tank.  Scalars broadcast to all
    tanks.  Weights left as None follow the scale-aware recipe
    0.01/(w_s_i^2 + 1) per state and 4/((u_lo + u_hi)^2 + 1) for the
    control.
    """

    n_tanks: int = 3
    outflow_coeff: object = 1.0
    surface: object = 1.0
    horizon: int = 8
    dt: float = 0.5
    state_weight: Optional[object] = None
    control_weight: Optional[object] = None
    u_lo: float = 0.0
    u_hi: float = 4.0
    h_lo: object = 0.0
    h_hi: object = np.inf
    terminal_radius_scale: float = 0.9
    n_substeps: int = 4

    def __post_init__(self):
        if self.n_tanks < 1:
            raise ConfigError("n_tanks must be at least 1")
        if self.horizon < 2:
            raise ConfigError("horizon must be at least 2 intervals")
        if self.dt <= 0.0:
            raise ConfigError("dt must be positive")
        if self.n_substeps < 1:
            raise ConfigError("n_substeps must be at least 1")
        if not 0.0 < self.terminal_radius_scale <= 1.0:
            raise ConfigError("terminal_radius_scale must lie in (0, 1]")
        for name in ("outflow_coeff", "surface", "h_lo", "h_hi"):
            value = np.broadcast_to(
                np.asarray(getattr(self, name), dtype=float), (self.n_tanks,)
            ).copy()
            value.flags.writeable = False
            object.__setattr__(self, name, value)
        if np.any(self.outflow_coeff <= 0.0):
            raise ConfigError("outflow coefficients must be positive")
        if np.any(self.surface <= 0.0):
            raise ConfigError("tank surfaces must be positive")
        if not self.u_lo < self.u_hi:
            raise ConfigError("control box is empty")
        if np.any(self.h_lo >= self.h_hi):
            raise ConfigError("state box is empty")

    @property
    def n_w(self):
        return self.n_tanks

    @property
    def n_x(self):
        """Decision variables before the objective slack is appended."""
        return self.horizon * (self.n_tanks + 1) + self.n_tanks

    @property
    def n_eq(self):
        return (self.horizon + 1) * self.n_tanks


def state_slice(cfg, i):
    """Columns of shooting node s_i in the decision vector, 0 <= i <= H."""
    if not 0 <= i <= cfg.horizon:
        raise UsageError(f"state index {i} outside horizon {cfg.horizon}")
    start = i * (cfg.n_tanks + 1)
    return slice(start, start + cfg.n_tanks)


def control_slice(cfg, i):
    """Columns of control u_i in the decision vector, 0 <= i < H."""
    if not 0 <= i < cfg.horizon:
        raise UsageError(f"control index {i} outside horizon {cfg.horizon}")
    start = i * (cfg.n_tanks + 1) + cfg.n_tanks
    return slice(start, start + 1)


@dataclass(frozen=True, eq=False)
class CascadeDynamics:
    """Tank levels: h' = (q_in - q_out)/surface with q_out = c.sqrt(h).

    The square root is smoothed as sqrt(max(h, 1e-6)) so the dynamics
    stay differentiable when a tank runs empty; under the floor the
    outflow partial is zero.  Every method broadcasts over leading axes
    (levels on the trailing axis).  The state partial is diagonal plus
    one subdiagonal, so tangent and cotangent apply it as elementwise
    vector operations and never form it as a matrix.
    """

    coeff: np.ndarray
    surface: np.ndarray

    def rhs(self, w, u):
        w = np.asarray(w, dtype=float)
        u = np.asarray(u, dtype=float)
        q = self.coeff * np.sqrt(np.maximum(w, _EPS_H))
        inflow = np.concatenate([u, q[..., :-1]], axis=-1)
        return (inflow - q) / self.surface

    def linearize(self, w):
        """What tangent and cotangent need of the states w: dq_out/dw."""
        return np.where(
            w > _EPS_H, self.coeff / (2.0 * np.sqrt(np.maximum(w, _EPS_H))), 0.0
        )

    def tangent(self, lin, dw, du):
        """Derivatives of rhs at linearize(w) along the columns of (dw, du).

        dw has shape (..., n_tanks, k) and du (..., 1, k): k directions
        at once, the result shaped like dw.
        """
        dq = lin[..., None] * dw
        out = -dq
        out[..., 1:, :] += dq[..., :-1, :]
        out[..., :1, :] += du
        return out / self.surface[:, None]

    def cotangent(self, lin, lam):
        """Adjoint of tangent: (lam.d(rhs)/dw, lam.d(rhs)/du) at linearize(w)."""
        t = lam / self.surface
        # q_i drains tank i and, but for the last tank, fills tank i+1
        dq_bar = -t
        dq_bar[..., :-1] += t[..., 1:]
        return lin * dq_bar, t[..., :1]


def _rk4_stages(f, s, u, dt, n_substeps):
    """Classical RK4 over equal substeps; keeps every stage state.

    Returns (w_next, stages) with one (w1, w2, w3, w4) tuple per substep,
    the states at which the four slopes were taken.  The derivative
    kernels linearize all stages in one broadcast call.
    """
    w = np.asarray(s, dtype=float)
    h = dt / n_substeps
    stages = []
    for _ in range(n_substeps):
        k1 = f.rhs(w, u)
        w2 = w + 0.5 * h * k1
        k2 = f.rhs(w2, u)
        w3 = w + 0.5 * h * k2
        k3 = f.rhs(w3, u)
        w4 = w + h * k3
        k4 = f.rhs(w4, u)
        stages.append((w, w2, w3, w4))
        w = w + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
    return w, stages


def rk4_step(f, s, u, dt, n_substeps=4):
    """Classical RK4 over equal substeps, forward values only.

    Broadcasts over leading axes of (s, u) whenever f.rhs does.
    """
    return _rk4_stages(f, s, u, dt, n_substeps)[0]


def _tangents(f, lin, shape, nu, h):
    """(dw_next/ds, dw_next/du) from _rk4_stages's stages linearized by f."""
    nw = shape[-1]
    seeds = np.eye(nw + nu)
    du = seeds[nw:]
    T = np.broadcast_to(seeds[:nw], shape + (nw + nu,))
    for l1, l2, l3, l4 in lin:
        d1 = f.tangent(l1, T, du)
        d2 = f.tangent(l2, T + 0.5 * h * d1, du)
        d3 = f.tangent(l3, T + 0.5 * h * d2, du)
        d4 = f.tangent(l4, T + h * d3, du)
        T = T + (h / 6.0) * (d1 + 2.0 * (d2 + d3) + d4)
    return T[..., :nw], T[..., nw:]


def _cotangents(f, lin, lam, h):
    """(lam.dw_next/ds, lam.dw_next/du) from _rk4_stages's stages linearized by f."""
    s_bar = np.asarray(lam, dtype=float)
    u_bar = 0.0
    for l1, l2, l3, l4 in lin[::-1]:
        b4, c4 = f.cotangent(l4, (h / 6.0) * s_bar)
        b3, c3 = f.cotangent(l3, (h / 3.0) * s_bar + h * b4)
        b2, c2 = f.cotangent(l2, (h / 3.0) * s_bar + 0.5 * h * b3)
        b1, c1 = f.cotangent(l1, (h / 6.0) * s_bar + 0.5 * h * b2)
        s_bar = s_bar + (b1 + b2 + b3 + b4)
        u_bar = u_bar + (c1 + c2 + c3 + c4)
    return s_bar, u_bar


def rk4_step_with_tangents(f, s, u, dt, n_substeps=4):
    """Shooting-interval integration with exact discrete tangents.

    Returns (w_next, dw_next/ds, dw_next/du) per interval: s has shape
    (..., n_tanks) and u (..., n_u), and the leading axes batch
    independent intervals.  The tangents differentiate the RK4 recursion
    itself, not the underlying flow, so they match finite differences of
    this map to rounding.  Both seeds ride forward together as the
    columns of one (..., n_tanks, n_tanks + n_u) tangent.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    w, stages = _rk4_stages(f, s, u, dt, n_substeps)
    return (w,) + _tangents(f, f.linearize(np.array(stages)), w.shape, u.shape[-1], dt / n_substeps)


def steady_state(cfg, u_s):
    """Levels that pass a constant inflow u_s through every tank."""
    u = float(u_s)
    if u <= 0.0:
        raise ConfigError("steady inflow must be positive")
    levels = (u / cfg.outflow_coeff) ** 2
    if np.any(levels <= _EPS_H):
        raise ConfigError("steady levels fall below the smoothing floor")
    return levels, np.array([u])


def _steady_pair(cfg, steady):
    w_s, u_s = steady
    w_s = np.atleast_1d(np.asarray(w_s, dtype=float))
    u_s = np.atleast_1d(np.asarray(u_s, dtype=float))
    if w_s.shape != (cfg.n_tanks,):
        raise DimensionError(f"steady levels have shape {w_s.shape}")
    if u_s.shape != (1,):
        raise DimensionError(f"steady control has shape {u_s.shape}")
    return w_s, u_s


def cascade_weights(cfg, steady):
    """Diagonal tracking weights (states, control) with the default recipe."""
    w_s, _ = _steady_pair(cfg, steady)
    if cfg.state_weight is None:
        p = 0.01 / (w_s**2 + 1.0)
    else:
        p = np.broadcast_to(
            np.asarray(cfg.state_weight, dtype=float), (cfg.n_tanks,)
        ).copy()
    if cfg.control_weight is None:
        q = np.array([4.0 / ((cfg.u_lo + cfg.u_hi) ** 2 + 1.0)])
    else:
        q = np.broadcast_to(np.asarray(cfg.control_weight, dtype=float), (1,)).copy()
    if np.any(p <= 0.0) or np.any(q <= 0.0):
        raise ConfigError("tracking weights must be positive")
    return np.diag(p), np.diag(q)


def _solve_dare(A, B, P, Q):
    """Cost-to-go S of the discrete Riccati equation, solved by scipy, and the
    gain K = (Q + B'SB)^-1 B'SA; a pair scipy cannot solve is not stabilizable."""
    try:
        S = scipy.linalg.solve_discrete_are(A, B, P, Q)
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise ModelError(f"riccati equation has no stabilizing solution: {exc}") from exc
    BtS = B.T @ S
    return S, np.linalg.solve(Q + BtS @ B, BtS @ A)


def terminal_ellipsoid(cfg, steady):
    """Terminal set (S, r): Riccati matrix, sampled-invariance radius.

    S solves the discrete Riccati equation of the one-interval
    linearization at the steady pair.  The radius is the largest sampled
    level rho (geometric search, then bisection) such that 500 seeded
    boundary states of {dw : dw.S.dw = rho}, driven by the feedback
    u = u_s - K dw, respect the control box and land inside the same
    level set after one integration interval; the returned r scales that
    level by terminal_radius_scale.
    """
    w_s, u_s = _steady_pair(cfg, steady)
    dyn = CascadeDynamics(cfg.outflow_coeff, cfg.surface)
    _, A_d, B_d = rk4_step_with_tangents(dyn, w_s, u_s, cfg.dt, cfg.n_substeps)
    P, Q = cascade_weights(cfg, steady)
    S, K = _solve_dare(A_d, B_d, P, Q)

    lam, U = np.linalg.eigh(S)
    if lam[0] <= 0.0:
        raise ModelError("terminal matrix is numerically singular")
    # rows v with v.S.v = 1: unit directions mapped through S^(-1/2)
    rng = np.random.default_rng(_SAMPLE_SEED)
    raw = rng.standard_normal((_N_SAMPLES, cfg.n_tanks))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    dirs = raw @ (U / np.sqrt(lam)) @ U.T

    def invariant(rho):
        dw = math.sqrt(rho) * dirs
        ctrl = u_s[None, :] - dw @ K.T
        if np.any(ctrl < cfg.u_lo - 1e-12) or np.any(ctrl > cfg.u_hi + 1e-12):
            return False
        w_next = rk4_step(dyn, w_s[None, :] + dw, ctrl, cfg.dt, cfg.n_substeps)
        dv = w_next - w_s[None, :]
        return bool(np.max(np.einsum("ij,jk,ik->i", dv, S, dv)) <= rho)

    rho = 1e-6
    while rho > 1e-14 and not invariant(rho):
        rho *= 0.25
    if rho <= 1e-14:
        raise ConfigError(
            "no invariant terminal radius found; widen the control box or weights"
        )
    while rho < 1e9 and invariant(rho * 4.0):
        rho *= 4.0
    if rho < 1e9:
        lo, hi = rho, rho * 4.0
        for _ in range(50):
            mid = math.sqrt(lo * hi)
            if invariant(mid):
                lo = mid
            else:
                hi = mid
        rho = lo
    return S, cfg.terminal_radius_scale * rho


def cascade_problem(cfg, steady):
    """Multiple-shooting NMPC as a parametric NLP in the measured state.

    Decision vector (s_0, u_0, ..., s_{H-1}, u_{H-1}, s_H) plus one
    objective slack; equality rows s_0 - xi and w(s_i, u_i) - s_{i+1};
    region = control and state boxes with the terminal ellipsoid on s_H.
    The steady pair must zero the dynamics to 1e-10.
    """
    w_s, u_s = _steady_pair(cfg, steady)
    dyn = CascadeDynamics(cfg.outflow_coeff, cfg.surface)
    resid = float(np.max(np.abs(dyn.rhs(w_s, u_s))))
    if resid > 1e-10:
        raise UsageError(f"steady pair has dynamics residual {resid:.3e}")
    S, r = terminal_ellipsoid(cfg, steady)
    P, Q = cascade_weights(cfg, steady)

    nw, H = cfg.n_tanks, cfg.horizon
    n, m = cfg.n_x, cfg.n_eq
    dt, sub = cfg.dt, cfg.n_substeps
    # all shooting nodes (H + 1, nw), all controls (H, 1), and the
    # (H, nw) equality rows that chain interval i into s_{i+1}
    node = np.arange(H + 1)[:, None] * (nw + 1)
    s_idx = node + np.arange(nw)
    u_idx = node[:-1] + nw
    chain = nw + np.arange(H * nw).reshape(H, nw)
    jac_fixed = np.zeros((m, n))
    jac_fixed[np.arange(nw), s_idx[0]] = 1.0
    jac_fixed[chain, s_idx[1:]] = -1.0

    last = (None, None, None, None)  # key, w_next, stage states, linearization

    def forward(x, linearized=False):
        """w_next of every interval at x, or its stages' linearization, from a
        one-entry memo keyed on the bytes of x's nodes and controls: a point
        that differs anywhere, even in the sign of a zero, is integrated anew."""
        nonlocal last
        key = x[:n].tobytes()
        if key != last[0]:
            last = (key, *_rk4_stages(dyn, x[s_idx[:-1]], x[u_idx], dt, sub), None)
        if linearized and last[3] is None:
            last = last[:3] + (dyn.linearize(np.array(last[2])),)
        return last[3] if linearized else last[1]

    def g(x):
        return np.concatenate([x[s_idx[0]], (forward(x) - x[s_idx[1:]]).ravel()])

    def g_jac(x):
        A, B = _tangents(dyn, forward(x, linearized=True), (H, nw), 1, dt / sub)
        jac = jac_fixed.copy()
        jac[chain[..., None], s_idx[:-1, None, :]] = A
        jac[chain[..., None], u_idx[:, None, :]] = B
        return jac

    def g_adjoint(x, y):
        lam = y[nw:].reshape(H, nw)
        s_bar, u_bar = _cotangents(dyn, forward(x, linearized=True), lam, dt / sub)
        out = np.zeros(n)
        out[s_idx[:-1]] = s_bar
        out[s_idx[1:]] -= lam
        out[s_idx[0]] += y[:nw]
        out[u_idx] = u_bar
        return out

    stage, term = s_idx[:-1], s_idx[-1]
    lower = np.full(n, -np.inf)
    upper = np.full(n, np.inf)
    lower[stage], upper[stage] = cfg.h_lo, cfg.h_hi
    lower[u_idx], upper[u_idx] = cfg.u_lo, cfg.u_hi
    center = np.zeros(n)
    center[term] = w_s
    shape = np.zeros((n, n))
    shape[term[:, None], term] = S
    region = ConvexRegion(lower, upper, ellipsoids=(Ellipsoid(center, shape, r),))

    M = np.zeros((m, nw))
    M[:nw] = -np.eye(nw)

    base = ParametricNLP(
        c=np.zeros(n),
        g=g,
        g_adjoint=g_adjoint,
        M=M,
        region=region,
        g_jac=g_jac,
        name="cascade",
    )

    # tracking cost (x - ref).W.(x - ref) over stage and terminal blocks
    ref = steady_primal(cfg, steady)[:n]
    W = np.zeros((n, n))
    W[stage[..., None], stage[:, None, :]] = P
    W[u_idx[..., None], u_idx[:, None, :]] = Q
    W[term[:, None], term] = S
    objective = QuadraticObjective(2.0 * W, -2.0 * (W @ ref), float(ref @ W @ ref))
    return slack_reformulate(objective, base)


def steady_primal(cfg, steady):
    """Steady trajectory as a decision vector, objective slack included."""
    w_s, u_s = _steady_pair(cfg, steady)
    x = np.zeros(cfg.n_x + 1)
    for i in range(cfg.horizon):
        x[state_slice(cfg, i)] = w_s
        x[control_slice(cfg, i)] = u_s
    x[state_slice(cfg, cfg.horizon)] = w_s
    return x


def steady_start(cfg, steady):
    """Exact KKT point of the cascade problem at xi = w_s."""
    return PrimalDual(steady_primal(cfg, steady), np.zeros(cfg.n_eq))


class ClosedLoopPlant:
    """Parameter source for track(): the measured state of a rolling plant.

    Sample 0 is the supplied initial level vector; afterwards the plant
    applies the first control of the current iterate, integrates one
    interval with the benchmark integrator, adds a seeded disturbance
    bounded by noise x steady level per tank, and clips to the state
    box.  Returns None once n_samples measurements have been produced.
    """

    def __init__(self, cfg, steady, w0, n_samples, noise=0.0, seed=0):
        self.cfg = cfg
        self.w_s, _ = _steady_pair(cfg, steady)
        self.dyn = CascadeDynamics(cfg.outflow_coeff, cfg.surface)
        self.w = np.atleast_1d(np.asarray(w0, dtype=float)).copy()
        if self.w.shape != (cfg.n_tanks,):
            raise DimensionError(f"initial levels have shape {self.w.shape}")
        self.n_samples = int(n_samples)
        self.noise = float(noise)
        self.rng = np.random.default_rng(seed)
        self.history = [np.array(self.w)]

    def __call__(self, z, k):
        if k >= self.n_samples:
            return None
        if k == 0:
            return np.array(self.w)
        u0 = np.clip(z.x[control_slice(self.cfg, 0)], self.cfg.u_lo, self.cfg.u_hi)
        w = rk4_step(self.dyn, self.w, u0, self.cfg.dt, self.cfg.n_substeps)
        if self.noise > 0.0:
            w = w + self.noise * self.w_s * self.rng.uniform(-1.0, 1.0, w.size)
        self.w = np.clip(w, self.cfg.h_lo, self.cfg.h_hi)
        self.history.append(np.array(self.w))
        return np.array(self.w)
