"""The reference the benchmark checks the tracker against.

Nothing here calls scptrack: the tank-cascade NMPC is transcribed again
(dynamics, RK4, shooting rows, weights, boxes) and solved by scipy's SLSQP.
"""

from __future__ import annotations

import numpy as np
import scipy.optimize

_EPS_H = 1e-6  # smoothing floor under the Torricelli square root


class TankNMPC:
    """The multiple-shooting tank-cascade NMPC, written out again.

    Decision vector (s_0, u_0, ..., s_{H-1}, u_{H-1}, s_H) without the
    objective slack.  Unit outflow coefficients and surfaces, steady inflow
    u_s, levels w_s = u_s^2.  The terminal set (S, r) is the one data item
    taken from the program, because it comes out of its sampled invariance
    search; the objective weights follow the documented recipe.
    """

    def __init__(self, n_tanks, horizon, dt, n_substeps, u_s, u_lo, u_hi, S, r):
        self.nw, self.H, self.dt, self.sub = n_tanks, horizon, dt, n_substeps
        self.u_s = float(u_s)
        self.w_s = np.full(n_tanks, self.u_s**2)
        self.u_lo, self.u_hi = u_lo, u_hi
        self.S, self.r = np.asarray(S, dtype=float), float(r)
        self.P = 0.01 / (self.w_s**2 + 1.0)
        self.Q = 4.0 / ((u_lo + u_hi) ** 2 + 1.0)
        self.n = horizon * (n_tanks + 1) + n_tanks

    def _rhs(self, w, u):
        q = np.sqrt(np.maximum(w, _EPS_H))
        inflow = np.concatenate([u, q[:, :-1]], axis=1)
        return inflow - q

    def _rk4(self, w, u):
        h = self.dt / self.sub
        for _ in range(self.sub):
            k1 = self._rhs(w, u)
            k2 = self._rhs(w + 0.5 * h * k1, u)
            k3 = self._rhs(w + 0.5 * h * k2, u)
            k4 = self._rhs(w + h * k3, u)
            w = w + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        return w

    def _split(self, x):
        nodes = x[: self.H * (self.nw + 1)].reshape(self.H, self.nw + 1)
        return nodes[:, : self.nw], nodes[:, self.nw :], x[self.H * (self.nw + 1) :]

    def shooting(self, x, xi):
        s, u, s_end = self._split(x)
        nxt = np.vstack([s[1:], s_end[None, :]])
        return np.concatenate([s[0] - xi, (self._rk4(s, u) - nxt).ravel()])

    def shooting_jac(self, x):
        """Jacobian of the shooting rows by central differences, one column
        of every interval at a time (the intervals do not couple)."""
        nw, H = self.nw, self.H
        s, u, _ = self._split(x)
        su = np.hstack([s, u])
        jac = np.zeros((nw * (H + 1), self.n))
        jac[:nw, :nw] = np.eye(nw)
        for j in range(nw + 1):
            step = 1e-6 * (1.0 + np.abs(su[:, j]))
            plus, minus = su.copy(), su.copy()
            plus[:, j] += step
            minus[:, j] -= step
            d = (
                self._rk4(plus[:, :nw], plus[:, nw:]) - self._rk4(minus[:, :nw], minus[:, nw:])
            ) / (2.0 * step[:, None])
            for i in range(H):
                jac[nw * (i + 1) : nw * (i + 2), i * (nw + 1) + j] = d[i]
        for i in range(H):
            rows = slice(nw * (i + 1), nw * (i + 2))
            col = (i + 1) * (nw + 1)
            jac[rows, col : col + nw] -= np.eye(nw)
        return jac

    def _weights(self):
        w = np.concatenate([self.P, [self.Q]])
        return np.concatenate([np.tile(w, self.H), np.zeros(self.nw)])

    def _reference(self):
        ref = np.concatenate([self.w_s, [self.u_s]])
        return np.concatenate([np.tile(ref, self.H), self.w_s])

    def objective(self, x):
        d = x - self._reference()
        tail = d[-self.nw :]
        return float(d @ (self._weights() * d) + tail @ self.S @ tail)

    def objective_grad(self, x):
        d = x - self._reference()
        g = 2.0 * self._weights() * d
        g[-self.nw :] += 2.0 * self.S @ d[-self.nw :]
        return g

    def violation(self, x, xi):
        """Worst violation of the shooting rows, boxes and terminal set."""
        lo, hi = np.array(self.bounds()).T
        return max(float(np.max(np.abs(self.shooting(x, xi)))),
                   float(np.max(np.maximum(lo - x, x - hi))), -self.terminal_slack(x))

    def terminal_slack(self, x):
        d = x[-self.nw :] - self.w_s
        return self.r - float(d @ self.S @ d)

    def bounds(self):
        """Levels >= 0 and the control box on every node but the last."""
        node = [(0.0, np.inf)] * self.nw + [(self.u_lo, self.u_hi)]
        return node * self.H + [(-np.inf, np.inf)] * self.nw

    def open_loop_guess(self, xi):
        """Dynamically feasible start: hold the steady inflow from xi."""
        x = np.empty(self.n)
        w = np.asarray(xi, dtype=float)[None, :]
        u = np.array([[self.u_s]])
        for i in range(self.H):
            x[i * (self.nw + 1) : i * (self.nw + 1) + self.nw] = w[0]
            x[i * (self.nw + 1) + self.nw] = self.u_s
            w = self._rk4(w, u)
        x[-self.nw :] = w[0]
        return x

    def solve(self, xi):
        """Local NMPC solution at measured state xi by SLSQP.

        The caller judges the point by its own constraint violation, so the
        termination flag, which reflects the last digits of the objective,
        is not returned.
        """
        nw = self.nw

        def slack_jac(x):
            g = np.zeros(self.n)
            g[-nw:] = -2.0 * self.S @ (x[-nw:] - self.w_s)
            return g[None, :]

        res = scipy.optimize.minimize(
            self.objective,
            self.open_loop_guess(xi),
            jac=self.objective_grad,
            method="SLSQP",
            bounds=self.bounds(),
            constraints=[
                {"type": "eq", "fun": lambda x: self.shooting(x, xi), "jac": self.shooting_jac},
                {"type": "ineq", "fun": lambda x: np.array([self.terminal_slack(x)]),
                 "jac": slack_jac},
            ],
            options={"ftol": 1e-13, "maxiter": 100},
        )
        return res.x
