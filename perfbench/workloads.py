"""The benchmark workloads: seeded closed loops, timed rounds, checks.

Both workloads run the tank-cascade NMPC in closed loop with
``ClosedLoopPlant``.  A run repeats whole rounds; round r draws its inputs
from the generator seeded with (seed, r), so a seed fixes every round's
inputs whatever the run length.  An operation is one tracking sample: the
interval between two consecutive schedule requests made by ``track``.
Every operation is checked against a reference computed apart from the
program or against a property the method must have; a failed check counts
the operation as failed.
"""

from __future__ import annotations

import time
import types

import numpy as np

import scptrack
from scptrack import (
    CascadeConfig,
    ClosedLoopPlant,
    JacobianStrategy,
    TrackerConfig,
    cascade_problem,
    state_slice,
    steady_start,
    steady_state,
    track,
)

from reference import TankNMPC
from tracer import patched, traced_problem

LAYERS = types.SimpleNamespace(
    tracking=scptrack.tracking, ipm=scptrack.ipm, problem=scptrack.problem,
    region=scptrack.region,
)

# Check tolerances; README.md gives the observed margins.
FEAS_TOL = 1e-8  # box and terminal-set membership of a tracked iterate
SLSQP_TOL = 1e-2  # inf-norm gap, tracked iterate vs. SLSQP NMPC solution
REF_FEAS_TOL = 1e-7  # constraint violation of the SLSQP reference point
SETTLE = 0.1  # final plant offset as a share of the initial offset


class _Stop(Exception):
    """Raised by a schedule to end ``track`` at its first request."""


def _init_interval(problem, z0, config):
    """Seconds from calling track to its first schedule request."""
    stamp = []

    def first(z, k):
        stamp.append(time.perf_counter())
        raise _Stop

    t0 = time.perf_counter()
    try:
        track(problem, first, z0, config)
    except _Stop:
        pass
    return stamp[0] - t0


class _Timed:
    """Schedule wrapper that times the operations between requests.

    An operation runs from the return of one request to the start of the
    next, so the schedule's own work (the plant simulation) is left out.
    With a tracer each operation is also the root span of its layer spans.
    """

    def __init__(self, source, tracer=None):
        self.source, self.tracer = source, tracer
        self.ns = []
        self.start = None

    def __call__(self, z, k):
        now = time.perf_counter_ns()
        if self.start is not None:
            self.ns.append(now - self.start)
            if self.tracer is not None:
                self.tracer.end_op(self.span)
        xi = self.source(z, k)
        if xi is not None and self.tracer is not None:
            self.span = self.tracer.begin_op()
        self.start = time.perf_counter_ns()
        return xi


class CascadeLoop:
    """Closed-loop NMPC of the tank cascade driven by ClosedLoopPlant."""

    def __init__(self, seed, n_tanks, horizon, variant, jacobian, samples, noise=0.01):
        self.seed = seed
        self.n_tanks, self.horizon = n_tanks, horizon
        self.samples, self.noise = samples, noise
        self.config = TrackerConfig(variant=variant, jacobian=JacobianStrategy(jacobian))
        self.worst = {"box_violation": -np.inf, "terminal_violation": -np.inf,
                      "settle_share": 0.0, "slsqp_gap": 0.0, "slsqp_violation": -np.inf}

    def build(self):
        self.cfg = CascadeConfig(n_tanks=self.n_tanks, horizon=self.horizon)
        self.steady = steady_state(self.cfg, 1.0)
        self.problem = cascade_problem(self.cfg, self.steady)
        self.z0 = steady_start(self.cfg, self.steady)

    def setup_once(self):
        """Seconds for one full set-up: construction, start point, and the
        initial models track builds before its first schedule request."""
        t0 = time.perf_counter()
        self.build()
        return time.perf_counter() - t0 + _init_interval(self.problem, self.z0, self.config)

    def prepare(self):
        self.build()
        ell = self.problem.region.ellipsoids[0]
        self.term = state_slice(self.cfg, self.horizon)
        S = ell.shape[self.term, self.term]
        self.ellipsoid = (ell.center[self.term], S, ell.radius)
        self.reference = TankNMPC(self.n_tanks, self.horizon, self.cfg.dt, self.cfg.n_substeps,
                                  1.0, self.cfg.u_lo, self.cfg.u_hi, S, ell.radius)
        self.lower, self.upper = self.problem.region.lower, self.problem.region.upper

    def _expected_jacobians(self, steps):
        # frozen: the one model built at the start; exact: one more per step
        return 1 if self.config.jacobian.kind == "frozen" else 1 + steps

    def _track(self, source, tracer):
        timed = _Timed(source, tracer)
        if tracer is None:
            trace = track(self.problem, timed, self.z0, self.config)
        else:
            with patched(tracer, LAYERS):
                trace = track(traced_problem(tracer, self.problem), timed, self.z0, self.config)
        return trace, timed.ns

    def round(self, r, tracer=None, samples=None):
        """One closed loop; returns operation times (ns) and per-operation
        check outcomes.  samples shortens the loop for the warm-up."""
        rng = np.random.default_rng([self.seed, r])
        n = samples or self.samples
        w_s = self.steady[0]
        plant = ClosedLoopPlant(self.cfg, self.steady, 1.4 * w_s, n_samples=n,
                                noise=self.noise, seed=int(rng.integers(2**31)))
        # record 1 carries the start-up error of stepping from the steady start
        # to 1.4 x steady, not the tracking error, so checks start at record 2
        check_k = int(rng.integers(2, n + 1)) if n > 1 else None
        trace, ns = self._track(plant, tracer)
        if trace.aborted or len(ns) != n:
            return ns, [False] * n
        if samples is not None:  # warm-up round, not checked
            return ns, [True] * n
        offset0 = float(np.linalg.norm(plant.history[0] - w_s))
        settle = float(np.linalg.norm(plant.history[-1] - w_s)) / offset0
        round_ok = (settle <= SETTLE
                    and trace.counters.jacobian_evals == self._expected_jacobians(n))
        self.worst["settle_share"] = max(self.worst["settle_share"], settle)
        c, S, rad = self.ellipsoid
        ok = []
        for k, rec in enumerate(trace.records[1:], start=1):
            x = rec.x
            box = float(np.max(np.maximum(self.lower - x, x - self.upper)))
            d = x[self.term] - c
            term = float(d @ S @ d) - rad
            good = round_ok and box <= FEAS_TOL and term <= FEAS_TOL
            if k == check_k:
                sol = self.reference.solve(rec.xi)
                gap = float(np.max(np.abs(sol - x[: self.reference.n])))
                ref_viol = self.reference.violation(sol, rec.xi)
                self.worst["slsqp_gap"] = max(self.worst["slsqp_gap"], gap)
                self.worst["slsqp_violation"] = max(self.worst["slsqp_violation"], ref_viol)
                good = good and ref_viol <= REF_FEAS_TOL and gap <= SLSQP_TOL
            self.worst["box_violation"] = max(self.worst["box_violation"], box)
            self.worst["terminal_violation"] = max(self.worst["terminal_violation"], term)
            ok.append(good)
        return ns, ok


def make(name, seed):
    """The workload called name, with inputs drawn from seed."""
    if name == "cascade-loop":
        return CascadeLoop(seed, 3, 8, "apcscp", "frozen", samples=30)
    if name == "cascade-wide":
        return CascadeLoop(seed, 8, 24, "pcscp", "exact", samples=60)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("cascade-loop", "cascade-wide")
