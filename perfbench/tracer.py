"""Outside-in layer tracing for the benchmark.

The tracer patches, for the duration of a ``with`` block, the names through
which one layer of scptrack calls the next: the names ``tracking`` imports,
``project_region`` as ``ipm`` and ``problem`` see it, ``assemble_cones``,
the member ``project`` methods, ``region.nnls`` and the scipy/numpy
linear-algebra calls made by ``ipm``.  Problem callbacks are wrapped by
building a traced copy of the ``ParametricNLP``.  Nothing under ``src/``
is edited, and outside the block the program runs untouched.

Each wrapped call is a span.  Open spans sit on a stack, so every span knows
its parent; when a span closes its duration is added to the parent's child
time and the pair (parent, name) is folded into running totals of calls,
inclusive time and self time (duration minus what child spans cover).
Folding as spans close keeps memory bounded on long runs; the totals are
written out when the run ends.  Calls made outside an operation (the
initial models that ``track`` builds before its first schedule request)
belong to set-up and are not traced.
"""

from __future__ import annotations

import contextlib
import dataclasses
import time
import types
from collections import defaultdict

import numpy as np
import scipy.linalg
import scipy.optimize

ROOT = "op"  # one benchmark operation: a tracking sample


class Tracer:
    def __init__(self):
        self.stack = []  # open spans: [name, child_ns]
        self.edges = defaultdict(lambda: [0, 0, 0])  # (parent, name) -> calls, incl, self
        self.counts = defaultdict(int)
        self.ops = 0

    def _close(self, frame, t0):
        dt = time.perf_counter_ns() - t0
        self.stack.pop()
        parent = self.stack[-1] if self.stack else [None, 0]
        parent[1] += dt
        tot = self.edges[(parent[0], frame[0])]
        tot[0] += 1
        tot[1] += dt
        tot[2] += dt - frame[1]

    def wrap(self, name, fn, after=None):
        """fn as a span called name (or name(stack) when name is callable)."""
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.stack:  # outside an operation: set-up, not traced
                return fn(*args, **kwargs)
            frame = [name(tracer.stack) if callable(name) else name, 0]
            tracer.stack.append(frame)
            t0 = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(frame, t0)
            if after is not None:
                after(out)
            return out

        return traced

    def begin_op(self):
        self.stack.append([ROOT, 0])
        return time.perf_counter_ns()

    def end_op(self, t0):
        self._close(self.stack[-1], t0)
        self.ops += 1

    def totals(self, name):
        """(calls, incl_ns, self_ns) of span name, summed over its parents."""
        out = [0, 0, 0]
        for (_, n), tot in self.edges.items():
            if n == name:
                out = [a + b for a, b in zip(out, tot)]
        return out

    def table(self):
        """Per-operation calls and times of every (parent, span) edge."""
        ops = max(self.ops, 1)
        return [
            {"parent": p, "span": n, "calls": c / ops, "incl_ms": i / 1e6 / ops,
             "self_ms": s / 1e6 / ops}
            for (p, n), (c, i, s) in sorted(self.edges.items(), key=lambda kv: -kv[1][1])
        ]


def _module_copy(module, **overrides):
    """A module object with module's namespace and some names replaced."""
    copy = types.ModuleType(module.__name__)
    copy.__dict__.update(module.__dict__)
    copy.__dict__.update(overrides)
    return copy


def _g_jac_role(stack):
    # a Jacobian evaluated while a diagnostic record is open is diagnostics;
    # anywhere else in a sample it is the model update
    if any(frame[0] == "tracking.record" for frame in stack):
        return "problem.g_jac.diag"
    return "problem.g_jac.model"


def traced_problem(tracer, problem):
    """Copy of a ParametricNLP whose callbacks are spans."""
    return dataclasses.replace(
        problem,
        g=tracer.wrap("problem.g", problem.g),
        g_adjoint=tracer.wrap("problem.g_adjoint", problem.g_adjoint),
        g_jac=tracer.wrap(_g_jac_role, problem.g_jac),
    )


def _count_solution(tracer):
    def after(sol):
        tracer.counts["ipm.iters"] += sol.iterations
        tracer.counts["ipm.regularized"] += int(sol.regularized)
    return after


@contextlib.contextmanager
def patched(tracer, sp):
    """Install the layer spans on the scptrack modules sp; undo on exit."""
    w = tracer.wrap
    tr, ipm, prob, reg = sp.tracking, sp.ipm, sp.problem, sp.region
    module_names = [
        (tr, "update_jacobian", "jacobians.update_jacobian"),
        (tr, "update_hessian", "jacobians.update_hessian"),
        (tr, "correction_vector", "jacobians.correction_vector"),
        (tr, "full_jacobian", "jacobians.full_jacobian"),
        (tr, "build_subproblem", "subproblem.build_subproblem"),
        (tr, "kkt_residual", "problem.kkt_residual"),
        (tr, "region_violation", "region.region_violation"),
        (tr, "_make_record", "tracking.record"),
        (prob, "project_region", "problem.project_region"),
        (ipm, "project_region", "ipm.project_region"),
        (ipm, "assemble_cones", "ipm.assemble_cones"),
        (reg, "nnls", "region.nnls"),
    ]
    classes = [
        (reg.SecondOrderCone, "region.cone_project"),
        (reg.Ellipsoid, "region.ellipsoid_project"),
    ]
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in module_names]
    saved += [(cls, "project", cls.project) for cls, _ in classes]
    saved += [(tr, "solve_subproblem", tr.solve_subproblem), (ipm, "scipy", ipm.scipy),
              (ipm, "np", ipm.np)]
    try:
        for mod, attr, name in module_names:
            setattr(mod, attr, w(name, getattr(mod, attr)))
        for cls, name in classes:
            cls.project = w(name, cls.project)
        tr.solve_subproblem = w("ipm.solve_subproblem", tr.solve_subproblem,
                                _count_solution(tracer))
        ipm.scipy = _module_copy(
            scipy,
            linalg=_module_copy(
                scipy.linalg,
                lu_factor=w("ipm.lu", scipy.linalg.lu_factor),
                lu_solve=w("ipm.lu", scipy.linalg.lu_solve),
                qr=w("ipm.qr", scipy.linalg.qr),
            ),
            optimize=_module_copy(
                scipy.optimize, lsq_linear=w("ipm.lsq_linear", scipy.optimize.lsq_linear)
            ),
        )
        ipm.np = _module_copy(
            np, linalg=_module_copy(np.linalg, lstsq=w("ipm.lstsq", np.linalg.lstsq))
        )
        yield
    finally:
        for obj, attr, value in saved:
            setattr(obj, attr, value)


def layer_metrics(tracer):
    """Per-operation layer figures named <module>.<function>.<quantity>."""
    ops = max(tracer.ops, 1)

    def calls(name):
        return tracer.totals(name)[0] / ops

    def incl(name):
        return tracer.totals(name)[1] / 1e6 / ops

    def own(name):
        return tracer.totals(name)[2] / 1e6 / ops

    proj = ("ipm.project_region", "problem.project_region")
    return {
        "region.cone_project.calls": (calls("region.cone_project"), "count"),
        "region.cone_project.ms": (incl("region.cone_project"), "ms"),
        "region.project_region.calls": (sum(calls(p) for p in proj), "count"),
        "region.project_region.self_ms": (sum(own(p) for p in proj), "ms"),
        "region.nnls.ms": (incl("region.nnls"), "ms"),
        "ipm.certify.calls": (calls("ipm.project_region"), "count"),
        "ipm.certify.ms": (incl("ipm.project_region"), "ms"),
        "region.ellipsoid_project.calls": (calls("region.ellipsoid_project"), "count"),
        "region.ellipsoid_project.ms": (incl("region.ellipsoid_project"), "ms"),
        "problem.g_adjoint.calls": (calls("problem.g_adjoint"), "count"),
        "problem.g_adjoint.ms": (incl("problem.g_adjoint"), "ms"),
        "problem.g.calls": (calls("problem.g"), "count"),
        "problem.g.ms": (incl("problem.g"), "ms"),
        "jacobians.correction_vector.ms": (incl("jacobians.correction_vector"), "ms"),
        "problem.g_jac.model.calls": (calls("problem.g_jac.model"), "count"),
        "problem.g_jac.model.ms": (incl("problem.g_jac.model"), "ms"),
        "problem.g_jac.diag.calls": (calls("problem.g_jac.diag"), "count"),
        "problem.g_jac.diag.ms": (incl("problem.g_jac.diag"), "ms"),
        "jacobians.update_jacobian.ms": (incl("jacobians.update_jacobian"), "ms"),
        "tracking.record.ms": (incl("tracking.record"), "ms"),
        "problem.kkt_residual.ms": (incl("problem.kkt_residual"), "ms"),
        "ipm.solve_subproblem.calls": (calls("ipm.solve_subproblem"), "count"),
        "ipm.solve_subproblem.self_ms": (own("ipm.solve_subproblem"), "ms"),
        "ipm.iters": (tracer.counts["ipm.iters"] / ops, "count"),
        "ipm.lu.calls": (calls("ipm.lu"), "count"),
        "ipm.lu.ms": (incl("ipm.lu"), "ms"),
        "ipm.lstsq.calls": (calls("ipm.lstsq"), "count"),
        "ipm.lstsq.ms": (incl("ipm.lstsq"), "ms"),
        "ipm.lsq_linear.calls": (calls("ipm.lsq_linear"), "count"),
        "ipm.lsq_linear.ms": (incl("ipm.lsq_linear"), "ms"),
        "ipm.assemble_cones.ms": (incl("ipm.assemble_cones"), "ms"),
        "ipm.qr.ms": (incl("ipm.qr"), "ms"),
        "ipm.regularized": (tracer.counts["ipm.regularized"] / ops, "count"),
        "subproblem.build_subproblem.ms": (incl("subproblem.build_subproblem"), "ms"),
        "tracking.self_ms": (own(ROOT), "ms"),
    }
