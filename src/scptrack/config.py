"""Scenario configuration for the command line tools.

Config files are flat key-value text: one ``key = value`` assignment per
line, ``#`` starts a comment, dots group related keys.  Values stay
strings until a typed getter pulls them, so every complaint can name the
offending key.  Example::

    problem = tutorial
    variant = pcscp
    xi.schedule = linear
    xi.start = 1.2
    xi.step = 0.25
    xi.count = 10
    oracle = true
    output = sweep.csv
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .cascade import CascadeConfig, cascade_problem, steady_start, steady_state
from .errors import ConfigError, ScpTrackError
from .jacobians import _JAC_KINDS, HessianStrategy, JacobianStrategy
from .problem import PrimalDual
from .subproblem import SolverOptions
from .tracking import _VARIANTS as _TRACK_VARIANTS, TrackerConfig
from .tutorial import tutorial_problem, tutorial_solution

_PROBLEMS = ("tutorial", "cascade")
_VARIANTS = _TRACK_VARIANTS + ("fascp",)
_SCHEDULES = ("linear", "explicit", "file")
_STARTS = ("exact", "perturbed")
_BOOLS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def parse_config_text(text):
    """Assignments as an ordered dict; malformed lines are config errors."""
    pairs = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in pairs:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        pairs[key] = value.strip()
    return pairs


class _Reader:
    """Typed access to raw pairs; remembers which keys were consumed."""

    def __init__(self, pairs):
        self.pairs = dict(pairs)
        self.seen = set()

    def raw(self, key, default=None):
        self.seen.add(key)
        return self.pairs.get(key, default)

    def choice(self, key, options, default):
        value = self.raw(key, default)
        if value not in options:
            raise ConfigError(f"{key}: expected one of {', '.join(options)}, got {value!r}")
        return value

    def floatval(self, key, default=None):
        value = self.raw(key)
        if value is None:
            return default
        try:
            return float(value)
        except ValueError:
            raise ConfigError(f"{key}: not a number: {value!r}") from None

    def intval(self, key, default=None):
        value = self.raw(key)
        if value is None:
            return default
        try:
            return int(value)
        except ValueError:
            raise ConfigError(f"{key}: not an integer: {value!r}") from None

    def boolval(self, key, default=False):
        value = self.raw(key)
        if value is None:
            return default
        flag = _BOOLS.get(value.lower())
        if flag is None:
            raise ConfigError(f"{key}: not a boolean: {value!r}")
        return flag

    def vector(self, key, default=None):
        value = self.raw(key)
        if value is None:
            return default
        try:
            return np.array([float(tok) for tok in value.split()])
        except ValueError:
            raise ConfigError(f"{key}: not a number list: {value!r}") from None

    def reject_unknown(self):
        extra = sorted(set(self.pairs) - self.seen)
        if extra:
            raise ConfigError(f"unknown keys: {', '.join(extra)}")


@dataclass(frozen=True, eq=False)
class ScenarioConfig:
    """One tracking or solve scenario, fully resolved from a config file."""

    problem: str = "tutorial"
    variant: str = "apcscp"
    tracker: TrackerConfig = field(default_factory=TrackerConfig)
    schedule: tuple = ()
    oracle: bool = False
    start: str = "exact"
    start_magnitude: float = 0.1
    fascp_eps: float = 1e-8
    fascp_max_iter: int = 50
    seed: int = 42
    output: str = "trace.csv"
    cascade: Optional[CascadeConfig] = None
    u_steady: float = 1.0


def _read_jacobian(r):
    kind = r.choice("jacobian", _JAC_KINDS, "exact")
    kwargs = {"kind": kind}
    step = r.floatval("jacobian.step")
    if step is not None:
        kwargs["fd_step"] = step
    reset = r.intval("jacobian.reset")
    if reset is not None:
        kwargs["reset_period"] = reset
    skip = r.floatval("jacobian.skip")
    if skip is not None:
        kwargs["skip_threshold"] = skip
    return JacobianStrategy(**kwargs)


def _read_hessian(r):
    kind = r.choice("hessian", ("zero", "projected"), "zero")
    floor = r.floatval("hessian.eig_floor")
    if floor is None:
        return HessianStrategy(kind=kind)
    return HessianStrategy(kind=kind, eig_floor=floor)


def _read_solver(r):
    kwargs = {}
    tol = r.floatval("solver.tol")
    if tol is not None:
        kwargs["tol"] = tol
    max_iter = r.intval("solver.max_iter")
    if max_iter is not None:
        kwargs["max_iter"] = max_iter
    return SolverOptions(**kwargs)


def _read_cascade(r):
    kwargs = {}
    for key, cast in (
        ("n_tanks", r.intval),
        ("horizon", r.intval),
        ("n_substeps", r.intval),
        ("dt", r.floatval),
        ("u_lo", r.floatval),
        ("u_hi", r.floatval),
        ("terminal_radius_scale", r.floatval),
    ):
        value = cast(f"cascade.{key}")
        if value is not None:
            kwargs[key] = value
    for key in ("outflow_coeff", "surface", "h_lo", "h_hi"):
        value = r.vector(f"cascade.{key}")
        if value is not None:
            kwargs[key] = value if value.size > 1 else float(value[0])
    for key in ("state_weight", "control_weight"):
        value = r.vector(f"cascade.{key}")
        if value is not None:
            kwargs[key] = value
    return CascadeConfig(**kwargs)


def _schedule_from_file(path, base_dir):
    if not os.path.isabs(path):
        path = os.path.join(base_dir, path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"xi.file: cannot read {path}: {exc}") from None
    samples = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            samples.append(np.array([float(tok) for tok in line.split()]))
        except ValueError:
            raise ConfigError(f"xi.file line {lineno}: not a number list") from None
    return samples


def _read_schedule(r, base_dir):
    """Parameter samples: arithmetic ramp, inline list, or a sidecar file.

    Inline samples are semicolon-separated, components within a sample
    whitespace-separated, so vector parameters fit on the one line the
    format allows.
    """
    mode = r.choice("xi.schedule", _SCHEDULES, "linear")
    if mode == "linear":
        start = r.vector("xi.start")
        if start is None:
            raise ConfigError("xi.start is required for a linear schedule")
        step = r.vector("xi.step", np.zeros_like(start))
        count = r.intval("xi.count", 1)
        if count < 1:
            raise ConfigError("xi.count must be >= 1")
        if step.shape != start.shape:
            raise ConfigError("xi.step and xi.start disagree on dimension")
        samples = [start + k * step for k in range(count)]
    elif mode == "explicit":
        value = r.raw("xi.values")
        if not value:
            raise ConfigError("xi.values is required for an explicit schedule")
        samples = []
        for part in value.split(";"):
            part = part.strip()
            if not part:
                continue
            try:
                samples.append(np.array([float(tok) for tok in part.split()]))
            except ValueError:
                raise ConfigError(f"xi.values: not a number list: {part!r}") from None
    else:
        path = r.raw("xi.file")
        if not path:
            raise ConfigError("xi.file is required for a file schedule")
        samples = _schedule_from_file(path, base_dir)
    if not samples:
        raise ConfigError("parameter schedule is empty")
    dims = {s.size for s in samples}
    if len(dims) != 1:
        raise ConfigError("schedule samples disagree on dimension")
    return tuple(samples)


def scenario_from_pairs(pairs, base_dir="."):
    """Validated scenario from raw assignments; unknown keys rejected."""
    r = _Reader(pairs)
    try:
        problem = r.choice("problem", _PROBLEMS, "tutorial")
        variant = r.choice("variant", _VARIANTS, "apcscp")
        jacobian = _read_jacobian(r)
        hessian = _read_hessian(r)
        solver = _read_solver(r)
        tracker_variant = "apcscp" if variant == "fascp" else variant
        tracker = TrackerConfig(
            variant=tracker_variant,
            jacobian=jacobian,
            hessian=hessian,
            solver_opts=solver,
            record_oracle_error=r.boolval("oracle", False),
            retry_fresh_jacobian=r.boolval("retry", False),
        )
        cfg = ScenarioConfig(
            problem=problem,
            variant=variant,
            tracker=tracker,
            schedule=_read_schedule(r, base_dir),
            oracle=tracker.record_oracle_error,
            start=r.choice("start", _STARTS, "exact"),
            start_magnitude=r.floatval("start.magnitude", 0.1),
            fascp_eps=r.floatval("fascp.eps", 1e-8),
            fascp_max_iter=r.intval("fascp.max_iter", 50),
            seed=r.intval("seed", 42),
            output=r.raw("output", "trace.csv"),
            cascade=_read_cascade(r) if problem == "cascade" else None,
            u_steady=r.floatval("cascade.u_steady", 1.0) if problem == "cascade" else 1.0,
        )
    except ScpTrackError as exc:
        raise ConfigError(str(exc)) from None
    r.reject_unknown()
    xi_dim = cfg.schedule[0].size
    expected = cfg.cascade.n_tanks if problem == "cascade" else 1
    if xi_dim != expected:
        raise ConfigError(f"schedule has dimension {xi_dim}, problem expects {expected}")
    if cfg.fascp_eps <= 0.0:
        raise ConfigError("fascp.eps must be positive")
    if cfg.fascp_max_iter < 1:
        raise ConfigError("fascp.max_iter must be >= 1")
    return cfg


def load_scenario(path):
    """Scenario from a config file; relative sidecar paths resolve beside it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return scenario_from_pairs(parse_config_text(text), os.path.dirname(os.path.abspath(path)))


def build_problem(cfg):
    """Instantiate the configured benchmark: (problem, start iterate).

    The exact start is the closed-form point of the first sample for the
    tutorial and the steady trajectory for the cascade; a perturbed
    start adds a seeded uniform primal offset of the configured
    magnitude, the dual left untouched.
    """
    if cfg.problem == "tutorial":
        problem = tutorial_problem()
        z0, _ = tutorial_solution(float(cfg.schedule[0][0]))
    else:
        steady = steady_state(cfg.cascade, cfg.u_steady)
        problem = cascade_problem(cfg.cascade, steady)
        z0 = steady_start(cfg.cascade, steady)
    if cfg.start == "perturbed":
        rng = np.random.default_rng(cfg.seed)
        shift = cfg.start_magnitude * rng.uniform(-1.0, 1.0, z0.x.size)
        z0 = PrimalDual(z0.x + shift, z0.y)
    return problem, z0
