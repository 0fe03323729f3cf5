"""Scenario configuration for the command line tools.

Config files are flat key-value text: one ``key = value`` assignment per
line, ``#`` starts a comment, dots group related keys.  Scenario and bench
files are read through the one reader, ``_Reader``: values stay strings
until its typed read parses them, so every complaint names the offending
key, and a key that nothing read is rejected.  Example::

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


def _numbers(text):
    """Whitespace-separated numbers as a vector; ValueError on any other token."""
    return np.array([float(tok) for tok in text.split()])


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

    def _typed(self, key, parse, what, default):
        """parse(value) of a set key, default of an unset one; a parse failure names the key."""
        value = self.raw(key)
        if value is None:
            return default
        try:
            return parse(value)
        except (KeyError, ValueError):
            raise ConfigError(f"{key}: not {what}: {value!r}") from None

    def floatval(self, key, default=None):
        return self._typed(key, float, "a number", default)

    def intval(self, key, default=None):
        return self._typed(key, int, "an integer", default)

    def boolval(self, key, default=False):
        return self._typed(key, lambda v: _BOOLS[v.lower()], "a boolean", default)

    def vector(self, key, default=None):
        return self._typed(key, _numbers, "a number list", default)

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
    start: str = "exact"
    start_magnitude: float = 0.1
    fascp_eps: float = 1e-8
    fascp_max_iter: int = 50
    seed: int = 42
    output: str = "trace.csv"
    cascade: Optional[CascadeConfig] = None
    u_steady: float = 1.0


def _given(**kwargs):
    """The keyword arguments that were set; an unset one keeps its dataclass default."""
    return {key: value for key, value in kwargs.items() if value is not None}


def _read_jacobian(r):
    return JacobianStrategy(**_given(
        kind=r.choice("jacobian", _JAC_KINDS, "exact"),
        fd_step=r.floatval("jacobian.step"),
        reset_period=r.intval("jacobian.reset"),
        skip_threshold=r.floatval("jacobian.skip"),
    ))


def _read_hessian(r):
    return HessianStrategy(**_given(
        kind=r.choice("hessian", ("zero", "projected"), "zero"),
        eig_floor=r.floatval("hessian.eig_floor"),
    ))


def _read_solver(r):
    return SolverOptions(**_given(
        tol=r.floatval("solver.tol"), max_iter=r.intval("solver.max_iter")))


def _read_cascade(r):
    # per-tank values pass through as read; CascadeConfig broadcasts a single one
    keys = (
        (r.intval, ("n_tanks", "horizon", "n_substeps")),
        (r.floatval, ("dt", "u_lo", "u_hi", "terminal_radius_scale")),
        (r.vector, ("outflow_coeff", "surface", "h_lo", "h_hi", "state_weight", "control_weight")),
    )
    return CascadeConfig(**_given(**{k: cast(f"cascade.{k}") for cast, ks in keys for k in ks}))


def _read_text(path, label):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ConfigError(f"{label} {path}: {exc}") from None


def _samples(parts, message):
    """Number lists of the parts that are not blank or comment.

    A part that does not parse is a config error, message formatted with its
    1-based position i and its text part.
    """
    samples = []
    for i, part in enumerate(parts, start=1):
        part = part.split("#", 1)[0].strip()
        if part:
            try:
                samples.append(_numbers(part))
            except ValueError:
                raise ConfigError(message.format(i=i, part=part)) from None
    return samples


def _read_schedule(r, base_dir):
    """Parameter samples: arithmetic ramp, inline list, or a sidecar file.

    Inline samples are semicolon-separated, a file holds one sample per line,
    and the components of a sample are whitespace-separated, so vector
    parameters fit on the one line the format allows.
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
        samples = _samples(value.split(";"), "xi.values: not a number list: {part!r}")
    else:
        path = r.raw("xi.file")
        if not path:
            raise ConfigError("xi.file is required for a file schedule")
        # a relative path resolves beside the config file, an absolute one stays
        text = _read_text(os.path.join(base_dir, path), "xi.file: cannot read")
        samples = _samples(text.splitlines(), "xi.file line {i}: not a number list")
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
        cfg = ScenarioConfig(
            problem=problem,
            variant=variant,
            tracker=TrackerConfig(
                variant="apcscp" if variant == "fascp" else variant,
                jacobian=_read_jacobian(r),
                hessian=_read_hessian(r),
                solver_opts=_read_solver(r),
                record_oracle_error=r.boolval("oracle", False),
                retry_fresh_jacobian=r.boolval("retry", False),
            ),
            schedule=_read_schedule(r, base_dir),
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
    text = _read_text(path, "cannot read config")
    return scenario_from_pairs(parse_config_text(text), os.path.dirname(os.path.abspath(path)))


def load_bench(path):
    """A bench file: (scenario paths as listed, their scenarios, output path).

    ``scenarios`` lists config paths, semicolon-separated and resolved beside
    the bench file; ``output`` defaults to bench.csv; other keys are rejected.
    """
    r = _Reader(parse_config_text(_read_text(path, "cannot read config")))
    names = [part.strip() for part in r.raw("scenarios", "").split(";") if part.strip()]
    output = r.raw("output", "bench.csv")
    r.reject_unknown()
    if not names:
        raise ConfigError("scenarios must list at least one config path")
    base = os.path.dirname(os.path.abspath(path))
    return names, [load_scenario(os.path.join(base, name)) for name in names], output


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
