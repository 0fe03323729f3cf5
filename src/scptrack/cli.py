"""Command line front end: tracking sweeps, single solves, batch runs.

Three subcommands, each driven by one flat config file:

    scp-track track <config>   parameter sweep, trace CSV plus summary line
    scp-track solve <config>   full-step solve at one parameter, iteration CSV
    scp-track bench <config>   scenario list, combined summary CSV

Exit codes: 0 success, 1 configuration or validation error, 2 runtime
algorithm failure (aborted sweep, non-converged solve, failed scenario).
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .config import build_problem, load_scenario, parse_config_text
from .errors import ConfigError, ScpTrackError, StepError
from .traceio import (
    counters_summary,
    summarize_trace,
    summary_line,
    write_bench_csv,
    write_solve_csv,
    write_trace_csv,
)
from .tracking import fascp_solve, oracle_solution, track

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2


def _fail_config(exc):
    print(f"config error: {exc}", file=sys.stderr)
    return EXIT_CONFIG


def _load_track_scenario(config_path):
    cfg = load_scenario(config_path)
    if cfg.variant == "fascp":
        raise ConfigError("track needs a step variant: apcscp, pcscp or rtgn")
    return cfg


def cmd_track(config_path, out=None):
    """Run one tracking sweep; write the trace CSV and a summary line."""
    try:
        cfg = _load_track_scenario(config_path)
        problem, z0 = build_problem(cfg)
    except ScpTrackError as exc:
        return _fail_config(exc)
    try:
        trace = track(problem, list(cfg.schedule), z0, cfg.tracker)
    except ScpTrackError as exc:
        # only non-step failures reach here (e.g. the reference solve);
        # subproblem failures come back as an aborted trace
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    write_trace_csv(out or cfg.output, trace)
    print(summary_line(summarize_trace(trace)))
    if trace.aborted:
        print(f"aborted at {trace.message}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def _solve_errors(trace, zbar):
    errors = []
    for rec in trace.records:
        dx = np.concatenate([rec.z.x - zbar.x, rec.z.y - zbar.y])
        errors.append(float(np.linalg.norm(dx)))
    return errors


def cmd_solve(config_path, out=None):
    """Full-step solve at the first schedule sample; per-iteration CSV."""
    try:
        cfg = load_scenario(config_path)
        problem, z0 = build_problem(cfg)
    except ScpTrackError as exc:
        return _fail_config(exc)
    xi = cfg.schedule[0]
    path = out or cfg.output
    try:
        z, trace = fascp_solve(
            problem, xi, z0, cfg.tracker, eps=cfg.fascp_eps, max_iter=cfg.fascp_max_iter
        )
    except StepError as err:
        partial = getattr(err, "trace", None)
        if partial is not None:
            write_solve_csv(path, partial)
        print(f"runtime error: {err}", file=sys.stderr)
        return EXIT_RUNTIME
    errors = None
    if cfg.oracle:
        try:
            errors = _solve_errors(trace, oracle_solution(problem, xi, z))
        except ScpTrackError as exc:
            print(f"runtime error: {exc}", file=sys.stderr)
            return EXIT_RUNTIME
    write_solve_csv(path, trace, errors)
    print(
        f"converged={str(trace.converged).lower()} iterations={len(trace.records)} "
        f"kkt={trace.final_kkt.total!r}"
    )
    return EXIT_OK if trace.converged else EXIT_RUNTIME


def _run_scenario(name, cfg):
    """One bench entry: (status, summary-or-None).  Never raises."""
    try:
        problem, z0 = build_problem(cfg)
        if cfg.variant == "fascp":
            _, trace = fascp_solve(
                problem,
                cfg.schedule[0],
                z0,
                cfg.tracker,
                eps=cfg.fascp_eps,
                max_iter=cfg.fascp_max_iter,
            )
            summary = counters_summary(len(trace.records), trace.counters)
            return ("ok" if trace.converged else "not_converged", summary)
        trace = track(problem, list(cfg.schedule), z0, cfg.tracker)
        summary = summarize_trace(trace)
        return ("aborted" if trace.aborted else "ok", summary)
    except ScpTrackError as exc:
        print(f"{name}: {exc}", file=sys.stderr)
        return ("error", None)


def cmd_bench(config_path, out=None):
    """Run a scenario list; one summary row per scenario in config order.

    The bench config lists scenario config paths (semicolon-separated,
    resolved beside the bench file).  Scenario configs are validated up
    front, so a malformed entry is a configuration error before anything
    runs; failures during a run land in the status column instead.
    """
    try:
        with open(config_path, "r", encoding="utf-8") as fh:
            pairs = parse_config_text(fh.read())
        known = {"scenarios", "output"}
        extra = sorted(set(pairs) - known)
        if extra:
            raise ConfigError(f"unknown keys: {', '.join(extra)}")
        raw = pairs.get("scenarios", "")
        names = [part.strip() for part in raw.split(";") if part.strip()]
        if not names:
            raise ConfigError("scenarios must list at least one config path")
        base = os.path.dirname(os.path.abspath(config_path))
        paths = [p if os.path.isabs(p) else os.path.join(base, p) for p in names]
        scenarios = [load_scenario(p) for p in paths]
    except OSError as exc:
        return _fail_config(f"cannot read config {config_path}: {exc}")
    except ScpTrackError as exc:
        return _fail_config(exc)

    stems = [os.path.splitext(os.path.basename(n))[0] for n in names]
    rows = [(stem, *_run_scenario(stem, cfg)) for stem, cfg in zip(stems, scenarios)]
    write_bench_csv(out or pairs.get("output", "bench.csv"), rows)
    for stem, status, _ in rows:
        print(f"{stem}: {status}")
    if any(status != "ok" for _, status, _ in rows):
        return EXIT_RUNTIME
    return EXIT_OK


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="scp-track",
        description="Parametric NLP tracking via sequential convex programming.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (
        ("track", "run a parameter sweep and write the trace CSV"),
        ("solve", "run the full-step iteration at one parameter"),
        ("bench", "run a scenario list and write a combined summary"),
    ):
        cmd = sub.add_parser(name, help=doc)
        cmd.add_argument("config", help="path to a flat key-value config file")
        cmd.add_argument("--out", default=None, help="override the configured output path")
    args = parser.parse_args(argv)
    handler = {"track": cmd_track, "solve": cmd_solve, "bench": cmd_bench}[args.command]
    return handler(args.config, args.out)


if __name__ == "__main__":
    sys.exit(main())
