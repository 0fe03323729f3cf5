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

from .config import build_problem, load_bench, load_scenario
from .errors import ConfigError, ScpTrackError
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


def _fail_runtime(exc):
    print(f"runtime error: {exc}", file=sys.stderr)
    return EXIT_RUNTIME


def _setup(config_path, solve):
    """(cfg, problem, start iterate) of a track or solve config."""
    cfg = load_scenario(config_path)
    if not solve and cfg.variant == "fascp":
        raise ConfigError("track needs a step variant: apcscp, pcscp or rtgn")
    return (cfg, *build_problem(cfg))


def _run(cfg, problem, z0, solve):
    """(z, trace): the full-step solve at the first sample when solve is set,
    else (None, the tracking sweep over the schedule)."""
    if solve:
        return fascp_solve(problem, cfg.schedule[0], z0, cfg.tracker,
                           eps=cfg.fascp_eps, max_iter=cfg.fascp_max_iter)
    return None, track(problem, list(cfg.schedule), z0, cfg.tracker)


def cmd_track(config_path, out=None):
    """Run one tracking sweep; write the trace CSV and a summary line."""
    try:
        cfg, problem, z0 = _setup(config_path, solve=False)
    except ScpTrackError as exc:
        return _fail_config(exc)
    try:
        _, trace = _run(cfg, problem, z0, solve=False)
    except ScpTrackError as exc:
        # e.g. evaluating the start model; a failed step or record comes
        # back as an aborted trace instead
        return _fail_runtime(exc)
    write_trace_csv(out or cfg.output, trace)
    print(summary_line(summarize_trace(trace)))
    if trace.aborted:
        print(f"aborted at {trace.message}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def cmd_solve(config_path, out=None):
    """Full-step solve at the first schedule sample; per-iteration CSV."""
    try:
        cfg, problem, z0 = _setup(config_path, solve=True)
    except ScpTrackError as exc:
        return _fail_config(exc)
    path = out or cfg.output
    try:
        z, trace = _run(cfg, problem, z0, solve=True)
    except ScpTrackError as err:
        partial = getattr(err, "trace", None)
        if partial is not None:
            write_solve_csv(path, partial)
        return _fail_runtime(err)
    errors = None
    if cfg.tracker.record_oracle_error:
        try:
            zbar = oracle_solution(problem, cfg.schedule[0], z)
        except ScpTrackError as exc:
            return _fail_runtime(exc)
        errors = [float(np.linalg.norm(np.concatenate([r.z.x - zbar.x, r.z.y - zbar.y])))
                  for r in trace.records]
    write_solve_csv(path, trace, errors)
    print(
        f"converged={str(trace.converged).lower()} iterations={len(trace.records)} "
        f"kkt={trace.final_kkt.total!r}"
    )
    return EXIT_OK if trace.converged else EXIT_RUNTIME


def _bench_row(name, cfg):
    """One bench row: (name, status, summary-or-None).  Never raises."""
    solve = cfg.variant == "fascp"
    try:
        _, trace = _run(cfg, *build_problem(cfg), solve)
    except ScpTrackError as exc:
        print(f"{name}: {exc}", file=sys.stderr)
        return name, "error", None
    if solve:
        summary = counters_summary(len(trace.records), trace.counters)
        return name, "ok" if trace.converged else "not_converged", summary
    return name, "aborted" if trace.aborted else "ok", summarize_trace(trace)


def cmd_bench(config_path, out=None):
    """Run a scenario list; one summary row per scenario in config order.

    The bench config lists scenario config paths (semicolon-separated,
    resolved beside the bench file).  Scenario configs are validated up
    front, so a malformed entry is a configuration error before anything
    runs; failures during a run land in the status column instead.
    """
    try:
        names, scenarios, output = load_bench(config_path)
    except ScpTrackError as exc:
        return _fail_config(exc)
    stems = [os.path.splitext(os.path.basename(n))[0] for n in names]
    rows = [_bench_row(stem, cfg) for stem, cfg in zip(stems, scenarios)]
    write_bench_csv(out or output, rows)
    for stem, status, _ in rows:
        print(f"{stem}: {status}")
    return EXIT_RUNTIME if any(status != "ok" for _, status, _ in rows) else EXIT_OK


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
