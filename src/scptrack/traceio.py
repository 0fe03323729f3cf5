"""CSV serialization of tracking and solve traces.

Files are written with explicit newlines and shortest round-trip float
formatting so a run is reproducible byte for byte: same scenario, same
seed, same bytes.  Quantities a record does not carry become empty
fields, never zeros.
"""

from __future__ import annotations

import numpy as np

TRACE_HEADER = (
    "k,xi,step_status,solver_iters,kkt_stationarity,kkt_equality,"
    "region_violation,jac_error,oracle_error"
)
SOLVE_HEADER = "j,step_inf_norm,kkt_total,error_vs_oracle"
# headline numbers of one run: the summary line and the bench CSV columns
SUMMARY_FIELDS = (
    "records",
    "max_oracle_error",
    "mean_oracle_error",
    "max_region_violation",
    "solver_iters",
    "jacobian_evals",
)
BENCH_HEADER = ",".join(("scenario", "status") + SUMMARY_FIELDS)


def fmt_float(value):
    """Shortest decimal that round-trips; empty field for a missing value."""
    if value is None:
        return ""
    return repr(float(value))


def fmt_xi(xi):
    """Vector parameters join with semicolons inside the one CSV field."""
    arr = np.atleast_1d(np.asarray(xi, dtype=float))
    return ";".join(repr(float(v)) for v in arr)


def trace_rows(trace):
    """Trace records as CSV lines (header excluded)."""
    rows = []
    for rec in trace.records:
        status = "" if rec.step_status is None else rec.step_status.value
        iters = "" if rec.solver_iters is None else str(rec.solver_iters)
        rows.append(
            ",".join(
                (
                    str(rec.k),
                    fmt_xi(rec.xi),
                    status,
                    iters,
                    fmt_float(rec.kkt.stationarity),
                    fmt_float(rec.kkt.equality),
                    fmt_float(rec.region_violation),
                    fmt_float(rec.jac_error),
                    fmt_float(rec.oracle_error),
                )
            )
        )
    return rows


def _write_csv(path, header, rows):
    """The header line, then one line per row (fields already joined); utf-8, explicit newlines."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for line in (header, *rows):
            fh.write(line + "\n")


def write_trace_csv(path, trace):
    _write_csv(path, TRACE_HEADER, trace_rows(trace))


def write_solve_csv(path, trace, errors=None):
    """Per-iteration solve log; errors vs the reference point optional."""
    errors = errors or [None] * len(trace.records)
    _write_csv(path, SOLVE_HEADER, (
        ",".join((str(rec.j), fmt_float(rec.step_inf_norm), fmt_float(rec.kkt.total),
                  fmt_float(err)))
        for rec, err in zip(trace.records, errors)
    ))


def counters_summary(records, counters):
    """Summary of a run that carries only counts; other fields None."""
    summary = dict.fromkeys(SUMMARY_FIELDS)
    summary.update(
        records=records,
        solver_iters=counters.solver_iters,
        jacobian_evals=counters.jacobian_evals,
    )
    return summary


def summarize_trace(trace):
    """Headline numbers of one tracking run, missing ones as None."""
    summary = counters_summary(len(trace.records), trace.counters)
    oracle_errors = [r.oracle_error for r in trace.records if r.oracle_error is not None]
    if oracle_errors:
        summary["max_oracle_error"] = max(oracle_errors)
        summary["mean_oracle_error"] = sum(oracle_errors) / len(oracle_errors)
    if trace.records:
        summary["max_region_violation"] = max(r.region_violation for r in trace.records)
    return summary


def _summary_field(value):
    if value is None:
        return ""
    return fmt_float(value) if isinstance(value, float) else str(value)


def summary_line(summary):
    parts = [
        f"{key}={_summary_field(summary[key]) or '-'}"
        for key in SUMMARY_FIELDS
        if key != "records"
    ]
    return "summary " + " ".join(parts)


def write_bench_csv(path, rows):
    """Combined benchmark summary, one row per scenario in config order.

    Each row is (name, status, summary-or-None); scenarios that failed
    before producing a trace carry empty statistics.
    """
    _write_csv(path, BENCH_HEADER, (
        ",".join((name, status, *(_summary_field((summary or {}).get(key))
                                  for key in SUMMARY_FIELDS)))
        for name, status, summary in rows
    ))
