"""End-to-end command line runs: files, exit codes, determinism."""

import numpy as np
import pytest

from scptrack.cli import main
from scptrack.traceio import BENCH_HEADER, SOLVE_HEADER, TRACE_HEADER

SWEEP = """
problem = tutorial
variant = {variant}
jacobian = {jacobian}
xi.schedule = linear
xi.start = 1.2
xi.step = 0.25
xi.count = 10
oracle = {oracle}
output = {out}
"""


def _write(path, text):
    path.write_text(text)
    return str(path)


def _summary_value(line, key):
    for part in line.split():
        if part.startswith(key + "="):
            return part.split("=", 1)[1]
    raise AssertionError(f"{key} missing from {line!r}")


def test_track_sweep_writes_trace_and_summary(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    cfg = _write(
        tmp_path / "run.cfg",
        SWEEP.format(variant="pcscp", jacobian="exact", oracle="true", out=out),
    )
    assert main(["track", cfg]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == TRACE_HEADER
    assert len(lines) == 12  # header + start record + 10 samples
    summary = capsys.readouterr().out.strip()
    assert float(_summary_value(summary, "max_region_violation")) <= 1e-6
    assert float(_summary_value(summary, "max_oracle_error")) <= 0.5
    assert int(_summary_value(summary, "jacobian_evals")) == 11


def test_track_rtgn_violates_cone(tmp_path, capsys):
    out = tmp_path / "rtgn.csv"
    cfg = _write(
        tmp_path / "run.cfg",
        SWEEP.format(variant="rtgn", jacobian="exact", oracle="false", out=out),
    )
    assert main(["track", cfg]) == 0
    summary = capsys.readouterr().out.strip()
    assert float(_summary_value(summary, "max_region_violation")) > 1e-4


def test_track_empty_schedule_exits_1_without_file(tmp_path):
    out = tmp_path / "never.csv"
    cfg = _write(
        tmp_path / "run.cfg",
        f"problem = tutorial\nvariant = pcscp\nxi.schedule = linear\n"
        f"xi.start = 1.2\nxi.count = 0\noutput = {out}\n",
    )
    assert main(["track", cfg]) == 1
    assert not out.exists()


def test_track_rejects_fascp_variant(tmp_path):
    cfg = _write(
        tmp_path / "run.cfg",
        SWEEP.format(variant="fascp", jacobian="exact", oracle="false",
                     out=tmp_path / "x.csv"),
    )
    assert main(["track", cfg]) == 1


def test_track_missing_config_exits_1(tmp_path):
    assert main(["track", str(tmp_path / "absent.cfg")]) == 1


def test_track_abort_writes_partial_trace(tmp_path):
    # parameter jump outside the state box: that sample is infeasible
    out = tmp_path / "abort.csv"
    cfg = _write(
        tmp_path / "run.cfg",
        "problem = cascade\nvariant = pcscp\n"
        "cascade.n_tanks = 2\ncascade.horizon = 3\ncascade.h_hi = 2.0\n"
        "xi.schedule = explicit\n"
        "xi.values = 1.0 1.0; 1.1 1.1; 40.0 40.0; 1.0 1.0\n"
        f"output = {out}\n",
    )
    assert main(["track", cfg]) == 2
    lines = out.read_text().splitlines()
    # header + start + two clean samples + the failed sample, nothing after
    assert len(lines) == 5
    assert "infeasible" in lines[-1]


def test_track_nan_sample_writes_partial_trace(tmp_path, monkeypatch):
    # a nan parameter makes that sample's subproblem data non-finite, and
    # that sample is not presolved
    from scptrack import ipm, tracking

    presolved = []
    presolve = ipm._presolve_equalities

    def counted(A):
        presolved.append(A)
        return presolve(A)

    monkeypatch.setattr(ipm, "_presolve_equalities", counted)
    monkeypatch.setattr(tracking, "_presolve_equalities", counted)
    out = tmp_path / "nan.csv"
    cfg = _write(
        tmp_path / "run.cfg",
        "problem = cascade\nvariant = pcscp\n"
        "cascade.n_tanks = 2\ncascade.horizon = 3\n"
        "xi.schedule = explicit\n"
        "xi.values = 1.0 1.0; 1.1 1.1; nan nan; 1.0 1.0\n"
        f"output = {out}\n",
    )
    assert main(["track", cfg]) == 2
    lines = out.read_text().splitlines()
    # header + start + two clean samples + the failed sample, nothing after
    assert len(lines) == 5
    assert lines[-1].split(",")[2:4] == ["max_iter", "0"]
    assert len(presolved) == 2  # one per exact model of a clean sample


def test_track_oracle_failure_writes_partial_trace(tmp_path, monkeypatch, capsys):
    from scptrack import tracking
    from scptrack.errors import OracleError

    calls = []
    real = tracking.oracle_solution

    def failing_oracle(problem, xi, hint):
        calls.append(xi)
        if len(calls) == 4:
            raise OracleError("reference solve failed")
        return real(problem, xi, hint)

    monkeypatch.setattr(tracking, "oracle_solution", failing_oracle)
    out = tmp_path / "partial.csv"
    text = SWEEP.format(variant="apcscp", jacobian="frozen", oracle="true", out=out)
    cfg = _write(tmp_path / "run.cfg", text.replace("xi.step = 0.25", "xi.step = 0.05"))
    assert main(["track", cfg]) == 2
    lines = out.read_text().splitlines()
    # header + the three records finished before the failing oracle call
    assert lines[0] == TRACE_HEADER
    assert [line.split(",")[0] for line in lines[1:]] == ["0", "1", "2"]
    captured = capsys.readouterr()
    assert captured.out.startswith("summary ")
    assert "aborted at record 3: reference solve failed" in captured.err


def test_out_flag_overrides_config(tmp_path):
    configured = tmp_path / "a.csv"
    actual = tmp_path / "b.csv"
    cfg = _write(
        tmp_path / "run.cfg",
        SWEEP.format(variant="pcscp", jacobian="exact", oracle="false", out=configured),
    )
    assert main(["track", cfg, "--out", str(actual)]) == 0
    assert actual.exists() and not configured.exists()


def test_track_runs_are_byte_identical(tmp_path):
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    cfg = _write(
        tmp_path / "run.cfg",
        SWEEP.format(variant="apcscp", jacobian="frozen", oracle="true",
                     out=tmp_path / "unused.csv"),
    )
    assert main(["track", cfg, "--out", str(out_a)]) == 0
    assert main(["track", cfg, "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_solve_at_solution_takes_one_iteration(tmp_path, capsys):
    out = tmp_path / "solve.csv"
    cfg = _write(
        tmp_path / "run.cfg",
        f"problem = tutorial\nvariant = fascp\nxi.schedule = linear\n"
        f"xi.start = 1.2\nstart = exact\noutput = {out}\n",
    )
    assert main(["solve", cfg]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == SOLVE_HEADER
    assert len(lines) == 2
    assert "converged=true iterations=1" in capsys.readouterr().out


def test_solve_perturbed_kkt_tail_decays(tmp_path):
    out = tmp_path / "solve.csv"
    cfg = _write(
        tmp_path / "run.cfg",
        f"problem = tutorial\nvariant = fascp\nxi.schedule = linear\n"
        f"xi.start = 1.2\nstart = perturbed\nstart.magnitude = 0.1\n"
        f"oracle = true\noutput = {out}\n",
    )
    assert main(["solve", cfg]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    kkt = [float(r[2]) for r in rows]
    err = [float(r[3]) for r in rows]
    assert all(b < a for a, b in zip(kkt, kkt[1:]))
    assert err[-1] <= 1e-6


def test_solve_budget_exhaustion_exits_2(tmp_path):
    out = tmp_path / "solve.csv"
    cfg = _write(
        tmp_path / "run.cfg",
        f"problem = tutorial\nvariant = fascp\nxi.schedule = linear\n"
        f"xi.start = 1.2\nstart = perturbed\nstart.magnitude = 0.3\n"
        f"fascp.max_iter = 1\nfascp.eps = 1e-12\noutput = {out}\n",
    )
    assert main(["solve", cfg]) == 2
    assert out.exists()


def test_solve_cascade_cold_start(tmp_path):
    out = tmp_path / "solve.csv"
    cfg = _write(
        tmp_path / "run.cfg",
        f"problem = cascade\nvariant = fascp\n"
        f"cascade.n_tanks = 3\ncascade.horizon = 8\n"
        f"xi.schedule = explicit\nxi.values = 1.0 1.0 1.0\n"
        f"solver.tol = 1e-10\nstart = exact\noutput = {out}\n",
    )
    assert main(["solve", cfg]) == 0
    # slack cost at the steady fixed point is numerically zero
    from scptrack.cascade import CascadeConfig, cascade_problem, steady_start, steady_state
    from scptrack.subproblem import SolverOptions
    from scptrack.tracking import TrackerConfig, fascp_solve

    c = CascadeConfig()
    steady = steady_state(c, 1.0)
    problem = cascade_problem(c, steady)
    z, _ = fascp_solve(
        problem, steady[0], steady_start(c, steady),
        TrackerConfig(solver_opts=SolverOptions(tol=1e-10)),
    )
    assert problem.c @ z.x <= 1e-10


BENCH_SCEN = """
problem = tutorial
variant = {variant}
jacobian = {jacobian}
xi.schedule = linear
xi.start = 1.2
xi.step = 0.25
xi.count = 10
oracle = true
output = {name}.csv
"""


def _bench_setup(tmp_path):
    for name, variant, jacobian in (
        ("pcscp", "pcscp", "exact"),
        ("frozen", "apcscp", "frozen"),
        ("rtgn", "rtgn", "exact"),
    ):
        _write(
            tmp_path / f"{name}.cfg",
            BENCH_SCEN.format(variant=variant, jacobian=jacobian, name=name),
        )
    return _write(
        tmp_path / "bench.cfg",
        f"scenarios = pcscp.cfg; frozen.cfg; rtgn.cfg\noutput = {tmp_path/'bench.csv'}\n",
    )


def test_bench_matrix_rows_and_counters(tmp_path, capsys):
    bench = _bench_setup(tmp_path)
    assert main(["bench", bench]) == 0
    lines = (tmp_path / "bench.csv").read_text().splitlines()
    assert lines[0] == BENCH_HEADER
    assert len(lines) == 4
    names = [line.split(",")[0] for line in lines[1:]]
    assert names == ["pcscp", "frozen", "rtgn"]
    frozen = lines[2].split(",")
    assert frozen[1] == "ok"
    assert frozen[-1] == "1"  # single Jacobian evaluation


def test_bench_rerun_is_byte_identical(tmp_path):
    bench = _bench_setup(tmp_path)
    assert main(["bench", bench]) == 0
    first = (tmp_path / "bench.csv").read_bytes()
    assert main(["bench", bench]) == 0
    assert (tmp_path / "bench.csv").read_bytes() == first


def test_bench_scenario_failure_exits_2_with_status(tmp_path):
    _write(
        tmp_path / "good.cfg",
        BENCH_SCEN.format(variant="pcscp", jacobian="exact", name="good"),
    )
    _write(
        tmp_path / "bad.cfg",
        "problem = cascade\nvariant = pcscp\n"
        "cascade.n_tanks = 2\ncascade.horizon = 3\ncascade.h_hi = 2.0\n"
        "xi.schedule = explicit\nxi.values = 1.0 1.0; 40.0 40.0\n",
    )
    bench = _write(
        tmp_path / "bench.cfg",
        f"scenarios = good.cfg; bad.cfg\noutput = {tmp_path/'bench.csv'}\n",
    )
    assert main(["bench", bench]) == 2
    lines = (tmp_path / "bench.csv").read_text().splitlines()
    assert lines[1].split(",")[1] == "ok"
    assert lines[2].split(",")[1] == "aborted"


def test_bench_malformed_scenario_is_config_error(tmp_path, capsys):
    _write(tmp_path / "broken.cfg", "problem = tutorial\nnot a config line\n")
    # a malformed scenario, then a bench file that lists none
    for scenarios in ("broken.cfg", " ; "):
        bench = _write(
            tmp_path / "bench.cfg",
            f"scenarios = {scenarios}\noutput = {tmp_path/'bench.csv'}\n",
        )
        assert main(["bench", bench]) == 1
        assert not (tmp_path / "bench.csv").exists()
    assert "scenarios must list at least one config path" in capsys.readouterr().err


INFEASIBLE_SOLVE = (
    "problem = cascade\nvariant = fascp\n"
    "cascade.n_tanks = 2\ncascade.horizon = 3\ncascade.h_hi = 2.0\n"
    "xi.schedule = explicit\nxi.values = 40.0 40.0\n"
)


def test_solve_infeasible_first_subproblem_exits_2_with_header_only(tmp_path, capsys):
    out = tmp_path / "solve.csv"
    cfg = _write(tmp_path / "run.cfg", INFEASIBLE_SOLVE + f"output = {out}\n")
    assert main(["solve", cfg]) == 2
    assert out.read_text() == SOLVE_HEADER + "\n"
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "runtime error: subproblem returned infeasible at sample 1\n"


def test_bench_fascp_rows_converged_and_failed(tmp_path, capsys):
    _write(
        tmp_path / "conv.cfg",
        "problem = tutorial\nvariant = fascp\nxi.schedule = linear\nxi.start = 1.2\n"
        "start = perturbed\nstart.magnitude = 0.1\n",
    )
    _write(tmp_path / "fail.cfg", INFEASIBLE_SOLVE)
    bench = _write(
        tmp_path / "bench.cfg",
        f"scenarios = conv.cfg; fail.cfg\noutput = {tmp_path/'bench.csv'}\n",
    )
    assert main(["bench", bench]) == 2
    lines = (tmp_path / "bench.csv").read_text().splitlines()
    assert lines[0] == BENCH_HEADER
    conv, fail = (line.split(",") for line in lines[1:])
    # a solve carries counters only: no oracle errors, no region violation
    assert conv[:2] == ["conv", "ok"] and conv[3:6] == ["", "", ""]
    assert int(conv[2]) >= 1 and int(conv[6]) >= 1 and int(conv[7]) >= 1
    assert fail == ["fail", "error"] + [""] * 6
    captured = capsys.readouterr()
    assert captured.out == "conv: ok\nfail: error\n"
    assert captured.err == "fail: subproblem returned infeasible at sample 1\n"


def test_console_script_entry_point_resolves():
    import importlib
    from pathlib import Path

    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["scp-track"]
    module, attr = target.split(":")
    assert getattr(importlib.import_module(module), attr) is main
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0


def test_solve_malformed_callback_keeps_finished_iterations(tmp_path, capsys, monkeypatch):
    # g_adjoint's 3rd call (iteration 2's correction vector) returns shape (3,)
    from dataclasses import replace

    from scptrack import config
    from scptrack.tutorial import tutorial_problem

    def malformed():
        problem = tutorial_problem()
        calls = []

        def adjoint(x, y):
            calls.append(None)
            out = problem.g_adjoint(x, y)
            return np.resize(out, 3) if len(calls) == 3 else out
        return replace(problem, g_adjoint=adjoint)

    monkeypatch.setattr(config, "tutorial_problem", malformed)
    out = tmp_path / "solve.csv"
    cfg = _write(
        tmp_path / "run.cfg",
        f"problem = tutorial\nvariant = fascp\nxi.schedule = linear\n"
        f"xi.start = 1.2\nstart = perturbed\nstart.magnitude = 0.1\noutput = {out}\n",
    )
    assert main(["solve", cfg]) == 2
    lines = out.read_text().splitlines()
    assert lines[0] == SOLVE_HEADER
    assert [line.split(",")[0] for line in lines[1:]] == ["1"]
    assert capsys.readouterr().err == "runtime error: adjoint returned shape (3,), expected (2,)\n"
