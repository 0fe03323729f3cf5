"""Compare every interior-point attempt of two checkouts' tier-1 suites.

    python tools/solve_parity.py PARENT_DIR CHANGE_DIR [--workdir DIR]

PARENT_DIR and CHANGE_DIR are checkouts of the repository, each with its
``src`` and ``tests``.  The script runs each checkout's tier-1 suite in its
own subprocess (``python -m pytest -q --continue-on-collection-errors`` in
the checkout, its ``src`` first on PYTHONPATH, BLAS pinned to one thread)
with this file loaded as a pytest plugin (``-p solve_parity``).  The plugin
wraps ``scptrack.ipm._ipm`` through ``*args``, so it logs every attempt
whatever its arity, and writes one JSON line per test that runs and one per
call: the test id, the call's index within its test, the status, the
iteration count, x and y, and a SHA-256 of the bytes of each, and the three
natural-map residuals (``residuals.stationarity``, ``.equality`` and
``.region_distance``, read by name, so a residual type with more fields logs
the same three) as the exact hex form of each float (or the exception the
call raised).

The two logs are matched test by test.  Within a test the calls are aligned
as sequences (``difflib``), so a call that one side makes and the other does
not shows as that call alone, not as a shift of every later one.  The script
prints each difference: a status or iteration count that differs, a call on
one side only, x or y bytes that differ, residuals that differ in a call
whose status, iterations, x and y are identical, and a test that runs on one
side only (with its call count).  A line on x or y bytes gives the difference
as ||d||_inf / (1 + ||x_parent||_inf), and the last lines give the largest
such difference of x and of y.  It exits 1 on a difference of the first two
kinds; otherwise 0, whatever else is listed.  The suites' own pass/fail
counts are printed too.
"""

from __future__ import annotations

import argparse
import difflib
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

_LOG_ENV = "SOLVE_PARITY_LOG"
_RESIDUALS = ("stationarity", "equality", "region_distance")
_state = {"test": None, "index": 0, "log": None}


# --- the pytest plugin: active only when the log path is set -----------------

def pytest_configure(config):
    path = os.environ.get(_LOG_ENV)
    if not path:
        return
    from scptrack import ipm

    _state["log"] = open(path, "w", encoding="utf-8")
    inner = ipm._ipm

    def logged(*args, **kwargs):
        entry = {"test": _state["test"], "index": _state["index"]}
        _state["index"] += 1
        try:
            sol = inner(*args, **kwargs)
        except Exception as err:
            entry.update(status=f"raised {type(err).__name__}", iterations=None, x=None, y=None,
                         residuals=None)
            raise
        else:
            entry.update(status=sol.status.value, iterations=int(sol.iterations),
                         x=hashlib.sha256(sol.x.tobytes()).hexdigest(),
                         y=hashlib.sha256(sol.y.tobytes()).hexdigest(),
                         x_values=sol.x.tolist(), y_values=sol.y.tolist(),
                         residuals={k: float(getattr(sol.residuals, k)).hex() for k in _RESIDUALS})
        finally:
            _state["log"].write(json.dumps(entry) + "\n")
        return sol

    ipm._ipm = logged


def pytest_runtest_logstart(nodeid, location):
    _state["test"], _state["index"] = nodeid, 0
    if _state["log"] is not None:
        _state["log"].write(json.dumps({"test": nodeid, "run": True}) + "\n")


def pytest_unconfigure(config):
    if _state["log"] is not None:
        _state["log"].close()
        _state["log"] = None


# --- the comparison ----------------------------------------------------------

def run_suite(checkout, log):
    """Run the tier-1 suite of checkout with the plugin; (exit code, summary line)."""
    tools = Path(__file__).resolve().parent
    path = os.pathsep.join([str(checkout / "src"), str(tools), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", **{_LOG_ENV: str(log)})
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
                           "-p", "no:cacheprovider", "-p", "solve_parity"],
                          cwd=checkout, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines[-1] if lines else proc.stderr.strip()[-200:]


def read_log(path):
    """{test id: [call entry, ...]} in call order, for every test that ran."""
    calls = defaultdict(list)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            entry = json.loads(line)
            if entry.pop("run", False):
                calls[entry["test"]]
            else:
                calls[entry["test"]].append(entry)
    return calls


def _outcome(entry):
    return entry["status"], entry["iterations"]


def _describe(entry):
    return f"call {entry['index']} ({entry['status']}, {entry['iterations']} iterations)"


def _difference(ea, eb, key):
    """||d||_inf / (1 + ||parent||_inf) of one vector of two matched calls."""
    a, b = ea[f"{key}_values"], eb[f"{key}_values"]
    if len(a) != len(b):
        return float("inf")
    scale = 1.0 + max((abs(v) for v in a), default=0.0)
    return max((abs(u - v) for u, v in zip(a, b)), default=0.0) / scale


def _residuals_line(test, ea, eb):
    """The residuals of two calls that match in everything else, or None when equal."""
    ra, rb = ea["residuals"], eb["residuals"]
    if ra == rb:
        return None
    parts = [f"{k} {float.fromhex(ra[k]):.3e} -> {float.fromhex(rb[k]):.3e}"
             for k in _RESIDUALS if ra[k] != rb[k]]
    return f"{test}: {_describe(ea)} residuals only: {', '.join(parts)} (change call {eb['index']})"


def compare(parent, change):
    """(lines that fail parity, lines that list other differences, identical call
    count, the largest difference of x and of y among calls that differ only in
    their bytes).  A call identical in all but its residuals is listed, not
    counted as identical."""
    failing, listed, same = [], [], 0
    worst = {"x": 0.0, "y": 0.0}
    for test in sorted(set(parent) | set(change), key=str):
        if (test in parent) != (test in change):
            side, calls = ("parent", parent[test]) if test in parent else ("change", change[test])
            listed.append(f"{test}: runs in the {side} only, {len(calls)} calls")
            continue
        a, b = parent[test], change[test]
        keys_a = [(_outcome(e), e["x"], e["y"]) for e in a]
        keys_b = [(_outcome(e), e["x"], e["y"]) for e in b]
        matcher = difflib.SequenceMatcher(None, keys_a, keys_b, autojunk=False)
        for op, i1, i2, j1, j2 in matcher.get_opcodes():
            if op == "equal":
                for ea, eb in zip(a[i1:i2], b[j1:j2]):
                    line = _residuals_line(test, ea, eb)
                    if line is None:
                        same += 1
                    else:
                        listed.append(line)
                continue
            if op == "replace" and i2 - i1 == j2 - j1:
                for ea, eb in zip(a[i1:i2], b[j1:j2]):
                    if _outcome(ea) != _outcome(eb):
                        failing.append(f"{test}: parent {_describe(ea)}, change {_describe(eb)}")
                    else:
                        parts = []
                        for k in ("x", "y"):
                            if ea[k] != eb[k]:
                                d = _difference(ea, eb, k)
                                worst[k] = max(worst[k], d)
                                parts.append(f"{k} by {d:.1e}")
                        listed.append(f"{test}: {_describe(ea)} {' and '.join(parts)}"
                                      f" (change call {eb['index']})")
                continue
            failing += [f"{test}: only in parent, {_describe(e)}" for e in a[i1:i2]]
            failing += [f"{test}: only in change, {_describe(e)}" for e in b[j1:j2]]
    return failing, listed, same, worst


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent_dir", type=Path)
    ap.add_argument("change_dir", type=Path)
    ap.add_argument("--workdir", type=Path, default=None,
                    help="where the call logs are written (default: a new temporary directory)")
    args = ap.parse_args(argv)
    for checkout in (args.parent_dir, args.change_dir):
        if not (checkout / "src" / "scptrack" / "ipm.py").is_file():
            ap.error(f"no src/scptrack under {checkout}")
    root = args.workdir or Path(tempfile.mkdtemp(prefix="solve_parity-"))
    root.mkdir(parents=True, exist_ok=True)
    logs = {}
    for side, checkout in (("parent", args.parent_dir), ("change", args.change_dir)):
        logs[side] = root / f"{side}.jsonl"
        code, summary = run_suite(checkout.resolve(), logs[side])
        print(f"{side}: pytest exit {code}: {summary}")
    parent, change = read_log(logs["parent"]), read_log(logs["change"])
    for side, calls in (("parent", parent), ("change", change)):
        print(f"{side}: {sum(map(len, calls.values()))} _ipm calls in {len(calls)} tests"
              f" (log {logs[side]})")
    failing, listed, same, worst = compare(parent, change)
    for line in failing + listed:
        print(line)
    print(f"{same} calls identical in status, iterations, x and y bytes and residuals;"
          f" {len(failing)} status, iteration or one-side call differences;"
          f" {len(listed)} other differences listed")
    print(f"largest difference of calls that differ only in their bytes, as"
          f" ||d||_inf / (1 + ||parent||_inf): x {worst['x']:.1e}, y {worst['y']:.1e}")
    print("parity: " + ("statuses and iterations identical" if not failing else "FAILED"))
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
