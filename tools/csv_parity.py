"""Compare the CLI's CSVs of two source trees over a fixed config matrix.

    python tools/csv_parity.py PARENT_SRC CHANGE_SRC [--workdir DIR]

PARENT_SRC and CHANGE_SRC are directories that hold the ``scptrack``
package (a checkout's ``src``).  The script writes one config file per
scenario of the matrix below, then runs ``scp-track`` once per scenario and
tree, each run in its own subprocess (``python -W error -m scptrack.cli``,
BLAS pinned to one thread, the tree first on PYTHONPATH).  The matrix:

- tutorial track sweeps: apcscp, pcscp and rtgn x exact, fd and frozen
  Jacobians x zero and projected Hessians (perturbed start, oracle errors
  on, xi = 1.2 + 0.25 k for 10 samples).  pcscp and rtgn reject a frozen
  Jacobian, so those four are config errors on both sides;
- tutorial apcscp with a Broyden Jacobian, without and with reset 3;
- one fascp solve of the tutorial at xi = 1.5 (perturbed start, oracle on);
- cascade 3x8: apcscp/frozen, apcscp/Broyden reset 3 and pcscp/fd;
  cascade 8x24: pcscp/exact, rtgn/exact and apcscp/frozen.  Both start at
  the steady levels and step the first and last tank by 0.01 per sample,
  for 8 and 4 samples.

For each scenario it prints the exit codes, whether the CSVs are
byte-identical, whether the columns k, xi, step_status and solver_iters
(j for a solve CSV) and the row count are identical, and the largest
absolute and relative difference over the other columns, read as floats
(the relative one over entries of magnitude at least 1e-8; an entry that is
empty or not finite on one side only counts as an infinite difference).
It exits 1 when any of those columns, a row count or an exit code differs,
or a CSV exists on one side only; otherwise 0.  Running it with the same
tree twice checks that reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

EXACT = ("k", "xi", "step_status", "solver_iters", "j")
# entries smaller than this (residuals at rounding level) stay out of the relative figure
REL_FLOOR = 1e-8

TUTORIAL = ("problem = tutorial\nxi.schedule = linear\nxi.start = 1.2\nxi.step = 0.25\n"
            "xi.count = 10\nstart = perturbed\noracle = true\n")


def _cascade(tanks, horizon, samples):
    step = " ".join("0.01" if i in (0, tanks - 1) else "0" for i in range(tanks))
    return (f"problem = cascade\ncascade.n_tanks = {tanks}\ncascade.horizon = {horizon}\n"
            f"xi.schedule = linear\nxi.start = {' '.join(['1'] * tanks)}\nxi.step = {step}\n"
            f"xi.count = {samples}\n")


def matrix():
    """(name, CLI command, config text) of every scenario, in run order."""
    runs = []
    for variant in ("apcscp", "pcscp", "rtgn"):
        for jac in ("exact", "fd", "frozen"):
            for hess in ("zero", "projected"):
                text = f"{TUTORIAL}variant = {variant}\njacobian = {jac}\nhessian = {hess}\n"
                runs.append((f"tutorial-{variant}-{jac}-{hess}", "track", text))
    runs.append(("tutorial-apcscp-broyden", "track",
                 f"{TUTORIAL}variant = apcscp\njacobian = broyden\n"))
    runs.append(("tutorial-apcscp-broyden-reset3", "track",
                 f"{TUTORIAL}variant = apcscp\njacobian = broyden\njacobian.reset = 3\n"))
    runs.append(("tutorial-fascp", "solve",
                 "problem = tutorial\nvariant = fascp\nxi.schedule = explicit\nxi.values = 1.5\n"
                 "start = perturbed\noracle = true\n"))
    small, wide = _cascade(3, 8, 8), _cascade(8, 24, 4)
    runs += [
        ("cascade3x8-apcscp-frozen", "track", f"{small}variant = apcscp\njacobian = frozen\n"),
        ("cascade3x8-apcscp-broyden-reset3", "track",
         f"{small}variant = apcscp\njacobian = broyden\njacobian.reset = 3\n"),
        ("cascade3x8-pcscp-fd", "track", f"{small}variant = pcscp\njacobian = fd\n"),
        ("cascade8x24-pcscp-exact", "track", f"{wide}variant = pcscp\njacobian = exact\n"),
        ("cascade8x24-rtgn-exact", "track", f"{wide}variant = rtgn\njacobian = exact\n"),
        ("cascade8x24-apcscp-frozen", "track", f"{wide}variant = apcscp\njacobian = frozen\n"),
    ]
    return runs


def run_tree(src, workdir, runs):
    """Run every scenario on the tree at src; {name: (exit code, CSV path)}."""
    path = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    workdir.mkdir(parents=True, exist_ok=True)
    out = {}
    for name, command, text in runs:
        cfg, csv_path = workdir / f"{name}.cfg", workdir / f"{name}.csv"
        cfg.write_text(text, encoding="utf-8")
        proc = subprocess.run([sys.executable, "-W", "error", "-m", "scptrack.cli", command,
                               str(cfg), "--out", str(csv_path)],
                              env=env, cwd=workdir, capture_output=True, text=True)
        out[name] = (proc.returncode, csv_path if csv_path.exists() else None)
    return out


def _rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _float(text):
    try:
        return float(text)
    except ValueError:
        return None


def compare(a_path, b_path):
    """(exact columns identical, (largest abs diff, where), (largest rel diff, where))
    of two CSVs."""
    a, b = _rows(a_path), _rows(b_path)
    same = len(a) == len(b) and (not a or a[0].keys() == b[0].keys())
    worst_abs, worst_rel = (0.0, None), (0.0, None)
    for i, (ra, rb) in enumerate(zip(a, b)):
        for col, va in ra.items():
            vb = rb.get(col)
            if col in EXACT:
                same = same and va == vb
                continue
            if va == vb:
                continue
            fa, fb = _float(va), _float(vb)
            # an empty, nan or inf entry on one side only counts as an infinite difference
            finite = fa is not None and fb is not None and math.isfinite(fa) and math.isfinite(fb)
            diff = abs(fa - fb) if finite else math.inf
            size = max(abs(fa), abs(fb)) if finite else math.inf
            where = f"row {i} {col}: {va} vs {vb}"
            worst_abs = max(worst_abs, (diff, where), key=lambda t: t[0])
            if size >= REL_FLOOR:
                rel = diff / size if finite else math.inf
                worst_rel = max(worst_rel, (rel, where), key=lambda t: t[0])
    return same, worst_abs, worst_rel


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent_src", type=Path)
    ap.add_argument("change_src", type=Path)
    ap.add_argument("--workdir", type=Path, default=None,
                    help="where configs and CSVs are written (default: a new temporary directory)")
    args = ap.parse_args(argv)
    for src in (args.parent_src, args.change_src):
        if not (src / "scptrack" / "__init__.py").is_file():
            ap.error(f"no scptrack package under {src}")
    root = args.workdir or Path(tempfile.mkdtemp(prefix="csv_parity-"))
    runs = matrix()
    parent = run_tree(args.parent_src.resolve(), root / "parent", runs)
    change = run_tree(args.change_src.resolve(), root / "change", runs)
    ok, most_abs, most_rel = True, (0.0, None), (0.0, None)
    print(f"configs and CSVs under {root}")
    for name, _, _ in runs:
        (code_a, csv_a), (code_b, csv_b) = parent[name], change[name]
        line = f"{name:34s} exit {code_a}/{code_b}"
        if csv_a is None or csv_b is None:
            ok = ok and code_a == code_b and csv_a is None and csv_b is None
            print(f"{line}  no CSV on {'both sides' if csv_a is csv_b else 'one side'}")
            continue
        same, d_abs, d_rel = compare(csv_a, csv_b)
        ok = ok and same and code_a == code_b
        most_abs = max(most_abs, (d_abs[0], f"{name} {d_abs[1]}"), key=lambda t: t[0])
        most_rel = max(most_rel, (d_rel[0], f"{name} {d_rel[1]}"), key=lambda t: t[0])
        identical = csv_a.read_bytes() == csv_b.read_bytes()
        print(f"{line}  byte-identical {'yes' if identical else 'no '}  "
              f"exact columns {'identical' if same else 'DIFFER'}  "
              f"max abs {d_abs[0]:.3g}  max rel {d_rel[0]:.3g}")
    print(f"largest absolute difference: {most_abs[0]:.3g} ({most_abs[1]})")
    print(f"largest relative difference: {most_rel[0]:.3g} ({most_rel[1]})")
    print("parity: " + ("k, xi, step_status and solver_iters identical" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
