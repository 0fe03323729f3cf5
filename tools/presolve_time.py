"""Time the equality presolve of one checkout on the cascade Jacobians.

    python tools/presolve_time.py SRC [--number N] [--repeat R]

SRC is the ``src`` directory of a checkout; ``scptrack`` is imported from
it, never from an installed copy.  For the tank cascade at 3 tanks and 8
steps, 8 tanks and 24 steps and 8 tanks and 40 steps, the script takes
``g_jac`` at the steady start (the first Jacobian model of every
benchmark round); the case ``8x24-coupled`` adds one row that couples the
first state of the first shooting node with the last state of the last,
so that the bands of A' span all of A.  For each matrix it times
``scptrack.ipm._presolve_equalities`` and the two applications of the
pseudo-inverse it returns, ``aplus @ v`` and ``aplus.T @ u``, with
``timeit``: R runs of N calls (N presolves, 20 N applications), the best
run reported per call.  BLAS and OpenMP pools are pinned to one thread
before numpy loads, as perfbench pins them.  It prints one row per matrix,
with the storage the presolve took (``band`` or ``dense`` for the LU of
S = [A' | E_N], ``qr`` for the pivoted QR), and, last, one JSON object
with the same figures.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import timeit  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

SIZES = ((3, 8), (8, 24), (8, 40))


def _best(call, number, repeat):
    """Seconds per call of the best of repeat runs of number calls."""
    return min(timeit.repeat(call, number=number, repeat=repeat)) / number


def _storage(aplus):
    """"band" or "dense" for the LU presolve's operator, "qr" for the QR's
    array; the class name for a checkout with one operator class per storage."""
    if isinstance(aplus, np.ndarray):
        return "qr"
    bands = getattr(aplus.lu, "bands", aplus)
    if bands is aplus:
        return type(aplus).__name__
    return "dense" if bands is None else "band"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", type=Path, help="the src directory of a checkout")
    parser.add_argument("--number", type=int, default=50, help="presolves per run")
    parser.add_argument("--repeat", type=int, default=7, help="runs; the best is reported")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    from scptrack import (CascadeConfig, cascade_problem, ipm, state_slice, steady_start,
                          steady_state)

    cases = {}
    for n_tanks, horizon in SIZES:
        cfg = CascadeConfig(n_tanks=n_tanks, horizon=horizon)
        steady = steady_state(cfg, 1.0)
        A = cascade_problem(cfg, steady).g_jac(steady_start(cfg, steady).x)
        cases[f"{n_tanks}x{horizon}"] = A
        if (n_tanks, horizon) == (8, 24):
            row = np.zeros(A.shape[1])
            row[state_slice(cfg, 0).start] = 1.0
            row[state_slice(cfg, horizon).stop - 1] = -1.0
            cases["8x24-coupled"] = np.vstack([A, row])
    rows = {}
    for name, A in cases.items():
        fixed = ipm._presolve_equalities(A)
        v, u = np.ones(A.shape[0]), np.ones(A.shape[1])
        ms = _best(lambda: ipm._presolve_equalities(A), args.number, args.repeat) * 1e3
        number = 20 * args.number
        apply_us = _best(lambda: fixed.aplus @ v, number, args.repeat) * 1e6
        apply_t_us = _best(lambda: fixed.aplus.T @ u, number, args.repeat) * 1e6
        rows[name] = {"shape": list(A.shape), "storage": _storage(fixed.aplus),
                      "ms_per_call": round(ms, 4), "aplus_us": round(apply_us, 2),
                      "aplus_t_us": round(apply_t_us, 2)}
        print(f"{name:<13} A {A.shape[0]}x{A.shape[1]:<4} {ms:8.4f} ms per presolve"
              f"  A+ v {apply_us:7.2f} us  A+' u {apply_t_us:7.2f} us"
              f"  ({_storage(fixed.aplus)})")
    print(json.dumps({"src": str(args.src), "number": args.number, "repeat": args.repeat,
                      "sizes": rows}))


if __name__ == "__main__":
    main()
