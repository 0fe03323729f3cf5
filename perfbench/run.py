"""Per-sample tracking benchmark for scptrack.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the package is imported from its
``src/`` directory, never from an installed copy.  One process, one thread
(BLAS and OpenMP pools are pinned to one before numpy loads).  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics and the tracing overhead with ``--trace 1``.  A fuller
record of the run goes to ``perfbench/out/``.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

MIN_OPS = 100  # ms_p90 needs at least ten operations beyond it
SETUP_REPS = 5  # set-up is repeated at least this often ...
SETUP_SECONDS = 1.0  # ... and until this much time is spent, at most
SETUP_MAX_REPS = 200  # this many times; the median is reported


def _fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _median(values):
    return float(np.median(values))


def measure_setup(wl):
    times, spent = [], 0.0
    while len(times) < SETUP_MAX_REPS and (len(times) < SETUP_REPS or spent < SETUP_SECONDS):
        gc.collect()
        times.append(wl.setup_once())
        spent += times[-1]
    return _median(times), len(times)


def run(wl, seconds, trace):
    """Whole rounds until seconds have passed (and MIN_OPS operations ran).

    With trace, untraced and traced rounds alternate, so the two ms_p50
    figures that give the tracing overhead come from the same stretch of
    time.
    """
    tracer = Tracer() if trace else None
    plain, traced, failed, round_p50 = [], [], 0, []
    t_start = time.perf_counter()
    r = 0
    while (time.perf_counter() - t_start < seconds
           or (trace and not traced) or (not trace and len(plain) < MIN_OPS)):
        gc.collect()
        use = tracer if trace and r % 2 == 1 else None
        ns, ok = wl.round(r, use)
        (traced if use else plain).extend(ns)
        round_p50.append(_median(ns) / 1e6)
        failed += ok.count(False)
        r += 1
    return plain, traced, failed, round_p50, tracer


def end_to_end(op_ns, setup_s):
    ms = np.asarray(op_ns, dtype=float) / 1e6
    return {
        "ms_p50": (float(np.median(ms)), "ms"),
        "ms_p90": (float(np.percentile(ms, 90)), "ms"),
        "ops_per_s": (1e3 * ms.size / float(ms.sum()), "1/s"),
        "setup_s": (setup_s, "s"),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "scptrack" / "__init__.py").is_file():
        _fail(f"no scptrack sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import scptrack

    if Path(scptrack.__file__).resolve().parent != SRC / "scptrack":
        _fail(f"imported scptrack from {scptrack.__file__}, not from {SRC}")

    import workloads

    if args.workload not in workloads.NAMES:
        _fail(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.NAMES)}")
    if args.seed < 0 or args.seconds <= 0:
        _fail("seed must be >= 0 and seconds > 0")

    wl = workloads.make(args.workload, args.seed)
    wl.prepare()
    setup_s, setup_reps = measure_setup(wl)
    wl.round(0, None, samples=1)  # one discarded warm-up operation
    plain, traced, failed, round_p50, tracer = run(wl, args.seconds, bool(args.trace))
    attempted = len(plain) + len(traced)

    metrics = end_to_end(plain, setup_s)
    if args.trace:
        metrics = layer_metrics(tracer)
        p50_plain, p50_traced = _median(plain) / 1e6, _median(traced) / 1e6
        metrics["trace.untraced_ms_p50"] = (p50_plain, "ms")
        metrics["trace.traced_ms_p50"] = (p50_traced, "ms")
        metrics["trace.overhead_pct"] = (100.0 * (p50_traced / p50_plain - 1.0), "%")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    worst = {k: v for k, v in wl.worst.items() if v != float("-inf")}
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  round_ms_p50=round_p50, setup_reps=setup_reps, worst=worst,
                  spans=tracer.table() if tracer else None)
    path = out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"{args.workload} seed {args.seed}: {attempted} operations in {len(round_p50)} rounds, "
          f"{failed} failed; worst {json.dumps(worst)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
