"""Replay of recorded closed-loop subproblem solves.

``data/round0_replay.json`` holds, for two seeded 10-sample closed loops of
the tank cascade, the status, iteration count and x of every
``solve_subproblem`` call that ``track`` makes.  A change to the solver's
arithmetic may move x by rounding only: statuses and iteration counts must
match exactly and x within 1e-9 relative.

Regenerate the file (only for a deliberate change of results) with

    PYTHONPATH=src python tests/test_replay.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from scptrack import (
    CascadeConfig,
    ClosedLoopPlant,
    JacobianStrategy,
    TrackerConfig,
    cascade_problem,
    steady_start,
    steady_state,
    track,
)
from scptrack import tracking as tracking_module

DATA = Path(__file__).resolve().parent / "data" / "round0_replay.json"
# (n_tanks, horizon, variant, jacobian): the two perfbench closed loops
CASES = {
    "3x8-apcscp-frozen": (3, 8, "apcscp", "frozen"),
    "8x24-pcscp-exact": (8, 24, "pcscp", "exact"),
}
SAMPLES = 10
PLANT_SEED = 3


def _solves(name):
    """(status, iterations, x) of every subproblem solve of the closed loop."""
    n_tanks, horizon, variant, jacobian = CASES[name]
    cfg = CascadeConfig(n_tanks=n_tanks, horizon=horizon)
    steady = steady_state(cfg, 1.0)
    plant = ClosedLoopPlant(cfg, steady, 1.4 * steady[0], n_samples=SAMPLES, noise=0.01,
                            seed=PLANT_SEED)
    solves = []
    solve = tracking_module.solve_subproblem

    def spy(*args, **kwargs):
        sol = solve(*args, **kwargs)
        solves.append([sol.status.value, sol.iterations, [float(v) for v in sol.x]])
        return sol

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tracking_module, "solve_subproblem", spy)
        trace = track(cascade_problem(cfg, steady), plant, steady_start(cfg, steady),
                      TrackerConfig(variant=variant, jacobian=JacobianStrategy(jacobian)))
    assert not trace.aborted and len(trace.records) == SAMPLES + 1
    return solves


@pytest.mark.parametrize("name", sorted(CASES))
def test_round0_solves_replay_the_recorded_results(name):
    recorded = json.loads(DATA.read_text())[name]
    got = _solves(name)
    assert [s[:2] for s in got] == [r[:2] for r in recorded]
    for (_, _, x), (_, _, x_ref) in zip(got, recorded):
        x, x_ref = np.array(x), np.array(x_ref)
        assert np.linalg.norm(x - x_ref) <= 1e-9 * np.linalg.norm(x_ref)


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps({name: _solves(name) for name in CASES}) + "\n")
    sys.exit(0)
