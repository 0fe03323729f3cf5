"""Config parsing, validation and scenario construction."""

import numpy as np
import pytest

from scptrack.config import (
    build_problem,
    load_scenario,
    parse_config_text,
    scenario_from_pairs,
)
from scptrack.errors import ConfigError


def test_parse_assignments_comments_and_blanks():
    text = """
    # a comment line
    problem = tutorial

    xi.start = 1.2  # trailing comment
    name.with.dots = three part value
    """
    pairs = parse_config_text(text)
    assert pairs == {
        "problem": "tutorial",
        "xi.start": "1.2",
        "name.with.dots": "three part value",
    }


@pytest.mark.parametrize(
    "line",
    ["just words", "= value", "a = 1\na = 2"],
)
def test_parse_rejects_malformed(line):
    with pytest.raises(ConfigError):
        parse_config_text(line)


def _pairs(**over):
    base = {
        "problem": "tutorial",
        "variant": "pcscp",
        "xi.schedule": "linear",
        "xi.start": "1.2",
        "xi.step": "0.25",
        "xi.count": "10",
    }
    base.update(over)
    return {k: v for k, v in base.items() if v is not None}


def test_defaults():
    cfg = scenario_from_pairs(_pairs())
    assert cfg.seed == 42
    assert cfg.output == "trace.csv"
    assert not cfg.tracker.record_oracle_error
    assert cfg.start == "exact"
    assert cfg.tracker.variant == "pcscp"
    assert cfg.tracker.jacobian.kind == "exact"
    assert cfg.tracker.hessian.kind == "zero"
    assert len(cfg.schedule) == 10
    np.testing.assert_allclose(cfg.schedule[3], [1.95])


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown"):
        scenario_from_pairs(_pairs(typo="1"))


def test_strategy_fields_forwarded():
    cfg = scenario_from_pairs(
        _pairs(
            variant="apcscp",
            jacobian="broyden",
            **{
                "jacobian.reset": "5",
                "jacobian.skip": "1e-9",
                "hessian": "projected",
                "hessian.eig_floor": "0.01",
                "solver.tol": "1e-9",
                "solver.max_iter": "77",
                "retry": "true",
                "seed": "7",
            },
        )
    )
    assert cfg.tracker.jacobian.kind == "broyden"
    assert cfg.tracker.jacobian.reset_period == 5
    assert cfg.tracker.jacobian.skip_threshold == pytest.approx(1e-9)
    assert cfg.tracker.hessian.eig_floor == pytest.approx(0.01)
    assert cfg.tracker.solver_opts.tol == pytest.approx(1e-9)
    assert cfg.tracker.solver_opts.max_iter == 77
    assert cfg.tracker.retry_fresh_jacobian
    assert cfg.seed == 7


def test_variant_strategy_mismatch_is_config_error():
    with pytest.raises(ConfigError):
        scenario_from_pairs(_pairs(variant="pcscp", jacobian="frozen"))


def test_explicit_schedule_scalar_and_vector():
    cfg = scenario_from_pairs(
        _pairs(**{"xi.schedule": "explicit", "xi.values": "1.2; 1.45; 1.7",
                  "xi.start": None, "xi.step": None, "xi.count": None})
    )
    assert len(cfg.schedule) == 3
    np.testing.assert_allclose(cfg.schedule[1], [1.45])

    pairs = {
        "problem": "cascade",
        "variant": "apcscp",
        "cascade.n_tanks": "2",
        "xi.schedule": "explicit",
        "xi.values": "1.0 1.1; 0.9 1.0",
    }
    cfg = scenario_from_pairs(pairs)
    assert len(cfg.schedule) == 2
    np.testing.assert_allclose(cfg.schedule[0], [1.0, 1.1])


def test_schedule_validation():
    with pytest.raises(ConfigError):
        scenario_from_pairs(_pairs(**{"xi.count": "0"}))
    with pytest.raises(ConfigError):
        scenario_from_pairs(_pairs(**{"xi.start": None}))
    with pytest.raises(ConfigError):
        scenario_from_pairs(
            _pairs(**{"xi.schedule": "explicit", "xi.values": ";",
                      "xi.start": None, "xi.step": None, "xi.count": None})
        )
    # dimension must match the problem parameter
    with pytest.raises(ConfigError):
        scenario_from_pairs(_pairs(**{"xi.start": "1.2 3.4", "xi.step": "0 0"}))


def test_schedule_from_file(tmp_path):
    sched = tmp_path / "xi.txt"
    sched.write_text("# header comment\n1.2\n1.45\n\n1.7\n")
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "problem = tutorial\nvariant = pcscp\nxi.schedule = file\nxi.file = xi.txt\n"
    )
    cfg = load_scenario(cfg_file)
    assert len(cfg.schedule) == 3
    np.testing.assert_allclose(cfg.schedule[2], [1.7])


def test_cascade_fields_parsed():
    pairs = {
        "problem": "cascade",
        "variant": "apcscp",
        "jacobian": "frozen",
        "cascade.n_tanks": "2",
        "cascade.horizon": "4",
        "cascade.dt": "0.25",
        "cascade.u_hi": "3.0",
        "cascade.u_steady": "0.8",
        "xi.schedule": "explicit",
        "xi.values": "0.64 0.64",
    }
    cfg = scenario_from_pairs(pairs)
    assert cfg.cascade.n_tanks == 2
    assert cfg.cascade.horizon == 4
    assert cfg.cascade.dt == pytest.approx(0.25)
    assert cfg.u_steady == pytest.approx(0.8)


def test_cascade_keys_rejected_for_tutorial():
    with pytest.raises(ConfigError, match="unknown"):
        scenario_from_pairs(_pairs(**{"cascade.n_tanks": "2"}))


def test_bad_values_are_config_errors():
    with pytest.raises(ConfigError):
        scenario_from_pairs(_pairs(**{"xi.count": "ten"}))
    with pytest.raises(ConfigError):
        scenario_from_pairs(_pairs(oracle="maybe"))
    with pytest.raises(ConfigError):
        scenario_from_pairs(_pairs(variant="sqp"))
    with pytest.raises(ConfigError):
        scenario_from_pairs(_pairs(**{"fascp.eps": "-1"}))


def test_build_problem_start_policies():
    exact = build_problem(scenario_from_pairs(_pairs()))
    problem, z0 = exact
    # start point is the closed-form solution of the first sample
    from scptrack.problem import kkt_residual

    assert kkt_residual(problem, z0, 1.2).total <= 1e-8

    pert_cfg = scenario_from_pairs(_pairs(start="perturbed", **{"start.magnitude": "0.05"}))
    _, z1 = build_problem(pert_cfg)
    shift = np.max(np.abs(z1.x - z0.x))
    assert 0.0 < shift <= 0.05

    # same seed, same perturbation
    _, z2 = build_problem(pert_cfg)
    np.testing.assert_allclose(z1.x, z2.x)


def _error(pairs, base_dir="."):
    with pytest.raises(ConfigError) as info:
        scenario_from_pairs(pairs, base_dir)
    return str(info.value)


@pytest.mark.parametrize("over, message", [
    ({"solver.tol": "x"}, "solver.tol: not a number: 'x'"),
    ({"xi.start": "1 x"}, "xi.start: not a number list: '1 x'"),
    ({"xi.step": "0 0"}, "xi.step and xi.start disagree on dimension"),
    ({"xi.schedule": "explicit", "xi.start": None, "xi.step": None, "xi.count": None},
     "xi.values is required for an explicit schedule"),
    ({"xi.schedule": "explicit", "xi.values": "1.2; 1.3 1.4",
      "xi.start": None, "xi.step": None, "xi.count": None},
     "schedule samples disagree on dimension"),
    ({"variant": "fascp", "fascp.max_iter": "0"}, "fascp.max_iter must be >= 1"),
    ({"xi.schedule": "file", "xi.start": None, "xi.step": None, "xi.count": None},
     "xi.file is required for a file schedule"),
    # CascadeConfig's own rejections reach the scenario as config errors
    ({"problem": "cascade", "cascade.n_substeps": "0"}, "n_substeps must be at least 1"),
    ({"problem": "cascade", "cascade.terminal_radius_scale": "1.5"},
     "terminal_radius_scale must lie in (0, 1]"),
    ({"problem": "cascade", "cascade.surface": "1 0 1"}, "tank surfaces must be positive"),
    ({"problem": "cascade", "cascade.h_lo": "2", "cascade.h_hi": "2"}, "state box is empty"),
])
def test_config_error_messages(over, message):
    assert _error(_pairs(**over)) == message


def test_schedule_file_errors_name_the_file_or_the_line(tmp_path):
    over = {"xi.schedule": "file", "xi.start": None, "xi.step": None, "xi.count": None}
    message = _error(_pairs(**over, **{"xi.file": "absent.txt"}), str(tmp_path))
    assert message.startswith(f"xi.file: cannot read {tmp_path / 'absent.txt'}: ")
    (tmp_path / "xi.txt").write_text("# levels\n1.2\n\n1.3 zz\n")
    assert _error(_pairs(**over, **{"xi.file": "xi.txt"}), str(tmp_path)) == (
        "xi.file line 4: not a number list")


def test_jacobian_step_and_cascade_weights_forwarded():
    cfg = scenario_from_pairs(_pairs(jacobian="fd", **{"jacobian.step": "1e-6"}))
    assert cfg.tracker.jacobian.fd_step == 1e-6
    pairs = {
        "problem": "cascade",
        "variant": "apcscp",
        "cascade.n_tanks": "2",
        "cascade.state_weight": "0.5 0.25",
        "cascade.control_weight": "3",
        "cascade.h_hi": "4",
        "cascade.outflow_coeff": "1.0 1.1",
        "xi.schedule": "explicit",
        "xi.values": "1.0 1.0",
    }
    cascade = scenario_from_pairs(pairs).cascade
    np.testing.assert_array_equal(cascade.state_weight, [0.5, 0.25])
    np.testing.assert_array_equal(cascade.control_weight, [3.0])
    # one value broadcasts to every tank, a list sets them one by one
    np.testing.assert_array_equal(cascade.h_hi, [4.0, 4.0])
    np.testing.assert_array_equal(cascade.outflow_coeff, [1.0, 1.1])
