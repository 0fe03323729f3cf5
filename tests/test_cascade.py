"""Tank cascade benchmark: dynamics, terminal set, problem assembly."""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import solve_discrete_are

from scptrack import JacobianStrategy, TrackerConfig, track
from scptrack import cascade as cascade_module
from scptrack.cascade import (
    CascadeConfig,
    CascadeDynamics,
    ClosedLoopPlant,
    _solve_dare,
    cascade_problem,
    cascade_weights,
    control_slice,
    rk4_step,
    rk4_step_with_tangents,
    state_slice,
    steady_primal,
    steady_start,
    steady_state,
    terminal_ellipsoid,
)
from scptrack.errors import ConfigError, DimensionError, ModelError, UsageError
from scptrack.jacobians import finite_difference_jacobian
from scptrack.problem import kkt_residual


def _default():
    cfg = CascadeConfig()
    return cfg, steady_state(cfg, 1.0)


def test_config_validation_and_broadcast():
    with pytest.raises(ConfigError):
        CascadeConfig(n_tanks=0)
    with pytest.raises(ConfigError):
        CascadeConfig(horizon=0)
    with pytest.raises(ConfigError):
        CascadeConfig(dt=0.0)
    with pytest.raises(ConfigError):
        CascadeConfig(u_lo=2.0, u_hi=1.0)
    with pytest.raises(ConfigError):
        CascadeConfig(outflow_coeff=-1.0)
    cfg = CascadeConfig(n_tanks=3, outflow_coeff=[1.0, 2.0, 3.0])
    np.testing.assert_allclose(cfg.outflow_coeff, [1.0, 2.0, 3.0])
    np.testing.assert_allclose(CascadeConfig(n_tanks=2).surface, [1.0, 1.0])


def test_layout_slices():
    cfg = CascadeConfig(n_tanks=3, horizon=8)
    assert cfg.n_w == 3
    assert cfg.n_x == 8 * 4 + 3
    assert cfg.n_eq == 9 * 3
    assert state_slice(cfg, 0) == slice(0, 3)
    assert control_slice(cfg, 0) == slice(3, 4)
    assert state_slice(cfg, 1) == slice(4, 7)
    assert state_slice(cfg, 8) == slice(32, 35)
    for layout, i in ((state_slice, -1), (state_slice, 9), (control_slice, -1), (control_slice, 8)):
        with pytest.raises(UsageError, match=f"index {i} outside horizon 8"):
            layout(cfg, i)


def test_steady_state_zeroes_dynamics():
    cfg, steady = _default()
    w_s, u_s = steady
    dyn = CascadeDynamics(cfg.outflow_coeff, cfg.surface)
    assert np.max(np.abs(dyn.rhs(w_s, u_s))) <= 1e-14
    with pytest.raises(ConfigError):
        steady_state(cfg, 0.0)


def test_rk4_against_adaptive_integrator():
    cfg, steady = _default()
    dyn = CascadeDynamics(cfg.outflow_coeff, cfg.surface)
    w0 = np.array([1.3, 0.8, 1.1])
    u = np.array([1.2])
    got = rk4_step(dyn, w0, u, cfg.dt, cfg.n_substeps)
    ref = solve_ivp(
        lambda t, w: dyn.rhs(w, u),
        (0.0, cfg.dt),
        w0,
        rtol=1e-12,
        atol=1e-12,
        dense_output=False,
    )
    np.testing.assert_allclose(got, ref.y[:, -1], atol=1e-8)


def test_rk4_tangents_match_finite_differences():
    cfg, steady = _default()
    dyn = CascadeDynamics(cfg.outflow_coeff, cfg.surface)
    w0 = np.array([1.3, 0.8, 1.1])
    u = np.array([1.2])
    w1, A, B = rk4_step_with_tangents(dyn, w0, u, cfg.dt, cfg.n_substeps)
    np.testing.assert_allclose(w1, rk4_step(dyn, w0, u, cfg.dt, cfg.n_substeps))

    A_fd = finite_difference_jacobian(
        lambda w: rk4_step(dyn, w, u, cfg.dt, cfg.n_substeps), w0, 3, 1e-7
    )
    B_fd = finite_difference_jacobian(
        lambda v: rk4_step(dyn, w0, v, cfg.dt, cfg.n_substeps), u, 3, 1e-7
    )
    assert np.max(np.abs(A - A_fd)) <= 1e-6
    assert np.max(np.abs(B - B_fd)) <= 1e-6


def test_weights_recipe():
    cfg, steady = _default()
    P, Q = cascade_weights(cfg, steady)
    np.testing.assert_allclose(np.diag(P), 0.01 / (steady[0] ** 2 + 1.0))
    np.testing.assert_allclose(np.diag(Q), [4.0 / ((cfg.u_lo + cfg.u_hi) ** 2 + 1.0)])
    with pytest.raises(ConfigError):
        cascade_weights(CascadeConfig(state_weight=[0.0, 1.0, 1.0]), steady)


def test_terminal_matrix_solves_riccati():
    cfg, steady = _default()
    w_s, u_s = steady
    dyn = CascadeDynamics(cfg.outflow_coeff, cfg.surface)
    _, A, B = rk4_step_with_tangents(dyn, w_s, u_s, cfg.dt, cfg.n_substeps)
    P, Q = cascade_weights(cfg, steady)
    S, r = terminal_ellipsoid(cfg, steady)
    ref = solve_discrete_are(A, B, P, Q)
    assert np.max(np.abs(S - ref)) <= 1e-9 * max(1.0, np.max(np.abs(ref)))
    assert r > 0.0
    # apart from scipy: S meets S = P + A'SA - A'SBK with the gain
    # K = (Q + B'SB)^-1 B'SA, and u = -K dw stabilizes the linearization
    S_dare, K = _solve_dare(A, B, P, Q)
    np.testing.assert_array_equal(S_dare, S)
    bound = 1e-9 * max(1.0, np.max(np.abs(S)))
    assert np.max(np.abs(P + A.T @ S @ A - A.T @ S @ B @ K - S)) <= bound
    assert np.max(np.abs((Q + B.T @ S @ B) @ K - B.T @ S @ A)) <= bound
    assert np.max(np.abs(np.linalg.eigvals(A - B @ K))) < 1.0
    # an unstable mode that the control cannot reach has no stabilizing S
    with pytest.raises(ModelError):
        _solve_dare(np.array([[2.0]]), np.array([[0.0]]), np.eye(1), np.eye(1))


def test_terminal_set_invariance_by_simulation():
    # boundary states driven by the Riccati feedback stay in the set
    cfg, steady = _default()
    w_s, u_s = steady
    dyn = CascadeDynamics(cfg.outflow_coeff, cfg.surface)
    _, A, B = rk4_step_with_tangents(dyn, w_s, u_s, cfg.dt, cfg.n_substeps)
    P, Q = cascade_weights(cfg, steady)
    S, r = terminal_ellipsoid(cfg, steady)
    S_ref = solve_discrete_are(A, B, P, Q)
    K = np.linalg.solve(Q + B.T @ S_ref @ B, B.T @ S_ref @ A)

    lam, U = np.linalg.eigh(S)
    rng = np.random.default_rng(2024)
    raw = rng.standard_normal((200, cfg.n_tanks))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    dw = math.sqrt(r) * raw @ (U / np.sqrt(lam)) @ U.T
    level = np.einsum("ij,jk,ik->i", dw, S, dw)
    np.testing.assert_allclose(level, r, rtol=1e-9)

    ctrl = u_s[None, :] - dw @ K.T
    assert np.all(ctrl >= cfg.u_lo - 1e-9)
    assert np.all(ctrl <= cfg.u_hi + 1e-9)
    w_next = rk4_step(dyn, w_s[None, :] + dw, ctrl, cfg.dt, cfg.n_substeps)
    dv = w_next - w_s[None, :]
    next_level = np.einsum("ij,jk,ik->i", dv, S, dv)
    assert np.max(next_level) <= r * (1.0 + 1e-9)


def test_single_tank_terminal_set():
    # scalar plant: same construction, invariance checked by simulation
    cfg = CascadeConfig(n_tanks=1, horizon=4)
    steady = steady_state(cfg, 1.0)
    S, r = terminal_ellipsoid(cfg, steady)
    assert S.shape == (1, 1) and S[0, 0] > 0.0
    assert r > 0.0

    w_s, u_s = steady
    dyn = CascadeDynamics(cfg.outflow_coeff, cfg.surface)
    _, A, B = rk4_step_with_tangents(dyn, w_s, u_s, cfg.dt, cfg.n_substeps)
    P, Q = cascade_weights(cfg, steady)
    K = np.linalg.solve(Q + B.T @ S @ B, B.T @ S @ A)
    for sign in (-1.0, 1.0):
        dw = np.array([sign * math.sqrt(r / S[0, 0])])
        u = np.clip(u_s - K @ dw, cfg.u_lo, cfg.u_hi)
        w_next = rk4_step(dyn, w_s + dw, u, cfg.dt, cfg.n_substeps)
        assert (w_next - w_s) @ S @ (w_next - w_s) <= r * (1.0 + 1e-9)


def test_problem_dimensions_and_steady_kkt():
    cfg, steady = _default()
    problem = cascade_problem(cfg, steady)
    # one slack coordinate for the quadratic objective
    assert problem.n == cfg.n_x + 1
    assert problem.m == cfg.n_eq
    assert problem.p == cfg.n_w
    np.testing.assert_allclose(problem.M[: cfg.n_w], -np.eye(3))
    assert not problem.M[cfg.n_w :].any()

    z0 = steady_start(cfg, steady)
    assert kkt_residual(problem, z0, steady[0]).total <= 1e-10


def test_problem_rejects_inconsistent_steady():
    cfg, steady = _default()
    with pytest.raises(UsageError):
        cascade_problem(cfg, (steady[0] + 0.5, steady[1]))


def _nonuniform():
    cfg = CascadeConfig(
        n_tanks=8,
        horizon=24,
        outflow_coeff=np.linspace(0.8, 1.3, 8),
        surface=np.linspace(1.5, 0.7, 8),
    )
    return cfg, steady_state(cfg, 1.0)


@pytest.mark.parametrize("case", ["default", "nonuniform-8x24", "below-floor"])
def test_problem_jacobian_and_adjoint_consistency(case):
    cfg, steady = _nonuniform() if case == "nonuniform-8x24" else _default()
    problem = cascade_problem(cfg, steady)
    rng = np.random.default_rng(91)
    x = steady_primal(cfg, steady) + rng.normal(size=problem.n) * 0.05
    if case == "below-floor":
        # an empty tank: its outflow partial is zero at the first stage,
        # and the forward difference step stays under the floor as well
        x[state_slice(cfg, 2).start + 1] = 0.0
    jac = problem.g_jac(x)
    fd = finite_difference_jacobian(problem.g, x, problem.m, 1e-7)
    assert np.max(np.abs(jac - fd)) <= 1e-6
    for _ in range(5):
        y = rng.normal(size=problem.m)
        np.testing.assert_allclose(problem.g_adjoint(x, y), jac.T @ y, atol=1e-12)


def test_batched_tangents_equal_stacked_intervals():
    cfg, _ = _nonuniform()
    dyn = CascadeDynamics(cfg.outflow_coeff, cfg.surface)
    rng = np.random.default_rng(17)
    s = rng.uniform(0.0, 2.0, size=(5, cfg.n_tanks))
    s[2, 3] = 0.0  # one tank under the smoothing floor
    u = rng.uniform(0.0, 3.0, size=(5, 1))
    w, A, B = rk4_step_with_tangents(dyn, s, u, cfg.dt, cfg.n_substeps)
    assert w.shape == (5, 8) and A.shape == (5, 8, 8) and B.shape == (5, 8, 1)
    for i in range(5):
        w_i, A_i, B_i = rk4_step_with_tangents(dyn, s[i], u[i], cfg.dt, cfg.n_substeps)
        np.testing.assert_array_equal(w[i], w_i)
        np.testing.assert_array_equal(A[i], A_i)
        np.testing.assert_array_equal(B[i], B_i)


def _count_passes(monkeypatch):
    """The list that gets one entry per forward pass (``_rk4_stages``) from now on."""
    passes = []
    stages = cascade_module._rk4_stages

    def counted(*args):
        passes.append(None)
        return stages(*args)

    monkeypatch.setattr(cascade_module, "_rk4_stages", counted)
    return passes


def test_one_point_is_integrated_once_for_g_its_jacobian_and_its_adjoint(monkeypatch):
    # in any order, and whatever point came before, g, g_jac and g_adjoint at
    # x share one forward pass and return the same bytes as each alone
    cfg, steady = _default()
    problem = cascade_problem(cfg, steady)
    rng = np.random.default_rng(37)
    x = steady_primal(cfg, steady) + rng.normal(size=problem.n) * 0.05
    y = rng.normal(size=problem.m)
    other = steady_primal(cfg, steady)
    evals = {"g": lambda: problem.g(x), "g_jac": lambda: problem.g_jac(x),
             "g_adjoint": lambda: problem.g_adjoint(x, y)}
    want = {}
    for name, evaluate in evals.items():
        problem.g(other)
        want[name] = evaluate().tobytes()
    passes = _count_passes(monkeypatch)
    for order in itertools.permutations(evals):
        problem.g(other)
        del passes[:]
        assert [evals[name]().tobytes() for name in order] == [want[name] for name in order]
        assert len(passes) == 1
    # a point that differs in any one node or control coordinate, or only in
    # the sign of a zero, is integrated afresh; the objective slack is not read
    for i in range(cfg.n_x):
        near = np.array(x)
        near[i] = np.nextafter(x[i], np.inf)
        problem.g(x)
        del passes[:]
        problem.g_jac(near)
        assert len(passes) == 1, i
    zero, signed = np.array(x), np.array(x)
    zero[control_slice(cfg, 3)] = 0.0
    signed[control_slice(cfg, 3)] = -0.0
    del passes[:]
    for point in (zero, signed, zero):
        problem.g_adjoint(point, y)
    assert len(passes) == 3
    slack = np.array(x)
    slack[-1] += 1.0
    assert problem.g(slack).tobytes() == problem.g(x).tobytes()
    assert len(passes) == 4


@pytest.mark.parametrize("variant, jacobian, size", [("apcscp", "frozen", (3, 8)),
                                                     ("pcscp", "exact", (8, 24))])
def test_a_track_integrates_each_point_once(monkeypatch, variant, jacobian, size):
    # the frozen loop evaluates g, the adjoint and the record's g_jac at each
    # new iterate, the exact loop g and g_jac: one forward pass per iterate
    cfg = CascadeConfig(n_tanks=size[0], horizon=size[1])
    steady = steady_state(cfg, 1.0)
    problem = cascade_problem(cfg, steady)
    points = []

    def logged(fn):
        def wrapped(x, *rest):
            points.append(x[: cfg.n_x].tobytes())
            return fn(x, *rest)
        return wrapped

    problem = dataclasses.replace(problem, g=logged(problem.g), g_jac=logged(problem.g_jac),
                                  g_adjoint=logged(problem.g_adjoint))
    passes = _count_passes(monkeypatch)
    schedule = [steady[0] * (1.0 + 0.02 * k) for k in range(6)]
    config = TrackerConfig(variant=variant, jacobian=JacobianStrategy(jacobian))
    trace = track(problem, schedule, steady_start(cfg, steady), config)
    assert not trace.aborted and len(trace.records) == 1 + len(schedule)
    # the start and one iterate per sample
    assert len(passes) == len(set(points)) == 1 + len(schedule)


def test_problem_has_first_order_model_only():
    # tracking the cascade runs with zero curvature; the reference solver
    # falls back accordingly
    cfg, steady = _default()
    problem = cascade_problem(cfg, steady)
    assert problem.lagrangian_hessian is None
    assert problem.g_jac is not None


def test_equality_rows_encode_shooting():
    cfg, steady = _default()
    problem = cascade_problem(cfg, steady)
    rng = np.random.default_rng(93)
    x = steady_primal(cfg, steady) + rng.normal(size=problem.n) * 0.05
    g = problem.g(x)
    dyn = CascadeDynamics(cfg.outflow_coeff, cfg.surface)
    np.testing.assert_allclose(g[: cfg.n_w], x[state_slice(cfg, 0)])
    for i in range(cfg.horizon):
        s_i = x[state_slice(cfg, i)]
        u_i = x[control_slice(cfg, i)]
        s_next = x[state_slice(cfg, i + 1)]
        want = rk4_step(dyn, s_i, u_i, cfg.dt, cfg.n_substeps) - s_next
        np.testing.assert_allclose(g[(i + 1) * cfg.n_w : (i + 2) * cfg.n_w], want)


def test_region_boxes_and_terminal_member():
    cfg, steady = _default()
    problem = cascade_problem(cfg, steady)
    region = problem.region
    # controls boxed on every interval, states on 0..H-1, terminal free
    for i in range(cfg.horizon):
        sl = control_slice(cfg, i)
        np.testing.assert_allclose(region.lower[sl], cfg.u_lo)
        np.testing.assert_allclose(region.upper[sl], cfg.u_hi)
        np.testing.assert_allclose(region.lower[state_slice(cfg, i)], cfg.h_lo)
    term = state_slice(cfg, cfg.horizon)
    assert np.all(np.isinf(region.lower[term]))
    assert np.all(np.isinf(region.upper[term]))
    assert len(region.ellipsoids) == 1
    S, r = terminal_ellipsoid(cfg, steady)
    member = region.ellipsoids[0]
    assert member.radius == pytest.approx(r)
    np.testing.assert_allclose(member.center[term], steady[0])


def test_closed_loop_plant_contract():
    cfg, steady = _default()
    w0 = steady[0] * 1.1
    z0 = steady_start(cfg, steady)

    plant = ClosedLoopPlant(cfg, steady, w0, n_samples=3, noise=0.02, seed=5)
    twin = ClosedLoopPlant(cfg, steady, w0, n_samples=3, noise=0.02, seed=5)
    np.testing.assert_allclose(plant(z0, 0), w0)
    np.testing.assert_allclose(twin(z0, 0), w0)
    a1, a2 = plant(z0, 1), twin(z0, 1)
    np.testing.assert_allclose(a1, a2)
    plant(z0, 2)
    assert plant(z0, 3) is None
    assert len(plant.history) == 3

    # noiseless plant follows the integrator exactly
    quiet = ClosedLoopPlant(cfg, steady, w0, n_samples=2, noise=0.0, seed=5)
    quiet(z0, 0)
    stepped = quiet(z0, 1)
    dyn = CascadeDynamics(cfg.outflow_coeff, cfg.surface)
    u0 = np.clip(z0.x[control_slice(cfg, 0)], cfg.u_lo, cfg.u_hi)
    np.testing.assert_allclose(stepped, rk4_step(dyn, w0, u0, cfg.dt, cfg.n_substeps))

    with pytest.raises(DimensionError):
        ClosedLoopPlant(cfg, steady, np.ones(2), n_samples=2)
