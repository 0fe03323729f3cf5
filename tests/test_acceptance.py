"""Top-level behavioral guarantees, one verdict line per criterion.

Each test prints a single pass/fail line with its key margins before
asserting, so a full run reads as a ten-line report.  Numeric caps are
frozen from measured margins; see the test bodies for the exact bounds.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import feasible_samples, random_subproblem
from scptrack.cascade import (
    CascadeConfig,
    ClosedLoopPlant,
    cascade_problem,
    cascade_weights,
    control_slice,
    state_slice,
    steady_start,
    steady_state,
    terminal_ellipsoid,
)
from scptrack.cli import main
from scptrack.ipm import solve_subproblem
from scptrack.jacobians import (
    HessianStrategy,
    JacobianStrategy,
    adjoint_product,
    correction_vector,
    finite_difference_jacobian,
    init_state,
    update_hessian,
    update_jacobian,
)
from scptrack.problem import ParametricNLP, PrimalDual, kkt_residual
from scptrack.region import ConvexRegion, SecondOrderCone, region_violation
from scptrack.subproblem import SolveStatus, SolverOptions
from scptrack.tracking import (
    TrackerConfig,
    apcscp_step,
    fascp_solve,
    oracle_solution,
    pcscp_step,
    rtgn_step,
    track,
)
from scptrack.tutorial import tutorial_problem, tutorial_solution


def _verdict(num, name, ok, detail):
    print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num:02d} {name}: {detail}"


def _sweep(count=10, step=0.25):
    return [np.array([1.2 + k * step]) for k in range(count)]


def _dense_problem(second_order=False):
    # dense nonlinearity so model errors are visible in every direction
    def g(x):
        return np.array(
            [x[0] ** 2 + np.sin(x[1]) + x[2], x[0] * x[1] - np.exp(0.3 * x[2])]
        )

    def jac(x):
        return np.array(
            [
                [2.0 * x[0], np.cos(x[1]), 1.0],
                [x[1], x[0], -0.3 * np.exp(0.3 * x[2])],
            ]
        )

    def lh(x, y):
        h1 = np.diag([2.0, -np.sin(x[1]), 0.0])
        h2 = np.array(
            [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, -0.09 * np.exp(0.3 * x[2])]]
        )
        return y[0] * h1 + y[1] * h2

    return ParametricNLP(
        c=[1.0, 0.0, 0.0],
        g=g,
        g_adjoint=lambda x, y: jac(x).T @ y,
        M=-np.eye(2),
        region=ConvexRegion.unbounded(3),
        g_jac=jac,
        lagrangian_hessian=lh if second_order else None,
    )


@pytest.fixture(scope="module")
def cascade():
    cfg = CascadeConfig()
    steady = steady_state(cfg, 1.0)
    return cfg, steady, cascade_problem(cfg, steady)


def _gauss_newton_curvature(cfg, steady, problem):
    # quadratic tracking weights per shooting node, none on the slack
    P, Q = cascade_weights(cfg, steady)
    H = np.zeros((problem.n, problem.n))
    for i in range(cfg.horizon):
        H[state_slice(cfg, i), state_slice(cfg, i)] = P
        H[control_slice(cfg, i), control_slice(cfg, i)] = Q
    H[state_slice(cfg, cfg.horizon), state_slice(cfg, cfg.horizon)] = P
    return HessianStrategy("fixed", matrix=H)


def test_criterion_01_closed_form_kkt_certificate():
    t0 = time.perf_counter()
    problem = tutorial_problem()
    worst = 0.0
    for xi in np.arange(10) * 0.25 + 1.2:
        z, _ = tutorial_solution(float(xi))
        worst = max(worst, kkt_residual(problem, z, float(xi)).total)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 1.0
    _verdict(1, "closed-form points certify as KKT", ok,
             f"worst residual {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_feasibility_preservation():
    t0 = time.perf_counter()
    problem = tutorial_problem()
    z0, _ = tutorial_solution(1.2)
    violations = {}
    for variant, jac in (("pcscp", "exact"), ("apcscp", "frozen"), ("rtgn", "exact")):
        cfg = TrackerConfig(variant=variant, jacobian=JacobianStrategy(jac))
        trace = track(problem, _sweep(), z0, cfg)
        assert not trace.aborted
        violations[variant] = max(
            float(np.hypot(r.x[0], 1.0) - r.x[1]) for r in trace.records
        )
    elapsed = time.perf_counter() - t0
    ok = (
        violations["pcscp"] <= 1e-6
        and violations["apcscp"] <= 1e-6
        and violations["rtgn"] > 1e-4
        and elapsed < 5.0
    )
    _verdict(2, "one-solve steps keep the cone, tangent baseline leaves it", ok,
             f"pcscp {violations['pcscp']:.1e}, apcscp {violations['apcscp']:.1e}, "
             f"rtgn {violations['rtgn']:.1e}, {elapsed:.2f}s")


def test_criterion_03_bounded_tracking_error():
    problem = tutorial_problem()
    z0, _ = tutorial_solution(1.2)
    details = []
    ok = True
    for variant, jac in (("pcscp", "exact"), ("apcscp", "frozen")):
        cfg = TrackerConfig(
            variant=variant, jacobian=JacobianStrategy(jac), record_oracle_error=True
        )
        trace = track(problem, _sweep(), z0, cfg)
        errors = [r.oracle_error for r in trace.records]
        first = next(e for e in errors if e > 1e-6)
        peak = max(errors)
        ok = ok and peak <= 0.5 and peak <= 5.0 * first
        details.append(f"{variant} peak {peak:.3f} / first {first:.3f}")
    _verdict(3, "tracking error stays bounded", ok, ", ".join(details))


def test_criterion_04_halved_step_shrinks_error():
    t0 = time.perf_counter()
    problem = tutorial_problem()
    z0, _ = tutorial_solution(1.2)
    cfg = TrackerConfig(
        variant="pcscp", jacobian=JacobianStrategy("exact"), record_oracle_error=True
    )
    # both schedules cover the same parameter interval
    coarse = track(problem, _sweep(10, 0.25), z0, cfg)
    fine = track(problem, _sweep(19, 0.125), z0, cfg)
    peak_c = max(r.oracle_error for r in coarse.records)
    peak_f = max(r.oracle_error for r in fine.records)
    elapsed = time.perf_counter() - t0
    ok = peak_f < peak_c and elapsed < 10.0
    _verdict(4, "halving the parameter step reduces peak error", ok,
             f"0.25 -> {peak_c:.4f}, 0.125 -> {peak_f:.4f}, {elapsed:.2f}s")


def test_criterion_05_full_step_linear_convergence():
    problem = tutorial_problem()
    z0, _ = tutorial_solution(1.2)
    rng = np.random.default_rng(12)
    d = rng.standard_normal(2)
    zp = PrimalDual(z0.x + 0.1 * d / np.linalg.norm(d), z0.y)

    z_hat, trace = fascp_solve(problem, 1.2, zp, TrackerConfig(), eps=1e-10, max_iter=30)
    errors = [
        float(np.linalg.norm(np.concatenate([r.z.x - z_hat.x, r.z.y - z_hat.y])))
        for r in trace.records[:-1]
    ]
    # fewer than five iterations before landing: fit over what exists
    tail = np.log(np.maximum(errors[-5:], 1e-16))
    slope = float(np.polyfit(np.arange(tail.size), tail, 1)[0]) if tail.size > 1 else -np.inf

    frozen = TrackerConfig(jacobian=JacobianStrategy("frozen"))
    z_fr, tr_fr = fascp_solve(problem, 1.2, zp, frozen, eps=1e-10, max_iter=30)
    gap = float(np.linalg.norm(np.concatenate([z_fr.x - z_hat.x, z_fr.y - z_hat.y])))

    ok = (
        trace.converged
        and len(trace) <= 30
        and trace.final_kkt.total <= 1e-8
        and slope <= np.log(0.95)
        and tr_fr.converged
        and gap <= 1e-6
    )
    _verdict(5, "fixed-parameter solve contracts, inexact model lands on same point",
             ok,
             f"{len(trace)} iters, kkt {trace.final_kkt.total:.1e}, slope {slope:.2f}, "
             f"frozen gap {gap:.1e}")


def test_criterion_06_fixed_point_invariance(cascade):
    tol = 1e-8
    cfg, steady, cas_problem = cascade
    cases = [
        ("tutorial", tutorial_problem(), np.array([1.45]),
         tutorial_solution(1.45)[0], HessianStrategy("zero")),
        ("cascade", cas_problem, steady[0], steady_start(cfg, steady),
         _gauss_newton_curvature(cfg, steady, cas_problem)),
    ]
    rng = np.random.default_rng(63)
    worst = 0.0
    for name, problem, xi, z_star, hess in cases:
        for step_fn, variant, jac in (
            (apcscp_step, "apcscp", "exact"),
            (apcscp_step, "apcscp", "frozen"),
            (pcscp_step, "pcscp", "exact"),
            (rtgn_step, "rtgn", "exact"),
        ):
            config = TrackerConfig(
                variant=variant, jacobian=JacobianStrategy(jac), hessian=hess,
                solver_opts=SolverOptions(tol=tol),
            )
            state = init_state(problem, z_star, config.jacobian, config.hessian, None)
            new = step_fn(state, problem, xi, config)
            worst = max(worst, float(np.linalg.norm(new.z.x - state.z.x)))

        # a wrong frozen model is absorbed by the correction vector
        config = TrackerConfig(
            variant="apcscp", jacobian=JacobianStrategy("frozen"), hessian=hess,
            solver_opts=SolverOptions(tol=tol),
        )
        state = init_state(problem, z_star, config.jacobian, config.hessian, None)
        wrong = state.A + 0.3 * rng.standard_normal(state.A.shape)
        state = replace(
            state, A=wrong,
            m_corr=correction_vector(problem, state.z.x, state.z.y, wrong),
        )
        new = apcscp_step(state, problem, xi, config)
        worst = max(worst, float(np.linalg.norm(new.z.x - state.z.x)))
    ok = worst <= 10.0 * tol
    _verdict(6, "exact KKT points are step invariants", ok,
             f"worst drift {worst:.1e} vs cap {10.0 * tol:.0e}")


def test_criterion_07_adjoint_secant_curvature_identities(cascade):
    cfg, steady, cas_problem = cascade
    rng = np.random.default_rng(71)

    # adjoint products against differenced Jacobian transposes, 100 draws
    worst_adj = 0.0
    plans = [(_dense_problem(), 40), (tutorial_problem(), 30), (cas_problem, 30)]
    for problem, count in plans:
        base = np.abs(rng.normal(size=problem.n)) + 0.5
        for _ in range(count):
            x = base + rng.normal(size=problem.n) * 0.05
            y = rng.normal(size=problem.m)
            fd = finite_difference_jacobian(problem.g, x, problem.m, 1e-7)
            want = fd.T @ y
            got = adjoint_product(problem, x, y)
            rel = np.linalg.norm(got - want) / max(1.0, np.linalg.norm(want))
            worst_adj = max(worst_adj, float(rel))

    # every accepted secant update reproduces the sampled difference
    problem = _dense_problem()
    strategy = JacobianStrategy("broyden")
    x = rng.normal(size=3)
    A = problem.g_jac(x)
    worst_sec, updates = 0.0, 0
    for k in range(1, 101):
        x_new = x + rng.normal(size=3) * 0.1
        g_old, g_new = problem.g(x), problem.g(x_new)
        A_next = update_jacobian(strategy, problem, A, x, x_new, g_old, g_new, k)
        if A_next is not A:
            s, dg = x_new - x, g_new - g_old
            rel = np.linalg.norm(A_next @ s - dg) / max(1.0, np.linalg.norm(dg))
            worst_sec = max(worst_sec, float(rel))
            updates += 1
        A, x = A_next, x_new

    # projected curvature is symmetric PSD whatever the multiplier sign
    min_eig = np.inf
    plans = [(_dense_problem(second_order=True), 60), (tutorial_problem(), 40)]
    for problem, count in plans:
        for _ in range(count):
            x = rng.normal(size=problem.n)
            y = rng.normal(size=problem.m)
            H = update_hessian(HessianStrategy("projected"), problem, x, y)
            np.testing.assert_allclose(H, H.T, atol=1e-14)
            min_eig = min(min_eig, float(np.linalg.eigvalsh(H)[0]))

    ok = worst_adj <= 1e-6 and worst_sec <= 1e-12 and updates == 100 and min_eig >= -1e-12
    _verdict(7, "adjoint, secant and curvature identities hold", ok,
             f"adjoint {worst_adj:.1e}, secant {worst_sec:.1e} over {updates} updates, "
             f"min eig {min_eig:.1e}")


def test_criterion_08_subproblem_solver_correctness():
    rng = np.random.default_rng(83)
    worst_kkt, worst_gap = 0.0, -np.inf
    for kind in ("box", "affine", "cone", "ellipsoid"):
        for _ in range(50):
            sp = random_subproblem(kind, rng)
            sol = solve_subproblem(sp)
            assert sol.status is SolveStatus.OPTIMAL, f"{kind} not solved"
            worst_kkt = max(worst_kkt, sol.residuals.total)
            assert region_violation(sp.region, sol.x) <= 1e-7
            obj = sp.objective(sol.x)
            scale = 1.0 + abs(obj)
            for w in feasible_samples(sp, rng):
                worst_gap = max(worst_gap, (obj - sp.objective(w)) / scale)

    # deliberately inconsistent and unbounded constructions
    opts = SolverOptions(tikhonov_retry=False)
    box = ConvexRegion(lower=[0.0, 0.0], upper=[1.0, 1.0])
    shifted = random_subproblem("box", rng)
    shifted = replace(
        shifted, region=box, c=np.array([1.0, 0.0]),
        H=np.zeros((2, 2)), m_corr=np.zeros(2), x_ref=np.zeros(2),
        A_eq=np.array([[1.0, 0.0]]), b_eq=np.array([-5.0]),
    )
    infeasible_box = solve_subproblem(shifted, opts).status
    ball = ConvexRegion(
        lower=[-np.inf, -np.inf], upper=[np.inf, np.inf],
        cones=(SecondOrderCone(D=np.eye(2), d=np.zeros(2), e=np.zeros(2), f=1.0),),
    )
    outside = replace(
        shifted, region=ball, A_eq=np.array([[1.0, 0.0]]), b_eq=np.array([-3.0])
    )
    infeasible_cone = solve_subproblem(outside, opts).status
    free = replace(
        shifted, region=ConvexRegion(lower=[0.0, -np.inf], upper=[1.0, np.inf]),
        c=np.array([0.0, 1.0]), A_eq=np.zeros((0, 2)), b_eq=np.zeros(0),
    )
    unbounded = solve_subproblem(free, opts).status

    ok = (
        worst_kkt <= 1e-7
        and worst_gap <= 1e-5
        and infeasible_box is SolveStatus.INFEASIBLE
        and infeasible_cone is SolveStatus.INFEASIBLE
        and unbounded is SolveStatus.UNBOUNDED
    )
    _verdict(8, "random subproblems solved and edge cases classified", ok,
             f"worst kkt {worst_kkt:.1e}, worst objective gap {worst_gap:.1e}, "
             f"statuses {infeasible_box.value}/{infeasible_cone.value}/{unbounded.value}")


def test_criterion_09_closed_loop_cascade():
    t0 = time.perf_counter()
    cfg = CascadeConfig()
    steady = steady_state(cfg, 1.0)
    problem = cascade_problem(cfg, steady)
    z0 = steady_start(cfg, steady)
    w_s, _ = steady
    S, r = terminal_ellipsoid(cfg, steady)
    term = state_slice(cfg, cfg.horizon)
    samples, noise, seed = 30, 0.02, 97
    w0 = 1.4 * w_s

    def run(variant, jac):
        plant = ClosedLoopPlant(cfg, steady, w0, n_samples=samples, noise=noise, seed=seed)
        trace = track(
            problem, plant, z0,
            TrackerConfig(variant=variant, jacobian=JacobianStrategy(jac)),
        )
        assert not trace.aborted, trace.message
        worst_term = max(
            float((rec.x[term] - w_s) @ S @ (rec.x[term] - w_s)) - r
            for rec in trace.records
        )
        return plant, trace, worst_term

    plant_pc, trace_pc, term_pc = run("pcscp", "exact")
    plant_ap, trace_ap, term_ap = run("apcscp", "frozen")

    # reference loop: fully converged solve per sample, same disturbances
    plant_or = ClosedLoopPlant(cfg, steady, w0, n_samples=samples, noise=noise, seed=seed)
    z, k = z0, 0
    xi = plant_or(z, 0)
    while xi is not None:
        z = oracle_solution(problem, xi, z)
        k += 1
        xi = plant_or(z, k)

    initial = float(np.linalg.norm(w0 - w_s))
    final_pc = float(np.linalg.norm(plant_pc.history[-1] - w_s))
    final_ap = float(np.linalg.norm(plant_ap.history[-1] - w_s))
    d_oracle = float(np.linalg.norm(plant_pc.history[-1] - plant_or.history[-1]))
    d_variants = float(np.linalg.norm(plant_ap.history[-1] - plant_pc.history[-1]))
    elapsed = time.perf_counter() - t0

    ok = (
        final_pc < 0.1 * initial
        and final_ap < 0.1 * initial
        and term_pc <= 1e-8
        and term_ap <= 1e-8
        and d_variants <= 10.0 * d_oracle
        and trace_ap.counters.jacobian_evals == 1
        and elapsed < 60.0
    )
    _verdict(9, "closed-loop cascade settles with one model build", ok,
             f"offset {initial:.3f} -> pc {final_pc:.3f} / ap {final_ap:.3f}, "
             f"terminal slack {max(term_pc, term_ap):.1e}, "
             f"variant gap {d_variants:.1e} vs 10x oracle gap {10.0 * d_oracle:.1e}, "
             f"jac evals {trace_ap.counters.jacobian_evals}, {elapsed:.1f}s")


def test_criterion_10_byte_identical_reruns(tmp_path):
    scen = tmp_path / "scen.cfg"
    scen.write_text(
        "problem = tutorial\nvariant = apcscp\njacobian = frozen\n"
        "xi.schedule = linear\nxi.start = 1.2\nxi.step = 0.25\nxi.count = 10\n"
        "oracle = true\nstart = perturbed\noutput = scen.csv\n"
    )
    bench = tmp_path / "bench.cfg"
    bench.write_text(f"scenarios = scen.cfg\noutput = {tmp_path/'bench.csv'}\n")
    solve = tmp_path / "solve.cfg"
    solve.write_text(
        "problem = tutorial\nvariant = fascp\nxi.schedule = linear\n"
        "xi.start = 1.3\nstart = perturbed\noracle = true\noutput = solve.csv\n"
    )

    results = {}
    for label, argv, out in (
        ("track", ["track", str(scen), "--out", str(tmp_path / "t.csv")], "t.csv"),
        ("solve", ["solve", str(solve), "--out", str(tmp_path / "s.csv")], "s.csv"),
        ("bench", ["bench", str(bench)], "bench.csv"),
    ):
        assert main(argv) == 0
        first = (tmp_path / out).read_bytes()
        assert main(argv) == 0
        results[label] = first == (tmp_path / out).read_bytes()
    ok = all(results.values())
    _verdict(10, "repeated runs are byte identical", ok,
             ", ".join(f"{k} {'same' if v else 'differs'}" for k, v in results.items()))
