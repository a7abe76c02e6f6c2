import dataclasses
import importlib

import numpy as np
import pytest

from conftest import random_trajectory, scalar_problem, zero_lambda_problem, zero_operator
from evomin import (
    EvolutionTriple,
    MinimizeOptions,
    OperatorLambda,
    Potential,
    ProblemSpec,
    Trajectory,
    energy,
    energy_gradient,
    implicit_euler_solve,
    minimize,
    verify_equivalence,
)
from evomin.applications import (
    build_heat,
    build_navier_stokes_2d,
    build_parabolic_divergence,
    build_parabolic_nondivergence,
    build_scalar_decay,
)
from evomin.minimize import trace_to_csv
from evomin.trajectory import constant_trajectory


def test_scalar_decay_from_zero_init():
    p = scalar_problem()
    init = Trajectory(np.array([[1.0], [0.0]]), 0.0, 1.0, np.array([1.0]))
    res = minimize(p, init=init, opts=MinimizeOptions(j_tol=1e-13))
    assert res.status == "converged-zero-energy"
    assert res.trajectory.states[1, 0] == pytest.approx(1.0 / 3.0, abs=1e-6)
    assert res.j_history[-1] < 1e-12


def test_already_solved_init_stops_immediately():
    p = scalar_problem()
    sol = implicit_euler_solve(p, 4)
    res = minimize(p, init=sol)
    assert res.status == "converged-zero-energy"
    assert res.iterations <= 1


def test_descent_property(rng):
    p = build_heat(10)
    init = random_trajectory(p, 12, rng)
    res = minimize(p, init=init, opts=MinimizeOptions(max_iterations=300, j_tol=1e-14))
    js = res.j_history
    assert all(b <= a + 1e-12 for a, b in zip(js, js[1:]))


def test_heat_matches_oracle():
    p = build_heat(16)
    res = minimize(p, steps=20, opts=MinimizeOptions())
    assert res.status == "converged-zero-energy"
    oracle = implicit_euler_solve(p, 20)
    assert np.max(np.abs(res.trajectory.states - oracle.states)) < 1e-5


def test_uniqueness_under_uniform_convexity(rng):
    p = build_heat(10)
    opts = MinimizeOptions(j_tol=0.0, g_tol=1e-11, max_iterations=100_000)
    limits = []
    for seed in (1, 2):
        r = np.random.default_rng(seed)
        init = constant_trajectory(p, 12)
        init.states[1:] += r.standard_normal(init.states[1:].shape)
        res = minimize(p, init=init, opts=opts)
        limits.append(res.trajectory.states)
    assert np.max(np.abs(limits[0] - limits[1])) < 1e-6


def test_iteration_cap_status():
    p = build_heat(10)
    res = minimize(p, steps=12, opts=MinimizeOptions(max_iterations=1, j_tol=1e-16))
    assert res.status == "iteration-cap"
    assert res.iterations == 1


def test_require_gradient_certifies_both():
    p = build_heat(8)
    res = minimize(p, steps=10,
                   opts=MinimizeOptions(j_tol=1e-10, g_tol=1e-9, require_gradient=True))
    assert res.status == "converged-zero-energy"
    assert res.grad_norm_history[-1] <= 1e-9
    assert res.j_history[-1] <= 1e-10


def test_verify_equivalence_pass():
    p = build_heat(12)
    res = minimize(p, steps=15,
                   opts=MinimizeOptions(j_tol=1e-12, g_tol=1e-9, require_gradient=True))
    oracle = implicit_euler_solve(p, 15)
    report = verify_equivalence(p, res.trajectory, oracle)
    assert report["pass"]
    assert report["state_discrepancy"] < 1e-5
    assert report["minimizer"]["J"] < 1e-10
    assert report["oracle"]["J"] < 1e-12


def test_verify_equivalence_detects_perturbation():
    p = build_heat(12)
    oracle = implicit_euler_solve(p, 15)
    good = oracle.copy()
    oracle.states[7] += 1e-2
    report = verify_equivalence(p, oracle, good)
    assert not report["pass"]
    # a strictly positive energy margin at the perturbed trajectory
    assert energy(p, oracle) > 1e-8
    assert report["minimizer"]["grad_norm"] > 1e-8


def test_verify_equivalence_grid_mismatch():
    p = build_heat(8)
    a = implicit_euler_solve(p, 10)
    b = implicit_euler_solve(p, 20)
    with pytest.raises(ValueError):
        verify_equivalence(p, a, b)


def test_trace_csv():
    p = scalar_problem()
    res = minimize(p, steps=3)
    text = trace_to_csv(res)
    lines = text.strip().splitlines()
    assert lines[0] == "iter,J,grad_norm,step_size"
    assert len(lines) == len(res.j_history) + 1


def test_minimize_rejects_an_init_that_does_not_carry_the_problems_datum():
    # the trajectory is consistent with its own w0, but that is not the problem's
    p = build_heat(8)
    init = constant_trajectory(p, 6)
    init.states *= 2.0
    init.w0 = init.states[0].copy()
    init.validate_initial(p.triple)
    with pytest.raises(ValueError, match="problem's datum"):
        energy(p, init)
    with pytest.raises(ValueError, match="problem's datum"):
        minimize(p, init=init)


def test_minimize_needs_init_or_steps():
    p = scalar_problem()
    with pytest.raises(ValueError):
        minimize(p)


def test_minimize_p_laplacian_matches_oracle():
    from evomin.applications import build_parabolic_divergence
    p = build_parabolic_divergence(8, q=4.0, t1=0.05)
    res = minimize(p, steps=8, opts=MinimizeOptions(j_tol=1e-12))
    assert res.converged
    oracle = implicit_euler_solve(p, 8)
    assert np.max(np.abs(res.trajectory.states - oracle.states)) < 1e-5


def test_conjugate_failure_propagates_from_init():
    from evomin import ConjugateFailure, Potential, ProblemSpec
    from evomin.triple import EvolutionTriple
    pot = Potential.custom(lambda x: float(np.sum(np.sqrt(1 + x**2) - 1)),
                           lambda x: x / np.sqrt(1 + x**2), dim=1)
    tri = EvolutionTriple(dim=1, mass=np.eye(1))
    p = ProblemSpec(triple=tri, potential=pot, lambda_op=zero_operator(1), lambda_flag=1,
                    horizon=(0.0, 1.0), initial=np.array([0.0]))
    bad_init = Trajectory(np.array([[0.0], [5.0]]), 0.0, 1.0, np.zeros(1))
    with pytest.raises(ConjugateFailure):
        minimize(p, init=bad_init)


def test_programming_error_in_a_trial_point_propagates():
    # the start point (u = 1 everywhere) evaluates; every trial point moves a
    # state and raises TypeError, which the line search must not swallow
    from evomin import OperatorLambda

    def eval_(t, x):
        if np.any(x != 1.0):
            raise TypeError("broken operator")
        return x.copy()

    p = scalar_problem()
    op = OperatorLambda(dim=1, eval=eval_, dderiv=lambda t, x, h: h.copy(),
                        dderiv_adjoint=lambda t, x, v: v.copy(),
                        jacobian=lambda t, x: np.eye(1))
    p = type(p)(triple=p.triple, potential=p.potential, lambda_op=op, lambda_flag=1,
                horizon=p.horizon, initial=p.initial)
    with pytest.raises(TypeError, match="broken operator"):
        minimize(p, steps=3)


def test_operator_blow_up_in_a_trial_point_is_a_rejected_trial():
    # the first trial point blows up the operator: the line search halves the
    # step and goes on instead of failing
    from evomin import OperatorLambda

    calls = []

    def eval_(t, x):
        calls.append(1)
        return np.full_like(x, np.inf) if len(calls) == 2 else x.copy()

    p = scalar_problem()
    op = OperatorLambda(dim=1, eval=eval_, dderiv=lambda t, x, h: h.copy(),
                        dderiv_adjoint=lambda t, x, v: v.copy(),
                        jacobian=lambda t, x: np.eye(1))
    p = type(p)(triple=p.triple, potential=p.potential, lambda_op=op, lambda_flag=1,
                horizon=p.horizon, initial=p.initial)
    res = minimize(p, steps=3)
    assert res.converged
    assert res.step_sizes[0] <= 0.5


def test_adjoint_blow_up_in_a_trial_point_is_a_rejected_trial():
    # the first trial point's adjoint is not finite: the line search rejects
    # the trial, as for a blow-up of the operator itself
    calls = []

    def adjoint(t, x, v):
        calls.append(1)
        return np.full_like(v, np.inf) if len(calls) == 2 else v.copy()

    p = scalar_problem()
    p = dataclasses.replace(p, lambda_op=dataclasses.replace(p.lambda_op,
                                                             dderiv_adjoint=adjoint))
    res = minimize(p, steps=3)
    assert res.converged
    assert res.step_sizes[0] <= 0.5
    assert all(np.isfinite(res.grad_norm_history))


def test_trial_solves_start_from_the_accepted_iterate(monkeypatch):
    # every trial point's conjugate solve starts from the maximizers of the
    # current accepted iterate; a rejected trial never seeds the next solve
    import importlib

    from evomin.applications import PointwiseMap, build_parabolic_divergence
    from evomin.energy import energy_breakdown

    calls = []                              # (start, argmax) per energy evaluation

    def recording(problem, traj, start=None):
        bd = energy_breakdown(problem, traj, start)
        calls.append((start, bd.argmax))
        return bd

    # the package exports the function minimize under the module's name
    monkeypatch.setattr(importlib.import_module("evomin.minimize"), "energy_breakdown",
                        recording)
    p = build_parabolic_divergence(8, q=4.0, theta=PointwiseMap.linear(-0.9123),
                                   xi=PointwiseMap.saturated_cubic(0.3154),
                                   gamma=PointwiseMap.arctan(0.6819), t1=0.1)
    res = minimize(p, steps=4)
    assert res.converged
    assert len(calls) > res.iterations + 1          # some trials were rejected
    assert calls[0][0] is None                      # the initial iterate starts cold
    seed, accepted = calls[0][1], 0
    for i in range(1, len(calls)):
        start = calls[i][0]
        if start is not seed:
            # a new iteration: seeded by the trial just before, the accepted one
            assert start is calls[i - 1][1]
            seed, accepted = start, accepted + 1
    assert accepted == res.iterations - 1


# --- the stopping rule: one test per exit and per status -------------------

# the package exports the function `minimize` under the module's name
minimize_module = importlib.import_module("evomin.minimize")


@pytest.fixture
def evaluations(monkeypatch):
    """Record the total J of every energy evaluation inside `minimize`
    (None for an evaluation that raised)."""
    real = minimize_module.energy_breakdown
    totals = []

    def recording(problem, traj, start=None):
        totals.append(None)
        bd = real(problem, traj, start)
        totals[-1] = bd.total
        return bd

    monkeypatch.setattr(minimize_module, "energy_breakdown", recording)
    return totals


def evaluations_of_accepted_steps(res):
    """Evaluations that the start point and the accepted steps account for:
    a step of size 2^-b evaluated 1 + b trial points."""
    return 1 + sum(1 + round(-np.log2(a)) for a in res.step_sizes)


def test_stationary_status_at_a_zero_gradient_with_positive_energy(monkeypatch):
    monkeypatch.setattr(minimize_module, "energy_gradient",
                        lambda problem, traj, bd: np.zeros_like(traj.states[1:]))
    res = minimize(scalar_problem(), steps=3)
    assert res.status == "converged-stationary-positive-J"
    assert not res.converged
    assert res.iterations == 0 and res.j_history[0] > 1e-3
    assert "check_monotonicity" in res.message


def test_error_status_when_the_line_search_rejects_every_trial(evaluations):
    # the start point (u = 1 everywhere) evaluates; every trial point blows up
    # the operator, so all MAX_BACKTRACKS trials are rejected far from zero J
    from evomin import OperatorLambda
    from evomin.minimize import MAX_BACKTRACKS

    p = scalar_problem()
    op = OperatorLambda(dim=1, eval=lambda t, x: np.where(np.all(x == 1.0), x, np.inf),
                        dderiv=lambda t, x, h: h.copy(),
                        dderiv_adjoint=lambda t, x, v: v.copy(),
                        jacobian=lambda t, x: np.eye(1))
    p = type(p)(triple=p.triple, potential=p.potential, lambda_op=op, lambda_flag=1,
                horizon=p.horizon, initial=p.initial)
    res = minimize(p, steps=3)
    assert res.status == "error"
    assert res.iterations == 0 and res.grad_norm_history[0] > 1e-7
    assert len(evaluations) == 1 + MAX_BACKTRACKS
    assert evaluations[1:] == [None] * MAX_BACKTRACKS
    assert "cannot decrease" in res.message
    assert np.array_equal(res.trajectory.states, np.ones((4, 1)))


def test_round_off_floor_exit_on_scalar_decay(evaluations):
    # with require_gradient J reaches zero long before |g|_inf reaches g_tol;
    # the run ends when the predicted decrease falls below round-off, before
    # any trial point of its last iteration
    from evomin.applications import build_scalar_decay

    res = minimize(build_scalar_decay(t1=1.0), steps=8,
                   opts=MinimizeOptions(require_gradient=True))
    assert res.status == "converged-zero-energy"
    assert (res.iterations, len(evaluations)) == (28, 34)
    assert len(evaluations) == evaluations_of_accepted_steps(res)
    assert len(res.step_sizes) == res.iterations
    assert res.grad_norm_history[-1] > 1e-9        # above g_tol: not the top-of-loop exit
    assert res.grad_norm_history[-1] == pytest.approx(2.08e-9, rel=1e-2)


def test_round_off_floor_exit_inside_the_line_search_on_a_power_law_panel_input(evaluations):
    # J reaches its round-off level long before |g|_inf reaches g_tol; the
    # line search stops halving once alpha * -<d, g> is round-off, and that
    # floor exit ends the run
    from evomin.applications import PointwiseMap, build_parabolic_divergence

    p = build_parabolic_divergence(8, q=4.0, theta=PointwiseMap.linear(-0.9304),
                                   xi=PointwiseMap.saturated_cubic(0.2450),
                                   gamma=PointwiseMap.arctan(0.5600), t1=0.1)
    res = minimize(p, steps=4, opts=MinimizeOptions(require_gradient=True))
    assert res.status == "converged-zero-energy"
    assert (res.iterations, len(evaluations)) == (40, 49)
    assert len(res.step_sizes) == res.iterations
    assert res.grad_norm_history[-1] > 1e-9        # above g_tol: a floor exit
    assert min(res.step_sizes) > 2.0**-38


def test_round_off_floor_exit_partway_through_a_line_search(monkeypatch, evaluations):
    # -<d, g> = 1.5 * 2^10 * ROUNDOFF * (1 + |J|) and no trial meets Armijo: the
    # search tries alpha = 1 .. 2^-10 and ends before the trial at 2^-11, where
    # the predicted decrease 0.75 * ROUNDOFF * (1 + |J|) is round-off
    from evomin.minimize import MAX_BACKTRACKS, ROUNDOFF

    p = scalar_problem()
    j0 = energy(p, constant_trajectory(p, 3))
    scale = 1.5 * 2.0**10 * ROUNDOFF * (1.0 + abs(j0))
    monkeypatch.setattr(minimize_module, "_lbfgs_direction",
                        lambda g, *history: -scale * g / float(g @ g))
    real = minimize_module.energy_breakdown

    def rising(problem, traj, start=None):
        bd = real(problem, traj, start)
        if start is not None:               # a trial point: J goes up
            bd.psi_terms = bd.psi_terms + 1.0
        return bd

    monkeypatch.setattr(minimize_module, "energy_breakdown", rising)
    res = minimize(p, steps=3)
    halvings = 11
    assert halvings < MAX_BACKTRACKS
    assert len(evaluations) == 1 + halvings
    assert res.status == "error"           # exit_status: J and |g|_inf far from zero
    assert res.iterations == 0 and res.j_history[0] == j0 > 1e-3
    assert "cannot decrease" in res.message
    assert np.array_equal(res.trajectory.states, np.ones((4, 1)))


@pytest.mark.parametrize("g_inf,status", [(None, "error"),
                                          (5e-8, "converged-stationary-positive-J")])
def test_round_off_floor_exit_above_zero_energy_reads_the_gradient(monkeypatch, evaluations,
                                                                   g_inf, status):
    # a direction whose predicted decrease is below round-off stops the first
    # iteration far above zero energy: a large gradient is an error, a
    # gradient within max(g_tol, G_FLOOR) a stationary point
    monkeypatch.setattr(minimize_module, "_lbfgs_direction",
                        lambda g, *history: -1e-30 * g / float(g @ g))
    if g_inf is not None:
        real = minimize_module.energy_gradient

        def scaled(problem, traj, bd):
            g = real(problem, traj, bd)
            return g * (g_inf / np.max(np.abs(g)))

        monkeypatch.setattr(minimize_module, "energy_gradient", scaled)
    res = minimize(scalar_problem(), steps=3)
    assert res.status == status
    assert res.iterations == 0 and len(evaluations) == 1
    assert res.j_history[0] > 1e-3 and res.grad_norm_history[0] > 1e-9


@pytest.mark.parametrize("steps", [2, 4, 8])
def test_top_of_loop_exit_below_the_relative_j_floor_is_zero_energy(steps):
    # with j_tol = 0 the run stops at |g|_inf <= g_tol with J at round-off; the
    # top-of-loop exit reads J against the same floor as the floor exits
    from evomin.minimize import J_FLOOR

    res = minimize(build_heat(8), steps=steps, opts=MinimizeOptions(j_tol=0.0))
    assert res.status == "converged-zero-energy"
    assert res.grad_norm_history[-1] <= 1e-9
    assert res.j_history[-1] <= J_FLOOR * max(1.0, res.j_history[0])


def test_floor_exit_below_the_relative_j_floor_is_zero_energy():
    # with j_tol = 0 only the floor J_FLOOR * max(1, |J(init)|) tells round-off
    # from energy: the run ends at a floor exit at J ~ 3e-17 > 0, |g|_inf above g_tol
    from evomin.applications import build_scalar_decay
    from evomin.minimize import J_FLOOR

    res = minimize(build_scalar_decay(t1=1.0), steps=2, opts=MinimizeOptions(j_tol=0.0))
    assert res.status == "converged-zero-energy"
    assert res.iterations == 5
    assert 0.0 < res.j_history[-1] <= J_FLOOR * max(1.0, res.j_history[0])
    assert res.grad_norm_history[-1] > 1e-9


# -- the exact inverse Hessian as the initial L-BFGS matrix --------------------

def _diagonal_potential_flow():
    """Lambda = 0 against Psi with the 1-D (diagonal) matrix diag(1, 2, 3)."""
    return ProblemSpec(triple=EvolutionTriple(dim=3, mass=np.array([0.5, 1.0, 2.0])),
                       potential=Potential.quadratic(np.array([1.0, 2.0, 3.0])),
                       lambda_op=zero_operator(3), lambda_flag=1, horizon=(0.0, 1.0),
                       initial=np.array([1.0, -1.0, 0.5]))


@pytest.mark.parametrize("build", [
    lambda: build_heat(8),                                # diagonal mass, 2-D G^T G
    lambda: build_parabolic_nondivergence(6),             # dense mass
    _diagonal_potential_flow,                             # diagonal mass and A
    lambda: zero_lambda_problem(lam=0),                   # lam = 0: C = I/dt
], ids=["heat", "nondivergence", "diagonal", "lam0"])
def test_inverse_hessian_inverts_the_hessian_of_a_quadratic_energy(build, rng):
    # J is exactly quadratic, so its gradient is affine in z and a step by
    # P^-1 v moves it by exactly v
    p = build()
    steps = 6
    traj = random_trajectory(p, steps, rng)
    inverse = minimize_module._inverse_hessian(p, steps, traj.dt)
    assert inverse is not None

    def grad(z):
        t = traj.copy()
        t.states[1:] = z.reshape(steps, p.dim)
        return energy_gradient(p, t).ravel()

    z = traj.states[1:].ravel()
    for _ in range(3):
        v = rng.standard_normal(z.size)
        moved = grad(z + inverse(v)) - grad(z)
        assert np.linalg.norm(moved - v) <= 1e-8 * np.linalg.norm(v)


def test_heat_converges_in_one_preconditioned_step():
    # the first direction is the exact Newton step to the implicit-Euler solution
    p = build_heat(32)
    res = minimize(p, steps=50, opts=MinimizeOptions(require_gradient=True))
    assert res.status == "converged-zero-energy"
    assert res.iterations <= 3
    report = verify_equivalence(p, res.trajectory, implicit_euler_solve(p, 50))
    assert report["pass"]
    assert report["state_discrepancy"] <= 1e-12


def _hand_built_zero_lambda():
    p = build_heat(8)
    op = OperatorLambda(dim=8, eval=lambda t, x: np.zeros_like(x),
                        dderiv=lambda t, x, h: np.zeros_like(h),
                        dderiv_adjoint=lambda t, x, v: np.zeros_like(v),
                        jacobian=lambda t, x: np.zeros((8, 8)))
    return dataclasses.replace(p, lambda_op=op)


@pytest.mark.parametrize("build", [
    lambda: build_parabolic_divergence(8, q=2.0, time_scale=1.0),   # modulated Psi
    lambda: build_parabolic_divergence(8, q=4.0),                   # D^2Psi not constant
    build_scalar_decay,                                             # Lambda = I
    lambda: build_navier_stokes_2d(8),                              # declares nothing
    _hand_built_zero_lambda,                                        # declares nothing
], ids=["modulated", "q4", "scalar_decay", "navier_stokes", "hand_built"])
def test_no_inverse_hessian_unless_the_energy_is_declared_quadratic(build):
    assert minimize_module._inverse_hessian(build(), 4, 0.1) is None
