import dataclasses
import importlib
import warnings

import numpy as np
import pytest

from conftest import (
    random_trajectory,
    scalar_problem,
    scalar_problem_with_jacobian,
    zero_lambda_problem,
    zero_operator,
)
from evomin import (
    EvolutionTriple,
    MinimizeOptions,
    OperatorLambda,
    Potential,
    ProblemSpec,
    Trajectory,
    energy,
    energy_breakdown,
    implicit_euler_solve,
    minimize,
    verify_equivalence,
)
from evomin.applications import (
    build_heat,
    build_hyperbolic,
    build_navier_stokes_2d,
    build_parabolic_divergence,
    build_parabolic_nondivergence,
    build_scalar_decay,
)
from evomin.minimize import trace_to_csv
from evomin.trajectory import constant_trajectory, residual


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
                        jacobian=lambda t, x: np.ones(np.shape(x) + (1,)))
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
                        jacobian=lambda t, x: np.ones(np.shape(x) + (1,)))
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
    p = build_parabolic_divergence(8, q=4.0, theta=PointwiseMap.linear(-1.2884),
                                   xi=PointwiseMap.saturated_cubic(0.3904),
                                   gamma=PointwiseMap.arctan(0.2912), t1=0.1)
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
    # trials past those of the accepted steps belong to the last iteration,
    # whose line search ended at a floor exit; they start from the last iterate
    last_search = len(calls) > evaluations_of_accepted_steps(res)
    assert accepted == res.iterations - 1 + last_search


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
                        jacobian=lambda t, x: np.ones(np.shape(x) + (1,)))
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

    p = build_parabolic_divergence(8, q=4.0, theta=PointwiseMap.linear(-1.2884),
                                   xi=PointwiseMap.saturated_cubic(0.3904),
                                   gamma=PointwiseMap.arctan(0.2912), t1=0.1)
    res = minimize(p, steps=4, opts=MinimizeOptions(require_gradient=True))
    assert res.status == "converged-zero-energy"
    assert (res.iterations, len(evaluations)) == (6, 12)
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


# -- the factored Newton sweep of a declared-constant step Jacobian ------------

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
    build_scalar_decay,                                   # L = I
    lambda: build_hyperbolic(8),                          # nonsymmetric L and C
], ids=["heat", "nondivergence", "diagonal", "lam0", "scalar_decay", "hyperbolic"])
def test_factored_sweep_is_the_dense_newton_direction(build, rng):
    # the sweep with the once-factored declared block gives the per-step dense
    # solve of B d = -r that the same problem takes when its operator declares
    # nothing, and r is affine in the states, so a full step along d zeroes it
    p = build()
    steps = 6
    assert p.constant_step_jacobian
    undeclared = dataclasses.replace(p, lambda_op=dataclasses.replace(p.lambda_op, linear=None))
    assert not undeclared.constant_step_jacobian
    traj = random_trajectory(p, steps, rng)
    bd = energy_breakdown(p, traj)
    lu = minimize_module._declared_block_lu(p, traj.dt)
    d = minimize_module._newton_direction(p, traj.states[1:], bd, lu)
    reference = minimize_module._newton_direction(undeclared, traj.states[1:], bd)
    assert np.linalg.norm(d - reference) <= 1e-12 * np.linalg.norm(reference)
    moved = traj.copy()
    moved.states[1:] += d.reshape(steps, p.dim)
    assert np.max(np.abs(residual(p, moved))) <= 1e-12 * np.max(np.abs(residual(p, traj)))


def test_heat_converges_in_one_preconditioned_step():
    # the first direction, the factored sweep, is the exact Newton step to the
    # implicit-Euler solution
    p = build_heat(32)
    res = minimize(p, steps=50, opts=MinimizeOptions(require_gradient=True))
    assert res.status == "converged-zero-energy"
    assert res.iterations == res.newton_directions == 1
    report = verify_equivalence(p, res.trajectory, implicit_euler_solve(p, 50))
    assert report["pass"]
    assert report["state_discrepancy"] <= 1e-12


def _hand_built_zero_lambda():
    p = build_heat(8)
    op = OperatorLambda(dim=8, eval=lambda t, x: np.zeros_like(x),
                        dderiv=lambda t, x, h: np.zeros_like(h),
                        dderiv_adjoint=lambda t, x, v: np.zeros_like(v),
                        jacobian=lambda t, x: np.zeros(np.shape(x) + (8,)))
    return dataclasses.replace(p, lambda_op=op)


@pytest.mark.parametrize("build,factored", [
    (lambda: build_heat(8), 1),                                         # Lambda = 0
    (lambda: build_parabolic_divergence(8, q=2.0, time_scale=1.0), 0),  # modulated Psi
    (lambda: build_parabolic_divergence(8, q=4.0), 0),                  # D^2Psi not constant
    (build_scalar_decay, 0),                                            # Lambda = I
    (lambda: build_navier_stokes_2d(8), 0),                             # declares nothing
    (_hand_built_zero_lambda, 0),                                       # declares nothing
], ids=["heat", "modulated", "q4", "scalar_decay", "navier_stokes", "hand_built"])
def test_no_factored_sweep_unless_lambda_is_declared_zero(build, factored, monkeypatch):
    # minimize LU-factors the declared block once where the step Jacobian is
    # declared constant and Lambda declared zero, and nowhere else: a
    # declared-constant scalar_decay takes L-BFGS alone
    import scipy.linalg

    p = build()
    calls = []
    real = scipy.linalg.lu_factor
    monkeypatch.setattr(scipy.linalg, "lu_factor", lambda *args: calls.append(1) or real(*args))
    minimize(p, steps=4)
    assert len(calls) == factored


# -- the space-time Newton direction -------------------------------------------

@pytest.mark.parametrize("build,constant,newton", [
    (lambda: build_heat(8), True, True),                             # Lambda = 0, constant A
    (build_scalar_decay, True, False),                               # Lambda = I
    (lambda: zero_lambda_problem(lam=0), True, True),                # Lambda = 0, lam = 0
    (lambda: build_hyperbolic(8), True, False),                      # zero coupling
    (lambda: build_parabolic_divergence(8, q=2.0, time_scale=1.0), False, True),  # modulated
    (lambda: build_parabolic_divergence(8, q=4.0), False, True),     # D^2Psi not constant
    (lambda: build_hyperbolic(8, nonlinearity=0.5), False, True),    # Lambda has terms
    (lambda: build_navier_stokes_2d(8), False, True),                # declares nothing
    (_hand_built_zero_lambda, False, True),                          # declares nothing
], ids=["heat", "scalar_decay", "lam0", "hyperbolic", "modulated", "q4",
        "hyperbolic-nonlinear", "navier_stokes", "hand_built"])
def test_constant_step_jacobian_reads_the_declarations(build, constant, newton):
    p = build()
    assert p.constant_step_jacobian is constant
    res = minimize(p, steps=4)
    # a declared-constant step Jacobian takes the Newton direction only where
    # Lambda is declared zero, and there its one exact step ends the run
    assert (res.newton_directions > 0) is (newton and res.iterations > 0)
    assert res.lbfgs_fallbacks == 0
    if constant and newton:     # one direction, unless the start passes the gradient test
        assert res.newton_directions == res.iterations == (res.grad_norm_history[0] > 1e-9)


@pytest.mark.parametrize("build", [
    lambda: build_parabolic_divergence(8, q=4.0),
    lambda: build_hyperbolic(8, nonlinearity=0.5),
], ids=["q4", "hyperbolic-nonlinear"])
def test_newton_direction_solves_the_linearized_residual(build, rng):
    # B d = -r: a step eps along d scales the residual by 1 - eps up to O(eps^2)
    p = build()
    traj = random_trajectory(p, 6, rng)
    r = residual(p, traj)
    d = minimize_module._newton_direction(p, traj.states[1:], energy_breakdown(p, traj))
    errors = []
    for eps in (1e-2, 1e-3):
        moved = traj.copy()
        moved.states[1:] += eps * d.reshape(r.shape)
        errors.append(np.max(np.abs(residual(p, moved) - (1.0 - eps) * r)))
    assert errors[1] <= 1e-5 * np.max(np.abs(r))
    assert errors[0] / errors[1] == pytest.approx(100.0, rel=0.1)


@pytest.mark.parametrize("steps,value", [
    (4, -5.0),      # C_k = 1/dt + value + 1 = 0: np.linalg.solve raises
    (3, -9.0),      # C_k = -(1/dt + 2), the true block's negative: <d, g> > 0
    (3, np.nan),    # DLambda is not finite: jacobian_matrix raises
], ids=["singular", "ascent", "nonfinite"])
def test_newton_direction_falls_back_to_lbfgs(steps, value):
    p = scalar_problem_with_jacobian(value)
    assert not p.constant_step_jacobian
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = minimize(p, steps=steps)
    assert res.converged
    assert res.newton_directions == 0
    # one direction per iteration, plus the last one's unless the gradient test ended the run
    assert res.lbfgs_fallbacks == res.iterations + (res.grad_norm_history[-1] > 1e-9)
    # the fallback is the L-BFGS run of the same equations declared constant
    lbfgs = minimize(scalar_problem(), steps=steps)
    assert res.iterations == lbfgs.iterations
    assert np.allclose(res.trajectory.states, lbfgs.trajectory.states, rtol=0.0, atol=1e-12)


def test_newton_direction_copies_a_read_only_jacobian():
    # a constant Jacobian broadcast over the states is read-only: the direction
    # adds I/dt to a copy and leaves the operator's matrix as it was
    jac = np.eye(1)
    op = OperatorLambda(dim=1, eval=lambda t, x: x.copy(), dderiv=lambda t, x, h: h.copy(),
                        dderiv_adjoint=lambda t, x, v: v.copy(),
                        jacobian=lambda t, x: np.broadcast_to(jac, np.shape(x) + (1,)))
    res = minimize(dataclasses.replace(scalar_problem(), lambda_op=op), steps=3)
    assert res.converged and res.newton_directions > 0 and res.lbfgs_fallbacks == 0
    assert np.array_equal(jac, np.eye(1))


def test_newton_direction_reads_each_second_derivative_once(monkeypatch):
    # every direction assembles its M blocks from one DLambda and one D^2Psi
    # call on the stacked states
    p = build_parabolic_divergence(8, q=4.0)
    calls = []

    def counted(name, read):
        def wrapper(self, t, x):
            calls.append((name, np.shape(t), np.shape(x)))
            return read(self, t, x)
        return wrapper

    monkeypatch.setattr(OperatorLambda, "jacobian_matrix",
                        counted("jacobian", OperatorLambda.jacobian_matrix))
    monkeypatch.setattr(Potential, "hess_matrix", counted("hessian", Potential.hess_matrix))
    res = minimize(p, steps=6)
    assert res.converged and res.lbfgs_fallbacks == 0 and res.newton_directions > 0
    stack = ((6,), (6, 8))
    assert calls == [("jacobian", *stack), ("hessian", *stack)] * res.newton_directions


def test_newton_iterations_do_not_grow_with_the_step_count():
    p = build_parabolic_divergence(16, q=4.0)
    iterations = [minimize(p, steps=m).iterations for m in (8, 64)]
    assert iterations[1] <= 2 * iterations[0]


def test_navier_stokes_from_a_random_start_certifies_a_critical_point():
    # L-BFGS stalled here at a floor exit with |g|_inf = 2.5e-7 after 185
    # iterations and failed critical_point; the Newton direction ends on the
    # gradient test
    p = build_navier_stokes_2d(8, initial="random", seed=3)
    res = minimize(p, steps=5)
    assert res.status == "converged-zero-energy"
    assert res.grad_norm_history[-1] <= 1e-9
    assert res.lbfgs_fallbacks == 0
    report = verify_equivalence(p, res.trajectory, implicit_euler_solve(p, 5))
    assert report["pass"]
