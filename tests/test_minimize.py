import numpy as np
import pytest

from conftest import random_trajectory, scalar_problem
from evomin import (
    MinimizeOptions,
    Trajectory,
    energy,
    implicit_euler_solve,
    minimize,
    verify_equivalence,
)
from evomin.applications import build_heat
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
    from evomin import ConjugateFailure, OperatorLambda, Potential, ProblemSpec
    from evomin.triple import EvolutionTriple
    pot = Potential.custom(lambda x: float(np.sum(np.sqrt(1 + x**2) - 1)),
                           lambda x: x / np.sqrt(1 + x**2), dim=1)
    tri = EvolutionTriple(dim=1, mass=np.eye(1))
    op = OperatorLambda(dim=1, eval=lambda t, x: np.zeros(1),
                        dderiv=lambda t, x, h: np.zeros(1), kind_tag="linear")
    p = ProblemSpec(triple=tri, potential=pot, lambda_op=op, lambda_flag=1,
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
                        dderiv_adjoint=lambda t, x, v: v.copy(), kind_tag="linear")
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
                        dderiv_adjoint=lambda t, x, v: v.copy(), kind_tag="linear",
                        stacked=True)
    p = type(p)(triple=p.triple, potential=p.potential, lambda_op=op, lambda_flag=1,
                horizon=p.horizon, initial=p.initial)
    res = minimize(p, steps=3)
    assert res.converged
    assert res.step_sizes[0] <= 0.5


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
