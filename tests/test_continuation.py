import numpy as np
import pytest

from conftest import rotation_problem, zero_operator
from evomin import continuation as continuation_module
from evomin import oracle
from evomin import (
    Potential,
    continuation_solve,
    default_schedule,
    energy_balance_audit,
    implicit_euler_solve,
)
from evomin.applications import PointwiseMap, build_heat_core, build_navier_stokes_2d
from evomin.continuation import continuation_to_csv
from evomin.operator import term_operator
from evomin.oracle import StepFailure
from evomin.problem import ProblemSpec


def test_default_schedule():
    sched = default_schedule()
    assert len(sched) == 12
    assert sched[0] == 1.0
    assert all(b == a / 2 for a, b in zip(sched, sched[1:]))
    with pytest.raises(ValueError):
        default_schedule(levels=0)


def test_schedule_validation():
    core = build_heat_core(6)
    reg = Potential.quadratic(core.triple.mass)
    with pytest.raises(ValueError):
        continuation_solve(core, reg, [1.0, 1.0], steps=4)
    with pytest.raises(ValueError):
        continuation_solve(core, reg, [1.0, -0.5], steps=4)


def test_rejects_nonzero_lambda_core():
    from evomin.applications import build_heat
    p = build_heat(6)
    with pytest.raises(ValueError):
        continuation_solve(p, p.potential, [1.0, 0.5], steps=4)


def test_single_level_equals_one_oracle_solve():
    core = build_heat_core(8)
    reg = Potential.quadratic(core.triple.mass)
    res = continuation_solve(core, reg, [0.25], steps=6)
    direct = implicit_euler_solve(core.with_potential(reg.scaled(0.25), lambda_flag=1), 6)
    assert len(res.trajectories) == 1
    assert np.array_equal(res.trajectories[0].states, direct.states)


def test_each_level_factors_its_step_jacobian_once(monkeypatch):
    # eps * reg keeps reg's constant D^2Psi, so every level's step Jacobian is
    # declared constant and the oracle factors it once per level
    core = build_heat_core(8)
    reg = Potential.quadratic(core.triple.mass)
    factored, per_level = [], []
    factor, solve = oracle.lu_factor, continuation_module.implicit_euler_solve

    def counted(*args, **kwargs):
        before = len(factored)
        traj = solve(*args, **kwargs)
        per_level.append(len(factored) - before)
        return traj

    monkeypatch.setattr(oracle, "lu_factor", lambda a: factored.append(a) or factor(a))
    monkeypatch.setattr(continuation_module, "implicit_euler_solve", counted)
    res = continuation_solve(core, reg, [1.0, 0.25, 0.0625], steps=8)
    assert res.completed and all(n >= 8 for n in res.newton_iters)
    assert per_level == [1, 1, 1]


def test_zero_dynamics_limit_is_constant():
    # Lambda = 0 core: as eps -> 0 the trajectory freezes at the datum
    core = build_heat_core(6)
    still = ProblemSpec(
        triple=core.triple, potential=core.potential, lambda_op=zero_operator(6),
        lambda_flag=0, horizon=core.horizon, initial=core.initial)
    reg = Potential.quadratic(core.triple.mass)
    res = continuation_solve(still, reg, default_schedule(levels=10), steps=5)
    final = res.trajectories[-1]
    assert np.max(np.abs(final.states - still.initial)) < 1e-3
    assert res.distances[-1] < res.distances[1]


def test_heat_core_cauchy_decrease():
    core = build_heat_core(12)
    reg = Potential.quadratic(core.triple.mass)
    sched = default_schedule(start=1.0, factor=0.25, levels=10)
    res = continuation_solve(core, reg, sched, steps=20)
    assert res.completed
    d = res.distances[1:]
    assert all(b < a for a, b in zip(d, d[1:]))
    assert all(j < 1e-12 for j in res.final_j)


def test_warm_start_iteration_sanity():
    core = build_heat_core(10)
    reg = Potential.quadratic(core.triple.mass)
    sched = default_schedule(levels=6)
    res = continuation_solve(core, reg, sched, steps=15)
    cold_counts = []
    for eps in sched:
        counter = {}
        implicit_euler_solve(core.with_potential(reg.scaled(eps), lambda_flag=1), 15,
                             counter=counter)
        cold_counts.append(counter["newton_iters"])
    assert all(w <= 3 * c for w, c in zip(res.newton_iters, cold_counts))


def test_partial_result_on_step_failure():
    core = build_heat_core(3)
    # an operator that blows up once eps stops stabilizing it: -1e8 (1 + x_0^2) e_0
    e0 = np.eye(3)[:1]
    blow_up = PointwiseMap(lambda v: -1e8 * (1.0 + v**2), lambda v: -2e8 * v)
    bad = ProblemSpec(
        triple=core.triple, potential=core.potential,
        lambda_op=term_operator(3, [blow_up.term(e0, e0)]),
        lambda_flag=0, horizon=(0.0, 1.0), initial=core.initial)
    reg = Potential.quadratic(core.triple.mass)
    res = continuation_solve(bad, reg, [1e6, 1.0], steps=2)
    assert not res.completed
    assert "step-failure" in res.status
    assert len(res.trajectories) <= 1


def inequality_defect(problem, traj):
    """Defect of the limiting energy inequality at every grid time,

        s(t_m) = |u_m|_H^2 / 2 + dt * sum_{k<=m} <u_k, Lambda(u_k)> - |w_0|_H^2 / 2:

    the energy balance without the potential term.  On trajectories that
    approximately solve the discrete equation it is nonpositive up to
    round-off."""
    return energy_balance_audit(problem.with_potential(problem.potential, lambda_flag=0), traj)


def test_energy_inequality_skew():
    p = rotation_problem(t1=2.0)
    traj = implicit_euler_solve(p, 30)
    defect = inequality_defect(p, traj)
    assert np.max(defect) <= 0.0 + 1e-12
    # dissipation defect is O(dt)
    finer = inequality_defect(p, implicit_euler_solve(p, 60))
    assert abs(np.max(finer)) < abs(np.max(defect))


def test_energy_inequality_zero_dynamics():
    core = build_heat_core(5, initial=lambda x: 0.0 * x)
    from evomin.trajectory import constant_trajectory
    traj = constant_trajectory(core, 4)
    defect = inequality_defect(core, traj)
    assert np.allclose(defect, 0.0, atol=1e-15)


def test_energy_inequality_navier_stokes():
    p = build_navier_stokes_2d(16, viscosity=0.1, initial="random", seed=1, t1=0.5)
    traj = implicit_euler_solve(p, 20)
    defect = inequality_defect(p, traj)
    assert np.all(defect <= 1e-10)


def test_continuation_csv():
    core = build_heat_core(6)
    reg = Potential.quadratic(core.triple.mass)
    res = continuation_solve(core, reg, [1.0, 0.5, 0.25], steps=4)
    text = continuation_to_csv(res)
    lines = text.strip().splitlines()
    assert lines[0] == "eps,distance_to_prev,final_J,newton_iters_total"
    assert len(lines) == 4
