import numpy as np
import pytest

from conftest import random_trajectory, scalar_problem, zero_lambda_problem
from evomin import Trajectory, residual, time_derivative
from evomin.applications import build_heat
from evomin.energy import summation_by_parts_gap
from evomin.trajectory import trajectory_from_csv, trajectory_to_csv
from evomin.triple import EvolutionTriple


def test_time_derivative_examples():
    tri = EvolutionTriple(dim=1, mass=np.eye(1))
    traj = Trajectory(np.array([[1.0], [0.0]]), 0.0, 1.0, np.array([1.0]))
    assert time_derivative(tri, traj) == pytest.approx(np.array([[-1.0]]))

    traj = Trajectory(np.full((5, 1), 2.0), 0.0, 1.0, np.array([2.0]))
    assert np.allclose(time_derivative(tri, traj), 0.0)

    states = (np.arange(4) * 0.25)[:, None]   # linear ramp u_k = k dt
    traj = Trajectory(states, 0.0, 0.75, np.array([0.0]))
    assert np.allclose(time_derivative(tri, traj), 1.0)


def test_residual_implicit_euler_solution_is_zero():
    p = scalar_problem()
    traj = Trajectory(np.array([[1.0], [1.0 / 3.0]]), 0.0, 1.0, np.array([1.0]))
    r = residual(p, traj)
    assert np.max(np.abs(r)) < 1e-14


def test_residual_constant_trajectory_lambda0():
    p = zero_lambda_problem(lam=0)
    traj = Trajectory(np.ones((4, 1)), 0.0, 1.0, np.array([1.0]))
    assert np.allclose(residual(p, traj), 0.0)


def test_residual_pure_potential_step():
    p = zero_lambda_problem(lam=1)
    traj = Trajectory(np.array([[1.0], [0.0]]), 0.0, 1.0, np.array([1.0]))
    assert residual(p, traj) == pytest.approx(np.array([[-1.0]]))


def test_summation_by_parts_inequality(rng):
    p = build_heat(6)
    for _ in range(50):
        traj = random_trajectory(p, 7, rng)
        gap = summation_by_parts_gap(p.triple, traj)
        # gap = sum <u_k, I du_k> - (|u_M|^2 - |w0|^2)/2 = sum |du_k|^2/2 >= 0
        assert gap >= -1e-10
        direct = sum(
            0.5 * p.triple.h_inner(p.triple.apply_t(d), p.triple.apply_t(d))
            for d in np.diff(traj.states, axis=0)
        )
        assert gap == pytest.approx(direct, abs=1e-10)
    const = Trajectory(np.tile(p.initial, (8, 1)), 0.0, 0.1, p.initial)
    assert summation_by_parts_gap(p.triple, const) == pytest.approx(0.0, abs=1e-14)


def test_initial_datum_validation():
    p = build_heat(5)
    traj = random_trajectory(p, 3, np.random.default_rng(0))
    traj.validate_initial(p.triple)
    traj.states[0] += 1.0
    with pytest.raises(ValueError):
        traj.validate_initial(p.triple)


def test_states_validation():
    with pytest.raises(ValueError):
        Trajectory(np.array([[1.0]]), 0.0, 1.0, np.array([1.0]))   # M = 0
    with pytest.raises(ValueError):
        Trajectory(np.array([[1.0], [np.nan]]), 0.0, 1.0, np.array([1.0]))
    with pytest.raises(ValueError):
        Trajectory(np.ones((3, 1)), 1.0, 0.0, np.array([1.0]))     # t1 <= t0


def test_csv_round_trip(rng):
    p = build_heat(4)
    traj = random_trajectory(p, 5, rng)
    text = trajectory_to_csv(traj)
    lines = text.strip().splitlines()
    assert lines[0] == "t," + ",".join(f"x_{i}" for i in range(4))
    assert len(lines) == 7
    back = trajectory_from_csv(text, w0=traj.w0)
    assert np.array_equal(back.states, traj.states)   # 17 digits round-trips exactly
    assert back.dt == pytest.approx(traj.dt)
    # default datum: first row
    assert np.array_equal(trajectory_from_csv(text).w0, traj.states[0])
    with pytest.raises(ValueError):
        trajectory_from_csv("a,b\n1,2\n")
