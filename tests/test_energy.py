import dataclasses

import numpy as np
import pytest

from conftest import (
    random_trajectory,
    rotation_problem,
    scalar_problem,
    zero_lambda_problem,
    zero_operator,
)
from evomin import (
    Trajectory,
    energy,
    energy_balance_audit,
    energy_breakdown,
    energy_gradient,
    implicit_euler_solve,
    minimize,
    residual,
)
from evomin.applications import (
    build_heat,
    build_hyperbolic,
    build_parabolic_divergence,
    build_scalar_decay,
    build_schrodinger,
)
from evomin.energy import breakdown_to_csv
from evomin.minimize import MinimizeOptions


def test_energy_zero_at_solution():
    p = scalar_problem()
    traj = Trajectory(np.array([[1.0], [1.0 / 3.0]]), 0.0, 1.0, np.array([1.0]))
    assert energy(p, traj) == pytest.approx(0.0, abs=1e-15)


def test_energy_off_solution_value():
    p = scalar_problem()
    traj = Trajectory(np.array([[1.0], [0.0]]), 0.0, 1.0, np.array([1.0]))
    # Psi(0) + Psi*(-(-1 + 0)) + 0 = 0.5
    assert energy(p, traj) == pytest.approx(0.5)


def test_energy_lambda0_value():
    p = zero_lambda_problem(lam=0)
    traj = Trajectory(np.array([[1.0], [0.0]]), 0.0, 1.0, np.array([1.0]))
    assert energy(p, traj) == pytest.approx(0.5)   # Psi*(1) = 0.5


def test_breakdown_itemization():
    p = scalar_problem()
    traj = Trajectory(np.array([[1.0], [0.0]]), 0.0, 1.0, np.array([1.0]))
    bd = energy_breakdown(p, traj)
    assert bd.psi_terms[0] == pytest.approx(0.0)
    assert bd.star_terms[0] == pytest.approx(0.5)
    assert bd.pairing_terms[0] == pytest.approx(0.0)
    assert bd.total == pytest.approx(energy(p, traj))

    tr_solved = Trajectory(np.array([[1.0], [1.0 / 3.0]]), 0.0, 1.0, np.array([1.0]))
    bd = energy_breakdown(p, tr_solved)
    assert np.allclose(bd.psi_terms + bd.star_terms + bd.pairing_terms, 0.0, atol=1e-15)


def test_breakdown_lambda0_pairing_zero(rng):
    p = zero_lambda_problem(lam=0)
    traj = random_trajectory(p, 5, rng)
    bd = energy_breakdown(p, traj)
    assert np.all(bd.pairing_terms == 0.0)
    assert np.all(bd.psi_terms == 0.0)


def test_breakdown_csv():
    p = scalar_problem()
    traj = Trajectory(np.array([[1.0], [0.0]]), 0.0, 1.0, np.array([1.0]))
    text = breakdown_to_csv(energy_breakdown(p, traj))
    lines = text.strip().splitlines()
    assert lines[0] == "k,t,psi,star,pairing"
    assert len(lines) == 2


@pytest.mark.parametrize("build", [
    lambda: scalar_problem(),
    lambda: rotation_problem(),
    lambda: build_heat(6),
    lambda: build_hyperbolic(5),
])
def test_energy_nonnegative_on_random_trajectories(build, rng):
    p = build()
    for _ in range(1000):
        traj = random_trajectory(p, 4, rng)
        assert energy(p, traj) >= -1e-8


def test_zero_energy_iff_zero_residual(rng):
    p = build_heat(8)
    sol = implicit_euler_solve(p, 10)
    assert energy(p, sol) < 1e-12
    assert np.max(np.abs(residual(p, sol))) < 1e-6
    for _ in range(20):
        bad = random_trajectory(p, 10, rng, scale=0.1)
        if np.max(np.abs(residual(p, bad))) >= 1e-6:
            assert energy(p, bad) >= 1e-12


def test_star_terms_nonnegative(rng):
    p = build_heat(6)
    for _ in range(50):
        traj = random_trajectory(p, 5, rng)
        bd = energy_breakdown(p, traj)
        assert np.all(bd.star_terms >= -1e-9)


def test_gradient_zero_at_solution():
    p = scalar_problem()
    traj = Trajectory(np.array([[1.0], [1.0 / 3.0]]), 0.0, 1.0, np.array([1.0]))
    assert np.max(np.abs(energy_gradient(p, traj))) < 1e-9


def test_gradient_quadratic_hand_value():
    # lambda = 0, no operator: J(u1) = (u1 - 1)^2 / 2, so dJ/du1 at 0 is -1
    p = zero_lambda_problem(lam=0)
    traj = Trajectory(np.array([[1.0], [0.0]]), 0.0, 1.0, np.array([1.0]))
    g = energy_gradient(p, traj)
    assert g == pytest.approx(np.array([[-1.0]]))


@pytest.mark.parametrize("build", [
    lambda: build_heat(6),
    lambda: build_parabolic_divergence(6, theta=None, t1=0.1),
    lambda: build_hyperbolic(5, damping=0.3, nonlinearity=0.5),
    lambda: build_schrodinger(5, couplings=(0.4, 0.2)),
])
def test_gradient_matches_central_differences(build, rng):
    p = build()
    steps = 6
    for _ in range(25):
        traj = random_trajectory(p, steps, rng, scale=0.4)
        g = energy_gradient(p, traj)
        gmax = max(np.max(np.abs(g)), 1e-10)
        for _ in range(3):
            k = int(rng.integers(0, steps))
            i = int(rng.integers(0, p.dim))
            h = 1e-6 * (1.0 + abs(traj.states[k + 1, i]))
            tp = traj.copy()
            tp.states[k + 1, i] += h
            tm = traj.copy()
            tm.states[k + 1, i] -= h
            fd = (energy(p, tp) - energy(p, tm)) / (2 * h)
            assert abs(fd - g[k, i]) < 1e-5 * gmax


def test_critical_point_implies_small_energy():
    # statement (1) => (3) discretely: J is controlled by the achieved
    # gradient level, with C = 1 frozen for these convex instances
    for p, steps in ((scalar_problem(), 4), (build_heat(8), 10)):
        res = minimize(p, steps=steps,
                       opts=MinimizeOptions(j_tol=-1.0, g_tol=1e-10,
                                            max_iterations=50_000))
        eps = max(res.grad_norm_history[-1], 1e-10)
        assert eps < 1e-9   # stationarity reached to near round-off
        assert energy(p, res.trajectory) < 1.0 * eps


def test_energy_balance_constant_solution():
    # Lambda = 0 and DPsi(0) = 0: u = 0 stays put and balances exactly
    p = zero_lambda_problem(lam=1, u0=0.0)
    traj = Trajectory(np.zeros((6, 1)), 0.0, 1.0, np.zeros(1))
    assert np.allclose(energy_balance_audit(p, traj), 0.0, atol=1e-15)


def test_energy_balance_dissipative_and_first_order():
    p = scalar_problem(t1=1.0)
    defects = {}
    for steps in (20, 40):
        sol = implicit_euler_solve(p, steps)
        e = energy_balance_audit(p, sol)
        assert np.all(e <= 1e-12)
        defects[steps] = np.max(np.abs(e))
    ratio = defects[20] / defects[40]
    assert 1.6 <= ratio <= 2.4


def test_energy_balance_heat_refinement():
    p = build_heat(12)
    defects = {}
    for steps in (25, 50):
        sol = implicit_euler_solve(p, steps)
        e = energy_balance_audit(p, sol)
        assert np.all(e <= 1e-12)
        defects[steps] = np.max(np.abs(e))
    assert 1.6 <= defects[25] / defects[50] <= 2.4


def test_energy_balance_lambda0_heat_core():
    # diffusion carried by the operator: same O(dt) halving of the defect
    from evomin.applications import build_heat_core
    p = build_heat_core(12)
    defects = {}
    for steps in (25, 50):
        sol = implicit_euler_solve(p, steps)
        e = energy_balance_audit(p, sol)
        assert np.all(e <= 1e-12)
        defects[steps] = np.max(np.abs(e))
    assert 1.6 <= defects[25] / defects[50] <= 2.4


def test_full_gradient_against_dense_differences(rng):
    # every component, not a sample: small instance, both lambda flags
    for p in (scalar_problem(), zero_lambda_problem(lam=0), build_heat(4)):
        traj = random_trajectory(p, 3, rng, scale=0.3)
        g = energy_gradient(p, traj)
        fd = np.zeros_like(g)
        for k in range(3):
            for i in range(p.dim):
                h = 1e-6 * (1.0 + abs(traj.states[k + 1, i]))
                tp = traj.copy()
                tp.states[k + 1, i] += h
                tm = traj.copy()
                tm.states[k + 1, i] -= h
                fd[k, i] = (energy(p, tp) - energy(p, tm)) / (2 * h)
        assert np.max(np.abs(fd - g)) < 1e-6 * max(1.0, np.max(np.abs(g)))


def test_conjugate_failure_carries_step_index():
    from evomin import ConjugateFailure, Potential, ProblemSpec
    from evomin.triple import EvolutionTriple
    # saturating gradient: residuals beyond |y| < 1 have no maximizer
    pot = Potential.custom(lambda x: float(np.sum(np.sqrt(1 + x**2) - 1)),
                           lambda x: x / np.sqrt(1 + x**2), dim=1)
    tri = EvolutionTriple(dim=1, mass=np.eye(1))
    p = ProblemSpec(triple=tri, potential=pot, lambda_op=zero_operator(1), lambda_flag=1,
                    horizon=(0.0, 1.0), initial=np.array([0.0]))
    traj = Trajectory(np.array([[0.0], [2.0], [2.0]]), 0.0, 1.0, np.zeros(1))
    with pytest.raises(ConjugateFailure) as err:
        energy(p, traj)
    assert "step 1" in str(err.value)
    assert err.value.residual > 0


@pytest.mark.parametrize("nan", [True, False])
def test_operator_failure_carries_step_index(nan):
    from evomin import OperatorLambda, Potential, ProblemSpec
    from evomin.operator import OperatorEvaluationError
    from evomin.triple import EvolutionTriple
    # blows up (to NaN or to inf) on states above 1.5: only step 2 of the trajectory below
    bad = np.nan if nan else np.inf
    op = OperatorLambda(dim=1, eval=lambda t, x: np.where(x > 1.5, bad, x),
                        dderiv=lambda t, x, h: h, dderiv_adjoint=lambda t, x, v: v,
                        jacobian=lambda t, x: np.ones(np.shape(x) + (1,)))
    p = ProblemSpec(triple=EvolutionTriple(dim=1, mass=np.eye(1)),
                    potential=Potential.quadratic(np.eye(1)), lambda_op=op, lambda_flag=1,
                    horizon=(0.0, 1.0), initial=np.array([0.0]))
    traj = Trajectory(np.array([[0.0], [1.0], [2.0], [3.0]]), 0.0, 1.0, np.zeros(1))
    for evaluate in (energy, energy_gradient, residual, energy_balance_audit):
        with pytest.raises(OperatorEvaluationError) as err:
            evaluate(p, traj)
        assert str(err.value).startswith("step 2:")


def test_adjoint_failure_carries_step_index():
    from evomin.operator import OperatorEvaluationError
    # only the adjoint blows up, on states above 1.5: step 2 of the trajectory below
    p = build_scalar_decay()
    op = dataclasses.replace(p.lambda_op,
                             dderiv_adjoint=lambda t, x, v: np.where(x > 1.5, np.inf, v))
    p = dataclasses.replace(p, lambda_op=op)
    traj = Trajectory(np.array([[1.0], [1.0], [2.0], [3.0], [4.0]]), 0.0, 1.0, np.ones(1))
    energy(p, traj)
    with pytest.raises(OperatorEvaluationError, match="adjoint") as err:
        energy_gradient(p, traj)
    assert str(err.value).startswith("step 2:")


def test_p_laplacian_energy_and_gradient(rng):
    # q = 4 potential: the conjugate inside the energy goes through Newton
    p = build_parabolic_divergence(6, q=4.0, t1=0.05)
    sol = implicit_euler_solve(p, 5)
    assert abs(energy(p, sol)) < 1e-13
    traj = sol.copy()
    traj.states[1:] += 0.2 * rng.standard_normal(traj.states[1:].shape)
    assert energy(p, traj) > 0
    g = energy_gradient(p, traj)
    gmax = max(np.max(np.abs(g)), 1e-10)
    for _ in range(8):
        k = int(rng.integers(0, traj.steps))
        i = int(rng.integers(0, p.dim))
        h = 1e-6
        tp = traj.copy()
        tp.states[k + 1, i] += h
        tm = traj.copy()
        tm.states[k + 1, i] -= h
        fd = (energy(p, tp) - energy(p, tm)) / (2 * h)
        assert abs(fd - g[k, i]) < 1e-5 * gmax


def test_scaling_invariance(rng):
    # scale mass, Psi and Lambda by c: J scales by c, argmin unchanged
    from evomin import EvolutionTriple, OperatorLambda, Potential, ProblemSpec
    c = 3.0
    p1 = scalar_problem()
    tri = EvolutionTriple(dim=1, mass=c * np.eye(1))
    pot = Potential.quadratic(c * np.eye(1))
    op = OperatorLambda(dim=1, eval=lambda t, x: c * x,
                        dderiv=lambda t, x, h: c * h,
                        dderiv_adjoint=lambda t, x, v: c * v,
                        jacobian=lambda t, x: np.full(np.shape(x) + (1,), c))
    p2 = ProblemSpec(triple=tri, potential=pot, lambda_op=op, lambda_flag=1,
                     horizon=(0.0, 1.0), initial=np.array([1.0]))
    for _ in range(20):
        traj = random_trajectory(p1, 4, rng)
        assert energy(p2, traj) == pytest.approx(c * energy(p1, traj), rel=1e-10)
    s1 = implicit_euler_solve(p1, 4)
    s2 = implicit_euler_solve(p2, 4)
    assert np.max(np.abs(s1.states - s2.states)) < 1e-10
