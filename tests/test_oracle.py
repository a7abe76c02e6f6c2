import dataclasses
import os
import subprocess
import sys
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq

from conftest import (
    pointwise_operator,
    rotation_problem,
    scalar_problem,
    scalar_problem_with_jacobian,
)
from evomin import (
    EvolutionTriple,
    OperatorLambda,
    Potential,
    ProblemSpec,
    energy,
    energy_balance_audit,
    energy_breakdown,
    implicit_euler_solve,
    newton_solve_step,
    oracle,
    residual,
)
from evomin.applications import (
    build_heat,
    build_heat_core,
    build_hyperbolic,
    build_navier_stokes_2d,
    build_parabolic_divergence,
    build_parabolic_nondivergence,
    build_scalar_decay,
    build_schrodinger,
    exact_heat_solution,
)
from evomin import potential as potential_module
from evomin import triple as triple_module
from evomin.operator import OperatorEvaluationError, linear_operator
from evomin.oracle import DEFAULT_NEWTON_TOL, StepFailure


def test_scalar_decay_closed_form():
    p = scalar_problem()
    traj = implicit_euler_solve(p, 1)
    assert traj.states[1, 0] == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_linear_problem_single_newton_iteration():
    p = build_heat(8)
    counter = {}
    traj = implicit_euler_solve(p, 5, counter=counter)
    assert counter["per_step"] == [1] * 5
    # the step is the linear solve (I + dt K) u_k = I u_{k-1}
    inc = p.triple.inclusion_matrix
    stiff = p.potential.hess_matrix(0.0, np.zeros(p.dim))
    u1 = np.linalg.solve(inc + traj.dt * stiff, inc @ traj.states[0])
    assert np.max(np.abs(u1 - traj.states[1])) < 1e-12


def test_cubic_step_against_root_oracle():
    # u' = -u^3 with lambda = 0: one implicit step solves u + dt u^3 = u_prev
    tri = EvolutionTriple(dim=1, mass=np.eye(1))
    pot = Potential.quadratic(np.eye(1))
    op = pointwise_operator(1, lambda v: v**3, lambda v: 3 * v**2)
    p = ProblemSpec(triple=tri, potential=pot, lambda_op=op, lambda_flag=0,
                    horizon=(0.0, 1.0), initial=np.array([1.0]))
    u = newton_solve_step(p, np.array([1.0]), t=1.0, dt=1.0)
    root = brentq(lambda v: v + v**3 - 1.0, 0.0, 1.0, xtol=1e-14)
    assert u[0] == pytest.approx(root, abs=1e-10)
    assert root == pytest.approx(0.68233, abs=1e-5)


def test_fixed_point_at_origin():
    p = scalar_problem(u0=0.0)
    u = newton_solve_step(p, np.zeros(1), t=0.5, dt=0.5)
    assert np.allclose(u, 0.0)


def test_skew_h_norm_nonincreasing():
    p = rotation_problem(t1=2.0, psi_weight=0.5)
    traj = implicit_euler_solve(p, 40)
    norms = [p.triple.h_norm(p.triple.apply_t(s)) for s in traj.states]
    assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))


@pytest.mark.parametrize("build,steps", [
    (lambda: scalar_problem(), 10),
    (lambda: build_heat(16), 25),
    (lambda: build_hyperbolic(12), 20),
])
def test_oracle_energy_near_machine_zero(build, steps):
    p = build()
    traj = implicit_euler_solve(p, steps)
    assert abs(energy(p, traj)) < 1e-16 * steps


def test_first_order_accuracy_against_exact_heat():
    n = 64
    p = build_heat(n, t1=0.1)
    errors = []
    for steps in (20, 40, 80):
        traj = implicit_euler_solve(p, steps)
        exact = exact_heat_solution(n, steps, t1=0.1)
        errors.append(np.max(np.abs(traj.states - exact.states)))
    for a, b in zip(errors, errors[1:]):
        assert 1.7 <= a / b <= 2.3


def _zero_jacobian_problem(op):
    """lam = 0 and Lambda(u) = -u / dt with dt = 1/2: the step Jacobian
    I + dt DLambda is exactly zero."""
    return ProblemSpec(triple=EvolutionTriple(dim=1, mass=np.ones(1)),
                       potential=Potential.quadratic(np.ones(1)),
                       lambda_op=op, lambda_flag=0,
                       horizon=(0.0, 0.5), initial=np.array([1.0]))


def test_singular_step_jacobian_fails_the_step():
    # the zero step Jacobian's one pivot is below PIVOT_FLOOR; the step
    # failure is the only report, with no library warning beside it
    p = _zero_jacobian_problem(linear_operator([[-2.0]]))
    with warnings.catch_warnings(), \
            pytest.raises(StepFailure, match="singular Jacobian at step 1") as err:
        warnings.simplefilter("error")
        implicit_euler_solve(p, 1)
    assert err.value.step == 1 and err.value.residual == 2.0


def test_singular_step_jacobian_on_the_krylov_path(krylov_everywhere):
    # not declared linear, the same Lambda sends the step to GMRES first,
    # which breaks down on the zero Jacobian and gives way to the LU
    p = _zero_jacobian_problem(dataclasses.replace(linear_operator([[-2.0]]), linear=None))
    with warnings.catch_warnings(), \
            pytest.raises(StepFailure, match="singular Jacobian at step 1"):
        warnings.simplefilter("error")
        newton_solve_step(p, p.initial, t=0.5, dt=0.5, step_index=1)


def test_nonfinite_step_jacobian_is_an_operator_error():
    # a hand-built DLambda that is not finite: the oracle names the time
    # instead of handing the matrix to the LU
    with pytest.raises(OperatorEvaluationError,
                       match=r"operator Jacobian returned a non-finite value at t=0\.5$"):
        implicit_euler_solve(scalar_problem_with_jacobian(np.nan), 2)


def test_step_failure_signals_blowup():
    # backward-in-time quartic growth: residual has no root, Newton must stall
    tri = EvolutionTriple(dim=1, mass=np.eye(1))
    pot = Potential.quadratic(np.eye(1))
    op = pointwise_operator(1, lambda v: -1.0 - v**2, lambda v: -2 * v)
    p = ProblemSpec(triple=tri, potential=pot, lambda_op=op, lambda_flag=0,
                    horizon=(0.0, 10.0), initial=np.array([0.0]))
    with pytest.raises(StepFailure) as err:
        implicit_euler_solve(p, 1)
    assert err.value.step == 1
    assert err.value.residual > 0


def test_warm_start_matches_cold():
    p = build_heat(10)
    cold = implicit_euler_solve(p, 8)
    warm = implicit_euler_solve(p, 8, warm_start=cold)
    assert np.max(np.abs(cold.states - warm.states)) < 1e-12
    with pytest.raises(ValueError):
        implicit_euler_solve(p, 9, warm_start=cold)
    with pytest.raises(ValueError):
        implicit_euler_solve(p, 0)


def test_oracle_csv_format():
    from evomin.trajectory import trajectory_to_csv
    p = scalar_problem()
    traj = implicit_euler_solve(p, 2)
    text = trajectory_to_csv(traj)
    assert text.splitlines()[0] == "t,x_0"


# -- Newton-Krylov path (problems of KRYLOV_MIN_DIM unknowns and more) ------

@pytest.fixture
def krylov_everywhere(monkeypatch):
    """Send every problem, however small, down the Newton-Krylov path."""
    monkeypatch.setattr(oracle, "KRYLOV_MIN_DIM", 1)


def _oracle_scale(p, traj):
    """Per step, the term scale newton_solve_step measures its residual against."""
    prev, times = traj.states[:-1], traj.times[1:]
    iu_prev = prev @ p.triple.inclusion_matrix.T
    terms = p.lambda_op(times, prev) + p.potential.grad(times, p.lambda_flag * prev)
    return np.maximum(1.0, np.maximum(np.max(np.abs(iu_prev), axis=1) / traj.dt,
                                      np.max(np.abs(terms), axis=1)))


@pytest.mark.parametrize("k,seed", [(8, 3), (14, 4)])
def test_krylov_path_matches_lu_path(k, seed, monkeypatch):
    steps = 6
    p = build_navier_stokes_2d(k, viscosity=0.1, initial="random", seed=seed, t1=0.6)
    assert p.dim < oracle.KRYLOV_MIN_DIM
    lu_count, krylov_count = {}, {}
    lu = implicit_euler_solve(p, steps, counter=lu_count)
    monkeypatch.setattr(oracle, "KRYLOV_MIN_DIM", 1)
    krylov = implicit_euler_solve(p, steps, counter=krylov_count)
    assert "krylov_iters" not in lu_count
    assert krylov_count["krylov_iters"] > 0 and krylov_count["krylov_fallbacks"] == 0
    # both solve every step to newton_tol relative; the gap can build up over the steps
    scale = max(1.0, float(np.max(np.abs(lu.states))))
    assert np.max(np.abs(krylov.states - lu.states)) < steps * DEFAULT_NEWTON_TOL * scale
    for traj in (krylov, lu):
        r = np.max(np.abs(residual(p, traj)), axis=1)
        assert np.all(r < DEFAULT_NEWTON_TOL * _oracle_scale(p, traj))


def test_krylov_iterations_counted_only_on_krylov_path():
    large = build_navier_stokes_2d(24, initial="random", seed=1, t1=0.2)
    assert large.dim >= oracle.KRYLOV_MIN_DIM
    counter = {}
    implicit_euler_solve(large, 2, counter=counter)
    assert counter["krylov_iters"] > 0
    assert len(counter["krylov_per_step"]) == 2
    assert sum(counter["krylov_per_step"]) == counter["krylov_iters"]
    assert counter["krylov_fallbacks"] == 0
    assert all(n > 0 for n in counter["per_step"])
    for small in (build_navier_stokes_2d(8, initial="random", seed=1, t1=0.3), build_heat(8)):
        dense = {}
        implicit_euler_solve(small, 3, counter=dense)
        assert dense["newton_iters"] > 0
        assert not any(key.startswith("krylov") for key in dense)


def test_coupled_linear_part_keeps_the_lu_path(monkeypatch):
    # heat couples neighbours in I + dt D^2Psi, so Jacobi cannot invert it:
    # above the size threshold every step goes straight to the dense LU and
    # gives the bits of the LU path
    p = build_heat(oracle.KRYLOV_MIN_DIM)
    counter = {}
    traj = implicit_euler_solve(p, 2, counter=counter)
    assert counter["krylov_iters"] == 0 and counter["krylov_fallbacks"] == 2
    monkeypatch.setattr(oracle, "KRYLOV_MIN_DIM", p.dim + 1)
    assert np.array_equal(traj.states, implicit_euler_solve(p, 2).states)


def _stiff_hand_built_problem(lambda_flag):
    """u + dt (L u + lam u) = u_prev with L the 1D Dirichlet Laplacian, at
    320 unknowns (above KRYLOV_MIN_DIM), through an operator that declares no
    linear part."""
    n = 320
    assert n >= oracle.KRYLOV_MIN_DIM
    lap = (n + 1) ** 2 * (2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1))
    tri = EvolutionTriple(dim=n, mass=np.ones(n))
    op = OperatorLambda(dim=n, eval=lambda t, x: x @ lap.T, dderiv=lambda t, x, h: h @ lap.T,
                        dderiv_adjoint=lambda t, x, v: v @ lap,
                        jacobian=lambda t, x: np.broadcast_to(lap, np.shape(x) + (n,)))
    x = np.linspace(0.0, 1.0, n + 2)[1:-1]
    return ProblemSpec(triple=tri, potential=Potential.quadratic(np.ones(n)), lambda_op=op,
                       lambda_flag=lambda_flag, horizon=(0.0, 1.0),
                       initial=np.sin(np.pi * x) + x)


@pytest.fixture
def krylov_solves(monkeypatch):
    """Record every GMRES solve as (its arguments, direction, inner iterations)."""
    solves = []
    krylov = oracle._krylov_direction

    def recorded(*args):
        direction, inner = krylov(*args)
        solves.append((args, direction, inner))
        return direction, inner

    monkeypatch.setattr(oracle, "_krylov_direction", recorded)
    return solves


def test_krylov_path_falls_back_to_lu_on_stiff_operator(krylov_solves):
    # u + dt L u = u_prev with L the 1D Dirichlet Laplacian: the first GMRES
    # solve meets the loose forcing term KRYLOV_ETA_MAX, but Jacobi-
    # preconditioned GMRES(30) cannot reach the tighter one that follows at
    # this stiffness; that miss costs every restart, and the dense LU then
    # solves the linear step.  The operator is written by hand, so it declares
    # no linear part and the step tries GMRES first (a declared linear Lambda
    # goes straight to the LU)
    p = _stiff_hand_built_problem(lambda_flag=0)
    n, lap = p.dim, p.lambda_op.jacobian_matrix(1.0, p.initial)
    counter = {}
    u = newton_solve_step(p, p.initial, t=1.0, dt=1.0, counter=counter)
    assert [direction is not None for _, direction, _ in krylov_solves] == [True, False]
    assert krylov_solves[0][0][-1] == oracle.KRYLOV_ETA_MAX
    assert krylov_solves[1][2] == oracle.KRYLOV_RESTART * oracle.KRYLOV_MAXITER
    assert counter["krylov_iters"] == sum(inner for _, _, inner in krylov_solves)
    assert counter["krylov_fallbacks"] == 1
    assert counter["newton_iters"] == 2
    exact = np.linalg.solve(np.eye(n) + lap, p.initial)
    assert np.max(np.abs(u - exact)) < 1e-10 * np.max(np.abs(exact))


def test_gmres_restarts_and_converges_without_fallback(krylov_solves):
    # the stiff Laplacian step at dt = 1e-4: one solve needs more than
    # KRYLOV_RESTART inner iterations, restarts from its true residual and
    # still meets its forcing term, and the step converges on GMRES alone
    p = _stiff_hand_built_problem(lambda_flag=0)
    n, lap, dt = p.dim, p.lambda_op.jacobian_matrix(1.0, p.initial), 1e-4
    counter = {}
    u = newton_solve_step(p, p.initial, t=1.0, dt=dt, counter=counter)
    assert max(inner for _, _, inner in krylov_solves) > oracle.KRYLOV_RESTART
    assert all(direction is not None for _, direction, _ in krylov_solves)
    assert counter["krylov_fallbacks"] == 0
    exact = np.linalg.solve(np.eye(n) + dt * lap, p.initial)
    assert np.max(np.abs(u - exact)) < 1e-10 * np.max(np.abs(exact))


def test_gmres_happy_breakdown_gives_the_exact_direction(krylov_everywhere, monkeypatch):
    # below KRYLOV_RESTART unknowns and with no forcing slack, GMRES ends on
    # the breakdown at dim inner iterations with the exact Newton direction,
    # so the linear step is solved in one Newton iteration; it makes one
    # DLambda product per inner iteration and no final check
    n = 6
    a = np.random.default_rng(5).standard_normal((n, n))
    products = []
    op = OperatorLambda(dim=n, eval=lambda t, x: x @ a.T,
                        dderiv=lambda t, x, h: products.append(h) or h @ a.T,
                        dderiv_adjoint=lambda t, x, v: v @ a,
                        jacobian=lambda t, x: np.broadcast_to(a, np.shape(x) + (n,)))
    mass = np.linspace(1.0, 2.0, n)
    p = ProblemSpec(triple=EvolutionTriple(dim=n, mass=mass),
                    potential=Potential.quadratic(np.ones(n)), lambda_op=op, lambda_flag=0,
                    horizon=(0.0, 1.0), initial=np.arange(1.0, n + 1.0))
    monkeypatch.setattr(oracle, "KRYLOV_ETA_MAX", 0.0)
    counter = {}
    dt = 0.25
    u = newton_solve_step(p, p.initial, t=1.0, dt=dt, counter=counter)
    exact = np.linalg.solve(np.diag(mass) + dt * a, mass * p.initial)
    assert np.max(np.abs(u - exact)) < 1e-13 * np.max(np.abs(exact))
    assert counter["newton_iters"] == 1 and counter["krylov_fallbacks"] == 0
    assert counter["krylov_iters"] == len(products) == n


def test_krylov_direction_meets_its_forcing_term(krylov_everywhere, krylov_solves):
    # every direction d that GMRES returns satisfies
    # |f + (diag + dt DLambda(u)) d|_2 <= rtol |f|_2 on the true residual,
    # with DLambda the spectral convection_jacobian
    p = build_navier_stokes_2d(16, initial="random", seed=2, t1=0.4)
    counter = {}
    implicit_euler_solve(p, 2, counter=counter)
    assert counter["krylov_fallbacks"] == 0 and len(krylov_solves) == counter["newton_iters"]
    basis = p.metadata["_basis"]
    for (_, u, diag, f, _, dt, rtol), d, _ in krylov_solves:
        jac = np.diag(diag) + dt * basis.convection_jacobian(u)
        assert np.linalg.norm(f + jac @ d) <= rtol * np.linalg.norm(f)
        assert 0.0 < rtol <= oracle.KRYLOV_ETA_MAX


def test_krylov_path_loads_neither_scipy_sparse_nor_linalg():
    # the in-house GMRES replaced scipy's, so a Navier-Stokes solve on the
    # Newton-Krylov path imports neither scipy.sparse nor, since it takes no
    # LU, scipy.linalg
    code = ("import sys\n"
            "from evomin import build_navier_stokes_2d, implicit_euler_solve, oracle\n"
            "p = build_navier_stokes_2d(24, initial='random', seed=1, t1=0.2)\n"
            "counter = {}\n"
            "implicit_euler_solve(p, 2, counter=counter)\n"
            "assert p.dim >= oracle.KRYLOV_MIN_DIM and counter['krylov_iters'] > 0\n"
            "heavy = ('scipy.sparse', 'scipy.linalg')\n"
            "print(sorted(m for m in sys.modules if m.startswith(heavy)))\n")
    src = str(Path(oracle.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_declared_linear_operator_takes_the_lu_path():
    # heat_core carries its stiff Laplacian in a Lambda declared linear: every
    # step goes straight to the dense LU, where Jacobi-preconditioned GMRES
    # needed 447 inner iterations, 11 Newton iterations and one fallback
    p = build_heat_core(320)
    assert p.dim >= oracle.KRYLOV_MIN_DIM and p.lambda_op.linear is not None
    counter = {}
    traj = implicit_euler_solve(p, 5, counter=counter)
    assert counter["krylov_iters"] == 0 and counter["krylov_fallbacks"] == 5
    assert counter["newton_iters"] <= 5
    r = np.max(np.abs(residual(p, traj)), axis=1)
    assert np.all(r < DEFAULT_NEWTON_TOL * _oracle_scale(p, traj))


@pytest.mark.parametrize("path", ["gmres", "lu", "gmres_then_lu"])
def test_one_hessian_evaluation_per_newton_iteration(path, monkeypatch):
    # D^2Psi(lam u) is read once per Newton iteration, whichever direction the
    # iteration takes: GMRES reads its diagonal, the LU its dense form, and a
    # GMRES miss falls back to the LU on the same evaluation (the LU case is a
    # q = 4 power, whose step Jacobian is not declared constant)
    p, steps = {
        "gmres": (build_navier_stokes_2d(24, initial="random", t1=0.2), 2),
        "lu": (build_parabolic_divergence(8, q=4.0), 3),
        "gmres_then_lu": (_stiff_hand_built_problem(lambda_flag=1), 1),
    }[path]
    assert p.lambda_flag == 1
    calls = []
    read = Potential.hess_matrix

    def counted(self, t, x):
        calls.append(t)
        return read(self, t, x)

    monkeypatch.setattr(Potential, "hess_matrix", counted)
    counter = {}
    implicit_euler_solve(p, steps, counter=counter)
    assert counter["newton_iters"] > 0
    assert len(calls) == counter["newton_iters"]
    if path != "lu":
        assert counter["krylov_iters"] > 0
        assert counter["krylov_fallbacks"] == (path == "gmres_then_lu")


# Lambda declared linear with lam = 0 or a constant D^2Psi: one step Jacobian
CONSTANT_JACOBIAN = {
    "heat": lambda: build_heat(8),
    "heat_core": lambda: build_heat_core(8),
    "scalar_decay": build_scalar_decay,
    "hyperbolic": lambda: build_hyperbolic(8),
    "schrodinger": lambda: build_schrodinger(8),
    "parabolic_nondivergence": lambda: build_parabolic_nondivergence(8),
}


@pytest.mark.parametrize("family", sorted(CONSTANT_JACOBIAN))
def test_constant_step_jacobian_is_factored_once_per_solve(family, monkeypatch):
    # the first Newton iteration that needs a direction factors the Jacobian,
    # and every later iteration of every step solves with those factors and
    # reads no D^2Psi; a solve whose every step starts converged factors none
    p = CONSTANT_JACOBIAN[family]()
    factored, hessians = [], []
    factor, read = oracle.lu_factor, Potential.hess_matrix
    monkeypatch.setattr(oracle, "lu_factor", lambda a: factored.append(a) or factor(a))
    monkeypatch.setattr(Potential, "hess_matrix",
                        lambda self, t, x: hessians.append(t) or read(self, t, x))
    counter = {}
    implicit_euler_solve(p, 8, counter=counter)
    assert counter["newton_iters"] >= 8
    assert len(factored) == 1 and len(hessians) <= 1
    factored.clear()
    counter = {}
    implicit_euler_solve(dataclasses.replace(p, initial=np.zeros(p.dim)), 8, counter=counter)
    assert factored == [] and counter["newton_iters"] == 0


@pytest.mark.parametrize("family", sorted(CONSTANT_JACOBIAN))
def test_cached_factors_give_the_bits_of_per_step_solves(family):
    # newton_solve_step called on its own factors its Jacobian each time;
    # the solve's one factorization is of the very same matrix
    p = CONSTANT_JACOBIAN[family]()
    traj = implicit_euler_solve(p, 8)
    states = [p.initial]
    for k in range(1, 9):
        states.append(newton_solve_step(p, states[-1], traj.t0 + k * traj.dt, traj.dt,
                                        step_index=k))
    assert np.array_equal(traj.states, np.array(states))


def test_krylov_path_wrong_derivative_fails_the_step(krylov_everywhere):
    # dderiv is the negated derivative of Lambda = 3 x: the GMRES direction
    # points uphill, so the damped line search must give up
    tri = EvolutionTriple(dim=4, mass=np.ones(4))
    op = OperatorLambda(dim=4, eval=lambda t, x: 3.0 * x,
                        dderiv=lambda t, x, h: -3.0 * h,
                        dderiv_adjoint=lambda t, x, v: -3.0 * v,
                        jacobian=lambda t, x: np.broadcast_to(-3.0 * np.eye(4), np.shape(x) + (4,)))
    p = ProblemSpec(triple=tri, potential=Potential.quadratic(np.ones(4)), lambda_op=op,
                    lambda_flag=0, horizon=(0.0, 1.0), initial=np.array([1.0, -2.0, 0.5, 3.0]))
    with pytest.raises(StepFailure, match="line search stalled") as err:
        implicit_euler_solve(p, 1)
    assert err.value.step == 1


def test_krylov_path_solves_custom_operator(krylov_everywhere):
    # u + dt (u^3 + u) = u_prev componentwise
    tri = EvolutionTriple(dim=3, mass=np.ones(3))
    op = pointwise_operator(3, lambda v: v**3, lambda v: 3 * v**2)
    p = ProblemSpec(triple=tri, potential=Potential.quadratic(np.ones(3)), lambda_op=op,
                    lambda_flag=1, horizon=(0.0, 0.5), initial=np.array([1.0, -0.5, 2.0]))
    counter = {}
    u = newton_solve_step(p, p.initial, t=0.5, dt=0.5, counter=counter)
    # certificate: |F|_inf < dt * newton_tol * scale, scale = |u_prev^3 + u_prev|_inf = 10
    assert np.max(np.abs(u + 0.5 * (u**3 + u) - p.initial)) < 0.5 * DEFAULT_NEWTON_TOL * 10.0
    assert counter["krylov_iters"] > 0 and counter["krylov_fallbacks"] == 0


def test_custom_potential_takes_the_lu_path(krylov_everywhere, monkeypatch):
    # a custom Psi declares no diagonal Hessian, even one that is diagonal
    # (here D^2Psi = I): lin is not known to be diagonal, so every Newton
    # iteration takes the dense LU and gives the bits of the LU path
    tri = EvolutionTriple(dim=2, mass=np.ones(2))
    op = linear_operator(3.0 * np.eye(2))
    pot = Potential.custom(psi=lambda x: 0.5 * x @ x, grad=lambda x: x, dim=2,
                           hess_action=lambda x, h: h)
    p = ProblemSpec(triple=tri, potential=pot, lambda_op=op, lambda_flag=1,
                    horizon=(0.0, 1.0), initial=np.array([1.0, -2.0]))
    counter = {}
    u = newton_solve_step(p, p.initial, t=1.0, dt=1.0, counter=counter)
    assert np.max(np.abs(u - p.initial / 5.0)) < 1e-12
    assert counter["krylov_iters"] == 0 and counter["krylov_fallbacks"] == 1
    monkeypatch.setattr(oracle, "KRYLOV_MIN_DIM", p.dim + 1)
    assert np.array_equal(u, newton_solve_step(p, p.initial, t=1.0, dt=1.0))


def _reachable_arrays(obj, seen=None):
    """Every ndarray reachable from obj through attributes, containers and
    the closures and defaults of functions."""
    seen = set() if seen is None else seen
    if id(obj) in seen or isinstance(obj, (type, types.ModuleType, str, bytes)):
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        yield obj
        return
    if isinstance(obj, dict):
        children = list(obj.values())
    elif isinstance(obj, (list, tuple, set)):
        children = list(obj)
    elif isinstance(obj, types.FunctionType):
        children = [c.cell_contents for c in obj.__closure__ or ()] + list(obj.__defaults__ or ())
    else:
        children = list(getattr(obj, "__dict__", {}).values())
    for child in children:
        yield from _reachable_arrays(child, seen)


def test_navier_stokes_krylov_path_forms_no_dense_matrix(monkeypatch):
    # above KRYLOV_MIN_DIM the diagonal linear part comes from the triple and
    # the potential, and the convection acts through its FFT maps alone; the
    # build stores its diagonals as vectors, and the energy, its balance audit
    # and the residual need no dense matrix either
    big = build_navier_stokes_2d(32, initial="random")
    arrays = list(_reachable_arrays(big))
    assert any(a is big.triple.mass for a in arrays)
    assert max(a.size for a in arrays) < big.dim ** 2
    p = build_navier_stokes_2d(24, initial="random")
    assert p.dim >= oracle.KRYLOV_MIN_DIM

    def formed(*args, **kwargs):
        raise AssertionError("a dense matrix was formed on the Newton-Krylov path")

    monkeypatch.setattr(oracle, "dense", formed)
    monkeypatch.setattr(triple_module, "dense", formed)
    monkeypatch.setattr(type(p.metadata["_basis"]), "convection_jacobian", formed)
    monkeypatch.setattr(oracle, "lu_factor", formed)
    monkeypatch.setattr(potential_module, "cho_solve", formed)
    counter = {}
    traj = implicit_euler_solve(p, 2, counter=counter)
    assert counter["krylov_fallbacks"] == 0 and counter["krylov_iters"] > 0
    assert np.all(np.isfinite(traj.states))
    assert np.isfinite(energy_breakdown(p, traj).total)
    assert np.all(np.isfinite(energy_balance_audit(p, traj)))
    assert np.all(np.isfinite(residual(p, traj)))
