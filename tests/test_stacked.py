"""Parity of the stacked (M, n) row paths with the single-state calls.

Every stacked call must reproduce, row by row, the single-state call at that
row's time; the energy and its gradient must reproduce a per-step reference
written here from the public single-state calls only.
"""

import numpy as np
import pytest

from conftest import random_trajectory
from evomin import energy_balance_audit, energy_breakdown, energy_gradient, residual
from evomin.applications import (
    PointwiseMap,
    build_anticoercive_fixture,
    build_heat,
    build_heat_core,
    build_hyperbolic,
    build_navier_stokes_2d,
    build_parabolic_divergence,
    build_parabolic_nondivergence,
    build_scalar_decay,
    build_schrodinger,
)
from evomin.trajectory import time_derivative

ROWS = 5
RTOL = 1e-13


def _theta(s, v):
    return 0.2 * np.sin(s) - 0.3 * v


BUILDERS = {
    "scalar_decay": lambda: build_scalar_decay(),
    "anticoercive_fixture": lambda: build_anticoercive_fixture(),
    "heat": lambda: build_heat(8),
    "heat_core": lambda: build_heat_core(8),
    "parabolic_divergence_q2_time_scale": lambda: build_parabolic_divergence(
        8, theta=PointwiseMap.linear(-0.7), xi=PointwiseMap.saturated_cubic(0.3),
        gamma=PointwiseMap.arctan(0.5), time_scale=2.0),
    "parabolic_divergence_q4_time_scale": lambda: build_parabolic_divergence(
        6, q=4.0, theta=PointwiseMap.linear(-0.7), xi=PointwiseMap.saturated_cubic(0.3),
        gamma=PointwiseMap.arctan(0.5), time_scale=2.0),
    "parabolic_nondivergence": lambda: build_parabolic_nondivergence(
        8, gamma=PointwiseMap.arctan(0.4), theta=_theta,
        theta_derivs=(lambda s, v: 0.2 * np.cos(s), lambda s, v: np.full_like(v, -0.3))),
    "hyperbolic": lambda: build_hyperbolic(6, damping=0.3, nonlinearity=0.5),
    "schrodinger": lambda: build_schrodinger(6, couplings=(0.4, 0.2)),
    "navier_stokes_k8": lambda: build_navier_stokes_2d(8, initial="random", seed=1),
}


def _assert_rows_match(stacked, rows):
    stacked = np.asarray(stacked)
    rows = np.asarray(rows)
    assert stacked.shape == rows.shape
    scale = np.max(np.abs(rows.reshape(len(rows), -1)), axis=1)
    err = np.max(np.abs((stacked - rows).reshape(len(rows), -1)), axis=1)
    assert np.all(err <= RTOL * np.maximum(scale, 1e-300)), (err, scale)


@pytest.mark.parametrize("name", list(BUILDERS))
def test_stacked_calls_match_single_state_calls(name, rng):
    problem = BUILDERS[name]()
    op, pot = problem.lambda_op, problem.potential
    t0, t1 = problem.horizon
    times = np.sort(rng.uniform(t0, t1, ROWS))
    xs = rng.standard_normal((ROWS, problem.dim))
    vs = rng.standard_normal((ROWS, problem.dim))
    ys = rng.standard_normal((ROWS, problem.dim))
    single = list(zip(times, xs, vs, ys))

    _assert_rows_match(op(times, xs), [op(t, x) for t, x, _, _ in single])
    _assert_rows_match(op.dlambda_adjoint(times, xs, vs),
                       [op.dlambda_adjoint(t, x, v) for t, x, v, _ in single])
    _assert_rows_match(pot.psi(times, xs), [pot.psi(t, x) for t, x, _, _ in single])
    _assert_rows_match(pot.grad(times, xs), [pot.grad(t, x) for t, x, _, _ in single])
    _assert_rows_match(pot.conjugate_argmax(times, ys),
                       [pot.conjugate_argmax(t, y) for t, _, _, y in single])
    _assert_rows_match(pot.conjugate(times, ys),
                       [pot.conjugate(t, y) for t, _, _, y in single])


def test_shared_time_is_broadcast_over_rows(rng):
    problem = BUILDERS["parabolic_divergence_q4_time_scale"]()
    xs = rng.standard_normal((ROWS, problem.dim))
    _assert_rows_match(problem.potential.grad(0.03, xs),
                       [problem.potential.grad(0.03, x) for x in xs])
    _assert_rows_match(problem.lambda_op(0.03, xs),
                       [problem.lambda_op(0.03, x) for x in xs])


def _reference(problem, traj):
    """Per-step energy terms, gradient, residual and audit from single-state calls."""
    tri, pot, op = problem.triple, problem.potential, problem.lambda_op
    lam, dt, m = problem.lambda_flag, traj.dt, traj.steps
    inc = tri.inclusion_matrix
    times, states = traj.times, traj.states
    derivs = time_derivative(tri, traj)
    psi, star, pair = np.zeros(m), np.zeros(m), np.zeros(m)
    rt, zs, res = np.empty((m, traj.dim)), np.empty((m, traj.dim)), np.empty((m, traj.dim))
    audit, acc = np.empty(m), 0.0
    h0 = 0.5 * tri.h_inner(traj.w0, traj.w0)
    for k in range(m):
        t, u = times[k + 1], states[k + 1]
        rt[k] = derivs[k] + op(t, u)
        star[k] = pot.conjugate(t, -rt[k])
        zs[k] = pot.conjugate_argmax(t, -rt[k])
        res[k] = rt[k] + (pot.grad(t, lam * u) if lam else 0.0)
        if lam:
            psi[k] = pot.psi(t, lam * u)
            pair[k] = lam * float(u @ rt[k])
        acc += dt * float(u @ (res[k] - derivs[k]))
        tu = tri.apply_t(u)
        audit[k] = 0.5 * tri.h_inner(tu, tu) + acc - h0
    grad = np.empty((m, traj.dim))
    for k in range(m):
        t, u = times[k + 1], states[k + 1]
        g = -(inc @ zs[k]) + dt * op.dlambda_adjoint(t, u, lam * u - zs[k])
        if lam:
            g += dt * pot.grad(t, lam * u) + dt * rt[k] + inc @ u
        if k + 1 < m:
            g += inc @ zs[k + 1]
            if lam:
                g -= inc @ states[k + 2]
        grad[k] = g
    return psi, star, pair, grad, res, audit


@pytest.mark.parametrize("name", list(BUILDERS))
def test_energy_pass_matches_per_step_reference(name, rng):
    problem = BUILDERS[name]()
    traj = random_trajectory(problem, 4, rng, scale=0.3)
    psi, star, pair, grad, res, audit = _reference(problem, traj)
    bd = energy_breakdown(problem, traj)
    total = traj.dt * np.sum(psi + star + pair)
    scale = traj.dt * np.sum(np.abs(psi) + np.abs(star) + np.abs(pair))
    assert abs(bd.total - total) <= 1e-12 * scale
    for got, want in ((bd.psi_terms, psi), (bd.star_terms, star),
                      (bd.pairing_terms, pair)):
        assert np.max(np.abs(got - want)) <= 1e-12 * max(np.max(np.abs(want)), 1e-300)
    for got, want in ((energy_gradient(problem, traj), grad),
                      (energy_gradient(problem, traj, bd), grad),
                      (residual(problem, traj), res),
                      (energy_balance_audit(problem, traj), audit)):
        assert np.max(np.abs(got - want)) <= 1e-12 * max(np.max(np.abs(want)), 1e-300)
