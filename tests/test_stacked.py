"""Parity of the stacked (M, n) row paths with the single-state calls.

Every stacked call must reproduce, row by row, the single-state call at that
row's time; the energy and its gradient must reproduce a per-step reference
written here from the public single-state calls only, and the hypothesis
checkers the per-sample references in conftest.
"""

import numpy as np
import pytest

import evomin.checks as checks_module
from conftest import (
    random_trajectory,
    reference_coercivity,
    reference_growth,
    reference_monotonicity,
)
from evomin import (
    OperatorLambda,
    check_coercivity,
    check_growth,
    check_monotonicity,
    energy_balance_audit,
    energy_breakdown,
    energy_gradient,
    residual,
)
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
from evomin.operator import OperatorEvaluationError
from evomin.trajectory import time_derivative

ROWS = 5
RTOL = 1e-13


def _theta(s, v):
    return 0.2 * np.sin(s) - 0.3 * v


_THETA_DERIVS = (lambda s, v: 0.2 * np.cos(s), lambda s, v: np.full_like(v, -0.3))


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
    "parabolic_divergence_xi_only": lambda: build_parabolic_divergence(
        8, xi=PointwiseMap.saturated_cubic(0.3)),
    "parabolic_nondivergence": lambda: build_parabolic_nondivergence(
        8, gamma=PointwiseMap.arctan(0.4), theta=_theta,
        theta_derivs=_THETA_DERIVS),
    "parabolic_nondivergence_theta_only": lambda: build_parabolic_nondivergence(
        8, theta=_theta, theta_derivs=_THETA_DERIVS),
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


@pytest.mark.parametrize("name", list(BUILDERS))
def test_stacked_dlambda_matches_single_state_calls(name, rng):
    problem = BUILDERS[name]()
    op = problem.lambda_op
    times = np.sort(rng.uniform(*problem.horizon, ROWS))
    xs = rng.standard_normal((ROWS, problem.dim))
    hs = rng.standard_normal((ROWS, problem.dim))
    _assert_rows_match(op.dlambda(times, xs, hs),
                       [op.dlambda(t, x, h) for t, x, h in zip(times, xs, hs)])
    _assert_rows_match(op.dlambda(times[0], xs, hs),
                       [op.dlambda(times[0], x, h) for x, h in zip(xs, hs)])


@pytest.mark.parametrize("name", list(BUILDERS))
def test_stacked_jacobian_matches_single_state_calls_bit_for_bit(name, rng):
    problem = BUILDERS[name]()
    op, n = problem.lambda_op, problem.dim
    times = np.sort(rng.uniform(*problem.horizon, ROWS))
    xs = rng.standard_normal((ROWS, n))
    stacked = op.jacobian_matrix(times, xs)
    assert stacked.shape == (ROWS, n, n)
    for t, x, block in zip(times, xs, stacked):
        assert np.array_equal(block, op.jacobian_matrix(t, x))
    shared = op.jacobian_matrix(times[0], xs)
    for x, block in zip(xs, shared):
        assert np.array_equal(block, op.jacobian_matrix(times[0], x))


@pytest.mark.parametrize("name", list(BUILDERS))
def test_derivative_callables_agree_with_jacobian(name, rng):
    problem = BUILDERS[name]()
    op = problem.lambda_op
    t = problem.horizon[1] / 2
    x, h, v = rng.standard_normal((3, problem.dim))
    jac = op.jacobian_matrix(t, x)
    dd = op.dlambda(t, x, h)
    for got, want in ((dd, jac @ h), (op.dlambda_adjoint(t, x, v), jac.T @ v)):
        assert np.max(np.abs(got - want)) <= 1e-12 * max(np.max(np.abs(want)), 1.0)
    s = 1e-6
    fd = (op(t, x + s * h) - op(t, x - s * h)) / (2 * s)
    assert np.max(np.abs(fd - dd)) <= 1e-6 * max(np.max(np.abs(dd)), 1.0)


@pytest.mark.parametrize("nan", [True, False])
def test_dlambda_names_the_first_nonfinite_row(nan):
    # the slope turns NaN or inf above 1: either is caught
    def slope(x):
        return np.where(x > 1.0, np.nan if nan else np.inf, 1.0)

    op = OperatorLambda(dim=2, eval=lambda t, x: x.copy(),
                        dderiv=lambda t, x, h: slope(x) * h,
                        dderiv_adjoint=lambda t, x, v: slope(x) * v,
                        jacobian=lambda t, x: np.apply_along_axis(np.diag, -1, slope(x)))
    xs = np.zeros((ROWS, 2))
    xs[3, 1] = xs[4, 0] = 2.0
    with pytest.raises(OperatorEvaluationError, match="derivative") as err:
        op.dlambda(np.linspace(0.0, 1.0, ROWS), xs, np.ones((ROWS, 2)))
    assert err.value.row == 3
    with pytest.raises(OperatorEvaluationError) as err:
        op.dlambda(0.5, xs[3], np.ones(2))
    assert err.value.row is None
    # the adjoint is checked like the derivative
    with pytest.raises(OperatorEvaluationError, match="adjoint") as err:
        op.dlambda_adjoint(np.linspace(0.0, 1.0, ROWS), xs, np.ones((ROWS, 2)))
    assert err.value.row == 3
    with pytest.raises(OperatorEvaluationError, match="adjoint") as err:
        op.dlambda_adjoint(0.5, xs[3], np.ones(2))
    assert err.value.row is None
    # and so is the Jacobian
    with pytest.raises(OperatorEvaluationError, match="Jacobian") as err:
        op.jacobian_matrix(np.linspace(0.0, 1.0, ROWS), xs)
    assert err.value.row == 3
    with pytest.raises(OperatorEvaluationError, match="Jacobian") as err:
        op.jacobian_matrix(0.5, xs[3])
    assert err.value.row is None


def test_jacobian_of_the_wrong_shape_is_a_value_error():
    # a Jacobian that answers one (dim, dim) matrix whatever it is given
    op = OperatorLambda(dim=2, eval=lambda t, x: x.copy(), dderiv=lambda t, x, h: h.copy(),
                        dderiv_adjoint=lambda t, x, v: v.copy(),
                        jacobian=lambda t, x: np.eye(2))
    assert np.array_equal(op.jacobian_matrix(0.5, np.zeros(2)), np.eye(2))
    with pytest.raises(ValueError, match=r"Jacobian returned shape \(2, 2\) for a state "
                                         r"of shape \(3, 2\)"):
        op.jacobian_matrix(np.zeros(3), np.zeros((3, 2)))
    with pytest.raises(ValueError, match="Jacobian returned shape"):
        op.jacobian_matrix(0.5, np.zeros(3))


@pytest.mark.parametrize("name", list(BUILDERS))
def test_row_norms_match_single_state_calls(name, rng):
    tri = BUILDERS[name]().triple
    xs = rng.standard_normal((ROWS, tri.dim))
    _assert_rows_match(tri.x_norm(xs), [tri.x_norm(x) for x in xs])
    _assert_rows_match(tri.t_norm_sq(xs),
                       [tri.h_inner(tri.apply_t(x), tri.apply_t(x)) for x in xs])
    assert tri.t_norm_sq(xs[0]) == pytest.approx(
        tri.h_inner(tri.apply_t(xs[0]), tri.apply_t(xs[0])), rel=RTOL)


ZERO_LAMBDA = {
    "heat": lambda: build_heat(8),
    "parabolic_nondivergence_linear": lambda: build_parabolic_nondivergence(8),
}


@pytest.mark.parametrize("name", list(ZERO_LAMBDA))
def test_absent_terms_give_exact_zeros(name, rng):
    problem = ZERO_LAMBDA[name]()
    op, n = problem.lambda_op, problem.dim
    times = rng.uniform(*problem.horizon, ROWS)
    xs = rng.standard_normal((ROWS, n))
    hs = rng.standard_normal((ROWS, n))
    outs = [(op(times, xs), (ROWS, n)),
            (op.dlambda(times, xs, hs), (ROWS, n)),
            (op.dlambda_adjoint(times, xs, hs), (ROWS, n)),
            (op.jacobian_matrix(times, xs), (ROWS, n, n))]
    for t, x, h in zip(times, xs, hs):
        outs += [(op(t, x), (n,)), (op.dlambda(t, x, h), (n,)),
                 (op.dlambda_adjoint(t, x, h), (n,)), (op.jacobian_matrix(t, x), (n, n))]
    for out, shape in outs:
        assert out.shape == shape
        assert not np.any(out)


CHECK_SAMPLES = 300


@pytest.mark.parametrize("name", list(BUILDERS))
def test_checkers_match_per_sample_reference(name, monkeypatch):
    # small blocks, so every checker runs several of them and an uneven last one
    monkeypatch.setattr(checks_module, "CHECK_BLOCK_ENTRIES", 400)
    problem = BUILDERS[name]()

    def rng():
        return np.random.default_rng(7)

    runs = (
        (check_growth(problem, CHECK_SAMPLES, c0=10.0, rng=rng()),
         reference_growth(problem, CHECK_SAMPLES, 10.0, rng())),
        (check_monotonicity(problem, CHECK_SAMPLES, rng=rng()),
         reference_monotonicity(problem, CHECK_SAMPLES, rng())),
        (check_coercivity(problem, CHECK_SAMPLES, rng=rng()),
         reference_coercivity(problem, CHECK_SAMPLES, rng())),
    )
    for rep, (bad, constants) in runs:
        assert rep.violations.tolist() == bad, rep.name
        assert rep.fitted_constants.keys() == constants.keys()
        for key, want in constants.items():
            got = rep.fitted_constants[key]
            assert got == want or abs(got - want) <= 1e-12 * abs(want), (rep.name, key)


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
