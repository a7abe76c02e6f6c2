import dataclasses

import numpy as np
import pytest

from evomin import (
    EvolutionTriple,
    OperatorLambda,
    Potential,
    ProblemSpec,
    Trajectory,
    XNorm,
)
from evomin.applications import PointwiseMap
from evomin.checks import sample_states
from evomin.operator import Term, linear_operator, term_operator


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def scalar_problem(lam=1, t1=1.0, u0=1.0):
    """Lambda(u) = u, Psi = u^2/2: the hand-solvable decay equation."""
    triple = EvolutionTriple(dim=1, mass=np.eye(1))
    pot = Potential.quadratic(np.eye(1))
    return ProblemSpec(triple=triple, potential=pot, lambda_op=linear_operator(np.eye(1)),
                       lambda_flag=lam, horizon=(0.0, t1), initial=np.array([u0]))


def scalar_problem_with_jacobian(value):
    """scalar_problem with a hand-built Lambda(u) = u that declares the Jacobian
    [[value]], wrong unless value is 1: the certificate reads no Jacobian, so
    only the Newton directions see it."""
    p = scalar_problem()
    op = OperatorLambda(dim=1, eval=lambda t, x: x.copy(), dderiv=lambda t, x, h: h.copy(),
                        dderiv_adjoint=lambda t, x, v: v.copy(),
                        jacobian=lambda t, x: np.full(np.shape(x) + (1,), value))
    return dataclasses.replace(p, lambda_op=op)


def zero_lambda_problem(lam=1, t1=1.0, u0=1.0):
    """No operator: pure potential flow of Psi = u^2/2."""
    triple = EvolutionTriple(dim=1, mass=np.eye(1))
    pot = Potential.quadratic(np.eye(1))
    return ProblemSpec(triple=triple, potential=pot, lambda_op=zero_operator(1),
                       lambda_flag=lam, horizon=(0.0, t1), initial=np.array([u0]))


def rotation_problem(t1=1.0, psi_weight=0.5):
    """Skew 2x2 rotation with a quadratic potential."""
    triple = EvolutionTriple(dim=2, mass=np.eye(2))
    pot = Potential.quadratic(psi_weight * np.eye(2))
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    return ProblemSpec(triple=triple, potential=pot,
                       lambda_op=linear_operator(rot), lambda_flag=1,
                       horizon=(0.0, t1), initial=np.array([1.0, 0.0]))


# -- small operators, all four callables derived by term_operator ------------------

def zero_operator(dim):
    """Lambda = 0."""
    return term_operator(dim)


def pointwise_operator(dim, value, deriv):
    """Lambda(x) = f(x) componentwise, with f' = deriv."""
    return term_operator(dim, [PointwiseMap(value, deriv).term()])


def roll_product_operator(dim):
    """Lambda(x) = x * roll(x, 1): f(s, v) = s v of (x, R x), R the cyclic shift."""
    shift = np.roll(np.eye(dim), 1, axis=0)
    prod = Term(lambda s, v: s * v, (lambda s, v: v, lambda s, v: s), inner=(None, shift))
    return term_operator(dim, [prod])


def random_trajectory(problem, steps, rng, scale=0.5):
    """A trajectory with the correct initial state and random free states."""
    states = np.tile(problem.initial, (steps + 1, 1))
    states[1:] += scale * rng.standard_normal((steps, problem.dim))
    return Trajectory(states, problem.horizon[0], problem.horizon[1],
                      problem.initial.copy())


# -- per-sample references for the hypothesis checkers ---------------------------
#
# Each draws the same samples in the same order as its checker and evaluates
# them one at a time through the single-state calls.  Each returns the
# indices of the violating samples and the fitted constants.

def reference_growth(problem, samples, c0, rng):
    potential, triple, horizon = problem.potential, problem.triple, problem.horizon
    q = triple.xnorm.q
    xs = sample_states(rng, triple.dim, samples)
    ts = rng.uniform(horizon[0], horizon[1], size=samples)
    bad, c_needed, cbar = [], 0.0, 0.0
    for i in range(samples):
        t, x = ts[i], xs[i]
        p = potential.psi(t, x)
        nx = triple.x_norm(x)
        gn = float(np.linalg.norm(potential.grad(t, x)))
        nxq = nx**q
        if p > (c0 * nxq + c0) * (1.0 + 1e-12):
            bad.append(i)
        root = np.sqrt(p * p + 4.0 * nxq)
        c_low = 2.0 * nxq / (p + root) if p > 0.0 else 0.5 * (root - p)
        c_needed = max(c_needed, c_low, p / (nxq + 1.0))
        cbar = max(cbar, gn / (nx ** (q - 1.0) + 1.0))
    return bad, {"c0_min": c_needed, "grad_bound": cbar}


def reference_monotonicity(problem, samples, rng, big=1e6):
    tri, lam = problem.triple, int(problem.lambda_flag)
    q = tri.xnorm.q
    xs = sample_states(rng, tri.dim, samples)
    hs = sample_states(rng, tri.dim, samples)
    ts = rng.uniform(problem.horizon[0], problem.horizon[1], size=samples)
    bad, ghat = [], 0.0
    for i in range(samples):
        t, x, h = ts[i], xs[i], hs[i]
        term = problem.lambda_op.dlambda(t, x, h)
        if lam:
            term = term + (problem.potential.grad(t, lam * x + h)
                           - problem.potential.grad(t, lam * x))
        lhs = h @ term
        th2 = tri.h_inner(tri.apply_t(h), tri.apply_t(h))
        if lhs < -big * th2:
            bad.append(i)
        elif lhs < 0.0 and th2 > 0.0:
            ghat = max(ghat, -lhs / (th2 * (tri.x_norm(x) ** q + 1.0)))
    return bad, {"ghat": ghat, "mu_hat": 1.0}


def reference_coercivity(problem, samples, rng, safety=10.0, alpha_floor=1e-8):
    tri = problem.triple
    q = tri.xnorm.q
    xs = sample_states(rng, tri.dim, samples)
    ts = rng.uniform(problem.horizon[0], problem.horizon[1], size=samples)
    lhs, a, b = np.empty(samples), np.empty(samples), np.empty(samples)
    for i in range(samples):
        t, x = ts[i], xs[i]
        lhs[i] = problem.potential.psi(t, x) + x @ problem.lambda_op(t, x)
        a[i] = tri.x_norm(x) ** q
        b[i] = tri.h_inner(tri.apply_t(x), tri.apply_t(x)) + 1.0
    train = np.argsort(a)[: max(1, samples // 2)]
    mu_hat = max(0.0, float(np.max(-lhs[train] / b[train])))
    ratios = [(lhs[i] + mu_hat * b[i]) / a[i] for i in train if a[i] > 1e-300]
    alpha_hat = max(0.0, min(ratios)) if ratios else 0.0
    bad = []
    for i in range(samples):
        bound = alpha_hat * a[i] / safety - safety * mu_hat * b[i] - 1e-12 * (1.0 + a[i] + b[i])
        if lhs[i] < bound or (alpha_hat <= alpha_floor and a[i] > np.median(a)):
            bad.append(i)
    return bad, {"alpha": alpha_hat, "ctilde": 1.0 / alpha_hat if alpha_hat > 0 else np.inf,
                 "mu_bar": mu_hat}
