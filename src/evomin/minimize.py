"""Trajectory-space minimization of the energy.

A descent method with Armijo backtracking on J over the free states
u_1..u_M (u_0 carries the initial datum and never moves).  Zero energy is
the implicit-Euler system r(u) = 0, so J serves as the merit function of
Newton's method on r: each iteration first tries the space-time Newton
direction d = -B^-1 r, B the block lower bidiagonal Jacobian of r, in one
forward sweep in time.  r is the accepted iterate's breakdown residual
plus DPsi, so the direction evaluates no Lambda.  Unless the problem
declares its step Jacobian constant (ProblemSpec.constant_step_jacobian),
B comes from DLambda and D^2Psi at the iterate, one dense solve per step
(see _newton_direction), and an operator blow-up still lands in a trial
point, where the line search rejects it.  A declared-constant step with
Lambda declared zero factors its one block once per call (see
_factored_sweep); any other declared-constant step takes L-BFGS alone.
When DLambda is not finite at the iterate, a block is exactly singular, d
is not finite or d is not a descent direction for J, limited-memory BFGS
stands in; its pairs are updated at every accepted step, so the fallback
starts warm.  The line search halves the step until Armijo holds; it ends
without a step, a floor exit, once a trial's predicted decrease
alpha * -<d, g> is round-off or after MAX_BACKTRACKS halvings.  A
positive-J stationary point is reported, never silently accepted: under
the growth and monotonicity hypotheses it cannot exist, so reaching one
means a hypothesis is violated or the discretization is too coarse, and
the status message says which checker to run.
"""

from __future__ import annotations

import io
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import Optional

import numpy as np

from .energy import energy_breakdown, energy_gradient
from .operator import OperatorEvaluationError
from .potential import ConjugateFailure
from .problem import ProblemSpec
from .trajectory import Trajectory, constant_trajectory, residual
from .triple import dense

__all__ = ["MinimizeOptions", "SolveResult", "minimize", "verify_equivalence", "trace_to_csv"]

STATUS_ZERO = "converged-zero-energy"
STATUS_STATIONARY = "converged-stationary-positive-J"
STATUS_CAP = "iteration-cap"
STATUS_ERROR = "error"

_STATIONARY_HINT = (
    "positive-J stationary point: run check_monotonicity and check_coercivity "
    "on this problem, or refine the time grid"
)

HISTORY = 10            # L-BFGS pairs kept
ARMIJO_C1 = 1e-4        # sufficient-decrease constant of the line search
MAX_BACKTRACKS = 50     # step halvings before the line search gives up
ROUNDOFF = 1e-18        # a decrease below ROUNDOFF * (1 + |J|) is round-off
J_FLOOR = 1e-15         # J <= J_FLOOR * max(1, |J(init)|) is zero to working precision
G_FLOOR = 1e-7          # a floor exit above max(g_tol, G_FLOOR) in |g|_inf is an error
TRACE_CSV_HEADER = "iter,J,grad_norm,step_size\n"    # trace_to_csv's columns


@dataclass
class MinimizeOptions:
    """Tolerances of the stopping rule (see `minimize`).

    require_gradient=True (the default) makes the j_tol exit demand
    |g|_inf <= g_tol as well, so a result certifies the critical-point
    statement at the same time; False gives the cheaper either/or exit.  It
    binds only that exit: the floor exits classify by J and |g|_inf without it.
    """

    j_tol: float = 1e-10
    g_tol: float = 1e-9
    max_iterations: int = 100_000
    require_gradient: bool = True


@dataclass
class SolveResult:
    trajectory: Trajectory
    j_history: list = field(default_factory=list)
    grad_norm_history: list = field(default_factory=list)
    step_sizes: list = field(default_factory=list)
    iterations: int = 0
    status: str = STATUS_ERROR
    message: str = ""
    newton_directions: int = 0      # iterations that took the space-time Newton direction
    lbfgs_fallbacks: int = 0        # iterations where it failed and L-BFGS stood in

    @property
    def converged(self) -> bool:
        return self.status == STATUS_ZERO


def minimize(
    problem: ProblemSpec,
    init: Optional[Trajectory] = None,
    steps: Optional[int] = None,
    opts: Optional[MinimizeOptions] = None,
) -> SolveResult:
    """Minimize the trajectory energy starting from init.

    Without an explicit init the constant-in-time extension of the
    initial state is used (needs `steps`).

    Stopping rule: the run stops at the top of an iteration once
    |g|_inf <= g_tol, or J <= j_tol without require_gradient; at one of the
    line search's two floor exits, where J cannot decrease further; or at
    the iteration cap.  Every exit but the cap is classified by
    `exit_status`: zero-energy iff J is at most the J floor
    max(j_tol, J_FLOOR * max(1, |J(init)|)).
    """
    opts = opts or MinimizeOptions()
    if init is None:
        if steps is None:
            raise ValueError("provide either an initial trajectory or a step count")
        init = constant_trajectory(problem, steps)
    traj = init.copy()
    m, n = traj.steps, traj.dim

    def unpack(z):
        t = traj.copy()
        t.states[1:] = z.reshape(m, n)
        return t

    def f_and_g(z, start=None):
        t = unpack(z)
        bd = energy_breakdown(problem, t, start)
        return bd.total, energy_gradient(problem, t, bd).ravel(), bd

    z = traj.states[1:].ravel().copy()
    result = SolveResult(trajectory=traj)
    # failures at the start point (conjugate solve, operator blow-up) propagate;
    # only trial points inside the line search may fail recoverably
    j, g, bd = f_and_g(z)
    # the Newton direction (states, bd) -> d or None; None where L-BFGS runs alone
    newton = (_factored_sweep(problem, traj.dt) if problem.constant_step_jacobian
              else partial(_newton_direction, problem))

    s_list: deque = deque(maxlen=HISTORY)
    y_list: deque = deque(maxlen=HISTORY)
    gamma = 1.0
    j_floor = max(opts.j_tol, J_FLOOR * max(1.0, abs(j)))
    g_floor = max(opts.g_tol, G_FLOOR)

    def exit_status(jv, gv):
        """Status of an exit other than the cap: the top-of-loop test, or a floor
        exit (a trial's predicted decrease below round-off, or a line search
        out of backtracks)."""
        if jv <= j_floor:
            return STATUS_ZERO
        return STATUS_STATIONARY if gv <= g_floor else STATUS_ERROR

    for it in range(opts.max_iterations):
        gnorm = float(np.linalg.norm(g, np.inf))
        result.j_history.append(j)
        result.grad_norm_history.append(gnorm)
        result.iterations = it
        if gnorm <= opts.g_tol or (j <= opts.j_tol and not opts.require_gradient):
            result.status = exit_status(j, gnorm)
            break

        direction = newton(z.reshape(m, n), bd) if newton else None
        if direction is not None and direction @ g < 0.0:
            result.newton_directions += 1
        else:               # no Newton direction, or not a descent one
            result.lbfgs_fallbacks += newton is not None
            direction = _lbfgs_direction(g, s_list, y_list, gamma)
        dg = float(direction @ g)
        if not np.isfinite(dg) or dg >= 0.0:
            s_list.clear()
            y_list.clear()
            direction = -g / max(1.0, np.linalg.norm(g))
            dg = float(direction @ g)

        alpha, accepted = 1.0, False
        for _ in range(MAX_BACKTRACKS):
            if alpha * -dg < ROUNDOFF * (1.0 + abs(j)):
                break           # the predicted decrease alpha * -<d, g> is round-off
            z_new = z + alpha * direction
            if not np.all(np.isfinite(z_new)):
                alpha *= 0.5
                continue
            try:
                # every trial's conjugate solve starts from the maximizers of
                # the accepted iterate, never from those of a rejected trial
                j_new, g_new, bd_new = f_and_g(z_new, bd.argmax)
            except (ConjugateFailure, OperatorEvaluationError):
                # the conjugate has no maximizer or the operator blew up at
                # this trial point: a rejected trial, not an error
                alpha *= 0.5
                continue
            if j_new <= j + ARMIJO_C1 * alpha * dg:
                accepted = True
                break
            alpha *= 0.5
        if not accepted:        # a floor exit: round-off, or out of backtracks
            result.status = exit_status(j, gnorm)
            break

        s = z_new - z
        y = g_new - g
        sy = float(s @ y)
        if sy > 1e-10 * float(np.linalg.norm(s) * np.linalg.norm(y)):
            s_list.append(s)
            y_list.append(y)
            gamma = sy / float(y @ y)
        z, j, g, bd = z_new, j_new, g_new, bd_new
        result.step_sizes.append(alpha)
    else:
        result.status = STATUS_CAP
        result.iterations = opts.max_iterations

    if result.status == STATUS_STATIONARY:
        result.message = _STATIONARY_HINT
    elif result.status == STATUS_ERROR:
        result.message = (f"J cannot decrease further at iteration {result.iterations} "
                          f"(J={j:.3e}, |g|_inf={gnorm:.3e})")
    elif result.status == STATUS_CAP:
        result.message = f"iteration cap {opts.max_iterations} reached (J={j:.3e})"
    result.trajectory = unpack(z)
    return result


def _lbfgs_direction(g, s_list, y_list, gamma):
    """The L-BFGS two-loop direction -H g, H0 = gamma times the identity;
    with no pairs stored the step -g scaled to at most unit length."""
    q = -g.copy()
    if not s_list:
        return q / max(1.0, np.linalg.norm(g))
    alphas = []
    rhos = [1.0 / float(s @ y) for s, y in zip(s_list, y_list)]
    for s, y, rho in zip(reversed(s_list), reversed(y_list), reversed(rhos)):
        a = rho * float(s @ q)
        alphas.append(a)
        q -= a * y
    q *= gamma
    for (s, y, rho), a in zip(zip(s_list, y_list, rhos), reversed(alphas)):
        b = rho * float(y @ q)
        q += (a - b) * s
    return q


def _newton_residual(problem: ProblemSpec, states: np.ndarray, bd) -> np.ndarray:
    """r_k = R_k + DPsi(lam u_k) stacked, R_k the breakdown's residual rows."""
    lam = problem.lambda_flag
    return bd.residuals + problem.potential.grad(bd.times, states) if lam else bd.residuals


def _newton_direction(problem: ProblemSpec, states: np.ndarray, bd):
    """The space-time Newton direction d = -B^-1 r at the free states u_1..u_M,
    or None when DLambda is not finite there, a block C_k is exactly singular
    or d is not finite.

    r is _newton_residual's, so no Lambda is evaluated here.  B, r's
    Jacobian, is block lower bidiagonal: C_k = I/dt + DLambda(u_k) +
    lam D^2Psi(lam u_k) on the diagonal and -I/dt below it, and one forward
    sweep solves B d = -r: d_k = C_k^-1 (-r_k + (I/dt) d_{k-1}).  All M
    blocks come from one DLambda and one D^2Psi call on the stacked states.
    """
    lam, dt, tri = problem.lambda_flag, bd.dt, problem.triple
    r = _newton_residual(problem, states, bd)
    try:
        # a read-only answer (a constant broadcast over the states) is copied
        blocks = np.require(problem.lambda_op.jacobian_matrix(bd.times, states),
                            requirements="W")
    except OperatorEvaluationError:
        return None
    blocks += tri.inclusion_matrix / dt
    if lam:
        hess = problem.potential.hess_matrix(bd.times, lam * states)
        if hess.ndim == 2:          # one diagonal per step
            diagonal = np.arange(problem.dim)
            blocks[:, diagonal, diagonal] += hess
        else:
            blocks += hess
    d = np.empty_like(r)
    prev = np.zeros(problem.dim)
    for k, c in enumerate(blocks):
        try:
            prev = d[k] = np.linalg.solve(c, tri.apply_i(prev) / dt - r[k])
        except np.linalg.LinAlgError:
            return None
    return d.ravel() if np.all(np.isfinite(d)) else None


def _factored_sweep(problem: ProblemSpec, dt: float):
    """For a step Jacobian declared constant, the direction (states, bd) ->
    d = -B^-1 r (None where d is not finite), or None unless Lambda is
    declared zero.

    Every diagonal block of B is then the SPD C = I/dt + lam A, A =
    Potential.constant_hessian, and r is affine in the states, so a full step
    along d zeroes it.  C is Cholesky-factored once; a direction solves with
    C for all M rows -r_k at once, then adds K = C^-1 I/dt d_{k-1} to d_k.
    """
    if np.any(problem.lambda_op.linear):
        return None
    from scipy.linalg import cho_factor, cho_solve  # loads on use (see oracle)

    i_dt = problem.triple.inclusion_matrix / dt
    c = i_dt + dense(problem.potential.constant_hessian) if problem.lambda_flag else i_dt
    factor = cho_factor(c)
    k_mat = cho_solve(factor, i_dt)

    def sweep(states, bd):
        d = cho_solve(factor, -_newton_residual(problem, states, bd).T).T
        for k in range(1, len(d)):
            d[k] += k_mat @ d[k - 1]
        return d.ravel() if np.all(np.isfinite(d)) else None

    return sweep


def verify_equivalence(
    problem: ProblemSpec,
    result_traj: Trajectory,
    oracle_traj: Trajectory,
    j_tol: float = 1e-10,
    g_tol: float = 1e-8,
    state_tol: float = 1e-5,
    residual_tol: float = 1e-6,
) -> dict:
    """Check that the minimizer and the stepper found the same solution.

    The report records, for both trajectories, the energy, the gradient
    norm and the residual norm, plus the state discrepancy; `pass` needs
    all discrete statements to co-occur: near-zero energy, near-zero
    gradient, near-zero residual, and agreement with the oracle.
    """
    if (result_traj.steps != oracle_traj.steps
            or result_traj.t0 != oracle_traj.t0
            or result_traj.t1 != oracle_traj.t1):
        raise ValueError("trajectories are on different grids")
    if not np.allclose(result_traj.w0, oracle_traj.w0, atol=0.0, rtol=0.0):
        raise ValueError("trajectories carry different initial data")

    report: dict = {}
    for tag, traj in (("minimizer", result_traj), ("oracle", oracle_traj)):
        bd = energy_breakdown(problem, traj)
        g = energy_gradient(problem, traj, bd)
        r = residual(problem, traj)
        report[tag] = {
            "J": bd.total,
            "grad_norm": float(np.max(np.abs(g))),
            "max_residual": float(np.max(np.abs(r))),
        }
    disc = float(np.max(np.abs(result_traj.states - oracle_traj.states)))
    report["state_discrepancy"] = disc
    report["criteria"] = {
        "zero_energy": report["minimizer"]["J"] <= j_tol,
        "critical_point": report["minimizer"]["grad_norm"] <= g_tol,
        "solves_equation": report["minimizer"]["max_residual"] <= residual_tol,
        "matches_oracle": disc <= state_tol,
    }
    report["pass"] = all(report["criteria"].values())
    return report


def trace_to_csv(result: SolveResult) -> str:
    buf = io.StringIO()
    buf.write(TRACE_CSV_HEADER)
    for i, (j, gn) in enumerate(zip(result.j_history, result.grad_norm_history)):
        step = result.step_sizes[i] if i < len(result.step_sizes) else float("nan")
        buf.write(f"{i},{j:.17g},{gn:.17g},{step:.17g}\n")
    return buf.getvalue()
