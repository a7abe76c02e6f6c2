"""Implicit-Euler time stepper with per-step Newton solves.

This is the independent solver that zero-energy minimization must
reproduce: each step solves

    I (u_k - u_{k-1}) + dt * (Lambda_{t_k}(u_k) + DPsi_{t_k}(lam u_k)) = 0

by a damped Newton iteration.  Its linear solve is chosen from what it
can observe and what the problem declares: the problem size, which drives
the cost of a dense solve; whether Lambda is declared linear
(OperatorLambda.linear), in which case DLambda is one matrix whose
stiffness a diagonal preconditioner cannot see, while its LU is exact
(one Newton iteration on a linear step); and whether the triple's mass
and D^2Psi(lam u) = potential.hess_matrix are both 1-D, which declares the
linear part lin = I + dt lam D^2Psi(lam u) of the step Jacobian diagonal
and decides whether a diagonal preconditioner can work.  D^2Psi is read
at most once per Newton iteration:

* below KRYLOV_MIN_DIM unknowns, when Lambda is declared linear (heat_core,
  whose stiff Laplacian sits in DLambda), or when lin is not declared
  diagonal, the step Jacobian I + dt (DLambda + lam D^2Psi) is assembled
  dense and LU-factorized, and a pivot below PIVOT_FLOOR is a step failure.
  A step Jacobian declared constant (Lambda declared linear, and lam = 0 or
  Potential.constant_hessian set) is assembled, pivot-checked and factored
  once per implicit_euler_solve, at the first Newton iteration that needs
  it; later iterations of every step solve with its factors and read no
  D^2Psi;
* from KRYLOV_MIN_DIM up with a Lambda not declared linear and a declared
  diagonal lin (Navier-Stokes), the Newton direction comes from restarted
  GMRES on the matrix-free action h -> lin h + dt DLambda(u) h,
  preconditioned by Jacobi, which inverts lin exactly (Jacobian-free
  Newton-Krylov, Knoll & Keyes, J. Comput. Phys. 2004).  That diagonal is
  positive (validated masses and quadratic diagonals, a composed power's
  with a 1-D G at least a positive multiple of HESS_REGULARIZATION), and
  this path forms no dim x dim matrix unless it falls back.  GMRES stops
  at the relative residual KRYLOV_RTOL, after restarts of KRYLOV_RESTART
  inner iterations and at most KRYLOV_MAXITER restarts.  When it misses KRYLOV_RTOL (a stiff or
  strongly non-normal DLambda), that Newton iteration and the rest of the
  step take the dense LU direction, which adds triple.dense of the same
  D^2Psi evaluation.

The size threshold sits at the measured crossover on Navier-Stokes (10
steps from a random start, one BLAS thread, best of 3 to 5 runs; seeds
3, 7 and 11: LU 122-137 ms against GMRES 112-158 ms at 288 unknowns,
183-225 against 115-179 ms at 360; seed 3: 335 against 200 ms at 440,
1.93 s against 0.31 s at 960).  The 1D families other than heat_core
couple neighbours in lin; forced onto GMRES with the dense lin they ran 2
to 1800 times slower than on the LU, or failed a step the LU solves.
heat_core at 320 unknowns and 5 steps took 11 Newton iterations, 447 GMRES
iterations and one LU fallback on GMRES, against 5 Newton iterations and
about 8x less time on the LU.

Both paths end on the same scaled residual test and the same damped line
search, so every returned state satisfies |r|_inf < newton_tol * scale.
An exact LU direction usually overshoots that bound by orders of
magnitude; an inexact Krylov direction stops just inside it.  First order
only, on purpose: higher-order steppers would break the exact
correspondence between zero energy and discrete solutions.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .problem import ProblemSpec
from .trajectory import Trajectory
from .triple import dense

__all__ = ["StepFailure", "newton_solve_step", "implicit_euler_solve"]

PIVOT_FLOOR = 1e-13
DEFAULT_NEWTON_TOL = 1e-12
MAX_NEWTON_ITER = 60
MAX_HALVINGS = 60
# Newton-Krylov path: the smallest problem that takes it, the GMRES forcing
# term (relative residual of each inner solve), the restart length, and the
# number of restarts before the dense LU takes over.
KRYLOV_MIN_DIM = 320
KRYLOV_RTOL = 1e-3
KRYLOV_RESTART = 30
KRYLOV_MAXITER = 10


class StepFailure(RuntimeError):
    """Newton stagnated on one implicit-Euler step."""

    def __init__(self, message: str, step: int, residual: float):
        super().__init__(message)
        self.step = step
        self.residual = residual


def _step_residual(problem: ProblemSpec, u: np.ndarray, iu_prev: np.ndarray,
                   t: float, dt: float) -> np.ndarray:
    lam = problem.lambda_flag
    r = problem.triple.apply_i(u) - iu_prev + dt * problem.lambda_op(t, u)
    if lam:
        r = r + dt * problem.potential.grad(t, lam * u)
    return r


def _lu_direction(problem: ProblemSpec, u: np.ndarray, hess: Optional[np.ndarray],
                  f: np.ndarray, t: float, dt: float, step_index: int,
                  factors: Optional[list] = None) -> np.ndarray:
    """Exact Newton direction from the dense LU of the step Jacobian.

    hess is D^2Psi(lam u) as hess_matrix declares it, None when lam = 0.
    factors, a list, holds the LU of a step Jacobian declared constant: the
    first call fills it and later calls only solve with it.
    """
    if factors:
        return lu_solve(factors[0], -f)
    jac = problem.triple.inclusion_matrix + dt * problem.lambda_op.jacobian_matrix(t, u)
    if hess is not None:
        jac = jac + dt * dense(hess)
    lu, piv = lu_factor(jac)
    if float(np.min(np.abs(np.diag(lu)))) < PIVOT_FLOOR:
        raise StepFailure(
            f"singular Jacobian at step {step_index} (pivot below {PIVOT_FLOOR})",
            step_index, float(np.max(np.abs(f))) / dt,
        )
    if factors is not None:
        factors.append((lu, piv))
    return lu_solve((lu, piv), -f)


def _krylov_direction(problem: ProblemSpec, u: np.ndarray, diag: np.ndarray,
                      f: np.ndarray, t: float, dt: float) -> tuple[Optional[np.ndarray], int]:
    """Inexact Newton direction by Jacobi-preconditioned GMRES, and its inner iterations.

    The Jacobian acts matrix-free: diag h + dt DLambda(u) h, with diag the
    diagonal of the linear part lin.  The direction is None when GMRES
    misses the forcing term KRYLOV_RTOL.
    """
    # imported on first use: problems on the LU path never load scipy.sparse,
    # whose import costs about 20 ms and 3.5 MB of resident memory
    from scipy.sparse.linalg import LinearOperator, gmres

    op = problem.lambda_op
    shape = (problem.dim, problem.dim)
    jac = LinearOperator(shape, matvec=lambda h: diag * h + dt * op.dlambda(t, u, h),
                         dtype=float)
    jacobi = LinearOperator(shape, matvec=lambda r: r / diag, dtype=float)
    inner = []
    direction, info = gmres(jac, -f, rtol=KRYLOV_RTOL, restart=KRYLOV_RESTART,
                            maxiter=KRYLOV_MAXITER, M=jacobi,
                            callback=inner.append, callback_type="pr_norm")
    return (direction if info == 0 else None), len(inner)


def newton_solve_step(
    problem: ProblemSpec,
    u_prev: np.ndarray,
    t: float,
    dt: float,
    newton_tol: float = DEFAULT_NEWTON_TOL,
    init: Optional[np.ndarray] = None,
    step_index: int = 0,
    counter: Optional[dict] = None,
    _factors: Optional[list] = None,
) -> np.ndarray:
    """Solve one implicit-Euler step to a scaled residual below newton_tol.

    The convergence test is on the evolution residual r = F/dt measured
    against the magnitude of the step's own terms, so the returned state
    satisfies |r|_inf < newton_tol * max(1, term scale).  The Newton
    direction comes from GMRES on large problems with a diagonal linear
    part and a Lambda not declared linear, and from a dense LU otherwise
    (see the module docstring).

    counter, when given, accumulates "newton_iters" and the per-step list
    "per_step"; from KRYLOV_MIN_DIM unknowns up also "krylov_iters" (GMRES
    inner iterations), its per-step list "krylov_per_step", and
    "krylov_fallbacks" (steps that went on with the LU: Lambda declared
    linear, lin not declared diagonal, or GMRES missed the forcing term).
    """
    lam = problem.lambda_flag
    u = np.array(u_prev if init is None else init, dtype=float)
    u_prev = np.asarray(u_prev, dtype=float)
    apply_i = problem.triple.apply_i
    iu_prev = apply_i(u_prev)
    f = _step_residual(problem, u, iu_prev, t, dt)
    fnorm = float(np.max(np.abs(f)))
    # Residual tolerance relative to the size of the equation's own terms:
    # stiff compositions (e.g. squared Laplacians) put the floating-point
    # floor of the residual above any fixed absolute threshold.
    lam_scale = float(np.max(np.abs(f - apply_i(u) + iu_prev))) / dt
    scale = max(1.0, float(np.max(np.abs(iu_prev))) / dt, lam_scale)
    tol = dt * newton_tol * scale
    krylov = problem.dim >= KRYLOV_MIN_DIM
    # a declared linear Lambda: the LU direction is exact in DLambda, where
    # Jacobi-preconditioned GMRES struggles on a stiff one (heat_core)
    lu_only = not krylov or problem.lambda_op.linear is not None
    mass = problem.triple.mass
    iters = inner = 0
    for _ in range(MAX_NEWTON_ITER):
        if fnorm < tol:
            break
        # cached factors were the LU's only use of D^2Psi
        hess = problem.potential.hess_matrix(t, lam * u) if lam and not _factors else None
        direction = None
        if not lu_only:
            if mass.ndim == 1 and (hess is None or hess.ndim == 1):
                diag = mass if hess is None else mass + dt * hess
                direction, count = _krylov_direction(problem, u, diag, f, t, dt)
                inner += count
            lu_only = direction is None
        if direction is None:
            direction = _lu_direction(problem, u, hess, f, t, dt, step_index, _factors)
        alpha = 1.0
        for _ in range(MAX_HALVINGS):
            u_new = u + alpha * direction
            f_new = _step_residual(problem, u_new, iu_prev, t, dt)
            fnorm_new = float(np.max(np.abs(f_new)))
            if fnorm_new < fnorm or fnorm_new < tol:
                break
            alpha *= 0.5
        else:
            raise StepFailure(
                f"Newton line search stalled at step {step_index} "
                f"(residual {fnorm / dt:.3e}; dt too large or hypotheses violated)",
                step_index, fnorm / dt,
            )
        u, f, fnorm = u_new, f_new, fnorm_new
        iters += 1
    else:
        if fnorm >= tol:
            raise StepFailure(
                f"Newton did not converge at step {step_index} "
                f"(residual {fnorm / dt:.3e} after {MAX_NEWTON_ITER} iterations)",
                step_index, fnorm / dt,
            )
    if counter is not None:
        counter["newton_iters"] = counter.get("newton_iters", 0) + iters
        counter.setdefault("per_step", []).append(iters)
        if krylov:
            counter["krylov_iters"] = counter.get("krylov_iters", 0) + inner
            counter.setdefault("krylov_per_step", []).append(inner)
            counter["krylov_fallbacks"] = counter.get("krylov_fallbacks", 0) + int(lu_only)
    return u


def implicit_euler_solve(
    problem: ProblemSpec,
    steps: int,
    newton_tol: float = DEFAULT_NEWTON_TOL,
    warm_start: Optional[Trajectory] = None,
    counter: Optional[dict] = None,
) -> Trajectory:
    """March the implicit-Euler scheme over the problem horizon.

    warm_start, when given, must share the grid; its states seed each
    step's Newton iteration (used by the regularization continuation).
    """
    if steps < 1:
        raise ValueError("need at least one time step")
    # a step Jacobian declared constant is factored once, on first use
    constant = problem.lambda_op.linear is not None and (
        not problem.lambda_flag or problem.potential.constant_hessian is not None)
    factors = [] if constant else None
    t0, t1 = problem.horizon
    dt = (t1 - t0) / steps
    states = np.empty((steps + 1, problem.dim))
    states[0] = problem.initial
    if warm_start is not None and (warm_start.steps != steps
                                   or warm_start.dim != problem.dim):
        raise ValueError("warm start trajectory does not match the grid")
    for k in range(1, steps + 1):
        t = t0 + k * dt
        init = warm_start.states[k] if warm_start is not None else None
        states[k] = newton_solve_step(
            problem, states[k - 1], t, dt,
            newton_tol=newton_tol, init=init, step_index=k, counter=counter,
            _factors=factors,
        )
    return Trajectory(states, t0, t1, problem.initial.copy())
