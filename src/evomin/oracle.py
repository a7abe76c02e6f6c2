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
  A step Jacobian declared constant (ProblemSpec.constant_step_jacobian:
  Lambda declared linear, and lam = 0 or Potential.constant_hessian set) is
  assembled, pivot-checked and factored once per implicit_euler_solve, at
  the first Newton iteration that needs it; later iterations of every step
  solve with its factors and read no D^2Psi;
* from KRYLOV_MIN_DIM up with a Lambda not declared linear and a declared
  diagonal lin (Navier-Stokes), the Newton direction comes from restarted
  GMRES on the matrix-free action J h = D h + dt DLambda(u) h with
  D = diag(lin) (Jacobian-free Newton-Krylov, Knoll & Keyes, J. Comput.
  Phys. 2004).  D is positive (validated masses and quadratic diagonals, a
  composed power's with a 1-D G at least a positive multiple of
  HESS_REGULARIZATION), and this path forms no dim x dim matrix unless it
  falls back.  The preconditioner sits on the right: GMRES solves
  (J D^-1) y = -f and the direction is d = D^-1 y, so GMRES minimizes the
  true linear residual |f + J d|_2.  The GMRES is a lean in-house one
  (_gmres): CGS2 orthogonalization, scalar Givens rotations whose residual
  estimate ends a cycle, a restart from the true residual after
  KRYLOV_RESTART inner iterations, at most KRYLOV_MAXITER cycles, and no
  final check.  The forcing term, the relative residual asked of GMRES,
  is Eisenstat and Walker's choice 2 (SIAM J. Sci. Comput. 17 (1996) 16)
  on the inf-norms of the Newton residuals: KRYLOV_ETA_MAX at a step's
  first iteration, then eta_k = KRYLOV_GAMMA (|f_k| / |f_k-1|)^2, raised
  to KRYLOV_GAMMA eta_k-1^2 when that exceeds 0.1; GMRES gets
  min(KRYLOV_ETA_MAX, max(eta_k, tol / (2 |f_k|))), so it never solves
  tighter than the Newton stop needs (Kelley 1995, sec. 6.3).  When GMRES
  misses it (a stiff or strongly non-normal DLambda), that Newton
  iteration and the rest of the step take the dense LU direction, which
  adds triple.dense of the same D^2Psi evaluation.

KRYLOV_MIN_DIM is the measured crossover on Navier-Stokes with right
preconditioning and forcing: tools/oracle_timing.py --crossover (seeds
1-3, 10 steps from a random start each, one BLAS thread on a 2-CPU host)
puts GMRES ahead from 224 unknowns (k = 16: 129 against 184 ms on the LU),
level at 168 (k = 14: 98 against 100 ms, and 111 against 98 ms in a
second run), and 2 to 2.6x behind at k = 8 to 12.  Before right
preconditioning and forcing the two levelled at 288 to 360 unknowns, and
the threshold was 320.  The 1D families other
than heat_core couple neighbours in lin; forced onto GMRES with the dense
lin they ran 2 to 1800 times slower than on the LU, or failed a step the
LU solves.  heat_core at 320 unknowns and 5 steps took 11 Newton iterations,
447 GMRES iterations and one LU fallback on GMRES, against 5 Newton
iterations and about 8x less time on the LU.

Both paths end on the same scaled residual test and the same damped line
search, so every returned state satisfies |r|_inf < newton_tol * scale.
An exact LU direction usually overshoots that bound by orders of
magnitude; an inexact Krylov direction stops just inside it.  First order
only, on purpose: higher-order steppers would break the exact
correspondence between zero energy and discrete solutions.
"""

from __future__ import annotations

import math
import warnings
from typing import Optional

import numpy as np

from .problem import ProblemSpec
from .trajectory import Trajectory
from .triple import dense

__all__ = ["StepFailure", "newton_solve_step", "implicit_euler_solve"]

PIVOT_FLOOR = 1e-13
DEFAULT_NEWTON_TOL = 1e-12
MAX_NEWTON_ITER = 60
MAX_HALVINGS = 60
# Newton-Krylov path: the smallest problem that takes it, the largest
# forcing term (relative residual of an inner solve) and the gamma of the
# Eisenstat-Walker rule that chooses it, the restart length, and the number
# of restarts before the dense LU takes over.
KRYLOV_MIN_DIM = 200
KRYLOV_ETA_MAX = 0.1
KRYLOV_GAMMA = 0.9
KRYLOV_RESTART = 30
KRYLOV_MAXITER = 10


# scipy.linalg is imported on first use: the Newton-Krylov path never needs
# it, and its import costs about 0.2 s and 20 MB of resident memory
def lu_factor(a: np.ndarray):
    from scipy.linalg import lu_factor as factor

    return factor(a)


def lu_solve(factors, b: np.ndarray) -> np.ndarray:
    from scipy.linalg import lu_solve as solve

    return solve(factors, b)


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
    from scipy.linalg import LinAlgWarning

    with warnings.catch_warnings():
        # scipy warns of an exactly zero pivot; the PIVOT_FLOOR test below is the verdict
        warnings.simplefilter("ignore", LinAlgWarning)
        lu, piv = lu_factor(jac)
    if float(np.min(np.abs(np.diag(lu)))) < PIVOT_FLOOR:
        raise StepFailure(
            f"singular Jacobian at step {step_index} (pivot below {PIVOT_FLOOR})",
            step_index, float(np.max(np.abs(f))) / dt,
        )
    if factors is not None:
        factors.append((lu, piv))
    return lu_solve((lu, piv), -f)


def _gmres(matvec, b: np.ndarray, rtol: float) -> tuple[Optional[np.ndarray], int]:
    """Restarted GMRES for matvec(x) = b from x = 0, and its inner iterations.

    Each cycle of at most KRYLOV_RESTART inner iterations orthogonalizes by
    classical Gram-Schmidt twice (CGS2), rotates the Hessenberg columns by
    scalar Givens rotations and reads the residual estimate from them, and
    the next cycle starts from the true residual.  A happy breakdown (the
    Krylov space is invariant or fills the whole space) ends the solve
    exactly.  x is None when KRYLOV_MAXITER cycles miss |b - Ax|_2 <=
    rtol |b|_2, or when A is singular on the Krylov space.
    """
    n = b.size
    target = rtol * float(np.linalg.norm(b))
    basis = np.empty((KRYLOV_RESTART + 1, n))
    tri = np.zeros((KRYLOV_RESTART, KRYLOV_RESTART))
    x, r, inner = np.zeros(n), b, 0
    for cycle in range(KRYLOV_MAXITER):
        if cycle:
            r = b - matvec(x)
        beta = float(np.linalg.norm(r))
        if beta <= target:
            return x, inner
        basis[0] = r / beta
        cs, sn, g = [], [], [beta]
        for j in range(KRYLOV_RESTART):
            w = matvec(basis[j])
            inner += 1
            v = basis[:j + 1]
            h = v @ w
            w -= h @ v
            h2 = v @ w
            w -= h2 @ v
            col, hn = (h + h2).tolist(), float(np.linalg.norm(w))
            for i, (c, s) in enumerate(zip(cs, sn)):
                col[i], col[i + 1] = c * col[i] + s * col[i + 1], c * col[i + 1] - s * col[i]
            rho = math.hypot(col[j], hn)
            if rho == 0.0:
                return None, inner
            c, s = col[j] / rho, hn / rho
            cs.append(c)
            sn.append(s)
            col[j] = rho
            tri[:j + 1, j] = col
            g[j:] = [c * g[j], -s * g[j]]
            done = abs(g[j + 1]) <= target or j + 1 == n
            if done:
                break
            basis[j + 1] = w / hn
        x = x + np.linalg.solve(tri[:j + 1, :j + 1], g[:j + 1]) @ basis[:j + 1]
        if done:
            return x, inner
    return None, inner


def _krylov_direction(problem: ProblemSpec, u: np.ndarray, diag: np.ndarray,
                      f: np.ndarray, t: float, dt: float,
                      rtol: float) -> tuple[Optional[np.ndarray], int]:
    """Inexact Newton direction by right-Jacobi-preconditioned GMRES, and its inner iterations.

    The Jacobian acts matrix-free, J h = diag h + dt DLambda(u) h with diag
    the diagonal D of the linear part lin.  GMRES solves (J D^-1) y = -f and
    the direction is d = D^-1 y, so it meets |f + J d|_2 <= rtol |f|_2 on
    the true linear residual; it is None when GMRES misses that.
    """
    op = problem.lambda_op
    y, inner = _gmres(lambda v: v + dt * op.dlambda(t, u, v / diag), -f, rtol)
    return (None if y is None else y / diag), inner


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
    eta = KRYLOV_ETA_MAX
    for _ in range(MAX_NEWTON_ITER):
        if fnorm < tol:
            break
        # cached factors were the LU's only use of D^2Psi
        hess = problem.potential.hess_matrix(t, lam * u) if lam and not _factors else None
        direction = None
        if not lu_only:
            if mass.ndim == 1 and (hess is None or hess.ndim == 1):
                diag = mass if hess is None else mass + dt * hess
                # no tighter than the Newton stop needs (Kelley 1995, sec. 6.3)
                rtol = min(KRYLOV_ETA_MAX, max(eta, 0.5 * tol / fnorm))
                direction, count = _krylov_direction(problem, u, diag, f, t, dt, rtol)
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
        # Eisenstat-Walker choice 2 with their alpha = 2 and safeguard
        # threshold 0.1 (SIAM J. Sci. Comput. 17 (1996) 16)
        eta_prev, eta = eta, KRYLOV_GAMMA * (fnorm_new / fnorm) ** 2
        if KRYLOV_GAMMA * eta_prev ** 2 > 0.1:
            eta = max(eta, KRYLOV_GAMMA * eta_prev ** 2)
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
    factors = [] if problem.constant_step_jacobian else None
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
