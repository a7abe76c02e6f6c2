"""Vanishing-regularization continuation and the limiting energy inequality.

Solves d/dt(I u) + Lambda_t(u) + eps * DPsi_t(u) = 0 for a decreasing
schedule of eps values, warm-starting each level from the previous one.
Weak-topology limits are not observable in finite precision, so the
scheme reports Cauchy evidence (successive trajectory distances) and the
energy-inequality defect instead of claiming convergence.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from .energy import energy, energy_balance_audit
from .oracle import DEFAULT_NEWTON_TOL, StepFailure, implicit_euler_solve
from .potential import Potential
from .problem import ProblemSpec
from .trajectory import Trajectory

__all__ = [
    "ContinuationResult",
    "default_schedule",
    "continuation_solve",
    "energy_inequality_check",
    "continuation_to_csv",
]


def default_schedule(start: float = 1.0, factor: float = 0.5, levels: int = 12) -> list[float]:
    if not (start > 0 and 0 < factor < 1 and levels >= 1):
        raise ValueError("need start > 0, factor in (0,1), levels >= 1")
    return [start * factor**i for i in range(levels)]


@dataclass
class ContinuationResult:
    eps: list = field(default_factory=list)
    trajectories: list = field(default_factory=list)
    distances: list = field(default_factory=list)      # inf-norm to previous level
    newton_iters: list = field(default_factory=list)
    final_j: list = field(default_factory=list)
    status: str = "completed"

    @property
    def completed(self) -> bool:
        return self.status == "completed"

    @property
    def converged(self) -> bool:
        return self.completed and len(self.distances) > 1 and self.distances[-1] < 1e-7


def continuation_solve(
    problem_core: ProblemSpec,
    reg_potential: Potential,
    eps_schedule: list[float],
    steps: int,
    newton_tol: float = DEFAULT_NEWTON_TOL,
) -> ContinuationResult:
    """Run the oracle across the epsilon schedule with warm starts.

    problem_core must carry the evolution without a potential term
    (lambda_flag 0); each level solves it with the potential
    eps * reg_potential switched on.  A step failure aborts the schedule
    and the partial result is returned with a failure status.
    """
    eps_schedule = [float(e) for e in eps_schedule]
    if any(e <= 0 for e in eps_schedule):
        raise ValueError("epsilon schedule must be positive")
    if any(b >= a for a, b in zip(eps_schedule, eps_schedule[1:])):
        raise ValueError("epsilon schedule must be strictly decreasing")
    if problem_core.lambda_flag != 0:
        raise ValueError(
            "continuation regularizes a potential-free evolution; "
            "the core problem must have lambda_flag 0"
        )
    result = ContinuationResult()
    prev: Trajectory | None = None
    for i, eps in enumerate(eps_schedule):
        prob = problem_core.with_potential(reg_potential.scaled(eps), lambda_flag=1)
        counter: dict = {}
        try:
            traj = implicit_euler_solve(
                prob, steps, newton_tol=newton_tol, warm_start=prev, counter=counter
            )
        except StepFailure as exc:
            result.status = f"step-failure at eps={eps:g} (level {i}): {exc}"
            break
        result.eps.append(eps)
        result.trajectories.append(traj)
        result.newton_iters.append(counter.get("newton_iters", 0))
        result.final_j.append(energy(prob, traj))
        if prev is None:
            result.distances.append(float("nan"))
        else:
            result.distances.append(float(np.max(np.abs(traj.states - prev.states))))
        prev = traj
    return result


def energy_inequality_check(problem: ProblemSpec, traj: Trajectory,
                            pass_tol: float = 1e-8) -> dict:
    """Defect of the limiting energy inequality at every grid time.

        s(t_m) = |u_m|_H^2 / 2 + dt * sum_{k<=m} <u_k, Lambda(u_k)> - |w_0|_H^2 / 2

    This is energy_balance_audit without the potential term.  On
    trajectories that approximately solve the discrete equation the defect
    must be nonpositive up to pass_tol.
    """
    s = energy_balance_audit(problem.with_potential(problem.potential, lambda_flag=0), traj)
    return {
        "defect": s,
        "max_defect": float(np.max(s)),
        "pass": bool(np.all(s <= pass_tol)),
        "pass_tol": pass_tol,
    }


def continuation_to_csv(result: ContinuationResult) -> str:
    buf = io.StringIO()
    buf.write("eps,distance_to_prev,final_J,newton_iters_total\n")
    for i in range(len(result.eps)):
        buf.write(
            f"{result.eps[i]:.17g},{result.distances[i]:.17g},"
            f"{result.final_j[i]:.17g},{result.newton_iters[i]}\n"
        )
    return buf.getvalue()
