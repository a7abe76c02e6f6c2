"""Discrete trajectories on a uniform grid and the discrete residual.

The residual collocates the backward difference with the operator and
potential evaluated at the right endpoint of each step, so "all
residuals zero" is literally the implicit-Euler system.  That choice is
what makes zero energy and solutions of the discrete equation the same
set.
"""

from __future__ import annotations

import io
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .operator import OperatorEvaluationError
from .potential import ConjugateFailure
from .problem import ProblemSpec
from .triple import EvolutionTriple

__all__ = [
    "Trajectory",
    "time_derivative",
    "residual",
    "trajectory_to_csv",
    "trajectory_from_csv",
]


@contextmanager
def named_steps():
    """Name the first failing step of stacked calls on the rows u_1..u_M.

    Row k of the stack is step k + 1; the exception type is kept.
    """
    try:
        yield
    except ConjugateFailure as exc:
        if exc.row is None:
            raise
        raise ConjugateFailure(f"step {exc.row + 1}: {exc}", exc.residual) from exc
    except OperatorEvaluationError as exc:
        if exc.row is None:
            raise
        raise OperatorEvaluationError(f"step {exc.row + 1}: {exc}") from exc


INITIAL_DATUM_TOL = 1e-12


@dataclass
class Trajectory:
    """States u_0..u_M on the uniform grid over [t0, t1], with H-datum w0."""

    states: np.ndarray
    t0: float
    t1: float
    w0: np.ndarray

    def __post_init__(self):
        self.states = np.asarray(self.states, dtype=float)
        if self.states.ndim != 2 or self.states.shape[0] < 2:
            raise ValueError("states must be an (M+1) x n array with M >= 1")
        if not np.all(np.isfinite(self.states)):
            raise ValueError("trajectory states must be finite")
        if not (self.t1 > self.t0):
            raise ValueError("need t1 > t0")
        self.w0 = np.asarray(self.w0, dtype=float)
        if self.w0.shape != (self.states.shape[1],):
            raise ValueError("w0 length must match the state dimension")

    @property
    def steps(self) -> int:
        return self.states.shape[0] - 1

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    @property
    def dt(self) -> float:
        return (self.t1 - self.t0) / self.steps

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.steps + 1)

    def validate_initial(self, triple: EvolutionTriple, datum: np.ndarray | None = None) -> None:
        """u_0 must be w0, and datum when given, up to INITIAL_DATUM_TOL in the H-norm."""
        for name, target in (("w0", self.w0), ("the problem's datum", datum)):
            if target is None:
                continue
            defect = triple.h_norm(self.states[0] - target)
            if defect >= INITIAL_DATUM_TOL:
                raise ValueError(f"initial state does not carry the datum: "
                                 f"|u0 - {name}|_H = {defect:.3e}")

    def copy(self) -> "Trajectory":
        return Trajectory(self.states.copy(), self.t0, self.t1, self.w0.copy())


def constant_trajectory(problem: ProblemSpec, steps: int) -> Trajectory:
    """Constant-in-time extension of the initial state (the default guess)."""
    states = np.tile(problem.initial, (steps + 1, 1))
    return Trajectory(states, problem.horizon[0], problem.horizon[1], problem.initial.copy())


def time_derivative(triple: EvolutionTriple, traj: Trajectory) -> np.ndarray:
    """Backward differences D_k = (I u_k - I u_{k-1}) / dt for k = 1..M."""
    iu = triple.apply_i(traj.states)
    return np.diff(iu, axis=0) / traj.dt


def residual(problem: ProblemSpec, traj: Trajectory) -> np.ndarray:
    """Per-step dual residuals r_k = D_k + Lambda_{t_k}(u_k) + DPsi_{t_k}(lam u_k)."""
    lam = problem.lambda_flag
    times, states = traj.times[1:], traj.states[1:]
    with named_steps():
        r = time_derivative(problem.triple, traj) + problem.lambda_op(times, states)
        if lam:
            r = r + problem.potential.grad(times, lam * states)
    return r


def trajectory_to_csv(traj: Trajectory) -> str:
    """CSV with header t,x_0,...,x_{n-1}, one row per grid point, %.17g floats."""
    buf = io.StringIO()
    header = "t," + ",".join(f"x_{i}" for i in range(traj.dim))
    buf.write(header + "\n")
    times = traj.times
    for k in range(traj.steps + 1):
        row = [_fmt(times[k])] + [_fmt(v) for v in traj.states[k]]
        buf.write(",".join(row) + "\n")
    return buf.getvalue()


def trajectory_from_csv(text: str, w0: np.ndarray | None = None) -> Trajectory:
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("t,"):
        raise ValueError("not a trajectory CSV (missing 't,x_0,...' header)")
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    times, states = data[:, 0], data[:, 1:]
    if w0 is None:
        w0 = states[0].copy()
    return Trajectory(states, float(times[0]), float(times[-1]), np.asarray(w0, dtype=float))


def _fmt(v: float) -> str:
    return format(float(v), ".17g")
