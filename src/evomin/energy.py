"""The discrete trajectory energy, its exact gradient, and energy audits.

Each step contributes exactly one Fenchel duality gap

    Psi_t(lam u_k) + Psi*_t(-D_k - Lambda_t(u_k)) - <lam u_k, -D_k - Lambda_t(u_k)>

integrated with the left-collocated rectangle rule.  The quadrature is
deliberately matched to the backward-difference residual: the energy
vanishes exactly on implicit-Euler solutions and is strictly positive
anywhere else, which is the discrete form of the equivalence between
critical points, minimizers, zero energy and solutions.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .problem import ProblemSpec
from .trajectory import Trajectory, named_steps, time_derivative
from .triple import EvolutionTriple

__all__ = [
    "EnergyBreakdown",
    "energy",
    "energy_breakdown",
    "energy_gradient",
    "energy_balance_audit",
    "summation_by_parts_gap",
    "breakdown_to_csv",
]


@dataclass
class EnergyBreakdown:
    """Per-step (psi, star, pairing) triples and the total energy.

    residuals and argmax keep, per step, the tilde-residual
    R_k = D_k + Lambda(u_k) and the Legendre maximizer z*_k at -R_k, so the
    gradient of the same trajectory needs no second pass.
    """

    psi_terms: np.ndarray
    star_terms: np.ndarray
    pairing_terms: np.ndarray
    dt: float
    times: np.ndarray          # collocation times t_1..t_M
    residuals: np.ndarray      # (M, n) rows R_k
    argmax: np.ndarray         # (M, n) rows z*_k

    @property
    def total(self) -> float:
        return float(self.dt * np.sum(self.psi_terms + self.star_terms + self.pairing_terms))


def energy_breakdown(problem: ProblemSpec, traj: Trajectory,
                     start: Optional[np.ndarray] = None) -> EnergyBreakdown:
    """All M per-step terms in one pass over the (M, n) stack of u_1..u_M.

    start, an (M, n) stack such as the argmax of a nearby trajectory's
    breakdown, is where the conjugate's Newton solve begins (see
    Potential.conjugate_argmax); None starts it from the residual rows.
    u_0 must carry the problem's initial datum (ValueError otherwise).
    """
    traj.validate_initial(problem.triple, problem.initial)
    lam = problem.lambda_flag
    pot = problem.potential
    times, states = traj.times[1:], traj.states[1:]
    m = traj.steps
    with named_steps():
        rtilde = time_derivative(problem.triple, traj) + problem.lambda_op(times, states)
        zstars = pot.conjugate_argmax(times, -rtilde, start)
        star_terms = pot.conjugate_value(times, -rtilde, zstars)
        if lam:
            psi_terms = pot.psi(times, lam * states)
            pair_terms = lam * np.einsum("ij,ij->i", states, rtilde)
        else:
            psi_terms = np.zeros(m)
            pair_terms = np.zeros(m)
    return EnergyBreakdown(psi_terms, star_terms, pair_terms, traj.dt, times, rtilde, zstars)


def energy(problem: ProblemSpec, traj: Trajectory) -> float:
    """The trajectory energy J >= 0; J = 0 iff the discrete residual vanishes."""
    return energy_breakdown(problem, traj).total


def energy_gradient(problem: ProblemSpec, traj: Trajectory,
                    breakdown: Optional[EnergyBreakdown] = None) -> np.ndarray:
    """Exact gradient of the energy with respect to the free states u_1..u_M.

    Uses the envelope theorem: the derivative of the conjugate term is the
    Legendre maximizer z*_k at -(D_k + Lambda(u_k)), so no numerical sup is
    ever differentiated.  u_0 is data, not a decision variable.  breakdown,
    when given, must be energy_breakdown(problem, traj); its residuals and
    maximizers are reused.
    """
    bd = energy_breakdown(problem, traj) if breakdown is None else breakdown
    lam = problem.lambda_flag
    dt = traj.dt
    states = traj.states[1:]
    zstars = bd.argmax
    iz = problem.triple.apply_i(zstars)        # row k: I z*_k
    with named_steps():
        grad = dt * problem.lambda_op.dlambda_adjoint(bd.times, states, lam * states - zstars)
        if lam:
            grad += dt * problem.potential.grad(bd.times, lam * states)
    grad -= iz
    grad[:-1] += iz[1:]
    if lam:
        iu = problem.triple.apply_i(states)
        grad += dt * bd.residuals + iu
        grad[:-1] -= iu[1:]
    return grad


def energy_balance_audit(problem: ProblemSpec, traj: Trajectory) -> np.ndarray:
    """Discrete energy balance defect e(t_m) for m = 1..M.

        e(t_m) = |u_m|_H^2 / 2
                 + dt * sum_{k<=m} <u_k, Lambda(u_k) + DPsi(lam u_k)>
                 - |w_0|_H^2 / 2

    On exact discrete solutions e(t_m) = -sum_{k<=m} |u_k - u_{k-1}|_H^2 / 2,
    which is nonpositive and O(dt): the backward difference dissipates.
    """
    tri = problem.triple
    lam = problem.lambda_flag
    times, states = traj.times[1:], traj.states[1:]
    h0 = 0.5 * tri.h_inner(traj.w0, traj.w0)
    with named_steps():
        diss = problem.lambda_op(times, states)
        if lam:
            diss = diss + problem.potential.grad(times, lam * states)
    acc = np.cumsum(traj.dt * np.einsum("ij,ij->i", states, diss))
    return 0.5 * tri.t_norm_sq(states) + acc - h0


def summation_by_parts_gap(triple: EvolutionTriple, traj: Trajectory) -> float:
    """sum_k <u_k, I u_k - I u_{k-1}> - (|u_M|_H^2 - |u_0|_H^2)/2.

    Equals sum_k |u_k - u_{k-1}|_H^2 / 2: nonnegative, zero only on
    constant trajectories.  This is also the O(dt) discrepancy between the
    boundary-term form of the energy and the telescoped form used here.
    """
    du = np.diff(traj.states, axis=0)
    acc = np.einsum("ij,ij->", traj.states[1:], triple.apply_i(du))
    t_sq = triple.t_norm_sq(traj.states[[0, -1]])
    return float(acc - 0.5 * (t_sq[1] - t_sq[0]))


def breakdown_to_csv(bd: EnergyBreakdown) -> str:
    buf = io.StringIO()
    buf.write("k,t,psi,star,pairing\n")
    for k in range(len(bd.times)):
        row = [
            str(k + 1),
            format(bd.times[k], ".17g"),
            format(bd.psi_terms[k], ".17g"),
            format(bd.star_terms[k], ".17g"),
            format(bd.pairing_terms[k], ".17g"),
        ]
        buf.write(",".join(row) + "\n")
    return buf.getvalue()
