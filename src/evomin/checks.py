"""Finite-sample checkers of the standing hypotheses: growth of Psi, joint
monotonicity and coercivity (positivity), each read off the problem it checks.

The checkers can only falsify universally quantified inequalities; on
samples that do not violate them they fit the smallest certifying
constants and report those.  Reports always say which constants were
fitted so downstream consumers never mistake a finite-sample pass for a
proof.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

__all__ = ["ConditionReport", "sample_states", "check_growth", "check_monotonicity",
           "check_coercivity"]

# Sampling: growth conditions live at large radii, so radii are drawn
# log-uniformly over four decades instead of from a uniform box.
RADIUS_RANGE = (1e-2, 1e2)

# The checkers evaluate their samples in blocks of about this many entries
# (rows x dim), one stacked call per layer and block.  One call on all
# samples at once would hold every temporary of every layer for all of
# them and raise the peak memory; blocks keep it at the per-sample level.
CHECK_BLOCK_ENTRIES = 32768

# a monotonicity sample violates when lhs < -MONOTONICITY_BOUND ||h||_H^2
MONOTONICITY_BOUND = 1e6
# coercivity constants are tested with a COERCIVITY_SAFETY margin, and a
# fitted 1/Ctilde at or below ALPHA_FLOOR counts as none at all
COERCIVITY_SAFETY = 10.0
ALPHA_FLOOR = 1e-8


@dataclass
class ConditionReport:
    """Outcome of a finite-sample hypothesis check.

    A report with no violations means "not falsified on these samples";
    violations holds the indices of the violating samples in drawing order,
    fitted_constants the smallest certifying constants observed.
    """

    name: str
    samples: int
    violations: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))
    fitted_constants: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return len(self.violations) == 0

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "samples": self.samples,
            "passed": self.passed,
            "violation_count": len(self.violations),
            "fitted_constants": {k: float(v) for k, v in self.fitted_constants.items()},
        }


def sample_states(rng: np.random.Generator, dim: int, count: int) -> np.ndarray:
    """Draw count states r*xi, xi uniform on the sphere, r log-uniform."""
    xi = rng.standard_normal((count, dim))
    norms = np.linalg.norm(xi, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    xi /= norms
    lo, hi = np.log(RADIUS_RANGE[0]), np.log(RADIUS_RANGE[1])
    r = np.exp(rng.uniform(lo, hi, size=(count, 1)))
    return r * xi


def _evaluate_samples(problem, samples: int, rng, stacks: int, evaluate) -> list:
    """Draw `stacks` stacks of states, then one time per sample in the horizon;
    evaluate(t, *states) on each block returns per-sample arrays, joined here."""
    rng = rng or np.random.default_rng(0)
    states = [sample_states(rng, problem.dim, samples) for _ in range(stacks)]
    ts = rng.uniform(problem.horizon[0], problem.horizon[1], size=samples)
    size = max(1, CHECK_BLOCK_ENTRIES // problem.dim)
    blocks = [evaluate(ts[lo:lo + size], *(s[lo:lo + size] for s in states))
              for lo in range(0, samples, size)]
    return [np.concatenate(column) for column in zip(*blocks)]


def check_growth(problem, samples: int, c0: float,
                 rng: Optional[np.random.Generator] = None) -> ConditionReport:
    """Sample the growth envelope of the potential against C0 and the X-norm's q.

    Pass/fail per sample tests the upper bound Psi_t(x) <= C0 ||x||_X^q + C0
    with the declared constants (the coercive lower bound is the business of
    the coercivity checker); fitted_constants report the smallest C0 that
    certifies both bounds on the samples, plus the gradient-bound constant
    in ||DPsi(x)|| <= Cbar (||x||^{q-1} + 1).
    """
    if samples < 1:
        return ConditionReport("growth", samples)
    pot, tri, q = problem.potential, problem.triple, problem.triple.xnorm.q
    p, nx, gn = _evaluate_samples(problem, samples, rng, 1, lambda t, x: (
        pot.psi(t, x), tri.x_norm(x), np.linalg.norm(pot.grad(t, x), axis=1)))
    nxq = nx**q
    # smallest C satisfying both (1/C)a - C <= p and p <= C a + C; the root
    # (-p + sqrt(p^2 + 4a)) / 2 is taken as 2a / (p + sqrt(p^2 + 4a)) for p > 0,
    # which does not cancel at large p
    root = np.sqrt(p * p + 4.0 * nxq)
    c_low = 0.5 * (root - p)
    pos = p > 0.0
    c_low[pos] = 2.0 * nxq[pos] / (p[pos] + root[pos])
    c_up = p / (nxq + 1.0)
    bad = p > (c0 * nxq + c0) * (1.0 + 1e-12)
    return ConditionReport("growth", samples, np.flatnonzero(bad), {
        "c0_min": float(np.max(np.maximum(c_low, c_up), initial=0.0)),
        "grad_bound": float(np.max(gn / (nx ** (q - 1.0) + 1.0), initial=0.0)),
    })


def check_monotonicity(problem, samples: int,
                       rng: Optional[np.random.Generator] = None) -> ConditionReport:
    """Sample the joint monotonicity condition on the potential and operator.

    For random (t, x, h) and lam = problem.lambda_flag the quantity

        lhs = <h, lam*(DPsi_t(lam*x + h) - DPsi_t(lam*x)) + DLambda_t(x).h>

    must admit a lower bound of the form -ghat*(||x||_X^q + mu)*||h||_H^2.
    A sample is a violation when lhs < -MONOTONICITY_BOUND * ||h||_H^2;
    otherwise the smallest certifying ghat (with mu := 1) is recorded.
    """
    if samples < 1:
        return ConditionReport("monotonicity", samples)
    pot, tri, q = problem.potential, problem.triple, problem.triple.xnorm.q

    def evaluate(t, x, h):
        term = problem.lambda_op.dlambda(t, x, h)
        if problem.lambda_flag:
            term = term + (pot.grad(t, x + h) - pot.grad(t, x))
        return np.einsum("ij,ij->i", h, term), tri.t_norm_sq(h), tri.x_norm(x) ** q

    lhs, th2, xq = _evaluate_samples(problem, samples, rng, 2, evaluate)
    bad = lhs < -MONOTONICITY_BOUND * th2
    fit = ~bad & (lhs < 0.0) & (th2 > 0.0)
    ghat = np.max(-lhs[fit] / (th2[fit] * (xq[fit] + 1.0)), initial=0.0)
    return ConditionReport("monotonicity", samples, np.flatnonzero(bad),
                           {"ghat": float(ghat), "mu_hat": 1.0})


def check_coercivity(problem, samples: int,
                     rng: Optional[np.random.Generator] = None) -> ConditionReport:
    """Sample the positivity condition Psi + <x, Lambda x> >= a/Ctilde - mu*(...).

    Constants (1/Ctilde, mu) are fitted on the lower half of sampled radii
    and then tested, with a factor-COERCIVITY_SAFETY margin, on all samples;
    an anti-coercive operator breaks any constants fitted at moderate radius
    once the radius grows, which is exactly the observable failure mode.
    """
    if samples < 1:
        return ConditionReport("coercivity", samples)
    tri, q = problem.triple, problem.triple.xnorm.q
    lhs, a, b = _evaluate_samples(problem, samples, rng, 1, lambda t, x: (
        problem.potential.psi(t, x) + np.einsum("ij,ij->i", x, problem.lambda_op(t, x)),
        tri.x_norm(x) ** q, tri.t_norm_sq(x) + 1.0))
    train = np.argsort(a)[: max(1, samples // 2)]
    mu_hat = float(max(0.0, np.max(-lhs[train] / b[train])))
    good = a[train] > 1e-300
    ratios = (lhs[train][good] + mu_hat * b[train][good]) / a[train][good]
    alpha_hat = float(max(0.0, np.min(ratios))) if ratios.size else 0.0
    bad = lhs < (alpha_hat * a / COERCIVITY_SAFETY - COERCIVITY_SAFETY * mu_hat * b
                 - 1e-12 * (1.0 + a + b))
    if alpha_hat <= ALPHA_FLOOR:
        bad |= a > np.median(a)
    return ConditionReport("coercivity", samples, np.flatnonzero(bad), {
        "alpha": alpha_hat, "ctilde": (1.0 / alpha_hat) if alpha_hat > 0 else np.inf,
        "mu_bar": mu_hat})
