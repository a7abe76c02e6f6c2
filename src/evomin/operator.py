"""Time-dependent nonlinear maps X -> X* and finite-sample hypothesis checkers.

The checkers can only falsify universally quantified inequalities; on
samples that do not violate them they fit the smallest certifying
constants and report those.  Reports always say which constants were
fitted so downstream consumers never mistake a finite-sample pass for a
proof.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

__all__ = [
    "OperatorLambda",
    "Term",
    "term_operator",
    "linear_operator",
    "OperatorEvaluationError",
    "ConditionReport",
    "sample_states",
    "check_monotonicity",
    "check_coercivity",
]

# Sampling: growth conditions live at large radii, so radii are drawn
# log-uniformly over four decades instead of from a uniform box.
RADIUS_RANGE = (1e-2, 1e2)

# The checkers evaluate their samples in blocks of about this many entries
# (rows x dim), one stacked call per layer and block.  One call on all
# samples at once would hold every temporary of every layer for all of
# them and raise the peak memory; blocks keep it at the per-sample level.
CHECK_BLOCK_ENTRIES = 32768


class OperatorEvaluationError(RuntimeError):
    """Operator returned a non-finite value (blow-up state).

    row is the first failing row when the failure comes from a stacked call.
    """

    def __init__(self, message: str, row: Optional[int] = None):
        super().__init__(message)
        self.row = row


def row_times(t, rows: int) -> np.ndarray:
    """One time per row: a shared scalar time is broadcast over the rows."""
    return np.broadcast_to(np.asarray(t, dtype=float), (rows,))


@dataclass
class OperatorLambda:
    """Nonlinear map Lambda_t with its derivative, adjoint and Jacobian.

    eval(t, x)              -> dual vector Lambda_t(x)
    dderiv(t, x, h)         -> dual vector DLambda_t(x) . h
    dderiv_adjoint(t, x, v) -> DLambda_t(x)^T v
    jacobian(t, x)          -> dense matrix of DLambda_t(x), for one state
    kind_tag                -- label used by reports only
    linear                  -- the matrix L when Lambda_t(x) = L x is declared
                               (a zero matrix declares Lambda = 0); None when
                               Lambda is not declared linear

    eval, dderiv and dderiv_adjoint take one state, or times of shape (M,)
    with rows x, h, v of shape (M, dim), and return the matching rows.
    Calling the operator, dlambda or dlambda_adjoint on a stack with a
    shared scalar time broadcasts the time over the rows.

    The callables need not be written by hand: term_operator derives eval,
    dderiv and dderiv_adjoint from one description as a linear part plus
    pointwise terms (the 1D families and linear_operator are built that way),
    takes the Jacobian as dderiv applied to the identity, and declares linear
    for a description with no terms.  A hand-built operator declares nothing.
    """

    dim: int
    eval: Callable[[float, np.ndarray], np.ndarray]
    dderiv: Callable[[float, np.ndarray, np.ndarray], np.ndarray]
    dderiv_adjoint: Callable[[float, np.ndarray, np.ndarray], np.ndarray]
    jacobian: Callable[[float, np.ndarray], np.ndarray]
    kind_tag: str = "custom"
    linear: Optional[np.ndarray] = None

    def __call__(self, t, x: np.ndarray) -> np.ndarray:
        return self._evaluate(self.eval, "", t, x)

    def dlambda(self, t, x: np.ndarray, h: np.ndarray) -> np.ndarray:
        return self._evaluate(self.dderiv, " derivative", t, x, h)

    def dlambda_adjoint(self, t, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        return self._evaluate(self.dderiv_adjoint, " adjoint", t, x, v)

    def jacobian_matrix(self, t: float, x: np.ndarray) -> np.ndarray:
        return np.asarray(self.jacobian(t, x), dtype=float)

    def _evaluate(self, fn, what: str, t, x: np.ndarray, *args) -> np.ndarray:
        """fn(t, x, *args) on one state or an (M, dim) stack, checked for its shape
        and finite row by row."""
        stack = np.ndim(x) == 2
        if stack:
            t = row_times(t, len(x))
        out = np.asarray(fn(t, x, *args), dtype=float)
        if out.shape != np.shape(x):
            raise ValueError(f"operator '{self.kind_tag}'{what} returned shape {out.shape} "
                             f"for a state of shape {np.shape(x)}")
        bad = ~np.isfinite(out.reshape(len(x) if stack else 1, -1)).all(axis=1)
        if bad.any():
            row = int(np.argmax(bad)) if stack else None
            raise OperatorEvaluationError(
                f"operator '{self.kind_tag}'{what} returned a non-finite value "
                f"at t={t if row is None else t[row]}",
                row=row,
            )
        return out


@dataclass(frozen=True)
class Term:
    """One term outer^T f(inner_1 x, ..., inner_k x) of a term operator.

    f (value) acts componentwise on the k arrays inner_j x; partials holds
    its k partial derivatives, functions of the same k arrays.  outer and
    every inner_j are matrices, or None for the identity.
    """

    value: Callable[..., np.ndarray]
    partials: tuple
    inner: tuple = (None,)
    outer: Optional[np.ndarray] = None

    def args(self, x: np.ndarray) -> list:
        """[inner_1 x, ..., inner_k x] in row form."""
        return [x if b is None else x @ b.T for b in self.inner]


def term_operator(dim: int, terms=(), linear: Optional[np.ndarray] = None,
                  scale: float = 1.0, kind_tag: str = "custom") -> OperatorLambda:
    """Lambda(x) = scale * (L x + sum_i A_i^T f_i(B_i1 x, ..., B_ik x)).

    L (linear) is optional; every term is a Term.  The derivative and its
    adjoint follow from this one description:

        DLambda h   = scale * (L h + sum_i A_i^T sum_j df_i/dv_j * (B_ij h))
        DLambda^T v = scale * (L^T v + sum_i sum_j B_ij^T (df_i/dv_j * (A_i v)))

    and the dense Jacobian is DLambda applied to the rows of the identity.

    Everything is written in row form (M @ x as x @ M.T), so the callables
    take one state or an (M, dim) stack alike.  With no terms Lambda is
    declared linear, OperatorLambda.linear = scale * L (zero when L is None).
    """
    terms = tuple(terms)
    if linear is not None:
        linear = np.asarray(linear, dtype=float)

    def lam_eval(t, x):
        out = np.zeros_like(x) if linear is None else x @ linear.T
        for term in terms:
            out += _outer(term, term.value(*term.args(x)))
        return scale * out

    def lam_dderiv(t, x, h):
        out = np.zeros_like(h) if linear is None else h @ linear.T
        for term in terms:
            args, dirs = term.args(x), term.args(h)
            inner = term.partials[0](*args) * dirs[0]
            for d, hb in zip(term.partials[1:], dirs[1:]):
                inner = inner + d(*args) * hb
            out += _outer(term, inner)
        return scale * out

    def lam_adjoint(t, x, v):
        out = np.zeros_like(v) if linear is None else v @ linear
        for term in terms:
            args = term.args(x)
            av = v if term.outer is None else v @ term.outer.T
            for d, b in zip(term.partials, term.inner):
                w = d(*args) * av
                out += w if b is None else w @ b
        return scale * out

    declared = None
    if not terms:
        declared = np.zeros((dim, dim)) if linear is None else scale * linear
    return OperatorLambda(dim=dim, eval=lam_eval, dderiv=lam_dderiv,
                          dderiv_adjoint=lam_adjoint,
                          jacobian=lambda t, x: lam_dderiv(t, x, np.eye(dim)).T,
                          kind_tag=kind_tag, linear=declared)


def _outer(term: Term, y: np.ndarray) -> np.ndarray:
    """outer^T y in row form."""
    return y if term.outer is None else y @ term.outer


def linear_operator(matrix: np.ndarray, kind_tag: str = "linear") -> OperatorLambda:
    """Lambda(x) = M x: the term operator with a linear part only."""
    matrix = np.asarray(matrix, dtype=float)
    return term_operator(matrix.shape[0], linear=matrix, kind_tag=kind_tag)


@dataclass
class ConditionReport:
    """Outcome of a finite-sample hypothesis check.

    A report with no violations means "not falsified on these samples";
    fitted_constants carry the smallest certifying constants observed.
    """

    name: str
    samples: int
    violations: list = field(default_factory=list)
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


def sample_blocks(count: int, dim: int) -> list:
    """Slices of range(count), each at most max(1, CHECK_BLOCK_ENTRIES // dim) rows long."""
    size = max(1, CHECK_BLOCK_ENTRIES // dim)
    return [slice(lo, min(lo + size, count)) for lo in range(0, count, size)]


def _sample_times(rng: np.random.Generator, horizon: tuple[float, float], count: int) -> np.ndarray:
    t0, t1 = horizon
    return rng.uniform(t0, t1, size=count)


def check_monotonicity(
    problem,
    lambda_flag: int,
    samples: int,
    rng: Optional[np.random.Generator] = None,
    big: float = 1e6,
) -> ConditionReport:
    """Sample the joint monotonicity condition on the potential and operator.

    For random (t, x, h) the quantity

        lhs = <h, lam*(DPsi_t(lam*x + h) - DPsi_t(lam*x)) + DLambda_t(x).h>

    must admit a lower bound of the form -ghat*(||x||_X^q + mu)*||h||_H^2.
    A sample is a violation when lhs < -big * ||h||_H^2; otherwise the
    smallest certifying ghat (with mu := 1) is recorded.
    """
    rng = rng or np.random.default_rng(0)
    tri = problem.triple
    lam = int(lambda_flag)
    q = tri.xnorm.q
    report = ConditionReport(name="monotonicity", samples=samples)
    if samples < 1:
        return report
    xs = sample_states(rng, tri.dim, samples)
    hs = sample_states(rng, tri.dim, samples)
    ts = _sample_times(rng, problem.horizon, samples)

    lhs, th2, xq = np.empty(samples), np.empty(samples), np.empty(samples)
    for blk in sample_blocks(samples, tri.dim):
        t, x, h = ts[blk], xs[blk], hs[blk]
        term = problem.lambda_op.dlambda(t, x, h)
        if lam:
            term = term + (
                problem.potential.grad(t, lam * x + h) - problem.potential.grad(t, lam * x)
            )
        lhs[blk] = np.einsum("ij,ij->i", h, term)
        th2[blk] = tri.t_norm_sq(h)
        xq[blk] = tri.x_norm(x) ** q

    bound = -big * th2
    bad = lhs < bound
    fit = ~bad & (lhs < 0.0) & (th2 > 0.0)
    report.violations = [(ts[i], xs[i], hs[i], lhs[i], bound[i]) for i in np.flatnonzero(bad)]
    report.fitted_constants["ghat"] = float(
        np.max(-lhs[fit] / (th2[fit] * (xq[fit] + 1.0)), initial=0.0))
    report.fitted_constants["mu_hat"] = 1.0
    return report


def check_coercivity(
    problem,
    samples: int,
    rng: Optional[np.random.Generator] = None,
    safety: float = 10.0,
    alpha_floor: float = 1e-8,
) -> ConditionReport:
    """Sample the positivity condition Psi + <x, Lambda x> >= a/Ctilde - mu*(...).

    Constants (1/Ctilde, mu) are fitted on the lower half of sampled radii
    and then tested, with a factor-`safety` margin, on all samples; an
    anti-coercive operator breaks any constants fitted at moderate radius
    once the radius grows, which is exactly the observable failure mode.
    """
    rng = rng or np.random.default_rng(0)
    tri = problem.triple
    q = tri.xnorm.q
    report = ConditionReport(name="coercivity", samples=samples)
    if samples < 1:
        return report
    xs = sample_states(rng, tri.dim, samples)
    ts = _sample_times(rng, problem.horizon, samples)

    lhs, a, b = np.empty(samples), np.empty(samples), np.empty(samples)
    for blk in sample_blocks(samples, tri.dim):
        t, x = ts[blk], xs[blk]
        lhs[blk] = (problem.potential.psi(t, x)
                    + np.einsum("ij,ij->i", x, problem.lambda_op(t, x)))
        a[blk] = tri.x_norm(x) ** q
        b[blk] = tri.t_norm_sq(x) + 1.0

    order = np.argsort(a)
    train = order[: max(1, samples // 2)]
    mu_hat = float(max(0.0, np.max(-lhs[train] / b[train])))
    good = a[train] > 1e-300
    ratios = (lhs[train][good] + mu_hat * b[train][good]) / a[train][good]
    alpha_hat = float(max(0.0, np.min(ratios))) if ratios.size else 0.0
    bound = alpha_hat * a / safety - safety * mu_hat * b - 1e-12 * (1.0 + a + b)
    bad = lhs < bound
    if alpha_hat <= alpha_floor:
        bad |= a > np.median(a)
    report.violations = [(ts[i], xs[i], None, lhs[i], bound[i]) for i in np.flatnonzero(bad)]
    report.fitted_constants["alpha"] = alpha_hat
    report.fitted_constants["ctilde"] = (1.0 / alpha_hat) if alpha_hat > 0 else np.inf
    report.fitted_constants["mu_bar"] = mu_hat
    return report
