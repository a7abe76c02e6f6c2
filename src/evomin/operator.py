"""Time-dependent nonlinear maps X -> X* with their derivatives and adjoints."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = [
    "OperatorLambda",
    "Term",
    "term_operator",
    "linear_operator",
    "OperatorEvaluationError",
]


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
    jacobian(t, x)          -> dense matrix of DLambda_t(x); the Newton
                               direction adds to a writable answer in place,
                               so a writable answer must not be shared
    linear                  -- the matrix L when Lambda_t(x) = L x is declared
                               (a zero matrix declares Lambda = 0); None when
                               Lambda is not declared linear

    Every callable takes one state, or times of shape (M,) with rows x, h, v
    of shape (M, dim), and returns the matching rows; the Jacobian answers
    (dim, dim) for one state and (M, dim, dim) for a stack.  Calling the
    operator, dlambda, dlambda_adjoint or jacobian_matrix on a stack with a
    shared scalar time broadcasts the time over the rows, and each checks
    the answer's shape and that it is finite row by row.

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
    linear: Optional[np.ndarray] = None

    def __call__(self, t, x: np.ndarray) -> np.ndarray:
        return self._evaluate(self.eval, "", t, x)

    def dlambda(self, t, x: np.ndarray, h: np.ndarray) -> np.ndarray:
        return self._evaluate(self.dderiv, " derivative", t, x, h)

    def dlambda_adjoint(self, t, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        return self._evaluate(self.dderiv_adjoint, " adjoint", t, x, v)

    def jacobian_matrix(self, t, x: np.ndarray) -> np.ndarray:
        return self._evaluate(self.jacobian, " Jacobian", t, x, block=(self.dim,))

    def _evaluate(self, fn, what: str, t, x: np.ndarray, *args, block=()) -> np.ndarray:
        """fn(t, x, *args) on one state or an (M, dim) stack, checked for its shape
        (x's, then block) and finite row by row."""
        stack = np.ndim(x) == 2
        if stack:
            t = row_times(t, len(x))
        out = np.asarray(fn(t, x, *args), dtype=float)
        if out.shape != np.shape(x) + block:
            raise ValueError(f"operator{what} returned shape {out.shape} "
                             f"for a state of shape {np.shape(x)}")
        bad = ~np.isfinite(out.reshape(len(x) if stack else 1, -1)).all(axis=1)
        if bad.any():
            row = int(np.argmax(bad)) if stack else None
            raise OperatorEvaluationError(
                f"operator{what} returned a non-finite value "
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
                  scale: float = 1.0) -> OperatorLambda:
    """Lambda(x) = scale * (L x + sum_i A_i^T f_i(B_i1 x, ..., B_ik x)).

    L (linear) is optional; every term is a Term.  The derivative and its
    adjoint follow from this one description:

        DLambda h   = scale * (L h + sum_i A_i^T sum_j df_i/dv_j * (B_ij h))
        DLambda^T v = scale * (L^T v + sum_i sum_j B_ij^T (df_i/dv_j * (A_i v)))

    and the dense Jacobian is DLambda applied to the rows of the identity.

    Everything is written in row form (M @ x as x @ M.T), so the callables
    take one state or an (M, dim) stack alike; the Jacobian broadcasts each
    state x[..., None, :] over the identity's rows, one block per state.
    With no terms Lambda is declared linear, OperatorLambda.linear = scale * L
    (zero when L is None).
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
        # h's shape, or one block per state when the Jacobian passes the identity
        out = np.zeros(np.broadcast_shapes(np.shape(x), np.shape(h)))
        if linear is not None:
            out += h @ linear.T
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

    def lam_jacobian(t, x):
        # row i of a block is DLambda e_i: the block is its transpose
        return np.swapaxes(lam_dderiv(t, x[..., None, :], np.eye(dim)), -1, -2)

    declared = None
    if not terms:
        declared = np.zeros((dim, dim)) if linear is None else scale * linear
    return OperatorLambda(dim=dim, eval=lam_eval, dderiv=lam_dderiv,
                          dderiv_adjoint=lam_adjoint, jacobian=lam_jacobian,
                          linear=declared)


def _outer(term: Term, y: np.ndarray) -> np.ndarray:
    """outer^T y in row form."""
    return y if term.outer is None else y @ term.outer


def linear_operator(matrix: np.ndarray) -> OperatorLambda:
    """Lambda(x) = M x: the term operator with a linear part only."""
    matrix = np.asarray(matrix, dtype=float)
    return term_operator(matrix.shape[0], linear=matrix)
