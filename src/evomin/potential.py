"""Convex time-dependent potentials, their gradients and Legendre conjugates.

Built-in kinds carry closed-form conjugates where available (quadratic
forms, componentwise powers, quadratic composed forms); everything else
falls back to a damped Newton solve of  DPsi_t(z) = y.  Time dependence
is restricted to a positive scalar modulation a(t) multiplying a fixed
convex base.

The Newton solve starts from z = y unless the caller passes a `start`,
typically the maximizers of a nearby trajectory: the minimizer hands each
trial point the maximizers of its current iterate.  A warm solve that
fails is repeated from z = y, so a start can change the iteration count
and the last bits of z*, never whether the solve succeeds.

A 1-D quadratic matrix declares a diagonal: its formulas are elementwise,
with the bits of the dense ones.  It and the pointwise power are the kinds
whose hess_diagonal is not None; a 2-D matrix is used as given.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .operator import row_times
from .triple import require_symmetric, times_matrix

__all__ = ["Potential", "ConjugateFailure"]

NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 100
NEWTON_MAX_HALVINGS = 60
HESS_REGULARIZATION = 1e-14


class ConjugateFailure(RuntimeError):
    """Newton solve of DPsi(z) = y did not converge.

    row is the first failing row when the failure comes from a stacked call.
    """

    def __init__(self, message: str, residual: float, row: Optional[int] = None):
        super().__init__(message)
        self.residual = residual
        self.row = row


class Potential:
    """Convex potential Psi_t(x) = a(t) * Psi_base(x) with Psi_base(0) = 0.

    Construct through the classmethods: quadratic, pointwise_power,
    composed_power, custom.

    psi, grad, conjugate, conjugate_argmax and duality_gap take one state or
    an (M, dim) stack of rows; on a stack, t is one time per row (or one
    shared time).  Every formula is written once, in row form: one state is
    evaluated as a stack of one row, and custom kinds call their callbacks
    row by row.
    """

    def __init__(self, kind, dim, modulation=None, **params):
        self.kind = kind
        self.dim = dim
        self.modulation = modulation
        self.params = params
        self._chol = None
        self._inv_sqrt = None
        # D^2Psi_t when it is one matrix at every t and x (1-D: its diagonal):
        # an unmodulated quadratic or q = 2 composed power; None otherwise
        self.constant_hessian = None
        if kind == "quadratic":
            a_mat = params["matrix"]
            if a_mat.ndim == 1:
                if not np.all(np.isfinite(a_mat) & (a_mat > 0.0)):
                    raise np.linalg.LinAlgError(
                        "diagonal quadratic potential must have positive finite entries")
                self._inv_sqrt = 1.0 / np.sqrt(a_mat)
            else:
                self._chol = cho_factor(a_mat)
            if modulation is None:
                self.constant_hessian = a_mat
        elif kind == "composed_power" and params["q"] == 2.0:
            g = params["matrix"]
            gram = params["scale"] * (g.T @ g)
            try:
                self._chol = cho_factor(gram)
            except np.linalg.LinAlgError:
                self._chol = None  # conjugate will report failure on use
            if modulation is None:
                self.constant_hessian = gram
        elif kind == "custom":
            at_zero = float(params["psi"](np.zeros(dim)))
            if abs(at_zero) > 1e-12:
                raise ValueError(f"potential must vanish at the origin, got {at_zero}")

    # -- constructors ------------------------------------------------------

    @classmethod
    def quadratic(cls, matrix: np.ndarray, modulation=None) -> "Potential":
        """Psi(x) = x^T A x / 2 for SPD A; a 1-D A is the diagonal matrix with
        those entries.  A 2-D A must be symmetric (the mass matrix's rule):
        its Cholesky factor reads only the upper triangle."""
        matrix = np.atleast_1d(np.asarray(matrix, dtype=float))
        if matrix.ndim > 2 or matrix.shape[0] != matrix.shape[-1]:
            raise ValueError("quadratic potential needs a square matrix or a diagonal")
        if matrix.ndim == 2:
            require_symmetric(matrix, "quadratic potential matrix")
        return cls("quadratic", matrix.shape[0], modulation, matrix=matrix)

    @classmethod
    def pointwise_power(cls, q: float, dim: int, weight=None, modulation=None) -> "Potential":
        """Psi(x) = sum_i w_i |x_i|^q / q with q >= 2."""
        if not q >= 2.0:
            raise ValueError("pointwise power needs q >= 2")
        w = np.ones(dim) if weight is None else np.broadcast_to(
            np.asarray(weight, dtype=float), (dim,)
        ).copy()
        if not np.all(w > 0.0):
            raise ValueError("weights must be positive")
        return cls("pointwise_power", dim, modulation, q=float(q), weight=w)

    @classmethod
    def composed_power(cls, matrix: np.ndarray, q: float, scale: float = 1.0,
                       modulation=None) -> "Potential":
        """Psi(x) = scale * ||G x||_q^q / q with q >= 2 and scale > 0."""
        if not q >= 2.0:
            raise ValueError("composed power needs q >= 2")
        scale = float(scale)
        if not (np.isfinite(scale) and scale > 0.0):
            raise ValueError(f"composed power scale must be positive and finite, got {scale}")
        matrix = np.asarray(matrix, dtype=float)
        return cls("composed_power", matrix.shape[1], modulation,
                   matrix=matrix, q=float(q), scale=scale)

    @classmethod
    def custom(cls, psi: Callable, grad: Callable, dim: int,
               hess_action: Optional[Callable] = None, modulation=None) -> "Potential":
        """Psi from callbacks psi(x), grad(x) on the unmodulated base."""
        return cls("custom", dim, modulation, psi=psi, grad=grad, hess_action=hess_action)

    # -- core evaluations ----------------------------------------------------

    def _a_rows(self, t, rows: int) -> np.ndarray:
        """a(t_k) for each of `rows` rows, t one time per row or one shared time;
        a ValueError unless every a(t_k) is positive and finite."""
        if self.modulation is None:
            return np.ones(rows)
        ts = row_times(t, rows)
        a = np.array([float(self.modulation(tk)) for tk in ts])
        for ak, tk in zip(a, ts):
            if not (ak > 0.0 and np.isfinite(ak)):
                raise ValueError(f"time modulation must be positive and finite: {ak} at t={tk}")
        return a

    def psi(self, t, x: np.ndarray):
        xs = self._rows(x)
        a = self._a_rows(t, len(xs))
        if self.kind == "quadratic":
            ax = times_matrix(xs, self.params["matrix"])
            out = 0.5 * a * np.einsum("ij,ij->i", ax, xs)
        elif self.kind == "pointwise_power":
            q, w = self.params["q"], self.params["weight"]
            out = a * np.sum(w * np.abs(xs) ** q, axis=1) / q
        elif self.kind == "composed_power":
            q = self.params["q"]
            gx = xs @ self.params["matrix"].T
            out = a * self.params["scale"] * np.sum(np.abs(gx) ** q, axis=1) / q
        else:
            out = a * np.array([float(self.params["psi"](row)) for row in xs])
        return out if np.ndim(x) == 2 else out[0]

    def grad(self, t, x: np.ndarray) -> np.ndarray:
        xs = self._rows(x)
        out = self._grad_rows(self._a_rows(t, len(xs))[:, None], xs)
        return out if np.ndim(x) == 2 else out[0]

    # -- Legendre transform --------------------------------------------------

    def conjugate(self, t, y: np.ndarray):
        """Psi*_t(y) = sup_z <z,y> - Psi_t(z)."""
        return self.conjugate_value(t, y, self.conjugate_argmax(t, y))

    def conjugate_value(self, t, y: np.ndarray, z: np.ndarray):
        """Psi*_t(y) from its maximizer z = DPsi*_t(y), without a second solve.

        Closed forms where the kind has one (1/2 <z,y> for the quadratic
        kinds, <z,y>/q* for powers), else <z,y> - Psi_t(z).  One value per
        row on a stack.
        """
        pair = np.einsum("...i,...i->...", z, y)
        if self.kind == "quadratic" or (self.kind == "composed_power"
                                        and self.params["q"] == 2.0):
            return 0.5 * pair
        if self.kind == "pointwise_power":
            q = self.params["q"]
            return pair / (q / (q - 1.0))
        return pair - self.psi(t, z)

    def conjugate_argmax(self, t, y: np.ndarray, start=None) -> np.ndarray:
        """The maximizer z* with DPsi_t(z*) = y; equals DPsi*_t(y).

        start, shaped like y, is where the Newton solve of the kinds without
        a closed form begins instead of z = y; if that solve raises
        ConjugateFailure it is rerun from z = y, whose result or failure is
        returned.  Closed-form kinds ignore start.
        """
        ys = self._rows(y)
        a = self._a_rows(t, len(ys))[:, None]
        if self.kind == "pointwise_power":
            q, w = self.params["q"], self.params["weight"]
            zs = np.sign(ys) * (np.abs(ys) / (a * w)) ** (1.0 / (q - 1.0))
        elif self._inv_sqrt is not None:
            # cho_solve((diag(sqrt(d)), False), ys.T).T bit for bit: the two
            # triangular solves of LAPACK's potrs, as OpenBLAS runs them,
            # multiply by the inverted diagonal
            r = self._inv_sqrt
            zs = ys * r * r / a
        elif self.kind == "quadratic" or (self.kind == "composed_power"
                                          and self.params["q"] == 2.0):
            if self._chol is None:
                raise ConjugateFailure("composed quadratic has singular G^T G", np.inf, row=0)
            zs = cho_solve(self._chol, ys.T).T / a
        else:
            zs = None
            if start is not None:
                try:
                    zs = self._newton_argmax_batch(t, ys, self._rows(np.reshape(start, ys.shape)))
                except ConjugateFailure:
                    pass
            if zs is None:
                zs = self._newton_argmax_batch(t, ys)
        return zs if np.ndim(y) == 2 else zs[0]

    def duality_gap(self, t, x: np.ndarray, y: np.ndarray):
        """Psi_t(x) + Psi*_t(y) - <x,y>; nonnegative, zero iff y = DPsi_t(x).

        One value per row on a stack.
        """
        pair = np.einsum("ij,ij->i", self._rows(x), self._rows(y))
        return self.psi(t, x) + self.conjugate(t, y) - (pair if np.ndim(x) == 2 else pair[0])

    # -- row forms (rows of states, a the column of per-row modulations) ------

    def _grad_rows(self, a: np.ndarray, xs: np.ndarray) -> np.ndarray:
        """a * DPsi_base on checked rows, a the column of per-row modulations."""
        if self.kind == "quadratic":
            return a * times_matrix(xs, self.params["matrix"].T)
        if self.kind == "pointwise_power":
            q, w = self.params["q"], self.params["weight"]
            return a * (w * np.abs(xs) ** (q - 1.0) * np.sign(xs))
        if self.kind == "composed_power":
            q, g = self.params["q"], self.params["matrix"]
            gx = xs @ g.T
            return a * (self.params["scale"] * ((np.abs(gx) ** (q - 1.0) * np.sign(gx)) @ g))
        return a * np.array([np.asarray(self.params["grad"](x), dtype=float) for x in xs])

    def _composed_hess_rows(self, a: np.ndarray, xs: np.ndarray) -> np.ndarray:
        """The (M, dim, dim) Hessians of the composed power at rows xs."""
        q, g = self.params["q"], self.params["matrix"]
        d = (q - 1.0) * np.abs(xs @ g.T) ** (q - 2.0) + HESS_REGULARIZATION
        return ((a * self.params["scale"])[:, :, None] * (g.T * d[:, None, :])) @ g

    def _newton_argmax_batch(self, t, ys: np.ndarray, start=None) -> np.ndarray:
        """Damped Newton for DPsi_t(z) = y on all rows at once, from z = start
        (z = y when start is None).

        Each row backtracks on its own until its residual decreases; a
        failure names the first failing row.
        """
        ts = row_times(t, len(ys))
        a = self._a_rows(ts, len(ys))[:, None]
        zs = ys.copy() if start is None else start.copy()
        res = self._grad_rows(a, zs) - ys
        rnorm = np.max(np.abs(res), axis=1)
        for _ in range(NEWTON_MAX_ITER):
            active = np.flatnonzero(rnorm >= NEWTON_TOL)
            if not active.size:
                return zs
            za, ya, aa = zs[active], ys[active], a[active]
            if self.kind == "composed_power":
                hess = self._composed_hess_rows(aa, za)
            else:
                hess = np.array([self.hess_matrix(tk, z) for tk, z in zip(ts[active], za)])
            try:
                step = np.linalg.solve(hess, -res[active][:, :, None])[:, :, 0]
            except np.linalg.LinAlgError:
                raise ConjugateFailure("singular Hessian in conjugate Newton",
                                       float(rnorm[active[0]]), row=int(active[0]))
            alpha = np.ones(len(active))
            best = za.copy()
            rbest = rnorm[active].copy()
            res_best = res[active]
            improved = np.zeros(len(active), dtype=bool)
            for _ in range(NEWTON_MAX_HALVINGS):
                trial = za + alpha[:, None] * step
                rt = self._grad_rows(aa, trial) - ya
                rn = np.max(np.abs(rt), axis=1)
                gain = ~improved & (rn < rbest)
                best[gain] = trial[gain]
                rbest[gain] = rn[gain]
                res_best[gain] = rt[gain]
                improved |= gain
                if improved.all():
                    break
                alpha[~improved] *= 0.5
            else:
                row = int(active[np.argmin(improved)])
                raise ConjugateFailure("conjugate Newton line search stalled",
                                       float(rnorm[row]), row=row)
            zs[active] = best
            res[active] = res_best
            rnorm[active] = rbest
        if np.max(rnorm) < NEWTON_TOL:
            return zs
        row = int(np.argmax(rnorm >= NEWTON_TOL))
        raise ConjugateFailure(
            f"conjugate Newton did not reach {NEWTON_TOL} in {NEWTON_MAX_ITER} iterations",
            float(rnorm[row]), row=row,
        )

    # -- second derivative ----------------------------------------------------

    def hess_matrix(self, t: float, x: np.ndarray) -> np.ndarray:
        """Dense matrix of D^2 Psi_t(x) at one state; finite differences for custom kinds."""
        x = self._rows(x, stack=False)[0]
        a = self._a_rows(t, 1)[0]
        if self.kind == "quadratic":
            m = self.params["matrix"]
            return np.diag(a * m) if m.ndim == 1 else a * m
        if self.kind == "pointwise_power":
            return np.diag(self.hess_diagonal(t, x))
        if self.kind == "composed_power":
            return self._composed_hess_rows(np.array([[a]]), x[None])[0]
        if self.params.get("hess_action") is not None:
            act = self.params["hess_action"]
            cols = np.empty((self.dim, self.dim))
            eye = np.eye(self.dim)
            for i in range(self.dim):
                cols[:, i] = act(x, eye[i])
            return a * cols
        # forward differences of the gradient
        step = 1e-7 * (1.0 + float(np.linalg.norm(x)))
        g = self._grad_rows(1.0, np.vstack([x, x + step * np.eye(self.dim)]))
        cols = ((g[1:] - g[0]) / step).T
        return a * cols

    def hess_diagonal(self, t: float, x: np.ndarray) -> Optional[np.ndarray]:
        """The diagonal of D^2 Psi_t(x) for the kinds diagonal by construction,
        a quadratic with a 1-D matrix and the pointwise power; None for every
        other kind, at one state x.  No matrix is formed.
        """
        x = self._rows(x, stack=False)[0]
        a = self._a_rows(t, 1)[0]
        if self.kind == "quadratic" and self.params["matrix"].ndim == 1:
            return a * self.params["matrix"]
        if self.kind == "pointwise_power":
            q, w = self.params["q"], self.params["weight"]
            return a * (w * (q - 1.0) * np.abs(x) ** (q - 2.0) + HESS_REGULARIZATION)
        return None

    def scaled(self, factor: float) -> "Potential":
        """A new potential factor * Psi_t (factor > 0 and finite)."""
        if not (np.isfinite(factor) and factor > 0.0):
            raise ValueError(f"scale factor must be positive and finite, got {factor}")
        base = self.modulation
        if base is None:
            modulation = (lambda t, f=factor: f)
        else:
            modulation = (lambda t, f=factor, b=base: f * b(t))
        return Potential(self.kind, self.dim, modulation, **self.params)

    def _rows(self, x, stack: bool = True) -> np.ndarray:
        """x as checked rows: an (M, dim) stack as it is (unless stack is False),
        one state as one row."""
        xs = np.asarray(x, dtype=float)
        if xs.ndim < 2:
            xs = xs.reshape(1, -1)
        if xs.ndim != 2 or xs.shape[1] != self.dim or (not stack and np.ndim(x) > 1):
            raise ValueError(f"expected {'rows or ' if stack else ''}one state of length "
                             f"{self.dim}, got shape {np.shape(x)}")
        if not np.all(np.isfinite(xs)):
            raise ValueError("potential input must be finite")
        return xs
