"""Convex time-dependent potentials, their gradients and Legendre conjugates.

Built-in kinds carry closed-form conjugates where available (quadratic
forms, quadratic composed forms, composed powers with a diagonal G);
everything else falls back to a damped Newton solve of  DPsi_t(z) = y,
which stops a row at |DPsi_t(z) - y|_inf < NEWTON_TOL * max(1, |y|_inf) and
takes its direction from _hess_rows, the one place D^2Psi is written.
Time dependence is restricted to a positive scalar modulation a(t)
multiplying a fixed convex base.

The Newton solve starts from z = y unless the caller passes a `start`,
typically the maximizers of a nearby trajectory: the minimizer hands each
trial point the maximizers of its current iterate.  A warm solve that
fails is repeated from z = y, so a start can change the iteration count
and the last bits of z*, never whether the solve succeeds.

A 1-D quadratic matrix or composed-power image G declares a diagonal: its
formulas are elementwise, with the bits of the dense ones; a 2-D matrix is
used as given.  With a 1-D matrix hess_matrix, the rows of _hess_rows,
answers the diagonal of D^2Psi, one row per state (triple.dense gives the
matrix of one).
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

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


def cho_solve(factor, b: np.ndarray) -> np.ndarray:
    """scipy.linalg.cho_solve, with scipy.linalg loaded on first use (see oracle)."""
    from scipy.linalg import cho_solve as solve

    return solve(factor, b)


def _hessian_factor(hess: np.ndarray):
    """What the conjugate solves D^2Psi z = y with: 1/sqrt of a 1-D hess's
    entries, cho_factor of a 2-D one; a LinAlgError unless hess is SPD."""
    if hess.ndim == 2:
        from scipy.linalg import cho_factor  # scipy.linalg loads on use (see oracle)

        return cho_factor(hess)
    if not np.all(np.isfinite(hess) & (hess > 0.0)):
        raise np.linalg.LinAlgError(
            "diagonal quadratic potential must have positive finite entries")
    return 1.0 / np.sqrt(hess)


class Potential:
    """Convex potential Psi_t(x) = a(t) * Psi_base(x) with Psi_base(0) = 0.

    Construct through the classmethods: quadratic, composed_power, custom.

    psi, grad, hess_matrix, conjugate, conjugate_argmax and duality_gap
    take one state or an (M, dim) stack of rows; on a stack, t is one time
    per row (or one shared time).  Every formula is written once, in row
    form: one state is evaluated as a stack of one row, and custom kinds
    call their callbacks row by row.
    """

    def __init__(self, kind, dim, modulation=None, **params):
        self.kind = kind
        self.dim = dim
        self.modulation = modulation
        self.params = params
        # D^2Psi_base when it is one matrix at every x (1-D: its diagonal), for a
        # quadratic or a q = 2 composed power, and the factor its conjugate uses
        self._hessian = self._factor = None
        # a power with a 1-D G: its conjugate has a closed form at every q
        self._diagonal_power = kind == "composed_power" and params["matrix"].ndim == 1
        if kind == "quadratic":
            self._hessian = params["matrix"]
        elif kind == "composed_power" and params["q"] == 2.0:
            g = params["matrix"]
            self._hessian = params["scale"] * (g * g if g.ndim == 1 else g.T @ g)
        elif kind == "custom":
            at_zero = float(params["psi"](np.zeros(dim)))
            if abs(at_zero) > 1e-12:
                raise ValueError(f"potential must vanish at the origin, got {at_zero}")
        if self._hessian is not None:
            try:
                self._factor = _hessian_factor(self._hessian)
            except np.linalg.LinAlgError:
                if kind == "quadratic":
                    raise
                # a singular composed quadratic fails on use, in conjugate_argmax
        # D^2Psi_t when it is one matrix at every t and x: the unmodulated base
        # Hessian (scaled declares factor times its own)
        self.constant_hessian = self._hessian if modulation is None else None

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
    def composed_power(cls, matrix: np.ndarray, q: float, scale: float = 1.0,
                       modulation=None) -> "Potential":
        """Psi(x) = scale * ||G x||_q^q / q with q >= 2 and scale > 0; a 1-D G is
        the diagonal matrix of its entries, which must be positive and finite."""
        if not q >= 2.0:
            raise ValueError("composed power needs q >= 2")
        scale = float(scale)
        if not (np.isfinite(scale) and scale > 0.0):
            raise ValueError(f"composed power scale must be positive and finite, got {scale}")
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim == 1 and not np.all(np.isfinite(matrix) & (matrix > 0.0)):
            raise ValueError("a 1-D G must have positive finite entries")
        return cls("composed_power", matrix.shape[-1], modulation,
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
        elif self.kind == "composed_power":
            q = self.params["q"]
            gx = times_matrix(xs, self.params["matrix"].T)
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

        Closed forms where the kind has one (1/2 <z,y> with a base Hessian,
        <z,y>/q* for a power with a 1-D G), else <z,y> - Psi_t(z).  One value
        per row on a stack.
        """
        pair = np.einsum("...i,...i->...", z, y)
        if self._hessian is not None:
            return 0.5 * pair
        if self._diagonal_power:
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
        if self._hessian is not None:
            r = self._factor
            if r is None:
                raise ConjugateFailure("composed quadratic has singular G^T G", np.inf, row=0)
            # a 1-D Hessian: cho_solve((diag(sqrt(d)), False), ys.T).T bit for bit,
            # the two triangular solves of LAPACK's potrs, as OpenBLAS runs them,
            # multiply by the inverted diagonal
            zs = ys * r * r / a if self._hessian.ndim == 1 else cho_solve(r, ys.T).T / a
        elif self._diagonal_power:
            q, s, g = self.params["q"], self.params["scale"], self.params["matrix"]
            zs = np.sign(ys) * (np.abs(ys) / (a * s * g)) ** (1.0 / (q - 1.0)) / g
        else:
            try:
                zs = self._newton_argmax_batch(t, ys, start)
            except ConjugateFailure:
                if start is None:
                    raise
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
        if self.kind == "composed_power":
            q, g = self.params["q"], self.params["matrix"]
            gx = times_matrix(xs, g.T)
            dphi = np.abs(gx) ** (q - 1.0) * np.sign(gx)
            return a * (self.params["scale"] * times_matrix(dphi, g))
        return a * np.array([np.asarray(self.params["grad"](x), dtype=float) for x in xs])

    def _hess_rows(self, a: np.ndarray, xs: np.ndarray) -> np.ndarray:
        """a * D^2Psi_base on checked rows: (M, dim, dim), or the (M, dim)
        diagonals for a 1-D matrix; finite differences for custom kinds
        without a hess_action."""
        if self.kind == "quadratic":
            return np.multiply.outer(a[:, 0], self.params["matrix"])
        if self.kind == "composed_power":
            q, g = self.params["q"], self.params["matrix"]
            d = (q - 1.0) * np.abs(times_matrix(xs, g.T)) ** (q - 2.0)
            if q != 2.0:
                d += HESS_REGULARIZATION
            if g.ndim == 1:
                return ((a * self.params["scale"]) * (g * d)) * g
            return ((a * self.params["scale"])[:, :, None] * (g.T * d[:, None, :])) @ g
        act, eye = self.params["hess_action"], np.eye(self.dim)
        out = []
        for ak, x in zip(a[:, 0], xs):
            if act is not None:
                cols = np.array([act(x, e) for e in eye], dtype=float).T
            else:
                # forward differences of the gradient
                step = 1e-7 * (1.0 + float(np.linalg.norm(x)))
                g = self._grad_rows(1.0, np.vstack([x, x + step * eye]))
                cols = ((g[1:] - g[0]) / step).T
            out.append(ak * cols)
        return np.array(out)

    def _newton_argmax_batch(self, t, ys: np.ndarray, start=None) -> np.ndarray:
        """Damped Newton for DPsi_t(z) = y on all rows at once, from z = start
        (shaped like ys; z = y when start is None).

        A row stops once |DPsi_t(z) - y|_inf < NEWTON_TOL * max(1, |y|_inf).
        Each row backtracks on its own until its residual decreases; a
        failure names the first failing row.
        """
        a = self._a_rows(t, len(ys))[:, None]
        zs = (ys if start is None else self._rows(np.reshape(start, ys.shape))).copy()
        res = self._grad_rows(a, zs) - ys
        rnorm = np.max(np.abs(res), axis=1)
        # the size of the equation's own terms: at a solution DPsi_t(z) = y
        tol = NEWTON_TOL * np.maximum(1.0, np.max(np.abs(ys), axis=1))
        for _ in range(NEWTON_MAX_ITER):
            active = np.flatnonzero(rnorm >= tol)
            if not active.size:
                return zs
            za, ya, aa = zs[active], ys[active], a[active]
            try:
                step = np.linalg.solve(self._hess_rows(aa, za), -res[active][:, :, None])[:, :, 0]
            except np.linalg.LinAlgError:
                raise ConjugateFailure("singular Hessian in conjugate Newton",
                                       float(rnorm[active[0]]), row=int(active[0]))
            # every row still to improve has the step 2^-k; an improved row is
            # written back at once and ignored by the later trials
            alpha, todo = 1.0, np.ones(len(active), dtype=bool)
            for _ in range(NEWTON_MAX_HALVINGS):
                trial = za + alpha * step
                rt = self._grad_rows(aa, trial) - ya
                rn = np.max(np.abs(rt), axis=1)
                gain = todo & (rn < rnorm[active])
                rows = active[gain]
                zs[rows], res[rows], rnorm[rows] = trial[gain], rt[gain], rn[gain]
                todo &= ~gain
                if not todo.any():
                    break
                alpha *= 0.5
            else:
                row = int(active[np.argmax(todo)])
                raise ConjugateFailure("conjugate Newton line search stalled",
                                       float(rnorm[row]), row=row)
        if np.all(rnorm < tol):
            return zs
        row = int(np.argmax(rnorm >= tol))
        raise ConjugateFailure(f"conjugate Newton did not reach {tol[row]:.3g} in "
                               f"{NEWTON_MAX_ITER} iterations", float(rnorm[row]), row=row)

    # -- second derivative ----------------------------------------------------

    def hess_matrix(self, t, x: np.ndarray) -> np.ndarray:
        """D^2 Psi_t(x) in its declared structure: 1-D (the diagonal) for a
        quadratic or composed power with a 1-D matrix, a dense matrix
        otherwise; on an (M, dim) stack one answer per row, (M, dim) or
        (M, dim, dim).  Finite differences for custom kinds without a
        hess_action."""
        xs = self._rows(x)
        out = self._hess_rows(self._a_rows(t, len(xs))[:, None], xs)
        return out if np.ndim(x) == 2 else out[0]

    def scaled(self, factor: float) -> "Potential":
        """A new potential factor * Psi_t (factor > 0 and finite); a constant
        D^2Psi stays declared, scaled by factor."""
        if not (np.isfinite(factor) and factor > 0.0):
            raise ValueError(f"scale factor must be positive and finite, got {factor}")
        base = self.modulation
        if base is None:
            modulation = (lambda t, f=factor: f)
        else:
            modulation = (lambda t, f=factor, b=base: f * b(t))
        out = Potential(self.kind, self.dim, modulation, **self.params)
        if self.constant_hessian is not None:
            out.constant_hessian = factor * self.constant_hessian
        return out

    def _rows(self, x) -> np.ndarray:
        """x as checked rows: an (M, dim) stack as it is, one state as one row."""
        xs = np.asarray(x, dtype=float)
        if xs.ndim < 2:
            xs = xs.reshape(1, -1)
        if xs.ndim != 2 or xs.shape[1] != self.dim:
            raise ValueError(f"expected rows or one state of length {self.dim}, "
                             f"got shape {np.shape(x)}")
        if not np.all(np.isfinite(xs)):
            raise ValueError("potential input must be finite")
        return xs
