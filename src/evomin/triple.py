"""Finite-dimensional evolution triples.

The state space X, the pivot Hilbert space H and the dual X* are all
realized on coefficient vectors of length ``dim``, in one set of
coordinates: the inclusion X -> H is the identity.  The dual pairing is
the plain Euclidean dot product, and every piece of geometry lives in the
``mass`` matrix of the H inner product, which is also the matrix of the
inclusion I : X -> X*.  An injective inclusion T with H-mass M is the
triple with mass T^T M T started from T^-1 w0.  A 1-D mass or X-norm
image G declares the diagonal matrix of its entries and is applied
elementwise, bit for bit the dense product; a 2-D one is used as given.
The rule holds for answers too: a piece whose matrix is diagonal returns
it 1-D, and dense() builds the matrix where one is needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

__all__ = [
    "XNorm",
    "EvolutionTriple",
]

_SPD_TOL = 1e-12


@dataclass(frozen=True)
class XNorm:
    """Descriptor of the X-norm ||G x||_q with exponent q >= 2.

    G is a linear image of the coefficients (a 1-D G is diagonal, None the
    identity); any mesh scaling is folded into G.
    """

    matrix: Optional[np.ndarray] = None
    q: float = 2.0

    def __post_init__(self):
        if not self.q >= 2.0:
            raise ValueError(f"X-norm exponent must satisfy q >= 2, got {self.q}")
        if self.matrix is not None:
            object.__setattr__(self, "matrix", np.asarray(self.matrix, dtype=float))


@dataclass(frozen=True)
class EvolutionTriple:
    """Discrete model of {X, H, X*}, with X and H on the same coefficients.

    mass   -- SPD matrix of the H inner product and of the inclusion
              I : X -> X* (1-D: diagonal).
    xnorm  -- descriptor of the X-norm; its G, when given, has dim columns.
    """

    dim: int
    mass: np.ndarray
    xnorm: XNorm = field(default_factory=XNorm)

    def __post_init__(self):
        if self.dim <= 0:
            raise ValueError("dim must be a positive integer")
        mass = np.asarray(self.mass, dtype=float)
        if mass.shape == (self.dim,):
            # a diagonal mass is symmetric, and its eigenvalues are its entries
            low, high = np.min(mass), np.max(mass)
        elif mass.shape == (self.dim, self.dim):
            require_symmetric(mass, "mass matrix")
            eigs = np.linalg.eigvalsh(mass)
            low, high = eigs[0], eigs[-1]
        else:
            raise ValueError(f"mass must be of shape (dim,) or (dim, dim), got {mass.shape}")
        if not low > _SPD_TOL * max(1.0, high):
            raise ValueError("mass matrix must be positive definite")
        object.__setattr__(self, "mass", np.ascontiguousarray(mass))
        g = self.xnorm.matrix
        if g is not None and not (
                g.shape == (self.dim,) or (g.ndim == 2 and g.shape[1] == self.dim)):
            raise ValueError(f"X-norm image G must be of shape ({self.dim},) or "
                             f"(rows, {self.dim}), got {g.shape}")

    # -- inner products and inclusions ------------------------------------

    def h_inner(self, w1: np.ndarray, w2: np.ndarray) -> float:
        """H inner product <w1, w2>_H = w1^T mass w2."""
        return float(times_matrix(self._check(w1, stack=False), self.mass)
                     @ self._check(w2, stack=False))

    def h_norm(self, w: np.ndarray) -> float:
        return float(np.sqrt(max(self.h_inner(w, w), 0.0)))

    def apply_t(self, x: np.ndarray) -> np.ndarray:
        """Inclusion X -> H, the identity: a copy of one checked state."""
        return self._check(x, stack=False).copy()

    def apply_t_adjoint(self, w: np.ndarray) -> np.ndarray:
        """Adjoint inclusion H -> X*, w -> mass w: apply_i of one state."""
        return self.apply_i(self._check(w, stack=False))

    def apply_inclusions(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Return (T x, I x) of one state: (a copy of x, mass x)."""
        return self.apply_t(x), self.apply_i(x)

    def apply_i(self, x: np.ndarray) -> np.ndarray:
        """I x of one state, or I applied to each row of an (M, dim) stack.

        I is the mass.  The bits are those of inclusion_matrix @ x on a state
        and of rows @ inclusion_matrix.T on a stack; a diagonal I is a multiply.
        """
        return times_matrix(self._check(x), self.mass.T)

    @property
    def inclusion_matrix(self) -> np.ndarray:
        """Dense matrix of I = mass (SPD); built on each call when the mass is diagonal."""
        return dense(self.mass)

    # -- norms -------------------------------------------------------------

    def x_norm(self, x: np.ndarray):
        """||x||_X of one state, or one norm per row of an (M, dim) stack."""
        x, g, q = self._check(x), self.xnorm.matrix, self.xnorm.q
        gx = x if g is None else times_matrix(x, g.T)
        # an array's root even for one state: numpy roots a scalar by pow, an array by sqrt
        out = np.sum(np.abs(gx) ** q, axis=-1, keepdims=True) ** (1.0 / q)
        return float(out[0]) if x.ndim == 1 else out[:, 0]

    def t_norm_sq(self, x: np.ndarray):
        """|x|_H^2 = <x, I x> of one state, or one value per row of an (M, dim) stack."""
        x = self._check(x)
        out = np.einsum("...i,...i->...", times_matrix(x, self.mass), x)
        return float(out) if x.ndim == 1 else out

    def _check(self, v, stack: bool = True) -> np.ndarray:
        """v as a float array: one state, or an (M, dim) stack unless stack is False."""
        v = np.asarray(v, dtype=float)
        if v.ndim not in ((1, 2) if stack else (1,)) or v.shape[-1] != self.dim:
            raise ValueError(f"expected {'a vector or rows' if stack else 'one vector'} "
                             f"of length {self.dim}, got shape {v.shape}")
        return v


def times_matrix(rows: np.ndarray, m: np.ndarray) -> np.ndarray:
    """rows @ m, with a 1-D m the diagonal matrix of its entries (rows * m)."""
    return rows * m if m.ndim == 1 else rows @ m


def dense(m: np.ndarray) -> np.ndarray:
    """The matrix a 1-D m declares (np.diag(m)); a 2-D m as it is."""
    return np.diag(m) if m.ndim == 1 else m


def require_symmetric(a: np.ndarray, what: str) -> None:
    """Raise ValueError unless the square matrix a is symmetric to 1e-12 of
    max(1, max |a_ij|)."""
    scale = max(float(np.max(np.abs(a))) if a.size else 0.0, 1.0)
    if not np.allclose(a, a.T, rtol=0.0, atol=1e-12 * scale):
        raise ValueError(f"{what} must be symmetric")
