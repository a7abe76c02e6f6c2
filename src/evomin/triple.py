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
    """Descriptor of the X-norm.

    kind="euclidean" uses the plain 2-norm of the coefficients (q = 2).
    kind="power" uses ||G x||_q for a linear image G (a 1-D G is diagonal)
    and exponent q >= 2; any mesh scaling is folded into G.  q is the
    exponent of the norm in either kind.
    """

    kind: str = "euclidean"
    matrix: Optional[np.ndarray] = None
    q: float = 2.0

    def __post_init__(self):
        if self.kind not in ("euclidean", "power"):
            raise ValueError(f"unknown X-norm kind {self.kind!r}")
        if self.kind == "euclidean" and self.q != 2.0:
            raise ValueError(f"the euclidean norm has exponent q = 2, got {self.q}")
        if self.kind == "power":
            if self.matrix is None:
                raise ValueError("power norm needs a matrix G")
            if not self.q >= 2.0:
                raise ValueError("power norm exponent must satisfy q >= 2")
            object.__setattr__(self, "matrix", np.asarray(self.matrix, dtype=float))


@dataclass(frozen=True)
class EvolutionTriple:
    """Discrete model of {X, H, X*}, with X and H on the same coefficients.

    mass   -- SPD matrix of the H inner product and of the inclusion
              I : X -> X* (1-D: diagonal).
    xnorm  -- descriptor of the X-norm; a power norm's G has dim columns.
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
        if self.xnorm.kind == "power" and not (
                g.shape == (self.dim,) or (g.ndim == 2 and g.shape[1] == self.dim)):
            raise ValueError(f"X-norm image G must be of shape ({self.dim},) or "
                             f"(rows, {self.dim}), got {g.shape}")

    # -- inner products and inclusions ------------------------------------

    def h_inner(self, w1: np.ndarray, w2: np.ndarray) -> float:
        """H inner product <w1, w2>_H = w1^T mass w2."""
        w1 = self._vec(w1)
        w2 = self._vec(w2)
        return float(times_matrix(w1, self.mass) @ w2)

    def h_norm(self, w: np.ndarray) -> float:
        return float(np.sqrt(max(self.h_inner(w, w), 0.0)))

    def apply_t(self, x: np.ndarray) -> np.ndarray:
        """Inclusion X -> H, the identity: a copy of one checked state."""
        return self._vec(x).copy()

    def apply_t_adjoint(self, w: np.ndarray) -> np.ndarray:
        """Adjoint inclusion H -> X*, w -> mass w: apply_i of one state."""
        return self.apply_i(self._vec(w))

    def apply_inclusions(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Return (T x, I x) of one state: (a copy of x, mass x)."""
        return self.apply_t(x), self.apply_i(x)

    def apply_i(self, x: np.ndarray) -> np.ndarray:
        """I x of one state, or I applied to each row of an (M, dim) stack.

        I is the mass.  The bits are those of inclusion_matrix @ x on a state
        and of rows @ inclusion_matrix.T on a stack; a diagonal I is a multiply.
        """
        x = self._vec_or_rows(x)
        mass = self.mass
        if mass.ndim == 1:
            return x * mass
        return x @ mass.T if x.ndim == 2 else mass @ x

    @property
    def inclusion_matrix(self) -> np.ndarray:
        """Dense matrix of I = mass (SPD); built on each call when the mass is diagonal."""
        return np.diag(self.mass) if self.mass.ndim == 1 else self.mass

    @property
    def inclusion_diagonal(self) -> Optional[np.ndarray]:
        """The diagonal of I when declared diagonal (1-D mass), else None."""
        return self.mass if self.mass.ndim == 1 else None

    # -- norms -------------------------------------------------------------

    def x_norm(self, x: np.ndarray):
        """||x||_X of one state, or one norm per row of an (M, dim) stack."""
        x = self._vec_or_rows(x)
        if self.xnorm.kind == "euclidean":
            out = np.linalg.norm(x, axis=-1)
        else:
            q = self.xnorm.q
            out = np.sum(np.abs(times_matrix(x, self.xnorm.matrix.T)) ** q, axis=-1) ** (1.0 / q)
        return float(out) if x.ndim == 1 else out

    def t_norm_sq(self, x: np.ndarray):
        """|x|_H^2 = <x, I x> of one state, or one value per row of an (M, dim) stack."""
        x = self._vec_or_rows(x)
        out = np.einsum("...i,...i->...", times_matrix(x, self.mass), x)
        return float(out) if x.ndim == 1 else out

    def _vec(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.shape != (self.dim,):
            raise ValueError(f"expected vector of length {self.dim}, got shape {v.shape}")
        return v

    def _vec_or_rows(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.ndim not in (1, 2) or v.shape[-1] != self.dim:
            raise ValueError(f"expected a vector or rows of length {self.dim}, "
                             f"got shape {v.shape}")
        return v


def times_matrix(rows: np.ndarray, m: np.ndarray) -> np.ndarray:
    """rows @ m, with a 1-D m the diagonal matrix of its entries (rows * m)."""
    return rows * m if m.ndim == 1 else rows @ m


def require_symmetric(a: np.ndarray, what: str) -> None:
    """Raise ValueError unless the square matrix a is symmetric to 1e-12 of
    max(1, max |a_ij|)."""
    scale = max(float(np.max(np.abs(a))) if a.size else 0.0, 1.0)
    if not np.allclose(a, a.T, rtol=0.0, atol=1e-12 * scale):
        raise ValueError(f"{what} must be symmetric")
