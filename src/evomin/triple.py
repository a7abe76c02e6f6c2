"""Finite-dimensional evolution triples.

The state space X, the pivot Hilbert space H and the dual X* are all
realized on coefficient vectors of length ``dim``.  The dual pairing is
the plain Euclidean dot product; every piece of geometry lives in the
``mass`` matrix (H inner product) and in the inclusion map ``t_map``.
The adjoint inclusion is then a concrete matrix, t_map^T @ mass, and the
composition ``inclusion = t_map^T @ mass @ t_map`` is symmetric positive
definite by construction.  It is formed once, at construction, and read
once for a diagonal: ``apply_i`` multiplies by that diagonal when I is
diagonal (a lumped mass with the identity inclusion) and takes the dense
product otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

__all__ = [
    "XNorm",
    "EvolutionTriple",
    "pairing",
]

_SPD_TOL = 1e-12


@dataclass(frozen=True)
class XNorm:
    """Descriptor of the X-norm.

    kind="euclidean" uses the plain 2-norm of the coefficients.
    kind="power" uses ||G x||_q for a linear image G and exponent q >= 2;
    any mesh scaling is folded into G.
    """

    kind: str = "euclidean"
    matrix: Optional[np.ndarray] = None
    q: float = 2.0

    def __post_init__(self):
        if self.kind not in ("euclidean", "power"):
            raise ValueError(f"unknown X-norm kind {self.kind!r}")
        if self.kind == "power":
            if self.matrix is None:
                raise ValueError("power norm needs a matrix G")
            if self.q < 2.0:
                raise ValueError("power norm exponent must satisfy q >= 2")
            object.__setattr__(self, "matrix", np.asarray(self.matrix, dtype=float))

    @property
    def injective(self) -> bool:
        """True when the norm vanishes only at 0 (G has full column rank)."""
        if self.kind == "euclidean":
            return True
        g = self.matrix
        if g.shape[0] < g.shape[1]:
            return False
        s = np.linalg.svd(g, compute_uv=False)
        return bool(s[-1] > 1e-12 * max(1.0, s[0]))


@dataclass(frozen=True)
class EvolutionTriple:
    """Discrete model of {X, H, X*} with inclusion maps.

    mass   -- SPD matrix of the H inner product on coefficient vectors.
    t_map  -- matrix of the inclusion X -> H (must be injective).
    xnorm  -- descriptor of the X-norm.
    """

    dim: int
    mass: np.ndarray
    xnorm: XNorm = field(default_factory=XNorm)
    t_map: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.dim <= 0:
            raise ValueError("dim must be a positive integer")
        mass = np.asarray(self.mass, dtype=float)
        if mass.shape != (self.dim, self.dim):
            raise ValueError(f"mass must be {self.dim}x{self.dim}, got {mass.shape}")
        diag = np.diagonal(mass)
        if np.count_nonzero(mass) == np.count_nonzero(diag):
            # a diagonal mass is symmetric, and its eigenvalues are its entries
            low, high = np.min(diag), np.max(diag)
        else:
            if not np.allclose(mass, mass.T, rtol=0.0, atol=1e-12 * _scale(mass)):
                raise ValueError("mass matrix must be symmetric")
            eigs = np.linalg.eigvalsh(mass)
            low, high = eigs[0], eigs[-1]
        if not low > _SPD_TOL * max(1.0, high):
            raise ValueError("mass matrix must be positive definite")
        object.__setattr__(self, "mass", mass)
        t_map = self.t_map
        if t_map is None:
            # the identity inclusion: I = mass exactly, without the two products
            # (and T x = w is solved by x = w, see x_representative)
            t_map = np.eye(self.dim)
            inclusion = mass
        else:
            t_map = np.asarray(t_map, dtype=float)
            if t_map.shape != (self.dim, self.dim):
                raise ValueError("t_map must be square of size dim")
            s = np.linalg.svd(t_map, compute_uv=False)
            if s[-1] <= 1e-12 * max(1.0, s[0]):
                raise ValueError("t_map must be injective")
            inclusion = t_map.T @ mass @ t_map
        inclusion = np.ascontiguousarray(inclusion)
        i_diag = np.diagonal(inclusion)
        diagonal = np.count_nonzero(inclusion) == np.count_nonzero(i_diag)
        object.__setattr__(self, "_identity_t", self.t_map is None)
        object.__setattr__(self, "t_map", t_map)
        object.__setattr__(self, "_inclusion", inclusion)
        object.__setattr__(self, "_i_diag", i_diag.copy() if diagonal else None)

    # -- inner products and inclusions ------------------------------------

    def h_inner(self, w1: np.ndarray, w2: np.ndarray) -> float:
        """H inner product <w1, w2>_H = w1^T mass w2."""
        w1 = self._vec(w1)
        w2 = self._vec(w2)
        return float(w1 @ self.mass @ w2)

    def h_norm(self, w: np.ndarray) -> float:
        return float(np.sqrt(max(self.h_inner(w, w), 0.0)))

    def apply_t(self, x: np.ndarray) -> np.ndarray:
        """Inclusion X -> H."""
        return self.t_map @ self._vec(x)

    def apply_t_adjoint(self, w: np.ndarray) -> np.ndarray:
        """Adjoint inclusion H -> X*, defined by <x, Tt w> = <T x, w>_H."""
        return self.t_map.T @ (self.mass @ self._vec(w))

    def apply_inclusions(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Return (T x, I x) with I = Tt o T."""
        return self.apply_t(x), self.apply_i(x)

    def apply_i(self, x: np.ndarray) -> np.ndarray:
        """I x of one state, or I applied to each row of an (M, dim) stack.

        The bits are those of inclusion_matrix @ x on a state and of
        rows @ inclusion_matrix.T on a stack; a diagonal I is a multiply.
        """
        x = self._vec_or_rows(x)
        if self._i_diag is not None:
            return x * self._i_diag
        return x @ self._inclusion.T if x.ndim == 2 else self._inclusion @ x

    @property
    def inclusion_matrix(self) -> np.ndarray:
        """Dense matrix of I = t_map^T mass t_map (symmetric positive definite)."""
        return self._inclusion

    @property
    def inclusion_diagonal(self) -> Optional[np.ndarray]:
        """The diagonal of I when I is diagonal, else None."""
        return self._i_diag

    def x_representative(self, w: np.ndarray) -> np.ndarray:
        """Solve T x = w for the coefficient vector x."""
        if self._identity_t:
            return self._vec(w).copy()
        return np.linalg.solve(self.t_map, self._vec(w))

    # -- norms -------------------------------------------------------------

    def x_norm(self, x: np.ndarray):
        """||x||_X of one state, or one norm per row of an (M, dim) stack."""
        x = self._vec_or_rows(x)
        if self.xnorm.kind == "euclidean":
            out = np.linalg.norm(x, axis=-1)
        else:
            q = self.xnorm.q
            out = np.sum(np.abs(x @ self.xnorm.matrix.T) ** q, axis=-1) ** (1.0 / q)
        return float(out) if x.ndim == 1 else out

    def t_norm_sq(self, x: np.ndarray):
        """|T x|_H^2 of one state, or one value per row of an (M, dim) stack."""
        tx = self._vec_or_rows(x) @ self.t_map.T
        out = np.einsum("...i,...i->...", tx @ self.mass, tx)
        return float(out) if tx.ndim == 1 else out

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


def pairing(x: np.ndarray, f: np.ndarray) -> float:
    """Duality pairing <x, f>_{X x X*}: Euclidean dot product of coefficients."""
    x = np.asarray(x, dtype=float)
    f = np.asarray(f, dtype=float)
    if x.shape != f.shape or x.ndim != 1:
        raise ValueError(f"pairing needs two vectors of equal length, got {x.shape} and {f.shape}")
    return float(x @ f)


def _scale(a: np.ndarray) -> float:
    m = float(np.max(np.abs(a))) if a.size else 0.0
    return max(m, 1.0)
