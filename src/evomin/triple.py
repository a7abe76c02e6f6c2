"""Finite-dimensional evolution triples.

The state space X, the pivot Hilbert space H and the dual X* are all
realized on coefficient vectors of length ``dim``.  The dual pairing is
the plain Euclidean dot product; every piece of geometry lives in the
``mass`` matrix (H inner product) and in the inclusion map ``t_map``.
The adjoint inclusion is then a concrete matrix, t_map^T @ mass, and the
composition ``inclusion = t_map^T @ mass @ t_map`` is symmetric positive
definite by construction.  A 1-D mass or X-norm image G declares the
diagonal matrix of its entries and is applied elementwise, bit for bit the
dense product; a 2-D one is used as given.  An omitted t_map is the
identity, stored as None, so a 1-D mass alone makes I diagonal.
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
    kind="power" uses ||G x||_q for a linear image G (a 1-D G is diagonal)
    and exponent q >= 2; any mesh scaling is folded into G.
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


@dataclass(frozen=True)
class EvolutionTriple:
    """Discrete model of {X, H, X*} with inclusion maps.

    mass   -- SPD matrix of the H inner product on coefficient vectors (1-D: diagonal).
    t_map  -- matrix of the inclusion X -> H (must be injective); None is the identity.
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
        if mass.shape == (self.dim,):
            # a diagonal mass is symmetric, and its eigenvalues are its entries
            low, high = np.min(mass), np.max(mass)
        elif mass.shape == (self.dim, self.dim):
            if not np.allclose(mass, mass.T, rtol=0.0, atol=1e-12 * _scale(mass)):
                raise ValueError("mass matrix must be symmetric")
            eigs = np.linalg.eigvalsh(mass)
            low, high = eigs[0], eigs[-1]
        else:
            raise ValueError(f"mass must be of shape (dim,) or (dim, dim), got {mass.shape}")
        if not low > _SPD_TOL * max(1.0, high):
            raise ValueError("mass matrix must be positive definite")
        object.__setattr__(self, "mass", mass)
        if self.t_map is None:
            # the identity inclusion: I = mass exactly, without the two products
            inclusion = mass
        else:
            t_map = np.asarray(self.t_map, dtype=float)
            if t_map.shape != (self.dim, self.dim):
                raise ValueError("t_map must be square of size dim")
            s = np.linalg.svd(t_map, compute_uv=False)
            if s[-1] <= 1e-12 * max(1.0, s[0]):
                raise ValueError("t_map must be injective")
            object.__setattr__(self, "t_map", t_map)
            inclusion = times_matrix(t_map.T, mass) @ t_map
        object.__setattr__(self, "_inclusion", np.ascontiguousarray(inclusion))

    # -- inner products and inclusions ------------------------------------

    def h_inner(self, w1: np.ndarray, w2: np.ndarray) -> float:
        """H inner product <w1, w2>_H = w1^T mass w2."""
        w1 = self._vec(w1)
        w2 = self._vec(w2)
        return float(times_matrix(w1, self.mass) @ w2)

    def h_norm(self, w: np.ndarray) -> float:
        return float(np.sqrt(max(self.h_inner(w, w), 0.0)))

    def apply_t(self, x: np.ndarray) -> np.ndarray:
        """Inclusion X -> H."""
        x = self._vec(x)
        return x.copy() if self.t_map is None else self.t_map @ x

    def apply_t_adjoint(self, w: np.ndarray) -> np.ndarray:
        """Adjoint inclusion H -> X*, defined by <x, Tt w> = <T x, w>_H."""
        w = self._vec(w)
        mw = self.mass * w if self.mass.ndim == 1 else self.mass @ w
        return mw if self.t_map is None else self.t_map.T @ mw

    def apply_inclusions(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Return (T x, I x) with I = Tt o T."""
        return self.apply_t(x), self.apply_i(x)

    def apply_i(self, x: np.ndarray) -> np.ndarray:
        """I x of one state, or I applied to each row of an (M, dim) stack.

        The bits are those of inclusion_matrix @ x on a state and of
        rows @ inclusion_matrix.T on a stack; a diagonal I is a multiply.
        """
        x = self._vec_or_rows(x)
        inc = self._inclusion
        if inc.ndim == 1:
            return x * inc
        return x @ inc.T if x.ndim == 2 else inc @ x

    @property
    def inclusion_matrix(self) -> np.ndarray:
        """Dense matrix of I = t_map^T mass t_map (SPD); built on each call when I is diagonal."""
        inc = self._inclusion
        return np.diag(inc) if inc.ndim == 1 else inc

    @property
    def inclusion_diagonal(self) -> Optional[np.ndarray]:
        """The diagonal of I when declared diagonal (1-D mass, no t_map), else None."""
        return self._inclusion if self._inclusion.ndim == 1 else None

    def x_representative(self, w: np.ndarray) -> np.ndarray:
        """Solve T x = w for the coefficient vector x."""
        if self.t_map is None:
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
            out = np.sum(np.abs(times_matrix(x, self.xnorm.matrix.T)) ** q, axis=-1) ** (1.0 / q)
        return float(out) if x.ndim == 1 else out

    def t_norm_sq(self, x: np.ndarray):
        """|T x|_H^2 of one state, or one value per row of an (M, dim) stack."""
        tx = self._vec_or_rows(x)
        if self.t_map is not None:
            tx = tx @ self.t_map.T
        out = np.einsum("...i,...i->...", times_matrix(tx, self.mass), tx)
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


def times_matrix(rows: np.ndarray, m: np.ndarray) -> np.ndarray:
    """rows @ m, with a 1-D m the diagonal matrix of its entries (rows * m)."""
    return rows * m if m.ndim == 1 else rows @ m


def _scale(a: np.ndarray) -> float:
    m = float(np.max(np.abs(a))) if a.size else 0.0
    return max(m, 1.0)
