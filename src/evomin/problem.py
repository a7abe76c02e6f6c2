"""The problem container consumed by energy, minimizer, oracle and CLI."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .operator import OperatorLambda
from .potential import Potential
from .triple import EvolutionTriple

__all__ = ["ProblemSpec"]


@dataclass(frozen=True)
class ProblemSpec:
    """d/dt(I u) + Lambda_t(u) + DPsi_t(lambda u) = 0,  u(0) = w0.

    lambda_flag selects between the plain evolution (0) and the
    potential-driven one (1); horizon is the time interval (t0, t1) and
    initial is the initial state w0.
    """

    triple: EvolutionTriple
    potential: Potential
    lambda_op: OperatorLambda
    lambda_flag: int
    horizon: tuple[float, float]
    initial: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.lambda_flag not in (0, 1):
            raise ValueError("lambda_flag must be 0 or 1")
        n = self.triple.dim
        if self.potential.dim != n or self.lambda_op.dim != n:
            raise ValueError(
                f"dimension mismatch: triple {n}, potential {self.potential.dim}, "
                f"operator {self.lambda_op.dim}"
            )
        t0, t1 = self.horizon
        if not (t1 > t0):
            raise ValueError("horizon must satisfy t1 > t0")
        initial = np.asarray(self.initial, dtype=float)
        if initial.shape != (n,):
            raise ValueError(f"initial datum must have length {n}")
        if not np.all(np.isfinite(initial)):
            raise ValueError("initial datum must be finite")
        object.__setattr__(self, "initial", initial)

    @property
    def dim(self) -> int:
        return self.triple.dim

    @property
    def constant_step_jacobian(self) -> bool:
        """Whether the step Jacobian I/dt + DLambda + lam D^2Psi(lam u) is declared
        one matrix for every state and time: Lambda declared linear
        (OperatorLambda.linear), and lam = 0 or Potential.constant_hessian set."""
        return self.lambda_op.linear is not None and (
            not self.lambda_flag or self.potential.constant_hessian is not None)

    @property
    def name(self) -> str:
        return self.metadata.get("name", "problem")

    def with_potential(self, potential: Potential, lambda_flag=None) -> "ProblemSpec":
        return ProblemSpec(
            triple=self.triple,
            potential=potential,
            lambda_op=self.lambda_op,
            lambda_flag=self.lambda_flag if lambda_flag is None else lambda_flag,
            horizon=self.horizon,
            initial=self.initial,
            metadata=dict(self.metadata),
        )
