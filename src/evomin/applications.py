"""Desk-scale instantiations of the supported equation classes.

All builders return a ProblemSpec whose components satisfy the standing
structural hypotheses discretely: convex potentials with the stated
growth, operators whose monotone parts are genuinely monotone and whose
skew parts pair to zero against their argument exactly (not just to
truncation error).  1D Dirichlet grids for the parabolic, hyperbolic and
Schrodinger-type families; a 2D periodic divergence-free spectral basis
for Navier-Stokes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.linalg import block_diag

from .operator import OperatorLambda, Term, linear_operator, term_operator
from .potential import Potential
from .problem import ProblemSpec
from .trajectory import Trajectory
from .triple import EvolutionTriple, XNorm

__all__ = [
    "PointwiseMap",
    "build_scalar_decay",
    "build_parabolic_divergence",
    "build_heat",
    "build_heat_core",
    "build_parabolic_nondivergence",
    "build_hyperbolic",
    "build_schrodinger",
    "build_navier_stokes_2d",
    "build_anticoercive_fixture",
    "exact_heat_solution",
    "taylor_green_rate",
    "StreamFunctionBasis",
]


@dataclass(frozen=True)
class PointwiseMap:
    """A scalar map applied componentwise, with its derivative (both vectorized)."""

    value: Callable[[np.ndarray], np.ndarray]
    deriv: Callable[[np.ndarray], np.ndarray]

    def __neg__(self) -> "PointwiseMap":
        return PointwiseMap(lambda v: -self.value(v), lambda v: -self.deriv(v))

    def term(self, inner: Optional[np.ndarray] = None,
             outer: Optional[np.ndarray] = None) -> Term:
        """The one-input operator term outer^T f(inner x); None is the identity."""
        return Term(self.value, (self.deriv,), (inner,), outer)

    @classmethod
    def linear(cls, c: float) -> "PointwiseMap":
        return cls(lambda v: c * v, lambda v: np.full_like(v, c))

    @classmethod
    def saturated_cubic(cls, c: float) -> "PointwiseMap":
        """c * v^3 / (1 + v^2): cubic near zero, globally Lipschitz."""
        return cls(
            lambda v: c * (v * v * v) / (1.0 + v**2),
            lambda v: c * v**2 * (3.0 + v**2) / (1.0 + v**2) ** 2,
        )

    @classmethod
    def arctan(cls, c: float) -> "PointwiseMap":
        """Monotone saturated map c * arctan(v)."""
        return cls(lambda v: c * np.arctan(v), lambda v: c / (1.0 + v**2))


# -- 1D grid pieces ---------------------------------------------------------
#
# The operators of the 1D families are term operators (operator.term_operator):
# each is described once, as a linear part plus terms A^T f(B x), and its
# derivative, adjoint and Jacobian follow from that description.

def _terms(*specs) -> list:
    """Terms of the (map, inner, outer) specs whose map is present.

    Absent maps are skipped, not evaluated as zeros: on heat, Lambda = 0.
    """
    return [f.term(inner, outer) for f, inner, outer in specs if f is not None]


def _difference_matrix(n: int) -> np.ndarray:
    """(n+1) x n forward differences of interior values with zero boundary."""
    d = np.zeros((n + 1, n))
    idx = np.arange(n)
    d[idx, idx] = 1.0
    d[idx + 1, idx] = -1.0
    return d


def _grid(n: int) -> tuple[float, np.ndarray, np.ndarray]:
    """Mesh width h, the n interior nodes and the scaled differences G = D / h."""
    if n < 3:
        raise ValueError("need at least 3 interior points")
    h = 1.0 / (n + 1)
    return h, h * np.arange(1, n + 1), _difference_matrix(n) / h


def _cubic(c: float) -> Optional[PointwiseMap]:
    """The saturated cubic of strength c; absent at c = 0, so no term evaluates it."""
    return None if c == 0.0 else PointwiseMap.saturated_cubic(c)


def _dirichlet_problem(name: str, n: int, triple: EvolutionTriple, potential: Potential,
                       lam_op: OperatorLambda, initial: np.ndarray, t1: float,
                       q: float = 2.0, lambda_flag: int = 1) -> ProblemSpec:
    """The ProblemSpec of a 1D family on the Dirichlet grid with n interior nodes."""
    return ProblemSpec(
        triple=triple, potential=potential, lambda_op=lam_op, lambda_flag=lambda_flag,
        horizon=(0.0, t1), initial=np.asarray(initial, dtype=float),
        metadata={"name": name, "grid": f"1d-dirichlet-n{n}", "bc": "dirichlet", "q": q},
    )


def _default_bump(x: np.ndarray) -> np.ndarray:
    return np.sin(np.pi * x)


# -- scalar fixtures ---------------------------------------------------------

def build_scalar_decay(t1: float = 1.0, u0: float = 1.0) -> ProblemSpec:
    """du/dt + u + u = 0 in disguise: Lambda(u) = u, Psi = u^2/2, lambda = 1."""
    triple = EvolutionTriple(dim=1, mass=np.ones(1))
    potential = Potential.quadratic(np.ones(1))
    return ProblemSpec(
        triple=triple, potential=potential, lambda_op=linear_operator(np.eye(1)),
        lambda_flag=1, horizon=(0.0, t1), initial=np.array([u0]),
        metadata={"name": "scalar_decay", "grid": "scalar", "bc": "none"},
    )


def build_anticoercive_fixture(t1: float = 1.0) -> ProblemSpec:
    """Lambda(u) = -u^3 against Psi = u^4/4: the positivity condition fails."""
    triple = EvolutionTriple(
        dim=1, mass=np.ones(1), xnorm=XNorm(kind="power", matrix=np.ones(1), q=4.0)
    )
    potential = Potential.pointwise_power(q=4.0, dim=1)
    minus_cube = PointwiseMap(lambda v: -v**3, lambda v: -3.0 * v**2)
    lam_op = term_operator(1, [minus_cube.term()])
    return ProblemSpec(
        triple=triple, potential=potential, lambda_op=lam_op, lambda_flag=1,
        horizon=(0.0, t1), initial=np.array([1.0]),
        metadata={"name": "anticoercive_fixture", "grid": "scalar", "bc": "none"},
    )


# -- parabolic, divergence form ----------------------------------------------

def build_parabolic_divergence(
    n: int,
    q: float = 2.0,
    theta: Optional[PointwiseMap] = None,
    xi: Optional[PointwiseMap] = None,
    gamma: Optional[PointwiseMap] = None,
    t1: float = 0.1,
    initial: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    time_scale: Optional[float] = None,
    name: str = "parabolic_divergence",
) -> ProblemSpec:
    """du/dt = Theta(u) + d/dx Xi(u) + d/dx Gamma(u') + d/dx phi'(u') on (0,1).

    Dirichlet grid with n interior nodes; the potential is the W^{1,q}
    Dirichlet energy (1/q) * h * ||G u||_q^q with G the scaled difference
    matrix, so phi'(s) = |s|^{q-1} sgn s.  gamma must be monotone for the
    operator's monotonicity hypothesis to hold.
    """
    h, x_nodes, g_mat = _grid(n)
    if not q >= 2.0:
        raise ValueError("q must be >= 2")
    avg = np.abs(_difference_matrix(n)) / 2.0        # node values -> cell midpoints
    triple = EvolutionTriple(
        dim=n,
        mass=np.full(n, h),
        xnorm=XNorm(kind="power", matrix=h ** (1.0 / q) * g_mat, q=q),
    )
    modulation = None if time_scale is None else (lambda t, c=time_scale: 1.0 + c * t)
    potential = Potential.composed_power(g_mat, q=q, scale=h, modulation=modulation)

    terms = _terms((gamma, g_mat, g_mat), (xi, avg, g_mat),
                   (None if theta is None else -theta, None, None))
    lam_op = term_operator(n, terms, scale=h)
    return _dirichlet_problem(name, n, triple, potential, lam_op,
                              (initial or _default_bump)(x_nodes), t1, q=q)


def build_heat(n: int, t1: float = 0.1,
               initial: Optional[Callable[[np.ndarray], np.ndarray]] = None) -> ProblemSpec:
    """The q = 2 divergence-form problem with no lower-order terms."""
    return build_parabolic_divergence(n, q=2.0, t1=t1, initial=initial, name="heat")


# -- parabolic, non-divergence form -------------------------------------------

def build_parabolic_nondivergence(
    n: int,
    q: float = 2.0,
    gamma: Optional[PointwiseMap] = None,
    theta: Optional[Callable] = None,
    theta_derivs: Optional[tuple[Callable, Callable]] = None,
    t1: float = 0.1,
    initial: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> ProblemSpec:
    """Second-order quasilinear flow driven through the discrete Laplacian.

    The state lives in the W^{1,2} Dirichlet geometry (stiffness + mass
    inner product) and the potential acts on Delta_h u, giving a
    biharmonic-type flow for q = 2 and no lower-order terms.  gamma is a
    monotone map of Delta_h u; theta(slope, value) is a Lipschitz map of
    (u', u) with partial derivatives theta_derivs, all three applied
    componentwise to arrays of any shape.
    """
    h, x_nodes, g_mat = _grid(n)
    lap = -(g_mat.T @ g_mat)                      # 3-point Dirichlet Laplacian
    cen = np.zeros((n, n))                        # centered slopes at nodes
    idx = np.arange(n)
    cen[idx[:-1], idx[:-1] + 1] += 1.0 / (2 * h)
    cen[idx[1:], idx[1:] - 1] -= 1.0 / (2 * h)
    triple = EvolutionTriple(
        dim=n,
        mass=h * (g_mat.T @ g_mat + np.eye(n)),
        xnorm=XNorm(kind="power", matrix=h ** (1.0 / q) * lap, q=q),
    )
    potential = Potential.composed_power(lap, q=q, scale=h)
    terms = _terms((gamma, lap, lap))
    if theta is not None:
        terms.append(Term(theta, tuple(theta_derivs), inner=(cen, None), outer=lap))
    lam_op = term_operator(n, terms, scale=h)
    return _dirichlet_problem("parabolic_nondivergence", n, triple, potential, lam_op,
                              (initial or _default_bump)(x_nodes), t1, q=q)


# -- two-field block systems: hyperbolic and Schrodinger -------------------------

def _two_field_problem(name: str, x_nodes: np.ndarray, mass: np.ndarray, gx: np.ndarray,
                       linear: np.ndarray, specs: Callable, psi_weight: float, t1: float,
                       initial_u: Optional[Callable], initial_v: Optional[Callable]):
    """The pair z = (u, v) on the Dirichlet grid: H-mass `mass`, X-norm image gx
    (q = 2), Psi = psi_weight * |z|_H^2 / 2 and Lambda the linear part plus the
    terms of the (map, inner, outer) specs(e_u, e_v), with e_u, e_v the rows
    that select u and v.  v starts at zero unless initial_v is given."""
    n, dim = len(x_nodes), 2 * len(x_nodes)
    triple = EvolutionTriple(dim=dim, mass=mass, xnorm=XNorm(kind="power", matrix=gx, q=2.0))
    potential = Potential.quadratic(psi_weight * mass)
    e_u, e_v = np.eye(dim)[:n], np.eye(dim)[n:]
    lam_op = term_operator(dim, _terms(*specs(e_u, e_v)), linear=linear)
    v0 = initial_v(x_nodes) if initial_v is not None else np.zeros(n)
    return _dirichlet_problem(name, n, triple, potential, lam_op,
                              np.concatenate([(initial_u or _default_bump)(x_nodes), v0]), t1)


def build_hyperbolic(
    n: int,
    damping: float = 0.0,
    nonlinearity: float = 0.0,
    psi_weight: float = 0.05,
    t1: float = 1.0,
    initial_u: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    initial_v: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> ProblemSpec:
    """Second-order wave dynamics as the block system on z = (u, v):

        du/dt + v + damping * u = 0
        dv/dt + Delta_h u - Theta(u) = 0,   Theta = saturated cubic

    The pair geometry is stiffness x L2, under which the principal block
    is exactly skew; the potential is a small multiple of the squared
    H-norm so the variational energy stays finite off solutions.
    """
    h, x_nodes, g_mat = _grid(n)
    stiff = h * (g_mat.T @ g_mat)
    lap = -(g_mat.T @ g_mat)
    mass = block_diag(stiff, h * np.eye(n))
    gx = block_diag(np.sqrt(h) * lap, np.sqrt(h) * g_mat)
    # the linear blocks, and h * (-Theta)(u) into the v block unless Theta = 0
    linear = np.block([[damping * stiff, stiff], [h * lap, np.zeros((n, n))]])
    return _two_field_problem(
        "hyperbolic", x_nodes, mass, gx, linear,
        lambda e_u, e_v: [(_cubic(-nonlinearity), e_u, h * e_v)],
        psi_weight, t1, initial_u, initial_v)


def build_schrodinger(
    n: int,
    couplings: tuple[float, float] = (0.0, 0.0),
    psi_weight: float = 0.05,
    t1: float = 1.0,
    initial_u: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    initial_v: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> ProblemSpec:
    """Coupled pair with skew Laplacian coupling:

        du/dt - Delta_h v + Theta(u, v) = 0
        dv/dt + Delta_h u + Xi(u, v) = 0

    Theta and Xi are saturated-cubic maps of u resp. v with strengths
    couplings = (c_theta, c_xi).  Both components live in the W^{1,2}
    geometry (stiffness + mass); the skew coupling pairs to zero exactly.
    """
    h, x_nodes, g_mat = _grid(n)
    lap = -(g_mat.T @ g_mat)
    w_mat = h * (g_mat.T @ g_mat + np.eye(n))   # stiffness + mass
    gx = block_diag(np.sqrt(h) * lap, np.sqrt(h) * lap)
    # W (-Delta_h v, Delta_h u) as the linear part, nonzero W Theta(u), W Xi(v) as terms
    zero = np.zeros((n, n))
    linear = np.block([[zero, -(w_mat @ lap)], [w_mat @ lap, zero]])
    return _two_field_problem(
        "schrodinger", x_nodes, block_diag(w_mat, w_mat), gx, linear,
        lambda e_u, e_v: [(_cubic(couplings[0]), e_u, w_mat.T @ e_u),
                          (_cubic(couplings[1]), e_v, w_mat.T @ e_v)],
        psi_weight, t1, initial_u, initial_v)


# -- 2D incompressible Navier-Stokes -------------------------------------------

class StreamFunctionBasis:
    """Real divergence-free velocity basis on a k x k periodic grid.

    Every state is the coefficient vector of a real stream function over
    the resolved modes max(|m1|, |m2|) <= k/2 - 1 (mean and Nyquist modes
    excluded).  Velocities are perpendicular gradients, so divergence
    vanishes by construction; quadratic products are evaluated on a 2k
    zero-padded grid, which makes the projected convection an exact
    Galerkin convolution and its pairing against the state exactly zero.

    The fields are real, so the transforms use the half spectrum m2 >= 0 of
    the padded grid: a (2k, k + 1) array per field, holding every resolved
    mode (all have m2 >= 0) plus, on the m2 = 0 column, the conjugate
    partners (-m1, 0) that make that column Hermitian.

    The convection maps work in curl form.  With u = curl psi and the
    vorticity omega = -Laplace psi, (u . grad) u = omega u^perp + grad |u|^2/2,
    and the basis field of mode m pairs with it as the stream function psi_m
    pairs with u . grad omega.  So a state needs four fields, u and
    grad omega, from one stacked irfft2, and a dual vector is the
    projection of one scalar field, from one rfft2.

    The convection maps take one state or an (M, dim) stack of rows alike:
    a stack's leading axis rides along through the same transforms.
    """

    def __init__(self, k: int):
        if k < 8 or k % 2:
            raise ValueError("grid size k must be even and at least 8")
        self.k = k
        self.kmax = k // 2 - 1
        kk = self.kmax
        modes = [(m1, 0) for m1 in range(1, kk + 1)]
        modes += [(m1, m2) for m2 in range(1, kk + 1) for m1 in range(-kk, kk + 1)]
        self.modes = np.array(modes)                       # (P, 2)
        self.nmodes = len(modes)
        self.dim = 2 * self.nmodes                         # cos and sin amplitudes
        self.msq = (self.modes[:, 0] ** 2 + self.modes[:, 1] ** 2).astype(float)
        self.pad = 2 * k
        p = self.pad
        self._ix = np.mod(self.modes[:, 0], p)
        self._iy = self.modes[:, 1]                        # m2 >= 0: inside the half spectrum
        # the modes (m1, 0), m1 >= 1, and the rows of their partners (-m1, 0)
        self._m2_zero = np.flatnonzero(self.modes[:, 1] == 0)
        self._ix_conj = np.mod(-self.modes[self._m2_zero, 0], p)
        self.wx = np.fft.fftfreq(p, d=1.0 / p)[:, None]    # m1 varies along axis 0
        self.wy = np.fft.rfftfreq(p, d=1.0 / p)[None, :]
        self._minus_lap = self.wx**2 + self.wy**2          # symbol of -Laplace
        area = (2.0 * np.pi) ** 2
        self.mass_diag = np.concatenate([self.msq, self.msq]) * area / 2.0
        self.stiff_diag = np.concatenate([self.msq**2, self.msq**2]) * area / 2.0
        self._kernel_cache = None
        self._last_fields = None

    # spectral plumbing ------------------------------------------------------

    def _spectral(self, x: np.ndarray) -> np.ndarray:
        """Coefficients (..., dim) -> half stream spectra (m2 >= 0) on the padded lattice."""
        c = 0.5 * (x[..., : self.nmodes] - 1j * x[..., self.nmodes:])
        z = np.zeros(np.shape(x)[:-1] + (self.pad, self.pad // 2 + 1), dtype=complex)
        z[..., self._ix, self._iy] = c
        z[..., self._ix_conj, 0] = np.conj(c[..., self._m2_zero])
        return z

    def _field(self, z: np.ndarray) -> np.ndarray:
        """Real fields on the padded grid from half spectra, stacked on leading axes."""
        return np.fft.irfft2(z, s=(self.pad, self.pad), norm="forward")

    def velocity(self, x: np.ndarray, grid: Optional[int] = None) -> np.ndarray:
        """Velocity components on the padded (or a given) grid."""
        z = self._spectral(x)
        vel = self._field(np.stack([1j * self.wy * z, -1j * self.wx * z]))
        if grid is not None and grid != self.pad:
            step = self.pad // grid
            if step * grid != self.pad:
                raise ValueError("grid must divide the padded size")
            vel = vel[:, ::step, ::step]
        return vel

    def _dual(self, f: np.ndarray) -> np.ndarray:
        """Dual coefficients int psi_m g, (..., dim), of real scalar fields g
        from their Fourier coefficients f (..., P) at the resolved modes."""
        area = (2.0 * np.pi) ** 2
        return np.concatenate([area * f.real, -area * f.imag], axis=-1)

    def _resolved(self, g: np.ndarray) -> np.ndarray:
        """Fourier coefficients of real padded fields g at the resolved modes."""
        return np.fft.rfft2(g, norm="forward")[..., self._ix, self._iy]

    def _curl_fields(self, x: np.ndarray):
        """Velocity u and vorticity gradient grad omega, each (2, ..., pad, pad)."""
        z = self._spectral(x)
        w = self._minus_lap * z
        f = self._field(np.stack([1j * self.wy * z, -1j * self.wx * z,
                                  1j * self.wx * w, 1j * self.wy * w]))
        return f[:2], f[2:]

    def _state_fields(self, x: np.ndarray):
        """_curl_fields of a state, kept for the last state seen.

        The oracle's Newton-Krylov step linearizes at the state whose
        residual it has just evaluated, once per GMRES iteration; with this
        one-entry memo each of those products transforms only h.  The key is
        a copy of the state, so a state changed in place is a new state.
        """
        last = self._last_fields
        if last is not None and np.array_equal(last[0], x):
            return last[1]
        fields = self._curl_fields(x)
        self._last_fields = (np.array(x, dtype=float), fields)
        return fields

    def convection_dual(self, x: np.ndarray) -> np.ndarray:
        """Dual coefficients of (u . grad) u, in curl form: int psi_m u . grad omega.

        The product of two resolved fields is exact on the padded grid, so
        this is the dealiased Galerkin projection.
        """
        u, dw = self._state_fields(x)
        return self._dual(self._resolved(u[0] * dw[0] + u[1] * dw[1]))

    def convection_dual_linearized(self, x: np.ndarray, h: np.ndarray) -> np.ndarray:
        """Derivative of convection_dual at x in the direction h:
        int psi_m (u . grad omega_h + u_h . grad omega)."""
        u, dw = self._state_fields(x)
        v, dv = self._curl_fields(h)
        return self._dual(self._resolved(u[0] * dv[0] + u[1] * dv[1]
                                         + v[0] * dw[0] + v[1] * dw[1]))

    def convection_dual_adjoint(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Transpose of the linearized convection at x, applied to v.

        The dual pairing sums v_m int psi_m g = int psi_v g, with psi_v the
        stream function of v.  Integrating by parts against the
        divergence-free u and u_h moves every derivative off h:
        int psi_v u . grad omega_h = int psi_h Laplace(u . grad psi_v) and
        int psi_v u_h . grad omega = -int psi_h u_v . grad omega, with
        u_v = curl psi_v.  So the transpose is the projection of
        Laplace(u . grad psi_v) - u_v . grad omega; the padded grid
        integrates these products exactly, so it is the transpose of
        convection_jacobian to round-off.
        """
        u, dw = self._state_fields(x)
        z = self._spectral(v)
        gx, gy = self._field(np.stack([1j * self.wx * z, 1j * self.wy * z]))
        f = self._resolved(np.stack([u[0] * gx + u[1] * gy, gy * dw[0] - gx * dw[1]]))
        return self._dual(-self.msq * f[0] - f[1])

    def convection_jacobian(self, x: np.ndarray) -> np.ndarray:
        """Dense Jacobian of the projected convection via its spectral kernel.

        For trig-polynomial states the linearized convection couples test
        mode nu and perturbation mode mu only through the stream
        coefficients at nu -/+ mu:

            dual(nu) = sum_mu (2 pi)^2 s(nu, mu) (2 nu.mu -/+ |nu|^2)
                       psihat_{nu -/+ mu} phihat_{+/-mu},
            s(nu, mu) = nu_1 mu_2 - nu_2 mu_1,

        so the whole matrix is one gather over mode differences and sums.
        No FFT enters: this is exactly the Galerkin truncation, assembled
        in O(dim^2).
        """
        if self._kernel_cache is None:
            m1 = self.modes[:, 0]
            m2 = self.modes[:, 1]
            two_k = 2 * self.kmax
            dxm = m1[:, None] - m1[None, :] + two_k
            dym = m2[:, None] - m2[None, :] + two_k
            sxm = m1[:, None] + m1[None, :] + two_k
            sym = m2[:, None] + m2[None, :] + two_k
            s_ij = (m1[:, None] * m2[None, :] - m2[:, None] * m1[None, :]).astype(float)
            d_ij = (m1[:, None] * m1[None, :] + m2[:, None] * m2[None, :]).astype(float)
            self._kernel_cache = (dxm, dym, sxm, sym, s_ij, d_ij)
        dxm, dym, sxm, sym, s_ij, d_ij = self._kernel_cache
        area = (2.0 * np.pi) ** 2
        two_k = 2 * self.kmax
        size = 2 * two_k + 1
        centered = np.zeros((size, size), dtype=complex)
        c = 0.5 * (x[: self.nmodes] - 1j * x[self.nmodes:])
        centered[self.modes[:, 0] + two_k, self.modes[:, 1] + two_k] = c
        centered[-self.modes[:, 0] + two_k, -self.modes[:, 1] + two_k] = np.conj(c)
        p_ij = centered[dxm, dym]              # psihat at nu_i - mu_j
        q_ij = centered[sxm, sym]              # psihat at nu_i + mu_j
        n_i = self.msq[:, None]
        kp = area * s_ij * (2.0 * d_ij - n_i) * p_ij
        km = area * s_ij * (2.0 * d_ij + n_i) * q_ij
        da = 0.5 * (kp + km)                   # response to a unit cos amplitude
        db = 0.5j * (km - kp)                  # response to a unit sin amplitude
        jac = np.empty((self.dim, self.dim))
        jac[: self.nmodes, : self.nmodes] = da.real
        jac[self.nmodes:, : self.nmodes] = -da.imag
        jac[: self.nmodes, self.nmodes:] = db.real
        jac[self.nmodes:, self.nmodes:] = -db.imag
        return jac

    def divergence_max(self, x: np.ndarray) -> float:
        z = self._spectral(x)
        div = self._field(1j * self.wx * (1j * self.wy * z)
                          + 1j * self.wy * (-1j * self.wx * z))
        return float(np.max(np.abs(div)))

    def _sampled(self, fields: np.ndarray, shape: tuple, what: str) -> np.ndarray:
        """Fourier coefficients at the resolved modes of real fields of the
        given shape, sampled on the k x k grid (its last two axes)."""
        if fields.shape != shape:
            raise ValueError(f"{what} must be sampled on the k x k grid, shape {shape}")
        ix, iy = np.mod(self.modes, self.k).T
        return np.fft.fft2(fields)[..., ix, iy] / (self.k**2)

    def project_stream(self, psi_grid: np.ndarray) -> np.ndarray:
        """Coefficients of a stream function sampled on the k x k grid."""
        sel = self._sampled(psi_grid, (self.k, self.k), "stream function")
        return np.concatenate([2.0 * sel.real, -2.0 * sel.imag])

    def project_velocity(self, vel_grid: np.ndarray) -> np.ndarray:
        """Dual coefficients, the integrals against the basis fields, of a
        velocity field w sampled on the k x k grid as (2, k, k) components.

        A basis field is the curl of psi_m, so int u_m . w = int psi_m curl w:
        the dual of w is that of its vorticity d1 w2 - d2 w1.
        """
        f = self._sampled(vel_grid, (2, self.k, self.k), "velocity")
        return self._dual(1j * (self.modes[:, 0] * f[1] - self.modes[:, 1] * f[0]))

    def grid_points(self) -> tuple[np.ndarray, np.ndarray]:
        pts = 2.0 * np.pi * np.arange(self.k) / self.k
        return np.meshgrid(pts, pts, indexing="ij")

    def kinetic_energy(self, x: np.ndarray) -> float:
        return 0.5 * float(x @ (self.mass_diag * x))


def taylor_green_stream(basis: StreamFunctionBasis) -> np.ndarray:
    xx, yy = basis.grid_points()
    return basis.project_stream(np.sin(xx) * np.sin(yy))


def taylor_green_rate(viscosity: float) -> float:
    """Analytic decay rate of the kinetic energy of the (1,1) vortex: 2 nu |m|^2."""
    return 2.0 * viscosity * 2.0


def build_navier_stokes_2d(
    k: int,
    viscosity: float = 0.1,
    forcing: Optional[np.ndarray] = None,
    t1: float = 1.0,
    initial: str | np.ndarray = "taylor-green",
    seed: int = 0,
) -> ProblemSpec:
    """Incompressible 2D flow on the periodic square in a div-free basis.

    The evolution is du/dt + P(u . grad u) - f + nu * (-Laplace) u = 0 with
    the viscous term entering through the quadratic potential
    Psi(u) = (nu/2) * ||grad u||^2.  forcing, when given, is a (2, k, k)
    array of velocity-space components sampled on the grid; f is its
    projection, read off the resolved modes of its FFT.
    """
    basis = StreamFunctionBasis(k)
    n = basis.dim
    triple = EvolutionTriple(
        dim=n,
        mass=basis.mass_diag,
        xnorm=XNorm(kind="power", matrix=np.sqrt(basis.stiff_diag), q=2.0),
    )
    potential = Potential.quadratic(viscosity * basis.stiff_diag)
    f_dual = np.zeros(n) if forcing is None else basis.project_velocity(
        np.asarray(forcing, dtype=float))
    lam_op = OperatorLambda(
        dim=n,
        eval=lambda t, x: basis.convection_dual(x) - f_dual,
        dderiv=lambda t, x, h: basis.convection_dual_linearized(x, h),
        dderiv_adjoint=lambda t, x, v: basis.convection_dual_adjoint(x, v),
        jacobian=lambda t, x: basis.convection_jacobian(x))
    if isinstance(initial, str):
        if initial == "taylor-green":
            w0 = taylor_green_stream(basis)
        elif initial == "random":
            rng = np.random.default_rng(seed)
            w0 = np.zeros(n)
            low = basis.msq <= 8.0
            w0[: basis.nmodes][low] = rng.standard_normal(int(np.sum(low))) / 4.0
            w0[basis.nmodes:][low] = rng.standard_normal(int(np.sum(low))) / 4.0
        else:
            raise ValueError(f"unknown initial condition {initial!r}")
    else:
        w0 = np.asarray(initial, dtype=float)
        if w0.shape != (n,):
            raise ValueError(f"initial coefficient vector must have length {n}")
    prob = ProblemSpec(
        triple=triple, potential=potential, lambda_op=lam_op, lambda_flag=1,
        horizon=(0.0, t1), initial=w0,
        metadata={"name": "navier_stokes_2d", "grid": f"periodic-{k}x{k}",
                  "bc": "periodic", "q": 2.0, "viscosity": viscosity,
                  "_basis": None},
    )
    prob.metadata["_basis"] = basis
    return prob


def build_heat_core(n: int, t1: float = 0.1,
                    initial: Optional[Callable[[np.ndarray], np.ndarray]] = None) -> ProblemSpec:
    """The heat dynamics carried entirely by the operator (lambda_flag 0).

    Diffusion enters as the linear map u -> h G^T G u; the attached
    potential only supplies the merit function for the lambda = 0 energy
    (its conjugate of the residual) and the regularizer family for the
    vanishing-potential continuation.
    """
    h, x_nodes, g_mat = _grid(n)
    mass = np.full(n, h)
    triple = EvolutionTriple(
        dim=n, mass=mass,
        xnorm=XNorm(kind="power", matrix=np.sqrt(h) * g_mat, q=2.0),
    )
    lam_op = linear_operator(h * (g_mat.T @ g_mat))
    return _dirichlet_problem("heat_core", n, triple, Potential.quadratic(mass), lam_op,
                              (initial or _default_bump)(x_nodes), t1, lambda_flag=0)


# -- analytic references ---------------------------------------------------------

def exact_heat_solution(n: int, steps: int, t1: float = 0.1) -> Trajectory:
    """Samples of exp(-pi^2 t) sin(pi x) on the interior Dirichlet grid.

    States carry interior nodes only; the zero boundary values are implied
    by the Dirichlet representation and never stored.
    """
    _, x_nodes, _ = _grid(n)
    times = np.linspace(0.0, t1, steps + 1)
    states = np.exp(-np.pi**2 * times)[:, None] * np.sin(np.pi * x_nodes)[None, :]
    return Trajectory(states, 0.0, t1, states[0].copy())
