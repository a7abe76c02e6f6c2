import numpy as np
import pytest

from evomin import (
    check_coercivity,
    check_monotonicity,
    energy_balance_audit,
    implicit_euler_solve,
    minimize,
    residual,
)
from evomin.applications import (
    PointwiseMap,
    StreamFunctionBasis,
    build_anticoercive_fixture,
    build_heat,
    build_hyperbolic,
    build_navier_stokes_2d,
    build_parabolic_divergence,
    build_parabolic_nondivergence,
    build_schrodinger,
    exact_heat_solution,
    taylor_green_rate,
    taylor_green_stream,
)
from evomin.minimize import MinimizeOptions
from evomin.triple import pairing


def h_norms(problem, traj):
    tri = problem.triple
    return [tri.h_norm(tri.apply_t(s)) for s in traj.states]


# -- parabolic families -------------------------------------------------------

def test_heat_is_linear_diffusion():
    p = build_heat(8)
    counter = {}
    implicit_euler_solve(p, 4, counter=counter)
    assert counter["per_step"] == [1] * 4


def test_p_laplacian_flow_wiring():
    p = build_parabolic_divergence(8, q=4.0)
    assert p.metadata["q"] == 4.0
    traj = implicit_euler_solve(p, 5)
    assert np.max(np.abs(residual(p, traj))) < 1e-8
    norms = h_norms(p, traj)
    assert norms[-1] < norms[0]


def test_reaction_diffusion_oracle_vs_minimizer():
    p = build_parabolic_divergence(16, q=2.0, theta=PointwiseMap.linear(-1.0),
                                   name="reaction_diffusion")
    oracle = implicit_euler_solve(p, 20)
    res = minimize(p, steps=20, opts=MinimizeOptions(j_tol=1e-12, g_tol=1e-9,
                                                     require_gradient=True))
    assert res.converged
    assert np.max(np.abs(res.trajectory.states - oracle.states)) < 1e-5


def test_divergence_operator_keeps_its_formulas_bit_for_bit(rng):
    # the four callables as the builder wrote them by hand before they were
    # derived from its term list; the derived ones must give the same bits
    n = 8
    theta, xi, gamma = (PointwiseMap.linear(-0.9123), PointwiseMap.saturated_cubic(0.3154),
                        PointwiseMap.arctan(0.6819))
    op = build_parabolic_divergence(n, q=4.0, theta=theta, xi=xi, gamma=gamma).lambda_op
    h = 1.0 / (n + 1)
    d = np.zeros((n + 1, n))
    d[np.arange(n), np.arange(n)] = 1.0
    d[np.arange(n) + 1, np.arange(n)] = -1.0
    g, avg = d / h, np.abs(d) / 2.0

    def lam_eval(x):
        out = np.zeros_like(x)
        out += gamma.value(x @ g.T) @ g
        out += xi.value(x @ avg.T) @ g
        out -= theta.value(x)
        return h * out

    def lam_dderiv(x, hh):
        out = np.zeros_like(hh)
        out += (gamma.deriv(x @ g.T) * (hh @ g.T)) @ g
        out += (xi.deriv(x @ avg.T) * (hh @ avg.T)) @ g
        out -= theta.deriv(x) * hh
        return h * out

    def lam_adjoint(x, v):
        out = np.zeros_like(v)
        gv = v @ g.T
        out += (gamma.deriv(x @ g.T) * gv) @ g
        out += (xi.deriv(x @ avg.T) * gv) @ avg
        out -= theta.deriv(x) * v
        return h * out

    def lam_jac(x):
        jac = np.zeros((n, n))
        jac += g.T @ (gamma.deriv(g @ x)[:, None] * g)
        jac += g.T @ (xi.deriv(avg @ x)[:, None] * avg)
        jac -= np.diag(theta.deriv(x))
        return h * jac

    ts = np.linspace(0.0, 0.1, 5)
    xs, hs, vs = 2.0 * rng.standard_normal((3, 5, n))
    assert np.array_equal(op(ts, xs), lam_eval(xs))
    assert np.array_equal(op.dlambda(ts, xs, hs), lam_dderiv(xs, hs))
    assert np.array_equal(op.dlambda_adjoint(ts, xs, vs), lam_adjoint(xs, vs))
    for t, x, hh, v in zip(ts, xs, hs, vs):
        assert np.array_equal(op(t, x), lam_eval(x))
        assert np.array_equal(op.dlambda(t, x, hh), lam_dderiv(x, hh))
        assert np.array_equal(op.dlambda_adjoint(t, x, v), lam_adjoint(x, v))
        assert np.array_equal(op.jacobian_matrix(t, x), lam_jac(x))


def test_divergence_builder_validation():
    with pytest.raises(ValueError):
        build_parabolic_divergence(2)
    with pytest.raises(ValueError):
        build_parabolic_divergence(8, q=1.5)


def test_divergence_builder_rejects_a_nan_exponent():
    # NaN compares false with everything, so "q < 2" let it through
    with pytest.raises(ValueError, match="^q must be >= 2"):
        build_parabolic_divergence(8, q=np.nan)


def test_nondivergence_biharmonic_audit():
    p = build_parabolic_nondivergence(10, q=2.0)
    traj = implicit_euler_solve(p, 15)
    e = energy_balance_audit(p, traj)
    assert np.all(e <= 1e-12)


def test_nondivergence_constant_datum_moves():
    # constant datum is not an equilibrium: the boundary couples through Delta_h
    p = build_parabolic_nondivergence(8, q=2.0, initial=lambda x: np.ones_like(x))
    traj = implicit_euler_solve(p, 5)
    assert np.max(np.abs(traj.states[-1] - traj.states[0])) > 1e-3
    # the zero datum is the only constant equilibrium
    p0 = build_parabolic_nondivergence(8, q=2.0, initial=lambda x: 0.0 * x)
    traj0 = implicit_euler_solve(p0, 5)
    assert np.max(np.abs(traj0.states)) < 1e-12


def test_nondivergence_oracle_vs_minimizer():
    p = build_parabolic_nondivergence(8, q=2.0)
    oracle = implicit_euler_solve(p, 10)
    res = minimize(p, steps=10, opts=MinimizeOptions(j_tol=1e-14, g_tol=1e-8,
                                                     require_gradient=True))
    assert np.max(np.abs(res.trajectory.states - oracle.states)) < 1e-5


# -- hyperbolic and Schrodinger ------------------------------------------------

def test_wave_skew_block(rng):
    p = build_hyperbolic(12)
    for _ in range(100):
        z = rng.standard_normal(p.dim)
        assert abs(pairing(z, p.lambda_op(0.0, z))) < 1e-10 * np.linalg.norm(z) ** 2


def test_wave_h_norm_nonincreasing_and_damping_faster():
    base = build_hyperbolic(16, damping=0.0)
    traj = implicit_euler_solve(base, 40)
    norms = h_norms(base, traj)
    assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))

    damped = build_hyperbolic(16, damping=0.6)
    traj_d = implicit_euler_solve(damped, 40)
    norms_d = h_norms(damped, traj_d)
    assert norms_d[-1] < norms[-1]


def test_wave_zero_data_zero_trajectory():
    p = build_hyperbolic(8, initial_u=lambda x: 0.0 * x)
    traj = implicit_euler_solve(p, 6)
    assert np.max(np.abs(traj.states)) < 1e-14


def test_wave_energy_balance():
    p = build_hyperbolic(12)
    defects = {}
    for steps in (20, 40):
        e = energy_balance_audit(p, implicit_euler_solve(p, steps))
        assert np.all(e <= 1e-12)
        defects[steps] = np.max(np.abs(e))
    assert 1.6 <= defects[20] / defects[40] <= 2.4


def test_schrodinger_skew_and_decay(rng):
    p = build_schrodinger(12)
    for _ in range(100):
        z = rng.standard_normal(p.dim)
        assert abs(pairing(z, p.lambda_op(0.0, z))) < 1e-10 * np.linalg.norm(z) ** 2
    traj = implicit_euler_solve(p, 25)
    norms = h_norms(p, traj)
    assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))


def test_schrodinger_swap_symmetry():
    n = 10
    u0 = lambda x: np.sin(np.pi * x)
    v0 = lambda x: np.sin(2 * np.pi * x)
    p = build_schrodinger(n, initial_u=u0, initial_v=v0)
    traj = implicit_euler_solve(p, 15)
    p_sw = build_schrodinger(n, initial_u=v0, initial_v=lambda x: -u0(x))
    traj_sw = implicit_euler_solve(p_sw, 15)
    mapped = np.concatenate([traj.states[:, n:], -traj.states[:, :n]], axis=1)
    assert np.max(np.abs(traj_sw.states - mapped)) < 1e-12


def test_schrodinger_saturated_coupling_runs():
    p = build_schrodinger(16, couplings=(1.0, 0.5), t1=0.3)
    traj = implicit_euler_solve(p, 30)
    assert np.max(np.abs(residual(p, traj))) < 1e-8


@pytest.mark.parametrize("build, strong", [
    (build_hyperbolic, dict(nonlinearity=0.5)),
    (build_schrodinger, dict(couplings=(0.0, 0.5))),
])
def test_zero_strength_pair_families_declare_their_skew_linear_part(build, strong, rng):
    lam = build(8).lambda_op
    mat = lam.linear
    assert mat is not None and np.any(mat)
    assert np.max(np.abs(mat + mat.T)) <= 1e-12 * np.max(np.abs(mat))
    x = rng.standard_normal(16)
    assert np.array_equal(mat, lam.jacobian_matrix(0.0, x))
    assert np.allclose(lam(0.0, x), mat @ x, rtol=1e-13, atol=0.0)
    # a nonzero strength is a term, so Lambda is no longer declared linear
    assert build(8, **strong).lambda_op.linear is None


# -- Navier-Stokes ----------------------------------------------------------------

def test_ns_builder_validation():
    with pytest.raises(ValueError):
        build_navier_stokes_2d(7)
    with pytest.raises(ValueError):
        build_navier_stokes_2d(6)


def test_ns_convection_skew_and_divergence_free(rng):
    p = build_navier_stokes_2d(16, initial="random", seed=0)
    basis = p.metadata["_basis"]
    for _ in range(20):
        x = rng.standard_normal(p.dim)
        conv = p.lambda_op(0.0, x)
        assert abs(pairing(x, conv)) < 1e-10 * np.linalg.norm(x) ** 2
        assert basis.divergence_max(x) < 1e-10


# -- complex-FFT reference for the Navier-Stokes transforms -------------------------
#
# Full complex spectra on the padded lattice and complex ifft2 / fft2, built
# from the basis's mode list alone: independent of the half-spectrum layout
# that StreamFunctionBasis transforms with.

def complex_spectrum(basis, x):
    """Full Hermitian stream spectrum of x, or of each row of a stack of states."""
    p = basis.pad
    m1, m2 = basis.modes[:, 0], basis.modes[:, 1]
    c = 0.5 * (x[..., : basis.nmodes] - 1j * x[..., basis.nmodes:])
    z = np.zeros(np.shape(x)[:-1] + (p, p), dtype=complex)
    z[..., m1 % p, m2 % p] = c
    z[..., -m1 % p, -m2 % p] = np.conj(c)
    return z


def complex_fields(basis, z):
    """u1, u2, du1/dx, du1/dy, du2/dx, du2/dy of stream spectra z by complex ifft2."""
    p = basis.pad
    wx = np.fft.fftfreq(p, d=1.0 / p)[:, None]
    wy = np.fft.fftfreq(p, d=1.0 / p)[None, :]
    zx, zy = 1j * wx * z, 1j * wy * z
    return [np.real(np.fft.ifft2(s)) * p**2
            for s in (zy, -zx, 1j * wx * zy, 1j * wy * zy, -1j * wx * zx, -1j * wy * zx)]


def complex_vorticity_gradient(basis, z):
    """d omega/dx, d omega/dy of stream spectra z, omega = -Laplace psi, by complex ifft2."""
    p = basis.pad
    wx = np.fft.fftfreq(p, d=1.0 / p)[:, None]
    wy = np.fft.fftfreq(p, d=1.0 / p)[None, :]
    w = (wx**2 + wy**2) * z
    return [np.real(np.fft.ifft2(s)) * p**2 for s in (1j * wx * w, 1j * wy * w)]


def complex_project(basis, w1, w2):
    """Dual coefficients of the velocity field (w1, w2) by complex fft2."""
    p = basis.pad
    m1, m2 = basis.modes[:, 0], basis.modes[:, 1]
    area = (2.0 * np.pi) ** 2
    sel1 = (np.fft.fft2(w1) / p**2)[..., m1 % p, m2 % p]
    sel2 = (np.fft.fft2(w2) / p**2)[..., m1 % p, m2 % p]
    a = area * (m2 * sel1.imag - m1 * sel2.imag)
    b = area * (m2 * sel1.real - m1 * sel2.real)
    return np.concatenate([a, b], axis=-1)


def linearized_reference(basis, x, h):
    """Convection linearized at x in the direction(s) h, by the complex reference."""
    u1, u2, d1x, d1y, d2x, d2y = complex_fields(basis, complex_spectrum(basis, x))
    h1, h2, e1x, e1y, e2x, e2y = complex_fields(basis, complex_spectrum(basis, h))
    return complex_project(basis, u1 * e1x + u2 * e1y + h1 * d1x + h2 * d1y,
                           u1 * e2x + u2 * e2y + h1 * d2x + h2 * d2y)


def convection_jacobian_fft(basis, x, chunk=64):
    """FFT route to the convection Jacobian, one basis column per padded field."""
    eye = np.eye(basis.dim)
    cols = [linearized_reference(basis, x, eye[start:start + chunk])
            for start in range(0, basis.dim, chunk)]
    return np.concatenate(cols).T


def _rel(got, ref):
    return np.max(np.abs(got - ref)) / np.max(np.abs(ref))


@pytest.mark.parametrize("k", [8, 16, 32])
def test_ns_real_transforms_match_complex_reference(rng, k):
    basis = StreamFunctionBasis(k)
    x, h = rng.standard_normal((2, basis.dim))
    ref = complex_fields(basis, complex_spectrum(basis, x))
    u, dw = basis._curl_fields(x)
    want_dw = complex_vorticity_gradient(basis, complex_spectrum(basis, x))
    for got, want in zip([u[0], u[1], dw[0], dw[1]], ref[:2] + want_dw):
        assert _rel(got, want) < 1e-13
    assert _rel(basis.velocity(x), np.stack(ref[:2])) < 1e-13
    u1, u2, d1x, d1y, d2x, d2y = ref
    conv = complex_project(basis, u1 * d1x + u2 * d1y, u1 * d2x + u2 * d2y)
    assert _rel(basis.convection_dual(x), conv) < 1e-13
    assert _rel(basis.convection_dual_linearized(x, h), linearized_reference(basis, x, h)) < 1e-13


def test_ns_jacobian_routes_agree(rng):
    basis = StreamFunctionBasis(8)
    x = rng.standard_normal(basis.dim)
    jk = basis.convection_jacobian(x)
    jf = convection_jacobian_fft(basis, x)
    assert np.max(np.abs(jk - jf)) < 1e-9 * max(1.0, np.max(np.abs(jk)))
    h = rng.standard_normal(basis.dim)
    dd = basis.convection_dual_linearized(x, h)
    assert np.max(np.abs(jk @ h - dd)) < 1e-9 * max(1.0, np.max(np.abs(dd)))


@pytest.mark.parametrize("k", [8, 16, 32])
def test_ns_adjoint_is_the_transposed_jacobian(rng, k):
    basis = StreamFunctionBasis(k)
    xs, vs = rng.standard_normal((2, 4, basis.dim))
    want = np.array([basis.convection_jacobian(x).T @ v for x, v in zip(xs, vs)])
    assert _rel(basis.convection_dual_adjoint(xs[0], vs[0]), want[0]) < 1e-13
    got = basis.convection_dual_adjoint(xs, vs)
    assert got.shape == want.shape
    assert _rel(got, want) < 1e-13


def test_ns_minimizer_matches_oracle():
    p = build_navier_stokes_2d(8, initial="random", seed=3)
    res = minimize(p, steps=5, opts=MinimizeOptions(require_gradient=True))
    assert res.j_history[-1] <= 1e-10
    oracle = implicit_euler_solve(p, 5)
    assert np.max(np.abs(res.trajectory.states - oracle.states)) <= 1e-5


def test_ns_state_memo_follows_in_place_changes(rng):
    basis = StreamFunctionBasis(8)
    x, h = rng.standard_normal(basis.dim), rng.standard_normal(basis.dim)
    first = basis.convection_dual_linearized(x, h)
    assert np.array_equal(first, StreamFunctionBasis(8).convection_dual_linearized(x, h))
    x[:5] += 1.0
    for fresh in (StreamFunctionBasis(8), StreamFunctionBasis(8)):
        assert np.array_equal(basis.convection_dual_linearized(x, h),
                              fresh.convection_dual_linearized(x, h))
        assert np.array_equal(basis.convection_dual(x), fresh.convection_dual(x))
    assert not np.array_equal(basis.convection_dual_linearized(x, h), first)
    x *= -2.0
    assert np.array_equal(basis.convection_dual(x), StreamFunctionBasis(8).convection_dual(x))


def test_ns_energy_decay_zero_forcing():
    p = build_navier_stokes_2d(16, viscosity=0.1, initial="random", seed=2, t1=0.5)
    basis = p.metadata["_basis"]
    traj = implicit_euler_solve(p, 20)
    energies = [basis.kinetic_energy(s) for s in traj.states]
    assert all(b <= a + 1e-10 for a, b in zip(energies, energies[1:]))
    assert max(basis.divergence_max(s) for s in traj.states) < 1e-10


def test_ns_taylor_green_projection():
    basis = StreamFunctionBasis(16)
    x = taylor_green_stream(basis)
    vel = basis.velocity(x, grid=16)
    xx, yy = basis.grid_points()
    assert np.max(np.abs(vel[0] - np.sin(xx) * np.cos(yy))) < 1e-12
    assert np.max(np.abs(vel[1] + np.cos(xx) * np.sin(yy))) < 1e-12
    # pure gradient forcing projects to nothing: TG convection vanishes
    conv = basis.convection_dual(x)
    assert np.max(np.abs(conv)) < 1e-12


def test_ns_forcing_projection():
    k = 16
    basis = StreamFunctionBasis(k)
    xx, yy = basis.grid_points()
    force = np.stack([np.sin(yy), np.zeros_like(yy)])
    p = build_navier_stokes_2d(k, viscosity=0.1, forcing=force,
                               initial=np.zeros(basis.dim), t1=0.2)
    traj = implicit_euler_solve(p, 4)
    # forced flow departs from rest
    assert basis.kinetic_energy(traj.states[-1]) > 1e-4


# -- references and fixtures ------------------------------------------------------

def test_exact_heat_solution_rows():
    traj = exact_heat_solution(9, 4, t1=0.1)
    x = np.arange(1, 10) / 10.0
    assert np.allclose(traj.states[0], np.sin(np.pi * x))
    mid = np.exp(-np.pi**2 * 0.05)
    assert traj.states[2, 4] == pytest.approx(mid * np.sin(np.pi * 0.5))


def test_taylor_green_rate_value():
    assert taylor_green_rate(0.1) == pytest.approx(0.4)


def test_time_modulated_potential_end_to_end(rng):
    # a(t) = 1 + t/2 flows through energy, gradient and the Newton stepper
    p = build_parabolic_divergence(8, time_scale=0.5, t1=0.5)
    traj = implicit_euler_solve(p, 10)
    assert np.max(np.abs(residual(p, traj))) < 1e-9
    from evomin import energy, energy_gradient
    traj.states[1:] += 0.2 * rng.standard_normal(traj.states[1:].shape)
    g = energy_gradient(p, traj)
    gmax = max(np.max(np.abs(g)), 1e-10)
    for _ in range(6):
        k = int(rng.integers(0, traj.steps))
        i = int(rng.integers(0, p.dim))
        h = 1e-6
        tp = traj.copy()
        tp.states[k + 1, i] += h
        tm = traj.copy()
        tm.states[k + 1, i] -= h
        fd = (energy(p, tp) - energy(p, tm)) / (2 * h)
        assert abs(fd - g[k, i]) < 1e-5 * gmax
    # faster diffusion than the unmodulated problem
    base = build_parabolic_divergence(8, t1=0.5)
    traj_b = implicit_euler_solve(base, 10)
    assert h_norms(p, implicit_euler_solve(p, 10))[-1] < h_norms(base, traj_b)[-1]


@pytest.mark.parametrize("build", [
    lambda: build_parabolic_divergence(8, theta=PointwiseMap.linear(-0.5),
                                       xi=PointwiseMap.saturated_cubic(0.3),
                                       gamma=PointwiseMap.arctan(0.5)),
    lambda: build_parabolic_nondivergence(8, gamma=PointwiseMap.arctan(0.5)),
    lambda: build_hyperbolic(8, damping=0.2, nonlinearity=0.3),
    lambda: build_schrodinger(8, couplings=(0.3, 0.2)),
    lambda: build_navier_stokes_2d(8, initial="random", seed=0),
])
def test_builders_pass_hypothesis_checkers(build, rng):
    p = build()
    mono = check_monotonicity(p, 300, rng=rng)
    assert mono.passed
    assert np.isfinite(mono.fitted_constants["ghat"])
    coer = check_coercivity(p, 300, rng=rng)
    assert coer.passed
    assert np.isfinite(coer.fitted_constants["alpha"])
    assert coer.fitted_constants["alpha"] > 0


def test_anticoercive_fixture_fails_coercivity(rng):
    p = build_anticoercive_fixture()
    rep = check_coercivity(p, 500, rng=rng)
    assert not rep.passed


@pytest.mark.parametrize("k", [8, 16, 32])
def test_ns_linearized_is_the_jacobian_action(rng, k):
    basis = StreamFunctionBasis(k)
    x = rng.standard_normal(basis.dim)
    hs = rng.standard_normal((4, basis.dim))
    jac = basis.convection_jacobian(x)
    assert _rel(basis.convection_dual_linearized(x, hs[0]), jac @ hs[0]) < 1e-13
    got = basis.convection_dual_linearized(x, hs)
    assert got.shape == hs.shape
    assert _rel(got, hs @ jac.T) < 1e-13
    xs = np.tile(x, (4, 1))
    assert _rel(basis.convection_dual_linearized(xs, hs), hs @ jac.T) < 1e-13
