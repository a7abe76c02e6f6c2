import numpy as np
import pytest

from evomin import ConjugateFailure, EvolutionTriple, Potential, ProblemSpec, XNorm, check_growth
from evomin.applications import build_heat, build_parabolic_nondivergence
from evomin.operator import linear_operator
from evomin.potential import HESS_REGULARIZATION
from evomin.potential import Potential as P
from evomin.triple import dense


def grid_sup_conjugate(psi, y, lo=-50.0, hi=50.0, num=400001):
    """Brute-force sup_z (z*y - psi(z)) on a fine 1D grid: the independent
    oracle for scalar conjugates."""
    z = np.linspace(lo, hi, num)
    return float(np.max(z * y - psi(z)))


def test_eval_psi_examples():
    quad = Potential.quadratic(np.eye(1))
    assert quad.psi(0.0, np.array([3.0])) == pytest.approx(4.5)
    pw = Potential.composed_power(np.ones(1), q=4.0)
    assert pw.psi(0.0, np.array([2.0])) == pytest.approx(4.0)
    comp = Potential.composed_power(np.eye(2), q=3.0)
    assert comp.psi(0.0, np.zeros(2)) == 0.0


def test_grad_psi_examples():
    quad = Potential.quadratic(np.diag([2.0]))
    assert quad.grad(0.0, np.array([3.0])) == pytest.approx([6.0])
    pw = Potential.composed_power(np.ones(1), q=4.0)
    assert pw.grad(0.0, np.array([2.0])) == pytest.approx([8.0])
    assert np.allclose(pw.grad(0.0, np.zeros(1)), 0.0)


def test_conjugate_examples():
    quad = Potential.quadratic(np.eye(1))
    assert quad.conjugate(0.0, np.array([3.0])) == pytest.approx(4.5)
    pw = Potential.composed_power(np.ones(1), q=4.0)
    # (3/4) * 8^{4/3} = 12
    assert pw.conjugate(0.0, np.array([8.0])) == pytest.approx(12.0)
    assert pw.conjugate(0.0, np.zeros(1)) == pytest.approx(0.0)


def test_conjugate_against_grid_sup_oracle():
    # frozen values computed with grid_sup_conjugate; the oracle also runs live
    quad = Potential.quadratic(np.diag([2.0]))
    got = quad.conjugate(0.0, np.array([6.0]))
    assert got == pytest.approx(9.0, abs=1e-9)           # y^2 / (2*2)
    assert got == pytest.approx(
        grid_sup_conjugate(lambda z: z * z, 6.0), abs=1e-6)
    pw = Potential.composed_power(np.ones(1), q=4.0)
    got = pw.conjugate(0.0, np.array([8.0]))
    assert got == pytest.approx(grid_sup_conjugate(lambda z: np.abs(z) ** 4 / 4, 8.0),
                                abs=1e-6)
    weighted = Potential.composed_power(np.ones(1), q=3.0, scale=2.0)
    got = weighted.conjugate(0.0, np.array([5.0]))
    assert got == pytest.approx(
        grid_sup_conjugate(lambda z: 2.0 * np.abs(z) ** 3 / 3, 5.0), abs=1e-6)


def test_legendre_argmax_examples():
    quad = Potential.quadratic(np.diag([2.0]))
    assert quad.conjugate_argmax(0.0, np.array([6.0])) == pytest.approx([3.0])
    pw = Potential.composed_power(np.ones(1), q=4.0)
    assert pw.conjugate_argmax(0.0, np.array([8.0])) == pytest.approx([2.0])
    assert np.allclose(pw.conjugate_argmax(0.0, np.zeros(1)), 0.0)


def test_duality_gap_examples():
    pw = Potential.composed_power(np.ones(1), q=4.0)
    assert pw.duality_gap(0.0, np.array([2.0]), np.array([8.0])) == pytest.approx(0.0, abs=1e-12)
    assert pw.duality_gap(0.0, np.array([1.0]), np.array([8.0])) == pytest.approx(4.25)
    assert pw.duality_gap(0.0, np.zeros(1), np.zeros(1)) == pytest.approx(0.0)


@pytest.mark.parametrize("make", [
    lambda rng: Potential.quadratic(_spd(rng, 4)),
    lambda rng: Potential.composed_power(rng.uniform(0.5, 2.0, 4) ** (1 / 3.0), q=3.0),
    lambda rng: Potential.composed_power(rng.standard_normal((6, 4)) + np.eye(6, 4) * 3,
                                         q=2.0, scale=0.7),
    lambda rng: Potential.composed_power(np.eye(4) * 1.5, q=4.0),
])
def test_fenchel_young_inequality(make, rng):
    pot = make(rng)
    # the 2000 pairs (x, y) of a loop that draws x, then y, as one stacked call
    xy = 3.0 * rng.standard_normal((2000, 2, pot.dim))
    assert np.all(pot.duality_gap(0.3, xy[:, 0], xy[:, 1]) >= -1e-9)


@pytest.mark.parametrize("make", [
    lambda rng: Potential.quadratic(_spd(rng, 5)),
    lambda rng: Potential.composed_power(np.ones(5), q=2.5),
    lambda rng: Potential.composed_power(rng.standard_normal((7, 5)) + np.eye(7, 5) * 3,
                                         q=2.0),
    lambda rng: Potential.composed_power(np.eye(5), q=4.0, scale=2.0),
])
def test_conjugate_inversion(make, rng):
    pot = make(rng)
    for _ in range(100):
        x = 2.0 * rng.standard_normal(pot.dim)
        y = pot.grad(0.1, x)
        assert pot.duality_gap(0.1, x, y) < 1e-8


def test_gradient_matches_finite_differences(rng):
    pots = [
        Potential.quadratic(_spd(rng, 4)),
        Potential.composed_power(np.ones(4), q=3.0),
        Potential.composed_power(rng.standard_normal((6, 4)) + 3 * np.eye(6, 4), q=4.0),
        Potential.custom(lambda x: float(np.sum(np.cosh(x) - 1.0)),
                         lambda x: np.sinh(x), dim=4),
    ]
    for pot in pots:
        for _ in range(30):
            x = 2.0 * rng.standard_normal(pot.dim)
            g = pot.grad(0.0, x)
            step = 1e-5 * (1.0 + np.linalg.norm(x))
            for i in range(pot.dim):
                e = np.zeros(pot.dim)
                e[i] = step
                fd = (pot.psi(0.0, x + e) - pot.psi(0.0, x - e)) / (2 * step)
                assert abs(fd - g[i]) <= 1e-6 * max(1.0, abs(fd))


def test_newton_conjugate_for_custom_kind(rng):
    pot = Potential.custom(lambda x: float(np.sum(np.cosh(x) - 1.0)),
                           lambda x: np.sinh(x), dim=3)
    y = np.array([0.5, -1.0, 2.0])
    z = pot.conjugate_argmax(0.0, y)
    assert np.max(np.abs(pot.grad(0.0, z) - y)) < 1e-12
    # closed form: psi*(y) = sum y*arcsinh(y) - sqrt(1+y^2) + 1
    expect = float(np.sum(y * np.arcsinh(y) - np.sqrt(1 + y**2) + 1.0))
    assert pot.conjugate(0.0, y) == pytest.approx(expect, abs=1e-10)


def test_custom_kind_with_hessian_action():
    pot = Potential.custom(
        lambda x: float(np.sum(np.cosh(x) - 1.0)),
        lambda x: np.sinh(x),
        dim=2,
        hess_action=lambda x, h: np.cosh(x) * h,
    )
    y = np.array([1.5, -0.3])
    z = pot.conjugate_argmax(0.0, y)
    assert np.max(np.abs(pot.grad(0.0, z) - y)) < 1e-12
    assert np.allclose(pot.hess_matrix(0.0, y), np.diag(np.cosh(y)))


def test_custom_kind_must_vanish_at_origin():
    with pytest.raises(ValueError):
        Potential.custom(lambda x: float(np.sum(x**2)) + 1.0,
                         lambda x: 2.0 * x, dim=2)


def test_singular_composed_quadratic_conjugate_fails():
    pot = Potential.composed_power(np.array([[1.0, -1.0]]), q=2.0)
    assert pot.psi(0.0, np.array([2.0, 2.0])) == 0.0
    with pytest.raises(ConjugateFailure):
        pot.conjugate(0.0, np.array([1.0, 0.0]))


def test_quadratic_must_be_symmetric():
    # cho_factor reads the upper triangle and grad the whole matrix, so a
    # non-symmetric A gives a nonzero duality gap at y = grad(x)
    with pytest.raises(ValueError, match="symmetric"):
        Potential.quadratic(np.array([[2.0, 1.0], [0.0, 2.0]]))
    # one tolerance, 1e-12 of max(1, max |a_ij|), for a mass and a quadratic
    for skew, ok in ((5e-13, True), (5e-12, False)):
        for big in (1.0, 1e6):
            a = big * np.array([[2.0, 0.5 + skew], [0.5, 2.0]])
            for build in (lambda: EvolutionTriple(dim=2, mass=a), lambda: Potential.quadratic(a)):
                if ok:
                    build()
                else:
                    with pytest.raises(ValueError, match="symmetric"):
                        build()


@pytest.mark.parametrize("q", [2.0, 4.0])
@pytest.mark.parametrize("scale", [-1.0, 0.0, np.inf, -np.inf, np.nan])
def test_composed_power_scale_must_be_positive_and_finite(q, scale):
    # a nonpositive scale makes Psi concave, whose conjugate is +inf
    with pytest.raises(ValueError, match="scale"):
        Potential.composed_power(np.eye(2), q=q, scale=scale)


def test_nan_exponent_rejected_by_pointwise_power():
    with pytest.raises(ValueError, match="q >= 2"):
        Potential.composed_power(np.ones(2), q=np.nan)


def test_one_dimensional_g_must_be_positive_and_finite():
    for g in ([np.nan, 1.0], [np.inf, 1.0], [0.0, 1.0], [-1.0, 1.0]):
        with pytest.raises(ValueError, match="1-D G must have positive finite entries"):
            Potential.composed_power(np.array(g), q=4.0)


def test_nan_exponent_rejected_by_composed_power():
    with pytest.raises(ValueError, match="q >= 2"):
        Potential.composed_power(np.eye(2), q=np.nan)


def test_time_modulation():
    pot = Potential.quadratic(np.eye(1), modulation=lambda t: 1.0 + t)
    x = np.array([2.0])
    assert pot.psi(1.0, x) == pytest.approx(4.0)          # (1+t)*x^2/2
    assert pot.grad(1.0, x) == pytest.approx([4.0])
    y = pot.grad(1.0, x)
    assert pot.duality_gap(1.0, x, y) == pytest.approx(0.0, abs=1e-12)
    assert pot.conjugate(1.0, np.array([4.0])) == pytest.approx(4.0)  # y^2/(2a)


def test_modulation_must_be_positive():
    pot = Potential.quadratic(np.eye(1), modulation=lambda t: -1.0)
    with pytest.raises(ValueError):
        pot.psi(0.0, np.array([1.0]))


def test_one_state_reads_check_their_input_and_the_modulation():
    # the check is the same whether the Hessian answers 1-D or 2-D
    for matrix in (np.ones(2), np.eye(2)):
        pot = Potential.quadratic(matrix, modulation=lambda t: 1.0 - t)
        assert np.array_equal(pot.hess_matrix(0.5, np.zeros(2)), 0.5 * matrix)
        # a (1, 2) input is a stack of one row
        assert np.array_equal(pot.hess_matrix(0.5, np.zeros((1, 2))), [0.5 * matrix])
        for bad in (np.zeros((1, 1, 2)), np.zeros(3), np.array([np.nan, 0.0])):
            with pytest.raises(ValueError):
                pot.hess_matrix(0.5, bad)
        for t in (1.0, 2.0, np.inf):
            with pytest.raises(ValueError, match="positive and finite"):
                pot.hess_matrix(t, np.zeros(2))


def test_nonfinite_input_rejected():
    pot = Potential.quadratic(np.eye(2))
    with pytest.raises(ValueError):
        pot.psi(0.0, np.array([np.nan, 0.0]))
    with pytest.raises(ValueError):
        pot.grad(0.0, np.array([np.inf, 0.0]))


def test_conjugate_failure_reports_residual():
    # gradient saturates: y outside its range has no maximizer
    pot = Potential.custom(lambda x: float(np.sum(np.sqrt(1 + x**2) - 1)),
                           lambda x: x / np.sqrt(1 + x**2), dim=1)
    with pytest.raises(ConjugateFailure) as err:
        pot.conjugate(0.0, np.array([2.0]))
    assert err.value.residual > 0.0


def _growth_problem(potential, triple):
    """Psi = potential on the triple, Lambda = 0, over (0, 1)."""
    dim = triple.dim
    return ProblemSpec(triple=triple, potential=potential,
                       lambda_op=linear_operator(np.zeros((dim, dim))), lambda_flag=1,
                       horizon=(0.0, 1.0), initial=np.zeros(dim))


def test_check_growth_pass_and_fail(rng):
    tri = EvolutionTriple(dim=3, mass=np.eye(3))      # euclidean X-norm, q = 2
    pot = Potential.composed_power(np.ones(3), q=2.0)   # Psi = |x|^2/2 in the X norm
    rep = check_growth(_growth_problem(pot, tri), 500, c0=1.0, rng=rng)
    assert rep.passed
    assert rep.fitted_constants["c0_min"] == pytest.approx(2.0, rel=1e-2)

    # q = 4 growth against the q = 2 of the X-norm must be falsified at large
    # radii: at |x| = 10, x^4/4 > x^2 + c0
    pot4 = Potential.composed_power(np.ones(3), q=4.0)
    rep = check_growth(_growth_problem(pot4, tri), 500, c0=1.0, rng=rng)
    assert not rep.passed

    rep = check_growth(_growth_problem(pot, tri), 0, c0=1.0, rng=rng)
    assert rep.passed and rep.samples == 0


def test_check_growth_gradient_bound(rng):
    tri = EvolutionTriple(dim=2, mass=np.eye(2), xnorm=XNorm(np.eye(2), q=4.0))
    pot = Potential.composed_power(np.ones(2), q=4.0)
    rep = check_growth(_growth_problem(pot, tri), 400, c0=4.0, rng=rng)
    assert rep.passed
    # |DPsi(x)| <= Cbar (|x|^3 + 1) holds with a modest constant
    assert 0.0 < rep.fitted_constants["grad_bound"] < 10.0


def test_scaled_potential():
    pot = Potential.composed_power(np.ones(1), q=4.0)
    scaled = pot.scaled(0.5)
    x = np.array([2.0])
    assert scaled.psi(0.0, x) == pytest.approx(2.0)
    assert scaled.grad(0.0, x) == pytest.approx([4.0])


@pytest.mark.parametrize("factor", [np.nan, np.inf, -np.inf, 0.0, -1.0])
def test_scaled_potential_rejects_a_factor_that_is_not_positive_and_finite(factor):
    with pytest.raises(ValueError, match="positive and finite"):
        Potential.quadratic(np.eye(2)).scaled(factor)


def _spd(rng, n):
    a = rng.standard_normal((n, n))
    return a @ a.T + n * np.eye(n)


# -- warm-started conjugate Newton --------------------------------------------------

def _quartic_custom(with_hessian):
    """Psi = sum x^4/4 + x^2/2: a custom kind on the Newton path."""
    hess = (lambda x, h: (3.0 * x * x + 1.0) * h) if with_hessian else None
    return Potential.custom(lambda x: float(np.sum(x**4) / 4.0 + np.sum(x**2) / 2.0),
                            lambda x: x**3 + x, dim=4, hess_action=hess)


NEWTON_KINDS = {
    "composed_power_q4": lambda: Potential.composed_power(
        np.eye(4) + 0.5 * np.eye(4, k=1), q=4.0, scale=0.7),
    "custom": lambda: _quartic_custom(False),
    "custom_hess_action": lambda: _quartic_custom(True),
}


@pytest.mark.parametrize("kind", sorted(NEWTON_KINDS))
def test_warm_and_cold_conjugate_argmax_agree(rng, kind):
    from evomin.potential import NEWTON_TOL

    pot = NEWTON_KINDS[kind]()
    ts = np.linspace(0.0, 1.0, 6)
    ys = 2.0 * rng.standard_normal((6, 4))
    nearby = pot.conjugate_argmax(ts, ys + 0.1 * rng.standard_normal(ys.shape))
    cold = pot.conjugate_argmax(ts, ys)
    warm = pot.conjugate_argmax(ts, ys, start=nearby)
    # the stop rule: |DPsi_t(z) - y|_inf < NEWTON_TOL * max(1, |y|_inf) on each row
    tol = NEWTON_TOL * np.maximum(1.0, np.max(np.abs(ys), axis=1))
    for z in (cold, warm):
        assert np.all(np.max(np.abs(pot.grad(ts, z) - ys), axis=1) < tol)
    assert np.max(np.abs(warm - cold)) < 1e-10
    # a start that already solves the equation is returned as it is
    assert np.array_equal(pot.conjugate_argmax(ts, ys, start=cold), cold)
    one = pot.conjugate_argmax(0.5, ys[0], start=nearby[0])
    assert np.max(np.abs(pot.grad(0.5, one) - ys[0])) < tol[0]


def test_conjugate_newton_stop_scales_with_y():
    # |y|_inf = 1.25e4: round-off in DPsi(z) is above an absolute 1e-12, where
    # an absolute stop stalled in the line search with z already exact
    from evomin.applications import build_parabolic_divergence

    pot = build_parabolic_divergence(8, q=4.0).potential
    x = np.random.default_rng(8).standard_normal(8)
    y = pot.grad(0.0, x)
    assert np.max(np.abs(y)) > 1e4
    assert np.max(np.abs(pot.conjugate_argmax(0.0, y) - x)) < 1e-12


@pytest.mark.parametrize("kind", sorted(NEWTON_KINDS))
def test_failed_warm_start_returns_the_cold_bits(rng, kind):
    pot = NEWTON_KINDS[kind]()
    ts = np.linspace(0.0, 1.0, 5)
    ys = rng.standard_normal((5, 4))
    far = np.full_like(ys, 1e30)     # about 170 Newton steps away: past NEWTON_MAX_ITER
    with pytest.raises(ConjugateFailure):
        pot._newton_argmax_batch(ts, ys, far)
    cold = pot.conjugate_argmax(ts, ys)
    assert np.array_equal(pot.conjugate_argmax(ts, ys, start=far), cold)
    assert np.array_equal(pot.conjugate_argmax(0.0, ys[0], start=far[0]),
                          pot.conjugate_argmax(0.0, ys[0]))


def test_singular_warm_start_falls_back():
    # DPsi = x^3 has a zero Hessian at a zero start
    pot = Potential.custom(lambda x: float(np.sum(x**4) / 4.0), lambda x: x**3, dim=2,
                           hess_action=lambda x, h: 3.0 * x * x * h)
    y = np.array([[8.0, -1.0]])
    with pytest.raises(ConjugateFailure):
        pot._newton_argmax_batch(0.0, y, np.zeros((1, 2)))
    z = pot.conjugate_argmax(0.0, y, start=np.zeros((1, 2)))
    assert np.array_equal(z, pot.conjugate_argmax(0.0, y))
    assert np.allclose(z, [[2.0, -1.0]])


def test_cold_failure_still_raises_with_a_start():
    pot = Potential.custom(lambda x: float(np.sum(np.sqrt(1 + x**2) - 1)),
                           lambda x: x / np.sqrt(1 + x**2), dim=1)
    with pytest.raises(ConjugateFailure):
        pot.conjugate_argmax(0.0, np.array([[2.0]]), start=np.array([[0.5]]))


def test_closed_form_kinds_ignore_the_start(rng):
    ys = rng.standard_normal((3, 2))
    start = rng.standard_normal((3, 2))
    for pot in (Potential.quadratic(np.diag([2.0, 3.0])),
                Potential.composed_power(np.ones(2), q=4.0),
                Potential.composed_power(np.eye(2), q=2.0)):
        assert np.array_equal(pot.conjugate_argmax(0.0, ys, start=start),
                              pot.conjugate_argmax(0.0, ys))


@pytest.mark.parametrize("kind", ["quadratic", "pointwise_power", "composed_power", "custom"])
def test_single_state_calls_are_the_row_forms_on_one_row(rng, kind):
    g = rng.standard_normal((5, 4))
    modulation = (lambda t: 1.0 + 2.0 * t)
    pot = {
        "quadratic": Potential.quadratic(g.T @ g + np.eye(4), modulation=modulation),
        "pointwise_power": Potential.composed_power(np.ones(4), 3.0, modulation=modulation),
        "composed_power": Potential.composed_power(g, q=4.0, scale=0.3, modulation=modulation),
        "custom": Potential.custom(lambda x: float(np.sum(np.cosh(x) - 1.0)), np.sinh, 4,
                                   modulation=modulation),
    }[kind]
    for _ in range(10):
        x = rng.standard_normal(4)
        assert np.array_equal(pot.grad(0.4, x), pot.grad(0.4, x[None])[0])
        assert np.array_equal(pot.psi(0.4, x), pot.psi(0.4, x[None])[0])
        # the Hessian the conjugate's Newton solve uses on its rows
        row = pot._hess_rows(pot._a_rows(0.4, 1)[:, None], x[None])[0]
        assert np.array_equal(pot.hess_matrix(0.4, x), row)


@pytest.mark.parametrize("kind,diagonal", [
    ("quadratic_diagonal", True), ("quadratic", False), ("pointwise_power", True),
    ("composed_power", False), ("custom_action", False), ("custom_differences", False),
])
def test_stacked_hessian_matches_per_row_calls(rng, kind, diagonal):
    n, rows = 4, 5
    g = rng.standard_normal((5, n))
    modulation = (lambda t: 1.0 + 2.0 * t)
    pot = {
        "quadratic_diagonal": Potential.quadratic(np.arange(1.0, n + 1.0), modulation=modulation),
        "quadratic": Potential.quadratic(g.T @ g + np.eye(n), modulation=modulation),
        "pointwise_power": Potential.composed_power(np.ones(n), 3.0, modulation=modulation),
        "composed_power": Potential.composed_power(g, q=4.0, scale=0.3, modulation=modulation),
        "custom_action": Potential.custom(lambda x: float(np.sum(np.cosh(x) - 1.0)), np.sinh, n,
                                          hess_action=lambda x, h: np.cosh(x) * h,
                                          modulation=modulation),
        "custom_differences": Potential.custom(lambda x: float(np.sum(np.cosh(x) - 1.0)),
                                               np.sinh, n, modulation=modulation),
    }[kind]
    ts = np.linspace(0.0, 1.0, rows)
    xs = rng.standard_normal((rows, n))
    for t in (ts, 0.4):
        stacked = pot.hess_matrix(t, xs)
        per_row = np.array([pot.hess_matrix(tk, x) for tk, x in zip(np.broadcast_to(t, rows), xs)])
        assert stacked.shape == per_row.shape == ((rows, n) if diagonal else (rows, n, n))
        assert np.max(np.abs(stacked - per_row)) <= 1e-13 * np.max(np.abs(per_row))


# -- diagonal Hessians and the diagonal quadratic ---------------------------------

def test_hess_diagonal_reads_the_hessian_bitwise(rng):
    # the kinds diagonal by construction answer 1-D, and dense() of that
    # answer is the dense Hessian of the same potential with a 2-D matrix
    n = 9
    d = rng.uniform(0.5, 4.0, n)
    modulation = (lambda t: 1.0 + t)
    kinds = [
        Potential.quadratic(d),
        Potential.quadratic(d, modulation=modulation),
        Potential.composed_power(d ** (1 / 3.5), q=3.5),
        Potential.composed_power(np.ones(n), q=4.0, modulation=modulation),
    ]
    for pot in kinds:
        for t in (0.0, 0.3):
            x = rng.standard_normal(n)
            assert pot.hess_matrix(t, x).shape == (n,)
    for matrix in (d, np.diag(d)):
        pot = Potential.quadratic(matrix, modulation=modulation)
        x = rng.standard_normal(n)
        assert np.array_equal(dense(pot.hess_matrix(0.3, x)), 1.3 * np.diag(d))


def test_pointwise_power_hessian_is_the_closed_form(rng):
    n, q = 7, 3.5
    w = rng.uniform(0.5, 2.0, n)
    pot = Potential.composed_power(w ** (1 / q), q=q, modulation=lambda t: 2.0 + t)
    x = rng.uniform(0.5, 2.0, n) * rng.choice([-1.0, 1.0], n)
    want = 2.5 * w * (q - 1.0) * np.abs(x) ** (q - 2.0)
    hess = pot.hess_matrix(0.5, x)
    assert hess.shape == (n,)
    assert np.allclose(hess, want, rtol=1e-12, atol=0.0)
    assert np.allclose(dense(hess), np.diag(want), rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("build", [lambda: build_heat(8), lambda: build_heat(32),
                                   lambda: build_parabolic_nondivergence(8)])
def test_quadratic_power_hessian_is_its_constant_hessian(build, rng):
    # a q = 2 power's D^2Psi is the declared constant at every x: no
    # regularization is added where (q - 1)|Gx|^(q - 2) is 1 already
    pot = build().potential
    assert pot.kind == "composed_power" and pot.params["q"] == 2.0
    for x in (np.zeros(pot.dim), rng.standard_normal(pot.dim)):
        assert np.array_equal(pot.hess_matrix(0.3, x), pot.constant_hessian)


@pytest.mark.parametrize("build", [
    lambda: Potential.quadratic(np.array([[2.0, 0.5], [0.5, 1.0]])),
    lambda: Potential.quadratic(np.array([1.0, 3.0])),
    lambda: build_heat(8).potential,
], ids=["quadratic", "diagonal", "heat"])
def test_scaled_potential_keeps_its_constant_hessian(build, rng):
    # factor * Psi declares factor times Psi's constant D^2Psi, the matrix its
    # hess_matrix answers at every x; a time modulation still declares none
    pot = build()
    scaled = pot.scaled(0.25)
    assert np.array_equal(scaled.constant_hessian, 0.25 * pot.constant_hessian)
    for x in (np.zeros(pot.dim), rng.standard_normal(pot.dim)):
        assert np.allclose(scaled.hess_matrix(0.3, x), scaled.constant_hessian,
                           rtol=1e-15, atol=0.0)
    modulated = Potential.quadratic(np.ones(2), modulation=lambda t: 1.0 + t)
    assert modulated.constant_hessian is None and modulated.scaled(0.25).constant_hessian is None


def test_power_hessian_is_regularized_away_from_q_2():
    # at x = 0 the q = 4 Hessian is HESS_REGULARIZATION * scale G^T G, so
    # still positive definite
    g = np.eye(3) - np.eye(3, k=1)
    pot = Potential.composed_power(g, q=4.0, scale=2.0)
    want = HESS_REGULARIZATION * ((2.0 * g.T) @ g)
    assert np.array_equal(pot.hess_matrix(0.0, np.zeros(3)), want)


def test_hess_diagonal_is_none_when_coupled(rng):
    n = 6
    a = rng.standard_normal((n, n))
    g = np.eye(n) - np.eye(n, k=1)
    for pot in (Potential.quadratic(a @ a.T + n * np.eye(n)),
                Potential.composed_power(g, q=3.0)):
        assert pot.hess_matrix(0.0, rng.standard_normal(n)).shape == (n, n)


def test_hess_diagonal_is_none_unless_declared(rng):
    # only a 1-D quadratic and the pointwise power declare a diagonal Hessian;
    # a dense matrix or a custom Hessian that happens to be diagonal does not
    n = 6
    d = rng.uniform(0.5, 4.0, n)
    for pot in (Potential.quadratic(np.diag(d)),
                Potential.custom(psi=lambda x: 0.5 * x @ (d * x), grad=lambda x: d * x,
                                 dim=n, hess_action=lambda x, h: d * h)):
        x = rng.standard_normal(n)
        hess = pot.hess_matrix(0.0, x)
        assert hess.ndim == 2
        assert np.allclose(hess, np.diag(d), rtol=1e-6, atol=1e-6)


def test_diagonal_quadratic_matches_the_dense_formulas_bitwise(rng):
    from scipy.linalg import cho_solve
    for n, rows in ((1, 1), (7, 3), (40, 5), (960, 4), (960, 101)):
        d = rng.uniform(1e-3, 1e3, n)
        a = np.diag(d)
        pot = Potential.quadratic(d, modulation=lambda t: 1.0 + t)
        xs = rng.standard_normal((rows, n))
        assert np.array_equal(pot.grad(0.0, xs), xs @ a.T)
        assert np.array_equal(pot.grad(0.0, xs[0]), xs[0] @ a.T)
        assert np.array_equal(pot.psi(0.0, xs), 0.5 * np.einsum("ij,ij->i", xs @ a, xs))
        assert np.array_equal(dense(pot.hess_matrix(0.5, xs[0])), 1.5 * a)
        # the conjugate is the Cholesky solve with the factor diag(sqrt(d)), bit for bit
        ts = np.linspace(0.0, 1.0, rows)
        want = cho_solve((np.diag(np.sqrt(d)), False), xs.T).T / (1.0 + ts)[:, None]
        assert np.array_equal(pot.conjugate_argmax(ts, xs), want)
        assert np.array_equal(pot.conjugate_argmax(ts[0], xs[0]), want[0])


@pytest.mark.parametrize("entries", [[1.0, 0.0, 2.0], [1.0, -3.0, 2.0], [0.0, 0.0, 0.0],
                                     [1.0, np.nan, 2.0], [1.0, np.inf, 2.0]])
def test_diagonal_quadratic_must_be_positive_definite(entries):
    with pytest.raises(np.linalg.LinAlgError):
        Potential.quadratic(np.array(entries))
