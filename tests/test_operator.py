import numpy as np
import pytest

from conftest import (
    pointwise_operator,
    reference_monotonicity,
    roll_product_operator,
    rotation_problem,
    scalar_problem,
)
from evomin import (
    EvolutionTriple,
    OperatorLambda,
    Potential,
    ProblemSpec,
    check_coercivity,
    check_monotonicity,
)
from evomin.applications import PointwiseMap, build_anticoercive_fixture, build_heat
from evomin.checks import sample_states
from evomin.operator import OperatorEvaluationError, Term, linear_operator, term_operator


def test_eval_examples():
    op = linear_operator(np.diag([1.0, 2.0]))
    assert np.allclose(op(0.0, np.array([1.0, 1.0])), [1.0, 2.0])
    conv = pointwise_operator(1, lambda v: v * v, lambda v: 2 * v)
    assert conv(0.0, np.array([3.0])) == pytest.approx([9.0])
    semi = pointwise_operator(1, lambda v: v**3, lambda v: 3 * v**2)
    assert semi(0.0, np.zeros(1)) == pytest.approx([0.0])


def test_dlambda_examples():
    op = linear_operator(np.diag([1.0, 2.0]))
    h = np.array([0.5, -1.0])
    assert np.allclose(op.dlambda(0.0, np.ones(2), h), np.diag([1.0, 2.0]) @ h)
    conv = pointwise_operator(1, lambda v: v * v, lambda v: 2 * v)
    assert conv.dlambda(0.0, np.array([3.0]), np.array([1.0])) == pytest.approx([6.0])
    assert conv.dlambda(0.0, np.array([3.0]), np.zeros(1)) == pytest.approx([0.0])


def test_nonfinite_output_raises():
    op = pointwise_operator(1, lambda v: np.full_like(v, np.inf), np.ones_like)
    with pytest.raises(OperatorEvaluationError):
        op(0.0, np.ones(1))


def test_callable_shape_mismatch_is_an_error():
    op = linear_operator(np.eye(2))
    op.dderiv_adjoint = lambda t, x, v: v[..., :1]
    with pytest.raises(ValueError, match="shape"):
        op.dlambda_adjoint(0.0, np.ones(2), np.ones(2))
    with pytest.raises(ValueError, match="shape"):
        op.dlambda_adjoint(np.zeros(3), np.ones((3, 2)), np.ones((3, 2)))


def test_dderiv_linear_in_direction(rng):
    conv = roll_product_operator(3)
    for _ in range(50):
        x = rng.standard_normal(3)
        h1 = rng.standard_normal(3)
        h2 = rng.standard_normal(3)
        a = rng.standard_normal()
        lhs = conv.dlambda(0.0, x, a * h1 + h2)
        rhs = a * conv.dlambda(0.0, x, h1) + conv.dlambda(0.0, x, h2)
        assert np.max(np.abs(lhs - rhs)) < 1e-10 * max(1.0, np.max(np.abs(rhs)))


def test_dderiv_matches_finite_differences(rng):
    ops = [
        linear_operator(rng.standard_normal((4, 4))),
        pointwise_operator(4, lambda v: v**3, lambda v: 3 * v**2),
        roll_product_operator(4),
    ]
    s = 1e-6
    for op in ops:
        for _ in range(1000):
            x = rng.standard_normal(4)
            h = rng.standard_normal(4)
            fd = (op(0.0, x + s * h) - op(0.0, x - s * h)) / (2 * s)
            dd = op.dlambda(0.0, x, h)
            assert np.max(np.abs(fd - dd)) < 1e-5 * max(1.0, np.max(np.abs(dd)))


def _random_terms(rng, dim):
    """A term operator with every shape of term, and its value in column form."""
    b1, a1 = rng.standard_normal((2, 7, dim))
    b3, a4, b5, a5 = rng.standard_normal((4, dim, dim))
    linear = rng.standard_normal((dim, dim))
    sin = PointwiseMap(np.sin, np.cos)
    cubic = PointwiseMap.saturated_cubic(0.7)
    atan = PointwiseMap.arctan(1.3)
    tanh = PointwiseMap(np.tanh, lambda v: 1.0 / np.cosh(v) ** 2)
    # k = 2: f(s, v) = s * tanh(v), of (B5 x, x)
    prod = Term(lambda s, v: s * np.tanh(v),
                (lambda s, v: np.tanh(v), lambda s, v: s / np.cosh(v) ** 2),
                inner=(b5, None), outer=a5)
    terms = [sin.term(b1, a1), (-cubic).term(), atan.term(inner=b3), tanh.term(outer=a4), prod]
    op = term_operator(dim, terms, linear=linear, scale=0.3)

    def column_form(x):
        return 0.3 * (linear @ x + a1.T @ np.sin(b1 @ x) - cubic.value(x)
                      + atan.value(b3 @ x) + a4.T @ np.tanh(x)
                      + a5.T @ ((b5 @ x) * np.tanh(x)))

    return op, column_form


def test_term_operator_derivatives_follow_from_the_description(rng):
    dim = 5
    op, column_form = _random_terms(rng, dim)
    s = 1e-6
    for _ in range(20):
        x, h, v = rng.standard_normal((3, dim))
        value = op(0.3, x)
        assert np.max(np.abs(value - column_form(x))) <= 1e-12 * np.max(np.abs(value))
        jac = op.jacobian_matrix(0.3, x)
        dd = op.dlambda(0.3, x, h)
        scale = max(np.max(np.abs(dd)), 1.0)
        assert np.max(np.abs(dd - jac @ h)) <= 1e-12 * scale
        adj = op.dlambda_adjoint(0.3, x, v)
        assert np.max(np.abs(adj - jac.T @ v)) <= 1e-12 * max(np.max(np.abs(adj)), 1.0)
        fd = (op(0.3, x + s * h) - op(0.3, x - s * h)) / (2 * s)
        assert np.max(np.abs(fd - dd)) <= 1e-7 * scale


def test_term_operator_stacks_match_rows(rng):
    dim, rows = 5, 6
    op, _ = _random_terms(rng, dim)
    ts = np.linspace(0.0, 1.0, rows)
    xs, hs, vs = rng.standard_normal((3, rows, dim))
    for got, want in ((op(ts, xs), [op(t, x) for t, x in zip(ts, xs)]),
                      (op.dlambda(ts, xs, hs),
                       [op.dlambda(t, x, h) for t, x, h in zip(ts, xs, hs)]),
                      (op.dlambda_adjoint(ts, xs, vs),
                       [op.dlambda_adjoint(t, x, v) for t, x, v in zip(ts, xs, vs)])):
        want = np.array(want)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_linear_operator_is_the_linear_part_alone(rng):
    mat = rng.standard_normal((4, 4))
    x, h, v = rng.standard_normal((3, 4))
    op = linear_operator(mat)
    assert np.array_equal(op(0.0, x), x @ mat.T)
    assert np.array_equal(op.dlambda(0.0, x, h), h @ mat.T)
    assert np.array_equal(op.dlambda_adjoint(0.0, x, v), v @ mat)
    assert np.array_equal(op.jacobian_matrix(0.0, x), mat)


def test_term_operator_declares_a_linear_lambda_only_without_terms(rng):
    mat = rng.standard_normal((4, 4))
    assert np.array_equal(term_operator(4, linear=mat, scale=0.5).linear, 0.5 * mat)
    # no terms and no linear part: Lambda is declared zero
    assert np.array_equal(term_operator(4).linear, np.zeros((4, 4)))
    assert np.array_equal(build_heat(6).lambda_op.linear, np.zeros((6, 6)))
    assert term_operator(4, [PointwiseMap.arctan(1.0).term()], linear=mat).linear is None
    x = rng.standard_normal(4)
    hand = OperatorLambda(dim=4, eval=lambda t, x: x @ mat.T, dderiv=lambda t, x, h: h @ mat.T,
                          dderiv_adjoint=lambda t, x, v: v @ mat,
                          jacobian=lambda t, x: np.broadcast_to(mat, np.shape(x) + (4,)))
    assert hand.linear is None and np.array_equal(hand(0.0, x), linear_operator(mat)(0.0, x))


def test_skew_tag_property(rng):
    rot = rotation_problem().lambda_op
    for _ in range(100):
        h = rng.standard_normal(2)
        assert abs(h @ rot(0.0, h)) < 1e-10 * np.linalg.norm(h) ** 2


def test_sample_states_radii(rng):
    xs = sample_states(rng, 5, 4000)
    r = np.linalg.norm(xs, axis=1)
    assert r.min() >= 1e-2 * 0.999 and r.max() <= 1e2 * 1.001
    # log-uniform: median near 1
    assert 0.5 < np.median(r) < 2.0


def _with_operator(problem, op):
    from evomin import ProblemSpec
    return ProblemSpec(triple=problem.triple, potential=problem.potential,
                       lambda_op=op, lambda_flag=problem.lambda_flag,
                       horizon=problem.horizon, initial=problem.initial)


def test_monotonicity_cubic_certificate_zero(rng):
    # Psi quadratic, Lambda(u) = u^3: everything is monotone, certificate 0
    cubic = pointwise_operator(1, lambda v: v**3, lambda v: 3 * v**2)
    p = _with_operator(scalar_problem(), cubic)
    rep = check_monotonicity(p, 300, rng=rng)
    assert rep.passed
    assert rep.fitted_constants["ghat"] == 0.0


def test_monotonicity_negative_identity_fitted_constant(rng):
    p = _with_operator(scalar_problem(lam=0), linear_operator(-np.eye(1)))
    rep = check_monotonicity(p, 300, rng=rng)
    assert rep.passed
    # lhs = -h^2 = -1 * |T h|^2, certified by ghat*(|x|^q + 1) with ghat <= 1
    assert 0.0 < rep.fitted_constants["ghat"] <= 1.0


def test_monotonicity_skew_rotation(rng):
    p = rotation_problem()
    rep = check_monotonicity(p, 300, rng=rng)
    assert rep.passed
    # the skew part pairs to zero and the quadratic potential (lambda = 1) adds
    # +|h|^2/2 >= 0, so no sample needs a certificate up to round-off
    assert rep.fitted_constants["ghat"] < 1e-12


def test_coercivity_heat_fits_poincare_scale(rng):
    p = build_heat(12)
    rep = check_coercivity(p, 500, rng=rng)
    assert rep.passed
    # Psi = (1/q) |x|_X^q exactly, so 1/Ctilde fits 1/q = 0.5
    assert rep.fitted_constants["alpha"] == pytest.approx(0.5, rel=1e-6)


def test_coercivity_skew_power(rng):
    p = rotation_problem()
    rep = check_coercivity(p, 400, rng=rng)
    assert rep.passed
    assert np.isfinite(rep.fitted_constants["ctilde"])


def test_coercivity_anticoercive_fails(rng):
    p = build_anticoercive_fixture()
    rep = check_coercivity(p, 500, rng=rng)
    assert not rep.passed
    assert len(rep.violations) > 0


def test_zero_samples_pass(rng):
    p = build_heat(8)
    assert check_monotonicity(p, 0, rng=rng).passed
    assert check_coercivity(p, 0, rng=rng).passed


def _linear_problem(matrix):
    """lambda_flag 0, identity geometry, Lambda = matrix."""
    dim = len(matrix)
    return ProblemSpec(triple=EvolutionTriple(dim=dim, mass=np.eye(dim)),
                       potential=Potential.quadratic(np.eye(dim)),
                       lambda_op=linear_operator(matrix), lambda_flag=0,
                       horizon=(0.0, 1.0), initial=np.zeros(dim))


def test_monotonicity_antimonotone_fixture_fails_on_every_sample(rng):
    # Lambda = -c I with c = 1e7 above big = 1e6: lhs = -c |h|^2 < -big |T h|_H^2
    p = _linear_problem(-1e7 * np.eye(3))
    rep = check_monotonicity(p, 250, rng=rng)
    assert not rep.passed
    assert len(rep.violations) == 250


def test_monotonicity_mixed_fixture_violations_match_per_sample_reference():
    # Lambda = -c e0 e0^T: a sample violates iff c h_0^2 > big |h|^2, i.e. h_0^2 > 0.1 |h|^2
    p = _linear_problem(np.diag([-1e7, 0.0, 0.0]))
    rep = check_monotonicity(p, 400, rng=np.random.default_rng(11))
    bad, constants = reference_monotonicity(p, 400, np.random.default_rng(11))
    assert 0 < len(bad) < 400
    assert rep.violations.tolist() == bad
    assert rep.fitted_constants["ghat"] == pytest.approx(constants["ghat"], rel=1e-12)
