import numpy as np
import pytest

from conftest import reference_monotonicity, rotation_problem, scalar_problem
from evomin import (
    EvolutionTriple,
    OperatorLambda,
    Potential,
    ProblemSpec,
    check_coercivity,
    check_monotonicity,
)
from evomin.applications import build_anticoercive_fixture, build_heat
from evomin.operator import OperatorEvaluationError, linear_operator, sample_states
from evomin.triple import pairing


def test_eval_examples():
    op = linear_operator(np.diag([1.0, 2.0]))
    assert np.allclose(op(0.0, np.array([1.0, 1.0])), [1.0, 2.0])
    conv = OperatorLambda(dim=1, eval=lambda t, x: x * x,
                          dderiv=lambda t, x, h: 2 * x * h, kind_tag="convective")
    assert conv(0.0, np.array([3.0])) == pytest.approx([9.0])
    semi = OperatorLambda(dim=1, eval=lambda t, x: x**3,
                          dderiv=lambda t, x, h: 3 * x**2 * h, kind_tag="semilinear")
    assert semi(0.0, np.zeros(1)) == pytest.approx([0.0])


def test_dlambda_examples():
    op = linear_operator(np.diag([1.0, 2.0]))
    h = np.array([0.5, -1.0])
    assert np.allclose(op.dlambda(0.0, np.ones(2), h), np.diag([1.0, 2.0]) @ h)
    conv = OperatorLambda(dim=1, eval=lambda t, x: x * x,
                          dderiv=lambda t, x, h: 2 * x * h, kind_tag="convective")
    assert conv.dlambda(0.0, np.array([3.0]), np.array([1.0])) == pytest.approx([6.0])
    assert conv.dlambda(0.0, np.array([3.0]), np.zeros(1)) == pytest.approx([0.0])


def test_nonfinite_output_raises():
    op = OperatorLambda(dim=1, eval=lambda t, x: np.full(1, np.inf),
                        dderiv=lambda t, x, h: h, kind_tag="custom")
    with pytest.raises(OperatorEvaluationError):
        op(0.0, np.ones(1))


def test_dderiv_linear_in_direction(rng):
    conv = OperatorLambda(dim=3, eval=lambda t, x: x * np.roll(x, 1),
                          dderiv=lambda t, x, h: h * np.roll(x, 1) + x * np.roll(h, 1),
                          kind_tag="convective")
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
        OperatorLambda(dim=4, eval=lambda t, x: x**3,
                       dderiv=lambda t, x, h: 3 * x**2 * h, kind_tag="semilinear"),
        OperatorLambda(dim=4, eval=lambda t, x: x * np.roll(x, 1),
                       dderiv=lambda t, x, h: h * np.roll(x, 1) + x * np.roll(h, 1),
                       kind_tag="convective"),
    ]
    s = 1e-6
    for op in ops:
        for _ in range(1000):
            x = rng.standard_normal(4)
            h = rng.standard_normal(4)
            fd = (op(0.0, x + s * h) - op(0.0, x - s * h)) / (2 * s)
            dd = op.dlambda(0.0, x, h)
            assert np.max(np.abs(fd - dd)) < 1e-5 * max(1.0, np.max(np.abs(dd)))


def test_adjoint_fallback_assembles_columns(rng):
    mat = rng.standard_normal((3, 3))
    op = OperatorLambda(dim=3, eval=lambda t, x: mat @ x,
                        dderiv=lambda t, x, h: mat @ h, kind_tag="linear")
    v = rng.standard_normal(3)
    assert np.allclose(op.dlambda_adjoint(0.0, np.zeros(3), v), mat.T @ v)
    assert np.allclose(op.jacobian_matrix(0.0, np.zeros(3)), mat)


def test_skew_tag_property(rng):
    rot = rotation_problem().lambda_op
    assert rot.kind_tag == "skew"
    for _ in range(100):
        h = rng.standard_normal(2)
        assert abs(pairing(h, rot(0.0, h))) < 1e-10 * np.linalg.norm(h) ** 2


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
    cubic = OperatorLambda(dim=1, eval=lambda t, x: x**3,
                           dderiv=lambda t, x, h: 3 * x**2 * h, kind_tag="semilinear")
    p = _with_operator(scalar_problem(), cubic)
    rep = check_monotonicity(p, 1, 300, rng=rng)
    assert rep.passed
    assert rep.fitted_constants["ghat"] == 0.0


def test_monotonicity_negative_identity_fitted_constant(rng):
    p = _with_operator(scalar_problem(lam=0), linear_operator(-np.eye(1)))
    rep = check_monotonicity(p, 0, 300, rng=rng)
    assert rep.passed
    # lhs = -h^2 = -1 * |T h|^2, certified by ghat*(|x|^q + 1) with ghat <= 1
    assert 0.0 < rep.fitted_constants["ghat"] <= 1.0


def test_monotonicity_skew_rotation(rng):
    p = rotation_problem()
    rep = check_monotonicity(p, 0, 300, rng=rng)
    assert rep.passed
    # lhs vanishes on every sample up to round-off
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
    assert check_monotonicity(p, 1, 0, rng=rng).passed
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
    rep = check_monotonicity(p, 0, 250, rng=rng)
    assert not rep.passed
    assert len(rep.violations) == 250


def test_monotonicity_mixed_fixture_violations_match_per_sample_reference():
    # Lambda = -c e0 e0^T: a sample violates iff c h_0^2 > big |h|^2, i.e. h_0^2 > 0.1 |h|^2
    p = _linear_problem(np.diag([-1e7, 0.0, 0.0]))
    rep = check_monotonicity(p, 0, 400, rng=np.random.default_rng(11))
    ts, bad, constants = reference_monotonicity(p, 0, 400, np.random.default_rng(11))
    assert 0 < len(bad) < 400
    assert [v[0] for v in rep.violations] == list(ts[bad])
    assert rep.fitted_constants["ghat"] == pytest.approx(constants["ghat"], rel=1e-12)
