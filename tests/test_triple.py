import numpy as np
import pytest

from evomin import EvolutionTriple, Potential, XNorm
from evomin.triple import dense


def test_h_inner_examples():
    tri = EvolutionTriple(dim=2, mass=np.eye(2))
    assert tri.h_inner(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0
    tri = EvolutionTriple(dim=2, mass=np.diag([2.0, 3.0]))
    assert tri.h_inner(np.array([1.0, 1.0]), np.array([1.0, 1.0])) == 5.0
    tri = EvolutionTriple(dim=1, mass=np.eye(1))
    assert tri.h_inner(np.array([3.0]), np.array([3.0])) == 9.0


def test_apply_inclusions_examples():
    tri = EvolutionTriple(dim=2, mass=np.eye(2))
    tx, ix = tri.apply_inclusions(np.array([2.0, 1.0]))
    assert np.allclose(ix, [2.0, 1.0])
    tri = EvolutionTriple(dim=2, mass=np.diag([2.0, 1.0]))
    _, ix = tri.apply_inclusions(np.array([1.0, 1.0]))
    assert np.allclose(ix, [2.0, 1.0])
    tx, ix = tri.apply_inclusions(np.zeros(2))
    assert not tx.any() and not ix.any()


def test_x_norm_euclidean_and_power():
    tri = EvolutionTriple(dim=2, mass=np.eye(2))
    assert tri.x_norm(np.array([3.0, 4.0])) == pytest.approx(5.0)
    # states whose squared norm has a C pow(s, 0.5) one bit off sqrt(s): one
    # state reads as its row of a stack, and no G gives np.linalg.norm's bits
    xs = np.array([[-0.32, 0.608], [-0.317, -0.638], [1.17, 1.181], [-1.156, 0.385]])
    assert np.array_equal([tri.x_norm(x) for x in xs], tri.x_norm(xs))
    assert np.array_equal(tri.x_norm(xs), np.linalg.norm(xs, axis=-1))
    tri = EvolutionTriple(dim=2, mass=np.eye(2), xnorm=XNorm(np.eye(2), q=4.0))
    assert tri.x_norm(np.zeros(2)) == 0.0


def test_x_norm_exponent_must_be_at_least_two():
    assert XNorm().q == 2.0 and XNorm().matrix is None
    for q in (1.0, 1.999, np.nan, -np.inf):
        with pytest.raises(ValueError, match="q >= 2"):
            XNorm(q=q)
    # the identity G takes any exponent q >= 2
    tri = EvolutionTriple(dim=2, mass=np.eye(2), xnorm=XNorm(q=3.0))
    assert tri.x_norm(np.array([1.0, 2.0])) == pytest.approx(9.0 ** (1 / 3.0), rel=1e-15)


def test_x_norm_image_must_match_dim():
    # a 1-D G is the diagonal of a dim x dim matrix; a 2-D G has dim columns
    for g in (np.array([2.0]), np.ones(4), np.ones((3, 2)), np.ones((3, 4)), np.array(2.0),
              np.ones((1, 3, 3))):
        with pytest.raises(ValueError, match="X-norm image"):
            EvolutionTriple(dim=3, mass=np.ones(3), xnorm=XNorm(g, q=2.0))
    for g in (np.ones(3), np.ones((1, 3)), np.ones((5, 3))):
        EvolutionTriple(dim=3, mass=np.ones(3), xnorm=XNorm(g, q=2.0))


def test_x_norm_degenerate_image_is_flagged():
    g = np.array([[1.0, -1.0]])
    xnorm = XNorm(g, q=2.0)
    tri = EvolutionTriple(dim=2, mass=np.eye(2), xnorm=xnorm)
    assert tri.x_norm(np.array([2.0, 2.0])) == 0.0


def _dense_mass(rng, n):
    """A dense SPD mass T^T M T, for an SPD M and an injective T."""
    a = rng.standard_normal((n, n))
    t = rng.standard_normal((n, n)) + 3 * np.eye(n)
    m = t.T @ (a @ a.T + n * np.eye(n)) @ t
    return 0.5 * (m + m.T)


def test_mass_validation():
    with pytest.raises(ValueError):
        EvolutionTriple(dim=2, mass=np.array([[1.0, 2.0], [0.0, 1.0]]))  # not symmetric
    with pytest.raises(ValueError):
        EvolutionTriple(dim=2, mass=np.diag([1.0, -1.0]))  # not positive definite


def test_self_adjointness_and_positivity(rng):
    n = 7
    tri = EvolutionTriple(dim=n, mass=_dense_mass(rng, n))
    for _ in range(1000):
        x = rng.standard_normal(n)
        z = rng.standard_normal(n)
        lhs = x @ tri.apply_i(z)
        rhs = z @ tri.apply_i(x)
        scale = max(1.0, abs(lhs))
        assert abs(lhs - rhs) < 1e-12 * scale
    for _ in range(1000):
        x = rng.standard_normal(n)
        x /= np.linalg.norm(x)
        assert x @ tri.apply_i(x) > 0.0


def test_factorization_identity(rng):
    n = 6
    tri = EvolutionTriple(dim=n, mass=_dense_mass(rng, n))
    for _ in range(200):
        x = rng.standard_normal(n)
        tx, ix = tri.apply_inclusions(x)
        # <x, I x> = |T x|_H^2 = |x|_H^2 and I = Tt o T bit for bit
        assert x @ ix == pytest.approx(tri.h_inner(tx, tx), rel=1e-12)
        assert np.array_equal(ix, tri.apply_t_adjoint(tri.apply_t(x)))


def test_inclusion_is_the_mass_bitwise(rng):
    # I is the mass: a dense mass as given, a 1-D one as the diagonal matrix
    # of its entries, applied with the bits of the dense product
    n = 12
    a = rng.standard_normal((n, n))
    for mass in (a @ a.T + n * np.eye(n), rng.uniform(1.0, 50.0, n), np.full(n, 0.1)):
        tri = EvolutionTriple(dim=n, mass=mass)
        assert np.array_equal(tri.mass, mass) and tri.mass.ndim == mass.ndim
        if mass.ndim == 1:
            assert np.array_equal(tri.inclusion_matrix, np.diag(mass))
        else:
            assert np.array_equal(tri.inclusion_matrix, mass)
        for _ in range(20):
            x = rng.standard_normal(n)
            assert np.array_equal(tri.inclusion_matrix @ x, tri.apply_i(x))
            xs = rng.standard_normal((5, n))
            assert np.array_equal(xs @ tri.inclusion_matrix.T, tri.apply_i(xs))
        w = rng.standard_normal(n)
        u = tri.apply_t(w)
        u[0] += 1.0
        assert w[0] != u[0]


def test_power_norm_rejects_a_nan_exponent():
    with pytest.raises(ValueError, match="q >= 2"):
        XNorm(np.ones(2), q=np.nan)


@pytest.mark.parametrize("entries", [[2.0, 0.0, 1.0], [2.0, -1.0, 1.0], [1.0, 1e-13, 1.0],
                                     [np.nan, 1.0, 1.0], [0.0, 0.0, 0.0]])
def test_diagonal_mass_must_be_positive_definite(entries):
    with pytest.raises(ValueError, match="positive definite"):
        EvolutionTriple(dim=3, mass=np.array(entries))


def test_diagonal_and_dense_mass_share_the_definiteness_rule():
    # the diagonal shortcut and eigvalsh apply one tolerance (1e-12 of the largest)
    for low, ok in ((2e-12, True), (5e-13, False)):
        diag = np.array([1.0, low])
        rot = np.array([[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]])
        for mass in (diag, rot @ np.diag(diag) @ rot.T):
            if ok:
                EvolutionTriple(dim=2, mass=mass)
            else:
                with pytest.raises(ValueError, match="positive definite"):
                    EvolutionTriple(dim=2, mass=mass)


def test_dense_nonsymmetric_mass_raises():
    with pytest.raises(ValueError, match="symmetric"):
        EvolutionTriple(dim=2, mass=np.array([[2.0, 0.5], [0.0, 2.0]]))


def test_apply_i_with_dense_mass_is_the_dense_product_bitwise(rng):
    n = 10
    tri = EvolutionTriple(dim=n, mass=_dense_mass(rng, n))
    assert tri.mass.ndim == 2
    x = rng.standard_normal(n)
    xs = rng.standard_normal((7, n))
    assert np.array_equal(tri.apply_i(x), tri.inclusion_matrix @ x)
    assert np.array_equal(tri.apply_i(xs), xs @ tri.inclusion_matrix.T)
    for bad in (np.ones(n + 1), np.ones((2, 3, n)), np.float64(1.0)):
        with pytest.raises(ValueError):
            tri.apply_i(bad)


def test_single_state_reads_reject_a_stack(rng):
    # h_inner, apply_t and apply_t_adjoint take one state; apply_i, x_norm
    # and t_norm_sq take one state or a stack, through the same check
    n = 4
    tri = EvolutionTriple(dim=n, mass=np.ones(n))
    xs = rng.standard_normal((3, n))
    for read in (lambda v: tri.h_inner(v, v), tri.apply_t, tri.apply_t_adjoint):
        read(xs[0])
        for bad in (xs, xs[:, :2], np.ones(n + 1)):
            with pytest.raises(ValueError, match="one vector"):
                read(bad)
    for read in (tri.apply_i, tri.x_norm, tri.t_norm_sq):
        assert np.array_equal(read(xs)[0], read(xs[0]))
        with pytest.raises(ValueError, match="vector or rows"):
            read(np.ones((2, 3, n)))


def _diagonals(name, rng):
    """The (mass, X-norm G, quadratic) diagonals of a case, each a vector."""
    if name == "navier_stokes_k8":
        from evomin.applications import StreamFunctionBasis
        basis = StreamFunctionBasis(8)
        return basis.mass_diag, np.sqrt(basis.stiff_diag), 0.1 * basis.stiff_diag
    if name == "uniform":
        return np.full(9, 0.1), np.full(9, 0.1 ** 0.5), np.full(9, 0.1)
    if name == "scalar":
        return np.ones(1), np.ones(1), np.ones(1)
    return rng.uniform(1e-3, 1e3, 11), rng.uniform(0.1, 10.0, 11), rng.uniform(1e-3, 1e3, 11)


@pytest.mark.parametrize("name", ["navier_stokes_k8", "uniform", "scalar", "random"])
def test_vector_diagonal_is_the_dense_diagonal_bitwise(rng, name):
    # a 1-D input declares the diagonal matrix np.diag(vector), and an X-norm
    # without G the identity: every evaluation gives the bits of the dense
    # form, on one state and on stacks
    mass, g, quad = _diagonals(name, rng)
    n = len(mass)
    vec_tri = EvolutionTriple(dim=n, mass=mass, xnorm=XNorm(g, q=3.0))
    mat_tri = EvolutionTriple(dim=n, mass=np.diag(mass), xnorm=XNorm(np.diag(g), q=3.0))
    id_tri = EvolutionTriple(dim=n, mass=mass, xnorm=XNorm(None))
    eye_tri = EvolutionTriple(dim=n, mass=mass, xnorm=XNorm(np.eye(n)))
    modulation = (lambda t: 1.0 + t)
    pots = [(Potential.quadratic(quad, modulation=modulation),
             Potential.quadratic(np.diag(quad), modulation=modulation))]
    pots += [(Potential.composed_power(g, q, scale=0.7, modulation=modulation),
              Potential.composed_power(np.diag(g), q, scale=0.7, modulation=modulation))
             for q in (2.0, 3.0)]
    assert vec_tri.mass.ndim == 1 and mat_tri.mass.ndim == 2
    assert np.array_equal(vec_tri.inclusion_matrix, mat_tri.inclusion_matrix)
    xs = rng.standard_normal((6, n))
    ts = np.linspace(0.0, 1.0, 6)
    for x, t in ((xs, ts), (xs[0], 0.3)):
        for method in ("apply_i", "t_norm_sq", "x_norm"):
            assert np.array_equal(getattr(vec_tri, method)(x), getattr(mat_tri, method)(x))
        assert np.array_equal(id_tri.x_norm(x), eye_tri.x_norm(x))
        for vec_pot, mat_pot in pots:
            for method in ("psi", "grad"):
                assert np.array_equal(getattr(vec_pot, method)(t, x),
                                      getattr(mat_pot, method)(t, x))
            # the maximizer for y = DPsi(x) is x (a 2-D G at q != 2 takes the
            # Newton solve, whose absolute tolerance is no yardstick here)
            got = vec_pot.conjugate_argmax(t, mat_pot.grad(t, x))
            assert np.max(np.abs(got - x)) <= 1e-12 * np.max(np.abs(x))
    x, w = xs[0], xs[1]
    assert vec_tri.h_inner(x, w) == mat_tri.h_inner(x, w)
    assert np.array_equal(vec_tri.apply_t_adjoint(x), mat_tri.apply_t_adjoint(x))
    for vec_pot, mat_pot in pots:
        vec_hess, mat_hess = vec_pot.hess_matrix(0.3, x), mat_pot.hess_matrix(0.3, x)
        assert vec_hess.ndim == 1 and mat_hess.ndim == 2
        assert np.array_equal(dense(vec_hess), mat_hess)
