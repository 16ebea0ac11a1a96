"""Curvature tensors, scalar curvatures, sectional curvature, and the
classification of 2-plane sections."""
from fractions import Fraction as Fr
from random import Random
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import build_geometry

from norden import (
    Connection,
    FamilyParams,
    LieAlgebra,
    LinearlyDependent,
    Tensor,
    VarianceMismatch,
    exact_sum,
    generate_family,
    levi_civita,
    matrix_rank,
    parse_model,
    riemann,
    section,
)
from norden.geometry import curvature_terms
from norden.lie import _jacobi_terms
from test_exact_einsum import huge, small
from test_lie import near_bound, three_product_jacobi
from test_modelfile import _bench_models

lam_values = st.fractions(min_value=-4, max_value=4, max_denominator=5)


def basis_vec(d, i):
    return [1 if k == i else 0 for k in range(d)]


def test_frozen_riemann_components(fam23):
    """All nonzero components of R come from R(x_i, xi, xi, x_j)
    = -lambda_i lambda_j through the curvature symmetries."""
    lam = {1: Fr(2), 2: Fr(3)}
    R = fam23.curv.r04.components
    expected = np.zeros((3, 3, 3, 3), dtype=object)
    for i in (1, 2):
        for j in (1, 2):
            v = -lam[i] * lam[j]
            expected[i, 0, 0, j] = v       # R(x_i, xi, xi, x_j)
            expected[0, i, 0, j] = -v      # antisymmetry in slots 1,2
            expected[i, 0, j, 0] = -v      # antisymmetry in slots 3,4
            expected[0, i, j, 0] = v
    assert np.all(R == expected)


def test_curvature_algebraic_symmetries(fam5, heis):
    for geo in (fam5, heis):
        R = geo.curv.r04.components
        assert np.all(R == -np.einsum("jikl->ijkl", R))
        assert np.all(R == -np.einsum("ijlk->ijkl", R))
        assert np.all(R == np.einsum("klij->ijkl", R))
        bianchi = (
            R + np.einsum("jkil->ijkl", R) + np.einsum("kijl->ijkl", R)
        )
        assert np.all(bianchi == 0)


def test_r13_lowering_consistency(fam23):
    r13 = fam23.curv.r13.components
    lowered = np.einsum(
        "lijk,lu->ijku", r13, fam23.model.g.components, optimize=True
    )
    assert np.all(lowered == fam23.curv.r04.components)


def test_frozen_ricci_and_scalars(fam23):
    ricci = fam23.curv.ricci.components
    expected = np.array(
        [[5, 0, 0], [0, -4, -6], [0, -6, -9]], dtype=object
    )
    assert np.all(ricci == expected)
    assert fam23.curv.tau == 10
    assert fam23.curv.tau_star == -12
    assert fam23.curv.tau_2star == 0


def test_heisenberg_scalars(heis):
    assert (heis.curv.tau, heis.curv.tau_star, heis.curv.tau_2star) == (
        Fr(1, 2), 0, Fr(3, 2)
    )


def test_flat_member_curvature_vanishes(fam_zero):
    assert fam_zero.curv.r04.is_zero()
    assert fam_zero.curv.ricci.is_zero()
    assert fam_zero.curv.tau == 0


@settings(max_examples=8, deadline=None)
@given(st.lists(lam_values, min_size=2, max_size=2))
def test_family_scalar_curvature_formulas(lam):
    """tau = -2 sum(lambda_k^2 - lambda_{k+n}^2),
    tau_star = -2 sum(lambda_k lambda_{k+n}), tau_2star = 0."""
    m = generate_family(FamilyParams(1, tuple(lam)))
    curv = riemann(m, levi_civita(m))
    assert curv.tau == -2 * (lam[0] ** 2 - lam[1] ** 2)
    assert curv.tau_star == -2 * lam[0] * lam[1]
    assert curv.tau_2star == 0


@settings(max_examples=8, deadline=None)
@given(st.lists(lam_values, min_size=2, max_size=2))
def test_family_curvature_phi_twist_vanishes(lam):
    """R(., ., phi ., phi .) = 0 identically on the family."""
    m = generate_family(FamilyParams(1, tuple(lam)))
    curv = riemann(m, levi_civita(m))
    phi = m.phi.components
    twisted = np.einsum(
        "ijmn,mk,nu->ijku", curv.r04.components, phi, phi, optimize=True
    )
    assert np.all(twisted == 0)


def test_frozen_sectional_curvatures(fam23):
    m, conn = fam23.model, fam23.conn
    assert section(m, conn, [1, 0, 0], [0, 1, 0]).sectional_curvature == -4
    assert section(m, conn, [1, 0, 0], [0, 0, 1]).sectional_curvature == 9
    # the phi-invariant plane (x1, x2) is flat
    assert section(m, conn, [0, 1, 0], [0, 0, 1]).sectional_curvature == 0


def test_sectional_curvature_is_basis_independent(fam23):
    """Replacing (x, y) by (x + y, 2y) leaves the plane, hence k, fixed."""
    m, conn = fam23.model, fam23.conn
    k1 = section(m, conn, [1, 0, 0], [0, 1, 0]).sectional_curvature
    k2 = section(m, conn, [1, 1, 0], [0, 2, 0]).sectional_curvature
    assert k1 == k2


def test_sectional_curvature_errors(fam23):
    m, conn = fam23.model, fam23.conn
    with pytest.raises(LinearlyDependent):
        section(m, conn, [1, 0, 0], [2, 0, 0])
    # x1 + x2 is a null direction orthogonal to xi: the plane it spans
    # with xi carries a degenerate restricted metric.
    assert section(m, conn, [1, 0, 0], [0, 1, 1]).sectional_curvature is None


def test_classify_section_kinds(fam23, fam5):
    m3 = fam23.model
    s = section(m3, fam23.conn, [1, 0, 0], [0, 1, 0])
    assert s.kind == "xi" and s.contains_xi
    s = section(m3, fam23.conn, [0, 1, 0], [0, 0, 1])
    assert s.kind == "phi_holomorphic" and s.phi_invariant and not s.contains_xi

    m5 = fam5.model
    d = 5
    s = section(m5, fam5.conn, basis_vec(d, 1), basis_vec(d, 2))
    assert s.kind == "totally_real" and s.totally_real and not s.phi_invariant
    s = section(m5, fam5.conn, basis_vec(d, 1), [0, 0, 1, 1, 0])
    assert s.kind == "generic"
    assert not (s.contains_xi or s.phi_invariant or s.totally_real)


def test_classify_section_xi_plane_precedence(fam23):
    """A plane through xi is labeled 'xi' even though it is also
    totally real."""
    s = section(fam23.model, fam23.conn, [1, 0, 0], [0, 1, 0])
    assert s.contains_xi and s.totally_real and s.kind == "xi"


def test_classify_section_rejects_dependent_vectors(fam23):
    with pytest.raises(LinearlyDependent):
        section(fam23.model, fam23.conn, [1, 0, 0], [-1, 0, 0])


def test_classify_section_rejects_a_covector(fam23):
    """eta is a 1-form: passing it where a vector belongs is an error,
    not a silent relabelling of its slot."""
    with pytest.raises(VarianceMismatch, match="must be a vector"):
        section(fam23.model, fam23.conn, fam23.model.eta, Tensor([0, 1, 0], "u"))


@pytest.fixture(scope="module")
def dense():
    from test_golden import _dense_model

    return build_geometry(_dense_model())


def _pi1(g, x, y) -> Fr:
    """``g(x, x) g(y, y) - g(x, y)^2`` in explicit Fraction sums."""
    def gg(u, v):
        return sum(u[i] * g[i, j] * v[j] for i in range(len(u)) for j in range(len(v)))
    return gg(x, x) * gg(y, y) - gg(x, y) ** 2


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_sectional_curvature_is_r04_on_the_plane(fam5, heis, dense, data):
    """On random rational planes, the curvature read from the connection
    is ``R(x, y, y, x) / pi1`` with ``R`` the tensor of ``Geometry.curv``,
    contracted by numpy on Fractions; a plane of rank 1 is refused."""
    geo = data.draw(st.sampled_from([fam5, heis, dense]))
    entry = st.fractions(-3, 3, max_denominator=4)
    x, y = (data.draw(st.lists(entry, min_size=geo.model.dim, max_size=geo.model.dim))
            for _ in range(2))
    if matrix_rank([x, y]) < 2:
        with pytest.raises(LinearlyDependent):
            section(geo.model, geo.conn, x, y)
        return
    k = section(geo.model, geo.conn, x, y).sectional_curvature
    pi1 = _pi1(geo.model.g.components, x, y)
    if pi1 == 0:
        assert k is None
    else:
        r = np.einsum("ijku,i,j,k,u->", geo.curv.r04.components, *map(np.array, (x, y, y, x)))
        assert k == r / pi1


def test_a_degenerate_plane_has_no_sectional_curvature(fam5, heis, dense):
    """Planes through a null vector g-orthogonal to the other spanning
    vector; the dense one is xi and the image of ``x_1 + x_3`` of the
    n = 2 member under the golden basis change, scaled by 9."""
    for geo, x, y in ((fam5, [1, 0, 0, 0, 0], [0, 1, 0, 1, 0]),
                      (heis, [1, 0, 0], [0, 1, 1]),
                      (dense, [1, 0, 0, 0, 0], [-20, 29, -6, 6, 0])):
        assert _pi1(geo.model.g.components, x, y) == 0
        assert section(geo.model, geo.conn, x, y).sectional_curvature is None


# --- one Gamma . Gamma product against the three-product form ---------------

def three_product_r13(gamma: Tensor, c: Tensor, tail: str = "->lijk", *operands):
    """``r13`` with its own product per term, the form before the product
    was shared: the reference for :func:`curvature_terms`."""
    return exact_sum([(1, "mjk,lim" + tail, gamma, gamma, *operands),
                      (-1, "mik,ljm" + tail, gamma, gamma, *operands),
                      (-1, "mij,lmk" + tail, c, gamma, *operands)])


@st.composite
def connection_data(draw):
    """Random ``Gamma`` and ``c`` of one dimension, with neither a
    Lie algebra nor a metric behind them: small rationals, numerators
    whose products straddle the int64 bound, and Python-int numerators
    over prime denominators; plus four random vectors."""
    dim = draw(st.integers(1, 4))
    entries = st.one_of(small, near_bound, huge)
    gamma, c = (Tensor(np.array(draw(st.lists(entries, min_size=dim ** 3,
                                              max_size=dim ** 3)),
                                dtype=object).reshape((dim,) * 3), "udd")
                for _ in range(2))
    vectors = [Tensor(draw(st.lists(small, min_size=dim, max_size=dim)), variance)
               for variance in "duuu"]
    return Connection(gamma), LieAlgebra(dim, c), vectors


@settings(max_examples=100, deadline=None)
@given(connection_data())
def test_r13_from_one_product_equals_the_three_product_form(case):
    """``curvature_terms`` shares one ``Gamma . Gamma`` product between two
    terms: exactly the three-product tensor, and, with a contracted tail
    such as :func:`section`'s, exactly the three-product scalar."""
    conn, algebra, vectors = case
    model = SimpleNamespace(algebra=algebra)    # the one field curvature_terms reads
    assert exact_sum(curvature_terms(conn, model)) == three_product_r13(conn.gamma, algebra.c)
    tail = ",l,i,j,k->"
    assert (exact_sum(curvature_terms(conn, model, tail, *vectors))
            == three_product_r13(conn.gamma, algebra.c, tail, *vectors))


@settings(max_examples=12, deadline=None)
@given(st.integers(1, 3), st.integers(0, 2**32))
def test_on_dense_models_the_shared_products_equal_the_three_product_forms(n, seed):
    """Family members moved by seeded rational basis changes, built
    without the library: ``Geometry.curv.r13`` and the Jacobi defect
    (zero here) equal their three-product forms."""
    models = _bench_models()
    rng = Random(seed)
    lam = models.random_lambda(rng, n)
    structure = models.change_basis(models.family_structure(lam),
                                    *models.random_basis_change(rng, 2 * n + 1))
    geo = build_geometry(parse_model(models.to_text(structure, "dense")))
    c = geo.model.algebra.c
    assert geo.curv.r13 == three_product_r13(geo.conn.gamma, c)
    assert exact_sum(_jacobi_terms(c)) == three_product_jacobi(c)
