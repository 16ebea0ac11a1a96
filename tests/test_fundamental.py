"""The fundamental tensor, derived 1-forms, Nijenhuis tensor, square
norms, and the auxiliary tensor S — against frozen exact values and
cross-route comparisons."""
from fractions import Fraction as Fr

import numpy as np
from conftest import NORM_LAYERS, STRUCTURE_LAYERS, layers
from hypothesis import given, settings
from hypothesis import strategies as st

from norden import (
    Geometry,
    Tensor,
    covariant_derivative,
    nabla_eta_from_fundamental,
    psi4,
    square_norms,
    structure_pack,
)
from zoo import family

lam_values = st.fractions(min_value=-4, max_value=4, max_denominator=5)


def test_frozen_fundamental_tensor(fam23):
    got = {idx: v for idx, v in np.ndenumerate(fam23.f.components) if v != 0}
    assert got == {
        (0, 0, 1): -3, (0, 0, 2): 2,   # F(xi, xi, x_i) = omega(x_i)
        (0, 1, 0): -3, (0, 2, 0): 2,   # symmetric in the last two slots
    }


def test_fundamental_symmetry_last_two_slots(fam5, heis):
    for geo in (fam5, heis):
        F = geo.f.components
        assert np.all(F == np.einsum("ijk->ikj", F))


def test_fundamental_phi_twist_symmetry(fam23, fam5, heis):
    """F(x, phi y, phi z) = F(x, y, z) - eta(y) F(x, xi, z)
    - eta(z) F(x, y, xi) on every model, pure class or not."""
    for geo in (fam23, fam5, heis):
        m = geo.model
        F = geo.f.components
        phi, eta, xi = m.phi.components, m.eta.components, m.xi.components
        lhs = np.einsum("imn,mj,nk->ijk", F, phi, phi, optimize=True)
        f_xi_z = np.einsum("imk,m->ik", F, xi)
        f_y_xi = np.einsum("ijm,m->ij", F, xi)
        rhs = (
            F
            - np.einsum("j,ik->ijk", eta, f_xi_z)
            - np.einsum("k,ij->ijk", eta, f_y_xi)
        )
        assert np.all(lhs == rhs)


def test_fundamental_vanishes_on_double_xi(fam23, heis):
    for geo in (fam23, heis):
        F = geo.f.components
        xi = geo.model.xi.components
        assert np.all(np.einsum("imn,m,n->i", F, xi, xi) == 0)


def test_frozen_one_forms(fam23):
    assert list(fam23.theta.components) == [0, -3, 2]
    assert list(fam23.theta_star.components) == [0, 0, 0]
    assert list(fam23.omega.components) == [0, -3, 2]
    assert list(fam23.omega_star.components) == [0, 2, 3]
    assert fam23.omega_vec.variance == "u"
    assert list(fam23.omega_vec.components) == [0, -3, -2]


def test_heisenberg_one_forms_vanish(heis):
    for form in (heis.theta, heis.theta_star, heis.omega):
        assert form.is_zero()


@settings(max_examples=8, deadline=None)
@given(st.lists(lam_values, min_size=2, max_size=2))
def test_family_theta_equals_omega_and_theta_star_zero(lam):
    geo = Geometry(family(lam))
    assert np.all(geo.theta.components == geo.omega.components)
    assert geo.theta_star.is_zero()
    # omega picks out the lambdas: omega(x_i) = -lambda_{i+n}, lambda_i pattern
    assert list(geo.omega.components)[1:] == [-lam[1], lam[0]]


def test_nabla_eta_two_routes(fam23, fam5, heis):
    for geo in (fam23, fam5, heis):
        direct = Geometry(geo.model, conn=geo.conn).nabla_eta
        via_f = nabla_eta_from_fundamental(geo.model, geo.f)
        assert direct == via_f


def test_nijenhuis_routes_agree(fam23, fam5, heis, fam_zero):
    for geo in (fam23, fam5, heis, fam_zero):
        fresh = Geometry(geo.model, conn=geo.conn)
        via_b = fresh.n_from_brackets
        via_d = fresh.n_from_derivatives
        assert via_b == via_d
        assert fresh.n == via_b


def test_nijenhuis_antisymmetry(fam23, heis):
    for geo in (fam23, heis):
        N = geo.n.components
        assert np.all(N == -np.einsum("aij->aji", N))


def test_heisenberg_is_normal(heis):
    assert heis.n.is_zero()


def test_family_not_normal(fam23):
    assert not fam23.n.is_zero()


def test_frozen_square_norms(fam23):
    norms = layers(square_norms(fam23.model, fam23.conn), NORM_LAYERS)
    assert norms == (Fr(10), Fr(-5), Fr(-10))
    # precomputed-pack path returns the identical values
    assert layers(square_norms(fam23.model, fam23.conn, pack=fam23), NORM_LAYERS) == norms


def test_heisenberg_square_norms(heis):
    norms = square_norms(heis.model, heis.conn, pack=heis)
    assert layers(norms, NORM_LAYERS) == (Fr(3), Fr(-1, 2), Fr(0))


def test_frozen_tensor_s(fam23):
    fresh = Geometry(fam23.model, conn=fam23.conn)
    s = fresh.s
    got = {idx: v for idx, v in np.ndenumerate(s.components) if v != 0}
    assert got == {(1, 1): -4, (1, 2): -6, (2, 1): -6, (2, 2): -9}
    assert s == fam23.s
    assert fresh.s_trace == 5


@settings(max_examples=8, deadline=None)
@given(st.lists(lam_values, min_size=2, max_size=2))
def test_family_s_is_minus_lambda_outer(lam):
    """S(x_i, x_j) = -lambda_i lambda_j on the nonzero block."""
    s = Geometry(family(lam)).s.components
    for i in (1, 2):
        for j in (1, 2):
            assert s[i, j] == -lam[i - 1] * lam[j - 1]
    assert all(s[0, j] == 0 for j in range(3))


def test_psi4_has_curvature_symmetries():
    s = Tensor([[2, 1, 0], [1, -1, Fr(1, 2)], [0, Fr(1, 2), 3]], "dd")
    eta = Tensor([1, Fr(1, 3), 0], "d")
    p = psi4(s, eta).components
    assert np.all(p == -np.einsum("yxzu->xyzu", p))     # antisymmetry (1,2)
    assert np.all(p == -np.einsum("xyuz->xyzu", p))     # antisymmetry (3,4)
    assert np.all(p == np.einsum("zuxy->xyzu", p))      # pair symmetry
    bianchi = p + np.einsum("yzxu->xyzu", p) + np.einsum("zxyu->xyzu", p)
    assert np.all(bianchi == 0)                         # first Bianchi


rationals = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=30)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(lambda d: st.tuples(
    st.lists(rationals, min_size=d * d, max_size=d * d),
    st.lists(rationals, min_size=d, max_size=d))))
def test_psi4_matches_its_four_term_formula(case):
    """psi4 against its defining four terms, entry by entry over
    Fractions; ``S`` need not be symmetric for the formula to hold."""
    s_flat, eta_list = case
    d = len(eta_list)
    s = [s_flat[i * d:(i + 1) * d] for i in range(d)]
    got = psi4(Tensor(s, "dd"), Tensor(eta_list, "d")).components
    e = eta_list
    for x, y, z, u in np.ndindex(d, d, d, d):
        assert got[x, y, z, u] == (e[y] * e[z] * s[x][u] - e[x] * e[z] * s[y][u]
                                   + e[x] * e[u] * s[y][z] - e[y] * e[u] * s[x][z])


def test_divergence_of_phi_omega_vec(fam23):
    phi_omega = np.einsum(
        "ij,j->i", fam23.model.phi.components, fam23.omega_vec.components
    )
    assert fam23.divergence(phi_omega) == 5


def test_divergence_of_zero_vector(fam23):
    assert fam23.divergence([0, 0, 0]) == 0


def test_matches_class_f11(fam23, heis, fam_zero):
    assert Geometry(fam23.model).f11
    assert not Geometry(heis.model).f11
    # the zero tensor satisfies the pure-class equation
    assert Geometry(fam_zero.model).f11


def test_nabla_omega_star_check(fam23, heis):
    assert fam23.identities["omega_star_derivative"].passed
    verdict = heis.identities["omega_star_derivative"]
    assert not verdict.applicable and verdict.passed is None


def test_structure_pack_is_consistent(fam5):
    geo = fam5
    pack = structure_pack(geo.model, geo.conn)
    fresh = Geometry(geo.model, conn=geo.conn)
    assert layers(pack, STRUCTURE_LAYERS) == layers(fresh, STRUCTURE_LAYERS)
    assert pack.nabla_phi == covariant_derivative(geo.conn, geo.model.phi)
