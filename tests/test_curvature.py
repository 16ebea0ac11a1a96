"""Curvature tensors, scalar curvatures, sectional curvature, and the
classification of 2-plane sections."""
from fractions import Fraction as Fr

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from norden import (
    DegenerateSection,
    FamilyParams,
    LinearlyDependent,
    Tensor,
    VarianceMismatch,
    classify_section,
    generate_family,
    levi_civita,
    riemann,
    sectional_curvature,
)

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
    m, curv = fam23.model, fam23.curv
    assert sectional_curvature(m, curv, [1, 0, 0], [0, 1, 0]) == -4
    assert sectional_curvature(m, curv, [1, 0, 0], [0, 0, 1]) == 9
    # the phi-invariant plane (x1, x2) is flat
    assert sectional_curvature(m, curv, [0, 1, 0], [0, 0, 1]) == 0


def test_sectional_curvature_is_basis_independent(fam23):
    """Replacing (x, y) by (x + y, 2y) leaves the plane, hence k, fixed."""
    m, curv = fam23.model, fam23.curv
    k1 = sectional_curvature(m, curv, [1, 0, 0], [0, 1, 0])
    k2 = sectional_curvature(m, curv, [1, 1, 0], [0, 2, 0])
    assert k1 == k2


def test_sectional_curvature_errors(fam23):
    m, curv = fam23.model, fam23.curv
    with pytest.raises(LinearlyDependent):
        sectional_curvature(m, curv, [1, 0, 0], [2, 0, 0])
    # x1 + x2 is a null direction orthogonal to xi: the plane it spans
    # with xi carries a degenerate restricted metric.
    with pytest.raises(DegenerateSection):
        sectional_curvature(m, curv, [1, 0, 0], [0, 1, 1])


def test_classify_section_kinds(fam23, fam5):
    m3 = fam23.model
    s = classify_section(m3, [1, 0, 0], [0, 1, 0])
    assert s.kind == "xi" and s.contains_xi
    s = classify_section(m3, [0, 1, 0], [0, 0, 1])
    assert s.kind == "phi_holomorphic" and s.phi_invariant and not s.contains_xi

    m5 = fam5.model
    d = 5
    s = classify_section(m5, basis_vec(d, 1), basis_vec(d, 2))
    assert s.kind == "totally_real" and s.totally_real and not s.phi_invariant
    s = classify_section(m5, basis_vec(d, 1), [0, 0, 1, 1, 0])
    assert s.kind == "generic"
    assert not (s.contains_xi or s.phi_invariant or s.totally_real)


def test_classify_section_xi_plane_precedence(fam23):
    """A plane through xi is labeled 'xi' even though it is also
    totally real."""
    s = classify_section(fam23.model, [1, 0, 0], [0, 1, 0])
    assert s.contains_xi and s.totally_real and s.kind == "xi"


def test_classify_section_rejects_dependent_vectors(fam23):
    with pytest.raises(LinearlyDependent):
        classify_section(fam23.model, [1, 0, 0], [-1, 0, 0])


def test_classify_section_rejects_a_covector(fam23):
    """eta is a 1-form: passing it where a vector belongs is an error,
    not a silent relabelling of its slot."""
    with pytest.raises(VarianceMismatch, match="must be a vector"):
        classify_section(fam23.model, fam23.model.eta, Tensor([0, 1, 0], "u"))
