"""Class membership, isotropic-Kahler decision, and the exact identity
battery with its applicability gating."""
from fractions import Fraction as Fr

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from norden import (
    FamilyParams,
    Geometry,
    IdentityVerdict,
    generate_family,
    levi_civita,
    square_norms,
    verify_identities,
)

lam_values = st.fractions(min_value=-4, max_value=4, max_denominator=5)

GATED = (
    "norm_chain",
    "omega_star_derivative",
    "curvature_phi_twist",
    "r_equals_psi4_s",
    "ricci_from_s",
    "s_trace_divergence",
    "scalar_curvature_chain",
    "phi_kahler_criterion",
    "phi_kahler_criterion_closedness",
    "isotropy_equivalence",
)
UNCONDITIONAL = ("ricci_identity_phi", "ricci_identity_eta")


def test_class_flags(fam23, heis, fam_zero):
    assert fam23.f11
    assert not fam23.f0
    assert not heis.f11
    assert not heis.f0
    assert fam_zero.f0
    assert fam_zero.f11


def test_forms_closed(fam23, heis):
    assert Geometry(fam23.model, conn=fam23.conn).forms_closed == (True, True)
    assert Geometry(heis.model, conn=heis.conn).forms_closed == (True, True)
    # the precomputed-pack path agrees
    seeded = Geometry(fam23.model, conn=fam23.conn, pack=fam23.pack)
    assert seeded.forms_closed == (True, True)


def test_is_isotropic_kahler(fam23, fam_zero):
    assert not Geometry(fam23.model, conn=fam23.conn).isotropic_kahler
    assert Geometry(fam_zero.model, conn=fam_zero.conn).isotropic_kahler
    m = generate_family(FamilyParams(1, (1, 1)))
    conn = levi_civita(m)
    assert Geometry(m, conn=conn).isotropic_kahler
    # with norms != 0 despite nabla phi != 0 being possible, the check
    # reads the same norms as square_norms on a precomputed pack
    norms = square_norms(fam23.model, fam23.conn, pack=fam23.pack)
    geo = Geometry(fam23.model, conn=fam23.conn, pack=fam23.pack)
    assert geo.norms == norms
    assert geo.isotropic_kahler is False


def test_curvature_phi_kahler_flag(fam23, fam_zero, heis):
    # family curvature satisfies R(.,.,phi.,phi.) = 0, which equals -R
    # only when R = 0
    assert not Geometry(fam23.model, curv=fam23.curv).curvature_phi_kahler
    assert Geometry(fam_zero.model, curv=fam_zero.curv).curvature_phi_kahler
    assert not Geometry(heis.model, curv=heis.curv).curvature_phi_kahler


def test_identity_verdict_ok_semantics():
    assert IdentityVerdict("x", applicable=True, passed=True).ok
    assert IdentityVerdict("x", applicable=False, passed=None).ok
    assert not IdentityVerdict("x", applicable=True, passed=False).ok


def test_identities_all_pass_on_worked_example(fam23):
    verdicts = verify_identities(
        fam23.model, conn=fam23.conn, pack=fam23.pack, curv=fam23.curv
    )
    assert set(verdicts) == set(GATED) | set(UNCONDITIONAL)
    failing = [n for n, v in verdicts.items() if not v.ok]
    assert failing == []
    # on this member the omega_star derivative does not have the pure
    # rank-one form, so the closedness addendum is inapplicable
    assert not verdicts["phi_kahler_criterion_closedness"].applicable
    # everything else applies
    for name in set(GATED) - {"phi_kahler_criterion_closedness"}:
        assert verdicts[name].applicable, name
        assert verdicts[name].passed, name


def test_identities_gated_off_outside_pure_class(heis):
    verdicts = verify_identities(
        heis.model, conn=heis.conn, pack=heis.pack, curv=heis.curv
    )
    for name in GATED:
        v = verdicts[name]
        assert not v.applicable
        assert v.passed is None
        assert "pure" in v.detail
    for name in UNCONDITIONAL:
        assert verdicts[name].applicable
        assert verdicts[name].passed


def test_identity_names_agree_inside_and_outside_pure_class(fam23, heis, fam_zero):
    """The names written for the not-applicable battery outside the pure
    class (heis) are the names the battery computes inside it (fam23 and
    the flat fam_zero), in the same order."""
    names = [list(geo.identities) for geo in (fam23, heis, fam_zero)]
    assert names[0] == names[1] == names[2]
    assert len(set(names[0])) == len(names[0]) == 12
    assert not heis.f11 and fam23.f11 and fam_zero.f11


def test_ricci_identities_hold_everywhere(fam5, heis, fam_zero):
    for geo in (fam5, heis, fam_zero):
        verdicts = verify_identities(
            geo.model, conn=geo.conn, pack=geo.pack, curv=geo.curv
        )
        assert verdicts["ricci_identity_phi"].passed
        assert verdicts["ricci_identity_eta"].passed


def test_phi_kahler_criterion_biconditional_both_ways(fam23, fam_zero):
    """The criterion compares two flags; the family realizes both
    (False, False) and (True, True)."""
    v23 = verify_identities(
        fam23.model, conn=fam23.conn, pack=fam23.pack, curv=fam23.curv
    )["phi_kahler_criterion"]
    assert v23.passed
    assert not fam23.curvature_phi_kahler

    v0 = verify_identities(
        fam_zero.model, conn=fam_zero.conn, pack=fam_zero.pack, curv=fam_zero.curv
    )["phi_kahler_criterion"]
    assert v0.passed
    assert fam_zero.curvature_phi_kahler


def test_closedness_addendum_applicable_on_flat_member(fam_zero):
    verdicts = verify_identities(
        fam_zero.model, conn=fam_zero.conn, pack=fam_zero.pack, curv=fam_zero.curv
    )
    v = verdicts["phi_kahler_criterion_closedness"]
    assert v.applicable and v.passed


def test_verify_identities_computes_own_packages(fam23):
    """Optional arguments default to fresh computations with the same
    verdicts."""
    lazy = verify_identities(fam23.model)
    eager = verify_identities(
        fam23.model, conn=fam23.conn, pack=fam23.pack, curv=fam23.curv
    )
    assert {n: (v.applicable, v.passed) for n, v in lazy.items()} == {
        n: (v.applicable, v.passed) for n, v in eager.items()
    }


@settings(max_examples=6, deadline=None)
@given(st.lists(lam_values, min_size=2, max_size=2))
def test_identity_battery_passes_on_random_members(lam):
    m = generate_family(FamilyParams(1, tuple(lam)))
    verdicts = verify_identities(m)
    failing = [n for n, v in verdicts.items() if not v.ok]
    assert failing == []


@settings(max_examples=8, deadline=None)
@given(st.lists(lam_values, min_size=2, max_size=2))
def test_isotropy_criterion_matches_lambda_condition(lam):
    """Isotropic Kahler holds exactly when sum(lambda_k^2) cancels
    between the two metric blocks."""
    m = generate_family(FamilyParams(1, tuple(lam)))
    expected = (lam[0] ** 2 - lam[1] ** 2) == 0
    assert Geometry(m).isotropic_kahler == expected
