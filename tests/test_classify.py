"""Class membership, isotropic-Kahler decision, and the exact identity
battery with its applicability gating."""
import hashlib
import json
from dataclasses import replace
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
    report_to_json,
    report_to_text,
    run_report,
    serialize_model,
    square_norms,
    verify_identities,
)
from norden import cli

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


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


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


# --- failing verdicts and laziness, pinned -----------------------------------
#
# No valid model fails an identity, so these seed a Geometry with tampered
# layers: a curvature pack with R doubled and tau shifted by 1/2 (index and
# rational-string witnesses), a structure pack whose Omega is zero (a flag
# witness from isotropy_equivalence), and a zero curvature (a flag witness
# from phi_kahler_criterion).  Each pin is the verdict's (status, witness)
# and the sha256 of the JSON and text renders of the family report carrying
# the tampered verdicts.  The JSON hashes were re-recorded once, for report
# schema 2; the text hashes have not changed.

def _tampered(fam23, key):
    model, conn, curv, pack = fam23.model, fam23.conn, fam23.curv, fam23.pack
    if key == "curvature":
        return Geometry(model, conn=conn, curv=replace(
            curv, r13=2 * curv.r13, r04=2 * curv.r04, tau=curv.tau + Fr(1, 2)))
    if key == "omega_vec":
        return Geometry(model, conn=conn, pack=replace(pack, omega_vec=0 * pack.omega_vec))
    return Geometry(model, conn=conn, curv=replace(curv, r04=0 * curv.r04))


PASS, NA = ("pass", None), (" n/a", None)
TAMPERED_VERDICTS = {
    "curvature": {
        "ricci_identity_phi": ("FAIL", (0, 1, 0, 1)),
        "ricci_identity_eta": ("FAIL", (0, 1, 1)),
        "norm_chain": PASS,
        "omega_star_derivative": PASS,
        "curvature_phi_twist": ("FAIL", (0, 1, 0, 1)),
        "r_equals_psi4_s": ("FAIL", (0, 1, 0, 1)),
        "ricci_from_s": PASS,
        "s_trace_divergence": PASS,
        "scalar_curvature_chain": ("FAIL", ("21/2", "10", "10")),
        "phi_kahler_criterion": PASS,
        "phi_kahler_criterion_closedness": NA,
        "isotropy_equivalence": PASS,
    },
    "omega_vec": {
        "ricci_identity_phi": PASS,
        "ricci_identity_eta": PASS,
        "norm_chain": ("FAIL", ("10", "10", "10", "0")),
        "omega_star_derivative": ("FAIL", (0, 0)),
        "curvature_phi_twist": PASS,
        "r_equals_psi4_s": PASS,
        "ricci_from_s": PASS,
        "s_trace_divergence": ("FAIL", ("5", "0")),
        "scalar_curvature_chain": ("FAIL", ("10", "0", "10")),
        "phi_kahler_criterion": PASS,
        "phi_kahler_criterion_closedness": NA,
        "isotropy_equivalence": ("FAIL", (False, True, False)),
    },
    "flat_r04": {
        "ricci_identity_phi": PASS,
        "ricci_identity_eta": PASS,
        "norm_chain": PASS,
        "omega_star_derivative": PASS,
        "curvature_phi_twist": ("FAIL", (0, 1, 0, 1)),
        "r_equals_psi4_s": ("FAIL", (0, 1, 0, 1)),
        "ricci_from_s": PASS,
        "s_trace_divergence": PASS,
        "scalar_curvature_chain": PASS,
        "phi_kahler_criterion": ("FAIL", (True, False)),
        "phi_kahler_criterion_closedness": NA,
        "isotropy_equivalence": PASS,
    },
}
# (sha256 of report_to_json, sha256 of report_to_text)
TAMPERED_RENDERS = {
    "curvature": ("5b6c009b713434350329503d70a8db4e47e8b8d5882758eadfead3f7c872d060",
                  "2233884f79c27d501fdf36f9062ae37f1b42b505bfcdf9daf5810983b8f4afe0"),
    "omega_vec": ("96d18b06bb5b418de7d13e47da1501e9bc9157faf1204442a973093cfe4ad729",
                  "894f4e7a25f8ae9c3b6775fb436c215231a8eed69695cc206a5727474b37c1ec"),
    "flat_r04": ("cb70bb7573727effbef03157f5dc7faf4c3c1ed43892f2a87385e7befb21b83b",
                 "ff0f4dc1e429147150817a5ef718521957f0be66c74e76a23274a699b7da146e"),
}


@pytest.mark.parametrize("key", list(TAMPERED_VERDICTS))
def test_failing_verdicts_and_their_renders_are_pinned(fam23, key):
    tampered = _tampered(fam23, key).identities
    assert {name: (v.status, v.witness) for name, v in tampered.items()} \
        == TAMPERED_VERDICTS[key]
    report = replace(run_report(fam23.model), identities=tampered)
    assert (_sha256(report_to_json(report)), _sha256(report_to_text(report))) \
        == TAMPERED_RENDERS[key]


@pytest.mark.parametrize("key", list(TAMPERED_VERDICTS))
def test_identities_command_prints_the_witness_of_each_failure(fam23, key, tmp_path,
                                                               monkeypatch, capsys):
    """``norden identities`` writes each verdict line as the report's text
    render does, ``  witness: ...`` after every failing verdict included."""
    path = tmp_path / "fam23.txt"
    path.write_text(serialize_model(fam23.model))
    tampered = _tampered(fam23, key)
    monkeypatch.setattr(cli, "Geometry", lambda model: tampered)
    assert cli.main(["identities", str(path)]) == 1
    out = capsys.readouterr().out.splitlines()
    report = replace(run_report(fam23.model), identities=tampered.identities)
    text = report_to_text(report).splitlines()
    start = text.index("identities:") + 1
    assert out == [line[2:] for line in text[start:start + len(out)]]
    assert out == [f"[{status}] {name}" + (f"  witness: {witness}" if status == "FAIL" else "")
                   for name, (status, witness) in TAMPERED_VERDICTS[key].items()]


@pytest.mark.parametrize("key", list(TAMPERED_VERDICTS))
def test_identities_json_is_the_identities_section_of_the_report(fam23, key, tmp_path,
                                                                 monkeypatch, capsys):
    """``norden identities --json`` writes the verdicts, witnesses included,
    as the report's ``identities`` section does."""
    path = tmp_path / "fam23.txt"
    path.write_text(serialize_model(fam23.model))
    tampered = _tampered(fam23, key)
    monkeypatch.setattr(cli, "Geometry", lambda model: tampered)
    assert cli.main(["identities", str(path), "--json"]) == 1
    out = json.loads(capsys.readouterr().out)
    report = replace(run_report(fam23.model), identities=tampered.identities)
    assert out == json.loads(report_to_json(report))["identities"]
    assert {name: v["witness"] for name, v in out.items() if v["passed"] is False} == {
        name: list(witness) for name, (status, witness) in TAMPERED_VERDICTS[key].items()
        if status == "FAIL"}


# sorted(vars(geo)) after reading .identities on a fresh Geometry
LAYERS_READ = {
    "heis": ["conn", "curv", "f", "f11", "ginv", "identities", "model",
             "nabla2_eta", "nabla2_phi", "nabla_eta", "nabla_phi"],
    "fam23": ["conn", "curv", "curvature_phi_kahler", "div_phi_omega", "f", "f11",
              "ginv", "identities", "isotropic_kahler", "model", "n",
              "n_from_brackets", "n_from_derivatives", "nabla2_eta", "nabla2_phi",
              "nabla_eta", "nabla_omega", "nabla_omega_star", "nabla_phi", "norms",
              "omega", "omega_norm", "omega_star", "omega_vec", "phi_omega", "psi4_s",
              "ricci_xi_xi", "s", "s_trace", "twisted_r"],
}


@pytest.mark.parametrize("key", list(LAYERS_READ))
def test_identities_read_only_the_layers_of_applicable_identities(fam23, heis, key):
    geo = Geometry({"heis": heis, "fam23": fam23}[key].model)
    geo.identities
    assert sorted(vars(geo)) == LAYERS_READ[key]
