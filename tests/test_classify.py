"""Class membership, isotropic-Kahler decision, and the exact identity
battery with its applicability gating."""
import hashlib
import json
from dataclasses import replace
from fractions import Fraction as Fr

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from norden import (
    Geometry,
    IdentityVerdict,
    InternalInconsistency,
    Tensor,
    exact_sum,
    levi_civita,
    report_to_json,
    report_to_text,
    riemann,
    run_report,
    serialize_model,
    square_norms,
    structure_pack,
    verify_identities,
)
from norden import cli, geometry
from zoo import dense_member, family, family_member

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
    seeded = Geometry(fam23.model, fam23.conn, structure_pack(fam23.model, fam23.conn))
    assert seeded.forms_closed == (True, True)


def test_is_isotropic_kahler(fam23, fam_zero):
    assert not Geometry(fam23.model, conn=fam23.conn).isotropic_kahler
    assert Geometry(fam_zero.model, conn=fam_zero.conn).isotropic_kahler
    m = family((1, 1))
    conn = levi_civita(m)
    assert Geometry(m, conn=conn).isotropic_kahler
    # with norms != 0 despite nabla phi != 0 being possible, the check
    # reads the same norms as square_norms on a precomputed pack
    pack = structure_pack(fam23.model, fam23.conn)
    norms = square_norms(fam23.model, fam23.conn, pack=pack)
    geo = Geometry(fam23.model, fam23.conn, pack)
    for name in ("nabla_phi_square_norm", "nabla_eta_square_norm", "nijenhuis_square_norm"):
        assert getattr(geo, name) == getattr(norms, name), name
    assert geo.isotropic_kahler is False


def test_curvature_phi_kahler_flag(fam23, fam_zero, heis):
    # family curvature satisfies R(.,.,phi.,phi.) = 0, which equals -R
    # only when R = 0
    for geo, flag in ((fam23, False), (fam_zero, True), (heis, False)):
        curv = riemann(geo.model, geo.conn)
        assert Geometry(geo.model, None, curv).curvature_phi_kahler is flag


def test_identity_verdict_ok_semantics():
    assert IdentityVerdict("x", applicable=True, passed=True).ok
    assert IdentityVerdict("x", applicable=False, passed=None).ok
    assert not IdentityVerdict("x", applicable=True, passed=False).ok


def test_identities_all_pass_on_worked_example(fam23):
    verdicts = verify_identities(fam23.model, conn=fam23.conn, pack=fam23, curv=fam23)
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
    verdicts = verify_identities(heis.model, conn=heis.conn, pack=heis, curv=heis)
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
        verdicts = verify_identities(geo.model, conn=geo.conn, pack=geo, curv=geo)
        assert verdicts["ricci_identity_phi"].passed
        assert verdicts["ricci_identity_eta"].passed


def test_phi_kahler_criterion_biconditional_both_ways(fam23, fam_zero):
    """The criterion compares two flags; the family realizes both
    (False, False) and (True, True)."""
    v23 = verify_identities(fam23.model, conn=fam23.conn, pack=fam23,
                            curv=fam23)["phi_kahler_criterion"]
    assert v23.passed
    assert not fam23.curvature_phi_kahler

    v0 = verify_identities(fam_zero.model, conn=fam_zero.conn, pack=fam_zero,
                           curv=fam_zero)["phi_kahler_criterion"]
    assert v0.passed
    assert fam_zero.curvature_phi_kahler


def test_closedness_addendum_applicable_on_flat_member(fam_zero):
    verdicts = verify_identities(fam_zero.model, conn=fam_zero.conn, pack=fam_zero,
                                 curv=fam_zero)
    v = verdicts["phi_kahler_criterion_closedness"]
    assert v.applicable and v.passed


def _terms_spy(monkeypatch, gate=None) -> list:
    """Record the term lists of every zero test of the identity battery;
    the zero test that reads the tensor ``gate`` (the rank-one gate reads
    ``omega_star (x) omega_star``) finds nothing, whatever ``nabla
    omega_star`` is."""
    calls, real = [], geometry.nonzero_where

    def spy(terms):
        calls.append([term[1] for term in terms])
        where = real(terms)
        return where & False if any(term[-1] is gate for term in terms) else where

    monkeypatch.setattr(geometry, "nonzero_where", spy)
    return calls


def test_closedness_reads_forms_closed_and_runs_no_kernel_call(fam_zero, monkeypatch):
    """Where the rank-one gate opens, the closedness verdict is
    ``forms_closed``'s symmetry test: no zero test relabels ``ji->ij``."""
    calls = _terms_spy(monkeypatch)
    geo = Geometry(fam_zero.model, conn=fam_zero.conn)
    v = geo.identities["phi_kahler_criterion_closedness"]
    assert (v.applicable, v.passed, v.witness) == (True, True, None)
    assert geo.forms_closed[1] and calls and not any("ji->ij" in c for c in calls)


def test_closedness_fails_at_the_first_asymmetric_index(fam_zero, monkeypatch):
    """An asymmetric ``nabla omega_star`` behind an open rank-one gate fails
    the closedness identity; its witness is the first ``(i, j)`` in C
    order with ``num[i, j] != num[j, i]``, the index the two-term zero
    test named."""
    geo = Geometry(fam_zero.model, conn=fam_zero.conn)
    calls = _terms_spy(monkeypatch, gate=geo.omega_star_squared)
    geo.nabla_omega_star = Tensor([[0, 0, 7], [4, 0, Fr(1, 2)], [7, 3, 0]], "dd")
    v = geo.identities["phi_kahler_criterion_closedness"]
    assert (v.applicable, v.passed, v.witness) == (True, False, (0, 1))
    assert geo.forms_closed == (True, False)
    assert not any("ji->ij" in c for c in calls)
    t = geo.nabla_omega_star
    defect = exact_sum([(1, "ij->ij", t), (-1, "ji->ij", t)])
    assert v.witness == tuple(np.argwhere(defect.num)[0].tolist())


def test_verify_identities_computes_own_packages(fam23):
    """Optional arguments default to fresh computations with the same
    verdicts."""
    lazy = verify_identities(fam23.model)
    eager = verify_identities(fam23.model, conn=fam23.conn, pack=fam23, curv=fam23)
    assert {n: (v.applicable, v.passed) for n, v in lazy.items()} == {
        n: (v.applicable, v.passed) for n, v in eager.items()
    }


@settings(max_examples=6, deadline=None)
@given(st.lists(lam_values, min_size=2, max_size=2))
def test_identity_battery_passes_on_random_members(lam):
    m = family(lam)
    verdicts = verify_identities(m)
    failing = [n for n, v in verdicts.items() if not v.ok]
    assert failing == []


@settings(max_examples=8, deadline=None)
@given(st.lists(lam_values, min_size=2, max_size=2))
def test_isotropy_criterion_matches_lambda_condition(lam):
    """Isotropic Kahler holds exactly when sum(lambda_k^2) cancels
    between the two metric blocks."""
    m = family(lam)
    expected = (lam[0] ** 2 - lam[1] ** 2) == 0
    assert Geometry(m).isotropic_kahler == expected


# --- failing verdicts and laziness, pinned -----------------------------------
#
# No valid model fails an identity, so these replace layers of a Geometry:
# R doubled and then tau shifted by 1/2 (index and rational-string
# witnesses), the structure tensors with Omega zero (a flag witness from
# isotropy_equivalence), and R zero (a flag witness from
# phi_kahler_criterion).  R is replaced at r04 before any layer above it
# is read, so Ricci, the scalar curvatures and both phi twists read the
# fault too.  Each pin is the verdict's (status, witness)
# and the sha256 of the JSON and text renders of the family report carrying
# the tampered verdicts.  The JSON hashes were re-recorded for report
# schema 2, and both hashes of the two faults in R when they moved to r04.

def _scaled(coef, t):
    """``coef * t``, as one permutation term of the kernel."""
    same = "ijkl"[:t.rank] + "->" + "ijkl"[:t.rank]
    return exact_sum([(coef, same, t)])


def _tampered(fam23, key):
    """A fresh ``Geometry`` of the worked example: its structure layers
    computed and ``Omega`` replaced, or ``r04`` replaced before any layer
    is read (and, for ``"curvature"``, ``tau`` then shifted)."""
    if key == "omega_vec":
        geo = structure_pack(fam23.model, fam23.conn)
        geo.omega_vec = _scaled(0, geo.omega_vec)
        return geo
    geo = Geometry(fam23.model, fam23.conn)
    geo.r04 = _scaled(2 if key == "curvature" else 0, fam23.r04)
    if key == "curvature":
        geo.tau += Fr(1, 2)
    return geo


PASS, NA = ("pass", None), (" n/a", None)
TAMPERED_VERDICTS = {
    "curvature": {
        "ricci_identity_phi": ("FAIL", (0, 1, 0, 1)),
        "ricci_identity_eta": ("FAIL", (0, 1, 1)),
        "norm_chain": PASS,
        "omega_star_derivative": PASS,
        "curvature_phi_twist": ("FAIL", (0, 1, 0, 1)),
        "r_equals_psi4_s": ("FAIL", (0, 1, 0, 1)),
        "ricci_from_s": ("FAIL", (0, 0)),
        "s_trace_divergence": PASS,
        "scalar_curvature_chain": ("FAIL", ("41/2", "10", "20")),
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
        "ricci_identity_phi": ("FAIL", (0, 1, 0, 1)),
        "ricci_identity_eta": ("FAIL", (0, 1, 1)),
        "norm_chain": PASS,
        "omega_star_derivative": PASS,
        "curvature_phi_twist": ("FAIL", (0, 1, 0, 1)),
        "r_equals_psi4_s": ("FAIL", (0, 1, 0, 1)),
        "ricci_from_s": ("FAIL", (0, 0)),
        "s_trace_divergence": PASS,
        "scalar_curvature_chain": ("FAIL", ("0", "10", "0")),
        "phi_kahler_criterion": ("FAIL", (True, False)),
        "phi_kahler_criterion_closedness": NA,
        "isotropy_equivalence": PASS,
    },
}
# (sha256 of report_to_json, sha256 of report_to_text)
TAMPERED_RENDERS = {
    "curvature": ("aa44d186cac1e38643f5f178baa3d0fe2d798bed44e72868e3c27ffedb2b9e5c",
                  "ec0905b67cafa8ec9c147134dd235d1d8daa4908b28bb4d861fa553a51997cfc"),
    "omega_vec": ("96d18b06bb5b418de7d13e47da1501e9bc9157faf1204442a973093cfe4ad729",
                  "894f4e7a25f8ae9c3b6775fb436c215231a8eed69695cc206a5727474b37c1ec"),
    "flat_r04": ("93de7a6df57d7e04ba1fa0e0586998886157b326f096cedb6fd2d11355340a8e",
                 "86b10994e07717733f1071d0821028ea244414058c799543679f8877424b7d61"),
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


#: Each layer that checks two independent routes: the layer seeded wrong on
#: a fresh Geometry, and the message of the check.
DISAGREEING_ROUTES = {
    "nabla_eta": ("f", "nabla eta: connection and fundamental-tensor routes disagree"),
    "n": ("n_from_derivatives",
          "Nijenhuis tensor: bracket and derivative constructions disagree"),
}


@pytest.mark.parametrize("layer", list(DISAGREEING_ROUTES))
def test_routes_that_disagree_raise_internal_inconsistency(fam23, layer):
    """F seeded as 2 F moves the fundamental-tensor route of nabla eta, and
    the derivative route of N seeded plus c moves away from the bracket
    route; reading the checked layer then raises."""
    seeded, message = DISAGREEING_ROUTES[layer]
    geo = Geometry(fam23.model, conn=fam23.conn)
    if seeded == "f":
        geo.f = _scaled(2, geo.f)
    else:
        geo.n_from_derivatives = exact_sum([(1, "kij->kij", geo.n_from_derivatives),
                                            (1, "kij->kij", fam23.model.algebra.c)])
    with pytest.raises(InternalInconsistency, match=f"^{message}$"):
        getattr(geo, layer)


@pytest.mark.parametrize("build, n", [(dense_member, 3), (family_member, 6)])
def test_a_fault_in_nabla_eta_fails_the_nijenhuis_check(build, n):
    """The two routes to N share no term: nabla eta plus 1 at [1, 2],
    which breaks its symmetry, moves the d eta of the derivative route
    alone, so reading N raises.  The bracket route reads the model and
    no layer."""
    model = build(n)
    geo = Geometry(model)
    fault = Tensor([[int((i, j) == (1, 2)) for j in range(model.dim)]
                    for i in range(model.dim)], "dd")
    geo.nabla_eta = exact_sum([(1, "ij->ij", geo.nabla_eta), (1, "ij->ij", fault)])
    message = "Nijenhuis tensor: bracket and derivative constructions disagree"
    with pytest.raises(InternalInconsistency, match=f"^{message}$"):
        geo.n
    fresh = Geometry(model)
    fresh.n_from_brackets
    assert set(vars(fresh)) == {"model", "n_from_brackets"}


#: The verdicts that fail with the sign of the c . L term of r04 flipped.
CL_SIGN_FAILS = {"ricci_identity_phi", "ricci_identity_eta", "curvature_phi_twist",
                 "r_equals_psi4_s", "ricci_from_s", "scalar_curvature_chain"}


@pytest.mark.parametrize("build, n", [(dense_member, 3), (family_member, 6)])
def test_the_sign_of_the_c_l_term_of_r04_flipped_fails_six_verdicts(build, n):
    """``r04`` planted as ``P - P[jiku] + c . L`` before any layer above it
    is read: both Ricci identities, both checks of R against psi4(S), Ricci
    against S and the scalar curvature chain fail, and no other verdict."""
    model = build(n)
    clean = Geometry(model)
    geo = Geometry(model, clean.conn)
    geo.r04 = exact_sum([(1, "ijku->ijku", clean.r04),
                         (2, "mij,mku->ijku", model.algebra.c, clean.koszul)])
    assert {name for name, v in geo.identities.items() if not v.ok} == CL_SIGN_FAILS


@pytest.mark.parametrize("build, n", [(dense_member, 3), (family_member, 6)])
def test_one_entry_of_r04_phi_plus_one_fails_the_phi_ricci_identity(build, n):
    """R(x_1, x_2, x_0, phi x_1) plus 1 moves the curvature side of the phi
    Ricci identity alone: it fails at that index."""
    model = build(n)
    geo = Geometry(model)
    fault = np.zeros((model.dim,) * 4, dtype=int)
    fault[1, 2, 0, 1] = 1
    geo.r04_phi = exact_sum([(1, "ijku->ijku", geo.r04_phi),
                             (1, "ijku->ijku", Tensor(fault, "dddd"))])
    v = geo.identities["ricci_identity_phi"]
    assert (v.passed, v.witness) == (False, (1, 2, 0, 1))


@pytest.mark.parametrize("flags", [[], ["--json"]])
def test_a_witness_past_the_digit_limit_is_input_error(fam23, flags, tmp_path, monkeypatch,
                                                       capsys):
    """A failing verdict whose values Python will not write as text (tau
    shifted by 10**4300) is refused when its witness is built, before any
    output: exit 2 and one line on stderr."""
    path = tmp_path / "fam23.txt"
    path.write_text(serialize_model(fam23.model))
    tampered = riemann(fam23.model, fam23.conn)
    tampered.tau += 10 ** 4300
    monkeypatch.setattr(cli, "Geometry", lambda model: tampered)
    assert cli.main(["identities", str(path)] + flags) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: a number has more than 4300 digits")
    assert err.count("\n") == 1


# sorted(vars(geo)) after reading .identities on a fresh Geometry.  Outside
# the pure class (heis) only the Ricci identities apply, so r04 and r04_phi
# are the curvature layers built; the family reads every curvature layer
# but r13 and tau_star.  Neither builds r13.
LAYERS_READ = {
    "heis": ["conn", "f", "f11", "identities", "koszul", "model", "nabla2_eta",
             "nabla_eta", "nabla_f", "nabla_phi", "omega", "r04", "r04_phi"],
    "fam23": ["conn", "curvature_phi_kahler", "div_phi_omega", "f", "f11",
              "identities", "isotropic_kahler", "koszul", "model", "n",
              "n_from_brackets", "n_from_derivatives", "nabla2_eta", "nabla_eta",
              "nabla_eta_square_norm", "nabla_f", "nabla_omega", "nabla_omega_phi",
              "nabla_omega_star", "nabla_phi", "nabla_phi_square_norm",
              "nijenhuis_square_norm", "omega", "omega_norm", "omega_star",
              "omega_star_squared", "omega_vec", "phi_omega", "psi4_s", "r04", "r04_phi",
              "ricci", "ricci_xi_xi", "s", "s_trace", "tau", "tau_2star", "twisted_r"],
}


@pytest.mark.parametrize("key", list(LAYERS_READ))
def test_identities_read_only_the_layers_of_applicable_identities(fam23, heis, key):
    geo = Geometry({"heis": heis, "fam23": fam23}[key].model)
    geo.identities
    assert sorted(vars(geo)) == LAYERS_READ[key]
