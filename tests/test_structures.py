"""Structure axioms, validation itemization, and the associated metric."""
from dataclasses import replace
from fractions import Fraction as Fr

import numpy as np
import pytest

from norden import (
    AcnModel,
    DimensionMismatch,
    Tensor,
    VarianceMismatch,
    associated_metric,
    signature,
    validate_structure,
)
from norden import structures, tensors
from norden.family import _structure_tensors
from norden.lie import algebra_from_brackets
from zoo import dense_member


def test_constructor_checks():
    phi, xi, eta, g = _structure_tensors(1)
    alg = algebra_from_brackets(3, {})
    with pytest.raises(VarianceMismatch):
        AcnModel(algebra=alg, phi=Tensor(phi.components, "dd"), xi=xi, eta=eta, g=g)
    with pytest.raises(DimensionMismatch):
        AcnModel(
            algebra=algebra_from_brackets(4, {}),
            phi=Tensor(np.zeros((4, 4), dtype=object), "ud"),
            xi=Tensor([1, 0, 0, 0], "u"),
            eta=Tensor([1, 0, 0, 0], "d"),
            g=Tensor(np.eye(4, dtype=object), "dd"),
        )  # even dimension


def test_family_members_validate(fam23, fam5, heis):
    for geo in (fam23, fam5, heis):
        report = validate_structure(geo.model)
        assert report.ok, str(report)


def test_phi_square_axiom_holds_directly(fam5):
    m = fam5.model
    phi2 = np.einsum("ia,aj->ij", m.phi.components, m.phi.components)
    expected = -np.eye(m.dim, dtype=object) + np.multiply.outer(
        m.xi.components, m.eta.components
    )
    assert np.all(phi2 == expected)


def test_signatures_are_n_plus_one_n(fam23, fam5):
    for geo, n in ((fam23, 1), (fam5, 2)):
        assert signature(geo.model.g) == (n + 1, n, 0)
        assert signature(associated_metric(geo.model)) == (n + 1, n, 0)


def test_associated_metric_value(fam23):
    # g~ = g(., phi .) + eta (x) eta on the n=1 family basis.
    expected = Tensor([[1, 0, 0], [0, 0, -1], [0, -1, 0]], "dd")
    assert associated_metric(fam23.model) == expected


def test_broken_eta_xi(fam23):
    m = replace(fam23.model, xi=Tensor([0, 1, 0], "u"))
    rules = validate_structure(m).rules()
    assert "eta_xi" in rules


def test_broken_phi_square(fam23):
    m = replace(fam23.model, phi=Tensor(np.zeros((3, 3), dtype=object), "ud"))
    rules = validate_structure(m).rules()
    assert "phi_square" in rules


def test_broken_norden_compatibility(fam23):
    # flipping the metric sign on the phi-image direction breaks
    # g(phi x, phi y) = -g(x, y) + eta eta and the signature.
    g = Tensor([[1, 0, 0], [0, 1, 0], [0, 0, 1]], "dd")
    rules = validate_structure(replace(fam23.model, g=g)).rules()
    assert "norden_compatibility" in rules
    assert "metric_signature" in rules


def test_broken_eta_g_dual(fam23):
    m = replace(fam23.model, eta=Tensor([1, Fr(1, 2), 0], "d"))
    rules = validate_structure(m).rules()
    assert "eta_g_dual" in rules


def _violations(model, rule):
    return [v for v in validate_structure(model).violations if v.rule == rule]


def _phi_with(model, i, j, value):
    """``phi`` of ``model`` with the entry ``phi[i, j]`` replaced."""
    phi = model.phi.components.copy()
    phi[i, j] = value
    return Tensor(phi, "ud")


def test_broken_phi_xi(fam23):
    # phi x_0 = x_1, so (phi xi)[1] = 1.
    m = replace(fam23.model, phi=_phi_with(fam23.model, 1, 0, 1))
    bad = _violations(m, "phi_xi")
    assert [v.where for v in bad] == [(1,)]
    assert bad[0].detail == "(phi xi)[1] = 1"


def test_broken_eta_phi(fam23):
    # phi x_1 = x_0 + x_2, so (eta o phi)[1] = 1.
    m = replace(fam23.model, phi=_phi_with(fam23.model, 0, 1, 1))
    bad = _violations(m, "eta_phi")
    assert [v.where for v in bad] == [(1,)]
    assert bad[0].detail == "(eta o phi)[1] = 1"


def test_broken_phi_g_symmetric(fam23):
    # phi x_1 = 2 x_2: g(phi x_1, x_2) = -2 but g(x_1, phi x_2) = -1.
    m = replace(fam23.model, phi=_phi_with(fam23.model, 2, 1, 2))
    bad = _violations(m, "phi_g_symmetric")
    assert [v.where for v in bad] == [(1, 2), (2, 1)]
    assert bad[0].detail == "g(phi x1, x2) != g(x1, phi x2)"


def test_a_valid_model_formats_no_detail(monkeypatch):
    """Every check of ``validate_structure`` on a valid dense dim-11
    model is one zero test that finds no entry, so no compared side is
    built and no numerator is formatted; a model with a broken ``phi``
    builds the sides of its violations and formats their details.  Its
    kernel calls beyond the algebra's checks, the seven axioms and the
    model's ``eta (x) eta``, which a report then reuses, are a row of
    ``kernel_record.json``."""
    model = dense_member(5)
    calls = {"formatted": 0, "texts": 0, "sides": 0}
    real_formatted, real_texts = Tensor.formatted, tensors._numerator_texts

    def formatted(self, where=None):
        calls["formatted"] += 1
        return real_formatted(self, where)

    def texts(nums, den):
        calls["texts"] += 1
        return real_texts(nums, den)

    def exact_sum(terms):
        calls["sides"] += 1
        return tensors.exact_sum(terms)

    monkeypatch.setattr(Tensor, "formatted", formatted)
    monkeypatch.setattr(tensors, "_numerator_texts", texts)
    monkeypatch.setattr(structures, "exact_sum", exact_sum)
    assert model.dim == 11 and validate_structure(model).ok
    assert calls == {"formatted": 0, "texts": 0, "sides": 0}
    broken = replace(model, phi=_phi_with(model, 0, 0, 5))
    assert not validate_structure(broken).ok
    assert calls["sides"] > 0 and calls["texts"] > 0


def test_degenerate_metric_reported(fam23):
    g = Tensor([[0, 0, 0], [0, 1, 0], [0, 0, -1]], "dd")
    rules = validate_structure(replace(fam23.model, g=g)).rules()
    assert "metric_nondegenerate" in rules


def test_algebra_violations_propagate():
    phi, xi, eta, g = _structure_tensors(1)
    alg = algebra_from_brackets(3, {(0, 1): [1, 0, 0], (1, 2): [0, 1, 0]})
    m = AcnModel(algebra=alg, phi=phi, xi=xi, eta=eta, g=g)
    assert "jacobi" in validate_structure(m).rules()


def test_validation_report_is_itemized(fam23):
    m = replace(fam23.model, g=Tensor(np.eye(3, dtype=object), "dd"))
    report = validate_structure(m)
    assert not report.ok
    # every violation carries its rule name and a human-readable detail
    assert all(v.rule and v.detail for v in report.violations)
    text = str(report)
    assert "violation" in text and "norden_compatibility" in text


def test_dim_and_n_properties(fam5):
    assert fam5.model.dim == 5
    assert fam5.model.n == 2
