"""Levi-Civita connection: frozen components, defining properties, and an
independent Koszul-formula oracle."""
from dataclasses import replace
from fractions import Fraction as Fr

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from norden import (
    Connection,
    DimensionMismatch,
    SingularMetric,
    Tensor,
    covariant_derivative,
    exact_einsum,
    invert_symmetric,
    is_metric_compatible,
    is_torsion_free,
    levi_civita,
)
from zoo import family

lam_values = st.fractions(min_value=-4, max_value=4, max_denominator=5)


def koszul_oracle(model) -> np.ndarray:
    """Independent connection oracle: literal Koszul formula, solved
    entry by entry with explicit Python loops (no einsum)."""
    d = model.dim
    c = model.algebra.c.components
    g = model.g.components
    ginv = invert_symmetric(model.g).components

    def ip(vec, k):  # g([.,.], x_k) with vec a component column
        return sum(vec[m] * g[m, k] for m in range(d))

    gamma = np.zeros((d, d, d), dtype=object)
    for i in range(d):
        for j in range(d):
            two_k = [
                ip(c[:, i, j], k) + ip(c[:, k, i], j) + ip(c[:, k, j], i)
                for k in range(d)
            ]
            for m in range(d):
                gamma[m, i, j] = sum(
                    Fr(two_k[k]) / 2 * ginv[k, m] for k in range(d)
                )
    return gamma


def test_frozen_gamma_components(fam23):
    got = {idx: v for idx, v in np.ndenumerate(fam23.conn.gamma.components) if v != 0}
    assert got == {(0, 0, 1): -2, (0, 0, 2): -3, (1, 0, 0): 2, (2, 0, 0): -3}


def test_family_gamma_general_pattern(fam5):
    """nabla_{x_0} x_i = -lambda_i x_0 and
    nabla_{x_0} x_0 = sum(lambda_k x_k - lambda_{k+n} x_{k+n})."""
    lam = (1, 0, 0, 2)
    gamma = fam5.conn.gamma.components
    n, d = 2, 5
    expected = np.zeros((d, d, d), dtype=object)
    for i in range(1, d):
        expected[0, 0, i] = -lam[i - 1]
    for k in range(1, n + 1):
        expected[k, 0, 0] = lam[k - 1]
        expected[k + n, 0, 0] = -lam[k + n - 1]
    assert np.all(gamma == expected)


def test_matches_koszul_oracle(fam5, heis):
    for geo in (fam5, heis):
        assert np.all(geo.conn.gamma.components == koszul_oracle(geo.model))


def test_torsion_free_and_metric_compatible(fam23, fam5, heis):
    for geo in (fam23, fam5, heis):
        assert is_torsion_free(geo.conn, geo.model)
        assert is_metric_compatible(geo.conn, geo.model)


def test_heisenberg_gamma_half_integers(heis):
    values = {v for v in heis.conn.gamma.components.flat if v != 0}
    assert values == {Fr(1, 2), Fr(-1, 2)}


def test_levi_civita_needs_invertible_metric(fam23):
    degenerate = replace(fam23.model, g=Tensor([[0, 0, 0], [0, 1, 0], [0, 0, -1]], "dd"))
    with pytest.raises(SingularMetric):
        levi_civita(degenerate)


def test_covariant_derivative_variance_and_sign(fam23):
    m, conn = fam23.model, fam23.conn
    gamma = conn.gamma.components
    # contravariant slot: (nabla_{x_i} xi)^k = gamma[k, i, m] xi^m
    nxi = covariant_derivative(conn, m.xi)
    assert nxi.variance == "du"
    expected_up = np.einsum("kim,m->ik", gamma, m.xi.components)
    assert np.all(nxi.components == expected_up)
    # covariant slot: (nabla_{x_i} eta)_j = -gamma[m, i, j] eta_m
    neta = covariant_derivative(conn, m.eta)
    assert neta.variance == "dd"
    expected_down = -np.einsum("mij,m->ij", gamma, m.eta.components)
    assert np.all(neta.components == expected_down)
    # a constant scalar has zero derivative; a slot of another size is refused
    assert covariant_derivative(conn, Tensor(Fr(7, 2), "")) == Tensor([0, 0, 0], "d")
    with pytest.raises(DimensionMismatch, match=r"slots \(3, 2\) do not match .* dimension 3"):
        covariant_derivative(conn, Tensor(np.zeros((3, 2), dtype=int), "ud"))


def test_covariant_derivative_leibniz_on_product(fam23):
    """nabla(eta (x) eta) = (nabla eta) (x) eta + eta (x) (nabla eta)."""
    m, conn = fam23.model, fam23.conn
    ee = exact_einsum("i,j->ij", m.eta, m.eta)
    nee = covariant_derivative(conn, ee).components
    neta = covariant_derivative(conn, m.eta).components
    eta = m.eta.components
    expected = np.einsum("ij,k->ijk", neta, eta) + np.einsum("j,ik->ijk", eta, neta)
    assert np.all(nee == expected)


def test_second_covariant_derivative_prepends_two_slots(fam23):
    once = covariant_derivative(fam23.conn, fam23.model.phi)
    nn = covariant_derivative(fam23.conn, once)
    assert (once.variance, nn.variance) == ("dud", "ddud")
    assert nn.shape == (3, 3, 3, 3)
    assert once == fam23.nabla_phi


def test_connection_constructor_validates():
    from norden.errors import VarianceMismatch

    with pytest.raises(VarianceMismatch):
        Connection(Tensor(np.zeros((2, 2, 2), dtype=object), "ddd"))
    with pytest.raises(DimensionMismatch, match=r"must be cubic, got \(2, 2, 3\)"):
        Connection(Tensor(np.zeros((2, 2, 3), dtype=int), "udd"))


@settings(max_examples=8, deadline=None)
@given(st.lists(lam_values, min_size=2, max_size=2))
def test_levi_civita_properties_hold_for_random_members(lam):
    m = family(lam)
    conn = levi_civita(m)
    assert is_torsion_free(conn, m)
    assert is_metric_compatible(conn, m)
