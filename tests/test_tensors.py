"""Exact scalar coercion, Tensor mechanics, and rational linear algebra.

The linear-algebra routines are checked against independent in-test
oracles: adjugate/determinant inversion, eigenvalue signs for small
signatures, and float-precision rank.
"""
from fractions import Fraction as Fr

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from norden import (
    DimensionMismatch,
    SingularMetric,
    Tensor,
    VarianceMismatch,
    as_scalar,
    contract,
    einsum_scalar,
    format_scalar,
    invert_symmetric,
    matrix_rank,
    row_space_basis,
    signature,
    tensor_product,
)
from norden.tensors import as_entry, scalar_array, vector_components, zeros_array

rationals = st.fractions(
    min_value=-20, max_value=20, max_denominator=12
)


# --- scalar coercion ----------------------------------------------------

def test_as_scalar_accepts_exact_inputs():
    assert as_scalar(Fr(3, 4)) == Fr(3, 4)
    assert as_scalar(7) == Fr(7)
    assert as_scalar(np.int64(5)) == Fr(5)
    assert as_scalar("-3/4") == Fr(-3, 4)
    assert as_scalar(" 2/6 ") == Fr(1, 3)


def test_as_scalar_rejects_floats_and_junk():
    with pytest.raises(TypeError):
        as_scalar(0.5)
    with pytest.raises(TypeError):
        as_scalar(np.float64(1.0))
    with pytest.raises(ValueError):
        as_scalar("0.5x")
    with pytest.raises(ValueError):
        as_scalar("1/0")
    with pytest.raises(TypeError):
        as_scalar(None)


def test_as_scalar_caps_decimal_exponents():
    assert as_scalar("1e3") == 1000
    assert as_scalar("-1.5E-2") == Fr(-3, 200)
    assert as_scalar("1e4300") == 10 ** 4300
    assert as_scalar(" 2e-0_4300 ") == Fr(2, 10 ** 4300)
    for text in ("1e4301", "1e-4301", "1e1000000", "1E+1_000_000", "1e" + "9" * 10_000):
        with pytest.raises(ValueError, match="exponent"):
            as_scalar(text)


def test_as_entry_keeps_integers_plain():
    assert as_entry(3) is not None and type(as_entry(3)) is int
    assert type(as_entry(Fr(4, 2))) is int and as_entry(Fr(4, 2)) == 2
    assert type(as_entry(Fr(1, 3))) is Fr
    assert type(as_entry("6/3")) is int and as_entry("6/3") == 2


def test_format_scalar():
    assert format_scalar(Fr(3)) == "3"
    assert format_scalar(Fr(-3, 4)) == "-3/4"
    assert format_scalar(2) == "2"


def test_scalar_array_and_zeros():
    arr = scalar_array([[1, "1/2"], [Fr(2, 1), -3]])
    assert arr.dtype == object
    assert arr[0, 1] == Fr(1, 2)
    assert type(arr[1, 0]) is int
    z = zeros_array((2, 2))
    assert np.all(z == 0)


# --- Tensor basics ------------------------------------------------------

def test_tensor_variance_validation():
    with pytest.raises(VarianceMismatch):
        Tensor([[1, 0], [0, 1]], "u")
    with pytest.raises(VarianceMismatch):
        Tensor([1, 0], "x")


def test_tensor_immutability():
    t = Tensor([1, 2], "u")
    with pytest.raises(AttributeError):
        t.variance = "d"
    with pytest.raises(ValueError):
        t.components[0] = 5


def test_tensor_equality_and_zero():
    a = Tensor([[1, 0], [0, 1]], "ud")
    b = Tensor([[1, 0], [0, 1]], "ud")
    c = Tensor([[1, 0], [0, 1]], "dd")
    assert a == b
    assert a != c          # same entries, different variance
    assert not Tensor([0, 0], "u").components.any()
    assert Tensor([0, 0], "u").is_zero()
    assert not a.is_zero()


def test_tensor_arithmetic():
    a = Tensor([1, 2], "u")
    b = Tensor([3, -1], "u")
    assert (a + b) == Tensor([4, 1], "u")
    assert (a - b) == Tensor([-2, 3], "u")
    assert (-a) == Tensor([-1, -2], "u")
    assert (a * Fr(1, 2)) == Tensor([Fr(1, 2), 1], "u")
    assert (2 * a) == Tensor([2, 4], "u")
    with pytest.raises(VarianceMismatch):
        a + Tensor([1, 2], "d")
    with pytest.raises(DimensionMismatch):
        a + Tensor([1, 2, 3], "u")
    with pytest.raises(TypeError):
        a + 1


def test_tensor_item_and_nonzero_items():
    t = Tensor([[0, Fr(1, 2)], [0, 0]], "ud")
    assert t.nonzero_items() == [((0, 1), Fr(1, 2))]
    r0 = contract(Tensor([[1, 0], [0, 1]], "ud"), 0, 1)
    assert r0.rank == 0 and r0.item() == 2


# --- products and contractions ------------------------------------------

def test_tensor_product_concatenates_variance():
    a = Tensor([1, 2], "u")
    b = Tensor([3, 4], "d")
    p = tensor_product(a, b)
    assert p.variance == "ud"
    assert p[1, 0] == 6


def test_contract_requires_up_down():
    t = Tensor([[1, 2], [3, 4]], "uu")
    with pytest.raises(VarianceMismatch):
        contract(t, 0, 1)
    with pytest.raises(VarianceMismatch):
        contract(Tensor([[1, 2], [3, 4]], "ud"), 1, 1)


def test_contract_trace():
    t = Tensor([[1, 2], [3, 4]], "ud")
    assert contract(t, 0, 1).item() == 5


# --- inverse ------------------------------------------------------------

def _adjugate_inverse(rows):
    """Independent inverse oracle: adjugate over determinant, 3x3."""
    (a, b, c), (d, e, f), (g, h, i) = rows
    det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    cof = [
        [e * i - f * h, -(b * i - c * h), b * f - c * e],
        [-(d * i - f * g), a * i - c * g, -(a * f - c * d)],
        [d * h - e * g, -(a * h - b * g), a * e - b * d],
    ]
    return [[cof[r][s] / det for s in range(3)] for r in range(3)]


def test_invert_symmetric_against_adjugate_oracle():
    rows = [
        [Fr(2), Fr(1, 2), Fr(0)],
        [Fr(1, 2), Fr(-1), Fr(3)],
        [Fr(0), Fr(3), Fr(5, 7)],
    ]
    inv = invert_symmetric(Tensor(rows, "dd"))
    assert inv.variance == "uu"
    oracle = _adjugate_inverse(rows)
    for i in range(3):
        for j in range(3):
            assert inv[i, j] == oracle[i][j]


def test_invert_symmetric_identity_contraction():
    g = Tensor([[1, 2], [2, 1]], "dd")
    ginv = invert_symmetric(g)
    prod = np.einsum("ia,aj->ij", ginv.components, g.components)
    assert np.all(prod == np.eye(2, dtype=object))


def test_invert_symmetric_rejects_degenerate_and_asymmetric():
    with pytest.raises(SingularMetric):
        invert_symmetric(Tensor([[1, 1], [1, 1]], "dd"))
    with pytest.raises(ValueError):
        invert_symmetric(Tensor([[1, 2], [3, 1]], "dd"))
    with pytest.raises(DimensionMismatch):
        invert_symmetric(Tensor([1, 2], "d"))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.lists(
    st.one_of(st.integers(-3, 3), rationals), min_size=n * (n + 1) // 2,
    max_size=n * (n + 1) // 2).map(lambda upper: (n, upper))))
def test_invert_symmetric_against_sympy(case):
    """Fraction-free elimination agrees with sympy's inverse, including on
    forms with zero diagonal entries (row swaps) and singular ones."""
    n, upper = case
    rows = [[Fr(0)] * n for _ in range(n)]
    entries = iter(upper)
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = Fr(next(entries))
    m = sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in row]
                      for row in rows])
    if m.det() == 0:
        with pytest.raises(SingularMetric):
            invert_symmetric(Tensor(rows, "dd"))
        return
    inv = invert_symmetric(Tensor(rows, "dd"))
    want = m.inv()
    assert inv.components.tolist() == [
        [Fr(int(want[i, j].p), int(want[i, j].q)) for j in range(n)] for i in range(n)
    ]


# --- signature ----------------------------------------------------------

def test_signature_diagonal_and_degenerate():
    assert signature(Tensor([[1, 0], [0, -1]], "dd")) == (1, 1, 0)
    assert signature(Tensor([[1, 0, 0], [0, 1, 0], [0, 0, 0]], "dd")) == (2, 0, 1)
    assert signature(Tensor([[0, 0], [0, 0]], "dd")) == (0, 0, 2)


def test_signature_zero_diagonal_hyperbolic_plane():
    # eigenvalues of [[0,1],[1,0]] are +1 and -1
    assert signature(Tensor([[0, 1], [1, 0]], "dd")) == (1, 1, 0)


def test_signature_dense_cross_terms():
    """Congruent to diag(-2, -2, 1); elimination must keep reading the
    untouched pivot row while reducing later rows."""
    m = [[-2, -2, -2], [-2, -4, 0], [-2, 0, -3]]
    assert signature(Tensor(m, "dd")) == (1, 2, 0)


@settings(max_examples=15, deadline=None)
@given(
    diag=st.lists(st.sampled_from([-2, -1, 1, 3]), min_size=3, max_size=3),
    shear=st.lists(st.integers(min_value=-2, max_value=2), min_size=3, max_size=3),
)
def test_signature_invariant_under_congruence(diag, shear):
    """Sylvester's law: congruence by a unimodular matrix preserves it."""
    d = np.diag(np.array(diag, dtype=object))
    p, q, r = shear
    u = np.array([[1, p, q], [0, 1, r], [0, 0, 1]], dtype=object)  # det 1
    m = u.T @ d @ u
    expected = (sum(1 for v in diag if v > 0), sum(1 for v in diag if v < 0), 0)
    assert signature(Tensor(m, "dd")) == expected


# --- row space / rank ---------------------------------------------------

def test_row_space_basis_is_rref():
    basis = row_space_basis([[2, 4, 0], [1, 2, 1], [3, 6, 1]])
    assert basis == [[1, 2, 0], [0, 0, 1]]


def test_matrix_rank_small_cases():
    assert matrix_rank([[0, 0], [0, 0]]) == 0
    assert matrix_rank([[1, 2], [2, 4]]) == 1
    assert matrix_rank([[1, 0], [0, 1]]) == 2


@settings(max_examples=20, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(min_value=-4, max_value=4), min_size=3, max_size=3),
        min_size=1,
        max_size=4,
    )
)
def test_matrix_rank_matches_float_oracle(rows):
    exact = matrix_rank(rows)
    float_rank = np.linalg.matrix_rank(np.array(rows, dtype=float))
    assert exact == float_rank


# --- einsum helper and vectors ------------------------------------------

def test_einsum_scalar_returns_fraction():
    a = Tensor(scalar_array([1, 2, 3]), "u")
    out = einsum_scalar("i,i->", a, a)
    assert isinstance(out, Fr) and out == 14


def test_vector_components_checks():
    assert list(vector_components([1, "1/2"], 2)) == [1, Fr(1, 2)]
    assert list(vector_components(Tensor([1, 2], "u"), 2)) == [1, 2]
    with pytest.raises(DimensionMismatch):
        vector_components([1, 2, 3], 2)
    with pytest.raises(DimensionMismatch):
        vector_components(Tensor([[1, 0], [0, 1]], "ud"), 2)


@settings(max_examples=15, deadline=None)
@given(st.lists(rationals, min_size=2, max_size=2), st.lists(rationals, min_size=2, max_size=2))
def test_tensor_addition_is_componentwise(xs, ys):
    s = Tensor(xs, "u") + Tensor(ys, "u")
    assert list(s.components) == [x + y for x, y in zip(xs, ys)]
