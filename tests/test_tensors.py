"""Exact scalar coercion, Tensor mechanics, and rational linear algebra.

The linear-algebra routines are checked against independent in-test
oracles: adjugate/determinant inversion, eigenvalue signs for small
signatures, and float-precision rank.
"""
import numbers
from collections import Counter
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
    associated_metric,
    einsum_scalar,
    exact_einsum,
    exact_sum,
    format_scalar,
    invert_symmetric,
    matrix_rank,
    row_space_basis,
    signature,
)
from norden import linalg, tensors
from norden.canonical import canonical_json
from norden.errors import DigitLimit
from norden.tensors import _exponent_too_large, as_pair, vector
from zoo import dense_member, family_member

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


def _reference_scalar(value) -> Fr:
    """The reader as it stood before integer pairs: a Fraction for every
    value, strings through ``Fraction``'s own grammar."""
    if isinstance(value, Fr):
        return value
    if isinstance(value, numbers.Rational):
        return Fr(value)
    if isinstance(value, str):
        if _exponent_too_large(value):
            raise ValueError(f"decimal exponent beyond +-4300: {value[:40]!r}")
        try:
            return Fr(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not an exact rational: {value!r}") from exc
    raise TypeError(f"exact rational required, got {type(value).__name__}: {value!r}")


def _outcome(read, value):
    try:
        return read(value)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


#: Decimal digits of other scripts: Arabic-Indic, Devanagari, fullwidth.
_DIGIT_SCRIPTS = [str.maketrans("0123456789", "".join(chr(z + k) for k in range(10)))
                  for z in (0x660, 0x966, 0xFF10)]

_ints = st.one_of(st.integers(-10**6, 10**6), st.integers(-2**200, 2**200))
_signed = st.sampled_from(["", "+", "-", "+-", "--"])
_tokens = st.one_of(
    _ints.map(str),
    st.tuples(_signed, _ints, st.integers(0, 10**30)).map(
        lambda t: f"{t[0]}{abs(t[1])}/{t[2]}"),
    st.tuples(_ints, _ints).map(lambda t: f"{t[0]}/{t[1]}"),       # 3/-4 among them
    st.tuples(_ints, st.sampled_from(_DIGIT_SCRIPTS)).map(lambda t: str(t[0]).translate(t[1])),
    st.sampled_from(["1_000", "1__0", "_1", "1_", "1_0/2_5", "3/4_", " 3/4 ", "3 /4", "3/ 4",
                     "\t5\n", "1.5", ".5", "5.", "-0.25e3", "2E-3", "1e4300", "1e4301",
                     "1e-5000", "1/0", "-0/0", "0/5", "3/-4", "+3/+4", "", " ", "/", "1/2/3",
                     "nan", "inf", "0x10", "1" * 4300, "1" * 4301, "1/" + "1" * 4301,
                     "-" + "9" * 4301 + "/7", "\u0663/\u0664", "\uff11\uff10/\uff13"]),
    st.text(alphabet="0123456789+-/._ eE\u0663", max_size=8),
)
_values = st.one_of(
    _tokens,
    _ints,
    st.fractions(),
    st.integers(-2**62, 2**62).map(np.int64),
    st.floats(),
    st.booleans(),
    st.none(),
    st.just([1]),
)


@settings(max_examples=1000, deadline=None)
@given(_values)
def test_pair_reader_agrees_with_the_fraction_reference(value):
    """The pair reader and ``as_scalar`` on top of it give the reference's
    value, or raise its exception type with its message."""
    expected = _outcome(_reference_scalar, value)
    pair = _outcome(as_pair, value)
    if isinstance(expected, Fr):
        p, q = pair
        assert type(p) is int and type(q) is int and q > 0
        assert Fr(p, q) == expected
    else:
        assert pair == expected
    assert _outcome(as_scalar, value) == expected


def test_format_scalar():
    assert format_scalar(Fr(3)) == "3"
    assert format_scalar(Fr(-3, 4)) == "-3/4"
    assert format_scalar(2) == "2"


def test_text_past_the_digit_limit_is_refused_by_size():
    """Each part of a scalar, each reduced entry of a tensor and a JSON
    leaf's numerators and ``den`` are checked against Python's limit by
    size, before any text is built.  Entries over a ``den`` past the limit
    format when each reduces below it; the JSON leaf, which writes ``den``
    itself, does not.  The error is also a ``ValueError``, as Python's."""
    top = 10 ** 4300
    assert len(format_scalar(Fr(-(top - 1), top - 2))) == 8602
    for value in (top, -top, Fr(1, top), Fr(top, 3)):
        with pytest.raises(DigitLimit, match="more than 4300 digits"):
            format_scalar(value)
    with pytest.raises(ValueError):
        format_scalar(top)
    with pytest.raises(DigitLimit):
        Tensor([top, 1], "u").formatted()
    a, b = 10 ** 2200 + 1, 10 ** 2200 + 3       # odd and 2 apart: coprime
    split = Tensor([Fr(1, a), Fr(1, b)], "u")
    assert split.den == a * b >= top
    assert split.formatted() == [f"1/{a}", f"1/{b}"]
    with pytest.raises(DigitLimit):
        canonical_json(split)


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
    assert a.__eq__(a.components) is NotImplemented and a != a.components.tolist()
    assert repr(c) == "Tensor(variance='dd', shape=(2, 2))"
    assert not Tensor([0, 0], "u").components.any()
    assert Tensor([0, 0], "u").is_zero()
    assert not a.is_zero()


def test_tensor_arithmetic():
    a = Tensor([1, 2], "u")
    b = Tensor([3, -1], "u")
    assert exact_sum([(1, "i->i", a), (1, "i->i", b)]) == Tensor([4, 1], "u")
    assert exact_sum([(1, "i->i", a), (-1, "i->i", b)]) == Tensor([-2, 3], "u")
    assert exact_sum([(-1, "i->i", a)]) == Tensor([-1, -2], "u")
    assert exact_sum([(Fr(1, 2), "i->i", a)]) == Tensor([Fr(1, 2), 1], "u")
    assert exact_sum([(2, "i->i", a)]) == Tensor([2, 4], "u")
    with pytest.raises(VarianceMismatch):
        exact_sum([(1, "i->i", a), (1, "i->i", Tensor([1, 2], "d"))])
    with pytest.raises(DimensionMismatch):
        exact_sum([(1, "i->i", a), (1, "i->i", Tensor([1, 2, 3], "u"))])
    with pytest.raises(TypeError):
        a + 1


def test_tensor_has_no_arithmetic():
    """Every operator is a ``TypeError``; the matching ``exact_sum`` gives
    what the operator gave."""
    a = Tensor([1, Fr(2, 3)], "u")
    b = Tensor([Fr(-1, 3), 5], "u")
    for op in (lambda: a + b, lambda: a - b, lambda: 2 * a, lambda: a * 2, lambda: -a):
        with pytest.raises(TypeError):
            op()
    assert exact_sum([(1, "i->i", a), (1, "i->i", b)]) == Tensor([Fr(2, 3), Fr(17, 3)], "u")
    assert exact_sum([(1, "i->i", a), (-1, "i->i", b)]) == Tensor([Fr(4, 3), Fr(-13, 3)], "u")
    assert exact_sum([(2, "i->i", a)]) == Tensor([2, Fr(4, 3)], "u")
    assert exact_sum([(-1, "i->i", a)]) == Tensor([-1, Fr(-2, 3)], "u")
    minus_a = exact_sum([(-1, "i->i", a)])      # a == -minus_a, as one sum
    assert exact_sum([(1, "i->i", a), (1, "i->i", minus_a)]).is_zero()
    with pytest.raises(AttributeError):
        exact_sum([(1, "i->i", a), (1, "i->i", 1)])


def test_tensor_item_and_nonzero_items():
    t = Tensor([[0, Fr(1, 2)], [0, 0]], "ud")
    assert t.nonzero_items() == [((0, 1), Fr(1, 2))]
    r0 = exact_einsum("ii->", Tensor([[1, 0], [0, 1]], "ud"))
    assert r0.rank == 0 and r0.item() == 2


@pytest.mark.parametrize("values", [
    [Fr(1, 2), Fr(1, 3), 0, 5],             # int32 numerators, den 6
    [Fr(1, 2**70), Fr(-3, 2**69), 0],       # int32 numerators, den past int64
    [Fr(10**25, 7), Fr(-1, 14), 2],         # Python-int numerators
    [Fr(1, 3 * 2**31), Fr(-5, 2**33), 0],   # int32 numerators, den past int32
    [Fr(2**40, 3), Fr(1, 2), 0],            # int64 numerators, den 6
])
def test_formatted_reduces_each_entry_like_format_scalar(values):
    t = Tensor(values, "u")
    assert t.formatted() == [format_scalar(v) for v in values]
    assert t.formatted(t.num != 0) == [format_scalar(v) for v in values if v]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from([0, 1, -1, 7, -7, Fr(1, 2), Fr(-1, 2), Fr(-9, 4), 3 * 2**61,
                                 -(2**64), Fr(5, 2**63), Fr(-5, 2**63)]),
                min_size=1, max_size=24),
       st.sampled_from([1, 2, 3, 3 * 2**31, 2**63]))
def test_formatted_formats_repeated_values_like_format_scalar(values, scale):
    """Each distinct numerator is formatted once and copied to every entry
    that holds it: the texts still match ``format_scalar`` entry by entry,
    whatever the repeats, signs, denominator and storage."""
    entries = [Fr(v) / scale for v in values]
    t = Tensor(entries, "u")
    assert t.formatted() == [format_scalar(v) for v in entries]
    assert t.formatted(t.num < 0) == [format_scalar(v) for v in entries if v < 0]
    assert t.formatted(t.num == t.num.flat[0]) == [format_scalar(entries[0])] * sum(
        v == entries[0] for v in entries)


@st.composite
def _masked_entries(draw):
    """Entries ``p / den`` with their storage, int32, int64 or object, and
    a mask of the same length, which may be all false."""
    huge = draw(st.booleans())
    nums = st.integers(-12, 12) | st.sampled_from([2**40, -(2**61) + 1])
    if huge:
        nums = nums | st.sampled_from([2**62, -(10**30), 3 * 10**25])
    values = draw(st.lists(nums, min_size=1, max_size=30))
    den = draw(st.sampled_from([1, 2, 6, 36, 5 * 2**33, 2**63, 3 * 2**64, 10**30]))
    mask = draw(st.lists(st.booleans(), min_size=len(values), max_size=len(values)))
    return [Fr(v, den) for v in values], np.array(mask, dtype=bool)


@settings(max_examples=150, deadline=None)
@given(_masked_entries())
def test_formatted_selection_matches_format_scalar(case):
    """``formatted(where)`` is ``format_scalar`` of each selected entry, in
    order, whether the numerators are int32, int64 or Python ints, whether
    the denominator fits int32, int64 or neither, and for an empty
    selection."""
    entries, mask = case
    t = Tensor(entries, "u")
    assert t.formatted(mask) == [format_scalar(v) for v, m in zip(entries, mask) if m]
    assert t.formatted(np.zeros_like(mask)) == []
    assert t.formatted() == [format_scalar(v) for v in entries]


# --- products and contractions ------------------------------------------

def test_tensor_product_concatenates_variance():
    a = Tensor([1, 2], "u")
    b = Tensor([3, 4], "d")
    p = exact_einsum("i,j->ij", a, b)
    assert p.variance == "ud"
    assert p[1, 0] == 6


def test_contract_trace():
    t = Tensor([[1, 2], [3, 4]], "ud")
    assert exact_einsum("ii->", t).item() == 5


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


def _fraction_signature(rows) -> tuple[int, int, int]:
    """The reference: the same symmetric congruence elimination on
    Fractions, taking each Schur complement by division by the pivot."""
    a = [[Fr(v) for v in row] for row in rows]
    n = len(a)
    plus = minus = 0
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][i]), None)
        if pivot is None:
            pair = next(((i, j) for i in range(k, n) for j in range(i + 1, n) if a[i][j]),
                        None)
            if pair is None:
                break
            i, j = pair
            for c in range(k, n):
                a[i][c] += a[j][c]
            for r in range(k, n):
                a[r][i] += a[r][j]
            pivot = i
        a[k], a[pivot] = a[pivot], a[k]
        for row in a:
            row[k], row[pivot] = row[pivot], row[k]
        plus, minus = (plus + 1, minus) if a[k][k] > 0 else (plus, minus + 1)
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            if f:
                a[i][k:] = [x - f * y for x, y in zip(a[i][k:], a[k][k:])]
    return plus, minus, n - plus - minus


@st.composite
def symmetric_forms(draw):
    """Symmetric integer forms up to 7x7: random entries, some with a zero
    diagonal, or singular ones ``A D A^T`` with fewer columns in ``A``
    than rows."""
    n = draw(st.integers(1, 7))
    if draw(st.booleans()):
        r = draw(st.integers(0, n - 1))
        a = draw(st.lists(st.lists(st.integers(-3, 3), min_size=r, max_size=r),
                          min_size=n, max_size=n))
        d = draw(st.lists(st.integers(-2, 2), min_size=r, max_size=r))
        return [[sum(a[i][k] * d[k] * a[j][k] for k in range(r)) for j in range(n)]
                for i in range(n)]
    entries = st.one_of(st.just(0), st.integers(-3, 3), st.integers(-10**6, 10**6))
    zero_diagonal = draw(st.booleans())
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + zero_diagonal, n):
            m[i][j] = m[j][i] = draw(entries)
    return m


@settings(max_examples=300, deadline=None)
@given(symmetric_forms())
def test_signature_matches_the_fraction_elimination(m):
    assert signature(Tensor(m, "dd")) == _fraction_signature(m)


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


def _fraction_row_space_basis(rows) -> list[list[Fr]]:
    """The reference: Gauss-Jordan on Fractions, one row at a time, each
    new pivot row scaled to a leading 1 and cleared from the rows above."""
    basis: list[list[Fr]] = []
    pivots: list[int] = []
    for raw in rows:
        row = [Fr(v) for v in raw]
        for prow, pcol in zip(basis, pivots):
            f = row[pcol]
            if f != 0:
                row = [a - f * b for a, b in zip(row, prow)]
        pcol = next((i for i, v in enumerate(row) if v != 0), None)
        if pcol is None:
            continue
        d = row[pcol]
        row = [v / d for v in row]
        for t in range(len(basis)):
            f = basis[t][pcol]
            if f != 0:
                basis[t] = [a - f * b for a, b in zip(basis[t], row)]
        basis.append(row)
        pivots.append(pcol)
    order = sorted(range(len(basis)), key=lambda i: pivots[i])
    return [basis[i] for i in order]


@st.composite
def rank_deficient_matrices(draw):
    """Rational ``m x n`` matrices ``B C`` with ``B`` of ``r`` columns,
    ``r`` up to ``min(m, n)``, so most are rank-deficient."""
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    r = draw(st.integers(0, min(m, n)))
    small = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    b = draw(st.lists(st.lists(small, min_size=r, max_size=r), min_size=m, max_size=m))
    c = draw(st.lists(st.lists(small, min_size=n, max_size=n), min_size=r, max_size=r))
    return [[sum((b[i][k] * c[k][j] for k in range(r)), Fr(0)) for j in range(n)]
            for i in range(m)]


@settings(max_examples=200, deadline=None)
@given(rank_deficient_matrices())
def test_row_space_basis_matches_the_fraction_elimination(rows):
    basis = row_space_basis(rows)
    assert basis == _fraction_row_space_basis(rows)
    assert all(type(v) is Fr for row in basis for v in row)
    assert matrix_rank(rows) == len(basis)


def test_row_space_basis_checks_row_lengths():
    assert row_space_basis([]) == []
    with pytest.raises(DimensionMismatch):
        matrix_rank([[1, 2], [3]])
    with pytest.raises(DimensionMismatch):
        row_space_basis([[1], [2, 3]])


# --- the fraction-free eliminations against Fraction references ----------

def _fraction_inverse(rows) -> list[list[Fr]] | None:
    """The reference inverse: Gauss-Jordan on Fractions, each pivot row
    scaled to a leading 1; None when a column has no pivot."""
    n = len(rows)
    m = [[Fr(v) for v in row] + [Fr(int(i == j)) for j in range(n)]
         for i, row in enumerate(rows)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        m[col] = [v / m[col][col] for v in m[col]]
        for r in range(n):
            f = m[r][col]
            if r != col and f:
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return [row[n:] for row in m]


_small = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=5))
_past_int64 = st.builds(lambda v, sign, den: Fr(sign * v, den), st.integers(2**62, 2**80),
                        st.sampled_from([1, -1]), st.sampled_from([1, 3]))


@st.composite
def symmetric_matrices(draw):
    """Symmetric rational matrices up to 7x7 of five kinds: dense; sparse,
    mostly zero off the diagonal like a metric in its own basis; with a
    zero diagonal, so that the signature needs ``e_i <- e_i + e_j``; a
    scaled, signed involution like the twin metric of the family; and
    singular ``A D A^T`` with fewer columns in ``A`` than rows.  Half of
    them draw entries past ``2**62`` too."""
    n = draw(st.integers(1, 7))
    entry = st.one_of(_small, _past_int64) if draw(st.booleans()) else _small
    nonzero = entry.filter(bool)
    kind = draw(st.sampled_from(["dense", "sparse", "zero_diagonal", "involution",
                                 "singular"]))
    m = [[Fr(0)] * n for _ in range(n)]
    if kind == "involution":
        order = draw(st.permutations(range(n)))
        pairs = draw(st.integers(0, n // 2))
        for k in range(pairs):
            i, j = order[2 * k], order[2 * k + 1]
            m[i][j] = m[j][i] = draw(nonzero)
        for i in order[2 * pairs:]:
            m[i][i] = draw(nonzero)
    elif kind == "singular":
        r = draw(st.integers(0, n - 1))
        a = draw(st.lists(st.lists(st.integers(-2, 2), min_size=r, max_size=r),
                          min_size=n, max_size=n))
        d = draw(st.lists(nonzero, min_size=r, max_size=r))
        m = [[sum((a[i][k] * d[k] * a[j][k] for k in range(r)), Fr(0)) for j in range(n)]
             for i in range(n)]
    else:
        for i in range(n):
            for j in range(i + (kind == "zero_diagonal"), n):
                if i == j or kind != "sparse" or draw(st.integers(0, 3)) == 0:
                    m[i][j] = m[j][i] = draw(entry)
    return m


@settings(max_examples=300, deadline=None)
@given(symmetric_matrices())
def test_invert_symmetric_matches_the_fraction_inverse(rows):
    want = _fraction_inverse(rows)
    if want is None:
        with pytest.raises(SingularMetric):
            invert_symmetric(Tensor(rows, "dd"))
    else:
        assert invert_symmetric(Tensor(rows, "dd")).components.tolist() == want


@settings(max_examples=300, deadline=None)
@given(symmetric_matrices())
def test_signature_and_row_space_match_the_fraction_references(rows):
    basis = _fraction_row_space_basis(rows)
    plus, minus, null = signature(Tensor(rows, "dd"))
    assert (plus, minus, null) == _fraction_signature(rows)
    assert null == len(rows) - len(basis)
    assert row_space_basis(rows) == basis


@pytest.mark.parametrize("rows", [
    [[2, 3, -1], [3, 3, -1], [-1, -1, 0]],
    [[-2, -2, -1, 0, 0], [-2, 1, -1, -1, -2], [-1, -1, 0, -1, 0], [0, -1, -1, 2, 0],
     [0, -2, 0, 0, -1]],
])
def test_a_stale_row_is_rescaled_by_a_ratio_that_need_not_be_an_integer(rows):
    """In each matrix a row goes stale under one pivot and is read under
    another that is not a multiple of it: rescaling by ``prev // since``
    instead of ``v * prev // since`` gives a wrong inverse for the first
    and a wrong signature, ``(2, 2, 1)``, for the second."""
    want = _fraction_inverse(rows)
    assert invert_symmetric(Tensor(rows, "dd")).components.tolist() == want
    assert signature(Tensor(rows, "dd")) == _fraction_signature(rows)


@pytest.fixture
def row_rewrites(monkeypatch) -> Counter:
    """Count the rows that the eliminations write anew: a store into the
    matrix of a list it has not held (a swap stores rows it holds), or a
    slice store into one of its rows (an entry store is a column step)."""
    seen = Counter()

    class Row(list):
        def __setitem__(self, key, value):
            seen["rows"] += isinstance(key, slice)
            super().__setitem__(key, value)

    class Matrix(list):
        def __init__(self, rows):
            super().__init__(map(Row, rows))
            self.held = list(self)      # keeps each id unique

        def __setitem__(self, i, row):
            if not any(row is held for held in self.held):
                seen["rows"] += 1
                row = Row(row)
                self.held.append(row)
            super().__setitem__(i, row)

    gauss_jordan, numerators = linalg._gauss_jordan, linalg._symmetric_numerators

    def counted_gauss_jordan(m):
        spy = Matrix(m)
        out = gauss_jordan(spy)
        m[:] = spy
        return out

    monkeypatch.setattr(linalg, "_gauss_jordan", counted_gauss_jordan)
    monkeypatch.setattr(linalg, "_symmetric_numerators",
                        lambda t, name: Matrix(numerators(t, name)))
    return seen


def test_the_family_metric_and_its_twin_rewrite_at_most_two_rows_per_index(row_rewrites):
    """A row whose multiplier is zero is rescaled when it is next read, so
    the diagonal metric of the family at dim 13 and its twin, a signed
    involution, rewrite at most ``2 * 13`` rows in each elimination.
    Rewriting every other row at every pivot took 156 for the inverse and
    78 for each signature."""
    model = family_member(6)
    d = model.dim
    counts = []
    for run in (lambda: invert_symmetric(model.g), lambda: signature(model.g),
                lambda: signature(associated_metric(model))):
        row_rewrites.clear()
        run()
        counts.append(row_rewrites["rows"])
    assert max(counts) <= 2 * d, counts


@pytest.mark.parametrize("n", [3, 5])
def test_a_dense_metric_rewrites_the_rows_of_the_textbook_elimination(row_rewrites, n):
    """When no multiplier is zero, no row goes stale, so the eliminations
    rewrite exactly the rows that the textbook forms do: every other row
    at each pivot of Gauss-Jordan, each row below the pivot in the
    signature, and nothing more."""
    g = dense_member(n).g
    d = g.shape[0]
    row_rewrites.clear()                # building the model validates it
    invert_symmetric(g)
    assert row_rewrites["rows"] == d * (d - 1)
    row_rewrites.clear()
    signature(g)
    assert row_rewrites["rows"] == d * (d - 1) // 2


# --- einsum helper and vectors ------------------------------------------

def test_einsum_scalar_returns_fraction():
    a = Tensor([1, 2, 3], "u")
    out = einsum_scalar("i,i->", a, a)
    assert isinstance(out, Fr) and out == 14


def test_vector_components_checks():
    assert list(vector([1, "1/2"], 2).components) == [1, Fr(1, 2)]
    assert vector([1, "1/2"], 2) == Tensor([1, Fr(1, 2)], "u")
    u = Tensor([1, 2], "u")
    assert vector(u, 2) is u
    with pytest.raises(VarianceMismatch, match="must be a vector"):
        vector(Tensor([1, 2], "d"), 2)
    with pytest.raises(DimensionMismatch, match="x has length 3, expected 2"):
        vector([1, 2, 3], 2, name="x")
    with pytest.raises(DimensionMismatch, match="must be rank 1, got rank 2"):
        vector(Tensor([[1, 0], [0, 1]], "ud"), 2)
    with pytest.raises(DimensionMismatch, match="one-dimensional"):
        vector([[1, 0], [0, 1]], 2)


@settings(max_examples=15, deadline=None)
@given(st.lists(rationals, min_size=2, max_size=2), st.lists(rationals, min_size=2, max_size=2))
def test_tensor_addition_is_componentwise(xs, ys):
    s = exact_sum([(1, "i->i", Tensor(xs, "u")), (1, "i->i", Tensor(ys, "u"))])
    assert list(s.components) == [x + y for x, y in zip(xs, ys)]
