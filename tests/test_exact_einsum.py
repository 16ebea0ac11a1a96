"""The exact contraction kernel against a reference einsum over Fractions.

The reference is numpy's own ``einsum`` on object arrays of Fractions:
slow, but every sum and product is exact Python arithmetic.  The kernel
must agree with it entry for entry, return a :class:`Tensor` in the
canonical storage (lowest terms, int64 exactly when every numerator is
below ``2**62``) whose entries are canonical (an int, or a Fraction whose
denominator is not 1), choose int64 exactly when its bounds allow and
never hand numpy a float array.
"""
import math
from contextlib import contextmanager
from fractions import Fraction as Fr
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from norden import DimensionMismatch, VarianceMismatch
from norden.tensors import INT64_SAFE, Tensor, einsum_scalar, exact_einsum, exact_sum

LETTERS = "abcd"
PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def _array(values, shape) -> Tensor:
    """A tensor of the given entries, every slot covariant: variance only
    labels a contraction's result, it never changes its entries."""
    arr = np.empty(len(values), dtype=object)
    arr[:] = values
    return Tensor(arr.reshape(shape), "d" * len(shape))


def _fractions(t: Tensor) -> np.ndarray:
    arr = np.empty(t.num.size, dtype=object)
    arr[:] = [Fr(v) for v in t.components.ravel().tolist()]
    return arr.reshape(t.shape)


def _reference(subscripts, *operands):
    return np.einsum(subscripts, *map(_fractions, operands))


@contextmanager
def _contraction_dtypes():
    """Record the dtypes of the arrays the kernel hands to numpy's einsum."""
    seen = []
    real = np.einsum

    def spy(subscripts, *operands, **kwargs):
        seen.append({np.asarray(op).dtype for op in operands})
        return real(subscripts, *operands, **kwargs)

    with mock.patch.object(np, "einsum", spy):
        yield seen


def _assert_canonical(t: Tensor):
    """The storage is in lowest terms and int64 exactly when it fits."""
    nums = t.num.ravel().tolist()
    assert t.den > 0 and math.gcd(t.den, *nums) == 1
    assert any(nums) or t.den == 1
    fits = max(map(abs, nums), default=0) < INT64_SAFE
    assert t.num.dtype == (np.int64 if fits else object)


def _assert_same(result, expected):
    _assert_canonical(result)
    expected = np.asarray(expected, dtype=object)
    assert result.shape == expected.shape
    for got, want in zip(result.components.ravel().tolist(), expected.ravel().tolist()):
        assert got == want
        assert type(got) is int or (type(got) is Fr and got.denominator != 1)


@st.composite
def contractions(draw, values):
    """A random explicit-mode einsum: 1-3 operands over up to four index
    letters of length 1-3, each output letter used at most once."""
    sizes = {ch: draw(st.integers(1, 3)) for ch in LETTERS}
    terms = draw(st.lists(
        st.lists(st.sampled_from(LETTERS), max_size=3, unique=True),
        min_size=1, max_size=3,
    ))
    used = sorted({ch for term in terms for ch in term})
    out = draw(st.permutations(used))[:draw(st.integers(0, len(used)))]
    subscripts = ",".join("".join(t) for t in terms) + "->" + "".join(out)
    operands = []
    for term in terms:
        shape = tuple(sizes[ch] for ch in term)
        count = int(np.prod(shape, dtype=int))
        operands.append(_array(draw(st.lists(values, min_size=count, max_size=count)),
                               shape))
    return subscripts, operands


def _canonical(f: Fr):
    return f.numerator if f.denominator == 1 else f


small = st.one_of(
    st.just(0), st.just(0),
    st.integers(-9, 9),
    st.fractions(min_value=-9, max_value=9, max_denominator=12).map(_canonical),
)
huge = st.one_of(
    st.just(0),
    st.builds(lambda n, p: _canonical(Fr(n, p)),
              st.integers(-10**25, 10**25), st.sampled_from(PRIMES)),
)


@settings(max_examples=200, deadline=None)
@given(contractions(small))
def test_matches_reference_on_small_rationals(case):
    subscripts, operands = case
    expected = _reference(subscripts, *operands)
    with _contraction_dtypes() as seen:
        result = exact_einsum(subscripts, *operands)
    _assert_same(result, expected)
    assert seen == [{np.dtype(np.int64)}]


@settings(max_examples=100, deadline=None)
@given(contractions(huge))
def test_matches_reference_on_huge_numerators_and_coprime_denominators(case):
    subscripts, operands = case
    expected = _reference(subscripts, *operands)
    with _contraction_dtypes() as seen:
        result = exact_einsum(subscripts, *operands)
    _assert_same(result, expected)
    assert seen == [{np.dtype(np.int64)}] or all(s == {np.dtype(object)} for s in seen)


def test_huge_numerators_take_the_python_int_path():
    a = _array([Fr(10**25 + 1, 3), Fr(-(10**25), 7), 0], (3,))
    b = _array([Fr(10**24, 11), 13, Fr(5, 17)], (3,))
    with _contraction_dtypes() as seen:
        result = exact_einsum("i,j->ij", a, b)
    _assert_same(result, _reference("i,j->ij", a, b))
    assert seen == [{np.dtype(object)}]


@pytest.mark.parametrize("top, length, path", [
    (INT64_SAFE - 1, 1, np.int64),      # bound 2**62 - 1
    (INT64_SAFE, 1, object),            # bound 2**62
    (2**61 - 1, 2, np.int64),           # bound 2**62 - 2, result 2**62 - 2
    (2**61, 2, object),                 # bound 2**62
    (INT64_SAFE, 2, object),            # the true result 2**63 overflows int64
])
def test_bound_straddling_two_to_the_62(top, length, path):
    a = _array([top] * length, (length,))
    b = _array([1] * length, (length,))
    with _contraction_dtypes() as seen:
        result = exact_einsum("i,i->", a, b)
    assert result.item() == top * length and type(result.components.item()) is int
    assert seen == [{np.dtype(path)}]
    _assert_canonical(result)


@pytest.mark.parametrize("left, right, path", [
    (2**31, 2**30, np.int64),           # denominator product 2**61
    (2**31, 2**31, object),             # denominator product 2**62
])
def test_denominator_product_straddling_two_to_the_62(left, right, path):
    a = _array([Fr(1, left)], (1,))
    b = _array([Fr(1, right)], (1,))
    with _contraction_dtypes() as seen:
        result = exact_einsum("i,i->", a, b)
    assert result.item() == Fr(1, left * right)
    assert seen == [{np.dtype(path)}]
    _assert_canonical(result)


@settings(max_examples=100, deadline=None)
@given(st.integers(58, 66), st.integers(1, 4), st.data())
def test_bound_decides_the_path(bits, length, data):
    """Random integer vectors whose bound lands on either side of 2**62."""
    ints = st.integers(-(2**bits), 2**bits)
    xs = data.draw(st.lists(ints, min_size=length, max_size=length))
    ys = data.draw(st.lists(ints, min_size=length, max_size=length))
    a, b = _array(xs, (length,)), _array(ys, (length,))
    # An all-zero operand counts as 1 in the kernel's bound.
    bound = max(*map(abs, xs), 1) * max(*map(abs, ys), 1) * length
    with _contraction_dtypes() as seen:
        result = exact_einsum("i,i->", a, b)
    assert result.item() == sum(x * y for x, y in zip(xs, ys))
    assert seen == [{np.dtype(np.int64 if bound < INT64_SAFE else object)}]


def test_zero_operand_gives_canonical_zeros():
    a = _array([10**30, -(10**30)], (2,))
    z = _array([0, 0], (2,))
    result = exact_einsum("i,j,j->i", a, a, z)
    assert result.components.tolist() == [0, 0]
    assert all(type(v) is int for v in result.components)
    assert result.den == 1 and result.is_zero()
    _assert_canonical(result)


def test_ellipsis_and_scalar_outputs():
    gamma = _array([Fr(k, 3) for k in range(27)], (3, 3, 3))
    t = _array([Fr(1, k + 1) for k in range(9)], (3, 3))
    _assert_same(exact_einsum("kim,...m->i...k", gamma, t),
                 _reference("kim,...m->i...k", gamma, t))
    v = _array([Fr(1, 2), 3, 0], (3,))
    assert exact_einsum("i,i->", v, v).item() == Fr(37, 4)
    assert einsum_scalar("i,i->", v, v) == Fr(37, 4)
    assert type(einsum_scalar("i,i->", _array([2], (1,)), _array([3], (1,)))) is Fr


def test_implicit_subscripts_are_rejected():
    v = _array([1, 2], (2,))
    with pytest.raises(ValueError):
        exact_einsum("i,i", v, v)


# --- sums of contractions: exact_sum ---------------------------------------

coefficients = st.one_of(
    st.integers(-3, 3),
    st.builds(lambda n, p: _canonical(Fr(n, p)),
              st.integers(-10**25, 10**25), st.sampled_from(PRIMES)),
)


@st.composite
def sums(draw, values):
    """One to four terms of one random contraction, each with its own
    operands and coefficient."""
    subscripts, operands = draw(contractions(values))
    terms = [(draw(coefficients), subscripts, *operands)]
    for _ in range(draw(st.integers(0, 3))):
        ops = [_array(draw(st.lists(values, min_size=op.num.size, max_size=op.num.size)),
                      op.shape) for op in operands]
        terms.append((draw(coefficients), subscripts, *ops))
    return terms


def _reference_sum(terms):
    return sum(Fr(coef) * _reference(subscripts, *ops) for coef, subscripts, *ops in terms)


@settings(max_examples=100, deadline=None)
@given(sums(st.one_of(small, huge)))
def test_sum_matches_reference_with_huge_coefficients_and_denominators(terms):
    _assert_same(exact_sum(terms), _reference_sum(terms))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(2**60, 2**61 - 1).filter(
                              lambda n: math.gcd(n, math.prod(PRIMES)) == 1),
                          st.sampled_from(PRIMES),
                          st.sampled_from((1, -1))),
                min_size=2, max_size=4, unique_by=lambda part: part[1]))
def test_addition_alone_crosses_the_bound(parts):
    """Each contraction is provably int64 (numerators below 2**61), but
    over the common denominator of two or more distinct primes the terms
    are not: the sum must be promoted to Python ints and stay exact."""
    terms = [(sign, "i->i", _array([Fr(n, p)], (1,))) for n, p, sign in parts]
    den = math.lcm(*(p for _, p, _ in parts))
    assert sum(n * (den // p) for n, p, _ in parts) >= INT64_SAFE
    with _contraction_dtypes() as seen:
        result = exact_sum(terms)
    assert all(s == {np.dtype(np.int64)} for s in seen) and len(seen) == len(parts)
    _assert_same(result, _array([sum(sign * Fr(n, p) for n, p, sign in parts)], (1,))
                 .components)


def test_int64_wraparound_is_never_seen():
    """Three terms of 2**62 - 1 sum to more than int64 holds."""
    top = _array([INT64_SAFE - 1], (1,))
    result = exact_sum([(1, "i->i", top)] * 3)
    assert result.num.dtype == object and result.components.tolist() == [3 * (INT64_SAFE - 1)]
    cancelled = exact_sum([(1, "i->i", top)] * 3 + [(-3, "i->i", top)])
    assert cancelled.is_zero() and cancelled.num.dtype == np.int64 and cancelled.den == 1


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(small, huge), min_size=1, max_size=6), st.data())
def test_two_routes_to_the_same_rationals_are_equal(values, data):
    """``values`` built directly, and as ``a + b`` and ``2 (values / 2)``,
    give equal tensors whose denominator is the least possible one."""
    direct = _array(values, (len(values),))
    other = data.draw(st.lists(st.one_of(small, huge), min_size=len(values),
                               max_size=len(values)))
    a = _array([Fr(v) - Fr(w) for v, w in zip(values, other)], (len(values),))
    b = _array(other, (len(values),))
    by_sum = exact_sum([(1, "i->i", a), (1, "i->i", b)])
    by_halves = exact_sum([(2, "i->i", exact_sum([(Fr(1, 2), "i->i", direct)]))])
    for t in (direct, by_sum, by_halves, a + b):
        assert t == direct
        assert t.den == math.lcm(*(Fr(v).denominator for v in values))
        _assert_canonical(t)


def test_sum_variances_and_shapes_must_agree():
    u = Tensor([1, 2], "u")
    with pytest.raises(VarianceMismatch):
        exact_sum([(1, "i->i", u), (1, "i->i", Tensor([1, 2], "d"))])
    with pytest.raises(DimensionMismatch):
        exact_sum([(1, "i->i", u), (1, "i->i", Tensor([1, 2, 3], "u"))])
    # The output slot takes the variance of the first slot carrying its letter.
    assert exact_einsum("ij,j->i", Tensor([[1, 0], [0, 1]], "ud"), u).variance == "u"
