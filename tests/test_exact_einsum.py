"""The exact contraction kernel against a reference einsum over Fractions.

The reference is numpy's own ``einsum`` on object arrays of Fractions:
slow, but every sum and product is exact Python arithmetic.  The kernel
must agree with it entry for entry, return canonical entries (an int, or
a Fraction whose denominator is not 1), choose int64 exactly when its
bound allows and never hand numpy a float array.
"""
from contextlib import contextmanager
from fractions import Fraction as Fr
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from norden.tensors import INT64_SAFE, einsum_scalar, exact_einsum

LETTERS = "abcd"
PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def _array(values, shape) -> np.ndarray:
    arr = np.empty(len(values), dtype=object)
    arr[:] = values
    return arr.reshape(shape)


def _reference(subscripts, *operands):
    fracs = [_array([Fr(v) for v in np.asarray(op).ravel().tolist()], np.shape(op))
             for op in operands]
    return np.einsum(subscripts, *fracs)


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


def _assert_same(result, expected):
    result = np.asarray(result, dtype=object)
    expected = np.asarray(expected, dtype=object)
    assert result.shape == expected.shape
    for got, want in zip(result.ravel().tolist(), expected.ravel().tolist()):
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
    assert result == top * length and type(result) is int
    assert seen == [{np.dtype(path)}]


@pytest.mark.parametrize("left, right, path", [
    (2**31, 2**30, np.int64),           # denominator product 2**61
    (2**31, 2**31, object),             # denominator product 2**62
])
def test_denominator_product_straddling_two_to_the_62(left, right, path):
    a = _array([Fr(1, left)], (1,))
    b = _array([Fr(1, right)], (1,))
    with _contraction_dtypes() as seen:
        result = exact_einsum("i,i->", a, b)
    assert result == Fr(1, left * right)
    assert seen == [{np.dtype(path)}]


@settings(max_examples=100, deadline=None)
@given(st.integers(58, 66), st.integers(1, 4), st.data())
def test_bound_decides_the_path(bits, length, data):
    """Random integer vectors whose bound lands on either side of 2**62."""
    ints = st.integers(-(2**bits), 2**bits)
    a = _array(data.draw(st.lists(ints, min_size=length, max_size=length)), (length,))
    b = _array(data.draw(st.lists(ints, min_size=length, max_size=length)), (length,))
    # An all-zero operand counts as 1 in the kernel's bound.
    bound = max(*map(abs, a.tolist()), 1) * max(*map(abs, b.tolist()), 1) * length
    with _contraction_dtypes() as seen:
        result = exact_einsum("i,i->", a, b)
    assert result == sum(x * y for x, y in zip(a.tolist(), b.tolist()))
    assert seen == [{np.dtype(np.int64 if bound < INT64_SAFE else object)}]


def test_zero_operand_gives_canonical_zeros():
    a = _array([10**30, -(10**30)], (2,))
    z = _array([0, 0], (2,))
    result = exact_einsum("i,j,j->i", a, a, z)
    assert result.tolist() == [0, 0] and all(type(v) is int for v in result)


def test_ellipsis_and_scalar_outputs():
    gamma = _array([Fr(k, 3) for k in range(27)], (3, 3, 3))
    t = _array([Fr(1, k + 1) for k in range(9)], (3, 3))
    _assert_same(exact_einsum("kim,...m->i...k", gamma, t),
                 _reference("kim,...m->i...k", gamma, t))
    v = _array([Fr(1, 2), 3, 0], (3,))
    assert exact_einsum("i,i->", v, v) == Fr(37, 4)
    assert einsum_scalar("i,i->", v, v) == Fr(37, 4)
    assert type(einsum_scalar("i,i->", _array([2], (1,)), _array([3], (1,)))) is Fr


def test_implicit_subscripts_are_rejected():
    v = _array([1, 2], (2,))
    with pytest.raises(ValueError):
        exact_einsum("i,i", v, v)
