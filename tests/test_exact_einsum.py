"""The exact contraction kernel against a reference einsum over Fractions.

The reference is numpy's own ``einsum`` on object arrays of Fractions:
slow, but every sum and product is exact Python arithmetic.  The kernel
must agree with it entry for entry, return a :class:`Tensor` in the
canonical storage (lowest terms, int32 exactly when every numerator is
below ``2**31``, else int64 exactly when every numerator is below
``2**62``) whose entries are canonical (an int, or a Fraction whose
denominator is not 1), run each step on Python ints or the residue route
exactly when its own bound reaches ``2**62`` and in int32 only when it is
below ``2**31``, and never hand numpy a float array.
"""
import itertools
import math
from fractions import Fraction as Fr

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from norden import DimensionMismatch, VarianceMismatch
from norden.geometry import _vanishes
from norden.tensors import (
    _PRIMES,
    _primes,
    INT32_SAFE,
    INT64_SAFE,
    Tensor,
    einsum_scalar,
    exact_einsum,
    exact_sum,
    nonzero_where,
)
from probe import kernel_probe

LETTERS = "abcd"
PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def _array(values, shape) -> Tensor:
    """A tensor of the given entries, every slot covariant: variance only
    labels a contraction's result, it never changes its entries."""
    arr = np.empty(len(values), dtype=object)
    arr[:] = values
    return Tensor(arr.reshape(shape), "d" * len(shape))


def _dtype(bound: int) -> np.dtype:
    """The dtype of numerators whose magnitudes are at most ``bound``."""
    return np.dtype(np.int32 if bound < INT32_SAFE else np.int64 if bound < INT64_SAFE
                    else object)


def _pair(summed: int, operands: int) -> tuple[int, ...]:
    """The primes of a step of ``operands`` operands that sums ``summed``
    products: the pair below ``2**b`` for ``b = (63 + operands -
    summed.bit_length()) // operands``, at most 32."""
    return _PRIMES.get(min((63 + operands - summed.bit_length()) // operands, 32), ())


def _step_dtype(bound: int, summed: int, top: int, operands: int = 2) -> np.dtype:
    """The dtype a step runs in when its bound, rebuilt from exact
    magnitudes past ``2**62``, is ``bound``, it has ``operands`` operands
    and sums ``summed`` products, and its exact result's largest magnitude
    is ``top``: the dtype of the bound below ``2**62``.  Past it, uint64
    on the residue route when at most the two primes of its pair, beside
    ``2**64``, cover ``bound + 2**63`` and the result is below ``2**63``;
    else Python ints."""
    if bound < INT64_SAFE:
        return _dtype(bound)
    pair = _pair(summed, operands)
    covered = any(bound + 2**63 < 2**64 * math.prod(pair[:k]) for k in range(len(pair) + 1))
    return np.dtype(np.uint64 if covered and top < 2**63 else object)


def _fractions(t: Tensor) -> np.ndarray:
    arr = np.empty(t.num.size, dtype=object)
    arr[:] = [Fr(v) for v in t.components.ravel().tolist()]
    return arr.reshape(t.shape)


def _reference(subscripts, *operands):
    return np.einsum(subscripts, *map(_fractions, operands))


def _assert_each_call_picks_by_its_bound(steps):
    """Each step of a probe record runs on Python ints or on the residue
    route exactly when its own bound, recomputed from its operands' values,
    reaches ``2**62``, and in int32 only when that bound is below ``2**31``.
    The residue route proves its result with at most two primes (dtype
    ``uint64``), or falls back to Python ints.  The first step, on stored
    operands, picks the dtype of its bound; a later one picks by the bound
    an intermediate carries, so it may run in int64 below ``2**31``."""
    for k, step in enumerate(steps):
        want = _dtype(step.value_bound).name
        if want == "object":
            assert step.dtype == "object" or (step.dtype == "uint64" and step.primes <= 2)
        else:
            assert step.primes is None
            assert step.dtype == want or (k and want == "int32" and step.dtype == "int64")


def _assert_canonical(t: Tensor):
    """The storage is in lowest terms, in the narrowest dtype that holds
    its numerators, and stores its largest magnitude."""
    nums = t.num.ravel().tolist()
    assert t.den > 0 and math.gcd(t.den, *nums) == 1
    assert any(nums) or t.den == 1
    top = max(map(abs, nums), default=0)
    assert t.num.dtype == _dtype(top) and t.magnitude == top


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


def _only_permutes(subscripts: str) -> bool:
    """One operand whose output lists its letters once each, in any order:
    the kernel returns such a term as a view and calls no einsum."""
    inputs, output = subscripts.split("->")
    return "," not in inputs and len(set(inputs)) == len(inputs) \
        and sorted(inputs) == sorted(output)


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
    with kernel_probe() as probe:
        result = exact_einsum(subscripts, *operands)
    _assert_same(result, expected)
    _assert_each_call_picks_by_its_bound(probe.steps)
    if _only_permutes(subscripts):
        assert probe.steps == []
    else:
        assert probe.steps and all(step.dtype in ("int32", "int64") for step in probe.steps)


#: A denominator past the int64 bound: numerators over it may still be
#: int64, but no int64 ufunc may run on it.
HUGE_DEN = 2**62 + 1


@st.composite
def permutations(draw):
    """One operand of rank 0-4 and subscripts that only permute its
    letters (the identity included), on one of three storages: int64
    numerators over a small denominator, Python-int numerators, or int64
    numerators over ``HUGE_DEN``."""
    storage = draw(st.sampled_from(("int64", "object", "huge_den")))
    letters = LETTERS[:draw(st.integers(0, 4))]
    shape = tuple(draw(st.integers(1, 3)) for _ in letters)
    values = {"int64": small, "object": huge,
              "huge_den": st.integers(-9, 9).map(lambda k: Fr(k, HUGE_DEN))}[storage]
    entries = draw(st.lists(values, min_size=math.prod(shape), max_size=math.prod(shape)))
    entries[0] = {"int64": Fr(1, 2), "object": 2**62, "huge_den": Fr(1, HUGE_DEN)}[storage]
    operand = _array(entries, shape)
    assert (operand.num.dtype == object) == (storage == "object")
    assert (operand.den >= INT64_SAFE) == (storage == "huge_den")
    return f"{letters}->{''.join(draw(st.permutations(letters)))}", operand


@settings(max_examples=150, deadline=None)
@given(permutations(), st.sampled_from((1, -1, 3, Fr(-2, 3))))
def test_a_permutation_is_exact_and_canonical_without_einsum(case, coef):
    """A term that only permutes one operand's letters is a view of the
    operand's storage: equal to the reference, canonical, with the largest
    magnitude stored, on int64 storage, on Python ints and over a
    denominator past int64, alone or scaled, and with no einsum call."""
    subscripts, operand = case
    assert _only_permutes(subscripts)
    expected = _reference(subscripts, operand)
    with kernel_probe() as probe:
        result = exact_einsum(subscripts, operand)
        scaled = exact_sum([(coef, subscripts, operand)])
    assert probe.steps == []
    _assert_same(result, expected)
    _assert_same(scaled, Fr(coef) * np.asarray(expected, dtype=object))
    for t in (result, scaled):
        assert t.magnitude == max(map(abs, t.num.ravel().tolist()), default=0)
    assert result.den == operand.den and result.magnitude == operand.magnitude
    assert result.variance == operand.variance


@pytest.mark.parametrize("den", [1, 3])
@pytest.mark.parametrize("top", [7, 2**40, 2**70])
def test_a_lone_permutation_is_reduced_to_its_own_view(top, den):
    """``exact_einsum`` of a lone permutation goes through ``_canonical``
    like any sum, and a canonical operand leaves it nothing to do: the
    result stores the operand's numerators transposed, as a view, with the
    operand's denominator, dtype and magnitude, on int32, int64 and Python
    ints, over 1 and over 3."""
    operand = _array([Fr(top, den), Fr(-1, den), 0, Fr(2, den), Fr(5, den), 0], (2, 3))
    with kernel_probe() as probe:
        result = exact_einsum("ab->ba", operand)
    assert len(probe.reductions) == 1
    assert np.array_equal(result.num, operand.num.T)
    assert np.shares_memory(result.num, operand.num)
    assert result.num.dtype == operand.num.dtype == _dtype(top)
    assert (result.den, result.magnitude) == (operand.den, operand.magnitude) == (den, top)


@settings(max_examples=100, deadline=None)
@given(contractions(huge))
def test_matches_reference_on_huge_numerators_and_coprime_denominators(case):
    subscripts, operands = case
    expected = _reference(subscripts, *operands)
    with kernel_probe() as probe:
        result = exact_einsum(subscripts, *operands)
    _assert_same(result, expected)
    _assert_each_call_picks_by_its_bound(probe.steps)


def test_a_chain_past_the_bound_as_a_whole_runs_every_step_in_int64():
    """Four operands with entries near 2**20: the product of their largest
    magnitudes times the summed combinations is past 2**62, but the two
    first pairwise steps multiply a unimodular matrix by its adjugate
    (giving -I), so each fits int64 on its own.  The last multiplies -I by
    -I: its carried bound passes ``2**62``, so its operands are scanned,
    and their magnitudes prove that it fits int32."""
    x = 2**20
    a = _array([x + 1, x, x, x - 1], (2, 2))        # det -1
    adj = _array([x - 1, -x, -x, x + 1], (2, 2))    # a @ adj = adj @ a = -I
    operands = (a, adj, a, adj)
    assert (x + 1)**4 * 2**3 >= INT64_SAFE
    with kernel_probe() as probe:
        result = exact_einsum("ab,bc,cd,de->ae", *operands)
    _assert_same(result, _reference("ab,bc,cd,de->ae", *operands))
    _assert_each_call_picks_by_its_bound(probe.steps)
    assert [step.dtype for step in probe.steps] == ["int64", "int64", "int32"]


def test_huge_numerators_take_the_python_int_path():
    a = _array([Fr(10**25 + 1, 3), Fr(-(10**25), 7), 0], (3,))
    b = _array([Fr(10**24, 11), 13, Fr(5, 17)], (3,))
    with kernel_probe() as probe:
        result = exact_einsum("i,j->ij", a, b)
    _assert_same(result, _reference("i,j->ij", a, b))
    assert [step.dtype for step in probe.steps] == ["object"]


@pytest.mark.parametrize("top, length, path", [
    (INT64_SAFE - 1, 1, np.int64),      # bound 2**62 - 1
    (INT64_SAFE, 1, object),            # bound 2**62
    (2**61 - 1, 2, np.int64),           # bound 2**62 - 2, result 2**62 - 2
    (2**61, 2, object),                 # bound 2**62
    (INT64_SAFE, 2, object),            # the true result 2**63 overflows int64
])
def test_bound_straddling_two_to_the_62(top, length, path):
    """``path`` is the dtype of the step's bound.  A bound at ``2**62``
    takes the residue route, which needs no prime below ``2**63`` and
    proves a result below ``2**63`` exact (dtype ``uint64``); the result
    ``2**63`` fails its check and the step runs again on Python ints."""
    a = _array([top] * length, (length,))
    b = _array([1] * length, (length,))
    with kernel_probe() as probe:
        result = exact_einsum("i,i->", a, b)
    assert result.item() == top * length and type(result.components.item()) is int
    ran = np.dtype(path).name
    if ran == "object" and top * length < 2**63:
        ran = "uint64"
    assert [step.dtype for step in probe.steps] == [ran]
    _assert_canonical(result)


@pytest.mark.parametrize("left, right", [
    (2**31, 2**30),                     # denominator product 2**61
    (2**31, 2**31),                     # denominator product 2**62
])
def test_the_denominators_do_not_pick_the_dtype(left, right):
    """A step multiplies and adds numerators only: its denominators
    enter no integer it computes, so a denominator product on either
    side of ``2**62`` still runs one int32 step."""
    a = _array([Fr(1, left)], (1,))
    b = _array([Fr(1, right)], (1,))
    with kernel_probe() as probe:
        result = exact_einsum("i,i->", a, b)
    assert result.item() == Fr(1, left * right)
    assert [step.dtype for step in probe.steps] == ["int32"]
    _assert_canonical(result)


@settings(max_examples=100, deadline=None)
@given(st.integers(58, 66), st.integers(1, 4), st.data())
def test_bound_decides_the_path(bits, length, data):
    """Random integer vectors whose bound lands on either side of 2**62
    (or, with small entries drawn, below 2**31)."""
    ints = st.integers(-(2**bits), 2**bits)
    xs = data.draw(st.lists(ints, min_size=length, max_size=length))
    ys = data.draw(st.lists(ints, min_size=length, max_size=length))
    a, b = _array(xs, (length,)), _array(ys, (length,))
    # An all-zero operand counts as 1 in the kernel's bound.
    bound = max(*map(abs, xs), 1) * max(*map(abs, ys), 1) * length
    with kernel_probe() as probe:
        result = exact_einsum("i,i->", a, b)
    exact = sum(x * y for x, y in zip(xs, ys))
    assert result.item() == exact
    assert [step.dtype for step in probe.steps] == [_step_dtype(bound, length, abs(exact)).name]
    # The residue route takes the fewest primes of its pair that cover the bound.
    pair = _pair(length, 2)
    needed = next((k for k in range(3) if bound + 2**63 < 2**64 * math.prod(pair[:k])), None)
    assert probe.steps[0].primes == (None if bound < INT64_SAFE else needed)


def test_zero_operand_gives_canonical_zeros():
    a = _array([10**30, -(10**30)], (2,))
    z = _array([0, 0], (2,))
    result = exact_einsum("i,j,j->i", a, a, z)
    assert result.components.tolist() == [0, 0]
    assert all(type(v) is int for v in result.components)
    assert result.den == 1 and result.is_zero()
    _assert_canonical(result)


def test_scalar_outputs():
    v = _array([Fr(1, 2), 3, 0], (3,))
    assert exact_einsum("i,i->", v, v).item() == Fr(37, 4)
    assert einsum_scalar("i,i->", v, v) == Fr(37, 4)
    assert type(einsum_scalar("i,i->", _array([2], (1,)), _array([3], (1,)))) is Fr


def test_implicit_subscripts_are_rejected():
    v = _array([1, 2], (2,))
    with pytest.raises(ValueError):
        exact_einsum("i,i", v, v)
    with pytest.raises(ValueError, match="ellipsis"):
        exact_einsum("...i->i", v)


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


@st.composite
def cancelling_sums(draw):
    """A sum of :func:`sums`, and half the time the negated first term
    as well, so that entries cancel to zero over mixed denominators."""
    terms = draw(sums(st.one_of(small, huge)))
    if draw(st.booleans()):
        coef, subscripts, *ops = terms[0]
        terms.append((-coef, subscripts, *ops))
    return terms


@settings(max_examples=150, deadline=None)
@given(cancelling_sums())
def test_nonzero_where_is_where_the_reduced_sum_is_nonzero(terms):
    """On int64 and Python-int numerators and on 0-d results, the mask
    equals the reduced sum's nonzero numerators, and the witness of
    ``_vanishes``, which reads the mask, is its first index."""
    want = exact_sum(terms).num != 0
    mask = nonzero_where(terms)
    assert mask.dtype == bool and mask.shape == want.shape
    assert np.array_equal(mask, want)
    verdict = _vanishes("sum", "", None, lambda: terms)
    assert verdict.witness == (tuple(np.argwhere(want)[0].tolist()) if want.any() else None)


@st.composite
def coprime_numerators(draw):
    """An ``n`` with ``2**60 <= n < 2**61`` and ``gcd(n, prod(PRIMES)) == 1``,
    built with no rejection: a nonzero residue modulo each prime, joined by
    the Chinese remainder theorem into ``x`` modulo ``M = prod(PRIMES)``,
    then one of the ``x + k M`` in the range (``M < 2**60``, so one or two)."""
    m = math.prod(PRIMES)
    x = sum(draw(st.integers(1, p - 1)) * (m // p) * pow(m // p, -1, p) for p in PRIMES) % m
    k = draw(st.integers(-(-(2**60 - x) // m), (2**61 - 1 - x) // m))
    return x + k * m


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(coprime_numerators(),
                          st.sampled_from(PRIMES),
                          st.sampled_from((1, -1))),
                min_size=2, max_size=4, unique_by=lambda part: part[1]))
def test_addition_alone_crosses_the_bound(parts):
    """Each term is provably int64 (numerators below 2**61), but over the
    common denominator of two or more distinct primes the terms are not:
    the sum must be promoted to Python ints and stay exact.  Each term
    only permutes its operand, so no term calls einsum."""
    terms = [(sign, "i->i", _array([Fr(n, p)], (1,))) for n, p, sign in parts]
    den = math.lcm(*(p for _, p, _ in parts))
    assert sum(n * (den // p) for n, p, _ in parts) >= INT64_SAFE
    with kernel_probe() as probe:
        result = exact_sum(terms)
    assert probe.steps == []
    _assert_same(result, _array([sum(sign * Fr(n, p) for n, p, sign in parts)], (1,))
                 .components)


@pytest.mark.parametrize("terms, want, dtype", [
    # A coefficient past int32 on int32 numerators.
    ([(2**31 + 1, "i->i", _array([1, -3], (2,)))], [2**31 + 1, -3 * (2**31 + 1)], np.int64),
    # An lcm past int32: the factors 3 and 2**31 - 1 on int32 numerators.
    ([(1, "i->i", _array([Fr(1, 2**31 - 1)], (1,))), (1, "i->i", _array([Fr(1, 3)], (1,)))],
     [Fr(2**31 + 2, 3 * (2**31 - 1))], np.int64),
    # int32 numerators over a denominator past int32, reduced by 2.
    ([(1, "i->i", _array([Fr(1, 2**40), Fr(3, 2**40)], (2,)))] * 2,
     [Fr(1, 2**39), Fr(3, 2**39)], np.int32),
    # A coefficient whose denominator passes int32.
    ([(Fr(2**31 + 2, 2**31 + 1), "i,i->i", _array([2**30, 1], (2,)), _array([1, 2], (2,)))],
     [Fr(2**30 * (2**31 + 2), 2**31 + 1), Fr(2 * (2**31 + 2), 2**31 + 1)], np.int64),
])
def test_int32_numerators_sum_past_int32(terms, want, dtype):
    """int32 numerators under a coefficient, an lcm or a denominator past
    ``2**31`` are added in the dtype the sum's bound picks, never in the
    operands' int32, and reduced exactly."""
    assert all(op.num.dtype == np.int32 for _, _, *ops in terms for op in ops)
    result = exact_sum(terms)
    _assert_same(result, want)
    assert result.num.dtype == dtype


def test_int64_wraparound_is_never_seen():
    """Three terms of 2**62 - 1 sum to more than int64 holds."""
    top = _array([INT64_SAFE - 1], (1,))
    result = exact_sum([(1, "i->i", top)] * 3)
    assert result.num.dtype == object and result.components.tolist() == [3 * (INT64_SAFE - 1)]
    cancelled = exact_sum([(1, "i->i", top)] * 3 + [(-3, "i->i", top)])
    assert cancelled.is_zero() and cancelled.num.dtype == np.int32 and cancelled.den == 1


@pytest.mark.parametrize("x, y, primes, ran, stored", [
    (2**62, 2**62 - 1, 1, "uint64", "object"),          # 2**63 - 1 fits int64
    (-(2**62), -(2**62) + 1, 1, "uint64", "object"),    # -(2**63 - 1) fits
    (-(2**62), -(2**62), 1, "object", "object"),        # -2**63 counts as past it
    (2**62, 2**62, 1, "object", "object"),              # 2**63 wraps: the check fails
    (2**62 - 1, 2**62 - 1, 0, "uint64", "object"),      # 2**63 - 2 under a bound below 2**63
    (2**61, -(2**61) + 5, 0, "uint64", "int32"),        # bound 2**62: no prime
    (2**62 + 5, -(2**62), 1, "uint64", "int32"),        # a small positive result
    (-(2**62) - 5, 2**62, 1, "uint64", "int32"),        # a small negative result
    (2**100 + 1, -(2**100), 2, "uint64", "int32"),      # Python-int operands, two primes
    (2**130, -(2**130), None, "object", "int32"),       # past the cap of two primes
], ids=["max", "min+1", "min", "wraps", "near-max", "no-prime", "small", "negative",
        "two-primes", "past-cap"])
def test_the_residue_route_is_exact_across_two_to_the_63(x, y, primes, ran, stored):
    """``x * 1 + y * 1``: a step of two products whose bound, ``2 *
    max(|x|, |y|)``, reaches ``2**62``.  On the residue route the wrapped
    word and its primes prove every result below ``2**63`` in magnitude,
    negative ones included, and the result is stored in the dtype of its
    own magnitude; a result of ``2**63`` or ``-2**63`` fails the check and
    runs again on Python ints, as does a step past the cap."""
    a, b = _array([x, y], (2,)), _array([1, 1], (2,))
    with kernel_probe() as probe:
        result = exact_einsum("i,i->", a, b)
    assert result.item() == x + y
    _assert_canonical(result)
    (step,) = probe.steps
    assert (step.primes, step.dtype, result.num.dtype.name) == (primes, ran, stored)


def test_each_prime_pair_keeps_its_residue_sums_in_int64():
    """The pairs of ``_PRIMES`` are the two largest primes below ``2**b``,
    and the primes ``_primes`` takes for a step of ``m`` operands that sums
    ``K`` products keep ``K`` products of balanced residues, each at most
    ``p // 2`` in magnitude, below ``2**63``: no residue run wraps.  One
    prime covers a bound of ``2**63``, two a bound of ``2**64`` times the
    first, and a bound of ``2**64`` times their product is past the cap."""
    for b, (p, q) in _PRIMES.items():
        assert p == sympy.prevprime(2**b) and q == sympy.prevprime(p)
    for m, summed in itertools.product((1, 2, 3), (1, 2, 3, 4, 5, 8, 9, 49, 1089, 2**20,
                                                   2**33 - 1)):
        if m < 3 or summed < 2**20:
            (p,) = _primes(2**63, summed, m)
            pair = _primes(2**64 * p, summed, m)
            assert pair[0] == p and len(pair) == 2
            assert _primes(2**64 * math.prod(pair), summed, m) is None
            assert all(summed * (prime // 2)**m < 2**63 for prime in pair)
    assert _primes(2**62, 2**40, 3) == () and _primes(2**63, 2**40, 3) is None


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(small, huge), min_size=1, max_size=6), st.data())
def test_two_routes_to_the_same_rationals_are_equal(values, data):
    """``values`` built directly, and as ``a + b``, ``b + a`` and
    ``2 (values / 2)``, give equal tensors whose denominator is the least
    possible one."""
    direct = _array(values, (len(values),))
    other = data.draw(st.lists(st.one_of(small, huge), min_size=len(values),
                               max_size=len(values)))
    a = _array([Fr(v) - Fr(w) for v, w in zip(values, other)], (len(values),))
    b = _array(other, (len(values),))
    by_sum = exact_sum([(1, "i->i", a), (1, "i->i", b)])
    by_halves = exact_sum([(2, "i->i", exact_sum([(Fr(1, 2), "i->i", direct)]))])
    by_swapped_sum = exact_sum([(1, "i->i", b), (1, "i->i", a)])
    for t in (direct, by_sum, by_halves, by_swapped_sum):
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


@pytest.mark.parametrize("entry", [exact_sum, nonzero_where])
def test_an_empty_sum_is_a_value_error(entry):
    """A sum needs a term to give it a variance and a shape."""
    with pytest.raises(ValueError, match="at least one term"):
        entry([])
