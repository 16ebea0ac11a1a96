"""Contraction plans: compiled once per key, never tied to a value.

A plan fixes the parsed terms, the pairwise path and each step's
subscripts and summed-combination count for one set of subscripts,
operand variances and operand shapes.  The dtype of each step is not part
of it: every call still reads its operands' magnitudes and picks int64 or
Python ints by the step's own bound.  These tests run one key through
values on both sides of that bound, check that a second report of the
same dimension searches no path, and pin how many int64 and object steps
one report runs on models of both workloads.
"""
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction as Fr
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from norden import AcnModel, FamilyParams, LieAlgebra, Tensor, generate_family, run_report
from norden.structures import validate_structure
from norden.tensors import _plan, exact_einsum, exact_sum, invert_symmetric

from test_exact_einsum import (
    _array,
    _assert_each_call_picks_by_its_bound,
    _assert_same,
    _contraction_calls,
    _reference,
    huge,
    small,
    sums,
)


def _lambdas(n: int) -> tuple[Fr, ...]:
    return tuple(Fr((-1) ** k * (k + 2), k % 3 + 1) for k in range(2 * n))


def family_member(n: int) -> AcnModel:
    """The family member of half-dimension ``n`` in its own, sparse basis."""
    return generate_family(FamilyParams(n, _lambdas(n)))


def _inverse(a: list[list[Fr]]) -> list[list[Fr]]:
    """Gauss-Jordan over Fractions, independent of the library."""
    d = len(a)
    m = [list(row) + [Fr(int(i == j)) for j in range(d)] for i, row in enumerate(a)]
    for col in range(d):
        pivot = next(r for r in range(col, d) if m[r][col])
        m[col], m[pivot] = m[pivot], m[col]
        m[col] = [v / m[col][col] for v in m[col]]
        for r in range(d):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [v - f * w for v, w in zip(m[r], m[col])]
    return [row[d:] for row in m]


def dense_member(n: int) -> AcnModel:
    """``family_member(n)`` on the basis ``e_a = sum_i A[i, a] x_i`` with
    ``A = L U``: ``L`` unit lower triangular and ``U`` upper triangular,
    every off-diagonal entry ``+-1`` in a fixed pattern, and the diagonal
    of ``U`` cycling through 2, 1, -1, 1/3, 1, so that ``A`` is dense and
    not unimodular."""
    base = family_member(n)
    d = base.dim
    diag = [Fr(v) for v in ([2, 1, -1, Fr(1, 3), 1] * d)[:d]]
    sign = lambda i, j: Fr(1 if (i * j + i + j) % 3 else -1)
    low = np.array([[Fr(int(i == j)) if i <= j else sign(i, j) for j in range(d)]
                    for i in range(d)], dtype=object)
    up = np.array([[diag[i] if i == j else sign(j, i) if j > i else Fr(0)
                    for j in range(d)] for i in range(d)], dtype=object)
    a = low.dot(up)
    a_inv = np.array(_inverse(a.tolist()), dtype=object)
    c = np.tensordot(a_inv, base.algebra.c.components, axes=(1, 0))
    c = np.einsum("kij,ia->kaj", c, a)
    c = np.einsum("kaj,jb->kab", c, a)
    model = AcnModel(
        algebra=LieAlgebra(d, Tensor(c, "udd")),
        phi=Tensor(a_inv.dot(base.phi.components).dot(a), "ud"),
        xi=Tensor(a_inv.dot(base.xi.components), "u"),
        eta=Tensor(base.eta.components.dot(a), "d"),
        g=Tensor(a.T.dot(base.g.components).dot(a), "dd"),
        name=f"family n={n} on a dense basis",
    )
    assert validate_structure(model).ok
    return model


@contextmanager
def _path_searches():
    """Record the subscripts and operand shapes of every path search."""
    seen = []
    real = np.einsum_path

    def spy(subscripts, *operands, **kwargs):
        seen.append((subscripts, tuple(np.shape(op) for op in operands)))
        return real(subscripts, *operands, **kwargs)

    with mock.patch.object(np, "einsum_path", spy):
        yield seen


@contextmanager
def _step_dtypes():
    """Count the pairwise steps handed to numpy's einsum by dtype."""
    seen = Counter()
    real = np.einsum

    def spy(subscripts, *operands, **kwargs):
        dtypes = {np.asarray(op).dtype for op in operands}
        seen["object" if np.dtype(object) in dtypes else "int64"] += 1
        return real(subscripts, *operands, **kwargs)

    with mock.patch.object(np, "einsum", spy):
        yield seen


CHAIN = "ij,jk,kl->il"
PRIMES = (3, 5, 7, 11, 13)


def _chain_operands(values):
    """Three 2x2 operands of ``CHAIN`` cycling through ``values``."""
    cells = [values[k % len(values)] for k in range(12)]
    return [_array(cells[4 * m:4 * m + 4], (2, 2)) for m in range(3)]


def test_one_plan_serves_values_on_both_sides_of_the_bound():
    """One key runs small values, then numerators near 2**62 and ~10**25
    over primes, then small ones again.  Each step picks its dtype by its
    own bound on every call, so the shared plan carries no dtype over."""
    stages = [
        ([1, -2, Fr(3, 4), 0, 5], {"int64"}),
        ([2**61 - 1, -(2**60), 3, 2**61], {"object"}),
        ([Fr(10**25 + k, PRIMES[k % 5]) for k in range(7)], {"object"}),
        ([Fr(-1, 2), 7, 0, Fr(2, 3)], {"int64"}),
    ]
    with _path_searches() as searches:
        for values, paths in stages:
            operands = _chain_operands(values)
            with _contraction_calls() as calls:
                result = exact_einsum(CHAIN, *operands)
            _assert_same(result, _reference(CHAIN, *operands))
            assert len(calls) == 2
            _assert_each_call_picks_by_its_bound(calls, operands)
            assert {"object" if np.dtype(object) in dtypes else "int64"
                    for dtypes, _ in calls} == paths
    assert len(searches) <= 1


def test_a_plan_fixes_no_value_of_a_sum():
    """Two sums of one key, one within the int64 sum bound and one past it."""
    small, top = _array([3, -4], (2,)), _array([2**61, 1], (2,))
    for a, want in ((small, np.int64), (top, object), (small, np.int64)):
        result = exact_sum([(1, "i->i", a), (3, "i->i", a)])
        assert result.num.dtype == want
        assert result.components.tolist() == [4 * v for v in a.components.tolist()]


@pytest.mark.parametrize("subscripts, count, message", [
    ("i,i", 2, "explicit subscripts"),
    ("...i->i", 1, "ellipsis"),
    ("i,j->ij", 1, "2 terms for 1 operands"),
    ("i->j", 1, "output subscript 'j' which never appeared"),
    ("i,i,i->j", 3, "Output character j did not appear"),
])
def test_a_bad_key_is_a_value_error_and_is_not_kept(subscripts, count, message):
    v = _array([1, 2], (2,))
    for _ in range(2):
        with pytest.raises(ValueError, match=message):
            exact_einsum(subscripts, *[v] * count)


def _assert_magnitude(t: Tensor):
    assert t.magnitude == max(map(abs, t.num.ravel().tolist()), default=0)


@settings(max_examples=100, deadline=None)
@given(sums(st.one_of(small, huge)))
def test_every_result_stores_its_largest_magnitude(terms):
    """The stored magnitude that the next contraction's bound reads is
    the largest numerator of the canonical storage, on every route in."""
    result = exact_sum(terms)
    for t in (result, -result, *terms[0][2:]):
        _assert_magnitude(t)


def test_the_inverse_metric_stores_its_largest_magnitude():
    g = Tensor([[Fr(2, 3), 5, 0], [5, -7, 1], [0, 1, Fr(10**30, 7)]], "dd")
    _assert_magnitude(invert_symmetric(g))
    _assert_magnitude(Tensor(np.zeros((0, 3), dtype=int), "dd"))


def test_a_second_report_of_the_same_dimension_searches_no_path():
    run_report(dense_member(3))
    with _path_searches() as searches:
        run_report(family_member(3))
    assert searches == []


def test_each_key_searches_its_path_once():
    _plan.cache_clear()
    with _path_searches() as searches:
        run_report(dense_member(2))
        run_report(dense_member(2))
    assert searches and len(searches) == len(set(searches))


# Counted on the tree before plans: pairwise steps of one run_report.
STEP_COUNTS = {
    ("dense", 3): {"int64": 109},
    ("dense", 6): {"int64": 109},
    ("dense", 8): {"int64": 73, "object": 36},
    ("family", 6): {"int64": 109},
}


@pytest.mark.parametrize("kind, n", list(STEP_COUNTS))
def test_a_report_runs_the_same_int64_and_object_steps(kind, n):
    model = (dense_member if kind == "dense" else family_member)(n)
    with _step_dtypes() as steps:
        run_report(model)
    assert dict(steps) == STEP_COUNTS[kind, n]
