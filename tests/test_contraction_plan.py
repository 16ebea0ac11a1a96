"""Contraction plans: compiled once per key, never tied to a value.

A plan fixes the parsed terms, the pairwise path and each step's
subscripts, summed-combination count, dense cost and sparse layout for
one set of subscripts, operand variances and operand shapes.  The dtype
and the route of each step are not part of it: every call still reads
its operands' magnitudes and picks int32, int64 or Python ints by the
step's own bound, then counts nonzeros to pick einsum or the sparse
route.  These tests run one key through values on both sides of those
bounds, check that the bound an intermediate carries picks Python ints
where its exact magnitude does, check that a second report of the same
dimension searches no path, check the sparse route against the dense one
and an exact reference on every tier, and pin how many steps of each
route and dtype, and how many magnitude scans, one report runs on models
of both workloads.
"""
import math
import random
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction as Fr
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from norden import Tensor, run_report
from norden.lie import validate
from norden import report as report_module
from norden import tensors
from norden.linalg import invert_symmetric
from norden.tensors import (
    INT32_SAFE,
    INT64_SAFE,
    SPARSE_FLOOR,
    _plan,
    exact_einsum,
    exact_sum,
    nonzero_where,
)

from test_exact_einsum import (
    _array,
    _assert_canonical,
    _assert_each_call_picks_by_its_bound,
    _assert_same,
    _dtype,
    _only_permutes,
    _reference,
    _reference_sum,
    _step_dtype,
    huge,
    small,
    sums,
)
from probe import kernel_probe
from zoo import dense_member, dense_model, family_member


CHAIN = "ij,jk,kl->il"
PRIMES = (3, 5, 7, 11, 13)


def _chain_operands(values):
    """Three 2x2 operands of ``CHAIN`` cycling through ``values``."""
    cells = [values[k % len(values)] for k in range(12)]
    return [_array(cells[4 * m:4 * m + 4], (2, 2)) for m in range(3)]


def test_one_plan_serves_values_on_both_sides_of_the_bound():
    """One key runs small values, then numerators near 2**16, 2**62 and
    ~10**25 over primes, then small ones again.  Each step picks its dtype
    by its own bound on every call, so the shared plan carries no dtype
    over."""
    stages = [
        ([1, -2, Fr(3, 4), 0, 5], {"int32"}),
        ([2**16 - 1, -(2**15), 3, 2**16], {"int64"}),
        ([2**61 - 1, -(2**60), 3, 2**61], {"object"}),
        ([Fr(10**25 + k, PRIMES[k % 5]) for k in range(7)], {"object"}),
        ([Fr(-1, 2), 7, 0, Fr(2, 3)], {"int32"}),
    ]
    with kernel_probe() as probe:
        for values, paths in stages:
            operands = _chain_operands(values)
            start = len(probe.steps)
            result = exact_einsum(CHAIN, *operands)
            _assert_same(result, _reference(CHAIN, *operands))
            steps = probe.steps[start:]
            assert len(steps) == 2
            _assert_each_call_picks_by_its_bound(steps)
            assert {step.dtype for step in steps} == paths
    assert len(probe.searches) <= 1


def test_a_plan_fixes_no_value_of_a_sum():
    """Sums of one key within the int32 sum bound, within the int64 one and
    past it."""
    small, mid, top = _array([3, -4], (2,)), _array([2**30, 1], (2,)), _array([2**61, 1], (2,))
    for a, want in ((small, np.int32), (mid, np.int64), (top, object), (small, np.int32)):
        result = exact_sum([(1, "i->i", a), (3, "i->i", a)])
        assert result.num.dtype == want
        assert result.components.tolist() == [4 * v for v in a.components.tolist()]


@pytest.mark.parametrize("subscripts, count, message", [
    ("i,i", 2, "explicit subscripts"),
    ("...i->i", 1, "ellipsis"),
    ("i,j->ij", 1, "2 terms for 1 operands"),
    ("i->j", 1, "output subscript 'j' which never appeared"),
    ("i,i,i->j", 3, "Output character j did not appear"),
    ("ij->ji", 1, "do not match operand 0 of rank 1"),
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
    out = terms[0][1].split("->")[1]
    negated = exact_sum([(-1, f"{out}->{out}", result)])
    for t in (result, negated, *terms[0][2:]):
        _assert_magnitude(t)


def test_the_inverse_metric_stores_its_largest_magnitude():
    g = Tensor([[Fr(2, 3), 5, 0], [5, -7, 1], [0, 1, Fr(10**30, 7)]], "dd")
    _assert_magnitude(invert_symmetric(g))
    _assert_magnitude(Tensor(np.zeros((0, 3), dtype=int), "dd"))


def _top(num) -> int:
    return max(map(abs, np.asarray(num, dtype=object).ravel().tolist()), default=0)


def _exact_rule(terms):
    """What the kernel must pick, found by following the bounds it carries
    and scanning every intermediate: the dtype of each pairwise step (uint64
    on the residue route, see ``_step_dtype``), the
    dtype of the sum (``None`` for one term whose coefficient has
    numerator 1, which adds nothing), the exact sum as Python ints over
    the lcm of the terms' denominators, with that lcm, and the dtypes that
    the exact magnitudes alone pick for the steps and then the sum.

    A step's bound is the product of the largest magnitudes its operands
    carry, zeros counting as 1, times the combinations it sums: an operand
    carries its stored magnitude, an intermediate the bound of the step
    that made it.  A bound that reaches ``2**62`` is built again from
    the exact magnitudes.  The sum's bound, ``max|num| * |factor|`` summed
    over the terms, is built the same way."""
    steps, exact, values, tops, dens, coefs = [], [], [], [], [], []
    for coef, subscripts, *operands in terms:
        plan = _plan(subscripts, tuple(op.variance for op in operands),
                     tuple(op.shape for op in operands))
        nums = [(op.num.astype(object), op.magnitude) for op in operands]
        for step in plan.steps:
            assert step.sides is None
            picked = [nums.pop(k) for k in step.pair]
            tight = step.summed * math.prod(max(_top(x), 1) for x, _ in picked)
            bound = step.summed * math.prod(max(top, 1) for _, top in picked)
            bound = tight if bound >= INT64_SAFE else bound
            out = np.asarray(np.einsum(step.subscripts, *(x for x, _ in picked)), dtype=object)
            steps.append(_step_dtype(bound, step.summed, _top(out), len(picked)))
            exact.append(_dtype(tight))
            nums.append((out, bound))
        ((value, top),) = nums
        values.append(value)
        tops.append(top)
        dens.append(math.prod(op.den for op in operands) * Fr(coef).denominator)
        coefs.append(Fr(coef).numerator)
    den = math.lcm(*dens)
    factors = [p * (den // d) for p, d in zip(coefs, dens)]
    adds = len(terms) > 1 or coefs[0] != 1
    tight = sum(max(_top(v), 1) * max(abs(f), 1) for v, f in zip(values, factors))
    bound = sum(max(top, 1) * max(abs(f), 1) for top, f in zip(tops, factors))
    bound = tight if bound >= INT64_SAFE else bound
    total = sum(v * f for v, f in zip(values, factors))
    if adds:
        exact.append(_dtype(tight))
    return steps, _dtype(bound) if adds else None, np.asarray(total, dtype=object), den, exact


def _assert_the_exact_rule(terms):
    """The kernel's steps and sum pick the dtypes of :func:`_exact_rule`,
    and ``exact_sum`` and ``nonzero_where`` give its exact sum.  Those
    dtypes are Python ints or the residue route exactly where the exact
    magnitudes pick Python ints, and int32 only where they pick it."""
    steps, summed, total, den, exact = _exact_rule(terms)
    for rule, tight in zip(steps + [summed] * (summed is not None), exact, strict=True):
        assert (rule in (object, np.uint64)) == (tight == object)
        assert rule != np.int32 or tight == np.int32
    with kernel_probe() as probe:
        result = exact_sum(terms)
    assert [step.dtype for step in probe.steps] == [dtype.name for dtype in steps]
    if summed is not None:
        assert probe.reductions == [summed.name]
    _assert_canonical(result)
    _assert_magnitude(result)
    assert np.array_equal(result.num.astype(object) * den, total * result.den)
    with kernel_probe() as probe:
        where = nonzero_where(terms)
    assert [step.dtype for step in probe.steps] == [dtype.name for dtype in steps]
    assert probe.reductions == []
    assert np.array_equal(where, total != 0)


def _entries(rng: random.Random, count: int, kind: str) -> list:
    """``count`` entries of one kind: powers of two up to ``2**40``, most
    of them zero ("sparse") or none ("dense"), so that a few multiplied
    pass ``2**62`` and the zeros leave the exact magnitudes far below a
    bound built from the largest ones; small rationals over primes; or
    integers past int64, half of them zero."""
    sign = lambda: rng.choice((-1, 1))
    power = lambda: sign() * 2 ** rng.randrange(0, 41, 5)
    draw = {
        "sparse": lambda: power() if rng.random() < 0.3 else 0,
        "dense": power,
        "rational": lambda: Fr(rng.randint(-9, 9), rng.choice(PRIMES)),
        "huge": lambda: sign() * rng.randint(2**62, 2**70) if rng.random() < 0.5 else 0,
    }[kind]
    return [draw() for _ in range(count)]


@st.composite
def carried_sums(draw):
    """A sum of one to three terms with one output, each term a
    contraction of three or four operands over the letters ``abcde``
    (sizes 1-3), each operand of one kind of :func:`_entries`, with a
    coefficient that may scale the term past the int64 sum bound."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    sizes = {ch: draw(st.integers(1, 3)) for ch in "abcde"}
    output = draw(st.permutations("abcde"))[:draw(st.integers(0, 2))]
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        letters = [draw(st.lists(st.sampled_from("abcde"), min_size=1, max_size=3, unique=True))
                   for _ in range(draw(st.integers(3, 4)))]
        for ch in output:
            if not any(ch in term for term in letters):
                letters[draw(st.integers(0, len(letters) - 1))].append(ch)
        operands = []
        for term in letters:
            shape = tuple(sizes[ch] for ch in term)
            kind = draw(st.sampled_from(("sparse", "sparse", "dense", "rational", "huge")))
            operands.append(_array(_entries(rng, math.prod(shape), kind), shape))
        coef = draw(st.sampled_from((1, -1, 3, Fr(1, 3), Fr(-5, 7), 2**40)))
        terms.append((coef, ",".join(map("".join, letters)) + "->" + "".join(output),
                      *operands))
    return terms


@settings(max_examples=150, deadline=None)
@given(carried_sums())
def test_the_carried_bound_picks_what_the_exact_magnitudes_pick(terms):
    """An intermediate carries the bound it was computed under and is
    scanned only when a bound built from what is carried reaches
    ``2**62``.  Every step and every sum still picks Python ints exactly
    where its operands' exact magnitudes do, and int32 where the carried
    bound proves it, and the result is exact."""
    _assert_the_exact_rule(terms)


V, W = _array([1, -1], (2,)), _array([1, 1], (2,))
M = _array([2**60] * 4, (2, 2))


@pytest.mark.parametrize("terms, steps, summed", [
    # 2 * 2**40 * 2**30 puts the first step on the residue route, and its
    # result is below 2**41: the second step's carried bound is 2**82 and
    # its exact one 2**51, so it runs in int64.
    ([(1, "ab,bc,cd->ad", _array([2**40, 0, 0, 1], (2, 2)),
       _array([0, 1, 2**30, 0], (2, 2)), _array([2**10, 0, 0, 2**10], (2, 2)))],
     [np.uint64, np.int64], None),
    # The first step runs in int64 under 2 * 2**60 and cancels to zero:
    # the second step's carried bound is 2**63 and its exact one 4, so it
    # runs in int32.
    ([(1, "a,ab,bc->c", V, M, _array([2] * 4, (2, 2)))], [np.int64, np.int32], None),
    # Two terms that cancel to zero carry 2**61 each: the sum's carried
    # bound reaches 2**62, its exact one is 2.
    ([(1, "a,ab->b", V, M), (1, "a,ab->b", V, M)], [np.int64] * 2, np.int32),
    # The same with entries 2**61: the exact bound reaches 2**62 too.
    ([(1, "a,ab->b", W, M), (1, "a,ab->b", W, M)], [np.int64] * 2, object),
], ids=["object-then-int64", "int64-chain", "sum-rescanned", "sum-past-int64"])
def test_a_carried_bound_past_int64_is_checked_against_the_magnitudes(terms, steps, summed):
    assert _exact_rule(terms)[:2] == ([np.dtype(t) for t in steps],
                                      None if summed is None else np.dtype(summed))
    _assert_the_exact_rule(terms)


def test_a_second_report_of_the_same_dimension_searches_no_path():
    run_report(dense_member(3))
    with kernel_probe() as probe:
        run_report(family_member(3))
    assert probe.searches == []


def test_each_key_searches_its_path_once():
    _plan.cache_clear()
    with kernel_probe() as probe:
        run_report(dense_member(2))
        run_report(dense_member(2))
    assert probe.searches and len(probe.searches) == len(set(probe.searches))


# Pairwise steps of one run_report by route and dtype, recorded on this
# tree.  Against the int64/object counts first recorded before plans:
# psi4 builds its first term once and permutes it, five steps where four
# three-operand products were, so each report runs one step more; and the
# sparse route takes the eleven d**5 steps of the sparse family member at
# dim 13 and two int64 steps at dense dim 17 off einsum.  The terms of a
# report that only permute one operand's letters (all int64) run no step
# at all: the kernel returns them as views.  The curvature computes its
# Gamma . Gamma product once and reads the second term as a view of it,
# so each report runs one step fewer than the three-product form did
# (90, 36 object and 11 sparse steps).  Of the int64 steps recorded before
# the int32 tier (89, 89, 52 and 2 sparse, 79 and 10 sparse), those whose
# carried bound is below 2**31 now run in int32; the object steps and the
# totals are unchanged.  The F11 test reads the omega layer instead of
# contracting F(xi, xi, .) again, so each report runs the two steps of
# that contraction once (it took 2 int32, 1 + 1, 2 int64 and 2 int32).
# Ricci is the trace of r13, tau_star is traced from Ricci and the
# divergence is the trace of Gamma . X, none through a g . g^-1 round
# trip: three steps take the place of six (the counts were 57 int32 and
# 30 int64 at dense dim 7, 68 int64 at dense dim 13, 35 object at dense
# dim 17 and 76 int32 at family dim 13).  The 32 steps of dense dim 17
# whose bound reaches 2**62 ran on Python ints ("object") until the
# residue route, which proves every one of them exact ("uint64").  The
# Koszul formula contracts c . g once and relabels it for its other two
# terms, and tau_2star traces the twisted_r layer instead of twisting r04
# by phi again, so each report runs four steps fewer (the counts were 58
# int32 and 26 int64 at dense dim 7; 19 and 65 at dense dim 13; 9, 41, 32
# uint64 and 2 sparse int32 at dense dim 17; 73, 1 int64 and 10 sparse
# int32 at family dim 13).  At dense dim 17 one step of the trace of
# twisted_r takes the sparse route in int64.  Each of the three steps at
# dense dim 17 that may take the sparse route has an all-zero operand:
# they ran on that route, "sparse", until such a step returned its zero
# result before it ("zero").  The model builds eta (x) eta once, and the
# twin metric, the rank-one gate and two identities read it: three steps
# fewer.  The bracket route to N takes d eta from the brackets in two
# steps the derivative route does not share; at dense dim 13 the second
# runs in int64, as its first operand carries its step's bound.  Each
# report runs 77 steps where it ran 80 (the counts were 55 int32 at dense
# dim 7; 19 int32 and 61 int64 at dense dim 13; 9 int32 at dense dim 17;
# 70 int32 at family dim 13).  The curvature is computed lowered: r04 is
# P - P[jiku] - c . L with the Koszul tensor L and one d**5 product P =
# Gamma . L, Ricci and the eta identity read r04, and a report builds no
# r13.  The phi identity reads nabla F and R(x, y, z, phi u), from which
# twisted_r is one step.  N's two routes and the F11 test build each of
# their products once, and S, the omega_star identity and the rank-one
# gate share nabla omega . phi and omega_star (x) omega_star.  phi . c is
# zero on the family in any basis, so at dense dim 17 the bracket route's
# shared phi . c and its two reads are three zero steps.  Each report
# runs 66 steps where it ran 77 (the counts were 52 int32 and 25 int64 at
# dense dim 7; 15 int32 and 62 int64 at dense dim 13; 6 int32, 40 int64,
# 28 uint64, 2 zero int32 and 1 zero int64 at dense dim 17; 67 int32 and
# 10 sparse int32 at family dim 13).
STEP_COUNTS = {
    ("dense", 3): {("einsum", "int32"): 52, ("einsum", "int64"): 14},
    ("dense", 6): {("einsum", "int32"): 13, ("einsum", "int64"): 53},
    ("dense", 8): {("einsum", "int32"): 4, ("einsum", "int64"): 40, ("einsum", "uint64"): 18,
                   ("zero", "int32"): 3, ("zero", "int64"): 1},
    ("family", 6): {("einsum", "int32"): 59, ("sparse", "int32"): 7},
}

# Magnitude scans (calls of ``_max_abs``) of one run_report on the same
# models, recorded on this tree.  An intermediate carries one bound, the
# one it was computed under, on either route; a stored tensor carries its
# exact magnitude; exact_sum scans each result once.  A step or sum whose
# bound, built from what is carried, reaches 2**62 scans every operand or
# term and builds it again; the inverse metric reads its magnitude while
# it builds its storage and scans nothing.  The sparse route scanned its
# block for the magnitude its result carried until it carried the step's
# bound like an einsum step: the family loses its ten block scans (from
# 39).  At dense dim 17 each of the three sparse steps takes an all-zero
# operand and scanned nothing, but its zero result carried 0; the step's
# bound it carries now sends one more step past 2**62, whose rescan scans
# its two operands (from 123).  Scanning every intermediate read 100,
# 100, 98 and 100.  The omega contraction that the F11 test no longer
# repeats scanned its result once, and its intermediate once more at
# dense dim 17 (from 47, 59, 81 and 48).  The three traces read by their
# definitions scan up to three times fewer (from 46, 58, 79 and 47).  A
# scalar (einsum_scalar) is the unreduced numerator over its denominator,
# with no scan: the report's ten scalar layers scan nothing (from 43, 55,
# 76 and 46).  The counts were 33, 45, 66 and 36 while an intermediate
# also carried whether its bound was its exact magnitude, which spared
# the scans of stored operands in a rescan and of exact one-term results
# (34, 56, 130 and 38 without that flag).  The c . g product that the
# Koszul formula relabels is one more result to scan, the inverse metric
# one scan fewer, and the rescans of the steps that the relabelings and
# the twisted_r trace no longer run go with those steps.  The model's
# eta (x) eta is one more stored tensor, scanned once (from 33, 55 and
# 29; at dense dim 17 the rescans scan one operand fewer, so it stays 125).
# Each product now built once as a tensor of its own is one more result
# to scan: phi . c, N's W, eta (x) eta (x) omega, nabla omega . phi,
# omega_star (x) omega_star and R(x, y, z, phi u); the curvature scans one
# fewer, r04 and its product where it scanned r13, its product and r04
# (from 34, 56, 125 and 30).  At dense dims 13 and 17 the steps no longer
# run take their rescans with them.
SCAN_COUNTS = {("dense", 3): 39, ("dense", 6): 53, ("dense", 8): 91, ("family", 6): 35}


@pytest.mark.parametrize("subscripts, shapes, sparse", [
    ("ij,jk->ik", ((200, 200), (200, 200)), True),
    ("ij,jk->ik", ((30, 30), (30, 30)), False),         # below the floor
    ("iij,jk->ik", ((40, 40, 40), (40, 40)), False),    # a letter repeated in a term
    ("ijkl->lkji", ((20, 20, 20, 20),), False),         # a permutation: no step
    ("ij,jk->k", ((200, 200), (200, 200)), False),      # a letter only one term sums
    ("ijkl->lk", ((20, 20, 20, 20),), False),           # one operand
    ("bij,bjk->bik", ((8, 64, 64), (8, 64, 64)), False),    # a letter both terms keep
])
def test_the_plan_marks_the_dense_only_steps(subscripts, shapes, sparse):
    variances = tuple("d" * len(shape) for shape in shapes)
    plan = _plan(subscripts, variances, shapes)
    assert len(plan.steps) == (plan.perm is None)
    assert all((step.sides is not None) == sparse for step in plan.steps)


def test_a_dense_dim_7_report_reads_no_value_to_pick_a_route():
    """Every step of a dim-7 report is below the floor: each is
    dense-only in its plan, no step counts nonzeros, and all run as
    einsum."""
    with kernel_probe() as probe:
        run_report(dense_member(3))
    assert probe.steps and all(step.dense_only for step in probe.steps)
    assert probe.nonzero_counts == 0
    assert set(probe.routes()) == {("einsum", "int32"), ("einsum", "int64")}


#: Nonzero magnitudes of each storage tier, its edges included.
TIERS = {
    "int32": (1, 7, 2**15 + 3, 2**31 - 1),
    "int64": (2**31, 2**31 + 1, 2**40 + 5, 2**62 - 1),
    "object": (2**62, 2**62 + 1, 3 * 2**70),
}


def _nonzeros(rng, kind: str):
    """A function that draws one nonzero entry of ``kind``: a small
    integer, a small rational, an integer past int64, or a magnitude of
    one of :data:`TIERS`."""
    sign = lambda: rng.choice((-1, 1))
    return {
        "int": lambda: sign() * rng.randint(1, 9),
        "rational": lambda: Fr(sign() * rng.randint(1, 9), rng.choice(PRIMES)),
        "huge": lambda: sign() * rng.randint(1, 2**70),
        **{tier: lambda tops=tops: sign() * rng.choice(tops) for tier, tops in TIERS.items()},
    }[kind]


def _fill(rng, shape, density: float, kind: str, den: int = 1) -> Tensor:
    """A tensor of ``shape`` whose entries are nonzero with probability
    ``density``, drawn by :func:`_nonzeros`, all over ``den``."""
    draw = _nonzeros(rng, kind)
    count = math.prod(shape)
    return _array([Fr(draw(), den) if rng.random() < density else 0 for _ in range(count)],
                  shape)


@st.composite
def sparse_steps(draw):
    """A two-operand contraction whose dense cost is at or above the floor
    (and below twice it): letters shared and kept (batch), shared and
    summed, kept from one operand, and summed in one operand only, in a
    random order, with each operand's density and kind of entry drawn."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    roles = {role: draw(st.integers(0, top)) for role, top in (
        ("batch", 1), ("summed", 2), ("left", 2), ("right", 2),
        ("left_only_sum", 1), ("right_only_sum", 1))}
    letters = iter("abcdefghijklmn")
    groups = {role: [next(letters) for _ in range(k)] for role, k in roles.items()}
    sizes = {ch: draw(st.integers(2, 4)) for group in groups.values() for ch in group}
    pad = next(letters)
    sizes[pad] = -(-SPARSE_FLOOR // math.prod(sizes.values()))
    groups[draw(st.sampled_from(("left", "right")))].append(pad)
    left = groups["batch"] + groups["summed"] + groups["left"] + groups["left_only_sum"]
    right = groups["batch"] + groups["summed"] + groups["right"] + groups["right_only_sum"]
    out = groups["batch"] + groups["left"] + groups["right"]
    for term in (left, right, out):
        rng.shuffle(term)
    operands = [_fill(rng, tuple(sizes[ch] for ch in term),
                      draw(st.sampled_from((0.0, 0.002, 0.02, 0.3, 1.0))),
                      draw(st.sampled_from(("int", "rational", "huge"))))
                for term in (left, right)]
    return f"{''.join(left)},{''.join(right)}->{''.join(out)}", operands


@contextmanager
def _plans_with_floor(floor):
    """Plans compiled under another ``SPARSE_FLOOR``.  The plan cache is
    emptied on the way in and out, so no such plan outlives the block."""
    _plan.cache_clear()
    try:
        with mock.patch.object(tensors, "SPARSE_FLOOR", floor):
            yield
    finally:
        _plan.cache_clear()


def _dense_plans():
    """Plans compiled with every step dense-only: a floor no step reaches."""
    return _plans_with_floor(math.inf)


@settings(max_examples=40, deadline=None)
@given(sparse_steps())
def test_the_sparse_route_matches_the_reference_and_the_dense_route(case):
    """Each route, forced, gives the exact result of the natural run, and
    that result's numerators times the operands' denominator product equal
    numpy's einsum of the operands' numerators as Python ints: an exact
    reference that uses neither route.  Both routes run in the dtype the
    step's numerator bound picks.  A step with a letter that only one
    operand sums, or a letter both operands keep (a batch letter), is
    dense-only: it runs as one einsum even when the sparse route is forced.
    Any other step with an all-zero operand returns its zero result on
    either run."""
    subscripts, (a, b) = case
    with kernel_probe() as natural:
        result = exact_einsum(subscripts, a, b)
    with mock.patch.object(tensors, "SPARSE_FACTOR", 0), kernel_probe() as sparse:
        by_sparse = exact_einsum(subscripts, a, b)
    with _dense_plans(), kernel_probe() as dense:
        by_dense = exact_einsum(subscripts, a, b)
    natural, sparse, dense = natural.routes(), sparse.routes(), dense.routes()
    assert result == by_sparse == by_dense
    assert all(t.num.flags.c_contiguous for t in (result, by_sparse, by_dense))
    _assert_canonical(result)
    reference = np.einsum(subscripts, a.num.astype(object), b.num.astype(object))
    assert np.array_equal(result.num.astype(object) * (a.den * b.den),
                          np.asarray(reference, dtype=object) * result.den)
    (step,) = _plan(subscripts, ("d" * a.rank, "d" * b.rank), (a.shape, b.shape)).steps
    bound = (a.magnitude or 1) * (b.magnitude or 1) * step.summed
    dtype = _step_dtype(bound, step.summed, _top(reference)).name
    terms, out = subscripts.split("->")
    left, right = terms.split(",")
    if (set(left) ^ set(right)) - set(out) or set(left) & set(right) & set(out):
        assert step.sides is None
        route = "einsum"
    else:
        route = "zero" if a.is_zero() or b.is_zero() else "sparse"
    assert dict(sparse) == {(route, dtype): 1}
    assert dict(dense) == {("einsum", dtype): 1}
    assert sum(natural.values()) == 1 and natural.keys() <= {(route, dtype), ("einsum", dtype)}


@st.composite
def live_row_steps(draw):
    """A two-operand step at the sparse floor whose first operand ``x`` is
    drawn row by row in the ``(kept, summed)`` layout of the sparse route:
    each row is zero, holds one nonzero or holds several, and the last is
    zero, so the live rows are a random strict subset.  ``x`` keeps one or
    two letters and sums one or two, in a random order; the other operand
    is dense and keeps one letter.  Entries are of one kind of
    :func:`_nonzeros`, over a drawn denominator."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    kept = list("ab"[:draw(st.integers(1, 2))])
    summed = list("cd"[:draw(st.integers(1, 2))])
    sizes = {ch: draw(st.integers(2, 5)) for ch in kept + summed}
    sizes["e"] = -(-SPARSE_FLOOR // math.prod(sizes.values()))
    left, right, out = kept + summed, summed + ["e"], kept + ["e"]
    for term in (left, right, out):
        rng.shuffle(term)
    nk, ns = math.prod(sizes[ch] for ch in kept), math.prod(sizes[ch] for ch in summed)
    nonzero = _nonzeros(rng, draw(st.sampled_from(("int", "rational", "huge", *TIERS))))
    den = draw(st.sampled_from((1, 3, 2**31 + 11)))
    rows = np.zeros((nk, ns), dtype=object)
    for row in range(nk - 1):
        for s in rng.sample(range(ns), rng.choice((0, 0, 1, rng.randint(1, ns)))):
            rows[row, s] = Fr(nonzero(), den)
    laid = kept + summed
    x = rows.reshape([sizes[ch] for ch in laid]).transpose([laid.index(ch) for ch in left])
    y = _fill(rng, tuple(sizes[ch] for ch in right), 1.0, "int")
    subscripts = f"{''.join(left)},{''.join(right)}->{''.join(out)}"
    return subscripts, _array(x.ravel().tolist(), x.shape), y, (len(kept), sizes["e"])


@settings(max_examples=20, deadline=None)
@given(live_row_steps())
def test_the_sparse_route_on_a_random_subset_of_live_rows(case):
    """The sparse route, forced, takes the mostly-zero operand and runs on
    its live rows alone, unless it has none (then the step's result is
    zero); it gives the dense route's tensor and the reference over
    Fractions, on every tier."""
    subscripts, x, y, side = case
    with mock.patch.object(tensors, "SPARSE_FACTOR", 0), kernel_probe() as probe:
        by_sparse = exact_einsum(subscripts, x, y)
    want = ("zero", None) if x.is_zero() else ("sparse", side)
    assert [(step.route, step.side) for step in probe.steps] == [want]
    with _dense_plans():
        assert exact_einsum(subscripts, x, y) == by_sparse
    _assert_same(by_sparse, _reference(subscripts, x, y))


#: Two-operand steps whose letters keep what one operand alone carries,
#: so they may take the sparse route, and two dense-only ones: a letter
#: that only one operand sums, and a letter that both keep.
TIER_SUBSCRIPTS = ("ab,bc->ac", "abc,cd->dba", "a,ab->b", "ab,cb->ca", "abc,bcd->da",
                   "ab,bc->c", "ab,ab->a")


@st.composite
def tiered_sums(draw):
    """Two terms of one step of :data:`TIER_SUBSCRIPTS` over letters of
    size 1-3.  Each operand draws its own density (zero included), its own
    tier of :data:`TIERS` or small rationals, and a denominator that may
    pass ``2**31`` or ``2**63``; each term draws a coefficient that may
    pass ``2**31`` in its numerator or its denominator."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    subscripts = draw(st.sampled_from(TIER_SUBSCRIPTS))
    sizes = {ch: draw(st.integers(1, 3)) for ch in "abcd"}
    terms = []
    for _ in range(2):
        operands = [_fill(rng, tuple(sizes[ch] for ch in term),
                          draw(st.sampled_from((0.0, 0.3, 1.0))),
                          draw(st.sampled_from((*TIERS, "rational"))),
                          draw(st.sampled_from((1, 3, 2**31 + 11, 2**63 + 5))))
                    for term in subscripts.split("->")[0].split(",")]
        coef = draw(st.sampled_from((1, -1, 2**31 + 1, Fr(-3, 2**31 + 7), Fr(5, 7))))
        terms.append((coef, subscripts, *operands))
    return terms


@settings(max_examples=100, deadline=None)
@given(tiered_sums())
def test_each_tier_matches_the_fraction_reference_on_both_routes(terms):
    """Numerators on both sides of ``2**31`` and ``2**62``, operands of
    different tiers in one step, zero operands, and denominators,
    coefficients and lcms past ``2**31``: the natural run, the forced
    sparse route (a zero result, where an operand is all zero) and the
    dense route give the same tensor, equal to the reference over
    Fractions, and every stored tensor, operand or result, has the
    narrowest dtype for its magnitude.  Each step's operands are
    stored, so it runs in the dtype its exact bound picks on every route;
    the sum runs on Python ints exactly where its exact bound reaches
    ``2**62``, and in int32 only where that bound is below ``2**31``."""
    with _plans_with_floor(0):
        with kernel_probe() as natural:
            result = exact_sum(terms)
        with mock.patch.object(tensors, "SPARSE_FACTOR", 0), kernel_probe() as sparse:
            by_sparse = exact_sum(terms)
        plans = [_plan(subscripts, (a.variance, b.variance), (a.shape, b.shape))
                 for _, subscripts, a, b in terms]
    with _dense_plans(), kernel_probe() as dense:
        by_dense = exact_sum(terms)
    assert result == by_sparse == by_dense
    _assert_same(result, _reference_sum(terms))
    for _, _, *operands in terms:
        for op in operands:
            _assert_canonical(op)
    picks = []
    for (_, subscripts, a, b), plan in zip(terms, plans):
        (step,) = plan.steps
        top = _top(np.einsum(subscripts, a.num.astype(object), b.num.astype(object)))
        picks.append(_step_dtype(step.summed * (a.magnitude or 1) * (b.magnitude or 1),
                                 step.summed, top))
    assert [step.dtype for step in natural.steps] == [pick.name for pick in picks]
    assert len(natural.steps) == 2
    routes = ["einsum" if plan.steps[0].sides is None
              else "zero" if a.is_zero() or b.is_zero() else "sparse"
              for (_, _, a, b), plan in zip(terms, plans)]
    assert Counter(zip(routes, [pick.name for pick in picks])) == sparse.routes()
    assert Counter(("einsum", pick.name) for pick in picks) == dense.routes()
    values, dens, coefs = [], [], []
    for coef, subscripts, a, b in terms:
        values.append(np.einsum(subscripts, a.num.astype(object), b.num.astype(object)))
        dens.append(a.den * b.den * Fr(coef).denominator)
        coefs.append(Fr(coef).numerator)
    den = math.lcm(*dens)
    tight = sum(max(_top(v), 1) * max(abs(p * (den // d)), 1)
                for v, p, d in zip(values, coefs, dens))
    (summed,) = natural.reductions
    assert (summed == "object") == (tight >= INT64_SAFE)
    assert summed != "int32" or tight < INT32_SAFE


#: A step whose first operand keeps no letter: it sums all of them.  When
#: the sparse route takes that operand's nonzeros, every product lands in
#: the one output row (indexed by a boolean in ``_sparse_step``); when it
#: takes the other operand's, it gathers rows of one column from the first.
KEEPS_NONE = "abcd,abcde->e"


def _support(rng, shape, count: int) -> list[tuple[int, ...]]:
    """``count`` distinct random indices of an array of ``shape``."""
    return [np.unravel_index(k, shape) for k in rng.sample(range(math.prod(shape)), count)]


@pytest.mark.parametrize("taken, sides", [("keeps_none", (0, 13)),
                                          ("other_keeps_none", (1, 1))])
def test_a_dim_13_step_whose_operand_keeps_no_letter_takes_the_sparse_route(taken, sides):
    """At ``d = 13`` the natural run of :data:`KEEPS_NONE` takes the
    sparse route on whichever operand has fewer nonzeros per kept entry
    of the other: the summed-only ``x`` when it is the sparse one, else
    ``y``, which then gathers one column of ``x``.  Both agree with the
    dense route and with a sum over ``x``'s nonzeros in Python ints."""
    d, rng = 13, random.Random(taken)
    x, y = np.zeros((d,) * 4, dtype=np.int64), np.zeros((d,) * 5, dtype=np.int64)
    rows = _support(rng, x.shape, 200)
    if taken == "keeps_none":
        for k, at in enumerate(rows):       # y fills 200 rows; x keeps 5 of them
            y[at] = [rng.randint(-9, 9) for _ in range(d)]
            if k < 5:
                x[at] = rng.choice((-3, -1, 2, 5))
    else:
        for k, at in enumerate(rows):       # x has 200 nonzeros; y 5 under them
            x[at] = rng.choice((-3, -1, 2, 5))
            if k < 5:
                y[at + (rng.randrange(d),)] = rng.randint(1, 9)
    a, b = Tensor(x, "dddd"), Tensor(y, "ddddd")
    with kernel_probe() as probe:
        result = exact_einsum(KEEPS_NONE, a, b)
    assert [step.side for step in probe.steps] == [sides]
    with _dense_plans(), kernel_probe() as dense:
        assert exact_einsum(KEEPS_NONE, a, b) == result
    assert [step.side for step in dense.steps] == [None]
    want = [sum(int(x[at]) * int(y[at + (e,)]) for at in zip(*np.nonzero(x)))
            for e in range(d)]
    assert result.components.tolist() == want and any(want)


#: Nonzero numerators of each step tier for :data:`KEEPS_NONE`'s sparse
#: operand, over a denominator of 3, against small integers.
KEEPS_NONE_TIERS = {"int32": (1, 4, 9), "int64": (2**33 + 1, 2**40 + 5),
                    "object": (2**62 + 3, 3 * 2**70)}


@pytest.mark.parametrize("tier", list(KEEPS_NONE_TIERS))
@pytest.mark.parametrize("taken, sides", [("keeps_none", (0, 3)),
                                          ("other_keeps_none", (1, 1))])
def test_a_step_whose_operand_keeps_no_letter_matches_the_references(taken, sides, tier):
    """:data:`KEEPS_NONE` on letters of size 2 and 3, its sparse route
    forced onto either operand: in int32, int64 and Python ints it gives
    the dense route's tensor and the reference over Fractions."""
    rng = random.Random(f"{taken} {tier}")
    sx, sy = (2, 3, 2, 1), (2, 3, 2, 1, 3)

    def sparse(shape, count: int) -> Tensor:
        cells = [0] * math.prod(shape)
        for k in rng.sample(range(len(cells)), count):
            cells[k] = Fr(rng.choice((-1, 1)) * rng.choice(KEEPS_NONE_TIERS[tier]), 3)
        return _array(cells, shape)

    def dense(shape) -> Tensor:
        return _array([rng.choice((-2, -1, 1, 3)) for _ in range(math.prod(shape))], shape)

    a, b = (sparse(sx, 2), dense(sy)) if taken == "keeps_none" else (dense(sx), sparse(sy, 4))
    with _plans_with_floor(0):
        with mock.patch.object(tensors, "SPARSE_FACTOR", 0), kernel_probe() as probe:
            by_sparse = exact_einsum(KEEPS_NONE, a, b)
    assert [(step.side, step.dtype) for step in probe.steps] == [(sides, tier)]
    with _dense_plans(), kernel_probe() as probe:
        assert exact_einsum(KEEPS_NONE, a, b) == by_sparse
    assert [step.side for step in probe.steps] == [None]
    _assert_same(by_sparse, _reference(KEEPS_NONE, a, b))


def test_no_einsum_call_of_a_report_only_permutes_one_operand():
    """Over a whole report on the dense golden model, every term that
    only permutes one operand's letters is returned as a view: numpy's
    einsum never gets one."""
    model = dense_model()
    with kernel_probe() as probe:
        run_report(model)
    calls = [step.subscripts for step in probe.steps if step.route == "einsum"]
    assert calls and not any(map(_only_permutes, calls))


@pytest.mark.parametrize("kind, n", list(STEP_COUNTS))
def test_a_report_runs_the_same_int64_and_object_steps(kind, n):
    model = (dense_member if kind == "dense" else family_member)(n)
    with kernel_probe() as probe:
        run_report(model)
    assert dict(probe.routes()) == STEP_COUNTS[kind, n]


@pytest.mark.parametrize("kind, n", list(SCAN_COUNTS))
def test_a_report_runs_the_same_magnitude_scans(kind, n):
    model = (dense_member if kind == "dense" else family_member)(n)
    with kernel_probe() as probe:
        run_report(model)
    assert probe.scans == SCAN_COUNTS[kind, n]


@pytest.mark.parametrize("kind, n", [("dense", 3), ("family", 6)])
def test_the_algebra_check_runs_one_d5_step(kind, n):
    """The Jacobi defect is one product of the structure constants and
    two relabelings of it; the antisymmetry defect permutes only.  So
    validating an algebra runs exactly one pairwise step."""
    algebra = (dense_member if kind == "dense" else family_member)(n).algebra
    with kernel_probe() as probe:
        assert validate(algebra).ok
    assert len(probe.steps) == 1


def _stored_tensors(name: str, value):
    """The tensors that ``value`` holds, named by their path: through
    dicts, lists, tuples, named tuples and dataclasses."""
    if isinstance(value, Tensor):
        yield name, value
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from _stored_tensors(f"{name}[{key}]", item)
    elif hasattr(value, "__dataclass_fields__") or hasattr(value, "_fields"):
        for key in getattr(value, "_fields", None) or value.__dataclass_fields__:
            yield from _stored_tensors(f"{name}.{key}", getattr(value, key))
    elif isinstance(value, (list, tuple)):
        for k, item in enumerate(value):
            yield from _stored_tensors(f"{name}[{k}]", item)


@pytest.mark.parametrize("kind, n", [("family", 6), ("dense", 3)])
def test_every_tensor_a_report_stores_is_c_contiguous(kind, n):
    """Each layer of the report's Geometry and each tensor of the report
    is stored C-contiguous, so no later pass over it reads strided memory:
    an einsum step's result is laid out in C order and a sparse step
    scatters its rows into a C-contiguous result.  The family report kept
    Gamma, nabla2_phi and twisted_r as transposed views."""
    model, geometries = (dense_member if kind == "dense" else family_member)(n), []
    real = report_module.Geometry
    with mock.patch.object(report_module, "Geometry",
                           lambda m: geometries.append(real(m)) or geometries[-1]):
        report = run_report(model)
    (geo,) = geometries
    stored = [*_stored_tensors("geo", vars(geo)), *_stored_tensors("report", report.tensors)]
    assert len(stored) > 40
    assert [name for name, t in stored if not t.num.flags.c_contiguous] == []
