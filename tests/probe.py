"""One probe of the exact kernel: what each pairwise step, sum, reduction,
scan and path search of ``norden.tensors`` did, for any test that asks.

``kernel_probe()`` wraps the kernel's observation points for the length of
a ``with`` block and yields a :class:`Record` of them.  The points are
``np.einsum_path`` (the path search of a new plan), ``np.count_nonzero``
(a step that may take the sparse route reads its operands; a count of
zero inside a step that runs no sparse route marks a zero result),
``tensors._pairwise`` (one step), ``tensors._wrapped`` (one step on the
residue route, which runs ``_pairwise`` once per modulus and records as
one step), ``tensors._sparse_step`` (a step on the live rows of one
operand, which must hold a nonzero), ``tensors._fit`` (the arithmetic of
a step or a sum: the bound it builds for a step is the one that step
records, and the tops it reads are what earlier steps' results carry),
``tensors._contract`` (one contraction: a product that is not a pure
permutation is recorded by a key of its own, see
:attr:`Record.contractions`), ``tensors._numerator_sum`` (one kernel call:
each ``exact_sum``, ``nonzero_where`` and ``einsum_scalar`` makes one),
``tensors._canonical`` (a reduction) and ``tensors._max_abs`` (a magnitude
scan).  No other test module patches them
(``test_probe.py`` checks that), so this is the one test file that knows
which private function runs a step and with what arguments.

The record keeps numbers and names only, never an operand array.
"""
import hashlib
import math
import weakref
from collections import Counter
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from typing import NamedTuple
from unittest import mock

import numpy as np

from norden import tensors


class Step(NamedTuple):
    """One pairwise step: its subscripts; whether its plan makes it
    dense-only; its route, ``"einsum"``, ``"sparse"`` or ``"zero"`` (an
    operand had no nonzero, so no einsum ran); the name of the
    dtype it ran in (its operands' one dtype, or ``"uint64"`` for a step
    the residue route proved exact); the bound ``_fit`` built for it;
    the bound recomputed from its operands' values (the product of their
    largest magnitudes, zeros counting as 1, times the index combinations
    it sums); the number of entries of its result; on the sparse route,
    the side taken: how many letters the operand whose nonzeros are taken
    keeps, and the kept size of the other operand (its first run's, on the
    residue route); the number of primes of a residue-route step,
    ``None`` for any other (a step whose check failed ran in ``"object"``
    with its primes); and the top its result carried into a later
    ``_fit``, ``None`` when no ``_fit`` of the block read it."""
    subscripts: str
    dense_only: bool
    route: str
    dtype: str
    bound: int
    value_bound: int
    size: int
    side: tuple[int, int] | None
    primes: int | None = None
    carried: int | None = None


@dataclass
class Record:
    """What the kernel did inside one ``kernel_probe()`` block: each
    pairwise step; the dtype name ``_fit`` picked for each sum; how many
    ``_fit`` calls rebuilt a bound past ``INT64_SAFE`` from scanned
    magnitudes; the dtype name of each array ``_canonical`` reduced; the
    number of magnitude scans; the subscripts and operand shapes of each
    path search; the number of nonzero counts; the number of
    ``_sparse_step`` calls whose ``x`` had no nonzero; the number of
    kernel calls (of ``_numerator_sum``); and a key per
    contraction that is not a pure permutation: its plan's step
    subscripts, and each operand's variance, denominator, shape and the
    sha1 of its numerator values, so that equal keys are one product
    built again."""
    steps: list[Step] = field(default_factory=list)
    sums: list[str] = field(default_factory=list)
    rescans: int = 0
    reductions: list[str] = field(default_factory=list)
    scans: int = 0
    searches: list[tuple[str, tuple]] = field(default_factory=list)
    nonzero_counts: int = 0
    empty_sparse: int = 0
    kernel_calls: int = 0
    contractions: list[tuple] = field(default_factory=list)

    def routes(self) -> Counter:
        """The steps counted by ``(route, dtype)``."""
        return Counter((step.route, step.dtype) for step in self.steps)


@contextmanager
def kernel_probe():
    """Record what the kernel does inside the block; see the module
    docstring."""
    record = Record()
    real_search, real_count = np.einsum_path, np.count_nonzero
    real_pairwise, real_sparse = tensors._pairwise, tensors._sparse_step
    real_wrapped = tensors._wrapped
    real_fit, real_canonical, real_max_abs = tensors._fit, tensors._canonical, tensors._max_abs
    real_contract, real_numerator_sum = tensors._contract, tensors._numerator_sum
    side = []       # the sides the sparse route took in the running step
    zeros = []      # non-empty once a count in the running step found no nonzero
    wrapping = []   # non-empty inside a residue-route step
    built = [0]     # the bound _fit built for the running step
    made = {}       # id of a step's result -> (a weak reference to it, the step's index)

    def einsum_path(subscripts, *operands, **kwargs):
        record.searches.append((subscripts, tuple(np.shape(op) for op in operands)))
        return real_search(subscripts, *operands, **kwargs)

    def count_nonzero(*args, **kwargs):
        record.nonzero_counts += 1
        count = real_count(*args, **kwargs)
        if not count:
            zeros.append(True)
        return count

    def value_bound(step, nums):
        return step.summed * math.prod(max(real_max_abs(num), 1) for num in nums)

    def made_by(step, out, dtype, values, primes=None):
        made[id(out)] = weakref.ref(out), len(record.steps)
        record.steps.append(Step(step.subscripts, step.sides is None,
                                 "sparse" if side else "zero" if zeros else "einsum",
                                 dtype, built[0], values,
                                 out.size, side[0] if side else None, primes))
        return out

    def pairwise(step, nums):
        if wrapping:
            return real_pairwise(step, nums)
        (dtype,) = {num.dtype.name for num in nums}
        values = value_bound(step, nums)
        side.clear()
        zeros.clear()
        return made_by(step, real_pairwise(step, nums), dtype, values)

    def wrapped(step, nums, primes):
        values = value_bound(step, nums)
        side.clear()
        zeros.clear()
        wrapping.append(True)
        try:
            out = real_wrapped(step, nums, primes)
        finally:
            wrapping.clear()
        return made_by(step, out, "object" if out.dtype == object else "uint64", values,
                       len(primes))

    def sparse_step(step, x, y, sx, sy):
        side.append((len(sx.own), sy.kept))
        record.empty_sparse += not real_count(x)
        return real_sparse(step, x, y, sx, sy)

    def fit(carried, summed=1, factors=None):
        for num, top in carried:
            ref, k = made.pop(id(num), (None, None))
            if ref is not None and ref() is num:
                record.steps[k] = record.steps[k]._replace(carried=top)
        scans = record.scans
        nums, bound, primes = real_fit(carried, summed, factors)
        record.rescans += record.scans > scans      # only a rescan scans inside _fit
        if factors is None:
            built[0] = bound
        else:
            record.sums.append(tensors._dtype(bound).name)
        return nums, bound, primes

    def contract(plan, operands):
        if plan.perm is None:
            record.contractions.append((
                tuple(step.subscripts for step in plan.steps),
                tuple((op.variance, op.den, op.shape, _sha1(op.num)) for op in operands)))
        return real_contract(plan, operands)

    def numerator_sum(terms):
        record.kernel_calls += 1
        return real_numerator_sum(terms)

    def canonical(num, den, top):
        made.clear()    # the sum is done: a stored result carries its magnitude
        record.reductions.append(num.dtype.name)
        return real_canonical(num, den, top)

    def max_abs(num):
        record.scans += 1
        return real_max_abs(num)

    with ExitStack() as stack:
        for owner, name, spy in ((np, "einsum_path", einsum_path),
                                 (np, "count_nonzero", count_nonzero),
                                 (tensors, "_pairwise", pairwise),
                                 (tensors, "_wrapped", wrapped),
                                 (tensors, "_sparse_step", sparse_step),
                                 (tensors, "_fit", fit),
                                 (tensors, "_contract", contract),
                                 (tensors, "_numerator_sum", numerator_sum),
                                 (tensors, "_canonical", canonical),
                                 (tensors, "_max_abs", max_abs)):
            stack.enter_context(mock.patch.object(owner, name, spy))
        yield record


def _sha1(num: np.ndarray) -> str:
    """The sha1 of ``num``'s values in C order, as int64 words (the same
    for int32 and int64) or, for Python ints, as their text."""
    data = repr(num.tolist()).encode() if num.dtype == object else num.astype(np.int64).tobytes()
    return hashlib.sha1(data).hexdigest()
