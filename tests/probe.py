"""One probe of the exact kernel: what each pairwise step, sum, reduction,
scan and path search of ``norden.tensors`` did, for any test that asks.

``kernel_probe()`` wraps the kernel's observation points for the length of
a ``with`` block and yields a :class:`Record` of them.  The points are
``np.einsum_path`` (the path search of a new plan), ``np.count_nonzero``
(a step that may take the sparse route reads its operands),
``tensors._pairwise`` (one step), ``tensors._wrapped`` (one step on the
residue route, which runs ``_pairwise`` once per modulus and records as
one step), ``tensors._sparse_step`` (a step on the nonzeros of one
operand), ``tensors._fit`` (the arithmetic of a step or a sum),
``tensors._canonical`` (a reduction) and ``tensors._max_abs`` (a
magnitude scan).  No other test module patches them
(``test_probe.py`` checks that), so this is the one test file that knows
which private function runs a step and with what arguments.

The record keeps numbers and names only, never an operand array.
"""
import math
from collections import Counter
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from typing import NamedTuple
from unittest import mock

import numpy as np

from norden import tensors


class Step(NamedTuple):
    """One pairwise step: its subscripts; whether its plan makes it
    dense-only; its route, ``"einsum"`` or ``"sparse"``; the name of the
    dtype it ran in (its operands' one dtype, or ``"uint64"`` for a step
    the residue route proved exact); the bound ``_fit`` carried into it;
    the bound recomputed from its operands' values (the product of their
    largest magnitudes, zeros counting as 1, times the index combinations
    it sums); the number of entries of its result; on the sparse route,
    the side taken: how many letters the operand whose nonzeros are taken
    keeps, and the kept size of the other operand (its first run's, on the
    residue route); and the number of primes of a residue-route step,
    ``None`` for any other (a step whose check failed ran in ``"object"``
    with its primes)."""
    subscripts: str
    dense_only: bool
    route: str
    dtype: str
    bound: int
    value_bound: int
    size: int
    side: tuple[int, int] | None
    primes: int | None = None


@dataclass
class Record:
    """What the kernel did inside one ``kernel_probe()`` block: each
    pairwise step; the dtype name ``_fit`` picked for each sum; how many
    ``_fit`` calls rebuilt a bound past ``INT64_SAFE`` from scanned
    magnitudes; the dtype name of each array ``_canonical`` reduced; the
    number of magnitude scans; the subscripts and operand shapes of each
    path search; and the number of nonzero counts."""
    steps: list[Step] = field(default_factory=list)
    sums: list[str] = field(default_factory=list)
    rescans: int = 0
    reductions: list[str] = field(default_factory=list)
    scans: int = 0
    searches: list[tuple[str, tuple]] = field(default_factory=list)
    nonzero_counts: int = 0

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
    side = []       # the sides the sparse route took in the running step
    wrapping = []   # non-empty inside a residue-route step

    def einsum_path(subscripts, *operands, **kwargs):
        record.searches.append((subscripts, tuple(np.shape(op) for op in operands)))
        return real_search(subscripts, *operands, **kwargs)

    def count_nonzero(*args, **kwargs):
        record.nonzero_counts += 1
        return real_count(*args, **kwargs)

    def value_bound(step, nums):
        return step.summed * math.prod(max(real_max_abs(num), 1) for num in nums)

    def pairwise(step, nums, bound):
        if wrapping:
            return real_pairwise(step, nums, bound)
        (dtype,) = {num.dtype.name for num in nums}
        values = value_bound(step, nums)
        side.clear()
        out, top, exact = real_pairwise(step, nums, bound)
        record.steps.append(Step(step.subscripts, step.sides is None,
                                 "sparse" if side else "einsum", dtype, bound, values,
                                 out.size, side[0] if side else None))
        return out, top, exact

    def wrapped(step, nums, bound, primes):
        values = value_bound(step, nums)
        side.clear()
        wrapping.append(True)
        try:
            out, top, exact = real_wrapped(step, nums, bound, primes)
        finally:
            wrapping.clear()
        record.steps.append(Step(step.subscripts, step.sides is None,
                                 "sparse" if side else "einsum",
                                 "object" if out.dtype == object else "uint64", bound, values,
                                 out.size, side[0] if side else None, len(primes)))
        return out, top, exact

    def sparse_step(x, y, sx, sy):
        side.append((len(sx.own), sy.blocks[0]))
        return real_sparse(x, y, sx, sy)

    def fit(carried, summed=1, factors=None):
        nums, bound, scanned, primes = real_fit(carried, summed, factors)
        record.rescans += scanned is not carried     # only a rescan builds a new list
        if factors is not None:
            record.sums.append(tensors._dtype(bound).name)
        return nums, bound, scanned, primes

    def canonical(num, den, top):
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
                                 (tensors, "_canonical", canonical),
                                 (tensors, "_max_abs", max_abs)):
            stack.enter_context(mock.patch.object(owner, name, spy))
        yield record
