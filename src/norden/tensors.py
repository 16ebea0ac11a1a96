"""Exact rational scalars and dense tensors with variance-tagged slots.

Every number is an exact rational; floats are rejected at the door, so
equality of computed quantities is literal equality of rationals.

A :class:`Tensor` stores integer numerators ``num`` over one common
denominator ``den > 0``, beside its ``variance``.  ``num`` is an int32
ndarray when every magnitude is below ``2**31``, else an int64 ndarray
when every magnitude is below ``2**62``, else an object ndarray of
Python ints.  The form is canonical (``gcd(all num, den) = 1``, so zero
has ``den = 1``; the dtype follows from the largest magnitude alone, so
an int64 result that fits int32 is narrowed), so two tensors are equal
exactly when their ``(variance, shape, den, num)`` are.
Each tensor also stores ``magnitude``, its largest ``|num|`` entry, found
where its storage is built, so a contraction reads its operands' bound
terms without scanning them.  An intermediate (a pairwise step's result,
a term of a sum) carries a bound instead, and is scanned only when a
bound reaches ``2**62`` (see below); :func:`exact_sum` scans each result
once, unless its one term carries its exact magnitude, so ``magnitude``
stays exact.

Every computation is a linear combination of contractions,
:func:`exact_sum` (:func:`exact_einsum` is its one-term case): each
contraction runs on numerators over the product of its operands'
denominators, pairwise along numpy's greedy path, the terms are added in
place as integers over the lcm ``L`` of theirs, and the result is reduced
once, by the gcd of ``L`` and the nonzero numerators.  A term that only
permutes the letters of one operand (the identity included) does no
arithmetic: it is a transposed, read-only view of that operand's
numerators, with its denominator and largest magnitude, and it runs no
einsum.  Such a term alone, with coefficient 1, is reduced like any sum:
the operand is canonical, so :func:`_canonical` finds no common factor
and no narrower dtype and returns the view as it is.  A check that
only asks where a sum is nonzero calls :func:`nonzero_where`, which runs
the same body up to the reduction and compares the unreduced numerators
with zero: no scan for the largest magnitude, no gcd and no division.
One function, :func:`_fit`, picks the arithmetic of every pairwise step
and every sum: it builds the bound, rescans it if need be, and casts the
operands or terms to the dtype of one rule, :func:`_dtype`: int32 below
``2**31``, int64 below ``2**62``, else Python ints.  A pairwise step's
bound is the product of its operands' largest numerator magnitudes
times the number of index combinations it sums; denominators enter no
integer of a step, so they pick nothing.  The terms of a sum are added
under the sum of ``max|num| * |coefficient| * L / den`` over them,
which bounds every partial sum.  Zeros count as 1 in both.  A bound
covers every product, partial sum and factor of its step or sum, so no
int32 or int64 operation can wrap; each operand is cast to the picked
dtype first, so no Python int meets a narrower array.  Each bound is
first built from what the operands or terms carry: an einsum step's
result carries that step's bound, ``summed * prod(max(top, 1))``, the
sparse route's its exact magnitude, and a sum its bound.  A carried
bound is never below the magnitude, so one below ``2**31`` picks int32
and one below ``2**62`` picks int64 safely; one that reaches ``2**62``
has its inexact operands or terms scanned and is built again from their
magnitudes.  So every step and every sum leaves int32 and int64 exactly
where the exact magnitudes do, and takes int32 wherever the carried
bound proves it: a scan costs a pass over the array, and it is paid
only to keep a step in a narrower tier.

A step whose bound still reaches ``2**62`` takes a fourth tier before
Python ints: the residue route of :func:`_wrapped`, a wrapping uint64
einsum whose result, read as int64, is proven exact by at most two
primes.  :func:`_primes` fixes the primes from the bound before any
residue work, and a bound past that cap, or an entry whose check fails
(its magnitude is at least ``2**63``), runs the step on Python ints.
The residue route's result is an int64 array that carries the step's
bound, like any einsum step's.  So the four tiers of a step are int32,
int64, residue-checked wrapping int64 and Python ints; a sum has the
first two and the last.

Everything about a contraction that does not depend on values is
compiled once into a plan and kept in a bounded cache.  Its key is the
subscripts, the operands' variances and the operands' shapes.  It holds
the output variance, the axis order of a permutation term and, from
numpy's greedy pairwise path (searched once per key on shape-only
arrays), each step: the pair it takes, its subscripts, the number of
index combinations it sums, its dense cost (the product of its letter
sizes) and the sparse layout of a step that may take the sparse route.
A plan holds no value and no dtype: each call reads its operands' stored
magnitudes, so each step still picks its arithmetic by the bounds above.

Each step then picks its route, in one call that returns the result and
what it carries.  A step is dense-only, and runs as one ``np.einsum``
whose result carries the step's bound, when it has one operand, repeats a
letter inside one term, costs less than ``SPARSE_FLOOR``, or does not
keep exactly the letters that one operand alone carries: a letter that
only one operand sums, or that both keep, makes it dense-only.  Any
other step counts its operands' nonzeros and takes the sparse route when
``SPARSE_FACTOR`` times the smaller of ``nnz(A) * kept(B)`` and
``nnz(B) * kept(A)`` is below its dense cost, where ``kept(X)`` is the
size of the letters ``X`` keeps.  That route takes the nonzeros of the
cheaper side in ``(kept, summed)`` order, multiplies each by the
matching row of the other operand, sums the products per output row
with ``np.add.reduceat`` and scatters them into a zero result, reading
the largest magnitude from those row sums.  It multiplies and adds the
same integers as the dense einsum, fewer of them, so the step's bound
covers every partial sum of either route, and both routes serve every
dtype.  Both return a C-contiguous result in the step's letter order.

Every scalar comes in through :func:`as_pair`, which reads it as an
integer pair ``(p, q)``; ``Tensor(...)`` and :meth:`Tensor.of_pairs`
build storage from such pairs over the lcm of their ``q``.  So
``Tensor(...)``, the model-file parsers and the coefficients of
:func:`exact_sum` build no Fraction for an int or a plain ``p/q``
string.  Fractions appear only at the output edges: the read-only
:attr:`Tensor.components` view (ints and Fractions in lowest terms,
built on first read), scalar results such as :func:`einsum_scalar` and
:func:`as_scalar`, and rendering, where :meth:`Tensor.formatted` formats
each distinct numerator once.  It and the text report read the text of
each distinct numerator, and which text each entry takes, from
:func:`_numerator_texts`, the one place a numerator over ``den`` becomes
text.  A slot is contravariant ``"u"`` or covariant ``"d"``; a
contraction gives each output slot the variance of the first operand slot
that carries its index letter.
"""
from __future__ import annotations

import functools
import math
import numbers
import re
import sys
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import DigitLimit, DimensionMismatch, VarianceMismatch

UP = "u"
DOWN = "d"

#: Numerator magnitudes below this are stored and contracted as int32.
INT32_SAFE = 1 << 31
#: Numerator magnitudes below this are stored and contracted as int64.
INT64_SAFE = 1 << 62

#: A pairwise step whose dense cost, the product of its letter sizes, is
#: below this runs as a dense einsum without reading its operands.
SPARSE_FLOOR = 1 << 15
#: A step that may take the sparse route takes it when this times its
#: sparse work (nonzeros of one operand times the other's kept size) is
#: below its dense cost.
SPARSE_FACTOR = 4

#: Largest decimal exponent magnitude accepted in a string such as
#: ``"1e300"``: Python's own limit on the digits of an int parsed from a
#: string.  ``Fraction("1e1000000")`` would build a 3.3-Mbit integer.
MAX_EXPONENT = 4300
_EXPONENT = re.compile(r"e[-+]?([\d_]+)\s*\Z", re.IGNORECASE)


def _exponent_too_large(text: str) -> bool:
    if "e" not in text and "E" not in text:  # the common case, cheaply
        return False
    match = _EXPONENT.search(text)
    digits = match.group(1).replace("_", "").lstrip("0") if match else ""
    # Five significant digits already exceed the cap; reading no more
    # keeps a long exponent string cheap.
    return int(digits[:5] or 0) > MAX_EXPONENT


def as_pair(value) -> tuple[int, int]:
    """``value`` as an integer pair ``(p, q)``, ``q > 0``, with ``p / q``
    its exact rational value; it accepts and rejects what
    :func:`as_scalar` does, with the same errors.

    An int, or a string that is an integer or ``p/q`` in plain digits,
    builds no Fraction, and such a string's pair need not be in lowest
    terms.  Any other string is read by ``Fraction``'s grammar."""
    if type(value) is int:
        return value, 1
    if isinstance(value, str):
        if _exponent_too_large(value):
            raise ValueError(
                f"decimal exponent beyond +-{MAX_EXPONENT}: {value[:40]!r}"
            )
        text = value.strip()
        p, slash, q = text.partition("/")
        try:
            if p.lstrip("+-").isdecimal() and (q.isdecimal() or not slash):
                p, q = int(p), int(q or 1)
                if not q:
                    raise ZeroDivisionError(text)
                return p, q
            f = Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not an exact rational: {value!r}") from exc
        return f.numerator, f.denominator
    if not isinstance(value, numbers.Rational):
        raise TypeError(f"exact rational required, got {type(value).__name__}: {value!r}")
    return int(value.numerator), int(value.denominator)


def as_scalar(value) -> Fraction:
    """Coerce ``value`` to an exact rational.

    Accepts Fractions, Python/NumPy integers and strings like ``"-3/4"``
    or ``"1.5e3"``; a decimal exponent beyond ``MAX_EXPONENT`` is a
    ``ValueError``.  Floats are rejected: silently converting them would
    smuggle rounding error into a library whose whole point is exactness.
    """
    if isinstance(value, Fraction):
        return value
    return Fraction(*as_pair(value))


@functools.lru_cache(maxsize=4)
def _power_of_ten(digits: int) -> int:
    return 10 ** digits


def _check_digits(*values: int) -> None:
    """Raise :class:`DigitLimit` if an int of ``values`` has more digits
    than ``sys.get_int_max_str_digits()`` lets Python write."""
    limit = sys.get_int_max_str_digits()
    if limit and max(map(abs, values)) >= _power_of_ten(limit):
        raise DigitLimit(f"a number has more than {limit} digits, Python's limit for "
                         "writing an integer as text (sys.set_int_max_str_digits)")


def format_scalar(value) -> str:
    """Render a rational as ``"p"`` or ``"p/q"`` in lowest terms."""
    if type(value) is int:
        _check_digits(value)
        return str(value)
    f = as_scalar(value)
    _check_digits(f.numerator, f.denominator)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def _max_abs(num: np.ndarray) -> int:
    if num.dtype == object:
        return max(map(abs, num.flat), default=0)
    return int(np.abs(num).max(initial=0))


_INT32, _INT64, _OBJECT = np.dtype(np.int32), np.dtype(np.int64), np.dtype(object)


def _dtype(bound: int) -> np.dtype:
    """The numerator dtype of integers whose magnitudes are at most
    ``bound``: int32 when it is below ``INT32_SAFE``, int64 when it is
    below ``INT64_SAFE``, else Python ints."""
    return _INT32 if bound < INT32_SAFE else _INT64 if bound < INT64_SAFE else _OBJECT


def _canonical(num: np.ndarray, den: int, top: int) -> tuple[np.ndarray, int, int]:
    """``num / den``, whose largest magnitude is ``top``, in the canonical
    form: lowest terms, in the dtype :func:`_dtype` picks for ``top``.
    Returns the form's ``num``, ``den`` and ``top``.
    The common factor is the gcd of ``den`` and the entries, read in one
    reduction over all of them (a zero entry divides nothing out) that
    starts from ``den % top``: ``top`` is one of those entries, so that
    start shares every common divisor with ``den`` and fits the entries'
    dtype, as does the factor, a divisor of ``top``."""
    if not top:                     # the zero tensor
        den = 1
    elif den != 1:
        g = int(np.gcd.reduce(num, axis=None, initial=den % top))
        if g != 1:
            num, den, top = np.asarray(num // g, dtype=num.dtype), den // g, top // g
    dtype = _dtype(top)
    if num.dtype is not dtype:      # never wider: the dtype came from a bound
        num = num.astype(dtype)
    return num, den, top


def _pair_storage(pairs: list[tuple[int, int]], shape) -> tuple[np.ndarray, int, int]:
    """The canonical ``num``, ``den`` and ``top`` of the entries ``p / q``,
    given as pairs ``(p, q)`` with ``q > 0`` in C order: the numerators
    over the lcm of the ``q``, then reduced by :func:`_canonical`."""
    den = math.lcm(*{q for _, q in pairs})
    nums = [p * (den // q) for p, q in pairs] if den != 1 else [p for p, _ in pairs]
    top = max(max(nums, default=0), -min(nums, default=0))
    num = np.array(nums, dtype=_dtype(top))
    return _canonical(num.reshape(shape), den, top)


def _numerator_texts(nums: np.ndarray, den: int) -> tuple[np.ndarray, np.ndarray]:
    """The numerators ``nums``, a non-empty 1-d array, over ``den`` as the
    texts of :func:`format_scalar`: an object array holding the text of
    each distinct numerator, in increasing order, and the index of each
    entry's text in it.  The distinct numerators come from one argsort
    (equal numerators take one text, so its order among them is free) and
    a compare of neighbours, and each is reduced once: not at all when
    ``den`` is 1, by one ``np.gcd`` over all of them when they are not
    Python ints and ``den`` fits int64 (int32 ones widened when ``den``
    does not fit int32), else by ``math.gcd``.  Python ints are checked
    by :func:`_check_digits`."""
    order = nums.argsort()
    ranked = nums[order]
    first = np.empty(ranked.size, dtype=bool)
    first[0] = True
    np.not_equal(ranked[1:], ranked[:-1], out=first[1:])
    values = ranked[first]
    first[0] = False                # so the running count of firsts is each text's index
    inverse = np.empty_like(order)
    inverse[order] = first.cumsum()
    if den == 1:
        values = values.tolist()
        if nums.dtype == _OBJECT:
            _check_digits(*values)
        return np.array(list(map(str, values)), dtype=object), inverse
    if values.dtype != _OBJECT and den < 1 << 63:
        if den >= INT32_SAFE:
            values = values.astype(_INT64, copy=False)
        g = np.gcd(values, den)
        pairs = zip((values // g).tolist(), (den // g).tolist())
    else:
        pairs = [(v // (g := math.gcd(v, den)), den // g) for v in values.tolist()]
        _check_digits(*(part for pair in pairs for part in pair))
    texts = [str(p) if q == 1 else f"{p}/{q}" for p, q in pairs]
    return np.array(texts, dtype=object), inverse


def _checked_variance(variance, rank: int) -> str:
    variance = str(variance)
    if len(variance) != rank or variance.strip(UP + DOWN):
        raise VarianceMismatch(f"variance {variance!r} needs one 'u' or 'd' letter "
                               f"per axis of a rank-{rank} tensor")
    return variance


class Tensor:
    """A dense tensor of exact rationals, stored as ``num / den``.

    ``num`` (a read-only int32, int64 or object ndarray of ints, the
    narrowest that holds ``magnitude``), ``den`` (an int > 0) and
    ``variance`` (a string of ``"u"``/``"d"`` letters, one per axis) are
    in the canonical form of the module docstring;
    ``magnitude`` is the largest ``abs(num)`` entry (0 with no entries).
    ``Tensor(components, variance)`` builds one from any array-like of
    exact rationals.  Instances are immutable and compare by exact value;
    they have no arithmetic operators, :func:`exact_sum` is the one route.
    """

    __slots__ = ("num", "den", "variance", "magnitude", "_components")

    def __init__(self, components, variance: str):
        arr = np.array(components, dtype=object)
        num, den, top = _pair_storage(list(map(as_pair, arr.ravel().tolist())), arr.shape)
        self._set(num, den, top, _checked_variance(variance, num.ndim))

    @classmethod
    def of_pairs(cls, pairs: list[tuple[int, int]], shape, variance: str) -> "Tensor":
        """The tensor of ``shape`` whose entries, in C order, are ``p / q``
        for the pairs ``(p, q)`` of :func:`as_pair`."""
        num, den, top = _pair_storage(pairs, shape)
        return cls._of(num, den, top, _checked_variance(variance, num.ndim))

    @classmethod
    def _of(cls, num: np.ndarray, den: int, top: int, variance: str) -> "Tensor":
        """A tensor from storage that is already canonical, with its
        largest magnitude ``top`` and a variance that fits its rank."""
        t = cls.__new__(cls)
        t._set(num, den, top, variance)
        return t

    def _set(self, num, den, top, variance) -> None:
        num.setflags(write=False)
        setattr = object.__setattr__
        setattr(self, "num", num)
        setattr(self, "den", den)
        setattr(self, "variance", variance)
        setattr(self, "magnitude", top)
        setattr(self, "_components", None)

    def __setattr__(self, name, value):
        raise AttributeError("Tensor instances are immutable")

    @property
    def components(self) -> np.ndarray:
        """The entries as a read-only object array of ints and Fractions
        in lowest terms, built on first read.  This is a view for output
        and tests; no computation goes through it."""
        if self._components is None:
            d = self.den
            flat = self.num.ravel().tolist()
            if d != 1:
                flat = [v // d if v % d == 0 else Fraction(v, d) for v in flat]
            arr = np.array(flat, dtype=object).reshape(self.num.shape)
            arr.setflags(write=False)
            object.__setattr__(self, "_components", arr)
        return self._components

    # -- shape ---------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.num.shape

    @property
    def rank(self) -> int:
        return self.num.ndim

    def __getitem__(self, idx):
        return self.components[idx]

    def item(self) -> Fraction:
        """The single entry of a rank-0 tensor, as a Fraction."""
        return Fraction(self.num.item(), self.den)

    # -- comparison ----------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Tensor):
            return NotImplemented
        return (
            self.variance == other.variance
            and self.shape == other.shape
            and self.den == other.den
            and bool(np.array_equal(self.num, other.num))
        )

    __hash__ = None

    def is_zero(self) -> bool:
        return not np.any(self.num)

    def __repr__(self) -> str:
        return f"Tensor(variance={self.variance!r}, shape={self.shape})"

    def formatted(self, where: np.ndarray | None = None) -> list[str]:
        """Every entry, or every entry that the boolean array ``where``
        selects as an index (a mask of the leading axes selects whole
        rows), rendered as by :func:`format_scalar`, in C order: the
        per-entry view of :func:`_numerator_texts`.  An empty selection
        formats nothing."""
        nums = (self.num if where is None else self.num[where]).ravel()
        if not nums.size:
            return []
        texts, inverse = _numerator_texts(nums, self.den)
        return texts[inverse].tolist()

    def nonzero_items(self) -> list[tuple[tuple[int, ...], Fraction]]:
        """Sorted ``(index, value)`` pairs for all nonzero components."""
        mask = self.num != 0
        return list(zip(map(tuple, np.argwhere(mask).tolist()),
                        self.components[mask].tolist()))


def _subscripts(subscripts: str) -> tuple[list[str], str]:
    """Explicit-mode subscripts as one term per operand plus the output."""
    if "->" not in subscripts or "." in subscripts:
        raise ValueError("exact_einsum needs explicit subscripts with '->' and no "
                         f"ellipsis: {subscripts!r}")
    inputs, output = subscripts.replace(" ", "").split("->")
    return inputs.split(","), output


class _Side(NamedTuple):
    """One operand of a two-operand step, laid out for the sparse route.
    Its axes are read in ``(kept, summed)`` order (``as_coo``) when its
    nonzeros are taken, or in ``(summed, kept)`` order (``as_rows``) when
    its rows are gathered, with ``blocks`` the sizes of those two groups.
    When its nonzeros are taken, ``result`` is the step's result shape,
    ``axes`` its transpose to ``(own kept, other's kept)`` order and
    ``own`` the shape of its own kept letters."""
    as_coo: tuple[int, ...]
    as_rows: tuple[int, ...]
    blocks: tuple[int, int]
    result: tuple[int, ...]
    axes: tuple[int, ...]
    own: tuple[int, ...]


class _Step(NamedTuple):
    """One pairwise step: the positions it takes off the operand list (the
    result goes on the end), its einsum subscripts, the number of index
    combinations it sums, its dense cost (the product of its letter
    sizes) and the sparse layout of its two operands, ``None`` when the
    step is dense-only."""
    pair: tuple[int, ...]
    subscripts: str
    summed: int
    cost: int
    sides: tuple[_Side, _Side] | None


class _Plan(NamedTuple):
    """How one contraction runs, fixed by its key alone: see the module
    docstring.  ``perm`` is the axis order of the output, for one operand
    whose output only permutes its letters (the identity included), and
    ``None`` for any other contraction; a permutation has no steps."""
    variance: str
    steps: tuple[_Step, ...]
    perm: tuple[int, ...] | None


def _sides(picked: list[str], kept: str, sizes: dict[str, int]) -> tuple[_Side, ...]:
    """The sparse layout of the two terms of a step that keeps ``kept``,
    the letters that only one of them carries, and sums the rest."""
    a, b = picked
    summed = [ch for ch in a if ch in b]
    own = [[ch for ch in a if ch not in b], [ch for ch in b if ch not in a]]
    sides = []
    for term, mine, theirs in ((a, *own), (b, *own[::-1])):
        letters = mine + theirs
        sides.append(_Side(
            as_coo=tuple(term.index(ch) for ch in mine + summed),
            as_rows=tuple(term.index(ch) for ch in summed + mine),
            blocks=tuple(math.prod(sizes[ch] for ch in group) for group in (mine, summed)),
            result=tuple(sizes[ch] for ch in kept),
            axes=tuple(kept.index(ch) for ch in letters),
            own=tuple(sizes[ch] for ch in mine),
        ))
    return tuple(sides)


@functools.lru_cache(maxsize=1024)
def _plan(subscripts: str, variances: tuple[str, ...],
          shapes: tuple[tuple[int, ...], ...]) -> _Plan:
    """The plan of one key; the path is searched on shape-only arrays."""
    terms, output = _subscripts(subscripts)
    if len(terms) != len(shapes):
        raise ValueError(f"{subscripts!r} has {len(terms)} terms for "
                         f"{len(shapes)} operands")
    path = [tuple(range(len(terms)))]
    if len(terms) > 2:
        shaped = (np.broadcast_to(np.int64(0), shape) for shape in shapes)
        path = np.einsum_path(",".join(terms) + "->" + output, *shaped,
                              optimize="greedy")[0][1:]
    slots: dict[str, str] = {}
    sizes: dict[str, int] = {}
    for k, (term, variance, shape) in enumerate(zip(terms, variances, shapes)):
        if len(term) != len(shape):
            raise ValueError(f"einstein sum subscripts {term!r} do not match "
                             f"operand {k} of rank {len(shape)}")
        slots = dict(zip(term, variance)) | slots       # the first slot wins
        for ch, n in zip(term, shape):
            sizes[ch] = max(sizes.get(ch, 1), n)
    for ch in output:
        if ch not in slots:
            raise ValueError("einstein sum subscripts string included output "
                             f"subscript {ch!r} which never appeared in an input")
    slotted = "".join(slots[ch] for ch in output)
    (term, *rest) = terms
    if not rest and len(set(term)) == len(term) and sorted(term) == sorted(output):
        return _Plan(slotted, (), tuple(term.index(ch) for ch in output))
    left, steps = list(terms), []
    for pair in path:
        pair = tuple(sorted(pair, reverse=True))
        picked = [left.pop(k) for k in pair]
        letters = "".join(picked)
        needed = set(output).union(*left)
        kept = "".join(dict.fromkeys(ch for ch in letters if ch in needed)) if left else output
        summed = math.prod(sizes[ch] for ch in set(letters) - set(kept))
        cost = math.prod(sizes[ch] for ch in set(letters))
        dense_only = (len(picked) != 2 or cost < SPARSE_FLOOR
                      or any(len(set(term)) != len(term) for term in picked)
                      or set(kept) != set(picked[0]) ^ set(picked[1]))
        steps.append(_Step(pair, ",".join(picked) + "->" + kept, summed, cost,
                           None if dense_only else _sides(picked, kept, sizes)))
        left.append(kept)
    return _Plan(slotted, tuple(steps), None)


def _sparse_step(x: np.ndarray, y: np.ndarray, sx: _Side,
                 sy: _Side) -> tuple[np.ndarray, int]:
    """A step on the nonzeros of ``x``: each nonzero ``x[i, s]`` times the
    gathered row ``y[s, :]``, the products summed per output row ``i``
    and scattered, through a transposed view, into a C-contiguous zero
    result of ``x``'s dtype.  Returns the result and its largest
    magnitude, read from the row sums alone, since every other entry is
    zero."""
    ns = sx.blocks[1]
    x = np.atleast_1d(x.transpose(sx.as_coo))   # a view, not a copy
    rows = y.transpose(sy.as_rows).reshape(ns, sy.blocks[0])
    flat = np.flatnonzero(x != 0)       # i ns + s, increasing
    out = np.zeros(sx.result, dtype=x.dtype)
    top = 0
    if flat.size:
        row, s = np.divmod(flat, ns)
        products = rows[s] * x[np.unravel_index(flat, x.shape)][:, None]
        starts = np.flatnonzero(np.concatenate(([True], row[1:] != row[:-1])))
        sums = np.add.reduceat(products, starts, axis=0)
        view = out.transpose(sx.axes)
        # A step that keeps no letter of x has one output row: ().
        at = np.unravel_index(row[starts], sx.own) if sx.own else ()
        view[at] = sums.reshape(-1, *view.shape[len(sx.own):])
        top = _max_abs(sums)
    return out, top


def _pairwise(step: _Step, nums: list[np.ndarray], bound: int) -> tuple[np.ndarray, int, bool]:
    """One step on ``nums``, which :func:`_fit` cast for it: the result, a
    bound on its largest magnitude and whether that bound is the
    magnitude itself.  A step with a sparse layout runs on the nonzeros of
    the operand whose nonzeros times the other's kept size is smaller,
    when that work times ``SPARSE_FACTOR`` is below its dense cost, and
    reads the exact magnitude from its row sums; any other step is one
    einsum, whose result carries ``bound`` unscanned.  Either result is
    C-contiguous and in the operands' dtype, whose integer arithmetic
    wraps only for uint64 (see :func:`_wrapped`)."""
    if step.sides is not None:
        (a, b), (sa, sb) = nums, step.sides
        work_a = np.count_nonzero(a) * sb.blocks[0]
        work_b = np.count_nonzero(b) * sa.blocks[0]
        if SPARSE_FACTOR * min(work_a, work_b) < step.cost:
            x, y, sx, sy = (a, b, sa, sb) if work_a <= work_b else (b, a, sb, sa)
            return *_sparse_step(x, y, sx, sy), True
    out = np.einsum(step.subscripts, *nums)
    if type(out) is not np.ndarray:     # a 0-d result is a bare scalar, an int for object
        out = np.asarray(out, dtype=nums[0].dtype)
    elif not out.flags.c_contiguous:    # einsum may lay its result out as the operands
        out = np.ascontiguousarray(out)
    return out, bound, False


#: The modulus of uint64 arithmetic, which numpy's integer arrays wrap at.
_WORD = 1 << 64
_INT64_MIN = -(1 << 63)

#: ``b -> (p, q)``: the two largest primes below ``2**b``, written as
#: ``2**b - gap``.  A step of ``m`` operands that sums ``K`` products takes
#: the pair of ``b = (63 + m - K.bit_length()) // m`` (at most 32), so its
#: residues, of magnitude at most ``p / 2``, keep ``K * (p / 2)**m`` below
#: ``2**63``.
_PRIMES = {b: ((1 << b) - gap, (1 << b) - gap2) for b, (gap, gap2) in {
    16: (15, 17), 17: (1, 9), 18: (5, 11), 19: (1, 19), 20: (3, 5), 21: (9, 19),
    22: (3, 17), 23: (15, 21), 24: (3, 17), 25: (39, 49), 26: (5, 27), 27: (39, 79),
    28: (57, 89), 29: (3, 33), 30: (35, 41), 31: (1, 19), 32: (5, 17)}.items()}


def _primes(bound: int, summed: int, operands: int) -> tuple[int, ...] | None:
    """The primes whose residues, beside the wrapped word, prove exact a
    step of ``operands`` operands that sums ``summed`` products under
    ``bound``: the fewest of its pair in :data:`_PRIMES` whose product
    ``P`` makes ``2**64 * P`` exceed ``bound + 2**63``, none when
    ``bound`` is below ``2**63``.  ``None`` past the cap of two primes,
    or when the step has no pair."""
    span = bound - _INT64_MIN
    b = min((63 + operands - summed.bit_length()) // operands, 32)
    pair = _PRIMES.get(b, ())
    for k in range(len(pair) + 1):
        if span < _WORD * math.prod(pair[:k]):
            return pair[:k]
    return None


def _residues(num: np.ndarray, modulus: int) -> np.ndarray:
    """``num`` modulo ``modulus``: the uint64 words of its entries for
    ``2**64``, else its balanced int64 residues, of magnitude at most
    ``modulus / 2``.  A Python-int operand is reduced first."""
    if num.dtype == _OBJECT:
        num = num % modulus                     # Python ints from 0 to modulus - 1
    if modulus == _WORD:
        return np.asarray(num, dtype=np.uint64)     # a negative entry wraps
    r = np.asarray(num, dtype=np.int64) % modulus   # int32 widens: modulus may pass 2**31
    return np.where(r > modulus // 2, r - modulus, r)


def _wrapped(step: _Step, nums: list[np.ndarray], bound: int,
             primes: tuple[int, ...]) -> tuple[np.ndarray, int, bool]:
    """One step whose ``bound`` reaches ``INT64_SAFE``, on the residue
    route (H. L. Garner, "The residue number system", 1959): it runs
    through :func:`_pairwise` on the operands' uint64 words, where the
    arithmetic wraps, so the result ``r``, read as int64, is the exact
    result ``x`` modulo ``2**64``; then once per prime ``p`` of ``primes``
    on balanced residues, where nothing wraps, giving ``x`` modulo ``p``.
    Where every prime agrees with ``r``, ``x = r`` modulo ``2**64`` times
    their product ``P``, and ``|x - r| <= bound + 2**63 < 2**64 * P``
    (:func:`_primes`), so ``x = r``.  An entry that disagrees, or that is
    ``-2**63``, has ``|x| >= 2**63``: then the whole step runs again on
    Python ints.  Returns what :func:`_pairwise` does; an int64 result
    carries ``bound``."""
    out = _pairwise(step, [_residues(num, _WORD) for num in nums], bound)[0].view(np.int64)
    agree = out != _INT64_MIN
    for p in primes:
        check = _pairwise(step, [_residues(num, p) for num in nums], bound)[0]
        agree &= out % p == check % p
    if agree.all():
        return out, bound, False
    return _pairwise(step, [num.astype(_OBJECT) for num in nums], bound)


def _bound(carried, summed: int, factors) -> int:
    """The bound of :func:`_fit` on what ``carried`` carries."""
    if factors is None:
        bound = summed
        for _, top, _ in carried:
            bound *= top or 1
        return bound
    bound = 0
    for (_, top, _), f in zip(carried, factors):
        bound += (top or 1) * (abs(f) or 1)
    return bound


def _fit(carried, summed: int = 1, factors=None) -> tuple[list[np.ndarray], int, list,
                                                          tuple[int, ...] | None]:
    """The arithmetic of one pairwise step (``factors`` is ``None``) or
    one sum, whose operands or terms are ``carried`` as ``(num, top,
    exact)``: ``top`` bounds the largest magnitude of ``num`` and
    ``exact`` says it is that magnitude.  A step's bound is ``summed``
    times the product of the tops; a sum's is the sum of each top times
    its factor's magnitude.  Zeros count as 1, so the bound also covers
    each operand's or term's own entries and every partial sum.  A bound
    that reaches ``INT64_SAFE`` has the inexact tops scanned and is built
    again from the magnitudes; a step whose bound still reaches it takes
    the residue route of :func:`_wrapped` when :func:`_primes` finds its
    primes, so the prime count is fixed before any residue work.
    Returns the numerators, the bound, ``carried`` as scanned and those
    primes, ``None`` for any other arithmetic.  Those numerators are the
    operands as they are on the residue route, else each cast, when its
    dtype is not already the one :func:`_dtype` picks for the bound."""
    bound = _bound(carried, summed, factors)
    if bound >= INT64_SAFE:
        carried = [(num, top if exact else _max_abs(num), True) for num, top, exact in carried]
        bound = _bound(carried, summed, factors)
        primes = (_primes(bound, summed, len(carried))
                  if bound >= INT64_SAFE and factors is None else None)
        if primes is not None:
            return [num for num, _, _ in carried], bound, carried, primes
    dtype = _dtype(bound)
    return ([num if num.dtype is dtype else num.astype(dtype) for num, _, _ in carried],
            bound, carried, None)


def _contract(plan: _Plan, operands) -> tuple[tuple[np.ndarray, int, bool], int]:
    """One contraction of the operands' numerators, unreduced: the
    integer array carried as ``(num, top, exact)``, with ``top`` a bound
    on its largest magnitude and ``exact`` whether ``top`` is that
    magnitude, and the product of the operands' denominators.  A
    permutation is a read-only view of its operand's numerators, with the
    operand's own magnitude and denominator.  Each pairwise step of any
    other contraction runs in the arithmetic :func:`_fit` picks from what
    its operands carry: through :func:`_pairwise`, or :func:`_wrapped`
    when it picks primes."""
    if plan.perm is not None:
        (op,) = operands
        return (op.num.transpose(plan.perm), op.magnitude, True), op.den
    ops = [(op.num, op.magnitude, True) for op in operands]
    for step in plan.steps:
        nums, bound, _, primes = _fit([ops.pop(k) for k in step.pair], step.summed)
        ops.append(_pairwise(step, nums, bound) if primes is None
                   else _wrapped(step, nums, bound, primes))
    return ops[0], math.prod([op.den for op in operands])


def _numerator_sum(terms) -> tuple[tuple[np.ndarray, int, bool], int, str]:
    """The body of :func:`exact_sum` up to the reduction: the terms
    contracted and added as integers over the lcm of their denominators.
    Returns the sum carried as :func:`_contract` carries a contraction,
    that denominator and the variance.  The terms add in the arithmetic
    :func:`_fit` picks from what they carry; the sum carries that bound,
    or its exact magnitude when it has one term that carries its own."""
    carried, dens, coefs = [], [], []
    variance = shape = None
    for coef, subscripts, *operands in terms:
        plan = _plan(subscripts, tuple([op.variance for op in operands]),
                     tuple([op.num.shape for op in operands]))
        if variance is None:
            variance = plan.variance
        elif plan.variance != variance:
            raise VarianceMismatch(f"cannot add variances {variance!r} and {plan.variance!r}")
        term, den = _contract(plan, operands)
        if shape is None:
            shape = term[0].shape
        elif term[0].shape != shape:
            raise DimensionMismatch(f"cannot add shapes {shape} and {term[0].shape}")
        p, q = (coef, 1) if type(coef) is int else as_pair(coef)
        carried.append(term)
        dens.append(den * q)
        coefs.append(p)
    if variance is None:
        raise ValueError("exact_sum needs at least one term")
    if len(carried) == 1 and p == 1:    # one term with coefficient 1 adds nothing
        return term, dens[0], variance
    den = math.lcm(*dens)
    factors = [p * (den // d) for p, d in zip(coefs, dens)]
    nums, bound, carried, _ = _fit(carried, factors=factors)
    # The terms add in place into a copy of the first; a factor of 1
    # multiplies nothing, and one term is multiplied, never copied.
    total = nums[0] * factors[0] if factors[0] != 1 else nums[0].copy()
    for num, f in zip(nums[1:], factors[1:]):
        if f == 1:
            total += num
        elif f == -1:
            total -= num
        else:
            total += num * f
    if not shape:                       # a 0-d result is a bare scalar
        total = np.asarray(total, dtype=nums[0].dtype)
    exact = len(carried) == 1 and carried[0][2]
    top = carried[0][1] * abs(factors[0]) if exact else bound
    return (total, top, exact), den, variance


def exact_sum(terms) -> Tensor:
    """``sum(coef * einsum(subscripts, *operands))`` over exact tensors.

    Each term is a tuple ``(coef, subscripts, *operands)``: an exact
    rational coefficient, explicit-mode einsum subscripts and
    :class:`Tensor` operands.  Every term must give the same variance and
    shape.  The terms are contracted on integers, added over one common
    denominator and reduced once by :func:`_canonical`; the sum is
    scanned for its largest magnitude first unless it carries that
    exactly.  See the module docstring for how :func:`_fit` picks int32,
    int64 or Python ints.
    """
    (num, top, exact), den, variance = _numerator_sum(terms)
    return Tensor._of(*_canonical(num, den, top if exact else _max_abs(num)), variance)


def nonzero_where(terms) -> np.ndarray:
    """Where ``exact_sum(terms)`` is nonzero, as a boolean array of its
    shape: the numerators of the unreduced sum compared with zero, with
    no scan for the largest magnitude and no gcd.  This is how a check
    decides that a sum vanishes, and where it does not."""
    (num, _, _), _, _ = _numerator_sum(terms)
    return np.asarray(num != 0)


def exact_einsum(subscripts: str, *operands: Tensor) -> Tensor:
    """``np.einsum(subscripts, *operands)`` over exact tensors, as a
    :class:`Tensor` in canonical form (rank 0 for an empty output)."""
    return exact_sum([(1, subscripts, *operands)])


def einsum_scalar(subscripts: str, *operands: Tensor) -> Fraction:
    """An exact contraction with empty output, as a Fraction: the
    unreduced numerator of :func:`_numerator_sum` over its denominator,
    which ``Fraction`` reduces, so no magnitude scan and no rank-0
    :class:`Tensor`."""
    (num, _, _), den, _ = _numerator_sum([(1, subscripts, *operands)])
    return Fraction(num.item(), den)


def vector(x, dim: int, name: str = "vector") -> Tensor:
    """A vector argument (a rank-1 Tensor or a sequence of exact
    rationals) as a contravariant Tensor of ``dim`` entries."""
    if isinstance(x, Tensor):
        if x.rank != 1:
            raise DimensionMismatch(f"{name} must be rank 1, got rank {x.rank}")
        if x.variance != UP:
            raise VarianceMismatch(f"{name} must be a vector (variance 'u'), "
                                   f"got variance {x.variance!r}")
    else:
        arr = np.array(list(x), dtype=object)
        if arr.ndim != 1:
            raise DimensionMismatch(f"{name} must be one-dimensional")
        x = Tensor(arr, UP)
    if x.shape[0] != dim:
        raise DimensionMismatch(f"{name} has length {x.shape[0]}, expected {dim}")
    return x
