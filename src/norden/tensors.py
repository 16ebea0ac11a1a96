"""Exact rational scalars and dense tensors with variance-tagged slots.

Every number is an exact rational; floats are rejected at the door, so
equality of computed quantities is literal equality of rationals.

A :class:`Tensor` stores integer numerators ``num`` over one common
denominator ``den > 0``, beside its ``variance``.  ``num`` is an int64
ndarray when every magnitude is below ``2**62``, else an object ndarray
of Python ints.  The form is canonical (``gcd(all num, den) = 1``, so
zero has ``den = 1``; the dtype follows from the magnitudes), so two
tensors are equal exactly when their ``(variance, shape, den, num)`` are.
Each tensor also stores ``magnitude``, its largest ``|num|`` entry, found
where its storage is built, so a contraction reads its operands' bound
terms without scanning them.

Every computation is a linear combination of contractions,
:func:`exact_sum` (:func:`exact_einsum` is its one-term case): each
contraction runs on numerators over the product of its operands'
denominators, pairwise along numpy's greedy path, the terms are added in
place as integers over the lcm ``L`` of theirs, and the result is reduced
once, by the gcd of ``L`` and the nonzero numerators.  A term that only
permutes the letters of one operand (the identity included) does no
arithmetic: it is a transposed, read-only view of that operand's
numerators, with its denominator and largest magnitude, and it runs no
einsum.  Such a term alone, with coefficient 1, is already canonical and
is returned as it is.
Two bounds keep int64 exact; zeros count as 1 in both.  A pairwise step
runs in int64 when the product of its two operands' largest numerator
magnitudes (an intermediate's as computed) times the number of index
combinations it sums, and the product of the contraction's denominators,
are below ``2**62``.  The terms are added in int64 when the sum of
``max|num| * |coefficient| * L / den`` over them, which bounds every
partial sum, is below ``2**62``.  Otherwise Python ints are used.

Everything about a contraction that does not depend on values is
compiled once into a plan and kept in a bounded cache.  Its key is the
subscripts, the operands' variances and the operands' shapes.  It holds
the parsed terms, the output and the output variance, the axis order of
a permutation term, numpy's greedy pairwise path (searched once per key
on shape-only arrays) and, for each step, the pair it takes, its
subscripts, the number of index combinations it sums, its dense cost
(the product of its letter sizes) and, for a two-operand step, its
sparse layout.  A plan holds no value and no dtype: each call reads its
operands' stored magnitudes, so each step still picks its arithmetic by
the bound above.

Each step then picks its route.  A step is dense-only, and runs as
``np.einsum`` without reading a value, when it has one operand, repeats a
letter inside one term, sums a letter that only one operand carries, or
costs less than ``SPARSE_FLOOR``.  Any other step counts its operands'
nonzeros and takes the sparse route when ``SPARSE_FACTOR`` times the
smaller of ``nnz(A) * kept(B)`` and ``nnz(B) * kept(A)`` is below its
dense cost, where ``kept(X)`` is the size of the letters only ``X``
keeps.  That route takes the nonzeros of the cheaper side in
``(batch, kept, summed)`` order, multiplies each by the matching row of
the other operand, sums the products per output row with
``np.add.reduceat`` into a zero result and transposes it to the step's
letters.  It multiplies and adds the same integers as the dense einsum,
fewer of them, so the step's bound covers every partial sum of either
route, and both routes serve both dtypes.

Every scalar comes in through :func:`as_pair`, which reads it as an
integer pair ``(p, q)``; ``Tensor(...)`` and :meth:`Tensor.of_pairs`
build storage from such pairs over the lcm of their ``q``.  So
``Tensor(...)``, the model-file parsers and the coefficients of
:func:`exact_sum` build no Fraction for an int or a plain ``p/q``
string.  Fractions appear only at the output edges: the read-only
:attr:`Tensor.components` view (ints and Fractions in lowest terms,
built on first read), scalar results such as :func:`einsum_scalar` and
:func:`as_scalar`, and rendering, where :meth:`Tensor.formatted` formats
each distinct numerator once.  A slot is contravariant ``"u"`` or
covariant ``"d"``; a contraction gives each output slot the variance of
the first operand slot that carries its index letter.
"""
from __future__ import annotations

import functools
import math
import numbers
import re
import string
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import DimensionMismatch, SingularMetric, VarianceMismatch

UP = "u"
DOWN = "d"

#: Numerator magnitudes below this are stored and contracted as int64.
INT64_SAFE = 1 << 62

#: A pairwise step whose dense cost, the product of its letter sizes, is
#: below this runs as a dense einsum without reading its operands.
SPARSE_FLOOR = 1 << 15
#: A step that may take the sparse route takes it when this times its
#: sparse work (nonzeros of one operand times the other's kept size) is
#: below its dense cost.
SPARSE_FACTOR = 4

_LETTERS = string.ascii_letters

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


def format_scalar(value) -> str:
    """Render a rational as ``"p"`` or ``"p/q"`` in lowest terms."""
    if type(value) is int:
        return str(value)
    f = as_scalar(value)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def _object_array(entries: list, shape) -> np.ndarray:
    """An object ndarray of ``shape`` holding ``entries`` in C order."""
    arr = np.empty(len(entries), dtype=object)
    arr[:] = entries
    return arr.reshape(shape)


def _max_abs(num: np.ndarray) -> int:
    if num.dtype == object:
        return max(map(abs, num.flat), default=0)
    return max(int(num.max(initial=0)), -int(num.min(initial=0)))


def _canonical(num: np.ndarray, den: int, top: int) -> tuple[np.ndarray, int, int]:
    """``num / den``, whose largest magnitude is ``top``, in the canonical
    form: lowest terms, int64 when every magnitude is below
    ``INT64_SAFE``.  Returns the form's ``num``, ``den`` and ``top``.
    The common factor is the gcd of ``den`` and the nonzero entries."""
    if not top:                     # the zero tensor
        den = 1
    elif den != 1:
        flat = num.reshape(-1)
        g = math.gcd(den, int(np.gcd.reduce(flat[flat != 0])))
        if g != 1:
            num, den, top = np.asarray(num // g, dtype=num.dtype), den // g, top // g
    if num.dtype == object and top < INT64_SAFE:
        num = num.astype(np.int64)
    return num, den, top


def _pair_storage(pairs: list[tuple[int, int]], shape) -> tuple[np.ndarray, int, int]:
    """The canonical ``num``, ``den`` and ``top`` of the entries ``p / q``,
    given as pairs ``(p, q)`` with ``q > 0`` in C order: the numerators
    over the lcm of the ``q``, then reduced by :func:`_canonical`."""
    den = math.lcm(*[q for _, q in pairs])
    nums = [p * (den // q) for p, q in pairs] if den != 1 else [p for p, _ in pairs]
    top = max(max(nums, default=0), -min(nums, default=0))
    num = np.array(nums, dtype=np.int64 if top < INT64_SAFE else object)
    return _canonical(num.reshape(shape), den, top)


class Tensor:
    """A dense tensor of exact rationals, stored as ``num / den``.

    ``num`` (a read-only int64 or object ndarray of ints), ``den`` (an
    int > 0) and ``variance`` (a string of ``"u"``/``"d"`` letters, one
    per axis) are in the canonical form of the module docstring;
    ``magnitude`` is the largest ``abs(num)`` entry (0 with no entries).
    ``Tensor(components, variance)`` builds one from any array-like of
    exact rationals.  Instances are immutable and compare by exact value.
    """

    __slots__ = ("num", "den", "variance", "magnitude", "_components")

    def __init__(self, components, variance: str):
        arr = np.array(components, dtype=object)
        self._set(*_pair_storage(list(map(as_pair, arr.ravel().tolist())), arr.shape),
                  variance)

    @classmethod
    def of_pairs(cls, pairs: list[tuple[int, int]], shape, variance: str) -> "Tensor":
        """The tensor of ``shape`` whose entries, in C order, are ``p / q``
        for the pairs ``(p, q)`` of :func:`as_pair`."""
        return cls._of(*_pair_storage(pairs, shape), variance)

    @classmethod
    def _of(cls, num: np.ndarray, den: int, top: int, variance: str) -> "Tensor":
        """A tensor from storage that is already canonical, with its
        largest magnitude ``top``."""
        t = cls.__new__(cls)
        t._set(num, den, top, variance)
        return t

    def _set(self, num, den, top, variance) -> None:
        variance = str(variance)
        if len(variance) != num.ndim or variance.strip(UP + DOWN):
            raise VarianceMismatch(f"variance {variance!r} needs one 'u' or 'd' letter "
                                   f"per axis of a rank-{num.ndim} tensor")
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
            arr = _object_array(flat, self.num.shape)
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

    # -- arithmetic (same variance only) -------------------------------

    def _check_same(self, other: "Tensor", op: str) -> str:
        """Check ``other`` against ``self``; return identity subscripts."""
        if not isinstance(other, Tensor):
            raise TypeError(f"cannot {op} Tensor and {type(other).__name__}")
        if self.variance != other.variance:
            raise VarianceMismatch(
                f"cannot {op} variances {self.variance!r} and {other.variance!r}"
            )
        if self.shape != other.shape:
            raise DimensionMismatch(
                f"cannot {op} shapes {self.shape} and {other.shape}"
            )
        return _identity(self.rank)

    def __add__(self, other: "Tensor") -> "Tensor":
        same = self._check_same(other, "add")
        return exact_sum([(1, same, self), (1, same, other)])

    def __sub__(self, other: "Tensor") -> "Tensor":
        same = self._check_same(other, "subtract")
        return exact_sum([(1, same, self), (-1, same, other)])

    def __neg__(self) -> "Tensor":
        return Tensor._of(np.asarray(-self.num, dtype=self.num.dtype), self.den,
                          self.magnitude, self.variance)

    def __mul__(self, scalar) -> "Tensor":
        return exact_sum([(scalar, _identity(self.rank), self)])

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"Tensor(variance={self.variance!r}, shape={self.shape})"

    def formatted(self, where: np.ndarray | None = None) -> list[str]:
        """Every entry, or every entry where the boolean array ``where``
        is set, rendered as by :func:`format_scalar`, in C order.  Reads
        the numerators directly, builds no Fraction and formats each
        distinct numerator once."""
        d = self.den
        nums = (self.num if where is None else self.num[where]).ravel().tolist()
        texts = {}
        for v in set(nums):
            g = math.gcd(v, d)
            texts[v] = str(v // g) if g == d else f"{v // g}/{d // g}"
        return list(map(texts.__getitem__, nums))

    def nonzero_items(self) -> list[tuple[tuple[int, ...], Fraction]]:
        """Sorted ``(index, value)`` pairs for all nonzero components."""
        mask = self.num != 0
        return list(zip(map(tuple, np.argwhere(mask).tolist()),
                        self.components[mask].tolist()))


def _identity(rank: int) -> str:
    """Subscripts that leave a rank-``rank`` tensor as it is."""
    return f"{_LETTERS[:rank]}->{_LETTERS[:rank]}"


def _symmetric_numerators(t: Tensor, name: str) -> list[list[int]]:
    if t.rank != 2 or t.shape[0] != t.shape[1]:
        raise DimensionMismatch(f"{name} needs a square rank-2 tensor, got {t.shape}")
    asymmetric = np.argwhere(np.triu(t.num != t.num.T))
    if asymmetric.size:
        i, j = asymmetric[0].tolist()
        raise ValueError(f"{name} needs a symmetric tensor; "
                         f"entry ({i},{j}) != ({j},{i})")
    return t.num.tolist()


def _gauss_jordan(m: list[list[int]]) -> tuple[list[int], int]:
    """Fraction-free Gauss-Jordan elimination (Bareiss, *Math. Comp.* 22,
    1968) of the integer matrix ``m``, in place: every division is exact.
    Columns without a pivot are skipped.  Returns the pivot columns and
    the last pivot ``p``; row ``k`` then has ``p`` in the ``k``-th pivot
    column and zeros in the others, and the rows below the pivot rows
    are zero."""
    pivots: list[int] = []
    prev = 1
    for col in range(len(m[0]) if m else 0):
        k = len(pivots)
        pivot = next((r for r in range(k, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[k], m[pivot] = m[pivot], m[k]
        p = m[k][col]
        for i in range(len(m)):
            if i != k:
                f = m[i][col]
                m[i] = [(p * v - f * w) // prev for v, w in zip(m[i], m[k])]
        prev = p
        pivots.append(col)
    return pivots, prev


def invert_symmetric(g: Tensor) -> Tensor:
    """Exact inverse of a symmetric covariant metric; raises
    :class:`SingularMetric` when the form is degenerate.

    :func:`_gauss_jordan` on ``[N | I]``, with ``N`` the integer
    numerators of ``g``, leaves ``p I`` in the left block and ``p N^-1``
    in the right one.  So ``g^-1 = den * right / p`` arrives in integer
    storage.  The inverse carries variance ``"uu"`` so that contracting
    it against ``g`` yields the identity with one slot up and one down.
    """
    rows = _symmetric_numerators(g, "invert_symmetric")
    n = len(rows)
    m = [row + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    pivots, p = _gauss_jordan(m)
    if pivots != list(range(n)):
        raise SingularMetric("symmetric form is degenerate (no pivot)")
    sign = 1 if p > 0 else -1
    right = _object_array([v for row in m for v in row[n:]], (n, n)) * (sign * g.den)
    return Tensor._of(*_canonical(right, abs(p), _max_abs(right)), UP + UP)


def signature(g: Tensor) -> tuple[int, int, int]:
    """Sylvester signature ``(plus, minus, zero)`` of a symmetric form.

    Computed by symmetric congruence elimination on the integer
    numerators (a positive multiple of the form), fraction-free as in
    :func:`invert_symmetric`: at each step a nonzero diagonal pivot ``p``
    is produced (using the basis change ``e_i <- e_i + e_j`` when the
    remaining diagonal vanishes) and the rest updated by exact division
    by the previous pivot, so ``p`` is a leading principal minor of a
    congruent form.  The congruent diagonal entry is ``p`` over the
    previous pivot, so its sign is the product of theirs; congruence
    preserves the signature, so the recorded signs are the answer.
    """
    a = _symmetric_numerators(g, "signature")
    n = len(a)
    plus = minus = 0
    prev = 1
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][i]), None)
        if pivot is None:
            pair = next(((i, j) for i in range(k, n) for j in range(i + 1, n) if a[i][j]),
                        None)
            if pair is None:
                break
            i, j = pair
            # e_i <- e_i + e_j puts 2*a[i][j] on the diagonal, symmetrically.
            for c in range(k, n):
                a[i][c] += a[j][c]
            for r in range(k, n):
                a[r][i] += a[r][j]
            pivot = i
        a[k], a[pivot] = a[pivot], a[k]
        for row in a:
            row[k], row[pivot] = row[pivot], row[k]
        p = a[k][k]
        plus, minus = (plus + 1, minus) if (p > 0) == (prev > 0) else (plus, minus + 1)
        for i in range(k + 1, n):
            f = a[i][k]
            a[i][k + 1:] = [(p * x - f * y) // prev
                            for x, y in zip(a[i][k + 1:], a[k][k + 1:])]
        prev = p
    return plus, minus, n - plus - minus


def row_space_basis(rows: Iterable[Sequence]) -> list[list[Fraction]]:
    """The reduced row-echelon basis of the span of ``rows``, exactly:
    :func:`_gauss_jordan` on the rows' integer numerators, a common
    multiple of the rows that spans the same space, then each pivot row
    divided by its pivot.  Raises :class:`DimensionMismatch` unless the
    rows have one length."""
    rows = list(rows)
    lengths = {len(row) for row in rows}
    if len(lengths) > 1:
        raise DimensionMismatch(f"rows of different lengths {sorted(lengths)}")
    if not rows:
        return []
    m = Tensor(rows, UP + DOWN).num.tolist()
    pivots, _ = _gauss_jordan(m)
    return [[Fraction(v, row[col]) for v in row] for row, col in zip(m, pivots)]


def matrix_rank(rows: Iterable[Sequence]) -> int:
    """Exact rank of a list of rational row vectors."""
    return len(row_space_basis(rows))


def _subscripts(subscripts: str) -> tuple[list[str], str]:
    """Explicit-mode subscripts as one term per operand plus the output."""
    if "->" not in subscripts or "." in subscripts:
        raise ValueError("exact_einsum needs explicit subscripts with '->' and no "
                         f"ellipsis: {subscripts!r}")
    inputs, output = subscripts.replace(" ", "").split("->")
    return inputs.split(","), output


class _Side(NamedTuple):
    """One operand of a two-operand step, laid out for the sparse route.
    Its axes are read in ``(batch, kept, summed)`` order (``as_coo``)
    when its nonzeros are taken, or in ``(batch, summed, kept)`` order
    (``as_rows``) when its rows are gathered, with ``blocks`` the sizes
    of those three groups.  ``result`` is the step's result shape in
    ``(batch, own kept, other's kept)`` order and the transpose that puts
    it in the order of the step's letters, for when this operand's
    nonzeros are taken."""
    as_coo: tuple[int, ...]
    as_rows: tuple[int, ...]
    blocks: tuple[int, int, int]
    result: tuple[tuple[int, ...], tuple[int, ...]]


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
    terms: tuple[str, ...]
    output: str
    variance: str
    steps: tuple[_Step, ...]
    perm: tuple[int, ...] | None


def _sides(picked: list[str], kept: str, sizes: dict[str, int]) -> tuple[_Side, ...]:
    """The sparse layout of the two terms of a step that keeps ``kept``."""
    a, b = picked
    batch = [ch for ch in a if ch in b and ch in kept]
    summed = [ch for ch in a if ch in b and ch not in kept]
    own = [[ch for ch in term if ch in kept and ch not in batch] for term in picked]
    sides = []
    for term, mine, theirs in ((a, *own), (b, *own[::-1])):
        letters = batch + mine + theirs
        sides.append(_Side(
            as_coo=tuple(term.index(ch) for ch in batch + mine + summed),
            as_rows=tuple(term.index(ch) for ch in batch + summed + mine),
            blocks=tuple(math.prod(sizes[ch] for ch in group)
                         for group in (batch, mine, summed)),
            result=(tuple(sizes[ch] for ch in letters),
                    tuple(letters.index(ch) for ch in kept)),
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
        return _Plan(tuple(terms), output, slotted, (),
                     tuple(term.index(ch) for ch in output))
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
                      or any(ch not in kept for ch in set(picked[0]) ^ set(picked[1])))
        steps.append(_Step(pair, ",".join(picked) + "->" + kept, summed, cost,
                           None if dense_only else _sides(picked, kept, sizes)))
        left.append(kept)
    return _Plan(tuple(terms), output, slotted, tuple(steps), None)


def _sparse_step(x: np.ndarray, y: np.ndarray, sx: _Side, sy: _Side) -> np.ndarray:
    """A step on the nonzeros of ``x``: each nonzero ``x[b, i, s]`` times
    the gathered row ``y[b, s, :]``, the products summed per output row
    ``(b, i)`` and written into a zero result of ``x``'s dtype."""
    nb, nx, ns = sx.blocks
    x = np.atleast_1d(x.transpose(sx.as_coo))   # a view, not a copy
    rows = y.transpose(sy.as_rows).reshape(nb * ns, sy.blocks[1])
    flat = np.flatnonzero(x != 0)       # (b nx + i) ns + s, increasing
    out = np.zeros((nb * nx, rows.shape[1]), dtype=x.dtype)
    if flat.size:
        row, s = np.divmod(flat, ns)
        products = rows[row // nx * ns + s] * x[np.unravel_index(flat, x.shape)][:, None]
        starts = np.flatnonzero(np.concatenate(([True], row[1:] != row[:-1])))
        out[row[starts]] = np.add.reduceat(products, starts, axis=0)
    shape, perm = sx.result
    return out.reshape(shape).transpose(perm)


def _pairwise(step: _Step, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A step with a sparse layout, on the route its operands' nonzeros
    make cheaper: the sparse route on the operand whose nonzeros times
    the other's kept size is smaller, when that work times
    ``SPARSE_FACTOR`` is below the dense cost, else the dense einsum."""
    sa, sb = step.sides
    work_a = np.count_nonzero(a) * sb.blocks[1]
    work_b = np.count_nonzero(b) * sa.blocks[1]
    if SPARSE_FACTOR * min(work_a, work_b) >= step.cost:
        return np.einsum(step.subscripts, a, b)
    return _sparse_step(a, b, sa, sb) if work_a <= work_b else _sparse_step(b, a, sb, sa)


def _contract(plan: _Plan, operands) -> tuple[np.ndarray, int, int]:
    """One contraction of the operands' numerators, unreduced: the
    integer array, its largest magnitude and the product of the operands'
    denominators.  A permutation is a read-only view of its operand's
    numerators, with the operand's own magnitude and denominator.  Each
    pairwise step of any other contraction picks int64 or Python ints by
    its own bound, then its route."""
    if plan.perm is not None:
        (op,) = operands
        return op.num.transpose(plan.perm), op.magnitude, op.den
    den = math.prod(op.den for op in operands)
    ops = [(op.num, op.magnitude) for op in operands]
    for step in plan.steps:
        picked = [ops.pop(k) for k in step.pair]
        # A zero operand counts as 1, so the bound also covers each
        # operand's own entries and every partial sum of either route.
        bound = step.summed
        for _, top in picked:
            bound *= top or 1
        dtype = np.int64 if bound < INT64_SAFE and den < INT64_SAFE else object
        nums = [num.astype(dtype, copy=False) for num, _ in picked]
        out = (np.einsum(step.subscripts, *nums) if step.sides is None
               else _pairwise(step, *nums))
        out = np.asarray(out, dtype=dtype)      # a bare int would become int64
        ops.append((out, _max_abs(out)))
    return *ops[0], den


def exact_sum(terms) -> Tensor:
    """``sum(coef * einsum(subscripts, *operands))`` over exact tensors.

    Each term is a tuple ``(coef, subscripts, *operands)``: an exact
    rational coefficient, explicit-mode einsum subscripts and
    :class:`Tensor` operands.  Every term must give the same variance and
    shape.  The terms are contracted on integers, added over one common
    denominator and reduced once; see the module docstring for the two
    int64 bounds.
    """
    parts = []
    for coef, subscripts, *operands in terms:
        plan = _plan(subscripts, tuple([op.variance for op in operands]),
                     tuple([op.shape for op in operands]))
        num, top, den = _contract(plan, operands)
        p, q = (coef, 1) if type(coef) is int else as_pair(coef)
        parts.append((plan.variance, num, top, den * q, p))
    if len(parts) == 1 and plan.perm is not None and p == q == 1:
        # A permutation of a canonical operand is canonical as it is.
        return Tensor._of(num, den, top, plan.variance)
    variance, shape = parts[0][0], parts[0][1].shape
    for var, num, *_ in parts:
        if var != variance:
            raise VarianceMismatch(f"cannot add variances {variance!r} and {var!r}")
        if num.shape != shape:
            raise DimensionMismatch(f"cannot add shapes {shape} and {num.shape}")
    den = math.lcm(*(d for *_, d, _ in parts))
    factors = [p * (den // d) for *_, d, p in parts]
    # Zeros count as 1, so every term's numerators fit the dtype too.
    bound = sum((top or 1) * (abs(f) or 1) for (_, _, top, _, _), f in zip(parts, factors))
    dtype = np.int64 if bound < INT64_SAFE else object
    # The terms add in place into a copy of the first; a factor of 1
    # multiplies nothing, so a one-term sum keeps its contraction's array.
    total = None
    for (_, num, *_), f in zip(parts, factors):
        num = num.astype(dtype, copy=False)
        if total is None:
            total = num * f if f != 1 else (num if len(parts) == 1 else num.copy())
        elif f == 1:
            total += num
        elif f == -1:
            total -= num
        else:
            total += num * f
    total = np.asarray(total, dtype=dtype)      # a 0-d result is a scalar
    top = parts[0][2] * abs(factors[0]) if len(parts) == 1 else _max_abs(total)
    return Tensor._of(*_canonical(total, den, top), variance)


def exact_einsum(subscripts: str, *operands: Tensor) -> Tensor:
    """``np.einsum(subscripts, *operands)`` over exact tensors, as a
    :class:`Tensor` in canonical form (rank 0 for an empty output)."""
    return exact_sum([(1, subscripts, *operands)])


def einsum_scalar(subscripts: str, *operands: Tensor) -> Fraction:
    """An exact contraction with empty output, as a Fraction."""
    return exact_einsum(subscripts, *operands).item()


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
