"""Exact rational scalars and dense tensors with variance-tagged slots.

Every number is an exact rational; floats are rejected at the door, so
equality of computed quantities is literal equality of rationals.

A :class:`Tensor` stores integer numerators ``num`` over one common
denominator ``den > 0``, beside its ``variance``.  ``num`` is an int64
ndarray when every magnitude is below ``2**62``, else an object ndarray
of Python ints.  The form is canonical (``gcd(all num, den) = 1``, so
zero has ``den = 1``; the dtype follows from the magnitudes), so two
tensors are equal exactly when their ``(variance, shape, den, num)`` are.

Every computation is a linear combination of contractions,
:func:`exact_sum` (:func:`exact_einsum` is its one-term case): each
contraction runs on numerators over the product of its operands'
denominators, the terms are added as integers over the lcm ``L`` of
theirs, and the result is reduced once.  Two bounds keep int64 exact;
zeros count as 1 in both.  A contraction runs in int64 when the product
of its operands' largest numerator magnitudes times the number of summed
index combinations, and the product of their denominators, are below
``2**62``.  The terms are added in int64 when the sum of ``max|num| *
|coefficient| * L / den`` over them, which bounds every partial sum, is
below ``2**62``.  Otherwise Python ints are used.

Fractions appear only at the edges: building a tensor from rationals,
the read-only :attr:`Tensor.components` view (ints and Fractions in
lowest terms, built on first read), scalar results such as
:func:`einsum_scalar`, and rendering.  A slot is contravariant ``"u"``
or covariant ``"d"``; a contraction gives each output slot the variance
of the first operand slot that carries its index letter.
"""
from __future__ import annotations

import math
import numbers
import re
import string
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionMismatch, SingularMetric, VarianceMismatch

UP = "u"
DOWN = "d"

#: Numerator magnitudes below this are stored and contracted as int64.
INT64_SAFE = 1 << 62

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


def as_scalar(value) -> Fraction:
    """Coerce ``value`` to an exact rational.

    Accepts Fractions, Python/NumPy integers and strings like ``"-3/4"``
    or ``"1.5e3"``; a decimal exponent beyond ``MAX_EXPONENT`` is a
    ``ValueError``.  Floats are rejected: silently converting them would
    smuggle rounding error into a library whose whole point is exactness.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, numbers.Rational):
        return Fraction(value)
    if isinstance(value, str):
        if _exponent_too_large(value):
            raise ValueError(
                f"decimal exponent beyond +-{MAX_EXPONENT}: {value[:40]!r}"
            )
        text = value.strip()
        try:     # an integer literal parses much faster through int()
            return Fraction(int(text) if text.lstrip("+-").isdecimal() else text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not an exact rational: {value!r}") from exc
    raise TypeError(f"exact rational required, got {type(value).__name__}: {value!r}")


def as_entry(value):
    """Coerce ``value`` to a canonical exact rational *component*:
    integer values become plain Python ints and everything else a
    Fraction in lowest terms."""
    if type(value) is int:
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    f = as_scalar(value)
    return f.numerator if f.denominator == 1 else f


def format_scalar(value) -> str:
    """Render a rational as ``"p"`` or ``"p/q"`` in lowest terms."""
    if type(value) is int:
        return str(value)
    f = as_scalar(value)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def scalar_array(components) -> np.ndarray:
    """Copy ``components`` into an object ndarray of exact rationals
    (Python ints for integer values, Fractions otherwise)."""
    arr = np.array(components, dtype=object)
    return _object_array([v if type(v) is int else as_entry(v)
                          for v in arr.ravel().tolist()], arr.shape)


def _object_array(entries: list, shape) -> np.ndarray:
    """An object ndarray of ``shape`` holding ``entries`` in C order."""
    arr = np.empty(len(entries), dtype=object)
    arr[:] = entries
    return arr.reshape(shape)


def zeros_array(shape) -> np.ndarray:
    """An object ndarray of the given shape filled with exact zeros."""
    return np.full(shape, 0, dtype=object)


def _max_abs(num: np.ndarray) -> int:
    if num.dtype == object:
        return max(map(abs, num.flat), default=0)
    return int(np.abs(num).max(initial=0))


def _canonical(num: np.ndarray, den: int) -> tuple[np.ndarray, int]:
    """``num / den`` in the canonical form: lowest terms, int64 when every
    magnitude is below ``INT64_SAFE``."""
    if den != 1:
        common = int(np.gcd.reduce(num, axis=None))
        if not common:              # the zero tensor
            den = 1
        elif (g := math.gcd(common, den)) != 1:
            num, den = np.asarray(num // g, dtype=num.dtype), den // g
    if num.dtype == object and _max_abs(num) < INT64_SAFE:
        num = num.astype(np.int64)
    return num, den


class Tensor:
    """A dense tensor of exact rationals, stored as ``num / den``.

    ``num`` (a read-only int64 or object ndarray of ints), ``den`` (an
    int > 0) and ``variance`` (a string of ``"u"``/``"d"`` letters, one
    per axis) are in the canonical form of the module docstring.
    ``Tensor(components, variance)`` builds one from any array-like of
    exact rationals.  Instances are immutable and compare by exact value.
    """

    __slots__ = ("num", "den", "variance", "_components")

    def __init__(self, components, variance: str):
        arr = np.array(components, dtype=object)
        flat = [v if type(v) is int or type(v) is Fraction else as_scalar(v)
                for v in arr.ravel().tolist()]
        dens = [v.denominator for v in flat]
        den = math.lcm(*dens)
        nums = [v.numerator * (den // d) for v, d in zip(flat, dens)]
        dtype = np.int64 if max(map(abs, nums), default=0) < INT64_SAFE else object
        self._set(np.array(nums, dtype=dtype).reshape(arr.shape), den, variance)

    @classmethod
    def _of(cls, num: np.ndarray, den: int, variance: str) -> "Tensor":
        """A tensor from storage that is already canonical."""
        t = cls.__new__(cls)
        t._set(num, den, variance)
        return t

    def _set(self, num, den, variance) -> None:
        variance = str(variance)
        if len(variance) != num.ndim or set(variance) - {UP, DOWN}:
            raise VarianceMismatch(f"variance {variance!r} needs one 'u' or 'd' letter "
                                   f"per axis of a rank-{num.ndim} tensor")
        num.setflags(write=False)
        for name, value in (("num", num), ("den", den), ("variance", variance),
                            ("_components", None)):
            object.__setattr__(self, name, value)

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
                          self.variance)

    def __mul__(self, scalar) -> "Tensor":
        return exact_sum([(scalar, _identity(self.rank), self)])

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"Tensor(variance={self.variance!r}, shape={self.shape})"

    def formatted(self, where: np.ndarray | None = None) -> list[str]:
        """Every entry, or every entry where the boolean array ``where``
        is set, rendered as by :func:`format_scalar`, in C order.  Reads
        the numerators directly; builds no Fraction."""
        d = self.den
        flat = (self.num if where is None else self.num[where]).ravel().tolist()
        if d == 1:
            return [str(v) for v in flat]
        out = []
        for v in flat:
            g = math.gcd(v, d)
            out.append(str(v // g) if g == d else f"{v // g}/{d // g}")
        return out

    def nonzero_items(self) -> list[tuple[tuple[int, ...], Fraction]]:
        """Sorted ``(index, value)`` pairs for all nonzero components."""
        mask = self.num != 0
        return list(zip(map(tuple, np.argwhere(mask).tolist()),
                        self.components[mask].tolist()))


def _identity(rank: int) -> str:
    """Subscripts that leave a rank-``rank`` tensor as it is."""
    return f"{_LETTERS[:rank]}->{_LETTERS[:rank]}"


def tensor_product(a: Tensor, b: Tensor) -> Tensor:
    """Outer product; variances concatenate."""
    left, right = _LETTERS[:a.rank], _LETTERS[a.rank:a.rank + b.rank]
    return exact_einsum(f"{left},{right}->{left}{right}", a, b)


def contract(t: Tensor, up_slot: int, down_slot: int) -> Tensor:
    """Trace one contravariant slot against one covariant slot.

    ``up_slot`` must be tagged ``"u"`` and ``down_slot`` ``"d"``; both
    axes must have equal length.  The result drops the two slots,
    preserving the order of the rest.
    """
    r = t.rank
    for slot in (up_slot, down_slot):
        if not 0 <= slot < r:
            raise VarianceMismatch(f"slot {slot} out of range for rank {r}")
    if up_slot == down_slot:
        raise VarianceMismatch("cannot contract a slot with itself")
    if t.variance[up_slot] != UP or t.variance[down_slot] != DOWN:
        raise VarianceMismatch(
            f"contract needs ('u', 'd') slots, got "
            f"({t.variance[up_slot]!r}, {t.variance[down_slot]!r})"
        )
    if t.shape[up_slot] != t.shape[down_slot]:
        raise DimensionMismatch(
            f"slot lengths differ: {t.shape[up_slot]} vs {t.shape[down_slot]}"
        )
    letters = list(_LETTERS[:r])
    letters[down_slot] = letters[up_slot]
    keep = "".join(ch for i, ch in enumerate(letters) if i not in (up_slot, down_slot))
    return exact_einsum("".join(letters) + "->" + keep, t)


def _symmetric_numerators(t: Tensor, name: str) -> list[list[int]]:
    if t.rank != 2 or t.shape[0] != t.shape[1]:
        raise DimensionMismatch(f"{name} needs a square rank-2 tensor, got {t.shape}")
    asymmetric = np.argwhere(np.triu(t.num != t.num.T))
    if asymmetric.size:
        i, j = asymmetric[0].tolist()
        raise ValueError(f"{name} needs a symmetric tensor; "
                         f"entry ({i},{j}) != ({j},{i})")
    return t.num.tolist()


def invert_symmetric(g: Tensor) -> Tensor:
    """Exact inverse of a symmetric covariant metric; raises
    :class:`SingularMetric` when the form is degenerate.

    Fraction-free Gauss-Jordan elimination (Bareiss, *Math. Comp.* 22,
    1968) on ``[N | I]``, with ``N`` the integer numerators of ``g``:
    every division is exact, and at the end the left block is ``p I``
    and the right block ``p N^-1``.  So ``g^-1 = den * right / p``
    arrives in integer storage.  The inverse carries variance ``"uu"``
    so that contracting it against ``g`` yields the identity with one
    slot up and one down.
    """
    rows = _symmetric_numerators(g, "invert_symmetric")
    n = len(rows)
    m = [row + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    prev = 1
    for k in range(n):
        pivot = next((r for r in range(k, n) if m[r][k] != 0), None)
        if pivot is None:
            raise SingularMetric("symmetric form is degenerate (no pivot)")
        m[k], m[pivot] = m[pivot], m[k]
        p = m[k][k]
        for i in range(n):
            if i != k:
                f = m[i][k]
                m[i] = [(p * v - f * w) // prev for v, w in zip(m[i], m[k])]
        prev = p
    right = _object_array([v for row in m for v in row[n:]], (n, n))
    sign = 1 if prev > 0 else -1
    return Tensor._of(*_canonical(right * (sign * g.den), abs(prev)), UP + UP)


def signature(g: Tensor) -> tuple[int, int, int]:
    """Sylvester signature ``(plus, minus, zero)`` of a symmetric form.

    Computed by exact symmetric congruence elimination on the integer
    numerators (a positive multiple of the form): at each step a nonzero
    diagonal pivot is produced (using the basis change ``e_i <- e_i +
    e_j`` when the remaining diagonal vanishes), its sign recorded, and
    the Schur complement taken.  Congruence preserves the signature, so
    the recorded signs are the answer.
    """
    a = [[Fraction(v) for v in row] for row in _symmetric_numerators(g, "signature")]
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
            # e_i <- e_i + e_j puts 2*a[i][j] on the diagonal, symmetrically.
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


def row_space_basis(rows: Iterable[Sequence]) -> list[list[Fraction]]:
    """A reduced row-echelon basis of the span of ``rows``, exactly."""
    basis: list[list[Fraction]] = []
    pivots: list[int] = []
    for raw in rows:
        row = [as_scalar(v) for v in raw]
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


def matrix_rank(rows: Iterable[Sequence]) -> int:
    """Exact rank of a list of rational row vectors."""
    return len(row_space_basis(rows))


def _subscripts(subscripts: str, operands) -> tuple[list[str], str]:
    """Explicit-mode subscripts as one term per operand plus the output,
    with any ellipsis spelled out in spare letters."""
    if "->" not in subscripts:
        raise ValueError(f"exact_einsum needs explicit subscripts with '->': {subscripts!r}")
    inputs, output = subscripts.replace(" ", "").split("->")
    terms = inputs.split(",")
    if "..." in subscripts:
        spare = "".join(ch for ch in _LETTERS if ch not in subscripts)
        width = [op.rank - len(t) + 3 if "..." in t else 0
                 for t, op in zip(terms, operands)]
        fill = spare[:max(width)]
        terms = [t.replace("...", fill[len(fill) - w:]) for t, w in zip(terms, width)]
        output = output.replace("...", fill)
    return terms, output


def _contract_python_ints(subscripts: str, operands: list[np.ndarray]):
    """Contract object arrays of Python ints pairwise along numpy's greedy
    path, one unoptimized einsum per pair.  (``einsum(optimize=True)``
    cannot be used here: when both sides of a pair reduce to scalars it
    multiplies them as int64 and wraps.)"""
    if len(operands) <= 2:
        return np.einsum(subscripts, *operands)
    inputs, output = subscripts.split("->")
    terms, ops = inputs.split(","), list(operands)
    for pair in np.einsum_path(subscripts, *ops, optimize="greedy")[0][1:]:
        picked = [(terms.pop(k), ops.pop(k)) for k in sorted(pair, reverse=True)]
        needed = set(output).union(*terms)
        kept = "".join(dict.fromkeys(ch for t, _ in picked for ch in t if ch in needed))
        step = np.einsum(",".join(t for t, _ in picked) + "->" + kept,
                         *(op for _, op in picked))
        ops.append(np.asarray(step, dtype=object))   # a bare int would become int64
        terms.append(kept)
    return np.einsum(f"{terms[0]}->{output}", ops[0])


def _contract(terms: list[str], output: str, operands) -> tuple[np.ndarray, int]:
    """One contraction of the operands' numerators, unreduced: the
    integer array and the product of the operands' denominators."""
    sizes: dict[str, int] = {}
    for term, op in zip(terms, operands):
        for ch, n in zip(term, op.shape):
            sizes[ch] = max(sizes.get(ch, 1), n)
    bound = math.prod(n for ch, n in sizes.items() if ch not in output)
    den = 1
    for op in operands:
        # A zero operand counts as 1, so the bound also covers every
        # operand's own entries and every intermediate of the contraction.
        bound *= max(_max_abs(op.num), 1)
        den *= op.den
    spec = ",".join(terms) + "->" + output
    if bound < INT64_SAFE and den < INT64_SAFE:
        # Every operand is then canonically int64.
        return np.asarray(np.einsum(spec, *(op.num for op in operands), optimize=True)), den
    ints = [op.num.astype(object) for op in operands]
    return np.asarray(_contract_python_ints(spec, ints), dtype=object), den


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
        letters, output = _subscripts(subscripts, operands)
        slots: dict[str, str] = {}
        for term, op in zip(letters, operands):
            slots = dict(zip(term, op.variance)) | slots    # the first slot wins
        num, den = _contract(letters, output, operands)
        coef = as_scalar(coef)
        parts.append(("".join(slots[ch] for ch in output), num,
                      den * coef.denominator, coef.numerator))
    variance, shape = parts[0][0], parts[0][1].shape
    for var, num, _, _ in parts:
        if var != variance:
            raise VarianceMismatch(f"cannot add variances {variance!r} and {var!r}")
        if num.shape != shape:
            raise DimensionMismatch(f"cannot add shapes {shape} and {num.shape}")
    den = math.lcm(*(d for _, _, d, _ in parts))
    factors = [p * (den // d) for _, _, d, p in parts]
    # Zeros count as 1, so every term's numerators fit the dtype too.
    bound = sum(max(_max_abs(num), 1) * max(abs(f), 1)
                for (_, num, _, _), f in zip(parts, factors))
    dtype = np.int64 if bound < INT64_SAFE else object
    total = sum(num.astype(dtype, copy=False) * f for (_, num, _, _), f in zip(parts, factors))
    return Tensor._of(*_canonical(np.asarray(total, dtype=dtype), den), variance)


def exact_einsum(subscripts: str, *operands: Tensor) -> Tensor:
    """``np.einsum(subscripts, *operands)`` over exact tensors, as a
    :class:`Tensor` in canonical form (rank 0 for an empty output)."""
    return exact_sum([(1, subscripts, *operands)])


def einsum_scalar(subscripts: str, *operands: Tensor) -> Fraction:
    """An exact contraction with empty output, as a Fraction."""
    return exact_einsum(subscripts, *operands).item()


def vector_components(x, dim: int, name: str = "vector") -> np.ndarray:
    """Coerce a vector argument (Tensor or sequence) to an object array
    of ``dim`` exact rationals."""
    if isinstance(x, Tensor):
        if x.rank != 1:
            raise DimensionMismatch(f"{name} must be rank 1, got rank {x.rank}")
        arr = x.components.copy()
    else:
        arr = scalar_array(list(x))
        if arr.ndim != 1:
            raise DimensionMismatch(f"{name} must be one-dimensional")
    if arr.shape[0] != dim:
        raise DimensionMismatch(f"{name} has length {arr.shape[0]}, expected {dim}")
    return arr
