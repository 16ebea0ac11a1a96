"""Exact rational scalars and dense tensors with variance-tagged slots.

Every number in this package is an exact rational — a Python int or a
:class:`fractions.Fraction` in lowest terms; floating point is rejected
at the door, so equality of computed quantities is always literal
equality of rationals.  Components live in numpy arrays of ``object``
dtype whose entries are in canonical form: plain ints for integer
values, Fractions otherwise.  Public scalar-valued functions always
return Fractions.

Multilinear algebra goes through one contraction kernel,
:func:`exact_einsum`.  It scales each operand to integer numerators over
the lcm of its entries' denominators, so a contraction of rationals is
a contraction of integers followed by one division by the product of
those denominators.  Before contracting it bounds every result entry by
the product of the operands' largest numerator magnitudes times the
number of summed index combinations.  When that bound and the
denominator product are both below ``2**62`` the integers are
contracted as ``int64`` arrays (numpy's own einsum, exact because no
entry can overflow); otherwise as object arrays of Python ints, whose
precision is unbounded.  Floats are never involved, and the kernel keeps
no state between calls.

A tensor slot is either contravariant (``"u"``) or covariant (``"d"``);
the ``variance`` string has one letter per axis.  Contractions are only
allowed between one ``u`` slot and one ``d`` slot.
"""
from __future__ import annotations

import itertools
import math
import numbers
import re
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionMismatch, SingularMetric, VarianceMismatch

#: The scalar field of the whole library: arbitrary-precision rationals.
Scalar = Fraction

UP = "u"
DOWN = "d"

ZERO = Fraction(0)
ONE = Fraction(1)

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
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not an exact rational: {value!r}") from exc
    raise TypeError(f"exact rational required, got {type(value).__name__}: {value!r}")


def as_entry(value):
    """Coerce ``value`` to a canonical exact rational *component*.

    Integer values become plain Python ints and everything else a
    Fraction in lowest terms.  Keeping integers as ints makes the dense
    object-array contractions much faster (no gcd normalization per
    operation) while every result stays exact; arithmetic freely mixes
    the two types.
    """
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


class Tensor:
    """A dense tensor of exact rationals.

    ``components`` is a read-only numpy object array; ``variance`` is a
    string of ``"u"``/``"d"`` letters, one per axis.  Instances are
    immutable and compare by exact component equality.
    """

    __slots__ = ("components", "variance")

    def __init__(self, components, variance: str):
        arr = scalar_array(components)
        variance = str(variance)
        if len(variance) != arr.ndim:
            raise VarianceMismatch(
                f"variance {variance!r} has {len(variance)} letters for a "
                f"rank-{arr.ndim} tensor"
            )
        if any(ch not in (UP, DOWN) for ch in variance):
            raise VarianceMismatch(f"variance letters must be 'u' or 'd': {variance!r}")
        arr.setflags(write=False)
        object.__setattr__(self, "components", arr)
        object.__setattr__(self, "variance", variance)

    def __setattr__(self, name, value):
        raise AttributeError("Tensor instances are immutable")

    # -- shape ---------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.components.shape

    @property
    def rank(self) -> int:
        return self.components.ndim

    def __getitem__(self, idx):
        return self.components[idx]

    def item(self) -> Fraction:
        """The single entry of a rank-0 tensor, as a Fraction."""
        return as_scalar(self.components.item())

    # -- comparison ----------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Tensor):
            return NotImplemented
        return (
            self.variance == other.variance
            and self.shape == other.shape
            and bool(np.all(self.components == other.components))
        )

    def __ne__(self, other) -> bool:
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    __hash__ = None

    def is_zero(self) -> bool:
        return bool(np.all(self.components == ZERO))

    # -- arithmetic (same variance only) -------------------------------

    def _check_same(self, other: "Tensor", op: str) -> None:
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

    def __add__(self, other: "Tensor") -> "Tensor":
        self._check_same(other, "add")
        return Tensor(self.components + other.components, self.variance)

    def __sub__(self, other: "Tensor") -> "Tensor":
        self._check_same(other, "subtract")
        return Tensor(self.components - other.components, self.variance)

    def __neg__(self) -> "Tensor":
        return Tensor(-self.components, self.variance)

    def __mul__(self, scalar) -> "Tensor":
        s = as_scalar(scalar)
        return Tensor(self.components * s, self.variance)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"Tensor(variance={self.variance!r}, shape={self.shape})"

    def nonzero_items(self) -> list[tuple[tuple[int, ...], Fraction]]:
        """Sorted ``(index, value)`` pairs for all nonzero components."""
        indices = itertools.product(*map(range, self.shape))
        return [(idx, v) for idx, v in zip(indices, self.components.ravel().tolist())
                if v != 0]


def tensor_product(a: Tensor, b: Tensor) -> Tensor:
    """Outer product; variances concatenate."""
    return Tensor(np.multiply.outer(a.components, b.components), a.variance + b.variance)


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
    traced = np.trace(t.components, axis1=up_slot, axis2=down_slot)
    keep = [i for i in range(r) if i not in (up_slot, down_slot)]
    variance = "".join(t.variance[i] for i in keep)
    return Tensor(np.asarray(traced, dtype=object), variance)


def _symmetric_rows(t: Tensor, name: str) -> list[list[Fraction]]:
    if t.rank != 2 or t.shape[0] != t.shape[1]:
        raise DimensionMismatch(f"{name} needs a square rank-2 tensor, got {t.shape}")
    n = t.shape[0]
    rows = [[as_scalar(t.components[i, j]) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rows[i][j] != rows[j][i]:
                raise ValueError(f"{name} needs a symmetric tensor; "
                                 f"entry ({i},{j}) != ({j},{i})")
    return rows


def invert_symmetric(g: Tensor) -> Tensor:
    """Exact inverse of a symmetric covariant metric; raises
    :class:`SingularMetric` when the form is degenerate.

    The inverse carries variance ``"uu"`` so that contracting it against
    ``g`` yields the identity with one slot up and one down.
    """
    rows = _symmetric_rows(g, "invert_symmetric")
    n = len(rows)
    a = [row[:] for row in rows]
    inv = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            raise SingularMetric("symmetric form is degenerate (no pivot)")
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            inv[col], inv[pivot] = inv[pivot], inv[col]
        d = a[col][col]
        a[col] = [v / d for v in a[col]]
        inv[col] = [v / d for v in inv[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
                inv[r] = [v - f * w for v, w in zip(inv[r], inv[col])]
    return Tensor(inv, UP + UP)


def signature(g: Tensor) -> tuple[int, int, int]:
    """Sylvester signature ``(plus, minus, zero)`` of a symmetric form.

    Computed by exact symmetric congruence elimination: at each step a
    nonzero diagonal pivot is produced (using the basis change
    ``e_i <- e_i + e_j`` when the remaining diagonal vanishes), its sign
    recorded, and the Schur complement taken.  Congruence preserves the
    signature, so the recorded signs are the answer.
    """
    rows = _symmetric_rows(g, "signature")
    n = len(rows)
    a = [row[:] for row in rows]
    plus = minus = zero = 0
    k = 0
    while k < n:
        pivot = next((i for i in range(k, n) if a[i][i] != 0), None)
        if pivot is None:
            pair = next(
                ((i, j) for i in range(k, n) for j in range(i + 1, n) if a[i][j] != 0),
                None,
            )
            if pair is None:
                zero += n - k
                break
            i, j = pair
            # e_i <- e_i + e_j puts 2*a[i][j] on the diagonal, symmetrically.
            for c in range(k, n):
                a[i][c] = a[i][c] + a[j][c]
            for r in range(k, n):
                a[r][i] = a[r][i] + a[r][j]
            pivot = i
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            for r in range(n):
                a[r][k], a[r][pivot] = a[r][pivot], a[r][k]
        d = a[k][k]
        if d > 0:
            plus += 1
        else:
            minus += 1
        for i in range(k + 1, n):
            f = a[i][k] / d
            if f:
                for j in range(k + 1, n):
                    a[i][j] = a[i][j] - f * a[k][j]
        for i in range(k + 1, n):
            a[i][k] = ZERO
            a[k][i] = ZERO
        k += 1
    return plus, minus, zero


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


#: Entries of an int64 contraction are kept below this magnitude.
INT64_SAFE = 1 << 62


def _integer_form(arr) -> tuple[list[int], int]:
    """The entries of ``arr`` as integer numerators over one common
    denominator (the lcm of theirs): ``(numerators, denominator)``."""
    flat = np.asarray(arr, dtype=object).ravel().tolist()
    denominators = {v.denominator for v in flat if type(v) is not int}
    if not denominators:
        return flat, 1
    den = math.lcm(*denominators)
    return [v * den if type(v) is int else v.numerator * (den // v.denominator)
            for v in flat], den


def _summed_combinations(subscripts: str, shapes) -> int:
    """How many index combinations each output entry of an explicit-mode
    einsum sums over (an upper bound when an ellipsis is summed)."""
    if "->" not in subscripts:
        raise ValueError(f"exact_einsum needs explicit subscripts with '->': {subscripts!r}")
    inputs, output = subscripts.replace(" ", "").split("->")
    sizes: dict[str, int] = {}
    ellipsis = 1
    for term, shape in zip(inputs.split(","), shapes):
        head, dots, tail = term.partition("...")
        if dots:
            ellipsis = max(ellipsis, math.prod(shape[len(head):len(shape) - len(tail)]))
            shape = shape[:len(head)] + shape[len(shape) - len(tail):]
        for ch, n in zip(head + tail, shape):
            sizes[ch] = max(sizes.get(ch, 1), n)
    total = math.prod(n for ch, n in sizes.items() if ch not in output)
    return total if "..." in output else total * ellipsis


def _contract_python_ints(subscripts: str, operands: list[np.ndarray]):
    """Contract object arrays of Python ints pairwise along numpy's greedy
    path, one unoptimized einsum per pair.  (``einsum(optimize=True)``
    cannot be used here: when both sides of a pair reduce to scalars it
    multiplies them as int64 and wraps.)"""
    if len(operands) <= 2 or "..." in subscripts:
        return np.einsum(subscripts, *operands)
    inputs, output = subscripts.replace(" ", "").split("->")
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


def exact_einsum(subscripts: str, *operands):
    """``np.einsum(subscripts, *operands)`` over exact rationals.

    The operands are object arrays of ints and Fractions; the result is
    one in canonical form (a bare entry for an empty output).  See the
    module docstring for the integer contraction and its int64 bound.
    """
    shapes = [np.shape(op) for op in operands]
    forms = [_integer_form(op) for op in operands]
    bound = _summed_combinations(subscripts, shapes)
    den = 1
    for nums, d in forms:
        # A zero operand counts as 1, so the bound also covers every
        # operand's own entries and every intermediate of the contraction.
        bound *= max(max(map(abs, nums), default=0), 1)
        den *= d
    fits = bound < INT64_SAFE and den < INT64_SAFE
    ints = [np.array(nums, dtype=np.int64 if fits else object).reshape(shape)
            for (nums, _), shape in zip(forms, shapes)]
    if fits:
        out = np.asarray(np.einsum(subscripts, *ints, optimize=True))
    else:
        out = np.asarray(_contract_python_ints(subscripts, ints))
    flat = out.ravel().tolist()
    if den != 1:
        flat = [v // den if v % den == 0 else Fraction(v, den) for v in flat]
    return flat[0] if out.ndim == 0 else _object_array(flat, out.shape)


def einsum_scalar(subscripts: str, *arrays) -> Fraction:
    """An exact contraction with empty output, as a Fraction."""
    return as_scalar(exact_einsum(subscripts, *arrays))


def vector_components(x, dim: int, name: str = "vector") -> np.ndarray:
    """Coerce a vector argument (Tensor or sequence) to an object array
    of ``dim`` Fractions."""
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
