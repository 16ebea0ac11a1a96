"""Exact linear algebra on the integer numerators of a :class:`Tensor`.

The inverse metric (:func:`invert_symmetric`), the row space and rank
(:func:`row_space_basis`, :func:`matrix_rank`) and the Sylvester
signature (:func:`signature`) are fraction-free (Bareiss) eliminations
on Python-int rows: every division is exact, so no Fraction is built
until a row-space basis is read out.  A row whose multiplier is zero at
a pivot step is left stale and rescaled once, by :func:`_rescaled`, when
it is next read.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from . import tensors
from .errors import DimensionMismatch, SingularMetric
from .tensors import DOWN, UP, Tensor


def _symmetric_numerators(t: Tensor, name: str) -> list[list[int]]:
    if t.rank != 2 or t.shape[0] != t.shape[1]:
        raise DimensionMismatch(f"{name} needs a square rank-2 tensor, got {t.shape}")
    # The first entry that differs from its mirror, in C order, lies above
    # the diagonal: its mirror differs too and would come first otherwise.
    asymmetric = np.argwhere(t.num != t.num.T)
    if asymmetric.size:
        i, j = asymmetric[0].tolist()
        raise ValueError(f"{name} needs a symmetric tensor; "
                         f"entry ({i},{j}) != ({j},{i})")
    return t.num.tolist()


def _rescaled(row: list[int], since: int, prev: int) -> list[int]:
    """``row``, up to date under the pivot ``since``, brought up to date
    under ``prev`` (exact: the entries are minors); ``row`` itself when
    ``since`` is 0 or ``prev``, so a row that needs no rescale is kept."""
    if not since or since == prev:
        return row
    return [v * prev // since for v in row]


def _eliminate(m: list[list[int]], since: list[int], rows: Iterable[int], col: int,
               top: list[int], p: int, prev: int, start: int = 0) -> None:
    """One fraction-free step on each of ``rows`` of ``m``, under the pivot
    ``p`` in column ``col`` whose row from column ``start`` on is ``top``:
    a row's entries from ``start`` on become ``(p * v - f * w) // prev``,
    with ``f`` its multiplier.  With ``start`` 0 the row is built anew,
    else its tail is written in place.

    A row whose multiplier is zero would only be scaled by ``p / prev``,
    and such scales telescope, so it is left stale: ``since[i]`` is 0 for
    a row up to date under ``prev``, else the pivot it is up to date
    under, and :func:`_rescaled` brings it up to date when it is next read
    with a nonzero multiplier.  Zero tests read stale rows as they are,
    and a row that is never stale is never rescaled."""
    for i in rows:
        r = m[i]
        f = r[col]
        if not f:
            if not since[i] and p != prev:
                since[i] = prev
            continue
        if since[i]:
            r = _rescaled(r, since[i], prev)
            f, since[i] = r[col], 0
        if start:
            r[start:] = [(p * v - f * w) // prev for v, w in zip(r[start:], top)]
            m[i] = r
        else:
            m[i] = [(p * v - f * w) // prev for v, w in zip(r, top)]


def _gauss_jordan(m: list[list[int]]) -> tuple[list[int], int]:
    """Fraction-free Gauss-Jordan elimination (Bareiss, *Math. Comp.* 22,
    1968) of the integer matrix ``m``, in place: every division is exact.
    Columns without a pivot are skipped.  Returns the pivot columns and
    the last pivot ``p``; row ``k`` then has ``p`` in the ``k``-th pivot
    column and zeros in the others, and the rows below the pivot rows
    are zero.

    Every other row takes each step through :func:`_eliminate`; a stale
    row is also brought up to date when it becomes the pivot row, and at
    the end."""
    pivots: list[int] = []
    prev = 1
    since = [0] * len(m)
    for col in range(len(m[0]) if m else 0):
        k = len(pivots)
        pivot = next((r for r in range(k, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            continue
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            since[k], since[pivot] = since[pivot], since[k]
        if since[k]:
            m[k], since[k] = _rescaled(m[k], since[k], prev), 0
        row = m[k]
        p = row[col]
        _eliminate(m, since, (i for i in range(len(m)) if i != k), col, row, p, prev)
        prev = p
        pivots.append(col)
    for i, s in enumerate(since):
        if s:
            m[i] = _rescaled(m[i], s, prev)
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
    right = np.array([row[n:] for row in m], dtype=object).reshape(n, n) * (sign * g.den)
    # Read through the module, so a patch of ``tensors._max_abs`` or
    # ``tensors._canonical`` sees this scan and reduction too.
    return Tensor._of(*tensors._canonical(right, abs(p), tensors._max_abs(right)), UP + UP)


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

    The rows below the pivot take each step through :func:`_eliminate`,
    on the columns right of the pivot only (the others are never read
    again).  A stale row is brought up to date whole when it becomes the
    pivot row or enters the ``e_i <- e_i + e_j`` step.  Column operations
    act within each row, so they commute with its scale.
    """
    a = _symmetric_numerators(g, "signature")
    n = len(a)
    plus = minus = 0
    prev = 1
    since = [0] * n
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][i]), None)
        if pivot is None:
            pair = next(((i, j) for i in range(k, n) for j in range(i + 1, n) if a[i][j]),
                        None)
            if pair is None:
                break
            i, j = pair
            for r in pair:
                if since[r]:
                    a[r], since[r] = _rescaled(a[r], since[r], prev), 0
            # e_i <- e_i + e_j puts 2*a[i][j] on the diagonal, symmetrically.
            a[i][k:] = [x + y for x, y in zip(a[i][k:], a[j][k:])]
            for r in range(k, n):
                a[r][i] += a[r][j]
            pivot = i
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            since[k], since[pivot] = since[pivot], since[k]
            for row in a:
                row[k], row[pivot] = row[pivot], row[k]
        if since[k]:
            a[k] = _rescaled(a[k], since[k], prev)
        p = a[k][k]
        plus, minus = (plus + 1, minus) if (p > 0) == (prev > 0) else (plus, minus + 1)
        top = a[k][k + 1:]
        _eliminate(a, since, range(k + 1, n), k, top, p, prev, k + 1)
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
