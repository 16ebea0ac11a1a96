"""Finite-dimensional Lie algebras given by structure constants.

An algebra is stored on a fixed basis ``x_0 ... x_{dim-1}`` through its
structure constants ``c[k, i, j]``: the ``x_k`` coefficient of
``[x_i, x_j]``.  Validation checks antisymmetry and the Jacobi identity
in exact arithmetic and itemizes every violated instance.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidAlgebra,
    ValidationReport,
    VarianceMismatch,
    violation,
)
from .linalg import row_space_basis
from .tensors import (
    Tensor,
    as_pair,
    exact_einsum,
    nonzero_where,
    vector,
)


@dataclass(frozen=True)
class LieAlgebra:
    """Structure constants on a fixed basis.

    ``c`` has variance ``"udd"``; ``c[k, i, j]`` is the coefficient of
    ``x_k`` in ``[x_i, x_j]``.  Construction checks shape only; call
    :func:`validate` for antisymmetry and Jacobi.
    """

    dim: int
    c: Tensor

    def __post_init__(self):
        if self.c.variance != "udd":
            raise VarianceMismatch(
                f"structure constants need variance 'udd', got {self.c.variance!r}"
            )
        if self.c.shape != (self.dim,) * 3:
            raise DimensionMismatch(
                f"structure constants shape {self.c.shape} does not match "
                f"dimension {self.dim}"
            )


def structure_constants(dim: int, table: Iterable[tuple[int, int, list]]) -> Tensor:
    """The ``udd`` structure constants of a table of basis brackets.

    Each entry ``(i, j, pairs)`` declares ``[x_i, x_j]`` by its ``dim``
    coefficients as :func:`as_pair`'s ``(p, q)`` pairs.  An unlisted
    mirror ``[x_j, x_i]`` is filled in by negating numerators; a listed
    one is taken as it is, so :func:`validate` reports a contradictory
    pair instead of it being repaired.  Unlisted pairs commute.  An
    index outside ``0..dim-1`` or a wrong number of coefficients raises
    :class:`DimensionMismatch`, and a pair listed twice ``ValueError``.
    The listed columns are put in canonical storage once and scattered
    into one array twice, negated into every mirror and then as they
    are, so a listed mirror or a diagonal entry keeps its own value.
    """
    listed, pairs = {}, []      # listed: the (i, j) read so far, in order
    for i, j, entry in table:
        if not (0 <= i < dim and 0 <= j < dim):
            raise DimensionMismatch(f"bracket indices ({i}, {j}) out of range for dim {dim}")
        if (i, j) in listed:
            raise ValueError(f"duplicate bracket entry ({i}, {j})")
        if len(entry) != dim:
            raise DimensionMismatch(
                f"bracket ({i},{j}) has length {len(entry)}, expected {dim}")
        listed[i, j] = None
        pairs += entry
    # The listed columns in canonical storage; c holds the same nonzero
    # numerators (and their negatives), so it shares their den and bound.
    cols = Tensor.of_pairs(pairs, (len(listed), dim), "ud")
    num = np.zeros((dim,) * 3, dtype=cols.num.dtype)
    if listed:
        i, j = np.array(list(listed)).T
        num[:, j, i] = -cols.num.T
        num[:, i, j] = cols.num.T
    return Tensor._of(num, cols.den, cols.magnitude, "udd")


def algebra_from_brackets(dim: int, brackets: Mapping[tuple[int, int], Sequence]) -> LieAlgebra:
    """Build an algebra from a sparse table of basis brackets.

    Each entry ``(i, j) -> coefficients`` declares ``[x_i, x_j]`` by
    ``dim`` exact rationals; :func:`structure_constants` completes the
    table and names a bad index or a wrong number of coefficients.
    """
    table = ((i, j, [as_pair(v) for v in coeffs]) for (i, j), coeffs in brackets.items())
    return LieAlgebra(dim, structure_constants(dim, table))


def bracket(algebra: LieAlgebra, x, y) -> Tensor:
    """The product ``[x, y]`` of two coordinate vectors, as a vector."""
    return exact_einsum("kij,i,j->k", algebra.c, vector(x, algebra.dim, name="x"),
                        vector(y, algebra.dim, name="y"))


def validate(algebra: LieAlgebra) -> ValidationReport:
    """Check antisymmetry and the Jacobi identity, itemizing violations.

    Antisymmetry violations are reported once per basis pair ``(i, j)``
    (``i <= j``) with the offending output components; Jacobi violations
    once per triple ``i < j < k``.  (For antisymmetric constants the
    Jacobi defect is alternating in the triple, so distinct triples
    exhaust all cases.)

    Both defects are decided by :func:`~norden.tensors.nonzero_where`,
    without reducing them.  The Jacobi defect, :func:`_jacobi_terms`, is
    one ``d**5`` contraction and two relabelings of it.
    """
    report = ValidationReport(subject="lie algebra")
    c = algebra.c
    idx = np.arange(algebra.dim)
    defect = nonzero_where([(1, "kij->kij", c), (1, "kji->kij", c)])
    report.violations += [
        violation(("antisymmetry", (i, j), f"[x{i},x{j}] != -[x{j},x{i}] in components {bad}"))
        for (i, j), bad in _components_by_index(defect, idx[:, None] <= idx)]
    defect = nonzero_where(_jacobi_terms(c))
    increasing = (idx[:, None, None] < idx[:, None]) & (idx[:, None] < idx)
    report.violations += [
        violation(("jacobi", where, f"Jacobi defect nonzero in components {bad}"))
        for where, bad in _components_by_index(defect, increasing)]
    return report


def _jacobi_terms(c: Tensor) -> list:
    """The Jacobi defect ``[x_i, [x_j, x_k]] + [x_j, [x_k, x_i]]
    + [x_k, [x_i, x_j]]``, component ``l``, as :func:`exact_sum` terms.

    Its first term is the product ``T[l, i, j, k] = c^m_jk c^l_im`` and
    the other two are the cyclic relabelings ``T[l, j, k, i]`` and
    ``T[l, k, i, j]``, read as views, so the defect costs one ``d**5``
    contraction.  The relabeling assumes no antisymmetry of ``c``.
    """
    t = exact_einsum("mjk,lim->lijk", c, c)
    return [(1, "lijk->lijk", t), (1, "ljki->lijk", t), (1, "lkij->lijk", t)]


def _components_by_index(defect: np.ndarray, keep: np.ndarray) -> list:
    """``(index, components)`` for each index of ``defect[0]`` where
    ``keep`` is set and some component is, in C order; ``components``
    lists the first indices of ``defect`` set there, in increasing order.
    One ``argwhere`` finds them all, and none runs when no index has one."""
    found = defect & keep
    if not found.any():
        return []
    hits = np.argwhere(np.moveaxis(found, 0, -1))
    where, components = hits[:, :-1], hits[:, -1].tolist()
    starts = np.flatnonzero(np.r_[True, (where[1:] != where[:-1]).any(axis=1)]).tolist()
    return [(tuple(index), components[a:b]) for index, a, b in
            zip(where[starts].tolist(), starts, starts[1:] + [len(components)])]


def is_solvable(algebra: LieAlgebra) -> bool:
    """Whether the derived series reaches zero.

    Computes ``span([V, V])`` for successively smaller exact row-space
    bases ``V``, every bracket of one step in one contraction; the series
    either strictly shrinks to nothing (solvable) or stabilizes at a
    nonzero perfect subalgebra (not).  Raises :class:`InvalidAlgebra`
    when validation fails.
    """
    report = validate(algebra)
    if not report.ok:
        raise InvalidAlgebra(str(report))
    basis = np.eye(algebra.dim, dtype=int).tolist()
    while basis:
        v = Tensor(basis, "du")
        products = exact_einsum("kij,ai,bj->abk", algebra.c, v, v).num
        # The numerators span what the brackets span; [a, b] = -[b, a],
        # so the nonzero rows with a < b suffice.
        rows = products[np.triu_indices(len(basis), 1)]
        new_basis = row_space_basis(rows[rows.any(axis=1)].tolist())
        if len(new_basis) >= len(basis):
            return False
        basis = new_basis
    return True
