"""Finite-dimensional Lie algebras given by structure constants.

An algebra is stored on a fixed basis ``x_0 ... x_{dim-1}`` through its
structure constants ``c[k, i, j]``: the ``x_k`` coefficient of
``[x_i, x_j]``.  Validation checks antisymmetry and the Jacobi identity
in exact arithmetic and itemizes every violated instance.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidAlgebra,
    ValidationReport,
    VarianceMismatch,
)
from .tensors import (
    Tensor,
    exact_einsum,
    exact_sum,
    row_space_basis,
    vector_components,
    zeros_array,
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


def algebra_from_brackets(
    dim: int,
    brackets: Mapping[tuple[int, int], Sequence] | Sequence[tuple[int, int, Sequence]],
) -> LieAlgebra:
    """Build an algebra from a sparse table of basis brackets.

    Each entry ``(i, j) -> coefficients`` declares ``[x_i, x_j]``; the
    mirror bracket ``[x_j, x_i]`` is filled in antisymmetrically.
    Unlisted pairs commute.
    """
    items = brackets.items() if isinstance(brackets, Mapping) else (
        ((i, j), coeffs) for i, j, coeffs in brackets
    )
    c = zeros_array((dim,) * 3)
    for (i, j), coeffs in items:
        vec = vector_components(coeffs, dim, name=f"bracket ({i},{j})")
        c[:, i, j] = vec
        c[:, j, i] = -vec
    return LieAlgebra(dim, Tensor(c, "udd"))


def bracket(algebra: LieAlgebra, x, y) -> Tensor:
    """The product ``[x, y]`` of two coordinate vectors, as a vector."""
    xv = vector_components(x, algebra.dim, name="x")
    yv = vector_components(y, algebra.dim, name="y")
    return exact_einsum("kij,i,j->k", algebra.c, Tensor(xv, "u"), Tensor(yv, "u"))


def validate(algebra: LieAlgebra) -> ValidationReport:
    """Check antisymmetry and the Jacobi identity, itemizing violations.

    Antisymmetry violations are reported once per basis pair ``(i, j)``
    (``i <= j``) with the offending output components; Jacobi violations
    once per triple ``i < j < k``.  (For antisymmetric constants the
    Jacobi defect is alternating in the triple, so distinct triples
    exhaust all cases.)
    """
    report = ValidationReport(subject="lie algebra")
    c = algebra.c
    defect = exact_sum([(1, "kij->kij", c), (1, "kji->kij", c)]).num != 0
    for i, j in np.argwhere(np.triu(defect.any(axis=0))).tolist():
        bad = np.flatnonzero(defect[:, i, j]).tolist()
        report.add(
            "antisymmetry",
            where=(i, j),
            detail=f"[x{i},x{j}] != -[x{j},x{i}] in components {bad}",
        )
    defect = exact_sum([
        (1, "mjk,lim->lijk", c, c),
        (1, "mki,ljm->lijk", c, c),
        (1, "mij,lkm->lijk", c, c),
    ]).num != 0
    for i, j, k in np.argwhere(defect.any(axis=0)).tolist():
        if i < j < k:
            report.add(
                "jacobi",
                where=(i, j, k),
                detail=f"Jacobi defect nonzero in components "
                       f"{np.flatnonzero(defect[:, i, j, k]).tolist()}",
            )
    return report


def is_solvable(algebra: LieAlgebra) -> bool:
    """Whether the derived series reaches zero.

    Computes ``span([V, V])`` for successively smaller exact row-space
    bases ``V``; the series either strictly shrinks to nothing
    (solvable) or stabilizes at a nonzero perfect subalgebra (not).
    Raises :class:`InvalidAlgebra` when validation fails.
    """
    report = validate(algebra)
    if not report.ok:
        raise InvalidAlgebra(str(report))
    basis = [row for row in np.eye(algebra.dim, dtype=int)]
    while basis:
        products = []
        for a in range(len(basis)):
            for b in range(a + 1, len(basis)):
                v = bracket(algebra, basis[a], basis[b])
                if not v.is_zero():
                    products.append(v.components)
        new_basis = row_space_basis(products)
        if not new_basis:
            return True
        if len(new_basis) >= len(basis):
            return False
        basis = new_basis
    return True
