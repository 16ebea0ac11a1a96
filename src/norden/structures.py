"""Almost contact structures with a compatible Norden-type metric.

A model bundles a Lie algebra of dimension ``2n + 1`` with a structure
endomorphism ``phi``, a distinguished vector ``xi``, its dual 1-form
``eta`` and a pseudo-Riemannian metric ``g``, subject to the axioms

    phi^2 = -Id + eta (x) xi,          eta(xi) = 1,
    g(phi x, phi y) = -g(x, y) + eta(x) eta(y),

with ``g`` of signature ``(n+1, n)``.  All tensors are left-invariant,
i.e. constant on the chosen basis.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, ValidationReport, VarianceMismatch
from .lie import LieAlgebra, validate as validate_algebra
from .tensors import (
    Tensor,
    einsum_scalar,
    exact_einsum,
    exact_sum,
    format_scalar,
    invert_symmetric,
    nonzero_where,
    signature,
)


@dataclass(frozen=True)
class AcnModel:
    """A left-invariant almost contact structure with metric on a Lie
    algebra basis.

    ``phi`` has variance ``"ud"`` (``phi[i, j]`` is the ``x_i``
    coefficient of ``phi(x_j)``), ``xi`` is ``"u"``, ``eta`` is ``"d"``
    and ``g`` is ``"dd"``.  Construction checks shapes and variances
    only; :func:`validate_structure` checks the axioms, so deliberately
    broken models can be built for testing.
    """

    algebra: LieAlgebra
    phi: Tensor
    xi: Tensor
    eta: Tensor
    g: Tensor
    name: str = ""

    def __post_init__(self):
        d = self.algebra.dim
        expected = {
            "phi": ("ud", (d, d)),
            "xi": ("u", (d,)),
            "eta": ("d", (d,)),
            "g": ("dd", (d, d)),
        }
        for attr, (var, shape) in expected.items():
            t: Tensor = getattr(self, attr)
            if t.variance != var:
                raise VarianceMismatch(f"{attr} needs variance {var!r}, got {t.variance!r}")
            if t.shape != shape:
                raise DimensionMismatch(f"{attr} has shape {t.shape}, expected {shape}")
        if d % 2 != 1 or d < 3:
            raise DimensionMismatch(f"dimension must be odd and >= 3, got {d}")

    @property
    def dim(self) -> int:
        return self.algebra.dim

    @property
    def n(self) -> int:
        """The half-dimension ``n`` with ``dim = 2n + 1``."""
        return self.algebra.dim // 2

    @cached_property
    def ginv(self) -> Tensor:
        """The inverse metric ``g^{ij}``, variance ``"uu"``, computed on
        first read and kept with the model; raises
        :class:`SingularMetric` if the metric is degenerate."""
        return invert_symmetric(self.g)

    @cached_property
    def signature(self) -> tuple[int, int, int]:
        """The Sylvester signature ``(plus, minus, zero)`` of ``g``,
        computed on first read and kept with the model; raises
        ``ValueError`` if ``g`` is not symmetric."""
        return signature(self.g)


def validate_structure(model: AcnModel) -> ValidationReport:
    """Check every structure axiom, itemizing violations with indices.

    Includes the underlying algebra's antisymmetry/Jacobi checks, the
    almost contact identities, compatibility of ``g`` with ``phi`` and
    ``eta``, and the signature requirement ``(n+1, n)``, which is checked
    only when ``g`` is symmetric.
    """
    report = ValidationReport(subject=model.name or "model")
    report.extend(validate_algebra(model.algebra))

    n = model.n
    phi, xi, eta, g = model.phi, model.xi, model.eta, model.g

    def mismatches(lhs: Tensor, rhs: Tensor):
        """The indices where two tensors of one shape differ, in C order,
        with the entries of each there, formatted."""
        same = "ij"[:lhs.rank] + "->" + "ij"[:lhs.rank]
        where = nonzero_where([(1, same, lhs), (-1, same, rhs)])
        return zip(np.argwhere(where).tolist(), lhs.formatted(where), rhs.formatted(where))

    def nonzeros(t: Tensor):
        """The indices of the nonzero entries of ``t``, with the entries."""
        where = t.num != 0
        return zip(np.argwhere(where).tolist(), t.formatted(where))

    # phi^2 = -Id + eta (x) xi, column by column.
    phi2 = exact_einsum("ia,aj->ij", phi, phi)
    identity = Tensor._of(np.eye(model.dim, dtype=np.int32), 1, 1, "ud")   # canonical
    expected = exact_sum([(1, "i,j->ij", xi, eta), (-1, "ij->ij", identity)])
    for (i, j), got, want in mismatches(phi2, expected):
        report.add("phi_square", where=(i, j),
                   detail=f"(phi^2)[{i},{j}] = {got}, expected {want}")

    eta_xi = einsum_scalar("i,i->", eta, xi)
    if eta_xi != 1:
        report.add("eta_xi", detail=f"eta(xi) = {format_scalar(eta_xi)}, expected 1")

    for (i,), value in nonzeros(exact_einsum("ij,j->i", phi, xi)):
        report.add("phi_xi", where=(i,), detail=f"(phi xi)[{i}] = {value}")

    for (j,), value in nonzeros(exact_einsum("i,ij->j", eta, phi)):
        report.add("eta_phi", where=(j,), detail=f"(eta o phi)[{j}] = {value}")

    asymmetric = np.argwhere(np.triu(g.num != g.num.T)).tolist()
    for i, j in asymmetric:
        report.add("metric_symmetric", where=(i, j), detail=f"g[{i},{j}] != g[{j},{i}]")

    # g(phi x, phi y) = -g(x, y) + eta(x) eta(y) on basis pairs.
    gphiphi = exact_einsum("ai,ab,bj->ij", phi, g, phi)
    expected = exact_sum([(-1, "ij->ij", g), (1, "i,j->ij", eta, eta)])
    for (i, j), got, want in mismatches(gphiphi, expected):
        report.add("norden_compatibility", where=(i, j),
                   detail=f"g(phi x{i}, phi x{j}) = {got}, expected {want}")

    # phi is g-symmetric: g(phi x, y) = g(x, phi y).
    gphi = exact_einsum("ai,aj->ij", phi, g)
    for i, j in np.argwhere(gphi.num != gphi.num.T).tolist():
        report.add("phi_g_symmetric", where=(i, j),
                   detail=f"g(phi x{i}, x{j}) != g(x{i}, phi x{j})")

    # eta is the g-dual of xi.
    gxi = exact_einsum("ij,j->i", g, xi)
    for (i,), got, want in mismatches(gxi, eta):
        report.add("eta_g_dual", where=(i,),
                   detail=f"g(x{i}, xi) = {got}, eta(x{i}) = {want}")

    # A signature is defined for symmetric forms only.
    if asymmetric:
        return report
    plus, minus, null = model.signature
    if null != 0:
        report.add("metric_nondegenerate", detail=f"{null} null direction(s)")
    if (plus, minus) != (n + 1, n):
        report.add("metric_signature",
                   detail=f"signature ({plus},{minus},{null}), expected ({n + 1},{n},0)")
    return report


def associated_metric(model: AcnModel) -> Tensor:
    """The twin metric ``g~(x, y) = g(x, phi y) + eta(x) eta(y)``.

    On a valid model it is again symmetric of signature ``(n+1, n)``.
    """
    return exact_sum([(1, "ia,aj->ij", model.g, model.phi),
                      (1, "i,j->ij", model.eta, model.eta)])
