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

from .errors import DimensionMismatch, ValidationReport, VarianceMismatch, violation
from .lie import LieAlgebra, validate as validate_algebra
from .linalg import invert_symmetric, signature
from .tensors import (
    Tensor,
    einsum_scalar,
    exact_einsum,
    exact_sum,
    format_scalar,
    nonzero_where,
)


@dataclass(frozen=True)
class AcnModel:
    """A left-invariant almost contact structure with metric on a Lie
    algebra basis.

    ``phi`` has variance ``"ud"`` (``phi[i, j]`` is the ``x_i``
    coefficient of ``phi(x_j)``), ``xi`` is ``"u"``, ``eta`` is ``"d"``
    and ``g`` is ``"dd"``.  Construction checks shapes and variances
    only; :func:`validate_structure` checks the axioms, so deliberately
    broken models can be built for testing.  ``ginv``, ``signature`` and
    ``eta_eta``, which several layers read, are kept with the model.
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

    @cached_property
    def eta_eta(self) -> Tensor:
        """``eta (x) eta``, variance ``"dd"``, computed on first read and
        kept with the model."""
        return exact_einsum("i,j->ij", self.eta, self.eta)


def validate_structure(model: AcnModel) -> ValidationReport:
    """Check every structure axiom, itemizing violations with indices.

    Includes the underlying algebra's antisymmetry/Jacobi checks, the
    almost contact identities, compatibility of ``g`` with ``phi`` and
    ``eta``, and the signature requirement ``(n+1, n)``, which is checked
    only when ``g`` is symmetric.  Each tensor axiom is one zero test of
    its left side minus its right side; the sides are built and
    formatted only for the details of the entries it finds.
    """
    report = ValidationReport(subject=model.name or "model")
    report.extend(validate_algebra(model.algebra))

    n = model.n
    phi, xi, eta, g = model.phi, model.xi, model.eta, model.g

    def mismatches(*sides):
        """The indices where the sum of the term list ``sides[0]`` is
        nonzero, or differs from that of ``sides[1]``, in C order, with
        each side's entries there, formatted."""
        lhs, *rhs = sides
        where = nonzero_where(lhs + [(-c, *term) for side in rhs for c, *term in side])
        if not where.any():
            return ()
        return zip(np.argwhere(where).tolist(),
                   *[exact_sum(side).formatted(where) for side in sides])

    # phi^2 = -Id + eta (x) xi, column by column.
    square = [(1, "ia,aj->ij", phi, phi)]
    identity = Tensor._of(np.eye(model.dim, dtype=np.int32), 1, 1, "ud")   # canonical
    expected = [(1, "i,j->ij", xi, eta), (-1, "ij->ij", identity)]
    report.violations += [
        violation(("phi_square", (i, j), f"(phi^2)[{i},{j}] = {got}, expected {want}"))
        for (i, j), got, want in mismatches(square, expected)]

    eta_xi = einsum_scalar("i,i->", eta, xi)
    if eta_xi != 1:
        report.add("eta_xi", detail=f"eta(xi) = {format_scalar(eta_xi)}, expected 1")

    phi_xi = [(1, "ij,j->i", phi, xi)]
    report.violations += [violation(("phi_xi", (i,), f"(phi xi)[{i}] = {value}"))
                          for (i,), value in mismatches(phi_xi)]

    eta_phi = [(1, "i,ij->j", eta, phi)]
    report.violations += [violation(("eta_phi", (j,), f"(eta o phi)[{j}] = {value}"))
                          for (j,), value in mismatches(eta_phi)]

    asymmetric = np.argwhere(np.triu(g.num != g.num.T)).tolist()
    report.violations += [violation(("metric_symmetric", (i, j), f"g[{i},{j}] != g[{j},{i}]"))
                          for i, j in asymmetric]

    # g(phi x, phi y) = -g(x, y) + eta(x) eta(y) on basis pairs.
    gphiphi = [(1, "ai,ab,bj->ij", phi, g, phi)]
    expected = [(-1, "ij->ij", g), (1, "ij->ij", model.eta_eta)]
    report.violations += [
        violation(("norden_compatibility", (i, j),
                   f"g(phi x{i}, phi x{j}) = {got}, expected {want}"))
        for (i, j), got, want in mismatches(gphiphi, expected)]

    # phi is g-symmetric: g(phi x, y) = g(x, phi y).
    gphi = exact_einsum("ai,aj->ij", phi, g)
    report.violations += [
        violation(("phi_g_symmetric", (i, j), f"g(phi x{i}, x{j}) != g(x{i}, phi x{j})"))
        for i, j in np.argwhere(gphi.num != gphi.num.T).tolist()]

    # eta is the g-dual of xi.
    gxi = [(1, "ij,j->i", g, xi)]
    report.violations += [
        violation(("eta_g_dual", (i,), f"g(x{i}, xi) = {got}, eta(x{i}) = {want}"))
        for (i,), got, want in mismatches(gxi, [(1, "i->i", eta)])]

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
    """The twin metric ``g~(x, y) = g(x, phi y) + eta(x) eta(y)``, with
    :attr:`AcnModel.eta_eta` read as a view.

    On a valid model it is again symmetric of signature ``(n+1, n)``.
    """
    return exact_sum([(1, "ia,aj->ij", model.g, model.phi), (1, "ij->ij", model.eta_eta)])
