"""Curvature of the Levi-Civita connection and section geometry.

For left-invariant data the curvature operator reduces to

    R(x_i, x_j) x_k = nabla_{x_i} nabla_{x_j} x_k
                    - nabla_{x_j} nabla_{x_i} x_k - nabla_{[x_i, x_j]} x_k,

a pure Gamma/structure-constant expression.  The covariant tensor is
``R(x, y, z, u) = g(R(x, y) z, u)``, and three scalar curvatures are
taken: ``tau`` (full g-trace), ``tau_star`` (one argument twisted by
``phi``) and ``tau_2star`` (two arguments twisted by ``phi``).
The curvature package is :attr:`norden.geometry.Geometry.curv`.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DegenerateSection, LinearlyDependent
from .structures import AcnModel
from .tensors import (
    Tensor,
    einsum_scalar,
    exact_einsum,
    exact_sum,
    matrix_rank,
    vector_components,
)


@dataclass(frozen=True)
class CurvaturePack:
    """Curvature tensors and scalar curvatures of a model.

    ``r13[l, i, j, k]`` is the ``x_l`` component of ``R(x_i, x_j) x_k``;
    ``r04`` is the fully covariant tensor with slot order
    ``(x, y, z, u)``.
    """

    r13: Tensor
    r04: Tensor
    ricci: Tensor
    tau: Fraction
    tau_star: Fraction
    tau_2star: Fraction


def _plane(model: AcnModel, x, y) -> tuple[Tensor, Tensor]:
    """The vectors ``x``, ``y`` as tensors; raises
    :class:`LinearlyDependent` unless they span a 2-plane."""
    xv = Tensor(vector_components(x, model.dim, name="x"), "u")
    yv = Tensor(vector_components(y, model.dim, name="y"), "u")
    if matrix_rank([xv.components, yv.components]) != 2:
        raise LinearlyDependent("section vectors do not span a 2-plane")
    return xv, yv


def sectional_curvature(model: AcnModel, pack: CurvaturePack, x, y) -> Fraction:
    """``k(x, y) = R(x, y, y, x) / pi1(x, y, y, x)``.

    Raises :class:`LinearlyDependent` when x, y do not span a plane and
    :class:`DegenerateSection` when the restricted metric is degenerate
    (``pi1 = 0``), in which case no sectional curvature exists.
    """
    xv, yv = _plane(model, x, y)
    # pi1(x, y, y, x) = g(y, y) g(x, x) - g(x, y)^2
    denom = exact_sum([(1, "ij,kl,i,j,k,l->", model.g, model.g, yv, yv, xv, xv),
                       (-1, "ij,kl,i,j,k,l->", model.g, model.g, xv, yv, xv, yv)]).item()
    if denom == 0:
        raise DegenerateSection("restricted metric is degenerate on this plane")
    num = einsum_scalar("ijku,i,j,k,u->", pack.r04, xv, yv, yv, xv)
    return num / denom


@dataclass(frozen=True)
class SectionType:
    """Classification flags of a 2-plane section.

    ``kind`` is ``"xi"`` when the plane contains the structure vector,
    else ``"phi_holomorphic"`` when it is phi-invariant, else
    ``"totally_real"`` when it is g-orthogonal to its phi-image, else
    ``"generic"``.
    """

    kind: str
    contains_xi: bool
    phi_invariant: bool
    totally_real: bool


def classify_section(model: AcnModel, x, y) -> SectionType:
    """Classify the plane spanned by x, y with exact rank arithmetic."""
    xv, yv = _plane(model, x, y)
    phi, g = model.phi, model.g
    phix = exact_einsum("ij,j->i", phi, xv)
    phiy = exact_einsum("ij,j->i", phi, yv)

    def span(*vectors: Tensor) -> int:
        return matrix_rank([v.components for v in vectors])

    contains_xi = span(xv, yv, model.xi) == 2
    phi_invariant = span(xv, yv, phix) == 2 and span(xv, yv, phiy) == 2
    totally_real = all(
        einsum_scalar("i,ij,j->", pu, g, v) == 0
        for pu in (phix, phiy)
        for v in (xv, yv)
    )
    if contains_xi:
        kind = "xi"
    elif phi_invariant:
        kind = "phi_holomorphic"
    elif totally_real:
        kind = "totally_real"
    else:
        kind = "generic"
    return SectionType(
        kind=kind,
        contains_xi=contains_xi,
        phi_invariant=phi_invariant,
        totally_real=totally_real,
    )
