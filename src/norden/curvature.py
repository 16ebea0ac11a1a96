"""Curvature of the Levi-Civita connection and the geometry of 2-planes.

For left-invariant data the curvature operator reduces to

    R(x_i, x_j) x_k = nabla_{x_i} nabla_{x_j} x_k
                    - nabla_{x_j} nabla_{x_i} x_k - nabla_{[x_i, x_j]} x_k,

a pure Gamma/structure-constant expression, written once in
:func:`curvature_terms`.  The covariant tensor is
``R(x, y, z, u) = g(R(x, y) z, u)``, and three scalar curvatures are
taken: ``tau`` (full g-trace), ``tau_star`` (one argument twisted by
``phi``) and ``tau_2star`` (two arguments twisted by ``phi``).
The curvature package is :attr:`norden.geometry.Geometry.curv`.

:func:`section` classifies the 2-plane spanned by two vectors and
contracts the same terms with those vectors, so a sectional curvature
costs ``d**2``-sized steps and no curvature tensor.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .connection import Connection
from .errors import LinearlyDependent
from .structures import AcnModel
from .tensors import (
    Tensor,
    einsum_scalar,
    exact_einsum,
    exact_sum,
    matrix_rank,
    vector,
)


_SWAP_IJ = str.maketrans("ij", "ji")


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


def curvature_terms(conn: Connection, model: AcnModel, tail: str = "->lijk",
                    *operands: Tensor) -> list:
    """The three terms of ``r13[l, i, j, k]`` as :func:`exact_sum` terms:
    ``P[l, i, j, k] - P[l, j, i, k] - c^m_ij Gamma^l_mk``, with the
    ``Gamma . Gamma`` product ``P[l, i, j, k] = Gamma^m_jk Gamma^l_im``.

    Each term's subscripts end in ``tail``, which may contract the free
    letters ``l, i, j, k`` with further ``operands``; the default keeps
    them, giving ``r13`` itself.  The second term is the first with ``i``
    and ``j`` swapped in ``tail``.  Without operands ``P`` is computed
    once, one ``d**5`` contraction, and both terms are views of it; with
    operands each term contracts ``Gamma``, ``Gamma`` and the operands
    together, so a contracted tail builds no ``d**4`` tensor.
    """
    gamma, c = conn.gamma, model.algebra.c
    if operands:
        letters, *factors = "mjk,lim", gamma, gamma
    else:
        letters, *factors = "lijk", exact_einsum("mjk,lim->lijk", gamma, gamma)
    return [(1, letters + tail, *factors, *operands),
            (-1, letters + tail.translate(_SWAP_IJ), *factors, *operands),
            (-1, "mij,lmk" + tail, c, gamma, *operands)]


@dataclass(frozen=True)
class Section:
    """A 2-plane: how it meets the structure, and its curvature.

    ``kind`` is ``"xi"`` when the plane contains the structure vector,
    else ``"phi_holomorphic"`` when it is phi-invariant, else
    ``"totally_real"`` when it is g-orthogonal to its phi-image, else
    ``"generic"``.  ``sectional_curvature`` is
    ``k(x, y) = R(x, y, y, x) / pi1(x, y, y, x)``, or ``None`` when the
    restricted metric is degenerate (``pi1 = 0``) and no sectional
    curvature exists.
    """

    kind: str
    contains_xi: bool
    phi_invariant: bool
    totally_real: bool
    sectional_curvature: Fraction | None


def section(model: AcnModel, conn: Connection, x, y) -> Section:
    """The plane spanned by x, y, classified with exact rank arithmetic,
    with ``R(x, y, y, x)`` read from the connection ``conn`` of ``model``.

    Raises :class:`LinearlyDependent` unless x, y span a 2-plane.
    """
    xv, yv = vector(x, model.dim, name="x"), vector(y, model.dim, name="y")
    if matrix_rank([xv.num, yv.num]) != 2:
        raise LinearlyDependent("section vectors do not span a 2-plane")
    phix, phiy = (exact_einsum("ij,j->i", model.phi, v) for v in (xv, yv))
    gx, gy = (exact_einsum("ij,j->i", model.g, v) for v in (xv, yv))

    def in_plane(v: Tensor) -> bool:
        return matrix_rank([xv.num, yv.num, v.num]) == 2

    contains_xi = in_plane(model.xi)
    phi_invariant = in_plane(phix) and in_plane(phiy)
    totally_real = all(einsum_scalar("i,i->", gu, pv) == 0
                       for gu in (gx, gy) for pv in (phix, phiy))
    kind = ("xi" if contains_xi else "phi_holomorphic" if phi_invariant
            else "totally_real" if totally_real else "generic")
    # pi1(x, y, y, x) = g(x, x) g(y, y) - g(x, y)^2
    gxx, gxy, gyy = (einsum_scalar("i,i->", *pair) for pair in ((gx, xv), (gx, yv), (gy, yv)))
    pi1 = gxx * gyy - gxy ** 2
    # R(x, y, y, x) = r13[l, i, j, k] g(x_l, x) x^i y^j y^k
    terms = curvature_terms(conn, model, ",l,i,j,k->", gx, xv, yv, yv)
    k = exact_sum(terms).item() / pi1 if pi1 else None
    return Section(kind, contains_xi, phi_invariant, totally_real, k)
