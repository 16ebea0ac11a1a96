"""The fundamental tensor of the structure and everything built on it.

Central object: ``F(x, y, z) = g((nabla_x phi) y, z)``, a covariant
3-tensor with the symmetries ``F(x, y, z) = F(x, z, y)`` and
``F(x, phi y, phi z) = F(x, y, z) - eta(y) F(x, xi, z)
- eta(z) F(x, y, xi)``.  From it: the Lee forms ``theta``,
``theta_star``, the distinguished 1-form ``omega`` with dual vector
``Omega``, the Nijenhuis tensor (computed two independent ways), the
square norms that decide the isotropic-Kahler property, and the
auxiliary symmetric tensor ``S`` whose quadruple extension reproduces
the curvature on the main class of interest.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .connection import Connection, covariant_derivative
from .errors import InternalInconsistency, NotApplicable
from .structures import AcnModel
from .tensors import (
    Tensor,
    einsum_scalar,
    exact_einsum,
    invert_symmetric,
    vector_components,
)


class OneForms(NamedTuple):
    """The derived 1-forms and the metric dual of ``omega``."""

    theta: Tensor        # theta(z)      = g^{ij} F(x_i, x_j, z)
    theta_star: Tensor   # theta_star(z) = g^{ij} F(x_i, phi x_j, z)
    omega: Tensor        # omega(z)      = F(xi, xi, z)
    omega_star: Tensor   # omega_star    = omega o phi
    omega_vec: Tensor    # the vector with g(x, omega_vec) = omega(x)


class SquareNorms(NamedTuple):
    """Full-basis g-contractions; indefinite metrics make these signed."""

    nabla_phi: Fraction
    nabla_eta: Fraction
    nijenhuis: Fraction


def fundamental_tensor(model: AcnModel, conn: Connection) -> Tensor:
    """``F[i, j, k] = g((nabla_{x_i} phi) x_j, x_k)``, variance ``ddd``."""
    nphi = covariant_derivative(conn, model.phi).components
    return Tensor(
        exact_einsum("iaj,ak->ijk", nphi, model.g.components), "ddd"
    )


def one_forms(model: AcnModel, f: Tensor) -> OneForms:
    """All 1-forms derived from the fundamental tensor, plus ``omega``'s
    g-dual vector (which needs the inverse metric)."""
    F = f.components
    ginv = invert_symmetric(model.g).components
    phi = model.phi.components
    xi = model.xi.components
    theta = exact_einsum("ij,ijk->k", ginv, F)
    theta_star = exact_einsum("ij,mj,imk->k", ginv, phi, F)
    omega = exact_einsum("a,b,abk->k", xi, xi, F)
    omega_star = exact_einsum("m,mk->k", omega, phi)
    omega_vec = exact_einsum("ij,j->i", ginv, omega)
    return OneForms(
        Tensor(theta, "d"),
        Tensor(theta_star, "d"),
        Tensor(omega, "d"),
        Tensor(omega_star, "d"),
        Tensor(omega_vec, "u"),
    )


def nabla_eta(model: AcnModel, conn: Connection) -> Tensor:
    """``(nabla eta)[i, j] = (nabla_{x_i} eta)(x_j)`` via the connection."""
    return covariant_derivative(conn, model.eta)


def nabla_eta_from_fundamental(model: AcnModel, f: Tensor) -> Tensor:
    """The same tensor through ``(nabla_x eta) y = F(x, phi y, xi)``:
    an independent route used to cross-check :func:`nabla_eta`."""
    comps = exact_einsum(
        "imk,mj,k->ij", f.components, model.phi.components, model.xi.components
    )
    return Tensor(comps, "dd")


def nijenhuis_from_brackets(model: AcnModel, conn: Connection) -> Tensor:
    """``N`` from the bracket definition
    ``phi^2 [x,y] + [phi x, phi y] - phi[phi x, y] - phi[x, phi y]``
    plus the ``(nabla eta)`` antisymmetrization times ``xi``.
    Variance ``udd``: ``N[a, i, j]`` is the ``x_a`` component of
    ``N(x_i, x_j)``."""
    c = model.algebra.c.components
    phi = model.phi.components
    xi = model.xi.components
    neta = covariant_derivative(conn, model.eta).components
    phi2 = exact_einsum("am,ms->as", phi, phi)
    t = exact_einsum("as,sij->aij", phi2, c)
    t = t + exact_einsum("ams,mi,sj->aij", c, phi, phi)
    t = t - exact_einsum("am,msj,si->aij", phi, c, phi)
    t = t - exact_einsum("am,mis,sj->aij", phi, c, phi)
    deta = neta - neta.T
    t = t + exact_einsum("a,ij->aij", xi, deta)
    return Tensor(t, "udd")


def nijenhuis_from_derivatives(model: AcnModel, conn: Connection) -> Tensor:
    """``N`` from covariant derivatives of ``phi`` and ``eta``:
    ``(nabla_{phi x} phi) y - (nabla_{phi y} phi) x
    - phi (nabla_x phi) y + phi (nabla_y phi) x``
    plus the same ``(nabla eta)`` terms."""
    phi = model.phi.components
    xi = model.xi.components
    nphi = covariant_derivative(conn, model.phi).components
    neta = covariant_derivative(conn, model.eta).components
    t = exact_einsum("mi,maj->aij", phi, nphi)
    t = t - exact_einsum("mj,mai->aij", phi, nphi)
    t = t - exact_einsum("am,imj->aij", phi, nphi)
    t = t + exact_einsum("am,jmi->aij", phi, nphi)
    deta = neta - neta.T
    t = t + exact_einsum("a,ij->aij", xi, deta)
    return Tensor(t, "udd")


def nijenhuis(model: AcnModel, conn: Connection) -> Tensor:
    """The Nijenhuis tensor, computed along both independent routes.

    Raises :class:`InternalInconsistency` if they disagree (which would
    indicate a bug, never bad input).
    """
    via_brackets = nijenhuis_from_brackets(model, conn)
    via_derivatives = nijenhuis_from_derivatives(model, conn)
    if via_brackets != via_derivatives:
        raise InternalInconsistency(
            "Nijenhuis tensor: bracket and derivative constructions disagree"
        )
    return via_brackets


def square_norms(
    model: AcnModel, conn: Connection, pack: "StructurePack | None" = None
) -> SquareNorms:
    """The three square norms, each a full-basis contraction with the
    inverse metric in every argument slot, e.g.
    ``||nabla phi||^2 = g^{ij} g^{ks} g((nabla_{x_i} phi) x_k,
    (nabla_{x_j} phi) x_s)``.

    Passing an already-computed :class:`StructurePack` avoids
    recomputing the Nijenhuis tensor and the derivatives.
    """
    g = model.g.components
    ginv = invert_symmetric(model.g).components
    if pack is not None:
        nphi = pack.nabla_phi.components
        neta = pack.nabla_eta.components
        nj = pack.n.components
    else:
        nphi = covariant_derivative(conn, model.phi).components
        neta = covariant_derivative(conn, model.eta).components
        nj = nijenhuis(model, conn).components
    nphi2 = einsum_scalar("ij,ks,ab,iak,jbs->", ginv, ginv, g, nphi, nphi)
    neta2 = einsum_scalar("ij,ks,ik,js->", ginv, ginv, neta, neta)
    nj2 = einsum_scalar("ij,ks,ab,aik,bjs->", ginv, ginv, g, nj, nj)
    return SquareNorms(nphi2, neta2, nj2)


def tensor_s(model: AcnModel, conn: Connection) -> Tensor:
    """The symmetric tensor
    ``S(x, y) = (nabla_x omega) phi y - omega(phi x) omega(phi y)``.

    Its quadruple extension (:func:`psi4`) reproduces the curvature on
    the class where ``F`` is carried entirely by ``eta`` and ``omega``.
    """
    f = fundamental_tensor(model, conn)
    forms = one_forms(model, f)
    nomega = covariant_derivative(conn, forms.omega).components
    phi = model.phi.components
    ostar = forms.omega_star.components
    comps = exact_einsum("im,mj->ij", nomega, phi) - np.multiply.outer(
        ostar, ostar
    )
    return Tensor(comps, "dd")


def s_trace(model: AcnModel, s: Tensor) -> Fraction:
    """``tr S = g^{ij} S(x_i, x_j)``."""
    ginv = invert_symmetric(model.g).components
    return einsum_scalar("ij,ij->", ginv, s.components)


def psi4(s: Tensor, eta: Tensor) -> Tensor:
    """The quadruple extension of a symmetric 2-tensor:

    ``psi4(S)(x,y,z,u) = eta(y)eta(z) S(x,u) - eta(x)eta(z) S(y,u)
    + eta(x)eta(u) S(y,z) - eta(y)eta(u) S(x,z)``.

    It has all the algebraic symmetries of a curvature tensor whenever
    ``S`` is symmetric.
    """
    S = s.components
    e = eta.components
    comps = (
        exact_einsum("y,z,xu->xyzu", e, e, S)
        - exact_einsum("x,z,yu->xyzu", e, e, S)
        + exact_einsum("x,u,yz->xyzu", e, e, S)
        - exact_einsum("y,u,xz->xyzu", e, e, S)
    )
    return Tensor(comps, "dddd")


def divergence(model: AcnModel, conn: Connection, x) -> Fraction:
    """``div X = g^{ij} g(nabla_{x_i} X, x_j)`` for a constant vector."""
    xv = Tensor(vector_components(x, model.dim, name="x"), "u")
    nx = covariant_derivative(conn, xv).components
    ginv = invert_symmetric(model.g).components
    return einsum_scalar("ij,ik,kj->", ginv, nx, model.g.components)


def matches_class_f11(model: AcnModel, f: Tensor) -> bool:
    """Whether ``F`` has the pure form
    ``F(x, y, z) = eta(x) (eta(y) omega(z) + eta(z) omega(y))``
    with ``omega(z) = F(xi, xi, z)``."""
    F = f.components
    eta = model.eta.components
    xi = model.xi.components
    omega = exact_einsum("a,b,abk->k", xi, xi, F)
    expected = exact_einsum("i,j,k->ijk", eta, eta, omega)
    expected = expected + exact_einsum("i,k,j->ijk", eta, eta, omega)
    return bool(np.all(F == expected))


def nabla_omega_star_check(model: AcnModel, conn: Connection) -> bool:
    """Exact check of the first-derivative identity for ``omega_star``:

    ``(nabla_x omega_star) y = (nabla_x omega) phi y
    + eta(x) eta(y) omega(omega_vec)``.

    Only meaningful on the pure class above; raises
    :class:`NotApplicable` otherwise.
    """
    f = fundamental_tensor(model, conn)
    if not matches_class_f11(model, f):
        raise NotApplicable(
            "omega_star derivative identity requires the pure eta-omega class"
        )
    forms = one_forms(model, f)
    lhs = covariant_derivative(conn, forms.omega_star).components
    nomega = covariant_derivative(conn, forms.omega).components
    eta = model.eta.components
    oo = einsum_scalar("k,k->", forms.omega.components, forms.omega_vec.components)
    rhs = exact_einsum("im,mj->ij", nomega, model.phi.components)
    rhs = rhs + np.multiply.outer(eta, eta) * oo
    return bool(np.all(lhs == rhs))


@dataclass(frozen=True)
class StructurePack:
    """Every structure-level tensor of a model, computed once."""

    f: Tensor            # fundamental 3-tensor, "ddd"
    theta: Tensor
    theta_star: Tensor
    omega: Tensor
    omega_star: Tensor
    omega_vec: Tensor
    nabla_phi: Tensor    # "dud"
    nabla_eta: Tensor    # "dd"
    n: Tensor            # Nijenhuis, "udd"
    s: Tensor            # auxiliary symmetric tensor, "dd"


def structure_pack(model: AcnModel, conn: Connection) -> StructurePack:
    """Compute the full structure-level package for a model."""
    nphi = covariant_derivative(conn, model.phi)
    f = Tensor(
        exact_einsum("iaj,ak->ijk", nphi.components, model.g.components),
        "ddd",
    )
    forms = one_forms(model, f)
    neta = nabla_eta(model, conn)
    nomega = covariant_derivative(conn, forms.omega).components
    ostar = forms.omega_star.components
    s = Tensor(
        exact_einsum("im,mj->ij", nomega, model.phi.components)
        - np.multiply.outer(ostar, ostar),
        "dd",
    )
    return StructurePack(
        f=f,
        theta=forms.theta,
        theta_star=forms.theta_star,
        omega=forms.omega,
        omega_star=forms.omega_star,
        omega_vec=forms.omega_vec,
        nabla_phi=nphi,
        nabla_eta=neta,
        n=nijenhuis(model, conn),
        s=s,
    )
