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

Each of these is a layer of :class:`norden.geometry.Geometry`, computed
once per model there; the functions below read those layers.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .connection import Connection
from .errors import NotApplicable
from .structures import AcnModel
from .tensors import Tensor, exact_einsum


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


def _geometry(model: AcnModel, **layers):
    from .geometry import Geometry  # geometry imports this module

    return Geometry(model, **layers)


def structure_pack(model: AcnModel, conn: Connection) -> StructurePack:
    """Compute the full structure-level package for a model."""
    return _geometry(model, conn=conn).pack


def fundamental_tensor(model: AcnModel, conn: Connection) -> Tensor:
    """``F[i, j, k] = g((nabla_{x_i} phi) x_j, x_k)``, variance ``ddd``."""
    return _geometry(model, conn=conn).f


def one_forms(model: AcnModel, f: Tensor) -> OneForms:
    """All 1-forms derived from the fundamental tensor, plus ``omega``'s
    g-dual vector (which needs the inverse metric)."""
    return _geometry(model, f=f).forms


def nabla_eta(model: AcnModel, conn: Connection) -> Tensor:
    """``(nabla eta)[i, j] = (nabla_{x_i} eta)(x_j)`` via the connection."""
    return _geometry(model, conn=conn).nabla_eta


def nabla_eta_from_fundamental(model: AcnModel, f: Tensor) -> Tensor:
    """The same tensor through ``(nabla_x eta) y = F(x, phi y, xi)``:
    an independent route used to cross-check :func:`nabla_eta`."""
    comps = exact_einsum(
        "imk,mj,k->ij", f.components, model.phi.components, model.xi.components
    )
    return Tensor(comps, "dd")


def nijenhuis_from_brackets(model: AcnModel, conn: Connection) -> Tensor:
    """``N`` from the bracket definition, see
    :attr:`norden.geometry.Geometry.n_from_brackets`."""
    return _geometry(model, conn=conn).n_from_brackets


def nijenhuis_from_derivatives(model: AcnModel, conn: Connection) -> Tensor:
    """``N`` from covariant derivatives of ``phi`` and ``eta``, see
    :attr:`norden.geometry.Geometry.n_from_derivatives`."""
    return _geometry(model, conn=conn).n_from_derivatives


def nijenhuis(model: AcnModel, conn: Connection) -> Tensor:
    """The Nijenhuis tensor, computed along both independent routes.

    Raises :class:`InternalInconsistency` if they disagree (which would
    indicate a bug, never bad input).
    """
    return _geometry(model, conn=conn).n


def square_norms(
    model: AcnModel, conn: Connection, pack: StructurePack | None = None
) -> SquareNorms:
    """The three square norms, each a full-basis contraction with the
    inverse metric in every argument slot.  Passing an already-computed
    :class:`StructurePack` avoids recomputing the Nijenhuis tensor and
    the derivatives."""
    return _geometry(model, conn=conn, pack=pack).norms


def tensor_s(model: AcnModel, conn: Connection) -> Tensor:
    """The symmetric tensor
    ``S(x, y) = (nabla_x omega) phi y - omega(phi x) omega(phi y)``.

    Its quadruple extension (:func:`psi4`) reproduces the curvature on
    the class where ``F`` is carried entirely by ``eta`` and ``omega``.
    """
    return _geometry(model, conn=conn).s


def s_trace(model: AcnModel, s: Tensor) -> Fraction:
    """``tr S = g^{ij} S(x_i, x_j)``."""
    return _geometry(model, s=s).s_trace


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
    return _geometry(model, conn=conn).divergence(x)


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
    verdict = _geometry(model, conn=conn).identities["omega_star_derivative"]
    if not verdict.applicable:
        raise NotApplicable(
            "omega_star derivative identity requires the pure eta-omega class"
        )
    return verdict.passed
