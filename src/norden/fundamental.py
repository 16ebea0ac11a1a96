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
once per model there.  This module holds their containers and the pure
functions of given tensors that the layers and the tests share.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .structures import AcnModel
from .tensors import Tensor, exact_einsum, exact_sum


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


def nabla_eta_from_fundamental(model: AcnModel, f: Tensor) -> Tensor:
    """The same tensor through ``(nabla_x eta) y = F(x, phi y, xi)``:
    an independent route used to cross-check
    :attr:`norden.geometry.Geometry.nabla_eta`."""
    return exact_einsum("imk,mj,k->ij", f, model.phi, model.xi)


def psi4(s: Tensor, eta: Tensor) -> Tensor:
    """The quadruple extension of a symmetric 2-tensor:

    ``psi4(S)(x,y,z,u) = eta(y)eta(z) S(x,u) - eta(x)eta(z) S(y,u)
    + eta(x)eta(u) S(y,z) - eta(y)eta(u) S(x,z)``.

    It has all the algebraic symmetries of a curvature tensor whenever
    ``S`` is symmetric.  The first term ``A`` is built once; the other
    three are index permutations of it.
    """
    a = exact_einsum("y,z,xu->xyzu", eta, eta, s)
    return exact_sum([
        (1, "xyzu->xyzu", a),
        (-1, "yxzu->xyzu", a),
        (1, "yxuz->xyzu", a),
        (-1, "xyuz->xyzu", a),
    ])

