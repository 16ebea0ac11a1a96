"""Every layer of one model's geometry, each computed at most once.

:class:`Geometry` holds one model.  The layers of the pipeline -- the
inverse metric, the Levi-Civita connection, the structure tensors, the
curvature, the square norms, the scalars of the report and the identity
verdicts -- are lazily cached properties: a layer is computed the first
time it is read, from the layers below it, and every later read returns
the same object.  The cache lives in the ``Geometry`` object and dies with
it; nothing is memoized between objects.

Every quantity is read from its layer.  The five entry points below
the class (:func:`levi_civita`, :func:`structure_pack`, :func:`riemann`,
:func:`verify_identities` and :func:`square_norms`) build a
``Geometry`` seeded with their arguments and read one layer.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from .classify import IdentityVerdict, check_identities
from .connection import Connection, covariant_derivative
from .curvature import CurvaturePack, curvature_terms
from .errors import InternalInconsistency
from .fundamental import (
    SquareNorms,
    StructurePack,
    matches_class_f11,
    nabla_eta_from_fundamental,
    psi4,
)
from .structures import AcnModel
from .tensors import (
    Tensor,
    einsum_scalar,
    exact_einsum,
    exact_sum,
    invert_symmetric,
    vector,
)


class Geometry:
    """One model and every layer computed from it.

    ``Geometry(model)`` computes nothing up front.  The connection, the
    structure pack and the curvature may be seeded with objects computed
    elsewhere, e.g. ``Geometry(model, conn=conn, pack=pack)``; a seeded
    :class:`StructurePack` also seeds each of its fields, which are
    layers of the same names.  Seeds set to ``None`` are ignored, so
    optional arguments can be passed straight through.  The model must
    be valid (see :func:`norden.structures.validate_structure`); on an
    invalid model the layers are not meaningful.
    """

    def __init__(self, model: AcnModel, conn: Connection | None = None,
                 pack: StructurePack | None = None,
                 curv: CurvaturePack | None = None):
        self.model = model
        seeds = {"conn": conn, "curv": curv}
        if pack is not None:
            seeds.update(vars(pack), pack=pack)
        for name, value in seeds.items():
            if value is not None:
                self.__dict__[name] = value

    # --- metric and connection ------------------------------------------

    @cached_property
    def ginv(self) -> Tensor:
        """The inverse metric ``g^{ij}``, variance ``"uu"``; raises
        :class:`SingularMetric` if the metric is degenerate."""
        return invert_symmetric(self.model.g)

    @cached_property
    def conn(self) -> Connection:
        """The Levi-Civita connection, from the bracket-only Koszul
        formula ``2 g(nabla_{x_i} x_j, x_k) = g([x_i, x_j], x_k)
        + g([x_k, x_i], x_j) + g([x_k, x_j], x_i)``."""
        c, g = self.model.algebra.c, self.model.g
        # two_k[i, j, k] = 2 g(nabla_{x_i} x_j, x_k)
        two_k = exact_sum([(1, "mij,mk->ijk", c, g), (1, "mki,mj->ijk", c, g),
                           (1, "mkj,mi->ijk", c, g)])
        # gamma[m, i, j] = (1/2) * two_k[i, j, k] g^{k m}
        return Connection(exact_sum([(Fraction(1, 2), "ijk,km->mij", two_k, self.ginv)]))

    # --- structure tensors ----------------------------------------------

    @cached_property
    def nabla_phi(self) -> Tensor:
        """``nabla phi``, variance ``"dud"``."""
        return covariant_derivative(self.conn, self.model.phi)

    @cached_property
    def f(self) -> Tensor:
        """The fundamental tensor ``F[i, j, k] = g((nabla_{x_i} phi) x_j,
        x_k)``, variance ``"ddd"``."""
        return exact_einsum("iaj,ak->ijk", self.nabla_phi, self.model.g)

    @cached_property
    def nabla_eta(self) -> Tensor:
        """``(nabla_{x_i} eta)(x_j)`` from the connection.

        Raises :class:`InternalInconsistency` if it differs from the
        independent route ``(nabla_x eta) y = F(x, phi y, xi)``.
        """
        direct = covariant_derivative(self.conn, self.model.eta)
        if direct != nabla_eta_from_fundamental(self.model, self.f):
            raise InternalInconsistency(
                "nabla eta: connection and fundamental-tensor routes disagree"
            )
        return direct

    @cached_property
    def theta(self) -> Tensor:
        """``theta(z) = g^{ij} F(x_i, x_j, z)``."""
        return exact_einsum("ij,ijk->k", self.ginv, self.f)

    @cached_property
    def theta_star(self) -> Tensor:
        """``theta_star(z) = g^{ij} F(x_i, phi x_j, z)``."""
        return exact_einsum("ij,mj,imk->k", self.ginv, self.model.phi, self.f)

    @cached_property
    def omega(self) -> Tensor:
        """``omega(z) = F(xi, xi, z)``."""
        xi = self.model.xi
        return exact_einsum("a,b,abk->k", xi, xi, self.f)

    @cached_property
    def omega_star(self) -> Tensor:
        """``omega_star = omega o phi``."""
        return exact_einsum("m,mk->k", self.omega, self.model.phi)

    @cached_property
    def omega_vec(self) -> Tensor:
        """``Omega``, the vector with ``g(x, Omega) = omega(x)``."""
        return exact_einsum("ij,j->i", self.ginv, self.omega)

    @cached_property
    def nabla_omega(self) -> Tensor:
        return covariant_derivative(self.conn, self.omega)

    @cached_property
    def nabla_omega_star(self) -> Tensor:
        return covariant_derivative(self.conn, self.omega_star)

    def _deta_xi(self) -> list:
        """``xi (x) (nabla eta)`` antisymmetrized, the terms both Nijenhuis
        routes share."""
        xi, neta = self.model.xi, self.nabla_eta
        return [(1, "a,ij->aij", xi, neta), (-1, "a,ji->aij", xi, neta)]

    @cached_property
    def n_from_brackets(self) -> Tensor:
        """``N`` from ``phi^2 [x,y] + [phi x, phi y] - phi[phi x, y]
        - phi[x, phi y]`` plus the ``(nabla eta)`` term; ``N[a, i, j]`` is
        the ``x_a`` component of ``N(x_i, x_j)``."""
        c, phi = self.model.algebra.c, self.model.phi
        return exact_sum([
            (1, "am,ms,sij->aij", phi, phi, c),
            (1, "ams,mi,sj->aij", c, phi, phi),
            (-1, "am,msj,si->aij", phi, c, phi),
            (-1, "am,mis,sj->aij", phi, c, phi),
            *self._deta_xi(),
        ])

    @cached_property
    def n_from_derivatives(self) -> Tensor:
        """``N`` from ``(nabla_{phi x} phi) y - (nabla_{phi y} phi) x
        - phi (nabla_x phi) y + phi (nabla_y phi) x`` plus the same
        ``(nabla eta)`` term."""
        phi, nphi = self.model.phi, self.nabla_phi
        return exact_sum([
            (1, "mi,maj->aij", phi, nphi),
            (-1, "mj,mai->aij", phi, nphi),
            (-1, "am,imj->aij", phi, nphi),
            (1, "am,jmi->aij", phi, nphi),
            *self._deta_xi(),
        ])

    @cached_property
    def n(self) -> Tensor:
        """The Nijenhuis tensor, variance ``"udd"``.

        Raises :class:`InternalInconsistency` if the bracket and the
        derivative routes disagree (a bug, never bad input).
        """
        if self.n_from_brackets != self.n_from_derivatives:
            raise InternalInconsistency(
                "Nijenhuis tensor: bracket and derivative constructions disagree"
            )
        return self.n_from_brackets

    @cached_property
    def s(self) -> Tensor:
        """``S(x, y) = (nabla_x omega) phi y - omega(phi x) omega(phi y)``."""
        ostar = self.omega_star
        return exact_sum([(1, "im,mj->ij", self.nabla_omega, self.model.phi),
                          (-1, "i,j->ij", ostar, ostar)])

    @cached_property
    def pack(self) -> StructurePack:
        return StructurePack(
            f=self.f, theta=self.theta, theta_star=self.theta_star,
            omega=self.omega, omega_star=self.omega_star, omega_vec=self.omega_vec,
            nabla_phi=self.nabla_phi, nabla_eta=self.nabla_eta, n=self.n, s=self.s,
        )

    @cached_property
    def f0(self) -> bool:
        """Whether the structure is of Kahler type: ``F`` vanishes
        identically (equivalently ``nabla phi = 0``)."""
        return self.f.is_zero()

    @cached_property
    def f11(self) -> bool:
        """Whether ``F`` has the pure eta-omega form.  The zero tensor
        qualifies: the Kahler-type class lies in the closure of every
        pure class."""
        return matches_class_f11(self.model, self.f)

    # --- curvature ------------------------------------------------------

    @cached_property
    def curv(self) -> CurvaturePack:
        """``R(x_i, x_j) x_k = nabla_i nabla_j x_k - nabla_j nabla_i x_k
        - nabla_{[x_i, x_j]} x_k``, lowered, with Ricci and the scalars."""
        ginv, phi = self.ginv, self.model.phi
        r13 = exact_sum(curvature_terms(self.conn, self.model))
        R = exact_einsum("lijk,lu->ijku", r13, self.model.g)
        # ricci(y, z) = g^{is} R(x_i, y, z, x_s)
        ricci = exact_einsum("is,iyzs->yz", ginv, R)
        return CurvaturePack(
            r13, R, ricci,
            einsum_scalar("jk,jk->", ginv, ricci),
            # tau_star: twist the third argument by phi before tracing.
            einsum_scalar("is,jk,mk,ijms->", ginv, ginv, phi, R),
            # tau_2star: twist the third and fourth arguments by phi.
            einsum_scalar("is,jk,mk,ns,ijmn->", ginv, ginv, phi, phi, R),
        )

    @cached_property
    def psi4_s(self) -> Tensor:
        return psi4(self.s, self.model.eta)

    @cached_property
    def twisted_r(self) -> Tensor:
        """``R(x, y, phi z, phi u)``."""
        phi = self.model.phi
        return exact_einsum("ijmn,mk,nu->ijku", self.curv.r04, phi, phi)

    @cached_property
    def curvature_phi_kahler(self) -> bool:
        """Whether ``R(x, y, phi z, phi u) = -R(x, y, z, u)``."""
        return self.twisted_r == -self.curv.r04

    @cached_property
    def nabla2_phi(self) -> Tensor:
        """``nabla nabla phi``: iterating the covariant derivative of
        constant tensors already gives the tensorial second derivative."""
        return covariant_derivative(self.conn, self.nabla_phi)

    @cached_property
    def nabla2_eta(self) -> Tensor:
        return covariant_derivative(self.conn, self.nabla_eta)

    # --- scalars and flags ----------------------------------------------

    @cached_property
    def norms(self) -> SquareNorms:
        """The three square norms, with ``g^{-1}`` in every argument slot,
        e.g. ``||nabla phi||^2 = g^{ij} g^{ks} g((nabla_{x_i} phi) x_k,
        (nabla_{x_j} phi) x_s)``.  The inner ``g`` is read from ``F``, which
        is ``nabla phi`` lowered, and from ``N`` lowered once."""
        ginv = self.ginv
        n_lowered = exact_einsum("ab,aik->bik", self.model.g, self.n)
        return SquareNorms(
            einsum_scalar("ij,ks,ikb,jbs->", ginv, ginv, self.f, self.nabla_phi),
            einsum_scalar("ij,ks,ik,js->", ginv, ginv, self.nabla_eta, self.nabla_eta),
            einsum_scalar("ij,ks,bik,bjs->", ginv, ginv, n_lowered, self.n),
        )

    @cached_property
    def omega_norm(self) -> Fraction:
        """``omega(Omega)``."""
        return einsum_scalar("k,k->", self.omega, self.omega_vec)

    @cached_property
    def phi_omega(self) -> Tensor:
        """The vector ``phi Omega``."""
        return exact_einsum("ij,j->i", self.model.phi, self.omega_vec)

    @cached_property
    def div_phi_omega(self) -> Fraction:
        return self.divergence(self.phi_omega)

    @cached_property
    def s_trace(self) -> Fraction:
        """``tr S = g^{ij} S(x_i, x_j)``."""
        return einsum_scalar("ij,ij->", self.ginv, self.s)

    @cached_property
    def ricci_xi_xi(self) -> Fraction:
        xi = self.model.xi
        return einsum_scalar("ij,i,j->", self.curv.ricci, xi, xi)

    @cached_property
    def forms_closed(self) -> tuple[bool, bool]:
        """Closedness of ``omega`` and ``omega_star``: for constant forms
        ``d omega(x, y) = (nabla_x omega) y - (nabla_y omega) x``."""
        return tuple(t == exact_einsum("ij->ji", t)
                     for t in (self.nabla_omega, self.nabla_omega_star))

    @cached_property
    def isotropic_kahler(self) -> bool:
        """Whether ``||nabla phi||^2`` and ``||nabla eta||^2`` both vanish."""
        return self.norms.nabla_phi == 0 and self.norms.nabla_eta == 0

    @cached_property
    def identities(self) -> dict[str, IdentityVerdict]:
        """The identity verdicts, see :func:`norden.classify.check_identities`."""
        return check_identities(self)

    def divergence(self, x) -> Fraction:
        """``div X = g^{ij} g(nabla_{x_i} X, x_j)`` for a constant vector."""
        nx = covariant_derivative(self.conn, vector(x, self.model.dim, name="x"))
        return einsum_scalar("ij,ik,kj->", self.ginv, nx, self.model.g)


def levi_civita(model: AcnModel) -> Connection:
    """The unique torsion-free, metric connection of ``model.g``.

    Raises :class:`SingularMetric` if the metric is degenerate.
    """
    return Geometry(model).conn


def structure_pack(model: AcnModel, conn: Connection) -> StructurePack:
    """Compute the full structure-level package for a model."""
    return Geometry(model, conn=conn).pack


def riemann(model: AcnModel, conn: Connection) -> CurvaturePack:
    """Compute the full curvature package of a model."""
    return Geometry(model, conn=conn).curv


def verify_identities(model: AcnModel, conn: Connection | None = None,
                      pack: StructurePack | None = None,
                      curv: CurvaturePack | None = None) -> dict[str, IdentityVerdict]:
    """Evaluate every supported exact identity on a model.

    Returns a dict keyed by identity name.  Identities restricted to
    the pure eta-omega class are reported as inapplicable on models
    outside it; everything else is checked unconditionally.  The
    optional arguments allow reuse of already-computed packages.
    """
    return Geometry(model, conn, pack, curv).identities


def square_norms(
    model: AcnModel, conn: Connection, pack: StructurePack | None = None
) -> SquareNorms:
    """The three square norms, each a full-basis contraction with the
    inverse metric in every argument slot.  Passing an already-computed
    :class:`StructurePack` avoids recomputing the Nijenhuis tensor and
    the derivatives."""
    return Geometry(model, conn=conn, pack=pack).norms
