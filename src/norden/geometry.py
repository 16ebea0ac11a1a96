"""Every layer of one model's geometry, each computed at most once.

:class:`Geometry` holds one model.  The layers of the pipeline -- the
inverse metric, the Levi-Civita connection, the structure tensors, the
curvature, the square norms, the scalars of the report and the identity
verdicts -- are lazily cached properties: a layer is computed the first
time it is read, from the layers below it, and every later read returns
the same object.  The cache lives in the ``Geometry`` object and dies with
it; nothing is memoized between objects.

The functions of the other modules (:func:`~norden.connection.levi_civita`,
:func:`~norden.fundamental.structure_pack`,
:func:`~norden.curvature.riemann`,
:func:`~norden.classify.verify_identities`, ...) are thin wrappers that
build a ``Geometry`` seeded with their arguments and read one layer.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cached_property

import numpy as np

from .connection import Connection, covariant_derivative
from .curvature import CurvaturePack, _scalars_from_r04
from .errors import InternalInconsistency
from .fundamental import (
    OneForms,
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
    exact_div,
    exact_einsum,
    invert_symmetric,
    vector_components,
)


class Geometry:
    """One model and every layer computed from it.

    ``Geometry(model)`` computes nothing up front.  Layers may be seeded
    with objects computed elsewhere, e.g. ``Geometry(model, conn=conn,
    pack=pack)``; a seeded :class:`StructurePack` also seeds the tensors
    it holds.  Seeds set to ``None`` are ignored, so optional arguments
    can be passed straight through.  The model must be valid (see
    :func:`norden.structures.validate_structure`); on an invalid model
    the layers are not meaningful.
    """

    def __init__(self, model: AcnModel, **layers):
        self.model = model
        pack = layers.get("pack")
        if pack is not None:
            forms = OneForms(pack.theta, pack.theta_star, pack.omega,
                             pack.omega_star, pack.omega_vec)
            layers = {"f": pack.f, "forms": forms, "nabla_phi": pack.nabla_phi,
                      "nabla_eta": pack.nabla_eta, "n": pack.n, "s": pack.s, **layers}
        for name, value in layers.items():
            if not isinstance(getattr(type(self), name, None), cached_property):
                raise TypeError(f"Geometry has no layer {name!r}")
            if value is not None:
                self.__dict__[name] = value

    # --- metric and connection ------------------------------------------

    @cached_property
    def ginv(self) -> np.ndarray:
        """Components of the inverse metric ``g^{ij}``; raises
        :class:`SingularMetric` if the metric is degenerate."""
        return invert_symmetric(self.model.g).components

    @cached_property
    def conn(self) -> Connection:
        """The Levi-Civita connection, from the bracket-only Koszul
        formula ``2 g(nabla_{x_i} x_j, x_k) = g([x_i, x_j], x_k)
        + g([x_k, x_i], x_j) + g([x_k, x_j], x_i)``."""
        # b[i, j, k] = g([x_i, x_j], x_k)
        b = exact_einsum("mij,mk->ijk", self.model.algebra.c.components,
                         self.model.g.components)
        two_k = b + np.einsum("kij->ijk", b) + np.einsum("kji->ijk", b)
        # gamma[m, i, j] = (1/2) * two_k[i, j, k] g^{k m}
        gamma = exact_div(exact_einsum("ijk,km->mij", two_k, self.ginv), 2)
        return Connection(Tensor(gamma, "udd"))

    # --- structure tensors ----------------------------------------------

    @cached_property
    def nabla_phi(self) -> Tensor:
        """``nabla phi``, variance ``"dud"``."""
        return covariant_derivative(self.conn, self.model.phi)

    @cached_property
    def f(self) -> Tensor:
        """The fundamental tensor ``F[i, j, k] = g((nabla_{x_i} phi) x_j,
        x_k)``, variance ``"ddd"``."""
        return Tensor(exact_einsum("iaj,ak->ijk", self.nabla_phi.components,
                                   self.model.g.components), "ddd")

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
    def forms(self) -> OneForms:
        """The 1-forms traced from ``F`` and ``omega``'s g-dual vector."""
        F, ginv = self.f.components, self.ginv
        phi, xi = self.model.phi.components, self.model.xi.components
        omega = exact_einsum("a,b,abk->k", xi, xi, F)
        return OneForms(
            Tensor(exact_einsum("ij,ijk->k", ginv, F), "d"),
            Tensor(exact_einsum("ij,mj,imk->k", ginv, phi, F), "d"),
            Tensor(omega, "d"),
            Tensor(exact_einsum("m,mk->k", omega, phi), "d"),
            Tensor(exact_einsum("ij,j->i", ginv, omega), "u"),
        )

    @cached_property
    def nabla_omega(self) -> Tensor:
        return covariant_derivative(self.conn, self.forms.omega)

    @cached_property
    def nabla_omega_star(self) -> Tensor:
        return covariant_derivative(self.conn, self.forms.omega_star)

    def _deta_xi(self) -> np.ndarray:
        """``xi (x) (nabla eta)`` antisymmetrized, the term both Nijenhuis
        routes share."""
        neta = self.nabla_eta.components
        return exact_einsum("a,ij->aij", self.model.xi.components, neta - neta.T)

    @cached_property
    def n_from_brackets(self) -> Tensor:
        """``N`` from ``phi^2 [x,y] + [phi x, phi y] - phi[phi x, y]
        - phi[x, phi y]`` plus the ``(nabla eta)`` term; ``N[a, i, j]`` is
        the ``x_a`` component of ``N(x_i, x_j)``."""
        c = self.model.algebra.c.components
        phi = self.model.phi.components
        phi2 = exact_einsum("am,ms->as", phi, phi)
        t = exact_einsum("as,sij->aij", phi2, c)
        t = t + exact_einsum("ams,mi,sj->aij", c, phi, phi)
        t = t - exact_einsum("am,msj,si->aij", phi, c, phi)
        t = t - exact_einsum("am,mis,sj->aij", phi, c, phi)
        return Tensor(t + self._deta_xi(), "udd")

    @cached_property
    def n_from_derivatives(self) -> Tensor:
        """``N`` from ``(nabla_{phi x} phi) y - (nabla_{phi y} phi) x
        - phi (nabla_x phi) y + phi (nabla_y phi) x`` plus the same
        ``(nabla eta)`` term."""
        phi = self.model.phi.components
        nphi = self.nabla_phi.components
        t = exact_einsum("mi,maj->aij", phi, nphi)
        t = t - exact_einsum("mj,mai->aij", phi, nphi)
        t = t - exact_einsum("am,imj->aij", phi, nphi)
        t = t + exact_einsum("am,jmi->aij", phi, nphi)
        return Tensor(t + self._deta_xi(), "udd")

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
        ostar = self.forms.omega_star.components
        comps = exact_einsum("im,mj->ij", self.nabla_omega.components,
                             self.model.phi.components)
        return Tensor(comps - np.multiply.outer(ostar, ostar), "dd")

    @cached_property
    def pack(self) -> StructurePack:
        return StructurePack(
            f=self.f, **self.forms._asdict(), nabla_phi=self.nabla_phi,
            nabla_eta=self.nabla_eta, n=self.n, s=self.s,
        )

    @cached_property
    def f11(self) -> bool:
        """Whether ``F`` has the pure eta-omega form."""
        return matches_class_f11(self.model, self.f)

    # --- curvature ------------------------------------------------------

    @cached_property
    def curv(self) -> CurvaturePack:
        """``R(x_i, x_j) x_k = nabla_i nabla_j x_k - nabla_j nabla_i x_k
        - nabla_{[x_i, x_j]} x_k``, lowered, with Ricci and the scalars."""
        gamma = self.conn.gamma.components
        c = self.model.algebra.c.components
        r13 = (
            exact_einsum("mjk,lim->lijk", gamma, gamma)
            - exact_einsum("mik,ljm->lijk", gamma, gamma)
            - exact_einsum("mij,lmk->lijk", c, gamma)
        )
        r04 = Tensor(exact_einsum("lijk,lu->ijku", r13, self.model.g.components), "dddd")
        return CurvaturePack(Tensor(r13, "uddd"), r04,
                             *_scalars_from_r04(self.model, r04, self.ginv))

    @cached_property
    def psi4_s(self) -> Tensor:
        return psi4(self.s, self.model.eta)

    @cached_property
    def twisted_r(self) -> np.ndarray:
        """``R(x, y, phi z, phi u)``."""
        phi = self.model.phi.components
        return exact_einsum("ijmn,mk,nu->ijku", self.curv.r04.components, phi, phi)

    @cached_property
    def curvature_phi_kahler(self) -> bool:
        """Whether ``R(x, y, phi z, phi u) = -R(x, y, z, u)``."""
        return bool(np.all(self.twisted_r == -self.curv.r04.components))

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
        (nabla_{x_j} phi) x_s)``."""
        g, ginv = self.model.g.components, self.ginv
        return SquareNorms(
            einsum_scalar("ij,ks,ab,iak,jbs->", ginv, ginv, g,
                          self.nabla_phi.components, self.nabla_phi.components),
            einsum_scalar("ij,ks,ik,js->", ginv, ginv,
                          self.nabla_eta.components, self.nabla_eta.components),
            einsum_scalar("ij,ks,ab,aik,bjs->", ginv, ginv, g,
                          self.n.components, self.n.components),
        )

    @cached_property
    def omega_norm(self) -> Fraction:
        """``omega(Omega)``."""
        return einsum_scalar("k,k->", self.forms.omega.components,
                             self.forms.omega_vec.components)

    @cached_property
    def phi_omega(self) -> np.ndarray:
        """Components of the vector ``phi Omega``."""
        return exact_einsum("ij,j->i", self.model.phi.components,
                            self.forms.omega_vec.components)

    @cached_property
    def div_phi_omega(self) -> Fraction:
        return self.divergence(self.phi_omega)

    @cached_property
    def s_trace(self) -> Fraction:
        """``tr S = g^{ij} S(x_i, x_j)``."""
        return einsum_scalar("ij,ij->", self.ginv, self.s.components)

    @cached_property
    def ricci_xi_xi(self) -> Fraction:
        xi = self.model.xi.components
        return einsum_scalar("ij,i,j->", self.curv.ricci.components, xi, xi)

    @cached_property
    def forms_closed(self) -> tuple[bool, bool]:
        """Closedness of ``omega`` and ``omega_star``: for constant forms
        ``d omega(x, y) = (nabla_x omega) y - (nabla_y omega) x``."""
        nomega = self.nabla_omega.components
        nostar = self.nabla_omega_star.components
        return bool(np.all(nomega == nomega.T)), bool(np.all(nostar == nostar.T))

    @cached_property
    def isotropic_kahler(self) -> bool:
        """Whether ``||nabla phi||^2`` and ``||nabla eta||^2`` both vanish."""
        return self.norms.nabla_phi == 0 and self.norms.nabla_eta == 0

    @cached_property
    def identities(self) -> dict:
        """The identity verdicts, see :func:`norden.classify.check_identities`."""
        from .classify import check_identities  # classify imports this module

        return check_identities(self)

    def divergence(self, x) -> Fraction:
        """``div X = g^{ij} g(nabla_{x_i} X, x_j)`` for a constant vector."""
        xv = Tensor(vector_components(x, self.model.dim, name="x"), "u")
        nx = covariant_derivative(self.conn, xv).components
        return einsum_scalar("ij,ik,kj->", self.ginv, nx, self.model.g.components)
