"""Every layer of one model's geometry, each computed at most once.

:class:`Geometry` holds one model.  The layers of the pipeline -- the
inverse metric, the Levi-Civita connection, the structure tensors, the
curvature, the square norms, the scalars of the report and the identity
verdicts -- are lazily cached properties: a layer is computed the first
time it is read, from the layers below it, and every later read returns
the same object.  The cache lives in the ``Geometry`` object and dies with
it, except for the inverse metric: the model keeps that one
(:attr:`~norden.structures.AcnModel.ginv`), so every ``Geometry`` of one
model inverts ``g`` at most once between them.  The model keeps the
signature of ``g`` the same way (:attr:`~norden.structures.AcnModel.signature`),
which validation and the report both read.

For left-invariant data every directional derivative of a component
vanishes, so the Koszul formula reduces to bracket terms,
``2 g(nabla_{x_i} x_j, x_k) = g([x_i, x_j], x_k) + g([x_k, x_i], x_j)
+ g([x_k, x_j], x_i)``, and the covariant derivative of a constant tensor
is its Gamma correction terms alone.  The connection is stored as
``gamma[k, i, j]``, the ``x_k`` coefficient of ``nabla_{x_i} x_j``, and
the curvature as ``r13[l, i, j, k]``, the ``x_l`` component of
``R(x_i, x_j) x_k``.  Every subscript that indexes them is written in
this module.

Every quantity is read from its layer.  Above the class are the layers'
containers and the pure functions of given tensors that the layers, the
command line and the tests share.  The five entry points below the class
(:func:`levi_civita`, :func:`structure_pack`, :func:`riemann`,
:func:`verify_identities` and :func:`square_norms`) build a
``Geometry`` seeded with their arguments and read one layer.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .classify import IdentityVerdict, check_identities
from .errors import (
    DimensionMismatch,
    InternalInconsistency,
    LinearlyDependent,
    VarianceMismatch,
)
from .structures import AcnModel
from .tensors import (
    DOWN,
    UP,
    Tensor,
    einsum_scalar,
    exact_einsum,
    exact_sum,
    matrix_rank,
    nonzero_where,
    vector,
)


# --- connection -------------------------------------------------------------

@dataclass(frozen=True)
class Connection:
    """Connection coefficients ``gamma[k, i, j]`` on a fixed basis
    (derivative direction ``i``, argument ``j``, output component ``k``)."""

    gamma: Tensor

    def __post_init__(self):
        if self.gamma.variance != "udd":
            raise VarianceMismatch(
                f"connection coefficients need variance 'udd', got "
                f"{self.gamma.variance!r}"
            )
        s = self.gamma.shape
        if len(s) != 3 or len(set(s)) != 1:
            raise DimensionMismatch(f"connection coefficients must be cubic, got {s}")

    @property
    def dim(self) -> int:
        return self.gamma.shape[0]


def covariant_derivative(conn: Connection, t: Tensor) -> Tensor:
    """``nabla t`` of a constant tensor: a new covariant direction slot
    is prepended, and each original slot receives its Gamma correction
    (``+`` for contravariant slots, ``-`` for covariant ones), all summed
    in one exact combination."""
    d = conn.dim
    if any(s != d for s in t.shape):
        raise DimensionMismatch(
            f"tensor slots {t.shape} do not match connection dimension {d}"
        )
    if t.rank == 0:
        return Tensor(np.zeros(d, dtype=int), DOWN)
    slots = "abcdefgh"[:t.rank]
    terms = []
    for slot, var in enumerate(t.variance):
        argument = slots[:slot] + "m" + slots[slot + 1:]
        result = slots[:slot] + "k" + slots[slot + 1:]
        if var == UP:
            terms.append((1, f"kim,{argument}->i{result}", conn.gamma, t))
        else:
            terms.append((-1, f"mik,{argument}->i{result}", conn.gamma, t))
    return exact_sum(terms)


def is_torsion_free(conn: Connection, model: AcnModel) -> bool:
    """Exact check of ``nabla_x y - nabla_y x = [x, y]`` on basis pairs."""
    gamma, c = conn.gamma, model.algebra.c
    return exact_sum([(1, "kij->kij", gamma), (-1, "kji->kij", gamma),
                      (-1, "kij->kij", c)]).is_zero()


def is_metric_compatible(conn: Connection, model: AcnModel) -> bool:
    """Exact check of ``nabla g = 0``."""
    return covariant_derivative(conn, model.g).is_zero()


# --- structure tensors ------------------------------------------------------

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
    an independent route used to cross-check :attr:`Geometry.nabla_eta`."""
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


# --- curvature --------------------------------------------------------------

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
    with ``R(x, y, y, x)`` read from the connection ``conn`` of ``model``
    through :func:`curvature_terms`, so it costs ``d**2``-sized steps and
    no curvature tensor.

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
        """The model's inverse metric, :attr:`AcnModel.ginv`."""
        return self.model.ginv

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
        """Whether ``F`` has the pure eta-omega form
        ``F(x, y, z) = eta(x) (eta(y) omega(z) + eta(z) omega(y))``.  The
        zero tensor qualifies: the Kahler-type class lies in the closure
        of every pure class."""
        eta, omega = self.model.eta, self.omega
        return not nonzero_where([(1, "ijk->ijk", self.f), (-1, "i,j,k->ijk", eta, eta, omega),
                                  (-1, "i,k,j->ijk", eta, eta, omega)]).any()

    # --- curvature ------------------------------------------------------

    @cached_property
    def curv(self) -> CurvaturePack:
        """``R(x_i, x_j) x_k = nabla_i nabla_j x_k - nabla_j nabla_i x_k
        - nabla_{[x_i, x_j]} x_k``, lowered, with Ricci and the scalars."""
        ginv, phi = self.ginv, self.model.phi
        r13 = exact_sum(curvature_terms(self.conn, self.model))
        R = exact_einsum("lijk,lu->ijku", r13, self.model.g)
        # Ric(y, z) = tr(x -> R(x, y) z)
        ricci = exact_einsum("iiyz->yz", r13)
        return CurvaturePack(
            r13, R, ricci,
            einsum_scalar("jk,jk->", ginv, ricci),
            # tau_star = g^{jk} Ric(x_j, phi x_k)
            einsum_scalar("jk,mk,jm->", ginv, phi, ricci),
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
        return not nonzero_where([(1, "ijku->ijku", self.twisted_r),
                                  (1, "ijku->ijku", self.curv.r04)]).any()

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
        return tuple(np.array_equal(t.num, t.num.T)
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
        """``div X = tr(nabla X) = Gamma^i_im X^m`` for a constant vector."""
        return einsum_scalar("iim,m->", self.conn.gamma,
                             vector(x, self.model.dim, name="x"))


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
