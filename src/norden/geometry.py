"""Every layer of one model's geometry, each computed at most once.

:class:`Geometry` holds one model.  The layers of the pipeline -- the
Levi-Civita connection, the structure tensors, the curvature, the square
norms, the scalars of the report and the identity verdicts -- are lazily
cached properties: a layer is computed the first time it is read, from
the layers below it, and every later read returns the same object.  The
cache lives in the ``Geometry`` object and dies with it.  The model keeps
the products of its own tensors: ``ginv``, ``signature`` and ``eta_eta``
(see :class:`~norden.structures.AcnModel`), so validation and every
``Geometry`` of one model build each at most once between them.

For left-invariant data every directional derivative of a component
vanishes, so the Koszul formula reduces to bracket terms,
``2 g(nabla_{x_i} x_j, x_k) = g([x_i, x_j], x_k) + g([x_k, x_i], x_j)
+ g([x_k, x_j], x_i)``, and the covariant derivative of a constant tensor
is its Gamma correction terms alone.  The curvature is computed lowered,
where its entries carry the denominators of ``g``, which are smaller than
those of ``g^{-1}``.  The tensors are indexed as follows, and every
subscript that indexes them is written in this module:

- ``koszul[i, j, k] = g(nabla_{x_i} x_j, x_k)``, the Koszul tensor ``L``;
- ``gamma[k, i, j]``, the ``x_k`` coefficient of ``nabla_{x_i} x_j``:
  ``L`` raised in its last slot;
- ``r04[i, j, k, u] = R(x_i, x_j, x_k, x_u) = g(R(x_i, x_j) x_k, x_u)``,
  from ``Gamma`` and ``L``;
- ``r13[l, i, j, k]``, the ``x_l`` component of ``R(x_i, x_j) x_k``:
  ``r04`` raised in its last slot, which the report does not read;
- ``r04_phi[i, j, k, u] = R(x_i, x_j, x_k, phi x_u)``, read by
  ``twisted_r`` and the phi Ricci identity;
- ``nabla_f[i, j, a, b] = (nabla_{x_i} F)(x_j, x_a, x_b)``, the second
  covariant derivative of ``Phi = g(phi ., .)``.

:func:`section` reads ``R(x, y) y`` of one plane from the connection
alone, by nested covariant derivatives of constant vectors, and builds no
curvature tensor.

The two decidable classes are the Kahler-type class ``F = 0``
(:attr:`Geometry.f0`) and the pure class in which ``F`` is carried
entirely by ``eta`` and ``omega`` (:attr:`Geometry.f11`),

    F(x, y, z) = eta(x) (eta(y) omega(z) + eta(z) omega(y)).

On the pure class a family of exact identities ties the structure
tensors to the curvature; :attr:`Geometry.identities` decides each of
them with literal rational equality.

Every quantity is a layer of its own, read by its name: a structure
tensor, a curvature tensor, a scalar curvature and a square norm alike.
Above the class are the connection, plane and verdict types, the verdict
constructors and the pure functions of given tensors that the layers, the
command line and the tests share.  The five entry points below the class
build a ``Geometry`` seeded with their arguments: :func:`levi_civita` and
:func:`verify_identities` return its connection and its verdicts, and
:func:`structure_pack`, :func:`riemann` and :func:`square_norms` return
the ``Geometry`` itself once they have computed their layers.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatch,
    InternalInconsistency,
    LinearlyDependent,
    VarianceMismatch,
)
from .linalg import matrix_rank
from .structures import AcnModel
from .tensors import (
    DOWN,
    UP,
    Tensor,
    einsum_scalar,
    exact_einsum,
    exact_sum,
    format_scalar,
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
    return not nonzero_where([(1, "kij->kij", gamma), (-1, "kji->kij", gamma),
                              (-1, "kij->kij", c)]).any()


def is_metric_compatible(conn: Connection, model: AcnModel) -> bool:
    """Exact check of ``nabla g = 0``."""
    return covariant_derivative(conn, model.g).is_zero()


# --- structure tensors ------------------------------------------------------

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
    with ``R(x, y, y, x) = g(R(x, y) y, x)`` read from the connection
    ``conn`` of ``model`` by nested covariant derivatives of constant
    vectors, ``R(x, y) y = nabla_x nabla_y y - nabla_y nabla_x y
    - nabla_[x, y] y`` with ``nabla_u v = Gamma^k_ij u^i v^j``: every step
    is ``d**2``-sized and no curvature tensor is built.

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

    def nabla(u: Tensor, v: Tensor) -> Tensor:
        return exact_einsum("kij,i,j->k", conn.gamma, u, v)

    bracket = exact_einsum("kij,i,j->k", model.algebra.c, xv, yv)
    r = exact_sum([(1, "k,k->", gx, nabla(xv, nabla(yv, yv))),
                   (-1, "k,k->", gx, nabla(yv, nabla(xv, yv))),
                   (-1, "k,k->", gx, nabla(bracket, yv))])
    k = r.item() / pi1 if pi1 else None
    return Section(kind, contains_xi, phi_invariant, totally_real, k)


# --- identity verdicts -------------------------------------------------------

@dataclass(frozen=True)
class IdentityVerdict:
    """Outcome of one exact identity check.

    ``applicable`` is False when the identity's precondition (usually
    membership in the pure class) is unmet, in which case ``passed`` is
    None.  The ``witness`` of a failed identity is the first index where
    its two sides differ, or the values that should agree, with rationals
    as ``"p/q"`` strings and flags as bools.
    """

    name: str
    applicable: bool
    passed: bool | None
    witness: tuple | None = None
    detail: str = ""

    @property
    def ok(self) -> bool:
        """True unless the identity applies and fails."""
        return (not self.applicable) or bool(self.passed)

    @property
    def status(self) -> str:
        """The four-character label of the text outputs."""
        return " n/a" if not self.applicable else "pass" if self.passed else "FAIL"


def _verdict(name: str, detail: str, gate: str | None, decide) -> IdentityVerdict:
    """The verdict ``name``.  ``gate`` is None or the reason the identity
    does not apply, which becomes the detail of a verdict that is not
    applicable; only an identity that applies calls ``decide()`` for its
    ``(passed, witness)``."""
    if gate is not None:
        return IdentityVerdict(name, applicable=False, passed=None, detail=gate)
    passed, witness = decide()
    return IdentityVerdict(name, applicable=True, passed=passed, witness=witness,
                           detail=detail)


def _vanishes(name: str, detail: str, gate: str | None, terms) -> IdentityVerdict:
    """The verdict on ``sum(terms()) = 0``, for :func:`exact_sum` terms
    that move one side of an identity over to the other; the witness is
    the first index where the sides differ.  ``gate`` is as in
    :func:`_verdict`."""
    def decide():
        where = nonzero_where(terms())
        witness = tuple(np.argwhere(where)[0].tolist()) if where.any() else None
        return witness is None, witness
    return _verdict(name, detail, gate, decide)


def _agree(name: str, detail: str, gate: str | None, values) -> IdentityVerdict:
    """The verdict on ``values()``, rationals or flags, being all equal;
    the witness is the values, rationals as ``"p/q"`` strings.  ``gate``
    is as in :func:`_verdict`."""
    def decide():
        got = values()
        if len(set(got)) == 1:
            return True, None
        return False, tuple(v if type(v) is bool else format_scalar(v) for v in got)
    return _verdict(name, detail, gate, decide)


class Geometry:
    """One model and every layer computed from it.

    ``Geometry(model)`` computes nothing up front.  It may be seeded with
    the model's Levi-Civita connection, computed elsewhere, and with other
    geometries of the same model, whose computed layers it takes, e.g.
    ``Geometry(model, conn, other)``.  No other connection may be seeded:
    the curvature reads the model's Koszul tensor as well as the
    connection.  Seeds set to ``None`` are ignored, so optional arguments
    can be passed straight through.  The model must be valid (see
    :func:`norden.structures.validate_structure`); on an invalid model
    the layers are not meaningful.
    """

    def __init__(self, model: AcnModel, conn: Connection | None = None,
                 *seeds: Geometry | None):
        for seed in seeds:
            if seed is not None:
                self.__dict__.update(vars(seed))
        self.model = model
        if conn is not None:
            self.conn = conn

    # --- connection -----------------------------------------------------

    @cached_property
    def koszul(self) -> Tensor:
        """``L[i, j, k] = g(nabla_{x_i} x_j, x_k)``, variance ``"ddd"``,
        from the bracket-only Koszul formula ``2 g(nabla_{x_i} x_j, x_k)
        = g([x_i, x_j], x_k) + g([x_k, x_i], x_j) + g([x_k, x_j], x_i)``."""
        # lowered[i, j, k] = g([x_i, x_j], x_k); the other two terms relabel it
        lowered = exact_einsum("mij,mk->ijk", self.model.algebra.c, self.model.g)
        half = Fraction(1, 2)
        return exact_sum([(half, "ijk->ijk", lowered), (half, "kij->ijk", lowered),
                          (half, "kji->ijk", lowered)])

    @cached_property
    def conn(self) -> Connection:
        """The Levi-Civita connection: :attr:`koszul` raised,
        ``Gamma^m_ij = L[i, j, k] g^{k m}``."""
        return Connection(exact_einsum("ijk,km->mij", self.koszul, self.model.ginv))

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
        return exact_einsum("ij,ijk->k", self.model.ginv, self.f)

    @cached_property
    def theta_star(self) -> Tensor:
        """``theta_star(z) = g^{ij} F(x_i, phi x_j, z)``."""
        return exact_einsum("ij,mj,imk->k", self.model.ginv, self.model.phi, self.f)

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
        return exact_einsum("ij,j->i", self.model.ginv, self.omega)

    @cached_property
    def nabla_omega(self) -> Tensor:
        return covariant_derivative(self.conn, self.omega)

    @cached_property
    def nabla_omega_star(self) -> Tensor:
        return covariant_derivative(self.conn, self.omega_star)

    @cached_property
    def n_from_brackets(self) -> Tensor:
        """``N`` from ``phi^2 [x,y] + [phi x, phi y] - phi[phi x, y]
        - phi[x, phi y] + d eta(x, y) xi``, read from the model alone: for
        a left-invariant ``eta``, ``d eta(x, y) = -eta([x, y])``.  For the
        torsion-free connection that is ``(nabla_x eta) y - (nabla_y eta)
        x``, the derivative route's term, so the two routes share no term.
        ``N[a, i, j]`` is the ``x_a`` component of ``N(x_i, x_j)``.  The
        product ``phi [x_i, x_j]`` is built once and read by three terms."""
        c, phi = self.model.algebra.c, self.model.phi
        phi_c = exact_einsum("am,mij->aij", phi, c)
        return exact_sum([
            (1, "am,mij->aij", phi, phi_c),
            (1, "ams,mi,sj->aij", c, phi, phi),
            (-1, "asj,si->aij", phi_c, phi),
            (-1, "ais,sj->aij", phi_c, phi),
            (-1, "a,k,kij->aij", self.model.xi, self.model.eta, c),
        ])

    @cached_property
    def n_from_derivatives(self) -> Tensor:
        """``N`` from ``(nabla_{phi x} phi) y - (nabla_{phi y} phi) x
        - phi (nabla_x phi) y + phi (nabla_y phi) x + d eta(x, y) xi``,
        with ``d eta(x, y) = (nabla_x eta) y - (nabla_y eta) x``: that is
        ``W(x, y) - W(y, x)`` with ``W(x, y) = (nabla_{phi x} phi) y
        - phi (nabla_x phi) y + (nabla_x eta)(y) xi``, built once."""
        phi, nphi = self.model.phi, self.nabla_phi
        w = exact_sum([(1, "mi,maj->aij", phi, nphi), (-1, "am,imj->aij", phi, nphi),
                       (1, "a,ij->aij", self.model.xi, self.nabla_eta)])
        return exact_sum([(1, "aij->aij", w), (-1, "aji->aij", w)])

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
    def nabla_omega_phi(self) -> Tensor:
        """``(nabla_x omega) phi y``."""
        return exact_einsum("im,mj->ij", self.nabla_omega, self.model.phi)

    @cached_property
    def omega_star_squared(self) -> Tensor:
        """``omega_star (x) omega_star``."""
        return exact_einsum("i,j->ij", self.omega_star, self.omega_star)

    @cached_property
    def s(self) -> Tensor:
        """``S(x, y) = (nabla_x omega) phi y - omega(phi x) omega(phi y)``."""
        return exact_sum([(1, "ij->ij", self.nabla_omega_phi),
                          (-1, "ij->ij", self.omega_star_squared)])

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
        of every pure class.  ``eta (x) eta`` is the model's ``eta_eta``,
        and ``eta (x) eta (x) omega`` is built once and read swapped in
        ``(y, z)`` for the second term."""
        eta_eta_omega = exact_einsum("ij,k->ijk", self.model.eta_eta, self.omega)
        return not nonzero_where([(1, "ijk->ijk", self.f), (-1, "ijk->ijk", eta_eta_omega),
                                  (-1, "ikj->ijk", eta_eta_omega)]).any()

    # --- curvature ------------------------------------------------------

    @cached_property
    def r04(self) -> Tensor:
        """``R(x_i, x_j, x_k, x_u) = g(R(x_i, x_j) x_k, x_u)`` with ``R(x_i,
        x_j) x_k = nabla_i nabla_j x_k - nabla_j nabla_i x_k - nabla_{[x_i,
        x_j]} x_k``, variance ``"dddd"``: ``P[i, j, k, u] - P[j, i, k, u]
        - c^m_ij L[m, k, u]`` with the :attr:`koszul` tensor ``L`` and the
        product ``P[i, j, k, u] = Gamma^m_jk L[i, m, u]``, computed once,
        one ``d**5`` contraction, and read by both terms as views.  The
        connection must be the model's own."""
        koszul = self.koszul
        p = exact_einsum("mjk,imu->ijku", self.conn.gamma, koszul)
        return exact_sum([(1, "ijku->ijku", p), (-1, "jiku->ijku", p),
                          (-1, "mij,mku->ijku", self.model.algebra.c, koszul)])

    @cached_property
    def r13(self) -> Tensor:
        """``r13[l, i, j, k]``, the ``x_l`` component of ``R(x_i, x_j) x_k``,
        variance ``"uddd"``: :attr:`r04` raised in its last slot."""
        return exact_einsum("ijku,ul->lijk", self.r04, self.model.ginv)

    @cached_property
    def ricci(self) -> Tensor:
        """``Ric(y, z) = tr(x -> R(x, y) z) = g^{lu} R(x_l, y, z, x_u)``."""
        return exact_einsum("lu,lyzu->yz", self.model.ginv, self.r04)

    @cached_property
    def tau(self) -> Fraction:
        """The scalar curvature ``g^{jk} Ric(x_j, x_k)``."""
        return einsum_scalar("jk,jk->", self.model.ginv, self.ricci)

    @cached_property
    def tau_star(self) -> Fraction:
        """``g^{jk} Ric(x_j, phi x_k)``."""
        return einsum_scalar("jk,mk,jm->", self.model.ginv, self.model.phi, self.ricci)

    @cached_property
    def tau_2star(self) -> Fraction:
        """``R`` traced with its third and fourth arguments twisted by phi:
        ``g^{is} g^{jk} R(x_i, x_j, phi x_k, phi x_s)``."""
        ginv = self.model.ginv
        return einsum_scalar("is,jk,ijks->", ginv, ginv, self.twisted_r)

    @cached_property
    def psi4_s(self) -> Tensor:
        return psi4(self.s, self.model.eta)

    @cached_property
    def r04_phi(self) -> Tensor:
        """``R(x, y, z, phi u)``."""
        return exact_einsum("ijkm,mu->ijku", self.r04, self.model.phi)

    @cached_property
    def twisted_r(self) -> Tensor:
        """``R(x, y, phi z, phi u)``, one step from :attr:`r04_phi`."""
        return exact_einsum("ijmu,mk->ijku", self.r04_phi, self.model.phi)

    @cached_property
    def curvature_phi_kahler(self) -> bool:
        """Whether ``R(x, y, phi z, phi u) = -R(x, y, z, u)``."""
        return not nonzero_where([(1, "ijku->ijku", self.twisted_r),
                                  (1, "ijku->ijku", self.r04)]).any()

    @cached_property
    def nabla_f(self) -> Tensor:
        """``nabla F``, variance ``"dddd"``: ``nabla_f[i, j, a, b] =
        (nabla_{x_i} F)(x_j, x_a, x_b)``, the second derivative of
        ``Phi = g(phi ., .)``.  Iterating the covariant derivative of
        constant tensors already gives the tensorial second derivative."""
        return covariant_derivative(self.conn, self.f)

    @cached_property
    def nabla2_eta(self) -> Tensor:
        return covariant_derivative(self.conn, self.nabla_eta)

    # --- scalars and flags ----------------------------------------------

    # The square norms take ``g^{-1}`` in every argument slot; indefinite
    # metrics make them signed.

    @cached_property
    def nabla_phi_square_norm(self) -> Fraction:
        """``||nabla phi||^2 = g^{ij} g^{ks} g((nabla_{x_i} phi) x_k,
        (nabla_{x_j} phi) x_s)``, the inner ``g`` read from ``F``, which is
        ``nabla phi`` lowered."""
        ginv = self.model.ginv
        return einsum_scalar("ij,ks,ikb,jbs->", ginv, ginv, self.f, self.nabla_phi)

    @cached_property
    def nabla_eta_square_norm(self) -> Fraction:
        """``||nabla eta||^2 = g^{ij} g^{ks} (nabla_{x_i} eta) x_k
        (nabla_{x_j} eta) x_s``."""
        ginv = self.model.ginv
        return einsum_scalar("ij,ks,ik,js->", ginv, ginv, self.nabla_eta, self.nabla_eta)

    @cached_property
    def nijenhuis_square_norm(self) -> Fraction:
        """``||N||^2 = g^{ij} g^{ks} g(N(x_i, x_k), N(x_j, x_s))``, the inner
        ``g`` read from ``N`` lowered once."""
        ginv = self.model.ginv
        n_lowered = exact_einsum("ab,aik->bik", self.model.g, self.n)
        return einsum_scalar("ij,ks,bik,bjs->", ginv, ginv, n_lowered, self.n)

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
        return einsum_scalar("ij,ij->", self.model.ginv, self.s)

    @cached_property
    def ricci_xi_xi(self) -> Fraction:
        xi = self.model.xi
        return einsum_scalar("ij,i,j->", self.ricci, xi, xi)

    @cached_property
    def forms_closed(self) -> tuple[bool, bool]:
        """Closedness of ``omega`` and ``omega_star``: for constant forms
        ``d omega(x, y) = (nabla_x omega) y - (nabla_y omega) x``."""
        return tuple(np.array_equal(t.num, t.num.T)
                     for t in (self.nabla_omega, self.nabla_omega_star))

    @cached_property
    def isotropic_kahler(self) -> bool:
        """Whether ``||nabla phi||^2`` and ``||nabla eta||^2`` both vanish."""
        return self.nabla_phi_square_norm == 0 and self.nabla_eta_square_norm == 0

    @cached_property
    def identities(self) -> dict[str, IdentityVerdict]:
        """Every supported exact identity, as a dict of verdicts keyed by
        identity name.

        The two Ricci identities hold for every metric connection and are
        checked unconditionally.  The others hold on the pure eta-omega
        class, some only where also ``R(x, y, phi z, phi u) = 0`` or
        ``nabla omega_star`` has the pure rank-one form.  An identity whose
        hypothesis fails is reported as not applicable rather than passed,
        and a layer is read only by an identity that applies.
        """
        eta_eta = self.model.eta_eta

        not_pure = None if self.f11 else "model is not in the pure eta-omega class"
        # When the twisted curvature vanishes identically the curvature
        # collapses onto psi4(S) and the Ricci tensor onto S; these hold
        # under that extra hypothesis, not on the whole pure class.
        twisted = not_pure or (None if self.twisted_r.is_zero()
                               else "R(x, y, phi z, phi u) does not vanish identically")
        # The pure rank-one form (nabla_x omega_star) y
        # = eta(x) eta(y) omega(Omega) + omega_star(x) omega_star(y).
        rank_one = not_pure is None and not nonzero_where([
            (1, "ij->ij", self.nabla_omega_star), (-self.omega_norm, "ij->ij", eta_eta),
            (-1, "ij->ij", self.omega_star_squared),
        ]).any()
        not_rank_one = not_pure or (
            None if rank_one else "nabla omega_star does not have the pure rank-one form")

        verdicts = [
            # Ricci identities: second-derivative antisymmetrization equals the
            # curvature action.  They hold for every metric connection.  The
            # phi identity is read on Phi = g(phi ., .), whose nabla is F:
            # nabla^2 Phi antisymmetrized is -Phi(R(x, y) a, b) - Phi(a, R(x,
            # y) b) = -R(x, y, a, phi b) - R(x, y, b, phi a), phi being
            # g-symmetric.
            _vanishes(
                "ricci_identity_phi", "nabla^2 phi antisymmetrized = curvature acting on phi",
                None,
                lambda: [(1, "ijab->ijab", self.nabla_f), (-1, "jiab->ijab", self.nabla_f),
                         (1, "ijab->ijab", self.r04_phi), (1, "ijba->ijab", self.r04_phi)]),
            _vanishes(
                "ricci_identity_eta", "nabla^2 eta antisymmetrized = -eta(R(.,.) .)",
                None,
                lambda: [(1, "ijk->ijk", self.nabla2_eta), (-1, "jik->ijk", self.nabla2_eta),
                         (1, "ijku,u->ijk", self.r04, self.model.xi)]),
            _agree(
                "norm_chain", "||nabla phi||^2 = -||N||^2 = -2||nabla eta||^2 = 2 omega(Omega)",
                not_pure,
                lambda: (self.nabla_phi_square_norm, -self.nijenhuis_square_norm,
                         -2 * self.nabla_eta_square_norm, 2 * self.omega_norm)),
            _vanishes(
                "omega_star_derivative",
                "(nabla_x omega_star) y = (nabla_x omega) phi y + eta(x) eta(y) omega(Omega)",
                not_pure,
                lambda: [(1, "ij->ij", self.nabla_omega_star),
                         (-1, "ij->ij", self.nabla_omega_phi),
                         (-self.omega_norm, "ij->ij", eta_eta)]),
            _vanishes(
                "curvature_phi_twist",
                "R twisted by phi in the last two slots differs from -R by psi4(S)",
                not_pure,
                lambda: [(1, "ijku->ijku", self.twisted_r), (1, "ijku->ijku", self.r04),
                         (-1, "ijku->ijku", self.psi4_s)]),
            _vanishes(
                "r_equals_psi4_s", "R = psi4(S)",
                twisted,
                lambda: [(1, "ijku->ijku", self.r04), (-1, "ijku->ijku", self.psi4_s)]),
            _vanishes(
                "ricci_from_s", "ricci = tr(S) eta (x) eta + S",
                twisted,
                lambda: [(1, "ij->ij", self.ricci), (-self.s_trace, "ij->ij", eta_eta),
                         (-1, "ij->ij", self.s)]),
            _agree(
                "s_trace_divergence", "tr S = div(phi Omega)",
                twisted,
                lambda: (self.s_trace, self.div_phi_omega)),
            _agree(
                "scalar_curvature_chain",
                "tau + tau_2star = 2 div(phi Omega) = 2 ricci(xi, xi)",
                not_pure,
                lambda: (self.tau + self.tau_2star, 2 * self.div_phi_omega,
                         2 * self.ricci_xi_xi)),
            # The Kahler-type curvature criterion: the twisted curvature
            # property holds iff nabla omega_star has the pure rank-one form,
            # and that form forces omega_star to be closed.
            _agree(
                "phi_kahler_criterion",
                "curvature phi-twist property holds iff nabla omega_star "
                "has the pure rank-one form",
                not_pure,
                lambda: (self.curvature_phi_kahler, rank_one)),
            _verdict(
                "phi_kahler_criterion_closedness",
                "the pure rank-one form forces d omega_star = 0",
                not_rank_one, self._omega_star_closed),
            _agree(
                "isotropy_equivalence", "isotropic Kahler <=> omega(Omega) = 0 <=> ||N||^2 = 0",
                not_pure,
                lambda: (self.isotropic_kahler, self.omega_norm == 0,
                         self.nijenhuis_square_norm == 0)),
        ]
        return {v.name: v for v in verdicts}

    def _omega_star_closed(self) -> tuple[bool, tuple | None]:
        """``(passed, witness)`` of ``d omega_star = 0``, read from
        :attr:`forms_closed`; the witness is the first ``(i, j)`` where
        ``nabla omega_star`` is not symmetric."""
        if self.forms_closed[1]:
            return True, None
        num = self.nabla_omega_star.num
        return False, tuple(np.argwhere(num != num.T)[0].tolist())

    def divergence(self, x) -> Fraction:
        """``div X = tr(nabla X) = Gamma^i_im X^m`` for a constant vector."""
        return einsum_scalar("iim,m->", self.conn.gamma,
                             vector(x, self.model.dim, name="x"))


def _computed(geo: Geometry, *layers: str) -> Geometry:
    """``geo`` after reading each of ``layers``."""
    for name in layers:
        getattr(geo, name)
    return geo


def levi_civita(model: AcnModel) -> Connection:
    """The unique torsion-free, metric connection of ``model.g``.

    Raises :class:`SingularMetric` if the metric is degenerate.
    """
    return Geometry(model).conn


def structure_pack(model: AcnModel, conn: Connection) -> Geometry:
    """A ``Geometry`` with the structure tensors computed: ``F``, the four
    1-forms, ``Omega``, ``nabla phi``, ``nabla eta``, ``N`` and ``S``."""
    return _computed(Geometry(model, conn), "f", "theta", "theta_star", "omega",
                     "omega_star", "omega_vec", "nabla_phi", "nabla_eta", "n", "s")


def riemann(model: AcnModel, conn: Connection) -> Geometry:
    """A ``Geometry`` with the curvature computed: ``r13``, ``r04``, Ricci
    and the three scalar curvatures.  ``conn`` must be the Levi-Civita
    connection of ``model``: ``r04`` also reads the Koszul tensor of the
    model."""
    return _computed(Geometry(model, conn), "r13", "r04", "ricci", "tau", "tau_star",
                     "tau_2star")


def verify_identities(model: AcnModel, conn: Connection | None = None,
                      pack: Geometry | None = None,
                      curv: Geometry | None = None) -> dict[str, IdentityVerdict]:
    """The identity verdicts of a model, :attr:`Geometry.identities`,
    reusing the layers already computed in ``pack`` and ``curv``."""
    return Geometry(model, conn, pack, curv).identities


def square_norms(model: AcnModel, conn: Connection, pack: Geometry | None = None) -> Geometry:
    """A ``Geometry`` with the three square norms computed, reusing the
    layers already computed in ``pack``."""
    return _computed(Geometry(model, conn, pack), "nabla_phi_square_norm",
                     "nabla_eta_square_norm", "nijenhuis_square_norm")
