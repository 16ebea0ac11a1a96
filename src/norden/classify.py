"""Exact identity verification on the decidable classes.

The two decidable classes are the integrable Kahler-type class
(``F = 0``, :attr:`norden.geometry.Geometry.f0`) and the pure class in
which ``F`` is carried entirely by ``eta`` and ``omega``
(:attr:`~norden.geometry.Geometry.f11`):

    F(x, y, z) = eta(x) (eta(y) omega(z) + eta(z) omega(y)).

On that pure class a family of exact identities ties the structure
tensors to the curvature; :func:`check_identities` evaluates every one
of them with literal rational equality and reports a verdict per
identity, flagging those whose preconditions fail as inapplicable
rather than passed.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensors import exact_sum


@dataclass(frozen=True)
class IdentityVerdict:
    """Outcome of one exact identity check.

    ``applicable`` is False when the identity's precondition (usually
    membership in the pure class) is unmet, in which case ``passed`` is
    None.  ``witness`` carries the first failing index tuple, if any.
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


def _verdict(name: str, terms: list, detail: str = "") -> IdentityVerdict:
    """The verdict on ``sum(terms) = 0``, for :func:`exact_sum` terms that
    move one side of an identity over to the other; the witness is the
    first index where the sides differ."""
    bad = np.argwhere(exact_sum(terms).num)
    witness = tuple(bad[0].tolist()) if len(bad) else None
    return IdentityVerdict(
        name=name, applicable=True, passed=witness is None, witness=witness,
        detail=detail,
    )


def _not_applicable(name: str, detail: str) -> IdentityVerdict:
    return IdentityVerdict(
        name=name, applicable=False, passed=None, witness=None, detail=detail
    )


def check_identities(geo) -> dict[str, IdentityVerdict]:
    """Evaluate every supported exact identity on the layers of ``geo``,
    a :class:`norden.geometry.Geometry`.

    Returns a dict keyed by identity name.  Identities restricted to
    the pure eta-omega class are reported as inapplicable on models
    outside it; everything else is checked unconditionally.
    """
    verdicts: dict[str, IdentityVerdict] = {}

    def put(v: IdentityVerdict) -> None:
        verdicts[v.name] = v

    model, curv = geo.model, geo.curv
    phi, eta, r13 = model.phi, model.eta, curv.r13

    # --- Ricci identities: second-derivative antisymmetrization equals
    # the curvature action.  Holds for every metric connection, so it is
    # checked unconditionally, for both phi and eta.
    nnphi = geo.nabla2_phi
    put(_verdict("ricci_identity_phi", [
        (1, "ijak->ijak", nnphi), (-1, "jiak->ijak", nnphi),
        (-1, "aijm,mk->ijak", r13, phi), (1, "mijk,am->ijak", r13, phi),
    ], detail="nabla^2 phi antisymmetrized = curvature acting on phi"))

    nneta = geo.nabla2_eta
    put(_verdict("ricci_identity_eta", [
        (1, "ijk->ijk", nneta), (-1, "jik->ijk", nneta), (1, "mijk,m->ijk", r13, eta),
    ], detail="nabla^2 eta antisymmetrized = -eta(R(.,.) .)"))

    if not geo.f11:
        for name in (
            "norm_chain",
            "omega_star_derivative",
            "curvature_phi_twist",
            "r_equals_psi4_s",
            "ricci_from_s",
            "s_trace_divergence",
            "scalar_curvature_chain",
            "phi_kahler_criterion",
            "phi_kahler_criterion_closedness",
            "isotropy_equivalence",
        ):
            put(_not_applicable(name, "model is not in the pure eta-omega class"))
        return verdicts

    # --- Norm chain: ||nabla phi||^2 = -||N||^2 = -2 ||nabla eta||^2
    #     = 2 omega(omega_vec).
    norms = geo.norms
    oo = geo.omega_norm
    chain = [norms.nabla_phi, -norms.nijenhuis, -2 * norms.nabla_eta, 2 * oo]
    passed = all(v == chain[0] for v in chain)
    put(IdentityVerdict(
        name="norm_chain", applicable=True, passed=passed,
        witness=None if passed else tuple(str(v) for v in chain),
        detail="||nabla phi||^2 = -||N||^2 = -2||nabla eta||^2 = 2 omega(Omega)",
    ))

    # --- First-derivative identity for omega_star.
    nomega, nostar = geo.nabla_omega, geo.nabla_omega_star
    put(_verdict("omega_star_derivative", [
        (1, "ij->ij", nostar), (-1, "im,mj->ij", nomega, phi), (-oo, "i,j->ij", eta, eta),
    ], detail="(nabla_x omega_star) y = (nabla_x omega) phi y "
                        "+ eta(x) eta(y) omega(Omega)"))

    # --- Curvature phi-twist: R(x, y, phi z, phi u) = -R(x, y, z, u)
    #     + psi4(S)(x, y, z, u).
    R, p4, twisted = curv.r04, geo.psi4_s, geo.twisted_r
    put(_verdict("curvature_phi_twist", [
        (1, "ijku->ijku", twisted), (1, "ijku->ijku", R), (-1, "ijku->ijku", p4),
    ], detail="R twisted by phi in the last two slots differs "
                        "from -R by psi4(S)"))

    # --- When the twisted curvature vanishes identically the curvature
    # collapses onto psi4(S) and the Ricci tensor onto S; these hold
    # under that extra hypothesis, not on the whole pure class.
    if twisted.is_zero():
        put(_verdict("r_equals_psi4_s", [(1, "ijku->ijku", R), (-1, "ijku->ijku", p4)],
                     detail="R = psi4(S)"))
        trs = geo.s_trace
        put(_verdict("ricci_from_s", [
            (1, "ij->ij", curv.ricci), (-trs, "i,j->ij", eta, eta), (-1, "ij->ij", geo.s),
        ], detail="ricci = tr(S) eta (x) eta + S"))
        div_po = geo.div_phi_omega
        put(IdentityVerdict(
            name="s_trace_divergence", applicable=True, passed=trs == div_po,
            witness=None if trs == div_po else (str(trs), str(div_po)),
            detail="tr S = div(phi Omega)",
        ))
    else:
        reason = "R(x, y, phi z, phi u) does not vanish identically"
        put(_not_applicable("r_equals_psi4_s", reason))
        put(_not_applicable("ricci_from_s", reason))
        put(_not_applicable("s_trace_divergence", reason))

    # --- Scalar curvature chain: tau + tau_2star = 2 div(phi Omega)
    #     = 2 ricci(xi, xi).
    chain = [curv.tau + curv.tau_2star, 2 * geo.div_phi_omega, 2 * geo.ricci_xi_xi]
    passed = all(v == chain[0] for v in chain)
    put(IdentityVerdict(
        name="scalar_curvature_chain", applicable=True, passed=passed,
        witness=None if passed else tuple(str(v) for v in chain),
        detail="tau + tau_2star = 2 div(phi Omega) = 2 ricci(xi, xi)",
    ))

    # --- Kahler-type curvature criterion: the twisted curvature
    # property holds iff (nabla_x omega_star) y
    # = eta(x) eta(y) omega(Omega) + omega_star(x) omega_star(y).
    lhs_flag = geo.curvature_phi_kahler
    ostar = geo.omega_star
    rhs_flag = exact_sum([
        (1, "ij->ij", nostar), (-oo, "i,j->ij", eta, eta), (-1, "i,j->ij", ostar, ostar),
    ]).is_zero()
    put(IdentityVerdict(
        name="phi_kahler_criterion", applicable=True, passed=lhs_flag == rhs_flag,
        witness=None if lhs_flag == rhs_flag else (lhs_flag, rhs_flag),
        detail="curvature phi-twist property holds iff nabla omega_star "
               "has the pure rank-one form",
    ))

    # --- Addendum: when the pure rank-one form of nabla omega_star
    # holds, omega_star must be closed.  Only applicable then.
    if rhs_flag:
        put(_verdict("phi_kahler_criterion_closedness",
                     [(1, "ij->ij", nostar), (-1, "ji->ij", nostar)],
                     detail="the pure rank-one form forces d omega_star = 0"))
    else:
        put(_not_applicable(
            "phi_kahler_criterion_closedness",
            "nabla omega_star does not have the pure rank-one form",
        ))

    # --- Isotropy equivalence: isotropic Kahler <=> omega(Omega) = 0
    #     <=> ||N||^2 = 0.
    flags = (geo.isotropic_kahler, oo == 0, norms.nijenhuis == 0)
    passed = len(set(flags)) == 1
    put(IdentityVerdict(
        name="isotropy_equivalence", applicable=True, passed=passed,
        witness=None if passed else flags,
        detail="isotropic Kahler <=> omega(Omega) = 0 <=> ||N||^2 = 0",
    ))
    return verdicts
