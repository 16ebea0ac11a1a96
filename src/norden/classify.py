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

from .tensors import format_scalar, nonzero_where


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


def _vanishes(name: str, detail: str, gate: str | None, terms) -> IdentityVerdict:
    """The verdict on ``sum(terms()) = 0``, for :func:`exact_sum` terms
    that move one side of an identity over to the other; the witness is
    the first index where the sides differ.  ``gate`` is None or the
    reason the identity does not apply, in which case ``terms`` is not
    called."""
    if gate is not None:
        return IdentityVerdict(name, applicable=False, passed=None, detail=gate)
    where = nonzero_where(terms())
    witness = tuple(np.argwhere(where)[0].tolist()) if where.any() else None
    return IdentityVerdict(name, applicable=True, passed=witness is None,
                           witness=witness, detail=detail)


def _agree(name: str, detail: str, gate: str | None, values) -> IdentityVerdict:
    """The verdict on ``values()``, rationals or flags, being all equal;
    the witness is the values, rationals as ``"p/q"`` strings.  ``gate``
    is as in :func:`_vanishes`."""
    if gate is not None:
        return IdentityVerdict(name, applicable=False, passed=None, detail=gate)
    values = values()
    passed = len(set(values)) == 1
    witness = None if passed else tuple(v if type(v) is bool else format_scalar(v)
                                        for v in values)
    return IdentityVerdict(name, applicable=True, passed=passed, witness=witness,
                           detail=detail)


def check_identities(geo) -> dict[str, IdentityVerdict]:
    """Evaluate every supported exact identity on the layers of ``geo``,
    a :class:`norden.geometry.Geometry`.

    Returns a dict keyed by identity name.  Identities restricted to
    the pure eta-omega class are reported as inapplicable on models
    outside it; everything else is checked unconditionally.  A layer is
    read only by an identity that applies.
    """
    model, curv = geo.model, geo.curv
    phi, eta, r13 = model.phi, model.eta, curv.r13
    nnphi, nneta = geo.nabla2_phi, geo.nabla2_eta

    not_pure = None if geo.f11 else "model is not in the pure eta-omega class"
    # When the twisted curvature vanishes identically the curvature
    # collapses onto psi4(S) and the Ricci tensor onto S; these hold
    # under that extra hypothesis, not on the whole pure class.
    twisted = not_pure or (None if geo.twisted_r.is_zero()
                           else "R(x, y, phi z, phi u) does not vanish identically")
    # The pure rank-one form (nabla_x omega_star) y
    # = eta(x) eta(y) omega(Omega) + omega_star(x) omega_star(y).
    rank_one = not_pure is None and not nonzero_where([
        (1, "ij->ij", geo.nabla_omega_star), (-geo.omega_norm, "i,j->ij", eta, eta),
        (-1, "i,j->ij", geo.omega_star, geo.omega_star),
    ]).any()
    not_rank_one = not_pure or (
        None if rank_one else "nabla omega_star does not have the pure rank-one form")

    verdicts = [
        # Ricci identities: second-derivative antisymmetrization equals the
        # curvature action.  They hold for every metric connection.
        _vanishes(
            "ricci_identity_phi", "nabla^2 phi antisymmetrized = curvature acting on phi",
            None,
            lambda: [(1, "ijak->ijak", nnphi), (-1, "jiak->ijak", nnphi),
                     (-1, "aijm,mk->ijak", r13, phi), (1, "mijk,am->ijak", r13, phi)]),
        _vanishes(
            "ricci_identity_eta", "nabla^2 eta antisymmetrized = -eta(R(.,.) .)",
            None,
            lambda: [(1, "ijk->ijk", nneta), (-1, "jik->ijk", nneta),
                     (1, "mijk,m->ijk", r13, eta)]),
        _agree(
            "norm_chain", "||nabla phi||^2 = -||N||^2 = -2||nabla eta||^2 = 2 omega(Omega)",
            not_pure,
            lambda: (geo.norms.nabla_phi, -geo.norms.nijenhuis, -2 * geo.norms.nabla_eta,
                     2 * geo.omega_norm)),
        _vanishes(
            "omega_star_derivative",
            "(nabla_x omega_star) y = (nabla_x omega) phi y + eta(x) eta(y) omega(Omega)",
            not_pure,
            lambda: [(1, "ij->ij", geo.nabla_omega_star),
                     (-1, "im,mj->ij", geo.nabla_omega, phi),
                     (-geo.omega_norm, "i,j->ij", eta, eta)]),
        _vanishes(
            "curvature_phi_twist",
            "R twisted by phi in the last two slots differs from -R by psi4(S)",
            not_pure,
            lambda: [(1, "ijku->ijku", geo.twisted_r), (1, "ijku->ijku", curv.r04),
                     (-1, "ijku->ijku", geo.psi4_s)]),
        _vanishes(
            "r_equals_psi4_s", "R = psi4(S)",
            twisted,
            lambda: [(1, "ijku->ijku", curv.r04), (-1, "ijku->ijku", geo.psi4_s)]),
        _vanishes(
            "ricci_from_s", "ricci = tr(S) eta (x) eta + S",
            twisted,
            lambda: [(1, "ij->ij", curv.ricci), (-geo.s_trace, "i,j->ij", eta, eta),
                     (-1, "ij->ij", geo.s)]),
        _agree(
            "s_trace_divergence", "tr S = div(phi Omega)",
            twisted,
            lambda: (geo.s_trace, geo.div_phi_omega)),
        _agree(
            "scalar_curvature_chain",
            "tau + tau_2star = 2 div(phi Omega) = 2 ricci(xi, xi)",
            not_pure,
            lambda: (curv.tau + curv.tau_2star, 2 * geo.div_phi_omega,
                     2 * geo.ricci_xi_xi)),
        # The Kahler-type curvature criterion: the twisted curvature
        # property holds iff nabla omega_star has the pure rank-one form,
        # and that form forces omega_star to be closed.
        _agree(
            "phi_kahler_criterion",
            "curvature phi-twist property holds iff nabla omega_star "
            "has the pure rank-one form",
            not_pure,
            lambda: (geo.curvature_phi_kahler, rank_one)),
        _vanishes(
            "phi_kahler_criterion_closedness",
            "the pure rank-one form forces d omega_star = 0",
            not_rank_one,
            lambda: [(1, "ij->ij", geo.nabla_omega_star),
                     (-1, "ji->ij", geo.nabla_omega_star)]),
        _agree(
            "isotropy_equivalence", "isotropic Kahler <=> omega(Omega) = 0 <=> ||N||^2 = 0",
            not_pure,
            lambda: (geo.isotropic_kahler, geo.omega_norm == 0, geo.norms.nijenhuis == 0)),
    ]
    return {v.name: v for v in verdicts}
