"""One-stop geometry report for a model.

:func:`run_report` runs the whole pipeline once — connection,
structure tensors, curvature, classification, identity verification —
and returns a :class:`GeometryReport` that serializes deterministically
to JSON or readable text.  Identical models produce identical output.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .classify import IdentityVerdict
from .geometry import Geometry
from .structures import AcnModel, associated_metric
from .tensors import Tensor, format_scalar, signature

#: Class labels the classifier cannot decide; reported as "unknown".
UNDECIDED_CLASSES = tuple(f"f{i}" for i in range(1, 11))


@dataclass(frozen=True)
class GeometryReport:
    """Everything the pipeline computes for one model."""

    name: str
    dim: int
    n: int
    metric_signature: tuple[int, int, int]
    associated_signature: tuple[int, int, int]
    is_f0: bool
    is_f11: bool
    normal: bool
    omega_closed: bool
    omega_star_closed: bool
    isotropic_kahler: bool
    curvature_phi_kahler: bool
    identities: dict[str, IdentityVerdict]
    invariants: dict[str, Fraction]
    tensors: dict[str, Tensor]


def all_identities_ok(report: GeometryReport) -> bool:
    """True when no applicable identity failed."""
    return all(v.ok for v in report.identities.values())


def run_report(model: AcnModel) -> GeometryReport:
    """Compute the full report from one :class:`Geometry`.  The model must
    already be valid (see :func:`norden.structures.validate_structure`);
    computations on an invalid model are not meaningful."""
    geo = Geometry(model)
    conn, pack, curv, norms = geo.conn, geo.pack, geo.curv, geo.norms
    omega_closed, omega_star_closed = geo.forms_closed
    twin = associated_metric(model)
    invariants: dict[str, Fraction] = {
        "tau": curv.tau,
        "tau_star": curv.tau_star,
        "tau_double_star": curv.tau_2star,
        "nabla_phi_square_norm": norms.nabla_phi,
        "nabla_eta_square_norm": norms.nabla_eta,
        "nijenhuis_square_norm": norms.nijenhuis,
        "omega_square_norm": geo.omega_norm,
        "div_phi_omega_vec": geo.div_phi_omega,
        "ricci_xi_xi": geo.ricci_xi_xi,
        "s_trace": geo.s_trace,
    }
    tensors: dict[str, Tensor] = {
        "gamma": conn.gamma,
        "fundamental": pack.f,
        "theta": pack.theta,
        "theta_star": pack.theta_star,
        "omega": pack.omega,
        "omega_star": pack.omega_star,
        "omega_vec": pack.omega_vec,
        "nabla_eta": pack.nabla_eta,
        "nijenhuis": pack.n,
        "s": pack.s,
        "psi4_s": geo.psi4_s,
        "riemann": curv.r04,
        "ricci": curv.ricci,
        "associated_metric": twin,
    }
    return GeometryReport(
        name=model.name,
        dim=model.dim,
        n=model.n,
        metric_signature=signature(model.g),
        associated_signature=signature(twin),
        is_f0=geo.f0,
        is_f11=geo.f11,
        normal=pack.n.is_zero(),
        omega_closed=omega_closed,
        omega_star_closed=omega_star_closed,
        isotropic_kahler=geo.isotropic_kahler,
        curvature_phi_kahler=geo.curvature_phi_kahler,
        identities=geo.identities,
        invariants=invariants,
        tensors=tensors,
    )


def _witness_json(witness):
    if witness is None:
        return None
    return [item if isinstance(item, (bool, int, str)) else format_scalar(item)
            for item in witness]


def _tensor_json(t: Tensor):
    strings = np.array(t.formatted(), dtype=object).reshape(t.shape)
    return {"variance": t.variance, "components": strings.tolist()}


def report_to_json_dict(report: GeometryReport) -> dict:
    """A plain-data rendering of the report; all rationals become
    ``"p/q"`` strings."""
    classes = {"f0": report.is_f0, "f11": report.is_f11}
    classes.update({label: "unknown" for label in UNDECIDED_CLASSES})
    return {
        "name": report.name,
        "dim": report.dim,
        "n": report.n,
        "signature": {
            "metric": list(report.metric_signature),
            "associated_metric": list(report.associated_signature),
        },
        "classes": classes,
        "flags": {
            "normal": report.normal,
            "omega_closed": report.omega_closed,
            "omega_star_closed": report.omega_star_closed,
            "isotropic_kahler": report.isotropic_kahler,
            "curvature_phi_kahler": report.curvature_phi_kahler,
        },
        "invariants": {k: format_scalar(v) for k, v in report.invariants.items()},
        "identities": {
            name: {
                "applicable": v.applicable,
                "passed": v.passed,
                "witness": _witness_json(v.witness),
                "detail": v.detail,
            }
            for name, v in report.identities.items()
        },
        "tensors": {k: _tensor_json(t) for k, t in report.tensors.items()},
    }


def report_to_json(report: GeometryReport) -> str:
    import json

    return json.dumps(report_to_json_dict(report), sort_keys=True, indent=1)


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def report_to_text(report: GeometryReport) -> str:
    """A human-readable rendering; tensors list nonzero components."""
    lines = [
        f"model: {report.name or '(unnamed)'}",
        f"dim = {report.dim} (n = {report.n})",
        f"signature: g = {report.metric_signature}, "
        f"associated = {report.associated_signature}",
        "",
        f"classes: F0 = {_yesno(report.is_f0)}, F11 = {_yesno(report.is_f11)} "
        "(F1..F10 undecided by this classifier)",
        "flags:",
        f"  normal (N = 0):          {_yesno(report.normal)}",
        f"  omega closed:            {_yesno(report.omega_closed)}",
        f"  omega_star closed:       {_yesno(report.omega_star_closed)}",
        f"  isotropic Kahler:        {_yesno(report.isotropic_kahler)}",
        f"  curvature phi-Kahler:    {_yesno(report.curvature_phi_kahler)}",
        "",
        "invariants:",
    ]
    for key, value in report.invariants.items():
        lines.append(f"  {key} = {format_scalar(value)}")
    lines.append("")
    lines.append("identities:")
    for name, v in report.identities.items():
        if not v.applicable:
            status = " n/a"
        elif v.passed:
            status = "pass"
        else:
            status = "FAIL"
        extra = ""
        if v.witness is not None and not v.passed:
            extra = f"  witness: {v.witness}"
        lines.append(f"  [{status}] {name}{extra}")
    lines.append("")
    lines.append("tensors (nonzero components):")
    for key, t in report.tensors.items():
        nonzero = t.num != 0
        if not nonzero.any():
            lines.append(f"  {key} = 0")
            continue
        for idx, text in zip(np.argwhere(nonzero).tolist(), t.formatted(nonzero)):
            lines.append(f"  {key}[{','.join(map(str, idx))}] = {text}")
    return "\n".join(lines) + "\n"
