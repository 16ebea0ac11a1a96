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

from .canonical import canonical_json, index_labels
from .geometry import Geometry, IdentityVerdict
from .linalg import signature
from .structures import AcnModel, associated_metric
from .tensors import Tensor, _numerator_texts, format_scalar

#: The version of the report JSON, its top-level ``"schema"`` key.
REPORT_SCHEMA = 2

#: Class labels the classifier cannot decide; reported as "unknown".
UNDECIDED_CLASSES = tuple(f"f{i}" for i in range(1, 11))


@dataclass(frozen=True)
class GeometryReport:
    """Everything the pipeline computes for one model: one field per
    top-level section of the report JSON, under the same name.

    ``signature`` maps ``"metric"`` and ``"associated_metric"`` to their
    ``(plus, minus, zero)`` counts; ``classes`` holds ``f0``, ``f11`` and
    ``f1``..``f10`` as ``"unknown"``; ``flags`` holds ``normal``,
    ``omega_closed``, ``omega_star_closed``, ``isotropic_kahler`` and
    ``curvature_phi_kahler``.
    """

    name: str
    dim: int
    n: int
    signature: dict[str, tuple[int, int, int]]
    classes: dict[str, bool | str]
    flags: dict[str, bool]
    invariants: dict[str, Fraction]
    identities: dict[str, IdentityVerdict]
    tensors: dict[str, Tensor]


def all_identities_ok(report: GeometryReport) -> bool:
    """True when no applicable identity failed."""
    return all(v.ok for v in report.identities.values())


def run_report(model: AcnModel) -> GeometryReport:
    """Compute the full report from one :class:`Geometry`.  The model must
    already be valid (see :func:`norden.structures.validate_structure`);
    computations on an invalid model are not meaningful."""
    geo = Geometry(model)
    omega_closed, omega_star_closed = geo.forms_closed
    twin = associated_metric(model)
    return GeometryReport(
        name=model.name,
        dim=model.dim,
        n=model.n,
        signature={"metric": model.signature, "associated_metric": signature(twin)},
        classes={"f0": geo.f0, "f11": geo.f11,
                 **dict.fromkeys(UNDECIDED_CLASSES, "unknown")},
        flags={
            "normal": geo.n.is_zero(),
            "omega_closed": omega_closed,
            "omega_star_closed": omega_star_closed,
            "isotropic_kahler": geo.isotropic_kahler,
            "curvature_phi_kahler": geo.curvature_phi_kahler,
        },
        invariants={
            "tau": geo.tau,
            "tau_star": geo.tau_star,
            "tau_double_star": geo.tau_2star,
            "nabla_phi_square_norm": geo.nabla_phi_square_norm,
            "nabla_eta_square_norm": geo.nabla_eta_square_norm,
            "nijenhuis_square_norm": geo.nijenhuis_square_norm,
            "omega_square_norm": geo.omega_norm,
            "div_phi_omega_vec": geo.div_phi_omega,
            "ricci_xi_xi": geo.ricci_xi_xi,
            "s_trace": geo.s_trace,
        },
        identities=geo.identities,
        tensors={
            "gamma": geo.conn.gamma,
            "fundamental": geo.f,
            "theta": geo.theta,
            "theta_star": geo.theta_star,
            "omega": geo.omega,
            "omega_star": geo.omega_star,
            "omega_vec": geo.omega_vec,
            "nabla_eta": geo.nabla_eta,
            "nijenhuis": geo.n,
            "s": geo.s,
            "psi4_s": geo.psi4_s,
            "riemann": geo.r04,
            "ricci": geo.ricci,
            "associated_metric": twin,
        },
    )


def verdicts_json(verdicts: dict[str, IdentityVerdict]) -> dict[str, dict]:
    """The verdicts as plain data: the report's ``identities`` section and
    the output of ``norden identities --json``."""
    return {
        name: {"applicable": v.applicable, "passed": v.passed,
               "witness": v.witness, "detail": v.detail}
        for name, v in verdicts.items()
    }


def _report_object(report: GeometryReport) -> dict:
    """The report as plain data with :class:`Tensor` leaves: the sections
    as they are, but the invariants as ``"p/q"`` strings and the verdicts
    as dicts, plus the ``"schema"`` key."""
    return {
        **vars(report),
        "schema": REPORT_SCHEMA,
        "invariants": {k: format_scalar(v) for k, v in report.invariants.items()},
        "identities": verdicts_json(report.identities),
    }


def report_to_json(report: GeometryReport) -> str:
    """The report as JSON, rendered by :func:`canonical_json`: tensors as
    integer numerators over one denominator, see
    :mod:`norden.canonical`."""
    return canonical_json(_report_object(report))


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def verdict_line(name: str, v: IdentityVerdict) -> str:
    """``[status] name``, followed by ``  witness: ...`` for a failing
    verdict that has a witness."""
    extra = f"  witness: {v.witness}" if v.witness is not None and not v.passed else ""
    return f"[{v.status}] {name}{extra}"


def report_to_text(report: GeometryReport) -> str:
    """A human-readable rendering; tensors list nonzero components."""
    sig, classes, flags = report.signature, report.classes, report.flags
    lines = [
        f"model: {report.name or '(unnamed)'}",
        f"dim = {report.dim} (n = {report.n})",
        f"signature: g = {sig['metric']}, associated = {sig['associated_metric']}",
        "",
        f"classes: F0 = {_yesno(classes['f0'])}, F11 = {_yesno(classes['f11'])} "
        "(F1..F10 undecided by this classifier)",
        "flags:",
        *(f"  {label:25}{_yesno(flags[key])}" for key, label in (
            ("normal", "normal (N = 0):"),
            ("omega_closed", "omega closed:"),
            ("omega_star_closed", "omega_star closed:"),
            ("isotropic_kahler", "isotropic Kahler:"),
            ("curvature_phi_kahler", "curvature phi-Kahler:"),
        )),
        "",
        "invariants:",
    ]
    for key, value in report.invariants.items():
        lines.append(f"  {key} = {format_scalar(value)}")
    lines.append("")
    lines.append("identities:")
    lines += [f"  {verdict_line(name, v)}" for name, v in report.identities.items()]
    lines.append("")
    lines.append("tensors (nonzero components):")
    seen: list = []
    blocks = [_tensor_block(key, t, seen) for key, t in report.tensors.items()]
    return "\n".join(lines) + "".join(blocks) + "\n"


def _tensor_block(key: str, t: Tensor, seen: list) -> str:
    """The lines of one tensor, each after a line break: its nonzero
    entries in C order, or ``key = 0``.  Each line is three pieces, the
    start up to the head label and the tail label, both from
    :func:`index_labels`, and the value text, gathered into one object
    array and joined once.
    ``seen`` holds each tensor rendered before in this report with its
    key and lines: a tensor equal to one of them takes those lines with
    its own key, since every line of a block starts with a line break
    and the key, and no other line break is in it."""
    for other, other_key, block in seen:
        if other == t:
            return block.replace(f"\n  {other_key}", f"\n  {key}")
    nums = t.num.ravel()
    flat = np.flatnonzero(nums != 0)
    if not flat.size:
        block = f"\n  {key} = 0"
    else:
        head, tail = index_labels(t.shape, f"\n  {key}[", "] = ")
        rows, cols = np.divmod(flat, len(tail))
        texts, inverse = _numerator_texts(nums[flat], t.den)
        pieces = np.empty((flat.size, 3), dtype=object)
        pieces[:, 0] = head[rows]
        pieces[:, 1] = tail[cols]
        pieces[:, 2] = texts[inverse]
        block = "".join(pieces.ravel().tolist())
    seen.append((t, key, block))
    return block
