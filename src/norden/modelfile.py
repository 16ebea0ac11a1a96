"""Reading and writing model files.

Two interchangeable formats describe a model:

Text format (``#`` starts a comment anywhere)::

    name = my model
    dim = 3

    [brackets]
    1 0 : 2 0 0        # [x_1, x_0] = 2 x_0

    [phi]
    0 0 0
    0 0 -1
    0 1 0

    [xi]
    1 0 0

    [eta]
    1 0 0

    [metric]
    1 0 0
    0 1 0
    0 0 -1

JSON format: an object with keys ``dim``, ``phi``, ``xi``, ``eta``,
``metric``, optional ``name`` and ``brackets`` (a list of
``[i, j, coefficients]`` triples).  All numbers may be integers or
exact rational strings like ``"-3/4"``; floats are rejected.

A bracket entry declares ``[x_i, x_j]``; when its mirror ``(j, i)`` is
absent it is completed antisymmetrically, but explicitly listed
mirrors are taken verbatim so that contradictory files surface as
antisymmetry violations instead of being silently repaired.
Serialization always emits the canonical ``i < j`` half.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .errors import ParseError, ValidationError
from .lie import LieAlgebra
from .structures import AcnModel, validate_structure
from .tensors import Tensor, as_scalar, format_scalar, zeros_array

_SECTIONS = ("brackets", "phi", "xi", "eta", "metric")


@dataclass(frozen=True)
class ModelFile:
    """The raw content of a model file, before any validation."""

    name: str
    dim: int
    brackets: tuple[tuple[int, int, tuple[Fraction, ...]], ...]
    phi: tuple[tuple[Fraction, ...], ...]
    xi: tuple[Fraction, ...]
    eta: tuple[Fraction, ...]
    metric: tuple[tuple[Fraction, ...], ...]

    @classmethod
    def from_model(cls, model: AcnModel) -> "ModelFile":
        d = model.dim
        c = model.algebra.c.components
        brackets = []
        for i in range(d):
            for j in range(i + 1, d):
                coeffs = tuple(c[k, i, j] for k in range(d))
                if any(v != 0 for v in coeffs):
                    brackets.append((i, j, coeffs))
        to_rows = lambda t: tuple(tuple(row) for row in t.components)
        return cls(
            name=model.name,
            dim=d,
            brackets=tuple(brackets),
            phi=to_rows(model.phi),
            xi=tuple(model.xi.components),
            eta=tuple(model.eta.components),
            metric=to_rows(model.g),
        )

    def to_model(self, require_valid: bool = True) -> AcnModel:
        """Assemble the model, completing unmirrored brackets.

        With ``require_valid`` (the default) a failed validation raises
        :class:`ValidationError` carrying the itemized report.
        """
        d = self.dim
        c = zeros_array((d, d, d))
        seen = set()
        for i, j, coeffs in self.brackets:
            if not (0 <= i < d and 0 <= j < d):
                raise ParseError(f"bracket indices ({i}, {j}) out of range for dim {d}")
            if len(coeffs) != d:
                raise ParseError(
                    f"bracket ({i}, {j}) has {len(coeffs)} coefficients, expected {d}"
                )
            if (i, j) in seen:
                raise ParseError(f"duplicate bracket entry ({i}, {j})")
            seen.add((i, j))
            c[:, i, j] = coeffs
        for i, j in list(seen):
            if (j, i) not in seen:
                c[:, j, i] = -c[:, i, j]
        try:
            model = AcnModel(
                algebra=LieAlgebra(d, Tensor(c, "udd")),
                phi=Tensor(self.phi, "ud"),
                xi=Tensor(self.xi, "u"),
                eta=Tensor(self.eta, "d"),
                g=Tensor(self.metric, "dd"),
                name=self.name,
            )
        except Exception as exc:
            raise ParseError(f"model data malformed: {exc}") from exc
        if require_valid:
            report = validate_structure(model)
            if not report.ok:
                raise ValidationError(report)
        return model


def _parse_rational(token: str, line: int | None = None) -> Fraction:
    try:
        return as_scalar(token)
    except (ValueError, TypeError) as exc:
        raise ParseError(str(exc), line=line)


def _parse_text(text: str) -> ModelFile:
    name = ""
    dim: int | None = None
    section: str | None = None
    rows: dict[str, list] = {s: [] for s in _SECTIONS}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in _SECTIONS:
                raise ParseError(f"unknown section [{section}]", line=lineno)
            continue
        if "=" in line and section is None:
            key, _, value = line.partition("=")
            key = key.strip().lower()
            value = value.strip()
            if key == "name":
                name = value
            elif key == "dim":
                try:
                    dim = int(value)
                except ValueError:
                    raise ParseError(f"dim must be an integer, got {value!r}",
                                     line=lineno)
            else:
                raise ParseError(f"unknown key {key!r}", line=lineno)
            continue
        if section is None:
            raise ParseError(f"data outside any section: {line!r}", line=lineno)
        if section == "brackets":
            head, colon, tail = line.partition(":")
            if not colon:
                raise ParseError("bracket line needs the form 'i j : coefficients'",
                                 line=lineno)
            parts = head.split()
            if len(parts) != 2:
                raise ParseError("bracket line needs exactly two indices",
                                 line=lineno)
            try:
                i, j = int(parts[0]), int(parts[1])
            except ValueError:
                raise ParseError(f"bad bracket indices {head.strip()!r}", line=lineno)
            coeffs = tuple(_parse_rational(t, lineno) for t in tail.split())
            rows["brackets"].append((i, j, coeffs))
        else:
            rows[section].append(
                tuple(_parse_rational(t, lineno) for t in line.split())
            )
    if dim is None:
        raise ParseError("missing 'dim = ...' declaration")
    for s in ("phi", "xi", "eta", "metric"):
        if not rows[s]:
            raise ParseError(f"missing [{s}] section")
    for s, expected in (("phi", dim), ("metric", dim), ("xi", 1), ("eta", 1)):
        if len(rows[s]) != expected:
            raise ParseError(f"[{s}] needs {expected} row(s), got {len(rows[s])}")
    for s in ("phi", "metric"):
        for row in rows[s]:
            if len(row) != dim:
                raise ParseError(f"[{s}] rows need {dim} entries, got {len(row)}")
    for s in ("xi", "eta"):
        if len(rows[s][0]) != dim:
            raise ParseError(f"[{s}] needs {dim} entries, got {len(rows[s][0])}")
    for i, j, coeffs in rows["brackets"]:
        if len(coeffs) != dim:
            raise ParseError(
                f"bracket ({i}, {j}) has {len(coeffs)} coefficients, expected {dim}"
            )
    return ModelFile(
        name=name,
        dim=dim,
        brackets=tuple(rows["brackets"]),
        phi=tuple(rows["phi"]),
        xi=rows["xi"][0],
        eta=rows["eta"][0],
        metric=tuple(rows["metric"]),
    )


def _parse_json(text: str) -> ModelFile:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}")
    if not isinstance(data, dict):
        raise ParseError("JSON model must be an object")
    for key in ("dim", "phi", "xi", "eta", "metric"):
        if key not in data:
            raise ParseError(f"missing key {key!r}")
    if not isinstance(data["dim"], int) or isinstance(data["dim"], bool):
        raise ParseError("'dim' must be an integer")
    dim = data["dim"]

    def rat(v):
        try:
            return as_scalar(v)
        except (ValueError, TypeError) as exc:
            raise ParseError(str(exc))

    def vec(v, what):
        if not isinstance(v, list) or len(v) != dim:
            raise ParseError(f"{what} must be a list of {dim} entries")
        return tuple(rat(x) for x in v)

    def mat(v, what):
        if not isinstance(v, list) or len(v) != dim:
            raise ParseError(f"{what} must be a list of {dim} rows")
        return tuple(vec(row, f"{what} row") for row in v)

    brackets = []
    for entry in data.get("brackets", []):
        if not (isinstance(entry, list) and len(entry) == 3):
            raise ParseError("each bracket entry must be [i, j, coefficients]")
        i, j, coeffs = entry
        if not isinstance(i, int) or not isinstance(j, int):
            raise ParseError("bracket indices must be integers")
        brackets.append((i, j, vec(coeffs, f"bracket ({i}, {j})")))
    name = data.get("name", "")
    if not isinstance(name, str):
        raise ParseError("'name' must be a string")
    return ModelFile(
        name=name,
        dim=dim,
        brackets=tuple(brackets),
        phi=mat(data["phi"], "phi"),
        xi=vec(data["xi"], "xi"),
        eta=vec(data["eta"], "eta"),
        metric=mat(data["metric"], "metric"),
    )


def parse_model(text: str, require_valid: bool = True) -> AcnModel:
    """Parse a model from text or JSON (auto-detected), assemble it and
    (by default) validate it.

    Raises :class:`ParseError` for malformed input and
    :class:`ValidationError` (with the itemized report attached) when
    ``require_valid`` and the model breaks a structure axiom.
    """
    stripped = text.lstrip()
    if stripped.startswith("{"):
        mf = _parse_json(text)
    else:
        mf = _parse_text(text)
    return mf.to_model(require_valid=require_valid)


def _json_default(value):
    raise TypeError(f"not JSON-serializable: {value!r}")


def serialize_model(model: AcnModel, fmt: str = "text") -> str:
    """Render a model canonically; ``parse_model`` inverts this exactly."""
    mf = ModelFile.from_model(model)
    if fmt == "json":
        obj = {
            "name": mf.name,
            "dim": mf.dim,
            "brackets": [
                [i, j, [format_scalar(v) for v in coeffs]]
                for i, j, coeffs in mf.brackets
            ],
            "phi": [[format_scalar(v) for v in row] for row in mf.phi],
            "xi": [format_scalar(v) for v in mf.xi],
            "eta": [format_scalar(v) for v in mf.eta],
            "metric": [[format_scalar(v) for v in row] for row in mf.metric],
        }
        return json.dumps(obj, sort_keys=True, indent=1, default=_json_default)
    if fmt != "text":
        raise ValueError(f"unknown format {fmt!r}; use 'text' or 'json'")
    lines = []
    if mf.name:
        lines.append(f"name = {mf.name}")
    lines.append(f"dim = {mf.dim}")
    lines.append("")
    lines.append("[brackets]")
    for i, j, coeffs in sorted(mf.brackets, key=lambda e: (e[0], e[1])):
        lines.append(f"{i} {j} : " + " ".join(format_scalar(v) for v in coeffs))
    for section, rows in (
        ("phi", mf.phi),
        ("xi", (mf.xi,)),
        ("eta", (mf.eta,)),
        ("metric", mf.metric),
    ):
        lines.append("")
        lines.append(f"[{section}]")
        for row in rows:
            lines.append(" ".join(format_scalar(v) for v in row))
    return "\n".join(lines) + "\n"
