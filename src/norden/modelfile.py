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
exact rational strings like ``"-3/4"``; floats are rejected, and so are
JSON ``true`` and ``false``, which are not the numbers 1 and 0.

Tokens go straight into integer storage.  :func:`~norden.tensors.as_pair`
reads each token as a pair ``(p, q)``: an integer or ``p/q`` token in
plain digits through ``int()``, anything else (decimals, exponents,
underscores) by ``Fraction``'s grammar under the exponent cap.  Each line
or JSON list becomes one row of pairs, and :meth:`Tensor.of_pairs` puts
each tensor's numerators over the lcm of its denominators and reduces
them once, so no Fraction is built per token.

A bracket entry declares ``[x_i, x_j]``.  The table of entries becomes
structure constants by :func:`~norden.lie.structure_constants`, which
:func:`~norden.lie.algebra_from_brackets` uses too: an absent mirror
``(j, i)`` is completed antisymmetrically, and a listed one is taken
verbatim, so a contradictory file surfaces as an antisymmetry violation
instead of being silently repaired.  Serialization always emits the
canonical ``i < j`` half.
"""
from __future__ import annotations

import json

import numpy as np

from .canonical import canonical_json
from .errors import DimensionMismatch, ParseError, ValidationError
from .lie import LieAlgebra, structure_constants
from .structures import AcnModel, validate_structure
from .tensors import Tensor, as_pair, exact_einsum

_SECTIONS = ("brackets", "phi", "xi", "eta", "metric")


def _assemble(name: str, dim: int, brackets, phi, xi, eta, metric) -> AcnModel:
    """The model from rows of ``(p, q)`` pairs; the bracket table goes
    through :func:`~norden.lie.structure_constants`."""
    try:
        c = structure_constants(dim, brackets)
    except (DimensionMismatch, ValueError) as exc:
        raise ParseError(str(exc)) from exc
    try:
        return AcnModel(
            algebra=LieAlgebra(dim, c),
            phi=_matrix(phi, "ud"),
            xi=Tensor.of_pairs(xi, (len(xi),), "u"),
            eta=Tensor.of_pairs(eta, (len(eta),), "d"),
            g=_matrix(metric, "dd"),
            name=name,
        )
    except Exception as exc:
        raise ParseError(f"model data malformed: {exc}") from exc


def _matrix(rows, variance: str) -> Tensor:
    """The tensor of rows of pairs of one length, shaped as numpy shapes
    nested lists (no rows give a single empty axis)."""
    return Tensor.of_pairs([pair for row in rows for pair in row],
                           (len(rows), *{len(row) for row in rows}), variance)


def _check_dim(dim: int, line: int | None = None) -> int:
    """``dim`` if it is a model dimension: odd and at least 3."""
    if dim % 2 != 1 or dim < 3:
        raise ParseError(f"dimension must be odd and >= 3, got {dim}", line=line)
    return dim


def _pairs(tokens, line: int | None = None) -> list[tuple[int, int]]:
    """The tokens of one row as ``(p, q)`` pairs."""
    try:
        return [as_pair(t) for t in tokens]
    except (ValueError, TypeError) as exc:
        raise ParseError(str(exc), line=line)


def _parse_text(text: str) -> AcnModel:
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
                _check_dim(dim, lineno)
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
            rows["brackets"].append((i, j, _pairs(tail.split(), lineno)))
        else:
            rows[section].append(_pairs(line.split(), lineno))
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
    return _assemble(name, dim, rows["brackets"], rows["phi"], rows["xi"][0],
                     rows["eta"][0], rows["metric"])


def _parse_json(text: str) -> AcnModel:
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:   # too deeply nested
        raise ParseError(f"invalid JSON: {exc}")
    if not isinstance(data, dict):
        raise ParseError("JSON model must be an object")
    for key in ("dim", "phi", "xi", "eta", "metric"):
        if key not in data:
            raise ParseError(f"missing key {key!r}")
    if not isinstance(data["dim"], int) or isinstance(data["dim"], bool):
        raise ParseError("'dim' must be an integer")
    dim = _check_dim(data["dim"])

    def vec(v, what):
        if not isinstance(v, list) or len(v) != dim:
            raise ParseError(f"{what} must be a list of {dim} entries")
        if any(x is True or x is False for x in v):
            raise ParseError(f"{what} entries must be integers or rational strings, "
                             "not true or false")
        return _pairs(v)

    def mat(v, what):
        if not isinstance(v, list) or len(v) != dim:
            raise ParseError(f"{what} must be a list of {dim} rows")
        return [vec(row, f"{what} row") for row in v]

    if not isinstance(data.get("brackets", []), list):
        raise ParseError("'brackets' must be a list")
    brackets = []
    for entry in data.get("brackets", []):
        if not (isinstance(entry, list) and len(entry) == 3):
            raise ParseError("each bracket entry must be [i, j, coefficients]")
        i, j, coeffs = entry
        if not all(isinstance(k, int) and not isinstance(k, bool) for k in (i, j)):
            raise ParseError("bracket indices must be integers")
        brackets.append((i, j, vec(coeffs, f"bracket ({i}, {j})")))
    name = data.get("name", "")
    if not isinstance(name, str):
        raise ParseError("'name' must be a string")
    return _assemble(name, dim, brackets, mat(data["phi"], "phi"), vec(data["xi"], "xi"),
                     vec(data["eta"], "eta"), mat(data["metric"], "metric"))


def parse_model(text: str, require_valid: bool = True) -> AcnModel:
    """Parse a model from text or JSON (auto-detected), assemble it and
    (by default) validate it.

    Raises :class:`ParseError` for malformed input and
    :class:`ValidationError` (with the itemized report attached) when
    ``require_valid`` and the model breaks a structure axiom.
    """
    parse = _parse_json if text.lstrip().startswith("{") else _parse_text
    model = parse(text)
    if require_valid:
        report = validate_structure(model)
        if not report.ok:
            raise ValidationError(report)
    return model


def _rows(t: Tensor) -> list[list[str]]:
    """The entries of ``t`` as strings, one list per row of its last axis."""
    flat, n = t.formatted(), t.shape[-1]
    return [flat[i:i + n] for i in range(0, len(flat), n)]


def serialize_model(model: AcnModel, fmt: str = "text") -> str:
    """Render a model canonically; ``parse_model`` inverts this exactly.
    A name with a ``#``, a line break or outer whitespace does not fit
    the text format and raises ``ValueError``; use ``fmt="json"``."""
    d = model.dim
    c = exact_einsum("kij->ijk", model.algebra.c)
    columns = _rows(c)    # row i * d + j holds [x_i, x_j]
    brackets = [(i, j, columns[i * d + j])
                for i, j in np.argwhere(np.triu(c.num.any(axis=2), 1)).tolist()]
    phi, metric = _rows(model.phi), _rows(model.g)
    xi, eta = model.xi.formatted(), model.eta.formatted()
    if fmt == "json":
        return canonical_json({
            "name": model.name,
            "dim": d,
            "brackets": brackets,
            "phi": phi,
            "xi": xi,
            "eta": eta,
            "metric": metric,
        }) + "\n"
    if fmt != "text":
        raise ValueError(f"unknown format {fmt!r}; use 'text' or 'json'")
    name = model.name
    if "#" in name or name != name.strip() or len(name.splitlines()) > 1:
        raise ValueError(f"the text format cannot hold the name {name!r}; use fmt='json'")
    lines = [f"name = {name}"] if name else []
    lines += [f"dim = {d}", "", "[brackets]"]
    lines += [f"{i} {j} : " + " ".join(coeffs) for i, j, coeffs in brackets]
    for section, rows in (("phi", phi), ("xi", [xi]), ("eta", [eta]), ("metric", metric)):
        lines += ["", f"[{section}]"] + [" ".join(row) for row in rows]
    return "\n".join(lines) + "\n"
