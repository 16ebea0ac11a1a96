"""Reading and writing model files.

A model file holds one *model object*: ``dim``, ``phi``, ``xi``, ``eta``,
``metric``, an optional ``name`` and optional ``brackets`` (a list of
``[i, j, coefficients]`` triples).  Two interchangeable formats spell it.

JSON format: the object itself.  All numbers may be integers or exact
rational strings like ``"-3/4"``; floats are rejected, and so are JSON
``true`` and ``false``, which are not the numbers 1 and 0.

Text format: a line syntax for the same object (``#`` starts a comment
anywhere)::

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

A ``key = value`` line before the first section gives a string (``dim``'s
is read by ``int()``).  A ``[key]`` header gives a list, one row per line
of whitespace-separated tokens; the section of a vector (``xi``, ``eta``)
holds its one row (a second row is a ``ParseError`` at its line), and a
bracket row is ``i j : coefficients``, its indices read by ``int()``.  Keys
are not case-sensitive.

Each key may be given once in either format; a repeated key is a
``ParseError`` that names it.  Every other rule belongs to the object and
is checked once, for both formats, by :func:`_model`:

- no unknown key, and no missing key but ``name`` and ``brackets``;
- ``dim`` an integer, odd and at least 3;
- ``name`` a string that UTF-8 can encode (a JSON string may hold a lone
  surrogate);
- ``phi`` and ``metric`` lists of ``dim`` rows, each row, ``xi`` and
  ``eta`` a list of ``dim`` entries;
- ``brackets`` a list of ``[i, j, coefficients]`` entries with integer
  indices and a list of coefficients;
- no entry ``true`` or ``false``, and every entry an exact rational.

Each rule has one message in both formats, and in a text file it starts
with ``line N:`` where the key or row has a line.

Tokens go straight into integer storage, one pass per tensor: the
tokens of all rows of ``phi`` or ``metric``, or of all bracket entries,
are read in one comprehension when every row is a list of ``dim`` tokens,
every bracket entry is ``[int, int, list]`` and every token is plain: a
string of the ASCII digits, ``+``, ``-`` and ``/`` only, with no ``/``
followed by a sign or a ``0``, so no denominator is signed or zero.  Each
token is split at its first ``/`` and both parts go through ``int()``.
When that pass meets anything else, the tensor is read one row (a line or
a JSON list) at a time by the checks above, which name the first fault.
A row that is not plain is read token by token by
:func:`~norden.tensors.as_pair`: a row with a JSON number, a decimal, an
exponent, an underscore, a non-ASCII digit or a denominator such as
``04``, and a plain row where ``int()`` fails (``5-``, ``+-5``, ``3/``,
more digits than Python reads).  ``as_pair`` reads plain digits through
``int()`` and anything else by ``Fraction``'s grammar under the exponent
cap, and its error is the row's ``ParseError``.  So every path gives the
same pairs ``(p, q)`` for the same tokens and the same message for the
same bad row.  :meth:`Tensor.of_pairs` puts each tensor's numerators over
the lcm of its denominators and reduces them once, so no Fraction is
built per token.

A bracket entry declares ``[x_i, x_j]``.  The table of entries becomes
structure constants by :func:`~norden.lie.structure_constants`, which
:func:`~norden.lie.algebra_from_brackets` uses too: an absent mirror
``(j, i)`` is completed antisymmetrically, and a listed one is taken
verbatim, so a contradictory file surfaces as an antisymmetry violation
instead of being silently repaired.  It names a bad index, an entry
listed twice and a wrong number of coefficients, in both formats with its
own message and no line.  Serialization always emits the canonical
``i < j`` half.
"""
from __future__ import annotations

import json
import re
from itertools import chain, repeat

import numpy as np

from .canonical import canonical_json
from .errors import DimensionMismatch, ParseError, ValidationError
from .lie import LieAlgebra, structure_constants
from .structures import AcnModel, validate_structure
from .tensors import Tensor, as_pair, exact_einsum

_KEYS = ("name", "dim", "brackets", "phi", "xi", "eta", "metric")
#: The characters of a row of plain tokens, joined without a separator.
_PLAIN_ROW = re.compile(r"[0-9+/-]*")
#: A lone surrogate: a JSON string can hold one, and no UTF-8 text can.
_SURROGATE = re.compile("[\ud800-\udfff]")


def _plain_pairs(tokens: list) -> list[tuple[int, int]] | None:
    """The tokens as ``(p, q)`` pairs in one comprehension when every
    token is plain (see the module docstring), else None."""
    try:
        # A token that is not a str fails the join; "/0" is stricter than
        # a zero denominator, and tokens it stops only take the slow path.
        joined = "".join(tokens)
        if (_PLAIN_ROW.fullmatch(joined) and "/-" not in joined and "/+" not in joined
                and "/0" not in joined):
            return [(int(p), int(q) if slash else 1)
                    for p, slash, q in map(str.partition, tokens, repeat("/"))]
    except (ValueError, TypeError):
        pass
    return None


def _joined_pairs(rows: list, n: int) -> list[tuple[int, int]] | None:
    """The pairs of the tokens of all ``rows``, read in one pass by
    :func:`_plain_pairs` when every row is a list of ``n`` plain tokens,
    else None: then the rows are read one at a time, which names the
    fault of the first bad row."""
    if all(type(r) is list and len(r) == n for r in rows):
        return _plain_pairs(list(chain.from_iterable(rows)))
    return None


def _pairs(tokens, line: int | None = None) -> list[tuple[int, int]]:
    """The tokens of one row as ``(p, q)`` pairs: a row of plain tokens
    in one comprehension, any other row through :func:`as_pair` (see the
    module docstring)."""
    pairs = _plain_pairs(tokens)
    if pairs is not None:
        return pairs
    try:
        return [as_pair(t) for t in tokens]
    except (ValueError, TypeError) as exc:
        raise ParseError(str(exc), line=line)


def _model(data: dict, lines: dict | None = None) -> AcnModel:
    """The model that a model object describes, checked against every
    rule of the module docstring.

    ``data`` is the object as ``json.loads`` gives it.  For a text file,
    ``lines`` maps each key, and ``(key, i)`` for its row ``i``, to the
    line that gives it, and an error there names that line.
    """
    at = (lines or {}).get
    for key in data:
        if key not in _KEYS:
            raise ParseError(f"unknown key {key!r}", line=at(key))
    for key in ("dim", "phi", "xi", "eta", "metric"):
        if key not in data:
            raise ParseError(f"missing {key!r} key")
    dim = data["dim"]
    if type(dim) is not int:            # a bool is not a dimension
        raise ParseError("dim must be an integer", line=at("dim"))
    if dim % 2 != 1 or dim < 3:
        raise ParseError(f"dimension must be odd and >= 3, got {dim}", line=at("dim"))
    name = data.get("name", "")
    if not isinstance(name, str) or _SURROGATE.search(name):
        raise ParseError("'name' must be a string that UTF-8 can encode", line=at("name"))

    def listed(v, what: str, items: str, line: int | None) -> list:
        """``v``, which must be a list of ``dim`` items."""
        if not isinstance(v, list) or len(v) != dim:
            got = len(v) if isinstance(v, list) else type(v).__name__
            raise ParseError(f"{what} must be a list of {dim} {items}, got {got}", line=line)
        return v

    def entries(v: list, what: str, line: int | None) -> list[tuple[int, int]]:
        """The pairs of the entries of the list ``v``; a text row holds
        strings only, so only a JSON row is scanned for bools."""
        if lines is None and bool in map(type, v):
            raise ParseError(f"{what} entries must be integers or rational strings, "
                             "not true or false", line=line)
        return _pairs(v, line)

    def row(v, what: str, line: int | None) -> list[tuple[int, int]]:
        """The pairs of ``v``, a list of ``dim`` entries."""
        return entries(listed(v, what, "entries", line), what, line)

    def tensor(key: str, variance: str) -> Tensor:
        if len(variance) == 1:
            pairs = row(data[key], key, at(key))
        else:
            rows = listed(data[key], key, "rows", at(key))
            pairs = _joined_pairs(rows, dim)
            if pairs is None:
                what = f"{key} row"
                pairs = [pair for i, r in enumerate(rows) for pair in row(r, what, at((key, i)))]
        return Tensor.of_pairs(pairs, (dim,) * len(variance), variance)

    phi, xi, eta, g = (tensor(key, variance) for key, variance in
                       (("phi", "ud"), ("xi", "u"), ("eta", "d"), ("metric", "dd")))
    brackets = data.get("brackets", [])
    if not isinstance(brackets, list):
        raise ParseError("'brackets' must be a list", line=at("brackets"))
    pairs = None
    if all(type(e) is list and len(e) == 3 and type(e[0]) is type(e[1]) is int
           for e in brackets):
        pairs = _joined_pairs([e[2] for e in brackets], dim)
    if pairs is not None:
        table = [(i, j, pairs[k:k + dim])
                 for (i, j, _), k in zip(brackets, range(0, len(pairs), dim))]
    else:
        table = []
        for k, entry in enumerate(brackets):
            line = at(("brackets", k))
            if not (isinstance(entry, list) and len(entry) == 3 and isinstance(entry[2], list)):
                raise ParseError("each bracket entry must be [i, j, coefficients]", line=line)
            i, j, coeffs = entry
            if type(i) is not int or type(j) is not int:
                raise ParseError("bad bracket indices: they must be integers", line=line)
            table.append((i, j, entries(coeffs, f"bracket ({i}, {j})", line)))
    try:
        c = structure_constants(dim, table)
    except (DimensionMismatch, ValueError) as exc:
        raise ParseError(str(exc)) from exc
    return AcnModel(algebra=LieAlgebra(dim, c), phi=phi, xi=xi, eta=eta, g=g, name=name)


def _int(token):
    """The int that a text token spells, or the token, which :func:`_model`
    then rejects."""
    try:
        return int(token)
    except ValueError:
        return token


def _bracket(line: str, lineno: int) -> list:
    """The ``[i, j, coefficients]`` entry of a bracket line."""
    head, colon, tail = line.partition(":")
    if not colon:
        raise ParseError("bracket line needs the form 'i j : coefficients'", line=lineno)
    indices = head.split()
    if len(indices) != 2:
        raise ParseError("bracket line needs exactly two indices", line=lineno)
    return [*map(_int, indices), tail.split()]


def _parse_text(text: str) -> AcnModel:
    """The model of a text file: the model object that its lines spell
    (see the module docstring), through :func:`_model`."""
    data, lines = {}, {}
    rows = None                         # the list of the current section
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            key = line[1:-1]
            value = rows = []
        elif rows is not None:
            lines[key, len(rows)] = lineno
            rows.append(_bracket(line, lineno) if key == "brackets" else line.split())
            continue
        elif "=" in line:
            key, _, value = line.partition("=")
            value = value.strip()
        else:
            raise ParseError(f"data outside any section: {line!r}", line=lineno)
        key = key.strip().lower()
        if key in data:
            raise ParseError(f"repeated key {key!r}", line=lineno)
        data[key], lines[key] = value, lineno
    # A text value is a string, but dim is an int, and a vector's section
    # holds the vector as its one row.
    if isinstance(data.get("dim"), str):
        data["dim"] = _int(data["dim"])
    for key in ("xi", "eta"):
        rows = data.get(key)
        if isinstance(rows, list) and rows:
            if len(rows) > 1:
                raise ParseError(f"[{key}] must hold one row, got {len(rows)}",
                                 line=lines[key, 1])
            data[key], lines[key] = rows[0], lines[key, 0]
    return _model(data, lines)


def _parse_json(text: str) -> AcnModel:
    """The model of a JSON file, the model object itself, through
    :func:`_model`."""
    repeated = []       # each object's first repeated key or None, as they close

    def pairs_hook(pairs):
        seen = set()
        repeated.append(next((k for k, _ in pairs if k in seen or seen.add(k)), None))
        return dict(pairs)

    # A ValueError is bad JSON or an integer past Python's digit limit, and
    # a RecursionError nesting too deep.
    try:
        data = json.loads(text, object_pairs_hook=pairs_hook)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"invalid JSON: {exc}")
    if not isinstance(data, dict):
        raise ParseError("JSON model must be an object")
    if repeated[-1] is not None:        # the model object closes last
        raise ParseError(f"repeated key {repeated[-1]!r}")
    return _model(data)


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


def _rows(t: Tensor, where: np.ndarray | None = None) -> list[list[str]]:
    """The entries of ``t``, or of the rows that the boolean array ``where``
    selects, as strings, one list per row of its last axis."""
    flat, n = t.formatted(where), t.shape[-1]
    return [flat[i:i + n] for i in range(0, len(flat), n)]


def serialize_model(model: AcnModel, fmt: str = "text") -> str:
    """Render a model canonically; ``parse_model`` inverts this exactly.
    Only the nonzero brackets ``[x_i, x_j]`` with ``i < j`` are formatted.
    A name with a ``#``, a line break or outer whitespace does not fit
    the text format and raises ``ValueError``; use ``fmt="json"``."""
    d = model.dim
    c = exact_einsum("kij->ijk", model.algebra.c)
    listed = np.triu(c.num.any(axis=2), 1)      # the nonzero [x_i, x_j], i < j
    brackets = [(i, j, column) for (i, j), column
                in zip(np.argwhere(listed).tolist(), _rows(c, listed))]
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
