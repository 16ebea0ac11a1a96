"""Canonical JSON, written directly, and the index labels of tensor entries.

:func:`canonical_json` writes the bytes of ``json.dumps(obj,
sort_keys=True, indent=1)`` for plain data, and writes each
:class:`~norden.tensors.Tensor` leaf as the plain dict of report schema 2:
``{"den": den, "shape": [...], "variance": ...}`` plus the leaf's integer
numerators over ``den``, its canonical storage.  A leaf with fewer than
half of its entries nonzero holds ``"nonzero": {"i,j,...": num}``, keyed
by its indices joined with commas (``""`` at rank 0); any other leaf holds
``"num": [...]``, every numerator in C order.  The choice reads only the
nonzero count.  Numerators and ``den`` are JSON integers of any size.
Within one call, a leaf equal to one written before at the same indent is
written as that text again.
A :class:`~norden.errors.Violation` is written as its ``_asdict()`` dict,
``{"detail": ..., "rule": ..., "where": ...}``; a list of violations whose
``rule`` and ``detail`` are strs and whose ``where`` is None or a tuple of
ints is written in one join of its encoded fields, and any other through
the dict.  In that list each distinct rule is encoded once, and each
``where`` text is one ``%`` of a template built once per call for each
length of ``where``; the all-int type check comes first, so a bool entry
never reaches ``%d`` and still writes ``true``.

:func:`index_labels` is the one table of index labels, cached with the
text around them: the JSON keys of sparse leaves and the lines of the
text report read it.

The writer dispatches on the exact type of a value: a ``dict``, a
``list`` or ``tuple``, a ``Tensor`` leaf, a ``Violation``, a ``str`` and
an ``int`` are each one identity test away.  A list or tuple whose items
are all ints (no bool), all strs or all violations is written in one
join, the violations as above; every dict value and every item of any
other list goes through the dispatch.
"""
from __future__ import annotations

import functools
import itertools
from json.encoder import encode_basestring_ascii

import numpy as np

from .errors import Violation
from .tensors import Tensor, _check_digits


def canonical_json(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=1)``, byte for byte, for
    dicts with str keys, lists, tuples, str, int, bool and None, for
    :class:`Tensor` leaves written as their schema-2 dict and for
    :class:`Violation` leaves written as their ``_asdict()`` dict (see the
    module docstring).  Any other value, a subclass of these types
    included, raises ``TypeError``."""
    out: list[str] = []
    _json(obj, "\n", out, [])
    return "".join(out)


def _json(obj, newline: str, out: list[str], seen: list) -> None:
    """Append ``obj`` as JSON to ``out``; ``newline`` is a line break plus
    the indent of the line ``obj`` starts on, and ``seen`` the
    :class:`Tensor` leaves written so far in this call (see
    :func:`_tensor_json`)."""
    kind = type(obj)
    if kind is dict:
        if not obj:
            out.append("{}")
            return
        inner = newline + " "
        sep = "{" + inner
        for key in sorted(obj):         # a non-str key fails in the encoder
            out += (sep, encode_basestring_ascii(key), ": ")
            _json(obj[key], inner, out, seen)
            sep = "," + inner
        out.append(newline + "}")
    elif kind is list or kind is tuple:
        if not obj:
            out.append("[]")
            return
        inner = newline + " "
        kinds = {*map(type, obj)}
        if kinds == {int}:
            items = ("," + inner).join(map(int.__repr__, obj))
        elif kinds == {str}:
            items = ("," + inner).join(map(encode_basestring_ascii, obj))
        elif kinds == {Violation}:
            items = _violations_json(obj, inner)
        else:
            items = None
        if items is not None:
            out += ("[", inner, items, newline, "]")
            return
        sep = "[" + inner
        for value in obj:
            out.append(sep)
            _json(value, inner, out, seen)
            sep = "," + inner
        out.append(newline + "]")
    elif kind is Tensor:
        out.append(_tensor_json(obj, newline, seen))
    elif kind is Violation:
        _json(obj._asdict(), newline, out, seen)
    elif kind is str:
        out.append(encode_basestring_ascii(obj))
    elif kind is int:
        out.append(int.__repr__(obj))
    elif obj is None or obj is True or obj is False:
        out.append("null" if obj is None else "true" if obj else "false")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _violations_json(vs, newline: str) -> str | None:
    """The violations ``vs``, each written as its ``_asdict()`` dict and
    joined by ``,`` and ``newline``, or None unless every ``rule`` and
    ``detail`` is a str and every ``where`` is None or a tuple of ints.
    The caller has checked that every item is a :class:`Violation`; the
    fields are type-checked once for the whole list, each distinct rule
    is encoded once, each ``where`` of length ``k`` is one ``%`` of the
    list's template of ``k`` ``%d`` entries, and the encoded fields and
    the fixed text between them are joined once.  The type check comes
    first: ``%d`` writes a bool entry as ``1``, where JSON has ``true``."""
    rules, wheres, details = zip(*vs)
    if not ({*map(type, rules), *map(type, details)} == {str}
            and {*map(type, wheres)} <= {tuple, type(None)}
            and {*map(type, itertools.chain.from_iterable(filter(None, wheres)))} <= {int}):
        return None
    inner = newline + " "
    entry = inner + " "
    codes = {rule: encode_basestring_ascii(rule) for rule in set(rules)}
    forms = {k: "[" + entry + ("," + entry).join(["%d"] * k) + inner + "]" if k else "[]"
             for k in {len(w) for w in wheres if w is not None}}
    head, repeat = "{" + inner + '"detail": ', itertools.repeat
    pieces = itertools.chain.from_iterable(zip(
        repeat(newline + "}," + newline + head), map(encode_basestring_ascii, details),
        repeat("," + inner + '"rule": '), map(codes.__getitem__, rules),
        repeat("," + inner + '"where": '),
        ["null" if w is None else forms[len(w)] % w for w in wheres]))
    next(pieces)                # the glue before the first violation is its head alone
    return head + "".join(pieces) + newline + "}"


def _tensor_json(t: Tensor, newline: str, seen: list) -> str:
    """The schema-2 leaf of ``t``.  ``seen`` holds the indent, the leaf and
    the text of each leaf written so far: a leaf equal to one of them at
    the same indent is that text again (``Tensor.__eq__`` compares the
    shape, ``den`` and variance before any entry).  A sparse leaf's lines
    are sorted as whole strings: they share their start, and after a key
    comes ``"``, below ``,`` and every digit, so they sort as
    ``sort_keys`` sorts their keys.  A numerator or ``den`` past Python's
    digit limit raises :class:`~norden.errors.DigitLimit`."""
    for indent, other, text in seen:
        if indent == newline and other == t:
            return text
    _check_digits(t.magnitude, t.den)
    inner = newline + " "
    entry = inner + " "
    nums = t.num.ravel()
    flat = np.flatnonzero(nums != 0)
    if 2 * flat.size < nums.size:
        head, tail = index_labels(t.shape, entry + '"', '": ')
        rows, cols = np.divmod(flat, len(tail))
        lines = sorted([h + c + str(v) for h, c, v in
                        zip(head[rows].tolist(), tail[cols].tolist(), nums[flat].tolist())])
        field = '"nonzero": ' + ("{" + ",".join(lines) + inner + "}" if lines else "{}")
    else:
        field = '"num": ' + ("[" + entry + ("," + entry).join(map(str, nums.tolist()))
                             + inner + "]" if nums.size else "[]")
    out = ["{", inner, '"den": ', str(t.den), ",", inner, field, ",", inner, '"shape": ']
    _json(t.shape, inner, out, seen)
    out += (",", inner, '"variance": ', encode_basestring_ascii(t.variance), newline, "}")
    text = "".join(out)
    seen.append((newline, t, text))
    return text


@functools.lru_cache(maxsize=64)
def index_labels(shape: tuple[int, ...], start: str, end: str) -> tuple[np.ndarray, np.ndarray]:
    """The labels of the indices of ``shape``, in two read-only object
    arrays in C order: ``head`` for the first ``rank // 2`` axes, ``start``
    and each index followed by a comma, and ``tail`` for the other axes,
    followed by ``end``.  So the entry at flat index ``h * len(tail) + t``
    is labelled ``head[h] + tail[t]``, and up to rank 4 neither array
    holds more than ``d**2`` strings.  Tables with a ``start`` prefix the
    head of those without and share their tail."""
    if start:
        head, tail = index_labels(shape, "", end)
        head = start + head
    else:
        half = len(shape) // 2
        head = np.array(["".join(f"{i}," for i in index)
                         for index in itertools.product(*map(range, shape[:half]))], dtype=object)
        tail = np.array([",".join(map(str, index)) + end
                         for index in itertools.product(*map(range, shape[half:]))], dtype=object)
        tail.setflags(write=False)
    head.setflags(write=False)
    return head, tail
