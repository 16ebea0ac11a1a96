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
A :class:`~norden.errors.Violation` is written as its ``_asdict()`` dict,
``{"detail": ..., "rule": ..., "where": ...}``; a list of violations whose
``rule`` and ``detail`` are strs and whose ``where`` is None or a tuple of
ints is written one ``format`` per violation, and any other through the
dict.

:func:`index_labels` is the one table of index labels: the JSON keys of
sparse leaves and the lines of the text report read it.

The writer dispatches on the exact type of a value: a ``dict``, a
``list`` or ``tuple``, a ``Tensor`` leaf, a ``str`` and an ``int`` are
each one identity test away, and inside a container its ``str`` and
``int`` items are written in place without a call.  A list or tuple of
ints only (no bool) is written with one join.
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
    _json(obj, "\n", out)
    return "".join(out)


def _json(obj, newline: str, out: list[str]) -> None:
    """Append ``obj`` as JSON to ``out``; ``newline`` is a line break plus
    the indent of the line ``obj`` starts on."""
    kind = type(obj)
    if kind is dict:
        if not obj:
            out.append("{}")
            return
        inner = newline + " "
        sep = "{" + inner
        for key in sorted(obj):         # a non-str key fails in the encoder
            value = obj[key]
            out += (sep, encode_basestring_ascii(key), ": ")
            if type(value) is str:      # the common leaves, written in place
                out.append(encode_basestring_ascii(value))
            elif type(value) is int:
                out.append(int.__repr__(value))
            else:
                _json(value, inner, out)
            sep = "," + inner
        out.append(newline + "}")
    elif kind is list or kind is tuple:
        if not obj:
            out.append("[]")
            return
        inner = newline + " "
        if all(type(item) is int for item in obj):
            out += ("[", inner, ("," + inner).join(map(int.__repr__, obj)), newline, "]")
            return
        if type(obj[0]) is Violation:
            items = _violations_json(obj, inner)
            if items is not None:
                out += ("[", inner, items, newline, "]")
                return
        sep = "[" + inner
        for value in obj:
            out.append(sep)
            if type(value) is str:      # the common leaves, written in place
                out.append(encode_basestring_ascii(value))
            elif type(value) is int:
                out.append(int.__repr__(value))
            else:
                _json(value, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    elif kind is Tensor:
        _tensor_json(obj, newline, out)
    elif kind is Violation:
        item = _violations_json((obj,), newline)
        if item is None:
            _json(obj._asdict(), newline, out)
        else:
            out.append(item)
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
    joined by ``,`` and ``newline``, or None unless every item is a
    :class:`Violation` whose ``rule`` and ``detail`` are strs and whose
    ``where`` is None or a tuple of ints.  The fields are type-checked
    once for the whole list, and each violation is one ``format``."""
    if {*map(type, vs)} != {Violation}:
        return None
    rules, wheres, details = zip(*vs)
    if not ({*map(type, rules), *map(type, details)} == {str}
            and {*map(type, wheres)} <= {tuple, type(None)}
            and {*map(type, itertools.chain.from_iterable(filter(None, wheres)))} <= {int}):
        return None
    inner = newline + " "
    sep = "," + inner + " "
    at = ["null" if w is None else "[" + inner + " " + sep.join(map(int.__repr__, w)) + inner + "]"
          if w else "[]" for w in wheres]
    item = ("{{" + inner + '"detail": {},' + inner + '"rule": {},' + inner + '"where": {}'
            + newline + "}}").format
    return ("," + newline).join(map(item, map(encode_basestring_ascii, details),
                                    map(encode_basestring_ascii, rules), at))


def _tensor_json(t: Tensor, newline: str, out: list[str]) -> None:
    """Append the schema-2 leaf of ``t``.  A sparse leaf's lines are
    sorted as whole strings: they share their start, and after a key
    comes ``"``, below ``,`` and every digit, so they sort as
    ``sort_keys`` sorts their keys.  A numerator or ``den`` past Python's
    digit limit raises :class:`~norden.errors.DigitLimit`."""
    _check_digits(t.magnitude, t.den)
    inner = newline + " "
    entry = inner + " "
    nums = t.num.ravel()
    flat = np.flatnonzero(nums != 0)
    if 2 * flat.size < nums.size:
        head, tail = index_labels(t.shape, '": ')
        rows, cols = np.divmod(flat, len(tail))
        starts = [entry + '"' + label for label in head]
        lines = sorted([starts[h] + tail[c] + str(v) for h, c, v in
                        zip(rows.tolist(), cols.tolist(), nums[flat].tolist())])
        field = '"nonzero": ' + ("{" + ",".join(lines) + inner + "}" if lines else "{}")
    else:
        field = '"num": ' + ("[" + entry + ("," + entry).join(map(str, nums.tolist()))
                             + inner + "]" if nums.size else "[]")
    out += ("{", inner, '"den": ', str(t.den), ",", inner, field, ",", inner, '"shape": ')
    _json(t.shape, inner, out)
    out += (",", inner, '"variance": ', encode_basestring_ascii(t.variance), newline, "}")


@functools.lru_cache(maxsize=64)
def index_labels(shape: tuple[int, ...], end: str) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The labels of the indices of ``shape``, in two tables in C order:
    ``head`` for the first ``rank // 2`` axes, each index followed by a
    comma, and ``tail`` for the other axes, followed by ``end``.  So the
    entry at flat index ``h * len(tail) + t`` is labelled
    ``head[h] + tail[t]``, and up to rank 4 neither table holds more than
    ``d**2`` strings."""
    half = len(shape) // 2
    head = tuple("".join(f"{i}," for i in index)
                 for index in itertools.product(*map(range, shape[:half])))
    tail = tuple(",".join(map(str, index)) + end
                 for index in itertools.product(*map(range, shape[half:])))
    return head, tail
