"""``canonical_json`` against the standard library: the bytes of
``json.dumps(obj, sort_keys=True, indent=1)`` on plain data, and on
:class:`Tensor` leaves the bytes of their schema-2 dict, built here from
``Tensor.components``."""
import collections
import dataclasses
import enum
import json
import math
from fractions import Fraction as Fr

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from norden import Tensor, Violation, validate_structure
from norden.canonical import canonical_json

#: Quotes, backslashes, control characters and non-ASCII text (including
#: characters outside the BMP, which JSON writes as surrogate pairs).
texts = st.text(alphabet=st.one_of(
    st.sampled_from('"\\/\x00\x1f\x7f\n\t\r\u00e9\u03c6\u2028\U0001d4e9'),
    st.characters(),
))
leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(2 ** 200), max_value=2 ** 200),
    texts,
)
values = st.recursive(
    leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(texts, inner, max_size=4),
    ),
    max_leaves=40,
)


class _Text(str):
    pass


Pair = collections.namedtuple("Pair", "a b")


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=1)


@settings(max_examples=300, deadline=None)
@given(values)
def test_matches_json_dumps_on_plain_data(obj):
    assert canonical_json(obj) == _dumps(obj)


def test_matches_json_dumps_on_edge_values():
    obj = {"": [], "a": {}, "b": (), "c": [[], {}, ()], "big": -(2 ** 64) - 1,
           "t": True, "f": False, "n": None, "s": 'q"\\\x00é\U0001d4e9'}
    assert canonical_json(obj) == _dumps(obj)
    row = ["0", "-1", "1/2", "-7/3", "12", 'q"\\', "é", "2"]
    model_file = {"name": "m", "dim": 8, "brackets": [[0, 1, row], [3, 7, row[::-1]]],
                  "phi": [row] * 8, "xi": row, "eta": row[1:], "metric": [row] * 8}
    for value in (0, -1, 2 ** 70, "", "x", True, None, [], {}, model_file,
                  ["a", 1, "b", -2], [1, 2, True, 3], ("a", "b", "c")):
        assert canonical_json(value) == _dumps(value)


ENTRY_KINDS = {
    "zero": st.just(0),
    "int32": st.integers(min_value=-9, max_value=9),
    "int64": st.integers(min_value=2 ** 31, max_value=2 ** 61).flatmap(
        lambda m: st.sampled_from([0, m, -m, 1])),
    "object": st.integers(min_value=2 ** 62, max_value=2 ** 90).flatmap(
        lambda m: st.sampled_from([0, m, -m, 1])),
    "rational": st.fractions(min_value=-5, max_value=5, max_denominator=7),
    "mostly_zero": st.sampled_from([0, 0, 0, 3, Fr(-1, 2), 2 ** 70]),
}


@st.composite
def tensors(draw):
    """Ranks 0 to 4 with axes of 1 to 3 entries, one axis sometimes of 0
    (no entries) or of 11 to 13 (two-digit indices)."""
    rank = draw(st.integers(min_value=0, max_value=4))
    shape = draw(st.lists(st.integers(min_value=1, max_value=3),
                          min_size=rank, max_size=rank))
    if rank and draw(st.booleans()):
        shape[draw(st.integers(min_value=0, max_value=rank - 1))] = \
            draw(st.sampled_from([0, 11, 12, 13]))
    entries = draw(st.lists(draw(st.sampled_from(list(ENTRY_KINDS.values()))),
                            min_size=math.prod(shape), max_size=math.prod(shape)))
    variance = "".join(draw(st.lists(st.sampled_from("ud"),
                                     min_size=rank, max_size=rank)))
    components = np.empty(len(entries), dtype=object)
    components[:] = entries
    return Tensor(components.reshape(shape), variance)


def _tensor_dict(t: Tensor) -> dict:
    """The schema-2 leaf of ``t`` by its definition: the entries as
    integers over the lcm of their denominators, keyed by index when fewer
    than half of them are nonzero, else listed in C order."""
    entries = t.components.ravel().tolist()
    den = math.lcm(*(Fr(v).denominator for v in entries))
    nums = [int(v * den) for v in entries]
    leaf = {"den": den, "shape": list(t.shape), "variance": t.variance}
    if 2 * sum(map(bool, nums)) < len(nums):
        leaf["nonzero"] = {",".join(map(str, index)): num
                           for index, num in zip(np.ndindex(t.shape), nums) if num}
    else:
        leaf["num"] = nums
    return leaf


@settings(max_examples=300, deadline=None)
@given(tensors(), st.integers(min_value=0, max_value=2))
def test_tensor_leaf_matches_json_dumps_of_its_dict(t, depth):
    obj, plain = t, _tensor_dict(t)
    for _ in range(depth):         # nest the leaf so the indent grows
        obj, plain = {"x": [1, obj]}, {"x": [1, plain]}
    assert canonical_json(obj) == _dumps(plain)


def _with(entries: dict, shape) -> np.ndarray:
    """Zeros of ``shape`` except the given ``{index: value}`` entries."""
    arr = np.zeros(shape, dtype=object)
    for index, value in entries.items():
        arr[index] = value
    return arr


@pytest.mark.parametrize("components, variance", [
    ([[0, 0], [0, 0]], "dd"),                              # all zero
    ([[[Fr(1, 2)]], [[Fr(-3, 4)]]], "udd"),                # den > 1, size-1 axes
    ([2 ** 70, -1, 0], "u"),                               # object numerators
    (Fr(5, 3), ""),                                        # rank 0
    (np.zeros((2, 0), dtype=object), "ud"),                # no entries
    (_with({(1, 0, 2, 1): Fr(-7, 2)}, (3, 2, 4, 3)), "uddd"),   # one nonzero
    (_with({(1, 2, 1, 0): 5, (1, 0, 1, 2): -1}, (2, 3, 2, 3)), "dddd"),
    (np.zeros((2, 3, 1, 2), dtype=object), "uudd"),        # all zero, rank 4
    # "0,10" sorts before "0,2": the keys are not in C order.
    (_with({(0, 2): 5, (0, 10): 1, (1, 11): Fr(-1, 3)}, (2, 12)), "ud"),
    (list(range(-5, 7)), "d"),                             # one axis of 12
    (_with({(1, 1, 0): 2 ** 62, (0, 0, 1): -(2 ** 62)}, (2, 2, 2)), "ddd"),
])
def test_tensor_leaf_cases(components, variance):
    t = Tensor(components, variance)
    assert canonical_json({"t": [t]}) == _dumps({"t": [_tensor_dict(t)]})


def test_equal_leaves_at_any_indent_are_each_written_as_their_dict():
    """A leaf equal to one written before takes its text only at the same
    indent: one tensor at three indents, twice at one of them, beside a
    tensor that differs from it in variance only and one that differs in
    one entry."""
    entries = _with({(0, 1): Fr(1, 2), (1, 0): -3}, (2, 2))
    t, again = Tensor(entries, "ud"), Tensor(entries, "ud")
    other_variance = Tensor(entries, "dd")
    other_entry = Tensor(_with({(0, 1): Fr(1, 2), (1, 0): 3}, (2, 2)), "ud")
    obj = {"a": t, "b": [again, {"c": t}], "d": again, "e": other_variance, "f": other_entry}
    plain = {"a": _tensor_dict(t), "b": [_tensor_dict(t), {"c": _tensor_dict(t)}],
             "d": _tensor_dict(t), "e": _tensor_dict(other_variance),
             "f": _tensor_dict(other_entry)}
    assert canonical_json(obj) == _dumps(plain)


@pytest.mark.parametrize("components, kind", [
    ([[1, 0], [0, 0]], "nonzero"),      # a quarter nonzero
    ([[1, 0], [0, 2]], "num"),          # half nonzero
    ([[0, 0], [0, 0]], "nonzero"),
    (7, "num"),                         # rank 0
    (0, "nonzero"),
    (np.zeros((3, 0), dtype=object), "num"),
    (_with({(0, 10): 2 ** 62}, (1, 12)), "nonzero"),
])
def test_leaf_kind_follows_the_nonzero_count(components, kind):
    """Fewer than half of the entries nonzero: ``"nonzero"``; else ``"num"``."""
    t = Tensor(components, "d" * np.ndim(components))
    leaf = json.loads(canonical_json(t))
    assert set(leaf) == {"den", "shape", "variance", kind}


def test_matches_json_dumps_on_a_mutant_validation_object(fam23):
    """The object ``validate --json`` writes for a model that breaks
    axioms: str and int leaves inside lists and dicts, ``where`` tuples and
    ``None``, and a bool."""
    mutant = dataclasses.replace(fam23.model, xi=Tensor([0, 1, 0], "u"))
    report = validate_structure(mutant)
    obj = {"valid": report.ok, "violations": [v._asdict() for v in report.violations]}
    wheres = [v["where"] for v in obj["violations"]]
    assert obj["valid"] is False and None in wheres and (1,) in wheres
    assert canonical_json(obj) == _dumps(obj)


wheres = st.one_of(st.none(), st.just(()),
                   st.lists(st.integers(-(2 ** 200), 2 ** 200), min_size=1, max_size=4).map(tuple))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.builds(Violation, texts, wheres, texts), max_size=6))
def test_violations_match_json_dumps_of_their_dicts(violations):
    """A :class:`Violation` is written as its ``_asdict()`` dict."""
    obj = {"valid": False, "violations": violations}
    want = _dumps({"valid": False, "violations": [v._asdict() for v in violations]})
    assert canonical_json(obj) == want
    for v in violations:
        assert canonical_json(v) == _dumps(v._asdict())


#: Index entries of a ``where``: small ones, which many violations share,
#: ints past ``2**63`` and, rarely, a bool, which is written ``true``.
_where_entries = st.one_of(st.integers(0, 3), st.integers(2 ** 63, 2 ** 70),
                           st.integers(-(2 ** 70), -(2 ** 63) - 1), st.just(True))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.none(), st.just(()),
                          st.lists(_where_entries, min_size=1, max_size=3).map(tuple)),
                min_size=1, max_size=4),
       st.lists(st.tuples(st.sampled_from(["jacobi", "phi_square", 'r"\\\u00e9']),
                          st.integers(0, 3), texts), max_size=12))
def test_violation_lists_match_json_dumps_at_two_indents(wheres, picks):
    """Lists that repeat their rules and mix ``where`` tuples of several
    lengths, so one list fills several ``%`` templates, at two indents (the
    list on its own and inside ``{"v": [...]}``).  A list with a bool in
    some ``where`` is written through the dict, ``true`` and not ``1``."""
    violations = [Violation(rule, wheres[k % len(wheres)], detail)
                  for rule, k, detail in picks]
    plain = [v._asdict() for v in violations]
    assert canonical_json(violations) == _dumps(plain)
    assert canonical_json({"v": violations}) == _dumps({"v": plain})
    if any(type(i) is bool for v in violations if v.where for i in v.where):
        assert "true" in canonical_json(violations)


def test_a_bool_where_after_its_int_twin_is_written_true():
    """``(True, 0) == (1, 0)``: after ``(1, 0)`` has been written, at the
    same indent, ``(True, 0)`` still writes ``true``."""
    ints, bools = [Violation("r", (1, 0), "d")], [Violation("r", (True, 0), "d")]
    assert canonical_json(ints) == _dumps([v._asdict() for v in ints])
    assert canonical_json(bools) == _dumps([v._asdict() for v in bools])
    assert "true" in canonical_json(bools)


@pytest.mark.parametrize("violations", [
    [Violation("r", (1, True), "d")],                       # a bool is true, not 1
    [Violation("r", (0, 1), "d"), Violation(None, [2, -3], 5)],
    [Violation("r", None, "d"), {"rule": "r"}, "x", 7],      # other items in the list
], ids=["bool where", "other field types", "mixed list"])
def test_a_violation_with_other_fields_is_written_as_its_dict(violations):
    plain = [v._asdict() if type(v) is Violation else v for v in violations]
    assert canonical_json({"v": violations}) == _dumps({"v": plain})
    assert canonical_json(violations[0]) == _dumps(plain[0])


@pytest.mark.parametrize("bad", [Violation("r", (np.int64(1),), "d"),
                                 [Violation("r", (1,), "d"), Violation("r", (np.int64(1),), "d")],
                                 [Violation("r", (1,), "d"), Pair(1, 2)],
                                 Violation("r", (_Text("w"),), "d")])
def test_a_violation_the_dict_route_cannot_write_is_a_type_error(bad):
    with pytest.raises(TypeError):
        canonical_json(bad)


def test_storage_kinds_are_both_reached():
    assert Tensor([1, 2], "u").num.dtype == np.int32
    assert Tensor([2 ** 40, 1], "u").num.dtype == np.int64
    assert Tensor([2 ** 70, 1], "u").num.dtype == object
    assert Tensor([Fr(1, 2), 1], "u").den == 2


@pytest.mark.parametrize("bad", [1.5, Fr(1, 2), np.int64(3), {1: "int key"},
                                 [1, {"x": 0.0}], {"x": {2, 3}},
                                 # Subclasses of the plain types, at any depth.
                                 collections.OrderedDict(a="v"), Pair(1, 2),
                                 [Pair("x", [])], _Text("w"), {"x": [_Text("v")]},
                                 enum.IntEnum("F", "A").A, [enum.IntEnum("E", "X Y").Y]])
def test_everything_else_is_a_type_error(bad):
    with pytest.raises(TypeError):
        canonical_json(bad)
