"""Model-file parsing, serialization, and exact round-tripping in both
the text and JSON formats."""
import dataclasses
import importlib.util
import json
import re
from fractions import Fraction as Fr
from pathlib import Path
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from norden import (
    AcnModel,
    FamilyParams,
    ParseError,
    Tensor,
    ValidationError,
    format_scalar,
    generate_family,
    heisenberg_model,
    parse_model,
    serialize_model,
    validate_structure,
)
from norden import lie, modelfile, tensors
from norden.lie import LieAlgebra
from norden.modelfile import _joined_pairs, _pairs
from norden.tensors import as_pair

VALID_TEXT = """\
name = worked example
dim = 3

[brackets]
1 0 : 2 0 0     # [x_1, x_0] = 2 x_0
2 0 : 3 0 0

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
"""


def test_parse_text_matches_generated_model(fam23):
    m = parse_model(VALID_TEXT)
    assert m.name == "worked example"
    assert m.g == fam23.model.g
    assert m.phi == fam23.model.phi
    assert m.algebra.c == fam23.model.algebra.c


def test_roundtrip_text_and_json(fam23, fam5):
    for geo in (fam23, fam5):
        for fmt in ("text", "json"):
            first = serialize_model(geo.model, fmt=fmt)
            reparsed = parse_model(first)
            assert reparsed.algebra.c == geo.model.algebra.c
            assert reparsed.phi == geo.model.phi
            assert reparsed.xi == geo.model.xi
            assert reparsed.eta == geo.model.eta
            assert reparsed.g == geo.model.g
            # serialization is canonical: a second pass is byte-identical
            assert serialize_model(reparsed, fmt=fmt) == first


def test_roundtrip_preserves_fractions():
    m = generate_family(FamilyParams(1, (Fr(5, 7), Fr(-2, 3))))
    for fmt in ("text", "json"):
        reparsed = parse_model(serialize_model(m, fmt=fmt))
        assert reparsed.algebra.c == m.algebra.c
    assert "5/7" in serialize_model(m, fmt="text")


def test_serialize_rejects_unknown_format(fam23):
    with pytest.raises(ValueError):
        serialize_model(fam23.model, fmt="yaml")


def test_parse_auto_detects_json(fam23):
    text = serialize_model(fam23.model, fmt="json")
    assert text.lstrip().startswith("{")
    m = parse_model(text)
    assert m.g == fam23.model.g


def test_text_parse_errors_carry_line_numbers():
    broken = VALID_TEXT.replace("1 0 : 2 0 0     # [x_1, x_0] = 2 x_0",
                                "1 0 2 0 0")
    with pytest.raises(ParseError, match="line 5"):
        parse_model(broken)


@pytest.mark.parametrize(
    "mutation, message",
    [
        (lambda t: t.replace("dim = 3\n", ""), "missing 'dim"),
        (lambda t: t.replace("[metric]", "[weird]"), "line 19: unknown key 'weird'"),
        (lambda t: t.replace("name = worked example", "colour = blue"),
         "unknown key"),
        (lambda t: t.replace("dim = 3", "dim = three"), "dim must be an integer"),
        (lambda t: "0 1 0\n" + t, "outside any section"),
        (lambda t: t.replace("1 0 : 2 0 0", "1 : 2 0 0"), "two indices"),
        (lambda t: t.replace("1 0 : 2 0 0", "a b : 2 0 0"), "bad bracket indices"),
        (lambda t: t.replace("[xi]\n1 0 0", "[xi]\n1 0"), "xi must be a list of 3 entries"),
        (lambda t: t.replace("0 1 0\n0 0 -1\n", "0 1 0\n"), "metric must be a list of 3 rows"),
        (lambda t: t.replace("2 0 : 3 0 0", "2 0 : 3 0"), "expected 3"),
        (lambda t: t.replace("1 0 : 2 0 0", "1 0 : 2q 0 0"), "rational"),
        (lambda t: t.replace("[xi]\n1 0 0", "[xi]\n1 0 0\n0 1 0"),
         r"line 15: \[xi\] must hold one row, got 2"),
        (lambda t: t.replace("[eta]\n1 0 0", "[eta]\n1 0 0\n1 0 0\n1 0 0"),
         r"line 18: \[eta\] must hold one row, got 3"),
    ],
)
def test_text_parse_error_cases(mutation, message):
    with pytest.raises(ParseError, match=message):
        parse_model(mutation(VALID_TEXT))


def test_float_rejected_in_json(fam23):
    obj = json.loads(serialize_model(fam23.model, fmt="json"))
    obj["metric"][0][0] = 1.0
    with pytest.raises(ParseError, match="rational"):
        parse_model(json.dumps(obj))


def test_json_structure_errors(fam23):
    good = json.loads(serialize_model(fam23.model, fmt="json"))

    missing = dict(good)
    del missing["phi"]
    with pytest.raises(ParseError, match="missing 'phi' key"):
        parse_model(json.dumps(missing))

    bad_dim = dict(good, dim=True)
    with pytest.raises(ParseError, match="integer"):
        parse_model(json.dumps(bad_dim))

    bad_name = dict(good, name=42)
    with pytest.raises(ParseError, match="name"):
        parse_model(json.dumps(bad_name))

    bad_bracket = dict(good, brackets=[[1, 0]])
    with pytest.raises(ParseError, match="bracket entry"):
        parse_model(json.dumps(bad_bracket))

    # A misspelt key is an error, not a model whose brackets all vanish.
    misspelt = {("brakets" if k == "brackets" else k): v for k, v in good.items()}
    with pytest.raises(ParseError, match="unknown key 'brakets'"):
        parse_model(json.dumps(misspelt))

    from norden.modelfile import _parse_json

    with pytest.raises(ParseError, match="object"):
        _parse_json("[1, 2]")

    with pytest.raises(ParseError, match="invalid JSON"):
        parse_model("{not json")


@pytest.mark.parametrize("value", ["[" * 100_000 + "]" * 100_000,
                                   '{"a": ' * 100_000 + "0" + "}" * 100_000],
                         ids=["arrays", "objects"])
def test_json_nested_past_the_recursion_limit_is_a_parse_error(value):
    with pytest.raises(ParseError, match="invalid JSON: maximum recursion depth"):
        parse_model('{"dim": ' + value + "}")


@pytest.mark.parametrize("where", ["dim", "phi"])
def test_a_json_integer_past_the_digit_limit_is_a_parse_error(fam23, where):
    """``json.loads`` cannot convert it to an int, and says so."""
    obj = json.loads(serialize_model(fam23.model, fmt="json"))
    obj[where] = "HUGE" if where == "dim" else [["HUGE", "0", "0"]] + obj["phi"][1:]
    text = json.dumps(obj).replace('"HUGE"', "1" + "0" * 4300)
    with pytest.raises(ParseError, match=r"invalid JSON: Exceeds the limit \(4300 digits\)"):
        parse_model(text)


def test_a_name_with_a_lone_surrogate_is_a_parse_error(fam23):
    """A JSON string can hold a lone surrogate; the name could then not be
    printed as UTF-8."""
    text = serialize_model(fam23.model, fmt="json").replace('"name": "', '"name": "\\ud800', 1)
    with pytest.raises(ParseError, match="'name' must be a string that UTF-8 can encode"):
        parse_model(text)


def _text_of(obj: dict) -> str:
    """A model object in the text format: a ``key = value`` line for each
    value that is not a list, then a section for each list."""
    lines = [f"{key} = {value}" for key, value in obj.items() if not isinstance(value, list)]
    for key, value in obj.items():
        if isinstance(value, list):
            rows = [value] if key in ("xi", "eta") else value
            lines += [f"[{key}]"] + [f"{r[0]} {r[1]} : " + " ".join(r[2]) if key == "brackets"
                                     else " ".join(r) for r in rows]
    return "\n".join(lines) + "\n"


#: One broken model object per rule, as a change to a valid dim-3 object.
BROKEN_OBJECTS = {
    "missing key": lambda obj: obj.pop("eta"),
    "short row": lambda obj: obj["phi"][1].pop(),
    "extra row": lambda obj: obj["metric"].append(["0", "0", "0"]),
    "short xi": lambda obj: obj["xi"].pop(),
    "even dim": lambda obj: obj.update(dim=4),
    "bad token": lambda obj: obj["eta"].__setitem__(1, "x"),
    "short bracket row": lambda obj: obj["brackets"][0][2].pop(),
    "bracket index out of range": lambda obj: obj["brackets"][0].__setitem__(0, 7),
    "duplicate bracket": lambda obj: obj["brackets"].append(obj["brackets"][0]),
    "unknown key": lambda obj: obj.update(colour="blue"),
}


@pytest.mark.parametrize("change", BROKEN_OBJECTS.values(), ids=BROKEN_OBJECTS)
def test_both_formats_break_one_rule_with_one_message(fam23, change):
    """Each broken object, written as text and as JSON, is rejected with
    the same message; a text file's message may start with its line."""
    obj = json.loads(serialize_model(fam23.model, fmt="json"))
    change(obj)
    messages = []
    for text in (_text_of(obj), json.dumps(obj)):
        with pytest.raises(ParseError) as exc:
            parse_model(text)
        messages.append(str(exc.value))
    text_message, json_message = messages
    assert re.sub(r"^line \d+: ", "", text_message) == json_message


def _set(*path):
    """A change that sets the item at ``path[:-1]`` of a model object to
    ``path[-1]``."""
    *keys, last, value = path

    def change(obj):
        for key in keys:
            obj = obj[key]
        obj[last] = value
    return change


#: Files with two faults, and the first message of each, as text and as
#: JSON: a tensor read in one pass reports the fault its rows name first.
TWO_FAULTS = {
    "bad metric token, then a short row": (
        [_set("metric", 1, 0, "x"), lambda obj: obj["metric"][2].pop()],
        "line 10: not an exact rational: 'x'", "not an exact rational: 'x'"),
    "short metric row, then a bad token": (
        [lambda obj: obj["metric"][0].pop(), _set("metric", 2, 0, "x")],
        "line 9: metric row must be a list of 3 entries, got 2",
        "metric row must be a list of 3 entries, got 2"),
    "bad bracket token, then a bad index": (
        [_set("brackets", 0, 2, 0, "1/0"), _set("brackets", 1, 1, "a")],
        "line 4: not an exact rational: '1/0'", "not an exact rational: '1/0'"),
    "bad bracket token, then an index out of range": (
        [_set("brackets", 0, 2, 1, "2q"), _set("brackets", 1, 0, 9)],
        "line 4: not an exact rational: '2q'", "not an exact rational: '2q'"),
    "bracket with dim + 1 coefficients": (
        [lambda obj: obj["brackets"][0][2].append("0")],
        "bracket (0,1) has length 4, expected 3", "bracket (0,1) has length 4, expected 3"),
    "true in the last phi row": (
        [_set("phi", 2, 2, True)],
        "line 15: not an exact rational: 'true'",
        "phi row entries must be integers or rational strings, not true or false"),
}


@pytest.mark.parametrize("changes, text_message, json_message", TWO_FAULTS.values(),
                         ids=TWO_FAULTS)
def test_the_first_fault_of_a_file_is_named(fam23, changes, text_message, json_message):
    obj = json.loads(serialize_model(fam23.model, fmt="json"))
    for change in changes:
        change(obj)
    text = _text_of(json.loads(json.dumps(obj).replace("true", '"true"')))
    for model, message in ((text, text_message), (json.dumps(obj), json_message)):
        with pytest.raises(ParseError) as exc:
            parse_model(model, require_valid=False)
        assert str(exc.value) == message


@pytest.mark.parametrize("name", ["a # b", "#", " lead", "trail ", "\tboth\t",
                                  "two\nlines", "cr\rlf", "sep\u2028line", "end\n"])
def test_a_name_the_text_format_cannot_hold_raises(fam23, name):
    """Such a name would come back changed from the text format, or make
    a file that does not parse; it round-trips in JSON."""
    model = dataclasses.replace(fam23.model, name=name)
    with pytest.raises(ValueError, match="fmt='json'"):
        serialize_model(model, fmt="text")
    assert parse_model(serialize_model(model, fmt="json")).name == name


def _fits_text(name: str) -> bool:
    return "#" not in name and name == name.strip() and len(name.splitlines()) <= 1


@settings(max_examples=60, deadline=None)
@given(st.text(max_size=20).filter(_fits_text))
def test_text_names_round_trip(fam23, name):
    model = dataclasses.replace(fam23.model, name=name)
    text = serialize_model(model, fmt="text")
    reparsed = parse_model(text)
    assert reparsed.name == name
    assert serialize_model(reparsed, fmt="text") == text


def test_unlisted_mirror_is_completed():
    m = parse_model(VALID_TEXT)
    c = m.algebra.c.components
    assert c[0, 1, 0] == 2 and c[0, 0, 1] == -2


def test_contradictory_mirror_surfaces_as_violation():
    text = VALID_TEXT.replace(
        "2 0 : 3 0 0", "2 0 : 3 0 0\n0 2 : 3 0 0"  # mirror with the wrong sign
    )
    with pytest.raises(ValidationError) as exc:
        parse_model(text)
    assert "antisymmetry" in exc.value.report.rules()


def test_duplicate_bracket_rejected(fam23):
    text = VALID_TEXT.replace("2 0 : 3 0 0", "2 0 : 3 0 0\n2 0 : 3 0 0")
    obj = json.loads(serialize_model(fam23.model, fmt="json"))
    obj["brackets"].append(obj["brackets"][0])
    for model_file in (text, json.dumps(obj)):
        with pytest.raises(ParseError) as exc:
            parse_model(model_file)
        assert str(exc.value).startswith("duplicate bracket entry (")


def test_require_valid_false_returns_broken_model():
    text = VALID_TEXT.replace("0 0 -1\n", "0 0 1\n", 1)  # break phi, keep shape
    model = parse_model(text, require_valid=False)
    assert not validate_structure(model).ok
    with pytest.raises(ValidationError):
        parse_model(text)


def test_validation_error_carries_itemized_report():
    text = VALID_TEXT.replace("[xi]\n1 0 0", "[xi]\n0 1 0")
    with pytest.raises(ValidationError) as exc:
        parse_model(text)
    assert "eta_xi" in exc.value.report.rules()


def test_xi_may_sit_anywhere_in_the_basis(fam23):
    """A cyclic basis relabeling of a valid model stays valid and
    round-trips."""
    m = fam23.model
    perm = [2, 0, 1]  # new index -> old index
    p = np.array(perm)

    def permute(t: Tensor) -> Tensor:
        comps = t.components
        for axis in range(t.rank):
            comps = np.take(comps, p, axis=axis)
        return Tensor(comps, t.variance)

    relabeled = AcnModel(
        algebra=LieAlgebra(3, permute(m.algebra.c)),
        phi=permute(m.phi),
        xi=permute(m.xi),
        eta=permute(m.eta),
        g=permute(m.g),
        name="relabeled",
    )
    assert list(relabeled.xi.components) != list(m.xi.components)
    assert validate_structure(relabeled).ok
    for fmt in ("text", "json"):
        reparsed = parse_model(serialize_model(relabeled, fmt=fmt))
        assert reparsed.g == relabeled.g
        assert reparsed.algebra.c == relabeled.algebra.c


def test_model_file_from_model_lists_canonical_half(heis):
    text = serialize_model(heis.model)
    assert "dim = 3\n\n[brackets]\n1 2 : 1 0 0\n\n[phi]" in text
    obj = json.loads(serialize_model(heis.model, fmt="json"))
    assert obj["brackets"] == [[1, 2, ["1", "0", "0"]]] and obj["dim"] == 3


def test_serialization_formats_only_the_listed_brackets(monkeypatch):
    """The family member with n = 16 (d = 33) lists the 32 brackets
    ``[x_0, x_i]``: serializing it formats phi and the metric (d**2 each),
    xi and eta (d each) and the d coefficients of each listed bracket,
    not all d**3 entries of the structure constants."""
    from test_contraction_plan import family_member
    model = family_member(16)
    d = model.dim
    numerator_texts, sizes = tensors._numerator_texts, []

    def spy(nums, den):
        sizes.append(nums.size)
        return numerator_texts(nums, den)

    monkeypatch.setattr(tensors, "_numerator_texts", spy)
    obj = json.loads(serialize_model(model, fmt="json"))
    assert d == 33 and len(obj["brackets"]) == 32
    assert sum(sizes) == 2 * d * d + 2 * d + 32 * d


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("edit", ["listed mirror", "diagonal", "sym_bracket", "lone column"])
def test_structure_constants_that_are_not_antisymmetric_round_trip(edit, fmt):
    """A listed mirror that contradicts its twin, a diagonal entry, the
    ``sym_bracket`` mutant and a ``[x_j, x_i]`` column whose ``i < j``
    mirror is zero keep their structure constants through the writer and
    the reader, so the reread model is rejected as well."""
    if edit == "sym_bracket":
        models = _bench_models()
        s = models.family_structure(models.random_lambda(Random(5), 2), edit)
        model = parse_model(models.to_text(s, edit), require_valid=False)
    elif edit == "lone column":
        c = parse_model(VALID_TEXT).algebra.c.components.copy()
        c[:, 0, 1] = 0
        model = dataclasses.replace(parse_model(VALID_TEXT),
                                    algebra=LieAlgebra(3, Tensor(c, "udd")))
    else:
        entry = "0 1 : 5 0 0" if edit == "listed mirror" else "1 1 : 0 0 1"
        text = VALID_TEXT.replace("2 0 : 3 0 0\n", f"2 0 : 3 0 0\n{entry}\n")
        model = parse_model(text, require_valid=False)
    back = parse_model(serialize_model(model, fmt), require_valid=False)
    assert back.algebra.c == model.algebra.c
    assert not validate_structure(model).ok and not validate_structure(back).ok


def test_bracket_indices_out_of_range():
    text = VALID_TEXT.replace("1 0 : 2 0 0", "7 0 : 2 0 0")
    with pytest.raises(ParseError, match="out of range"):
        parse_model(text)


@pytest.mark.parametrize("where", ["metric", "xi", "bracket"])
def test_bool_entries_rejected_in_json(fam23, where):
    """JSON ``true``/``false`` are not the numbers 1 and 0, even where
    they would stand for the same values."""
    obj = json.loads(serialize_model(fam23.model, fmt="json"))
    row = {"metric": obj["metric"][0], "xi": obj["xi"], "bracket": obj["brackets"][0][2]}[where]
    row[:] = [{"0": False, "1": True}.get(v, v) for v in row]
    assert any(isinstance(v, bool) for v in row)
    with pytest.raises(ParseError, match="must be integers or rational strings, not true or"):
        parse_model(json.dumps(obj))


_entries = st.one_of(st.integers(-5, 5), st.fractions(-9, 9, max_denominator=12),
                     st.integers(-2**70, 2**70), st.fractions(max_denominator=2**70))


@st.composite
def rendered_models(draw):
    """A random rational model (it need not be valid) as the tensors it
    holds, its text rendering and its JSON rendering; tokens are in lowest
    terms or scaled by a common factor, JSON integers sometimes bare."""
    dim = draw(st.sampled_from([3, 5]))

    def entries(*shape):
        flat = [Fr(draw(_entries)) for _ in range(int(np.prod(shape)))]
        arr = np.empty(len(flat), dtype=object)
        arr[:] = flat
        return arr.reshape(shape)

    def token(v):
        k = draw(st.integers(1, 4))
        return draw(st.sampled_from([format_scalar(v), f"{v.numerator * k}/{v.denominator * k}"]))

    def json_entry(v):
        return v.numerator if v.denominator == 1 and draw(st.booleans()) else token(v)

    listed = draw(st.lists(st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1)),
                           unique=True, max_size=6))
    coeffs = {pair: entries(dim) for pair in listed}
    c = np.full((dim,) * 3, Fr(0), dtype=object)
    for (i, j), row in coeffs.items():
        c[:, i, j] = row
        if (j, i) not in coeffs:
            c[:, j, i] = -row
    phi, xi, eta, metric = entries(dim, dim), entries(dim), entries(dim), entries(dim, dim)
    expected = {"c": Tensor(c, "udd"), "phi": Tensor(phi, "ud"), "xi": Tensor(xi, "u"),
                "eta": Tensor(eta, "d"), "g": Tensor(metric, "dd")}

    lines = [f"dim = {dim}", "[brackets]"]
    lines += [f"{i} {j} : " + " ".join(map(token, row)) for (i, j), row in coeffs.items()]
    for section, rows in (("phi", phi), ("xi", [xi]), ("eta", [eta]), ("metric", metric)):
        lines += [f"[{section}]"] + [" ".join(map(token, row)) for row in rows]
    obj = {"dim": dim,
           "brackets": [[i, j, list(map(json_entry, row))] for (i, j), row in coeffs.items()],
           "phi": [list(map(json_entry, row)) for row in phi],
           "xi": list(map(json_entry, xi)), "eta": list(map(json_entry, eta)),
           "metric": [list(map(json_entry, row)) for row in metric]}
    return expected, ["\n".join(lines), json.dumps(obj)]


@settings(max_examples=60, deadline=None)
@given(rendered_models())
def test_rendered_rational_models_parse_to_their_tensors(rendered):
    expected, renderings = rendered
    for text in renderings:
        model = parse_model(text, require_valid=False)
        got = {"c": model.algebra.c, "phi": model.phi, "xi": model.xi, "eta": model.eta,
               "g": model.g}
        for key, want in expected.items():
            assert got[key] == want, key
            assert got[key].num.dtype == want.num.dtype and got[key].magnitude == want.magnitude


def test_parsing_builds_no_fraction(monkeypatch):
    """Tokens go straight into integer storage: parsing the dense golden
    model, as text and as JSON, constructs no Fraction at all."""
    from test_golden import _dense_model

    model = _dense_model()
    texts = [serialize_model(model, fmt) for fmt in ("text", "json")]
    built = []
    new = Fr.__new__

    def spy(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fr, "__new__", spy)
    assert Fr(1, 2) and built == [(1, 2)]
    built.clear()
    parsed = [parse_model(text, require_valid=False) for text in texts]
    assert built == []
    monkeypatch.undo()
    for m in parsed:
        assert (m.algebra.c, m.phi, m.xi, m.eta, m.g) == (
            model.algebra.c, model.phi, model.xi, model.eta, model.g)


# --- the plain-row reader -------------------------------------------------

_SIGNS = st.sampled_from(["", "", "+", "-", "+-", "--"])
_DIGITS = st.one_of(st.text("0123456789", min_size=1, max_size=5),
                    st.sampled_from(["0", "00", "٣", "３", "1_0", "", "9" * 4301]))
_NUMBERS = st.one_of(_DIGITS, st.sampled_from(["0.5", ".5", "5.", "1e3", "1E-3", "2e+4",
                                               "1e5000", "1__0", "x"]))


@st.composite
def _tokens(draw):
    """Tokens that reach every branch of ``as_pair``: ints, other
    rationals and non-rationals, and strings of signs, digits (ASCII,
    non-ASCII, with underscores, past the digit limit), decimals and
    exponents, with zero, one or two slashes and signed, zero and empty
    denominators, sometimes padded with blanks."""
    kind = draw(st.sampled_from(["str"] * 6 + ["int", "other"]))
    if kind == "int":
        return draw(st.integers(-(2 ** 70), 2 ** 70))
    if kind == "other":
        return draw(st.sampled_from([True, False, None, 1.5, Fr(-3, 4), np.int64(5), []]))
    token = draw(_SIGNS) + draw(_NUMBERS)
    for _ in range(draw(st.sampled_from([0, 1, 1, 1, 2]))):
        token += "/" + draw(_SIGNS) + draw(_NUMBERS)
    pad = draw(st.sampled_from(["", "", " ", "\t"]))
    return pad + token + pad


def _read_one_by_one(row, line):
    """What ``modelfile._pairs`` gives: ``as_pair`` of each token, or the
    ``ParseError`` text of the first token it rejects."""
    try:
        return [as_pair(t) for t in row]
    except (ValueError, TypeError) as exc:
        return str(ParseError(str(exc), line=line))


def _read_row(row, line):
    try:
        return _pairs(row, line)
    except ParseError as exc:
        return str(exc)


@settings(max_examples=400, deadline=None)
@given(st.lists(_tokens(), max_size=6))
def test_a_row_reads_as_its_tokens_read_one_by_one(row):
    got = _read_row(row, 7)
    assert got == _read_one_by_one(row, 7)
    if isinstance(got, list):
        assert all(type(p) is int and type(q) is int for p, q in got)


_PLAIN_TOKENS = st.builds("".join, st.tuples(
    st.sampled_from(["", "-", "+"]), st.text("0123456789", min_size=1, max_size=4),
    st.sampled_from(["", "/1", "/7", "/12", "/300"])))
#: A token that the one-pass reader must read: short, signed at most once,
#: no zero or signed denominator.
_PLAIN_TOKEN = re.compile(r"[+-]?[0-9]{1,20}(/[1-9][0-9]{0,20})?")


@settings(max_examples=400, deadline=None)
@given(st.lists(st.one_of(st.lists(st.one_of(_PLAIN_TOKENS, _PLAIN_TOKENS, _tokens()),
                                   min_size=3, max_size=3),
                          st.lists(_PLAIN_TOKENS, max_size=4)), max_size=4))
def test_a_tensor_read_in_one_pass_reads_as_its_rows_read_one_by_one(rows):
    """Where the one-pass read of a tensor's rows gives pairs, they are the
    pairs of its rows read one at a time; it gives pairs whenever every
    row holds three plain tokens."""
    got = _joined_pairs(rows, 3)
    plain = all(len(r) == 3 and all(isinstance(t, str) and _PLAIN_TOKEN.fullmatch(t)
                                    for t in r) for r in rows)
    assert (got is not None) >= plain
    if got is not None:
        assert all(len(r) == 3 for r in rows)
        assert got == [pair for r in rows for pair in _pairs(r)]
        assert all(type(p) is int and type(q) is int for p, q in got)


#: The tokens the plain-row reader must leave to ``as_pair``, or take.
EDGE_TOKENS = ["1_0", "1e3", "0.5", "٣", "3/-4", "3/+4", "+-5", "1/0", "/3", "3/",
               "9" * 4301, "9" * 4300, "3/04", "1/00", "-0", "+5", "00/07", "1/2/3", "5-",
               "0/5", "-12/8", "", "/", "+", "2/-0"]


@pytest.mark.parametrize("token", EDGE_TOKENS, ids=[t[:8] for t in EDGE_TOKENS])
@pytest.mark.parametrize("at", [0, 1, 2])
def test_an_edge_token_reads_as_as_pair_reads_it(token, at):
    row = ["-7/2", "12", "0"]
    row[at] = token
    assert _read_row(row, 3) == _read_one_by_one(row, 3)
    assert _read_row([token], None) == _read_one_by_one([token], None)


def _bench_models():
    """``benchmarks/models.py``, which builds model files without the library."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "models.py"
    spec = importlib.util.spec_from_file_location("bench_models", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def dense_files():
    """A dense dim-7 benchmark model and one of its mutants, text and JSON."""
    models = _bench_models()
    rng = Random(7)
    lam = models.random_lambda(rng, 3)
    basis = models.random_basis_change(rng, 7)
    files = []
    for mutation in (None, "jacobi_bracket"):
        s = models.change_basis(models.family_structure(lam, mutation), *basis)
        files += [models.to_text(s, "dense"), models.to_json(s, "dense")]
    return files


@pytest.fixture
def as_pair_calls(monkeypatch):
    """Every token ``as_pair`` reads, seen wherever it is called from."""
    calls = []

    def spy(value):
        calls.append(value)
        return as_pair(value)

    for module in (tensors, modelfile, lie):
        monkeypatch.setattr(module, "as_pair", spy)
    return calls


def test_plain_dense_files_are_read_without_as_pair(dense_files, as_pair_calls):
    for text in dense_files:
        model = parse_model(text, require_valid=False)
        assert model.g.den > 1 or model.phi.den > 1 or model.algebra.c.den > 1
    assert as_pair_calls == []


@pytest.mark.parametrize("fmt", [0, 1])
def test_a_decimal_token_sends_only_its_row_to_as_pair(dense_files, as_pair_calls, fmt):
    text = dense_files[fmt]
    plain = parse_model(text, require_valid=False)
    eta = [format_scalar(v) for v in plain.eta.components]
    if fmt == 0:
        head, _, tail = text.partition("[eta]\n")
        line, _, rest = tail.partition("\n")
        text = f"{head}[eta]\n0.5 {line.split(' ', 1)[1]}\n{rest}"
    else:
        obj = json.loads(text)
        obj["eta"][0] = "0.5"
        text = json.dumps(obj)
    model = parse_model(text, require_valid=False)
    assert as_pair_calls == ["0.5"] + eta[1:]
    assert model.eta[0] == Fr(1, 2) and list(model.eta.components[1:]) == \
        list(plain.eta.components[1:])
