"""Hostile model files through ``norden.cli.main``: whatever a file holds,
the CLI exits 0, 1 or 2 and raises nothing, and exit 2 comes with a
message on stderr.

The files are the golden models of dims 3 to 9, text and JSON, with lines
deleted, duplicated and swapped, ``dim`` changed, and tokens replaced by
huge, negative, bool, null, float and string values and by the edge
tokens of the plain-row reader.  A fixed list of files reaches every
``ParseError`` of both parsers."""
import ast
import contextlib
import io
import json
import re
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from norden import ParseError, modelfile, serialize_model
from norden.cli import EXIT_INPUT, main
from test_golden import _model

#: The golden models of dims 3, 5, 7 and 9, and the dense one of dim 5.
MODELS = {key: _model(key) for key in (1, 2, 3, 4, "dense")}
FILES = [serialize_model(m, fmt) for m in MODELS.values() for fmt in ("text", "json")]

#: Tokens at the edge of the plain-row reader: each is read token by token
#: by ``as_pair`` or rejected, never misread by the fast path.
EDGE_TOKENS = ["1_0", "1e3", "0.5", "٣", "3/-4", "3/+4", "+-5", "1/0", "/3", "3/",
               "9" * 4301]


class _Raw(str):
    """JSON written into a file as it is, for values that Python does not
    build: an integer past its digit limit, a string with a lone surrogate."""


HUGE = _Raw("9" * 4301)
VALUES = EDGE_TOKENS + [2 ** 70, -(2 ** 70), "-" + "7" * 40 + "/3", -3, 0, True, False,
                        None, 1.5, -0.0, "x", "", "1 2", [], {}, HUGE,
                        _Raw('"bad \\ud800 name"')]
DIMS = [-1, 0, 1, 2, 3, 4, 5, 7, 9, 11, 10 ** 30 + 1, "x", "5.0", True, None, HUGE]


def _render(value, as_json: bool) -> str:
    if as_json and not isinstance(value, _Raw):
        return json.dumps(value, ensure_ascii=False)
    return value if isinstance(value, str) else str(value)


@st.composite
def hostile_files(draw) -> str:
    text = draw(st.sampled_from(FILES))
    as_json = text.startswith("{")
    for _ in range(draw(st.integers(1, 3))):
        lines = text.splitlines()
        op = draw(st.sampled_from(["delete", "duplicate", "swap", "dim", "token", "token"]))
        i = draw(st.integers(0, len(lines) - 1)) if lines else 0
        if op == "delete" and lines:
            del lines[i]
        elif op == "duplicate" and lines:
            lines.insert(i, lines[i])
        elif op == "swap" and lines:
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif op == "dim":
            dim = _render(draw(st.sampled_from(DIMS)), as_json)
            lines = [re.sub(r'^(\s*"dim": |dim = ).*?(,?)$', lambda m: m[1] + dim + m[2], line)
                     for line in lines]
        elif op == "token" and lines:
            pattern = r'"(?:[^"\\]|\\.)*"|-?\d+' if as_json else r"\S+"
            tokens = list(re.finditer(pattern, lines[i]))
            if tokens:
                m = tokens[draw(st.integers(0, len(tokens) - 1))]
                value = _render(draw(st.sampled_from(VALUES)), as_json)
                lines[i] = lines[i][:m.start()] + value + lines[i][m.end():]
        text = "\n".join(lines) + "\n"
    return text


def _run(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(text=hostile_files(), command=st.sampled_from(["validate", "validate", "report"]),
       flags=st.sampled_from([[], ["--json"]]))
def test_a_hostile_file_exits_0_1_or_2_and_names_an_input_error(tmp_path_factory, text,
                                                                  command, flags):
    path = tmp_path_factory.getbasetemp() / "hostile-model"
    path.write_text(text, encoding="utf-8")
    code, err = _run([command, str(path)] + flags)
    assert code in (0, 1, 2)
    if code == EXIT_INPUT:
        assert err.strip()


def _replace(text: str, old: str, new: str) -> str:
    assert old in text, old
    return text.replace(old, new, 1)


TEXT = serialize_model(MODELS[1], "text")
JSON = serialize_model(MODELS[1], "json")
_DROP = object()


def _json_with(**changes) -> str:
    """The JSON file with keys changed, or dropped when set to ``_DROP``."""
    obj = dict(json.loads(JSON), **changes)
    return json.dumps({k: v for k, v in obj.items() if v is not _DROP})


#: (parser, file, the start of the message); together they reach every
#: ``ParseError(...)`` in ``modelfile.py``.
PARSE_ERRORS = [
    # text
    ("text", _replace(TEXT, "0 1 :", "7 1 :"), "bracket indices (7, 1) out of range"),
    ("text", _replace(TEXT, "0 2 :", "0 1 :"), "duplicate bracket entry (0, 1)"),
    ("text", _replace(TEXT, "dim = 3", "dim = 4"), "line 2: dimension must be odd and >= 3"),
    ("text", _replace(TEXT, "[xi]\n1 0 0", "[xi]\n1 x 0"), "line 14: not an exact rational: 'x'"),
    ("text", _replace(TEXT, "[xi]", "[chi]"), "line 13: unknown key 'chi'"),
    ("text", _replace(TEXT, "dim = 3", "dim = 3\ndim = 3"), "line 3: repeated key 'dim'"),
    ("text", _replace(TEXT, "dim = 3", "dim = three"), "line 2: dim must be an integer"),
    ("text", _replace(TEXT, "dim = 3", "colour = blue"), "line 2: unknown key 'colour'"),
    ("text", "1 0 0\n" + TEXT, "line 1: data outside any section"),
    ("text", _replace(TEXT, "0 1 :", "0 1"), "line 5: bracket line needs the form"),
    ("text", _replace(TEXT, "0 1 :", "0 :"), "line 5: bracket line needs exactly two"),
    ("text", _replace(TEXT, "0 1 :", "a b :"), "line 5: bad bracket indices: they must be"),
    ("text", _replace(TEXT, "dim = 3\n", ""), "missing 'dim' key"),
    ("text", TEXT[:TEXT.index("[metric]")], "missing 'metric' key"),
    ("text", TEXT[:-len("0 0 -1\n")], "line 19: metric must be a list of 3 rows, got 2"),
    ("text", _replace(TEXT, "[phi]\n0 0 0", "[phi]\n0 0"),
     "line 9: phi row must be a list of 3 entries, got 2"),
    ("text", _replace(TEXT, "[xi]\n1 0 0", "[xi]\n1 0"),
     "line 14: xi must be a list of 3 entries, got 2"),
    ("text", _replace(TEXT, "0 1 : -2 0 0", "0 1 : -2 0"), "bracket (0,1) has length 2, expected 3"),
    # JSON
    ("json", "{not json", "invalid JSON"),
    ("json", "[1, 2]", "JSON model must be an object"),
    ("json", _replace(JSON, '"dim": 3,', '"dim": 3,\n "dim": 3,'), "repeated key 'dim'"),
    ("json", _json_with(phi=_DROP), "missing 'phi' key"),
    ("json", _json_with(dim="3"), "dim must be an integer"),
    ("json", _json_with(dim=1), "dimension must be odd and >= 3, got 1"),
    ("json", _json_with(xi=[1, 0]), "xi must be a list of 3 entries"),
    ("json", _json_with(xi=[True, 0, 0]), "xi entries must be integers or rational strings"),
    ("json", _json_with(xi=[1.0, 0, 0]), "exact rational required, got float"),
    ("json", _json_with(phi=[[0, 0, 0]]), "phi must be a list of 3 rows"),
    ("json", _json_with(brackets={}), "'brackets' must be a list"),
    ("json", _json_with(brackets=[[0, 1]]), "each bracket entry must be [i, j, coefficients]"),
    ("json", _json_with(brackets=[[0, "1", [0, 0, 0]]]),
     "bad bracket indices: they must be integers"),
    ("json", _json_with(brackets=[[0, 5, [0, 0, 0]]]), "bracket indices (0, 5) out of range"),
    ("json", _json_with(name=7), "'name' must be a string"),
    ("json", _json_with(brackets=_DROP, brakets=[]), "unknown key 'brakets'"),
    ("json", _replace(JSON, '"dim": 3', f'"dim": {HUGE}'),
     "invalid JSON: Exceeds the limit (4300 digits)"),
    ("json", _json_with(phi=[["HUGE", 0, 0], [0, 0, -1], [0, 1, 0]]).replace('"HUGE"', HUGE),
     "invalid JSON: Exceeds the limit (4300 digits)"),
    ("json", _replace(JSON, '"name": "', '"name": "\\ud800'),
     "'name' must be a string that UTF-8 can encode"),
]


def _raise_sites() -> set[int]:
    """The line of every ``ParseError(...)`` call in ``modelfile.py``."""
    tree = ast.parse(Path(modelfile.__file__).read_text(encoding="utf-8"))
    return {node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and getattr(node.func, "id", "") == "ParseError"}


def test_the_fixed_files_reach_every_parse_error(monkeypatch):
    reached = set()

    class Spy(ParseError):
        def __init__(self, message, line=None):
            reached.add(sys._getframe(1).f_lineno)
            super().__init__(message, line)

    monkeypatch.setattr(modelfile, "ParseError", Spy)
    parsers = {"text": modelfile._parse_text, "json": modelfile._parse_json}
    for fmt, text, message in PARSE_ERRORS:
        with pytest.raises(ParseError) as exc:
            parsers[fmt](text)
        assert str(exc.value).startswith(message), (fmt, message)
    assert reached == _raise_sites()


@pytest.mark.parametrize("fmt, text, message", PARSE_ERRORS,
                         ids=[f"{fmt}-{i}" for i, (fmt, _, _) in enumerate(PARSE_ERRORS)])
def test_each_fixed_file_exits_2_with_a_message(tmp_path, fmt, text, message):
    path = tmp_path / "model"
    path.write_text(text, encoding="utf-8")
    code, err = _run(["validate", str(path)])
    assert code == EXIT_INPUT and err.startswith(f"{path}: ")
    if not text.startswith("["):        # a JSON array is read as a text file
        assert err.startswith(f"{path}: {message}")
