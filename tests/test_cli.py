"""The command-line interface: subcommands, output modes, exit codes."""
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import norden
from norden import cli, serialize_model, tensors
from norden.cli import EXIT_FAIL, EXIT_INPUT, EXIT_OK, build_parser, main
from test_golden import GOLDEN, _dense_model, _sha256

REPO_ROOT = Path(__file__).resolve().parents[1]


def _run(command):
    """Run ``command`` with the checkout under test first on PYTHONPATH."""
    env = dict(os.environ)
    src = str(Path(norden.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run(command, capture_output=True, text=True, env=env)


@pytest.fixture(scope="module")
def model_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("models") / "fam23.txt"
    code = main(["family", "--n", "1", "--lambda", "2,3",
                 "--emit-model", str(path), "--quiet"])
    assert code == EXIT_OK
    return str(path)


@pytest.fixture(scope="module")
def broken_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("models") / "broken.txt"
    good = _run(
        [sys.executable, "-m", "norden", "family", "--n", "1", "--lambda", "2,3"])
    assert good.returncode == EXIT_OK
    path.write_text(good.stdout.replace("[xi]\n1 0 0", "[xi]\n0 1 0"))
    return str(path)


@pytest.fixture(scope="module")
def asymmetric_path(model_path, tmp_path_factory):
    """The lambda = (2, 3) member with one off-diagonal metric entry
    changed, so that g[0,1] = 5 but g[1,0] = 0."""
    path = tmp_path_factory.mktemp("models") / "asymmetric.txt"
    text = Path(model_path).read_text()
    assert "[metric]\n1 0 0\n" in text
    path.write_text(text.replace("[metric]\n1 0 0\n", "[metric]\n1 5 0\n"))
    return str(path)


def test_family_emits_parseable_model(model_path, capsys):
    assert main(["validate", model_path]) == EXIT_OK
    out = capsys.readouterr().out
    assert "ok" in out


def test_family_stdout_and_json(capsys):
    assert main(["family", "--n", "1", "--lambda", "1/2,-3"]) == EXIT_OK
    text = capsys.readouterr().out
    assert "[brackets]" in text and "1/2" in text
    assert main(["family", "--n", "1", "--lambda", "1/2,-3", "--json"]) == EXIT_OK
    obj = json.loads(capsys.readouterr().out)
    assert obj["dim"] == 3


def test_family_lambda_may_start_with_a_minus_sign(capsys):
    """``--lambda -2,3`` as two tokens prints what ``--lambda=-2,3`` does,
    and so does an abbreviation of the option."""
    assert main(["family", "--n", "1", "--lambda=-2,3"]) == EXIT_OK
    joined = capsys.readouterr()
    for option in ("--lambda", "--lam"):
        assert main(["family", "--n", "1", option, "-2,3"]) == EXIT_OK
        assert capsys.readouterr() == joined
    assert "lambda=-2,3" in joined.out


def test_family_bad_params():
    assert main(["family", "--n", "1", "--lambda", "1,2,3", "--quiet"]) == EXIT_INPUT
    assert main(["family", "--n", "0", "--lambda", "1,2", "--quiet"]) == EXIT_INPUT
    assert main(["family", "--n", "1", "--lambda", "x,1", "--quiet"]) == EXIT_INPUT
    assert main(["family", "--n", "1", "--lambda", "1/0,1", "--quiet"]) == EXIT_INPUT


def test_validate_json_output(model_path, capsys):
    assert main(["validate", model_path, "--json"]) == EXIT_OK
    obj = json.loads(capsys.readouterr().out)
    assert obj == {"valid": True, "violations": []}


def test_validate_broken_model(broken_path, capsys):
    assert main(["validate", broken_path, "--json"]) == EXIT_FAIL
    obj = json.loads(capsys.readouterr().out)
    assert obj["valid"] is False
    assert any(v["rule"] == "eta_xi" for v in obj["violations"])


def test_validate_missing_file(capsys):
    assert main(["validate", "/nonexistent/nowhere.txt"]) == EXIT_INPUT
    assert "cannot read" in capsys.readouterr().err


def test_a_file_that_is_not_utf8_is_input_error(tmp_path, capsys):
    path = tmp_path / "binary.txt"
    path.write_bytes(b"\xff\xfe")
    assert main(["validate", str(path)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith(f"cannot read {path}: ") and "decode" in err


def test_a_deeply_nested_json_model_is_input_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text('{"dim": ' + "[" * 100_000 + "]" * 100_000 + "}")
    assert main(["validate", str(path)]) == EXIT_INPUT
    assert capsys.readouterr().err.startswith(f"{path}: invalid JSON: ")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_huge_exponent_in_model_file_is_input_error(fmt, tmp_path, capsys):
    """A few bytes of exponent must fail fast, not build a 3.3-Mbit integer."""
    flags = ["--json"] if fmt == "json" else []
    assert main(["family", "--n", "1", "--lambda", "2,3"] + flags) == EXIT_OK
    text = capsys.readouterr().out
    needle = "-2" if fmt == "text" else '"-2"'
    assert needle in text
    path = tmp_path / f"huge.{fmt}"
    path.write_text(text.replace(needle, needle.replace("-2", "-1e1000000"), 1))
    for argv in (["validate", str(path)], ["report", str(path), "--json"]):
        t0 = time.perf_counter()
        assert main(argv) == EXIT_INPUT
        assert time.perf_counter() - t0 < 0.1
        assert "decimal exponent beyond" in capsys.readouterr().err


def test_huge_exponent_in_lambda_is_input_error(capsys):
    t0 = time.perf_counter()
    assert main(["family", "--n", "1", "--lambda", "1e1000000,2"]) == EXIT_INPUT
    assert time.perf_counter() - t0 < 0.1
    err = capsys.readouterr().err
    assert "bad family parameters" in err and "decimal exponent beyond" in err
    assert main(["family", "--n", "1", "--lambda", "1e3,-3/4", "--quiet"]) == EXIT_OK


@pytest.fixture(scope="module")
def past_digit_limit(tmp_path_factory, model_path):
    """Two models whose outputs hold numbers past Python's 4300-digit
    limit: the valid member with lambda = (10**3000, 1), whose report
    holds 6001-digit numbers, and the lambda = (2, 3) member with a
    3000-digit phi entry, whose violation details hold them."""
    folder = tmp_path_factory.mktemp("digits")
    big_lambda = folder / "big_lambda.txt"
    assert main(["family", "--n", "1", "--lambda", "1e3000,1",
                 "--emit-model", str(big_lambda), "--quiet"]) == EXIT_OK
    big_phi = folder / "big_phi.txt"
    text = Path(model_path).read_text()
    assert "[phi]\n0 0 0\n0 0 -1\n" in text
    big_phi.write_text(text.replace("[phi]\n0 0 0\n0 0 -1\n",
                                    "[phi]\n0 0 0\n0 0 -1" + "0" * 2999 + "\n"))
    return {"lambda": str(big_lambda), "phi": str(big_phi)}


@pytest.mark.parametrize("command, model", [
    (["report"], "lambda"), (["report", "--json"], "lambda"),
    (["validate"], "phi"), (["validate", "--json"], "phi"), (["report"], "phi"),
])
def test_a_result_past_the_digit_limit_is_input_error(past_digit_limit, command, model,
                                                      capsys):
    """A number that Python will not write as text is refused before any
    output: exit 2 and one line on stderr, not a traceback."""
    assert main(command + [past_digit_limit[model]]) == EXIT_INPUT
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: a number has more than 4300 digits, Python's limit for "
                   "writing an integer as text (sys.set_int_max_str_digits)\n")


def test_the_digit_limit_is_python_s_own(past_digit_limit, capsys):
    """The refusal reads the limit of the process: raised, the same files
    report and validate as usual, and the identities never needed it."""
    for argv in (["identities", past_digit_limit["lambda"]],
                 ["identities", "--json", past_digit_limit["lambda"]]):
        assert main(argv) == EXIT_OK
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert main(["report", "--json", past_digit_limit["lambda"]]) == EXIT_OK
        assert main(["validate", past_digit_limit["phi"]]) == EXIT_FAIL
    finally:
        sys.set_int_max_str_digits(limit)
    out = capsys.readouterr().out
    assert "1" + "0" * 6000 in out and "phi_square" in out


@pytest.mark.parametrize("slot", [0, 1])
def test_bool_bracket_index_is_input_error(slot, tmp_path, capsys):
    """JSON ``true`` is not the index 1: it would index the structure
    constants as a boolean mask and surface as spurious violations."""
    assert main(["family", "--n", "1", "--lambda", "2,3", "--json"]) == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    data["brackets"][0][slot] = True
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(data))
    for argv in (["validate", str(path), "--json"], ["report", str(path)]):
        assert main(argv) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "bad bracket indices: they must be integers" in captured.err


def test_bool_entry_is_input_error(tmp_path, capsys):
    """JSON ``true`` is not the number 1: a file giving it for every 1 of
    the metric and of eta is refused, not read as the valid model."""
    assert main(["family", "--n", "1", "--lambda", "1,2", "--json"]) == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    for key in ("metric", "eta"):
        data[key] = json.loads(json.dumps(data[key]).replace('"1"', "true"))
    assert "true" in json.dumps(data["metric"]) and "true" in json.dumps(data["eta"])
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(data))
    for argv in (["validate", str(path), "--json"], ["report", str(path)]):
        assert main(argv) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "entries must be integers or rational strings, not true or false" in captured.err


@pytest.mark.parametrize("brackets", [5, 1.5, False, None, "", {}, "abc"])
def test_non_list_brackets_are_input_error(brackets, tmp_path, capsys):
    """A ``"brackets"`` value that is not a list is refused by name: no
    traceback, and ``""`` or ``{}`` are not read as "no brackets"."""
    assert main(["family", "--n", "1", "--lambda", "2,3", "--json"]) == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    data["brackets"] = brackets
    path = tmp_path / "brackets.json"
    path.write_text(json.dumps(data))
    for argv in (["validate", str(path), "--json"], ["report", str(path)]):
        assert main(argv) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"{path}: 'brackets' must be a list\n"


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("dim", [0, 1, -1, 2])
def test_a_bad_dim_is_named_when_it_is_read(fmt, dim, tmp_path, capsys):
    """A file whose only fault is its ``dim`` fails on that ``dim``, not
    on a section, list length or variance that the bad value leads to."""
    flags = ["--json"] if fmt == "json" else []
    assert main(["family", "--n", "1", "--lambda", "2,3"] + flags) == EXIT_OK
    text = capsys.readouterr().out
    if fmt == "json":
        data = json.loads(text)
        data["dim"] = dim
        text = json.dumps(data)
    else:
        assert "\ndim = 3\n" in text
        text = text.replace("\ndim = 3\n", f"\ndim = {dim}\n")
    path = tmp_path / f"dim.{fmt}"
    path.write_text(text)
    prefix = "line 2: " if fmt == "text" else ""
    for argv in (["validate", str(path), "--json"], ["report", str(path)]):
        assert main(argv) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"{path}: {prefix}dimension must be odd and >= 3, got {dim}\n"


@pytest.mark.parametrize("fmt, old, new, message", [
    ("text", "\ndim = 3\n", "\ndim = 3\ndim = 5\n", "line 3: repeated key 'dim'"),
    ("text", "\ndim = 3\n", "\ndim = 3\nName = other\n", "line 3: repeated key 'name'"),
    ("json", '\n "dim": 3,', '\n "dim": 3,\n "dim": 5,', "repeated key 'dim'"),
    ("json", '\n "eta": [', '\n "phi": [],\n "eta": [', "repeated key 'phi'"),
], ids=["text-dim", "text-name", "json-dim", "json-phi"])
def test_a_repeated_key_is_named(fmt, old, new, message, tmp_path, capsys):
    """A key given twice is an input error that names it, whichever of
    the two values the rest of the file would agree with."""
    flags = ["--json"] if fmt == "json" else []
    assert main(["family", "--n", "1", "--lambda", "2,3"] + flags) == EXIT_OK
    text = capsys.readouterr().out
    assert old in text
    path = tmp_path / f"repeated.{fmt}"
    path.write_text(text.replace(old, new, 1))
    for argv in (["validate", str(path), "--json"], ["report", str(path)]):
        assert main(argv) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"{path}: {message}\n"


def test_report_text_and_exit_code(model_path, capsys):
    assert main(["report", model_path]) == EXIT_OK
    out = capsys.readouterr().out
    assert "tau = 10" in out
    assert "F11 = yes" in out


def test_report_json(model_path, capsys):
    assert main(["report", model_path, "--json"]) == EXIT_OK
    obj = json.loads(capsys.readouterr().out)
    assert obj["invariants"]["tau"] == "10"
    assert obj["flags"]["isotropic_kahler"] is False


def test_report_rejects_invalid_model(broken_path, capsys):
    assert main(["report", broken_path, "--json"]) == EXIT_FAIL
    obj = json.loads(capsys.readouterr().out)
    assert obj["valid"] is False


def test_asymmetric_metric_is_a_violation_not_a_traceback(asymmetric_path):
    """An asymmetric metric has no signature: validation reports
    metric_symmetric and skips the signature rule (exit 1, no traceback)."""
    command = [sys.executable, "-m", "norden"]
    proc = _run(command + ["validate", asymmetric_path, "--json"])
    assert proc.returncode == EXIT_FAIL, proc.stderr
    assert "Traceback" not in proc.stderr
    obj = json.loads(proc.stdout)
    assert obj["valid"] is False
    rules = {v["rule"] for v in obj["violations"]}
    assert "metric_symmetric" in rules
    assert {"metric_signature", "metric_nondegenerate"}.isdisjoint(rules)
    proc = _run(command + ["report", asymmetric_path])
    assert proc.returncode == EXIT_FAIL
    assert "Traceback" not in proc.stderr
    assert "metric_symmetric" in proc.stderr
    proc = _run(command + ["report", asymmetric_path, "--json"])
    assert proc.returncode == EXIT_FAIL
    assert "Traceback" not in proc.stderr
    assert "metric_symmetric" in {v["rule"] for v in json.loads(proc.stdout)["violations"]}


def test_report_quiet(model_path, capsys):
    assert main(["report", model_path, "--quiet"]) == EXIT_OK
    assert capsys.readouterr().out == ""


def test_identities_output(model_path, capsys):
    assert main(["identities", model_path]) == EXIT_OK
    out = capsys.readouterr().out
    assert "[pass] norm_chain" in out
    assert "[ n/a] phi_kahler_criterion_closedness" in out
    assert main(["identities", model_path, "--json"]) == EXIT_OK
    obj = json.loads(capsys.readouterr().out)
    assert obj["norm_chain"]["passed"] is True


def test_section_xi_plane(model_path, capsys):
    assert main(["section", model_path, "--x", "1,0,0", "--y", "0,1,0",
                 "--json"]) == EXIT_OK
    obj = json.loads(capsys.readouterr().out)
    assert obj["kind"] == "xi"
    assert obj["sectional_curvature"] == "-4"


def test_section_degenerate_plane_is_not_an_error(model_path, capsys):
    assert main(["section", model_path, "--x", "1,0,0", "--y", "0,1,1",
                 "--json"]) == EXIT_OK
    obj = json.loads(capsys.readouterr().out)
    assert obj["sectional_curvature"] is None
    assert "degenerate" in obj["note"]


@pytest.mark.parametrize("x, y, flags, digest", [
    ("1,0,0", "0,1,0", [],
     "09df15a83b3a4fe5f6469fc88d1b411f643cb5fa810275d9f130a07f76ade400"),
    ("1,0,0", "0,1,0", ["--json"],
     "6b772eb0ffc1fd2113c66c1e7ac2f261e24292ebbc7b82a4e61d281fb4038b41"),
    ("0,1,0", "0,0,1", [],
     "dc7e0e6e46b3cca76b7f84829f8bc01386f9ddc88f22f0a6f9534f2ad90b93ef"),
    ("0,1,0", "0,0,1", ["--json"],
     "8cb1b87a9bf8ceac3e72ea370b8c570fbd29ed85f1c8686bed4a297c5044067e"),
    ("1,0,0", "0,1,1", [],
     "5988efbc2af882dbd3e991c71a8ac7736695ba1e243e84f3f1c3bc8c38668c8a"),
    ("1,0,0", "0,1,1", ["--json"],
     "51aa6c4619e90ffccd8ae9264906b1a54bc134182a124bdd5515e14421f6cb32"),
], ids=["xi", "xi-json", "phi-holomorphic", "phi-holomorphic-json",
        "degenerate", "degenerate-json"])
def test_section_output_is_pinned(model_path, capsys, x, y, flags, digest):
    """A xi plane, a phi-holomorphic plane and a degenerate plane of the
    lambda = (2, 3) member print these exact bytes."""
    assert main(["section", model_path, "--x", x, "--y", y, *flags]) == EXIT_OK
    got = capsys.readouterr()
    assert got.err == ""
    assert _sha256(got.out) == digest


def test_section_builds_no_curvature_tensor(tmp_path, monkeypatch, capsys):
    """``norden section`` reads ``R(x, y, y, x)`` from the connection: once
    the model is read and validated (the Jacobi check is a ``d**4``
    tensor), no contraction step outputs more than ``d**3`` entries."""
    from test_contraction_plan import dense_member

    model = dense_member(3)
    path = tmp_path / "dense7.txt"
    path.write_text(serialize_model(model))
    argv = ["section", str(path), "--x", "1,0,2,0,-1,0,1", "--y", "0,1,0,1/2,0,3,-1"]
    assert main(argv + ["--json"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["sectional_curvature"] is not None
    sizes, loaded = [], []

    def spy(func):
        def wrapper(*args, **kwargs):
            out = func(*args, **kwargs)
            if loaded:
                sizes.append(np.size(out))
            return out
        return wrapper

    monkeypatch.setattr(np, "einsum", spy(np.einsum))
    monkeypatch.setattr(tensors, "_sparse_step", spy(tensors._sparse_step))
    load = cli._run_validated
    monkeypatch.setattr(cli, "_run_validated", lambda args: (load(args), loaded.append(1))[0])
    assert main(argv + ["--quiet"]) == EXIT_OK
    assert loaded and sizes and max(sizes) <= model.dim ** 3


def test_section_dependent_vectors_are_input_error(model_path, capsys):
    assert main(["section", model_path, "--x", "1,0,0", "--y", "2,0,0",
                 "--quiet"]) == EXIT_INPUT


@pytest.mark.parametrize("option, vectors", [
    ("--x", ("-1,0,0", "0,1,0")),
    ("--y", ("0,1,0", "-1/2,0,1")),
])
def test_section_vector_may_start_with_a_minus_sign(model_path, capsys, option, vectors):
    """A vector that starts with a minus sign after ``--x`` or ``--y`` as
    its own token is read as the value, as in the ``--x=-1,0,0`` form."""
    x, y = vectors
    assert main(["section", model_path, f"--x={x}", f"--y={y}", "--json"]) == EXIT_OK
    joined = capsys.readouterr()
    spaced = {"--x": ["--x", x, f"--y={y}"], "--y": [f"--x={x}", "--y", y]}[option]
    assert main(["section", model_path, *spaced, "--json"]) == EXIT_OK
    assert capsys.readouterr() == joined
    assert json.loads(joined.out)["kind"]


def test_output_is_built_only_in_the_requested_format(model_path, broken_path,
                                                      monkeypatch, capsys):
    """Under ``--json`` or ``--quiet`` no text is rendered, and under text
    or ``--quiet`` no JSON object is."""
    def refuse(*args, **kwargs):
        raise AssertionError("rendered a format that is not printed")

    monkeypatch.setattr(norden.errors.ValidationReport, "__str__", refuse)
    monkeypatch.setattr(cli, "verdict_line", refuse)
    for flags in (["--json"], ["--quiet"]):
        assert main(["validate", broken_path, *flags]) == EXIT_FAIL
        assert main(["identities", model_path, *flags]) == EXIT_OK
    monkeypatch.undo()
    monkeypatch.setattr(norden.errors.Violation, "_asdict", refuse)
    monkeypatch.setattr(cli, "canonical_json", refuse)
    for flags in ([], ["--quiet"]):
        assert main(["validate", broken_path, *flags]) == EXIT_FAIL
        assert main(["identities", model_path, *flags]) == EXIT_OK
        assert main(["section", model_path, "--x", "1,0,0", "--y", "0,1,0", *flags]) == EXIT_OK
    capsys.readouterr()


def test_violations_are_written_without_their_dicts(broken_path, monkeypatch, capsys):
    """``--json`` of an invalid model prints the same bytes when
    ``Violation._asdict`` refuses: the writer reads the fields in place."""
    runs = [["validate", broken_path, "--json"], ["report", broken_path, "--json"]]
    printed = [(main(argv), capsys.readouterr()) for argv in runs]

    def refuse(*args, **kwargs):
        raise AssertionError("built the dict of a violation")

    monkeypatch.setattr(norden.errors.Violation, "_asdict", refuse)
    assert [(main(argv), capsys.readouterr()) for argv in runs] == printed
    assert [code for code, _ in printed] == [EXIT_FAIL, EXIT_FAIL]
    assert json.loads(printed[0][1].out)["violations"]


def test_section_bad_vector_syntax(model_path):
    assert main(["section", model_path, "--x", "1,0", "--y", "0,1,0",
                 "--quiet"]) == EXIT_INPUT
    assert main(["section", model_path, "--x", "a,b,c", "--y", "0,1,0",
                 "--quiet"]) == EXIT_INPUT


@pytest.mark.parametrize("argv, code", [
    (["validate", "{model}", "--json"], EXIT_OK),
    (["validate", "{broken}", "--json"], EXIT_FAIL),
    (["report", "{model}", "--json"], EXIT_OK),
    (["identities", "{model}", "--json"], EXIT_OK),
    (["section", "{model}", "--x", "1,0,0", "--y", "0,1,1", "--json"], EXIT_OK),
    (["family", "--n", "2", "--lambda", "1/2,-3,0,7", "--json"], EXIT_OK),
])
def test_json_output_is_sorted_with_indent_one(argv, code, model_path, broken_path,
                                               capsys):
    """Every ``--json`` output is ``json.dumps(sort_keys=True, indent=1)`` of
    its own parse, plus a final newline."""
    argv = [a.format(model=model_path, broken=broken_path) for a in argv]
    assert main(argv) == code
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), sort_keys=True, indent=1) + "\n"


def test_a_cold_process_reports_the_bytes_of_a_warm_one(tmp_path, capsys):
    """The golden dense report from a fresh process, whose contraction
    plans are all compiled on the spot, equals an in-process report made
    after other reports (one of the same dimension) filled the plans."""
    path = tmp_path / "dense.txt"
    path.write_text(serialize_model(_dense_model()))
    cold = _run([sys.executable, "-m", "norden", "report", str(path), "--json"])
    assert cold.returncode == EXIT_OK, cold.stderr
    for n, lam in enumerate(("2,3", "1,-1/2,3,2", "1,2,-3/2,1/3,0,-1"), start=1):
        other = tmp_path / f"family-{n}.txt"
        assert main(["family", "--n", str(n), "--lambda", lam,
                     "--emit-model", str(other), "--quiet"]) == EXIT_OK
        assert main(["report", str(other), "--json", "--quiet"]) == EXIT_OK
    assert main(["report", str(path), "--json"]) == EXIT_OK
    warm = capsys.readouterr().out
    assert warm == cold.stdout
    assert _sha256(warm.removesuffix("\n")) == GOLDEN["dense"][0]


def test_the_parser_is_built_once_and_behaves_as_a_fresh_one(monkeypatch, capsys):
    builds = []
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build_parser())
    cli._parser.cache_clear()
    for argv, code in ((["--help"], EXIT_OK), (["report"], EXIT_INPUT),
                       (["family", "--n", "x", "--lambda", "1,2"], EXIT_INPUT)):
        with pytest.raises(SystemExit) as once:
            main(argv)
        got = capsys.readouterr()
        with pytest.raises(SystemExit) as fresh:
            build_parser().parse_args(argv)
        assert once.value.code == fresh.value.code == code
        assert got == capsys.readouterr()
    assert main(["family", "--n", "1", "--lambda", "2,3", "--quiet"]) == EXIT_OK
    assert builds == [1]


def test_module_entry_point_runs():
    proc = _run([sys.executable, "-m", "norden", "--help"])
    assert proc.returncode == 0
    for sub in ("validate", "report", "family", "identities", "section"):
        assert sub in proc.stdout


def _declared_script_command(name):
    """A command that runs ``[project.scripts].<name>`` from pyproject.toml
    the way a generated console-script wrapper does."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python < 3.11
        tomllib = pytest.importorskip("tomli")
    with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"][name]
    module, _, attr = target.partition(":")
    code = (
        "import sys\n"
        f"from {module} import {attr}\n"
        f"sys.argv[0] = {name!r}\n"
        f"sys.exit({attr}())\n"
    )
    return [sys.executable, "-c", code]


def _round_trip(command, tmp_path):
    """family --emit-model | validate, then a missing file for exit code 2."""
    path = tmp_path / "m.json"
    gen = _run(command + ["family", "--n", "2", "--lambda", "1,0,0,2",
                          "--json", "--emit-model", str(path)])
    assert gen.returncode == EXIT_OK, gen.stderr
    check = _run(command + ["validate", str(path), "--quiet"])
    assert check.returncode == EXIT_OK, check.stderr
    missing = _run(command + ["validate", str(tmp_path / "missing.json"),
                              "--quiet"])
    assert missing.returncode == EXIT_INPUT, missing.stderr


def test_console_script_round_trip(tmp_path):
    """family --emit-model | validate through the declared console script."""
    _round_trip(_declared_script_command("norden"), tmp_path)


@pytest.mark.skipif(shutil.which("norden") is None,
                    reason="norden console script not installed")
def test_installed_console_script_round_trip(tmp_path):
    """The same round trip through the installed ``norden`` executable."""
    _round_trip([shutil.which("norden")], tmp_path)
