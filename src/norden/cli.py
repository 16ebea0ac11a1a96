"""Command-line interface.

Subcommands::

    norden validate <model>                 check a model file
    norden report <model>                   full geometry report
    norden identities <model>               identity verdicts only
    norden family --n N --lambda a,b,...    generate a family member
    norden section <model> --x .. --y ..    classify a 2-plane

``--json`` switches output to JSON, ``--quiet`` suppresses output and
leaves only the exit code.  Exit codes: 0 = success / all applicable
checks pass; 1 = validation or identity failure; 2 = input error
(unreadable file, parse error, bad parameters); 141 = the reader of
stdout closed it early (128 + SIGPIPE, as for ``norden report m | head -1``).
"""
from __future__ import annotations

import argparse
import functools
import os
import re
import sys
from fractions import Fraction

from .canonical import canonical_json
from .errors import (
    BadParams,
    LinearlyDependent,
    NordenError,
    ParseError,
    ValidationError,
)
from .family import FamilyParams, generate_family
from .geometry import Geometry, section
from .modelfile import parse_model, serialize_model
from .report import (
    _report_object,
    all_identities_ok,
    report_to_text,
    run_report,
    verdict_line,
    verdicts_json,
)
from .structures import AcnModel, validate_structure
from .tensors import as_scalar, format_scalar

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_PIPE = 141

#: Options whose value is a comma-separated list that may start with a
#: minus sign, such as ``--x -1,0,0``.
_LIST_OPTIONS = ("--x", "--y", "--lambda")
_NEGATIVE = re.compile(r"-[\d./]")


class _CliFailure(Exception):
    def __init__(self, code: int, message: str):
        self.code = code
        self.message = message


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:     # drops one leading BOM
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise _CliFailure(EXIT_INPUT, f"cannot read {path}: {exc}")


def _load_model(path: str, require_valid: bool = True) -> AcnModel:
    text = _read_file(path)
    try:
        return parse_model(text, require_valid=require_valid)
    except ParseError as exc:
        raise _CliFailure(EXIT_INPUT, f"{path}: {exc}")


def _parse_vector(text: str, what: str) -> list[Fraction]:
    try:
        return [as_scalar(tok) for tok in text.split(",")]
    except (ValueError, TypeError) as exc:
        raise _CliFailure(EXIT_INPUT, f"bad {what} vector {text!r}: {exc}")


def _emit(args, text, json_obj) -> None:
    """Print the requested format, as every command does: ``text()`` or
    ``json_obj()`` as canonical JSON; neither is built under ``--quiet``."""
    if args.quiet:
        return
    if args.json:
        print(canonical_json(json_obj()))
    else:
        text_output = text()
        print(text_output, end="" if text_output.endswith("\n") else "\n")


def _validity_json(report) -> dict:
    """The ``--json`` object of a validation report, as ``validate``
    prints it and ``report`` and ``identities`` print it for an invalid
    model."""
    return {"valid": report.ok, "violations": report.violations}


def _cmd_validate(args) -> int:
    model = _load_model(args.model, require_valid=False)
    report = validate_structure(model)
    _emit(args, lambda: str(report), lambda: _validity_json(report))
    return EXIT_OK if report.ok else EXIT_FAIL


def _run_validated(args) -> AcnModel:
    try:
        return _load_model(args.model, require_valid=True)
    except ValidationError as exc:
        if args.json:
            _emit(args, None, lambda: _validity_json(exc.report))
        elif not args.quiet:
            print(str(exc.report), file=sys.stderr)
        raise _CliFailure(EXIT_FAIL, "")


def _cmd_report(args) -> int:
    model = _run_validated(args)
    report = run_report(model)
    _emit(args, lambda: report_to_text(report), lambda: _report_object(report))
    return EXIT_OK if all_identities_ok(report) else EXIT_FAIL


def _cmd_identities(args) -> int:
    model = _run_validated(args)
    verdicts = Geometry(model).identities
    _emit(args,
          lambda: "\n".join(verdict_line(name, v) for name, v in verdicts.items()) + "\n",
          lambda: verdicts_json(verdicts))
    return EXIT_OK if all(v.ok for v in verdicts.values()) else EXIT_FAIL


def _cmd_family(args) -> int:
    try:
        lam = [as_scalar(tok) for tok in args.lam.split(",")]
        params = FamilyParams(n=args.n, lam=tuple(lam))
    except (BadParams, ValueError, TypeError) as exc:
        raise _CliFailure(EXIT_INPUT, f"bad family parameters: {exc}")
    model = generate_family(params)
    fmt = "json" if args.json else "text"
    serialized = serialize_model(model, fmt=fmt)
    if args.emit_model:
        try:
            with open(args.emit_model, "w", encoding="utf-8") as fh:
                fh.write(serialized)
        except OSError as exc:
            raise _CliFailure(EXIT_INPUT, f"cannot write {args.emit_model}: {exc}")
        if not args.quiet:
            print(f"wrote {args.emit_model}")
    elif not args.quiet:
        print(serialized, end="")
    return EXIT_OK


def _cmd_section(args) -> int:
    model = _run_validated(args)
    x = _parse_vector(args.x, "x")
    y = _parse_vector(args.y, "y")
    try:
        plane = section(model, Geometry(model).conn, x, y)
    except LinearlyDependent as exc:
        raise _CliFailure(EXIT_INPUT, str(exc))
    obj = {**vars(plane), "note": None}
    if plane.sectional_curvature is None:
        obj["note"] = "restricted metric is degenerate; no sectional curvature"
    else:
        obj["sectional_curvature"] = format_scalar(plane.sectional_curvature)
    _emit(args,
          lambda: "".join(f"{key}: {'undefined' if value is None else value}\n"
                          for key, value in obj.items() if value is not None or key != "note"),
          lambda: obj)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="norden",
        description="Exact tensor calculus for left-invariant almost contact "
                    "structures with Norden metric.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output_flags(p):
        p.add_argument("--json", action="store_true", help="emit JSON instead of text")
        p.add_argument("--quiet", action="store_true",
                       help="suppress output; use the exit code only")

    for name, help_text, func in (
            ("validate", "validate a model file", _cmd_validate),
            ("report", "full geometry report for a model file", _cmd_report),
            ("identities", "verify exact identities on a model", _cmd_identities)):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("model", help="path to a model file (text or JSON)")
        add_output_flags(p)
        p.set_defaults(func=func)

    p = sub.add_parser("family", help="generate a member of the built-in family")
    p.add_argument("--n", type=int, required=True, help="half-dimension (dim = 2n+1)")
    p.add_argument("--lambda", dest="lam", required=True,
                   help="comma-separated rational coefficients, e.g. 2,3 or 1/2,-3")
    p.add_argument("--emit-model", metavar="PATH",
                   help="write the model file here instead of stdout")
    add_output_flags(p)
    p.set_defaults(func=_cmd_family)

    p = sub.add_parser("section", help="classify a 2-plane and compute its curvature")
    p.add_argument("model", help="path to a model file (text or JSON)")
    p.add_argument("--x", required=True, help="first spanning vector, e.g. 1,0,0")
    p.add_argument("--y", required=True, help="second spanning vector, e.g. 0,1,0")
    add_output_flags(p)
    p.set_defaults(func=_cmd_section)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of this process: built on the first call to :func:`main`."""
    return build_parser()


def _attach_list_values(argv: list[str]) -> list[str]:
    """``argv`` with each list option (or an abbreviation of one) and a
    value that starts with a minus sign joined into one ``--x=-1,0,0``
    token: argparse takes a separate ``-1,0,0`` for an option."""
    out: list[str] = []
    for token in argv:
        option = out[-1] if out else ""
        if (len(option) > 2 and any(name.startswith(option) for name in _LIST_OPTIONS)
                and _NEGATIVE.match(token)):
            out[-1] = f"{option}={token}"
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    args = _parser().parse_args(_attach_list_values(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except _CliFailure as exc:
        if exc.message and not args.quiet:
            print(exc.message, file=sys.stderr)
        return exc.code
    except NordenError as exc:
        if not args.quiet:
            print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entry_point() -> None:
    """The console script and ``python -m norden``: :func:`main`, whose
    output is flushed here, so a reader that closed stdout early ends
    the run with :data:`EXIT_PIPE` and nothing on stderr."""
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The flush at exit would fail again: stdout now writes nowhere.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_PIPE
    sys.exit(code)


if __name__ == "__main__":
    entry_point()
