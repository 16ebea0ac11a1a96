"""The norden benchmark: seeded model files run through ``norden.cli.main``.

Usage (from the repository root)::

    python3 benchmarks/run.py --workload family_sparse --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 30

One op is one in-process ``norden.cli.main([...])`` call on one model file
with stdout captured: file read, parse, validate, report, render and exit
code.  A single client drives the ops in a closed loop (the next op starts
when the previous one ends), with no other threads or processes.  The pool
of model files is generated from ``--seed`` before timing starts and never
repeats a model, so an in-library memo cannot flatter the numbers; the
measured phase ends at ``--seconds`` or when the pool runs out.  Every
output is checked against oracles computed here, without the library.

``--trace 0`` prints the end-to-end metrics:

* ``setup_s``: import, generating and validating the pool, writing the
  files and one warm-up op, counted in reference loops (see below) and
  scaled to seconds at ``REFERENCE_NOMINAL_S`` per loop;
* ``op_p50_rel`` and ``ops_per_ref``: the median op latency and the op
  throughput, with each op's time counted in units of a fixed reference
  loop timed around it (see :func:`reference_seconds`);
* ``peak_rss_mb``: the peak resident set of this process.

It also prints the set-up time, latency and throughput in plain seconds
(``setup_raw_s``, ``op_p50_s``, ``ops_per_s``) and ``failed_frac``, the
share of ops whose exit code or output failed its oracle.  ``--trace 1``
instead calls the public entry point of each ``src/norden`` module one at
a time on each op's model, records a span around every call, writes the
spans to ``benchmarks/_work/`` when the run ends and prints the per-layer
metrics.  The last line of
stdout is always one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from random import Random

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = BENCH_DIR / "_work"
SETUP_SLICES = 4


@dataclass(frozen=True)
class Workload:
    name: str
    n: int             # half-dimension: dim = 2n + 1
    # Distinct model files, a multiple of SETUP_SLICES: 1.5-2 times the ops one
    # run completes on a 2-vCPU virtual machine.  A faster program uses the
    # pool up, and the run ends early rather than repeat a model.
    pool: int
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "family_sparse", 6, 24,
            "family members in their own basis, report --json: Gamma is ~0.5% dense, "
            "so curvature, identities, run_report's recomputation and JSON render dominate",
        ),
        Workload(
            "dense_basis", 3, 40,
            "family members moved by a rational non-unimodular basis change, report as "
            "text: every tensor is dense and Fraction/gcd work dominates",
        ),
        Workload(
            "validate_mix", 5, 48,
            "dense models through validate --json: valid text and JSON files, one-axiom "
            "mutants (exit 1) and malformed files (exit 2); parse, Jacobi, axioms, signature",
        ),
    )
}

# validate_mix cycles through this pattern of kinds; each slice of its pool
# holds it a whole number of times.  Valid files alternate between the text
# and JSON formats from one cycle to the next, mutants within a cycle.
VALIDATE_PATTERN = ("valid", "mutant", "mutant", "malformed", "mutant", "mutant")


@dataclass
class Case:
    """One pool entry: a model file, the CLI arguments that run it and what
    a correct run must show."""

    kind: str                   # "report", "valid", "mutant" or "malformed"
    path: Path
    argv: list[str]
    expect: dict = field(default_factory=dict)
    reject_path: Path | None = None   # a one-axiom mutant, timed by the trace


# --------------------------------------------------------------------------
# Pool generation


def _write(path: Path, text: str) -> Path:
    path.write_text(text, encoding="utf-8")
    return path


def _fresh_lambda(models, rng: Random, n: int, seen: set):
    for _ in range(1000):
        lam = models.random_lambda(rng, n)
        if lam not in seen:
            seen.add(lam)
            return lam
    raise RuntimeError(f"cannot draw another distinct model at n={n}")


def _check_valid(lib, path: Path) -> None:
    report = lib.validate_structure(lib.parse_model(path.read_text(), require_valid=False))
    if not report.ok:
        raise RuntimeError(f"generator produced an invalid model {path.name}: {report}")


def build_cases(models, lib, workload: Workload, rng: Random, count: int, start: int,
                out: Path, seen: set, trace: bool) -> list[Case]:
    """Generate, check and write ``count`` cases numbered from ``start``.

    Every valid model goes through ``validate_structure`` here; a failure
    means the generator is wrong and aborts the run.  With ``trace``, each
    report case also gets a one-axiom mutant for the reject-path span.
    """
    mutations = list(models.MUTATIONS)
    cases = []
    for i in range(start, start + count):
        lam = _fresh_lambda(models, rng, workload.n, seen)
        basis = None if workload.name == "family_sparse" else \
            models.random_basis_change(rng, 2 * workload.n + 1)

        def place(mutation=None):
            s = models.family_structure(lam, mutation)
            return s if basis is None else models.change_basis(s, *basis)

        tag = f"{workload.name} #{i}"
        if workload.name != "validate_mix":
            path = _write(out / f"m{i:03d}.txt", models.to_text(place(), tag))
            _check_valid(lib, path)
            flags = ["--json"] if workload.name == "family_sparse" else []
            case = Case("report", path, ["report", str(path)] + flags,
                        models.expected_invariants(lam))
            if trace:
                mutated = place(mutations[i % len(mutations)])
                case.reject_path = _write(out / f"r{i:03d}.txt",
                                          models.to_text(mutated, tag + " mutant"))
            cases.append(case)
            continue

        cycle, p = divmod(i, len(VALIDATE_PATTERN))
        kind = VALIDATE_PATTERN[p]
        slot = VALIDATE_PATTERN[:p].count(kind)
        render = (models.to_text, models.to_json)[(cycle + slot) % 2]
        expect = {}
        if kind == "malformed":
            bad = models.MALFORMED[cycle % len(models.MALFORMED)]
            path = _write(out / f"m{i:03d}-{bad}", models.malformed(place(), tag, bad))
        elif kind == "mutant":
            per_cycle = VALIDATE_PATTERN.count("mutant")
            mutation = mutations[(per_cycle * cycle + slot) % len(mutations)]
            path = _write(out / f"m{i:03d}-{mutation}", render(place(mutation), tag))
            expect = {"rule": models.MUTATIONS[mutation]}
        else:
            path = _write(out / f"m{i:03d}", render(place(), tag))
            _check_valid(lib, path)
        cases.append(Case(kind, path, ["validate", str(path), "--json"], expect))
    return cases


# --------------------------------------------------------------------------
# Oracles: checks that do not use the library


def _check_report_json(out: str, expect: dict) -> bool:
    obj = json.loads(out)
    inv = obj["invariants"]
    return (
        obj["classes"]["f11"] is True
        and Fraction(inv["tau"]) == expect["tau"]
        and Fraction(inv["tau_star"]) == expect["tau_star"]
        and not any(v["applicable"] and v["passed"] is False
                    for v in obj["identities"].values())
    )


def _check_report_text(out: str, expect: dict) -> bool:
    lines = out.splitlines()
    inv_start = lines.index("invariants:")
    inv_end = lines.index("", inv_start)
    inv = dict(line.strip().split(" = ", 1) for line in lines[inv_start + 1:inv_end])
    ids_start = lines.index("identities:")
    ids = lines[ids_start + 1:lines.index("", ids_start)]
    classes = next(line for line in lines if line.startswith("classes:"))
    return (
        "F11 = yes" in classes
        and Fraction(inv["tau"]) == expect["tau"]
        and Fraction(inv["tau_star"]) == expect["tau_star"]
        and any("[pass]" in line for line in ids)
        and not any("[FAIL]" in line for line in ids)
    )


def check(case: Case, code, out: str) -> bool:
    """Whether one op's exit code and stdout are what the case demands."""
    try:
        if case.kind == "report":
            if code != 0:
                return False
            if "--json" in case.argv:
                return _check_report_json(out, case.expect)
            return _check_report_text(out, case.expect)
        if case.kind == "valid":
            return code == 0 and json.loads(out) == {"valid": True, "violations": []}
        if case.kind == "mutant":
            obj = json.loads(out)
            rules = {v["rule"] for v in obj["violations"]}
            return code == 1 and obj["valid"] is False and case.expect["rule"] in rules
        return code == 2 and out == ""
    except (ValueError, KeyError, StopIteration, TypeError):
        return False


# --------------------------------------------------------------------------
# Ops


def run_op(cli, argv: list[str]):
    """One op: ``cli.main(argv)`` with stdout and stderr captured.

    Returns ``(exit code or None if it raised, stdout, seconds)``.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:
            code = None
            traceback.print_exc()
        dt = time.perf_counter() - t0
    if code is None:
        sys.stderr.write(f"op {argv} raised:\n{err.getvalue()}")
    return code, out.getvalue(), dt


class Tracer:
    """Spans kept in memory: name, start, end, parent span and op id, plus
    any counts recorded at the same boundary."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.op = 0

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {"name": name, "op": self.op,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None}
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()


def _nnz(arr) -> int:
    return sum(1 for v in arr.flat if v != 0)


def _max_entry_bits(report) -> int:
    bits = 0
    values = list(report.invariants.values())
    for t in report.tensors.values():
        values.extend(t.components.flat)
    for v in values:
        f = Fraction(v)
        bits = max(bits, abs(f.numerator).bit_length(), f.denominator.bit_length())
    return bits


def trace_report_layers(lib, tracer: Tracer, model) -> None:
    """The report path, one public entry point per span, in ``run_report``'s
    order, then ``run_report`` whole and both renderers."""
    with tracer.span("connection.levi_civita") as s:
        conn = lib.levi_civita(model)
    s["gamma_nnz"] = _nnz(conn.gamma.components)
    with tracer.span("fundamental.structure_pack"):
        pack = lib.structure_pack(model, conn)
    with tracer.span("curvature.riemann") as s:
        curv = lib.riemann(model, conn)
    s["r13_nnz"] = _nnz(curv.r13.components)
    with tracer.span("classify.verify_identities") as s:
        verdicts = lib.verify_identities(model, conn=conn, pack=pack, curv=curv)
    s["applicable"] = sum(v.applicable for v in verdicts.values())
    s["passed"] = sum(bool(v.passed) for v in verdicts.values())
    with tracer.span("fundamental.square_norms"):
        lib.square_norms(model, conn, pack=pack)
    with tracer.span("report.run_report") as s:
        report = lib.run_report(model)
    s["max_entry_bits"] = _max_entry_bits(report)
    with tracer.span("report.render_json"):
        lib.report_to_json(report)
    with tracer.span("report.render_text"):
        lib.report_to_text(report)


def trace_validate_layers(lib, tracer: Tracer, text: str, valid: bool):
    """Parse without validation, then each validation layer on its own."""
    with tracer.span("modelfile.parse") as s:
        try:
            model = lib.parse_model(text, require_valid=False)
        except lib.NordenError:
            model = None
    s["input_bytes"] = len(text.encode("utf-8"))
    if model is None:
        return None
    with tracer.span("lie.validate"):
        lib.validate(model.algebra)
    with tracer.span("structures.validate" if valid else "structures.validate_reject") as s:
        report = lib.validate_structure(model)
    s["violations"] = len(report.violations)
    with tracer.span("tensors.invert_symmetric"):
        try:
            lib.invert_symmetric(model.g)
        except lib.NordenError:
            pass
    with tracer.span("tensors.signature"):
        lib.signature(model.g)
    return model


def trace_op(lib, cli, tracer: Tracer, case: Case) -> bool:
    """One traced op: the op untraced, the op inside a ``cli.main`` span,
    then every layer on the same model.  Returns the oracle's verdict."""
    code, out, untraced = run_op(cli, case.argv)
    with tracer.span("op") as op:
        op.update(untraced_s=untraced, kind=case.kind, json="--json" in case.argv)
        with tracer.span("cli.main") as s:
            code2, out2, _ = run_op(cli, case.argv)
        s["output_bytes"] = len(out2.encode("utf-8"))
        model = trace_validate_layers(lib, tracer, case.path.read_text(), case.kind != "mutant")
        if case.kind == "report":
            trace_report_layers(lib, tracer, model)
            trace_validate_layers(lib, tracer, case.reject_path.read_text(), False)
    tracer.op += 1
    return check(case, code, out) and check(case, code2, out2)


# Per-layer metrics: (name, unit, span, field).  A timing is the median
# over ops of the span's duration; a count is the median of the field.
LAYER_METRICS = (
    ("modelfile.parse_s", "s", "modelfile.parse", None),
    ("modelfile.input_bytes", "bytes", "modelfile.parse", "input_bytes"),
    ("lie.validate_s", "s", "lie.validate", None),
    ("structures.validate_s", "s", "structures.validate", None),
    ("structures.validate_reject_s", "s", "structures.validate_reject", None),
    ("structures.violations", "count", "structures.validate_reject", "violations"),
    ("tensors.invert_symmetric_s", "s", "tensors.invert_symmetric", None),
    ("tensors.signature_s", "s", "tensors.signature", None),
    ("connection.levi_civita_s", "s", "connection.levi_civita", None),
    ("connection.gamma_nnz", "count", "connection.levi_civita", "gamma_nnz"),
    ("fundamental.structure_pack_s", "s", "fundamental.structure_pack", None),
    ("fundamental.square_norms_s", "s", "fundamental.square_norms", None),
    ("curvature.riemann_s", "s", "curvature.riemann", None),
    ("curvature.r13_nnz", "count", "curvature.riemann", "r13_nnz"),
    ("classify.verify_identities_s", "s", "classify.verify_identities", None),
    ("classify.identities_applicable", "count", "classify.verify_identities", "applicable"),
    ("classify.identities_passed", "count", "classify.verify_identities", "passed"),
    ("report.run_report_s", "s", "report.run_report", None),
    ("report.render_json_s", "s", "report.render_json", None),
    ("report.render_text_s", "s", "report.render_text", None),
    ("report.output_bytes", "bytes", "cli.main", "output_bytes"),
    ("report.max_entry_bits", "bits", "report.run_report", "max_entry_bits"),
    ("cli.main_s", "s", "cli.main", None),
)
RUN_REPORT_PARTS = ("connection.levi_civita", "fundamental.structure_pack",
                    "curvature.riemann", "classify.verify_identities",
                    "fundamental.square_norms")


# The modules each workload was chosen to load; their summed share of the
# op is printed with the trace, to confirm the workload design.
DESIGN_SHARES = {
    "family_sparse": ("curvature", "classify", "report.recompute"),
    "dense_basis": ("curvature", "classify", "report.recompute"),
    "validate_mix": ("modelfile", "lie", "structures", "tensors"),
}


def _per_op(spans: list[dict]) -> list[dict]:
    """One ``{span name: seconds, span name + ':' + field: value}`` dict per
    op.  Only the first span of a name per op is kept: report ops run the
    validation layers twice, the second time on the mutant."""
    ops: dict[int, dict] = {}
    for s in spans:
        rec = ops.setdefault(s["op"], {})
        if s["name"] in rec:
            continue
        rec[s["name"]] = s["end"] - s["start"]
        for k, v in s.items():
            if k not in ("name", "op", "parent", "start", "end"):
                rec[f"{s['name']}:{k}"] = v
    return list(ops.values())


def _module_times(op: dict) -> dict:
    """Self time per module inside one traced ``cli.main`` op, from the
    layer spans.  ``cli`` is the rest: argument parsing, JSON re-encoding
    and printing.  ``validate_structure`` contains ``lie.validate`` and
    ``signature``; ``run_report`` contains the five report layers."""
    kind = op["op:kind"]
    m = {"modelfile": op["modelfile.parse"]}
    if kind != "malformed":
        validated = op["structures.validate_reject" if kind == "mutant"
                       else "structures.validate"]
        m["lie"] = op["lie.validate"]
        m["tensors"] = op["tensors.signature"]
        m["structures"] = validated - m["lie"] - m["tensors"]
    if kind == "report":
        render = op["report.render_json" if op["op:json"] else "report.render_text"]
        m["connection"] = op["connection.levi_civita"]
        m["fundamental"] = op["fundamental.structure_pack"] + op["fundamental.square_norms"]
        m["curvature"] = op["curvature.riemann"]
        m["classify"] = op["classify.verify_identities"]
        m["report.recompute"] = _recompute(op)
        m["report.render"] = render
    m["cli"] = op["cli.main"] - sum(m.values())
    return m


def _recompute(op: dict) -> float:
    return op["report.run_report"] - sum(op[p] for p in RUN_REPORT_PARTS)


def layer_metrics(ops: list[dict]) -> dict:
    """Per-layer metrics from the traced ops: ``{name: (value, unit)}``."""
    def med(values):
        values = list(values)
        return statistics.median(values) if values else None

    out = {}
    for name, unit, span, fld in LAYER_METRICS:
        key = span if fld is None else f"{span}:{fld}"
        out[name] = (med(op[key] for op in ops if key in op), unit)
    cli_ops = [op for op in ops if "cli.main" in op]
    out["report.recompute_s"] = (med(_recompute(op) for op in ops
                                     if "report.run_report" in op), "s")
    out["cli.overhead_s"] = (med(_module_times(op)["cli"] for op in cli_ops), "s")
    out["trace.overhead_s"] = (med(op["cli.main"] - op["op:untraced_s"] for op in cli_ops), "s")
    return out


def module_shares(ops: list[dict]) -> dict:
    """Median share of the traced ``cli.main`` time per module."""
    per_op = [_module_times(op) for op in ops if "cli.main" in op]
    per_op = [{k: v / sum(m.values()) for k, v in m.items()} for m in per_op]  # sum = cli.main
    names = sorted({k for m in per_op for k in m})
    return {k: statistics.median(m.get(k, 0.0) for m in per_op) for k in names}


# --------------------------------------------------------------------------
# The run


def _import_library():
    """Import the library from this checkout's ``src/`` and nowhere else."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    import norden
    from norden import cli

    if not Path(norden.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"norden was imported from {norden.__file__}, not {ROOT / 'src'}")
    return norden, cli


#: ``reference_seconds()`` on an idle core of the 2.1 GHz 2-vCPU virtual
#: machine the bounds were set on.  ``setup_s`` is scaled to it.
REFERENCE_NOMINAL_S = 0.030

_REFERENCE = [[Fraction(7 * i + 3 * j + 1, (i + 2 * j) % 5 + 1) for j in range(12)]
              for i in range(12)]


def reference_seconds() -> float:
    """Wall time of a fixed exact computation that does not use the
    library: six products with a 12x12 Fraction matrix, the kind of work
    the library spends its time on.

    On a shared machine (a 2-vCPU virtual machine, in our measurements) the
    speed of such work drifts by up to a factor of two over tens of seconds.
    Timing this loop next to the work measures that drift, and
    ``work / reference`` cancels it.
    """
    t0 = time.perf_counter()
    cols = list(zip(*_REFERENCE))
    x = _REFERENCE
    for _ in range(6):
        x = [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in x]
        x = [[Fraction(v.numerator % 1000003, v.denominator % 997 + 1) for v in row]
             for row in x]
    return time.perf_counter() - t0


def _between_references(fn):
    """Run ``fn`` between two reference loops.  Returns ``(result, seconds,
    seconds in units of the mean reference loop)``."""
    r0 = reference_seconds()
    t0 = time.perf_counter()
    result = fn()
    dt = time.perf_counter() - t0
    return result, dt, dt * 2 / (r0 + reference_seconds())


def setup(workload: Workload, seed: int, trace: bool, work: Path):
    """Import the library, build the pool in equal slices and warm up.

    Returns ``(library, cli, cases, warm-up case, seconds, reference units)``
    for the whole set-up: the import, ``SETUP_SLICES`` times the median
    slice (so one stalled slice does not move it) and the warm-up op.
    """
    def load():
        lib, cli = _import_library()
        import models
        return lib, cli, models

    (lib, cli, models), import_s, import_rel = _between_references(load)
    rng = Random(f"{workload.name}/{seed}")
    seen: set = set()
    per_slice = workload.pool // SETUP_SLICES
    cases, slice_s, slice_rel = [], [], []
    for k in range(SETUP_SLICES):
        batch, dt, rel = _between_references(lambda: build_cases(
            models, lib, workload, rng, per_slice, k * per_slice, work, seen, trace))
        cases += batch
        slice_s.append(dt)
        slice_rel.append(rel)

    def warm_up():
        (work / "warmup").mkdir()
        small = Workload(workload.name, 1, 1, workload.why)
        warm = build_cases(models, lib, small, Random(f"warmup/{seed}"), 1, 0,
                           work / "warmup", seen, trace)[0]
        code, out, _ = run_op(cli, warm.argv)
        if not check(warm, code, out):
            raise RuntimeError(f"warm-up op failed its oracle: {warm.argv}")
        return warm

    warm, warm_s, warm_rel = _between_references(warm_up)
    seconds = import_s + SETUP_SLICES * statistics.median(slice_s) + warm_s
    relative = import_rel + SETUP_SLICES * statistics.median(slice_rel) + warm_rel
    return lib, cli, cases, warm, seconds, relative


def measure(lib, cli, cases: list[Case], seconds: float, tracer: Tracer | None):
    """The closed loop.  Untraced, a reference loop runs before the first op
    and after every op, outside the op's timing.

    Returns ``(op seconds, reference seconds, attempted, failed, wall)``
    where ``wall`` excludes the reference loops.
    """
    latencies, refs, attempted, failed = [], [], 0, 0
    t0 = time.perf_counter()
    deadline = t0 + seconds
    if tracer is None:
        refs.append(reference_seconds())
    for case in cases:
        if time.perf_counter() >= deadline:
            break
        attempted += 1
        if tracer is not None:
            ok = trace_op(lib, cli, tracer, case)
        else:
            code, out, dt = run_op(cli, case.argv)
            latencies.append(dt)
            ok = check(case, code, out)
            refs.append(reference_seconds())
        failed += not ok
    return latencies, refs, attempted, failed, time.perf_counter() - t0 - sum(refs)


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 tamper=None) -> dict:
    """Set up, measure and print one workload; returns the result object.

    ``tamper``, if given, is applied to the pool before timing; the smoke
    test uses it to plant a wrong expectation.
    """
    work = WORK_DIR / f"{workload.name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        lib, cli, cases, warm, setup_raw_s, setup_rel = setup(workload, seed, trace, work)
        if tamper is not None:
            tamper(cases)
        import numpy

        print(f"# norden benchmark: workload={workload.name} seed={seed} "
              f"seconds={seconds:g} trace={int(trace)}")
        print(f"# python={platform.python_version()} numpy={numpy.__version__} "
              f"nproc={os.cpu_count()} dim={2 * workload.n + 1} pool={len(cases)}")
        print(f"# why: {workload.why}")
        tracer = Tracer() if trace else None
        latencies, refs, attempted, failed, wall = measure(lib, cli, cases, seconds, tracer)
        if attempted == len(cases):
            print(f"# the pool ran out before {seconds:g} s")
        if trace:
            metrics = report_trace(lib, workload, seed, tracer, warm)
        else:
            # Each op relative to the mean of the reference loops around it.
            rel = [op * 2 / (refs[i] + refs[i + 1]) for i, op in enumerate(latencies)]
            metrics = {
                "setup_s": (setup_rel * REFERENCE_NOMINAL_S, "s"),
                "op_p50_rel": (statistics.median(rel), "ref"),
                "ops_per_ref": (attempted / sum(rel), "1/ref"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
            shown = dict(metrics, setup_raw_s=(setup_raw_s, "s"),
                         op_p50_s=(statistics.median(latencies), "s"),
                         ops_per_s=(attempted / wall, "1/s"),
                         reference_s=(statistics.median(refs), "s"),
                         failed_frac=(failed / attempted, "ratio"))
            for name, (value, unit) in shown.items():
                print(f"{name:14s} {value:12.4f} {unit}")
            print(f"# {len(latencies)} ops, {failed} failed; op_p50_rel and ops_per_ref count "
                  "op time in reference loops (reference_s each); setup_s is set-up time in "
                  f"reference loops times {REFERENCE_NOMINAL_S} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def report_trace(lib, workload: Workload, seed: int, tracer: Tracer, warm: Case) -> dict:
    """Write the spans, print module shares and return the per-layer metrics."""
    if workload.name == "validate_mix":
        # The report layers are not on this workload's op path.  Time them
        # once, on the warm-up model, so that every layer is measured.
        with tracer.span("op"):
            trace_report_layers(lib, tracer, lib.parse_model(warm.path.read_text()))
    ops = _per_op(tracer.spans)
    shares = module_shares(ops)
    spans_file = WORK_DIR / f"spans-{workload.name}-{seed}.json"
    spans_file.write_text(json.dumps({"workload": workload.name, "seed": seed,
                                      "module_shares": shares, "spans": tracer.spans}))
    print(f"# spans: {spans_file.relative_to(ROOT)} ({len(tracer.spans)} spans)")
    print("# median share of the traced cli.main op: "
          + ", ".join(f"{k} {v:.3f}" for k, v in sorted(shares.items(), key=lambda kv: -kv[1])))
    design = DESIGN_SHARES[workload.name]
    print(f"# {' + '.join(design)} = {sum(shares.get(k, 0.0) for k in design):.3f} of the op")
    metrics = {}
    for name, (value, unit) in layer_metrics(ops).items():
        metrics[name] = (value if value is not None else 0, unit)
        print(f"{name:34s} {'-' if value is None else format(value, '.6g'):>12s} {unit}")
    return metrics


def run_all(args) -> int:
    """Every workload, each in its own process, then one summary table."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        print(proc.stdout, end="")
        if proc.returncode != 0:
            print(f"# {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.splitlines()[-1])
    for name, res in results.items():
        cells = [f"{k} {m['value']:.4g} {m['unit']}" for k, m in res["metrics"].items()]
        cells.append(f"failed_frac {res['failed'] / res['attempted']:.4g} ratio")
        print(f"# {name}: " + ", ".join(cells))
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                              bool(args.trace))
    except ImportError as exc:
        print(f"cannot import the library from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
