"""Smoke test of the benchmark at n = 1 on every workload.

Run from the repository root::

    python3 benchmarks/smoke.py

For each workload it checks that an untraced run emits every end-to-end
metric of ``BENCHMARK.json``, prints the plain-seconds metrics and
``failed_frac`` with their units and fails no op, and that a traced run
emits every per-layer metric with its unit.  It also checks that the
oracles catch a wrong answer: a pool whose expected ``tau`` is
deliberately wrong must give ``failed_frac > 0``, for the JSON report
(``family_sparse``) and for the text report (``dense_basis``).
Exits 0 when every check holds.
"""
from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import re
import sys

import run

SEED = 1
SECONDS = 2.0
# Printed by every untraced run beside the end-to-end metrics.
PRINTED = {"setup_raw_s": "s", "op_p50_s": "s", "ops_per_s": "1/s",
           "reference_s": "s", "failed_frac": "ratio"}


def _run(name: str, trace: bool, tamper=None) -> tuple[dict, str]:
    workload = dataclasses.replace(run.WORKLOADS[name], n=1, pool=run.SETUP_SLICES)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        result = run.run_workload(workload, SEED, SECONDS, trace, tamper)
    return result, out.getvalue()


def _units(result: dict) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def _wrong_tau(cases) -> None:
    cases[0].expect["tau"] += 1


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []

    def expect(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            problems.append(what)

    for name in run.WORKLOADS:
        result, text = _run(name, trace=False)
        expect(_units(result) == end_to_end, f"{name}: end-to-end metrics and units")
        missing = [m for m, unit in PRINTED.items()
                   if not re.search(rf"^{m} +\S+ {re.escape(unit)}$", text, re.M)]
        expect(not missing, f"{name}: plain metrics printed with units"
                            + (f", missing {missing}" if missing else ""))
        expect(result["attempted"] >= 1 and result["failed"] == 0, f"{name}: no op failed")
        result, _ = _run(name, trace=True)
        expect(_units(result) == per_layer, f"{name}: per-layer metrics and units")
        expect(result["failed"] == 0, f"{name}: traced ops pass their oracles")
    for name in ("family_sparse", "dense_basis"):
        result, _ = _run(name, trace=False, tamper=_wrong_tau)
        expect(result["failed"] / result["attempted"] > 0,
               f"{name}: a wrong expected tau raises failed_frac above 0")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
