"""Time two checkouts of norden against each other on one benchmark workload,
op by op, in one process.

Usage (from the repository root)::

    python3 tools/ab.py PARENT_TREE CHANGED_TREE --workload dense_basis
    python3 tools/ab.py . . --workload validate_mix --pool 3

Each tree's ``src/norden`` is loaded under a package name of its own, so
both live in this process at once.  The workload's pool of model files is
built once, through ``benchmarks/run.py`` of this checkout (imported, not
edited), at the workload's own dimension with seed ``SEED``.  Every op of
the pool then runs under A and under B, ``ROUNDS`` times, the order
alternating from one op to the next; both runs must give the same exit
code and the same stdout.  A and B meet the same machine state within
microseconds of each other, so the per-op ratio B/A is far steadier than
two benchmark runs made minutes apart.

Prints the median of the per-op B/A time ratios with its quartiles and
the number of op pairs; the last line of stdout is the same as one JSON
object.  Exits 1 when an op's outputs differ.
"""
from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import statistics
import sys
import tempfile
from pathlib import Path
from random import Random

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "benchmarks"))

import models  # noqa: E402  (benchmarks/models.py)
import run  # noqa: E402  (benchmarks/run.py)

SEED = 11       # the pool's seed, as in the ROADMAP tables
ROUNDS = 4      # runs of the pool under each tree


def load_tree(tree: Path, name: str):
    """The package ``src/norden`` of ``tree``, imported as ``name``, and
    its ``cli`` module."""
    package = tree.resolve() / "src" / "norden"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    if spec is None:
        raise SystemExit(f"no norden package under {tree}")
    lib = importlib.util.module_from_spec(spec)
    sys.modules[name] = lib
    spec.loader.exec_module(lib)
    return lib, importlib.import_module(f"{name}.cli")


def compare(cli_a, cli_b, cases) -> list[float]:
    """The B/A time ratio of every op pair, one per case, A first on even
    pairs and B first on odd ones.  Raises ``AssertionError`` when the two
    runs of an op differ in exit code or stdout."""
    ratios = []
    for k, case in enumerate(cases):
        order = (cli_a, cli_b) if k % 2 == 0 else (cli_b, cli_a)
        runs = [run.run_op(cli, case.argv) for cli in order]
        (code_a, out_a, dt_a), (code_b, out_b, dt_b) = runs if k % 2 == 0 else runs[::-1]
        assert (code_a, out_a) == (code_b, out_b), f"A and B differ on {case.argv}"
        ratios.append(dt_b / dt_a)
    return ratios


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree_a", type=Path)
    parser.add_argument("tree_b", type=Path)
    parser.add_argument("--workload", required=True, choices=sorted(run.WORKLOADS))
    parser.add_argument("--pool", type=int, help="ops in the pool (default: the workload's)")
    args = parser.parse_args(argv)
    workload = run.WORKLOADS[args.workload]
    lib_a, cli_a = load_tree(args.tree_a, "norden_a")
    _, cli_b = load_tree(args.tree_b, "norden_b")
    with tempfile.TemporaryDirectory() as work:
        cases = run.build_cases(models, lib_a, workload, Random(f"{workload.name}/{SEED}"),
                                args.pool or workload.pool, 0, Path(work), set(), False)
        for case in cases[:2]:          # warm both trees' plan caches
            run.run_op(cli_a, case.argv)
            run.run_op(cli_b, case.argv)
        try:
            ratios = compare(cli_a, cli_b, cases * ROUNDS)
        except AssertionError as exc:
            print(exc, file=sys.stderr)
            return 1
    median = statistics.median(ratios)
    q1, _, q3 = statistics.quantiles(ratios, n=4)
    print(f"# {workload.name} seed={SEED} pool={len(cases)} rounds={ROUNDS}: "
          f"B/A median {median:.4f}, quartiles {q1:.4f} {q3:.4f}, {len(ratios)} op pairs")
    print(json.dumps({"workload": workload.name, "pairs": len(ratios), "median": median,
                      "q1": q1, "q3": q3}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
