"""The kernel record: what the exact kernel did, and which ``Geometry``
layers were built, on the pinned models, one row per model and entry
point, kept in ``kernel_record.json`` beside this module.

A row of a probed run holds, from one :func:`probe.kernel_probe` record,
its pairwise steps counted by route and dtype, its magnitude scans, its
kernel calls, its contractions that are not pure permutations, and the
routes and dtypes of the steps whose result a later ``_fit`` read.  The
validation row adds the kernel calls that ``validate_structure`` makes
beyond the algebra's checks.  A row of layers holds the names of the
layers that reading ``identities`` on a fresh ``Geometry`` builds, and
those that each of the five entry points builds.

Each model is built before its probe starts: the zoo caches models, so
building one inside the probe would count work that depends on whether
an earlier call built it.  Each zoo call hands out a model that has not
yet read its inverse metric, signature or ``eta (x) eta``, which an
``AcnModel`` keeps once read.

While a probed row is built, every step result that a later ``_fit``
reads is checked to carry the bound ``_fit`` built for its step, so no
run that breaks it can be recorded.

``test_kernel_record.py`` compares a fresh row with each stored one;
the tests that pinned these counts in their own modules compare one key
of the same fresh row with the stored one.
``python3 tests/kernel_record.py`` records every row again: it rewrites
the file and prints each entry that changed as ``row key: old -> new``.
"""
import functools
import json
import sys
from pathlib import Path
from unittest import mock

if __name__ == "__main__":      # record this checkout's library, not an installed one
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import norden.geometry
from norden import (Geometry, levi_civita, parse_model, riemann, run_report, serialize_model,
                    square_norms, structure_pack, validate_structure, verify_identities)
from norden.lie import validate as validate_algebra
from probe import kernel_probe
from zoo import FIXTURE_LAMBDAS, dense_member, family, family_member, heis

PATH = Path(__file__).resolve().with_name("kernel_record.json")


def _kernel(probe) -> dict:
    """The counts of one probed run, after checking the bound that each
    step result a later ``_fit`` read carried."""
    read = [step for step in probe.steps if step.carried is not None]
    assert [step.carried for step in read] == [step.bound for step in read]
    return {"steps": {f"{route} {dtype}": k
                      for (route, dtype), k in sorted(probe.routes().items())},
            "scans": probe.scans,
            "kernel_calls": probe.kernel_calls,
            "contractions": len(probe.contractions),
            "carried": sorted({f"{step.route} {step.dtype}" for step in read})}


def _report(model) -> dict:
    with kernel_probe() as probe:
        run_report(model)
    return _kernel(probe)


def _parsed_report(model) -> dict:
    """Parse, which validates, plus a report: one ``norden report``."""
    text = serialize_model(model)
    with kernel_probe() as probe:
        run_report(parse_model(text))
    return _kernel(probe)


def _validation(model) -> dict:
    with kernel_probe() as algebra:
        assert validate_algebra(model.algebra).ok
    with kernel_probe() as probe:
        assert validate_structure(model).ok
    return {**_kernel(probe),
            "kernel_calls_beyond_the_algebra": probe.kernel_calls - algebra.kernel_calls}


def _layers(model) -> dict:
    """The layers that ``identities`` reads on a fresh ``Geometry``, and
    those that each entry point computes, called in the order of
    ``benchmarks/run.py --trace 1`` so that its spans time this work: all
    of its ``Geometry``'s layers, or for the two seeded with the results
    of ``structure_pack`` and ``riemann``, those beyond the seeds'."""
    geo = Geometry(model)
    geo.identities
    got = {"Geometry.identities": sorted(vars(geo))}
    built = []

    class Recorded(Geometry):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    def computed(*seeds) -> list[str]:
        (geo,) = built
        built.clear()
        return sorted(set(vars(geo)).difference(*map(vars, seeds)))

    with mock.patch.object(norden.geometry, "Geometry", Recorded):
        conn = levi_civita(model)
        got["levi_civita"] = computed()
        pack = structure_pack(model, conn)
        got["structure_pack"] = computed()
        curv = riemann(model, conn)
        got["riemann"] = computed()
        verify_identities(model, conn=conn, pack=pack, curv=curv)
        got["verify_identities"] = computed(pack, curv)
        square_norms(model, conn, pack=pack)
        got["square_norms"] = computed(pack)
    return got


#: row -> what builds it; each model is built before the row's probe starts.
ROWS = {
    "run_report:dense_member(3)": lambda: _report(dense_member(3)),
    "run_report:dense_member(6)": lambda: _report(dense_member(6)),
    "run_report:dense_member(8)": lambda: _report(dense_member(8)),
    "run_report:family_member(6)": lambda: _report(family_member(6)),
    "parse+run_report:dense_member(3)": lambda: _parsed_report(dense_member(3)),
    "parse+run_report:family_member(6)": lambda: _parsed_report(family_member(6)),
    "validate_structure:dense_member(5)": lambda: _validation(dense_member(5)),
    "layers:heis": lambda: _layers(heis()),
    "layers:fam23": lambda: _layers(family(FIXTURE_LAMBDAS["fam23"])),
}


@functools.cache
def fresh(name: str) -> dict:
    """A fresh record of row ``name``, built once per test session."""
    return ROWS[name]()


def load(path: Path = PATH) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def dumps(rows: dict) -> str:
    """The one layout of the file: keys sorted, one value to a line."""
    return json.dumps(rows, sort_keys=True, indent=1) + "\n"


def write(path: Path = PATH) -> list[str]:
    """Record every row into ``path`` and return each entry that changed,
    as ``row key: old -> new`` (``None`` for an entry that was not there)."""
    old = load(path) if path.exists() else {}
    new = {name: build() for name, build in ROWS.items()}
    path.write_text(dumps(new), encoding="utf-8")
    changed = []
    for name in sorted(old.keys() | new.keys()):
        was, now = old.get(name, {}), new.get(name, {})
        changed += [f"{name} {key}: {was.get(key)} -> {now.get(key)}"
                    for key in sorted(was.keys() | now.keys()) if was.get(key) != now.get(key)]
    return changed


if __name__ == "__main__":
    for line in write():
        print(line)
