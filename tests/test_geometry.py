"""One ``Geometry`` per model: every layer is computed once, seeds are
returned as given, and the five entry points agree with its layers."""
import ast
import collections
import dataclasses
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest
from conftest import CURVATURE_LAYERS, NORM_LAYERS, STRUCTURE_LAYERS, layers

import norden
from norden import (
    Geometry,
    associated_metric,
    exact_einsum,
    levi_civita,
    parse_model,
    psi4,
    riemann,
    run_report,
    serialize_model,
    square_norms,
    structure_pack,
    verify_identities,
)
import kernel_record
from probe import kernel_probe
from zoo import dense_member, dense_model, family_member

MODULES = [importlib.import_module(f"norden.{m.name}")
           for m in pkgutil.iter_modules(norden.__path__) if m.name != "__main__"]


def _spy(monkeypatch, name: str, counts: collections.Counter) -> None:
    """Count the calls of ``name`` through every norden module that
    imported it."""
    original = getattr(norden, name)

    def counted(*args, **kwargs):
        counts[name] += 1
        return original(*args, **kwargs)

    for module in MODULES:
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)


def test_run_report_computes_each_layer_once(monkeypatch):
    model = dense_model()
    counts = collections.Counter()
    for name in ("invert_symmetric", "covariant_derivative", "psi4"):
        _spy(monkeypatch, name, counts)
    run_report(model)
    assert counts["invert_symmetric"] == 1
    # phi, eta, omega, omega_star, nabla phi, nabla eta and phi Omega
    assert counts["covariant_derivative"] <= 7
    assert counts["psi4"] == 1


def test_one_model_inverts_its_metric_once(monkeypatch):
    """The model keeps its inverse metric: the five entry points, each
    with its own ``Geometry``, and a report on the same model invert
    ``g`` once between them.  A replaced model starts without it."""
    model = dense_model()
    counts = collections.Counter()
    _spy(monkeypatch, "invert_symmetric", counts)
    conn = levi_civita(model)
    pack = structure_pack(model, conn)
    riemann(model, conn)
    verify_identities(model)
    square_norms(model, conn)
    run_report(model)
    assert counts["invert_symmetric"] == 1
    replaced = dataclasses.replace(model, name="renamed")
    assert replaced.ginv == model.ginv and replaced.ginv is not model.ginv
    assert counts["invert_symmetric"] == 2
    assert layers(pack, STRUCTURE_LAYERS) == layers(Geometry(replaced), STRUCTURE_LAYERS)


def test_one_model_reads_the_signature_of_its_metric_once(monkeypatch):
    """The model keeps the signature of ``g``: parsing (which validates)
    and a report on the parsed model compute it once between them, and
    the report computes the twin metric's once."""
    text = serialize_model(dense_model())
    forms, original = [], norden.signature

    def recorded(form):
        forms.append(form)
        return original(form)

    for module in MODULES:
        if getattr(module, "signature", None) is original:
            monkeypatch.setattr(module, "signature", recorded)
    model = parse_model(text)
    report = run_report(model)
    assert forms == [model.g, associated_metric(model)]
    assert report.signature["metric"] == model.signature == original(model.g)


@pytest.mark.parametrize("build, n", [(dense_member, 3), (family_member, 6)])
def test_a_report_op_builds_each_product_once(build, n):
    """Parse, which validates, plus a report build eta (x) eta once, kept
    with the model, and repeat no contraction: nabla omega . phi and
    omega_star (x) omega_star are layers that S, the identity battery and
    the rank-one gate read.  A contraction is keyed by its steps and its
    operands' values."""
    text = serialize_model(build(n))
    with kernel_probe() as probe:
        run_report(parse_model(text))
    model = parse_model(text)
    with kernel_probe() as known:
        exact_einsum("i,j->ij", model.eta, model.eta)
    (eta_eta,) = known.contractions
    counts = collections.Counter(probe.contractions)
    assert counts[eta_eta] == 1
    assert {key: k for key, k in counts.items() if k > 1} == {}


def test_layers_are_cached(fam23):
    geo = Geometry(fam23.model)
    assert geo.conn is geo.conn
    assert geo.r13 is geo.r13 and geo.tau is geo.tau
    assert geo.identities is geo.identities
    assert geo.f is geo.f and geo.n is geo.n


def test_seeds_are_returned_as_given(fam23):
    conn = fam23.conn
    pack, curv = structure_pack(fam23.model, conn), riemann(fam23.model, conn)
    geo = Geometry(fam23.model, conn, pack, None, curv)
    assert geo.conn is conn
    # Every layer a seed computed is taken as it is.
    for seed in (pack, curv):
        for name in vars(seed):
            assert getattr(geo, name) is getattr(seed, name), name
    assert geo.f is pack.f and geo.n is pack.n and geo.r13 is curv.r13
    # None seeds are ignored; unknown names are refused.
    assert Geometry(fam23.model, conn=None).conn == conn
    with pytest.raises(TypeError):
        Geometry(fam23.model, gamma=conn.gamma)


def test_no_module_imports_inside_a_function():
    """The package has no import cycle to break with a lazy import."""
    for module in MODULES:
        tree = ast.parse(inspect.getsource(module))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested = [n for n in ast.walk(node)
                          if isinstance(n, ast.ImportFrom) and n.level > 0]
                assert not nested, (module.__name__, node.name)


def test_no_module_imports_a_name_it_never_uses():
    """A name imported by a module under ``src/norden`` is read somewhere
    in it, or is listed in its ``__all__``, so a deletion leaves no dead
    import behind."""
    for path in sorted(Path(norden.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {a.asname or a.name.split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {a.asname or a.name for a in node.names}
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and "__all__" in [
                    getattr(t, "id", None) for t in node.targets]:
                used |= set(ast.literal_eval(node.value))
        assert imported <= used, (path.name, sorted(imported - used))


def test_one_function_picks_the_arithmetic_of_every_step_and_sum():
    """In ``tensors.py`` only ``_fit`` builds the bound of a pairwise step
    or a sum, rescans past ``INT64_SAFE`` and casts to the dtype that
    ``_dtype`` picks for it, or picks the primes of the residue route;
    ``_pair_storage`` and ``_canonical`` pick only a stored tensor's
    dtype, from its exact magnitude, ``_canonical`` also narrows a reduced
    sum and ``_numerator_texts`` widens for the render's gcd.  The one
    other cast is the residue route's fallback in ``_wrapped``: a step
    whose check fails runs again on Python ints.  ``np.einsum`` is called
    only by the two routes of a step, ``_pairwise`` and ``_sparse_step``.
    So one place decides the arithmetic of every step and every sum."""
    sites = collections.defaultdict(set)
    for top in ast.parse(inspect.getsource(norden.tensors)).body:
        if not isinstance(top, (ast.FunctionDef, ast.ClassDef)):
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and node.id in ("_dtype", "INT64_SAFE"):
                sites[node.id].add(top.name)
            elif isinstance(node, ast.Attribute) and node.attr in ("astype", "einsum"):
                sites[node.attr].add(top.name)
    assert sites == {
        "_dtype": {"_pair_storage", "_canonical", "_fit"},
        "INT64_SAFE": {"_dtype", "_fit"},
        "astype": {"_canonical", "_numerator_texts", "_fit", "_wrapped"},
        "einsum": {"_pairwise", "_sparse_step"},
    }


def test_one_module_indexes_the_connection_and_the_curvature():
    """Outside ``geometry.py`` no module names ``koszul`` or ``r13``, and
    ``gamma`` and ``r04`` are read only as ``geo.conn.gamma`` and
    ``geo.r04`` in ``report.py``'s tensor table, which hands them on
    unindexed.  So every subscript of ``gamma[k, i, j]``, ``koszul[i, j,
    k]``, ``r04[i, j, k, u]`` and ``r13[l, i, j, k]`` is written in one
    module."""
    names = ("gamma", "koszul", "r04", "r13")
    sites = collections.defaultdict(list)
    for path in sorted(Path(norden.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = (getattr(node, "id", None) or getattr(node, "attr", None)
                    or getattr(node, "arg", None))
            if name in names:
                sites[path.name].append(ast.unparse(node))
    assert {"self.koszul", "self.r04"} <= set(sites.pop("geometry.py"))
    assert sites == {"report.py": ["geo.conn.gamma", "geo.r04"]}


def _unread_private_names(sources: dict[str, str]) -> list[tuple[str, str]]:
    """``(file, name)`` for each module-level ``_name`` that one of the
    ``sources`` (file name to text) defines and none of them reads, as a
    name or as an attribute, and ``(file, "_Class.field")`` for each field
    of a module-level private ``NamedTuple`` that none of them reads as an
    attribute."""
    defined, fields, read, attributes = [], [], set(), set()
    for file, text in sorted(sources.items()):
        tree = ast.parse(text)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            private = [name for name in names
                       if name.startswith("_") and not name.startswith("__")]
            defined += [(file, name) for name in private]
            if private and isinstance(node, ast.ClassDef) and any(
                    getattr(base, "id", None) == "NamedTuple" for base in node.bases):
                fields += [(file, node.name, item.target.id) for item in node.body
                           if isinstance(item, ast.AnnAssign)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
                attributes.add(node.attr)
    return ([(file, name) for file, name in defined if name not in read]
            + [(file, f"{cls}.{field}") for file, cls, field in fields
               if field not in attributes])


def test_no_module_defines_a_private_name_nothing_reads():
    """A module-level ``_name`` under ``src/norden`` is read somewhere in
    the package, and so is every field of a private ``NamedTuple``, so a
    deletion leaves no dead helper or field behind; a planted helper, a
    leftover constant and a field nothing reads are found."""
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in Path(norden.__file__).parent.glob("*.py")}
    assert _unread_private_names(sources) == []
    planted = dict(sources, **{
        "lie.py": sources["lie.py"] + "\n\ndef _helper():\n    return 1\n",
        "tensors.py": sources["tensors.py"] + "\n_SPARE_LETTERS = 'abc'\n",
        "family.py": sources["family.py"] + (
            "\n\nclass _Spare(NamedTuple):\n    first_read: int\n    never_read: int\n"
            "\n\nSPARE = _Spare(1, 2).first_read\n"),
    })
    assert _unread_private_names(planted) == [("lie.py", "_helper"),
                                              ("tensors.py", "_SPARE_LETTERS"),
                                              ("family.py", "_Spare.never_read")]


PUBLIC_NAMES = [
    "AcnModel", "BadParams", "Connection", "DimensionMismatch",
    "FamilyParams", "Geometry", "GeometryReport", "IdentityVerdict",
    "InternalInconsistency", "InvalidAlgebra", "LieAlgebra", "LinearlyDependent",
    "NordenError", "ParseError", "Section", "SingularMetric",
    "Tensor", "ValidationError", "ValidationReport",
    "VarianceMismatch", "Violation", "algebra_from_brackets", "all_identities_ok",
    "as_scalar", "associated_metric", "bracket", "covariant_derivative",
    "einsum_scalar", "exact_einsum", "exact_sum", "format_scalar", "generate_family",
    "heisenberg_model", "invert_symmetric", "is_metric_compatible", "is_solvable",
    "is_torsion_free", "levi_civita", "matrix_rank",
    "nabla_eta_from_fundamental", "parse_model", "psi4", "report_to_json",
    "report_to_text", "riemann", "row_space_basis", "run_report", "section",
    "serialize_model", "signature", "square_norms", "structure_pack", "validate",
    "validate_structure", "verify_identities",
]


def test_the_public_names_are_pinned():
    """Adding or removing a public name is a deliberate change of this list."""
    assert sorted(norden.__all__) == PUBLIC_NAMES


def test_every_public_name_resolves_and_none_is_a_module():
    assert len(norden.__all__) == len(set(norden.__all__))
    for name in norden.__all__:
        assert not inspect.ismodule(getattr(norden, name)), name


@pytest.mark.parametrize("which", ["fam23", "heis", "fam_zero"])
def test_public_functions_agree_with_layers(which, request):
    model = request.getfixturevalue(which).model
    geo = Geometry(model)
    conn = levi_civita(model)
    assert conn == geo.conn
    pack = structure_pack(model, conn)
    assert layers(pack, STRUCTURE_LAYERS) == layers(geo, STRUCTURE_LAYERS)
    curv = riemann(model, conn)
    assert layers(curv, CURVATURE_LAYERS) == layers(geo, CURVATURE_LAYERS)
    assert verify_identities(model, conn=conn, pack=pack, curv=curv) == geo.identities
    assert verify_identities(model) == geo.identities
    norms = layers(geo, NORM_LAYERS)
    assert layers(square_norms(model, conn, pack=pack), NORM_LAYERS) == norms
    assert layers(square_norms(model, conn), NORM_LAYERS) == norms
    assert psi4(geo.s, model.eta) == geo.psi4_s
    # A Geometry seeded with the entry points' results reads the same layers.
    seeded = Geometry(model, conn, pack, curv)
    for name in ("f0", "f11", "forms_closed", "isotropic_kahler",
                 "curvature_phi_kahler", "s_trace", "div_phi_omega"):
        assert getattr(seeded, name) == getattr(geo, name), name

    report = run_report(model)
    assert report.identities == geo.identities
    assert report.tensors["psi4_s"] == geo.psi4_s
    assert report.invariants["s_trace"] == geo.s_trace
    assert report.invariants["div_phi_omega_vec"] == geo.div_phi_omega
    assert report.classes["f11"] == geo.f11


ENTRY_POINTS = ["levi_civita", "structure_pack", "riemann", "verify_identities", "square_norms"]


@pytest.mark.parametrize("which", ["fam23", "heis"])
def test_each_entry_point_computes_exactly_its_layers(which):
    """Each entry point computes the layers ``kernel_record.json`` holds
    for it: all of its ``Geometry``'s layers, or those beyond its seeds'."""
    name = f"layers:{which}"
    got, pinned = kernel_record.fresh(name), kernel_record.load()[name]
    assert {key: got[key] for key in ENTRY_POINTS} == {key: pinned[key] for key in ENTRY_POINTS}


def test_layers_add_no_fractions(monkeypatch):
    """Every tensor layer is summed on integer numerators.  Computing all
    layers of the dense golden model adds or subtracts Fractions only in
    the scalar chains of the identity battery (a handful of calls); a
    layer summed through ``Tensor.components`` would make hundreds."""
    from fractions import Fraction
    from functools import cached_property

    geo = Geometry(dense_model())
    calls = collections.Counter()
    for op in ("__add__", "__radd__", "__sub__", "__rsub__"):
        original = getattr(Fraction, op)

        def counted(*args, _op=op, _original=original):
            calls[_op] += 1
            return _original(*args)

        monkeypatch.setattr(Fraction, op, counted)
    for name, attr in vars(Geometry).items():
        if isinstance(attr, cached_property):
            getattr(geo, name)
    assert sum(calls.values()) <= 2, calls
