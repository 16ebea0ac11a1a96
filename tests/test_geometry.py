"""One ``Geometry`` per model: every layer is computed once, seeds are
returned as given, and the five entry points agree with its layers."""
import ast
import collections
import importlib
import inspect
import pkgutil

import pytest

import norden
from norden import (
    Geometry,
    levi_civita,
    psi4,
    riemann,
    run_report,
    square_norms,
    structure_pack,
    verify_identities,
)
from test_golden import _dense_model

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
    model = _dense_model()
    counts = collections.Counter()
    for name in ("invert_symmetric", "covariant_derivative", "psi4"):
        _spy(monkeypatch, name, counts)
    run_report(model)
    assert counts["invert_symmetric"] == 1
    # phi, eta, omega, omega_star, nabla phi, nabla eta and phi Omega
    assert counts["covariant_derivative"] <= 7
    assert counts["psi4"] == 1


def test_layers_are_cached(fam23):
    geo = Geometry(fam23.model)
    assert geo.ginv is geo.ginv
    assert geo.pack is geo.pack
    assert geo.identities is geo.identities
    assert geo.pack.f is geo.f and geo.pack.n is geo.n


def test_seeds_are_returned_as_given(fam23):
    conn, pack, curv = fam23.conn, fam23.pack, fam23.curv
    geo = Geometry(fam23.model, conn=conn, pack=pack, curv=curv)
    assert geo.conn is conn
    assert geo.pack is pack
    assert geo.curv is curv
    assert geo.f is pack.f and geo.n is pack.n and geo.s is pack.s
    assert geo.omega_vec is pack.omega_vec
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


@pytest.mark.parametrize("which", ["fam23", "heis", "fam_zero"])
def test_public_functions_agree_with_layers(which, request):
    model = request.getfixturevalue(which).model
    geo = Geometry(model)
    conn = levi_civita(model)
    assert conn == geo.conn
    pack = structure_pack(model, conn)
    assert pack == geo.pack
    curv = riemann(model, conn)
    assert curv == geo.curv
    assert verify_identities(model, conn=conn, pack=pack, curv=curv) == geo.identities
    assert verify_identities(model) == geo.identities
    assert square_norms(model, conn, pack=pack) == geo.norms
    assert square_norms(model, conn) == geo.norms
    assert psi4(geo.s, model.eta) == geo.psi4_s
    # A Geometry seeded with the entry points' results reads the same layers.
    seeded = Geometry(model, conn=conn, pack=pack, curv=curv)
    for name in ("f0", "f11", "forms_closed", "isotropic_kahler",
                 "curvature_phi_kahler", "s_trace", "div_phi_omega"):
        assert getattr(seeded, name) == getattr(geo, name), name

    report = run_report(model)
    assert report.identities == geo.identities
    assert report.tensors["psi4_s"] == geo.psi4_s
    assert report.invariants["s_trace"] == geo.s_trace
    assert report.invariants["div_phi_omega_vec"] == geo.div_phi_omega
    assert report.is_f11 == geo.f11


def test_layers_add_no_fractions(monkeypatch):
    """Every tensor layer is summed on integer numerators.  Computing all
    layers of the dense golden model adds or subtracts Fractions only in
    the scalar chains of the identity battery (a handful of calls); a
    layer summed through ``Tensor.components`` would make hundreds."""
    from fractions import Fraction
    from functools import cached_property

    geo = Geometry(_dense_model())
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
