"""The kernel probe itself: which branch of the kernel each pinned input
reaches, what each step's result carries, that no other test module
patches a point the probe watches, and that no module of ``norden`` but
``tensors.py`` names one.

:data:`REACH` maps each value-level branch of ``norden.tensors`` to one
deterministic input that reaches it and to what ``kernel_probe()`` sees
there: each step's route, dtype and sparse side (and, on the residue
route, its number of primes), the dtype of each sum, and how many bounds
were rebuilt past ``2**62``.  Each input's result is
also checked against the reference over Fractions, so a fault planted in
a branch fails its row.  :data:`CARRIED` checks, on two reports and an
all-zero operand on two routes, that each step's result carries the
bound ``_fit`` built for its step.  A step with an all-zero operand
returns its zero result before the sparse route: the golden reports and
a dim-33 family report hand ``_sparse_step`` no ``x`` without a nonzero.
"""
import ast
import math
from pathlib import Path

import pytest

import norden
from norden import parse_model, serialize_model
from norden.report import run_report
from norden.tensors import exact_sum
from probe import kernel_probe
from test_exact_einsum import _array, _assert_same, _reference_sum
from test_golden import GOLDEN
from zoo import dense_member, family_member, golden_model

TESTS = Path(__file__).resolve().parent


def _tensor(shape, value=1, count=None):
    """A tensor of ``shape`` whose first ``count`` entries in C order (all
    by default) are ``value`` times 1, -2, 3, -1, 2, -3, ... and whose
    other entries are zero."""
    size = math.prod(shape)
    count = size if count is None else count
    return _array([value * (-1) ** k * (k % 3 + 1) if k < count else 0 for k in range(size)],
                  shape)


def _step(value):
    """One two-operand step of 2x2 operands whose entries are ``value``
    times small integers."""
    return [(1, "ab,bc->ac", _tensor((2, 2), value), _tensor((2, 2), value))]


def _sum(value):
    """``u - w`` for ``w = 2 u``, the entries of ``u`` ``value`` times small
    integers: a sum with no step, whose bound reads the factor -1 by its
    magnitude."""
    return [(1, "a->a", _tensor((3,), value)), (-1, "a->a", _tensor((3,), 2 * value))]


def _wide(first, second):
    """``ab,bc->ac`` at the sparse floor (16 x 16 times 16 x 128), each
    operand with ``first`` or ``second`` nonzeros (all when ``None``)."""
    return [(1, "ab,bc->ac", _tensor((16, 16), count=first), _tensor((16, 128), count=second))]


def _wide_zero(value):
    """:func:`_wide` with every entry of the first operand ``value`` times a
    small integer and the second operand all zero."""
    return [(1, "ab,bc->ac", _tensor((16, 16), value), _tensor((16, 128), count=0))]


def _keeps_none(second, first=1):
    """``abcd,abcde->e`` at the sparse floor: the first operand keeps no
    letter and has ``first`` nonzeros, the second has ``second``."""
    return [(1, "abcd,abcde->e", _tensor((4,) * 4, count=first),
             _tensor((4,) * 4 + (128,), count=second))]


def _rows(value=1, top=1):
    """``ab,bc->ac`` at the sparse floor (16 x 16, every entry ``top``
    times a small integer, times 16 x 128), the second operand zero but
    at three entries, ``value`` times small integers: two in column 0 and
    one in column 2.  The step takes that operand in ``(c, b)`` layout,
    so its live rows are 0 and 2 of 128, and row 0 holds two nonzeros."""
    cells = [0] * (16 * 128)
    for (b, c), v in {(0, 0): 5, (3, 0): -7, (5, 2): 2}.items():
        cells[b * 128 + c] = v * value
    return [(1, "ab,bc->ac", _tensor((16, 16), top), _array(cells, (16, 128)))]


def _off_diagonal(top, other):
    """``ab,bc->ac`` of ``[[top, 0], [0, 1]]`` and ``[[0, 1], [other, 0]]``:
    its bound is ``2 * top * other``, while each entry of its result is
    ``top``, ``other`` or zero."""
    return [(1, "ab,bc->ac", _array([top, 0, 0, 1], (2, 2)), _array([0, 1, other, 0], (2, 2)))]


EINSUM_32 = ("einsum", "int32", None)
ZERO_32 = ("zero", "int32", None)

#: branch -> (input terms, (steps as (route, dtype, side), sum dtypes, rescans)).
#: A step takes its two operands in the reverse of the terms' order
#: (``ab,bc->ac`` runs as ``bc,ab->ac``); "first" and "second" are the step's.
#: A step on the residue route adds its number of primes to its tuple; its
#: dtype is ``uint64`` when the check holds and ``object`` when it fails.
REACH = {
    "permutation view": (lambda: [(1, "abc->cab", _tensor((2, 3, 4)))], ((), (), 0)),
    "einsum int32": (lambda: _step(1), ((EINSUM_32,), (), 0)),
    "einsum int64": (lambda: _step(2**20), ((("einsum", "int64", None),), (), 0)),
    # 2 * (3 * 2**70)**2 needs more than two primes: past the cap.
    "einsum object": (lambda: _step(2**70), ((("einsum", "object", None),), (), 1)),
    # 2 * (3 * 2**29)**2 is below 2**63: the wrapped word alone is exact.
    "residue, no prime": (lambda: _step(2**29), ((("einsum", "uint64", None, 0),), (), 1)),
    "residue, one prime": (lambda: _off_diagonal(2**40, 2**30),
                           ((("einsum", "uint64", None, 1),), (), 1)),
    "residue, second prime": (lambda: _off_diagonal(2**50, 2**50),
                              ((("einsum", "uint64", None, 2),), (), 1)),
    # Entries near 2**81 pass 2**63: the check fails, and Python ints rerun.
    "residue fallback": (lambda: _step(2**40), ((("einsum", "object", None, 1),), (), 1)),
    # 2**70 is stored as a Python int and meets only zeros: the result is 0 or 1.
    "residue, Python-int operand": (
        lambda: [(1, "ab,bc->ac", _array([2**70, 0, 0, 1], (2, 2)), _array([0, 0, 1, 1], (2, 2)))],
        ((("einsum", "uint64", None, 1),), (), 1)),
    # One three-operand step whose entry 2**66 fails the check.  Primes
    # picked as for two operands would leave the residues equal to the
    # entries, which wrap as the word does and would pass the check.
    "residue, three operands": (
        lambda: [(1, "a,b,c->abc", _array([2**22, 3], (2,)), _array([2**22, 5], (2,)),
                  _array([2**22, 7], (2,)))],
        ((("einsum", "object", None, 1),), (), 1)),
    "residue on the sparse route": (
        lambda: [(1, "ab,bc->ac", _tensor((16, 16), 2**60), _tensor((16, 128), count=1))],
        ((("sparse", "uint64", (1, 16), 1),), (), 1)),
    "sparse on the step's first operand": (lambda: _wide(None, 1),
                                           ((("sparse", "int32", (1, 16)),), (), 0)),
    "sparse on the step's second operand": (lambda: _wide(1, None),
                                            ((("sparse", "int32", (1, 128)),), (), 0)),
    "sparse, the taken operand keeps no letter": (lambda: _keeps_none(200),
                                                  ((("sparse", "int32", (0, 128)),), (), 0)),
    "sparse, the other operand keeps no letter": (lambda: _keeps_none(1),
                                                  ((("sparse", "int32", (1, 1)),), (), 0)),
    "sparse, two of 128 rows live": (lambda: _rows(), ((("sparse", "int32", (1, 16)),), (), 0)),
    # An all-zero operand, either one, ends its step with a zero result.
    "sparse, an all-zero operand": (lambda: _wide(None, 0), ((ZERO_32,), (), 0)),
    "zero, the step's second operand": (lambda: _wide(0, None), ((ZERO_32,), (), 0)),
    "sparse, an all-zero operand that keeps no letter": (
        lambda: _keeps_none(200, 0), ((ZERO_32,), (), 0)),
    # 16 * 3 * 2**60 passes 2**62: each modulus meets the zero operand.
    "residue, an all-zero operand": (lambda: _wide_zero(2**60),
                                     ((("zero", "uint64", None, 1),), (), 1)),
    # The bound 16 * 3 * 2**29 * 7 * 2**28 passes 2**63, and no entry of
    # the result passes 36 * 2**57: the live rows run on words, one prime.
    "residue, live rows on the sparse route": (
        lambda: _rows(2**28, 2**29), ((("sparse", "uint64", (1, 16), 1),), (), 1)),
    # 16 * 3 * 2**70 * 7 * 2**70 is past two primes: the live rows run on Python ints.
    "object, live rows on the sparse route": (
        lambda: _rows(2**70, 2**70), ((("sparse", "object", (1, 16)),), (), 1)),
    # 2 * 2**40 * 2**30 puts the first step on the residue route, and its
    # result is below 2**41: the second step's carried bound is 2**82, and
    # the rescan of that result finds 2**51, so it runs in int64.
    "fit rescan past 2**62": (
        lambda: [(1, "ab,bc,cd->ad", _array([2**40, 0, 0, 1], (2, 2)),
                  _array([0, 1, 2**30, 0], (2, 2)), _array([2**10, 0, 0, 2**10], (2, 2)))],
        ((("einsum", "uint64", None, 1), ("einsum", "int64", None)), (), 2)),
    "one term, coefficient 1": (lambda: [(1, "ab,b->a", _tensor((2, 3)), _tensor((3,)))],
                                ((EINSUM_32,), (), 0)),
    "one term, coefficient -2": (lambda: [(-2, "ab,b->a", _tensor((2, 3)), _tensor((3,)))],
                                 ((EINSUM_32,), ("int32",), 0)),
    "sum int32": (lambda: _sum(1), ((), ("int32",), 0)),
    "sum int64": (lambda: _sum(2**40), ((), ("int64",), 0)),
    "sum object": (lambda: _sum(2**61), ((), ("object",), 1)),
}


@pytest.mark.parametrize("branch", list(REACH))
def test_each_branch_is_reached_by_its_pinned_input(branch):
    build, want = REACH[branch]
    terms = build()
    with kernel_probe() as probe:
        result = exact_sum(terms)
    seen = (tuple((step.route, step.dtype, step.side)
                  + (() if step.primes is None else (step.primes,)) for step in probe.steps),
            tuple(probe.sums), probe.rescans)
    assert seen == want
    _assert_same(result, _reference_sum(terms))


def _zero_operand(terms):
    """``-2`` times the one step of ``terms``, which takes an all-zero
    operand: the sum's ``_fit`` reads the top its zero result carries."""
    ((_, subscripts, a, b),) = terms
    assert exact_sum([(-2, subscripts, a, b)]).is_zero()


#: case -> (what runs, the (route, dtype) of the steps whose result a later
#: ``_fit`` reads).  The four steps of the dense report that may take the
#: sparse route each take an all-zero operand (``phi . c`` is zero on the
#: family in any basis).  No int32 einsum step of the dense report feeds a
#: later ``_fit``; the family report's do.
CARRIED = {
    "dense report": (lambda: run_report(dense_member(8)),
                     {("einsum", "int64"), ("einsum", "uint64"),
                      ("zero", "int32"), ("zero", "int64")}),
    "family report": (lambda: run_report(family_member(6)),
                      {("einsum", "int32"), ("sparse", "int32")}),
    "an all-zero operand": (lambda: _zero_operand(_wide(None, 0)), {("zero", "int32")}),
    "an all-zero operand on the residue route": (lambda: _zero_operand(_wide_zero(2**60)),
                                                 {("zero", "uint64")}),
}


@pytest.mark.parametrize("case", list(CARRIED))
def test_each_step_result_carries_the_bound_fit_built_for_its_step(case):
    """An intermediate carries one bound, the one it was computed under:
    the top each step's result carries into a later ``_fit`` is the bound
    ``_fit`` built for that step, on the einsum, residue and sparse routes
    alike, and for the zero result of a step with an all-zero operand."""
    run, routes = CARRIED[case]
    run()       # the zoo builds and caches its model here, outside the probe
    with kernel_probe() as probe:
        run()
    read = [step for step in probe.steps if step.carried is not None]
    assert [step.carried for step in read] == [step.bound for step in read]
    assert {(step.route, step.dtype) for step in read} == routes


def test_the_sparse_route_gets_no_all_zero_operand():
    """A step with an all-zero operand returns its zero result before the
    sparse route: parse plus report of the golden models and of a dim-33
    family member run both routes, and every ``_sparse_step`` call gets an
    ``x`` that holds a nonzero."""
    with kernel_probe() as probe:
        for model in [*map(golden_model, GOLDEN), family_member(16)]:
            run_report(parse_model(serialize_model(model, "text")))
    assert probe.empty_sparse == 0
    assert {"sparse", "zero"} <= {step.route for step in probe.steps}


#: The points ``probe.py`` watches: numpy functions and kernel privates.
NUMPY_POINTS = {"einsum", "einsum_path", "count_nonzero"}
KERNEL_POINTS = {"_pairwise", "_wrapped", "_sparse_step", "_fit", "_contract", "_canonical",
                 "_max_abs"}


def _kernel_patches(sources: dict[str, str]) -> list[tuple[str, int, str]]:
    """``(file, line, target)`` for each ``mock.patch.object`` or
    ``monkeypatch.setattr`` in ``sources`` (file name to text) whose
    target is a point the probe watches, given as an owner and a name or
    as one dotted string."""
    found = []
    for file, text in sorted(sources.items()):
        for node in ast.walk(ast.parse(text)):
            if not (isinstance(node, ast.Call) and node.args):
                continue
            call = ast.unparse(node.func)
            if not (call.endswith("patch.object") or call == "monkeypatch.setattr"):
                continue
            first = node.args[0]
            if isinstance(first, ast.Constant) and isinstance(first.value, str):
                owner, _, name = first.value.rpartition(".")
            elif len(node.args) > 1 and isinstance(node.args[1], ast.Constant):
                owner, name = ast.unparse(first), node.args[1].value
            else:
                continue
            numpy = owner.rpartition(".")[2] in ("np", "numpy")
            if (name in NUMPY_POINTS and numpy) or name in KERNEL_POINTS:
                found.append((file, node.lineno, f"{owner}.{name}"))
    return found


def test_only_the_probe_patches_a_kernel_point():
    """No test module but ``probe.py`` patches what the probe watches, so
    a change to the kernel's private calls is mirrored in one file; a
    re-added spy of each form is found."""
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in TESTS.glob("*.py") if path.name != "probe.py"}
    assert _kernel_patches(sources) == []
    planted = {
        "test_a.py": "with mock.patch.object(np, 'einsum', spy):\n    pass\n",
        "test_b.py": "def test(monkeypatch):\n"
                     "    monkeypatch.setattr(tensors, '_max_abs', spy)\n"
                     "    monkeypatch.setattr('norden.tensors._fit', spy)\n"
                     "    monkeypatch.setattr(tensors, 'SPARSE_FACTOR', 0)\n",
    }
    assert _kernel_patches(planted) == [("test_a.py", 1, "np.einsum"),
                                        ("test_b.py", 2, "tensors._max_abs"),
                                        ("test_b.py", 3, "norden.tensors._fit")]


def _kernel_names(sources: dict[str, str]) -> list[tuple[str, int, str]]:
    """``(file, line, name)`` for each kernel point that ``sources`` (file
    name to text) name: imported from a module ``tensors``, or read as an
    attribute of one."""
    found = []
    for file, text in sorted(sources.items()):
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("tensors"):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute) and ast.unparse(node.value).endswith("tensors"):
                names = [node.attr]
            else:
                continue
            found += [(file, node.lineno, name) for name in names if name in KERNEL_POINTS]
    return found


def test_no_module_but_the_kernel_names_a_kernel_point():
    """The probe patches its points as attributes of ``norden.tensors``,
    so a module that imports one by name runs it unseen, and one that
    reads it off the module ties that module to the step loop's private
    calls.  Only ``tensors.py`` names them; a planted name of each form is
    found."""
    package = Path(norden.__file__).parent
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in package.glob("*.py") if path.name != "tensors.py"}
    assert sources
    assert _kernel_names(sources) == []
    planted = {
        "a.py": "from .tensors import Tensor, _max_abs\n",
        "b.py": "from . import tensors\nnum = tensors._canonical(num, 1, 0)\n",
        "c.py": "import norden.tensors\nfrom norden.tensors import _fit as fit\n"
                "norden.tensors._pairwise\n",
    }
    assert _kernel_names(planted) == [("a.py", 1, "_max_abs"), ("b.py", 2, "_canonical"),
                                      ("c.py", 2, "_fit"), ("c.py", 3, "_pairwise")]
