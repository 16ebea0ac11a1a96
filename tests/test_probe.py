"""The kernel probe itself: which branch of the kernel each pinned input
reaches, and that no other test module patches a point the probe watches.

:data:`REACH` maps each value-level branch of ``norden.tensors`` to one
deterministic input that reaches it and to what ``kernel_probe()`` sees
there: each step's route, dtype and sparse side (and, on the residue
route, its number of primes), the dtype of each sum, and how many bounds
were rebuilt past ``2**62``.  Each input's result is
also checked against the reference over Fractions, so a fault planted in
a branch fails its row.
"""
import ast
import math
from pathlib import Path

import pytest

from norden.tensors import exact_sum
from probe import kernel_probe
from test_exact_einsum import _array, _assert_same, _reference_sum

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


def _keeps_none(second):
    """``abcd,abcde->e`` at the sparse floor: the first operand keeps no
    letter and has one nonzero, the second has ``second`` nonzeros."""
    return [(1, "abcd,abcde->e", _tensor((4,) * 4, count=1),
             _tensor((4,) * 4 + (128,), count=second))]


def _off_diagonal(top, other):
    """``ab,bc->ac`` of ``[[top, 0], [0, 1]]`` and ``[[0, 1], [other, 0]]``:
    its bound is ``2 * top * other``, while each entry of its result is
    ``top``, ``other`` or zero."""
    return [(1, "ab,bc->ac", _array([top, 0, 0, 1], (2, 2)), _array([0, 1, other, 0], (2, 2)))]


EINSUM_32 = ("einsum", "int32", None)

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


#: The points ``probe.py`` watches: numpy functions and kernel privates.
NUMPY_POINTS = {"einsum", "einsum_path", "count_nonzero"}
KERNEL_POINTS = {"_pairwise", "_wrapped", "_sparse_step", "_fit", "_canonical", "_max_abs"}


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
