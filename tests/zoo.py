"""The test models.  Family members come from fixed lambda tables, and
every model moved to another basis by :func:`transform_model`, except two
independent checks of it: the sympy ``_moved`` of ``test_oracle.py`` and
``benchmarks/models.py``, whose files :func:`bench_dense` reads back.

Each call returns a model of its own: ``AcnModel`` keeps its inverse
metric and signature once read, so a shared model would let one test's
reads change the scans that another pins.  A cached builder hands out
``dataclasses.replace`` of its model, which has read neither."""
import dataclasses
import functools
import importlib.util
from fractions import Fraction as Fr
from pathlib import Path
from random import Random

import numpy as np

from norden import (AcnModel, FamilyParams, LieAlgebra, Tensor, algebra_from_brackets,
                    exact_einsum, generate_family, heisenberg_model, parse_model,
                    row_space_basis, validate_structure)


def _fresh(build):
    """``build``, cached, returning a copy of the cached model on each call."""
    cached = functools.cache(build)

    @functools.wraps(build)
    def fresh(*args) -> AcnModel:
        return dataclasses.replace(cached(*args))
    return fresh


def inverse(a) -> list[list[Fr]]:
    """``a^-1``: the right half of the reduced row echelon form of
    ``[a | I]``, whose left half must be ``I``."""
    rows = Tensor(a, "ud").components.tolist()
    eye = np.eye(len(rows), dtype=int).tolist()
    reduced = row_space_basis([row + e for row, e in zip(rows, eye)])
    assert [row[:len(rows)] for row in reduced] == eye
    return [row[len(rows):] for row in reduced]


def transform_model(model: AcnModel, a, name: str) -> AcnModel:
    """``model`` on the basis ``e_b = sum_i a[i, b] x_i``: upper slots take
    ``a^-1`` and lower slots ``a``, one exact contraction per tensor."""
    a_inv, a = Tensor(inverse(a), "ud"), Tensor(a, "ud")
    c = exact_einsum("km,mij,ia,jb->kab", a_inv, model.algebra.c, a, a)
    moved = AcnModel(
        algebra=LieAlgebra(model.dim, c),
        phi=exact_einsum("im,mn,nj->ij", a_inv, model.phi, a),
        xi=exact_einsum("im,m->i", a_inv, model.xi),
        eta=exact_einsum("m,mj->j", model.eta, a),
        g=exact_einsum("mi,mn,nj->ij", a, model.g, a),
        name=name,
    )
    assert validate_structure(moved).ok
    return moved


# --- family members ------------------------------------------------------

#: The family members of the golden hashes, by half-dimension n.
FAMILY_LAMBDAS = {
    1: (2, 3),
    2: (1, "-1/2", 3, 2),
    3: (1, 2, "-3/2", "1/3", 0, -1),
    4: (2, -1, "1/2", 3, "-2/3", 1, 4, "5/2"),
    5: (1, -2, "1/2", 3, "-2/3", 1, 4, "5/2", -3, "7/4"),
}

#: The lambdas of the session fixtures of ``conftest.py``.
FIXTURE_LAMBDAS = {"fam23": (2, 3), "fam5": (1, 0, 0, 2), "fam_zero": (0, 0)}


def family(lam) -> AcnModel:
    """The family member with parameters ``lam``, in its own basis."""
    lam = tuple(lam)
    return generate_family(FamilyParams(len(lam) // 2, lam))


def family_member(n: int) -> AcnModel:
    """The member of half-dimension ``n`` whose steps and scans are pinned."""
    return family(Fr((-1) ** k * (k + 2), k % 3 + 1) for k in range(2 * n))


def heis() -> AcnModel:
    """The Heisenberg-type control model (valid, outside the pure class)."""
    return heisenberg_model()


def f11_dim5(l1, l3, s, u) -> AcnModel:
    """A dim-5 F11 algebra that is not the paper's example, with the n = 2
    family's (phi, xi, eta, g): ``[x1, x0] = l1 x0`` and ``[x3, x0] = l3
    x0``, plus s times the brackets ``[x1,x2] = -x2, [x1,x4] = -x4, [x2,x3]
    = x4, [x3,x4] = x2``, plus u times ``[x1,x2] = -x4, [x1,x4] = x2,
    [x2,x3] = -x2, [x3,x4] = x4``.  Jacobi holds for every parameter."""
    brackets = {
        (1, 0): [l1, 0, 0, 0, 0],
        (3, 0): [l3, 0, 0, 0, 0],
        (1, 2): [0, 0, -s, 0, -u],
        (1, 4): [0, 0, u, 0, -s],
        (2, 3): [0, 0, -u, 0, s],
        (3, 4): [0, 0, s, 0, u],
    }
    return dataclasses.replace(family((0, 0, 0, 0)), algebra=algebra_from_brackets(5, brackets),
                               name=f"f11_dim5({l1},{l3},{s},{u})")


# --- dense models --------------------------------------------------------

@_fresh
def dense_member(n: int) -> AcnModel:
    """``family_member(n)`` on the basis ``A = L U``: ``L`` unit lower
    triangular and ``U`` upper triangular, every off-diagonal entry ``+-1``
    in a fixed pattern, and the diagonal of ``U`` cycling through 2, 1, -1,
    1/3, 1, so that ``A`` is dense and not unimodular."""
    d = 2 * n + 1
    diag = ([2, 1, -1, Fr(1, 3), 1] * d)[:d]
    sign = lambda i, j: 1 if (i * j + i + j) % 3 else -1
    low = np.array([[int(i == j) if i <= j else sign(i, j) for j in range(d)]
                    for i in range(d)], dtype=object)
    up = np.array([[diag[i] if i == j else sign(j, i) if j > i else 0 for j in range(d)]
                   for i in range(d)], dtype=object)
    return transform_model(family_member(n), low.dot(up), f"family n={n} on a dense basis")


@_fresh
def dense_model() -> AcnModel:
    """The golden n = 2 member on the basis ``A = D (I + U)``: ``D`` a
    rational diagonal and ``U`` strictly upper triangular."""
    diag = [2, Fr(1, 3), -1, Fr(3, 2), Fr(-5, 4)]
    upper = [[0, 1, Fr(1, 2), -1, 2], [0, 0, 1, Fr(2, 3), -1], [0, 0, 0, 1, Fr(1, 2)],
             [0, 0, 0, 0, -3], [0, 0, 0, 0, 0]]
    a = [[diag[i] * (int(i == j) + upper[i][j]) for j in range(5)] for i in range(5)]
    return transform_model(family(FAMILY_LAMBDAS[2]), a, "family n=2 on a rational dense basis")


@functools.cache
def bench_models():
    """``benchmarks/models.py`` (model files built without the library)."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "models.py"
    spec = importlib.util.spec_from_file_location("bench_models", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@_fresh
def bench_dense(n: int, seed: int) -> AcnModel:
    """A seeded dense model of dimension ``2n + 1`` from
    ``benchmarks/models.py``: a random family member moved by a random
    rational basis change, read back from its text file."""
    models, rng = bench_models(), Random(seed)
    lam = models.random_lambda(rng, n)
    s = models.change_basis(models.family_structure(lam),
                            *models.random_basis_change(rng, 2 * n + 1))
    return parse_model(models.to_text(s, f"benchmark dense n={n} seed={seed}"))


def golden_model(key) -> AcnModel:
    """The model whose bytes ``test_golden.py`` pins under ``key``."""
    named = {"dense": dense_model, "dense8": lambda: dense_member(8),
             "dense19": lambda: bench_dense(9, 31), "f11_dim5": lambda: f11_dim5(1, 1, 1, 3)}
    return named[key]() if key in named else family(FAMILY_LAMBDAS[key])
