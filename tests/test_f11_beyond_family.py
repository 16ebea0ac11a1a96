"""F11 models that are not the paper's example: the ``twisted`` gate of
the identity battery on them, and the linear space they live in.

``zoo.f11_dim5(l1, l3, s, u)`` puts the n = 2 family's (phi, xi, eta, g)
on a four-parameter dim-5 algebra.  Jacobi holds for every parameter and
F stays in the pure class, but unlike on the family ``R(x, y, phi z, phi
u)`` need not vanish, which shuts the gate of three identities.

With the family's (phi, xi, eta, g) fixed, F and omega are linear in the
structure constants, so the brackets whose F lies in F11 form a linear
space K; only Jacobi, which is quadratic, is left to pick the algebras in
it."""
import dataclasses
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from norden import (Geometry, LieAlgebra, Tensor, exact_sum, matrix_rank, row_space_basis,
                    validate_structure)
from zoo import f11_dim5, family, family_member

TWISTED_GATED = ("r_equals_psi4_s", "ricci_from_s", "s_trace_divergence")
TWISTED_DETAIL = "R(x, y, phi z, phi u) does not vanish identically"


@settings(max_examples=30, deadline=None)
@given(st.tuples(*[st.fractions(min_value=-3, max_value=3, max_denominator=3)] * 4))
def test_twisted_gate_shuts_exactly_where_the_twisted_curvature_is_nonzero(params):
    model = f11_dim5(*params)
    assert validate_structure(model).ok
    geo = Geometry(model)
    assert geo.f11
    verdicts = geo.identities
    assert all(v.ok for v in verdicts.values())
    twisted = not geo.twisted_r.is_zero()
    for name in TWISTED_GATED:
        v = verdicts[name]
        assert v.applicable is not twisted, name
        assert (v.detail == TWISTED_DETAIL) is twisted, name


# (l1, l3, s, u) -> (tau, f0, number of identities that apply)
PINNED = {
    (1, 3, 1, 0): (12, False, 8),
    (1, 1, 1, 3): (80, False, 8),
    (0, 0, 1, 1): (0, True, 9),
}


@pytest.mark.parametrize("params", list(PINNED))
def test_three_models_beyond_the_family_are_pinned(params):
    geo = Geometry(f11_dim5(*params))
    tau, f0, applicable = PINNED[params]
    assert (geo.tau, geo.f0) == (tau, f0)
    verdicts = geo.identities
    assert sum(v.applicable for v in verdicts.values()) == applicable
    assert all(v.ok for v in verdicts.values())
    assert all(verdicts[name].detail == TWISTED_DETAIL for name in TWISTED_GATED)


def _f11_kernel(dim: int):
    """The antisymmetric basis brackets ``[x_i, x_j] = x_k`` (``i < j``) of
    dimension ``dim``, and a basis of K in their coordinates: the kernel of
    the F11 residual ``F - eta (x) eta (x) omega - eta (x) omega (x) eta``
    under the family's (phi, xi, eta, g), read from the reduced row
    echelon form of ``[residual(b) | e_b]`` over the basis brackets b."""
    base = family((0,) * (dim - 1))
    basis = [(k, i, j) for i, j in combinations(range(dim), 2) for k in range(dim)]
    rows = []
    for b, (k, i, j) in enumerate(basis):
        c = np.zeros((dim,) * 3, dtype=int)
        c[k, i, j], c[k, j, i] = 1, -1
        geo = Geometry(dataclasses.replace(base, algebra=LieAlgebra(dim, Tensor(c, "udd"))))
        eta, omega = base.eta, geo.omega
        residual = exact_sum([(1, "ijk->ijk", geo.f), (-1, "i,j,k->ijk", eta, eta, omega),
                              (-1, "i,k,j->ijk", eta, eta, omega)])
        rows.append(residual.components.ravel().tolist() + [int(a == b) for a in range(len(basis))])
    width = dim ** 3
    kernel = [row[width:] for row in row_space_basis(rows) if not any(row[:width])]
    return basis, kernel


#: dim -> (number of basis brackets, dim K)
F11_KERNEL_DIMS = {3: (9, 2), 5: (50, 14), 7: (147, 48)}


@pytest.mark.parametrize("dim", list(F11_KERNEL_DIMS))
def test_the_f11_brackets_of_the_family_structure_form_a_pinned_space(dim):
    """K has the pinned dimension, and the brackets of the family member
    of that dimension, and at dim 5 those of ``f11_dim5(1, 1, 1, 3)``,
    lie in it."""
    basis, kernel = _f11_kernel(dim)
    assert (len(basis), len(kernel)) == F11_KERNEL_DIMS[dim]
    models = [family_member(dim // 2)] + [f11_dim5(1, 1, 1, 3)] * (dim == 5)
    for model in models:
        c = model.algebra.c.components
        assert Geometry(model).f11
        assert matrix_rank(kernel + [[c[b] for b in basis]]) == len(kernel), model.name
