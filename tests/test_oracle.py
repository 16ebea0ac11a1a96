"""An independent oracle for the connection and the curvature.

The oracle shares no code with the library's contraction kernel or with
numpy: it inverts the metric with ``sympy.Matrix``, solves the Koszul
formula index by index, and builds R, Ricci, tau, tau_star, tau_2star
and the divergence of ``phi Omega`` from explicit loops over
``sympy.Rational`` entries.  It is compared with
:class:`norden.Geometry` entry for entry on family members, the
Heisenberg control, the golden dense model and two family members moved
to a dense basis by rational, non-unimodular changes of basis built here
(all of dimension at most 7).
"""
from fractions import Fraction
from functools import cache

import pytest
import sympy

from norden import (
    AcnModel,
    FamilyParams,
    Geometry,
    LieAlgebra,
    Tensor,
    generate_family,
    heisenberg_model,
    validate_structure,
)
from test_golden import FAMILY_LAMBDAS, _dense_model


def _rat(v) -> sympy.Rational:
    f = Fraction(v)
    return sympy.Rational(f.numerator, f.denominator)


def _frac(v: sympy.Rational) -> Fraction:
    return Fraction(int(v.p), int(v.q))


def _nested(t: Tensor):
    """The components of a model tensor as nested lists of sympy Rationals."""
    def conv(x):
        return [conv(v) for v in x] if isinstance(x, list) else _rat(x)
    return conv(t.components.tolist())


def oracle(model: AcnModel) -> dict:
    d = model.dim
    rng = range(d)
    c = _nested(model.algebra.c)          # c[k][i][j]: x_k part of [x_i, x_j]
    phi = _nested(model.phi)              # phi[i][j]: x_i part of phi x_j
    g = sympy.Matrix(_nested(model.g))
    ginv = g.inv()

    def gb(i, j, k):  # g([x_i, x_j], x_k)
        return sum((c[m][i][j] * g[m, k] for m in rng), sympy.Integer(0))

    gamma = [[[sympy.Integer(0)] * d for _ in rng] for _ in rng]
    for i in rng:
        for j in rng:
            two_k = [gb(i, j, k) + gb(k, i, j) + gb(k, j, i) for k in rng]
            for m in rng:
                gamma[m][i][j] = sum((two_k[k] * ginv[k, m] for k in rng),
                                     sympy.Integer(0)) / 2

    # r13[l][i][j][k]: x_l part of R(x_i, x_j) x_k
    zero4 = lambda: [[[[sympy.Integer(0)] * d for _ in rng] for _ in rng] for _ in rng]
    r13 = zero4()
    for l in rng:
        for i in rng:
            for j in rng:
                for k in rng:
                    acc = sympy.Integer(0)
                    for m in rng:
                        acc += gamma[m][j][k] * gamma[l][i][m]
                        acc -= gamma[m][i][k] * gamma[l][j][m]
                        acc -= c[m][i][j] * gamma[l][m][k]
                    r13[l][i][j][k] = acc
    R = zero4()
    for i in rng:
        for j in rng:
            for k in rng:
                for u in rng:
                    R[i][j][k][u] = sum((r13[l][i][j][k] * g[l, u] for l in rng),
                                        sympy.Integer(0))
    ricci = [[sum((ginv[i, s] * R[i][y][z][s] for i in rng for s in rng),
                  sympy.Integer(0)) for z in rng] for y in rng]
    tau = sum((ginv[j, k] * ricci[j][k] for j in rng for k in rng), sympy.Integer(0))

    def twist_third(t):  # t(x, y, phi z, u)
        out = zero4()
        for i in rng:
            for j in rng:
                for k in rng:
                    for u in rng:
                        out[i][j][k][u] = sum((phi[m][k] * t[i][j][m][u] for m in rng),
                                              sympy.Integer(0))
        return out

    def twist_fourth(t):  # t(x, y, z, phi u)
        out = zero4()
        for i in rng:
            for j in rng:
                for k in rng:
                    for u in rng:
                        out[i][j][k][u] = sum((phi[n][u] * t[i][j][k][n] for n in rng),
                                              sympy.Integer(0))
        return out

    def trace(t):  # g^{is} g^{jk} t(x_i, x_j, x_k, x_s)
        return sum((ginv[i, s] * ginv[j, k] * t[i][j][k][s]
                    for i in rng for j in rng for k in rng for s in rng),
                   sympy.Integer(0))

    # div X = g^{ij} g(nabla_{x_i} X, x_j) for X = phi Omega, where Omega is
    # g-dual to omega(z) = F(xi, xi, z) and F(x, y, z) = g((nabla_x phi) y, z)
    xi = _nested(model.xi)
    zero = sympy.Integer(0)
    nabla_phi = [[[sum((gamma[p][a][m] * phi[m][j] - phi[p][m] * gamma[m][a][j]
                        for m in rng), zero) for j in rng] for p in rng] for a in rng]
    omega = [sum((xi[a] * xi[b] * nabla_phi[a][p][b] * g[p, k]
                  for a in rng for b in rng for p in rng), zero) for k in rng]
    omega_vec = [sum((ginv[i, k] * omega[k] for k in rng), zero) for i in rng]
    x = [sum((phi[p][i] * omega_vec[i] for i in rng), zero) for p in rng]
    nabla_x = [[sum((gamma[k][i][m] * x[m] for m in rng), zero) for k in rng] for i in rng]
    div = sum((ginv[i, j] * nabla_x[i][k] * g[k, j]
               for i in rng for j in rng for k in rng), zero)

    twisted = twist_third(R)
    return {
        "gamma": gamma,
        "r04": R,
        "ricci": ricci,
        "tau": tau,
        "tau_star": trace(twisted),
        "tau_2star": trace(twist_fourth(twisted)),
        "div_phi_omega": div,
    }


def _moved(model: AcnModel, a: sympy.Matrix, name: str) -> AcnModel:
    """``model`` on the basis ``e_b = sum_i a[i, b] x_i``, built with sympy."""
    d = model.dim
    rng = range(d)
    a_inv = a.inv()
    c = _nested(model.algebra.c)
    phi = sympy.Matrix(_nested(model.phi))
    xi = sympy.Matrix(_nested(model.xi))
    eta = sympy.Matrix([_nested(model.eta)])
    g = sympy.Matrix(_nested(model.g))
    new_c = [[[_frac(sum((a_inv[k, m] * c[m][i][j] * a[i, p] * a[j, q]
                         for m in rng for i in rng for j in rng), sympy.Integer(0)))
               for q in rng] for p in rng] for k in rng]
    to_rows = lambda m: [[_frac(v) for v in m.row(r)] for r in range(m.rows)]
    moved = AcnModel(
        algebra=LieAlgebra(d, Tensor(new_c, "udd")),
        phi=Tensor(to_rows(a_inv * phi * a), "ud"),
        xi=Tensor([_frac(v) for v in a_inv * xi], "u"),
        eta=Tensor([_frac(v) for v in eta * a], "d"),
        g=Tensor(to_rows(a.T * g * a), "dd"),
        name=name,
    )
    assert validate_structure(moved).ok
    return moved


@cache
def _moved_n1() -> AcnModel:
    a = sympy.Matrix([[2, 0, 0], [1, sympy.Rational(1, 3), 0],
                      [-1, sympy.Rational(1, 2), sympy.Rational(-3, 2)]])
    base = generate_family(FamilyParams(1, FAMILY_LAMBDAS[1]))
    return _moved(base, a, "n=1 on a rational lower-triangular basis")


@cache
def _moved_n3() -> AcnModel:
    d = 7
    lower = sympy.Matrix(d, d, lambda i, j: (-1) ** (i + j) if i > j else 0)
    upper = sympy.Matrix(d, d, lambda i, j: sympy.Rational(1, j - i + 1) if j > i else 0)
    diag = sympy.diag(2, -1, sympy.Rational(1, 2), 3, 1, sympy.Rational(-2, 3), 1)
    a = (sympy.eye(d) + lower) * diag * (sympy.eye(d) + upper)
    assert abs(a.det()) != 1
    base = generate_family(FamilyParams(3, FAMILY_LAMBDAS[3]))
    return _moved(base, a, "n=3 on a rational dense basis")


MODELS = {
    "family_n1": lambda: generate_family(FamilyParams(1, FAMILY_LAMBDAS[1])),
    "family_n2": lambda: generate_family(FamilyParams(2, FAMILY_LAMBDAS[2])),
    "family_n3": lambda: generate_family(FamilyParams(3, FAMILY_LAMBDAS[3])),
    "heisenberg": heisenberg_model,
    "golden_dense": _dense_model,
    "moved_n1": _moved_n1,
    "moved_n3": _moved_n3,
}


def _as_fractions(nested):
    if isinstance(nested, list):
        return [_as_fractions(v) for v in nested]
    return _frac(nested)


@pytest.mark.parametrize("key", list(MODELS))
def test_geometry_matches_the_sympy_oracle(key):
    model = MODELS[key]()
    want = oracle(model)
    geo = Geometry(model)
    curv = geo.curv
    got = {
        "gamma": geo.conn.gamma.components.tolist(),
        "r04": curv.r04.components.tolist(),
        "ricci": curv.ricci.components.tolist(),
    }
    for name, value in got.items():
        assert value == _as_fractions(want[name]), name
    scalars = {name: getattr(curv, name) for name in ("tau", "tau_star", "tau_2star")}
    scalars["div_phi_omega"] = geo.div_phi_omega
    for name, value in scalars.items():
        assert type(value) is Fraction and value == _frac(want[name]), name


def test_moved_models_are_dense_and_not_unimodular():
    """The basis changes leave no zero pattern for the layers to exploit."""
    for key in ("moved_n1", "moved_n3"):
        model = MODELS[key]()
        g = model.g.components.tolist()
        assert all(v != 0 for row in g for v in row), key
        assert any(Fraction(v).denominator != 1 for row in g for v in row), key
