"""Seeded model files for the benchmark, built without the library.

Every model starts as a member of the built-in family on the basis
``x_0 ... x_2n``: the only nonzero brackets are ``[x_i, x_0] = lam_i x_0``,
``phi x_i = x_{i+n}``, ``phi x_{i+n} = -x_i``, ``xi = x_0``, ``eta = x^0``
and ``g = diag(1, 1 (n times), -1 (n times))``.  A dense model is the same
structure written on the basis ``e_a = sum_i A[i, a] x_i`` for a seeded
rational ``A`` in ``GL(2n+1, Q)`` that is not unimodular.

The scalar curvatures of a family member are basis invariants with closed
forms in ``lam`` (see :func:`expected_invariants`); they are the oracle the
benchmark checks every report against.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from random import Random

import numpy as np

#: One-axiom-broken mutations, each with the validation rule it must trip.
#: They are applied on the family basis, where the broken axiom is plain,
#: and then carried to the dense basis like any other model.
MUTATIONS = {
    "sym_bracket": "antisymmetry",     # [x_1, x_2] gains a symmetric part
    "jacobi_bracket": "jacobi",        # [x_1, x_2] = x_1 breaks Jacobi at (0, 1, 2)
    "phi_doubled": "phi_square",       # (2 phi)^2 = 4 (-Id + eta (x) xi)
    "eta_doubled": "eta_xi",           # eta(xi) = 2
    "metric_negated": "metric_signature",  # signature (n, n+1)
}

#: Files every parser must reject with exit code 2.
MALFORMED = (
    "missing_metric",
    "zero_denominator",
    "short_phi_row",
    "bracket_out_of_range",
    "truncated_json",
    "float_in_json",
)


@dataclass(frozen=True)
class Structure:
    """Exact ``(c, phi, xi, eta, g)`` as object arrays of Fractions."""

    c: np.ndarray
    phi: np.ndarray
    xi: np.ndarray
    eta: np.ndarray
    g: np.ndarray

    @property
    def dim(self) -> int:
        return self.g.shape[0]


def _exact(arr: np.ndarray) -> np.ndarray:
    return np.array([Fraction(v) for v in arr.flat], dtype=object).reshape(arr.shape)


def random_lambda(rng: Random, n: int) -> tuple[Fraction, ...]:
    """``2n`` nonzero coefficients: a shuffle of a fixed multiset of
    magnitudes, a third of them half-integers, with seeded signs, so that
    every seed draws from the same size class."""
    mags = [Fraction(v) for v in ([1, 2, 3, Fraction(1, 2), 4, Fraction(3, 2)] * n)[: 2 * n]]
    rng.shuffle(mags)
    return tuple(m * rng.choice((-1, 1)) for m in mags)


def family_structure(lam: tuple[Fraction, ...], mutation: str | None = None) -> Structure:
    """The family member with coefficients ``lam``, optionally with one
    axiom broken by a key of :data:`MUTATIONS`."""
    n = len(lam) // 2
    d = 2 * n + 1
    c = np.full((d, d, d), Fraction(0), dtype=object)
    for i in range(1, d):
        c[0, i, 0] = lam[i - 1]
        c[0, 0, i] = -lam[i - 1]
    phi = np.zeros((d, d), dtype=object)
    for i in range(1, n + 1):
        phi[i + n, i] = 1
        phi[i, i + n] = -1
    xi = np.zeros(d, dtype=object)
    xi[0] = 1
    eta = xi.copy()
    g = np.diag([1] + [1] * n + [-1] * n).astype(object)
    if mutation == "sym_bracket":
        c[1, 1, 2] += 1
        c[1, 2, 1] += 1
    elif mutation == "jacobi_bracket":
        c[1, 1, 2] += 1
        c[1, 2, 1] -= 1
    elif mutation == "phi_doubled":
        phi = 2 * phi
    elif mutation == "eta_doubled":
        eta = 2 * eta
    elif mutation == "metric_negated":
        g = -g
    elif mutation is not None:
        raise ValueError(f"unknown mutation {mutation!r}")
    return Structure(c=c, phi=_exact(phi), xi=_exact(xi), eta=_exact(eta), g=_exact(g))


def random_basis_change(rng: Random, d: int) -> tuple[np.ndarray, np.ndarray]:
    """A seeded ``A = L U`` and its exact inverse, as Fraction arrays.

    ``L`` is unit lower triangular and ``U`` upper triangular, with every
    off-diagonal entry ``+-1``; the diagonal of ``U`` is a shuffle of a
    fixed multiset whose product is never ``+-1``.  Fixing the sizes keeps
    the cost of a model steady across seeds while the entries of ``A`` stay
    dense.
    """
    diag = [Fraction(v) for v in ([2, 1, -1, Fraction(1, 3), 1] * d)[:d]]
    rng.shuffle(diag)
    low = [[Fraction(1) if i == j else Fraction(rng.choice((-1, 1)) if i > j else 0)
            for j in range(d)] for i in range(d)]
    up = [[diag[i] if i == j else Fraction(rng.choice((-1, 1)) if j > i else 0)
           for j in range(d)] for i in range(d)]
    a = np.array(low, dtype=object).dot(np.array(up, dtype=object))
    return a, _inverse(a)


def _inverse(a: np.ndarray) -> np.ndarray:
    d = a.shape[0]
    m = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(d)]
         for i, row in enumerate(a)]
    for col in range(d):
        pivot = next(r for r in range(col, d) if m[r][col] != 0)
        m[col], m[pivot] = m[pivot], m[col]
        p = m[col][col]
        m[col] = [v / p for v in m[col]]
        for r in range(d):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [v - f * w for v, w in zip(m[r], m[col])]
    return np.array([row[d:] for row in m], dtype=object)


def _integral(arr: np.ndarray) -> tuple[np.ndarray, int]:
    """``arr`` as integers over one positive common denominator."""
    den = math.lcm(*(v.denominator for v in arr.flat))
    num = np.array([v.numerator * (den // v.denominator) for v in arr.flat], dtype=object)
    return num.reshape(arr.shape), den


def _transform(arr: np.ndarray, mats) -> np.ndarray:
    """Contract axis ``k`` of ``arr`` with the first index of ``mats[k]``,
    one axis at a time, in integer arithmetic."""
    num, den = _integral(arr)
    for axis, (m, m_den) in enumerate(mats):
        num = np.moveaxis(np.tensordot(m, num, axes=([1], [axis])), 0, axis)
        den *= m_den
    return np.array([Fraction(v, den) for v in num.flat], dtype=object).reshape(num.shape)


def change_basis(s: Structure, a: np.ndarray, a_inv: np.ndarray) -> Structure:
    """Rewrite ``s`` on the basis ``e_a = sum_i A[i, a] x_i``: upper
    indices take ``A^-1``, lower indices take ``A``."""
    up = _integral(a_inv)
    down = _integral(a.T)
    return Structure(
        c=_transform(s.c, (up, down, down)),
        phi=_transform(s.phi, (up, down)),
        xi=_transform(s.xi, (up,)),
        eta=_transform(s.eta, (down,)),
        g=_transform(s.g, (down, down)),
    )


def expected_invariants(lam: tuple[Fraction, ...]) -> dict[str, Fraction]:
    """``tau = -2 sum_k (lam_k^2 - lam_{k+n}^2)`` and
    ``tau_star = -2 sum_k lam_k lam_{k+n}`` for ``k = 1 .. n``."""
    n = len(lam) // 2
    low, high = lam[:n], lam[n:]
    return {
        "tau": -2 * sum(a * a - b * b for a, b in zip(low, high)),
        "tau_star": -2 * sum(a * b for a, b in zip(low, high)),
    }


def _fmt(v: Fraction) -> str:
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def _brackets(c: np.ndarray) -> list[tuple[int, int, list[Fraction]]]:
    """The bracket table: the ``i < j`` half when ``c`` is antisymmetric,
    otherwise every nonzero pair, so the parser takes it verbatim."""
    d = c.shape[0]
    antisym = bool(np.all(c == -c.transpose(0, 2, 1)))
    out = []
    for i in range(d):
        for j in range(i + 1 if antisym else 0, d):
            if any(c[:, i, j]) or (not antisym and any(c[:, j, i])):
                out.append((i, j, list(c[:, i, j])))
    return out


def to_text(s: Structure, name: str) -> str:
    lines = [f"name = {name}", f"dim = {s.dim}", "", "[brackets]"]
    lines += [f"{i} {j} : " + " ".join(map(_fmt, v)) for i, j, v in _brackets(s.c)]
    for section, rows in (("phi", s.phi), ("xi", [s.xi]), ("eta", [s.eta]), ("metric", s.g)):
        lines += ["", f"[{section}]"] + [" ".join(map(_fmt, row)) for row in rows]
    return "\n".join(lines) + "\n"


def to_json(s: Structure, name: str) -> str:
    vec = lambda v: [_fmt(x) for x in v]
    obj = {
        "name": name,
        "dim": s.dim,
        "brackets": [[i, j, vec(v)] for i, j, v in _brackets(s.c)],
        "phi": [vec(row) for row in s.phi],
        "xi": vec(s.xi),
        "eta": vec(s.eta),
        "metric": [vec(row) for row in s.g],
    }
    return json.dumps(obj, indent=1)


def malformed(s: Structure, name: str, kind: str) -> str:
    """A broken file of the given :data:`MALFORMED` kind, made from ``s``."""
    text = to_text(s, name)
    head, _, tail = text.partition("[phi]\n")
    phi_row, _, rest = tail.partition("\n")
    if kind == "missing_metric":
        return text[: text.index("[metric]")]
    if kind == "zero_denominator":
        return f"{head}[phi]\n1/0 {phi_row.split(' ', 1)[1]}\n{rest}"
    if kind == "short_phi_row":
        return f"{head}[phi]\n{phi_row.rsplit(' ', 1)[0]}\n{rest}"
    if kind == "bracket_out_of_range":
        bad = f"{s.dim + 7} 0 :" + " 1" * s.dim
        return text.replace("[brackets]\n", f"[brackets]\n{bad}\n", 1)
    doc = to_json(s, name)
    if kind == "truncated_json":
        return doc[: len(doc) // 2]
    if kind == "float_in_json":
        obj = json.loads(doc)
        obj["metric"][0][0] = 0.5
        return json.dumps(obj, indent=1)
    raise ValueError(f"unknown malformed kind {kind!r}")
