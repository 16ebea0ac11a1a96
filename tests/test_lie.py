"""Lie algebra construction, validation, and solvability."""
import json
from fractions import Fraction as Fr

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from norden import (
    BadParams,
    DimensionMismatch,
    FamilyParams,
    InvalidAlgebra,
    LieAlgebra,
    ParseError,
    Tensor,
    VarianceMismatch,
    algebra_from_brackets,
    bracket,
    is_solvable,
    parse_model,
    row_space_basis,
    validate,
)
from norden.lie import _jacobi_terms, structure_constants
from norden.tensors import exact_sum
from zoo import dense_member, family

lam_values = st.fractions(min_value=-5, max_value=5, max_denominator=6)


def sl2():
    """The simple algebra with [h,e] = 2e, [h,f] = -2f, [e,f] = h."""
    return algebra_from_brackets(
        3,
        {
            (0, 1): [0, 2, 0],      # [h, e] = 2e
            (0, 2): [0, 0, -2],     # [h, f] = -2f
            (1, 2): [1, 0, 0],      # [e, f] = h
        },
    )


def test_constructor_checks_shape_and_variance():
    with pytest.raises(VarianceMismatch):
        LieAlgebra(2, Tensor(np.zeros((2, 2, 2), dtype=object), "ddd"))
    with pytest.raises(DimensionMismatch):
        LieAlgebra(3, Tensor(np.zeros((2, 2, 2), dtype=object), "udd"))


def test_algebra_from_brackets_completes_antisymmetrically():
    alg = algebra_from_brackets(3, {(1, 2): [1, 0, 0]})
    c = alg.c.components
    assert c[0, 1, 2] == 1 and c[0, 2, 1] == -1
    assert validate(alg).ok


@pytest.mark.parametrize("pair", [(-1, 0), (3, 0), (0, 3)])
def test_algebra_from_brackets_rejects_an_index_out_of_range(pair):
    """A negative index does not wrap round, and a large one is named."""
    with pytest.raises(DimensionMismatch, match="out of range"):
        algebra_from_brackets(3, {pair: [1, 0, 0]})


def test_algebra_from_brackets_takes_a_listed_mirror_as_it_is():
    """Both entries of a contradictory pair are kept, in either order,
    so validation names the pair instead of the last entry winning."""
    v, w = [1, 0, 0], [0, 1, 0]
    a = algebra_from_brackets(3, {(1, 2): v, (2, 1): w})
    b = algebra_from_brackets(3, {(2, 1): w, (1, 2): v})
    assert a.c == b.c
    assert list(a.c.components[:, 1, 2]) == v and list(a.c.components[:, 2, 1]) == w
    report = validate(a)
    assert report.rules() == {"antisymmetry"}
    assert [v.where for v in report.violations] == [(1, 2)]


_STRUCTURE = {"phi": [[0, 0, 0], [0, 0, -1], [0, 1, 0]], "xi": [1, 0, 0],
              "eta": [1, 0, 0], "metric": [[1, 0, 0], [0, 1, 0], [0, 0, -1]]}


def _text_file(table: list) -> str:
    lines = ["dim = 3", "[brackets]"]
    lines += [f"{i} {j} : " + " ".join(map(str, coeffs)) for i, j, coeffs in table]
    for section, rows in _STRUCTURE.items():
        rows = rows if section in ("phi", "metric") else [rows]
        lines += [f"[{section}]"] + [" ".join(map(str, row)) for row in rows]
    return "\n".join(lines) + "\n"


def _json_file(table: list) -> str:
    brackets = [[i, j, [v if isinstance(v, (int, str)) else str(v) for v in coeffs]]
                for i, j, coeffs in table]
    return json.dumps({"dim": 3, "brackets": brackets, **_STRUCTURE})


def _parsed_constants(table: list, fmt: str) -> Tensor:
    text = _text_file(table) if fmt == "text" else _json_file(table)
    return parse_model(text, require_valid=False).algebra.c


@pytest.mark.parametrize("table", [
    [(1, 2, [1, 0, 0])],                                    # an unlisted mirror
    [(1, 2, [1, 0, 0]), (2, 1, [0, 1, 0])],                 # a contradictory mirror
    [(1, 0, [2, Fr(1, 2), "-3/4"]), (0, 2, ["6/4", 0, Fr(-5, 3)])],
])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_a_bracket_table_gives_one_algebra_by_every_route(table, fmt):
    """``algebra_from_brackets`` and both model-file parsers fill the same
    structure constants from the same table."""
    expected = algebra_from_brackets(3, {(i, j): coeffs for i, j, coeffs in table}).c
    assert _parsed_constants(table, fmt) == expected


@pytest.mark.parametrize("table, library, text, json_text", [
    ([(3, 0, [1, 0, 0])],
     "bracket indices (3, 0) out of range for dim 3",
     "bracket indices (3, 0) out of range for dim 3",
     "bracket indices (3, 0) out of range for dim 3"),
    ([(1, -1, [1, 0, 0])],
     "bracket indices (1, -1) out of range for dim 3",
     "bracket indices (1, -1) out of range for dim 3",
     "bracket indices (1, -1) out of range for dim 3"),
    ([(1, 0, [1, 0])],
     "bracket (1,0) has length 2, expected 3",
     "bracket (1,0) has length 2, expected 3",
     "bracket (1,0) has length 2, expected 3"),
])
def test_each_route_names_a_bad_bracket(table, library, text, json_text):
    """The library raises ``DimensionMismatch`` and both file formats a
    ``ParseError``, each with the message of ``structure_constants``."""
    with pytest.raises(DimensionMismatch) as exc:
        algebra_from_brackets(3, {(i, j): coeffs for i, j, coeffs in table})
    assert str(exc.value) == library
    for fmt, message in (("text", text), ("json", json_text)):
        with pytest.raises(ParseError) as exc:
            _parsed_constants(table, fmt)
        assert str(exc.value) == message


def test_bracket_evaluates_bilinearly():
    alg = algebra_from_brackets(3, {(1, 2): [1, 0, 0]})
    v = bracket(alg, [0, 2, 0], [0, 0, Fr(1, 2)])   # [2 x1, x2/2] = x0
    assert list(v.components) == [1, 0, 0]
    assert bracket(alg, [0, 1, 0], [0, 1, 0]).is_zero()


def test_validate_accepts_classical_algebras():
    assert validate(sl2()).ok
    assert validate(algebra_from_brackets(3, {})).ok   # abelian


def test_validate_reports_antisymmetry_violation():
    c = np.zeros((3, 3, 3), dtype=object)
    c[0, 1, 2] = Fr(1)
    c[0, 2, 1] = Fr(1)   # should be -1
    report = validate(LieAlgebra(3, Tensor(c, "udd")))
    assert not report.ok
    assert "antisymmetry" in report.rules()
    assert any(v.rule == "antisymmetry" and v.where == (1, 2) for v in report.violations)


def test_validate_reports_jacobi_violation():
    # [x0,x1] = x0 and [x1,x2] = x1 break Jacobi on (0,1,2):
    # J = [[x0,x1],x2] + [[x2,x0],x1] + [[x1,x2],x0] = [x0,x2] + 0 + [x1,x0] = -x0.
    alg = algebra_from_brackets(3, {(0, 1): [1, 0, 0], (1, 2): [0, 1, 0]})
    report = validate(alg)
    assert report.rules() == {"jacobi"}
    assert any(v.where == (0, 1, 2) for v in report.violations)


def test_is_solvable_on_classics():
    assert is_solvable(algebra_from_brackets(3, {}))                 # abelian
    assert is_solvable(algebra_from_brackets(3, {(1, 2): [1, 0, 0]}))  # nilpotent
    assert not is_solvable(sl2())                                    # simple


def _matrix_algebra(n, units):
    """The span of the elementary ``n x n`` matrices ``E_ab`` for the pairs
    ``units`` (closed under the commutator), on that basis:
    ``[E_ab, E_cd] = [b == c] E_ad - [d == a] E_cb``."""
    index = {unit: k for k, unit in enumerate(units)}
    brackets = {}
    for i, (a, b) in enumerate(units):
        for j, (c, d) in enumerate(units[i + 1:], start=i + 1):
            coeffs = [0] * len(units)
            if b == c:
                coeffs[index[a, d]] += 1
            if d == a:
                coeffs[index[c, b]] -= 1
            brackets[i, j] = coeffs
    return algebra_from_brackets(len(units), brackets)


def _solvable_by_pairs(algebra):
    """The derived series, one ``bracket`` per basis pair."""
    basis = [[int(i == j) for j in range(algebra.dim)] for i in range(algebra.dim)]
    while basis:
        products = [bracket(algebra, basis[a], basis[b]).components.tolist()
                    for a in range(len(basis)) for b in range(a + 1, len(basis))]
        new_basis = row_space_basis(products)
        if len(new_basis) >= len(basis):
            return False
        basis = new_basis
    return True


@pytest.mark.parametrize("n, units, solvable", [
    (3, [(a, b) for a in range(3) for b in range(3) if a <= b], True),     # b(3)
    (4, [(a, b) for a in range(4) for b in range(4) if a <= b], True),     # b(4)
    (4, [(a, b) for a in range(4) for b in range(4) if a < b], True),      # n(4)
    (2, [(a, b) for a in range(2) for b in range(2)], False),              # gl(2)
    (3, [(a, b) for a in range(3) for b in range(3)], False),              # gl(3)
])
def test_is_solvable_follows_the_derived_series(n, units, solvable):
    """Series of several steps, and ones that stop at a perfect nonzero
    subalgebra, agree with one ``bracket`` per basis pair."""
    algebra = _matrix_algebra(n, units)
    assert is_solvable(algebra) == _solvable_by_pairs(algebra) == solvable


def test_is_solvable_rejects_invalid_input():
    alg = algebra_from_brackets(3, {(0, 1): [1, 0, 0], (1, 2): [0, 1, 0]})
    with pytest.raises(InvalidAlgebra):
        is_solvable(alg)


@settings(max_examples=10, deadline=None)
@given(st.lists(lam_values, min_size=2, max_size=2))
def test_family_algebras_are_valid_and_solvable(lam):
    alg = family(lam).algebra
    assert validate(alg).ok
    assert is_solvable(alg)


@pytest.mark.parametrize("n", [True, False, 1.0, "1", 0])
def test_family_params_reject_an_n_that_is_not_a_positive_int(n):
    with pytest.raises(BadParams, match="n must be a positive integer"):
        FamilyParams(n=n, lam=(1, 2))


@pytest.mark.parametrize("lam", [(True, 2), (1, False), (0.5, 2)])
def test_family_params_reject_a_lambda_that_is_not_an_exact_rational(lam):
    with pytest.raises(BadParams, match="lambda coefficients must be exact rationals"):
        FamilyParams(n=1, lam=lam)


def test_family_bracket_convention(fam23):
    """[x_i, x_0] = lambda_i x_0 lands in c[0, i, 0]."""
    c = fam23.model.algebra.c.components
    assert c[0, 1, 0] == 2 and c[0, 2, 0] == 3
    assert c[0, 0, 1] == -2 and c[0, 0, 2] == -3
    assert bracket(fam23.model.algebra, [0, 1, 0], [1, 0, 0]) == Tensor([2, 0, 0], "u")


def _constants_from_a_list(dim: int, table: list) -> Tensor:
    """The construction ``structure_constants`` replaced: every entry as a
    pair in one list of ``dim**3``, through ``Tensor.of_pairs``."""
    c = [(0, 1)] * dim ** 3
    listed = {(i, j): pairs for i, j, pairs in table}
    for (i, j), pairs in listed.items():
        c[i * dim + j::dim * dim] = pairs
        if (j, i) not in listed:
            c[j * dim + i::dim * dim] = [(-p, q) for p, q in pairs]
    return Tensor.of_pairs(c, (dim,) * 3, "udd")


_numerators = st.one_of(st.integers(-9, 9), st.just(0),
                        st.integers(2 ** 62, 2 ** 80).map(lambda m: m * (-1) ** (m % 2)))


@st.composite
def bracket_tables(draw, numerators=_numerators):
    """Tables with listed and unlisted mirrors, contradictory mirrors and
    diagonal entries, and numerators of 2**62 and more."""
    dim = draw(st.integers(1, 5))
    keys = draw(st.lists(st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1)),
                         unique=True, max_size=dim * dim))
    pair = st.tuples(numerators, st.integers(1, 12))
    return dim, [(i, j, draw(st.lists(pair, min_size=dim, max_size=dim))) for i, j in keys]


@settings(max_examples=300, deadline=None)
@given(bracket_tables())
def test_structure_constants_match_the_list_construction(table):
    dim, entries = table
    got, want = structure_constants(dim, entries), _constants_from_a_list(dim, entries)
    assert (got.den, got.magnitude, got.num.dtype) == (want.den, want.magnitude, want.num.dtype)
    assert got.num.tolist() == want.num.tolist()
    assert all(type(v) is int for v in got.num.ravel().tolist())
    assert got.variance == "udd" and not got.num.flags.writeable


def _violations_index_by_index(c: Tensor) -> list[tuple]:
    """The violations ``validate`` lists, found one index at a time from
    the Fraction components: antisymmetry per pair ``i <= j``, Jacobi per
    triple ``i < j < k``, each with the components that fail."""
    a = c.components
    d = a.shape[0]
    out = []
    for i in range(d):
        for j in range(i, d):
            bad = [k for k in range(d) if a[k, i, j] + a[k, j, i] != 0]
            if bad:
                out.append(("antisymmetry", (i, j),
                            f"[x{i},x{j}] != -[x{j},x{i}] in components {bad}"))
    jac = (np.einsum("mjk,lim->lijk", a, a) + np.einsum("mki,ljm->lijk", a, a)
           + np.einsum("mij,lkm->lijk", a, a))
    for i in range(d):
        for j in range(i + 1, d):
            for k in range(j + 1, d):
                bad = [m for m in range(d) if jac[m, i, j, k] != 0]
                if bad:
                    out.append(("jacobi", (i, j, k),
                                f"Jacobi defect nonzero in components {bad}"))
    return out


@settings(max_examples=150, deadline=None)
@given(bracket_tables())
def test_validate_lists_each_violation_with_its_components(table):
    dim, entries = table
    small = [(i, j, [(p % 7 - 3, q) for p, q in pairs]) for i, j, pairs in entries]
    for algebra_table in (entries, small):
        c = structure_constants(dim, algebra_table)
        got = [(v.rule, v.where, v.detail) for v in validate(LieAlgebra(dim, c)).violations]
        assert got == _violations_index_by_index(c)


def _broken_everywhere() -> LieAlgebra:
    """A dim-5 table whose every pair ``i <= j`` breaks antisymmetry and
    whose every triple ``i < j < k`` breaks Jacobi: each bracket, mirrors
    and diagonal included, is listed with positive coefficients."""
    dim = 5
    table = [(i, j, [(1 + (3 * i + 5 * j + 7 * k) % 11, 1 + (i + j + k) % 3)
                     for k in range(dim)])
             for i in range(dim) for j in range(dim)]
    return LieAlgebra(dim, structure_constants(dim, table))


def test_every_broken_pair_and_triple_is_listed_with_its_components():
    algebra = _broken_everywhere()
    got = [(v.rule, v.where, v.detail) for v in validate(algebra).violations]
    assert got == _violations_index_by_index(algebra.c)
    assert [where for rule, where, _ in got if rule == "antisymmetry"] == [
        (i, j) for i in range(5) for j in range(i, 5)]
    assert [where for rule, where, _ in got if rule == "jacobi"] == [
        (i, j, k) for i in range(5) for j in range(i + 1, 5) for k in range(j + 1, 5)]


def test_each_defect_is_grouped_by_one_nonzero_and_a_clean_one_by_none(monkeypatch):
    """A spy on ``np.nonzero``: validating a valid dense algebra calls it
    not at all, and an algebra that breaks both rules once per defect, on
    the defect's rows at the kept indices: 15 pairs and 10 triples of 5
    components each."""
    calls = []
    real = np.nonzero

    def spy(a):
        calls.append(np.shape(a))
        return real(a)

    monkeypatch.setattr(np, "nonzero", spy)
    assert validate(dense_member(3).algebra).ok and calls == []
    assert not validate(_broken_everywhere()).ok and calls == [(15, 5), (10, 5)]


def three_product_jacobi(c: Tensor) -> Tensor:
    """The Jacobi defect as three products, one per cyclic term: the
    reference for the one product and two relabelings ``validate`` uses."""
    return exact_sum([(1, "mjk,lim->lijk", c, c), (1, "mki,ljm->lijk", c, c),
                      (1, "mij,lkm->lijk", c, c)])


#: Numerators whose products with each other straddle the int64 bound.
near_bound = st.integers(2 ** 30, 2 ** 31 + 2 ** 20).map(lambda m: m * (-1) ** (m % 2))


@settings(max_examples=150, deadline=None)
@given(bracket_tables(st.one_of(_numerators, near_bound)))
def test_the_jacobi_defect_equals_the_three_product_form(table):
    """Exactly equal as tensors, on constants with contradictory mirrors
    (so not antisymmetric), rational entries, numerators near the int64
    bound and Python-int numerators."""
    dim, entries = table
    c = structure_constants(dim, entries)
    assert exact_sum(_jacobi_terms(c)) == three_product_jacobi(c)
