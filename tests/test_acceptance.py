"""End-to-end acceptance gate for the solvable example family.

Ten criteria, one test per criterion, every comparison at literal
rational equality.  A shared pool of 60 seeded random family members
(20 per n in {1, 2, 3}) feeds most criteria; a few use constructed
instances (isotropy positives, the flat member, hand-broken model
files).  The terminal summary hook in conftest.py prints one PASS/FAIL
line per criterion at the end of the run.
"""
import random
from fractions import Fraction as Fr

import numpy as np
import pytest
from conftest import Geometry, build_geometry

from norden import (
    FamilyParams,
    Tensor,
    ValidationError,
    associated_metric,
    einsum_scalar,
    generate_family,
    is_metric_compatible,
    is_solvable,
    is_torsion_free,
    levi_civita,
    parse_model,
    section,
    serialize_model,
    signature,
    square_norms,
    structure_pack,
    validate,
    validate_structure,
    verify_identities,
)

SEED = 20260819
PER_N = 20
NS = (1, 2, 3)


# --- seeded instance pool -------------------------------------------------

def _random_lambda(rng: random.Random, n: int) -> tuple:
    return tuple(
        Fr(rng.randint(-6, 6), rng.choice((1, 1, 2, 3))) for _ in range(2 * n)
    )


@pytest.fixture(scope="session")
def pool() -> list[tuple[int, tuple, Geometry]]:
    """60 seeded family members, 20 per n, with full geometry."""
    rng = random.Random(SEED)
    out = []
    for n in NS:
        for _ in range(PER_N):
            lam = _random_lambda(rng, n)
            out.append((n, lam, build_geometry(generate_family(FamilyParams(n, lam)))))
    return out


# --- closed-form expectations (built independently of the library) --------

def _basis(dim: int, i: int) -> list:
    v = [0] * dim
    v[i] = 1
    return v


def _expected_gamma(n: int, lam: tuple) -> Tensor:
    dim = 2 * n + 1
    comp = np.zeros((dim, dim, dim), dtype=object)
    for i in range(1, dim):
        comp[0][0][i] = -lam[i - 1]
    for k in range(1, n + 1):
        comp[k][0][0] = lam[k - 1]
        comp[k + n][0][0] = -lam[k + n - 1]
    return Tensor(comp, "udd")


def _expected_omega(n: int, lam: tuple) -> list:
    dim = 2 * n + 1
    om = [0] * dim
    for i in range(1, n + 1):
        om[i] = -lam[i - 1 + n]
        om[i + n] = lam[i - 1]
    return om


def _expected_omega_vec(n: int, lam: tuple) -> list:
    dim = 2 * n + 1
    vec = [0] * dim
    for i in range(1, n + 1):
        vec[i] = -lam[i - 1 + n]
        vec[i + n] = -lam[i - 1]
    return vec


def _expected_f(n: int, lam: tuple) -> Tensor:
    dim = 2 * n + 1
    om = _expected_omega(n, lam)
    comp = np.zeros((dim, dim, dim), dtype=object)
    for j in range(1, dim):
        comp[0][0][j] = om[j]
        comp[0][j][0] = om[j]
    return Tensor(comp, "ddd")


def _expected_r04(n: int, lam: tuple) -> Tensor:
    dim = 2 * n + 1
    comp = np.zeros((dim, dim, dim, dim), dtype=object)
    for i in range(1, dim):
        for j in range(1, dim):
            v = -lam[i - 1] * lam[j - 1]
            comp[i][0][0][j] = v
            comp[0][i][j][0] = v
            comp[i][0][j][0] = -v
            comp[0][i][0][j] = -v
    return Tensor(comp, "dddd")


def _expected_ricci(n: int, lam: tuple) -> Tensor:
    dim = 2 * n + 1
    comp = np.zeros((dim, dim), dtype=object)
    comp[0][0] = -_lambda_balance(n, lam)
    for i in range(1, dim):
        for j in range(1, dim):
            comp[i][j] = -lam[i - 1] * lam[j - 1]
    return Tensor(comp, "dd")


def _lambda_balance(n: int, lam: tuple):
    """sum over k of (lambda_k^2 - lambda_{k+n}^2)."""
    return sum(lam[k] * lam[k] - lam[k + n] * lam[k + n] for k in range(n))


# --- criterion 1: family structure ----------------------------------------

def test_criterion_01_family_structure(pool):
    """Every generated member is a valid structure on a solvable algebra
    and both metrics have signature (n+1, n)."""
    for n, lam, geo in pool:
        assert validate_structure(geo.model).ok
        assert validate(geo.model.algebra).ok
        assert is_solvable(geo.model.algebra)
        assert signature(geo.model.g) == (n + 1, n, 0)
        assert signature(associated_metric(geo.model)) == (n + 1, n, 0)


# --- criterion 2: Levi-Civita connection ----------------------------------

def test_criterion_02_connection(pool):
    """The connection matches its closed form exactly (the only nonzero
    derivatives sit on the xi row) and is torsion-free and metric."""
    for n, lam, geo in pool:
        assert geo.conn.gamma == _expected_gamma(n, lam)
        assert is_torsion_free(geo.conn, geo.model)
        assert is_metric_compatible(geo.conn, geo.model)


# --- criterion 3: fundamental tensor and class ----------------------------

def test_criterion_03_fundamental_tensor_and_class(pool):
    """F has exactly its closed-form components, the structure lies in
    the pure eta-omega class, theta = omega, theta* = 0, and both
    1-forms are closed."""
    for n, lam, geo in pool:
        assert geo.pack.f == _expected_f(n, lam)
        assert geo.f11
        assert geo.pack.omega == Tensor(_expected_omega(n, lam), "d")
        assert geo.pack.theta == geo.pack.omega
        assert geo.pack.theta_star.is_zero()
        assert geo.forms_closed == (True, True)


# --- criterion 4: curvature tensors ---------------------------------------

def test_criterion_04_curvature(pool, fam23):
    """R, rho, tau, tau* all match their closed forms; the curvature
    vanishes when the last two slots are phi-twisted."""
    for n, lam, geo in pool:
        assert geo.curv.r04 == _expected_r04(n, lam)
        R = geo.curv.r04.components
        phi = geo.model.phi.components
        twisted = np.einsum("ijmn,mk,nu->ijku", R, phi, phi, optimize=True)
        assert not twisted.any()
        assert geo.curv.ricci == _expected_ricci(n, lam)
        assert geo.curv.tau == -2 * _lambda_balance(n, lam)
        assert geo.curv.tau_star == -2 * sum(
            lam[k] * lam[k + n] for k in range(n)
        )
    assert fam23.curv.tau == 10
    assert fam23.curv.tau_star == -12
    assert fam23.curv.ricci[0, 0] == 5


# --- criterion 5: sectional curvatures ------------------------------------

def test_criterion_05_sectional_curvatures(pool, fam23):
    """Basis-pair sections: phi-holomorphic and totally real planes are
    flat; xi-planes carry k = -lambda_i^2 / g(x_i, x_i)."""
    subset = [inst for idx, inst in enumerate(pool) if idx % PER_N < 5]
    for n, lam, geo in subset:
        dim = 2 * n + 1
        e0 = _basis(dim, 0)
        for i in range(1, dim):
            ei = _basis(dim, i)
            plane = section(geo.model, geo.conn, e0, ei)
            assert plane.kind == "xi"
            k = plane.sectional_curvature
            gii = geo.model.g[i, i]
            assert k == -lam[i - 1] * lam[i - 1] / gii
            for j in range(i + 1, dim):
                ej = _basis(dim, j)
                expected = "phi_holomorphic" if j == i + n else "totally_real"
                plane = section(geo.model, geo.conn, ei, ej)
                assert plane.kind == expected
                assert plane.sectional_curvature == 0
    m, conn = fam23.model, fam23.conn
    assert section(m, conn, [1, 0, 0], [0, 1, 0]).sectional_curvature == -4
    assert section(m, conn, [1, 0, 0], [0, 0, 1]).sectional_curvature == 9


# --- criterion 6: norm chain ----------------------------------------------

def test_criterion_06_norm_chain(pool):
    """||nabla phi||^2 = -||N||^2 = -2||nabla eta||^2 = 2 omega(Omega) on
    every member, with Omega and omega(Omega) matching closed form."""
    for n, lam, geo in pool:
        assert geo.pack.omega_vec == Tensor(_expected_omega_vec(n, lam), "u")
        oo = einsum_scalar("k,k->", geo.pack.omega, geo.pack.omega_vec)
        assert oo == -_lambda_balance(n, lam)
        norms = square_norms(geo.model, geo.conn, pack=geo.pack)
        assert norms.nabla_phi == 2 * oo
        assert norms.nijenhuis == -2 * oo
        assert norms.nabla_eta == -oo


# --- criterion 7: curvature identities ------------------------------------

def test_criterion_07_curvature_identities(pool):
    """The full identity battery holds on three members per dimension:
    R = psi4(S) with its Ricci and trace consequences, the scalar
    curvature chain, the omega* derivative identity, the phi-twist
    identity, and both Ricci identities against independent curvature."""
    nine = [pool[base + k] for base in (0, PER_N, 2 * PER_N) for k in range(3)]
    required = (
        "r_equals_psi4_s",
        "ricci_from_s",
        "s_trace_divergence",
        "scalar_curvature_chain",
        "omega_star_derivative",
        "curvature_phi_twist",
        "ricci_identity_phi",
        "ricci_identity_eta",
    )
    for n, lam, geo in nine:
        verdicts = verify_identities(
            geo.model, conn=geo.conn, pack=geo.pack, curv=geo.curv
        )
        for name in required:
            v = verdicts[name]
            assert v.applicable, (name, v.detail)
            assert v.passed, (name, v.witness)
        assert all(v.ok for v in verdicts.values())


# --- criterion 8: isotropic Kahler decision -------------------------------

ISOTROPY_POSITIVES = (
    (1, (Fr(3, 2), Fr(3, 2))),
    (2, (1, Fr(-2, 3), 1, Fr(-2, 3))),
    (3, (2, 0, Fr(5, 4), 2, 0, Fr(5, 4))),
    (2, (3, 4, 5, 0)),
    (2, (1, 2, 2, 1)),
)


def _isotropy_flags(model, conn, pack):
    norms = square_norms(model, conn, pack=pack)
    oo = einsum_scalar("k,k->", pack.omega, pack.omega_vec)
    geo = Geometry(model, conn=conn, pack=pack)
    assert geo.norms == norms
    return (
        geo.isotropic_kahler,
        oo == 0,
        norms.nijenhuis == 0,
    )


def test_criterion_08_isotropic_kahler_decision(pool):
    """Isotropy holds exactly when the lambda balance vanishes, and the
    three equivalent characterizations agree on every instance."""
    for n, lam in ISOTROPY_POSITIVES:
        assert _lambda_balance(n, lam) == 0
        model = generate_family(FamilyParams(n, lam))
        conn = levi_civita(model)
        pack = structure_pack(model, conn)
        flags = _isotropy_flags(model, conn, pack)
        assert flags == (True, True, True)

    rng = random.Random(SEED + 8)
    produced = 0
    while produced < 20:
        n = rng.choice(NS)
        lam = _random_lambda(rng, n)
        if _lambda_balance(n, lam) == 0:
            continue
        produced += 1
        model = generate_family(FamilyParams(n, lam))
        conn = levi_civita(model)
        pack = structure_pack(model, conn)
        flags = _isotropy_flags(model, conn, pack)
        assert flags == (False, False, False)

    for n, lam, geo in pool:
        flags = _isotropy_flags(geo.model, geo.conn, geo.pack)
        assert len(set(flags)) == 1
        assert flags[0] == (_lambda_balance(n, lam) == 0)


# --- criterion 9: degenerate controls -------------------------------------

BASE_TEXT = serialize_model(generate_family(FamilyParams(1, (2, 3))))

BROKEN_FILES = (
    # eta(xi) = 0: point xi at a vector annihilated by eta
    ("eta_xi", BASE_TEXT.replace("[xi]\n1 0 0", "[xi]\n0 1 0")),
    # an explicit mirror entry that contradicts the canonical half
    ("antisymmetry",
     BASE_TEXT.replace("0 2 : -3 0 0\n", "0 2 : -3 0 0\n1 0 : -2 0 0\n")),
    # brackets that fail the Jacobi identity at (0, 1, 2)
    ("jacobi",
     BASE_TEXT.replace("[brackets]\n0 1 : -2 0 0\n0 2 : -3 0 0",
                       "[brackets]\n0 1 : 1 0 0\n1 2 : 0 1 0")),
    # metric made definite: breaks the compatibility contraction
    ("norden_compatibility",
     BASE_TEXT.replace("[metric]\n1 0 0\n0 1 0\n0 0 -1",
                       "[metric]\n1 0 0\n0 1 0\n0 0 1")),
    # same file must also be rejected for its signature
    ("metric_signature",
     BASE_TEXT.replace("[metric]\n1 0 0\n0 1 0\n0 0 -1",
                       "[metric]\n1 0 0\n0 1 0\n0 0 1")),
    # endomorphism zeroed out: phi^2 no longer equals -Id + eta (x) xi
    ("phi_square",
     BASE_TEXT.replace("[phi]\n0 0 0\n0 0 -1\n0 1 0",
                       "[phi]\n0 0 0\n0 0 0\n0 0 0")),
)


def test_criterion_09_degenerate_controls(fam_zero):
    """lambda = 0 is the flat Kahler-type member; hand-broken model
    files are each rejected with the specific itemized violation."""
    assert fam_zero.f0
    assert fam_zero.curv.r04.is_zero()
    assert fam_zero.curv.r13.is_zero()
    norms = square_norms(fam_zero.model, fam_zero.conn, pack=fam_zero.pack)
    assert norms == (0, 0, 0)

    for rule, text in BROKEN_FILES:
        assert text != BASE_TEXT  # the surgery must have hit its target
        with pytest.raises(ValidationError) as err:
            parse_model(text)
        assert rule in err.value.report.rules(), (rule, str(err.value))
        if rule == "jacobi":
            wheres = [v.where for v in err.value.report.violations
                      if v.rule == "jacobi"]
            assert wheres == [(0, 1, 2)]


# --- criterion 10: oracle cross-checks ------------------------------------

def test_criterion_10_oracle_cross_checks(pool, heis, fam_zero, fam23):
    """The bracket-based and derivative-based Nijenhuis constructions
    agree everywhere, and serialization round-trips every generated
    model exactly in both formats."""
    geos = [geo for _, _, geo in pool] + [heis, fam_zero, fam23]
    for geo in geos:
        assert geo.n_from_brackets == geo.n_from_derivatives
        for fmt in ("text", "json"):
            text = serialize_model(geo.model, fmt=fmt)
            back = parse_model(text, require_valid=False)
            assert back.algebra.c == geo.model.algebra.c
            assert back.phi == geo.model.phi
            assert back.xi == geo.model.xi
            assert back.eta == geo.model.eta
            assert back.g == geo.model.g
