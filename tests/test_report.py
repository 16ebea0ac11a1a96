"""The one-stop geometry report: frozen content, determinism, and both
serialized forms."""
import json
import random
from dataclasses import fields, replace
from fractions import Fraction as Fr

from unittest import mock

import numpy as np
import pytest

from norden import canonical
from norden import report as report_module
from norden import (
    GeometryReport,
    Tensor,
    all_identities_ok,
    format_scalar,
    report_to_json,
    report_to_text,
    run_report,
)
from test_canonical_json import _tensor_dict
from zoo import dense_model, family, golden_model


@pytest.fixture(scope="module")
def rep23(fam23):
    return run_report(fam23.model)


def test_report_header_and_flags(rep23):
    assert rep23.dim == 3 and rep23.n == 1
    assert rep23.signature == {"metric": (2, 1, 0), "associated_metric": (2, 1, 0)}
    assert rep23.classes["f11"] and not rep23.classes["f0"]
    assert not rep23.flags["normal"]
    assert rep23.flags["omega_closed"] and rep23.flags["omega_star_closed"]
    assert not rep23.flags["isotropic_kahler"]
    assert not rep23.flags["curvature_phi_kahler"]


def test_report_fields_are_the_json_sections(rep23):
    """Each field of the report is one top-level section of its JSON,
    under the same name; the only other key is ``"schema"``."""
    names = [f.name for f in fields(GeometryReport)]
    assert len(names) == 9
    obj = json.loads(report_to_json(rep23))
    assert set(names) | {"schema"} == set(obj)
    assert obj["schema"] == 2


def test_report_frozen_invariants(rep23):
    assert rep23.invariants == {
        "tau": Fr(10),
        "tau_star": Fr(-12),
        "tau_double_star": Fr(0),
        "nabla_phi_square_norm": Fr(10),
        "nabla_eta_square_norm": Fr(-5),
        "nijenhuis_square_norm": Fr(-10),
        "omega_square_norm": Fr(5),
        "div_phi_omega_vec": Fr(5),
        "ricci_xi_xi": Fr(5),
        "s_trace": Fr(5),
    }


def test_report_identities_all_ok(rep23):
    assert all_identities_ok(rep23)


def test_report_tensor_inventory(rep23):
    assert set(rep23.tensors) == {
        "gamma", "fundamental", "theta", "theta_star", "omega", "omega_star",
        "omega_vec", "nabla_eta", "nijenhuis", "s", "psi4_s", "riemann",
        "ricci", "associated_metric",
    }


def test_report_is_deterministic(fam23):
    a = run_report(fam23.model)
    b = run_report(fam23.model)
    assert report_to_json(a) == report_to_json(b)
    assert report_to_text(a) == report_to_text(b)


def test_json_rendering(rep23):
    obj = json.loads(report_to_json(rep23))
    assert obj["invariants"]["tau"] == "10"
    assert obj["invariants"]["nabla_eta_square_norm"] == "-5"
    assert obj["classes"]["f11"] is True
    assert obj["classes"]["f0"] is False
    # undecidable classes are reported as unknown, not guessed
    for i in range(1, 11):
        assert obj["classes"][f"f{i}"] == "unknown"
    assert obj["flags"]["isotropic_kahler"] is False
    assert obj["identities"]["norm_chain"]["passed"] is True
    assert obj["identities"]["phi_kahler_criterion_closedness"]["applicable"] is False
    # tensors serialize as integer numerators over one denominator: by
    # index when fewer than half of the entries are nonzero, else in C order
    assert obj["tensors"]["ricci"] == {"den": 1, "num": [5, 0, 0, 0, -4, -6, 0, -6, -9],
                                       "shape": [3, 3], "variance": "dd"}
    assert obj["tensors"]["gamma"] == {
        "den": 1, "nonzero": {"0,0,1": -2, "0,0,2": -3, "1,0,0": 2, "2,0,0": -3},
        "shape": [3, 3, 3], "variance": "udd"}
    assert obj["tensors"]["theta_star"] == {"den": 1, "nonzero": {}, "shape": [3],
                                            "variance": "d"}


def _decode(leaf: dict) -> np.ndarray:
    """A schema-2 tensor leaf as an object array of its exact entries."""
    shape, den = tuple(leaf["shape"]), leaf["den"]
    if "nonzero" in leaf:
        entries = np.zeros(shape, dtype=object)
        for key, num in leaf["nonzero"].items():
            entries[tuple(map(int, key.split(","))) if key else ()] = Fr(num, den)
        return entries
    entries = np.empty(len(leaf["num"]), dtype=object)
    entries[:] = [Fr(num, den) for num in leaf["num"]]
    return entries.reshape(shape)


def _huge_tensors() -> dict[str, Tensor]:
    """Numerators of at least ``2**62`` in both leaf kinds, over ``den > 1``."""
    big = 2 ** 62
    sparse = np.zeros((3, 12), dtype=object)
    sparse[2, 11], sparse[0, 10] = Fr(big + 1, 3), -(2 ** 90)
    return {"dense": Tensor([[Fr(big, 7), -1], [0, 2 ** 100 + 3]], "ud"),
            "sparse": Tensor(sparse, "dd"),
            "scalar": Tensor(Fr(-(2 ** 70), 9), "")}


@pytest.mark.parametrize("which", ["n1", "n2", "n3", "heis", "dense", "huge"])
def test_every_json_leaf_decodes_to_exactly_its_components(which, heis):
    """Each tensor leaf of ``report_to_json``, sparse or dense, holds the
    canonical denominator and decodes to exactly ``Tensor.components``."""
    if which == "heis":
        report = run_report(heis.model)
    elif which == "dense":
        report = run_report(dense_model())
    elif which == "huge":
        report = replace(run_report(golden_model(1)), tensors=_huge_tensors())
    else:
        report = run_report(golden_model(int(which[1])))
    leaves = json.loads(report_to_json(report))["tensors"]
    assert list(leaves) == sorted(report.tensors)
    for key, t in report.tensors.items():
        leaf = leaves[key]
        sparse = 2 * np.count_nonzero(t.num) < t.num.size
        assert set(leaf) == {"den", "shape", "variance", "nonzero" if sparse else "num"}
        assert (leaf["den"], tuple(leaf["shape"]), leaf["variance"]) \
            == (t.den, t.shape, t.variance)
        decoded = _decode(leaf)
        assert decoded.shape == t.shape and np.array_equal(decoded, t.components), key
    if which == "huge":
        assert leaves["sparse"]["nonzero"] == {"0,10": -3 * 2 ** 90, "2,11": 2 ** 62 + 1}
        assert leaves["dense"]["num"] == [2 ** 62, -7, 0, 7 * (2 ** 100 + 3)]


def test_text_rendering(rep23):
    text = report_to_text(rep23)
    assert "dim = 3 (n = 1)" in text
    assert "tau = 10" in text
    assert "F11 = yes" in text
    assert "[pass] norm_chain" in text
    assert "[ n/a] phi_kahler_criterion_closedness" in text
    assert "ricci[0,0] = 5" in text


def _tensor_lines(key: str, t: Tensor) -> list[str]:
    """The text lines of one tensor by their definition: one line per
    nonzero entry in C order, its indices joined by commas."""
    nonzero = t.num != 0
    if not nonzero.any():
        return [f"  {key} = 0"]
    return [f"  {key}[{','.join(map(str, index))}] = {format_scalar(value)}"
            for index, value in zip(np.argwhere(nonzero).tolist(),
                                    t.components[nonzero].tolist())]


def test_text_rendering_of_two_digit_indices(rep23):
    """Tensors of rank 1 to 4 at dims 11 and 12, whose labels come from
    the tables of index halves, render as the per-line definition: the
    last entry, entries past index 9 on every axis, a zero tensor, and
    repeated, negative, fractional and huge values."""
    rng = random.Random(7)
    pool = [1, -1, 3, Fr(-2, 3), Fr(5, 12), 10**30, -(10**30)]
    tensors = {}
    for dim in (11, 12):
        for rank in range(1, 5):
            size = dim ** rank
            values = [rng.choice(pool) if rng.random() < 0.05 else 0 for _ in range(size)]
            values[-1] = values[size // 2] = Fr(-7, 2)
            tensors[f"t{rank}_{dim}"] = Tensor(np.array(values, dtype=object)
                                               .reshape((dim,) * rank), "d" * rank)
    tensors["zero"] = Tensor(np.zeros((11, 11), dtype=int), "dd")
    text = report_to_text(replace(rep23, tensors=tensors))
    _, tail = text.split("tensors (nonzero components):\n")
    assert tail == "".join(line + "\n" for key, t in tensors.items()
                           for line in _tensor_lines(key, t))
    assert "  t4_12[11,11,11,11] = -7/2\n" in tail


def test_text_rendering_of_int64_tensors(rep23):
    """Tensors of rank 1 to 4 at dims 7, 11 and 12 whose numerators are
    all int32 or int64 render as the per-line definition: over ``den = 1``,
    over denominators that share a different factor with each entry, over
    denominators past int32, which an int32 ``np.gcd`` cannot take, and
    over denominators past int64, which ``np.gcd`` cannot take at all."""
    rng = random.Random(11)
    pool = [1, -1, 2, 3, -4, 6, 9, -12, 35, 2**40, -(2**61) + 1]
    dens = [1, 12, 2**20 * 9, 5 * 2**33, 2**63, 3 * 2**64 + 1]
    tensors = {}
    for dim in (7, 11, 12):
        for rank in range(1, 5):
            size = dim ** rank
            for k, den in enumerate(dens):
                values = [Fr(rng.choice(pool), den) if rng.random() < 0.05 else 0
                          for _ in range(size)]
                values[-1] = values[size // 2] = Fr(-7, den)
                t = Tensor(np.array(values, dtype=object).reshape((dim,) * rank), "u" * rank)
                assert t.num.dtype == (np.int32 if t.magnitude < 2**31 else np.int64)
                tensors[f"t{rank}_{dim}_{k}"] = t
    assert {t.den for t in tensors.values()} >= {1, 5 * 2**33, 2**63, 3 * 2**64 + 1}
    assert {(t.num.dtype, t.den >= 2**31) for t in tensors.values()} == {
        (np.dtype(np.int32), False), (np.dtype(np.int32), True),
        (np.dtype(np.int64), False), (np.dtype(np.int64), True)}
    text = report_to_text(replace(rep23, tensors=tensors))
    _, tail = text.split("tensors (nonzero components):\n")
    assert tail == "".join(line + "\n" for key, t in tensors.items()
                           for line in _tensor_lines(key, t))


def _first_of_each_value(tensors: dict[str, Tensor]) -> list[str]:
    """The keys of the tensors that equal no tensor before them."""
    items = list(tensors.items())
    return [key for k, (key, t) in enumerate(items) if all(t != u for _, u in items[:k])]


@pytest.mark.parametrize("key, equal", [(2, True), ("f11_dim5", False)])
def test_each_render_writes_an_equal_tensor_once(key, equal):
    """On a family report R = psi4(S), and on ``f11_dim5(1, 1, 1, 3)``,
    whose ``twisted`` gate shuts, R differs from psi4(S): each render gives
    the bytes of its definition, ``json.dumps`` of the schema-2 leaves and
    one line per nonzero entry, and writes the entries of each distinct
    tensor once: the text render formats their numerators once, and the
    JSON writer checks their digits once."""
    report = run_report(golden_model(key))
    assert (report.tensors["riemann"] == report.tensors["psi4_s"]) == equal
    distinct = _first_of_each_value(report.tensors)
    assert ("riemann" in distinct) != equal and "psi4_s" in distinct
    formats, checks = [], []
    real_texts, real_check = report_module._numerator_texts, canonical._check_digits
    with mock.patch.object(report_module, "_numerator_texts",
                           lambda nums, den: formats.append(den) or real_texts(nums, den)), \
            mock.patch.object(canonical, "_check_digits",
                              lambda *values: checks.append(values) or real_check(*values)):
        text = report_to_text(report)
        formats_done = len(formats)
        assert report_to_json(report) == json.dumps(
            {**report_module._report_object(report),
             "tensors": {k: _tensor_dict(t) for k, t in report.tensors.items()}},
            sort_keys=True, indent=1)
    _, tail = text.split("tensors (nonzero components):\n")
    assert tail == "".join(line + "\n" for k, t in report.tensors.items()
                           for line in _tensor_lines(k, t))
    assert formats_done == sum(not report.tensors[k].is_zero() for k in distinct)
    assert len(checks) == len(distinct)


def test_a_render_reads_the_label_tables_an_earlier_one_built():
    """Both renders take their index labels, with the text before them,
    from ``canonical.index_labels``: the text render's line starts carry
    the key and the JSON render's carry the leaf's indent.  Rendering the
    report of a second family member of the same dimension builds no
    table, and neither does asking for the tables the renders used (a
    tensor equal to an earlier one takes that one's lines)."""
    first, second = (run_report(family(lam)) for lam in ((1, "-1/2", 3, 2), (2, 1, -3, 5)))
    report_to_text(first), report_to_json(first)
    labels = canonical.index_labels
    built = labels.cache_info().misses
    report_to_text(second), report_to_json(second)
    for key in _first_of_each_value(second.tensors):
        t = second.tensors[key]
        if not t.is_zero():
            assert labels(t.shape, f"\n  {key}[", "] = ")[0][0].startswith(f"\n  {key}[")
        if 2 * np.count_nonzero(t.num) < t.num.size:
            labels(t.shape, '\n    "', '": ')
    assert labels.cache_info().misses == built


def test_flat_member_report(fam_zero):
    rep = run_report(fam_zero.model)
    assert rep.classes["f0"] and rep.classes["f11"]
    assert rep.flags["normal"]
    assert rep.flags["isotropic_kahler"]
    assert rep.flags["curvature_phi_kahler"]
    assert rep.invariants["tau"] == 0
    assert rep.tensors["riemann"].is_zero()
    assert all_identities_ok(rep)


def test_heisenberg_report(heis):
    rep = run_report(heis.model)
    assert not rep.classes["f11"]
    assert rep.flags["normal"]
    assert rep.invariants["tau"] == Fr(1, 2)
    assert rep.invariants["nijenhuis_square_norm"] == 0
    assert all_identities_ok(rep)  # gated identities are n/a, none fail
    obj = json.loads(report_to_json(rep))
    assert obj["identities"]["norm_chain"]["applicable"] is False
