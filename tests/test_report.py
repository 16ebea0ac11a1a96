"""The one-stop geometry report: frozen content, determinism, and both
serialized forms."""
import json
import random
from dataclasses import fields, replace
from fractions import Fraction as Fr

import numpy as np
import pytest

from norden import (
    FamilyParams,
    GeometryReport,
    Tensor,
    all_identities_ok,
    format_scalar,
    generate_family,
    report_to_json,
    report_to_text,
    run_report,
)
from test_golden import FAMILY_LAMBDAS, _dense_model


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
        report = run_report(_dense_model())
    elif which == "huge":
        report = replace(run_report(generate_family(FamilyParams(1, (2, 3)))),
                         tensors=_huge_tensors())
    else:
        report = run_report(generate_family(FamilyParams(int(which[1]),
                                                         FAMILY_LAMBDAS[int(which[1])])))
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
