"""Golden reports: the sha256 of the rendered JSON and text reports of fixed
models.  The report output is the behavioural contract of the library, so
a change of arithmetic or rendering that alters a single byte fails here.

The models are family members with n = 1..5 and one family member moved
to a dense basis by a rational, non-unimodular change of basis.  The
hashes of n = 1..4 and the dense model were recorded with the
object-Fraction contractions that preceded the integer kernel.  The
n = 5 member (dim 11) pins two-digit indices in both renderings; its
hashes were recorded while the JSON report was still rendered by
``json.dumps`` and the text report's indices by ``np.argwhere``.
"""
import hashlib
from fractions import Fraction

import numpy as np
import pytest

from norden import (
    AcnModel,
    FamilyParams,
    LieAlgebra,
    Tensor,
    generate_family,
    report_to_json,
    report_to_text,
    run_report,
    validate_structure,
)
from norden.tensors import scalar_array

FAMILY_LAMBDAS = {
    1: (2, 3),
    2: (1, "-1/2", 3, 2),
    3: (1, 2, "-3/2", "1/3", 0, -1),
    4: (2, -1, "1/2", 3, "-2/3", 1, 4, "5/2"),
    5: (1, -2, "1/2", 3, "-2/3", 1, 4, "5/2", -3, "7/4"),
}


def _dense_model() -> AcnModel:
    """The n = 2 member above on the basis ``e_a = sum_i A[i, a] x_i`` with
    ``A = D (I + U)``: ``D`` a rational diagonal, ``U`` strictly upper
    triangular, so ``A^-1 = (I - U + U^2 - U^3 + U^4) D^-1`` exactly."""
    base = generate_family(FamilyParams(2, FAMILY_LAMBDAS[2]))
    d = base.dim
    diag = scalar_array(["2", "1/3", -1, "3/2", "-5/4"])
    upper = scalar_array([
        [0, 1, "1/2", -1, 2],
        [0, 0, 1, "2/3", -1],
        [0, 0, 0, 1, "1/2"],
        [0, 0, 0, 0, -3],
        [0, 0, 0, 0, 0],
    ])
    eye = scalar_array(np.eye(d, dtype=int))
    a = np.diag(diag) @ (eye + upper)
    inv_unipotent, power = eye.copy(), eye.copy()
    for _ in range(d - 1):
        power = power @ -upper
        inv_unipotent = inv_unipotent + power
    a_inv = inv_unipotent @ np.diag(Fraction(1) / diag)
    assert np.all(a @ a_inv == eye)
    c = np.einsum("km,mij,ia,jb->kab", a_inv, base.algebra.c.components, a, a)
    model = AcnModel(
        algebra=LieAlgebra(d, Tensor(c, "udd")),
        phi=Tensor(a_inv @ base.phi.components @ a, "ud"),
        xi=Tensor(a_inv @ base.xi.components, "u"),
        eta=Tensor(base.eta.components @ a, "d"),
        g=Tensor(a.T @ base.g.components @ a, "dd"),
        name="family n=2 on a rational dense basis",
    )
    assert validate_structure(model).ok
    return model


def _model(key):
    if key == "dense":
        return _dense_model()
    return generate_family(FamilyParams(key, FAMILY_LAMBDAS[key]))


# (sha256 of report_to_json, sha256 of report_to_text)
GOLDEN = {
    1: ("e87c195a9350623f737112095d794a08b77e4d6283fb20caba8837b9f5e52b3b",
        "69e1ed064105e615f68cd66a7eb168e2676a59ae188ece180c614d36178b99ad"),
    2: ("9b017687bb5dbde79745a6dfbe74d14c8e44e43982a61d0d2893af63857561b9",
        "6ddaa661fbcb7d74272681fd2f40509a3df8a54e724cf74a308c0a975c830e6d"),
    3: ("014026934b1c0be6c4b9df5cbec950a6353ecc17b0b4bcf1fd140cec2887e053",
        "02103aaf0a899107f5be0becf8cdc142e79e0383052abe136057619d76946d52"),
    4: ("25b56d4d8bb03647fea53cfca7be1abf65a315d6a332af00d3ce78cc655dde82",
        "6af454e136780dd562ab3f85155254aabe77c181178cc78998fa753ed0e34e67"),
    5: ("083870b612e388dc7e16a653095568ab6071b088a350a57ff699314d738a8697",
        "58f040e54beb2c3ab1cf13750468657e97cc147f1851f896d961ae44c86ac24e"),
    "dense": ("f0215c1695c2e0e48382be230a722cd4d9aa026901d748d0c47c73d7806d276d",
        "be8a3b79966c0859f71cd77a53240cb0752020c39629b9ff753598d340d34f31"),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("key", list(GOLDEN))
def test_report_bytes_are_unchanged(key):
    report = run_report(_model(key))
    json_hash, text_hash = GOLDEN[key]
    assert _sha256(report_to_json(report)) == json_hash
    assert _sha256(report_to_text(report)) == text_hash
