"""Golden reports: the sha256 of the rendered JSON and text reports of fixed
models.  The report output is the behavioural contract of the library, so
a change of arithmetic or rendering that alters a single byte fails here.

The models are family members with n = 1..5 and one family member moved
to a dense basis by a rational, non-unimodular change of basis.  The
hashes of n = 1..4 and the dense model were recorded with the
object-Fraction contractions that preceded the integer kernel.  The
n = 5 member (dim 11) pins two-digit indices in both renderings; its
hashes were recorded while the JSON report was still rendered by
``json.dumps`` and the text report's indices by ``np.argwhere``.  The
JSON hashes were re-recorded once, for report schema 2 (tensors as
integer numerators over one denominator, sparse ones by their nonzero
entries); no text hash changed then.

The same models also pin the bytes of ``serialize_model`` in both
formats; the dense model is the one whose ``phi``, ``xi`` and ``g`` have
entries with a denominator above 1.  The JSON model-file hashes were
re-recorded once, when that format gained its final newline.
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
    serialize_model,
    validate_structure,
)

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
    diag = Tensor(["2", "1/3", -1, "3/2", "-5/4"], "d").components
    upper = Tensor([
        [0, 1, "1/2", -1, 2],
        [0, 0, 1, "2/3", -1],
        [0, 0, 0, 1, "1/2"],
        [0, 0, 0, 0, -3],
        [0, 0, 0, 0, 0],
    ], "dd").components
    eye = Tensor(np.eye(d, dtype=int), "dd").components
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
    1: ("5165cfef5e08d541aac455a19dac0acf20a82d5984c28dd6edf40afa7c6bd841",
        "69e1ed064105e615f68cd66a7eb168e2676a59ae188ece180c614d36178b99ad"),
    2: ("e24f0028f1a1d2e20655879ff3fdf1535749e41440a0e57393354fe26e4de4ab",
        "6ddaa661fbcb7d74272681fd2f40509a3df8a54e724cf74a308c0a975c830e6d"),
    3: ("a504511e06a89c9ab567a2f8ff5a36c78110b70ccd64296b20fe3523b0f21bd6",
        "02103aaf0a899107f5be0becf8cdc142e79e0383052abe136057619d76946d52"),
    4: ("c4fc6af57b2ac3ae6f4cfd766dd973a45aa4e7ae486f7fa8259fd5bc84be1970",
        "6af454e136780dd562ab3f85155254aabe77c181178cc78998fa753ed0e34e67"),
    5: ("08d67636d7353194edeafead4d816ecd78ed1df80ee4db774e0e03651ddc2d35",
        "58f040e54beb2c3ab1cf13750468657e97cc147f1851f896d961ae44c86ac24e"),
    "dense": ("75e420f7da93433aede3409e3700612b04d27d62363015cf6959048cd335b2a8",
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


# (sha256 of serialize_model(model, "text"), of serialize_model(model, "json"))
MODEL_FILE_GOLDEN = {
    1: ("3ccf5ed1446932cb8b9e0e4e7ccfce09d7afba7c6f9551f69f944c0845c1b912",
        "1d4ab82ff1a92926a44604a491528f90a76dc447e2d4256b0472b5773d9b2a21"),
    2: ("6a601068f854a05114d549c5c5e2061db86dc127e908cf7473388a60bce3fdd5",
        "25882825598b77c7b7f29801d9914339c886b2183d2a61fb31879512a780bfea"),
    3: ("b020390f09bd6d9087f38f60be12b8653ad339ab4fcf1abcf33e4686fc81982c",
        "02aa630b479c45127b4c7fb82e207711576d30fe8321bfc23a462e2ded339d1f"),
    4: ("0d69f9b3ab1393e72096517f06ce8f0a012a5f14898bb7339aa6682bdf81836f",
        "d7ea1388fe92b135fa05a289b5408986841e61d176392da9590b3504fef3e0e0"),
    5: ("eeec1963001246c74abf71e7e8a0db15ac1ec0d12dd486fc8e9a1957e3bfca41",
        "d4c3e518140841c3d34d3245ce190a206d3e58b8503e82aab36c2cbd429add04"),
    "dense": ("08288fd21504f002b0a23244b6594a1f6da8d25d1893afdaed51df44cb37342c",
        "6cb55c203cbbe28b127afe857fe13883f5d637addf6260f54db8da4a9b889e1a"),
}


@pytest.mark.parametrize("key", list(MODEL_FILE_GOLDEN))
def test_model_file_bytes_are_unchanged(key):
    model = _model(key)
    text_hash, json_hash = MODEL_FILE_GOLDEN[key]
    assert _sha256(serialize_model(model, "text")) == text_hash
    assert _sha256(serialize_model(model, "json")) == json_hash
