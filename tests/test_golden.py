"""Golden reports: the sha256 of the rendered JSON and text reports of fixed
models.  The report output is the behavioural contract of the library, so
a change of arithmetic or rendering that alters a single byte fails here.

There are nine models, of dims 3 to 19: family members with n = 1..5,
the n = 2 member moved to a dense basis by a rational, non-unimodular
change of basis, two over-bound dense models, and ``f11_dim5(1, 1, 1,
3)``, an F11 model beyond the family on which the ``twisted`` gate shuts
three identities.  The hashes of
n = 1..4 and the dense model were recorded with the object-Fraction
contractions that preceded the integer kernel.  The n = 5 member (dim 11) pins two-digit indices in both renderings; its
hashes were recorded while the JSON report was still rendered by
``json.dumps`` and the text report's indices by ``np.argwhere``.  The
JSON hashes were re-recorded once, for report schema 2 (tensors as
integer numerators over one denominator, sparse ones by their nonzero
entries); no text hash changed then.

The models are built by ``zoo.golden_model``.  The two over-bound models
are its ``dense_member(8)`` (dim 17) and a seeded dim-19 dense model of
``benchmarks/models.py``.  Each of their reports runs at least one
contraction step whose bound reaches ``INT64_SAFE``, so the step runs on
the residue route (a wrapping uint64 einsum checked by primes); the test
checks that, so the pins keep covering that route when it changes, and a
second test checks that no step of their parse and report falls back to
Python ints.  Their hashes were recorded before the JSON writer took
one join per homogeneous list.  The ``f11_dim5`` hashes were recorded
when the model joined the golden set, with no library change.

The same models also pin the bytes of ``serialize_model`` in both
formats; the dense models are the ones whose ``phi``, ``xi`` and ``g``
have entries with a denominator above 1.  The JSON model-file hashes were
re-recorded once, when that format gained its final newline.

The stdout of ``norden validate``, as text and ``--json``, is pinned on a
valid dense dim-7 model file of ``benchmarks/models.py`` and on one mutant
per ``MUTATIONS`` kind of that file, so the violation details stay
byte-identical however the axioms are decided.  These hashes were
recorded while each axiom still built and compared both of its sides.
"""
import hashlib
from random import Random

import pytest

from norden import parse_model, report_to_json, report_to_text, run_report, serialize_model
from norden.cli import main
from norden.tensors import INT64_SAFE
from probe import kernel_probe
from zoo import bench_models, golden_model

#: Models with a contraction step whose bound reaches ``INT64_SAFE``, so
#: that step runs on the residue route.
OVER_BOUND = {"dense8", "dense19"}


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
    "dense8": ("949bfe9d4ce340920e4fde596e3e211f22d9dfc60bc95cbfaded7c61fd474524",
        "8e50f6e77210311465ad23d46ff48d1365e5d58ce836dca8f5e32abf367fc807"),
    "dense19": ("5941099fe490bb701e6eb91203387ed862952ed5bdbc5053677dcfeb5069bdc9",
        "e9e45c968ecec04fe28f08a0e2d5b45e337befbcfbb3b28cd2e15a4f78965562"),
    "f11_dim5": ("bd7b2d09c0937f1d8b037fd21b2dbbbecfc9350600388d29a6ae8dc85002d8ec",
        "11c75e7d8e4bbe86de411fdcf3af6edcf6dcc3ee654bd32b3d86d1a02acad713"),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("key", list(GOLDEN))
def test_report_bytes_are_unchanged(key):
    with kernel_probe() as probe:
        report = run_report(golden_model(key))
    if key in OVER_BOUND:
        assert max(step.bound for step in probe.steps) >= INT64_SAFE
    json_hash, text_hash = GOLDEN[key]
    assert _sha256(report_to_json(report)) == json_hash
    assert _sha256(report_to_text(report)) == text_hash


@pytest.mark.parametrize("key", sorted(OVER_BOUND))
def test_the_over_bound_models_run_no_step_on_python_ints(key):
    """Parsing the model file (validation included) and reporting each
    over-bound model runs every step whose bound reaches ``INT64_SAFE`` on
    the residue route, and its check holds for all of them: no step runs
    on Python ints.  With the golden hashes above, this shows the route
    exact on committed data."""
    text = serialize_model(golden_model(key), "text")
    with kernel_probe() as probe:
        run_report(parse_model(text))
    dtypes = {step.dtype for step in probe.steps}
    assert "uint64" in dtypes and "object" not in dtypes
    assert all(step.dtype == "uint64" for step in probe.steps if step.bound >= INT64_SAFE)


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
    "dense8": ("017a6bbfaf74f933779f7b0bca01e229689e3ec9525f4075a6eda1f01db45f80",
        "beb5d044983c09f2ec4a008092378cca7540c08e73906b783a6a6cd5735d7468"),
    "dense19": ("5e58e0f718a21b1cb175697256303bb1ad7aab7a027688b9bed174f08ecada1a",
        "10a72ad1916a0e28f770ed1a4cf51741cf78056336cc9401fe738f8f82789c9d"),
    "f11_dim5": ("a84195742aca1abdf1543eff338297bb82063abfa1526014e097243ceab24a1d",
        "b31feeac547f121ad2c9cfb5c787efc400f995e8ec4b71549dd792998f36a3a4"),
}


@pytest.mark.parametrize("key", list(MODEL_FILE_GOLDEN))
def test_model_file_bytes_are_unchanged(key):
    model = golden_model(key)
    text_hash, json_hash = MODEL_FILE_GOLDEN[key]
    assert _sha256(serialize_model(model, "text")) == text_hash
    assert _sha256(serialize_model(model, "json")) == json_hash


def _validation_models(tmp_path) -> dict:
    """Model files of ``benchmarks/models.py`` at dim 7, one seeded dense
    basis for all: the valid model under ``None`` and one mutant per
    ``MUTATIONS`` kind, each broken on the family basis and then moved."""
    models, rng = bench_models(), Random(7)
    lam = models.random_lambda(rng, 3)
    basis = models.random_basis_change(rng, 7)
    paths = {}
    for kind in (None, *models.MUTATIONS):
        s = models.change_basis(models.family_structure(lam, kind), *basis)
        paths[kind] = tmp_path / f"{kind or 'valid'}.txt"
        paths[kind].write_text(models.to_text(s, f"dense dim 7, {kind or 'valid'}"),
                               encoding="utf-8")
    return paths


# (exit code, sha256 of ``norden validate`` stdout, of ``norden validate --json``)
VALIDATION_GOLDEN = {
    None: (0, "171b959199bdf277b2b1e0ad6701164ec104f3d1e87249e32e71c4ad2dc3ce1f",
           "132ad1a198d4c44f9ca09f1ea89bcdbfdc64b7536c6fe1b1e6326df57267b3d5"),
    "sym_bracket": (1, "2aff4f795bb2136112842e51284bc4b8d5832dbd8e40019aa1331e4ef258330b",
                    "eeba4d61bce0a8107147e256ce2d009eb7ace338a14cf46c8a5adae140455229"),
    "jacobi_bracket": (1, "05c3d311dcea8710671969b25a7faee9055c6c4537f9c524bb64d8925df42572",
                       "61a10557e5832d9bf2567309f49306df97d17af44e2456b9021baf275ad2239a"),
    "phi_doubled": (1, "2c7bf2135fd6bfcad9b4394af411bf3c63c79ffc1dd08c3eef7892ce5d692c3d",
                    "ee3b66fc9207526fdf0de93326c8b3d61c040e495f5469ae5ca4a46950b75476"),
    "eta_doubled": (1, "7943c9b92e1a7472c4632fae4bc663f031d2f6cde4b7a8c8ee51eccdf86eab85",
                    "45169cc81c3052467d58fc03ae2473c85a8f6e4901d7aac922c0802e98f9170f"),
    "metric_negated": (1, "9524cc9caaddea35c8db560dea49799e30e33dcfd46661d86710d2a96b778143",
                       "0f31792f7155bfbafe0fbbd81e01e2de8cdde44a55f85321cc4552c00ef600dc"),
}


@pytest.mark.parametrize("kind", list(VALIDATION_GOLDEN), ids=str)
def test_validation_bytes_are_unchanged(kind, tmp_path, capsys):
    path = str(_validation_models(tmp_path)[kind])
    code, text_hash, json_hash = VALIDATION_GOLDEN[kind]
    assert main(["validate", path]) == code
    assert _sha256(capsys.readouterr().out) == text_hash
    assert main(["validate", path, "--json"]) == code
    assert _sha256(capsys.readouterr().out) == json_hash
