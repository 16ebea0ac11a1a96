"""The demos print fixed bytes: each runs in a subprocess against the
checkout's ``src``, and its stdout must have the sha256 recorded when the
demo last changed meaning.  A refactor that alters one printed character
fails here."""
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import norden

DEMOS = Path(__file__).resolve().parents[1] / "demos"

STDOUT_SHA256 = {
    "01_exact_tensors.py": "8c7b9066166436252f6ca678a7de6ab6d849861c407e3bb94e3eac421246bab2",
    "02_family_tour.py": "fc6785eb200190d82ed7ce3ba315c9db473d5a63ff5bd360efbb6475a23723cc",
    "03_connection_curvature.py": "75236da3a16c8aecde1abb32898b31deab15ce01271b956cc8e13d10809083a9",
    "04_structure_tensors.py": "b2aabdf760a92c354514cfe872a52cd81afceb5858da7f0e27554295840dd170",
    "05_classification.py": "2c0e4f3d29b9c3ec11f7cdd1f8edda705057fb40c464ded80f6810c4df8b07e1",
    "06_model_files.py": "ba2c76eaa8c9553c6b5f049f8c92302cace1de9f5cf5e81b2821343b1972c4e0",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("name", sorted(STDOUT_SHA256))
def test_demo_output_is_unchanged(name):
    env = dict(os.environ)
    src = str(Path(norden.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(DEMOS / name)],
                          capture_output=True, env=env)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[name]
