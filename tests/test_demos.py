"""The demos print fixed bytes: each runs in a subprocess against the
checkout's ``src``, and its stdout must have the sha256 recorded when the
demo last changed meaning.  A refactor that alters one printed character
fails here.  The README's Python blocks run too, so that an API rename
cannot leave them stale, and the README's layout names every module."""
import hashlib
import os
import re
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
    "06_model_files.py": "4324781cc71699e9f39e1fd428fc05a21754c8e0b27958f507d8711d42c6f070",
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


def test_readme_python_blocks_run():
    """Every Python block of the README runs, in order, in one namespace."""
    text = (DEMOS.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, flags=re.S | re.M)
    assert len(blocks) == 5
    namespace = {}
    for number, block in enumerate(blocks, start=1):
        exec(compile(block, f"README.md python block {number}", "exec"), namespace)


def test_readme_layout_names_every_module():
    """The "Repository layout" block lists exactly the modules of the
    package, leaving out the dunder files."""
    text = (DEMOS.parent / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## Repository layout\n\n```\n(.*?)^```", text,
                      flags=re.S | re.M).group(1)
    listed = re.findall(r"^  (\w+\.py) ", block, flags=re.M)
    package = Path(norden.__file__).parent
    modules = [p.name for p in package.glob("*.py") if not p.name.startswith("__")]
    assert sorted(listed) == sorted(modules)
