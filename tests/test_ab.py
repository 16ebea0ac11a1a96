"""``tools/ab.py`` runs end to end: this checkout against itself (A/A) on a
pool of three small ``dense_basis`` ops, each run ``ROUNDS`` times under
each tree; and it stops when the two trees print different text for one
op."""
import importlib.util
import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]


def _ab():
    """``tools/ab.py`` as a module."""
    spec = importlib.util.spec_from_file_location("ab", REPO_ROOT / "tools" / "ab.py")
    ab = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab)
    return ab


def test_an_a_a_run_gives_identical_outputs_and_a_ratio_per_op():
    proc = subprocess.run(
        [sys.executable, "tools/ab.py", ".", ".", "--workload", "dense_basis",
         "--pool", "3"],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["workload"] == "dense_basis" and result["pairs"] == 3 * _ab().ROUNDS
    assert 0 < result["q1"] <= result["median"] <= result["q3"]


def test_ops_whose_outputs_differ_stop_the_run():
    """``compare`` refuses a pair of trees whose runs of one op print
    different text, with the op's arguments in the message."""
    ab = _ab()
    case = SimpleNamespace(argv=["report", "m.txt"])
    same = SimpleNamespace(main=lambda argv: print("R = psi4(S)") or 0)
    other = SimpleNamespace(main=lambda argv: print("R != psi4(S)") or 0)
    assert len(ab.compare(same, same, [case, case])) == 2
    with pytest.raises(AssertionError, match="m.txt"):
        ab.compare(same, other, [case])
