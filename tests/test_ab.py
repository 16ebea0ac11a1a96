"""``tools/ab.py`` runs end to end: this checkout against itself (A/A) on a
pool of three small ``dense_basis`` ops, and on two ``family_sparse`` ops
at another half-dimension, each run ``ROUNDS`` times under each tree, with
a median per kind of case on a small ``validate_mix`` pool; and it stops
when the two trees print different text for one op."""
import importlib.util
import json
import os
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


def test_a_reader_that_closed_stdout_gets_exit_141_and_no_traceback():
    """``python3 tools/ab.py ... | head -1`` may close the pipe before the
    result is printed: the run then exits with 141 (128 + SIGPIPE) and
    writes nothing to stderr, as the ``norden`` command does."""
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "tools/ab.py", ".", ".", "--workload", "dense_basis",
             "--pool", "1"],
            cwd=REPO_ROOT, stdout=write, stderr=subprocess.PIPE, text=True, timeout=300,
        )
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (141, "")


def test_the_pool_is_built_at_the_half_dimension_asked_for(monkeypatch, capsys):
    """``--n 2`` builds dim-5 ``family_sparse`` models, not the workload's
    dim-13 ones: every model file of the pool declares ``dim = 5``, and
    the result names the half-dimension."""
    ab, dims = _ab(), []
    real = ab.compare

    def compare(cli_a, cli_b, cases):
        dims.extend(case.path.read_text(encoding="utf-8").splitlines()[1] for case in cases)
        return real(cli_a, cli_b, cases)

    monkeypatch.setattr(ab, "compare", compare)
    tree = str(REPO_ROOT)
    assert ab.main([tree, tree, "--workload", "family_sparse", "--pool", "2", "--n", "2"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert (result["workload"], result["n"], result["pairs"]) == ("family_sparse", 2,
                                                                 2 * ab.ROUNDS)
    assert dims == ["dim = 5"] * (2 * ab.ROUNDS)


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


@pytest.mark.parametrize("pool", [2, 3])
def test_each_op_swaps_which_tree_runs_first_from_one_round_to_the_next(pool, monkeypatch):
    """Over two rounds of a pool of even or odd size, every op runs A
    first in one round and B first in the other, and the order alternates
    from one op to the next within a round (seen by a spy on
    ``run.run_op``)."""
    ab, first = _ab(), []
    cli_a, cli_b = SimpleNamespace(name="A"), SimpleNamespace(name="B")
    cases = [SimpleNamespace(argv=[f"op{i}"]) for i in range(pool)]

    def run_op(cli, argv):
        if not first or first[-1][0] != argv:
            first.append((argv, cli.name))
        return 0, "", 1.0

    monkeypatch.setattr(ab.run, "run_op", run_op)
    assert ab.compare(cli_a, cli_b, cases * 2) == [1.0] * (2 * pool)
    rounds = [[name for _, name in first[r * pool:(r + 1) * pool]] for r in range(2)]
    assert rounds[0] == ["A", "B", "A"][:pool]
    assert rounds[1] == ["B" if name == "A" else "A" for name in rounds[0]]


def test_each_kind_of_case_gets_its_own_median(capsys):
    """A ``validate_mix`` pool of six ops holds one valid file, four
    mutants and one malformed file: the result has a median for each
    kind, keyed by ``valid``, the ``MUTATIONS`` key or the ``MALFORMED``
    kind, and prints one row per kind under the overall line."""
    ab, tree = _ab(), str(REPO_ROOT)
    assert ab.main([tree, tree, "--workload", "validate_mix", "--pool", "6", "--n", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    mutations, malformed = list(ab.models.MUTATIONS), ab.models.MALFORMED
    assert list(result["kinds"]) == ["valid", *mutations[:2], malformed[0], *mutations[2:4]]
    assert all(ratio > 0 for ratio in result["kinds"].values())
    assert [line.split(":")[0] for line in lines[1:-1]] == [
        f"#   {kind}" for kind in result["kinds"]]
