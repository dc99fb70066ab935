"""``tools/identity.py``, run as a script on a small corpus."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def identity(*args):
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "identity.py"), "--limit", "4", *args],
        capture_output=True, text=True, timeout=300, check=False,
    )


def test_a_tree_against_itself_is_equal():
    done = identity("--against", str(ROOT))
    assert done.returncode == 0, done.stderr
    blas, *corpora = done.stdout.splitlines()
    assert blas.startswith("numpy ") and ", BLAS " in blas
    assert [line.split(":")[0] for line in corpora] == ["bench", "differential"]
    for line in corpora:
        assert ": 4 solves, sha256 " in line and line.endswith(": equal"), line


def test_a_moved_answer_is_named(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    solver = tmp_path / "src" / "pagerank_select" / "solver.py"
    text = solver.read_text()
    assert text.count('"iterations": self.iterations,') == 1
    solver.write_text(text.replace('"iterations": self.iterations,', '"iterations": self.iterations + 1,'))
    done = identity("--against", str(tmp_path))
    assert done.returncode == 1, done.stderr
    first = done.stdout.splitlines()[1]
    assert first.startswith("bench: 4 solves")
    assert first.endswith(": 4 of 4 differ, the first at lifted-n300 seed 1 lshaped: iterations")
