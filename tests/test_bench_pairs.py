"""``commit_of`` in ``tools/bench_pairs.py``: which commit a checkout's tree is."""

import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

from bench_pairs import commit_of  # noqa: E402


def test_commit_of_a_tree_without_git_is_none(tmp_path):
    # a ``git archive`` copy holds the files and no repository
    assert commit_of(tmp_path) is None


def test_commit_of_an_edited_tree_is_dirty(tmp_path):
    def git(*args):
        return subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t",
                               "-c", "commit.gpgsign=false", *args],
                              cwd=tmp_path, capture_output=True, text=True, check=True).stdout

    git("init", "-q")
    (tmp_path / "a.txt").write_text("one\n")
    git("add", "a.txt")
    git("commit", "-q", "-m", "one")
    sha = git("rev-parse", "HEAD").strip()
    # an untracked file alone leaves the tree clean
    (tmp_path / "new.txt").write_text("new\n")
    assert commit_of(tmp_path) == sha
    (tmp_path / "a.txt").write_text("two\n")
    assert commit_of(tmp_path) == f"{sha}-dirty"
