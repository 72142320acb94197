"""``tools/bench_pairs.py`` on a checkout that is not a git repository."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

from bench_pairs import commit_of  # noqa: E402


def test_commit_of_a_tree_without_git_is_none(tmp_path):
    # a ``git archive`` copy holds the files and no repository
    assert commit_of(tmp_path) is None
