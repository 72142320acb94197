"""``tools/bench_pairs.py``: which commit a checkout's tree is, before and during the runs."""

import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import bench_pairs  # noqa: E402
from bench_pairs import commit_of  # noqa: E402


def test_commit_of_a_tree_without_git_is_none(tmp_path):
    # a ``git archive`` copy holds the files and no repository
    assert commit_of(tmp_path) is None


def commit_tree(path, files: dict[str, str]) -> str:
    """Make ``path`` a git repository holding ``files`` in one commit; return its sha."""
    def git(*args):
        return subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t",
                               "-c", "commit.gpgsign=false", *args],
                              cwd=path, capture_output=True, text=True, check=True).stdout

    git("init", "-q")
    for name, text in files.items():
        (path / name).write_text(text)
    git("add", *files)
    git("commit", "-q", "-m", "one")
    return git("rev-parse", "HEAD").strip()


def test_commit_of_an_edited_tree_is_dirty(tmp_path):
    sha = commit_tree(tmp_path, {"a.txt": "one\n"})
    # an untracked file alone leaves the tree clean
    (tmp_path / "new.txt").write_text("new\n")
    assert commit_of(tmp_path) == sha
    (tmp_path / "a.txt").write_text("two\n")
    assert commit_of(tmp_path) == f"{sha}-dirty"


def test_a_file_edited_between_runs_marks_the_report_dirty(tmp_path, monkeypatch):
    # the change checkout is clean before the first run and after the last,
    # edited in between: only a reading after every run sees it
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    declared = {"workloads": [{"name": "w"}], "end_to_end": [{"name": "m", "better": "higher"}]}
    sha = commit_tree(change, {"BENCHMARK.json": json.dumps(declared), "a.txt": "one\n"})
    change_runs = []

    def run_once(checkout, workload, seed, seconds):
        if checkout == change:
            change_runs.append(seed)
            (change / "a.txt").write_text("two\n" if len(change_runs) == 1 else "one\n")
        return {"metrics": {"m": 1.0}, "attempted": 1, "failed": 0, "comparable": True,
                "machine": {}}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--parent", str(parent), "--change", str(change),
                             "--workloads", "w:2", "--out", str(out)]) == 0
    assert change_runs == [1, 2] and commit_of(change) == sha
    report = json.loads(out.read_text())
    assert (report["parent"], report["change"]) == (None, f"{sha}-dirty")
