"""``tools/bench_pairs.py``: which commit a checkout's tree is, before and during the runs,
and the CPUs its runs are pinned to."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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

    def run_once(checkout, workload, seed, seconds, cpus=None):
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


# reports the CPUs it may run on as the bit mask m, as perfbench/run.py reports its metrics
FAKE_RUN = """
import argparse, json, os
from pathlib import Path
parser = argparse.ArgumentParser()
for name in ("--workload", "--seed", "--seconds", "--trace"):
    parser.add_argument(name)
args = parser.parse_args()
mask = sum(1 << cpu for cpu in os.sched_getaffinity(0))
results = Path("perfbench/.out/results")
results.mkdir(parents=True, exist_ok=True)
(results / f"{args.workload}-seed{args.seed}-trace0.json").write_text(
    json.dumps({"comparable": True, "machine": {}}))
print(json.dumps({"metrics": {"m": {"value": mask}}, "attempted": 1, "failed": 0}))
"""


def fake_checkouts(tmp_path):
    declared = {"workloads": [{"name": "w"}], "end_to_end": [{"name": "m", "better": "higher"}]}
    sides = []
    for side in ("parent", "change"):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text(FAKE_RUN)
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(declared))
        sides += [f"--{side}", str(tmp_path / side)]
    return sides


def test_cpus_pin_every_run_of_both_sides(tmp_path):
    cpu = min(os.sched_getaffinity(0))
    out = tmp_path / "bench.json"
    assert bench_pairs.main([*fake_checkouts(tmp_path), "--workloads", "w:2", "--seconds", "0",
                             "--out", str(out), "--cpus", str(cpu)]) == 0
    report = json.loads(out.read_text())
    assert report["cpus"] == [cpu]
    runs = report["workloads"]["w"]["runs"]
    assert [r["metrics"]["m"] for side in ("parent", "change") for r in runs[side]] == [1 << cpu] * 4


def test_without_cpus_the_runs_keep_this_process_cpus(tmp_path):
    out = tmp_path / "bench.json"
    assert bench_pairs.main([*fake_checkouts(tmp_path), "--workloads", "w:2", "--seconds", "0",
                             "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    mask = sum(1 << cpu for cpu in os.sched_getaffinity(0))
    assert report["cpus"] is None
    assert {r["metrics"]["m"] for rs in report["workloads"]["w"]["runs"].values() for r in rs} == {mask}


@pytest.mark.parametrize("cpus", ["", "x", "0,", "0,x", "-1", "1.5", "\u00b2",
                                  str(max(os.sched_getaffinity(0)) + 1)])
def test_bad_cpus_is_a_usage_error(tmp_path, capsys, cpus):
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main([*fake_checkouts(tmp_path), "--workloads", "w:2",
                          "--out", str(tmp_path / "bench.json"), "--cpus", cpus])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "--cpus" in err and "Traceback" not in err
    assert not (tmp_path / "bench.json").exists()


def test_a_pair_count_that_is_no_decimal_integer_is_a_usage_error(tmp_path, capsys):
    # "²" is a digit to str.isdigit but not an int literal
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main([*fake_checkouts(tmp_path), "--workloads", "w:\u00b2",
                          "--out", str(tmp_path / "bench.json")])
    assert exit_info.value.code == 2
    assert "--workloads" in capsys.readouterr().err


# one synthetic case per verdict, under a bound of 10% of the parent's median
@pytest.mark.parametrize("better, parent, change, expected", [
    # better in 9 of 10 pairs (the tie counts for neither side), median 1.5 below
    # against a parent interquartile range of about 0.09
    ("lower", [40.7, 40.75, 40.8] * 3 + [40.7], [39.2, 39.25, 39.3] * 3 + [40.7], "gain"),
    # the median is 20% worse
    ("higher", [100.0, 101.0, 99.0], [80.0, 81.0, 79.0], "worse"),
    # a parent interquartile range of 30 against a margin of 12.5, the medians
    # 1 apart, and one change run below a parent run
    ("higher", [70.0, 125.0, 130.0], [80.0, 126.0, 131.0], "unresolved"),
    # the same spread, but every change run above every parent run
    ("higher", [70.0, 125.0, 130.0], [131.0, 132.0, 133.0], "no worse"),
    # better in 2 of 3 pairs only: no gain, and within the bound
    ("lower", [1.0, 1.01, 1.02], [0.9, 0.91, 1.03], "no worse"),
])
def test_verdict(better, parent, change, expected):
    assert bench_pairs.verdict(parent, change, better, 0.1) == expected


def test_a_metric_without_a_bound_has_no_verdict(tmp_path):
    out = tmp_path / "bench.json"
    assert bench_pairs.main([*fake_checkouts(tmp_path), "--workloads", "w:2", "--seconds", "0",
                             "--out", str(out)]) == 0
    assert json.loads(out.read_text())["workloads"]["w"]["metrics"]["m"]["verdict"] is None
