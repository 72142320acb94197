"""``tools/bench_history.py``: the medians of every paired report, in file order."""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import bench_history  # noqa: E402


def report(workloads: dict[str, dict[str, tuple[float, float]]]) -> str:
    """A ``bench_pairs.py`` report holding the given (parent, change) medians."""
    return json.dumps({"parent": None, "change": None, "cpus": None, "workloads": {
        name: {"pairs": 3, "metrics": {
            metric: {"better": "higher",
                     "parent": {"median": p, "q1": p, "q3": p},
                     "change": {"median": c, "q1": c, "q3": c}}
            for metric, (p, c) in metrics.items()}}
        for name, metrics in workloads.items()}})


def test_prints_each_report_and_skips_another_shape(tmp_path, capsys):
    (tmp_path / "BENCH_10.json").write_text(report({"k20_parallel": {"work_per_s": (7.5, 8.25)}}))
    (tmp_path / "BENCH_9.json").write_text(report({
        "cliques_uniform": {"setup_s": (0.5, 0.25), "work_per_s": (300000.0, 350800.0)}}))
    (tmp_path / "BENCH_9_setup.json").write_text(json.dumps(
        {"tool": "setup_probe", "workloads": {"cliques_uniform": {"parent": [0.1]}}}))
    (tmp_path / "notes.json").write_text("{}")
    assert bench_history.main([str(tmp_path)]) == 0
    out, err = capsys.readouterr()
    rows = [line.split() for line in out.splitlines()]
    assert rows == [
        ["file", "workload", "metric", "parent", "change"],
        ["BENCH_9.json", "cliques_uniform", "setup_s", "0.5", "0.25"],
        ["BENCH_9.json", "cliques_uniform", "work_per_s", "300000", "350800"],
        ["BENCH_10.json", "k20_parallel", "work_per_s", "7.5", "8.25"],
    ]
    assert err == "bench_history: skipped BENCH_9_setup.json: not a paired report (no 'metrics')\n"


def test_prints_each_verdict_and_a_blank_for_an_older_report(tmp_path, capsys):
    (tmp_path / "BENCH_9.json").write_text(report({"k20_parallel": {"work_per_s": (7.5, 8.25)}}))
    newer = json.loads(report({"k20_parallel": {"peak_rss_mb": (40.75, 39.25),
                                                "work_per_s": (8.0, 8.0)}}))
    metrics = newer["workloads"]["k20_parallel"]["metrics"]
    metrics["peak_rss_mb"]["verdict"], metrics["work_per_s"]["verdict"] = "gain", "no worse"
    (tmp_path / "BENCH_10.json").write_text(json.dumps(newer))
    assert bench_history.main([str(tmp_path)]) == 0
    assert [line.split() for line in capsys.readouterr().out.splitlines()] == [
        ["file", "workload", "metric", "parent", "change", "verdict"],
        ["BENCH_9.json", "k20_parallel", "work_per_s", "7.5", "8.25"],
        ["BENCH_10.json", "k20_parallel", "peak_rss_mb", "40.75", "39.25", "gain"],
        ["BENCH_10.json", "k20_parallel", "work_per_s", "8", "8", "no", "worse"],
    ]
