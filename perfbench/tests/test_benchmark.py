"""Self-tests of the benchmark: exact traced counts and the reference check.

    python3 -m pytest perfbench/tests -q

The traced tests start ``run.py`` twice per workload, so the file takes about
a minute.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

from workloads import WORK, WORKLOADS, count_failed, load_refs, read_output  # noqa: E402

EXACT = ("graph.builds", "state.recolor_calls", "state.apply_batch_calls", "dynamics.steps",
         "audit.outcomes", "audit.checks")


def traced(workload: str, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=170)
    result = json.loads(out.stdout.splitlines()[-1])
    return {k: v["value"] for k, v in result["metrics"].items()} | {"correct": result["correct"]}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_counts_repeat_exactly(workload):
    a, b = traced(workload, 5), traced(workload, 5)
    assert a["correct"] and b["correct"]
    assert {k: a[k] for k in EXACT} == {k: b[k] for k in EXACT}
    w = WORKLOADS[workload]
    if workload == "cliques_uniform":
        # one recolor per uniform step, no batch rounds, two builds (cli + run chunk)
        assert a["state.recolor_calls"] == a["dynamics.steps"] > 0
        assert a["state.apply_batch_calls"] == 0 and a["graph.builds"] == 2
    elif workload == "k20_parallel":
        assert a["state.apply_batch_calls"] == a["dynamics.steps"] > 0
        assert a["state.recolor_calls"] == 0
    elif workload == "sparse_er_pool":
        # one build in cli and one in every pool chunk of one run
        assert a["graph.builds"] == 1 + w.items
        assert a["state.recolor_calls"] == a["dynamics.steps"] > 0
    else:
        # every enumerated outcome recolors one scratch copy; no dynamics run
        assert a["state.recolor_calls"] == a["audit.outcomes"] > 0
        assert a["dynamics.steps"] == 0 and a["graph.builds"] == w.items


def _run_once(workload: str, out: Path):
    from colorsim.cli import main

    w = WORKLOADS[workload]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(w.argv(1, out, workers=1)) == 0
    return w, load_refs(w)["items"]["1"]


def test_reference_check_flags_one_changed_run():
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        w, expected = _run_once("k20_parallel", Path(tmp))
        path = Path(tmp) / "runs.csv"
        assert count_failed(w, expected, read_output(w, Path(tmp))) == 0
        lines = path.read_text().splitlines()
        fields = lines[-1].split(",")
        fields[9] = str(int(fields[9]) + 1)  # the steps column of the last run
        path.write_text("\n".join(lines[:-1] + [",".join(fields)]) + "\n")
        assert count_failed(w, expected, read_output(w, Path(tmp))) == 1


def test_reference_check_flags_one_changed_audit_instance():
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        w, expected = _run_once("audit_mixed", Path(tmp))
        path = Path(tmp) / "audit.jsonl"
        assert count_failed(w, expected, read_output(w, Path(tmp))) == 0
        lines = path.read_text().splitlines()
        changed = lines[1].replace('"satisfied": true', '"satisfied": false')
        assert changed != lines[1]
        lines[1] = changed
        path.write_text("\n".join(lines) + "\n")
        assert count_failed(w, expected, read_output(w, Path(tmp))) == 1
