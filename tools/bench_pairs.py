"""Run the benchmark on two checkouts in alternating pairs and summarize them.

    python3 tools/bench_pairs.py --parent DIR --change DIR --seconds 20 \
        --workloads audit_mixed:10 cliques_uniform:3 --out BENCH.json [--cpus 0]

Each checkout is a directory holding a full tree (``perfbench/`` and
``src/``). A workload runs in at least 2 pairs. Pair ``i`` (from 0) runs
``perfbench/run.py --workload W --seed S --seconds T --trace 0`` in both
directories with ``S = i + 1``; the parent runs first in even pairs and the
change first in odd ones. With ``--cpus LIST`` (comma-separated CPU numbers,
each in this process's affinity mask) every ``run.py`` child of both sides is
pinned to those CPUs with ``os.sched_setaffinity`` before it starts, so its
pool workers inherit them; the list is recorded as ``cpus`` (null without the
option). Nothing here measures anything itself: every number
is read from the last line ``run.py`` prints, and the machine record and the
``comparable`` flag (false when the workload uses more workers than the
machine has CPUs) from the result file it saves under
``perfbench/.out/results``. A run that is not comparable is kept, flagged in
the output and reported on stderr.

The output JSON holds the commit of each checkout, read before the first run
and again after every run (``<sha>-dirty`` when any reading found a tracked
file differing from that commit or named another commit, so the tree
measured is not the commit's; null for a tree that is no git repository,
such as a ``git archive`` copy) and, per workload, the
seeds and run order, every run's metrics and failure counts, and per metric
and side the median with its quartiles (``statistics.quantiles``, inclusive
method), plus the number of pairs in which the change reads better, with the
direction each metric has in ``BENCHMARK.json``, and the metric's ``verdict``
(see ``verdict``) under the ``bound`` it has there.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int, seconds: float,
             cpus: list[int] | None = None) -> dict:
    """One ``run.py`` in ``checkout``, pinned to ``cpus`` when given."""
    pin = None if cpus is None else (lambda: os.sched_setaffinity(0, cpus))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True, preexec_fn=pin)
    final = json.loads(proc.stdout.strip().splitlines()[-1])
    saved = checkout / "perfbench" / ".out" / "results" / f"{workload}-seed{seed}-trace0.json"
    record = json.loads(saved.read_text())
    return {"metrics": {k: v["value"] for k, v in final["metrics"].items()},
            "attempted": final["attempted"], "failed": final["failed"],
            "comparable": record["comparable"], "machine": record["machine"]}


def commit_of(checkout: Path) -> str | None:
    """HEAD of the checkout, with "-dirty" when a tracked file differs from it.

    None for a tree that is no git repository.
    """
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout, capture_output=True,
                          text=True)
    if proc.returncode != 0:
        return None
    status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                            cwd=checkout, capture_output=True, text=True, check=True)
    return proc.stdout.strip() + ("-dirty" if status.stdout else "")


def fold(recorded: str | None, reading: str | None) -> str | None:
    """The commit recorded for a checkout after one more ``commit_of`` reading.

    ``<sha>-dirty`` of the first reading once a later one differs from it; a
    tree first read as no git repository stays None.
    """
    if recorded is None or reading == recorded:
        return recorded
    return recorded.removesuffix("-dirty") + "-dirty"


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def better_pairs(parent: list[float], change: list[float], sign: int) -> int:
    """The pairs in which the change reads better; ``sign`` is 1 when higher is better."""
    return sum(sign * (b - a) > 0 for a, b in zip(parent, change))


def verdict(parent: list[float], change: list[float], better: str,
            bound: float | None) -> str | None:
    """How the change's runs of one metric read against the parent's, paired by index.

    ``gain`` when the change reads better in at least 9 of every 10 pairs (a
    tie counts for neither side) and its median is better than the parent's
    by more than the parent's interquartile range; ``worse`` when its median
    is worse by more than ``bound`` times the parent's median; ``unresolved``
    when neither holds and the parent's interquartile range is wider than
    that bound, unless every change run reads better than every parent run;
    ``no worse`` otherwise. None when the metric declares no bound.
    """
    if bound is None:
        return None
    sign = 1 if better == "higher" else -1
    p, c = summary(parent), summary(change)
    spread, margin = p["q3"] - p["q1"], bound * abs(p["median"])
    ahead = sign * (c["median"] - p["median"])
    if 10 * better_pairs(parent, change, sign) >= 9 * len(parent) and ahead > spread:
        return "gain"
    if -ahead > margin:
        return "worse"
    if spread > margin and not min(sign * x for x in change) > max(sign * x for x in parent):
        return "unresolved"
    return "no worse"


def bench_workload(parent: Path, change: Path, workload: str, pairs: int, seconds: float,
                   declared: dict[str, dict], commits: dict, cpus: list[int] | None) -> dict:
    """Run the pairs of one workload.

    ``declared`` maps each end-to-end metric to its entry in ``BENCHMARK.json``.
    ``commits["parent"]`` and ``commits["change"]`` (the report's own entries)
    are folded with a ``commit_of`` reading of their checkout after each run.
    """
    runs = {"parent": [], "change": []}
    order = []
    for i in range(pairs):
        seed = i + 1
        sides = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        order.append(list(sides))
        for side in sides:
            checkout = parent if side == "parent" else change
            result = run_once(checkout, workload, seed, seconds, cpus)
            commits[side] = fold(commits[side], commit_of(checkout))
            machine = result.pop("machine")
            runs[side].append({"seed": seed, **result})
            print(f"{workload} seed {seed} {side}: "
                  + " ".join(f"{k}={v:.6g}" for k, v in result["metrics"].items())
                  + f" failed={result['failed']}"
                  + ("" if result["comparable"] else " NOT COMPARABLE"), file=sys.stderr, flush=True)
    metrics = {}
    for name, entry in declared.items():
        p = [r["metrics"][name] for r in runs["parent"]]
        c = [r["metrics"][name] for r in runs["change"]]
        direction = entry["better"]
        sign = 1 if direction == "higher" else -1
        metrics[name] = {"better": direction, "parent": summary(p), "change": summary(c),
                         "change_better_pairs": better_pairs(p, c, sign),
                         "verdict": verdict(p, c, direction, entry.get("bound"))}
    return {"pairs": pairs, "seeds": [i + 1 for i in range(pairs)],
            "seconds": seconds, "order": order, "machine": machine,
            "failed": {side: sum(r["failed"] for r in rs) for side, rs in runs.items()},
            "attempted": {side: sum(r["attempted"] for r in rs) for side, rs in runs.items()},
            "metrics": metrics, "runs": runs}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workloads", nargs="+", required=True, metavar="NAME:PAIRS")
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--cpus", metavar="LIST",
                        help="comma-separated CPUs to pin every run.py child to")
    args = parser.parse_args(argv)
    cpus = None
    if args.cpus is not None:
        usable = os.sched_getaffinity(0)
        items = args.cpus.split(",")
        if not all(item.isdecimal() and int(item) in usable for item in items):
            parser.error(f"--cpus: {args.cpus!r} is not a comma-separated list of CPUs from "
                         f"{','.join(map(str, sorted(usable)))}")
        cpus = sorted({int(item) for item in items})
    declared = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in declared["end_to_end"]}
    names = {w["name"] for w in declared["workloads"]}
    plan = []
    for item in args.workloads:
        name, _, pairs = item.partition(":")
        if name not in names or not pairs.isdecimal() or int(pairs) < 2:
            parser.error(f"--workloads: {item!r} is not NAME:PAIRS with NAME one of "
                         f"{', '.join(sorted(names))} and PAIRS >= 2")
        plan.append((name, int(pairs)))
    report = {"parent": commit_of(args.parent), "change": commit_of(args.change),
              "cpus": cpus, "workloads": {}}
    for name, pairs in plan:
        report["workloads"][name] = bench_workload(
            args.parent, args.change, name, pairs, args.seconds, metrics, report, cpus)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
