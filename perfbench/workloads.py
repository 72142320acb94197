"""The four benchmark workloads and the digests their outputs are checked by.

Each workload is one ``colorsim`` command line, run repeatedly with master
seeds taken from ``POOL``. Every (workload, master seed) pair has pinned
per-item digests in ``refs/<workload>.json``, recorded by ``record_refs.py``.

An item is one seeded run (one per-run CSV row, ``wall_ns`` masked) for the
sweep workloads, and one ``state_digest`` group of JSONL lines for the audit
workload.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFS = HERE / "refs"
WORK = HERE / ".out"  # scratch outputs and saved results; not committed

# Master seeds with pinned references. A benchmark --seed picks an order over
# this pool; the command inputs are fully determined by the master seed.
POOL = tuple(range(1, 13))


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "sweep" or "audit"
    items: int  # seeded runs per sweep command, or audit instances
    cell: dict | None = None  # sweep cell, canonical family names
    workers: int = 1
    cap: int | None = None
    timing: bool = False

    def argv(self, master_seed: int, out: Path, workers: int | None = None) -> list[str]:
        """The exact command line a user would type, with outputs under ``out``."""
        if self.kind == "audit":
            return ["audit", "--instances", str(self.items), "--max-n", "50",
                    "--seed", str(master_seed), "--out", str(out / "audit.jsonl")]
        config = out / "sweep.json"
        config.write_text(json.dumps({"cells": [self.cell]}), encoding="utf-8")
        argv = ["sweep", "--config", str(config), "--seed", str(master_seed),
                "--seeds", str(self.items), "--workers", str(workers or self.workers),
                "--per-run", str(out / "runs.csv"), "--aggregate", str(out / "agg.csv")]
        if self.cap is not None:
            argv += ["--cap", str(self.cap)]
        if self.timing:
            argv.append("--timing")
        return argv


WORKLOADS = {
    w.name: w
    for w in (
        Workload("cliques_uniform", "sweep", items=10, timing=True,
                 cell={"family": "disjoint_cliques", "count": 32, "size": 32,
                       "variant": "uniform"}),
        Workload("k20_parallel", "sweep", items=2, cap=10_000,
                 cell={"family": "complete", "n": 20, "k": 20, "variant": "parallel"}),
        Workload("sparse_er_pool", "sweep", items=4, workers=2,
                 cell={"family": "erdos_renyi", "n": 20000, "p": 5e-4, "graph_seed": 0,
                       "variant": "uniform"}),
        Workload("audit_mixed", "audit", items=500),
    )
}


def _h(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:8]


@dataclass
class Output:
    """What the checker read back from one command's output files."""

    digests: list  # sweep: digest per run index; audit: digest per state group
    steps: list  # sweep: CSV ``steps`` per run
    wall_ns: list  # sweep: CSV ``wall_ns`` per run
    checks: int = 0  # audit: non-skipped claim lines
    skipped: int = 0  # audit: skipped lines


def read_sweep(path: Path) -> Output:
    rows = [line for line in path.read_text(encoding="utf-8").splitlines()
            if not line.startswith("#")]
    header = rows[0].split(",")
    seed_i, steps_i, wall_i = (header.index(k) for k in ("seed", "steps", "wall_ns"))
    out = Output(digests=[], steps=[], wall_ns=[])
    for row in rows[1:]:
        fields = row.split(",")
        out.steps.append(int(fields[steps_i]))
        out.wall_ns.append(int(fields[wall_i]))
        fields[wall_i] = ""
        out.digests.append((int(fields[seed_i]), _h(",".join(fields))))
    out.digests = [d for _, d in sorted(out.digests)]
    return out


def read_audit(path: Path) -> Output:
    groups: dict[str, list[str]] = {}
    out = Output(digests=[], steps=[], wall_ns=[])
    lines = path.read_text(encoding="utf-8").splitlines()
    for line in lines[1:]:  # the first line is the metadata header
        obj = json.loads(line)
        groups.setdefault(obj.get("state_digest", ""), []).append(line)
        if obj.get("skipped"):
            out.skipped += 1
        else:
            out.checks += 1
    out.digests = sorted(_h(d + "\n" + "\n".join(ls)) for d, ls in groups.items())
    return out


def read_output(w: Workload, out: Path) -> Output:
    return read_audit(out / "audit.jsonl") if w.kind == "audit" else read_sweep(out / "runs.csv")


def count_failed(w: Workload, expected: list, got: Output) -> int:
    """Items of one command whose output differs from the pinned reference."""
    if w.kind == "sweep":
        bad = sum(1 for i, d in enumerate(expected)
                  if i >= len(got.digests) or got.digests[i] != d)
        return min(len(expected), bad + max(0, len(got.digests) - len(expected)))
    want, have = Counter(expected), Counter(got.digests)
    missing = sum((want - have).values())
    extra = sum((have - want).values())
    return min(len(expected), max(missing, extra))


def load_refs(w: Workload) -> dict:
    return json.loads((REFS / f"{w.name}.json").read_text(encoding="utf-8"))
