"""Run every workload once and print all of their metrics together.

    python3 perfbench/report.py [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in its own ``run.py`` process, one after another. The
per-workload blocks (every metric with its unit and sample count) are printed
as they finish, then one summary row per workload.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    rows = []
    for name in WORKLOADS:
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        if out.returncode != 0:
            print(f"{name}: exit code {out.returncode}\n{out.stderr}", file=sys.stderr)
            return out.returncode
        *lines, last = out.stdout.splitlines()
        print("\n".join(lines), flush=True)
        rows.append((name, json.loads(last)))
    print()
    names = list(rows[0][1]["metrics"])
    if args.trace:
        names = [n for n in names if n.startswith("share.")] + ["trace.overhead"]
    print(f"{'workload':<18}" + "".join(f"{n:>19}" for n in names)
          + f"{'failed_frac':>14}{'correct':>9}")
    for name, r in rows:
        cells = "".join(f"{r['metrics'][n]['value']:>13.5g} {r['metrics'][n]['unit']:<5}"
                        for n in names)
        print(f"{name:<18}{cells}{r['failed'] / r['attempted']:>14.4f}{str(r['correct']):>9}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
