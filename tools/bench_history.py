"""Print the parent and change medians of every paired benchmark report.

    python3 tools/bench_history.py [DIR]

Reads every ``BENCH_*.json`` in ``DIR`` (the repository root by default) in
the format ``tools/bench_pairs.py`` writes, in order of the number in its
name, and prints one row per file, workload and end-to-end metric: the
parent's median and the change's, and the metric's verdict when any report
has one (blank for a report written before verdicts). A file of another
shape, such as a probe record, is named on stderr and skipped. The reports
were taken hours apart, so compare medians only within one file.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path


def file_order(path: Path) -> tuple[int, str]:
    """BENCH_9 before BENCH_10, and BENCH_22 before BENCH_22_cpu0."""
    match = re.match(r"BENCH_(\d+)", path.name)
    return (int(match.group(1)) if match else -1, path.name)


def medians(report) -> list[tuple[str, str, float, float, str]]:
    """(workload, metric, parent median, change median, verdict) rows of one report.

    The verdict is "" when the report has none. Raises ``ValueError`` when
    the report is not in ``bench_pairs.py``'s format.
    """
    try:
        return [(workload, metric, float(sides["parent"]["median"]),
                 float(sides["change"]["median"]), sides.get("verdict") or "")
                for workload, record in report["workloads"].items()
                for metric, sides in record["metrics"].items()]
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"not a paired report (no {exc})") from None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("dir", nargs="?", type=Path, default=Path(__file__).resolve().parents[1])
    args = parser.parse_args(argv)
    rows = []
    for path in sorted(args.dir.glob("BENCH_*.json"), key=file_order):
        try:
            rows += [(path.name, *row)
                     for row in medians(json.loads(path.read_text(encoding="utf-8")))]
        except (OSError, ValueError) as exc:
            print(f"bench_history: skipped {path.name}: {exc}", file=sys.stderr)
    verdicts = any(row[-1] for row in rows)
    print(f"{'file':<28}{'workload':<18}{'metric':<14}{'parent':>12}{'change':>12}"
          + ("  verdict" if verdicts else ""))
    for name, workload, metric, parent, change, verdict in rows:
        print(f"{name:<28}{workload:<18}{metric:<14}{parent:>12.6g}{change:>12.6g}  {verdict}"
              .rstrip())
    return 0


if __name__ == "__main__":
    sys.exit(main())
