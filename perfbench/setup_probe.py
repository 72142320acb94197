"""One set-up sample, in a fresh interpreter: import colorsim, build the graphs.

    python3 perfbench/setup_probe.py <workload>

Prints the seconds taken. ``run.py`` starts several of these and reports the
median as ``setup_s``.
"""

import sys
import time

from workloads import HERE, WORKLOADS


def main(name: str) -> None:
    w = WORKLOADS[name]
    sys.path.insert(0, str(HERE.parent / "src"))
    t0 = time.perf_counter()
    import colorsim  # noqa: F401
    from colorsim.harness import ExperimentConfig, build_graph

    if w.cell is not None:  # the audit builds its graphs inside the command
        build_graph(ExperimentConfig(**w.cell))
    print(time.perf_counter() - t0)


if __name__ == "__main__":
    main(sys.argv[1])
