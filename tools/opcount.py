"""Count colorsim's bytecodes per step of fixed runs and per outcome of a fixed audit.

    python3 tools/opcount.py [--src DIR]

A cost count that does not spread from run to run, unlike a wall time. Each
run case is run 0 of a fixed config at master seed 1 with k = D + 1:
``uniform``, ``component_view`` and ``persistent`` on 32 disjoint K32, and
``parallel`` on K20 with a cap of 2,000 rounds. The initial state is built
untraced, as ``harness.run_one`` builds it; then ``dynamics.run`` runs under
``sys.settrace`` with opcode events on, counted only in frames whose code
lies in the ``colorsim`` package. Frames of numpy, the standard library and
this tool are not counted. The ``audit`` case is a serial audit of instances
0-99 of ``AuditSweepSpec(master_seed=1)``: each instance is built untraced,
as ``harness.audit_instance`` builds it, and its ``audit.report_lines`` is
counted, per enumerated (vertex, color) outcome.

One JSON line per case: the case, the Python version (bytecode differs
between versions, so compare counts only on one), the steps (``outcomes``
for the audit), the bytecodes per step (per outcome) and their split per
function (``module.qualname``, most first).
``--src DIR`` imports ``colorsim`` from ``DIR`` (the directory holding the
package, such as another checkout's ``src``) instead of this tree's
``src``, so two trees can be compared.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from collections import Counter
from pathlib import Path

CASES = {
    "uniform": dict(family="disjoint_cliques", count=32, size=32, variant="uniform"),
    "component_view": dict(family="disjoint_cliques", count=32, size=32, variant="component_view"),
    "persistent": dict(family="disjoint_cliques", count=32, size=32, variant="persistent"),
    "parallel": dict(family="complete", n=20, variant="parallel", cap=2_000),
}


def traced(call, ops: Counter):
    """Return ``call()``, adding to ``ops`` the bytecodes each colorsim code object ran in it."""
    import colorsim  # the package ``main`` put first on sys.path (``--src``)

    package = os.path.join(os.path.dirname(colorsim.__file__), "")  # with a trailing separator

    def on_opcode(frame, event, arg):
        if event == "opcode":
            ops[frame.f_code] += 1
        return on_opcode

    def on_call(frame, event, arg):
        if not frame.f_code.co_filename.startswith(package):
            return None
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return on_opcode

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        return call()
    finally:
        sys.settrace(previous)


def count(config) -> tuple[int, Counter]:
    """Run 0 of ``config`` traced: its steps and the bytecodes each colorsim code object ran."""
    from colorsim.dynamics import make_rng, run
    from colorsim.harness import build_graph, initial_state

    graph = build_graph(config)
    rng = make_rng(config.master_seed, 0)
    state = initial_state(graph, config, rng)
    ops = Counter()
    return traced(lambda: run(state, config.variant, config.cap, rng), ops).steps, ops


def count_audit(spec) -> tuple[int, Counter]:
    """Every instance of ``spec``, its ``report_lines`` traced: the outcomes and the bytecodes.

    An instance enumerates k outcomes per conflicted vertex, or none when
    that exceeds ``audit.OUTCOME_BUDGET`` and the instance is skipped.
    """
    from colorsim.audit import OUTCOME_BUDGET, report_lines
    from colorsim.harness import audit_instance

    outcomes, ops = 0, Counter()
    for index in range(spec.instances):
        state, bipartite = audit_instance(spec, index)
        enumerated = state.k * len(state.conflicted)
        outcomes += enumerated if enumerated <= OUTCOME_BUDGET else 0
        traced(lambda: report_lines(state, bipartite), ops)
    return outcomes, ops


def report(case: str, units: int, ops: Counter, unit: str = "step") -> dict:
    """The JSON line of one case: its bytecodes per ``unit``, in all and per function."""
    functions = Counter()
    for code, n in ops.items():
        functions[f"{Path(code.co_filename).stem}.{getattr(code, 'co_qualname', code.co_name)}"] += n
    per = max(units, 1)  # a run that starts proper takes no step
    return {"case": case, "python": platform.python_version(), f"{unit}s": units,
            f"bytecodes_per_{unit}": round(sum(ops.values()) / per, 2),
            "per_function": {name: round(n / per, 2) for name, n in functions.most_common()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src",
                        help="directory holding the colorsim package")
    args = parser.parse_args(argv)
    if not (args.src / "colorsim" / "__init__.py").is_file():
        parser.error(f"no colorsim package in {args.src}")
    sys.path.insert(0, str(args.src.resolve()))
    from colorsim.harness import AuditSweepSpec, ExperimentConfig

    for case, fields in CASES.items():
        config = ExperimentConfig(**fields, master_seed=1)
        print(json.dumps(report(case, *count(config))), flush=True)
    spec = AuditSweepSpec(instances=100, master_seed=1)
    print(json.dumps(report("audit", *count_audit(spec), unit="outcome")), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
