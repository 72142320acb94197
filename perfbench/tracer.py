"""Per-layer spans around colorsim's public functions, installed from outside.

``Tracer.install`` replaces each traced function, wherever a ``colorsim``
module holds it (``from .x import name`` copies included), by a wrapper that
times the call. Spans are aggregated in memory per name: calls, busy time,
self time (busy minus the time of nested traced calls), and the calls and time
that entered the name's layer from another layer. Wrappers only observe: they
pass arguments and results through unchanged and draw nothing from any RNG.

Pool workers forked while the tracer is installed inherit the wrappers; each
resets its inherited aggregates at fork and rewrites ``<spool>/<pid>.json``
after every top-level span, so the parent can merge worker spans after the
pool has shut down.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from pathlib import Path

LAYERS = ("graph", "state", "dynamics", "audit", "harness", "cli")

# (layer, owner path, names); the owner is a module or a class
TARGETS = (
    ("graph", "colorsim.graph",
     ("complete", "disjoint_cliques", "complete_bipartite", "cycle", "erdos_renyi",
      "from_edge_list")),
    ("state", "colorsim.state:ColoringState",
     ("__init__", "recolor", "apply_batch", "copy", "monochromatic_components")),
    ("dynamics", "colorsim.dynamics",
     ("run", "step_uniform", "step_component_view", "step_persistent", "step_parallel")),
    ("audit", "colorsim.audit", ("exact_step_expectations", "audit_state", "state_digest")),
    ("harness", "colorsim.harness",
     ("build_graph", "run_one", "run_ensemble", "drift_audit_sweep", "write_runs_csv",
      "write_aggregate_csv", "write_jsonl")),
    ("cli", "colorsim.cli", ("main",)),
)

STEP_SPANS = tuple(f"dynamics.{s}" for s in
                   ("step_uniform", "step_component_view", "step_persistent", "step_parallel"))
WRITER_SPANS = ("harness.write_runs_csv", "harness.write_aggregate_csv", "harness.write_jsonl")


def _enumerated_outcomes(args, kwargs) -> int:
    """(vertex, color) outcomes one ``exact_step_expectations`` call enumerates."""
    state = args[0] if args else kwargs["state"]
    component = args[1] if len(args) > 1 else kwargs.get("component")
    vertices = component.vertices if component is not None else state.conflicted_vertices()
    return len(vertices) * state.k


COUNTERS = {"audit.exact_step_expectations": ("audit.outcomes", _enumerated_outcomes)}


class Tracer:
    def __init__(self, spool: Path):
        self.spool = spool
        self.worker = False
        self.stack: list[list] = []  # [layer, ns spent in nested spans]
        self.records: dict[str, list[int]] = {}  # count, busy, self, outer count, outer busy
        self.counts: dict[str, int] = {}
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "colorsim" or name.startswith("colorsim.")]
        for layer, owner_path, names in TARGETS:
            mod_name, _, cls_name = owner_path.partition(":")
            owner = importlib.import_module(mod_name)
            if cls_name:
                owner = getattr(owner, cls_name)
            for name in names:
                original = getattr(owner, name)
                wrapper = self._wrap(f"{layer}.{name}", original)
                if cls_name:
                    self._restore.append((owner, name, original))
                    setattr(owner, name, wrapper)
                    continue
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._restore.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
        os.register_at_fork(after_in_child=self._after_fork)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _after_fork(self) -> None:
        if not self._restore:
            return
        self.worker = True
        self.stack.clear()
        for rec in self.records.values():
            rec[:] = [0, 0, 0, 0, 0]
        self.counts.clear()

    def _flush(self) -> None:
        path = self.spool / f"{os.getpid()}.json"
        path.write_text(json.dumps({"records": self.records, "counts": self.counts}))

    # -- spans --------------------------------------------------------------

    def _wrap(self, name: str, fn):
        layer = name.partition(".")[0]
        rec = self.records.setdefault(name, [0, 0, 0, 0, 0])
        stack = self.stack
        counts = self.counts
        counter = COUNTERS.get(name)
        clock = time.perf_counter_ns
        tracer = self

        def timed(*args, **kwargs):
            if counter is not None:
                key, fn_count = counter
                counts[key] = counts.get(key, 0) + fn_count(args, kwargs)
            parent = stack[-1] if stack else None
            frame = [layer, 0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[1]
                if parent is None or parent[0] != layer:
                    rec[3] += 1
                    rec[4] += dur
                if parent is not None:
                    parent[1] += dur
                elif tracer.worker:
                    tracer._flush()

        if not inspect.isgeneratorfunction(fn):
            return functools.wraps(fn)(timed)

        # A generator's work happens while it is advanced, so time each next().
        timed_next = self._wrap(name, next)

        @functools.wraps(fn)
        def generator(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                try:
                    item = timed_next(it)
                except StopIteration:
                    return
                yield item

        return generator

    # -- results -------------------------------------------------------------

    def worker_spans(self) -> list[dict]:
        return [json.loads(p.read_text()) for p in sorted(self.spool.glob("*.json"))]


def _sum(records: dict, names, field: int) -> int:
    return sum(records.get(n, (0, 0, 0, 0, 0))[field] for n in names)


def _by_layer(records: dict, field: int) -> dict[str, int]:
    out = dict.fromkeys(LAYERS, 0)
    for name, rec in records.items():
        out[name.partition(".")[0]] += rec[field]
    return out


def layer_metrics(parent: dict, workers: list[dict], counts: dict, wall_s: float,
                  pool_width: int) -> tuple[dict, dict]:
    """Per-layer metrics and per-layer shares of the traced wall time.

    Every layer is charged its self time in the traced process. When pool
    workers ran, the parent's self time inside ``run_ensemble`` is waiting on
    the pool; it is split over the layers by the workers' self times, scaled
    to wall time by the pool width, and the part of the wait the workers'
    spans do not cover (process start, pickling, idle workers) stays
    unattributed.
    """
    merged: dict[str, list[int]] = {k: list(v) for k, v in parent.items()}
    merged_counts = dict(counts)
    for w in workers:
        for name, rec in w["records"].items():
            acc = merged.setdefault(name, [0, 0, 0, 0, 0])
            for i, x in enumerate(rec):
                acc[i] += x
        for key, x in w["counts"].items():
            merged_counts[key] = merged_counts.get(key, 0) + x

    attributed = {k: v / 1e9 for k, v in _by_layer(parent, 2).items()}
    unattributed = 0.0
    worker_self = {k: 0 for k in LAYERS}
    for w in workers:
        for k, v in _by_layer(w["records"], 2).items():
            worker_self[k] += v
    worker_busy = sum(worker_self.values()) / 1e9
    if worker_busy > 0:
        wait = parent.get("harness.run_ensemble", (0, 0, 0))[2] / 1e9
        covered = min(wait, worker_busy / pool_width)
        attributed["harness"] -= wait
        for k in LAYERS:
            attributed[k] += worker_self[k] / 1e9 * covered / worker_busy
        unattributed += wait - covered
    unattributed += wall_s - sum(attributed.values())

    def s(names, field=1):
        return _sum(merged, names, field) / 1e9

    def per_call_us(name):
        count = _sum(merged, [name], 0)
        return _sum(merged, [name], 1) / 1e3 / count if count else 0.0

    steps = _sum(merged, STEP_SPANS, 0)
    outcomes = merged_counts.get("audit.outcomes", 0)
    graph_names = [n for n in merged if n.startswith("graph.")]
    ensemble_s = s(["harness.run_ensemble"])
    run_busy_s = s(["harness.run_one"])
    metrics = {
        "graph.builds": _sum(merged, graph_names, 3),
        "graph.build_s": s(graph_names, 4),
        "state.recolor_calls": _sum(merged, ["state.recolor"], 0),
        "state.recolor_us": per_call_us("state.recolor"),
        "state.apply_batch_calls": _sum(merged, ["state.apply_batch"], 0),
        "state.apply_batch_us": per_call_us("state.apply_batch"),
        "state.init_s": s(["state.__init__"]),
        "state.copy_s": s(["state.copy"]),
        "state.components_s": s(["state.monochromatic_components"]),
        "dynamics.steps": steps,
        "dynamics.step_self_us": s(STEP_SPANS, 2) * 1e6 / steps if steps else 0.0,
        "dynamics.run_self_s": s(["dynamics.run"], 2),
        "audit.outcomes": outcomes,
        "audit.outcome_us": (s(["audit.exact_step_expectations"]) * 1e6 / outcomes
                             if outcomes else 0.0),
        "audit.enum_self_s": s(["audit.exact_step_expectations"], 2),
        "audit.digest_s": s(["audit.state_digest"]),
        "harness.ensemble_s": ensemble_s,
        "harness.run_busy_s": run_busy_s,
        "harness.worker_util": (run_busy_s / (ensemble_s * pool_width)
                                if ensemble_s else 0.0),
        "harness.write_s": s(WRITER_SPANS, 2),
        "cli.self_s": s(["cli.main"], 2),
        "harness.run_one_calls": _sum(merged, ["harness.run_one"], 0),
    }
    shares = {k: v / wall_s for k, v in attributed.items()}
    shares["unattributed"] = unattributed / wall_s
    return metrics, shares
