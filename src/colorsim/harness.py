"""Seeded ensembles, scaling experiments, and the randomized audit sweep.

``FAMILIES`` is the one table of graph families (CLI alias, required
config fields, graph constructor, audit sampler), and ``FAMILY_FIELDS`` names
the fields that size a graph. ``ExperimentConfig`` and ``AuditSweepSpec``
validate against them and the step and init tables on construction, raising
a one-line ``ValueError``: each config field is checked against its own
annotation, and a family field the family does not take is refused.

Every seeded run, ``colorsim run``'s included, is ``run_one``: it draws from
its own PCG64 stream derived from (master_seed, run_index), so aggregates do
not depend on worker count or completion order; an ensemble returns its
``RunResult``s in run-index order, on a graph its caller built once with
``build_graph``. ``sweep`` is the one loop over cells, which the CLI's
``sweep`` and ``compare`` both run; it builds a graph only when a cell's
graph fields change. ``ordered_map`` is the one process pool: ensembles map their run indices
over it, and the audit sweep its instance indices on every usable CPU;
either way the results come back in index order. Results flow out as CSV
(one row per run, one row per config, both opening with the
``CELL_FIELDS`` columns) and JSON lines (audit reports, traces); every
output starts with a metadata header sufficient to reproduce it. The audit
sweep here picks the states to audit; ``audit.report_lines`` owns the
format of its lines, and ``dynamics.Trace`` builds the trace lines.
"""

from __future__ import annotations

import csv
import json
import math
import time
from contextlib import closing
from dataclasses import asdict, dataclass, replace
from functools import partial
from pathlib import Path
from typing import Callable, Iterable, Iterator, TextIO, get_type_hints

import numpy as np

from ._version import __version__
from . import graph as graphs
from .audit import report_lines
from .dynamics import STEPS, Observer, RunResult, make_rng, run
from .graph import Graph, usable_cpus
from .state import ColoringState, init_random

# the cell columns that open both CSVs
CELL_FIELDS = (
    "config_id",
    "family",
    "n",
    "m",
    "delta",
    "k",
    "variant",
    "init",
)

RUN_CSV_FIELDS = (
    *CELL_FIELDS,
    "seed",
    "steps",
    "terminated",
    "initial_phi_num",
    "final_phi_num",
    "wall_ns",
)

AGGREGATE_CSV_FIELDS = (
    *CELL_FIELDS,
    "seeds",
    "cap",
    "master_seed",
    "mean_steps",
    "median_steps",
    "std_steps",
    "ci95_low",
    "ci95_high",
    "termination_fraction",
    "min_steps",
    "max_steps",
    "fit_model",
    "fit_coefficient",
    "fit_r2",
)

PERSISTENT_STEP_NOTE = (
    "persistent steps count every color draw, including draws equal to the current color"
)


@dataclass(frozen=True)
class Family:
    """A graph family: CLI alias, required config fields, constructor, audit sampler.

    Both callables look the generators up in ``graphs`` when called, so a wrapper
    installed there sees every build. ``min_max_n`` is the least ``max_n`` the
    sampler accepts, the fewest vertices of its instances, or 0 where the
    sampler ignores ``max_n``. ``optional`` names the other fields it reads when set.
    """

    alias: str
    fields: tuple[str, ...]
    build: Callable[[ExperimentConfig], Graph]
    sample: Callable[[AuditSweepSpec, np.random.Generator], Graph] | None = None
    min_max_n: int = 0
    bipartite: bool = False
    optional: tuple[str, ...] = ()


# vertex range (capped above by max_n) and edge probabilities of the er audit instances
ER_N_RANGE = (5, 50)
ER_P_VALUES = (0.1, 0.3, 0.7)


def _sample_erdos_renyi(spec: AuditSweepSpec, rng: np.random.Generator) -> Graph:
    lo, hi = ER_N_RANGE
    n = lo + int(rng.integers(min(hi, spec.max_n) - lo + 1))
    p = ER_P_VALUES[int(rng.integers(len(ER_P_VALUES)))]
    return graphs.erdos_renyi(n, p, int(rng.integers(2**63)))


# canonical name -> family, in the CLI's --family order; the samplers keep
# the draw order of every audit instance
FAMILIES = {
    "complete": Family("complete", ("n",), lambda c: graphs.complete(c.n),
                       lambda spec, rng: graphs.complete(2 + int(rng.integers(11)))),
    "disjoint_cliques": Family(
        "cliques", ("count", "size"), lambda c: graphs.disjoint_cliques(c.count, c.size),
        lambda spec, rng: graphs.disjoint_cliques(1 + int(rng.integers(3)),
                                                  2 + int(rng.integers(9)))),
    "complete_bipartite": Family(
        "bipartite", ("a", "b"), lambda c: graphs.complete_bipartite(c.a, c.b),
        lambda spec, rng: graphs.complete_bipartite(1 + int(rng.integers(10)),
                                                    1 + int(rng.integers(10))),
        bipartite=True),
    "cycle": Family("cycle", ("n",), lambda c: graphs.cycle(c.n),
                    lambda spec, rng: graphs.cycle(3 + int(rng.integers(min(48, spec.max_n - 2)))),
                    min_max_n=3),
    "erdos_renyi": Family("er", ("n", "p"), lambda c: graphs.erdos_renyi(c.n, c.p, c.graph_seed),
                          _sample_erdos_renyi, min_max_n=ER_N_RANGE[0], optional=("graph_seed",)),
    "file": Family("file", ("path",), lambda c: graphs.from_edge_list(
        Path(c.path).read_text(encoding="utf-8"), n=c.n), optional=("n",)),
}
FAMILY_ALIASES = {family.alias: name for name, family in FAMILIES.items()}

# CLI name -> init
INIT_ALIASES = {"random": "random", "ones": "all_ones", "file": "explicit"}

FAMILY_FIELDS = ("n", "count", "size", "a", "b", "p")  # graph size fields, one flag each


@dataclass(frozen=True)
class ExperimentConfig:
    """One ensemble cell: a graph family, a variant, and run parameters.

    Construction validates the cell against the family, step and init tables
    and raises ``ValueError`` with a one-line reason.
    """

    family: str
    n: int | None = None
    count: int | None = None
    size: int | None = None
    a: int | None = None
    b: int | None = None
    p: float | int | None = None
    graph_seed: int = 0
    path: str | None = None
    variant: str = "uniform"
    k: int | None = None
    init: str = "random"
    explicit_colors: tuple[int, ...] | None = None
    seeds: int = 200
    master_seed: int = 0
    cap: int = 1_000_000

    def __post_init__(self):
        for name, kind in _FIELD_HINTS.items():
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, kind) or (
                    isinstance(value, float) and not math.isfinite(value)):
                raise ValueError(f"bad {name}: {value!r}")
        if self.family not in FAMILIES:
            raise ValueError(f"unknown graph family {self.family!r}; "
                             f"choose from {', '.join(FAMILIES)}")
        family = FAMILIES[self.family]
        for name in (*FAMILY_FIELDS, "path", "graph_seed"):
            if self._graph_value(name) is None and name in family.fields:
                raise ValueError(f"{self.family} needs {name}")
            if self._graph_value(name) is not None and name not in family.fields + family.optional:
                raise ValueError(f"{self.family} does not take {name}")
        if self.variant not in STEPS:
            raise ValueError(f"unknown variant {self.variant!r}; choose from {', '.join(STEPS)}")
        if self.init not in INIT_ALIASES.values():
            raise ValueError(f"unknown init {self.init!r}; "
                             f"choose from {', '.join(INIT_ALIASES.values())}")
        if self.init == "explicit" and self.explicit_colors is None:
            raise ValueError("explicit init needs explicit_colors")
        if self.init != "explicit" and self.explicit_colors is not None:
            raise ValueError(f"explicit_colors needs init explicit, not {self.init!r}")
        colors = self.explicit_colors
        if colors is not None and not (isinstance(colors, (list, tuple)) and all(
                isinstance(c, int) and not isinstance(c, bool) for c in colors)):
            raise ValueError("explicit_colors must be a list of integers")
        if self.k is not None and self.k < 1:
            raise ValueError("k must be >= 1")
        if self.seeds < 1:
            raise ValueError("seeds must be >= 1")
        if self.cap < 1:
            raise ValueError("cap must be >= 1")
        if self.graph_seed < 0:
            raise ValueError("graph_seed must be >= 0")
        if self.master_seed < 0:
            raise ValueError("master_seed must be >= 0")

    def _graph_value(self, name: str):
        """A graph field's value, or None where unset; a graph_seed of 0, the default, is unset."""
        return None if name == "graph_seed" and self.graph_seed == 0 else getattr(self, name)

    def graph_fields(self) -> tuple:
        """The family, then ``(name, value)`` for each of its ``fields + optional`` that is set."""
        family = FAMILIES[self.family]
        return (self.family, *((name, self._graph_value(name))
                               for name in family.fields + family.optional
                               if self._graph_value(name) is not None))

    def resolved_id(self) -> str:
        family, *fields = self.graph_fields()
        fields.sort(key=lambda field: field[0] == "path")  # last, so it spells no other field
        parts = [family, *(f"{name}{value}" for name, value in fields), self.variant, self.init]
        return "-".join(parts if self.k is None else [*parts, f"k{self.k}"])


# fields can come from JSON, so each is checked against its annotation. A JSON bool,
# which Python counts as an int, is refused; explicit_colors checks itself
_FIELD_HINTS = {name: hint for name, hint in get_type_hints(ExperimentConfig).items()
                if name != "explicit_colors"}


@dataclass(frozen=True)
class EnsembleStats:
    seeds: int
    mean_steps: float
    median_steps: float
    std_steps: float
    ci95_low: float
    ci95_high: float
    termination_fraction: float
    min_steps: int
    max_steps: int


@dataclass(frozen=True)
class FitResult:
    """Least squares through the origin of mean steps against one regressor."""

    model: str
    coefficient: float
    r_squared: float


FIT_MODELS = {
    "n_log_delta": lambda n, delta: n * math.log(delta),
    "n_log_n": lambda n, delta: n * math.log(n),
    "n_delta": lambda n, delta: n * delta,
}


def build_graph(config: ExperimentConfig) -> Graph:
    return FAMILIES[config.family].build(config)


def _palette_size(config: ExperimentConfig, graph: Graph) -> int:
    """A cell's k: ``config.k``, else the max degree + 1."""
    return config.k if config.k is not None else graph.max_degree + 1


def initial_state(graph: Graph, config: ExperimentConfig, rng) -> ColoringState:
    k = _palette_size(config, graph)
    if config.init == "random":
        return init_random(graph, k, rng)
    colors = [1] * graph.n if config.init == "all_ones" else config.explicit_colors
    return ColoringState(graph, k, colors)


def run_one(graph: Graph, index: int, config: ExperimentConfig,
            observe: Observer | None = None) -> RunResult:
    """Run ``index`` of the ensemble: ``run`` with ``observe``, and ``wall_ns`` filled in."""
    rng = make_rng(config.master_seed, index)
    state = initial_state(graph, config, rng)
    start = time.perf_counter_ns()
    result = run(state, config.variant, config.cap, rng, observe)
    return replace(result, wall_ns=time.perf_counter_ns() - start)


# what every task of a pool shares (an ensemble's graph, an audit's spec), set
# once per worker by the pool initializer
_pool_context = None


def _init_pool_worker(context) -> None:
    global _pool_context
    _pool_context = context


def _call_in_worker(fn: Callable, item):
    return fn(_pool_context, item)


def ordered_map(fn: Callable, context, items: range, workers: int,
                chunk: int | None = None) -> Iterator:
    """Yield ``fn(context, item)`` for each item, in item order, on up to ``workers`` processes.

    The one process pool of the package. ``workers`` is bounded by the CPUs
    this process may use, and the pool is no wider than its number of chunks
    of ``chunk`` items (by default a quarter of each worker's share); one
    worker maps in this process. ``context`` reaches each worker once,
    through the pool initializer (under fork it is inherited, nothing is
    pickled), and the results come back in item order whatever the
    completion order. Closing the iterator before its end cancels the chunks
    not yet started, and the pool's processes have ended when the close
    returns; an error raised in a worker ends the pool the same way.
    """
    workers = min(workers, usable_cpus())
    if workers > 1:
        chunk = chunk or max(1, math.ceil(len(items) / (workers * 4)))
        workers = min(workers, math.ceil(len(items) / chunk))
    if workers <= 1:
        for item in items:
            yield fn(context, item)
        return
    from concurrent.futures import ProcessPoolExecutor  # a command that opens no pool skips it
    pool = ProcessPoolExecutor(max_workers=workers, initializer=_init_pool_worker,
                               initargs=(context,))
    try:
        yield from pool.map(partial(_call_in_worker, fn), items, chunksize=chunk)
    finally:
        pool.shutdown(cancel_futures=True)


def run_ensemble(
    graph: Graph, config: ExperimentConfig, workers: int = 1
) -> tuple[EnsembleStats, list[RunResult]]:
    """Execute ``config.seeds`` independent runs on ``graph`` and aggregate them.

    ``graph`` is ``build_graph(config)``, built once by the caller. The runs
    come back in run-index order, so a run's position is its index under the
    master seed. ``workers`` is the width of the process pool that
    ``ordered_map`` runs them on, bounded there by the usable CPUs (1, or
    fewer than 4 runs, runs in this process); the workers share the graph
    through the pool initializer. The reduction is by run index, never
    completion order, so the outcome is identical for any worker count.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    results = list(ordered_map(partial(run_one, config=config), graph, range(config.seeds),
                               workers if config.seeds >= 4 else 1))
    return summarize(results), results


def sweep(configs: Iterable[ExperimentConfig], workers: int = 1) -> Iterator:
    """Yield ``(cell_columns(config, graph), *run_ensemble(...))`` for each config.

    The graph never leaves the sweep. A graph is built only when the config's
    ``graph_fields()``, the values that also name it in ``config_id``, differ
    from those of the last graph built, and the last graph is dropped first.
    A config that raises ``ValueError``, ``OSError`` or ``MemoryError`` yields
    the exception instead, and the sweep goes on to the next config.
    """
    built = graph = None
    for config in configs:
        key = config.graph_fields()
        try:
            if key != built:
                graph = built = None  # free the last graph before building the next
                graph, built = build_graph(config), key
            yield (cell_columns(config, graph), *run_ensemble(graph, config, workers))
        except (ValueError, OSError, MemoryError) as exc:
            yield exc


def summarize(results: list[RunResult]) -> EnsembleStats:
    steps = np.array([r.steps for r in results], dtype=np.float64)
    seeds = len(results)
    mean = float(steps.mean())
    std = float(steps.std(ddof=1)) if seeds > 1 else 0.0
    half = 1.96 * std / math.sqrt(seeds) if seeds > 1 else 0.0
    return EnsembleStats(
        seeds=seeds,
        mean_steps=mean,
        median_steps=float(np.median(steps)),
        std_steps=std,
        ci95_low=mean - half,
        ci95_high=mean + half,
        termination_fraction=sum(r.terminated for r in results) / seeds,
        min_steps=int(steps.min()),
        max_steps=int(steps.max()),
    )


def scaling_fit(points: Iterable[tuple[int, int, float]], model: str) -> FitResult:
    """Fit mean steps to coefficient * regressor, through the origin.

    ``points`` are (n, max_degree, mean_steps) triples; the regressor is one
    of the registered growth models. R squared is computed against the fitted
    single-coefficient model. A regressor that is 0 or undefined (the log of
    0) raises ``ValueError`` naming the point.
    """
    if model not in FIT_MODELS:
        raise ValueError(f"unknown fit model {model!r}; choose from {sorted(FIT_MODELS)}")
    pts = list(points)
    if len(pts) < 3:
        raise ValueError("scaling_fit needs at least 3 points")
    reg = FIT_MODELS[model]
    xs = []
    ys = []
    for n, delta, mean_steps in pts:
        try:
            x = reg(n, delta)
        except ValueError:  # the log of 0, as at max degree 0
            x = 0
        if x == 0:
            raise ValueError(f"degenerate regressor at point (n={n}, delta={delta})")
        xs.append(x)
        ys.append(mean_steps)
    x = np.array(xs)
    y = np.array(ys)
    a = float((x * y).sum() / (x * x).sum())
    ss_res = float(((y - a * x) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    if ss_tot == 0.0:
        r2 = 1.0 if ss_res < 1e-12 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return FitResult(model=model, coefficient=a, r_squared=r2)


# -- randomized audit sweep ----------------------------------------------------


@dataclass(frozen=True)
class AuditSweepSpec:
    """Deterministic generator spec for random (graph, coloring) audits.

    The four fields are the ``audit`` command's options, and its defaults.
    ``max_n`` bounds only the ``erdos_renyi`` (``ER_N_RANGE``) and ``cycle``
    (3..50 vertices) samplers, so every ``max_n`` >= 50 draws the same
    instances; the ``complete`` (2..12 vertices), ``disjoint_cliques`` (up to
    30) and ``complete_bipartite`` (up to 20) samplers ignore it. States
    whose enumeration exceeds ``audit.OUTCOME_BUDGET`` outcomes are skipped.
    """

    instances: int = 1000
    master_seed: int = 0
    families: tuple[str, ...] = (
        "erdos_renyi",
        "disjoint_cliques",
        "complete_bipartite",
        "cycle",
    )
    max_n: int = 50

    def __post_init__(self):
        if self.instances < 0:
            raise ValueError("instances must be >= 0")
        if self.max_n < 1:
            raise ValueError("max_n must be >= 1")
        if self.master_seed < 0:
            raise ValueError("master_seed must be >= 0")
        if not self.families:
            raise ValueError("families must name at least one family")
        samplers = [name for name, family in FAMILIES.items() if family.sample]
        for name in self.families:
            if name not in samplers:
                raise ValueError(f"unknown audit family {name!r}; "
                                 f"choose from {', '.join(samplers)}")
            fewest = FAMILIES[name].min_max_n
            if fewest and self.max_n < fewest:
                raise ValueError(f"max_n {self.max_n} is too small for {name}, whose "
                                 f"instances have at least {fewest} vertices")


def audit_instance(spec: AuditSweepSpec, index: int) -> tuple[ColoringState, bool]:
    """Build audit instance ``index``: a graph plus a fresh random coloring.

    Returns the state and whether the bipartite refinement applies. Fully
    determined by (spec, index).
    """
    rng = make_rng(spec.master_seed, index)
    family = FAMILIES[spec.families[index % len(spec.families)]]
    g = family.sample(spec, rng)
    return init_random(g, g.max_degree + 1, rng), family.bipartite


# The audit's pool has one worker per AUDIT_MIN_PER_WORKER instances, up to the
# usable CPUs, so that forking pays for itself. `audit --max-n 50` on a 2-vCPU
# Xeon VM, best of 11 in-process runs, serial against a 2-worker pool: 32
# instances 0.030 s against 0.043 s, 48 0.041-0.055 s against 0.045-0.047 s,
# 64 0.057-0.074 s against 0.051-0.053 s, 128 0.162 s against 0.093 s, 500
# 0.51 s against 0.29 s. A chunk is a fixed AUDIT_CHUNK instances, not a share
# of them, so each chunk's lines (built in a worker, pickled, held in the
# parent until written) stay as large at 20,000 instances as at 500; chunks of
# 4 to 64 instances timed alike within the VM's noise.
AUDIT_MIN_PER_WORKER = 32
AUDIT_CHUNK = 16


def _instance_lines(spec: AuditSweepSpec, index: int) -> list[dict]:
    return report_lines(*audit_instance(spec, index))


def drift_audit_sweep(spec: AuditSweepSpec) -> Iterator[dict]:
    """Audit ``spec.instances`` random states, yielding one JSON-able line per check.

    The lines are ``audit.report_lines``: proper colorings skip the decay
    check with an explicit marker, and instances whose enumeration would
    exceed the outcome budget are skipped whole. Every line carries its
    state's digest, and the same spec regenerates that instance. The
    instances run on every usable CPU through ``ordered_map`` and their lines
    come in instance order, so the lines are the same for any CPU count.
    """
    workers = max(1, spec.instances // AUDIT_MIN_PER_WORKER)
    with closing(ordered_map(_instance_lines, spec, range(spec.instances), workers,
                             AUDIT_CHUNK)) as per_instance:
        for lines in per_instance:
            yield from lines


# -- output writers -------------------------------------------------------------


def public_config(config: ExperimentConfig) -> dict:
    return {**asdict(config), "config_id": config.resolved_id()}


def metadata_lines(configs: list[ExperimentConfig]) -> list[str]:
    return [
        f"# colorsim {__version__}",
        "# rng: numpy PCG64 via SeedSequence(master_seed, spawn_key=(run_index,))",
        f"# note: {PERSISTENT_STEP_NOTE}",
        f"# config: {json.dumps([public_config(c) for c in configs], sort_keys=True)}",
    ]


def cell_columns(config: ExperimentConfig, graph: Graph) -> dict:
    """The ``CELL_FIELDS`` columns of a cell, which open both CSVs.

    All that the CSV rows read of the graph, so ``sweep`` hands out these and
    keeps the graph.
    """
    return {
        "config_id": config.resolved_id(),
        "family": config.family,
        "n": graph.n,
        "m": graph.m,
        "delta": graph.max_degree,
        "k": _palette_size(config, graph),
        "variant": config.variant,
        "init": config.init,
    }


def run_rows(columns: dict, results: list[RunResult], timing: bool = False) -> list[dict]:
    """Per-run CSV rows of an ensemble's results, in run-index order.

    ``wall_ns`` holds each run's wall time when ``timing`` is set, else 0, so
    the rows of an untimed sweep do not depend on the machine.
    """
    return [
        {**columns, "seed": seed, "steps": r.steps,
         "terminated": "true" if r.terminated else "false",
         "initial_phi_num": r.initial_phi_num, "final_phi_num": r.final_phi_num,
         "wall_ns": r.wall_ns if timing else 0}
        for seed, r in enumerate(results)
    ]


def _write_csv(out: TextIO, configs: list[ExperimentConfig], fields: tuple[str, ...],
               rows: list[dict]) -> None:
    for line in metadata_lines(configs):
        out.write(line + "\n")
    writer = csv.writer(out, lineterminator="\n")  # quotes only a field with , " or a line break
    writer.writerow(fields)
    writer.writerows([row[f] for f in fields] for row in rows)


def write_runs_csv(out: TextIO, configs: list[ExperimentConfig], rows: list[dict]) -> None:
    _write_csv(out, configs, RUN_CSV_FIELDS, rows)


def aggregate_row(
    config: ExperimentConfig,
    columns: dict,
    stats: EnsembleStats,
    fit: FitResult | None = None,
) -> dict:
    """The aggregate CSV row of a cell, from its ``cell_columns``."""
    return {
        **columns,
        **asdict(stats),
        "cap": config.cap,
        "master_seed": config.master_seed,
        "fit_model": fit.model if fit else "",
        "fit_coefficient": fit.coefficient if fit else "",
        "fit_r2": fit.r_squared if fit else "",
    }


def write_aggregate_csv(out: TextIO, configs: list[ExperimentConfig], rows: list[dict]) -> None:
    _write_csv(out, configs, AGGREGATE_CSV_FIELDS, rows)


def write_jsonl(out: TextIO, meta: dict, lines: Iterable[dict]) -> None:
    """Write a metadata line then one JSON object per line."""
    out.write(json.dumps({"meta": meta}, sort_keys=True) + "\n")
    for line in lines:
        out.write(json.dumps(line, sort_keys=True) + "\n")
