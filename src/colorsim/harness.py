"""Seeded ensembles, scaling experiments, and the randomized audit sweep.

``FAMILIES`` is the one table of graph families (CLI alias, required
config fields, graph constructor, audit sampler). ``ExperimentConfig`` and
``AuditSweepSpec`` validate against it and the step and init tables on
construction, raising a one-line ``ValueError``.

Every run inside an ensemble draws from its own PCG64 stream derived from
(master_seed, run_index), so aggregates do not depend on worker count or
completion order. An ensemble runs on a graph its caller built once; pool
workers share it. Results flow out as CSV (one row per run, one row per
config) and JSON lines (audit reports, traces); every output starts with a
metadata header sufficient to reproduce it. The audit sweep here picks the
states to audit; ``audit.report_lines`` owns the format of its lines.
"""

from __future__ import annotations

import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterable, Iterator, TextIO

import numpy as np

from ._version import __version__
from . import graph as graphs
from .audit import additive_drift_bound, multiplicative_drift_bound, report_lines, state_digest
from .dynamics import STEPS, BufferedDraws, RunResult, TraceRecord, make_rng, run, step_parallel
from .graph import Graph
from .state import ColoringState, init_fixed, init_random

RUN_CSV_FIELDS = (
    "config_id",
    "family",
    "n",
    "m",
    "delta",
    "k",
    "variant",
    "init",
    "seed",
    "steps",
    "terminated",
    "initial_phi_num",
    "final_phi_num",
    "wall_ns",
)

AGGREGATE_CSV_FIELDS = (
    "config_id",
    "family",
    "n",
    "m",
    "delta",
    "k",
    "variant",
    "init",
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
    installed there sees every build; ``min_max_n`` is the least usable ``max_n``.
    """

    alias: str
    fields: tuple[str, ...]
    build: Callable[[ExperimentConfig], Graph]
    sample: Callable[[AuditSweepSpec, np.random.Generator], Graph] | None = None
    min_max_n: Callable[[AuditSweepSpec], int] | None = None
    bipartite: bool = False


def _sample_erdos_renyi(spec: AuditSweepSpec, rng: np.random.Generator) -> Graph:
    lo, hi = spec.er_n_range
    n = lo + int(rng.integers(min(hi, spec.max_n) - lo + 1))
    p = spec.er_p_values[int(rng.integers(len(spec.er_p_values)))]
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
                    min_max_n=lambda spec: 3),
    "erdos_renyi": Family("er", ("n", "p"), lambda c: graphs.erdos_renyi(c.n, c.p, c.graph_seed),
                          _sample_erdos_renyi, min_max_n=lambda spec: spec.er_n_range[0]),
    "file": Family("file", ("path",), lambda c: graphs.from_edge_list(
        Path(c.path).read_text(encoding="utf-8"), n=c.n)),
}
FAMILY_ALIASES = {family.alias: name for name, family in FAMILIES.items()}

# CLI name -> init
INIT_ALIASES = {"random": "random", "ones": "all_ones", "file": "explicit"}

# config fields can come from JSON, so their types are checked before any use
_INT_OR_NONE = (int, type(None))
_FIELD_TYPES = {
    "family": str, "variant": str, "init": str, "config_id": str, "path": (str, type(None)),
    "n": _INT_OR_NONE, "count": _INT_OR_NONE, "size": _INT_OR_NONE, "a": _INT_OR_NONE,
    "b": _INT_OR_NONE, "k": _INT_OR_NONE, "p": (int, float, type(None)),
    "graph_seed": int, "seeds": int, "master_seed": int, "cap": int, "workers": int,
}


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
    p: float | None = None
    graph_seed: int = 0
    path: str | None = None
    variant: str = "uniform"
    k: int | None = None
    init: str = "random"
    explicit_colors: tuple[int, ...] | None = None
    seeds: int = 200
    master_seed: int = 0
    cap: int = 1_000_000
    workers: int = 1
    config_id: str = ""

    def __post_init__(self):
        for name, kind in _FIELD_TYPES.items():
            if not isinstance(getattr(self, name), kind):
                raise ValueError(f"bad {name}: {getattr(self, name)!r}")
        if self.family not in FAMILIES:
            raise ValueError(f"unknown graph family {self.family!r}; "
                             f"choose from {', '.join(FAMILIES)}")
        for name in FAMILIES[self.family].fields:
            if getattr(self, name) is None:
                raise ValueError(f"{self.family} needs {name}")
        if self.variant not in STEPS:
            raise ValueError(f"unknown variant {self.variant!r}; choose from {', '.join(STEPS)}")
        if self.init not in INIT_ALIASES.values():
            raise ValueError(f"unknown init {self.init!r}")
        if self.init == "explicit" and self.explicit_colors is None:
            raise ValueError("explicit init needs explicit_colors")
        if self.explicit_colors is not None and not all(
                isinstance(c, int) for c in self.explicit_colors):
            raise ValueError("explicit_colors must be integers")
        if self.k is not None and self.k < 1:
            raise ValueError("k must be >= 1")
        if self.seeds < 1:
            raise ValueError("seeds must be >= 1")
        if self.cap < 1:
            raise ValueError("cap must be >= 1")
        if self.master_seed < 0:
            raise ValueError("master_seed must be >= 0")

    def resolved_id(self) -> str:
        if self.config_id:
            return self.config_id
        parts = [self.family]
        for name in ("n", "count", "size", "a", "b", "p"):
            value = getattr(self, name)
            if value is not None:
                parts.append(f"{name}{value}")
        parts.append(self.variant)
        parts.append(self.init)
        if self.k is not None:
            parts.append(f"k{self.k}")
        return "-".join(parts)


@dataclass(frozen=True)
class RunRecord:
    """Per-run CSV payload; ``seed`` is the run index under the master seed."""

    seed: int
    steps: int
    terminated: bool
    initial_phi_num: int
    final_phi_num: int
    wall_ns: int


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
    residuals: tuple[float, ...]


FIT_MODELS = {
    "n_log_delta": lambda n, delta: n * math.log(delta),
    "n_log_n": lambda n, delta: n * math.log(n),
    "n_delta": lambda n, delta: n * delta,
}


def build_graph(config: ExperimentConfig) -> Graph:
    return FAMILIES[config.family].build(config)


def initial_state(graph: Graph, config: ExperimentConfig, rng) -> ColoringState:
    k = config.k if config.k is not None else graph.max_degree + 1
    if config.init == "random":
        return init_random(graph, k, rng)
    colors = [1] * graph.n if config.init == "all_ones" else config.explicit_colors
    return init_fixed(graph, k, colors)


def run_one(graph: Graph, config: ExperimentConfig, index: int, timing: bool = False) -> RunRecord:
    rng = make_rng(config.master_seed, index)
    state = initial_state(graph, config, rng)
    start = time.perf_counter_ns() if timing else 0
    result, _ = run(state, config.variant, config.cap, rng, trace=False)
    wall = time.perf_counter_ns() - start if timing else 0
    return RunRecord(
        seed=index,
        steps=result.steps,
        terminated=result.terminated,
        initial_phi_num=result.initial_phi_num,
        final_phi_num=result.final_phi_num,
        wall_ns=wall,
    )


def run_traced(
    graph: Graph, config: ExperimentConfig, index: int
) -> tuple[RunResult, list[TraceRecord]]:
    """One run with its full trace; used by trace sinks and step-size checks."""
    rng = make_rng(config.master_seed, index)
    state = initial_state(graph, config, rng)
    return run(state, config.variant, config.cap, rng, trace=True)


# the ensemble's graph in a pool worker, set once per worker by the pool initializer
_pool_graph: Graph | None = None


def _init_pool_worker(graph: Graph) -> None:
    global _pool_graph
    _pool_graph = graph


def _run_chunk(config: ExperimentConfig, start: int, stop: int, timing: bool) -> list[RunRecord]:
    return [run_one(_pool_graph, config, i, timing) for i in range(start, stop)]


def run_ensemble(
    graph: Graph, config: ExperimentConfig, timing: bool = False
) -> tuple[EnsembleStats, list[RunRecord]]:
    """Execute ``config.seeds`` independent runs on ``graph`` and aggregate them.

    ``graph`` is ``build_graph(config)``, built once by the caller. Pool
    workers receive it through the pool initializer (under fork they inherit
    it, nothing is pickled); the pool is no wider than its number of chunks.
    The reduction is by run index, never completion order, so the outcome is
    identical for any worker count.
    """
    seeds = config.seeds
    workers = max(1, config.workers)
    if workers == 1 or seeds < 4:
        records = [run_one(graph, config, i, timing) for i in range(seeds)]
    else:
        chunk = max(1, math.ceil(seeds / (workers * 4)))
        spans = [(s, min(s + chunk, seeds)) for s in range(0, seeds, chunk)]
        starts, stops = zip(*spans)
        with ProcessPoolExecutor(max_workers=min(workers, len(spans)),
                                 initializer=_init_pool_worker, initargs=(graph,)) as pool:
            parts = pool.map(
                _run_chunk, [config] * len(spans), starts, stops, [timing] * len(spans)
            )
            records = [r for part in parts for r in part]
    return summarize(records), records


def summarize(records: list[RunRecord]) -> EnsembleStats:
    steps = np.array([r.steps for r in records], dtype=np.float64)
    seeds = len(records)
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
        termination_fraction=sum(r.terminated for r in records) / seeds,
        min_steps=int(steps.min()),
        max_steps=int(steps.max()),
    )


def coupon_reference(n: int) -> Fraction:
    """Expected rounds of the classical collect-all-n process: n times H_n."""
    if n < 1:
        raise ValueError("coupon_reference needs n >= 1")
    return n * sum(Fraction(1, i) for i in range(1, n + 1))


def scaling_fit(points: Iterable[tuple[int, int, float]], model: str) -> FitResult:
    """Fit mean steps to coefficient * regressor, through the origin.

    ``points`` are (n, max_degree, mean_steps) triples; the regressor is one
    of the registered growth models. R squared is computed against the fitted
    single-coefficient model.
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
        x = reg(n, delta)
        if x == 0:
            raise ValueError(f"degenerate regressor at point (n={n}, delta={delta})")
        xs.append(x)
        ys.append(mean_steps)
    x = np.array(xs)
    y = np.array(ys)
    a = float((x * y).sum() / (x * x).sum())
    residuals = y - a * x
    ss_res = float((residuals**2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    if ss_tot == 0.0:
        r2 = 1.0 if ss_res < 1e-12 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return FitResult(
        model=model,
        coefficient=a,
        r_squared=r2,
        residuals=tuple(float(r) for r in residuals),
    )


# -- parallel-variant survival ------------------------------------------------


@dataclass(frozen=True)
class SurvivalRecord:
    seed: int
    rounds: int
    terminated: bool
    min_conflicted: int
    ever_below: bool


@dataclass(frozen=True)
class SurvivalStats:
    seeds: int
    terminations: int
    min_conflicted_overall: int
    runs_ever_below: int
    median_rounds: float


def parallel_survival(
    config: ExperimentConfig, epsilon_fraction: float
) -> tuple[SurvivalStats, list[SurvivalRecord]]:
    """Track how low the conflicted count gets under simultaneous recoloring.

    Per run: rounds executed, the minimum conflicted count over the rounds
    t >= 1 it ran, and whether that count ever dropped to epsilon_fraction * n.
    A run whose initial coloring is already proper runs no round; it records
    its terminal count 0, which is below every threshold. Runs stop at
    termination or at ``config.cap`` rounds.
    """
    if config.variant != "parallel":
        raise ValueError("parallel_survival needs variant='parallel'")
    graph = build_graph(config)
    threshold = epsilon_fraction * graph.n
    records: list[SurvivalRecord] = []
    for index in range(config.seeds):
        rng = make_rng(config.master_seed, index)
        state = initial_state(graph, config, rng)
        ever_below = state.is_proper()
        min_conflicted = 0 if ever_below else graph.n
        rounds = 0
        draws = BufferedDraws(rng)
        while state.conflicted_count > 0 and rounds < config.cap:
            step_parallel(state, draws)
            rounds += 1
            x = state.conflicted_count
            min_conflicted = min(min_conflicted, x)
            if x <= threshold:
                ever_below = True
        draws.close()
        records.append(
            SurvivalRecord(
                seed=index,
                rounds=rounds,
                terminated=state.conflicted_count == 0,
                min_conflicted=min_conflicted,
                ever_below=ever_below,
            )
        )
    stats = SurvivalStats(
        seeds=len(records),
        terminations=sum(r.terminated for r in records),
        min_conflicted_overall=min(r.min_conflicted for r in records),
        runs_ever_below=sum(r.ever_below for r in records),
        median_rounds=float(np.median([r.rounds for r in records])),
    )
    return stats, records


# -- variant comparison --------------------------------------------------------


def compare_variants(configs: list[ExperimentConfig]) -> list[dict]:
    """Side-by-side ensemble stats for configs differing only in variant/init.

    The first config is the baseline; each row reports its mean divided by
    the baseline mean.
    """
    if not configs:
        return []

    def graph_key(c: ExperimentConfig) -> tuple:  # n also sizes a file graph
        fields = FAMILIES[c.family].fields
        return (c.family, c.n, c.graph_seed, c.path, *(getattr(c, f) for f in fields))

    if any(graph_key(cfg) != graph_key(configs[0]) for cfg in configs[1:]):
        raise ValueError("compare_variants configs must share the graph")
    graph = build_graph(configs[0])
    rows = []
    base_mean: float | None = None
    for cfg in configs:
        stats, _ = run_ensemble(graph, cfg)
        if base_mean is None:
            base_mean = stats.mean_steps
        ratio = stats.mean_steps / base_mean if base_mean else float("nan")
        rows.append(
            {
                "config_id": cfg.resolved_id(),
                "variant": cfg.variant,
                "init": cfg.init,
                "k": cfg.k,
                "mean_steps": stats.mean_steps,
                "median_steps": stats.median_steps,
                "std_steps": stats.std_steps,
                "ci95_low": stats.ci95_low,
                "ci95_high": stats.ci95_high,
                "termination_fraction": stats.termination_fraction,
                "mean_ratio_vs_first": ratio,
            }
        )
    return rows


def theorem_step_budget(n: int, delta: int) -> float:
    """Loose two-phase budget implied by the proven decay and endgame drifts.

    Decay phase: multiplicative drift 1/(1000 n) from at most n*delta down to
    n/delta. Endgame: additive drift 1/(delta+1) on at most 2n/delta
    monochromatic edges. Empirical means must come in far below this.
    """
    if delta < 1:
        return 0.0
    decay = multiplicative_drift_bound(n * delta, n / delta, 1.0 / (1000 * n))
    endgame = additive_drift_bound(2 * n / delta, 1.0 / (delta + 1))
    return decay + endgame


# -- randomized audit sweep ----------------------------------------------------


@dataclass(frozen=True)
class AuditSweepSpec:
    """Deterministic generator spec for random (graph, coloring) audits.

    ``max_n`` bounds only the ``erdos_renyi`` and ``cycle`` samplers; the
    ``complete`` (2..12 vertices), ``disjoint_cliques`` (up to 30) and
    ``complete_bipartite`` (up to 20) samplers ignore it.
    """

    instances: int = 1000
    master_seed: int = 0
    families: tuple[str, ...] = (
        "erdos_renyi",
        "disjoint_cliques",
        "complete_bipartite",
        "cycle",
    )
    er_n_range: tuple[int, int] = (5, 50)
    er_p_values: tuple[float, ...] = (0.1, 0.3, 0.7)
    max_n: int = 200
    outcome_budget: int = 100_000

    def __post_init__(self):
        if self.instances < 0:
            raise ValueError("instances must be >= 0")
        if self.master_seed < 0:
            raise ValueError("master_seed must be >= 0")
        samplers = [name for name, family in FAMILIES.items() if family.sample]
        for name in self.families:
            if name not in samplers:
                raise ValueError(f"unknown audit family {name!r}; "
                                 f"choose from {', '.join(samplers)}")
            fewest = FAMILIES[name].min_max_n
            if fewest and self.max_n < fewest(self):
                raise ValueError(f"max_n {self.max_n} is too small for {name}, whose "
                                 f"instances have at least {fewest(self)} vertices")


def audit_instance(spec: AuditSweepSpec, index: int) -> tuple[ColoringState, bool]:
    """Build audit instance ``index``: a graph plus a fresh random coloring.

    Returns the state and whether the bipartite refinement applies. Fully
    determined by (spec, index).
    """
    rng = make_rng(spec.master_seed, index)
    family = FAMILIES[spec.families[index % len(spec.families)]]
    g = family.sample(spec, rng)
    return init_random(g, g.max_degree + 1, rng), family.bipartite


def drift_audit_sweep(spec: AuditSweepSpec) -> Iterator[dict]:
    """Audit ``spec.instances`` random states, yielding one JSON-able line per check.

    The lines are ``audit.report_lines``: proper colorings skip the decay
    check with an explicit marker, and instances whose enumeration would
    exceed the outcome budget are skipped whole. Every line carries the state
    digest needed to replay it.
    """
    for index in range(spec.instances):
        state, bipartite = audit_instance(spec, index)
        yield from report_lines(state, bipartite, state_digest(state), spec.outcome_budget)


def replay_audit(spec: AuditSweepSpec, digest: str) -> list[dict]:
    """Regenerate the report lines of the instance with the given digest."""
    for index in range(spec.instances):
        state, bipartite = audit_instance(spec, index)
        if state_digest(state) == digest:
            return report_lines(state, bipartite, digest, spec.outcome_budget)
    return []


# -- output writers -------------------------------------------------------------


def public_config(config: ExperimentConfig) -> dict:
    # workers shape execution only, never results; keep them out so reruns
    # with different pool widths stay byte-identical.
    payload = asdict(config)
    payload.pop("workers")
    payload["config_id"] = config.resolved_id()
    return payload


def metadata_lines(configs: list[ExperimentConfig]) -> list[str]:
    return [
        f"# colorsim {__version__}",
        "# rng: numpy PCG64 via SeedSequence(master_seed, spawn_key=(run_index,))",
        f"# note: {PERSISTENT_STEP_NOTE}",
        f"# config: {json.dumps([public_config(c) for c in configs], sort_keys=True)}",
    ]


def _cell_columns(config: ExperimentConfig, graph: Graph) -> dict:
    """The leading columns both CSVs share."""
    return {
        "config_id": config.resolved_id(),
        "family": config.family,
        "n": graph.n,
        "m": graph.m,
        "delta": graph.max_degree,
        "k": config.k if config.k is not None else graph.max_degree + 1,
        "variant": config.variant,
        "init": config.init,
    }


def run_rows(config: ExperimentConfig, graph: Graph, records: list[RunRecord]) -> list[dict]:
    base = _cell_columns(config, graph)
    return [
        {**base, "seed": r.seed, "steps": r.steps,
         "terminated": "true" if r.terminated else "false",
         "initial_phi_num": r.initial_phi_num, "final_phi_num": r.final_phi_num,
         "wall_ns": r.wall_ns}
        for r in records
    ]


def _write_csv(out: TextIO, configs: list[ExperimentConfig], fields: tuple[str, ...],
               rows: list[dict]) -> None:
    for line in metadata_lines(configs):
        out.write(line + "\n")
    out.write(",".join(fields) + "\n")
    for row in rows:
        out.write(",".join(str(row[f]) for f in fields) + "\n")


def write_runs_csv(out: TextIO, configs: list[ExperimentConfig], rows: list[dict]) -> None:
    _write_csv(out, configs, RUN_CSV_FIELDS, rows)


def aggregate_row(
    config: ExperimentConfig,
    graph: Graph,
    stats: EnsembleStats,
    fit: FitResult | None = None,
) -> dict:
    return {
        **_cell_columns(config, graph),
        "seeds": stats.seeds,
        "cap": config.cap,
        "master_seed": config.master_seed,
        "mean_steps": repr(stats.mean_steps),
        "median_steps": repr(stats.median_steps),
        "std_steps": repr(stats.std_steps),
        "ci95_low": repr(stats.ci95_low),
        "ci95_high": repr(stats.ci95_high),
        "termination_fraction": repr(stats.termination_fraction),
        "min_steps": stats.min_steps,
        "max_steps": stats.max_steps,
        "fit_model": fit.model if fit else "",
        "fit_coefficient": repr(fit.coefficient) if fit else "",
        "fit_r2": repr(fit.r_squared) if fit else "",
    }


def write_aggregate_csv(out: TextIO, configs: list[ExperimentConfig], rows: list[dict]) -> None:
    _write_csv(out, configs, AGGREGATE_CSV_FIELDS, rows)


def write_jsonl(out: TextIO, meta: dict, lines: Iterable[dict]) -> int:
    """Write a metadata line then one JSON object per line; returns line count."""
    out.write(json.dumps({"meta": meta}, sort_keys=True) + "\n")
    count = 0
    for line in lines:
        out.write(json.dumps(line, sort_keys=True) + "\n")
        count += 1
    return count


def trace_lines(records: list[TraceRecord]) -> Iterator[dict]:
    for r in records:
        yield {
            "t": r.t,
            "vertices": list(r.vertices),
            "colors": list(r.colors),
            "mono_edges": r.mono_edge_count,
            "iso_edges": r.iso_edge_count,
            "iso_proper_edges": r.e_ip,
            "phi_num": r.phi_num,
        }
