"""Command-line front end: gen, run, sweep, audit, compare.

Exit codes are a stable contract: 0 success, 1 usage error, 2 cap
exhaustion, 3 audit violation. Bad input, whether flags, a sweep cell, an
unreadable or unwritable file or a graph too large to allocate, exits 1 with
a one-line reason on stderr, never a traceback; so does a failed write to
stdout, which is silent when the reader closed it early. The family, variant
and init names come from the tables in ``harness`` and ``dynamics``. All
run-affecting options have deterministic defaults and end up in the output
metadata; no environment variable is read.
``sweep --workers`` sets the worker-pool width only, which changes no output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext

from ._version import __version__
from . import graph as graphs
from .dynamics import STEPS, VARIANT_ALIASES, make_rng, run
from .harness import (
    FAMILIES,
    FAMILY_ALIASES,
    INIT_ALIASES,
    AuditSweepSpec,
    ExperimentConfig,
    aggregate_row,
    build_graph,
    compare_variants,
    drift_audit_sweep,
    initial_state,
    public_config,
    run_ensemble,
    run_rows,
    scaling_fit,
    trace_lines,
    write_aggregate_csv,
    write_jsonl,
    write_runs_csv,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CAP = 2
EXIT_VIOLATION = 3


class _Parser(argparse.ArgumentParser):
    """argparse with the documented usage exit code (1, not argparse's 2)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _reason(exc: Exception) -> str:
    # numpy's MemoryError names the failed request; one raised by Python itself is empty
    return str(exc) or "out of memory"


_SIZE_FIELDS = ("n", "count", "size", "a", "b")


def _add_family_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", required=True, choices=list(FAMILY_ALIASES))
    for name in _SIZE_FIELDS:
        p.add_argument(f"--{name}", type=int)
    p.add_argument("--p", type=float)
    p.add_argument("--graph-seed", type=int, default=0)
    p.add_argument("--graph", help="edge-list path for --family file")


def _family_fields(args) -> dict:
    sizes = {name: getattr(args, name) for name in _SIZE_FIELDS}
    return dict(family=FAMILY_ALIASES[args.family], **sizes, p=args.p,
                graph_seed=args.graph_seed, path=args.graph)


def _config_from_args(args, variant: str, seeds: int = 1) -> ExperimentConfig:
    init = INIT_ALIASES[args.init]
    explicit = None
    if init == "explicit":
        if not args.init_file:
            raise ValueError("--init file needs --init-file")
        with open(args.init_file, encoding="utf-8") as f:
            explicit = tuple(int(line) for line in f.read().split())
    return ExperimentConfig(
        **_family_fields(args),
        variant=VARIANT_ALIASES.get(variant, variant),
        k=args.k,
        init=init,
        explicit_colors=explicit,
        seeds=seeds,
        master_seed=args.seed,
        cap=args.cap,
    )


# -- gen ------------------------------------------------------------------------


def _cmd_gen(args) -> int:
    try:
        g = build_graph(ExperimentConfig(**_family_fields(args)))
    except (ValueError, OSError, MemoryError) as exc:
        print(f"gen: {_reason(exc)}", file=sys.stderr)
        return EXIT_USAGE
    try:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(graphs.to_edge_list(g))
    except OSError as exc:
        print(f"gen: cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"n={g.n} m={g.m} delta={g.max_degree}")
    return EXIT_OK


# -- run ------------------------------------------------------------------------


def _cmd_run(args) -> int:
    try:
        config = _config_from_args(args, args.variant)
        graph = build_graph(config)
        rng = make_rng(config.master_seed, 0)
        state = initial_state(graph, config, rng)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"run: {_reason(exc)}", file=sys.stderr)
        return EXIT_USAGE
    initial_phi = state.potential()
    result, trace = run(state, config.variant, config.cap, rng, trace=bool(args.trace_out))
    print(
        f"config_id={config.resolved_id()} n={graph.n} m={graph.m} delta={graph.max_degree} "
        f"k={state.k} variant={config.variant} init={config.init} master_seed={config.master_seed} "
        f"steps={result.steps} terminated={str(result.terminated).lower()} "
        f"stalled={str(result.stalled).lower()} "
        f"initial_phi={initial_phi} final_phi={state.potential()}"
    )
    if args.trace_out:
        meta = {"tool": f"colorsim {__version__}", "config": public_config(config)}
        try:
            with open(args.trace_out, "w", encoding="utf-8") as f:
                write_jsonl(f, meta, trace_lines(trace))
        except OSError as exc:
            print(f"run: cannot write {args.trace_out}: {exc}", file=sys.stderr)
            return EXIT_USAGE
    if not result.terminated:
        return EXIT_CAP
    return EXIT_OK


# -- sweep ------------------------------------------------------------------------


def _cmd_sweep(args) -> int:
    if args.workers < 1:
        print("sweep: --workers must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    try:
        with open(args.config, encoding="utf-8") as f:
            spec = json.load(f)
    except (OSError, ValueError) as exc:
        print(f"sweep: cannot read config: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if not isinstance(spec, dict) or not isinstance(spec.get("cells", []), list):
        print("sweep: config must be a JSON object with a list of cells", file=sys.stderr)
        return EXIT_USAGE
    # the config file's value, else the flag's; ExperimentConfig supplies the rest
    defaults = {}
    for key, dest in (("seeds", "seeds"), ("master_seed", "seed"), ("cap", "cap")):
        flag = getattr(args, dest)
        if key in spec:
            defaults[key] = spec[key]
            if flag is not None:
                print(f"sweep: config file overrides --{dest}", file=sys.stderr)
        elif flag is not None:
            defaults[key] = flag
    configs = []
    all_rows = []
    agg_rows = []
    fit_points = []
    failures = 0
    for cell in spec.get("cells", []):
        try:
            merged = dict(defaults)
            merged.update(cell)
            if merged.get("family") in FAMILY_ALIASES:
                merged["family"] = FAMILY_ALIASES[merged["family"]]
            config = ExperimentConfig(**merged)
        except (TypeError, ValueError) as exc:
            print(f"sweep: bad cell {cell}: {exc}", file=sys.stderr)
            failures += 1
            continue
        configs.append(config)
        try:
            graph = build_graph(config)
            stats, results = run_ensemble(graph, config, args.workers, args.timing)
        except (ValueError, OSError, MemoryError) as exc:
            print(f"sweep: cell {config.resolved_id()} failed: {_reason(exc)}", file=sys.stderr)
            failures += 1
            continue
        all_rows.extend(run_rows(config, graph, results))
        agg_rows.append((config, graph, stats))
        fit_points.append((graph.n, graph.max_degree, stats.mean_steps))
    fit = None
    fit_spec = spec.get("fit")
    if fit_spec and len(fit_points) >= 3:
        try:
            fit = scaling_fit(fit_points, fit_spec["model"])
        except (KeyError, TypeError, ValueError) as exc:
            print(f"sweep: fit failed: {exc}", file=sys.stderr)
    try:
        if args.per_run:
            with open(args.per_run, "w", encoding="utf-8", newline="") as f:
                write_runs_csv(f, configs, all_rows)
        if args.aggregate:
            rows = [aggregate_row(c, g, s, fit) for c, g, s in agg_rows]
            with open(args.aggregate, "w", encoding="utf-8", newline="") as f:
                write_aggregate_csv(f, configs, rows)
    except OSError as exc:
        print(f"sweep: cannot write output: {exc}", file=sys.stderr)
        return EXIT_USAGE
    for config, graph, stats in agg_rows:
        print(
            f"{config.resolved_id()}: mean={stats.mean_steps:.2f} median={stats.median_steps:.1f} "
            f"terminated={stats.termination_fraction:.3f}"
        )
    if fit:
        print(f"fit[{fit.model}]: coefficient={fit.coefficient:.4f} r2={fit.r_squared:.4f}")
    return EXIT_USAGE if failures else EXIT_OK


# -- audit ------------------------------------------------------------------------


def _cmd_audit(args) -> int:
    names = args.families.split(",") if args.families else AuditSweepSpec.families
    families = tuple(FAMILY_ALIASES.get(name, name) for name in names)
    try:
        spec = AuditSweepSpec(
            instances=args.instances,
            master_seed=args.seed,
            families=families,
            max_n=args.max_n,
        )
        sink = open(args.out, "w", encoding="utf-8") if args.out else nullcontext(sys.stdout)
    except (ValueError, OSError) as exc:
        print(f"audit: {exc}", file=sys.stderr)
        return EXIT_USAGE
    keys = ("instances", "master_seed", "families", "max_n")
    meta = {"tool": f"colorsim {__version__}", "spec": {k: getattr(spec, k) for k in keys}}
    violations = []

    def lines():
        for line in drift_audit_sweep(spec):
            if not line.get("skipped") and not line["satisfied"]:
                violations.append(line)
            yield line

    try:
        with sink as out:
            write_jsonl(out, meta, lines())
    except OSError as exc:
        if not args.out:
            raise  # a failed stdout write is main's to report
        print(f"audit: cannot write output: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if violations:
        for line in violations[:10]:
            print(f"audit: VIOLATION {line['claim']} digest={line['state_digest']}", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


# -- compare ------------------------------------------------------------------------


def _cmd_compare(args) -> int:
    try:
        configs = [_config_from_args(args, v, seeds=args.seeds) for v in args.variants.split(",")]
        pairs = compare_variants(configs)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"compare: {_reason(exc)}", file=sys.stderr)
        return EXIT_USAGE
    header = f"{'variant':<16}{'init':<10}{'mean':>12}{'median':>10}{'ci95':>22}{'term':>7}{'ratio':>8}"
    print(header)
    base = pairs[0][1].mean_steps  # the first variant is the baseline
    for config, stats in pairs:
        ci = f"[{stats.ci95_low:.1f}, {stats.ci95_high:.1f}]"
        ratio = stats.mean_steps / base if base else float("nan")
        print(
            f"{config.variant:<16}{config.init:<10}{stats.mean_steps:>12.2f}"
            f"{stats.median_steps:>10.1f}{ci:>22}{stats.termination_fraction:>7.2f}{ratio:>8.3f}"
        )
    return EXIT_OK


# -- entry ------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="colorsim", description=__doc__)
    parser.add_argument("--version", action="version", version=f"colorsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a graph and write its edge list")
    _add_family_args(p_gen)
    p_gen.add_argument("--seed", type=int, dest="graph_seed", default=argparse.SUPPRESS,
                       help="alias for --graph-seed")
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(fn=_cmd_gen)

    p_run = sub.add_parser("run", help="one seeded run of a variant")
    _add_family_args(p_run)
    p_run.add_argument("--variant", default="uniform", choices=sorted([*STEPS, *VARIANT_ALIASES]))
    p_run.add_argument("--k", type=int)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--cap", type=int, default=ExperimentConfig.cap)
    p_run.add_argument("--init", default="random", choices=list(INIT_ALIASES))
    p_run.add_argument("--init-file")
    p_run.add_argument("--trace-out")
    p_run.set_defaults(fn=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a declarative sweep config")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--seeds", type=int)
    p_sweep.add_argument("--seed", type=int, dest="seed")
    p_sweep.add_argument("--cap", type=int)
    p_sweep.add_argument("--workers", type=int, default=1, help="worker-pool width")
    p_sweep.add_argument("--per-run", help="per-run CSV output path")
    p_sweep.add_argument("--aggregate", help="aggregate CSV output path")
    p_sweep.add_argument("--timing", action="store_true", help="measure wall_ns per run")
    p_sweep.set_defaults(fn=_cmd_sweep)

    p_audit = sub.add_parser("audit", help="exact drift-inequality sweep")
    p_audit.add_argument("--instances", type=int, default=AuditSweepSpec.instances)
    p_audit.add_argument("--max-n", type=int, default=AuditSweepSpec.max_n,
                         help="vertex bound of the er and cycle instances only")
    p_audit.add_argument("--seed", type=int, default=0)
    p_audit.add_argument("--families", help="comma list: " + ",".join(
        f.alias for f in FAMILIES.values() if f.sample))
    p_audit.add_argument("--out", help="JSONL output path (default stdout)")
    p_audit.set_defaults(fn=_cmd_audit)

    p_cmp = sub.add_parser("compare", help="side-by-side variant comparison")
    _add_family_args(p_cmp)
    p_cmp.add_argument("--variants", default="uniform,persistent")
    p_cmp.add_argument("--k", type=int)
    p_cmp.add_argument("--seed", type=int, default=0)
    p_cmp.add_argument("--seeds", type=int, default=ExperimentConfig.seeds)
    p_cmp.add_argument("--cap", type=int, default=ExperimentConfig.cap)
    p_cmp.add_argument("--init", default="random", choices=list(INIT_ALIASES))
    p_cmp.add_argument("--init-file")
    p_cmp.set_defaults(fn=_cmd_compare)

    return parser


def main(argv=None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
            return args.fn(args)
        except SystemExit as exc:
            return int(exc.code or 0)
        finally:
            sys.stdout.flush()  # a write that fails here is still reported below
    except OSError as exc:
        # stdout failed: the reader closed it early or its device is full. Point
        # it at devnull so that the interpreter's final flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if not isinstance(exc, BrokenPipeError):
            print(f"colorsim: cannot write output: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
