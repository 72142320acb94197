"""Command-line front end: gen, run, sweep, audit, compare.

Exit codes are a stable contract: 0 success, 1 usage error, 2 cap
exhaustion, 3 audit violation. Bad input, whether flags, a sweep config or
cell, an unreadable or unwritable file or a graph too large to allocate,
exits 1 with a one-line reason on stderr, never a traceback. Each command
raises its refusal and ``main`` alone prints it, as ``<command>: <reason>``;
a sweep reports each rejected cell on its own line before any cell runs, then
each failed cell, runs the rest and exits 1 at the end. A failed write to
stdout exits 1 with one line too, silently when the reader closed it early.
The family, variant and init names come from the tables in ``harness`` and
``dynamics``, the family flags from ``harness.FAMILY_FIELDS``; a flag its
family does not take is refused. All run-affecting options have deterministic
defaults and end up in the output metadata; no environment variable is read.
``sweep --workers`` sets the worker-pool width only, which changes no output;
``audit`` runs on every usable CPU with no flag for it, and writes and scans
the lines here in instance order, so its output does not depend on the count.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import closing, contextmanager, nullcontext
from dataclasses import asdict, fields, replace
from fractions import Fraction

from ._version import __version__
from . import graph as graphs
from .dynamics import STEPS, Trace
from .state import potential
from .harness import (
    FAMILIES,
    FAMILY_ALIASES,
    FAMILY_FIELDS,
    FIT_MODELS,
    INIT_ALIASES,
    AuditSweepSpec,
    ExperimentConfig,
    aggregate_row,
    build_graph,
    cell_columns,
    drift_audit_sweep,
    public_config,
    run_one,
    run_rows,
    scaling_fit,
    sweep,
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
        # the one line main prints for a refusal: a subparser's prog is "colorsim <command>"
        print(f"{self.prog.split()[-1]}: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)

    def _print_message(self, message, file=None):
        # argparse drops a failed write; one to stdout (--version, --help) is main's to report
        if message and file is sys.stdout:
            file.write(message)
        else:
            super()._print_message(message, file)


class _Refused(Exception):
    """Bad input: ``main`` prints ``<command>: <reason>`` on stderr and exits 1."""


def _reason(exc: Exception) -> str:
    # numpy's MemoryError names the failed request; one raised by Python itself is empty
    return str(exc) or "out of memory"


@contextmanager
def _refusing(prefix: str = ""):
    """Refuse, with ``prefix`` before the reason, a bad-input error raised inside."""
    try:
        yield
    except (ValueError, OSError, MemoryError) as exc:
        raise _Refused(prefix + _reason(exc)) from exc


def _add_family_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", required=True, choices=list(FAMILY_ALIASES))
    for name in FAMILY_FIELDS:
        p.add_argument(f"--{name}", type=float if name == "p" else int)
    p.add_argument("--graph-seed", type=int, default=0)
    p.add_argument("--graph", dest="path", metavar="GRAPH", help="edge-list path for --family file")


def _add_config_args(p: argparse.ArgumentParser, seeds: bool = False) -> None:
    p.add_argument("--k", type=int)
    p.add_argument("--seed", type=int, default=0)
    if seeds:
        p.add_argument("--seeds", type=int, default=ExperimentConfig.seeds)
    p.add_argument("--cap", type=int, default=ExperimentConfig.cap)
    p.add_argument("--init", default="random", choices=list(INIT_ALIASES))
    p.add_argument("--init-file")


def _family_fields(args) -> dict:
    return dict(family=FAMILY_ALIASES[args.family], **{f: getattr(args, f) for f in FAMILY_FIELDS},
                graph_seed=args.graph_seed, path=args.path)


def _config_from_args(args, variant: str, seeds: int = 1) -> ExperimentConfig:
    init = INIT_ALIASES[args.init]
    explicit = None
    if args.init_file and init != "explicit":
        raise ValueError("--init-file needs --init file")
    if init == "explicit":
        if not args.init_file:
            raise ValueError("--init file needs --init-file")
        with open(args.init_file, encoding="utf-8") as f:
            explicit = tuple(int(line) for line in f.read().split())
    return ExperimentConfig(
        **_family_fields(args),
        variant=variant,
        k=args.k,
        init=init,
        explicit_colors=explicit,
        seeds=seeds,
        master_seed=args.seed,
        cap=args.cap,
    )


# -- gen ------------------------------------------------------------------------


def _cmd_gen(args) -> int:
    with _refusing():
        g = build_graph(ExperimentConfig(**_family_fields(args)))
    with _refusing(f"cannot write {args.out}: "), open(args.out, "w", encoding="utf-8") as f:
        f.write(graphs.to_edge_list(g))
    print(f"n={g.n} m={g.m} delta={g.max_degree}")
    return EXIT_OK


# -- run ------------------------------------------------------------------------


def _cmd_run(args) -> int:
    with _refusing():
        config = _config_from_args(args, args.variant)
        graph = build_graph(config)
        trace = Trace() if args.trace_out is not None else None
        result = run_one(graph, 0, config, trace)
    if trace is not None:  # written before the result line, so a refusal prints nothing
        meta = {"tool": f"colorsim {__version__}", "config": public_config(config)}
        with (_refusing(f"cannot write {args.trace_out}: "),
              open(args.trace_out, "w", encoding="utf-8") as f):
            write_jsonl(f, meta, trace)
    columns = cell_columns(config, graph)
    cell = " ".join(f"{key}={value}" for key, value in columns.items() if key != "family")
    initial_phi, final_phi = (Fraction(*potential(columns["delta"], num))
                              for num in (result.initial_phi_num, result.final_phi_num))
    print(
        f"{cell} master_seed={config.master_seed} "
        f"steps={result.steps} terminated={str(result.terminated).lower()} "
        f"stalled={str(result.stalled).lower()} "
        f"initial_phi={initial_phi} final_phi={final_phi}"
    )
    return EXIT_OK if result.terminated else EXIT_CAP


# -- sweep ------------------------------------------------------------------------


def _report_stalls(what: str, results) -> None:
    """One stderr line when runs stalled; a stall is a result, so the exit code stays."""
    stalled = sum(r.stalled for r in results)
    if stalled:
        print(f"{what}: {stalled} of {len(results)} runs stalled", file=sys.stderr)


# the config keys that default every cell, each with the flag it overrides
_SWEEP_DEFAULTS = (("seeds", "seeds"), ("master_seed", "seed"), ("cap", "cap"))


def _refuse_unknown_keys(what: str, obj: dict, known: tuple[str, ...]) -> None:
    for key in obj:
        if key not in known:
            raise _Refused(f"unknown {what} key {key!r} (known: {', '.join(known)})")


def _cmd_sweep(args) -> int:
    if args.workers < 1:
        raise _Refused("--workers must be >= 1")
    with _refusing("cannot read config: "), open(args.config, encoding="utf-8") as f:
        try:
            spec = json.load(f)
        except RecursionError:
            raise ValueError("nested too deeply") from None
    cells = spec.get("cells", []) if isinstance(spec, dict) else None
    if not isinstance(cells, list):
        raise _Refused("config must be a JSON object with a list of cells")
    _refuse_unknown_keys("config", spec, ("cells", "fit", *(key for key, _ in _SWEEP_DEFAULTS)))
    fit_spec = spec.get("fit")
    model = fit_spec.get("model") if isinstance(fit_spec, dict) else None
    if "fit" in spec and not (isinstance(model, str) and model in FIT_MODELS):
        raise _Refused(f"fit must be an object whose model is one of {sorted(FIT_MODELS)}")
    if model:
        _refuse_unknown_keys("fit", fit_spec, ("model",))
        if len(cells) < 3:
            raise _Refused(f"fit needs at least 3 cells, the config has {len(cells)}")
    # the config file's value, else the flag's; ExperimentConfig supplies the rest
    defaults = {}
    for key, dest in _SWEEP_DEFAULTS:
        flag = getattr(args, dest)
        if key in spec:
            defaults[key] = spec[key]
            if flag is not None:
                print(f"sweep: config file overrides --{dest}", file=sys.stderr)
        elif flag is not None:
            defaults[key] = flag
    configs = []
    known = {f.name for f in fields(ExperimentConfig)}
    for cell in cells:
        try:
            if not isinstance(cell, dict):
                raise ValueError("a cell must be a JSON object")
            for key in cell:
                if key not in known:
                    raise ValueError(f"unknown key {key!r}")
            if "family" not in cell:
                raise ValueError("a cell needs a family")
            merged = {**defaults, **cell}
            family = merged["family"]
            if isinstance(family, str):  # any other family is ExperimentConfig's to refuse
                merged["family"] = FAMILY_ALIASES.get(family, family)
            configs.append(ExperimentConfig(**merged))
        except ValueError as exc:
            print(f"sweep: bad cell {cell}: {exc}", file=sys.stderr)
    done = []  # (config, cell columns, stats, results) of each cell that ran
    for config, outcome in zip(configs, sweep(configs, args.workers)):
        if isinstance(outcome, Exception):
            print(f"sweep: cell {config.resolved_id()} failed: {_reason(outcome)}",
                  file=sys.stderr)
        else:
            done.append((config, *outcome))
            _report_stalls(f"sweep: cell {config.resolved_id()}", outcome[2])
    fit = None
    if model and len(done) < 3:
        print(f"sweep: fit skipped: {len(done)} cells succeeded and the fit needs 3",
              file=sys.stderr)
    elif model:
        try:
            fit = scaling_fit([(c["n"], c["delta"], s.mean_steps) for _, c, s, _ in done], model)
        except ValueError as exc:
            print(f"sweep: fit failed: {exc}", file=sys.stderr)
    with _refusing("cannot write output: "):
        if args.per_run is not None:
            rows = [row for _, c, _, r in done for row in run_rows(c, r, args.timing)]
            with open(args.per_run, "w", encoding="utf-8", newline="") as f:
                write_runs_csv(f, configs, rows)
        if args.aggregate is not None:
            rows = [aggregate_row(config, c, s, fit) for config, c, s, _ in done]
            with open(args.aggregate, "w", encoding="utf-8", newline="") as f:
                write_aggregate_csv(f, configs, rows)
    for config, _, stats, _ in done:
        print(
            f"{config.resolved_id()}: mean={stats.mean_steps:.2f} median={stats.median_steps:.1f} "
            f"terminated={stats.termination_fraction:.3f}"
        )
    if fit:
        print(f"fit[{fit.model}]: coefficient={fit.coefficient:.4f} r2={fit.r_squared:.4f}")
    return EXIT_USAGE if len(done) < len(cells) else EXIT_OK  # a cell was bad or failed


# -- audit ------------------------------------------------------------------------


def _cmd_audit(args) -> int:
    names = args.families.split(",") if args.families is not None else AuditSweepSpec.families
    families = tuple(FAMILY_ALIASES.get(name, name) for name in names)
    with _refusing():
        spec = AuditSweepSpec(
            instances=args.instances,
            master_seed=args.seed,
            families=families,
            max_n=args.max_n,
        )
        sink = nullcontext(sys.stdout) if args.out is None else open(args.out, "w", encoding="utf-8")
    meta = {"tool": f"colorsim {__version__}", "spec": asdict(spec)}
    violations = []
    audit_lines = drift_audit_sweep(spec)

    def lines():
        for line in audit_lines:
            if not line.get("skipped") and not line["satisfied"]:
                violations.append(line)
            yield line

    # a failed write closes the sweep, and so its pool, at once; stdout is main's to report
    refusing = _refusing("cannot write output: ") if args.out is not None else nullcontext()
    with refusing, closing(audit_lines), sink as out:
        write_jsonl(out, meta, lines())
    if violations:
        for line in violations[:10]:
            print(f"audit: VIOLATION {line['claim']} digest={line['state_digest']}", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


# -- compare ------------------------------------------------------------------------


def _cmd_compare(args) -> int:
    with _refusing():
        variants = args.variants.split(",")
        # one config from the flags, so an init file is read once; replace validates each variant
        base = _config_from_args(args, variants[0], seeds=args.seeds)
        configs = [replace(base, variant=v) for v in variants]
        pairs = []
        for config, outcome in zip(configs, sweep(configs)):
            if isinstance(outcome, Exception):
                raise outcome  # the first failure refuses the command
            pairs.append((config, outcome[1]))
            _report_stalls(f"compare: variant {config.variant}", outcome[2])
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
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(fn=_cmd_gen)

    p_run = sub.add_parser("run", help="one seeded run of a variant")
    _add_family_args(p_run)
    p_run.add_argument("--variant", default="uniform", choices=sorted(STEPS))
    _add_config_args(p_run)
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
    _add_config_args(p_cmp, seeds=True)
    p_cmp.set_defaults(fn=_cmd_compare)

    return parser


def main(argv=None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
            return args.fn(args)
        except _Refused as exc:
            print(f"{args.command}: {exc}", file=sys.stderr)
            return EXIT_USAGE
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
