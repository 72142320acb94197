"""colorsim benchmark: one workload end to end, or its traced per-layer pass.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The process imports ``colorsim`` from ``src/``
and calls ``colorsim.cli.main(argv)`` with the exact argv a user would type,
writing outputs to a scratch directory under ``perfbench/.out``. Commands run
one after another, with master seeds from a pool in an order drawn from
``--seed``, until ``--seconds`` have passed. Every command's output is checked
item by item against the digests pinned in ``perfbench/refs``.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: median over fresh interpreters of importing colorsim and
  building the workload's graphs (``setup_probe.py``);
* ``work_per_s``: the commands' total work over their total wall time. The
  work is the summed per-run CSV ``steps`` on the sweep workloads
  (steps_per_s) and the non-skipped claim lines on the audit (checks_per_s);
* ``peak_rss_mb``: the larger of this process's and its children's peak RSS,
  so pool workers count.

Times are scaled to a reference machine speed: a fixed calibration loop that
shares no code with colorsim is timed before and after each command and each
set-up probe, and a command's rate is divided by the speed read around it
(``CAL_REF_S`` over the loop's time), so each command's wall time counts at
reference speed. On a shared machine whose speed drifts
by tens of percent within minutes, this keeps runs made at different times
comparable. The raw rate is printed beside the scaled one.

The share of items that differ from the reference (``failed_frac``) is the
``failed``/``attempted`` pair of the result line. The per-seed dynamics time
from the CSV ``wall_ns`` column (``run_ms_p50``/``run_ms_p90``) is printed,
not gated, where at least 100 runs were timed.

``--trace 1`` runs the same untraced loop, then the first command again with
the tracer installed (``tracer.py``), and reports the per-layer metrics, each
layer's share of the traced wall time, the time no layer accounts for, and the
tracing overhead against the untraced rate. The traced outputs must match
the reference too.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``. A copy of the full result, with
the machine record, is saved under ``perfbench/.out/results``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import HERE, POOL, WORK, WORKLOADS, Workload, count_failed, load_refs, read_output

ROOT = HERE.parent
SETUP_SAMPLES = 5
# Seconds one calibration_kernel() call takes on the reference machine at full
# speed; measured times are scaled by (this / the kernel's time next to them).
CAL_REF_S = 0.045
MIN_TIMED_RUNS = 100
# the variants whose step count is one step-function call per CSV step
STEP_EXACT_VARIANTS = ("uniform", "parallel")


@dataclass
class Command:
    seed: int
    wall_s: float
    attempted: int
    failed: int
    work: int
    steps: list
    wall_ns: list
    checks: int
    skipped: int
    bytes_written: int
    speed: float = 1.0  # machine speed around the command, 1.0 = reference

    @property
    def rate(self) -> float:
        """Work per second at reference machine speed."""
        return self.work / (self.wall_s * self.speed)


def calibration_kernel(n: int = 250_000) -> int:
    """A fixed interpreter-bound loop of list and dict updates; shares no code with colorsim.

    Its time tracks colorsim's step loops closely on a shared machine (time
    ratios scale about one to one), which is what makes it a speed reference.
    """
    counts = [0] * 1024
    odd: dict[int, int] = {}
    acc = 0
    for i in range(n):
        j = (i * 7919) & 1023
        counts[j] += 1
        if counts[j] & 1:
            odd[j] = i
        else:
            odd.pop(j, None)
        acc += counts[(j + 1) & 1023]
    return acc + len(odd)


def machine_speed() -> float:
    """Current speed of this CPU relative to the reference machine (1.0)."""
    t0 = time.perf_counter()
    calibration_kernel()
    return CAL_REF_S / (time.perf_counter() - t0)


def machine_record() -> dict:
    import numpy

    record = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or "unknown",
        "l2": "unknown",
        "l3": "unknown",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    record["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3"):
            record[f"l{level}"] = size
    return record


def setup_samples(w: Workload) -> list[float]:
    """Set-up seconds in fresh interpreters, at reference machine speed."""
    probe = [sys.executable, str(HERE / "setup_probe.py"), w.name]
    samples = []
    before = machine_speed()
    for _ in range(SETUP_SAMPLES):
        seconds = float(subprocess.run(probe, check=True, capture_output=True, text=True,
                                       cwd=ROOT, timeout=120).stdout)
        after = machine_speed()
        samples.append(seconds * (before + after) / 2)
        before = after
    return samples


def run_command(w: Workload, seed: int, expected: list, tmp: Path) -> Command:
    import colorsim.cli

    out = Path(tempfile.mkdtemp(dir=tmp))
    argv = w.argv(seed, out)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        code = colorsim.cli.main(argv)
        wall = time.perf_counter() - t0
    got = None
    if code == 0:
        try:
            got = read_output(w, out)
        except (OSError, ValueError, IndexError) as exc:
            print(f"{w.name} seed {seed}: unreadable output: {exc}", file=sys.stderr)
    else:
        print(f"{w.name} seed {seed}: exit code {code}: {err.getvalue()[-500:]}",
              file=sys.stderr)
    written = sum(p.stat().st_size for p in out.iterdir() if p.name != "sweep.json")
    shutil.rmtree(out)
    attempted = len(expected)
    if got is None:
        return Command(seed, wall, attempted, attempted, 0, [], [], 0, 0, written)
    work = got.checks if w.kind == "audit" else sum(got.steps)
    return Command(seed, wall, attempted, count_failed(w, expected, got), work,
                   got.steps, got.wall_ns, got.checks, got.skipped, written)


def untraced_loop(w, order, refs, seconds, tmp) -> list[Command]:
    """Commands back to back for ``seconds``, each between two speed readings."""
    done = []
    start = time.perf_counter()
    before = machine_speed()
    while not done or time.perf_counter() - start < seconds:
        seed = order[len(done) % len(order)]
        cmd = run_command(w, seed, refs[str(seed)], tmp)
        after = machine_speed()
        cmd.speed = (before + after) / 2
        before = after
        done.append(cmd)
    return done


def traced_pass(w, seed, expected, tmp, untraced_rate):
    from tracer import Tracer, layer_metrics

    spool = tmp / "spool"
    spool.mkdir()
    tracer = Tracer(spool)
    tracer.install()
    before = machine_speed()
    try:
        cmd = run_command(w, seed, expected, tmp)
    finally:
        tracer.uninstall()
    cmd.speed = (before + machine_speed()) / 2
    metrics, shares = layer_metrics(tracer.records, tracer.worker_spans(), tracer.counts,
                                    cmd.wall_s, w.workers)
    problems = []
    run_one_calls = metrics.pop("harness.run_one_calls")
    if w.kind == "sweep":
        if run_one_calls != w.items:
            problems.append(f"traced {run_one_calls} of {w.items} runs (pool spans missing?)")
        if w.cell["variant"] in STEP_EXACT_VARIANTS and metrics["dynamics.steps"] != sum(cmd.steps):
            problems.append(f"dynamics.steps {metrics['dynamics.steps']} != "
                            f"CSV steps {sum(cmd.steps)}")
    looked = cmd.checks + cmd.skipped
    metrics.update({
        "audit.checks": cmd.checks,
        "audit.checked_frac": cmd.checks / looked if looked else 0.0,
        "harness.bytes_written": cmd.bytes_written,
        "trace.wall_s": cmd.wall_s,
        "trace.overhead": untraced_rate / cmd.rate if cmd.work else 0.0,
        "trace.unattributed_s": shares["unattributed"] * cmd.wall_s,
    })
    metrics.update({f"share.{k}": v for k, v in shares.items()})
    return cmd, metrics, shares, problems


def declared_units(trace: int) -> dict[str, str]:
    """Metric name to unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    w = WORKLOADS[args.workload]

    if not (ROOT / "src" / "colorsim" / "__init__.py").is_file():
        print(f"run.py: no colorsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import colorsim.cli  # noqa: F401  (the first import also writes the bytecode cache)

    units = declared_units(args.trace)
    refs = load_refs(w)["items"]
    order = random.Random(args.seed).sample(POOL, len(POOL))
    machine = machine_record()
    comparable = w.workers <= machine["nproc"]
    WORK.mkdir(exist_ok=True)
    result: dict = {"workload": w.name, "seed": args.seed, "trace": args.trace,
                    "machine": machine, "comparable": comparable}
    lines = [f"workload {w.name}  seed {args.seed}  trace {args.trace}  "
             + "  ".join(f"{k}={v}" for k, v in machine.items())]
    if not comparable:
        lines.append(f"NOT COMPARABLE: {w.workers} workers on {machine['nproc']} cpus")

    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        tmp = Path(tmp)
        setup = [] if args.trace else setup_samples(w)
        cmds = untraced_loop(w, order, refs, args.seconds, tmp)
        rate = sum(c.work for c in cmds) / sum(c.wall_s * c.speed for c in cmds)
        problems = []
        if args.trace:
            traced, metrics, shares, problems = traced_pass(w, order[0], refs[str(order[0])],
                                                            tmp, rate)
            cmds_checked = cmds + [traced]
        else:
            cmds_checked = cmds
    attempted = sum(c.attempted for c in cmds_checked)
    failed = sum(c.failed for c in cmds_checked)
    label = "checks_per_s" if w.kind == "audit" else "steps_per_s"

    if args.trace:
        lines.append(f"traced command: seed {order[0]}, {traced.wall_s:.3f} s; "
                     f"untraced {label} {rate:.1f} over {len(cmds)} commands")
        lines.append(f"{'layer':<14}{'share':>8}{'ceiling':>10}")
        for k, v in shares.items():
            ceiling = f"{1 / (1 - v):.2f}x" if k != "unattributed" and v < 1 else ""
            lines.append(f"{k:<14}{v:>8.3f}{ceiling:>10}")
        for k, v in metrics.items():
            lines.append(f"  {k:<26}{v:>16.6g} {units[k]}")
        result["shares"] = shares
    else:
        usage = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                    resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        metrics = {
            "setup_s": statistics.median(setup),
            "work_per_s": rate,
            "peak_rss_mb": usage / 1024,
        }
        lines += [
            f"  setup_s       {metrics['setup_s']:.4f} s    (median of {len(setup)} set-ups)",
            f"  work_per_s    {rate:.2f} 1/s  ({label} at reference speed, "
            f"{len(cmds)} commands)",
            f"  raw rate      {sum(c.work for c in cmds) / sum(c.wall_s for c in cmds):.2f} 1/s  "
            f"(as measured; median machine speed "
            f"{statistics.median(c.speed for c in cmds):.3f})",
            f"  peak_rss_mb   {metrics['peak_rss_mb']:.1f} MB",
        ]
        timed = [ns for c in cmds for ns in c.wall_ns if ns > 0]
        if len(timed) >= MIN_TIMED_RUNS:
            q = statistics.quantiles(timed, n=10)
            lines.append(f"  run_ms_p50    {statistics.median(timed) / 1e6:.3f} ms   "
                         f"run_ms_p90 {q[8] / 1e6:.3f} ms  ({len(timed)} runs)")
    lines.append(f"  failed_frac   {failed / attempted:.4f}  ({failed} of {attempted} items, "
                 f"{len(cmds_checked)} commands)")
    for p in problems:
        lines.append(f"  CHECK FAILED: {p}")

    if set(metrics) != set(units):
        print(f"run.py: metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json",
              file=sys.stderr)
        return 2
    correct = failed == 0 and not problems
    final = {"correct": correct, "attempted": attempted, "failed": failed,
             "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    result.update(final)
    result["commands"] = [{"seed": c.seed, "wall_s": c.wall_s, "work": c.work, "speed": c.speed,
                           "attempted": c.attempted, "failed": c.failed} for c in cmds_checked]
    saved = WORK / "results" / f"{w.name}-seed{args.seed}-trace{args.trace}.json"
    saved.parent.mkdir(exist_ok=True)
    saved.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print("\n".join(lines))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
