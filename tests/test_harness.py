import dataclasses
import io
import json
import math
import multiprocessing
import os
import typing

import pytest

from colorsim import (
    AuditSweepSpec,
    ExperimentConfig,
    drift_audit_sweep,
    make_rng,
    run_ensemble,
    scaling_fit,
)
from colorsim import audit, harness
from colorsim.harness import (
    audit_instance,
    build_graph,
    cell_columns,
    run_one,
    run_rows,
    write_aggregate_csv,
    write_jsonl,
    write_runs_csv,
    aggregate_row,
)
from colorsim.audit import state_digest
from colorsim.dynamics import Trace
from exact_laws import theorem_step_budget
from observers import ConflictedCounts


class TestScalingFit:
    def test_recovers_exact_law(self):
        pts = [(n, 8, 2.5 * n * math.log(8)) for n in (64, 128, 256, 512)]
        fit = scaling_fit(pts, "n_log_delta")
        assert fit.coefficient == pytest.approx(2.5)
        assert fit.r_squared == pytest.approx(1.0)

    def test_duplicated_single_scale_equals_ratio(self):
        pts = [(100, 4, 700.0)] * 3
        fit = scaling_fit(pts, "n_delta")
        assert fit.coefficient == pytest.approx(700.0 / 400.0)

    def test_degenerate_regressor_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            scaling_fit([(10, 1, 5.0), (20, 1, 9.0), (30, 1, 14.0)], "n_log_delta")

    def test_max_degree_zero_is_a_degenerate_regressor(self):
        # log 0 is undefined, not 0; the point is named as for delta 1
        with pytest.raises(ValueError, match=r"^degenerate regressor at point \(n=1, delta=0\)$"):
            scaling_fit([(1, 0, 0.0), (3, 2, 3.5), (4, 3, 2.0)], "n_log_delta")

    def test_needs_three_points(self):
        with pytest.raises(ValueError):
            scaling_fit([(10, 2, 5.0)], "n_log_n")

    def test_unknown_model(self):
        with pytest.raises(ValueError):
            scaling_fit([(10, 2, 5.0)] * 3, "cubic")


class TestRunEnsemble:
    def test_edgeless_mean_zero(self):
        cfg = ExperimentConfig(family="erdos_renyi", n=6, p=0.0, k=2, seeds=10, master_seed=1)
        stats, records = run_ensemble(build_graph(cfg), cfg)
        assert stats.mean_steps == 0 and stats.termination_fraction == 1.0

    def test_deterministic_across_calls(self):
        cfg = ExperimentConfig(family="complete", n=8, k=8, seeds=25, master_seed=3)
        a = run_ensemble(build_graph(cfg), cfg)
        b = run_ensemble(build_graph(cfg), cfg)
        assert a == b

    def test_worker_count_does_not_change_results(self):
        cfg = ExperimentConfig(family="complete", n=8, k=8, seeds=16, master_seed=5)
        g = build_graph(cfg)
        assert run_ensemble(g, cfg, workers=1)[1] == run_ensemble(g, cfg, workers=3)[1]

    def test_termination_fraction_on_small_complete(self):
        cfg = ExperimentConfig(family="complete", n=8, k=8, seeds=50, master_seed=2, cap=10**6)
        stats, _ = run_ensemble(build_graph(cfg), cfg)
        assert stats.termination_fraction == 1.0
        assert stats.ci95_low <= stats.mean_steps <= stats.ci95_high

    @pytest.fixture
    def pools(self, monkeypatch):
        """(width, chunks) of each pool, run in this process instead of in workers."""
        pools = []

        class InlinePool:
            """Records the requested width and chunk count and runs the work in this process."""

            def __init__(self, max_workers, initializer=None, initargs=()):
                self.width = max_workers
                if initializer is not None:
                    initializer(*initargs)

            def map(self, fn, *iterables, chunksize=1):
                pools.append((self.width, math.ceil(len(iterables[0]) / chunksize)))
                return map(fn, *iterables)

            def shutdown(self, wait=True, cancel_futures=False):
                pass

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(harness, "_pool_context", None)
        return pools

    @staticmethod
    def set_cpus(monkeypatch, count):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)),
                            raising=False)

    def test_pool_width_capped_at_chunks(self, pools, monkeypatch):
        self.set_cpus(monkeypatch, 64)
        cfg = ExperimentConfig(family="complete", n=6, k=6, seeds=8, master_seed=4)
        g = build_graph(cfg)
        _, records = run_ensemble(g, cfg, workers=10_000)
        assert pools == [(8, 8)]
        assert records == run_ensemble(g, cfg, workers=1)[1]

    def test_pool_width_capped_at_cpu_count(self, pools, monkeypatch):
        # sweep --workers 5000 --seeds 1000 on 2 CPUs sends what --workers 2 sends
        cfg = ExperimentConfig(family="complete", n=3, k=3, seeds=1000, master_seed=4)
        g = build_graph(cfg)
        self.set_cpus(monkeypatch, 2)
        _, records = run_ensemble(g, cfg, workers=5000)
        assert pools == [(2, 8)]
        assert records == run_ensemble(g, cfg, workers=1)[1]
        run_ensemble(g, cfg, workers=2)
        assert pools == [(2, 8), (2, 8)]
        # one usable CPU runs in this process; an unknown CPU count counts as one
        self.set_cpus(monkeypatch, 1)
        run_ensemble(g, cfg, workers=5000)
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        run_ensemble(g, cfg, workers=5000)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        run_ensemble(g, cfg, workers=5000)
        assert pools == [(2, 8), (2, 8), (3, 12)]

    def test_validates_config(self):
        with pytest.raises(ValueError):
            ExperimentConfig(family="complete", n=4, seeds=0)
        with pytest.raises(ValueError):
            ExperimentConfig(family="complete", n=4, cap=0)
        cfg = ExperimentConfig(family="complete", n=4, seeds=2)
        with pytest.raises(ValueError, match="workers"):
            run_ensemble(build_graph(cfg), cfg, workers=0)

    @pytest.mark.parametrize("name", sorted(
        set(typing.get_type_hints(ExperimentConfig)) - {"explicit_colors"}))
    def test_rejects_a_bool_in_every_typed_field(self, name):
        # a JSON true is a bool, which Python also counts as an int
        with pytest.raises(ValueError, match=f"^bad {name}: True$"):
            ExperimentConfig(**{"family": "complete", "n": 4, name: True})

    def test_rejects_bool_explicit_colors(self):
        with pytest.raises(ValueError, match="explicit_colors"):
            ExperimentConfig(family="complete", n=2, init="explicit", explicit_colors=(True, 2))

    @pytest.mark.parametrize("colors", [5, True, "121", {1: 1}], ids=repr)
    def test_rejects_explicit_colors_that_are_no_list(self, colors):
        with pytest.raises(ValueError, match="^explicit_colors must be a list of integers$"):
            ExperimentConfig(family="complete", n=3, init="explicit", explicit_colors=colors)

    @pytest.mark.parametrize("family, fields, extra", [
        ("complete", {"n": 4}, {"p": 0.5}),
        ("cycle", {"n": 5}, {"count": 2}),
        ("disjoint_cliques", {"count": 2, "size": 3}, {"n": 6}),
        ("erdos_renyi", {"n": 5, "p": 0.5}, {"path": "g.txt"}),
    ])
    def test_rejects_a_field_its_family_does_not_take(self, family, fields, extra):
        # the value would reach config_id while the graph ignores it
        (name,) = extra
        with pytest.raises(ValueError, match=f"^{family} does not take {name}$"):
            ExperimentConfig(family=family, **fields, **extra)

    @pytest.mark.parametrize("p", [math.nan, math.inf, -math.inf])
    def test_rejects_a_non_finite_p(self, p):
        # json.load takes NaN and Infinity; json.dumps would write them back as bare tokens
        with pytest.raises(ValueError, match=f"^bad p: {p!r}$"):
            ExperimentConfig(family="erdos_renyi", n=5, p=p)

    def test_rejects_a_negative_graph_seed(self):
        # numpy's own refusal would name no field
        with pytest.raises(ValueError, match="^graph_seed must be >= 0$"):
            ExperimentConfig(family="erdos_renyi", n=10, p=0.5, graph_seed=-1)

    def test_a_nonzero_graph_seed_names_its_graph(self):
        # two er cells that differ only in graph_seed draw different graphs
        one, two = (ExperimentConfig(family="erdos_renyi", n=30, p=0.2, graph_seed=seed)
                    for seed in (1, 2))
        assert build_graph(one).m != build_graph(two).m
        assert one.resolved_id() == "erdos_renyi-n30-p0.2-graph_seed1-uniform-random"
        assert two.resolved_id() == "erdos_renyi-n30-p0.2-graph_seed2-uniform-random"
        # seed 0, the default, keeps the id it always had
        assert ExperimentConfig(family="erdos_renyi", n=30, p=0.2).resolved_id() == (
            "erdos_renyi-n30-p0.2-uniform-random")

    def test_file_with_n_still_builds(self, tmp_path):
        # n pads the edge list's vertices
        (tmp_path / "g.txt").write_text("0 1\n1 2\n")
        cfg = ExperimentConfig(family="file", path=str(tmp_path / "g.txt"), n=5)
        assert build_graph(cfg).n == 5
        assert cfg.resolved_id() == f"file-n5-path{tmp_path / 'g.txt'}-uniform-random"

    def test_rejects_explicit_colors_without_explicit_init(self):
        # the colors would go unused, yet appear in every output's config header
        with pytest.raises(ValueError, match="^explicit_colors needs init explicit, not 'random'$"):
            ExperimentConfig(family="complete", n=4, explicit_colors=(1, 2, 3, 4))

    def test_mean_below_theorem_budget(self):
        cfg = ExperimentConfig(family="disjoint_cliques", count=8, size=8, seeds=50, master_seed=4)
        g = build_graph(cfg)
        stats, _ = run_ensemble(g, cfg)
        assert stats.mean_steps <= theorem_step_budget(g.n, g.max_degree)


# every family's config_id: the family, then each of its set graph fields in
# the family's own order, then variant, init and k
@pytest.mark.parametrize("fields, config_id", [
    (dict(family="complete", n=5), "complete-n5-uniform-random"),
    (dict(family="disjoint_cliques", count=4, size=6, k=7),
     "disjoint_cliques-count4-size6-uniform-random-k7"),
    (dict(family="complete_bipartite", a=3, b=5, variant="parallel"),
     "complete_bipartite-a3-b5-parallel-random"),
    (dict(family="cycle", n=9, init="all_ones"), "cycle-n9-uniform-all_ones"),
    (dict(family="erdos_renyi", n=30, p=0.2), "erdos_renyi-n30-p0.2-uniform-random"),
    (dict(family="erdos_renyi", n=30, p=0.2, graph_seed=2),
     "erdos_renyi-n30-p0.2-graph_seed2-uniform-random"),
    (dict(family="file", path="a.txt"), "file-patha.txt-uniform-random"),
    (dict(family="file", path="a.txt", n=8), "file-n8-patha.txt-uniform-random"),
    # a path has one spelling: no "." part and no empty one, but ".." stays, since
    # a/.. is not the current directory when a is a symlink
    (dict(family="file", path="./a.txt"), "file-patha.txt-uniform-random"),
    (dict(family="file", path="dir//a.txt"), "file-pathdir/a.txt-uniform-random"),
    (dict(family="file", path="a/../g.txt"), "file-patha/../g.txt-uniform-random"),
], ids=["complete", "cliques", "bipartite", "cycle", "er", "er_graph_seed", "file", "file_n",
        "file_dot", "file_double_slash", "file_dotdot"])
def test_config_id_of_each_family(fields, config_id):
    assert ExperimentConfig(**fields).resolved_id() == config_id


class TestParallelRunRecords:
    """Survival of the parallel variant, read from ``run_ensemble`` records and,
    for the least conflicted count, from each run's ``ConflictedCounts``."""

    @staticmethod
    def ensemble(**fields):
        cfg = ExperimentConfig(family="complete", variant="parallel", **fields)
        return run_ensemble(build_graph(cfg), cfg)

    @staticmethod
    def observed(**fields):
        """(record, least conflicted count) of each run, run one by one as
        ``run_ensemble`` runs them on one worker."""
        cfg = ExperimentConfig(family="complete", variant="parallel", **fields)
        graph = build_graph(cfg)
        runs = []
        for index in range(cfg.seeds):
            counts = ConflictedCounts()
            runs.append((run_one(graph, index, cfg, counts), counts.least()))
        return runs

    def test_k2_terminates_quickly(self):
        stats, records = self.ensemble(n=2, k=2, seeds=50, master_seed=6, cap=10**6)
        assert all(r.terminated for r in records)
        assert stats.median_steps <= 16

    def test_run_starting_proper_records_count_zero(self):
        # K_2 at k=2, master seed 1: seeds 0 and 1 draw a proper coloring
        runs = self.observed(n=2, k=2, seeds=6, master_seed=1, cap=10**6)
        assert [(r.steps, least) for r, least in runs[:2]] == [(0, 0), (0, 0)]
        for r, least in runs:  # 0 is below every threshold epsilon * n
            assert r.terminated and least == 0

    def test_record_shape(self):
        fields = dict(n=6, k=6, seeds=10, master_seed=7, cap=10**5)
        stats, records = self.ensemble(**fields)
        runs = self.observed(**fields)
        assert len(records) == 10 == stats.seeds
        assert [r for r, _ in runs] == records
        for r, least in runs:
            assert r.terminated or r.steps == 10**5
            assert 0 <= least <= 6
            assert r.terminated == (least == 0)


class TestSweep:
    """``harness.sweep``: one ensemble per config, one build per run of equal graph fields."""

    @pytest.fixture
    def builds(self, monkeypatch):
        calls = []
        for name in ("complete", "erdos_renyi"):
            original = getattr(harness.graphs, name)

            def counted(*args, original=original, name=name):
                calls.append((name, *args))
                return original(*args)

            monkeypatch.setattr(harness.graphs, name, counted)
        return calls

    def test_yields_what_run_ensemble_returns(self):
        configs = [ExperimentConfig(family="complete", n=6, seeds=5, master_seed=1),
                   ExperimentConfig(family="cycle", n=7, variant="persistent", seeds=4),
                   ExperimentConfig(family="erdos_renyi", n=12, p=0.3, graph_seed=2, k=9,
                                    variant="parallel", seeds=6, cap=10**4)]
        outcomes = list(harness.sweep(configs, workers=2))
        assert len(outcomes) == len(configs)
        for cfg, (columns, stats, results) in zip(configs, outcomes):
            graph = build_graph(cfg)
            assert columns == cell_columns(cfg, graph)
            assert (stats, results) == run_ensemble(graph, cfg)

    def test_consecutive_equal_graph_fields_share_one_build(self, builds):
        first = ExperimentConfig(family="complete", n=5, seeds=3)
        same_graph = [dataclasses.replace(first, **change) for change in (
            {"variant": "persistent"}, {"k": 9}, {"init": "all_ones"}, {"seeds": 4})]
        er = ExperimentConfig(family="erdos_renyi", n=8, p=0.5, seeds=2)
        configs = [first, *same_graph, dataclasses.replace(first, n=6), first,
                   er, dataclasses.replace(er, variant="persistent"),
                   dataclasses.replace(er, graph_seed=1)]  # an optional field counts too
        outcomes = list(harness.sweep(configs))
        assert builds == [("complete", 5), ("complete", 6), ("complete", 5),
                          ("erdos_renyi", 8, 0.5, 0), ("erdos_renyi", 8, 0.5, 1)]
        assert [columns for columns, _, _ in outcomes] == [
            cell_columns(cfg, build_graph(cfg)) for cfg in configs]

    def test_a_failed_config_yields_its_error_and_the_next_runs(self):
        bad = ExperimentConfig(family="complete", n=0, seeds=2)
        good = ExperimentConfig(family="complete", n=4, seeds=2)
        error, (columns, stats, results) = harness.sweep([bad, good])
        assert isinstance(error, ValueError) and str(error) == "complete graph needs n >= 1"
        graph = build_graph(good)
        assert columns == cell_columns(good, graph)
        assert (stats, results) == run_ensemble(graph, good)


class TestSweepOfVariants:
    """Variants compared the way ``colorsim compare`` does: one ``harness.sweep`` of them."""

    def test_self_comparison_ratio_one(self):
        cfg = ExperimentConfig(family="complete", n=8, k=8, seeds=40, master_seed=9)
        (_, first, _), (_, second, _) = harness.sweep([cfg, cfg])
        assert first == second and first.mean_steps > 0

    def test_adversarial_contrast_rows(self):
        configs = [
            ExperimentConfig(family="disjoint_cliques", count=4, size=8, variant=v,
                             init="all_ones", seeds=30, master_seed=10)
            for v in ("uniform", "persistent")
        ]
        pairs = [(cfg, stats) for cfg, (_, stats, _) in zip(configs, harness.sweep(configs))]
        assert [cfg for cfg, _ in pairs] == configs
        assert all(stats.termination_fraction == 1.0 for _, stats in pairs)


SAMPLING_FAMILIES = [name for name, family in harness.FAMILIES.items() if family.sample]


class TestAuditSweep:
    def test_empty_families_refused(self):
        with pytest.raises(ValueError, match="families must name at least one family"):
            AuditSweepSpec(instances=3, families=())

    @pytest.mark.parametrize("name", SAMPLING_FAMILIES)
    def test_max_n_bounds_every_instance(self, name):
        # every max_n below 30, where the caps bind, from the least the family accepts
        family = harness.FAMILIES[name]
        for max_n in range(family.min_max_n, 30):
            spec = AuditSweepSpec(instances=300, master_seed=39, families=(name,), max_n=max_n)
            sizes = [family.sample(spec, make_rng(spec.master_seed, index)).n
                     for index in range(spec.instances)]
            assert max(sizes) <= max_n, (max_n, max(sizes))

    @pytest.mark.parametrize("name", SAMPLING_FAMILIES)
    def test_max_n_refused_below_the_fewest_vertices(self, name):
        fewest = harness.FAMILIES[name].min_max_n
        AuditSweepSpec(instances=1, families=(name,), max_n=fewest)
        with pytest.raises(ValueError, match=f"max_n {fewest - 1} is too small for {name}, "
                                             f"whose instances have at least {fewest} vertices"):
            AuditSweepSpec(instances=1, families=(name,), max_n=fewest - 1)

    @pytest.mark.parametrize("name", SAMPLING_FAMILIES)
    def test_max_n_of_50_and_more_draws_the_same_instances(self, name):
        # no sampler draws past 50 vertices, so the benchmark's audits at
        # max-n 50 draw what an unbounded audit would
        specs = [AuditSweepSpec(instances=200, master_seed=39, families=(name,), max_n=max_n)
                 for max_n in (50, 500)]
        digests = [[state_digest(audit_instance(spec, index)[0])
                    for index in range(spec.instances)] for spec in specs]
        assert digests[0] == digests[1]

    def test_small_sweep_no_violations(self):
        spec = AuditSweepSpec(instances=40, master_seed=17, max_n=30)
        lines = list(drift_audit_sweep(spec))
        assert lines
        assert all(line["satisfied"] for line in lines if not line.get("skipped"))

    def test_proper_colorings_marked_skipped(self):
        # plenty of tiny cycles come out properly colored at random
        spec = AuditSweepSpec(instances=120, master_seed=2, families=("cycle",), max_n=8)
        lines = list(drift_audit_sweep(spec))
        markers = [l for l in lines if l.get("skipped")]
        assert markers and all(m["reason"] == "proper coloring" for m in markers)

    def test_rationals_rendered_exactly(self):
        spec = AuditSweepSpec(instances=10, master_seed=3)
        for line in drift_audit_sweep(spec):
            if line.get("skipped"):
                continue
            for key in ("lhs", "rhs", "margin"):
                num, den = line[key].split("/")
                int(num), int(den)

    def test_instances_deterministic(self):
        spec = AuditSweepSpec(instances=6, master_seed=5)
        a = [state_digest(audit_instance(spec, i)[0]) for i in range(6)]
        b = [state_digest(audit_instance(spec, i)[0]) for i in range(6)]
        assert a == b

    def test_swapped_sides_are_reported_unsatisfied(self, monkeypatch):
        # swapping each entry's sides turns every positive margin negative
        checks = audit.audit_state
        monkeypatch.setattr(audit, "audit_state", lambda state, bipartite=False: [
            dataclasses.replace(e, lhs=e.rhs, rhs=e.lhs) for e in checks(state, bipartite)])
        spec = AuditSweepSpec(instances=20, master_seed=6)
        lines = [l for l in drift_audit_sweep(spec) if not l.get("skipped")]
        assert any(not l["satisfied"] for l in lines)


def _touch(directory, index):
    (directory / str(index)).touch()
    return index


class TestOrderedMap:
    def test_items_in_order_on_a_pool(self, tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "usable_cpus", lambda: 3)
        assert list(harness.ordered_map(_touch, tmp_path, range(50), 3, chunk=4)) == list(range(50))
        assert len(list(tmp_path.iterdir())) == 50

    def test_closing_early_cancels_the_pending_chunks(self, tmp_path, monkeypatch):
        # the chunks already handed to a worker finish; none of the rest starts
        monkeypatch.setattr(harness, "usable_cpus", lambda: 2)
        results = harness.ordered_map(_touch, tmp_path, range(2000), 2, chunk=1)
        assert next(results) == 0
        results.close()
        assert multiprocessing.active_children() == []
        assert len(list(tmp_path.iterdir())) < 2000


class TestWriters:
    def _ensemble(self):
        cfg = ExperimentConfig(family="complete", n=6, k=6, seeds=8, master_seed=12)
        graph = build_graph(cfg)
        stats, records = run_ensemble(graph, cfg)
        return cfg, cell_columns(cfg, graph), stats, records

    def test_runs_csv_layout(self):
        cfg, columns, stats, records = self._ensemble()
        buf = io.StringIO()
        write_runs_csv(buf, [cfg], run_rows(columns, records))
        text = buf.getvalue()
        lines = text.splitlines()
        assert lines[0].startswith("# colorsim ")
        header_idx = next(i for i, l in enumerate(lines) if not l.startswith("#"))
        assert lines[header_idx].split(",")[0] == "config_id"
        assert len(lines) == header_idx + 1 + len(records)
        # metadata excludes worker width but carries the master seed
        meta = next(l for l in lines if l.startswith("# config: "))
        payload = json.loads(meta.split("# config: ", 1)[1])
        assert payload[0]["master_seed"] == 12
        assert "workers" not in payload[0]

    def test_runs_csv_deterministic_bytes(self):
        cfg, columns, stats, records = self._ensemble()
        bufs = []
        for _ in range(2):
            buf = io.StringIO()
            write_runs_csv(buf, [cfg], run_rows(columns, records))
            bufs.append(buf.getvalue())
        assert bufs[0] == bufs[1]

    def test_run_rows_hold_wall_ns_only_with_timing(self):
        cfg, columns, stats, records = self._ensemble()
        assert all(row["wall_ns"] == 0 for row in run_rows(columns, records))
        timed = [row["wall_ns"] for row in run_rows(columns, records, timing=True)]
        assert timed == [r.wall_ns for r in records] and any(ns > 0 for ns in timed)

    def test_aggregate_csv(self):
        cfg, columns, stats, records = self._ensemble()
        buf = io.StringIO()
        write_aggregate_csv(buf, [cfg], [aggregate_row(cfg, columns, stats)])
        body = [l for l in buf.getvalue().splitlines() if not l.startswith("#")]
        assert body[0].split(",")[0] == "config_id"
        assert len(body) == 2

    def test_row_keys_are_the_columns(self):
        # the writers print only the named columns, so a key outside them would vanish
        cfg, columns, stats, records = self._ensemble()
        fit = scaling_fit([(4, 3, 5.0), (8, 3, 11.0), (16, 3, 20.0)], "n_log_n")
        for row in (aggregate_row(cfg, columns, stats), aggregate_row(cfg, columns, stats, fit)):
            assert set(row) == set(harness.AGGREGATE_CSV_FIELDS)
        for row in run_rows(columns, records):
            assert set(row) == set(harness.RUN_CSV_FIELDS)

    def test_jsonl_meta_first(self):
        cfg = ExperimentConfig(family="complete", n=5, k=5, seeds=1, master_seed=1)
        trace = []
        result = run_one(build_graph(cfg), 0, cfg, Trace(trace.append))
        buf = io.StringIO()
        write_jsonl(buf, {"kind": "trace"}, trace)
        lines = buf.getvalue().splitlines()
        assert json.loads(lines[0])["meta"] == {"kind": "trace"}
        assert len(lines) == 1 + len(trace)
        last = json.loads(lines[-1])
        assert result.terminated and last["phi_num"] == 0
