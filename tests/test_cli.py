import csv
import dataclasses
import errno
import json
import math
import multiprocessing
import os
import subprocess
import sys
import weakref
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

from colorsim import audit, from_edge_list, harness
from colorsim import graph as graphs
from colorsim.cli import main
from colorsim.dynamics import STEPS


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_complete(self, tmp_path, capsys):
        out = tmp_path / "k4.txt"
        code, stdout, _ = run_cli(capsys, "gen", "--family", "complete", "--n", "4", "--out", str(out))
        assert code == 0
        assert "n=4 m=6 delta=3" in stdout
        text = out.read_text()
        assert len([l for l in text.splitlines() if l and not l.startswith("#")]) == 6
        assert from_edge_list(text).m == 6

    def test_bipartite(self, tmp_path, capsys):
        out = tmp_path / "k35.txt"
        code, stdout, _ = run_cli(capsys, "gen", "--family", "bipartite", "--a", "3", "--b", "5", "--out", str(out))
        assert code == 0 and "m=15" in stdout

    def test_er_p_zero_comment_only(self, tmp_path, capsys):
        out = tmp_path / "empty.txt"
        code, _, _ = run_cli(capsys, "gen", "--family", "er", "--n", "10", "--p", "0",
                             "--graph-seed", "1", "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines and all(l.startswith("#") for l in lines)

    def test_file_reads_back_the_written_vertex_count(self, tmp_path, capsys):
        # vertices 38 and 39 of this graph have no edge; the header keeps them
        g, h = tmp_path / "g.txt", tmp_path / "h.txt"
        run_cli(capsys, "gen", "--family", "er", "--n", "40", "--p", "0.01",
                "--graph-seed", "1", "--out", str(g))
        code, stdout, _ = run_cli(capsys, "gen", "--family", "file", "--graph", str(g),
                                  "--out", str(h))
        assert code == 0 and stdout.startswith("n=40 ")
        assert h.read_text() == g.read_text()

    def test_unwritable_path(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "gen", "--family", "complete", "--n", "3",
                               "--out", str(tmp_path / "no" / "dir" / "x.txt"))
        assert code == 1 and "cannot write" in err

    def test_missing_parameter(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "gen", "--family", "complete", "--out", str(tmp_path / "x"))
        assert code == 1


class TestRun:
    def test_complete_8(self, capsys):
        code, stdout, _ = run_cli(capsys, "run", "--family", "complete", "--n", "8",
                                  "--variant", "uniform", "--seed", "1")
        assert code == 0
        assert "terminated=true" in stdout
        steps = int(stdout.split("steps=")[1].split()[0])
        assert steps > 0

    def test_edgeless_zero_steps(self, capsys):
        code, stdout, _ = run_cli(capsys, "run", "--family", "er", "--n", "6", "--p", "0")
        assert code == 0 and "steps=0" in stdout

    def test_parallel_cap_exhaustion_exit_2(self, capsys):
        code, stdout, _ = run_cli(capsys, "run", "--family", "complete", "--n", "30",
                                  "--variant", "parallel", "--cap", "1000", "--seed", "0")
        assert code == 2 and "terminated=false" in stdout

    def test_usage_error_exit_1(self, capsys):
        code, _, _ = run_cli(capsys, "run", "--family", "nope")
        assert code == 1

    def test_trace_output(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        code, _, _ = run_cli(capsys, "run", "--family", "complete", "--n", "6",
                             "--seed", "3", "--trace-out", str(trace))
        assert code == 0
        lines = trace.read_text().splitlines()
        assert "meta" in json.loads(lines[0])
        assert json.loads(lines[-1])["phi_num"] == 0

    def test_init_file(self, tmp_path, capsys):
        colors = tmp_path / "colors.txt"
        colors.write_text("1\n2\n1\n2\n")
        code, stdout, _ = run_cli(capsys, "run", "--family", "cycle", "--n", "4",
                                  "--init", "file", "--init-file", str(colors))
        assert code == 0 and "steps=0" in stdout

    @pytest.mark.parametrize("variant, init, family", [
        *(pytest.param(variant, "random", "cliques", id=f"{variant}-random") for variant in STEPS),
        pytest.param("uniform", "ones", "cliques", id="uniform-ones"),
        pytest.param("persistent", "file", "cliques", id="persistent-file"),
        pytest.param("uniform", "random", "file", id="uniform-random-file_family")])
    def test_run_is_run_0_of_its_ensemble(self, variant, init, family, tmp_path, capsys):
        # the run line and row 0 of a one-seed sweep of the same cell share every field
        (tmp_path / "g.txt").write_text("0 1\n1 2\n2 0\n3 4\n")
        graph = {"cliques": {"count": 4, "size": 6},
                 "file": {"path": str(tmp_path / "g.txt"), "n": 8}}[family]
        cell = {"family": family, **graph, "variant": variant, "init": harness.INIT_ALIASES[init]}
        flags = [arg for key, value in graph.items()
                 for arg in ("--graph" if key == "path" else f"--{key}", str(value))]
        if init == "file":
            cell["explicit_colors"] = [1 + v % 3 for v in range(24)]
            (tmp_path / "colors.txt").write_text("\n".join(map(str, cell["explicit_colors"])))
            flags += ["--init-file", str(tmp_path / "colors.txt")]
        code, stdout, _ = run_cli(capsys, "run", "--family", family, "--variant", variant,
                                  "--init", init, *flags, "--seed", "7")
        line = dict(field.split("=", 1) for field in stdout.split())
        (tmp_path / "c.json").write_text(json.dumps({"cells": [cell], "seeds": 1,
                                                     "master_seed": 7}))
        runs = tmp_path / "runs.csv"
        assert run_cli(capsys, "sweep", "--config", str(tmp_path / "c.json"),
                       "--per-run", str(runs))[0] == 0
        header, row = [l.split(",") for l in runs.read_text().splitlines() if l[0] != "#"]
        row = dict(zip(header, row))
        shared = [key for key in row if key in line]
        assert shared == ["config_id", "n", "m", "delta", "k", "variant", "init", "steps",
                          "terminated"]
        assert code == 0 and [line[key] for key in shared] == [row[key] for key in shared]


class TestSweep:
    def _config(self, tmp_path, seeds=12):
        cfg = {
            "master_seed": 5,
            "seeds": seeds,
            "cells": [
                {"family": "complete", "n": 6, "k": 6},
                {"family": "complete", "n": 8, "k": 8},
                {"family": "complete", "n": 10, "k": 10},
            ],
            "fit": {"model": "n_log_n"},
        }
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_sweep_outputs(self, tmp_path, capsys):
        cfg = self._config(tmp_path)
        per_run = tmp_path / "runs.csv"
        agg = tmp_path / "agg.csv"
        code, stdout, _ = run_cli(capsys, "sweep", "--config", str(cfg),
                                  "--per-run", str(per_run), "--aggregate", str(agg))
        assert code == 0
        rows = [l for l in per_run.read_text().splitlines() if not l.startswith("#")]
        assert len(rows) == 1 + 3 * 12
        assert "fit[n_log_n]" in stdout
        agg_rows = [l for l in agg.read_text().splitlines() if not l.startswith("#")]
        assert len(agg_rows) == 4
        assert agg_rows[1].split(",")[0].startswith("complete-n6")

    def test_rerun_byte_identical(self, tmp_path, capsys):
        cfg = self._config(tmp_path)
        outs = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            code, _, _ = run_cli(capsys, "sweep", "--config", str(cfg), "--per-run", str(path))
            assert code == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_empty_cells(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"cells": []}))
        agg = tmp_path / "agg.csv"
        code, _, _ = run_cli(capsys, "sweep", "--config", str(path), "--aggregate", str(agg))
        assert code == 0
        rows = [l for l in agg.read_text().splitlines() if not l.startswith("#")]
        assert rows == ["config_id,family,n,m,delta,k,variant,init,seeds,cap,master_seed,"
                        "mean_steps,median_steps,std_steps,ci95_low,ci95_high,"
                        "termination_fraction,min_steps,max_steps,fit_model,fit_coefficient,fit_r2"]

    def test_flag_conflict_warns(self, tmp_path, capsys):
        cfg = self._config(tmp_path, seeds=4)
        code, _, err = run_cli(capsys, "sweep", "--config", str(cfg), "--seeds", "9")
        assert code == 0 and "overrides --seeds" in err

    def test_bad_cell_exit_1_after_good_cells(self, tmp_path, capsys):
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps({"seeds": 3, "cells": [
            {"family": "complete", "n": 4}, {"family": "cycle"}, {"family": "cycle", "n": 5}]}))
        runs = tmp_path / "runs.csv"
        code, stdout, err = run_cli(capsys, "sweep", "--config", str(path), "--per-run", str(runs))
        assert code == 1
        assert [line.split(":")[0] for line in stdout.splitlines()] == [
            "complete-n4-uniform-random", "cycle-n5-uniform-random"]
        assert err.count("\n") == 1 and "cycle needs n" in err
        rows = [l for l in runs.read_text().splitlines() if not l.startswith("#")]
        assert len(rows) == 1 + 2 * 3

    def test_fit_skipped_when_fewer_than_3_cells_succeed(self, tmp_path, capsys):
        cells = [{"family": "complete", "n": 4}, {"family": "cycle"}, {"family": "cycle", "n": 5}]
        outs = []
        for name, extra in (("plain", {}), ("fit", {"fit": {"model": "n_log_n"}})):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({"seeds": 3, "cells": cells, **extra}))
            agg = tmp_path / f"{name}.csv"
            outs.append((*run_cli(capsys, "sweep", "--config", str(path), "--aggregate", str(agg)),
                         agg.read_bytes()))
        (code, stdout, err, agg_bytes), (fit_code, fit_stdout, fit_err, fit_agg_bytes) = outs
        assert code == fit_code == 1
        assert fit_stdout == stdout and fit_agg_bytes == agg_bytes  # no fit line, empty fit columns
        assert fit_err == err + "sweep: fit skipped: 2 cells succeeded and the fit needs 3\n"

    def test_fit_failure_is_one_stderr_line(self, tmp_path, capsys):
        # K1 has max degree 0, and log 0 is undefined: the fit fails, the cells stand
        path = tmp_path / "fit.json"
        path.write_text(json.dumps({"seeds": 2, "fit": {"model": "n_log_delta"}, "cells": [
            {"family": "complete", "n": 1}, {"family": "complete", "n": 3},
            {"family": "complete", "n": 4}]}))
        code, stdout, err = run_cli(capsys, "sweep", "--config", str(path))
        assert code == 0 and len(stdout.splitlines()) == 3 and "fit[" not in stdout
        assert err == "sweep: fit failed: degenerate regressor at point (n=1, delta=0)\n"

    def test_missing_config_exit_1(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "sweep", "--config", str(tmp_path / "none.json"))
        assert code == 1

    def test_config_headers_are_strict_json(self, tmp_path, capsys):
        # json.load takes NaN; the cell is refused, so no bare NaN reaches a header
        path = tmp_path / "nan.json"
        path.write_text('{"cells": [{"family": "er", "n": 6, "p": NaN}, '
                        '{"family": "complete", "n": 4}], "seeds": 3}')
        runs, agg = tmp_path / "runs.csv", tmp_path / "agg.csv"
        code, stdout, err = run_cli(capsys, "sweep", "--config", str(path),
                                    "--per-run", str(runs), "--aggregate", str(agg))
        assert code == 1 and stdout.startswith("complete-n4-uniform-random: ")

        def refuse(token):
            raise ValueError(f"not JSON: {token}")

        for csv in (runs, agg):
            headers = [line.removeprefix("# config: ") for line in csv.read_text().splitlines()
                       if line.startswith("# config: ")]
            assert len(headers) == 1
            assert [c["config_id"] for c in json.loads(headers[0], parse_constant=refuse)] == [
                "complete-n4-uniform-random"]
        assert err == "sweep: bad cell {'family': 'er', 'n': 6, 'p': nan}: bad p: nan\n"

    def test_bad_cells_reported_before_any_cell_runs(self, tmp_path, capsys):
        good = {"family": "complete", "n": 4}
        failing = {"family": "file", "path": str(tmp_path / "missing.txt")}
        outputs = []
        for name, cells in (("bad", [good, failing, {"family": "cycle"}]),
                            ("plain", [good, failing])):
            path, runs = tmp_path / f"{name}.json", tmp_path / f"{name}.csv"
            path.write_text(json.dumps({"seeds": 3, "cells": cells}))
            outputs.append((*run_cli(capsys, "sweep", "--config", str(path),
                                     "--per-run", str(runs)), runs.read_bytes()))
        (code, stdout, err, csv), (plain_code, plain_stdout, plain_err, plain_csv) = outputs
        assert code == plain_code == 1 and stdout == plain_stdout
        assert err.splitlines() == [
            "sweep: bad cell {'family': 'cycle'}: cycle needs n", *plain_err.splitlines()]
        assert plain_err.startswith(f"sweep: cell file-path{tmp_path / 'missing.txt'}-uniform-random "
                                    "failed: ")
        assert csv == plain_csv  # a bad cell stays out of the header and the rows


class TestSweepFileCells:
    """``file`` cells: the path names the graph, both in ``config_id`` and in the build check."""

    @pytest.fixture
    def reads(self, tmp_path, monkeypatch):
        # the cells name their files relative to tmp_path
        monkeypatch.chdir(tmp_path)
        calls = []
        original = graphs.from_edge_list

        def counted(text, n=None):
            calls.append((text, n))
            return original(text, n=n)

        monkeypatch.setattr(graphs, "from_edge_list", counted)
        return calls

    @staticmethod
    def sweep(capsys, cells):
        """Stdout and the per-run and aggregate CSV texts of a two-seed sweep of ``cells``."""
        Path("c.json").write_text(json.dumps({"seeds": 2, "cells": cells}))
        code, stdout, err = run_cli(capsys, "sweep", "--config", "c.json",
                                    "--per-run", "runs.csv", "--aggregate", "agg.csv")
        assert (code, err) == (0, "")
        return stdout, Path("runs.csv").read_text(), Path("agg.csv").read_text()

    @staticmethod
    def rows(text):
        """The header's config ids and the CSV rows, each split by ``csv.reader``."""
        lines = text.splitlines()
        header = [line.removeprefix("# config: ") for line in lines
                  if line.startswith("# config: ")]
        assert len(header) == 1
        return ([c["config_id"] for c in json.loads(header[0])],
                list(csv.reader(line for line in lines if not line.startswith("#"))))

    def test_two_files_two_ids_and_two_builds(self, reads, capsys):
        Path("a.txt").write_text("0 1\n1 2\n")
        Path("b.txt").write_text("0 1\n1 2\n2 0\n")
        stdout, runs, agg = self.sweep(capsys, [{"family": "file", "path": "a.txt"},
                                                {"family": "file", "path": "b.txt"}])
        ids = ["file-patha.txt-uniform-random", "file-pathb.txt-uniform-random"]
        assert [line.split(": ")[0] for line in stdout.splitlines()] == ids
        for text, per_cell in ((runs, 2), (agg, 1)):
            header_ids, (columns, *rows) = self.rows(text)
            assert header_ids == ids
            assert [row[columns.index("config_id")] for row in rows] == [
                config_id for config_id in ids for _ in range(per_cell)]
        assert len(reads) == 2

    def test_the_same_path_twice_builds_once(self, reads, capsys):
        Path("a.txt").write_text("0 1\n1 2\n")
        self.sweep(capsys, [{"family": "file", "path": "a.txt"},
                            {"family": "file", "path": "a.txt", "variant": "persistent"}])
        assert len(reads) == 1

    def test_two_spellings_of_a_path_give_one_id_and_one_build(self, reads, capsys):
        Path("g.txt").write_text("0 1\n1 2\n")
        stdout, runs, agg = self.sweep(capsys, [{"family": "file", "path": "g.txt"},
                                                {"family": "file", "path": "./g.txt"}])
        ids = {"file-pathg.txt-uniform-random"}
        assert {line.split(": ")[0] for line in stdout.splitlines()} == ids
        for text in (runs, agg):
            header_ids, (columns, *rows) = self.rows(text)
            assert set(header_ids) == ids
            assert {row[columns.index("config_id")] for row in rows} == ids
        assert len(reads) == 1

    def test_graph_fields_are_compared_as_values(self, reads, capsys):
        # path g-n5, and path g with n 5: the path comes last in config_id, so
        # it cannot spell the n of another cell
        Path("g-n5").write_text("0 1\n")
        Path("g").write_text("0 1\n")
        _, _, agg = self.sweep(capsys, [{"family": "file", "path": "g-n5"},
                                        {"family": "file", "path": "g", "n": 5}])
        _, (columns, *rows) = self.rows(agg)
        assert [row[columns.index("n")] for row in rows] == ["2", "5"]
        assert [row[columns.index("config_id")] for row in rows] == [
            "file-pathg-n5-uniform-random", "file-n5-pathg-uniform-random"]
        assert reads == [("0 1\n", None), ("0 1\n", 5)]

    def test_a_path_with_a_comma_and_a_quote_keeps_every_row_whole(self, reads, capsys):
        Path('b,"c.txt').write_text("0 1\n1 2\n")
        stdout, runs, agg = self.sweep(capsys, [{"family": "file", "path": 'b,"c.txt'}])
        assert stdout.startswith('file-pathb,"c.txt-uniform-random: ')
        for text, fields in ((runs, harness.RUN_CSV_FIELDS), (agg, harness.AGGREGATE_CSV_FIELDS)):
            _, (columns, *rows) = self.rows(text)
            assert columns == list(fields) and rows
            assert all(len(row) == len(columns) for row in rows)
            assert {row[0] for row in rows} == {'file-pathb,"c.txt-uniform-random'}


class TestAudit:
    def test_small_sweep_exit_0(self, tmp_path, capsys):
        out = tmp_path / "audit.jsonl"
        code, _, _ = run_cli(capsys, "audit", "--instances", "25", "--seed", "1", "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert "meta" in json.loads(lines[0])
        assert len(lines) > 25

    def test_zero_instances(self, tmp_path, capsys):
        out = tmp_path / "audit.jsonl"
        code, _, _ = run_cli(capsys, "audit", "--instances", "0", "--out", str(out))
        assert code == 0
        assert len(out.read_text().splitlines()) == 1  # metadata only

    def test_fault_injection_exit_3(self, tmp_path, capsys, monkeypatch):
        # swapping each entry's sides turns every positive margin negative
        checks = audit.audit_state
        monkeypatch.setattr(audit, "audit_state", lambda state, bipartite=False: [
            dataclasses.replace(e, lhs=e.rhs, rhs=e.lhs) for e in checks(state, bipartite)])
        out = tmp_path / "audit.jsonl"
        code, _, err = run_cli(capsys, "audit", "--instances", "20", "--seed", "1",
                               "--out", str(out))
        assert code == 3 and "VIOLATION" in err

    def test_unknown_family_exit_1(self, tmp_path, capsys):
        out = tmp_path / "audit.jsonl"
        code, stdout, err = run_cli(capsys, "audit", "--families", "er,bogus", "--out", str(out))
        assert code == 1 and stdout == ""
        assert err.count("\n") == 1 and "'bogus'" in err and "Traceback" not in err
        assert not out.exists()

    def test_file_family_exit_1(self, tmp_path, capsys):
        out = tmp_path / "audit.jsonl"
        code, _, err = run_cli(capsys, "audit", "--families", "file", "--out", str(out))
        assert code == 1
        assert err.count("\n") == 1 and "'file'" in err and "Traceback" not in err
        assert not out.exists()


class TestCompare:
    def test_table(self, capsys):
        code, stdout, _ = run_cli(capsys, "compare", "--family", "cliques", "--count", "4",
                                  "--size", "6", "--init", "ones", "--seeds", "20",
                                  "--variants", "uniform,persistent", "--seed", "2")
        assert code == 0
        assert "uniform" in stdout and "persistent" in stdout
        assert "ratio" in stdout

    def test_variant_abbreviates_variants(self, capsys):
        # compare has no flag of its own named --variant; argparse takes it
        # as the unique prefix of --variants
        cells = ("compare", "--family", "complete", "--n", "5", "--seeds", "3")
        code, stdout, _ = run_cli(capsys, *cells, "--variants", "uniform", "--variant", "parallel")
        _, want, _ = run_cli(capsys, *cells, "--variants", "parallel")
        assert code == 0 and stdout == want
        assert [line.split()[0] for line in stdout.splitlines()[1:]] == ["parallel"]
        code, _, err = run_cli(capsys, *cells, "--variant", "bogus")
        assert code == 1 and err.count("\n") == 1 and "'bogus'" in err


class TestStallReport:
    """A cell or variant with stalled runs says so on stderr; bytes and exit code stay."""

    TRIANGLE = {"family": "complete", "n": 3, "k": 2, "variant": "persistent",
                "init": "explicit", "explicit_colors": [1, 2, 1]}

    def test_sweep_names_the_cell(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({"seeds": 2, "cells": [self.TRIANGLE,
                                                         {"family": "complete", "n": 4}]}))
        runs = tmp_path / "runs.csv"
        code, stdout, err = run_cli(capsys, "sweep", "--config", str(cfg), "--per-run", str(runs))
        assert code == 0
        assert err == "sweep: cell complete-n3-persistent-explicit-k2: 2 of 2 runs stalled\n"
        assert stdout.splitlines()[0] == (
            "complete-n3-persistent-explicit-k2: mean=0.00 median=0.0 terminated=0.000")
        rows = [l for l in runs.read_text().splitlines() if l.startswith("complete-n3")]
        assert [row.split(",")[-5:] for row in rows] == [["0", "false", "222", "222", "0"]] * 2

    def test_compare_names_the_variant(self, tmp_path, capsys):
        colors = tmp_path / "tri.txt"
        colors.write_text("1\n2\n1\n")
        code, stdout, err = run_cli(capsys, "compare", "--family", "complete", "--n", "3",
                                    "--k", "2", "--init", "file", "--init-file", str(colors),
                                    "--seeds", "2", "--cap", "50",
                                    "--variants", "persistent,uniform")
        assert code == 0
        assert err == "compare: variant persistent: 2 of 2 runs stalled\n"  # uniform spent its cap
        assert [line.split()[0] for line in stdout.splitlines()[1:]] == ["persistent", "uniform"]


def test_compare_reads_the_init_file_once(tmp_path, capsys, monkeypatch):
    colors = tmp_path / "colors.txt"
    colors.write_text("1\n1\n2\n3\n")
    opened = []
    real_open = open

    def counting_open(file, *args, **kwargs):
        if file == str(colors):
            opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counting_open)
    code, stdout, _ = run_cli(capsys, "compare", "--family", "complete", "--n", "4",
                              "--init", "file", "--init-file", str(colors), "--seeds", "2",
                              "--variants", "uniform,parallel")
    assert code == 0 and len(stdout.splitlines()) == 3
    assert len(opened) == 1


class TestBuildOnce:
    """An ensemble's graph is built once, in the command's own process."""

    @pytest.fixture
    def builds(self, monkeypatch):
        calls = []
        pid = os.getpid()
        original = graphs.complete

        def counted(n):
            if os.getpid() != pid:
                raise RuntimeError("graph built in a pool worker")
            calls.append(n)
            return original(n)

        monkeypatch.setattr(graphs, "complete", counted)
        return calls

    def test_sweep_with_a_pool(self, tmp_path, capsys, builds):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({"cells": [{"family": "complete", "n": 10, "k": 10}]}))
        outputs = {}
        for workers in ("1", "2"):
            builds.clear()
            runs, agg = tmp_path / f"runs{workers}.csv", tmp_path / f"agg{workers}.csv"
            code, _, _ = run_cli(capsys, "sweep", "--config", str(cfg), "--workers", workers,
                                 "--seeds", "8", "--per-run", str(runs), "--aggregate", str(agg))
            assert code == 0 and builds == [10]
            outputs[workers] = runs.read_bytes(), agg.read_bytes()
        assert outputs["1"] == outputs["2"]

    def test_sweep_of_four_variants_on_one_graph(self, tmp_path, capsys, builds):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({"seeds": 3, "cells": [
            {"family": "complete", "n": 6, "variant": v}
            for v in ("uniform", "component_view", "persistent", "parallel")]}))
        code, stdout, _ = run_cli(capsys, "sweep", "--config", str(cfg))
        assert code == 0 and builds == [6]
        assert len(stdout.splitlines()) == 4

    def test_compare_over_three_variants(self, capsys, builds):
        code, stdout, _ = run_cli(capsys, "compare", "--family", "complete", "--n", "7",
                                  "--variants", "uniform,persistent,component_view", "--seeds", "4")
        assert code == 0 and builds == [7]
        assert len(stdout.splitlines()) == 4


def test_sweep_lets_each_graph_go(tmp_path, capsys, monkeypatch):
    """A sweep keeps each cell's columns, not its graph: every earlier graph
    is gone by the time the next cell's graph is built."""
    graphs_built = []
    alive_at_build = []
    original = graphs.cycle

    def tracked(n):
        alive_at_build.append([ref() is not None for ref in graphs_built])
        g = original(n)
        graphs_built.append(weakref.ref(g))
        return g

    monkeypatch.setattr(graphs, "cycle", tracked)
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"seeds": 2, "cap": 10, "fit": {"model": "n_log_n"},
                               "cells": [{"family": "cycle", "n": n} for n in (6, 7, 8)]}))
    runs, agg = tmp_path / "runs.csv", tmp_path / "agg.csv"
    code, stdout, _ = run_cli(capsys, "sweep", "--config", str(cfg),
                              "--per-run", str(runs), "--aggregate", str(agg))
    assert code == 0 and len(stdout.splitlines()) == 4
    assert alive_at_build == [[], [False], [False, False]]
    assert [line.split(",")[2] for line in agg.read_text().splitlines()[5:]] == ["6", "7", "8"]


needs_dev_full = pytest.mark.skipif(not os.path.exists("/dev/full"),
                                    reason="no /dev/full on this system")

# a cell written as a list of key-value pairs, which dict() would accept
PAIRS_CELL_CONFIG = {"seeds": 2, "cells": [[["family", "complete"], ["n", 4]]]}

BAD_INPUT = [
    ("compare", "--family", "complete", "--seeds", "2"),
    ("compare", "--family", "file", "--graph", "{tmp}/missing.txt", "--seeds", "2"),
    ("compare", "--family", "complete", "--n", "4", "--k", "0", "--seeds", "2"),
    ("compare", "--family", "complete", "--n", "5", "--variants", "uniform,bogus", "--seeds", "2"),
    ("sweep", "--config", "{tmp}/no_n.json"),
    ("sweep", "--config", "{tmp}/small.json", "--workers", "0"),
    # the pool width is a flag, not a field of a cell; nor is the id, which is
    # derived from the cell
    ("sweep", "--config", "{tmp}/cell_workers.json"),
    ("sweep", "--config", "{tmp}/cell_config_id.json"),
    ("audit", "--instances", "3", "--max-n", "4"),
    ("audit", "--instances", "3", "--max-n", "2", "--families", "cycle"),
    ("audit", "--instances", "-1"),
    ("audit", "--instances", "2", "--max-n", "-5", "--families", "complete"),
    # an empty list names the family '', as ',' names two
    ("audit", "--families", "", "--instances", "3"),
    ("run", "--family", "complete", "--n", "5", "--init", "file"),
    # an init file the init does not read, even a missing one
    ("run", "--family", "complete", "--n", "3", "--init-file", "nonexistent.txt"),
    ("compare", "--family", "complete", "--n", "3", "--seeds", "2", "--init", "ones",
     "--init-file", "{tmp}/missing.txt"),
    ("run", "--family", "er", "--n", "10"),
    # a family field the family does not read would only change config_id
    ("run", "--family", "complete", "--n", "4", "--p", "0.5"),
    ("sweep", "--config", "{tmp}/cycle_count.json"),
    # a negative seed
    ("run", "--family", "complete", "--n", "3", "--seed", "-1"),
    ("audit", "--seed", "-1", "--instances", "2"),
    # cells naming no family, init or colors the tables know
    ("sweep", "--config", "{tmp}/bogus_family.json"),
    ("sweep", "--config", "{tmp}/bogus_init.json"),
    ("sweep", "--config", "{tmp}/explicit_no_colors.json"),
    # a cell with no family, and explicit colors that are not a list
    ("sweep", "--config", "{tmp}/no_family.json"),
    ("sweep", "--config", "{tmp}/int_colors.json"),
    # cells that are not JSON objects, and a family that is not a string
    ("sweep", "--config", "{tmp}/pairs_cell.json"),
    ("sweep", "--config", "{tmp}/null_cell.json"),
    ("sweep", "--config", "{tmp}/list_family.json"),
    # edge-list lines that are not two vertex indices
    ("gen", "--family", "file", "--graph", "{tmp}/three.txt", "--out", "{tmp}/g.txt"),
    ("gen", "--family", "file", "--graph", "{tmp}/negative.txt", "--out", "{tmp}/g.txt"),
    ("sweep", "--config", "{tmp}/small.json", "--per-run", "{tmp}/missing/runs.csv"),
    # an empty output path is a path that cannot be opened, not a missing flag
    ("run", "--family", "complete", "--n", "3", "--trace-out", ""),
    ("sweep", "--config", "{tmp}/small.json", "--per-run", ""),
    ("sweep", "--config", "{tmp}/small.json", "--aggregate", ""),
    ("audit", "--instances", "2", "--out", ""),
    # a color is 1 + draw(k), and draw takes bounds below 2**32
    ("run", "--family", "complete", "--n", "4", "--k", "4294967296"),
    # an edge-list index at or above twice the edge lines, --n and the
    # '# vertices' header; it would size the graph
    ("gen", "--family", "file", "--graph", "{tmp}/huge.txt", "--out", "{tmp}/g.txt"),
    ("gen", "--family", "file", "--graph", "{tmp}/far.txt", "--out", "{tmp}/g.txt"),
    # a vertex count beyond int64
    ("gen", "--family", "file", "--graph", "{tmp}/huge.txt", "--n", "100000000000000000000",
     "--out", "{tmp}/g.txt"),
    # vertex counts whose int64 pair keys would wrap (n*n >= 2**63), refused
    # before anything is allocated
    ("gen", "--family", "file", "--graph", "{tmp}/huge.txt", "--n", "1000000000000001",
     "--out", "{tmp}/g.txt"),
    ("gen", "--family", "file", "--graph", "{tmp}/far_pair.txt", "--n", "4000000000",
     "--out", "{tmp}/g.txt"),
    # graphs too large to allocate: each request exceeds the 128 TiB user
    # address space, so it fails at once and allocates nothing
    ("gen", "--family", "complete", "--n", "100000000", "--out", "{tmp}/g.txt"),
    ("run", "--family", "cycle", "--n", "1000000000000000"),
    ("compare", "--family", "cycle", "--n", "1000000000000000", "--seeds", "2"),
    ("sweep", "--config", "{tmp}/huge.json"),
    # JSON true and false are bools, which Python also counts as ints
    ("sweep", "--config", "{tmp}/bool_n.json"),
    ("sweep", "--config", "{tmp}/bool_p.json"),
    ("sweep", "--config", "{tmp}/bool_k.json"),
    # a fit that is not an object naming a fit model, refused before any cell runs
    ("sweep", "--config", "{tmp}/fit_string.json"),
    ("sweep", "--config", "{tmp}/fit_unknown.json"),
    # a fit needs 3 cells, also refused before any cell runs
    ("sweep", "--config", "{tmp}/fit_two_cells.json"),
    # colors for a random init would go unused
    ("sweep", "--config", "{tmp}/explicit_random.json"),
    # every write to a full device fails; 300 instances take the audit's
    # process pool on 2 or more CPUs
    pytest.param(("audit", "--instances", "300", "--out", "/dev/full"), marks=needs_dev_full),
    # only er reads graph_seed; elsewhere it would only change the output headers
    ("run", "--family", "complete", "--n", "4", "--graph-seed", "7"),
    ("sweep", "--config", "{tmp}/cycle_graph_seed.json"),
    # a negative graph seed, refused by the config rather than by numpy
    ("run", "--family", "er", "--n", "10", "--p", "0.5", "--graph-seed", "-1"),
    ("gen", "--family", "er", "--n", "10", "--p", "0.5", "--graph-seed", "-5",
     "--out", "{tmp}/g.txt"),
    # gen has no master seed and no --seed: its one seed is --graph-seed
    ("gen", "--family", "er", "--n", "10", "--p", "0.5", "--seed", "-5", "--out", "{tmp}/g.txt"),
    # nested deeper than json can parse
    ("sweep", "--config", "{tmp}/deep.json"),
    # keys the sweep does not read, at the top level and in the fit
    ("sweep", "--config", "{tmp}/dashed_key.json"),
    ("sweep", "--config", "{tmp}/fit_extra_key.json"),
    # argparse's own refusals: a required flag left out, a value of the wrong type
    ("compare", "--n", "4"),
    ("run", "--family", "complete", "--n", "x"),
    # json.load takes NaN, which would reach the CSV headers as invalid JSON
    ("sweep", "--config", "{tmp}/nan_p.json"),
    # an initial color outside the palette
    ("run", "--family", "complete", "--n", "3", "--k", "4", "--init", "file",
     "--init-file", "{tmp}/colors_150.txt"),
    # a missing edge-list file, and an empty palette
    ("gen", "--family", "file", "--graph", "{tmp}/missing.txt", "--out", "{tmp}/g.txt"),
    ("run", "--family", "complete", "--n", "4", "--k", "0"),
    # a file graph's vertex count below 1
    ("run", "--family", "file", "--graph", "{tmp}/pair.txt", "--n", "-5"),
    ("sweep", "--config", "{tmp}/file_n0.json"),
]


@pytest.mark.parametrize("argv", BAD_INPUT, ids=" ".join)
def test_bad_input_exits_1_with_one_line(argv, tmp_path, capsys):
    (tmp_path / "no_n.json").write_text(json.dumps(
        {"cells": [{"family": "complete", "variant": "uniform"}]}))
    (tmp_path / "small.json").write_text(json.dumps(
        {"cells": [{"family": "complete", "n": 4}], "seeds": 2}))
    (tmp_path / "cell_workers.json").write_text(json.dumps(
        {"cells": [{"family": "complete", "n": 4, "workers": 2}], "seeds": 2}))
    (tmp_path / "cell_config_id.json").write_text(json.dumps(
        {"cells": [{"family": "complete", "n": 4, "config_id": "a,b"}], "seeds": 2}))
    (tmp_path / "huge.txt").write_text("0 1000000000000000\n")
    (tmp_path / "far.txt").write_text("0 20000000\n")
    (tmp_path / "far_pair.txt").write_text("3999999998 3999999999\n")
    (tmp_path / "huge.json").write_text(json.dumps(
        {"cells": [{"family": "cycle", "n": 10**15}], "seeds": 1}))
    (tmp_path / "bool_n.json").write_text(json.dumps(
        {"cells": [{"family": "complete", "n": True, "seeds": True, "cap": True}]}))
    (tmp_path / "bool_p.json").write_text(json.dumps(
        {"cells": [{"family": "er", "n": 5, "p": True}], "seeds": 2}))
    (tmp_path / "bool_k.json").write_text(json.dumps(
        {"cells": [{"family": "complete", "n": 4, "k": True}], "seeds": 2}))
    (tmp_path / "fit_string.json").write_text(json.dumps(
        {"cells": [{"family": "complete", "n": 4}], "seeds": 2, "fit": "x"}))
    (tmp_path / "fit_unknown.json").write_text(json.dumps(
        {"cells": [{"family": "complete", "n": 4}], "seeds": 2, "fit": {"model": "cubic"}}))
    (tmp_path / "fit_two_cells.json").write_text(json.dumps(
        {"cells": [{"family": "complete", "n": 4}, {"family": "complete", "n": 6}], "seeds": 2,
         "fit": {"model": "n_log_n"}}))
    (tmp_path / "explicit_random.json").write_text(json.dumps(
        {"cells": [{"family": "complete", "n": 4, "explicit_colors": [1, 2, 3, 4]}], "seeds": 2}))
    (tmp_path / "deep.json").write_text("[" * 2000 + "]" * 2000)
    (tmp_path / "dashed_key.json").write_text(json.dumps(
        {"cells": [{"family": "complete", "n": 4}], "seeds": 2, "master-seed": 7}))
    (tmp_path / "fit_extra_key.json").write_text(json.dumps(
        {"cells": [{"family": "complete", "n": n} for n in (4, 5, 6)], "seeds": 2,
         "fit": {"model": "n_log_n", "points": 3}}))
    for name, cell in (("cycle_count", {"family": "cycle", "n": 5, "count": 2}),
                       ("cycle_graph_seed", {"family": "cycle", "n": 5, "graph_seed": 3}),
                       ("bogus_family", {"family": "bogus", "n": 4}),
                       ("bogus_init", {"family": "complete", "n": 4, "init": "bogus"}),
                       ("explicit_no_colors", {"family": "complete", "n": 4, "init": "explicit"}),
                       ("no_family", {"n": 4}),
                       ("int_colors", {"family": "complete", "n": 3, "init": "explicit",
                                       "explicit_colors": 5})):
        (tmp_path / f"{name}.json").write_text(json.dumps({"cells": [cell], "seeds": 2}))
    (tmp_path / "pairs_cell.json").write_text(json.dumps(PAIRS_CELL_CONFIG))
    (tmp_path / "null_cell.json").write_text(json.dumps({"cells": [None], "seeds": 2}))
    (tmp_path / "list_family.json").write_text(json.dumps(
        {"cells": [{"family": ["complete"], "n": 4}], "seeds": 2}))
    (tmp_path / "nan_p.json").write_text(json.dumps(
        {"cells": [{"family": "er", "n": 6, "p": math.nan}], "seeds": 2}))
    (tmp_path / "colors_150.txt").write_text("1\n5\n0\n")
    (tmp_path / "three.txt").write_text("0 1 2\n")
    (tmp_path / "pair.txt").write_text("0 1\n")
    (tmp_path / "file_n0.json").write_text(json.dumps(
        {"cells": [{"family": "file", "path": str(tmp_path / "pair.txt"), "n": 0}], "seeds": 2}))
    (tmp_path / "negative.txt").write_text("0 -1\n")
    code, stdout, err = run_cli(capsys, *(a.format(tmp=tmp_path) for a in argv))
    assert code == 1 and stdout == ""
    assert err.count("\n") == 1 and "Traceback" not in err
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("text, reason", [
    ("[" * 2000 + "]" * 2000, "cannot read config: nested too deeply"),
    ('{"cells": [], "master-seed": 7}',
     "unknown config key 'master-seed' (known: cells, fit, seeds, master_seed, cap)"),
    ('{"cells": [], "fit": {"model": "n_log_n", "x": 1}}', "unknown fit key 'x' (known: model)"),
], ids=["deep", "dashed_key", "fit_extra_key"])
def test_sweep_config_refusal_names_the_problem(text, reason, tmp_path, capsys):
    (tmp_path / "c.json").write_text(text)
    code, stdout, err = run_cli(capsys, "sweep", "--config", str(tmp_path / "c.json"))
    assert (code, stdout, err) == (1, "", f"sweep: {reason}\n")


@pytest.mark.parametrize("cells, reason", [
    (PAIRS_CELL_CONFIG["cells"],
     "bad cell [['family', 'complete'], ['n', 4]]: a cell must be a JSON object"),
    ([None], "bad cell None: a cell must be a JSON object"),
    (["ab"], "bad cell ab: a cell must be a JSON object"),
    ([{"family": ["complete"], "n": 4}], "bad cell {'family': ['complete'], 'n': 4}: "
                                         "bad family: ['complete']"),
    ([{"family": "complete", "n": 4, "workers": 2}],
     "bad cell {'family': 'complete', 'n': 4, 'workers': 2}: unknown key 'workers'"),
    ([{"n": 4}], "bad cell {'n': 4}: a cell needs a family"),
    ([{"family": "complete", "n": 3, "init": "explicit", "explicit_colors": True}],
     "bad cell {'family': 'complete', 'n': 3, 'init': 'explicit', 'explicit_colors': True}: "
     "explicit_colors must be a list of integers"),
    ([{"family": "complete", "n": 4, "init": "ones"}],
     "bad cell {'family': 'complete', 'n': 4, 'init': 'ones'}: "
     "unknown init 'ones'; choose from random, all_ones, explicit"),
], ids=["pairs", "null", "string", "list_family", "workers", "no_family", "bool_colors",
        "cli_init_name"])
def test_bad_cell_is_one_line_and_writes_no_row(cells, reason, tmp_path, capsys):
    (tmp_path / "c.json").write_text(json.dumps({"seeds": 2, "cells": cells}))
    runs = tmp_path / "runs.csv"
    code, stdout, err = run_cli(capsys, "sweep", "--config", str(tmp_path / "c.json"),
                                "--per-run", str(runs))
    assert (code, stdout, err) == (1, "", f"sweep: {reason}\n")
    assert runs.read_text().splitlines()[-1] == ",".join(harness.RUN_CSV_FIELDS)  # the header only


@pytest.mark.parametrize("argv, command, named", [
    (("compare", "--n", "4"), "compare", "--family"),
    (("run", "--family", "complete", "--n", "x"), "run", "'x'"),
    ((), "colorsim", "command"),
], ids=["missing_flag", "bad_int", "no_command"])
def test_argparse_refusal_names_the_problem(argv, command, named, capsys):
    code, stdout, err = run_cli(capsys, *argv)
    assert code == 1 and stdout == "" and err.count("\n") == 1
    assert err.startswith(f"{command}: ") and named in err


def test_unwritable_trace_exits_1_with_one_line(tmp_path, capsys):
    # the trace is closed before the result line, so a refusal prints nothing
    code, stdout, err = run_cli(capsys, "run", "--family", "complete", "--n", "3",
                                "--trace-out", str(tmp_path / "missing" / "t.jsonl"))
    assert code == 1 and stdout == ""
    assert err.startswith("run: cannot write ") and err.count("\n") == 1


def test_bare_memory_error_has_a_reason(tmp_path, capsys, monkeypatch):
    def no_memory(n):
        raise MemoryError
    monkeypatch.setattr(graphs, "complete", no_memory)
    code, stdout, err = run_cli(capsys, "gen", "--family", "complete", "--n", "5",
                                "--out", str(tmp_path / "g.txt"))
    assert (code, stdout, err) == (1, "", "gen: out of memory\n")


def cli_env() -> dict:
    """The environment of a ``python -m colorsim.cli`` subprocess run on this tree."""
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH", "")])}


# runs the command in its argv and prints its peak RSS in KB; RUSAGE_CHILDREN
# keeps the most over every child waited for, so each reading needs a fresh wrapper
PEAK_RSS = """import resource, subprocess, sys
subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


def test_trace_lines_are_written_as_the_run_goes(tmp_path):
    # 2 * 10**4 parallel rounds on K20 make a 3.8 MB trace; holding its
    # lines in memory until the run ends would add about 12 MB to the peak
    argv = [sys.executable, "-m", "colorsim.cli", "run", "--family", "complete", "--n", "20",
            "--variant", "parallel", "--cap", "20000"]

    def peak_kb(*extra):
        proc = subprocess.run([sys.executable, "-c", PEAK_RSS, *argv, *extra], env=cli_env(),
                              capture_output=True, text=True, timeout=120, check=True)
        return int(proc.stdout)

    trace = tmp_path / "t.jsonl"
    untraced, traced = peak_kb(), peak_kb("--trace-out", str(trace))
    assert trace.read_text().count("\n") == 2 + 20_000  # meta, t=0, then each round
    assert traced - untraced <= 4 * 1024, (untraced, traced)


def test_closed_stdout_exits_1_without_a_traceback():
    # the audit writes far more than a pipe holds, so it is still writing
    # when the reader closes its end
    proc = subprocess.Popen(
        [sys.executable, "-m", "colorsim.cli", "audit", "--instances", "200",
         "--families", "complete"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=cli_env())
    try:
        assert json.loads(proc.stdout.readline())["meta"]
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
    finally:
        proc.kill()
    assert proc.returncode == 1 and err == b""


@needs_dev_full
@pytest.mark.parametrize("argv", [
    ("compare", "--family", "complete", "--n", "5", "--seeds", "3"),
    ("run", "--family", "complete", "--n", "5"),
    ("audit", "--instances", "50"),
    ("--version",),
], ids=" ".join)
def test_full_stdout_exits_1_with_one_line(argv):
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "colorsim.cli", *argv], stdout=full,
                              stderr=subprocess.PIPE, env=cli_env(), timeout=120)
    err = proc.stderr.decode()
    assert proc.returncode == 1
    assert err.startswith("colorsim: cannot write output: ") and err.count("\n") == 1


# the pool modules a command loads; this test session has loaded them already,
# so the commands run in a fresh interpreter
POOL_MODULES = """
import sys
from colorsim.cli import main
assert main(["run", "--family", "complete", "--n", "6"]) == 0
assert main(["gen", "--family", "cycle", "--n", "12", "--out", sys.argv[1]]) == 0
print(sorted({"multiprocessing", "concurrent.futures.process", "concurrent.futures.thread",
              "logging"} & set(sys.modules)))
"""


def test_commands_without_a_pool_load_no_pool_module(tmp_path):
    proc = subprocess.run([sys.executable, "-c", POOL_MODULES, str(tmp_path / "c12.txt")],
                          capture_output=True, text=True, env=cli_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


class TestAuditPool:
    """The audit's bytes, exit code and stderr do not depend on the usable CPUs."""

    @pytest.fixture
    def widths(self, monkeypatch):
        """The width of each process pool started; the pools are real (fork) pools."""
        widths = []

        class RecordingPool(ProcessPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                widths.append(max_workers)
                super().__init__(max_workers, **kwargs)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
        return widths

    @staticmethod
    def audit(capsys, monkeypatch, tmp_path, cpus, *argv):
        monkeypatch.setattr(harness, "usable_cpus", lambda: cpus)
        out = tmp_path / f"cpus{cpus}.jsonl"
        code, stdout, err = run_cli(capsys, "audit", *argv, "--out", str(out))
        assert multiprocessing.active_children() == []
        return code, stdout, err, out.read_bytes()

    # a pool worker takes at least 32 instances (AUDIT_MIN_PER_WORKER), 16 at a
    # time (AUDIT_CHUNK): 63 runs serially, 64 takes two workers, and 97 (no
    # multiple of 16) takes three where there are three CPUs
    @pytest.mark.parametrize("instances, expected_widths", [
        (0, []), (63, []), (64, [2, 2]), (97, [2, 3])])
    def test_bytes_do_not_depend_on_the_cpu_count(self, instances, expected_widths, capsys,
                                                   monkeypatch, tmp_path, widths):
        argv = ("--instances", str(instances), "--seed", "3")
        serial = self.audit(capsys, monkeypatch, tmp_path, 1, *argv)
        assert serial[0] == 0 and serial[3].count(b"\n") >= 1 + instances
        for cpus in (2, 3):
            assert self.audit(capsys, monkeypatch, tmp_path, cpus, *argv) == serial
        assert widths == expected_widths

    def test_violations_do_not_depend_on_the_cpu_count(self, capsys, monkeypatch, tmp_path,
                                                       widths):
        # the fault hook of TestAudit, inherited by the forked workers
        checks = audit.audit_state
        monkeypatch.setattr(audit, "audit_state", lambda state, bipartite=False: [
            dataclasses.replace(e, lhs=e.rhs, rhs=e.lhs) for e in checks(state, bipartite)])
        argv = ("--instances", "100", "--seed", "1")
        serial = self.audit(capsys, monkeypatch, tmp_path, 1, *argv)
        assert serial[0] == 3 and serial[2].count("audit: VIOLATION ") == 10
        for cpus in (2, 3):
            assert self.audit(capsys, monkeypatch, tmp_path, cpus, *argv) == serial
        assert widths == [2, 3]

    @needs_dev_full
    def test_full_device_stops_the_pool(self, capsys, monkeypatch, widths):
        monkeypatch.setattr(harness, "usable_cpus", lambda: 2)
        code, stdout, err = run_cli(capsys, "audit", "--instances", "2000", "--out", "/dev/full")
        assert (code, stdout) == (1, "") and err.startswith("audit: cannot write output: ")
        assert widths == [2] and multiprocessing.active_children() == []

    def test_closed_stdout_stops_the_pool(self, monkeypatch, tmp_path, widths):
        # as in `colorsim audit --instances 2000 | head -1`: the reader leaves
        # after the metadata line, and every later write fails
        monkeypatch.setattr(harness, "usable_cpus", lambda: 2)
        with open(tmp_path / "stdout", "w") as stdout:
            writes = []

            def write(text):
                if writes:
                    raise BrokenPipeError(errno.EPIPE, "Broken pipe")
                writes.append(text)
                return len(text)

            monkeypatch.setattr(stdout, "write", write)
            monkeypatch.setattr(sys, "stdout", stdout)
            code = main(["audit", "--instances", "2000"])
        assert code == 1 and json.loads(writes[0])["meta"]
        assert widths == [2] and multiprocessing.active_children() == []


class TestTopLevel:
    def test_version(self, capsys):
        code, stdout, _ = run_cli(capsys, "--version")
        assert code == 0 and "colorsim" in stdout

    def test_no_command_exit_1(self, capsys):
        code, _, _ = run_cli(capsys)
        assert code == 1
