"""Byte identity of the CLI's default outputs on a small fixed command set.

Each case runs one command in-process, in a scratch directory, and compares
the sha256 of its stdout, its exit code and every file it writes against
recorded digests. A change that is meant to keep every seeded result and
output byte passes as is; a change that alters an output on purpose records
the new digests here and says why. Print fresh digests with ``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

import pytest

from colorsim.cli import main

VARIANT_NAMES = ("uniform", "component_view", "persistent", "parallel")
CLIQUES = ("--family", "cliques", "--count", "4", "--size", "6")

SWEEP = {
    "seeds": 12,
    "master_seed": 5,
    "cap": 100000,
    "cells": [{"family": "cliques", "count": 4, "size": 6, "variant": v} for v in VARIANT_NAMES],
}

# name -> (argv, output files); "{tmp}" is the case's scratch directory
CASES = {
    **{f"run_{v}": (("run", *CLIQUES, "--variant", v, "--seed", "3",
                     "--trace-out", "{tmp}/trace.jsonl"), ("trace.jsonl",))
       for v in VARIANT_NAMES},
    # triangle colored (1, 2, 1) with k = 2: the picked vertex sees both
    # colors, so the persistent draw guard trips before the cap
    "run_persistent_stall": (("run", "--family", "complete", "--n", "3", "--k", "2",
                              "--variant", "persistent", "--init", "file",
                              "--init-file", "{tmp}/colors.txt", "--cap", "1000001"), ()),
    "sweep": (("sweep", "--config", "{tmp}/sweep.json", "--workers", "1",
               "--per-run", "{tmp}/runs.csv", "--aggregate", "{tmp}/aggregate.csv"),
              ("runs.csv", "aggregate.csv")),
    "compare": (("compare", *CLIQUES, "--variants", ",".join(VARIANT_NAMES),
                 "--seeds", "12", "--seed", "4"), ()),
    # an edgeless graph: every mean is 0, so the ratio column prints nan
    "compare_nan": (("compare", "--family", "er", "--n", "6", "--p", "0", "--seeds", "3",
                     "--variants", "uniform,persistent"), ()),
    "audit": (("audit", "--instances", "30", "--max-n", "20",
               "--families", "cliques,bipartite,complete,cycle,er",
               "--out", "{tmp}/audit.jsonl"), ("audit.jsonl",)),
    # the bipartite refinement: 27 bipartite_pair_drift lines
    "audit_bipartite": (("audit", "--instances", "20", "--families", "bipartite", "--seed", "1",
                         "--out", "{tmp}/bipartite.jsonl"), ("bipartite.jsonl",)),
    "gen_er": (("gen", "--family", "er", "--n", "40", "--p", "0.2", "--graph-seed", "3",
                "--out", "{tmp}/g.txt"), ("g.txt",)),
    # an edge list read back; --n 8 adds vertices 6 and 7, past its largest index.
    # The path is relative (commands run in the scratch directory) because the
    # trace metadata records it
    "run_file": (("run", "--family", "file", "--graph", "graph.txt", "--n", "8",
                  "--seed", "2", "--trace-out", "{tmp}/trace.jsonl"), ("trace.jsonl",)),
}

# K3,3 as a hexagon and its three long diagonals, with a comment and a duplicate edge
EDGE_LIST = "# utility graph\n0 1\n1 2\n2 3\n3 4\n4 5\n5 0\n0 3\n1 4\n2 5\n3 0\n"

# name -> (exit code, sha256 of stdout, sha256 of each output file)
GOLDEN = {
    "run_uniform": (0, "fbea0eba8394e10dd4c1ff79eb365982a0c632c8b741cd2b9b3f97704daa9f47",
        ("a46c026a742445f77175e8261a70c59aac5cf101b797ed1946ad911bfd611aad",)),
    "run_component_view": (0, "0682077ca190011be80bc7e139dbaf94aaa00e885789bf5262cd120140c45014",
        ("c7ef12f4be15dd6e7f2e8844a42e379cf467bee550acd5adc4d6dc3e1fbe0b6b",)),
    "run_persistent": (0, "60b00097401e559f0c9506ba1f1860663e300151242caec9e2e8319886ad1269",
        ("fb73109807d442974f28ce9daacccf4edb95858d31d2cd8752cc410eb4b1aef2",)),
    "run_parallel": (0, "a382781d6888de863c03f2d905c88bcdf55e8e2181ffbad2477b960e03dc457b",
        ("67f99fdc3e7b95477426b0d11866d40967ef176fe337869e7830d4b9654602bc",)),
    "run_persistent_stall": (2, "da77834e7bad7bf958fa9b760ff09f74817d6b0126ff6246d0e74426ccea2c95",
        ()),
    "sweep": (0, "47efd8fdcb373f5a0dec367ce115a4ddb55c48759f9489e0c5984b4fe42634a1",
        ("807d613b1dd9aace600507b550b2e89ef66a80b3fa7798c8e8f92e0b3c6eb476",
         "f3fe6c68f7dac9ff1d9fa06e6ee5fc90bace631b961939b492e10001db0a19dd")),
    "compare": (0, "2fcbe2fc4862f4c7ee3a49c53bac6bd8335bef25386ceb876e9e29a2d197c57a",
        ()),
    "compare_nan": (0, "22c1da39f9febe6212e7f10077954039a186d404dab5059886142143d3dd956b",
        ()),
    "audit": (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        ("ce54e2e8e2b8ffc4a925f645ffa9d09b5660716a91b678af3283211935810c89",)),
    "audit_bipartite": (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        ("563f5336dd6274fb736898845d747e035271194ce85902595c59e11fd86950c3",)),
    "gen_er": (0, "94dadc038de79323383e3ebc5c57886d9f87c005fc7f9c956f2136e101eeb3f0",
        ("8e8420deae3b218603a6c3c3e618618f89f016747858e10b5709ab69928a8168",)),
    "run_file": (0, "1e9ec23782e2a2f12955234812dc4f99dd1a260f46bc9fb563c086d0de4e2423",
        ("1c8ce17db96b262af979fd0fed95be894749bcdf1b2e6f7bfbd312b26b5d1981",)),
}


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def outputs(name: str, tmp: Path) -> tuple:
    (tmp / "colors.txt").write_text("1\n2\n1\n")
    (tmp / "sweep.json").write_text(json.dumps(SWEEP))
    (tmp / "graph.txt").write_text(EDGE_LIST)
    argv, files = CASES[name]
    stdout = io.StringIO()
    cwd = os.getcwd()
    os.chdir(tmp)
    try:
        with contextlib.redirect_stdout(stdout):
            code = main([arg.replace("{tmp}", str(tmp)) for arg in argv])
    finally:
        os.chdir(cwd)
    return code, sha(stdout.getvalue().encode()), tuple(sha((tmp / f).read_bytes()) for f in files)


@pytest.mark.parametrize("name", CASES)
def test_outputs_match_recorded_digests(name, tmp_path):
    assert outputs(name, tmp_path) == GOLDEN[name]


if __name__ == "__main__":
    for case in CASES:
        with tempfile.TemporaryDirectory() as scratch:
            print(f"    {case!r}: {outputs(case, Path(scratch))!r},")
