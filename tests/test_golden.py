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

# three cells of growing n, so the aggregate CSV carries the fit columns
SWEEP_FIT = {
    "seeds": 8,
    "master_seed": 2,
    "fit": {"model": "n_log_n"},
    "cells": [{"family": "cliques", "count": count, "size": 4} for count in (2, 4, 8)],
}

# name -> (argv, output files); "{tmp}" is the case's scratch directory
CASES = {
    **{f"run_{v}": (("run", *CLIQUES, "--variant", v, "--seed", "3",
                     "--trace-out", "{tmp}/trace.jsonl"), ("trace.jsonl",))
       for v in VARIANT_NAMES},
    # triangle colored (1, 2, 1) with k = 2: the picked vertex sees both
    # colors, so the persistent run stalls at its first pick, at the default cap
    "run_persistent_stall": (("run", "--family", "complete", "--n", "3", "--k", "2",
                              "--variant", "persistent", "--init", "file",
                              "--init-file", "{tmp}/colors.txt"), ()),
    "sweep": (("sweep", "--config", "{tmp}/sweep.json", "--workers", "1",
               "--per-run", "{tmp}/runs.csv", "--aggregate", "{tmp}/aggregate.csv"),
              ("runs.csv", "aggregate.csv")),
    "sweep_fit": (("sweep", "--config", "{tmp}/sweep_fit.json", "--aggregate",
                   "{tmp}/aggregate.csv"), ("aggregate.csv",)),
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
    # enough instances to take the audit's process pool on 2 or more CPUs;
    # recorded from the serial audit
    "audit_pool": (("audit", "--instances", "300", "--max-n", "50", "--seed", "2",
                    "--out", "{tmp}/pool.jsonl"), ("pool.jsonl",)),
    "gen_er": (("gen", "--family", "er", "--n", "40", "--p", "0.2", "--graph-seed", "3",
                "--out", "{tmp}/g.txt"), ("g.txt",)),
    # 1999000 pairs: 31 draw blocks, drawn in spans on several threads where
    # the CPUs allow; recorded from the single-stream sampler
    "gen_er_blocks": (("gen", "--family", "er", "--n", "2000", "--p", "0.01", "--graph-seed", "3",
                       "--out", "{tmp}/g.txt"), ("g.txt",)),
    # an edge list read back; --n 8 adds vertices 6 and 7, past its largest index.
    # The path is relative (commands run in the scratch directory) because the
    # trace metadata records it
    "run_file": (("run", "--family", "file", "--graph", "graph.txt", "--n", "8",
                  "--seed", "2", "--trace-out", "{tmp}/trace.jsonl"), ("trace.jsonl",)),
    # k = 1: every color draw has bound 1 and reads nothing; no coloring is
    # proper, so the cap ends the run
    "run_k1": (("run", "--family", "complete", "--n", "3", "--k", "1", "--cap", "20",
                "--seed", "1", "--trace-out", "{tmp}/trace.jsonl"), ("trace.jsonl",)),
    # color bounds above 2**31, where the bounded-integer method often redraws
    "run_wide_k": (("run", "--family", "complete", "--n", "4", "--k", "3000000000",
                    "--init", "ones", "--seed", "1", "--trace-out", "{tmp}/trace.jsonl"),
                   ("trace.jsonl",)),
    "run_wide_k_parallel": (("run", "--family", "complete", "--n", "5", "--k", "4000000000",
                             "--init", "ones", "--variant", "parallel", "--seed", "1",
                             "--trace-out", "{tmp}/trace.jsonl"), ("trace.jsonl",)),
    # an edgeless graph: D = 0 and k = 1, so the potential is 0 with no 100*D denominator
    "run_edgeless": (("run", "--family", "er", "--n", "6", "--p", "0", "--seed", "1",
                      "--trace-out", "{tmp}/trace.jsonl"), ("trace.jsonl",)),
}

# K3,3 as a hexagon and its three long diagonals, with a comment and a duplicate edge
EDGE_LIST = "# utility graph\n0 1\n1 2\n2 3\n3 4\n4 5\n5 0\n0 3\n1 4\n2 5\n3 0\n"

# name -> (exit code, sha256 of stdout, sha256 of each output file)
GOLDEN = {
    "run_uniform": (0, "fbea0eba8394e10dd4c1ff79eb365982a0c632c8b741cd2b9b3f97704daa9f47",
        ("a46c026a742445f77175e8261a70c59aac5cf101b797ed1946ad911bfd611aad",)),
    "run_component_view": (0, "b7f4ed0dd62e1ccd55642b349b80b6a2528253e8fb769a96ec91aca108926b9b",
        ("83287e17095f663919fdefe6d9e08e362a54e58d6370d85e564efc172d9151e5",)),
    "run_persistent": (0, "60b00097401e559f0c9506ba1f1860663e300151242caec9e2e8319886ad1269",
        ("fb73109807d442974f28ce9daacccf4edb95858d31d2cd8752cc410eb4b1aef2",)),
    "run_parallel": (0, "a382781d6888de863c03f2d905c88bcdf55e8e2181ffbad2477b960e03dc457b",
        ("67f99fdc3e7b95477426b0d11866d40967ef176fe337869e7830d4b9654602bc",)),
    "run_persistent_stall": (2, "05342e19179b182d55788acedc4d36170f7637757a50fde26e8d2135e49702f6",
        ()),
    "sweep": (0, "f56cc6d08233e234bce80e517c3df8d134552413fcbf638e3f26d9105825f689",
        ("30c9c692fc2bad2b56e32ea2c38a5ae5bc586d23b9bd32dd0c959f010217e86b",
         "1584d34a56bcf111895499df84b7f7d7bd9e3e924f475061b135064e3d2c0f5e")),
    "sweep_fit": (0, "2d885813680b67379dc6bec18ccc02c854dffd9dcdec61288c069203bb5ea7ce",
        ("3c76543758df74d4eaa3ae6c332c683bbc6187ade6aecbdbce8b9c7ecb96f9d5",)),
    "compare": (0, "e1b8a7d7010d46e9d5128e3a77670bc6e4f2a17d66c4ae39ce339937fc515298",
        ()),
    "compare_nan": (0, "22c1da39f9febe6212e7f10077954039a186d404dab5059886142143d3dd956b",
        ()),
    "audit": (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        ("ce54e2e8e2b8ffc4a925f645ffa9d09b5660716a91b678af3283211935810c89",)),
    "audit_bipartite": (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        ("563f5336dd6274fb736898845d747e035271194ce85902595c59e11fd86950c3",)),
    "audit_pool": (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        ("bb8c20ad2ddd81618d2594cf366798d38c634ff98f5be9182dcf662eaca43ee3",)),
    "gen_er": (0, "94dadc038de79323383e3ebc5c57886d9f87c005fc7f9c956f2136e101eeb3f0",
        ("8e8420deae3b218603a6c3c3e618618f89f016747858e10b5709ab69928a8168",)),
    "gen_er_blocks": (0, "74f2fd5f1ff20f1719920533cb6f4f3e669234556cb217f4acee388072b7664b",
        ("51e9e8b1a0b117d9fd4fb20c50099a5c3befc9d81e33eae6ebc2210043003407",)),
    "run_file": (0, "1e9ec23782e2a2f12955234812dc4f99dd1a260f46bc9fb563c086d0de4e2423",
        ("1c8ce17db96b262af979fd0fed95be894749bcdf1b2e6f7bfbd312b26b5d1981",)),
    "run_k1": (2, "9c0e889a354b222d8ac81485f2d1229ef0a75f8937f1789588b8a4b67163c8f4",
        ("a089002598a3f4c1dc6807ea0972249d136bf029fc8c62c5453dbaf55a984511",)),
    "run_wide_k": (0, "d77c994bccbcc086c44637d2a81ef59ad1910cbbb0528e07a8d0afc76f702f02",
        ("372470f29b3e464e14fba4dc4dad61231c3039908054f44ee43e0d07f6ea9f58",)),
    "run_wide_k_parallel": (0, "6c1373332eb6d814a5ca3caccaafd801b6e1dbfb901d8cd41e4e503d35fe28f3",
        ("b43292a2052afa158f8691ec388487abce70c21dae46b6ccb8e1829a1ebfee3e",)),
    "run_edgeless": (0, "fd9348278e9f88a0b4c8ea5fe3841a2e8e0668f0db11265d1e2faf515a42826a",
        ("e003843734c79dfe87d60e54687cf33f3e56f061fcd3e322dc695f5a1fb48544",)),
}


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def outputs(name: str, tmp: Path) -> tuple:
    (tmp / "colors.txt").write_text("1\n2\n1\n")
    (tmp / "sweep.json").write_text(json.dumps(SWEEP))
    (tmp / "sweep_fit.json").write_text(json.dumps(SWEEP_FIT))
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
