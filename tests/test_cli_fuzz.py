"""Fuzz the CLI with argv and sweep cells drawn from real names and junk.

Whatever the input, ``main`` returns a documented exit code and never lets a
traceback out. Most drawn values are valid, so most examples get past the
parser and into the commands; each value is junk with probability 1/8.
Sizes are bounded (n <= 12, seeds <= 3, cap <= 200, instances <= 5) so an
example takes milliseconds, and the examples are derandomized so the suite
stays deterministic.
"""

import contextlib
import io
import json

from hypothesis import HealthCheck, given, settings, strategies as st

from colorsim.cli import main

# CLI family name -> the config fields it needs; sweep cells take the long names too
NEEDS = {"complete": ("n",), "cliques": ("count", "size"), "bipartite": ("a", "b"),
         "cycle": ("n",), "er": ("n", "p"), "file": ("path",)}
LONG = {"cliques": "disjoint_cliques", "bipartite": "complete_bipartite", "er": "erdos_renyi"}
NEEDS.update({LONG[name]: NEEDS[name] for name in LONG})
ALIASES = ["complete", "cliques", "bipartite", "cycle", "er", "file"]
VARIANTS = ["uniform", "component_view", "persistent", "parallel", "component"]
INITS = {"random": "random", "ones": "all_ones", "file": "explicit"}


def mostly(valid, junk):
    """``valid`` seven times in eight, else ``junk``; ``one_of`` would weigh them equally."""
    return st.sampled_from([valid] * 7 + [junk]).flatmap(lambda s: s)


def maybe(values):
    """A drawn value, or None (left out) one time in four."""
    return st.sampled_from([values] * 3 + [st.none()]).flatmap(lambda s: s)


JUNK_NAME = st.sampled_from(["bogus", "", "disjoint_cliques", "all_ones"])
JUNK_ARG = st.sampled_from(["x", "1.5", "-", "nan", "", "1e3", "0", "-1"])


def count(hi):
    """1..hi seven times in eight, else 0, -1 or a token that is no integer."""
    return mostly(st.integers(1, hi).map(str), JUNK_ARG)


SMALL = count(12)
SEED = count(3)
PROB = mostly(st.floats(-0.2, 1.2).map(str), st.sampled_from(["nan", "inf", "x"]))
FLAG_VALUES = {"--n": SMALL, "--count": SMALL, "--size": SMALL, "--a": SMALL, "--b": SMALL,
               "--p": PROB}


def _flags(draw, pairs):
    argv = []
    for flag, values in pairs:
        value = draw(maybe(values))
        if value is not None:
            argv += [flag, value]
    return argv


@st.composite
def family_argv(draw, paths):
    """--family with its required flags most of the time, plus a stray one."""
    family = draw(mostly(mostly(st.sampled_from(ALIASES), JUNK_NAME), st.none()))
    if family is None:
        return []
    argv = ["--family", family]
    for field in NEEDS.get(family, ()) if family in ALIASES else ():
        if field == "path":
            argv += _flags(draw, [("--graph", st.sampled_from(paths["graph"]))])
        else:
            argv += _flags(draw, [(f"--{field}", FLAG_VALUES[f"--{field}"])])
    stray = draw(st.sampled_from([None, None, *FLAG_VALUES]))
    if stray:
        argv += [stray, draw(FLAG_VALUES[stray])]
    return argv + _flags(draw, [("--graph-seed", SEED)])


@st.composite
def run_argv(draw, paths, command):
    argv = [command, *draw(family_argv(paths)), "--cap", draw(count(200))]
    argv += _flags(draw, [
        ("--k", SMALL), ("--seed", SEED),
        ("--init", mostly(st.sampled_from(list(INITS)), JUNK_NAME)),
    ])
    if "file" in argv:
        argv += _flags(draw, [("--init-file", st.sampled_from(paths["colors"]))])
    if command == "run":
        return argv + _flags(draw, [
            ("--variant", mostly(st.sampled_from(VARIANTS), JUNK_NAME)),
            ("--trace-out", st.sampled_from(paths["out"])),
        ])
    names = st.lists(mostly(st.sampled_from(VARIANTS), JUNK_NAME), min_size=1, max_size=3)
    return argv + ["--seeds", draw(count(3))] + _flags(
        draw, [("--variants", names.map(",".join))])


@st.composite
def gen_argv(draw, paths):
    return ["gen", *draw(family_argv(paths)), "--out", draw(st.sampled_from(paths["out"]))]


@st.composite
def audit_argv(draw, paths):
    families = st.lists(mostly(st.sampled_from(ALIASES), JUNK_NAME), min_size=1, max_size=3)
    argv = ["audit", "--instances", draw(count(5))]
    return argv + _flags(draw, [("--max-n", count(60)), ("--seed", SEED),
        ("--families", families.map(",".join)), ("--out", st.sampled_from(paths["out"])),
    ])


def cell_int(lo, hi):
    """An integer cell field: lo..hi seven times in eight, else JSON true or false."""
    return mostly(st.integers(lo, hi), st.booleans())


CELL_VALUES = {
    "n": cell_int(1, 12), "count": cell_int(1, 12), "size": cell_int(1, 12),
    "a": cell_int(1, 12), "b": cell_int(1, 12), "k": cell_int(1, 12),
    "p": st.floats(-0.2, 1.2) | st.just(float("nan")),
    "graph_seed": cell_int(0, 3), "master_seed": cell_int(0, 3),
    "seeds": cell_int(1, 3), "cap": cell_int(1, 200),
    "variant": st.sampled_from(VARIANTS),
    "init": st.sampled_from(list(INITS.values())),
    "explicit_colors": st.lists(st.integers(-1, 4), max_size=12),
    "config_id": st.text(max_size=4),
}
JUNK_VALUE = st.sampled_from([None, "x", 1.5, True, [1], {"n": 1}, 0, -1])


@st.composite
def sweep_cell(draw, paths):
    """A family with its required fields most of the time, plus up to three others."""
    family = draw(mostly(st.sampled_from(sorted(NEEDS)), JUNK_NAME))
    cell = {"family": family}
    keys = draw(st.lists(st.sampled_from(sorted(CELL_VALUES)), max_size=3, unique=True))
    for key in [*keys, *NEEDS.get(family, ())]:
        valid = st.sampled_from(paths["graph"]) if key == "path" else CELL_VALUES[key]
        value = draw(maybe(mostly(valid, JUNK_VALUE)))
        if value is not None:
            cell[key] = value
    if draw(st.integers(0, 15)) == 0:
        cell["bogus"] = 1
    return cell


@st.composite
def sweep_argv(draw, paths, tmp):
    cells = draw(st.lists(sweep_cell(paths), max_size=3))
    spec = {"cells": cells}
    fit = draw(st.sampled_from([None, None, {"model": "n_log_n"}, {"model": "bogus"}, {}, "x"]))
    if fit is not None:
        spec["fit"] = fit
    spec = draw(mostly(st.just(spec), st.sampled_from([cells, {"cells": 5}])))
    config = tmp / "sweep.json"
    config.write_text(json.dumps(spec))
    argv = ["sweep", "--config", str(config), "--seeds", draw(count(3)),
            "--cap", draw(count(200)), "--workers", draw(st.sampled_from("12"))]
    return argv + _flags(draw, [
        ("--seed", SEED), ("--per-run", st.sampled_from(paths["out"])),
        ("--aggregate", st.sampled_from(paths["out"])),
    ])


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(data=st.data())
def test_cli_never_raises(data, tmp_path):
    (tmp_path / "graph.txt").write_text("0 1\n1 2\n2 0\n2 3\n")
    (tmp_path / "bad.txt").write_text("0 1 2\nx y\n")
    (tmp_path / "colors.txt").write_text("1\n2\n1\n2\n")
    paths = {
        "graph": [str(tmp_path / "graph.txt")] * 4
        + [str(tmp_path / "bad.txt"), str(tmp_path / "missing.txt"), str(tmp_path)],
        "colors": [str(tmp_path / n) for n in ("colors.txt", "bad.txt", "missing.txt")],
        "out": [str(tmp_path / "out.txt")] * 4 + [str(tmp_path / "no" / "out.txt")],
    }
    argv = data.draw(st.one_of(
        gen_argv(paths), run_argv(paths, "run"), run_argv(paths, "compare"),
        audit_argv(paths), sweep_argv(paths, tmp_path),
    ))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in err.getvalue(), argv
