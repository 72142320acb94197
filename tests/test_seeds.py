"""Every numpy generator ``colorsim`` builds is seeded.

The README says no outside input changes what colorsim does. A bit
generator, ``SeedSequence``, ``default_rng`` or ``RandomState`` built
without a seed reads OS entropy, which is such an input even when its state
is overwritten before any draw. So every call to one of them in ``src/``
must pass a seed: a positional argument, or a seed keyword that is not
``None``.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

SRC = sorted((Path(__file__).resolve().parents[1] / "src" / "colorsim").glob("*.py"))
SEEDED = {name for name, value in vars(np.random).items()
          if isinstance(value, type) and issubclass(value, np.random.BitGenerator)}
SEEDED |= {"SeedSequence", "default_rng", "RandomState"}
SEED_KEYWORDS = {"seed", "entropy"}


def seeded_calls(path: Path) -> list[tuple[int, str, bool]]:
    """(line, callee, passes a seed) of each call in ``path`` to a name in ``SEEDED``."""
    calls = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name in SEEDED:
            seeded = bool(node.args) or any(
                kw.arg in SEED_KEYWORDS
                and not (isinstance(kw.value, ast.Constant) and kw.value.value is None)
                for kw in node.keywords)
            calls.append((node.lineno, name, seeded))
    return calls


def test_the_package_builds_seeded_generators():
    # the check below reads nothing if the package's calls change shape
    names = {name for path in SRC for _, name, _ in seeded_calls(path)}
    assert {"PCG64", "SeedSequence"} <= names


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_every_generator_is_built_from_a_seed(path):
    unseeded = [(line, name) for line, name, seeded in seeded_calls(path) if not seeded]
    assert not unseeded, f"{path.name}: built without a seed at (line, callee) {unseeded}"


def test_an_unseeded_call_is_found(tmp_path):
    code = tmp_path / "m.py"
    code.write_text("import numpy as np\n"
                    "a = np.random.PCG64()\n"
                    "b = np.random.default_rng(seed=None)\n"
                    "c = np.random.SeedSequence(entropy=7)\n"
                    "d = PCG64(c)\n")
    assert seeded_calls(code) == [(2, "PCG64", False), (3, "default_rng", False),
                                  (4, "SeedSequence", True), (5, "PCG64", True)]
