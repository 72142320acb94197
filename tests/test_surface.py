"""Every name ``colorsim`` exports has a reader outside ``tests/``.

A name counts as read when the package's own modules (``__init__`` aside),
``perfbench/`` or ``tools/`` load it, take it as an attribute, import it, or
spell it as an exact string constant (the step table names its functions
that way). A name only tests reach belongs in ``tests/``, not in the package.
"""

import ast
import types
from pathlib import Path

import pytest

import colorsim

ROOT = Path(__file__).resolve().parents[1]
SOURCES = [
    *(p for p in sorted((ROOT / "src" / "colorsim").glob("*.py")) if p.name != "__init__.py"),
    *sorted((ROOT / "perfbench").glob("*.py")),
    *sorted((ROOT / "tools").glob("*.py")),
]


def referenced_names() -> set[str]:
    names = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
    return names


REFERENCED = referenced_names()
EXPORTS = [name for name in colorsim.__all__
           if not isinstance(getattr(colorsim, name), types.ModuleType)]


@pytest.mark.parametrize("name", EXPORTS)
def test_export_has_a_reader_outside_tests(name):
    assert name in REFERENCED, f"only tests reach colorsim.{name}"
