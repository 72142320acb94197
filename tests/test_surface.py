"""Every name ``colorsim`` exports has a reader outside ``tests/``, and so
do every public method and property of an exported class, every public
function and class a ``colorsim`` module defines, and every field of a
dataclass or NamedTuple a ``colorsim`` module defines.

A name counts as read when the package's own modules (``__init__`` aside),
``perfbench/`` or ``tools/`` load it, take it as an attribute, import it, or
spell it as an exact string constant (the step table names its functions
that way, the CSV writers their columns). A keyword argument that sets a
field is a write, not a read. A name only tests reach belongs in ``tests/``,
not in the package; a field only tests read is work the package does for
them alone. Slots are out of scope.

The test oracles share no code with the fast path they check, so they import
nothing from ``colorsim``.
"""

import ast
import dataclasses
import functools
import importlib
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


MEMBER_TYPES = (types.FunctionType, staticmethod, classmethod, property,
                functools.cached_property)
MEMBERS = [f"{name}.{member}" for name in EXPORTS
           if isinstance(cls := getattr(colorsim, name), type)
           for member, value in vars(cls).items()
           if not member.startswith("_") and isinstance(value, MEMBER_TYPES)]


@pytest.mark.parametrize("qualname", MEMBERS)
def test_class_member_has_a_reader_outside_tests(qualname):
    assert qualname.split(".")[1] in REFERENCED, f"only tests reach colorsim.{qualname}"


MODULES = [importlib.import_module(f"colorsim.{path.stem}") for path in SOURCES
           if path.parent.name == "colorsim"]
DEFINED = [f"{module.__name__}.{name}" for module in MODULES
           for name, value in vars(module).items()
           if not name.startswith("_") and isinstance(value, (types.FunctionType, type))
           and value.__module__ == module.__name__]


@pytest.mark.parametrize("qualname", DEFINED)
def test_definition_has_a_reader_outside_tests(qualname):
    assert qualname.rsplit(".", 1)[1] in REFERENCED, f"only tests reach {qualname}"


def record_fields(cls: type) -> tuple[str, ...]:
    """The fields of a dataclass or a NamedTuple; none for any other class."""
    if dataclasses.is_dataclass(cls):
        return tuple(f.name for f in dataclasses.fields(cls))
    return getattr(cls, "_fields", ()) if issubclass(cls, tuple) else ()


FIELDS = [f"{module.__name__}.{name}.{field}" for module in MODULES
          for name, value in vars(module).items()
          if isinstance(value, type) and value.__module__ == module.__name__
          for field in record_fields(value)]


@pytest.mark.parametrize("qualname", FIELDS)
def test_field_has_a_reader_outside_tests(qualname):
    assert qualname.rsplit(".", 1)[1] in REFERENCED, f"only tests read {qualname}"


@pytest.mark.parametrize("oracle", ["oracle.py", "exact_laws.py"])
def test_oracle_imports_nothing_from_colorsim(oracle):
    tree = ast.parse((ROOT / "tests" / oracle).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
    assert "colorsim" not in {m.split(".")[0] for m in imported}, imported
