"""The benchmark's tracer wraps colorsim functions by name; they must all exist.

``perfbench/tracer.py`` lists its targets as (layer, owner, names). A rename
or removal in the package would make ``perfbench/run.py --trace 1`` fail, so
every name is resolved here against the package.
"""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from tracer import TARGETS  # noqa: E402

PAIRS = [(owner, name) for _, owner, names in TARGETS for name in names]


@pytest.mark.parametrize("owner,name", PAIRS, ids=[f"{o}.{n}" for o, n in PAIRS])
def test_target_resolves(owner, name):
    mod_name, _, cls_name = owner.partition(":")
    obj = importlib.import_module(mod_name)
    if cls_name:
        obj = getattr(obj, cls_name)
    assert callable(getattr(obj, name))

