"""``tools/opcount.py``: a traced run's bytecode count repeats exactly."""

import sys
from pathlib import Path

import pytest

from colorsim import ExperimentConfig

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import opcount  # noqa: E402


def test_counts_repeat_exactly():
    config = ExperimentConfig(family="complete", n=12, variant="uniform", master_seed=1)
    steps, ops = opcount.count(config)
    assert steps > 0 and (steps, ops) == opcount.count(config)
    line = opcount.report("k12", steps, ops)
    assert line["bytecodes_per_step"] == round(sum(ops.values()) / steps, 2)
    assert {"dynamics.run", "dynamics.step_uniform"} <= set(line["per_function"])


def test_refuses_a_tree_without_the_package(tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_:
        opcount.main(["--src", str(tmp_path)])
    assert exit_.value.code == 2
    assert "no colorsim package in" in capsys.readouterr().err
