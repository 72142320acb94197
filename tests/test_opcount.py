"""``tools/opcount.py``: a traced run's and a traced audit's bytecode counts repeat exactly."""

import sys
from pathlib import Path

import pytest

from colorsim import AuditSweepSpec, ExperimentConfig
from colorsim.harness import audit_instance

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import opcount  # noqa: E402


def test_counts_repeat_exactly():
    config = ExperimentConfig(family="complete", n=12, variant="uniform", master_seed=1)
    steps, ops = opcount.count(config)
    assert steps > 0 and (steps, ops) == opcount.count(config)
    line = opcount.report("k12", steps, ops)
    assert line["bytecodes_per_step"] == round(sum(ops.values()) / steps, 2)
    assert {"dynamics.run", "dynamics.step_uniform"} <= set(line["per_function"])


def test_audit_counts_repeat_exactly():
    spec = AuditSweepSpec(instances=6, master_seed=1, max_n=12)
    outcomes, ops = opcount.count_audit(spec)
    assert outcomes > 0 and (outcomes, ops) == opcount.count_audit(spec)
    # each instance enumerates k outcomes per vertex of its monochromatic components
    states = [audit_instance(spec, i)[0] for i in range(spec.instances)]
    assert outcomes == sum(s.k * sum(c.size for c in s.monochromatic_components())
                           for s in states)
    line = opcount.report("audit", outcomes, ops, unit="outcome")
    assert (line["outcomes"], line["bytecodes_per_outcome"]) == (
        outcomes, round(sum(ops.values()) / outcomes, 2))
    assert {"audit.report_lines", "audit.exact_step_expectations"} <= set(line["per_function"])


def test_refuses_a_tree_without_the_package(tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_:
        opcount.main(["--src", str(tmp_path)])
    assert exit_.value.code == 2
    assert "no colorsim package in" in capsys.readouterr().err
