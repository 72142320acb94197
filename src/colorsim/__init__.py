"""colorsim: a simulation and verification lab for decentralized recoloring.

A graph starts with every vertex holding a random color from 1..max_degree+1;
conflicted vertices (those sharing a color with a neighbor) are repeatedly
recolored at random until the coloring is proper. This package implements the
sequential, component-sampled, persistent, and simultaneous variants of that
process, tracks an exact rational progress potential, verifies the one-step
drift inequalities by full enumeration, and reproduces the headline runtime
scalings as seeded desk-scale experiments.
"""

from ._version import __version__
from .graph import (
    Graph,
    complete,
    complete_bipartite,
    cycle,
    disjoint_cliques,
    erdos_renyi,
    from_edge_list,
    to_edge_list,
)
from .state import (
    ColoringState,
    Component,
    DerivedSnapshot,
    init_random,
)
from .dynamics import (
    ProperColoringError,
    RunResult,
    make_rng,
    run,
    step_component_view,
    step_parallel,
    step_persistent,
    step_uniform,
)
from .audit import (
    AuditEntry,
    ExactExpectation,
    audit_state,
    check_claim_bipartite_isolated,
    check_claim_edges,
    check_claim_isolated,
    check_claim_mono_phi,
    check_claim_mult,
    exact_step_expectations,
    state_digest,
)
from .harness import (
    AuditSweepSpec,
    EnsembleStats,
    ExperimentConfig,
    FitResult,
    drift_audit_sweep,
    run_ensemble,
    scaling_fit,
)

__all__ = [name for name in dir() if not name.startswith("_")]
