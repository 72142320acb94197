"""Exact verification of the one-step drift inequalities.

The oracle averages the tracked quantities over every (vertex, color)
outcome of a single recoloring step with exact rational weights. It recounts
each vertex's outcome classes locally, once per class: every color that no
neighbor carries gives the same change, so those colors share one recount.
Claim checks compare that oracle against the proven bounds in big-integer
rational arithmetic; the bounds are theorems for k = max_degree + 1, so a
negative margin always means an implementation bug.

This module owns the audit report's JSONL line format: ``report_lines``
renders the entries of one state, every rational as "num/den", plus the
lines of a skipped check. ``harness`` only chooses the states to audit.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .state import ColoringState, Component, phi_numerator

CLAIM_COMPONENT_EDGES = "component_edge_drift"
CLAIM_ISOLATED_GENERAL = "isolated_edge_growth"
CLAIM_ISOLATED_PAIR = "isolated_edge_pair_drift"
CLAIM_SANDWICH_LOWER = "potential_sandwich_lower"
CLAIM_SANDWICH_UPPER = "potential_sandwich_upper"
CLAIM_MULTIPLICATIVE = "multiplicative_decay"
CLAIM_BIPARTITE_PAIR = "bipartite_pair_drift"

# most (vertex, color) outcomes a state may enumerate; larger states get a skip line
OUTCOME_BUDGET = 100_000


@dataclass(frozen=True)
class ExactExpectation:
    """Conditional expectations of the tracked quantities after one step."""

    mono_edges: Fraction
    iso_edges: Fraction
    e_ip: Fraction
    phi: Fraction


@dataclass(frozen=True)
class AuditEntry:
    """One checked inequality lhs <= rhs; satisfied means margin = rhs - lhs >= 0."""

    claim: str
    lhs: Fraction
    rhs: Fraction
    detail: dict = field(default_factory=dict)

    @property
    def margin(self) -> Fraction:
        return self.rhs - self.lhs

    @property
    def satisfied(self) -> bool:
        return self.margin >= 0


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _component_is_current(state: ColoringState, component: Component) -> bool:
    # a same-colored reach of two or more vertices is a monochromatic component
    reach = state.same_color_reach(component.vertices[0], set())
    return (len(reach) > 1 and state.color_of(reach[0]) == component.color
            and set(reach) == set(component.vertices))


def exact_step_expectations(
    state: ColoringState, component: Component | None = None
) -> ExactExpectation:
    """Average the tracked quantities over every (vertex, color) outcome.

    Vertex weights are uniform over the component's vertices when one is
    given, otherwise uniform over all conflicted vertices (the two-stage
    component pick composes to exactly that law). Colors are uniform over
    1..k. The k colors of a vertex fall into its ``outcome_classes``: the
    colors no neighbor carries give one change between them, so each class
    is recounted once, locally, and counted with its weight. The no-op color
    adds nothing; the state itself is never modified.
    """
    if component is not None:
        if not _component_is_current(state, component):
            raise ValueError("component is stale for this state")
        vertices = component.vertices
    else:
        if state.conflicted_count == 0:
            raise ValueError("whole-state expectation needs at least one conflicted vertex")
        vertices = state.conflicted_vertices()
    k = state.k
    outcomes = len(vertices) * k
    mono_sum = outcomes * state.mono_edge_count
    iso_sum = outcomes * state.iso_edge_count
    eip_sum = outcomes * state.e_ip
    for v in vertices:
        for weight, (d_mono, d_iso, d_eip) in state.outcome_classes(v):
            mono_sum += weight * d_mono
            iso_sum += weight * d_iso
            eip_sum += weight * d_eip
    d = state.graph.max_degree
    phi_sum = phi_numerator(d, mono_sum, iso_sum, eip_sum)
    return ExactExpectation(
        mono_edges=Fraction(mono_sum, outcomes),
        iso_edges=Fraction(iso_sum, outcomes),
        e_ip=Fraction(eip_sum, outcomes),
        phi=Fraction(phi_sum, outcomes * 100 * d),
    )


def combine_component_expectations(
    components: tuple[Component, ...], expectations: list[ExactExpectation]
) -> ExactExpectation:
    """Mix component-scoped expectations by vertex-count weights.

    By the law of total expectation this equals the whole-state oracle
    exactly; the equality is asserted in tests.
    """
    total = sum(c.size for c in components)
    mono = iso = eip = phi = Fraction(0)
    for comp, e in zip(components, expectations):
        w = Fraction(comp.size, total)
        mono += w * e.mono_edges
        iso += w * e.iso_edges
        eip += w * e.e_ip
        phi += w * e.phi
    return ExactExpectation(mono, iso, eip, phi)


def check_claim_edges(
    state: ColoringState, component: Component, expectation: ExactExpectation
) -> AuditEntry:
    """Expected monochromatic edges after recoloring inside the component.

    ``expectation`` is ``exact_step_expectations(state, component)``, as for
    every component-scoped check. Bound: current count minus the component's
    average degree, plus 1 - 1/(max_degree + 1).
    """
    d = state.graph.max_degree
    rhs = state.mono_edge_count - component.average_degree + 1 - Fraction(1, d + 1)
    return AuditEntry(CLAIM_COMPONENT_EDGES, expectation.mono_edges, rhs,
                      detail={"component": list(component.vertices)})


def check_claim_isolated(
    state: ColoringState, component: Component, expectation: ExactExpectation
) -> list[AuditEntry]:
    """Expected isolated-pair count after recoloring inside the component.

    Always: at most the current count plus average degree plus one. For a
    component that is itself an isolated pair uw, additionally: at most the
    current count minus D/(D+1) plus the properly colored neighborhoods of u
    and w averaged over the two picks, D being the max degree.
    """
    d = state.graph.max_degree
    iso_now = Fraction(state.iso_edge_count)
    detail = {"component": list(component.vertices)}
    entries = [AuditEntry(CLAIM_ISOLATED_GENERAL, expectation.iso_edges,
                          iso_now + component.average_degree + 1, detail=detail)]
    if component.is_isolated_edge:
        u, w = component.vertices
        pu = state.properly_colored_neighbor_count(u)
        pw = state.properly_colored_neighbor_count(w)
        rhs = iso_now - Fraction(d, d + 1) + Fraction(pu + pw, 2 * (d + 1))
        entries.append(AuditEntry(CLAIM_ISOLATED_PAIR, expectation.iso_edges, rhs, detail=detail))
    return entries


def check_claim_mono_phi(state: ColoringState) -> list[AuditEntry]:
    """Sandwich: mono count <= potential <= twice the mono count, exactly."""
    phi = state.potential()
    mono = Fraction(state.mono_edge_count)
    return [AuditEntry(CLAIM_SANDWICH_LOWER, mono, phi),
            AuditEntry(CLAIM_SANDWICH_UPPER, phi, 2 * mono)]


def check_claim_mult(state: ColoringState, expectation: ExactExpectation) -> AuditEntry:
    """Whole-state expected potential decays by a factor 1 - 1/(1000 n).

    ``expectation`` is the whole-state one, ``exact_step_expectations(state)``.
    """
    phi = state.potential()
    if phi <= 0:
        raise ValueError("multiplicative decay check needs a positive potential")
    rhs = phi * (1 - Fraction(1, 1000 * state.graph.n))
    return AuditEntry(CLAIM_MULTIPLICATIVE, expectation.phi, rhs,
                      detail={"decay_ratio": _frac(expectation.phi / phi)})


def check_claim_bipartite_isolated(
    state: ColoringState, component: Component, expectation: ExactExpectation
) -> AuditEntry:
    """Sharper pair bound on complete bipartite graphs with a full palette.

    Properly colored vertices on opposite sides must use different colors
    there, which caps the pair-creating neighborhoods and yields a drift of
    at least D/(2(D+1)) on every isolated pair.
    """
    if not component.is_isolated_edge:
        raise ValueError("bipartite refinement applies to isolated pairs only")
    d = state.graph.max_degree
    rhs = state.iso_edge_count - Fraction(d, 2 * (d + 1))
    return AuditEntry(CLAIM_BIPARTITE_PAIR, expectation.iso_edges, rhs,
                      detail={"component": list(component.vertices)})


def audit_state(state: ColoringState, bipartite: bool = False) -> list[AuditEntry]:
    """Run every applicable claim check, sharing one enumeration per component."""
    entries = check_claim_mono_phi(state)
    if state.conflicted_count == 0:
        return entries
    components = state.monochromatic_components()
    expectations = []
    for comp in components:
        e = exact_step_expectations(state, comp)
        expectations.append(e)
        entries.append(check_claim_edges(state, comp, e))
        entries.extend(check_claim_isolated(state, comp, e))
        if bipartite and comp.is_isolated_edge:
            entries.append(check_claim_bipartite_isolated(state, comp, e))
    whole = combine_component_expectations(components, expectations)
    entries.append(check_claim_mult(state, whole))
    return entries


def state_digest(state: ColoringState) -> str:
    """Stable identifier of (graph, palette, coloring) for replayable reports."""
    payload = {
        "n": state.graph.n,
        "k": state.k,
        "colors": list(state.colors),
        "edges": np.column_stack(state.graph.edge_arrays).tolist(),
    }
    blob = json.dumps(payload, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def report_lines(state: ColoringState, bipartite: bool, digest: str) -> list[dict]:
    """The JSONL report lines of one audited state, each tagged with ``digest``.

    One line per entry of ``audit_state``. A state whose enumeration would
    exceed ``OUTCOME_BUDGET`` (vertex, color) outcomes gets a single skip
    line instead; a proper coloring adds a skip line for the decay check.
    """
    outcomes = state.k * state.conflicted_count
    if outcomes > OUTCOME_BUDGET:
        reason = f"enumeration budget exceeded ({outcomes} outcomes)"
        return [{"claim": "all", "skipped": True, "reason": reason, "state_digest": digest}]
    lines = []
    for entry in audit_state(state, bipartite=bipartite):
        lines.append({"claim": entry.claim, "lhs": _frac(entry.lhs), "rhs": _frac(entry.rhs),
                      "margin": _frac(entry.margin), "satisfied": entry.satisfied,
                      "state_digest": digest, **entry.detail})
    if state.conflicted_count == 0:
        lines.append({"claim": CLAIM_MULTIPLICATIVE, "skipped": True,
                      "reason": "proper coloring", "state_digest": digest})
    return lines

