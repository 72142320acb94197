"""Exact verification of the one-step drift inequalities.

The oracle sums the tracked quantities as integers over every (vertex,
color) outcome of a single recoloring step inside one monochromatic
component. It sums each vertex's outcome classes with their weights: every
color that no neighbor carries gives the same change, so those colors form
one class. Components are disjoint, so the whole-state sums of the decay
check are the components' sums added field by field. Each
claim check reports its sum over the outcome count and its bound as integer
pairs (num, den) with den > 0, each bound written over one denominator, and
compares them by cross-multiplication, lhs_num·rhs_den <= rhs_num·lhs_den,
so no rational is built or reduced to decide a claim. The bounds are
theorems for k = max_degree + 1, so a negative margin always means an
implementation bug.

This module owns the audit report's JSONL line format: ``report_lines``
renders the entries of one state, every rational reduced with one gcd to
"num/den" (the sign on the numerator, zero as "0/1"), plus the
lines of a skipped check. ``harness`` only chooses the states to audit.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from math import gcd
from typing import NamedTuple

import numpy as np

from .state import ColoringState, Component, phi_numerator, potential

CLAIM_COMPONENT_EDGES = "component_edge_drift"
CLAIM_ISOLATED_GENERAL = "isolated_edge_growth"
CLAIM_ISOLATED_PAIR = "isolated_edge_pair_drift"
CLAIM_SANDWICH_LOWER = "potential_sandwich_lower"
CLAIM_SANDWICH_UPPER = "potential_sandwich_upper"
CLAIM_MULTIPLICATIVE = "multiplicative_decay"
CLAIM_BIPARTITE_PAIR = "bipartite_pair_drift"

# most (vertex, color) outcomes a state may enumerate; larger states get a skip line
OUTCOME_BUDGET = 100_000


class ExactExpectation(NamedTuple):
    """Integer sums of the tracked quantities after one step, over ``outcomes``.

    Each expectation is its sum divided by ``outcomes``. Sums over disjoint
    vertex sets add field by field.
    """

    outcomes: int
    mono: int
    iso: int
    e_ip: int


@dataclass(frozen=True)
class AuditEntry:
    """One checked inequality lhs <= rhs; satisfied means margin = rhs - lhs >= 0.

    ``lhs`` and ``rhs`` are rationals as integer pairs ``(num, den)`` with
    ``den > 0``, not necessarily reduced; ``margin`` is one too.
    """

    claim: str
    lhs: tuple[int, int]
    rhs: tuple[int, int]
    detail: dict = field(default_factory=dict)

    @property
    def margin(self) -> tuple[int, int]:
        (ln, ld), (rn, rd) = self.lhs, self.rhs
        return rn * ld - ln * rd, ld * rd

    @property
    def satisfied(self) -> bool:
        (ln, ld), (rn, rd) = self.lhs, self.rhs
        return ln * rd <= rn * ld


def _frac(num: int, den: int) -> str:
    """``num/den`` in lowest terms with the sign on the numerator, 0 as ``0/1`` (``den > 0``)."""
    g = gcd(num, den)
    return f"{num // g}/{den // g}"


def _component_is_current(state: ColoringState, component: Component) -> bool:
    # a same-colored reach of two or more vertices is a monochromatic component
    reach = state.same_color_reach(component.vertices[0], set())
    return (len(reach) > 1 and state.color_of(reach[0]) == component.color
            and set(reach) == set(component.vertices))


def exact_step_expectations(state: ColoringState, component: Component) -> ExactExpectation:
    """Sum the tracked quantities over every (vertex, color) outcome in ``component``.

    Colors range over 1..k, so there are |component|·k outcomes, and each
    integer sum divided by that count is an expectation. The k colors of a
    vertex fall into its ``outcome_classes``: the colors no neighbor carries
    give one change between them, so each class is counted once, with its
    weight. The no-op color adds nothing; the state itself is never
    modified. The whole-state sums, over every conflicted vertex, are the
    components' sums added field by field.
    """
    if not _component_is_current(state, component):
        raise ValueError("component is stale for this state")
    outcomes = component.size * state.k
    mono = outcomes * state.mono_edge_count
    iso = outcomes * state.iso_edge_count
    e_ip = outcomes * state.e_ip
    for v in component.vertices:
        for weight, (d_mono, d_iso, d_eip) in state.outcome_classes(v):
            mono += weight * d_mono
            iso += weight * d_iso
            e_ip += weight * d_eip
    return ExactExpectation(outcomes, mono, iso, e_ip)


def check_claim_edges(
    state: ColoringState, component: Component, expectation: ExactExpectation
) -> AuditEntry:
    """Expected monochromatic edges after recoloring inside the component.

    ``expectation`` is ``exact_step_expectations(state, component)``, as for
    every component-scoped check. Bound: current count minus the component's
    average degree, plus 1 - 1/(max_degree + 1), that is
    mono - 2E/s + 1 - 1/(D+1) = ((mono·s - 2E + s)(D+1) - s) / (s(D+1)) for a
    component of s vertices and E edges, D being the max degree.
    """
    d1 = state.graph.max_degree + 1
    s = component.size
    rhs = ((state.mono_edge_count * s - 2 * component.edge_count + s) * d1 - s, s * d1)
    return AuditEntry(CLAIM_COMPONENT_EDGES, (expectation.mono, expectation.outcomes), rhs,
                      detail={"component": list(component.vertices)})


def check_claim_isolated(
    state: ColoringState, component: Component, expectation: ExactExpectation
) -> list[AuditEntry]:
    """Expected isolated-pair count after recoloring inside the component.

    Always: at most the current count plus average degree plus one,
    iso + 2E/s + 1 = (iso·s + 2E + s) / s. For a component that is itself an
    isolated pair uw, additionally: at most the current count minus D/(D+1)
    plus the properly colored neighborhoods pu and pw of u and w averaged over
    the two picks, iso - D/(D+1) + (pu + pw)/(2(D+1)) =
    (2·iso·(D+1) - 2D + pu + pw) / (2(D+1)), D being the max degree.
    """
    d = state.graph.max_degree
    iso = state.iso_edge_count
    s = component.size
    e_iso = (expectation.iso, expectation.outcomes)
    detail = {"component": list(component.vertices)}
    entries = [AuditEntry(CLAIM_ISOLATED_GENERAL, e_iso,
                          (iso * s + 2 * component.edge_count + s, s), detail=detail)]
    if component.is_isolated_edge:
        u, w = component.vertices
        pu = state.neighbor_counts(u)[0]
        pw = state.neighbor_counts(w)[0]
        rhs = (2 * iso * (d + 1) - 2 * d + pu + pw, 2 * (d + 1))
        entries.append(AuditEntry(CLAIM_ISOLATED_PAIR, e_iso, rhs, detail=detail))
    return entries


def check_claim_mono_phi(state: ColoringState) -> list[AuditEntry]:
    """Sandwich: mono count <= potential <= twice the mono count, exactly."""
    phi = potential(state.graph.max_degree, state.phi_num)
    mono = state.mono_edge_count
    return [AuditEntry(CLAIM_SANDWICH_LOWER, (mono, 1), phi),
            AuditEntry(CLAIM_SANDWICH_UPPER, phi, (2 * mono, 1))]


def check_claim_mult(state: ColoringState, expectation: ExactExpectation) -> AuditEntry:
    """Whole-state expected potential decays by a factor 1 - 1/(1000 n).

    ``expectation`` holds the whole-state sums, over every conflicted vertex:
    the sums of ``exact_step_expectations`` over all components. With the
    potential phi = phi_num/(100D), the expected potential is
    e_num/(outcomes·100D), e_num being the potential's numerator of the sums,
    and the bound phi·(1 - 1/(1000n)) is phi_num·(1000n - 1) / (100D·1000n).
    The reported ``decay_ratio`` is E[phi']/phi = e_num / (outcomes·phi_num).
    """
    d = state.graph.max_degree
    phi_num, phi_den = potential(d, state.phi_num)
    if phi_num <= 0:
        raise ValueError("multiplicative decay check needs a positive potential")
    outcomes, mono, iso, e_ip = expectation
    e_num = phi_numerator(d, mono, iso, e_ip)
    n1000 = 1000 * state.graph.n
    rhs = (phi_num * (n1000 - 1), phi_den * n1000)
    return AuditEntry(CLAIM_MULTIPLICATIVE, (e_num, outcomes * phi_den), rhs,
                      detail={"decay_ratio": _frac(e_num, outcomes * phi_num)})


def check_claim_bipartite_isolated(
    state: ColoringState, component: Component, expectation: ExactExpectation
) -> AuditEntry:
    """Sharper pair bound on complete bipartite graphs with a full palette.

    Properly colored vertices on opposite sides must use different colors
    there, which caps the pair-creating neighborhoods and yields a drift of
    at least D/(2(D+1)) on every isolated pair: the bound is
    iso - D/(2(D+1)) = (2·iso·(D+1) - D) / (2(D+1)).
    """
    if not component.is_isolated_edge:
        raise ValueError("bipartite refinement applies to isolated pairs only")
    d = state.graph.max_degree
    rhs = (2 * state.iso_edge_count * (d + 1) - d, 2 * (d + 1))
    return AuditEntry(CLAIM_BIPARTITE_PAIR, (expectation.iso, expectation.outcomes), rhs,
                      detail={"component": list(component.vertices)})


def audit_state(state: ColoringState, bipartite: bool = False) -> list[AuditEntry]:
    """Run every applicable claim check, sharing one enumeration per component."""
    entries = check_claim_mono_phi(state)
    if not state.conflicted:
        return entries
    parts = []
    for comp in state.monochromatic_components():
        e = exact_step_expectations(state, comp)
        parts.append(e)
        entries.append(check_claim_edges(state, comp, e))
        entries.extend(check_claim_isolated(state, comp, e))
        if bipartite and comp.is_isolated_edge:
            entries.append(check_claim_bipartite_isolated(state, comp, e))
    entries.append(check_claim_mult(state, ExactExpectation(*map(sum, zip(*parts)))))
    return entries


def state_digest(state: ColoringState) -> str:
    """Stable identifier of (graph, palette, coloring), carried by every audit report line."""
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
    outcomes = state.k * len(state.conflicted)
    if outcomes > OUTCOME_BUDGET:
        reason = f"enumeration budget exceeded ({outcomes} outcomes)"
        return [{"claim": "all", "skipped": True, "reason": reason, "state_digest": digest}]
    lines = []
    for entry in audit_state(state, bipartite=bipartite):
        lines.append({"claim": entry.claim, "lhs": _frac(*entry.lhs), "rhs": _frac(*entry.rhs),
                      "margin": _frac(*entry.margin), "satisfied": entry.satisfied,
                      "state_digest": digest, **entry.detail})
    if not state.conflicted:
        lines.append({"claim": CLAIM_MULTIPLICATIVE, "skipped": True,
                      "reason": "proper coloring", "state_digest": digest})
    return lines

