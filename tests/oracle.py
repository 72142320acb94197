"""The from-scratch oracle for a coloring's derived data.

``recompute`` derives the conflicted vertices, the monochromatic and
isolated-pair edge counts, ``e_ip`` and the potential's numerator from a
state's colors and graph alone, by three plain edge scans. It shares no code
with ``ColoringState``'s incremental bookkeeping or its numpy derivation, so
a test that compares the two checks one against the other. ``snapshot``
reads the same quantities off the state's fast path into the same record.
``edges`` lists a graph's edges as (u, v) tuples, for the scans and for tests.

The module imports nothing from ``colorsim``: it reads only ``state.colors``
and the graph's ``n``, ``edge_arrays`` and ``max_degree``.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class DerivedSnapshot:
    """All derived quantities of a coloring."""

    conflicted: tuple[int, ...]
    mono_edge_count: int
    iso_edge_count: int
    e_ip: int
    phi_num: int


def edges(g) -> tuple[tuple[int, int], ...]:
    """The graph's edges as (u, v) tuples, u < v, in the order of ``edge_arrays``."""
    eu, ev = g.edge_arrays
    return tuple(zip(eu.tolist(), ev.tolist()))


def snapshot(state) -> DerivedSnapshot:
    """The derived quantities as the state's fast path reports them."""
    return DerivedSnapshot(
        conflicted=state.conflicted_vertices(),
        mono_edge_count=state.mono_edge_count,
        iso_edge_count=state.iso_edge_count,
        e_ip=state.e_ip,
        phi_num=state.phi_num,
    )


def recompute(state) -> DerivedSnapshot:
    """Recompute every derived quantity from scratch in O(n + m).

    Deliberately written as plain edge scans (including the direct
    edge-by-edge count behind ``e_ip``) so it stays independent of the
    incremental update path it is used to check.
    """
    g = state.graph
    pairs = edges(g)
    color = state.colors
    cd = [0] * g.n
    mono = 0
    for u, w in pairs:
        if color[u] == color[w]:
            cd[u] += 1
            cd[w] += 1
            mono += 1
    in_pair = [False] * g.n
    iso = 0
    for u, w in pairs:
        if color[u] == color[w] and cd[u] == 1 and cd[w] == 1:
            in_pair[u] = True
            in_pair[w] = True
            iso += 1
    e_ip = 0
    for u, w in pairs:
        if (in_pair[u] and cd[w] == 0) or (cd[u] == 0 and in_pair[w]):
            e_ip += 1
    d = g.max_degree
    return DerivedSnapshot(
        conflicted=tuple(v for v in range(g.n) if cd[v] > 0),
        mono_edge_count=mono,
        iso_edge_count=iso,
        e_ip=e_ip,
        phi_num=100 * d * mono + 10 * d * iso + e_ip,
    )
