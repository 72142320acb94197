"""Immutable simple undirected graphs and the generator families used in experiments.

Vertices are dense 0-based indices so that hot loops can use plain arrays.
All generators return a :class:`Graph`; the only ingestion format is the
whitespace edge list understood by :func:`from_edge_list`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class Graph:
    """A simple undirected graph.

    Invariants: no self-loops or duplicate edges, adjacency is symmetric and
    each neighbor list is sorted, and ``max_degree`` equals the true maximum
    adjacency length (0 for an edgeless graph).
    """

    n: int
    adjacency: tuple[tuple[int, ...], ...]
    edges: tuple[tuple[int, int], ...]
    m: int
    max_degree: int

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    @cached_property
    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Endpoint arrays of shape (m,), used by the vectorized derivations in state."""
        if self.m == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        eu = np.fromiter((e[0] for e in self.edges), dtype=np.int64, count=self.m)
        ev = np.fromiter((e[1] for e in self.edges), dtype=np.int64, count=self.m)
        return eu, ev


def _build(n: int, edge_iter) -> Graph:
    """Assemble a Graph from candidate edges, deduplicating as required."""
    seen: set[tuple[int, int]] = set()
    for u, v in edge_iter:
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) outside vertex range 0..{n - 1}")
        seen.add((u, v) if u < v else (v, u))
    edges = tuple(sorted(seen))
    neighbors: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        neighbors[u].append(v)
        neighbors[v].append(u)
    adjacency = tuple(tuple(sorted(ns)) for ns in neighbors)
    max_degree = max((len(ns) for ns in adjacency), default=0)
    return Graph(n=n, adjacency=adjacency, edges=edges, m=len(edges), max_degree=max_degree)


def complete(n: int) -> Graph:
    """Complete graph on ``n`` vertices."""
    if n < 1:
        raise ValueError("complete graph needs n >= 1")
    return _build(n, ((u, v) for u in range(n) for v in range(u + 1, n)))


def disjoint_cliques(count: int, size: int) -> Graph:
    """Vertex-disjoint union of ``count`` cliques, each on ``size`` vertices."""
    if count < 1 or size < 1:
        raise ValueError("disjoint_cliques needs count >= 1 and size >= 1")

    def edges():
        for c in range(count):
            base = c * size
            for u in range(size):
                for v in range(u + 1, size):
                    yield base + u, base + v

    return _build(count * size, edges())


def complete_bipartite(a: int, b: int) -> Graph:
    """Complete bipartite graph with parts {0..a-1} and {a..a+b-1}."""
    if a < 1 or b < 1:
        raise ValueError("complete_bipartite needs both part sizes >= 1")
    return _build(a + b, ((u, a + v) for u in range(a) for v in range(b)))


def cycle(n: int) -> Graph:
    """Cycle on ``n`` >= 3 vertices."""
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return _build(n, ((v, (v + 1) % n) for v in range(n)))


def erdos_renyi(n: int, p: float, seed: int) -> Graph:
    """G(n, p) random graph; deterministic for fixed (n, p, seed)."""
    if n < 1:
        raise ValueError("erdos_renyi needs n >= 1")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability {p} outside [0, 1]")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))

    def edges():
        for u in range(n - 1):
            draws = rng.random(n - 1 - u)
            for off in np.nonzero(draws < p)[0]:
                yield u, u + 1 + int(off)

    return _build(n, edges())


def from_edge_list(text: str, n: int | None = None) -> Graph:
    """Parse a whitespace edge list: one "u v" pair per line, 0-based indices.

    Blank lines and lines starting with '#' are ignored; duplicate edges are
    deduplicated. The vertex count is the maximum index seen plus one, unless
    a larger ``n`` is supplied (the text itself cannot express trailing
    isolated vertices).
    """
    edges: list[tuple[int, int]] = []
    top = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise ValueError(f"line {lineno}: expected two vertex indices, got {raw!r}")
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise ValueError(f"line {lineno}: non-integer token in {raw!r}") from None
        if u < 0 or v < 0:
            raise ValueError(f"line {lineno}: negative vertex index in {raw!r}")
        if u == v:
            raise ValueError(f"line {lineno}: self-loop {u} {v}")
        edges.append((u, v))
        top = max(top, u, v)
    count = max(top + 1, n or 0)
    return _build(count, edges)


def to_edge_list(g: Graph) -> str:
    """Render a graph in the format accepted by :func:`from_edge_list`."""
    lines = [f"# vertices {g.n} edges {g.m} max_degree {g.max_degree}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"
