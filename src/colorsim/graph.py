"""Immutable simple undirected graphs and the generator families used in experiments.

Vertices are dense 0-based indices so that hot loops can use plain arrays.
All generators return a :class:`Graph`; the only ingestion format is the
whitespace edge list understood by :func:`from_edge_list`.

Every generator produces its candidate edges as numpy endpoint arrays and
hands them to one assembly, ``_build``, the only code that constructs a
``Graph``. It validates, deduplicates and sorts the edges with numpy, keeps
the sorted endpoint arrays as ``Graph.edge_arrays``, and fills the adjacency
tuples with one int object per vertex. The edge tuples are derived from
``edge_arrays`` on first read.
``erdos_renyi`` draws its pairs in blocks, so each seeded graph is the one
the row-by-row sampler draws (``tests/test_graph.py`` keeps that sampler as
the reference). The blocks are split into one contiguous span per usable CPU
and the spans are drawn on threads: pair j takes word j of the seeded PCG64
stream, and a span's generator is the seeded one moved forward with
``advance`` to the span's first pair, so the graph does not depend on the
number of spans. ``usable_cpus`` is also the bound on ensemble pool width.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class Graph:
    """A simple undirected graph.

    Invariants: no self-loops or duplicate edges, adjacency is symmetric and
    each neighbor list is sorted, and ``max_degree`` equals the true maximum
    adjacency length (0 for an edgeless graph). ``edge_arrays`` holds the
    endpoint arrays (u, v), u < v, of shape (m,), in ascending (u, v) order;
    equality and hashing leave it out, as it repeats ``adjacency``.
    """

    n: int
    adjacency: tuple[tuple[int, ...], ...]
    m: int
    max_degree: int
    edge_arrays: tuple[np.ndarray, np.ndarray] = field(compare=False, repr=False)

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """The edges as (u, v) tuples, in the order of ``edge_arrays``."""
        eu, ev = self.edge_arrays
        return tuple(zip(eu.tolist(), ev.tolist()))


# draws per erdos_renyi block; larger blocks were no faster and raised the peak memory
_BLOCK = 1 << 16
# entries per tolist() call in _shared_ints: bounds the int objects it makes at once
_CHUNK = 1 << 12


def usable_cpus() -> int:
    """The number of CPUs this process may run on (its affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _shared_ints(vertex: list[int], a: np.ndarray) -> list[int]:
    """``a`` as a list of the int objects in ``vertex``.

    ``a.tolist()`` alone makes a new int object for every entry; mapping
    through ``vertex`` keeps one object per vertex.
    """
    out: list[int] = []
    for s in range(0, a.size, _CHUNK):
        out.extend(map(vertex.__getitem__, a[s:s + _CHUNK].tolist()))
    return out


def _row_bounds(rows: np.ndarray, n: int) -> list[int]:
    """n + 1 offsets: where each row's block starts in a list ordered by row, then its end."""
    return [0, *np.cumsum(np.bincount(rows, minlength=n)).tolist()]


def _build(n: int, u: np.ndarray, v: np.ndarray) -> Graph:
    """Assemble a Graph from candidate edges (u[i], v[i]), deduplicating as required."""
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    bad = np.flatnonzero((u == v) | (u < 0) | (u >= n) | (v < 0) | (v >= n))
    if bad.size:
        a, b = int(u[bad[0]]), int(v[bad[0]])
        if a == b:
            raise ValueError(f"self-loop at vertex {a}")
        raise ValueError(f"edge ({a}, {b}) outside vertex range 0..{n - 1}")
    # one key per unordered pair: sorted keys are the edges in (min, max) order
    keys = np.sort(np.minimum(u, v) * n + np.maximum(u, v))
    keep = np.ones(keys.size, dtype=bool)
    keep[1:] = keys[1:] != keys[:-1]
    eu, ev = np.divmod(keys[keep], n)
    # the numpy row bounds come first: a vertex count too large to allocate
    # then fails there, with numpy's one-line MemoryError reason
    lo, up = _row_bounds(ev, n), _row_bounds(eu, n)
    vertex = list(range(n))
    # row w of the adjacency: its lower neighbors (x of the edges (x, w), in
    # ascending order), then its upper ones (y of the edges (w, y))
    lower = _shared_ints(vertex, np.sort(ev * n + eu) % n)
    upper = _shared_ints(vertex, ev)
    adjacency = tuple(tuple(lower[lo[w]:lo[w + 1]] + upper[up[w]:up[w + 1]]) for w in range(n))
    return Graph(n=n, adjacency=adjacency, m=int(eu.size),
                 max_degree=max(map(len, adjacency), default=0), edge_arrays=(eu, ev))


def complete(n: int) -> Graph:
    """Complete graph on ``n`` vertices."""
    if n < 1:
        raise ValueError("complete graph needs n >= 1")
    return _build(n, *np.triu_indices(n, 1))


def disjoint_cliques(count: int, size: int) -> Graph:
    """Vertex-disjoint union of ``count`` cliques, each on ``size`` vertices."""
    if count < 1 or size < 1:
        raise ValueError("disjoint_cliques needs count >= 1 and size >= 1")
    u, v = np.triu_indices(size, 1)
    base = np.arange(count)[:, None] * size
    return _build(count * size, (base + u).ravel(), (base + v).ravel())


def complete_bipartite(a: int, b: int) -> Graph:
    """Complete bipartite graph with parts {0..a-1} and {a..a+b-1}."""
    if a < 1 or b < 1:
        raise ValueError("complete_bipartite needs both part sizes >= 1")
    return _build(a + b, np.repeat(np.arange(a), b), a + np.tile(np.arange(b), a))


def cycle(n: int) -> Graph:
    """Cycle on ``n`` >= 3 vertices."""
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    u = np.arange(n)
    return _build(n, u, (u + 1) % n)


def _draw_hits(rng: np.random.Generator, p: float, start: int, stop: int) -> list[np.ndarray]:
    """The flat pair indices in [start, stop) whose draw is below ``p``, one array per block.

    ``rng`` must stand at word ``start`` of the seeded stream. One draw
    buffer and one mask serve every block of the span.
    """
    buf = np.empty(min(_BLOCK, stop - start))
    mask = np.empty(buf.size, dtype=bool)
    hits = []
    for s in range(start, stop, _BLOCK):
        size = min(_BLOCK, stop - s)
        draws = rng.random(out=buf[:size])
        hits.append(np.flatnonzero(np.less(draws, p, out=mask[:size])) + s)
    return hits


def erdos_renyi(n: int, p: float, seed: int) -> Graph:
    """G(n, p) random graph; deterministic for fixed (n, p, seed).

    Pair (u, v), u < v, is an edge when its uniform draw is below ``p``; the
    draws come in row order (u ascending, then v), one ``random`` double per
    pair. They are taken in blocks of ``_BLOCK``: concatenated ``random``
    calls return the same doubles as one call of the total size.

    The blocks are split into T = min(usable CPUs, blocks) contiguous spans,
    drawn on T threads (numpy's fill, compare and ``flatnonzero`` release the
    GIL). A PCG64 ``random`` double uses exactly one 64-bit word, so pair j
    takes word j of the seeded stream: span 0 draws from the seeded
    generator, and span i > 0 from a copy of its entry state moved forward
    with ``advance`` to the span's first pair. The hits are joined in span
    order, so every T gives the same graph. With T = 1 the blocks are drawn
    inline; otherwise the threads are joined before this returns.
    """
    if n < 1:
        raise ValueError("erdos_renyi needs n >= 1")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability {p} outside [0, 1]")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    rows = np.arange(n - 1)
    starts = rows * (n - 1) - rows * (rows - 1) // 2  # flat index of pair (u, u + 1)
    pairs = n * (n - 1) // 2
    blocks = -(-pairs // _BLOCK)
    threads = min(usable_cpus(), blocks)
    if threads <= 1:
        hits = _draw_hits(rng, p, 0, pairs)
    else:
        bounds = [min(i * blocks // threads * _BLOCK, pairs) for i in range(threads + 1)]
        entry = rng.bit_generator.state
        gens = [rng]
        for first in bounds[1:-1]:
            bits = np.random.PCG64()
            bits.state = entry
            gens.append(np.random.Generator(bits.advance(first)))
        with ThreadPoolExecutor(max_workers=threads) as pool:
            spans = pool.map(_draw_hits, gens, [p] * threads, bounds[:-1], bounds[1:])
            hits = [h for span in spans for h in span]
    flat = np.concatenate(hits) if hits else np.empty(0, dtype=np.int64)
    u = np.searchsorted(starts, flat, side="right") - 1
    return _build(n, u, u + 1 + flat - starts[u])


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
    try:
        pairs = np.array(edges, dtype=np.int64).reshape(-1, 2)
    except OverflowError:
        raise ValueError(f"vertex index {top} too large") from None
    return _build(count, pairs[:, 0], pairs[:, 1])


def to_edge_list(g: Graph) -> str:
    """Render a graph in the format accepted by :func:`from_edge_list`."""
    lines = [f"# vertices {g.n} edges {g.m} max_degree {g.max_degree}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"
