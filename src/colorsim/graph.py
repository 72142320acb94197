"""Immutable simple undirected graphs and the generator families used in experiments.

Vertices are dense 0-based indices so that hot loops can use plain arrays.
All generators return a :class:`Graph`; the only ingestion format is the
whitespace edge list understood by :func:`from_edge_list`.

Every generator produces its candidate edges as numpy endpoint arrays and
hands them to one assembly, ``_build``, the only code that constructs a
``Graph``. It validates, deduplicates and sorts the edges with numpy, keeps
the sorted endpoint arrays as ``Graph.edge_arrays``, and fills the adjacency
tuples with one int object per vertex; the edges are read from
``edge_arrays`` alone, as numpy arrays.
``_build`` reads the caller's endpoint arrays u and v and never writes them.
Beside them it holds at most three edge-long int64 arrays at once, each made
and reworked in place: the sorted pair keys, which become the lower
endpoints eu (a copy only when a duplicate is dropped) once the upper
endpoints ev are read off; then eu and ev, which the graph keeps, and the
sorted reversed keys, which become each row's lower neighbors. The adjacency
is filled a chunk of rows at a time, so its Python lists of bounds and
neighbors stay chunk-sized; only numpy arrays are graph-sized.
``erdos_renyi`` draws its pairs in blocks, so each seeded graph is the one
the row-by-row sampler draws (``tests/test_graph.py`` keeps that sampler as
the reference). The blocks are split into one contiguous span per usable CPU
and the spans are drawn on threads: pair j takes word j of the seeded PCG64
stream, and each span's generator is the graph's seed sequence advanced to
the span's first pair, so the graph does not depend on the number of spans.
``usable_cpus`` is also the bound on ensemble pool width.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field
from itertools import chain

import numpy as np


@dataclass(frozen=True)
class Graph:
    """A simple undirected graph.

    Invariants: no self-loops or duplicate edges, adjacency is symmetric and
    each neighbor list is sorted, and ``max_degree`` equals the true maximum
    adjacency length (0 for an edgeless graph). ``edge_arrays`` holds the
    endpoint arrays (u, v), u < v, of shape (m,), in ascending (u, v) order,
    the graph's one edge list; equality and hashing leave it out, as it
    repeats ``adjacency``.
    """

    n: int
    adjacency: tuple[tuple[int, ...], ...]
    m: int
    max_degree: int
    edge_arrays: tuple[np.ndarray, np.ndarray] = field(compare=False, repr=False)


# draws per erdos_renyi block; larger blocks were no faster and raised the peak memory
_BLOCK = 1 << 16
# rows, and beyond one row neighbors, per chunk of _rows: bounds the Python lists it holds
_CHUNK = 1 << 12
# the first line to_edge_list writes; its N is a lower bound on the vertex count
_HEADER = re.compile(r"# vertices ([0-9]+)\b")


def usable_cpus() -> int:
    """The number of CPUs this process may run on (its affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _row_bounds(rows: np.ndarray, n: int) -> np.ndarray:
    """n + 1 offsets: where each row's block starts in an array ordered by row, then its end."""
    counts = np.bincount(rows, minlength=n)
    bounds = np.zeros(n + 1, dtype=np.int64)
    counts.cumsum(out=bounds[1:])
    return bounds


def _rows(n: int, lower: np.ndarray, lo: np.ndarray, upper: np.ndarray, up: np.ndarray):
    """Yield the adjacency rows in order, one list per chunk of rows.

    Row w is lower[lo[w]:lo[w + 1]] then upper[up[w]:up[w + 1]], as a tuple
    of the int objects in one list ``range(n)``: ``tolist()`` alone would
    make a new int object for every entry. A chunk is at most ``_CHUNK``
    rows and, when it has more than one row, at most ``_CHUNK`` neighbors,
    so the Python lists of bounds and neighbors stay chunk-sized on any graph.
    """
    vertex = list(range(n))
    ends = lo + up  # where each row starts among all rows' neighbors, then their end
    s = 0
    while s < n:
        e = int(ends.searchsorted(ends[s] + _CHUNK, side="right")) - 1
        e = min(max(e, s + 1), s + _CHUNK)
        lb = (lo[s:e + 1] - lo[s]).tolist()
        ub = (up[s:e + 1] - up[s]).tolist()
        lw = list(map(vertex.__getitem__, lower[lo[s]:lo[e]].tolist()))
        uw = list(map(vertex.__getitem__, upper[up[s]:up[e]].tolist()))
        yield [tuple(lw[a:b] + uw[c:d]) for a, b, c, d in zip(lb, lb[1:], ub, ub[1:])]
        s = e


def _build(n: int, u: np.ndarray, v: np.ndarray) -> Graph:
    """Assemble a Graph from candidate edges (u[i], v[i]), deduplicating as required.

    ``u`` and ``v`` are read, never written: ``np.asarray`` returns the
    caller's own array when it is already int64. The int64 pair keys below
    stay under n*n, so a larger vertex count is refused before anything is
    allocated.
    """
    if n * n >= 1 << 63:
        raise ValueError(f"vertex count {n} too large: pair keys need n*n < 2**63")
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    bad = np.flatnonzero((u == v) | (u < 0) | (u >= n) | (v < 0) | (v >= n))
    if bad.size:
        a, b = int(u[bad[0]]), int(v[bad[0]])
        if a == b:
            raise ValueError(f"self-loop at vertex {a}")
        raise ValueError(f"edge ({a}, {b}) outside vertex range 0..{n - 1}")
    # one key per unordered pair, min * n + max, made in place as
    # min * (n - 1) + u + v; the sorted keys are the edges in (min, max) order
    keys = np.minimum(u, v)
    keys *= n - 1
    keys += u
    keys += v
    keys.sort()
    keep = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    # the kept keys (copied only when a duplicate is dropped) become eu in place
    eu = keys if keep.all() else keys[keep]
    del keys, keep
    ev = eu % n
    eu //= n
    # the numpy row bounds come first: a vertex count too large to allocate
    # then fails there, with numpy's one-line MemoryError reason
    lo, up = _row_bounds(ev, n), _row_bounds(eu, n)
    # row w of the adjacency: its lower neighbors, x of the edges (x, w) in
    # ascending order (the reversed keys w * n + x, sorted), then its upper
    # ones, y of the edges (w, y), which ev already holds in row order
    back = ev * n
    back += eu
    back.sort()
    back %= n
    adjacency = tuple(chain.from_iterable(_rows(n, back, lo, ev, up)))
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
    takes word j of the seeded stream: each span draws from a generator
    seeded with ``SeedSequence(seed)`` and moved with ``advance`` to the
    span's first pair. The hits are joined in span order, so every T gives
    the same graph. With T = 1 the one span is drawn inline; otherwise the
    threads are joined before this returns.
    """
    if n < 1:
        raise ValueError("erdos_renyi needs n >= 1")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability {p} outside [0, 1]")
    seq = np.random.SeedSequence(seed)
    rows = np.arange(n - 1)
    starts = rows * (n - 1) - rows * (rows - 1) // 2  # flat index of pair (u, u + 1)
    pairs = n * (n - 1) // 2
    blocks = -(-pairs // _BLOCK)
    threads = max(1, min(usable_cpus(), blocks))
    bounds = [min(i * blocks // threads * _BLOCK, pairs) for i in range(threads + 1)]
    gens = [np.random.Generator(np.random.PCG64(seq).advance(first)) for first in bounds[:-1]]
    if threads == 1:
        hits = _draw_hits(gens[0], p, 0, pairs)
    else:
        from concurrent.futures import ThreadPoolExecutor  # loaded only when threads draw
        with ThreadPoolExecutor(max_workers=threads) as pool:
            spans = pool.map(_draw_hits, gens, [p] * threads, bounds[:-1], bounds[1:])
            hits = [h for span in spans for h in span]
    flat = np.concatenate(hits) if hits else np.empty(0, dtype=np.int64)
    del hits
    # pair j of row u is the edge (u, u + 1 + j - starts[u]); flat becomes v in place
    u = np.searchsorted(starts, flat, side="right")
    u -= 1
    flat -= starts[u]
    flat += u
    flat += 1
    return _build(n, u, flat)


def from_edge_list(text: str, n: int | None = None) -> Graph:
    """Parse a whitespace edge list: one "u v" pair per line, 0-based indices.

    Blank lines and lines starting with '#' are ignored; duplicate edges are
    deduplicated. The vertex count is the maximum index seen plus one, unless
    ``n`` or the header ``# vertices N`` that :func:`to_edge_list` writes on
    the first line is larger (the edges alone cannot express trailing
    isolated vertices). An index at or above the largest of twice the number
    of edge lines, ``n`` and N is refused before anything is allocated, so a
    stray index cannot size the graph.
    """
    if n is not None and n < 1:
        raise ValueError("file graph needs n >= 1")
    lines = text.splitlines()
    header = _HEADER.match(lines[0].strip()) if lines else None
    floor = max(n or 0, int(header[1]) if header else 0)
    edges: list[tuple[int, int]] = []
    top = top_line = -1
    for lineno, raw in enumerate(lines, start=1):
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
        if max(u, v) > top:
            top, top_line = max(u, v), lineno
    bound = max(2 * len(edges), floor)
    if top >= bound:
        raise ValueError(f"line {top_line}: vertex index {top} too large: the limit is {bound}, "
                         f"the largest of twice the edge lines, --n and the '# vertices' header")
    count = max(top + 1, floor)
    try:
        pairs = np.array(edges, dtype=np.int64).reshape(-1, 2)
        return _build(count, pairs[:, 0], pairs[:, 1])
    except OverflowError:
        raise ValueError(f"vertex count {count} too large") from None


def to_edge_list(g: Graph) -> str:
    """Render a graph in the format accepted by :func:`from_edge_list`."""
    lines = [f"# vertices {g.n} edges {g.m} max_degree {g.max_degree}"]
    eu, ev = g.edge_arrays
    lines.extend(f"{u} {v}" for u, v in zip(eu.tolist(), ev.tolist()))
    return "\n".join(lines) + "\n"
