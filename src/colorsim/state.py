"""Coloring state: the colors plus the conflict data the dynamics read.

``recolor`` maintains only what a step reads, touching only the recolored
vertex and its neighbors: the conflict degree of every vertex (its number of
same-colored neighbors) and the dense conflicted set used for O(1) uniform
picks.

The potential's three terms are derived together from the colors when first
read after a change, and cached until the next recolor:

* ``mono_edge_count``  edges whose endpoints currently share a color;
* ``iso_edge_count``   monochromatic components that consist of a single edge
  (an "isolated pair": both endpoints have exactly one same-colored neighbor);
* ``e_ip``             graph edges joining an isolated-pair endpoint to a
  properly colored vertex;
* ``phi_num``          100*D*mono + 10*D*iso + e_ip with D = max degree, so the
  progress potential mono + iso/10 + e_ip/(100*D) equals phi_num/(100*D)
  exactly and all comparisons can stay in integer arithmetic. ``potential``
  is that rational as one integer pair, the only form of it in the package.

One numpy pass over the graph's edge arrays builds the conflict data (at
construction and after ``apply_batch``) and the pair data (from the same
pass at construction, else on read).
``recount_change`` gives the change of (mono, iso, e_ip) that recoloring one
vertex would cause without applying it, looking only near that vertex: its
old- and new-colored neighbors, their pair partners and the neighbors of
every vertex whose status changes; ``dynamics.Trace`` follows the potential
with it step by step. ``outcome_classes`` gives the same changes for all k
colors of a vertex at once, one class per neighbor color plus one for the
colors no neighbor carries, each with the number of colors it stands for; the
exact audit sums them. Both share one private recount, which takes the counts of
properly colored and isolated-pair neighbors of the vertices it changes from
a lookup. ``neighbor_counts`` is the one local count: ``recount_change`` and
the audit's isolated-pair bound read it, while ``outcome_classes`` reads the
same counts from a pair table derived once per coloring from the masks of
the pair data. The side the vertex leaves is tallied once per vertex, and
each class adds only the side it enters.
``monochromatic_components`` is the one walk over all the monochromatic
components, for the audit; ``component_view``'s step walks only the component
of the vertex it draws, with ``same_color_reach``.
The independent from-scratch oracle that tests hold all of this against
lives in ``tests/oracle.py``, outside the package.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .graph import Graph


def phi_numerator(max_degree: int, mono: int, iso: int, e_ip: int) -> int:
    """The integer numerator 100*D*mono + 10*D*iso + e_ip of the potential."""
    return 100 * max_degree * mono + 10 * max_degree * iso + e_ip


def potential(max_degree: int, phi_num: int) -> tuple[int, int]:
    """The potential phi_num/(100*D) as an integer pair; 0 on an edgeless graph (phi_num 0)."""
    return phi_num, 100 * max(max_degree, 1)


@dataclass(frozen=True)
class Component:
    """One connected component of the subgraph of monochromatic edges."""

    vertices: tuple[int, ...]
    edge_count: int

    @property
    def size(self) -> int:
        return len(self.vertices)

    @property
    def is_isolated_edge(self) -> bool:
        return len(self.vertices) == 2


class ColoringState:
    """Mutable coloring of an immutable graph plus derived conflict data.

    Owned by exactly one run at a time; distinct states may share the graph.
    ``conflicted`` is the dense list of conflicted vertices, read-only outside
    this class. Its order fixes which vertex a uniform pick draws (see
    ``recolor``), and ``apply_batch`` replaces the list, so read the attribute
    again after any change.
    """

    __slots__ = (
        "graph",
        "k",
        "_color",
        "_conflict_deg",
        "conflicted",
        "_conf_pos",
        "_pairs",
    )

    def __init__(self, graph: Graph, k: int, colors: list[int]):
        if not 1 <= k < 2**32:  # a color is 1 + draw(k), and draw takes bounds below 2**32
            raise ValueError(f"palette size k must be in 1..2**32 - 1, got {k}")
        if len(colors) != graph.n:
            raise ValueError(f"expected {graph.n} colors, got {len(colors)}")
        if colors and not 1 <= min(colors) <= max(colors) <= k:
            v = next(v for v, c in enumerate(colors) if not 1 <= c <= k)
            raise ValueError(f"vertex {v}: color {colors[v]} outside 1..{k}")
        self.graph = graph
        self.k = k
        self._color = list(colors)
        # every reader of a new state reads phi first: derive its terms from this one scan
        self._pair_counts(self._refresh_conflicts())

    # -- derivation from the colors ------------------------------------------

    def _scan_edges(self) -> tuple[np.ndarray, np.ndarray]:
        """Monochromatic-edge mask and per-vertex conflict degrees, in numpy."""
        g = self.graph
        eu, ev = g.edge_arrays
        col = np.asarray(self._color, dtype=np.int64)
        mono = col[eu] == col[ev]
        cd = np.bincount(eu[mono], minlength=g.n) + np.bincount(ev[mono], minlength=g.n)
        return mono, cd

    def _refresh_conflicts(self) -> tuple[np.ndarray, np.ndarray]:
        """Rebuild the conflict data and drop the pair record; return the scan."""
        mono, cd = self._scan_edges()
        self._conflict_deg = cd.tolist()
        dense = cd.nonzero()[0].tolist()
        self.conflicted = dense
        pos = [-1] * self.graph.n
        for i, u in enumerate(dense):
            pos[u] = i
        self._conf_pos = pos
        self._pairs = None
        return mono, cd

    def _pair_counts(self, scan: tuple[np.ndarray, np.ndarray] | None = None) -> tuple:
        """(mono, iso, e_ip, proper, in_pair, table) of this coloring, derived once per coloring.

        Derived from ``scan``, the ``_scan_edges`` of this coloring, when one is
        given. ``proper`` and ``in_pair`` are the numpy vertex masks behind the
        counts; ``table`` is None until ``_pair_table`` builds it from them.
        """
        if self._pairs is None:
            eu, ev = self.graph.edge_arrays
            mono, cd = scan or self._scan_edges()
            iso = mono & (cd[eu] == 1) & (cd[ev] == 1)
            in_pair = np.zeros(self.graph.n, dtype=bool)
            in_pair[eu[iso]] = True
            in_pair[ev[iso]] = True
            proper = cd == 0
            e_ip = int(np.count_nonzero((in_pair[eu] & proper[ev]) | (proper[eu] & in_pair[ev])))
            self._pairs = (int(np.count_nonzero(mono)), int(np.count_nonzero(iso)), e_ip,
                           proper, in_pair, None)
        return self._pairs

    def _pair_table(self) -> list[tuple[int, int]]:
        """Every vertex's ``neighbor_counts`` now, as one list.

        Only ``outcome_classes`` reads the table, so the exact audit alone
        derives it, at most once per coloring and from the masks of the pair
        counts. Runs and ``recount_change`` never do: their cost stays local.
        """
        *counts, proper, in_pair, table = self._pair_counts()
        if table is None:
            n = self.graph.n
            eu, ev = self.graph.edge_arrays
            proper_near, paired_near = (
                np.bincount(eu[mask[ev]], minlength=n) + np.bincount(ev[mask[eu]], minlength=n)
                for mask in (proper, in_pair))
            table = list(zip(proper_near.tolist(), paired_near.tolist()))
            self._pairs = (*counts, proper, in_pair, table)
        return table

    def copy(self) -> "ColoringState":
        new = ColoringState.__new__(ColoringState)
        new.graph = self.graph
        new.k = self.k
        new._color = self._color.copy()
        new._conflict_deg = self._conflict_deg.copy()
        new.conflicted = self.conflicted.copy()
        new._conf_pos = self._conf_pos.copy()
        new._pairs = self._pairs
        return new

    # -- read access -------------------------------------------------------

    @property
    def colors(self) -> tuple[int, ...]:
        return tuple(self._color)

    @property
    def mono_edge_count(self) -> int:
        return self._pair_counts()[0]

    @property
    def iso_edge_count(self) -> int:
        return self._pair_counts()[1]

    @property
    def e_ip(self) -> int:
        return self._pair_counts()[2]

    @property
    def phi_num(self) -> int:
        return phi_numerator(self.graph.max_degree, *self._pair_counts()[:3])

    def conflicted_vertices(self) -> tuple[int, ...]:
        return tuple(sorted(self.conflicted))

    def neighbor_counts(self, u: int) -> tuple[int, int]:
        """The (properly colored, isolated-pair) neighbor counts of ``u`` now, found locally."""
        color = self._color
        cd = self._conflict_deg
        adjacency = self.graph.adjacency
        proper = paired = 0
        for x in adjacency[u]:
            dx = cd[x]
            if dx == 0:
                proper += 1
            elif dx == 1:  # paired iff its one same-colored neighbor has no other
                cx = color[x]
                for y in adjacency[x]:
                    if color[y] == cx:
                        paired += cd[y] == 1
                        break
        return proper, paired

    def neighbor_colors(self, v: int) -> set[int]:
        color = self._color
        return {color[w] for w in self.graph.adjacency[v]}

    # -- conflicted set maintenance ----------------------------------------

    def _conf_add(self, v: int) -> None:
        self._conf_pos[v] = len(self.conflicted)
        self.conflicted.append(v)

    def _conf_remove(self, v: int) -> None:
        dense, pos = self.conflicted, self._conf_pos
        i = pos[v]
        last = dense[-1]
        dense[i] = last
        pos[last] = i
        dense.pop()
        pos[v] = -1

    # -- recoloring ---------------------------------------------------------

    def recolor(self, v: int, c: int) -> None:
        """Set the color of ``v`` to ``c`` and update the conflict data.

        Work is confined to v and its neighbors, O(degree(v)). The cached
        pair record, the potential's three terms, is dropped and derived again
        when next read.
        """
        if not 0 <= v < self.graph.n:
            raise ValueError(f"vertex {v} out of range")
        if not 1 <= c <= self.k:
            raise ValueError(f"color {c} outside 1..{self.k}")
        color = self._color
        old = color[v]
        if c == old:
            return
        cd = self._conflict_deg
        dec: list[int] = []  # neighbors losing their monochromatic edge to v
        inc: list[int] = []  # neighbors gaining one
        for w in self.graph.adjacency[v]:
            cw = color[w]
            if cw == old:
                dec.append(w)
            elif cw == c:
                inc.append(w)
        # removals before additions, then v: this fixes the dense order, and
        # with it which vertex every later uniform pick draws
        color[v] = c
        for w in dec:
            nw = cd[w] - 1
            cd[w] = nw
            if nw == 0:
                self._conf_remove(w)
        for w in inc:
            if cd[w] == 0:
                self._conf_add(w)
            cd[w] += 1
        old_cd_v = cd[v]
        new_cd_v = len(inc)
        cd[v] = new_cd_v
        if old_cd_v == 0 and new_cd_v > 0:
            self._conf_add(v)
        elif old_cd_v > 0 and new_cd_v == 0:
            self._conf_remove(v)
        self._pairs = None

    def recount_change(self, v: int, c: int) -> tuple[int, int, int]:
        """Change of (mono, iso, e_ip) that ``recolor(v, c)`` would cause.

        The state is not modified. Only v, its neighbors of the old and the
        new color and the pair partners of those are inspected, plus, for
        each of them whose status changes, its neighbors and their partners;
        no full recount is made and no pair table is derived.
        """
        color = self._color
        old = color[v]
        if c == old:
            return 0, 0, 0
        adjacency = self.graph.adjacency
        dec = [w for w in adjacency[v] if color[w] == old]
        inc = [w for w in adjacency[v] if color[w] == c]
        return self._recount(v, dec, [inc], self.neighbor_counts)[0]

    def outcome_classes(self, v: int) -> list[tuple[int, tuple[int, int, int]]]:
        """The distinct outcomes of recoloring ``v``, as (weight, change) pairs.

        ``change`` is the ``recount_change`` of every color the class holds
        and ``weight`` the number of those colors. Each color carried by a
        neighbor, other than v's own, is a class of weight 1. The colors no
        neighbor carries, other than v's own, all give the same change and
        form one class, present when there is at least one such color. The
        no-op outcome (v's own color) changes nothing and has no class, so
        the weights sum to k - 1. One pass over v's neighbors groups them by
        color, and one recount serves every class: the side v leaves and v
        itself are tallied once, then each class adds only the side it
        enters. Neighbor counts come from ``_pair_table``, derived once per
        coloring. The state is not modified.
        """
        color = self._color
        old = color[v]
        groups: dict[int, list[int]] = {}
        for w in self.graph.adjacency[v]:
            groups.setdefault(color[w], []).append(w)
        dec = groups.pop(old, [])
        incs = list(groups.values())
        free = self.k - 1 - len(incs)
        if free > 0:
            incs.append([])
        changes = self._recount(v, dec, incs, self._pair_table().__getitem__)
        return [(free if not inc else 1, change) for inc, change in zip(incs, changes)]

    def _recount(self, v: int, dec: list[int], incs: list[list[int]],
                 around: Callable[[int], tuple[int, int]]) -> list[tuple[int, int, int]]:
        """Changes of (mono, iso, e_ip) when ``v`` leaves its color, one per new color.

        ``dec`` holds v's neighbors of its current color. Each list in
        ``incs`` holds v's neighbors of one new color, which differs from the
        current one, and is empty for a color no neighbor carries.
        A vertex's status is 1 if it is properly colored, 2 if it is in an
        isolated pair and 0 otherwise, so an edge counts toward e_ip iff its
        endpoint statuses multiply to 2. ``around(u)`` counts u's neighbors
        of status 1 and of status 2 now.

        The vertices whose status changes are v, the leaving side (``dec``
        and the pair partners whose status changes with them) and the
        entering side (v's neighbors of the new color and their partners).
        The leaving side does not depend on the new color and is tallied
        once, and so is v, once for each status it takes after; each new
        color then tallies only its entering side.
        """
        color = self._color
        cd = self._conflict_deg
        adjacency = self.graph.adjacency
        n_dec = len(dec)

        def partner(u: int) -> int:
            """The neighbor sharing the current color of ``u``, other than v."""
            cu = color[u]
            for x in adjacency[u]:
                if color[x] == cu and x != v:
                    return x
            raise AssertionError(f"vertex {u} has no monochromatic neighbor")

        def tally(moves: list[tuple[int, int, int]],
                  fixed: list[tuple[int, int, int]]) -> tuple[int, int]:
            """The changes of (2·iso, e_ip) that the (vertex, before, after)
            statuses in ``moves`` add to those in ``fixed``.

            Each vertex adds the change on its edges as if no neighbor
            changed, from its two ``around`` counts; each edge to an earlier
            move or to ``fixed`` is then corrected, so it counts once.
            """
            d_pair = d_eip = 0
            done = list(fixed)
            for u, b, a in moves:
                proper, paired = around(u)
                d_pair += (a == 2) - (b == 2)
                d_eip += proper * ((a == 2) - (b == 2)) + paired * ((a == 1) - (b == 1))
                for x, xb, xa in done:
                    if x in adjacency[u]:
                        d_eip += (a * xa == 2) - (a * xb == 2) - (b * xa == 2) + (b * xb == 2)
                done.append((u, b, a))
            return d_pair, d_eip

        # (vertex, status before, status after) of every changed vertex v leaves
        leaving = []
        for w in dec:
            dw = cd[w]
            before = 2 if dw == 1 and n_dec == 1 else 0
            after = 1 if dw == 1 else 0
            if dw == 2:  # w keeps exactly one same-colored neighbor x
                x = partner(w)
                if x in dec:
                    if cd[x] == 2:
                        after = 2
                elif cd[x] == 1:
                    after = 2
                    leaving.append((x, 0, 2))
            if before != after:
                leaving.append((w, before, after))
        base_pair, base_eip = tally(leaving, [])
        v_before = 1 if n_dec == 0 else 2 if n_dec == 1 and cd[dec[0]] == 1 else 0
        by_v_after: dict[int, tuple[int, int]] = {}

        changes = []
        for inc in incs:
            n_inc = len(inc)
            # v turns properly colored, joins an isolated pair, or neither
            v_after = 1 if n_inc == 0 else 2 if n_inc == 1 and cd[inc[0]] == 0 else 0
            if v_after not in by_v_after:
                by_v_after[v_after] = tally([(v, v_before, v_after)], leaving)
            entering = []  # and of every changed vertex on the side v enters
            for w in inc:
                dw = cd[w]
                before = 1 if dw == 0 else 0
                if dw == 1:  # w leaves its one same-colored neighbor x
                    x = partner(w)
                    if cd[x] == 1:  # and their isolated pair
                        before = 2
                        if x not in inc:
                            entering.append((x, 2, 0))
                after = 2 if dw == 0 and n_inc == 1 else 0
                if before != after:
                    entering.append((w, before, after))
            v_pair, v_eip = by_v_after[v_after]
            d_pair, d_eip = tally(entering, [(v, v_before, v_after), *leaving])
            changes.append((n_inc - n_dec, (base_pair + v_pair + d_pair) // 2,
                            base_eip + v_eip + d_eip))
        return changes

    # -- batch recoloring (simultaneous updates) ----------------------------

    def apply_batch(self, vertices, new_colors) -> None:
        """Assign colors to a sequence of vertices at once, then rebuild the conflict data.

        Used by the simultaneous-recoloring dynamics, where the whole frozen
        set changes in one round and an incremental walk would touch the full
        graph anyway. The whole batch is checked before any vertex changes.
        """
        if len(vertices) != len(new_colors):
            raise ValueError(f"batch of {len(vertices)} vertices and {len(new_colors)} colors")
        if vertices:
            low, high = min(vertices), max(vertices)
            if low < 0 or high >= self.graph.n:
                raise ValueError(f"vertex {low if low < 0 else high} out of range")
        if new_colors:
            low, high = min(new_colors), max(new_colors)
            if low < 1 or high > self.k:
                raise ValueError(f"color {low if low < 1 else high} outside 1..{self.k}")
        color = self._color
        for v, c in zip(vertices, new_colors):
            color[v] = c
        self._refresh_conflicts()

    def monochromatic_components(self) -> tuple[Component, ...]:
        """Connected components of the monochromatic-edge subgraph, by least vertex.

        The one walk over all the components, for the audit. Each has at
        least two vertices of one color and sorted members, and the sizes
        sum to ``len(conflicted)``.
        """
        seen: set[int] = set()
        walk = [self.same_color_reach(root, seen)
                for root in sorted(self.conflicted) if root not in seen]
        cd = self._conflict_deg
        return tuple(Component(tuple(m), sum(cd[u] for u in m) // 2) for m in walk)

    def same_color_reach(self, root: int, seen: set[int]) -> list[int]:
        """Sorted vertices reachable from ``root`` over same-colored edges, added to ``seen``."""
        color = self._color
        adjacency = self.graph.adjacency
        cu = color[root]
        seen.add(root)
        members = [root]
        queue = [root]
        while queue:
            u = queue.pop()
            for w in adjacency[u]:
                if color[w] == cu and w not in seen:
                    seen.add(w)
                    members.append(w)
                    queue.append(w)
        members.sort()
        return members


def init_random(g: Graph, k: int, rng) -> ColoringState:
    """Color every vertex independently and uniformly from 1..k.

    Consumes one bulk draw of ``n`` integers, in ascending vertex order.
    """
    if not 1 <= k < 2**32:
        raise ValueError(f"palette size k must be in 1..2**32 - 1, got {k}")
    colors = rng.integers(1, k + 1, size=g.n)
    return ColoringState(g, k, colors.tolist())
