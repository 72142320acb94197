import os
import threading
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from colorsim import graph
from colorsim.graph import _BLOCK, _build
from colorsim import (
    complete,
    complete_bipartite,
    cycle,
    disjoint_cliques,
    erdos_renyi,
    from_edge_list,
    to_edge_list,
)
from oracle import edges


def check_invariants(g):
    # adjacency symmetry, sortedness, and a recomputed max degree
    for u, neighbors in enumerate(g.adjacency):
        assert list(neighbors) == sorted(set(neighbors))
        assert u not in neighbors
        for v in neighbors:
            assert u in g.adjacency[v]
    assert g.max_degree == max((len(a) for a in g.adjacency), default=0)
    assert g.m == sum(len(a) for a in g.adjacency) // 2
    # edge_arrays lists each adjacency pair once, in ascending (u, v) order
    assert edges(g) == tuple((u, v) for u, row in enumerate(g.adjacency) for v in row if u < v)


def reference_erdos_renyi(n, p, seed):
    """(n, adjacency, edges, m, max_degree) of G(n, p), sampled row by row in Python.

    The oracle for the blocked numpy sampler: one ``random(n - 1 - u)`` call per
    row u, edges collected in row order and neighbor lists assembled in a loop.
    """
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    edges = []
    for u in range(n - 1):
        draws = rng.random(n - 1 - u)
        edges.extend((u, u + 1 + int(off)) for off in np.nonzero(draws < p)[0])
    neighbors = [[] for _ in range(n)]
    for u, v in edges:
        neighbors[u].append(v)
        neighbors[v].append(u)
    adjacency = tuple(tuple(sorted(ns)) for ns in neighbors)
    return n, adjacency, tuple(edges), len(edges), max(map(len, adjacency), default=0)


class TestComplete:
    def test_single_vertex(self):
        g = complete(1)
        assert g.m == 0 and g.max_degree == 0

    @pytest.mark.parametrize("n,m", [(4, 6), (16, 120)])
    def test_edge_counts(self, n, m):
        g = complete(n)
        assert g.m == m and g.max_degree == n - 1
        check_invariants(g)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            complete(0)


class TestDisjointCliques:
    def test_two_triangles(self):
        g = disjoint_cliques(2, 3)
        assert g.n == 6 and g.m == 6 and g.max_degree == 2
        # no edges across the cliques
        assert all(max(u, v) < 3 or min(u, v) >= 3 for u, v in edges(g))

    def test_degenerate_single_clique(self):
        assert edges(disjoint_cliques(1, 5)) == edges(complete(5))

    def test_grid_count(self):
        g = disjoint_cliques(10, 8)
        assert g.n == 80 and g.m == 280
        check_invariants(g)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            disjoint_cliques(0, 3)
        with pytest.raises(ValueError):
            disjoint_cliques(3, 0)


class TestCompleteBipartite:
    def test_single_edge(self):
        g = complete_bipartite(1, 1)
        assert g.m == 1 and g.max_degree == 1

    def test_counts(self):
        g = complete_bipartite(3, 5)
        assert g.m == 15 and g.max_degree == 5
        # part structure: no edges inside {0..2} or {3..7}
        assert all(u < 3 <= v for u, v in edges(g))
        check_invariants(g)

    def test_k22_is_four_cycle(self):
        g = complete_bipartite(2, 2)
        assert g.n == 4 and g.m == 4 and all(len(a) == 2 for a in g.adjacency)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            complete_bipartite(0, 2)


class TestCycle:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_counts(self, n):
        g = cycle(n)
        assert g.n == n and g.m == n and g.max_degree == 2
        check_invariants(g)

    def test_rejects_small(self):
        with pytest.raises(ValueError):
            cycle(2)


class TestErdosRenyi:
    def test_p_zero_edgeless(self):
        assert erdos_renyi(10, 0.0, 3).m == 0

    def test_p_one_complete(self):
        assert edges(erdos_renyi(10, 1.0, 3)) == edges(complete(10))

    def test_deterministic(self):
        assert edges(erdos_renyi(50, 0.2, 7)) == edges(erdos_renyi(50, 0.2, 7))

    def test_seed_matters(self):
        assert edges(erdos_renyi(50, 0.5, 1)) != edges(erdos_renyi(50, 0.5, 2))

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            erdos_renyi(5, 1.5, 0)

    def test_rejects_no_vertices(self):
        with pytest.raises(ValueError, match="n >= 1"):
            erdos_renyi(0, 0.5, 0)

    @pytest.mark.parametrize("n", [1, 2, 3, 50, 800])
    @pytest.mark.parametrize("p", [0.0, 5e-4, 0.1, 0.3, 0.7, 1.0, 1 / 3])
    def test_matches_row_by_row_reference(self, n, p):
        assert 800 * 799 // 2 > 2 * _BLOCK  # n = 800 spans several draw blocks
        for seed in (0, 7, 2**40 + 3):
            g = erdos_renyi(n, p, seed)
            assert (g.n, g.adjacency, edges(g), g.m, g.max_degree) == reference_erdos_renyi(n, p, seed)

    # n = 363: 65703 pairs, one full block and a 167-pair last span
    @pytest.mark.parametrize("n,widths", [(800, [2, 3, 5, 4]), (363, [2, 2, 2, 2])])
    def test_same_graph_for_any_thread_count(self, n, widths, monkeypatch):
        made = []

        class RecordingPool(ThreadPoolExecutor):
            def __init__(self, max_workers):
                made.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr("concurrent.futures.ThreadPoolExecutor", RecordingPool)
        want = reference_erdos_renyi(n, 0.05, 11)
        # CPU masks of 1, 2, 3 and 7, then no affinity call: os.cpu_count() decides
        for cpus in (1, 2, 3, 7, None):
            if cpus is None:
                monkeypatch.delattr(os, "sched_getaffinity", raising=False)
                monkeypatch.setattr(os, "cpu_count", lambda: 4)
            else:
                monkeypatch.setattr(os, "sched_getaffinity", lambda pid, c=cpus: set(range(c)),
                                    raising=False)
            before = threading.active_count()
            g = erdos_renyi(n, 0.05, 11)
            assert threading.active_count() == before
            assert (g.n, g.adjacency, edges(g), g.m, g.max_degree) == want
        # one CPU draws inline; otherwise one thread per span, no more spans than blocks
        assert made == widths


@st.composite
def candidate_edges(draw):
    """(n, pairs, chunk): pairs of distinct vertices below n, some repeated in either orientation."""
    n = draw(st.integers(min_value=1, max_value=40))
    vertex = st.integers(min_value=0, max_value=n - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex).filter(lambda p: p[0] != p[1]),
                          max_size=120)) if n > 1 else []
    again = draw(st.lists(st.tuples(st.sampled_from(pairs), st.booleans()), max_size=30)) if pairs else []
    pairs += [(b, a) if flip else (a, b) for (a, b), flip in again]
    return n, draw(st.permutations(pairs)), draw(st.integers(min_value=1, max_value=8))


class TestBuild:
    @given(candidate_edges())
    def test_matches_a_plain_python_reference(self, case):
        n, pairs, chunk = case
        u = np.array([a for a, _ in pairs], dtype=np.int64)
        v = np.array([b for _, b in pairs], dtype=np.int64)
        given_u, given_v = u.copy(), v.copy()
        # a small chunk makes _rows cut the rows into many chunks
        with mock.patch.object(graph, "_CHUNK", chunk):
            g = _build(n, u, v)
        neighbors = [set() for _ in range(n)]
        for a, b in pairs:
            neighbors[a].add(b)
            neighbors[b].add(a)
        assert g.adjacency == tuple(tuple(sorted(row)) for row in neighbors)
        edges = sorted({(min(a, b), max(a, b)) for a, b in pairs})
        eu, ev = g.edge_arrays
        assert eu.dtype == ev.dtype == np.int64
        assert list(zip(eu.tolist(), ev.tolist())) == edges and g.m == len(edges)
        # the caller's int64 arrays reach _build as they are, and are not written
        assert np.array_equal(u, given_u) and np.array_equal(v, given_v)
        check_invariants(g)

    def test_deduplicates_both_orientations(self):
        g = _build(3, np.array([0, 1, 2, 0]), np.array([1, 0, 1, 1]))
        assert edges(g) == ((0, 1), (1, 2)) and g.adjacency == ((1,), (0, 2), (1,))
        check_invariants(g)

    def test_self_loop(self):
        with pytest.raises(ValueError, match="self-loop at vertex 1"):
            _build(3, np.array([1]), np.array([1]))

    @pytest.mark.parametrize("u,v", [(0, 3), (-1, 2), (5, 1)])
    def test_out_of_range(self, u, v):
        with pytest.raises(ValueError, match=rf"edge \({u}, {v}\) outside vertex range 0..2"):
            _build(3, np.array([u]), np.array([v]))

    def test_reports_the_first_bad_edge(self):
        with pytest.raises(ValueError, match="self-loop at vertex 2"):
            _build(3, np.array([0, 2, 0]), np.array([1, 2, 7]))

    def test_edge_arrays_in_ascending_order(self):
        assert edges(complete(5)) == tuple((u, v) for u in range(5) for v in range(u + 1, 5))

    # 3037000499**2 < 2**63 <= 3037000500**2
    @pytest.mark.parametrize("n,u,v", [(3_037_000_500, 0, 1),
                                       (4_000_000_000, 3_999_999_998, 3_999_999_999)])
    def test_refuses_a_vertex_count_whose_pair_keys_wrap(self, n, u, v):
        with pytest.raises(ValueError, match=rf"^vertex count {n} too large: pair keys need "
                                             rf"n\*n < 2\*\*63$"):
            _build(n, [u], [v])

    def test_no_vertices(self):
        g = from_edge_list("")
        assert (g.n, g.m, g.max_degree, g.adjacency) == (0, 0, 0, ())
        check_invariants(g)


class TestEdgeList:
    def test_path(self):
        g = from_edge_list("0 1\n1 2")
        assert g.n == 3 and g.m == 2 and g.max_degree == 2

    def test_deduplicates(self):
        assert from_edge_list("0 1\n0 1").m == 1

    def test_self_loop_cites_line(self):
        with pytest.raises(ValueError, match="line 1"):
            from_edge_list("0 0")

    def test_non_integer_cites_line(self):
        with pytest.raises(ValueError, match="line 2"):
            from_edge_list("0 1\n1 x")

    def test_index_beyond_int64_is_a_value_error(self):
        with pytest.raises(ValueError, match="too large"):
            from_edge_list("0 1\n0 99999999999999999999")

    def test_comments_and_blanks_ignored(self):
        g = from_edge_list("# header\n\n0 1\n")
        assert g.m == 1

    def test_explicit_vertex_count(self):
        g = from_edge_list("0 1", n=5)
        assert g.n == 5 and len(g.adjacency[4]) == 0

    def test_index_far_beyond_the_edges_is_refused(self):
        # one edge line allows indices below 2; this one would size 20,000,001 vertices
        with pytest.raises(ValueError, match=r"^line 1: vertex index 20000000 .*--n") as exc:
            from_edge_list("0 20000000")
        assert "\n" not in str(exc.value)

    def test_limit_is_twice_the_edge_lines(self):
        assert from_edge_list("0 3\n1 2").n == 4
        assert from_edge_list("0 3\n0 3").n == 4  # a duplicate line still counts
        with pytest.raises(ValueError, match="^line 2: vertex index 4 "):
            from_edge_list("0 1\n0 4")

    @pytest.mark.parametrize("n", [0, -5])
    def test_refuses_a_vertex_count_below_1(self, n):
        with pytest.raises(ValueError, match=r"^file graph needs n >= 1$"):
            from_edge_list("0 1", n=n)

    def test_n_lifts_the_limit(self):
        assert from_edge_list("0 9", n=10).n == 10
        with pytest.raises(ValueError, match="line 1"):
            from_edge_list("0 10", n=10)

    def test_header_is_a_lower_bound_on_the_vertex_count(self):
        g = from_edge_list("# vertices 12 edges 1 max_degree 1\n0 9")
        assert g.n == 12 and g.m == 1
        assert from_edge_list("# vertices 3 edges 0 max_degree 0\n").n == 3
        assert from_edge_list("# vertices 2\n0 1", n=5).n == 5

    def test_header_counts_only_on_the_first_line(self):
        with pytest.raises(ValueError, match="line 3"):
            from_edge_list("# a comment\n# vertices 10\n0 9")

    def test_vertex_count_beyond_int64_is_a_value_error(self):
        with pytest.raises(ValueError, match="too large"):
            from_edge_list("# vertices 99999999999999999999\n0 1")
        with pytest.raises(ValueError, match="too large"):
            from_edge_list("0 1", n=10**20)

    def test_round_trip(self):
        for g in (complete(6), cycle(9), complete_bipartite(2, 5), disjoint_cliques(3, 4)):
            assert from_edge_list(to_edge_list(g)) == g


@given(
    st.sampled_from(["complete", "cliques", "bipartite", "cycle", "er"]),
    st.integers(min_value=1, max_value=9),
    st.integers(min_value=1, max_value=9),
    st.integers(min_value=0, max_value=10**6),
)
def test_generator_invariants_and_round_trip(family, x, y, seed):
    if family == "complete":
        g = complete(x + 1)
    elif family == "cliques":
        g = disjoint_cliques(x, y + 1)
    elif family == "bipartite":
        g = complete_bipartite(x, y)
    elif family == "cycle":
        g = cycle(x + 2)
    else:
        g = erdos_renyi(x + y, 0.4, seed)
    check_invariants(g)
    assert from_edge_list(to_edge_list(g)) == g
