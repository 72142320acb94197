import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from colorsim import (
    ColoringState,
    complete,
    cycle,
    disjoint_cliques,
    erdos_renyi,
    from_edge_list,
    init_random,
    make_rng,
    run,
)
from colorsim import harness
from colorsim.dynamics import Trace
from colorsim.harness import AuditSweepSpec, audit_instance
from colorsim.state import potential
import oracle


def path3():
    return from_edge_list("0 1\n1 2")


def phi(s):
    """The state's potential as a Fraction, from the package's one integer pair."""
    return Fraction(*potential(s.graph.max_degree, s.phi_num))


class TestInitFixed:
    def test_monochromatic_k4(self):
        s = ColoringState(complete(4), 4, [1, 1, 1, 1])
        assert s.mono_edge_count == 6
        assert s.iso_edge_count == 0
        assert s.e_ip == 0
        assert phi(s) == 6
        assert oracle.snapshot(s) == oracle.recompute(s)

    def test_path_fixture(self):
        s = ColoringState(path3(), 3, [1, 1, 2])
        assert s.mono_edge_count == 1
        assert s.iso_edge_count == 1
        assert s.conflicted_vertices() == (0, 1)
        assert s.e_ip == 1
        assert s.phi_num == 221
        assert phi(s) == Fraction(221, 200)

    @pytest.mark.parametrize("graph, colors, want", [
        (path3(), [1, 1, 2], oracle.DerivedSnapshot((0, 1), 1, 1, 1, 221)),
        (complete(4), [1, 1, 1, 1], oracle.DerivedSnapshot((0, 1, 2, 3), 6, 0, 0, 1800)),
        (from_edge_list("", n=4), [1, 1, 1, 1], oracle.DerivedSnapshot((), 0, 0, 0, 0)),
    ], ids=["path", "k4", "edgeless"])
    def test_oracle_by_hand(self, graph, colors, want):
        # numbers counted by hand, so a slip in the oracle cannot hide behind the fast path
        assert oracle.recompute(ColoringState(graph, max(colors) + 1, colors)) == want

    def test_proper_coloring(self):
        s = ColoringState(path3(), 3, [1, 2, 1])
        assert phi(s) == 0 and len(s.conflicted) == 0

    def test_out_of_range_color_cites_vertex(self):
        with pytest.raises(ValueError, match="vertex 2"):
            ColoringState(path3(), 2, [1, 2, 3])

    def test_out_of_range_color_names_the_first_bad_vertex(self):
        with pytest.raises(ValueError) as err:
            ColoringState(complete(3), 4, [1, 5, 0])
        assert str(err.value) == "vertex 1: color 5 outside 1..4"

    def test_wrong_length(self):
        with pytest.raises(ValueError):
            ColoringState(path3(), 2, [1, 2])

    def test_rejects_zero_palette(self):
        with pytest.raises(ValueError, match="palette size k"):
            ColoringState(path3(), 0, [1, 1, 1])


class TestInitRandom:
    def test_edgeless_always_proper(self):
        g = erdos_renyi(10, 0.0, 1)
        s = init_random(g, 5, make_rng(0, 0))
        assert phi(s) == 0 and len(s.conflicted) == 0

    def test_deterministic(self):
        g = complete(12)
        a = init_random(g, 12, make_rng(7, 0))
        b = init_random(g, 12, make_rng(7, 0))
        assert a.colors == b.colors

    def test_rejects_zero_palette(self):
        with pytest.raises(ValueError):
            init_random(complete(3), 0, make_rng(0, 0))

    def test_mean_monochromatic_edges(self):
        # a fixed pair of vertices collides with probability 1/k, so K_4 at
        # k=4 carries 6/4 = 1.5 expected monochromatic edges
        g = complete(4)
        rng = make_rng(123, 0)
        trials = 100_000
        total = sum(init_random(g, 4, rng).mono_edge_count for _ in range(trials))
        assert total / trials == pytest.approx(1.5, rel=0.01)


class TestRecolor:
    def test_same_color_is_noop(self):
        s = ColoringState(path3(), 3, [1, 1, 2])
        before = oracle.snapshot(s)
        assert s.recount_change(1, 1) == (0, 0, 0)
        assert s.recolor(1, 1) is None
        assert oracle.snapshot(s) == before and s.colors == (1, 1, 2)

    def test_path_to_proper(self):
        s = ColoringState(path3(), 3, [1, 1, 2])
        s.recolor(1, 3)
        assert phi(s) == 0 and len(s.conflicted) == 0

    def test_path_to_symmetric_state(self):
        s = ColoringState(path3(), 3, [1, 1, 2])
        assert s.recount_change(1, 2) == (0, 0, 0)
        s.recolor(1, 2)
        assert phi(s) == Fraction(221, 200)
        assert (s.mono_edge_count, s.iso_edge_count, s.e_ip) == (1, 1, 1)
        assert s.conflicted_vertices() == (1, 2)

    def test_rejects_bad_vertex_and_color(self):
        s = ColoringState(path3(), 3, [1, 1, 2])
        with pytest.raises(ValueError):
            s.recolor(9, 1)
        with pytest.raises(ValueError):
            s.recolor(0, 4)

    def test_long_random_sequence_matches_oracle(self):
        # spec-sized example: a thousand random recolors on G(50, 0.2)
        g = erdos_renyi(50, 0.2, 11)
        k = g.max_degree + 1
        rng = make_rng(11, 0)
        s = init_random(g, k, rng)
        for _ in range(1000):
            v = int(rng.integers(g.n))
            c = int(rng.integers(1, k + 1))
            s.recolor(v, c)
        assert oracle.snapshot(s) == oracle.recompute(s)

    def test_deltas_are_consistent(self):
        # the recount taken before each recolor equals the change of the snapshot
        g = erdos_renyi(25, 0.3, 2)
        k = g.max_degree + 1
        rng = make_rng(2, 0)
        s = init_random(g, k, rng)
        prev = oracle.snapshot(s)
        for _ in range(300):
            v, c = int(rng.integers(g.n)), int(rng.integers(1, k + 1))
            d_mono, d_iso, d_eip = s.recount_change(v, c)
            s.recolor(v, c)
            cur = oracle.snapshot(s)
            assert cur.mono_edge_count - prev.mono_edge_count == d_mono
            assert cur.iso_edge_count - prev.iso_edge_count == d_iso
            assert cur.e_ip - prev.e_ip == d_eip
            prev = cur


def recount_states():
    """110 audit instances over the four audit families, each at k = D+1 and k = D."""
    spec = AuditSweepSpec(instances=110, master_seed=17, max_n=20)
    for index in range(spec.instances):
        base, _ = audit_instance(spec, index)
        g = base.graph
        for k in (g.max_degree + 1, max(1, g.max_degree)):
            yield index, ColoringState(g, k, [min(c, k) for c in base.colors])


def four_vertex_graphs():
    """All 64 labeled graphs on 4 vertices, each with its edge mask."""
    pairs = list(itertools.combinations(range(4), 2))
    for mask in range(1 << len(pairs)):
        text = "\n".join(f"{a} {b}" for i, (a, b) in enumerate(pairs) if mask >> i & 1)
        yield mask, from_edge_list(text, n=4)


class TestRecount:
    def test_every_outcome_matches_oracle_on_a_recolored_copy(self):
        # 220 states, every (vertex, color) pair including no-ops
        states = 0
        outcomes = 0
        for index, s in recount_states():
            g, k = s.graph, s.k
            now = oracle.recompute(s)
            states += 1
            for v in range(g.n):
                for c in range(1, k + 1):
                    d_mono, d_iso, d_eip = s.recount_change(v, c)
                    t = s.copy()
                    t.recolor(v, c)
                    want = oracle.recompute(t)
                    assert (now.mono_edge_count + d_mono, now.iso_edge_count + d_iso,
                            now.e_ip + d_eip) == (
                        want.mono_edge_count, want.iso_edge_count, want.e_ip
                    ), (index, k, v, c)
                    outcomes += 1
            assert oracle.recompute(s) == now  # the recount left the state alone
        assert states == 220 and outcomes > 10_000

    def test_outcome_classes_match_recount_change(self):
        # every vertex of the same 220 states: one weight-1 class per other
        # neighbor color, one class for the free colors if any, weights k - 1
        vertices = without_free_class = 0
        for index, s in recount_states():
            now = oracle.recompute(s)
            for v in range(s.graph.n):
                old = s.colors[v]
                classes = s.outcome_classes(v)
                assert sum(weight for weight, _ in classes) == s.k - 1, (index, s.k, v)
                taken = s.neighbor_colors(v) - {old}
                free = [c for c in range(1, s.k + 1) if c != old and c not in taken]
                want = [(1, s.recount_change(v, c)) for c in taken]
                if free:
                    change = s.recount_change(v, free[0])
                    assert all(s.recount_change(v, c) == change for c in free)
                    want.append((len(free), change))
                else:
                    without_free_class += 1
                assert sorted(classes) == sorted(want), (index, s.k, v)
                vertices += 1
            assert oracle.recompute(s) == now  # the classes left the state alone
        assert vertices > 1_000 and without_free_class > 0

    def test_every_state_on_four_vertices(self):
        # all 64 labeled graphs on 4 vertices, every coloring at k = D+1 and,
        # for D >= 1, at k = D: classes against recount_change against the
        # copy-plus-recolor oracle, for every (vertex, color) pair
        states = {"D+1": 0, "D": 0}
        outcomes = {"D+1": 0, "D": 0}
        for mask, g in four_vertex_graphs():
            d = g.max_degree
            for label, k in (("D+1", d + 1), ("D", d)):
                if k == 0:
                    continue
                for colors in itertools.product(range(1, k + 1), repeat=4):
                    s = ColoringState(g, k, colors)
                    now = oracle.recompute(s)
                    states[label] += 1
                    for v in range(4):
                        changes = {}
                        for c in range(1, k + 1):
                            change = s.recount_change(v, c)
                            t = s.copy()
                            t.recolor(v, c)
                            want = oracle.recompute(t)
                            assert (now.mono_edge_count + change[0], now.iso_edge_count + change[1],
                                    now.e_ip + change[2]) == (
                                want.mono_edge_count, want.iso_edge_count, want.e_ip
                            ), (mask, k, colors, v, c)
                            changes[c] = change
                            outcomes[label] += 1
                        old = s.colors[v]
                        taken = s.neighbor_colors(v) - {old}
                        free = [c for c in changes if c != old and c not in taken]
                        want_classes = [(1, changes[c]) for c in taken]
                        if free:
                            assert len({changes[c] for c in free}) == 1, (mask, k, colors, v)
                            want_classes.append((len(free), changes[free[0]]))
                        assert sorted(s.outcome_classes(v)) == sorted(want_classes), (
                            mask, k, colors, v)
                    assert oracle.recompute(s) == now
        assert states == {"D+1": 8_544, "D": 2_368}
        assert outcomes == {"D+1": 125_496, "D": 26_360}

    def test_pair_table_equals_neighbor_counts(self):
        # the audit reads the table, recount_change the local count: every
        # vertex of the 220 recount states and of every 4-vertex state at k = D+1
        def states():
            for _, s in recount_states():
                yield s
            for _, g in four_vertex_graphs():
                k = g.max_degree + 1
                for colors in itertools.product(range(1, k + 1), repeat=4):
                    yield ColoringState(g, k, colors)

        count = 0
        for s in states():
            assert s._pair_table() == [s.neighbor_counts(u) for u in range(s.graph.n)], s.colors
            count += 1
        assert count == 220 + 8_544

    def test_runs_and_recount_change_never_derive_the_pair_table(self, monkeypatch):
        # the table costs an O(n + m) pass, which a traced step must not pay
        def refuse(self):
            raise AssertionError("pair table derived outside the audit")

        monkeypatch.setattr(ColoringState, "_pair_table", refuse)
        g = erdos_renyi(30, 0.2, 4)
        k = g.max_degree + 1
        for variant in ("uniform", "persistent", "component_view"):
            rng = make_rng(9, 0)
            s = init_random(g, k, rng)
            before = s.phi_num
            result = run(s, variant, 10_000, rng, records := Trace())
            assert result.terminated and records[0]["phi_num"] == before
            assert records[-1]["phi_num"] == s.phi_num == 0
        # path 1-1-1 to 3-1-1: one monochromatic edge fewer, which is now an
        # isolated pair with a properly colored neighbor
        s = ColoringState(path3(), 3, [1, 1, 2])
        s.recolor(2, 1)
        assert s.recount_change(0, 3) == (-1, 1, 1)


class TestOneScan:
    """A coloring's conflict data and its potential's three terms share one edge scan."""

    @pytest.fixture
    def scans(self, monkeypatch):
        calls = []
        scan = ColoringState._scan_edges

        def counted(self):
            calls.append(self)
            return scan(self)

        monkeypatch.setattr(ColoringState, "_scan_edges", counted)
        return calls

    def test_one_scan_per_uniform_run(self, scans):
        g = disjoint_cliques(32, 32)
        rng = make_rng(1, 0)
        result = run(init_random(g, g.max_degree + 1, rng), "uniform", 10**6, rng)
        assert result.terminated and result.initial_phi_num > 0
        assert len(scans) == 1

    def test_one_scan_per_audit_instance(self, scans):
        spec = AuditSweepSpec(instances=24, master_seed=5)
        for index in range(spec.instances):
            scans.clear()
            assert harness._instance_lines(spec, index)
            assert len(scans) == 1, index


class TestDerivedDefinitions:
    def test_e_ip_matches_direct_double_loop(self):
        g = erdos_renyi(30, 0.25, 5)
        k = g.max_degree + 1
        rng = make_rng(5, 0)
        for _ in range(20):
            s = init_random(g, k, rng)
            conflicted = set(s.conflicted_vertices())
            pair_members = set()
            for comp in s.monochromatic_components():
                if comp.size == 2:
                    pair_members.update(comp.vertices)
            count = sum(
                1
                for u, v in oracle.edges(g)
                if (u in pair_members and v not in conflicted)
                or (v in pair_members and u not in conflicted)
            )
            assert count == s.e_ip

    def test_iso_count_equals_two_vertex_components(self):
        g = erdos_renyi(40, 0.15, 9)
        rng = make_rng(9, 0)
        s = init_random(g, g.max_degree + 1, rng)
        pairs = sum(1 for c in s.monochromatic_components() if c.size == 2)
        assert pairs == s.iso_edge_count


class TestComponents:
    def test_monochromatic_k4(self):
        s = ColoringState(complete(4), 4, [1, 1, 1, 1])
        components = s.monochromatic_components()
        assert len(components) == 1
        comp = components[0]
        assert comp.size == 4 and Fraction(2 * comp.edge_count, comp.size) == 3

    def test_path_isolated_pair(self):
        s = ColoringState(path3(), 3, [1, 1, 2])
        comp = s.monochromatic_components()[0]
        assert comp.vertices == (0, 1)
        assert Fraction(2 * comp.edge_count, comp.size) == 1
        assert comp.is_isolated_edge

    def test_two_monochromatic_triangles(self):
        s = ColoringState(disjoint_cliques(2, 3), 3, [1, 1, 1, 2, 2, 2])
        components = s.monochromatic_components()
        assert [c.size for c in components] == [3, 3]
        assert {s.colors[c.vertices[0]] for c in components} == {1, 2}

    def test_partition_properties(self):
        g = erdos_renyi(35, 0.2, 4)
        s = init_random(g, g.max_degree + 1, make_rng(4, 0))
        seen = []
        for comp in s.monochromatic_components():
            assert comp.size >= 2 and comp.edge_count >= 1
            assert Fraction(2 * comp.edge_count, comp.size) >= 1
            assert len({s.colors[v] for v in comp.vertices}) == 1
            seen.extend(comp.vertices)
        assert sorted(seen) == list(s.conflicted_vertices())


def reached(g, k, colors):
    """The state ``colors`` on ``g``, reached from all color 1 by recoloring the
    vertices in descending order, so its dense conflicted list is rarely sorted."""
    s = ColoringState(g, k, [1] * g.n)
    for v in reversed(range(g.n)):
        s.recolor(v, colors[v])
    return s


def walk_states():
    """Every coloring of every four-vertex graph at k = D+1, as ``reached`` states,
    then a few larger states with many components, each after uniform steps."""
    for _, g in four_vertex_graphs():
        k = g.max_degree + 1
        for colors in itertools.product(range(1, k + 1), repeat=g.n):
            yield reached(g, k, colors)
    for seed, g in enumerate([disjoint_cliques(8, 4), erdos_renyi(30, 0.3, 7)]):
        d = g.max_degree
        for k in (d + 1, -(-d // 2)):
            rng = make_rng(seed, k)
            for _ in range(3):
                s = init_random(g, k, rng)
                run(s, "uniform", 15, rng)
                yield s


class TestComponentMembers:
    def test_walk_equals_the_components_in_least_vertex_order(self):
        unsorted = 0
        for s in walk_states():
            members = [list(c.vertices) for c in s.monochromatic_components()]
            assert all(m == sorted(m) for m in members)
            assert [m[0] for m in members] == sorted({m[0] for m in members})
            assert sorted(v for m in members for v in m) == list(s.conflicted_vertices())
            assert all(s.same_color_reach(m[-1], set()) == m for m in members)
            unsorted += s.conflicted != sorted(s.conflicted)
        assert unsorted  # the order check saw dense lists out of order


class TestBatch:
    def test_batch_matches_fresh_build(self):
        g = erdos_renyi(20, 0.3, 8)
        k = g.max_degree + 1
        rng = make_rng(8, 0)
        s = init_random(g, k, rng)
        for _ in range(30):
            vs = sorted(set(int(x) for x in rng.integers(0, g.n, size=5)))
            colors = [int(x) for x in rng.integers(1, k + 1, size=len(vs))]
            s.apply_batch(vs, colors)
            fresh = ColoringState(g, k, list(s.colors))
            assert oracle.snapshot(s) == oracle.snapshot(fresh) == oracle.recompute(s)

    @pytest.mark.parametrize("color", [0, 4])
    def test_rejects_a_color_outside_the_palette(self, color):
        s = ColoringState(path3(), 3, [1, 1, 2])
        with pytest.raises(ValueError, match=f"color {color} outside 1..3"):
            s.apply_batch([0], [color])

    @pytest.mark.parametrize("vertices, colors, reason", [
        ([0, 1], [2, 9], "color 9 outside 1..4"),
        ([3, 0], [2, 0], "color 0 outside 1..4"),
        ([-1], [1], "vertex -1 out of range"),
        ([0, 4], [2, 2], "vertex 4 out of range"),
        # a batch whose sequences differ in length is refused, not cut to the shorter
        ([0, 1], [2], "batch of 2 vertices and 1 colors"),
        ([2], [], "batch of 1 vertices and 0 colors"),
    ])
    def test_a_refused_batch_changes_nothing(self, vertices, colors, reason):
        s = ColoringState(complete(4), 4, [1, 2, 3, 4])
        s.apply_batch([1], [1])  # one conflicted edge, so the derived data is not all zero
        before = s.colors, oracle.snapshot(s)
        with pytest.raises(ValueError, match=reason):
            s.apply_batch(vertices, colors)
        assert (s.colors, oracle.snapshot(s)) == before
        assert oracle.snapshot(s) == oracle.recompute(s)


class TestPotential:
    def test_edgeless_graph_zero(self):
        g = erdos_renyi(6, 0.0, 0)
        s = ColoringState(g, 3, [1, 1, 1, 1, 1, 1])
        assert potential(g.max_degree, s.phi_num) == (0, 100) and s.phi_num == 0

    def test_exact_rational(self):
        s = ColoringState(path3(), 3, [1, 1, 2])
        assert potential(s.graph.max_degree, s.phi_num) == (221, 200)

    def test_zero_iff_proper(self):
        g = cycle(6)
        rng = make_rng(1, 0)
        for _ in range(50):
            s = init_random(g, 3, rng)
            assert (phi(s) == 0) == (len(s.conflicted) == 0)


class TestCopy:
    def test_copy_is_independent(self):
        s = ColoringState(path3(), 3, [1, 1, 2])
        t = s.copy()
        t.recolor(1, 3)
        assert phi(s) == Fraction(221, 200)
        assert phi(t) == 0


@settings(deadline=None, max_examples=60)
@given(
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from([0.1, 0.25, 0.5]),
    st.integers(min_value=4, max_value=24),
    st.integers(min_value=0, max_value=10**6),
)
def test_incremental_matches_oracle_and_sandwich(gseed, p, n, sseed):
    g = erdos_renyi(n, p, gseed)
    k = g.max_degree + 1
    rng = make_rng(sseed, 0)
    s = init_random(g, k, rng)
    d = g.max_degree
    for _ in range(40):
        s.recolor(int(rng.integers(n)), int(rng.integers(1, k + 1)))
        # sandwich in exact integers: 100*d*mono <= phi_num <= 200*d*mono
        assert 100 * d * s.mono_edge_count <= s.phi_num <= 200 * d * s.mono_edge_count
    assert oracle.snapshot(s) == oracle.recompute(s)
