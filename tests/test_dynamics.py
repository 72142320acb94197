import itertools
from collections import Counter
from fractions import Fraction

import pytest

from colorsim import dynamics
from colorsim import (
    ColoringState,
    ExperimentConfig,
    ProperColoringError,
    complete,
    cycle,
    disjoint_cliques,
    erdos_renyi,
    from_edge_list,
    init_random,
    make_rng,
    run,
    step_component_view,
    step_parallel,
    step_persistent,
    step_uniform,
)
from colorsim.dynamics import STEPS, Trace
from exact_laws import selection_distribution
from observers import ConflictedCounts
import oracle
from test_state import four_vertex_graphs, walk_states


K2 = complete(2)  # built once: the 10^5-trial tests below start from it every trial


def conflicted_pair():
    return ColoringState(K2, 2, [1, 1])


def one_free_color():
    """K5 colored (1, 1, 2, 3, 4) at k = 5: both conflicted vertices fit color 5 only."""
    return ColoringState(complete(5), 5, [1, 1, 2, 3, 4])


def plain_draw(rng):
    """The steps' ``draw`` on a plain generator, independent of ``BufferedDraws``."""
    return lambda n: int(rng.integers(n))


class TestStepUniform:
    def test_fix_probability_one_half(self):
        draw = plain_draw(make_rng(42, 0))
        trials = 100_000
        fixed = 0
        for _ in range(trials):
            s = conflicted_pair()
            step_uniform(s, draw)
            fixed += len(s.conflicted) == 0
        assert fixed / trials == pytest.approx(0.5, rel=0.01)

    def test_selection_uniform_over_pair(self):
        s = ColoringState(from_edge_list("0 1\n1 2"), 3, [2, 1, 1])
        dist = selection_distribution(s, "uniform")
        assert dist == {1: Fraction(1, 2), 2: Fraction(1, 2)}

    def test_two_draws_vertex_then_color(self):
        s = ColoringState(complete(3), 3, [1, 1, 1])
        out = step_uniform(s, plain_draw(make_rng(5, 0)))
        # replaying the same stream manually must reproduce the outcome
        rng = make_rng(5, 0)
        v = int(rng.integers(3))  # the dense conflicted array holds (0, 1, 2)
        c = int(rng.integers(1, 4))
        assert out == ((v,), (c,), 1)


def no_draw(n):
    raise AssertionError(f"drew with bound {n}")


@pytest.mark.parametrize("step", [step_uniform, step_component_view, step_persistent,
                                  step_parallel], ids=lambda step: step.__name__)
def test_rejects_proper_coloring(step):
    s = ColoringState(complete(2), 2, [1, 2])
    with pytest.raises(ProperColoringError, match="already proper"):
        step(s, no_draw)
    assert s.colors == (1, 2)


class TestStepComponentView:
    def test_selection_matches_uniform_exactly(self):
        # equal laws on every state: (|V(C)|/total) * (1/|V(C)|) = 1/total
        fixtures = [
            ColoringState(from_edge_list("0 1\n1 2"), 3, [1, 1, 2]),
            ColoringState(disjoint_cliques(2, 3), 3, [1, 1, 1, 2, 2, 2]),
            ColoringState(cycle(5), 3, [1, 1, 2, 2, 3]),
        ]
        g = erdos_renyi(18, 0.25, 3)
        rng = make_rng(3, 0)
        for _ in range(20):
            s = init_random(g, g.max_degree + 1, rng)
            if len(s.conflicted) > 0:
                fixtures.append(s)
        for s in fixtures:
            assert selection_distribution(s, "component_view") == selection_distribution(s, "uniform")

    def test_single_component_reduces_to_uniform(self):
        s = ColoringState(complete(4), 4, [1, 1, 1, 1])
        dist = selection_distribution(s, "component_view")
        assert set(dist.values()) == {Fraction(1, 4)}

    def test_component_sizes_two_and_three(self):
        # (3/5)*(1/3) = (2/5)*(1/2) = 1/5 for every conflicted vertex
        g = from_edge_list("0 1\n0 2\n1 2\n3 4")
        s = ColoringState(g, 3, [1, 1, 1, 2, 2])
        assert sorted(c.size for c in s.monochromatic_components()) == [2, 3]
        dist = selection_distribution(s, "component_view")
        assert dist == {v: Fraction(1, 5) for v in range(5)}

    def test_step_applies_a_recolor(self):
        s = ColoringState(disjoint_cliques(2, 3), 3, [1, 1, 1, 2, 2, 2])
        (v,), (c,), draws = step_component_view(s, plain_draw(make_rng(1, 0)))
        assert s.colors[v] == c and draws == 1


def scripted(*values):
    """A ``draw`` that returns ``values`` in turn and records the bounds it was given."""
    bounds = []
    queue = list(values)

    def draw(n):
        bounds.append(n)
        return queue.pop(0)

    return draw, bounds


class TestComponentViewWalk:
    def test_every_draw_picks_member_j_of_the_drawn_vertex_component(self):
        for s in walk_states():
            total = len(s.conflicted)
            if not total:
                continue
            k = s.k
            component_of = {u: c for c in s.monochromatic_components() for u in c.vertices}
            law: Counter = Counter()
            for r in range(total):
                chosen = component_of[s.conflicted[r]]
                for j in range(chosen.size):
                    draw, bounds = scripted(r, j, k - 1)
                    # a copy keeps the reached state's dense order, which the first draw indexes
                    assert step_component_view(s.copy(), draw) == ((chosen.vertices[j],), (k,), 1)
                    assert bounds == [total, chosen.size, k]
                    law[chosen.vertices[j]] += Fraction(1, total * chosen.size)
            assert law == selection_distribution(s, "uniform")

    def test_a_step_walks_only_its_component(self, monkeypatch):
        s = ColoringState(disjoint_cliques(3, 2), 2, [1, 1, 2, 2, 1, 1])
        roots = []
        reach = ColoringState.same_color_reach
        monkeypatch.setattr(ColoringState, "same_color_reach",
                            lambda self, root, seen: roots.append(root) or reach(self, root, seen))
        draw, bounds = scripted(3, 1, 0)
        root = s.conflicted[3]
        # the components are {0, 1}, {2, 3} and {4, 5}: member 1 is the odd vertex
        assert step_component_view(s, draw) == ((root | 1,), (1,), 1)
        assert roots == [root] and bounds == [6, 2, 2]


class TestStepPersistent:
    def test_expected_draws_geometric(self):
        draw = plain_draw(make_rng(77, 0))
        trials = 100_000
        draws = 0
        for _ in range(trials):
            s = conflicted_pair()
            draws += step_persistent(s, draw)[2]
            assert len(s.conflicted) == 0
        assert draws / trials == pytest.approx(2.0, rel=0.02)

    def test_full_palette_always_terminates(self):
        g = erdos_renyi(20, 0.4, 6)
        k = g.max_degree + 1
        rng = make_rng(6, 0)
        for _ in range(50):
            s = init_random(g, k, rng)
            while len(s.conflicted) > 0:
                _, colors, _ = step_persistent(s, plain_draw(rng))
                assert colors

    def test_stall_when_neighborhood_covers_palette(self):
        # triangle with colors (1, 2, 1) at k=2: either conflicted vertex sees
        # both colors, so no draw can ever be accepted and none is made
        s = ColoringState(complete(3), 2, [1, 2, 1])
        _, colors, draws = step_persistent(s, plain_draw(make_rng(0, 0)))
        assert colors == () and draws == 0
        assert s.colors == (1, 2, 1)

    def test_draw_budget_bounds_the_draws(self):
        # draw(n) = 0 picks vertex 0 and then color 1, its neighbor's, every time
        s = one_free_color()
        _, colors, draws = step_persistent(s, lambda n: 0, draw_limit=10)
        assert colors == () and draws == 10
        assert s.colors == (1, 1, 2, 3, 4)

    def test_stuck_exactly_when_neighbors_carry_every_color(self):
        # every conflicted coloring of every 4-vertex graph at k = D, each
        # conflicted vertex picked in turn; the colors come from a generator
        picks = stuck = 0
        rng = make_rng(29, 0)
        for _, g in four_vertex_graphs():
            k = g.max_degree
            if k < 1:
                continue
            for colors in itertools.product(range(1, k + 1), repeat=4):
                conflicted = ColoringState(g, k, colors).conflicted
                for i, v in enumerate(conflicted):
                    s = ColoringState(g, k, colors)
                    bounds = []

                    def draw(n):
                        bounds.append(n)
                        return i if len(bounds) == 1 else int(rng.integers(n))

                    vertices, new, draws = step_persistent(s, draw)
                    seen = [colors[w] for w in g.adjacency[v]]
                    assert vertices == (v,) and bounds[0] == len(conflicted)
                    assert bounds[1:] == [k] * draws
                    if all(c in seen for c in range(1, k + 1)):
                        stuck += 1
                        assert new == () and draws == 0 and s.colors == colors
                    else:
                        assert len(new) == 1 and new[0] not in seen and draws >= 1
                        assert s.colors == colors[:v] + new + colors[v + 1:]
                    picks += 1
        assert 0 < stuck < picks


class TestStepParallel:
    def test_k2_exact_enumeration(self):
        # the four equally likely draw pairs: (1,1),(1,2),(2,1),(2,2)
        proper = 0
        for a in (1, 2):
            for b in (1, 2):
                s = conflicted_pair()
                s.apply_batch((0, 1), (a, b))
                proper += len(s.conflicted) == 0
        assert proper == 2

    def test_whole_component_recolored(self):
        s = ColoringState(disjoint_cliques(2, 3), 3, [1, 1, 1, 2, 3, 2])
        vertices, colors, draws = step_parallel(s, plain_draw(make_rng(2, 0)))
        assert vertices == (0, 1, 2, 3, 5) and len(colors) == 5 and draws == 1

    def test_frozen_membership(self):
        # vertices proper before the round stay untouched even if the round
        # creates new conflicts around them
        g = cycle(6)
        rng = make_rng(9, 0)
        for _ in range(30):
            s = init_random(g, 3, rng)
            if len(s.conflicted) == 0:
                continue
            before = s.colors
            frozen = s.conflicted_vertices()
            step_parallel(s, plain_draw(rng))
            for v in range(g.n):
                if v not in frozen:
                    assert s.colors[v] == before[v]

    def test_matches_oracle_after_rounds(self):
        s = ColoringState(complete(20), 20, [1] * 20)
        rng = make_rng(4, 0)
        for _ in range(50):
            if len(s.conflicted) == 0:
                break
            step_parallel(s, plain_draw(rng))
            assert oracle.snapshot(s) == oracle.recompute(s)


class TestRun:
    def test_edgeless_graph(self):
        g = erdos_renyi(5, 0.0, 0)
        s = init_random(g, 3, make_rng(0, 0))
        result = run(s, "uniform", 1000, make_rng(0, 1))
        assert result.steps == 0 and result.terminated

    @pytest.mark.parametrize("variant", STEPS)
    def test_run_measures_its_wall_time(self, variant):
        # K8 in one color at k = 8: no variant ends it in 0 steps
        result = run(ColoringState(complete(8), 8, [1] * 8), variant, 100, make_rng(0, 0))
        assert result.steps >= 1 and result.wall_ns > 0

    def test_rejects_a_negative_cap(self):
        with pytest.raises(ValueError, match="cap must be >= 0"):
            run(ColoringState(cycle(4), 3, [1, 1, 1, 1]), "uniform", -1, make_rng(0, 0))

    def test_proper_initial_coloring(self):
        s = ColoringState(cycle(4), 3, [1, 2, 1, 2])
        result = run(s, "uniform", 1000, make_rng(0, 0), counts := ConflictedCounts())
        assert result.steps == 0 and result.terminated and result.final_phi_num == 0
        assert counts.least() == 0

    def test_min_conflicted_counts_from_step_one(self):
        # star: the center and one leaf share color 1, three leaves hold 2;
        # recoloring the center to 2 raises the conflicted count from 2 to 4
        g = from_edge_list("0 1\n0 2\n0 3\n0 4")
        result = run(ColoringState(g, 2, [1, 1, 2, 2, 2]), "uniform", 0, make_rng(0, 0),
                     counts := ConflictedCounts())
        assert result.steps == 0 and counts.least() == 2
        rises = 0
        for seed in range(20):
            s = ColoringState(g, 2, [1, 1, 2, 2, 2])
            run(s, "uniform", 1, make_rng(0, seed), counts := ConflictedCounts())
            assert counts.least() == len(s.conflicted)
            rises += len(s.conflicted) > 2
        assert rises

    def test_complete_8_always_terminates(self):
        g = complete(8)
        for i in range(1000):
            rng = make_rng(1, i)
            s = init_random(g, 8, rng)
            result = run(s, "uniform", 10**6, rng)
            assert result.terminated and result.final_phi_num == 0

    def test_absorption(self):
        g = complete(6)
        rng = make_rng(3, 0)
        s = init_random(g, 6, rng)
        run(s, "uniform", 10**6, rng)
        again = run(s, "uniform", 10**6, rng)
        assert again.steps == 0 and again.terminated

    def test_reproducible_traces(self):
        g = erdos_renyi(15, 0.3, 12)
        k = g.max_degree + 1

        def one():
            rng = make_rng(12, 5)
            s = init_random(g, k, rng)
            trace = []
            return run(s, "component_view", 10**5, rng, Trace(trace.append)), trace

        r1, t1 = one()
        r2, t2 = one()
        assert r1 == r2 and t1 == t2

    def test_trace_consistency(self):
        g = erdos_renyi(12, 0.35, 7)
        k = g.max_degree + 1
        rng = make_rng(7, 0)
        s = init_random(g, k, rng)
        trace = []
        result = run(s, "uniform", 10**5, rng, Trace(trace.append))
        assert trace[0]["t"] == 0
        replay = ColoringState(g, k, list(init_random(g, k, make_rng(7, 0)).colors))
        for rec in trace[1:]:
            for v, c in zip(rec["vertices"], rec["colors"]):
                replay.recolor(v, c)
            snap = oracle.snapshot(replay)
            assert (snap.mono_edge_count, snap.iso_edge_count, snap.e_ip, snap.phi_num) == (
                rec["mono_edges"],
                rec["iso_edges"],
                rec["iso_proper_edges"],
                rec["phi_num"],
            )

    @pytest.mark.parametrize("variant", tuple(STEPS))
    def test_trace_counts_match_oracle(self, variant):
        # every line's counts equal a from-scratch recount of the replayed colors
        g = erdos_renyi(14, 0.35, 3)
        k = g.max_degree + 1
        rng = make_rng(3, 1)
        s = init_random(g, k, rng)
        colors, trace = list(s.colors), []
        run(s, variant, 400, rng, Trace(trace.append))
        assert len(trace) > 2
        for rec in trace:
            for v, c in zip(rec["vertices"], rec["colors"]):
                colors[v] = c
            want = oracle.recompute(ColoringState(g, k, colors))
            assert (rec["mono_edges"], rec["iso_edges"], rec["iso_proper_edges"],
                    rec["phi_num"]) == (
                want.mono_edge_count, want.iso_edge_count, want.e_ip, want.phi_num
            )
        assert colors == list(s.colors)

    def test_cap_exhaustion(self):
        s = ColoringState(complete(30), 30, [1] * 30)
        result = run(s, "parallel", 50, make_rng(0, 0))
        assert not result.terminated and result.steps == 50 and not result.stalled

    def test_persistent_counts_all_draws_and_respects_cap(self):
        g = disjoint_cliques(4, 6)
        rng = make_rng(8, 0)
        s = ColoringState(g, 6, [1] * g.n)
        result = run(s, "persistent", 40, rng)
        if not result.terminated:
            assert result.steps == 40

    def test_persistent_stall_reported(self):
        # triangle (1, 2, 1) at k=2: the picked vertex sees both colors, so the
        # run stalls at its first pick, having made no color draw
        s = ColoringState(complete(3), 2, [1, 2, 1])
        result = run(s, "persistent", ExperimentConfig(family="complete", n=3).cap,
                     make_rng(0, 0), counts := ConflictedCounts())
        assert result.stalled and not result.terminated
        assert result.steps == 0 and counts.least() == 2

    def test_budget_exhaustion_is_not_a_stall(self):
        # color 5 fits, but seed 8 draws 5 blocked colors first: the cap runs
        # out mid-step
        s = one_free_color()
        result = run(s, "persistent", 5, make_rng(8, 0))
        assert not result.stalled and not result.terminated and result.steps == 5
        assert s.colors == (1, 1, 2, 3, 4)

    def test_rejects_unknown_variant(self):
        s = conflicted_pair()
        with pytest.raises(ValueError):
            run(s, "other", 10, make_rng(0, 0))


class TestObserve:
    """``run`` calls ``observe(state, 0, (), ())`` first, then ``observe(state, t,
    vertices, colors)`` after each applied step, t being the steps so far."""

    @staticmethod
    def observed(state, variant, cap, rng):
        """The run's result and its calls, each with the sorted conflicted set then."""
        calls = []

        def observe(seen, t, vertices, colors):
            assert seen is state
            calls.append((t, vertices, colors, state.conflicted_vertices()))

        return run(state, variant, cap, rng, observe), calls

    def test_a_stall_makes_only_the_first_call(self):
        s = ColoringState(complete(3), 2, [1, 2, 1])
        result, calls = self.observed(s, "persistent", 10**6, make_rng(0, 0))
        assert result.stalled and calls == [(0, (), (), (0, 2))]

    def test_a_step_the_cap_cut_off_is_not_observed(self):
        result, calls = self.observed(one_free_color(), "persistent", 5, make_rng(8, 0))
        assert result.steps == 5 and not result.stalled and calls == [(0, (), (), (0, 1))]

    def test_persistent_t_jumps_by_each_steps_draws(self, monkeypatch):
        draws = []

        def counted(*args):
            step = step_persistent(*args)
            draws.append(step[2])
            return step

        monkeypatch.setattr(dynamics, "step_persistent", counted)
        rng = make_rng(5, 0)
        result, calls = self.observed(init_random(disjoint_cliques(4, 6), 6, rng), "persistent",
                                      10**5, rng)
        ts = [t for t, *_ in calls]
        assert result.terminated and max(draws) > 1
        assert [b - a for a, b in zip(ts, ts[1:])] == draws
        assert ts[-1] == result.steps

    def test_a_capped_run_makes_no_call_past_the_cap(self):
        result, calls = self.observed(ColoringState(complete(7), 7, [1] * 7), "uniform", 9,
                                      make_rng(2, 0))
        assert not result.terminated and result.steps == 9
        assert [t for t, *_ in calls] == list(range(10))

    def test_a_parallel_call_shows_the_sorted_frozen_set(self):
        g = erdos_renyi(20, 0.3, 4)
        rng = make_rng(4, 0)
        result, calls = self.observed(init_random(g, g.max_degree + 1, rng), "parallel", 200, rng)
        assert len(calls) > 2 and calls[-1][0] == result.steps
        for (_, _, _, frozen), (_, vertices, colors, _) in zip(calls, calls[1:]):
            assert vertices == frozen and len(colors) == len(vertices) >= 2


@pytest.mark.parametrize("variant, update, unused", [
    ("uniform", "recolor", "apply_batch"),
    ("component_view", "recolor", "apply_batch"),
    ("parallel", "apply_batch", "recolor"),
])
def test_run_calls_its_step_and_one_update_per_step(variant, update, unused, monkeypatch):
    """Each step is one call of the variant's step function through ``STEPS``
    and one state update: a wrapper on any of them sees every step."""
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(dynamics, STEPS[variant], counted("step", getattr(dynamics, STEPS[variant])))
    for name in ("recolor", "apply_batch"):
        monkeypatch.setattr(ColoringState, name, counted(name, getattr(ColoringState, name)))
    rng = make_rng(3, 0)
    state = init_random(disjoint_cliques(4, 6), 6, rng)
    result = run(state, variant, 10_000, rng)
    assert result.terminated and result.steps > 1
    assert calls["step"] == calls[update] == result.steps
    assert calls[unused] == 0
