"""The exact laws behind acceptance criteria 8-10 and the clique steps law, checked by brute force.

The clique steps law is also checked against ``run_ensemble``'s means.
"""

import math
from fractions import Fraction
from itertools import product
from math import factorial
from statistics import NormalDist

import pytest

from colorsim import ColoringState, ExperimentConfig, complete, run_ensemble
from colorsim.harness import build_graph
from exact_laws import (
    binomial_two_sided_p,
    cdf_median,
    clique_draws_law,
    clique_steps_given,
    clique_steps_law,
    initial_distinct_law,
    median_band,
    reach_probability,
    termination_cdf,
    transition_row,
)


def _conflicted(colors) -> int:
    return sum(colors.count(c) for c in set(colors) if colors.count(c) >= 2)


@pytest.mark.parametrize("n", [2, 3, 5, 8, 20])
def test_rows_are_laws_that_never_reach_one(n):
    for r in range(n + 1):
        row = transition_row(n, r)
        assert sum(row) == 1
        assert row[1] == 0


@pytest.mark.parametrize("n", range(2, 21))
def test_two_conflicted_finish_together_with_probability_two_over_n_squared(n):
    assert transition_row(n, 2)[0] == Fraction(2, n * n)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_rows_match_enumeration_of_every_redraw(n):
    for r in range(n + 1):
        proper = list(range(1, n - r + 1))
        counts = [0] * (n + 1)
        for redraw in product(range(1, n + 1), repeat=r):
            counts[_conflicted(proper + list(redraw))] += 1
        assert transition_row(n, r) == tuple(Fraction(c, n**r) for c in counts)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_row_n_is_the_law_of_the_initial_conflicted_count(n):
    graph = complete(n)
    counts = [0] * (n + 1)
    for colors in product(range(1, n + 1), repeat=n):
        counts[len(ColoringState(graph, n, colors).conflicted)] += 1
    assert transition_row(n, n) == tuple(Fraction(c, n**n) for c in counts)


@pytest.mark.parametrize("n", [3, 6, 10])
def test_survival_counts_rounds_from_one_after_the_initial_throw(n):
    start = transition_row(n, n)
    done_by_round_one = sum(start[r] * transition_row(n, r)[0] for r in range(n + 1))
    cdf = termination_cdf(n, 40)
    assert cdf[0] == pytest.approx(float(Fraction(factorial(n), n**n)), rel=1e-12)
    assert cdf[1] == pytest.approx(float(done_by_round_one), rel=1e-12)
    assert reach_probability(n, n, 1) == pytest.approx(1.0, rel=1e-12)
    assert reach_probability(n, 0, 40) == pytest.approx(cdf[40], rel=1e-12)


def _solve(matrix, rhs):
    """Gauss-Jordan elimination over Fractions."""
    size = len(rhs)
    rows = [list(matrix[i]) + [rhs[i]] for i in range(size)]
    for col in range(size):
        pivot = next(i for i in range(col, size) if rows[i][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        lead = rows[col][col]
        rows[col] = [x / lead for x in rows[col]]
        for i in range(size):
            if i != col and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[col])]
    return [row[-1] for row in rows]


def _step_moments(s: int, variant: str, k: int | None = None, random_start: bool = False):
    """Mean and variance of the steps on K_s with k colors (default s), by first-step analysis.

    Writes each variant's step rule out over every coloring of K_s: a uniform
    step picks a conflicted vertex and any color; a persistent step picks a
    conflicted vertex and draws until a color free of its neighbors comes up,
    every draw counting as a step. The run starts from all-ones, or with
    ``random_start`` from each of the k^s colorings with equal weight.
    """
    k = k or s
    colorings = list(product(range(1, k + 1), repeat=s))
    states = [c for c in colorings if _conflicted(list(c))]
    index = {c: i for i, c in enumerate(states)}
    size = len(states)
    # Per state: (probability, next state, E[D], E[D^2]) for each move, D the steps it takes.
    moves = []
    for c in states:
        conflicted = [v for v in range(s) if c.count(c[v]) >= 2]
        out = []
        for v in conflicted:
            if variant == "uniform":
                options, p = range(1, k + 1), Fraction(1)
            else:
                blocked = {c[w] for w in range(s) if w != v}
                options = [x for x in range(1, k + 1) if x not in blocked]
                p = Fraction(len(options), k)
            for x in options:
                nxt = c[:v] + (x,) + c[v + 1:]
                w = Fraction(1, len(conflicted) * len(options))
                out.append((w, nxt, 1 / p, (2 - p) / (p * p)))
        moves.append(out)

    def solve(extra):
        """Solve x = Σ_moves w·(extra + x[next]), x = 0 on proper colorings."""
        a = [[Fraction(int(i == j)) for j in range(size)] for i in range(size)]
        b = [Fraction(0)] * size
        for i, out in enumerate(moves):
            for w, nxt, d1, d2 in out:
                b[i] += w * extra(d1, d2, nxt)
                if nxt in index:
                    a[i][index[nxt]] -= w
        return _solve(a, b)

    first = solve(lambda d1, d2, nxt: d1)
    second = solve(lambda d1, d2, nxt: d2 + (2 * d1 * first[index[nxt]] if nxt in index else 0))
    starts = colorings if random_start else [(1,) * s]
    mean = sum(first[index[c]] for c in starts if c in index) / len(starts)
    return mean, sum(second[index[c]] for c in starts if c in index) / len(starts) - mean**2


@pytest.mark.parametrize("variant", ["uniform", "persistent"])
def test_clique_draws_law_matches_the_step_rules_on_k3(variant):
    assert _step_moments(3, variant) == clique_draws_law(3)


def test_initial_distinct_law_matches_enumeration():
    for s, k in [(1, 3), (3, 3), (3, 5), (4, 4), (4, 6), (5, 7)]:
        counts = [0] * (s + 1)
        for colors in product(range(k), repeat=s):
            counts[len(set(colors))] += 1
        assert initial_distinct_law(s, k) == [Fraction(c, k**s) for c in counts], (s, k)


def test_clique_steps_law():
    # K4 at k = 4 from a random start, as the exact chain on every coloring gives
    assert clique_steps_law(4, 4)[0] == Fraction(13, 3)
    for s in range(2, 12):
        assert clique_steps_given(s, s, 1) == clique_draws_law(s), s
    with pytest.raises(ValueError, match="need k >= s"):
        clique_steps_law(4, 3)


@pytest.mark.parametrize("s, k", [(3, 3), (3, 4), (3, 5)])
def test_clique_steps_law_matches_the_step_rules(s, k):
    assert _step_moments(s, "uniform", k, random_start=True) == clique_steps_law(s, k)


def test_clique_steps_law_predicts_the_ensemble_means():
    """8×K8 at k = 8, 9 and 16, 1000 runs each from a random start at master seed 16.

    A run's steps are the sum of 8 independent per-clique counts, so the mean
    of 1000 runs has standard error sqrt(8·Var/1000). Per-clique exact means
    13.743, 8.461, 2.606 and variances 76.01, 27.26, 3.967. Each |z| must stay
    within the two-sided bound of α = 1e-3, Bonferroni-split over the three.
    """
    bound = NormalDist().inv_cdf(1 - 1e-3 / 3 / 2)
    zs = []
    for k in (8, 9, 16):
        mean, variance = clique_steps_law(8, k)
        cfg = ExperimentConfig(family="disjoint_cliques", count=8, size=8, k=k,
                               seeds=1000, master_seed=16)
        stats, _ = run_ensemble(build_graph(cfg), cfg)
        assert stats.termination_fraction == 1.0
        zs.append((stats.mean_steps - float(8 * mean)) / math.sqrt(float(8 * variance) / cfg.seeds))
    assert all(abs(z) <= bound for z in zs), (zs, bound)


def test_values_pinned_in_the_criteria_docstrings():
    assert [round(float(32 * clique_draws_law(s)[0]), 2) for s in (8, 16, 32)] == [
        663.77, 1698.93, 4123.90]
    assert round(float(termination_cdf(20, 10**4)[-1]), 5) == 0.02117
    assert round(reach_probability(20, 2, 10**4), 3) == 0.721
    cdfs = [termination_cdf(n, 5000) for n in (4, 6, 8, 10)]
    assert [cdf_median(cdf) for cdf in cdfs] == [5, 21, 74, 270]
    assert [median_band(cdf, 100, 1e-3) for cdf in cdfs] == [
        (3, 9), (12, 33), (44, 116), (160, 424)]


def test_binomial_two_sided_p():
    assert binomial_two_sided_p(5, 10, 0.5) == pytest.approx(1.0)
    assert binomial_two_sided_p(0, 10, 0.5) == pytest.approx(2 / 1024)
    assert binomial_two_sided_p(1, 4, 0.5) == pytest.approx(10 / 16)


def test_median_band():
    assert median_band([0.0, 1.0, 1.0], 100, 1e-3) == (1, 1)
    # P(Bin(100, .3) >= 50) ~ 1e-5 and P(Bin(100, .45) >= 50) ~ 0.18 put the
    # lower end at 1; P(Bin(100, .55) <= 50) ~ 0.18 and P(Bin(100, .7) <= 50)
    # ~ 2e-5 put the upper end at 3.
    assert median_band([0.3, 0.45, 0.55, 0.7, 1.0], 100, 1e-3) == (1, 3)
    with pytest.raises(ValueError):
        median_band([0.3, 0.45], 100, 1e-3)
