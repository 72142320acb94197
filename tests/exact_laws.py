"""Exact laws and paper formulas that the tests check the simulator against.

These are oracles: they are derived from the rules of the process on paper
and share no code with ``colorsim.dynamics`` or ``ColoringState``, beyond the
conflicted vertices and monochromatic components that
``selection_distribution`` reads off a state.

* ``clique_draws_law``: on a clique K_s with k = s colors the number u of
  distinct colors in use never falls, and in both the ``uniform`` and the
  ``persistent`` variant a color draw raises u with probability (s-u)/s and
  no other draw changes the count. The draws a clique consumes are therefore
  a sum of independent geometrics, the same for both variants.
* ``clique_steps_law``: the same count for ``uniform`` at any k >= s from a
  random start, where a step raises u with probability (k-u)/k. The start
  holds j distinct colors with probability C(k, j)·S(s, j)·j!/k^s (S the
  Stirling numbers of the second kind), and the steps are the geometrics for
  u = j..s-1. On count×K_s a run's steps are the sum of its cliques' counts,
  which are independent.
* The ``parallel`` chain on K_n with k = n: the proper vertices hold pairwise
  distinct colors, so the conflicted count r alone is a Markov chain on
  {0, 2, 3, ..., n}. One round throws the r conflicted vertices (balls) into
  the n colors (bins), n - r of which already hold one proper vertex each;
  the next conflicted count is the number of balls in bins holding two or
  more. The random initial coloring is the same throw with r = n, so the
  chain started at r = n is one throw ahead of round 0.

* ``selection_distribution``: the exact vertex-selection law of a variant's
  step on a state (criterion 3, ``test_dynamics``). ``uniform`` and
  ``persistent`` pick a conflicted vertex uniformly; ``component_view`` picks
  a monochromatic component with weight proportional to its size and then a
  vertex uniformly inside it, so the two laws agree exactly.
* ``psi_value``: the clamped log potential ψ = max(ln(D·φ/n), 0) whose
  one-step changes criterion 11 bounds.
* ``theorem_step_budget``: the two-phase step budget that the proven drifts
  give through the additive and multiplicative drift theorems
  (``additive_drift_bound``, ``multiplicative_drift_bound``). The decay phase
  runs until φ falls to n/D, the decay/endgame boundary; the endgame then
  removes the at most 2n/D monochromatic edges left.

Transition rows are exact Fractions. Laws over many rounds are iterated in
float64: exact denominators would grow by about n log10 n digits per round.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, log

import numpy as np


def clique_draws_law(s: int) -> tuple[Fraction, Fraction]:
    """Mean and variance of the draws one K_s consumes from all-ones, k = s.

    The sum over u = 1..s-1 of geometrics with success probability (s-u)/s:
    mean s·H_{s-1}, variance Σ_u (u/s)/((s-u)/s)².
    """
    mean = Fraction(0)
    variance = Fraction(0)
    for u in range(1, s):
        p = Fraction(s - u, s)
        mean += 1 / p
        variance += (1 - p) / (p * p)
    return mean, variance


def _stirling2(s: int, j: int) -> int:
    """Ways to split s labelled items into j nonempty blocks."""
    return sum((-1) ** i * comb(j, i) * (j - i) ** s for i in range(j + 1)) // factorial(j)


def initial_distinct_law(s: int, k: int) -> list[Fraction]:
    """P(u0 = j), j = 0..s: a uniform coloring of K_s from k colors uses j distinct colors."""
    return [Fraction(comb(k, j) * _stirling2(s, j) * factorial(j), k**s) for j in range(s + 1)]


def clique_steps_given(s: int, k: int, u0: int) -> tuple[Fraction, Fraction]:
    """Mean and variance of the ``uniform`` steps on K_s with k >= s colors from u0 distinct.

    The sum over u = u0..s-1 of geometrics with success probability (k-u)/k.
    """
    mean = Fraction(0)
    variance = Fraction(0)
    for u in range(u0, s):
        p = Fraction(k - u, k)
        mean += 1 / p
        variance += (1 - p) / (p * p)
    return mean, variance


def clique_steps_law(s: int, k: int) -> tuple[Fraction, Fraction]:
    """Mean and variance of the ``uniform`` steps on K_s with k >= s colors, random start.

    The mixture over u0 of ``clique_steps_given``: E[T] = Σ_j P_j·m_j and
    Var T = Σ_j P_j·(v_j + m_j²) - E[T]².
    """
    if k < s:
        raise ValueError(f"need k >= s, got k={k}, s={s}")
    mean = second = Fraction(0)
    for u0, weight in enumerate(initial_distinct_law(s, k)):
        m, v = clique_steps_given(s, k, u0)
        mean += weight * m
        second += weight * (v + m * m)
    return mean, second - mean * mean


@lru_cache(maxsize=None)
def transition_row(n: int, r: int) -> tuple[Fraction, ...]:
    """Exact law of the next conflicted count on K_n when r vertices redraw.

    Entry j is P(r -> j). An occupancy DP over the n bins counts the ways to
    place the r labelled balls: each bin receives m of the balls still left,
    and a bin that ends with two or more balls adds all of them to the next
    conflicted count. r = 1 is unreachable, but its row is still a law.
    """
    if not 0 <= r <= n:
        raise ValueError(f"need 0 <= r <= n, got r={r}, n={n}")
    ways: dict[tuple[int, int], int] = {(0, 0): 1}
    for held in [1] * (n - r) + [0] * r:
        nxt: dict[tuple[int, int], int] = defaultdict(int)
        for (placed, conflicted), w in ways.items():
            left = r - placed
            for m in range(left + 1):
                balls = held + m
                nxt[placed + m, conflicted + (balls if balls >= 2 else 0)] += w * comb(left, m)
        ways = nxt
    row = [0] * (n + 1)
    for (placed, conflicted), w in ways.items():
        if placed == r:
            row[conflicted] += w
    total = n**r
    return tuple(Fraction(w, total) for w in row)


def transition_matrix(n: int) -> np.ndarray:
    """The chain's (n+1)×(n+1) transition matrix in float64, rows indexed by r."""
    return np.array([[float(p) for p in transition_row(n, r)] for r in range(n + 1)])


def termination_cdf(n: int, rounds: int) -> np.ndarray:
    """F[t] = P(a run on K_n terminates within t rounds), t = 0..rounds.

    Rounds count from 1 as the parallel variant's steps do; F[0] is the chance
    that the initial coloring, the chain's first throw from r = n, is proper.
    """
    matrix = transition_matrix(n)
    law = matrix[n].copy()
    cdf = np.empty(rounds + 1)
    cdf[0] = law[0]
    for t in range(1, rounds + 1):
        law = law @ matrix
        cdf[t] = law[0]
    return cdf


def reach_probability(n: int, threshold: int, rounds: int) -> float:
    """P(the conflicted count is <= threshold at some round 1..rounds, or 0 at start).

    The event "the least count a ``ConflictedCounts`` observer reads is
    <= threshold": round 0 does not count, except that a run whose initial
    coloring is proper takes no rounds and reads its count 0.
    """
    matrix = transition_matrix(n)
    law = matrix[n].copy()
    reached = float(law[0])
    law[0] = 0.0
    low = slice(0, threshold + 1)
    for _ in range(rounds):
        law = law @ matrix
        reached += law[low].sum()
        law[low] = 0.0
    return float(reached)


def cdf_median(cdf: np.ndarray) -> int:
    """Smallest t with F[t] >= 1/2."""
    return int(np.searchsorted(cdf, 0.5))


def binomial_pmf(count: int, trials: int, p: float) -> float:
    return comb(trials, count) * p**count * (1.0 - p) ** (trials - count)


def binomial_two_sided_p(count: int, trials: int, p: float) -> float:
    """Exact two-sided binomial test: the mass of outcomes no likelier than ``count``."""
    observed = binomial_pmf(count, trials, p) * (1 + 1e-7)
    pmf = [binomial_pmf(i, trials, p) for i in range(trials + 1)]
    return min(1.0, sum(q for q in pmf if q <= observed))


def _mass(counts: range, trials: int, p: float) -> float:
    return sum(binomial_pmf(i, trials, p) for i in counts)


def median_band(cdf: np.ndarray, runs: int, alpha: float) -> tuple[int, int]:
    """A band [lo, hi] holding the sample median of ``runs`` draws w.p. >= 1 - alpha.

    ``np.median`` of an even count averages order statistics runs/2 and
    runs/2 + 1, so it lies between them. By order statistics,
    P(X_(j) <= t) = P(Binomial(runs, F[t]) >= j); each tail gets alpha/2.
    Raises if ``cdf`` does not reach far enough to place the upper end.
    """
    below, above = (runs + 1) // 2, runs // 2 + 1
    lo = 0
    while lo + 1 < len(cdf) and _mass(range(below, runs + 1), runs, cdf[lo]) <= alpha / 2:
        lo += 1
    for hi in range(len(cdf)):
        if _mass(range(above), runs, cdf[hi]) <= alpha / 2:
            return lo, hi
    raise ValueError("cdf too short for the upper end of the median band")


def selection_distribution(state, variant: str) -> dict[int, Fraction]:
    """Exact vertex-selection law of the given variant on the current state.

    Mirrors the sampling structure the step functions actually use, so the
    equality of the ``uniform`` and ``component_view`` laws is a checkable
    property rather than an assumption.
    """
    if len(state.conflicted) == 0:
        raise ValueError("coloring is already proper; no step to take")
    if variant == "uniform" or variant == "persistent":
        w = Fraction(1, len(state.conflicted))
        return {v: w for v in state.conflicted_vertices()}
    if variant == "component_view":
        total = len(state.conflicted)
        out: dict[int, Fraction] = {}
        for comp in state.monochromatic_components():
            w = Fraction(comp.size, total) * Fraction(1, comp.size)
            for v in comp.vertices:
                out[v] = w
        return out
    raise ValueError(f"no single-vertex selection law for variant {variant!r}")


def psi_value(phi: Fraction, n: int, max_degree: int) -> float:
    """Clamped log potential: max(ln(max_degree * phi / n), 0)."""
    if max_degree < 1:
        return 0.0
    scaled = Fraction(max_degree, n) * phi
    if scaled <= 1:
        return 0.0
    return log(float(scaled))


def additive_drift_bound(x0: float, delta: float) -> float:
    """Expected hitting time of 0 under a constant per-step drift of delta."""
    if delta <= 0:
        raise ValueError("drift delta must be > 0")
    if x0 < 0:
        raise ValueError("initial value must be >= 0")
    return x0 / delta


def multiplicative_drift_bound(s0: float, smin: float, delta: float) -> float:
    """Expected hitting time under per-step decay by a factor (1 - delta)."""
    if delta <= 0:
        raise ValueError("drift delta must be > 0")
    if not s0 >= smin > 0:
        raise ValueError("need s0 >= smin > 0")
    return (1 + log(s0 / smin)) / delta


def theorem_step_budget(n: int, delta: int) -> float:
    """Loose two-phase budget implied by the proven decay and endgame drifts.

    Decay phase: multiplicative drift 1/(1000 n) from at most n*delta down to
    n/delta. Endgame: additive drift 1/(delta+1) on at most 2n/delta
    monochromatic edges. Empirical means must come in far below this.
    """
    if delta < 1:
        return 0.0
    decay = multiplicative_drift_bound(n * delta, n / delta, 1.0 / (1000 * n))
    endgame = additive_drift_bound(2 * n / delta, 1.0 / (delta + 1))
    return decay + endgame
