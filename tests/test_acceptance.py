"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Master seeds are pre-committed by a uniform policy (criterion number) and
never tuned to outcomes. Criteria 8, 9 and 10 concern variants the paper's
O(n log D) bound does not cover (``persistent`` and ``parallel``); each checks
its ensemble against the exact law of the process, computed in
``tests/exact_laws.py`` and pinned in the test's docstring.
"""

import io
import math
import sys
import time
from fractions import Fraction

import pytest

from colorsim import (
    AuditSweepSpec,
    ColoringState,
    ExperimentConfig,
    check_claim_isolated,
    complete,
    disjoint_cliques,
    drift_audit_sweep,
    erdos_renyi,
    exact_step_expectations,
    from_edge_list,
    init_random,
    make_rng,
    run_ensemble,
    scaling_fit,
)
from colorsim.dynamics import Trace
from colorsim.harness import build_graph, cell_columns, run_one, run_rows, write_runs_csv
from exact_laws import (
    binomial_two_sided_p,
    cdf_median,
    clique_draws_law,
    median_band,
    psi_value,
    reach_probability,
    selection_distribution,
    termination_cdf,
)
from observers import ConflictedCounts
import oracle


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"criterion {criterion:2d}: {'PASS' if ok else 'FAIL'} - {detail}", file=sys.stderr)
    assert ok, detail


def test_criterion_01_exact_audit_sweep():
    """1000 random instances, zero violations of any drift inequality."""
    spec = AuditSweepSpec(
        instances=1000,
        master_seed=1,
        families=("erdos_renyi", "disjoint_cliques", "complete_bipartite", "cycle"),
        max_n=50,
    )
    start = time.perf_counter()
    checked = 0
    violations = []
    for line in drift_audit_sweep(spec):
        if line.get("skipped"):
            continue
        checked += 1
        if not line["satisfied"]:
            violations.append(line)
    elapsed = time.perf_counter() - start
    ok = not violations and checked > 0 and elapsed < 120
    report(1, ok, f"{checked} exact checks, {len(violations)} violations, {elapsed:.1f}s")


def test_criterion_02_hand_enumeration_fixture():
    """Path (1,1,2) at k=3: e_m = e_i = 1/2 and a tight pair bound."""
    state = ColoringState(from_edge_list("0 1\n1 2"), 3, [1, 1, 2])
    comp = state.monochromatic_components()[0]
    e = exact_step_expectations(state, comp)
    _, pair_entry = check_claim_isolated(state, comp, expectation=e)
    e_m, e_i = Fraction(e.mono, e.outcomes), Fraction(e.iso, e.outcomes)
    ok = (
        e_m == Fraction(1, 2)
        and e_i == Fraction(1, 2)
        and Fraction(*pair_entry.margin) == 0
        and pair_entry.satisfied
    )
    report(2, ok, f"e_m={e_m} e_i={e_i} pair-bound margin={Fraction(*pair_entry.margin)}")


def _equivalence_fixtures():
    fixtures = [
        ColoringState(from_edge_list("0 1\n1 2"), 3, [1, 1, 2]),
        ColoringState(complete(4), 4, [1, 1, 1, 1]),
        ColoringState(disjoint_cliques(2, 3), 3, [1, 1, 1, 2, 2, 2]),
    ]
    rng = make_rng(3, 0)
    gseed = 0
    while len(fixtures) < 50:
        gseed += 1
        g = erdos_renyi(6 + gseed % 13, (0.15, 0.3, 0.5)[gseed % 3], gseed)
        if g.max_degree == 0:
            continue
        s = init_random(g, g.max_degree + 1, rng)
        if 1 <= len(s.conflicted) <= 12:
            fixtures.append(s)
    return fixtures


def test_criterion_03_sampling_equivalence():
    """Uniform and component-view selection laws agree exactly on 50 states."""
    fixtures = _equivalence_fixtures()
    mismatches = 0
    for s in fixtures:
        if selection_distribution(s, "uniform") != selection_distribution(s, "component_view"):
            mismatches += 1
    ok = len(fixtures) == 50 and mismatches == 0
    report(3, ok, f"{len(fixtures)} states, {mismatches} distribution mismatches")


def test_criterion_04_incremental_vs_oracle():
    """10^4 random recolor steps across 20 random graphs, exact agreement.

    At every step both the state after the recolor and the local recount of
    (mono, iso, e_ip) taken before it must equal the from-scratch oracle.
    """
    rng = make_rng(4, 0)
    mismatches = 0
    steps_total = 0
    for gi in range(20):
        g = erdos_renyi(10 + gi * 4, (0.1, 0.25, 0.5)[gi % 3], gi)
        k = max(1, g.max_degree + 1)
        s = init_random(g, k, rng)
        prev = oracle.recompute(s)
        for _ in range(500):
            v = int(rng.integers(g.n))
            c = int(rng.integers(1, k + 1))
            d_mono, d_iso, d_eip = s.recount_change(v, c)
            s.recolor(v, c)
            steps_total += 1
            now = oracle.recompute(s)
            recounted = (prev.mono_edge_count + d_mono, prev.iso_edge_count + d_iso,
                         prev.e_ip + d_eip)
            if oracle.snapshot(s) != now or recounted != (now.mono_edge_count, now.iso_edge_count,
                                                    now.e_ip):
                mismatches += 1
                break
            prev = now
    ok = steps_total == 10_000 and mismatches == 0
    report(4, ok, f"{steps_total} steps across 20 graphs, {mismatches} mismatches")


@pytest.fixture(scope="module")
def coupon_sweep():
    """Criterion 5 ensembles plus their wall time, shared with criterion 12."""
    start = time.perf_counter()
    out = []
    for n in (8, 16, 32, 64):
        cfg = ExperimentConfig(
            family="complete", n=n, k=n, variant="uniform",
            seeds=500, master_seed=5, cap=10**6,
        )
        graph = build_graph(cfg)
        stats, records = run_ensemble(graph, cfg)
        out.append((cfg, graph, stats, records))
    return out, time.perf_counter() - start


def test_criterion_05_coupon_collector_scaling(coupon_sweep):
    """Mean steps on K_n at k=n follow a stable multiple of n ln n."""
    ensembles, elapsed = coupon_sweep
    points = []
    coeffs = []
    for cfg, graph, stats, _ in ensembles:
        n = graph.n
        points.append((n, graph.max_degree, stats.mean_steps))
        coeffs.append(stats.mean_steps / (n * math.log(n)))
    fit = scaling_fit(points, "n_log_n")
    center = sum(coeffs) / len(coeffs)
    max_dev = max(abs(c - center) / center for c in coeffs)
    ok = max_dev <= 0.25 and fit.r_squared >= 0.95 and elapsed < 60
    report(5, ok, f"coefficients {[round(c, 3) for c in coeffs]}, "
                  f"max deviation {max_dev:.1%}, R2={fit.r_squared:.4f}, {elapsed:.0f}s")


def test_criterion_06_n_log_delta_scaling():
    """Clique unions at five (n, size) scales fit a single n ln(max degree) law."""
    start = time.perf_counter()
    points = []
    for n, size in ((256, 8), (256, 16), (512, 8), (512, 16), (1024, 32)):
        cfg = ExperimentConfig(
            family="disjoint_cliques", count=n // size, size=size,
            variant="uniform", seeds=200, master_seed=6, cap=10**7,
        )
        graph = build_graph(cfg)
        stats, _ = run_ensemble(graph, cfg)
        points.append((graph.n, graph.max_degree, stats.mean_steps))
    fit = scaling_fit(points, "n_log_delta")
    elapsed = time.perf_counter() - start
    ok = fit.r_squared >= 0.95 and elapsed < 120
    report(6, ok, f"R2={fit.r_squared:.5f}, coefficient={fit.coefficient:.3f}, {elapsed:.0f}s")


def test_criterion_07_bipartite_linear_bound():
    """Mean steps on K_{m,m} stay a stable multiple of m."""
    ratios = []
    for m in (8, 16, 32):
        cfg = ExperimentConfig(
            family="complete_bipartite", a=m, b=m,
            variant="uniform", seeds=200, master_seed=7, cap=10**6,
        )
        stats, _ = run_ensemble(build_graph(cfg), cfg)
        ratios.append(stats.mean_steps / m)
    center = sum(ratios) / len(ratios)
    max_dev = max(abs(r - center) / center for r in ratios)
    ok = max_dev <= 0.30
    report(7, ok, f"mean/m ratios {[round(r, 3) for r in ratios]}, max deviation {max_dev:.1%}")


def test_criterion_08_adversarial_contrast():
    """Persistent and uniform step counts on 32 K_s from all-ones share one exact law.

    With k = s colors the number u of distinct colors in a clique never falls,
    and in both variants a draw raises it with probability (s-u)/s while no
    other draw changes it. Both step counts are therefore sums of the same
    independent geometrics, equal in distribution, with mean 32·s·H_{s-1}
    (663.77, 1698.93, 4123.90 for s = 8, 16, 32) and variance
    32·Σ_u (u/s)/((s-u)/s)². The persistent/uniform ratio cannot trend with s;
    every variant's mean must lie within 4 exact standard errors of the exact
    mean.
    """
    seeds = 200
    ok = True
    parts = []
    for delta in (8, 16, 32):
        mean, variance = clique_draws_law(delta)
        exact = float(32 * mean)
        se = math.sqrt(float(32 * variance) / seeds)
        zs = []
        for variant in ("persistent", "uniform"):
            cfg = ExperimentConfig(
                family="disjoint_cliques", count=32, size=delta, variant=variant,
                init="all_ones", seeds=seeds, master_seed=8, cap=10**7,
            )
            stats, _ = run_ensemble(build_graph(cfg), cfg)
            z = (stats.mean_steps - exact) / se
            ok = ok and stats.termination_fraction == 1.0 and abs(z) <= 4
            zs.append(f"{variant} {stats.mean_steps:.2f} (z={z:+.2f})")
        parts.append(f"s={delta}: exact {exact:.2f} se {se:.2f}, " + ", ".join(zs))
    report(8, ok, "; ".join(parts) + " (want all |z| <= 4)")


def test_criterion_09_parallel_stalling():
    """K_20 at k=20 over 10^4 rounds: terminations and stalling follow the exact chain.

    The conflicted count is a Markov chain on {0, 2, ..., 20}. A run terminates
    within 10^4 rounds with probability 0.02117, so "no run of 100 terminates"
    would hold only with probability 0.118. A run's conflicted count reaches
    <= 2 (epsilon = 0.1) with probability 0.721. Both counts of 100 runs must
    pass an exact two-sided binomial test at alpha = 1e-3 against those
    probabilities, and no run may record a conflicted count of 1, which the
    chain cannot reach. A ``ConflictedCounts`` observer reads each run's least
    count after round 1 or later (0 for a proper start).
    """
    cfg = ExperimentConfig(
        family="complete", n=20, k=20, variant="parallel",
        seeds=100, master_seed=9, cap=10**4,
    )
    graph = build_graph(cfg)
    terminations, least = 0, []
    for index in range(cfg.seeds):  # as run_ensemble runs them on one worker
        counts = ConflictedCounts()
        terminations += run_one(graph, index, cfg, counts).terminated
        least.append(counts.least())
    p_done = float(termination_cdf(20, cfg.cap)[-1])
    p_low = reach_probability(20, 2, cfg.cap)
    ever_below = sum(count <= 0.1 * cfg.n for count in least)
    pv_done = binomial_two_sided_p(terminations, cfg.seeds, p_done)
    pv_low = binomial_two_sided_p(ever_below, cfg.seeds, p_low)
    ones = least.count(1)
    ok = min(pv_done, pv_low) >= 1e-3 and ones == 0
    report(9, ok, f"terminations={terminations} (exact mean {cfg.seeds * p_done:.2f}, "
                  f"p={pv_done:.3f}), runs reaching <= 2: {ever_below} "
                  f"(exact mean {cfg.seeds * p_low:.1f}, p={pv_low:.3f}), runs at 1: {ones} "
                  f"(want p >= 0.001 and none at 1)")


def test_criterion_10_parallel_tiny_n_growth():
    """Parallel termination medians on K_4..K_10 grow and match the exact chain.

    The exact medians are 5, 21, 74 and 270 rounds; their ratios 4.2, 3.52 and
    3.65 do not increase, so no trend in the ratios is asserted. The simulated
    medians must strictly increase, and each must lie in the band that holds
    the median of 100 runs with probability >= 99.9% under the exact chain:
    [3, 9], [12, 33], [44, 116] and [160, 424].
    """
    medians = []
    exact = []
    bands = []
    for n in (4, 6, 8, 10):
        cfg = ExperimentConfig(
            family="complete", n=n, k=n, variant="parallel",
            seeds=100, master_seed=10, cap=10**7,
        )
        stats, _ = run_ensemble(build_graph(cfg), cfg)
        medians.append(stats.median_steps)
        cdf = termination_cdf(n, 5000)
        exact.append(cdf_median(cdf))
        bands.append(median_band(cdf, cfg.seeds, 1e-3))
    increasing = all(medians[i] < medians[i + 1] for i in range(3))
    inside = all(lo <= m <= hi for m, (lo, hi) in zip(medians, bands))
    ok = increasing and inside
    report(10, ok, f"medians {medians}, exact {exact}, 99.9% bands {bands} "
                   f"(want increasing and inside)")


def test_criterion_11_psi_step_size():
    """One-step changes of the clamped log potential stay below 2 D^2/n."""
    graph = disjoint_cliques(16, 8)
    d, n = graph.max_degree, graph.n
    bound = 2 * d * d / n + 1e-9
    cfg = ExperimentConfig(
        family="disjoint_cliques", count=16, size=8, variant="uniform",
        seeds=100, master_seed=11, cap=10**7,
    )
    worst = 0.0
    runs = 0
    for index in range(100):
        trace = []
        result = run_one(graph, index, cfg, Trace(trace.append))
        assert result.terminated
        runs += 1
        prev = psi_value(Fraction(trace[0]["phi_num"], 100 * d), n, d)
        for rec in trace[1:]:
            cur = psi_value(Fraction(rec["phi_num"], 100 * d), n, d)
            worst = max(worst, abs(cur - prev))
            prev = cur
    ok = runs == 100 and worst <= bound
    report(11, ok, f"max |psi step| {worst:.6f} vs bound {bound:.6f} over {runs} runs")


def test_criterion_12_worker_determinism(coupon_sweep):
    """The criterion-5 per-run CSV is byte-identical under a wider worker pool."""
    ensembles, _ = coupon_sweep
    baseline = io.StringIO()
    configs = [cfg for cfg, _, _, _ in ensembles]
    rows = []
    for cfg, graph, _, records in ensembles:
        rows.extend(run_rows(cell_columns(cfg, graph), records))
    write_runs_csv(baseline, configs, rows)

    wide_rows = []
    for cfg, _, _, _ in ensembles:
        graph = build_graph(cfg)
        _, records = run_ensemble(graph, cfg, workers=3)
        wide_rows.extend(run_rows(cell_columns(cfg, graph), records))
    rerun = io.StringIO()
    write_runs_csv(rerun, configs, wide_rows)
    ok = baseline.getvalue() == rerun.getvalue()
    report(12, ok, f"per-run CSV bytes equal across worker counts: {ok}")
