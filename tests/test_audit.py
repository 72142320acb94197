import json
import math
from fractions import Fraction

import pytest

from colorsim import (
    ColoringState,
    ExactExpectation,
    audit_state,
    check_claim_bipartite_isolated,
    check_claim_edges,
    check_claim_isolated,
    check_claim_mono_phi,
    check_claim_mult,
    complete,
    complete_bipartite,
    erdos_renyi,
    exact_step_expectations,
    from_edge_list,
    init_random,
    make_rng,
    state_digest,
)
from colorsim import audit, harness
from colorsim.harness import AuditSweepSpec, audit_instance
from exact_laws import additive_drift_bound, multiplicative_drift_bound, psi_value
import oracle


def path_state():
    return ColoringState(from_edge_list("0 1\n1 2"), 3, [1, 1, 2])


def single_component(state):
    return state.monochromatic_components()[0]


def check_single_component(check, state):
    """``check`` on the state's first component, given its exact expectation."""
    comp = single_component(state)
    return check(state, comp, exact_step_expectations(state, comp))


def whole_state_sums(state):
    """The components' sums added field by field, as ``audit_state`` adds them."""
    parts = [exact_step_expectations(state, c) for c in state.monochromatic_components()]
    return ExactExpectation(*map(sum, zip(*parts)))


def recolored_copy_expectation(state, vertices):
    """Sums of (mono, iso, e_ip) over every (v, c) outcome, by full recomputation.

    Each outcome is applied to a copy of the state with ``recolor`` and read
    back through ``oracle.recompute``, sharing no code with the local recount.
    """
    k = state.k
    sums = [0, 0, 0]
    for v in vertices:
        for c in range(1, k + 1):
            t = state.copy()
            t.recolor(v, c)
            after = oracle.recompute(t)
            sums[0] += after.mono_edge_count
            sums[1] += after.iso_edge_count
            sums[2] += after.e_ip
    return ExactExpectation(len(vertices) * k, *sums)


class TestExactExpectations:
    def test_matches_copy_recolor_oracle(self):
        # 60 audit instances over the four audit families, each at k = D+1,
        # k = D and k = 1; every component and the summed whole state
        spec = AuditSweepSpec(instances=60, master_seed=23, max_n=12)
        checked = 0
        for index in range(spec.instances):
            base, _ = audit_instance(spec, index)
            g = base.graph
            for k in sorted({g.max_degree + 1, max(1, g.max_degree), 1}):
                s = ColoringState(g, k, [min(c, k) for c in base.colors])
                if s.conflicted_count == 0:
                    continue
                assert whole_state_sums(s) == recolored_copy_expectation(
                    s, s.conflicted_vertices()), (index, k)
                for comp in s.monochromatic_components():
                    assert exact_step_expectations(s, comp) == recolored_copy_expectation(
                        s, comp.vertices), (index, k, comp.vertices)
                checked += 1
        assert checked > 100

    def test_path_six_outcome_enumeration(self):
        s = path_state()
        e = exact_step_expectations(s, single_component(s))
        assert e == (6, 3, 3, 3)
        e_mono, e_iso, e_eip = (Fraction(x, e.outcomes) for x in e[1:])
        assert (e_mono, e_iso, e_eip) == (Fraction(1, 2),) * 3
        assert check_claim_mult(s, e).lhs == e_mono + e_iso / 10 + e_eip / 200

    def test_triangle_nine_outcome_enumeration(self):
        s = ColoringState(complete(3), 3, [1, 1, 1])
        e = exact_step_expectations(s, single_component(s))
        # 3 no-op outcomes keep 3 edges, 6 recolorings leave a single edge
        assert Fraction(e.mono, e.outcomes) == Fraction(15, 9)
        assert Fraction(e.iso, e.outcomes) == Fraction(6, 9)

    def test_constant_outcome(self):
        # one conflicted pair in K_2 at k=1: every recolor is a no-op
        s = ColoringState(complete(2), 1, [1, 1])
        e = exact_step_expectations(s, single_component(s))
        assert Fraction(e.mono, e.outcomes) == 1

    def test_whole_state_equals_component_mixture(self):
        # the added component sums equal the whole-state enumeration
        g = erdos_renyi(20, 0.25, 13)
        rng = make_rng(13, 0)
        for _ in range(10):
            s = init_random(g, g.max_degree + 1, rng)
            if s.conflicted_count == 0:
                continue
            assert whole_state_sums(s) == recolored_copy_expectation(s, s.conflicted_vertices())

    def test_relabeling_invariance(self):
        g = erdos_renyi(12, 0.3, 21)
        rng = make_rng(21, 0)
        s = init_random(g, g.max_degree + 1, rng)
        if s.conflicted_count == 0:
            s.recolor(g.edges[0][0], s.color_of(g.edges[0][1]))
        # relabel vertices by reversal and rebuild the same state
        perm = {v: g.n - 1 - v for v in range(g.n)}
        relabeled = sorted(
            tuple(sorted((perm[u], perm[v]))) for u, v in g.edges
        )
        text = "\n".join(f"{u} {v}" for u, v in relabeled)
        g2 = from_edge_list(text, n=g.n)
        colors2 = [0] * g.n
        for v in range(g.n):
            colors2[perm[v]] = s.color_of(v)
        s2 = ColoringState(g2, s.k, colors2)
        assert whole_state_sums(s) == whole_state_sums(s2)

    def test_stale_component_rejected(self):
        s = path_state()
        comp = single_component(s)
        s.recolor(1, 3)
        with pytest.raises(ValueError, match="stale"):
            exact_step_expectations(s, comp)


class TestClaimChecks:
    def test_path_edge_claim_margin(self):
        s = path_state()
        entry = check_single_component(check_claim_edges, s)
        assert entry.lhs == Fraction(1, 2)
        assert entry.rhs == Fraction(2, 3)
        assert entry.margin == Fraction(1, 6) and entry.satisfied

    def test_triangle_edge_claim_is_tight(self):
        s = ColoringState(complete(3), 3, [1, 1, 1])
        entry = check_single_component(check_claim_edges, s)
        assert entry.rhs == Fraction(5, 3)
        assert entry.margin == 0 and entry.satisfied

    def test_path_isolated_claims(self):
        s = path_state()
        general, pair = check_single_component(check_claim_isolated, s)
        assert general.rhs == 3 and general.satisfied
        assert pair.rhs == Fraction(1, 2)
        assert pair.margin == 0 and pair.satisfied

    def test_size_three_component_has_single_isolated_entry(self):
        s = ColoringState(complete(3), 3, [1, 1, 1])
        entries = check_single_component(check_claim_isolated, s)
        assert len(entries) == 1

    def test_sandwich_entries(self):
        s = path_state()
        lower, upper = check_claim_mono_phi(s)
        assert lower.satisfied and upper.satisfied
        assert lower.margin == Fraction(21, 200)
        assert upper.margin == Fraction(179, 200)

    def test_mult_on_path(self):
        s = path_state()
        entry = check_claim_mult(s, whole_state_sums(s))
        assert entry.lhs == Fraction(221, 400)
        assert entry.rhs == Fraction(221, 200) * (1 - Fraction(1, 3000))
        assert entry.satisfied

    def test_mult_rejects_proper(self):
        s = ColoringState(complete(2), 2, [1, 2])
        with pytest.raises(ValueError):
            check_claim_mult(s, ExactExpectation(0, 0, 0, 0))

    def test_small_random_sweep_no_violations(self):
        rng = make_rng(99, 0)
        for trial in range(60):
            g = erdos_renyi(5 + int(rng.integers(20)), [0.1, 0.3, 0.7][trial % 3], trial)
            s = init_random(g, g.max_degree + 1, rng)
            for entry in audit_state(s):
                assert entry.satisfied, entry

    def test_bipartite_refinement(self):
        g = complete_bipartite(3, 3)
        rng = make_rng(33, 0)
        pair_margins = []
        for _ in range(200):
            s = init_random(g, g.max_degree + 1, rng)
            for comp in s.monochromatic_components():
                if comp.is_isolated_edge:
                    entry = check_claim_bipartite_isolated(
                        s, comp, exact_step_expectations(s, comp))
                    assert entry.satisfied
                    pair_margins.append(entry.margin)
        assert pair_margins  # the sweep must actually exercise the bound

    def test_bipartite_refinement_needs_pair(self):
        s = ColoringState(complete(3), 3, [1, 1, 1])
        with pytest.raises(ValueError):
            check_single_component(check_claim_bipartite_isolated, s)


class TestDigest:
    def test_digest_stable_and_distinguishes(self):
        a = path_state()
        b = path_state()
        assert state_digest(a) == state_digest(b)
        b.recolor(1, 3)
        assert state_digest(a) != state_digest(b)


class TestReportLines:
    """The exact JSONL lines of the audit report, pinned through the sweep."""

    @staticmethod
    def sweep_lines(monkeypatch, state):
        monkeypatch.setattr(harness, "audit_instance", lambda spec, index: (state, False))
        lines = harness.drift_audit_sweep(harness.AuditSweepSpec(instances=1))
        return [json.dumps(line, sort_keys=True) for line in lines]

    def test_claim_lines_of_the_path(self, monkeypatch):
        digest = '"state_digest": "1b47fcd583e365ea"'
        assert self.sweep_lines(monkeypatch, path_state()) == [
            '{"claim": "potential_sandwich_lower", "lhs": "1/1", "margin": "21/200", '
            f'"rhs": "221/200", "satisfied": true, {digest}}}',
            '{"claim": "potential_sandwich_upper", "lhs": "221/200", "margin": "179/200", '
            f'"rhs": "2/1", "satisfied": true, {digest}}}',
            '{"claim": "component_edge_drift", "component": [0, 1], "lhs": "1/2", '
            f'"margin": "1/6", "rhs": "2/3", "satisfied": true, {digest}}}',
            '{"claim": "isolated_edge_growth", "component": [0, 1], "lhs": "1/2", '
            f'"margin": "5/2", "rhs": "3/1", "satisfied": true, {digest}}}',
            '{"claim": "isolated_edge_pair_drift", "component": [0, 1], "lhs": "1/2", '
            f'"margin": "0/1", "rhs": "1/2", "satisfied": true, {digest}}}',
            '{"claim": "multiplicative_decay", "decay_ratio": "1/2", "lhs": "221/400", '
            '"margin": "331279/600000", "rhs": "662779/600000", "satisfied": true, '
            f'{digest}}}',
        ]

    def test_proper_coloring_skips_the_decay_line(self, monkeypatch):
        proper = ColoringState(from_edge_list("0 1\n1 2"), 3, [1, 2, 1])
        digest = '"state_digest": "50b53c438c7e3267"'
        assert self.sweep_lines(monkeypatch, proper) == [
            '{"claim": "potential_sandwich_lower", "lhs": "0/1", "margin": "0/1", '
            f'"rhs": "0/1", "satisfied": true, {digest}}}',
            '{"claim": "potential_sandwich_upper", "lhs": "0/1", "margin": "0/1", '
            f'"rhs": "0/1", "satisfied": true, {digest}}}',
            '{"claim": "multiplicative_decay", "reason": "proper coloring", '
            f'"skipped": true, {digest}}}',
        ]

    def test_budget_skip_line(self, monkeypatch):
        claim_lines = self.sweep_lines(monkeypatch, path_state())
        # 2 conflicted vertices times k = 3 colors is 6 outcomes
        monkeypatch.setattr(audit, "OUTCOME_BUDGET", 5)
        assert self.sweep_lines(monkeypatch, path_state()) == [
            '{"claim": "all", "reason": "enumeration budget exceeded (6 outcomes)", '
            '"skipped": true, "state_digest": "1b47fcd583e365ea"}',
        ]
        # a budget equal to the outcome count is not exceeded
        monkeypatch.setattr(audit, "OUTCOME_BUDGET", 6)
        assert self.sweep_lines(monkeypatch, path_state()) == claim_lines


class TestDriftCalculators:
    def test_additive_bound(self):
        assert additive_drift_bound(6, Fraction(1, 3)) == 18
        assert additive_drift_bound(0, 0.25) == 0

    def test_additive_bound_rejects_bad_drift(self):
        with pytest.raises(ValueError):
            additive_drift_bound(5, 0)

    def test_additive_endgame_shape(self):
        # drift 1/(delta+1) on m0 edges costs (delta+1)*m0 steps
        assert additive_drift_bound(10, 1 / 8) == pytest.approx(80)

    def test_multiplicative_bound(self):
        assert multiplicative_drift_bound(1000, 1, 0.001) == pytest.approx(7907.755, abs=0.01)
        assert multiplicative_drift_bound(5, 5, 0.2) == pytest.approx(5.0)

    def test_multiplicative_budget_shape(self):
        n, delta = 64, 8
        budget = multiplicative_drift_bound(n * delta, n / delta, 1 / (1000 * n))
        assert budget == pytest.approx(1000 * n * (1 + 2 * math.log(delta)))

    def test_multiplicative_bound_rejects(self):
        with pytest.raises(ValueError):
            multiplicative_drift_bound(1, 2, 0.1)
        with pytest.raises(ValueError):
            multiplicative_drift_bound(2, 1, 0)


class TestPsi:
    def test_clamp_regions(self):
        n, d = 128, 7
        assert psi_value(Fraction(n, d), n, d) == 0.0
        assert psi_value(Fraction(n, d) / 2, n, d) == 0.0
        assert psi_value(Fraction(n * d), n, d) == pytest.approx(2 * math.log(d))

    def test_edgeless(self):
        g = erdos_renyi(4, 0.0, 0)
        s = ColoringState(g, 2, [1, 1, 1, 1])
        assert psi_value(s.potential(), g.n, g.max_degree) == 0.0
