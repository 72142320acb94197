"""``BufferedDraws.draw`` against its oracle, ``Generator.integers``.

``BufferedDraws`` reproduces numpy's bounded-integer method on raw PCG64
words, which numpy does not promise to keep; these tests are what catch a
numpy release that changes it. ``draw(n)`` must equal the plain generator's
draw in each shape the steps' draws once took on a generator: ``integers(n)``,
``integers(1, k + 1)`` as ``1 + draw(k)`` and ``integers(1, k + 1, size=m)``
as m such draws; after ``close()`` the generator state must equal it too.
numpy leaves a stale ``uinteger`` behind when ``has_uint32`` is 0, so that
field is compared only while a half-word is pending.
"""

import numpy as np
import pytest

from colorsim import (
    ColoringState,
    complete,
    disjoint_cliques,
    dynamics,
    erdos_renyi,
    init_random,
    make_rng,
    run,
)
from colorsim.dynamics import (
    STEPS,
    BufferedDraws,
    RunResult,
    Trace,
)
from observers import ConflictedCounts
import oracle

HALF = 2**32


def pcg_pair(seed_seq):
    """Two generators on the same stream: one to buffer, one as the oracle."""
    return (np.random.Generator(np.random.PCG64(seed_seq)),
            np.random.Generator(np.random.PCG64(seed_seq)))


def stream_state(rng):
    state = rng.bit_generator.state
    if not state["has_uint32"]:
        state["uinteger"] = None
    return state


def random_call(script):
    """(low, n, size) of one draw, spread over every kind of bound below 2**32."""
    kind = int(script.integers(6))
    low = int(script.integers(-3, 4))
    if kind == 0:
        n = 1
    elif kind == 1:
        n = 2
    elif kind == 2:
        n = int(script.integers(3, 100))
    elif kind == 3:
        n = int(script.integers(2**31, HALF))
    elif kind == 4:
        n = int(script.integers(1000, 2**31))
    else:
        n = int(script.integers(2, 1000))
    size = int(script.integers(0, 10)) if script.integers(6) == 0 else None
    return low, n, size


def numpy_call(plain, low, n, size):
    """The draw on the oracle, in the one-argument form at low 0."""
    if size is None:
        return int(plain.integers(n) if low == 0 else plain.integers(low, low + n))
    return plain.integers(low, low + n, size).tolist()


def draw_call(draw, low, n, size):
    if size is None:
        return low + draw(n)
    return [low + draw(n) for _ in range(size)]


@pytest.mark.parametrize("part", range(4))
def test_draws_and_final_state_equal_numpy(part):
    streams = np.random.SeedSequence(2024).spawn(240)[part::4]
    for i, seed_seq in enumerate(streams):
        buffered, plain = pcg_pair(seed_seq)
        script = np.random.default_rng([part, i])
        if i % 3 == 0:  # an odd-length bulk draw leaves a half-word pending
            odd = 2 * int(script.integers(5)) + 1
            assert (buffered.integers(1, 9, size=odd) == plain.integers(1, 9, size=odd)).all()
            assert buffered.bit_generator.state["has_uint32"] == 1
        draws = BufferedDraws(buffered)
        for _ in range(int(script.integers(1, 1500))):  # a block holds 512 halves
            low, n, size = random_call(script)
            got, want = draw_call(draws.draw, low, n, size), numpy_call(plain, low, n, size)
            assert got == want, (i, low, n, size)
        draws.close()
        assert stream_state(buffered) == stream_state(plain), i


@pytest.mark.parametrize("bound", [1, 2, 3, 7, 1000, 2**31, 2**31 + 1, 3 * 2**30, HALF - 1, HALF])
@pytest.mark.parametrize("count", [0, 1, 2, 3, 511, 512, 513, 1201])
def test_scalar_runs_of_one_bound(bound, count):
    buffered, plain = pcg_pair(np.random.SeedSequence([bound % 9973, count]))
    draws = BufferedDraws(buffered)
    if bound < HALF:
        got = [draws.draw(bound) for _ in range(count)]
        assert got == [int(plain.integers(bound)) for _ in range(count)]
    else:  # past the range of draw: every call raises and reads nothing
        for _ in range(count):
            with pytest.raises(ValueError):
                draws.draw(bound)
    draws.close()
    assert stream_state(buffered) == stream_state(plain)


@pytest.mark.parametrize("bound", [0, -1, HALF, 2**40, 2.0, np.int64(5), True, None])
def test_bounds_outside_the_range_raise(bound):
    buffered, plain = pcg_pair(np.random.SeedSequence(7))
    draws = BufferedDraws(buffered)
    assert draws.draw(9) == plain.integers(9)
    with pytest.raises(ValueError):
        draws.draw(bound)
    assert draws.draw(9) == plain.integers(9)
    draws.close()
    assert stream_state(buffered) == stream_state(plain)


class TestHandBack:
    def test_pending_half_kept_when_nothing_is_read(self):
        buffered, plain = pcg_pair(np.random.SeedSequence(1))
        buffered.integers(5, size=3)
        plain.integers(5, size=3)
        draws = BufferedDraws(buffered)
        assert draws.draw(1) == 0  # bound 1 reads nothing
        draws.close()
        assert stream_state(buffered) == stream_state(plain)
        assert buffered.bit_generator.state["has_uint32"] == 1

    def test_pending_half_read_first(self):
        buffered, plain = pcg_pair(np.random.SeedSequence(2))
        buffered.integers(5, size=1)
        plain.integers(5, size=1)
        pending = plain.bit_generator.state["uinteger"]
        draws = BufferedDraws(buffered)
        # bound 2**32 - 1 maps a half x to x - 1 (rejecting only x = 0)
        assert draws.draw(HALF - 1) == pending - 1 == plain.integers(HALF - 1)
        draws.close()
        assert stream_state(buffered) == stream_state(plain)

    @pytest.mark.parametrize("halves", [1, 2, 3, 4])
    def test_odd_halves_leave_the_high_half_pending(self, halves):
        buffered, plain = pcg_pair(np.random.SeedSequence(3))
        draws = BufferedDraws(buffered)
        assert [draws.draw(HALF - 1) for _ in range(halves)] == [
            plain.integers(HALF - 1) for _ in range(halves)]
        draws.close()
        assert stream_state(buffered) == stream_state(plain)
        assert buffered.bit_generator.state["has_uint32"] == halves % 2

    def test_bad_arguments_raise_like_numpy(self):
        buffered, plain = pcg_pair(np.random.SeedSequence(5))
        draws = BufferedDraws(buffered)
        draws.draw(9)
        plain.integers(9)
        for bound in (0, -5):
            with pytest.raises(ValueError):
                plain.integers(bound)
            with pytest.raises(ValueError):
                draws.draw(bound)
        assert draws.draw(9) == plain.integers(9)
        draws.close()
        assert stream_state(buffered) == stream_state(plain)

    def test_closed_draws_refuse_to_read(self):
        buffered, _ = pcg_pair(np.random.SeedSequence(6))
        draws = BufferedDraws(buffered)
        draws.draw(10)
        draws.close()
        state = stream_state(buffered)
        with pytest.raises(ValueError):
            draws.draw(10)
        with pytest.raises(ValueError):
            draws.draw(2**40)
        draws.close()
        assert stream_state(buffered) == state

    def test_needs_pcg64(self):
        with pytest.raises(TypeError):
            BufferedDraws(np.random.Generator(np.random.MT19937(0)))


def reference_run(state, variant, cap, rng, trace):
    """``run`` rebuilt from step calls on a plain generator, traced by the oracle.

    Returns the ``RunResult``, the trace lines (none untraced) and the least
    conflicted count after a step, or the initial count if the run took no step.
    """
    step = getattr(dynamics, STEPS[variant])
    draw = lambda n: int(rng.integers(n))
    initial_num = state.phi_num

    def record(t, vertices, colors):
        snap = oracle.recompute(state)
        return {"t": t, "vertices": list(vertices), "colors": list(colors),
                "mono_edges": snap.mono_edge_count, "iso_edges": snap.iso_edge_count,
                "iso_proper_edges": snap.e_ip, "phi_num": snap.phi_num}

    records = [record(0, (), ())] if trace else []
    steps, stalled = 0, False
    counts = [len(oracle.recompute(state).conflicted)]  # the initial count, then one per step
    while counts[-1] > 0 and steps < cap:
        before = steps
        if variant == "persistent":
            limit = cap - before
            vertices, colors, draws = step(state, draw, limit)
        else:
            vertices, colors, draws = step(state, draw)
        steps += draws
        counts.append(len(oracle.recompute(state).conflicted))
        if not colors and draws < limit:
            stalled = True
            break
        if trace and colors:
            records.append(record(steps, vertices, colors))
    result = RunResult(steps, counts[-1] == 0, initial_num, state.phi_num, stalled)
    return result, records, min(counts[1:] or counts)


CASES = [
    (erdos_renyi(24, 0.3, 5), None, 10**5),
    (disjoint_cliques(3, 6), None, 10**5),
    (complete(7), None, 9),  # the cap ends most runs
    (complete(9), 6, 300),  # palette below D + 1: persistent runs can stall
    (erdos_renyi(5, 0.0, 0), None, 100),
]


@pytest.mark.parametrize("trace", [False, True], ids=["plain", "trace"])
@pytest.mark.parametrize("variant", tuple(STEPS))
def test_run_equals_reference_loop(variant, trace):
    for case, (g, k, cap) in enumerate(CASES):
        k = k or g.max_degree + 1
        for seed in range(6):
            buffered, plain = make_rng(case, seed), make_rng(case, seed)
            lines, counts = [], ConflictedCounts()  # lines stay empty untraced, as the records do
            result = run(init_random(g, k, buffered), variant, cap, buffered,
                         Trace(lines.append) if trace else counts)
            want, records, least = reference_run(init_random(g, k, plain), variant, cap, plain,
                                                 trace)
            assert (result, lines) == (want, records), (case, seed)
            if not trace:
                assert counts.least() == least, (case, seed)
            assert stream_state(buffered) == stream_state(plain), (case, seed)


def test_run_from_a_fixed_coloring_without_pending_half():
    g = complete(8)
    buffered, plain = make_rng(9, 0), make_rng(9, 0)
    result = run(ColoringState(g, 8, [1] * 8), "uniform", 10**5, buffered,
                 counts := ConflictedCounts())
    want = reference_run(ColoringState(g, 8, [1] * 8), "uniform", 10**5, plain, False)
    assert (result, [], counts.least()) == want
    assert stream_state(buffered) == stream_state(plain)


def test_persistent_stall_equals_reference_loop():
    # the triangle colored (1, 2, 1) with k = 2: the picked vertex sees both
    # colors, so the run stalls after its vertex draw, with no color draw
    g = complete(3)
    cap = 10**6
    buffered, plain = make_rng(3, 0), make_rng(3, 0)
    result = run(ColoringState(g, 2, [1, 2, 1]), "persistent", cap, buffered,
                 counts := ConflictedCounts())
    want = reference_run(ColoringState(g, 2, [1, 2, 1]), "persistent", cap, plain, False)
    assert result.stalled and result.steps == 0
    assert (result, [], counts.least()) == want
    assert stream_state(buffered) == stream_state(plain)


class StopRun(Exception):
    """Raised by an observer to end a run from inside its loop."""


def raise_at(steps):
    """An observer that raises at the first applied step that brings the run to ``steps``."""
    def observe(state, t, vertices, colors):
        if t >= steps:
            raise StopRun
    return observe


@pytest.mark.parametrize("variant, steps", [("uniform", 700), ("persistent", 700),
                                            ("parallel", 40)])
def test_run_hands_the_stream_back_when_an_observer_raises(variant, steps):
    # n = 961 is odd, so init_random leaves a half pending; each run crosses
    # several 512-half block refills before the observer raises
    g = disjoint_cliques(31, 31)
    k = g.max_degree + 1
    buffered, plain = make_rng(31, 0), make_rng(31, 0)
    state = init_random(g, k, buffered)
    assert buffered.bit_generator.state["has_uint32"] == 1
    with pytest.raises(StopRun):
        run(state, variant, 10**6, buffered, raise_at(steps))
    want = init_random(g, k, plain)
    step = getattr(dynamics, STEPS[variant])
    draw = lambda n: int(plain.integers(n))
    taken = 0
    while taken < steps:  # a persistent step counts its draws
        taken += step(want, draw)[2]
    assert state.colors == want.colors
    assert stream_state(buffered) == stream_state(plain)
