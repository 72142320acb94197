"""``BufferedDraws`` against its oracle, ``Generator.integers``.

``BufferedDraws`` reproduces numpy's bounded-integer method on raw PCG64
words, which numpy does not promise to keep; these tests are what catch a
numpy release that changes it. Every draw must equal the plain generator's,
and after ``close()`` the generator state must too. numpy leaves a stale
``uinteger`` behind when ``has_uint32`` is 0, so that field is compared only
while a half-word is pending.
"""

import numpy as np
import pytest

from colorsim import (
    VARIANTS,
    complete,
    disjoint_cliques,
    dynamics,
    erdos_renyi,
    init_fixed,
    init_random,
    make_rng,
    run,
)
from colorsim.dynamics import (
    DEFAULT_PERSISTENT_DRAW_CAP,
    STEPS,
    BufferedDraws,
    RunResult,
    TraceRecord,
)

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
    """(low, high, size) of one draw, spread over every kind of bound."""
    kind = int(script.integers(8))
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
        n = HALF
    elif kind == 5:
        n = int(script.integers(HALF + 1, 2**40))
    else:
        n = int(script.integers(2, 1000))
    size = int(script.integers(0, 10)) if script.integers(6) == 0 else None
    return low, low + n, size


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
            low, high, size = random_call(script)
            got, want = draws.integers(low, high, size), plain.integers(low, high, size)
            if size is None:
                assert got == want, (i, low, high)
            else:
                assert list(got) == want.tolist(), (i, low, high, size)
        draws.close()
        assert stream_state(buffered) == stream_state(plain), i


@pytest.mark.parametrize("bound", [1, 2, 3, 7, 1000, 2**31, 2**31 + 1, 3 * 2**30, HALF - 1, HALF])
@pytest.mark.parametrize("count", [0, 1, 2, 3, 511, 512, 513, 1201])
def test_scalar_runs_of_one_bound(bound, count):
    buffered, plain = pcg_pair(np.random.SeedSequence([bound % 9973, count]))
    draws = BufferedDraws(buffered)
    got = [draws.integers(bound) for _ in range(count)]
    assert got == [int(plain.integers(bound)) for _ in range(count)]
    draws.close()
    assert stream_state(buffered) == stream_state(plain)


def test_numpy_argument_types_and_the_low_only_form():
    buffered, plain = pcg_pair(np.random.SeedSequence(5))
    draws = BufferedDraws(buffered)
    for args in [(np.int64(7),), (np.int32(2), np.uint8(9)), (True, 5), (-2**63, -2**63 + 10)]:
        assert draws.integers(*args) == plain.integers(*args)
    assert list(draws.integers(4, size=np.int64(3))) == plain.integers(4, size=3).tolist()
    draws.close()
    assert stream_state(buffered) == stream_state(plain)


class TestHandBack:
    def test_pending_half_kept_when_nothing_is_read(self):
        buffered, plain = pcg_pair(np.random.SeedSequence(1))
        buffered.integers(5, size=3)
        plain.integers(5, size=3)
        draws = BufferedDraws(buffered)
        assert draws.integers(1, 2) == 1  # bound 1 reads nothing
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
        assert draws.integers(HALF - 1) == pending - 1 == plain.integers(HALF - 1)
        draws.close()
        assert stream_state(buffered) == stream_state(plain)

    @pytest.mark.parametrize("halves", [1, 2, 3, 4])
    def test_odd_halves_leave_the_high_half_pending(self, halves):
        buffered, plain = pcg_pair(np.random.SeedSequence(3))
        draws = BufferedDraws(buffered)
        assert [draws.integers(HALF - 1) for _ in range(halves)] == [
            plain.integers(HALF - 1) for _ in range(halves)]
        draws.close()
        assert stream_state(buffered) == stream_state(plain)
        assert buffered.bit_generator.state["has_uint32"] == halves % 2

    def test_wide_bound_hands_the_stream_to_numpy_and_back(self):
        buffered, plain = pcg_pair(np.random.SeedSequence(4))
        draws = BufferedDraws(buffered)
        for bound in (7, 2**40, 7, 7, 2**63, 3):
            assert draws.integers(bound) == plain.integers(bound)
        draws.close()
        assert stream_state(buffered) == stream_state(plain)

    def test_bad_arguments_raise_like_numpy(self):
        buffered, plain = pcg_pair(np.random.SeedSequence(5))
        draws = BufferedDraws(buffered)
        draws.integers(9)
        plain.integers(9)
        for args in [(5, 5), (0,), (2**63, 2**63 + 2), (0, 2**63 + 1)]:
            with pytest.raises(ValueError):
                plain.integers(*args)
            with pytest.raises(ValueError):
                draws.integers(*args)
        assert draws.integers(9) == plain.integers(9)
        draws.close()
        assert stream_state(buffered) == stream_state(plain)

    def test_closed_draws_refuse_to_read(self):
        buffered, _ = pcg_pair(np.random.SeedSequence(6))
        draws = BufferedDraws(buffered)
        draws.integers(10)
        draws.close()
        state = stream_state(buffered)
        with pytest.raises(ValueError):
            draws.integers(10)
        with pytest.raises(ValueError):
            draws.integers(2**40)
        draws.close()
        assert stream_state(buffered) == state

    def test_needs_pcg64(self):
        with pytest.raises(TypeError):
            BufferedDraws(np.random.Generator(np.random.MT19937(0)))


def reference_run(state, variant, cap, rng, trace):
    """``run`` rebuilt from step calls on a plain generator, traced by the oracle."""
    step = getattr(dynamics, STEPS[variant])
    initial_phi, initial_num = state.potential(), state.phi_num

    def record(t, vertices, colors):
        snap = state.recompute_all()
        return TraceRecord(t, vertices, colors, snap.mono_edge_count, snap.iso_edge_count,
                           snap.e_ip, snap.phi_num)

    records = [record(0, (), ())] if trace else []
    steps, stalled = 0, False
    counts = [len(state.recompute_all().conflicted)]  # the initial count, then one per step
    while counts[-1] > 0 and steps < cap:
        before = steps
        if variant == "persistent":
            limit = min(DEFAULT_PERSISTENT_DRAW_CAP, cap - before)
            vertices, colors, draws = step(state, rng, limit)
        else:
            vertices, colors, draws = step(state, rng)
        steps += draws
        counts.append(len(state.recompute_all().conflicted))
        if not colors and draws == DEFAULT_PERSISTENT_DRAW_CAP < cap - before:
            stalled = True
            break
        if trace and colors:
            records.append(record(steps, vertices, colors))
    result = RunResult(steps, counts[-1] == 0, initial_phi, state.potential(),
                       initial_num, state.phi_num, min(counts[1:] or counts), stalled)
    return result, records


CASES = [
    (erdos_renyi(24, 0.3, 5), None, 10**5),
    (disjoint_cliques(3, 6), None, 10**5),
    (complete(7), None, 9),  # the cap ends most runs
    (complete(9), 6, 300),  # palette below D + 1: persistent runs can stall
    (erdos_renyi(5, 0.0, 0), None, 100),
]


@pytest.mark.parametrize("trace", [False, True], ids=["plain", "trace"])
@pytest.mark.parametrize("variant", VARIANTS)
def test_run_equals_reference_loop(variant, trace):
    for case, (g, k, cap) in enumerate(CASES):
        k = k or g.max_degree + 1
        for seed in range(6):
            buffered, plain = make_rng(case, seed), make_rng(case, seed)
            got = run(init_random(g, k, buffered), variant, cap, buffered, trace=trace)
            want = reference_run(init_random(g, k, plain), variant, cap, plain, trace)
            assert got == want, (case, seed)
            assert stream_state(buffered) == stream_state(plain), (case, seed)


def test_run_from_a_fixed_coloring_without_pending_half():
    g = complete(8)
    buffered, plain = make_rng(9, 0), make_rng(9, 0)
    got = run(init_fixed(g, 8, [1] * 8), "uniform", 10**5, buffered)
    want = reference_run(init_fixed(g, 8, [1] * 8), "uniform", 10**5, plain, False)
    assert got == want
    assert stream_state(buffered) == stream_state(plain)


def test_persistent_stall_equals_reference_loop():
    # the triangle colored (1, 2, 1) with k = 2: the picked vertex sees both
    # colors, so the draw guard trips while one step of the cap remains
    g = complete(3)
    cap = DEFAULT_PERSISTENT_DRAW_CAP + 1
    buffered, plain = make_rng(3, 0), make_rng(3, 0)
    got = run(init_fixed(g, 2, [1, 2, 1]), "persistent", cap, buffered)
    want = reference_run(init_fixed(g, 2, [1, 2, 1]), "persistent", cap, plain, False)
    assert got[0].stalled and got[0].steps == DEFAULT_PERSISTENT_DRAW_CAP
    assert got == want
    assert stream_state(buffered) == stream_state(plain)
