"""Single steps and full runs of the recoloring process variants.

Four variants share one state representation:

* ``uniform``         pick a conflicted vertex uniformly, then a color uniformly;
* ``component_view``  pick a monochromatic component with probability
  proportional to its vertex count, a vertex uniformly inside it, then a
  color (provably the same step distribution as ``uniform``; tested, not
  assumed);
* ``persistent``      pick a conflicted vertex uniformly, then redraw its color
  until no neighbor shares it; every draw counts as a step;
* ``parallel``        freeze the conflicted set and redraw every member at once;
  one round counts as one step.

Every step function returns a plain ``(vertices, colors, draws)`` tuple: the
recolored vertices, their new colors and the color draws it consumed (only
the persistent variant uses more than one). A persistent step that accepts no
color returns ``colors == ()`` and leaves the state unchanged; ``run`` tells
a tripped draw guard (a stall) from a spent cap by whether steps remain.

RNG contract: a named, versioned, splittable generator (numpy PCG64 seeded
through SeedSequence). Per-run streams come from
``make_rng(master_seed, stream)``; draw order is fixed and documented on each
step function, so equal inputs reproduce traces byte for byte. ``run`` reads
its draws through ``BufferedDraws``: blocks of raw PCG64 words, turned into
bounded integers by numpy's own method (Lemire's rejection on 32-bit halves,
low half first). Every draw and the generator state left behind are
bit-identical to ``Generator.integers``; ``tests/test_draws.py`` checks this
against numpy, so a numpy release that changes its method fails there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .state import ColoringState, phi_numerator

# variant -> name of its step function here; ``run`` looks it up once per run,
# so a wrapper installed on the module attribute sees every step
STEPS = {
    "uniform": "step_uniform",
    "component_view": "step_component_view",
    "persistent": "step_persistent",
    "parallel": "step_parallel",
}
VARIANT_ALIASES = {"component": "component_view"}

DEFAULT_PERSISTENT_DRAW_CAP = 10**6


class ProperColoringError(ValueError):
    """A step was requested on a coloring that is already proper."""


def make_rng(master_seed: int, stream: int = 0) -> np.random.Generator:
    """Derive an independent, reproducible PCG64 stream from a master seed."""
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy=master_seed, spawn_key=(stream,)))
    )


_HALF = 1 << 32  # bound of one 32-bit half-word
_MASK = _HALF - 1
_LOW = (1 << 63) - _HALF  # a low below this keeps low + n, n < 2**32, inside int64


class BufferedDraws:
    """``Generator.integers`` for a PCG64 generator, read from raw word blocks.

    numpy draws an integer in [low, low + n) with n < 2**32 from 32-bit
    halves of 64-bit PCG64 words, low half first: m = x * n for a half x,
    redrawn while m mod 2**32 < (2**32 - n) mod n (only tested once
    m mod 2**32 < n), giving low + (m >> 32). n = 1 reads nothing; a bulk
    ``size=`` draw is the same method element by element, returned here as
    a list. This class reads the halves from ``random_raw`` blocks instead
    of one numpy call per draw. A half left pending in the generator
    (``has_uint32``) is read first.

    It serves the draws steps make: Python ints with 0 <= low < 2**63 - 2**32
    and bounds 1 to 2**32 - 1, alone or in bulk. Every other call (bound
    2**32, a negative low, a wider bound, another argument type, an invalid
    argument) hands the stream back to numpy for that call.

    The generator runs ahead of what was read until ``close()``, which
    leaves it exactly where ``Generator.integers`` would have: advanced by
    the words read, with an unread high half pending. Draw nothing after
    ``close()``.
    """

    BLOCK = 256  # words per ``random_raw`` call

    def __init__(self, rng: np.random.Generator):
        if not isinstance(rng.bit_generator, np.random.PCG64):
            raise TypeError("BufferedDraws needs a PCG64 generator")
        self._rng = rng
        self._bg = rng.bit_generator
        self._open()

    def _open(self) -> None:
        entry = self._bg.state
        self._entry = entry
        self._pending = entry["has_uint32"]
        self._buf = [entry["uinteger"]] if self._pending else []  # unread halves, last first
        self._fetched = self._pending  # halves ever put in the buffer

    def _refill(self) -> int:
        """Fetch a block, keep its halves and return the first."""
        if self._entry is None:
            raise ValueError("draws are closed")
        raw = self._bg.random_raw(self.BLOCK).astype("<u8", copy=False)
        halves = raw.view("<u4")[::-1].tolist()
        self._fetched += len(halves)
        self._buf = halves
        return halves.pop()

    def integers(self, low, high=None, size=None):
        if high is None:
            low, high = 0, low
        n = high - low
        if size is not None or type(n) is not int or not 1 < n < _HALF or not 0 <= low < _LOW:
            return self._other(low, high, size)
        buf = self._buf
        m = (buf.pop() if buf else self._refill()) * n
        if m & _MASK < n:
            t = (_HALF - n) % n
            while m & _MASK < t:
                buf = self._buf
                m = (buf.pop() if buf else self._refill()) * n
        return low + (m >> 32)

    def _other(self, low, high, size):
        """Bulk draws and bound 1; numpy itself takes every other call."""
        n = high - low
        if (type(n) is not int or not 0 < n < _HALF or not 0 <= low < _LOW
                or size is not None and (type(size) is not int or size < 0)):
            return self._numpy(low, high, size)
        if size is None:
            return low  # bound 1 reads nothing
        return [self.integers(low, high) for _ in range(size)]

    def _numpy(self, low, high, size):
        if self._entry is None:
            raise ValueError("draws are closed")
        self.close()
        try:
            return self._rng.integers(low, high, size)
        finally:
            self._open()

    def close(self) -> None:
        """Hand the stream back: the generator state numpy would have left."""
        if self._entry is None:
            return
        used = self._fetched - len(self._buf)
        bg = self._bg
        if used == 0:
            bg.state = self._entry
        else:
            halves = used - self._pending  # read from fetched words
            bg.state = {**self._entry, "has_uint32": 0, "uinteger": 0}
            bg.advance((halves + 1) // 2)
            if halves % 2:
                state = bg.state
                state["has_uint32"], state["uinteger"] = 1, self._buf[-1]
                bg.state = state
        self._entry, self._buf = None, []


@dataclass(frozen=True)
class TraceRecord:
    t: int
    vertices: tuple[int, ...]
    colors: tuple[int, ...]
    mono_edge_count: int
    iso_edge_count: int
    e_ip: int
    phi_num: int


@dataclass(frozen=True)
class RunResult:
    """One seeded run: what ``run`` returns and a row of the per-run CSV.

    ``steps`` counts recolorings; for the persistent variant it counts every
    color draw (including draws equal to the current color), for the parallel
    variant it counts rounds. ``terminated`` implies the final coloring is
    proper; a non-terminated, non-stalled run used exactly ``cap`` steps.
    The potentials are the integer numerators over 100 * max_degree
    (``ColoringState.potential`` gives the Fraction). ``min_conflicted`` is the
    least conflicted count after step 1 or later, or the initial count if the
    run took no step, so a proper start gives 0. ``wall_ns`` is the run's wall
    time where ``harness.run_one`` was asked to time it, else 0.
    """

    steps: int
    terminated: bool
    initial_phi_num: int
    final_phi_num: int
    min_conflicted: int
    stalled: bool = False
    wall_ns: int = 0


def _require_conflict(state: ColoringState) -> None:
    if state.conflicted_count == 0:
        raise ProperColoringError("coloring is already proper; no step to take")


Step = tuple[tuple[int, ...], tuple[int, ...], int]  # (vertices, colors, draws)


def step_uniform(state: ColoringState, rng: np.random.Generator) -> Step:
    """One step: vertex uniform over the conflicted set, then color uniform.

    Consumes exactly two draws, vertex first, color second. The new color may
    equal the old one.
    """
    _require_conflict(state)
    v = state.conflicted_at(int(rng.integers(state.conflicted_count)))
    c = int(rng.integers(1, state.k + 1))
    state.recolor(v, c)
    return (v,), (c,), 1


def step_component_view(state: ColoringState, rng: np.random.Generator) -> Step:
    """One step through the component decomposition.

    Three draws in order: component (weighted by vertex count), vertex inside
    the component, color.
    """
    _require_conflict(state)
    components = state.monochromatic_components()
    r = int(rng.integers(state.conflicted_count))  # the components' total size
    acc = 0
    chosen = components[-1]
    for comp in components:
        acc += comp.size
        if r < acc:
            chosen = comp
            break
    v = chosen.vertices[int(rng.integers(chosen.size))]
    c = int(rng.integers(1, state.k + 1))
    state.recolor(v, c)
    return (v,), (c,), 1


def step_persistent(
    state: ColoringState,
    rng: np.random.Generator,
    draw_limit: int = DEFAULT_PERSISTENT_DRAW_CAP,
) -> Step:
    """One persistent step: redraw the picked vertex until it fits.

    Draw order: vertex first, then colors one at a time until the candidate
    color appears on no neighbor. Intermediate draws touch nothing; only the
    accepted color is applied. With k = max_degree + 1 a free color always
    exists; with smaller palettes the neighborhood can cover every color, so
    the loop makes at most ``draw_limit`` color draws. ``run`` passes the
    draw guard ``DEFAULT_PERSISTENT_DRAW_CAP`` or the steps left of its cap,
    whichever is smaller. A step that runs out of draws returns no color and
    changes nothing.
    """
    _require_conflict(state)
    v = state.conflicted_at(int(rng.integers(state.conflicted_count)))
    blocked = state.neighbor_colors(v)
    k = state.k
    draws = 0
    while draws < draw_limit:
        c = int(rng.integers(1, k + 1))
        draws += 1
        if c not in blocked:
            state.recolor(v, c)
            return (v,), (c,), draws
    return (v,), (), draws


def step_parallel(state: ColoringState, rng: np.random.Generator) -> Step:
    """One round: every currently conflicted vertex redraws simultaneously.

    Membership in the recoloring set is frozen before any draw; draws happen
    in ascending vertex order, then all updates are applied at once.
    """
    _require_conflict(state)
    frozen = state.conflicted_vertices()
    draws = rng.integers(1, state.k + 1, size=len(frozen))
    colors = tuple(map(int, draws))
    state.apply_batch(frozen, colors)
    return frozen, colors, 1


def run(
    state: ColoringState,
    variant: str,
    cap: int,
    rng: np.random.Generator,
    trace: bool = False,
) -> tuple[RunResult, list[TraceRecord]]:
    """Apply the variant's step until the coloring is proper or ``cap`` is spent.

    Cap exhaustion is a result, not an error; so is a stall, a persistent step
    whose ``DEFAULT_PERSISTENT_DRAW_CAP`` draws were all blocked while steps
    remained. The trace (when requested) starts with a t=0 record of the
    initial state and then one record per applied step. ``rng`` is a PCG64
    generator; the steps read it through ``BufferedDraws``, and on return it
    stands where plain ``Generator.integers`` calls would have left it.
    """
    if variant not in STEPS:
        raise ValueError(f"unknown variant {variant!r}")
    if cap < 0:
        raise ValueError("cap must be >= 0")
    records: list[TraceRecord] = []
    d = state.graph.max_degree

    def record(t: int, vertices: tuple[int, ...], colors: tuple[int, ...],
               counts: tuple[int, int, int]) -> None:
        mono, iso, e_ip = counts
        records.append(
            TraceRecord(t, vertices, colors, mono, iso, e_ip, phi_numerator(d, mono, iso, e_ip))
        )

    initial_num = state.phi_num
    conflicted = initial_conflicted = state.conflicted_count
    least = state.graph.n  # no count after a step exceeds n
    if trace:
        counts = (state.mono_edge_count, state.iso_edge_count, state.e_ip)
        shadow = list(state.colors)  # the colors at the latest record
        record(0, (), (), counts)
    step = globals()[STEPS[variant]]
    budgeted = variant == "persistent"
    steps = 0
    stalled = False
    draws = BufferedDraws(rng)
    try:
        while conflicted and steps < cap:
            vertices, colors, used = (
                step(state, draws, min(DEFAULT_PERSISTENT_DRAW_CAP, cap - steps)) if budgeted
                else step(state, draws))
            steps += used
            conflicted = state.conflicted_count
            if conflicted < least:
                least = conflicted
            if not colors:  # the draw guard tripped, or the cap ran out
                stalled = steps < cap
                break
            if trace:
                if variant == "parallel":
                    counts = (state.mono_edge_count, state.iso_edge_count, state.e_ip)
                else:
                    # the counts before the step, minus what recoloring v back
                    # to its old color would change: local, where a full
                    # recount would cost O(n + m) per step
                    (v,), (c,) = vertices, colors
                    d_mono, d_iso, d_eip = state.recount_change(v, shadow[v])
                    counts = (counts[0] - d_mono, counts[1] - d_iso, counts[2] - d_eip)
                    shadow[v] = c
                record(steps, vertices, colors, counts)
    finally:
        draws.close()
    result = RunResult(
        steps=steps,
        terminated=state.conflicted_count == 0,
        initial_phi_num=initial_num,
        final_phi_num=state.phi_num,
        min_conflicted=least if steps else initial_conflicted,
        stalled=stalled,
    )
    return result, records
