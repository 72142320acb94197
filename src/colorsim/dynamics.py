"""Single steps and full runs of the recoloring process variants.

Four variants share one state representation:

* ``uniform``         pick a conflicted vertex uniformly, then a color uniformly;
* ``component_view``  pick a monochromatic component with probability
  proportional to its vertex count, a vertex uniformly inside it, then a
  color (provably the same step distribution as ``uniform``; tested, not
  assumed). The component is that of a uniform conflicted vertex, so only
  it is walked;
* ``persistent``      pick a conflicted vertex uniformly, then redraw its color
  until no neighbor shares it; every draw counts as a step, and a pick whose
  neighbors carry all k colors stalls the run at once;
* ``parallel``        freeze the conflicted set and redraw every member at once;
  one round counts as one step.

Every step function takes the state and ``draw`` and returns a plain
``(vertices, colors, draws)`` tuple: the recolored vertices, their new colors
and the color draws it consumed (only the persistent variant uses more than
one). A persistent step that accepts no color returns ``colors == ()`` and
leaves the state unchanged; ``run`` tells a stuck pick (a stall) from a spent
cap by whether steps remain. ``run`` returns a ``RunResult`` and shows each
applied step to an optional observer; the loop itself keeps only the step
count, the conflicted count and the stall. The observer ``Trace`` builds the
JSON lines ``colorsim run --trace-out`` writes, here and nowhere else.

RNG contract: a named, versioned, splittable generator (numpy PCG64 seeded
through SeedSequence). Per-run streams come from
``make_rng(master_seed, stream)``. A step makes every random choice with
``draw(n)``, uniform on 0..n-1 for 1 <= n < 2**32, in the order its docstring
fixes, so equal inputs reproduce traces byte for byte; a color is
``1 + draw(k)``. ``run`` passes ``BufferedDraws.draw``, bit-identical to
``Generator.integers(n)`` down to the generator state left behind; under
numpy's method ``integers(1, k + 1)`` is ``1 + integers(k)`` and a ``size=``
draw is the same draws one by one. ``tests/test_draws.py`` checks this
against numpy, so a numpy release that changes its method fails there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

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


class ProperColoringError(ValueError):
    """A step was requested on a coloring that is already proper."""


_NO_STEP = "coloring is already proper; no step to take"


def make_rng(master_seed: int, stream: int = 0) -> np.random.Generator:
    """Derive an independent, reproducible PCG64 stream from a master seed."""
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy=master_seed, spawn_key=(stream,)))
    )


_HALF = 1 << 32  # bound of one 32-bit half-word
_MASK = _HALF - 1

Draw = Callable[[int], int]  # draw(n): uniform on 0..n-1


class BufferedDraws:
    """``draw(n)``, uniform on 0..n-1, read from raw PCG64 word blocks.

    ``draw(n)`` equals ``Generator.integers(n)`` on the same generator for
    every int bound 1 <= n < 2**32. numpy draws it from 32-bit halves of
    64-bit PCG64 words, low half first: m = x * n for a half x, redrawn
    while m mod 2**32 < (2**32 - n) mod n (only tested once
    m mod 2**32 < n), giving m >> 32. n = 1 reads nothing; every other bound
    raises ``ValueError``. This class reads the halves from ``random_raw``
    blocks instead of one numpy call per draw. A half left pending in the
    generator (``has_uint32``) is read first.

    The generator runs ahead of what was read until ``close()``, which
    leaves it exactly where ``Generator.integers`` would have: advanced by
    the words read, with an unread high half pending. Draw nothing after
    ``close()``.
    """

    BLOCK = 256  # words per ``random_raw`` call

    def __init__(self, rng: np.random.Generator):
        if not isinstance(rng.bit_generator, np.random.PCG64):
            raise TypeError("BufferedDraws needs a PCG64 generator")
        self._bg = rng.bit_generator
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

    def draw(self, n: int) -> int:
        if type(n) is not int or not 1 < n < _HALF:
            if type(n) is int and n == 1:
                return 0  # bound 1 reads nothing
            raise ValueError(f"draw bound must be an int in 1..2**32 - 1, got {n!r}")
        buf = self._buf
        m = (buf.pop() if buf else self._refill()) * n
        if m & _MASK < n:
            t = (_HALF - n) % n
            while m & _MASK < t:
                buf = self._buf
                m = (buf.pop() if buf else self._refill()) * n
        return m >> 32

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
class RunResult:
    """One seeded run: what ``run`` returns and a row of the per-run CSV.

    ``steps`` counts recolorings; for the persistent variant it counts every
    color draw (including draws equal to the current color), for the parallel
    variant it counts rounds. ``terminated`` implies the final coloring is
    proper; a non-terminated, non-stalled run used exactly ``cap`` steps.
    The potentials are the integer numerators over 100 * max_degree
    (``state.potential`` gives the pair). ``wall_ns`` is the run's wall time,
    which ``harness.run_one`` fills in and ``run`` leaves 0; it is a
    measurement, not part of the result, so equality ignores it. Anything
    read along the way, such as the least conflicted count a run reaches, is
    an observer's (see ``run``).
    """

    steps: int
    terminated: bool
    initial_phi_num: int
    final_phi_num: int
    stalled: bool = False
    wall_ns: int = field(default=0, compare=False)


Step = tuple[tuple[int, ...], tuple[int, ...], int]  # (vertices, colors, draws)
Observer = Callable[[ColoringState, int, tuple[int, ...], tuple[int, ...]], None]


def step_uniform(state: ColoringState, draw: Draw) -> Step:
    """One step: vertex uniform over the conflicted set, then color uniform.

    Consumes exactly two draws, vertex first, color second. The new color may
    equal the old one.
    """
    dense = state.conflicted
    if not dense:
        raise ProperColoringError(_NO_STEP)
    v = dense[draw(len(dense))]
    c = 1 + draw(state.k)
    state.recolor(v, c)
    return (v,), (c,), 1


def step_component_view(state: ColoringState, draw: Draw) -> Step:
    """One step through the component decomposition.

    Three draws in order: a conflicted vertex, as ``uniform`` picks it, which
    lands in a component with probability proportional to its vertex count;
    then a vertex uniform over that component's sorted members; then a color.
    Only the drawn component is walked.
    """
    dense = state.conflicted
    if not dense:
        raise ProperColoringError(_NO_STEP)
    members = state.same_color_reach(dense[draw(len(dense))], set())
    v = members[draw(len(members))]
    c = 1 + draw(state.k)
    state.recolor(v, c)
    return (v,), (c,), 1


def step_persistent(state: ColoringState, draw: Draw, draw_limit: float = math.inf) -> Step:
    """One persistent step: redraw the picked vertex until it fits.

    Draw order: vertex first, then colors one at a time until the candidate
    color appears on no neighbor. Intermediate draws touch nothing; only the
    accepted color is applied. With k = max_degree + 1 a free color always
    exists; with smaller palettes the neighbors can carry all k colors, and
    such a pick is stuck for good: the step returns no color after 0 color
    draws. A pick with a free color ends with probability 1; the loop makes
    at most ``draw_limit`` color draws (``run`` passes the steps left of its
    cap), and a step that runs out of them returns no color. A step that
    returns no color changes nothing.
    """
    dense = state.conflicted
    if not dense:
        raise ProperColoringError(_NO_STEP)
    v = dense[draw(len(dense))]
    blocked = state.neighbor_colors(v)
    k = state.k
    if len(blocked) == k:
        return (v,), (), 0
    draws = 0
    while draws < draw_limit:
        c = 1 + draw(k)
        draws += 1
        if c not in blocked:
            state.recolor(v, c)
            return (v,), (c,), draws
    return (v,), (), draws


def step_parallel(state: ColoringState, draw: Draw) -> Step:
    """One round: every currently conflicted vertex redraws simultaneously.

    Membership in the recoloring set is frozen before any draw; draws happen
    in ascending vertex order, then all updates are applied at once.
    """
    if not state.conflicted:
        raise ProperColoringError(_NO_STEP)
    frozen = state.conflicted_vertices()
    k = state.k
    colors = tuple([1 + draw(k) for _ in frozen])
    state.apply_batch(frozen, colors)
    return frozen, colors, 1


class Trace:
    """The JSON lines of ``colorsim run --trace-out``, as ``run``'s ``observe``.

    A t=0 line of the initial state, then one per applied step, each with
    ``t``, the recolored ``vertices``, their new ``colors``, ``mono_edges``,
    ``iso_edges``, ``iso_proper_edges`` (e_ip) and ``phi_num`` after it. A
    ``parallel`` round (it freezes both ends of a conflict, so two or more
    vertices) reads the state's counts. A one-vertex step takes the latest
    line's counts minus what recoloring v back would change
    (``recount_change``): local, where a full recount costs O(n + m). Each
    line goes to ``emit`` as a dict when it is made; the trace keeps none.
    """

    def __init__(self, emit: Callable[[dict], object]):
        self._emit = emit

    def __call__(self, state: ColoringState, t: int, vertices: tuple, colors: tuple) -> None:
        if len(vertices) == 1:
            (v,), (c,) = vertices, colors
            d_mono, d_iso, d_eip = state.recount_change(v, self._colors[v])
            mono, iso, e_ip = self._counts
            self._counts = (mono - d_mono, iso - d_iso, e_ip - d_eip)
            self._colors[v] = c
        else:  # t=0, or a parallel round
            self._colors = list(state.colors)  # the colors at the latest line
            self._counts = (state.mono_edge_count, state.iso_edge_count, state.e_ip)
        mono, iso, e_ip = self._counts
        self._emit({"t": t, "vertices": list(vertices), "colors": list(colors),
                    "mono_edges": mono, "iso_edges": iso, "iso_proper_edges": e_ip,
                    "phi_num": phi_numerator(state.graph.max_degree, mono, iso, e_ip)})


def run(state: ColoringState, variant: str, cap: int, rng: np.random.Generator,
        observe: Observer | None = None) -> RunResult:
    """Apply the variant's step until the coloring is proper or ``cap`` is spent.

    Cap exhaustion is a result, not an error; so is a stall, a persistent pick
    whose neighbors carry every color, which ends the run at once. ``observe``
    (``Trace``, for one) is called as ``observe(state, 0, (), ())`` before the
    first step and as ``observe(state, t, vertices, colors)`` after each
    applied step, t being the steps so far; a stuck pick or a step the cap cut
    off is not applied, nor observed. ``rng`` is a PCG64 generator; the steps
    draw from it through ``BufferedDraws.draw``, and on return it stands where
    the same ``Generator.integers(n)`` calls would have left it.
    """
    if variant not in STEPS:
        raise ValueError(f"unknown variant {variant!r}")
    if cap < 0:
        raise ValueError("cap must be >= 0")
    initial_num = state.phi_num
    conflicted = len(state.conflicted)
    if observe is not None:
        observe(state, 0, (), ())
    step = globals()[STEPS[variant]]
    budgeted = variant == "persistent"
    steps = 0
    stalled = False
    draws = BufferedDraws(rng)
    draw = draws.draw
    try:
        while conflicted and steps < cap:
            vertices, colors, used = (
                step(state, draw, cap - steps) if budgeted else step(state, draw))
            steps += used
            conflicted = len(state.conflicted)  # apply_batch replaces the list
            if not colors:  # a stuck pick, or the cap ran out
                stalled = steps < cap
                break
            if observe is not None:
                observe(state, steps, vertices, colors)
    finally:
        draws.close()
    return RunResult(
        steps=steps,
        terminated=not conflicted,
        initial_phi_num=initial_num,
        final_phi_num=state.phi_num if conflicted else 0,  # no monochromatic edge: phi is 0
        stalled=stalled,
    )
