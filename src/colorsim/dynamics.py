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

RNG contract: a named, versioned, splittable generator (numpy PCG64 seeded
through SeedSequence). Per-run streams come from
``make_rng(master_seed, stream)``; draw order is fixed and documented on each
step function, so equal inputs reproduce traces byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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
VARIANTS = tuple(STEPS)
VARIANT_ALIASES = {"component": "component_view"}

DEFAULT_PERSISTENT_DRAW_CAP = 10**6


class ProperColoringError(ValueError):
    """A step was requested on a coloring that is already proper."""


def make_rng(master_seed: int, stream: int = 0) -> np.random.Generator:
    """Derive an independent, reproducible PCG64 stream from a master seed."""
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy=master_seed, spawn_key=(stream,)))
    )


@dataclass(frozen=True)
class StepOutcome:
    """What one step changed: the recolored vertices and their new colors.

    ``draws`` counts color draws consumed (only the persistent variant uses
    more than one). ``stalled`` marks a persistent step whose per-vertex draw
    guard tripped before a usable color appeared; the state is unchanged then.
    """

    vertices: tuple[int, ...]
    colors: tuple[int, ...]
    draws: int = 1
    stalled: bool = False


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
    """Terminal statistics of one seeded run.

    ``steps`` counts recolorings; for the persistent variant it counts every
    color draw (including draws equal to the current color), for the parallel
    variant it counts rounds. ``terminated`` implies the final coloring is
    proper; a non-terminated, non-stalled run used exactly ``cap`` steps.
    """

    steps: int
    terminated: bool
    initial_phi: Fraction
    final_phi: Fraction
    stalled: bool = False


def _require_conflict(state: ColoringState) -> None:
    if state.conflicted_count == 0:
        raise ProperColoringError("coloring is already proper; no step to take")


def step_uniform(state: ColoringState, rng: np.random.Generator) -> StepOutcome:
    """One step: vertex uniform over the conflicted set, then color uniform.

    Consumes exactly two draws, vertex first, color second. The new color may
    equal the old one.
    """
    _require_conflict(state)
    v = state.conflicted_at(int(rng.integers(state.conflicted_count)))
    c = int(rng.integers(1, state.k + 1))
    state.recolor(v, c)
    return StepOutcome((v,), (c,))


def step_component_view(state: ColoringState, rng: np.random.Generator) -> StepOutcome:
    """One step through the component decomposition.

    Three draws in order: component (weighted by vertex count), vertex inside
    the component, color.
    """
    _require_conflict(state)
    view = state.monochromatic_components()
    total = view.total_vertices
    r = int(rng.integers(total))
    acc = 0
    chosen = view.components[-1]
    for comp in view.components:
        acc += comp.size
        if r < acc:
            chosen = comp
            break
    v = chosen.vertices[int(rng.integers(chosen.size))]
    c = int(rng.integers(1, state.k + 1))
    state.recolor(v, c)
    return StepOutcome((v,), (c,))


def step_persistent(
    state: ColoringState,
    rng: np.random.Generator,
    draw_cap: int = DEFAULT_PERSISTENT_DRAW_CAP,
    draw_budget: int | None = None,
) -> StepOutcome:
    """One persistent step: redraw the picked vertex until it fits.

    Draw order: vertex first, then colors one at a time until the candidate
    color appears on no neighbor. Intermediate draws touch nothing; only the
    accepted color is applied. With k = max_degree + 1 a free color always
    exists; with smaller palettes the neighborhood can cover every color, so
    the loop is guarded by ``draw_cap`` and reports a stall distinctly.
    ``draw_budget`` (when given) additionally bounds the draws this step may
    consume; running out of budget is not a stall.
    """
    _require_conflict(state)
    v = state.conflicted_at(int(rng.integers(state.conflicted_count)))
    blocked = state.neighbor_colors(v)
    limit = draw_cap if draw_budget is None else min(draw_cap, draw_budget)
    k = state.k
    draws = 0
    while draws < limit:
        c = int(rng.integers(1, k + 1))
        draws += 1
        if c not in blocked:
            state.recolor(v, c)
            return StepOutcome((v,), (c,), draws=draws)
    stalled = draw_budget is None or draw_cap < draw_budget
    return StepOutcome((v,), (), draws=draws, stalled=stalled)


def step_parallel(state: ColoringState, rng: np.random.Generator) -> StepOutcome:
    """One round: every currently conflicted vertex redraws simultaneously.

    Membership in the recoloring set is frozen before any draw; draws happen
    in ascending vertex order, then all updates are applied at once.
    """
    _require_conflict(state)
    frozen = state.conflicted_vertices()
    draws = rng.integers(1, state.k + 1, size=len(frozen))
    colors = tuple(int(c) for c in draws)
    state.apply_batch(frozen, colors)
    return StepOutcome(frozen, colors)


def selection_distribution(state: ColoringState, variant: str) -> dict[int, Fraction]:
    """Exact vertex-selection law of the given variant on the current state.

    Mirrors the sampling structure the step functions actually use, so the
    equality of the ``uniform`` and ``component_view`` laws is a checkable
    property rather than an assumption.
    """
    _require_conflict(state)
    if variant == "uniform" or variant == "persistent":
        w = Fraction(1, state.conflicted_count)
        return {v: w for v in state.conflicted_vertices()}
    if variant == "component_view":
        view = state.monochromatic_components()
        total = view.total_vertices
        out: dict[int, Fraction] = {}
        for comp in view.components:
            w = Fraction(comp.size, total) * Fraction(1, comp.size)
            for v in comp.vertices:
                out[v] = w
        return out
    raise ValueError(f"no single-vertex selection law for variant {variant!r}")


def run(
    state: ColoringState,
    variant: str,
    cap: int,
    rng: np.random.Generator,
    trace: bool = False,
    persistent_draw_cap: int = DEFAULT_PERSISTENT_DRAW_CAP,
) -> tuple[RunResult, list[TraceRecord]]:
    """Apply the variant's step until the coloring is proper or ``cap`` is spent.

    Cap exhaustion is a result, not an error. The trace (when requested)
    starts with a t=0 record of the initial state and then one record per
    applied step.
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

    initial_phi = state.potential()
    if trace:
        counts = (state.mono_edge_count, state.iso_edge_count, state.e_ip)
        shadow = list(state.colors)  # the colors at the latest record
        record(0, (), (), counts)
    step = globals()[STEPS[variant]]
    budgeted = variant == "persistent"
    steps = 0
    stalled = False
    while state.conflicted_count > 0 and steps < cap:
        out = step(state, rng, persistent_draw_cap, cap - steps) if budgeted else step(state, rng)
        steps += out.draws
        if out.stalled:
            stalled = True
            break
        if trace and out.colors:
            if variant == "parallel":
                counts = (state.mono_edge_count, state.iso_edge_count, state.e_ip)
            else:
                # the counts before the step, minus what recoloring v back to
                # its old color would change: local, where a full recount
                # would cost O(n + m) per step
                (v,), (c,) = out.vertices, out.colors
                d_mono, d_iso, d_eip = state.recount_change(v, shadow[v])
                counts = (counts[0] - d_mono, counts[1] - d_iso, counts[2] - d_eip)
                shadow[v] = c
            record(steps, out.vertices, out.colors, counts)
    result = RunResult(
        steps=steps,
        terminated=state.conflicted_count == 0,
        initial_phi=initial_phi,
        final_phi=state.potential(),
        stalled=stalled,
    )
    return result, records
