"""Discrete queue dynamics: the tick update, rollouts, and the cost bound.

Each tick runs in a fixed order: open paths that have been green long
enough release their front vehicle, every remaining vehicle waits one
more tick, and the tick cost is the total priority still queued. Costs
therefore accumulate priority-weighted completed waiting ticks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import ConstraintViolationError, DimensionError, InvalidSpecError
from .model import (
    IntersectionSpec,
    Phase,
    TrafficSnapshot,
    VehicleRecord,
    _check_phase_width,
    is_feasible_phase,
)


@dataclass(frozen=True)
class DynamicsConfig:
    """Timing parameters shared by the planner and the simulator.

    phase_ticks is how long every scheduled phase is held, slow_start is
    the number of departure-free ticks after a path turns green, and
    tick_seconds converts tick counts to real time for reporting only.
    """

    phase_ticks: int = 4
    slow_start: int = 1
    tick_seconds: float = 5.0

    def __post_init__(self) -> None:
        if self.phase_ticks < 1:
            raise InvalidSpecError("phase_ticks must be >= 1")
        if self.slow_start < 0:
            raise InvalidSpecError("slow_start must be >= 0")
        # slow_start < phase_ticks keeps every phase able to serve at
        # least one vehicle, which drain liveness depends on.
        if self.slow_start >= self.phase_ticks:
            raise InvalidSpecError("slow_start must be smaller than phase_ticks")
        if not (math.isfinite(self.tick_seconds) and self.tick_seconds > 0):
            raise InvalidSpecError("tick_seconds must be finite and positive")


@dataclass(frozen=True)
class StepOutcome:
    """One tick's next state, departures, cost and next green ages."""

    next: TrafficSnapshot
    departed: tuple[tuple[int, VehicleRecord], ...]
    tick_cost: int
    green_age: tuple[int, ...]


@lru_cache(maxsize=1 << 16)
def _record(priority: int, wait: int) -> VehicleRecord:
    """The one shared record for a (priority, wait) pair.

    Records are immutable values, so every queued vehicle with the same
    pair can hold the same instance; a miss builds it through the
    validating constructor. The bound keeps the memo small however long
    waits grow.
    """
    return VehicleRecord(priority, wait)


def step(
    spec: IntersectionSpec,
    s: TrafficSnapshot,
    phase: Phase,
    green_age: tuple[int, ...] | list[int],
    cfg: DynamicsConfig,
) -> StepOutcome:
    """Advance one tick under `phase`.

    `green_age[i]` is how many ticks path i has already been green before
    this one; a path releases its front vehicle only once that age reaches
    `cfg.slow_start`. In order: departures happen, remaining vehicles age
    by one tick, and the tick cost is the total priority left waiting. A
    departing vehicle is recorded with its wait as of this tick and does
    not pay for the tick in which it leaves. Ages of closed paths are
    ignored. `StepOutcome.green_age` holds the ages entering the next
    tick, age + 1 for an open path and 0 for a closed one; the caller
    passes it to the next call under any phase.

    Aged vehicles are looked up in a bounded memo keyed on
    (priority, wait + 1) instead of being rebuilt, so a tick costs one
    lookup per queued vehicle; the records compare equal to fresh ones.
    """
    spec.validate_snapshot(s)
    if len(green_age) != spec.num_paths:
        raise DimensionError(
            f"green_age covers {len(green_age)} paths, expected {spec.num_paths}"
        )
    if not is_feasible_phase(phase, spec.conflicts):
        raise ConstraintViolationError(f"phase {phase} opens conflicting paths")

    mask = phase.mask
    slow_start = cfg.slow_start
    departed = []
    next_queues = []
    for i, q in enumerate(s.queues):
        if q:
            if mask >> i & 1 and green_age[i] >= slow_start:
                departed.append((i, q[0]))
                q = q[1:]
            q = tuple([_record(v.priority, v.wait + 1) for v in q])
        next_queues.append(q)
    return StepOutcome(
        next=TrafficSnapshot(tick=s.tick + 1, queues=tuple(next_queues)),
        departed=tuple(departed),
        tick_cost=sum([v.priority for q in next_queues for v in q]),
        green_age=tuple([a + 1 if mask >> i & 1 else 0 for i, a in enumerate(green_age)]),
    )


def initial_green_ages(
    spec: IntersectionSpec, prev_phase: Phase, cfg: DynamicsConfig
) -> list[int]:
    """Green ages entering a plan: paths already open count as warmed up."""
    _check_phase_width(prev_phase, spec.num_paths)
    return [cfg.slow_start if prev_phase.is_open(i) else 0 for i in range(spec.num_paths)]


def rollout_cost(
    spec: IntersectionSpec,
    s: TrafficSnapshot,
    schedule: tuple[Phase, ...],
    prev_phase: Phase,
    cfg: DynamicsConfig,
) -> tuple[int, TrafficSnapshot]:
    """Total cost of holding each scheduled phase for `phase_ticks` ticks.

    Returns the summed tick costs and the final state. Green ages thread
    across the whole rollout: a path keeps its age while it stays open
    from one phase into the next and restarts from zero when it reopens,
    including the hand-off from `prev_phase` into the first scheduled
    phase.
    """
    if not schedule:
        raise InvalidSpecError("schedule must contain at least one phase")
    ages = initial_green_ages(spec, prev_phase, cfg)
    total = 0
    state = s
    for phase in schedule:
        for _ in range(cfg.phase_ticks):
            out = step(spec, state, phase, ages, cfg)
            total += out.tick_cost
            state = out.next
            ages = out.green_age
    return total, state


def lower_bound(s: TrafficSnapshot, remaining_ticks: int) -> int:
    """Admissible lower bound on any feasible continuation's cost.

    A vehicle behind j others cannot leave before j ticks have passed, so
    over R remaining ticks it pays at least priority * min(j, R) no matter
    which phases are chosen, even ignoring slow starts and conflicts.
    """
    if remaining_ticks < 0:
        raise InvalidSpecError("remaining_ticks must be >= 0")
    total = 0
    for q in s.queues:
        for j, v in enumerate(q):
            total += v.priority * min(j, remaining_ticks)
    return total
