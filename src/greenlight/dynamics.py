"""Discrete queue dynamics: the tick update and rollouts.

Each tick runs in a fixed order: open paths that have been green long
enough release their front vehicle, every remaining vehicle waits one
more tick, and the tick cost is the total priority still queued. Costs
therefore accumulate priority-weighted completed waiting ticks.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DimensionError, InvalidSpecError
from .model import IntersectionSpec, Phase, TrafficSnapshot, VehicleRecord, _check_int, _check_phase, _older_than


@dataclass(frozen=True)
class DynamicsConfig:
    """Timing parameters shared by the planner and the simulator.

    phase_ticks is how long every scheduled phase is held and slow_start is
    the number of departure-free ticks after a path turns green.
    """

    phase_ticks: int = 4
    slow_start: int = 1

    def __post_init__(self) -> None:
        _check_int(self.phase_ticks, "phase_ticks", 1)
        _check_int(self.slow_start, "slow_start", 0)
        # slow_start < phase_ticks keeps every phase able to serve at
        # least one vehicle, which drain liveness depends on.
        if self.slow_start >= self.phase_ticks:
            raise InvalidSpecError("slow_start must be smaller than phase_ticks")


@dataclass(frozen=True)
class StepOutcome:
    """One tick's next state, departures and next green ages. The episode
    loop never reads the tick's cost, so it is summed only when read."""

    next: TrafficSnapshot
    departed: tuple[tuple[int, VehicleRecord], ...]
    green_age: tuple[int, ...]

    @property
    def tick_cost(self) -> int:
        """The total priority still queued after the tick."""
        return sum([v.priority for q in self.next.queues for v in q])


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

    Aged vehicles are not rebuilt: a record ages into its stored
    successor (`model._older_than`), one slot read per vehicle. A queue
    holding a record not yet aged builds the missing successors once.
    Either way the records compare equal to fresh ones.
    """
    spec.validate_snapshot(s)
    if len(green_age) != spec.num_paths:
        raise DimensionError(
            f"green_age covers {len(green_age)} paths, expected {spec.num_paths}"
        )
    _check_phase(phase, spec.conflicts)

    mask = phase.mask
    slow_start = cfg.slow_start
    departed = []
    next_queues = []
    for i, q in enumerate(s.queues):
        if q:
            if mask >> i & 1 and green_age[i] >= slow_start:
                departed.append((i, q[0]))
                q = q[1:]
            try:
                q = tuple([v._older for v in q])
            except AttributeError:  # a record with no successor yet
                q = tuple([_older_than(v) for v in q])
        next_queues.append(q)
    return StepOutcome(
        TrafficSnapshot(s.tick + 1, tuple(next_queues)),
        tuple(departed),
        tuple([a + 1 if mask >> i & 1 else 0 for i, a in enumerate(green_age)]),
    )


def initial_green_ages(
    spec: IntersectionSpec, prev_phase: Phase, cfg: DynamicsConfig
) -> list[int]:
    """Green ages entering a plan from a feasible phase: its open paths are warm."""
    _check_phase(prev_phase, spec.conflicts)
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

